"""The four fixed CLI workloads and their answer extraction.

Each workload is one ``ektlab`` command line.  The full inputs are what the
benchmark times; the smoke inputs are the same commands shrunk so the
self-test finishes in seconds.  ``answers`` turns one run's output directory
and the facts the child recorded into a flat dict of the values the
reference check gates; ``fingerprint`` adds the values that are recorded
but not gated.  This module is stdlib-only: run.py imports it without
numpy.
"""
from __future__ import annotations

import csv
import glob
import hashlib
import json
import math
import os

WORKLOADS = {
    "catenoid": {
        "argv": ["figure", "catenoid-domains", "--mu", "3"],
        "smoke": ["--step", "2e-3", "--s-cap", "20"],
    },
    "js-fine": {
        "argv": ["solve", "--a", "1", "--b", "1", "--k", "2", "--H", "0.4",
                 "--target-h", "0.007"],
        "smoke": ["--target-h", "0.05"],
    },
    "noid": {
        "argv": ["figure", "noid-domain", "--H", "0.4", "--b", "2"],
        "smoke": ["--target-h", "0.05"],
    },
    "sweep": {
        "argv": ["figure", "sweep-d", "--H", "0.4", "--workers", "1"],
        "smoke": ["--target-h", "0.04"],
    },
}

# noid writes no rho, so the child computes it from the solutions the
# program returned, after the timed call
RHO_FROM_SOLUTIONS = {"noid"}


def argv_for(name: str, smoke: bool) -> list:
    spec = WORKLOADS[name]
    return list(spec["argv"]) + (list(spec["smoke"]) if smoke else [])


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _one(out: str, pattern: str) -> str:
    found = sorted(glob.glob(os.path.join(out, pattern)))
    if len(found) != 1:
        raise ValueError(f"expected one {pattern} in the output, found {len(found)}")
    return found[0]


def _march_answers(facts: dict) -> dict:
    march = facts["march"]
    return {"march.curves": len(march),
            "march.steps": sum(m["steps"] for m in march),
            "march.reason": [m["reason"] for m in march]}


def answers(name: str, out: str, facts: dict) -> dict:
    """Gated values of one run, keyed as in reference.json."""
    newton = facts["newton"]
    got = {"newton.solves": len(newton)}
    if name == "catenoid":
        v = _load_json(_one(out, "catenoid_domains.json"))["verdicts"]["3"]
        got.update(crossings=v["crossings"], embedded=v["embedded"],
                   area2=v["multiplicity_2_area"])
        got.update(_march_answers(facts))
    elif name == "js-fine":
        rep = _load_json(_one(out, "solution_*.json"))
        got.update(d=rep["d_estimate"], rho=rep["rho_estimate"],
                   nodes=newton[-1]["nodes"])
    elif name == "noid":
        v = _load_json(_one(out, "noid_domain.json"))["verdict"]
        got.update(d=v["d_estimate"], rho=facts["rho"],
                   nodes=newton[-1]["nodes"], crossings=v["crossings"],
                   embedded=v["embedded"],
                   threshold_predicts_embedded=v["threshold_predicts_embedded"])
        got.update(_march_answers(facts))
    elif name == "sweep":
        rep = _load_json(_one(out, "sweep_d.json"))
        with open(_one(out, "sweep_d.csv"), encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        for a, b, d in rows[1:]:
            got[f"d[{a},{b}]"] = float(d)
        got.update(max_d=rep["max_d"],
                   max_d_over_schedule=rep["max_d_over_schedule"],
                   monotone_in_a=rep["monotone_in_a"],
                   monotone_in_b=rep["monotone_in_b"])
    else:
        raise KeyError(name)
    return got


def fingerprint(name: str, out: str, facts: dict) -> dict:
    """Recorded, ungated values: Newton iterations per M, the Cauchy
    indicator, and the SHA-256 of every output file."""
    info = {"newton_iters_per_M": [[n["M"], n["iters"]] for n in facts["newton"]],
            "sha256": {}}
    for path in sorted(glob.glob(os.path.join(out, "*"))):
        with open(path, "rb") as fh:
            info["sha256"][os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    if name == "js-fine":
        info["cauchy_indicator"] = _load_json(_one(out, "solution_*.json"))["cauchy_indicator"]
    return info


def check(got: dict, reference: dict) -> list:
    """Mismatches between one run's answers and the reference, as text.

    A reference entry is ``{"value": v}`` (exact) or ``{"value": v, "abs": t}``
    (|got - v| <= t).  Every answer must have a reference entry and every
    entry an answer, so nothing drops out of the check unnoticed.
    """
    bad = [f"{key}: not in the reference" for key in sorted(set(got) - set(reference))]
    for key, ref in sorted(reference.items()):
        if key not in got:
            bad.append(f"{key}: missing")
            continue
        value = got[key]
        if "abs" in ref:
            ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
                  and math.isfinite(value) and abs(value - ref["value"]) <= ref["abs"])
        else:
            ok = value == ref["value"]
        if not ok:
            bad.append(f"{key}: got {value!r}, want {ref['value']!r}"
                       + (f" +- {ref['abs']!r}" if "abs" in ref else ""))
    return bad
