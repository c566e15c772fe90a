"""Command-line front end: reproducible experiments over the surface families.

Subcommands
    helicoid   profile one family member, write CSV/JSON (optionally OBJ)
    solve      one Jenkins-Serrin sweep, write solution CSV + report JSON
    figure     regenerate a named figure deterministically: catenoid-domains,
               sweep-d or noid-domain, each taking only the options it reads
    audit      run the module invariant suite, exit 1 on any failure

Exit codes: 0 success, 1 numeric failure, 2 usage or I/O error.  Every file
is written deterministically (repr floats, sorted JSON keys, no timestamps)
so identical configs give byte-identical outputs at any worker count.  A
config file of key=value lines overrides any flag of the active subcommand
(for `figure`, of the named figure); a key that names none exits 2.
Each numeric option's domain is declared once, in ``_DOMAINS``: a flag or a
config value outside it exits 2 before any work starts.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence

import numpy as np

from .audit import format_table, run_audit
from .curves import DEFAULT_S_CAP, DEFAULT_STEP
from .embedding import (critical_catenoid_domain, fiber_domain,
                        report_json_dict, write_domain_panels_svg,
                        write_domain_svg)
from .helicoid import (QuadratureError, c_of_mu, first_integral_residual,
                       invert_profile, minimality_residual, model_height,
                       profile_csv_lines, residual_grid, sigma, t_mu)
from .solver import (SolverError, boundary_theta_prime, distance_d,
                     distance_d_single, richardson_extrapolate,
                     solution_csv_lines, solution_report_dict,
                     solve_jenkins_serrin)
from .spaces import GeometryError, interior_angle_threshold_b

__all__ = ["main"]


class UsageError(Exception):
    """Bad parameters or unusable filesystem locations (exit code 2)."""


# ---------------------------------------------------------------- plumbing

def _parse_side(text: str) -> float:
    try:
        return float(text)  # also reads "inf" and "infinity", any case
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a side length: {text!r}")


def _float_list(text: str) -> List[float]:
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number list: {text!r}")


def _prepare_out(path: str) -> str:
    """Create the output directory (one level); missing parent is an error."""
    if os.path.isdir(path):
        return path
    if os.path.exists(path):
        raise UsageError(f"output path {path!r} exists and is not a directory")
    try:
        os.mkdir(path)
    except OSError as exc:
        raise UsageError(f"cannot create output dir {path!r}: {exc}")
    return path


def _write_lines(path: str, lines) -> None:
    """Write each line and a newline, one line at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


def _write_json(path: str, payload: dict) -> None:
    _write_lines(path, [json.dumps(payload, sort_keys=True, indent=2)])


def _name(x: float) -> str:
    """repr(x) less a trailing ".0": distinct values get distinct names."""
    return repr(float(x)).removesuffix(".0")


def _config_value(option: argparse.Action, text: str):
    """A config value parsed as the option's flag parses it; a repeatable
    option takes a number list and a switch a truth word."""
    if isinstance(option, argparse._StoreTrueAction):
        word = text.strip().lower()
        if word not in ("1", "true", "yes", "0", "false", "no"):
            raise ValueError(f"{text!r} is not one of 1, true, yes, 0, false, no")
        return word in ("1", "true", "yes")
    if isinstance(option, argparse._AppendAction):
        return _float_list(text)
    value = (option.type or str)(text)
    if option.choices is not None and value not in option.choices:
        raise ValueError(f"{value!r} is not one of {list(option.choices)}")
    return value


def _options(args: argparse.Namespace,
             parser: argparse.ArgumentParser) -> dict:
    """The chosen sub-parser's options (a figure's own), keyed by dest."""
    for a in parser._actions:
        if isinstance(a, argparse._SubParsersAction):
            return _options(args, a.choices[getattr(args, a.dest)])
    return {a.dest: a for a in parser._actions if a.dest != "help"}


def _apply_config(args: argparse.Namespace,
                  parser: argparse.ArgumentParser) -> None:
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config {args.config!r}: {exc}")
    options = _options(args, parser)
    for n, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{args.config}:{n}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in options:
            raise UsageError(f"{args.config}:{n}: unknown key {key!r}")
        try:
            setattr(args, key, _config_value(options[key], value))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"{args.config}:{n}: {exc}")


def _positive(v: float) -> bool:
    return 0 < v < math.inf  # false for nan too


def _distinct(ok):
    """A non-empty list of distinct values that each pass ok."""
    return lambda vs: 0 < len(vs) == len(set(vs)) and all(map(ok, vs))


# Every numeric option's domain, keyed by dest: (test, what the value must
# be).  Rules that span fields or belong to one figure stay in the commands.
_DOMAINS = {
    # t_mu cubes 1 - 2mu and sigma squares 1 + 2mu as Python floats, which
    # overflow (or, in t_mu, round to 0) not far past |mu| = 1e100
    "mu": (lambda mu: abs(mu) <= 1e100, "at most 1e100 in magnitude"),
    "fault_inject": (math.isfinite, "finite"),
    **dict.fromkeys(("spacing", "u_max", "b", "target_h", "r_trunc", "step",
                     "s_cap"), (_positive, "positive and finite")),
    # the helicoid window is used only when t_mu = inf; the sample cap bounds it
    **dict.fromkeys(("a", "b_side", "window"),
                    (lambda v: v > 0, "positive (inf allowed)")),
    **dict.fromkeys(("a_grid", "b_grid"), (_distinct(_positive), "distinct, "
                    "positive and finite; sweep grids must not be empty")),
    "span": (lambda v: 0 < v < 1, "in (0, 1)"),
    "k": (lambda k: k >= 2, "an integer >= 2"),
    "workers": (lambda n: n >= 1, "at least 1"),
    "m_sign": (lambda s: s in (1, -1), "1 or -1"),
    "H": (lambda H: 0 < H <= 0.5, "in the conjugation range (0, 1/2]"),
    "M": (lambda M: _distinct(_positive)(M) and M == sorted(M),
          "a non-empty, strictly increasing list of positive finite values"),
    # a panel's label and verdict key is f"{mu:g}"
    "mus": (lambda mus: _distinct(lambda mu: 0.5 < abs(mu) <= 1e100)(mus)
            and len({f"{mu:g}" for mu in mus}) == len(mus),
            "non-empty and distinct to 6 significant digits, each with "
            "1/2 < |mu| <= 1e100"),
}


# ---------------------------------------------------------------- helicoid

# cap on the residual grid: the profile holds v, f and h at this length and
# the residuals a few temporaries of it (the inversion's are block-sized)
_MAX_SAMPLES = 10 ** 7

# largest helicoid window: the inversion forms x^2, c^2 x^2 and c m x^2
# (m = 1 - c^2), where x <= 2 |v| and |c| < 2**54 for |mu| < 1/2, so all
# three stay finite (c m x^2 below about 2e249)
_MAX_WINDOW = 1e100

def _write_obj(path: str, profile, u_max: float) -> None:
    """Height-field mesh of the ruled member over the (u, v) chart."""
    stride = max(1, (profile.v.size - 1) // 120)
    v = profile.v[::stride]
    if v[-1] != profile.v[-1]:
        v = np.append(v, profile.v[-1])
    u = np.linspace(-u_max, u_max, 61)
    lines = [f"# mu={profile.mu!r}", f"# t_mu={profile.t_mu!r}",
             f"# u_max={u_max!r}", f"# grid={u.size}x{v.size}"]
    z = model_height(u[:, None], v[None, :], profile)
    for i in range(u.size):
        for j in range(v.size):
            lines.append(f"v {float(u[i])!r} {float(v[j])!r} {float(z[i, j])!r}")
    for i in range(u.size - 1):
        for j in range(v.size - 1):
            q00 = i * v.size + j + 1
            q01 = q00 + 1
            q10 = q00 + v.size
            q11 = q10 + 1
            lines.append(f"f {q00} {q10} {q11}")
            lines.append(f"f {q00} {q11} {q01}")
    _write_lines(path, lines)


def cmd_helicoid(args: argparse.Namespace) -> int:
    mu = args.mu
    t = t_mu(mu)
    # residual_grid allocates 2 floor(vmax/spacing) + 1 samples
    vmax = args.window if math.isinf(t) else args.span * t
    if vmax / args.spacing >= _MAX_SAMPLES / 2:
        raise UsageError(f"the grid needs more than {_MAX_SAMPLES:,} samples: "
                         "raise --spacing or shrink --span/--window")
    if math.isinf(t) and args.window > _MAX_WINDOW:
        raise UsageError(f"--window must be at most {_MAX_WINDOW:g}, past which "
                         "the profile's squares overflow")
    special = {0.0: "umbrella", 0.5: "invariant surface"}.get(abs(mu))
    v = residual_grid(mu, spacing=args.spacing, fraction=args.span,
                      window=args.window)
    profile = invert_profile(mu, v)
    res_min = minimality_residual(profile)
    try:
        res_first = first_integral_residual(profile)
    except GeometryError:
        res_first = None  # f identically 0 at mu = 1/2, no slope law to check
    report = {
        "mu": mu,
        "c": c_of_mu(mu) if mu != 0.5 else None,  # pole of (1+2mu)/(1-2mu)
        "t_mu": "inf" if math.isinf(t) else t,
        "sigma": sigma(mu) if abs(mu) > 0.5 else None,
        "special": special,
        "minimality_residual": res_min,
        "first_integral_residual": res_first,
        "grid": {"spacing": args.spacing, "span": args.span,
                 "window": args.window, "samples": int(v.size)},
    }
    out = _prepare_out(args.out)
    stem = os.path.join(out, f"helicoid_mu_{_name(mu)}")
    _write_lines(stem + ".csv", profile_csv_lines(profile))
    _write_json(stem + ".json", report)
    written = [stem + ".csv", stem + ".json"]
    if args.obj:
        _write_obj(stem + ".obj", profile, args.u_max)
        written.append(stem + ".obj")
    flag = f" [{special}]" if special else ""
    print(f"mu={_name(mu)}{flag}  t_mu={report['t_mu']}  "
          f"minimality_residual={res_min:.3e}  wrote {', '.join(written)}")
    return 0


# ------------------------------------------------------------------- solve

def cmd_solve(args: argparse.Namespace) -> int:
    if math.isinf(args.a) and math.isinf(args.b_side):
        raise UsageError("a and b cannot both be inf")
    r_trunc = args.r_trunc
    if r_trunc is None and (math.isinf(args.a) or math.isinf(args.b_side)):
        r_trunc = 4.0
    sols = solve_jenkins_serrin(args.a, args.b_side, args.k, args.H,
                                list(args.M), args.target_h,
                                R_trunc=r_trunc, m_sign=args.m_sign)
    last = sols[-1]
    report = solution_report_dict(sols)
    out = _prepare_out(args.out)
    stem = os.path.join(out, f"solution_a{_name(args.a)}_b{_name(args.b_side)}"
                             f"_k{args.k}_H{_name(args.H)}")
    _write_lines(stem + ".csv", solution_csv_lines(last))
    _write_json(stem + ".json", report)
    ci = report["cauchy_indicator"]
    ci_txt = "n/a" if ci is None else f"{ci:.3e}"
    print(f"T(a={_name(args.a)}, b={_name(args.b_side)}, k={args.k}, "
          f"H={_name(args.H)})  nodes={last.domain.n_nodes}  "
          f"d={report['d_estimate']:.6f}  rho={report['rho_estimate']:.6f}  "
          f"cauchy={ci_txt}  wrote {stem}.csv, {stem}.json")
    return 0


# ------------------------------------------------------------------ figure

def _figure_catenoid_domains(args: argparse.Namespace) -> int:
    mus = args.mus if args.mus else [-3.0, 3.0]
    panels = []
    verdicts = {}
    for mu in mus:
        turning, drawn, rep = critical_catenoid_domain(mu, k=args.k,
                                                       step=args.step,
                                                       s_cap=args.s_cap)
        panels.append((f"mu={mu:g}", drawn, rep))
        entry = report_json_dict(rep, turning)
        entry["crossing_points"] = [list(c[2]) for c in rep.self_intersections]
        verdicts[f"{mu:g}"] = entry
    params = {"figure": "catenoid-domains", "mus": mus, "k": args.k,
              "step": args.step, "s_cap": args.s_cap, "H": 0.5}
    out = _prepare_out(args.out)
    svg = os.path.join(out, "catenoid_domains.svg")
    write_domain_panels_svg(svg, panels, params)
    _write_json(os.path.join(out, "catenoid_domains.json"),
                {"params": {k: v for k, v in params.items() if k != "figure"},
                 "verdicts": verdicts})
    for mu in mus:
        v = verdicts[f"{mu:g}"]
        word = "embedded" if v["embedded"] else \
            f"non-embedded ({v['crossings']} crossings, " \
            f"area2={v['multiplicity_2_area']:.6f})"
        print(f"mu={mu:g}: {word}")
    print(f"wrote {svg}")
    return 0


def _sweep_point(task):
    a, b, k, H, M, h = task
    sols = solve_jenkins_serrin(a, b, k, H, list(M), h)
    per_m = [distance_d_single(s) for s in sols]
    return a, b, richardson_extrapolate(per_m), per_m


def _figure_sweep_d(args: argparse.Namespace) -> int:
    a_grid = sorted(args.a_grid)
    b_grid = sorted(args.b_grid)
    tasks = [(a, b, args.k, args.H, tuple(args.M), args.target_h)
             for a, b in itertools.product(a_grid, b_grid)]
    # the pool forks all max_workers processes at the first submit
    workers = min(args.workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, tasks))
    else:
        results = [_sweep_point(t) for t in tasks]
    d = {(a, b): dv for a, b, dv, _ in results}
    mono_a = all(d[(a2, b)] > d[(a1, b)]
                 for b in b_grid for a1, a2 in zip(a_grid, a_grid[1:]))
    mono_b = all(d[(a, b2)] > d[(a, b1)]
                 for a in a_grid for b1, b2 in zip(b_grid, b_grid[1:]))
    header = (f"# figure=sweep-d H={args.H!r} k={args.k} "
              f"M={list(args.M)!r} target_h={args.target_h!r} "
              f"a_grid={a_grid!r} b_grid={b_grid!r}")
    rows = [header, "a,b,d"] + [f"{a!r},{b!r},{dv!r}" for a, b, dv, _ in results]
    out = _prepare_out(args.out)
    csv_path = os.path.join(out, "sweep_d.csv")
    _write_lines(csv_path, rows)
    verdict = {
        "H": args.H, "k": args.k, "M": list(args.M),
        "target_h": args.target_h, "a_grid": a_grid, "b_grid": b_grid,
        "monotone_in_a": mono_a, "monotone_in_b": mono_b,
        "max_d": max(d.values()),
        "max_d_over_schedule": max(max(seq) for *_, seq in results),
    }
    _write_json(os.path.join(out, "sweep_d.json"), verdict)
    print(f"sweep d(a,b): monotone_in_a={mono_a} monotone_in_b={mono_b} "
          f"max_d={verdict['max_d']:.6f}  wrote {csv_path}")
    return 0


def _figure_noid_domain(args: argparse.Namespace) -> int:
    if args.H is None or not args.H < 0.5:
        raise UsageError("noid-domain needs H in (0, 1/2) (bounded domain)")
    sols = solve_jenkins_serrin(math.inf, args.b, args.k, args.H,
                                list(args.M), args.target_h,
                                R_trunc=args.r_trunc)
    samples = boundary_theta_prime(sols[-1])
    s_vals, tp_vals = samples[:, 0], samples[:, 1]
    s_hi = min(float(s_vals.max()), abs(float(s_vals.min())))
    if s_hi <= 0:
        raise SolverError("theta' samples do not straddle the waist s=0",
                          s_min=float(s_vals.min()), s_max=float(s_vals.max()))
    d_est = distance_d(sols)
    turning, drawn, rep = fiber_domain(
        lambda s: np.interp(s, s_vals, tp_vals), args.H, d_est,
        math.pi / 2.0, s_hi, args.k, args.step, args.s_cap)
    b_star = interior_angle_threshold_b(args.k, args.H)
    params = {"figure": "noid-domain", "H": args.H, "k": args.k, "b": args.b,
              "M": list(args.M), "target_h": args.target_h,
              "R_trunc": args.r_trunc, "step": args.step,
              "gauge": "waist on +x axis at distance d_estimate"}
    out = _prepare_out(args.out)
    svg = os.path.join(out, "noid_domain.svg")
    write_domain_svg(svg, drawn, rep, params)
    payload = report_json_dict(rep, turning)
    payload.update({"b": args.b, "b_star": b_star,
                    "threshold_predicts_embedded": args.b >= b_star,
                    "d_estimate": d_est,
                    "resolved_s_range": [0.0, s_hi]})
    _write_json(os.path.join(out, "noid_domain.json"),
                {"params": {k: v for k, v in params.items() if k != "figure"},
                 "verdict": payload})
    word = "embedded" if rep.embedded else f"non-embedded ({rep.crossings} crossings)"
    print(f"(H={args.H:g}, k={args.k})-noid piece at b={args.b:g}: {word}; "
          f"threshold b*={b_star:.6f} predicts "
          f"{'embedded' if args.b >= b_star else 'non-embedded'}  wrote {svg}")
    return 0


# ------------------------------------------------------------------- audit

def cmd_audit(args: argparse.Namespace) -> int:
    rows = run_audit(fault_eps=args.fault_inject)
    table = format_table(rows)
    out = _prepare_out(args.out)
    print(table)
    _write_lines(os.path.join(out, "audit.txt"), [table])
    return 1 if any(not r.passed for r in rows) else 0


# ------------------------------------------------------------------ parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ektlab",
        description="numerical experiments on helicoids, Jenkins-Serrin "
                    "graphs and conjugate disk domains")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="out", help="output directory "
                       "(created if missing, parent must exist)")
        p.add_argument("--config", default=None,
                       help="key=value file overriding flags")

    p = sub.add_parser("helicoid", help="profile one helicoid family member")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--spacing", type=float, default=1e-3)
    p.add_argument("--span", type=float, default=0.9,
                   help="fraction of t_mu covered when t_mu is finite")
    p.add_argument("--window", type=float, default=2.0,
                   help="|v| bound when the profile is entire")
    p.add_argument("--obj", action="store_true",
                   help="also write an OBJ mesh of the ruled graph")
    p.add_argument("--u-max", type=float, default=2.0)
    common(p)
    p.set_defaults(func=cmd_helicoid)

    p = sub.add_parser("solve", help="Jenkins-Serrin truncation sweep")
    p.add_argument("--a", type=_parse_side, required=True,
                   help="side length, or 'inf'")
    p.add_argument("--b", dest="b_side", type=_parse_side, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--M", type=float, action="append", default=None,
                   help="truncation schedule entry (repeatable)")
    p.add_argument("--target-h", type=float, default=0.05)
    p.add_argument("--r-trunc", type=float, default=None)
    p.add_argument("--m-sign", type=int, choices=(1, -1), default=1)
    common(p)
    p.set_defaults(func=cmd_solve)

    # options that more than one figure reads: the march's and the solve's
    march = argparse.ArgumentParser(add_help=False)
    march.add_argument("--step", type=float, default=DEFAULT_STEP)
    march.add_argument("--s-cap", type=float, default=DEFAULT_S_CAP)
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("--M", type=float, action="append", default=None,
                       help="truncation schedule entry (repeatable)")
    graph.add_argument("--target-h", type=float, default=0.02)

    names = sub.add_parser("figure", help="regenerate a named figure"
                           ).add_subparsers(dest="name", required=True)
    p = names.add_parser("catenoid-domains", parents=[march],
                         help="critical-catenoid domains, one panel per mu")
    p.add_argument("--mu", dest="mus", type=float, action="append",
                   default=None, help="panel (repeatable)")
    p.set_defaults(func=_figure_catenoid_domains)
    p = names.add_parser("sweep-d", parents=[graph], help="d(a, b) sweep")
    p.add_argument("--H", type=float, default=0.5)
    p.add_argument("--a-grid", type=_float_list, default=[0.5, 1.0, 2.0])
    p.add_argument("--b-grid", type=_float_list, default=[0.5, 1.0, 2.0])
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_figure_sweep_d)
    p = names.add_parser("noid-domain", parents=[graph, march],
                         help="conjugate fiber domain of the (H, k)-noid")
    p.add_argument("--H", type=float, default=None, help="in (0, 1/2)")
    p.add_argument("--b", type=float, default=2.0)
    p.add_argument("--r-trunc", type=float, default=4.0)
    p.set_defaults(func=_figure_noid_domain)
    for p in names.choices.values():
        p.add_argument("--k", type=int, default=2)
        common(p)

    p = sub.add_parser("audit", help="run the invariant suite")
    p.add_argument("--fault-inject", type=float, default=0.0,
                   help="negative control: shift the member that "
                   "helicoid-residuals-mu-quarter inverts by this much")
    common(p)
    p.set_defaults(func=cmd_audit)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "M", None) is None and hasattr(args, "M"):
        args.M = [2.0, 4.0, 8.0, 16.0]
    try:
        _apply_config(args, parser)
        options = _options(args, parser)
        for dest, (ok, what) in _DOMAINS.items():
            value = getattr(args, dest) if dest in options else None
            if value is not None and not ok(value):
                raise UsageError(f"{options[dest].option_strings[0]} must be "
                                 f"{what}; got {value!r}")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (GeometryError, SolverError, QuadratureError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
