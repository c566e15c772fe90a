"""Self-test of the benchmark on smoke inputs.

    python3 -m pytest -q bench/tests

Checks that every metric BENCHMARK.json names is emitted with its unit,
that the layers the traced run should not reach show zero work, that a
wrong reference value is caught (the negative control), that the command
refuses to run in a directory without the ektlab sources, and the
arithmetic of the answer check and of the speed rescaling.
"""
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import speed  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("catenoid", "js-fine", "noid", "sweep")

# per-layer counters that must read 0 where the layer has no work
IDLE = {
    "catenoid": ("mesh.calls", "newton.solves", "post.calls"),
    "js-fine": ("march.steps", "tiling.segments", "crossings.found",
                "crossings.s", "raster.s", "svg.s"),
    "sweep": ("march.steps", "tiling.segments", "crossings.s", "raster.s",
              "svg.s"),
    "noid": (),
}


def _run(workload, trace, reference=None, cwd=ROOT, bench=BENCH):
    cmd = [sys.executable, os.path.join(bench, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_declared_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    res = _result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    units = {name: m["unit"] for name, m in res["metrics"].items()}
    assert units == _declared("per_layer" if trace else "end_to_end")
    if trace:
        for name in IDLE[workload]:
            assert res["metrics"][name]["value"] == 0, name
    else:
        assert res["metrics"]["ok_frac"]["value"] == 1.0
        assert "failed_frac = 0.0000" in proc.stdout


def _shifted_reference(tmp_path, workload, key, shift):
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    entry = ref["smoke"][workload][key]
    entry["value"] = entry["value"] + shift(entry)
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    return path


@pytest.mark.parametrize("workload,key,shift", [
    ("catenoid", "crossings", lambda e: 1),
    ("js-fine", "d", lambda e: 2.0 * e["abs"]),
])
def test_negative_control_counts_a_wrong_answer_as_failed(tmp_path, workload,
                                                          key, shift):
    proc = _run(workload, 0, _shifted_reference(tmp_path, workload, key, shift))
    assert proc.returncode != 0
    res = _result(proc)
    assert res["correct"] is False
    assert res["failed"] == res["attempted"] >= 1
    assert res["metrics"]["ok_frac"]["value"] == 0.0
    assert "failed_frac = 1.0000" in proc.stdout
    assert f"{key}: got" in proc.stderr


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("noid", 0, cwd=tmp_path, bench=str(tmp_path / "bench"))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_check_flags_mismatch_missing_and_unreferenced_answers():
    ref = {"crossings": {"value": 2}, "d": {"value": 0.5, "abs": 1e-8}}
    assert workloads.check({"crossings": 2, "d": 0.5 + 5e-9}, ref) == []
    bad = workloads.check({"crossings": 3, "extra": 1}, ref)
    assert bad == ["extra: not in the reference", "crossings: got 3, want 2",
                   "d: missing"]
    assert workloads.check({"crossings": 2, "d": True}, ref) != []


def test_rescale_counts_each_stretch_at_the_speed_sampled_after_it():
    probe = speed.Probe()
    probe.start = 10.0
    k = speed.REF_S
    # 1 s at full speed, then 2 s at half speed; kernel time taken out
    probe.samples = [(11.0, k), (13.0 + k, 2 * k)]
    full, wall = probe.rescale()
    assert wall == pytest.approx(3.0)
    assert full == pytest.approx(1.0 + 2.0 / 2)


def test_probe_samples_during_a_run_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Probe() as probe:
        end = time.perf_counter() + 3 * speed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.samples) >= 3
    full, wall = probe.rescale()
    assert full > 0 and 0 < wall <= 3.5 * speed.INTERVAL_S
