"""Benchmark runner: time one fixed ektlab CLI workload and check its answers.

    python3 bench/run.py --workload {catenoid,js-fine,noid,sweep}
                         --seed N --seconds S --trace {0,1}
                         [--smoke] [--reference FILE]

Every execution of the workload runs ``ektlab.cli.main`` in a fresh,
single-threaded child process (OpenBLAS, OpenMP and MKL pinned to one
thread), one at a time.  The inputs are fixed: the seed only shuffles the
order in which the set-up launches and the workload executions interleave.

``--trace 0`` repeats the workload while the next execution is expected to
end within ``--seconds`` (at least once) and reports the end-to-end
metrics: ``setup_s`` (median over at least five launches: process start to
``ektlab.cli`` imported), ``run_s`` (median time for ``main`` to return,
rescaled to the machine's full speed by bench/speed.py because shared
machines drift in speed; the raw ``run_wall_s`` is printed and recorded
beside it), ``peak_rss_mb`` (median ``ru_maxrss`` from ``os.wait4``) and
``ok_frac`` (executions whose answers check, over executions attempted).
``--trace 1`` makes one traced, one untraced and one tracemalloc execution
and reports the per-layer metrics of bench/layers.py.

Each execution's answers are checked against bench/reference.json; an
execution that exits non-zero, raises or misses a reference value counts as
failed, and any failure makes this command exit 1.  The last line of
stdout is the JSON result.  Spans and a per-run record (answers, output
SHA-256, environment) are written under ``.bench_work/<workload>/``
(``<workload>-smoke/`` for ``--smoke``).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads
from layers import UNITS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Runner:
    """Launches children for one benchmark run and keeps their results."""

    def __init__(self, workload: str, smoke: bool, reference: dict, work: str):
        self.workload = workload
        self.smoke = smoke
        self.reference = reference
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                        **{v: "1" for v in THREAD_VARS})
        self.launches = 0
        self.setup_s = []
        self.execs = []      # one dict per workload execution
        self.spans = []
        self.versions = None

    def launch(self, mode: str) -> dict:
        """Run one child to completion; return its result plus rc and rusage."""
        self.launches += 1
        tag = f"{self.launches:03d}-{mode}"
        out = os.path.join(self.work, tag)
        os.mkdir(out)
        result_path = os.path.join(self.work, tag + ".json")
        log_path = os.path.join(self.work, tag + ".log")
        with open(log_path, "wb") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(BENCH, "child.py"), result_path,
                 repr(t0), mode, self.workload, "1" if self.smoke else "0",
                 os.path.join(out, "o")],
                cwd=out, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            status, usage = _wait(proc, self.deadline)
        code = os.waitstatus_to_exitcode(status)
        proc.returncode = code
        try:
            with open(result_path, encoding="utf-8") as fh:
                res = json.load(fh)
        except (OSError, ValueError):
            res = {}
        res.update(mode=mode, exit_code=code, out=os.path.join(out, "o"),
                   log=log_path, rss_mb=usage.ru_maxrss / 1024.0)
        return res

    def setup_only(self) -> None:
        res = self.launch("setup")
        if res["exit_code"] != 0 or "setup_s" not in res:
            raise RuntimeError(f"set-up launch failed; see {res['log']}")
        self.setup_s.append(res["setup_s"])
        self.versions = res["versions"]

    def execute(self, mode: str) -> dict:
        res = self.launch(mode)
        problems = []
        if res["exit_code"] != 0:
            problems.append(f"exit code {res['exit_code']}")
        if res.get("error"):
            problems.append(res["error"].strip().splitlines()[-1])
        if not problems:
            try:
                got = workloads.answers(self.workload, res["out"], res["facts"])
                res["answers"] = got
                res["fingerprint"] = workloads.fingerprint(
                    self.workload, res["out"], res["facts"])
                problems += workloads.check(got, self.reference)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        if "setup_s" in res:
            self.setup_s.append(res["setup_s"])
        for span in res.pop("spans", []):
            layer, start, end, parent = span
            self.spans.append({"name": layer, "start": start, "end": end,
                               "parent": parent, "workload": self.workload,
                               "run_index": len(self.execs)})
        res["problems"] = problems
        res["ok"] = not problems
        shutil.rmtree(os.path.dirname(res.pop("out")))
        self.execs.append(res)
        if problems:
            print(f"FAILED {self.workload} {mode} execution: "
                  + "; ".join(problems) + f" (log: {res['log']})", file=sys.stderr)
        return res


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap proc with os.wait4 (for its peak RSS); kill it past the deadline
    or when the runner itself is interrupted."""
    try:
        while time.monotonic() <= deadline:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                return status, usage
            time.sleep(0.02)
    except BaseException:
        os.kill(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    os.kill(proc.pid, signal.SIGKILL)
    _, status, usage = os.wait4(proc.pid, 0)
    return status, usage


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def plain_run(runner: Runner, seconds: float, rng: random.Random) -> dict:
    """Repeat the workload while the next execution should end in time."""
    started = time.monotonic()
    setups_left = SETUP_SAMPLES
    last_s = 0.0
    while not runner.execs or time.monotonic() - started + last_s <= seconds:
        if setups_left > 1 and rng.random() < 0.5:
            runner.setup_only()
            setups_left -= 1
        t = time.monotonic()
        runner.execute("plain")
        setups_left -= 1
        last_s = time.monotonic() - t
    for _ in range(max(setups_left, 0)):
        runner.setup_only()
    good = [e for e in runner.execs if e["ok"]]
    return {
        "setup_s": (_median(runner.setup_s), "s"),
        "run_s": (_median([e["run_s"] for e in good]), "s"),
        "peak_rss_mb": (_median([e["rss_mb"] for e in good]), "MB"),
        "ok_frac": (len(good) / len(runner.execs), "fraction"),
    }


def traced_run(runner: Runner, rng: random.Random) -> dict:
    """One traced, one untraced and one tracemalloc execution."""
    modes = ["trace", "plain", "memory"]
    rng.shuffle(modes)
    by_mode = {mode: runner.execute(mode) for mode in modes}
    traced, plain, memory = by_mode["trace"], by_mode["plain"], by_mode["memory"]
    layers = dict(traced.get("layers", {}))
    for layer, peak in memory.get("peak_mb", {}).items():
        layers[f"{layer}.peak_mb"] = peak
    if traced["ok"] and plain["ok"]:
        layers["trace_overhead_frac"] = traced["run_wall_s"] / plain["run_wall_s"] - 1.0
    # a failed execution leaves its metrics at 0; the run reports the failure
    return {name: (layers.get(name, 0.0), unit) for name, unit in UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-test")
    parser.add_argument("--reference", default=os.path.join(BENCH, "reference.json"))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ektlab", "cli.py")):
        print("bench: no ektlab sources under src/ in this checkout", file=sys.stderr)
        return 2
    with open(args.reference, encoding="utf-8") as fh:
        reference = json.load(fh)["smoke" if args.smoke else "full"][args.workload]
    work = os.path.join(ROOT, ".bench_work",
                        args.workload + ("-smoke" if args.smoke else ""))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    environment = {"seed": args.seed, "nproc": os.cpu_count(),
                   "loadavg_at_start": list(os.getloadavg()),
                   "platform": platform.platform()}
    runner = Runner(args.workload, args.smoke, reference, work)
    rng = random.Random(args.seed)
    try:
        runner.setup_only()           # warm-up: bytecode and file caches
        runner.setup_s.clear()
        if args.trace:
            metrics = traced_run(runner, rng)
        else:
            metrics = plain_run(runner, args.seconds, rng)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    environment.update(runner.versions)

    attempted = len(runner.execs)
    failed = sum(not e["ok"] for e in runner.execs)
    record = {"workload": args.workload, "smoke": args.smoke, "trace": args.trace,
              "environment": environment, "setup_s_samples": runner.setup_s,
              "executions": runner.execs}
    with open(os.path.join(work, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    with open(os.path.join(work, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump(runner.spans, fh)

    print(f"{args.workload}: seed={args.seed} nproc={environment['nproc']} "
          f"load={environment['loadavg_at_start'][0]:.2f} "
          f"python={environment['python']} numpy={environment['numpy']} "
          f"scipy={environment['scipy']}")
    print(f"  failed_frac = {failed / attempted:.4f} ({failed}/{attempted})")
    if not args.trace:
        good = [e for e in runner.execs if e["ok"]]
        print(f"  run_wall_s = {_median([e['run_wall_s'] for e in good]):.6g} s"
              " (not rescaled, information)")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
