"""One execution of one workload, in a fresh process started by run.py.

    child.py RESULT T0 MODE WORKLOAD SMOKE OUT

T0 is run.py's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start-up and the import of
``ektlab.cli`` with numpy and scipy.  MODE is ``setup`` (import only),
``plain`` (the timed run), ``trace`` (spans and counters) or ``memory``
(spans with tracemalloc inside the memory layers).  In ``plain`` mode
``run_s`` is rescaled to the machine's full speed by bench/speed.py and
``run_wall_s`` is the raw wall time.  The result is written
as JSON to RESULT; the exit code is 0 when ``ektlab.cli.main`` returned 0.
"""
import contextlib
import json
import resource
import sys
import time
import traceback


def main() -> int:
    result_path, t0, mode, workload, smoke, out = sys.argv[1:7]
    import ektlab.cli
    result = {"setup_s": time.monotonic() - float(t0)}
    if mode == "setup":
        import numpy
        import scipy
        result["versions"] = {"python": sys.version.split()[0],
                              "numpy": numpy.__version__,
                              "scipy": scipy.__version__}
        _write(result_path, result)
        return 0

    import speed
    import workloads
    from layers import Recorder

    rec = Recorder(timed=mode in ("trace", "memory"), memory=mode == "memory",
                   keep_solutions=workload in workloads.RHO_FROM_SOLUTIONS)
    rec.install()
    argv = workloads.argv_for(workload, smoke == "1") + ["--out", out]
    probe = speed.Probe() if mode == "plain" else contextlib.nullcontext()
    cpu0 = time.process_time()
    rec.t0 = start = time.perf_counter()
    try:
        with probe:
            rc = ektlab.cli.main(argv)
    except Exception:
        rc = None
        result["error"] = traceback.format_exc()
    run_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu0
    if mode == "plain":
        result["run_s"], run_s = probe.rescale()
        result["probe_kernel_ms"] = probe.kernel_ms()
    result.update(rc=rc, run_wall_s=run_s, cpu_s=cpu_s,
                  maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  facts=rec.facts)
    if rec.timed:
        result.update(layers=rec.metrics(run_s, cpu_s), spans=list(rec.spans),
                      peak_mb=rec.peak_mb)
    if rc == 0 and workload in workloads.RHO_FROM_SOLUTIONS:
        from ektlab.solver import rho_estimate
        result["facts"]["rho"] = rho_estimate(rec.last_solutions)
    _write(result_path, result)
    return 0 if rc == 0 else 1


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main())
