"""Machine-speed probe: rescale a measured run time to the machine's full speed.

The benchmark runs on shared virtual machines whose speed drifts by up to
a factor of two over seconds to minutes as other tenants load the host (a
fixed pure-Python loop measured 65 to 108 ms within one minute on a 2-vCPU
Xeon VM).  Raw wall times of repeated runs then spread by 20 to 40 %, so
the gated run time is rescaled: a fixed kernel is timed on the same CPU
every INTERVAL_S of the run, its own time is taken out, and each stretch of
the run counts ``REF_S / kernel time`` seconds.  The raw wall time is
recorded beside it.

The kernel mixes what the workloads spend their time on: interpreted
Python, numpy calls on 3-element arrays (the Frenet march), numpy
arithmetic on short and on 1 MB arrays, and float formatting (SVG and CSV
output).  It is fixed code outside ektlab, so a change to ektlab cannot
speed it up and cancel its own gain.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# the scale of rescaled times: about the kernel's time inside a running
# workload when the 2-vCPU Xeon VM is quiet (numpy 2.4, Python 3.11), so
# rescaled times come out near the wall times of a quiet machine
REF_S = 1.66e-3
INTERVAL_S = 0.2

_V = np.linspace(0.0, 1.0, 512)
_BIG = np.linspace(0.0, 1.0, 1 << 17)
_OUT = np.empty_like(_BIG)


def kernel() -> None:
    s = 0.0
    for i in range(2000):
        s += (i % 7) * 0.5
    a = _V
    for _ in range(40):
        a = np.sqrt(a * a + 1.0) - 0.5
    st = _V[:3]
    for _ in range(60):
        st = st + 1e-6 * np.stack([np.cos(st[2]), np.sin(st[2]), st[0] - st[1]])
    " ".join(f"{x:.2f}" for x in _V[:300].tolist())
    np.multiply(_BIG, _BIG, out=_OUT)
    np.add(_OUT, 1.0, out=_OUT)
    np.sqrt(_OUT, out=_OUT)
    np.subtract(_OUT, _BIG, out=_OUT)


class Probe:
    """Times kernel() every INTERVAL_S of wall time from a SIGALRM handler.

    Python runs the handler between bytecodes, so a sample taken after a
    long native call stands for the whole stretch since the previous one.
    """

    def __init__(self):
        self.samples = []            # (start, kernel seconds)
        self.start = None

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        kernel()
        self.samples.append((t, time.perf_counter() - t))

    def __enter__(self) -> "Probe":
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self.previous)
        self._tick(None, None)       # the speed of the last stretch

    def rescale(self) -> tuple:
        """(seconds at full speed, wall seconds) of the probed interval,
        both without the probe's own kernel time.  The stretch before each
        sample counts at that sample's speed."""
        full = wall = 0.0
        last = self.start
        for t, k in self.samples:
            wall += t - last
            full += (t - last) * REF_S / k
            last = t + k
        return full, wall

    def kernel_ms(self) -> dict:
        times = sorted(k for _, k in self.samples)
        return {"n": len(times), "min": 1e3 * times[0],
                "median": 1e3 * statistics.median(times), "max": 1e3 * times[-1]}
