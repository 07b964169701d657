"""Reference kernel that tracks the speed of the shared host.

On a shared virtual machine the speed of the host drifts as other tenants
load its cores: on a 2-vCPU Xeon VM a fixed pure-Python loop took from 0.15
to 0.205 s within minutes, and every kind of work slowed down together.  The
benchmark times this fixed kernel next to each measured call and reports
times scaled to the kernel's reference duration, so a drift in host speed
cancels while a change in conegeo does not.

The kernel mixes what conegeo's commands spend most time on: float text
formatting and parsing, and many numpy calls on small arrays.  (Large
vectorized ufuncs track the host worse, so the kernel has none.)  It must
never change, or times before and after the change stop comparing.
"""

import statistics
import time

import numpy as np

# about the kernel's duration on the 2-vCPU Xeon host the benchmark was tuned
# on, so that scaled times read as seconds there
REFERENCE_S = 0.7e-3


def kernel():
    xs = [i * 0.1234567891 for i in range(200)]
    text = ",".join(repr(x) for x in xs)
    total = sum(float(v) for v in text.split(","))
    v = np.array([0.3, 0.4, 0.5])
    for _ in range(80):
        v = v / np.linalg.norm(v) + 0.25
    return total + float(v.sum())


def measure(after_s=0.0):
    """Median wall time of the kernel, run about once per 0.1 s of `after_s`.

    A long measured call gets more kernel runs, about 1% of its own time,
    which keeps one disturbed run from setting its scale.
    """
    times = []
    for _ in range(min(1 + int(after_s / 0.1), 51)):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
