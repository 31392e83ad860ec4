"""The host's current speed, from a fixed reference kernel.

On a shared 2-CPU machine the same ikdamp op takes anywhere from 1x to
1.8x as long from one minute to the next, as the host's load changes.
Ten 20 s runs of one workload then spread by 25-50% of their median, far
more than any change worth detecting. The reference kernel below slows
down with the host in the same way, while the ratio of an op's time to
the kernel's time stays within a few percent. So the benchmark reports
times in units of the kernel's duration, scaled to the time the kernel
takes on a host where it runs in exactly REFERENCE_S.

The kernel is a fixed mix of interpreter work and small dense linear
algebra, like one ikdamp iteration, and uses nothing from ikdamp, so a
change to the library does not move it.
"""
import math
import time

import numpy as np

REFERENCE_S = 1e-3

_A = np.random.default_rng(0).standard_normal((6, 6))


def _kernel() -> float:
    acc = 0.0
    for k in range(300):
        acc += math.sin(k * 0.01) * 1.5 + math.cos(k)
    for _ in range(40):
        m = _A @ _A.T + np.eye(6)
        acc += np.linalg.solve(m, _A[0])[0]
        acc += np.linalg.svd(_A[:3, :3], compute_uv=False)[0]
        acc += float(np.linalg.norm(np.concatenate([_A[1], _A[2]])))
    return acc


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
