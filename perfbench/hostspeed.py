"""The host's current speed, from a fixed reference kernel.

On a shared VM other tenants' load changes how fast this VM runs, by up to
2x for stretches of seconds to minutes, and the end-to-end times move with
it.  The harness times :func:`kernel_s` right before and right after every
end-to-end invocation, on the CPU the invocation runs on, and reports each
invocation's wall time scaled by ``REFERENCE_S`` over the mean of the two:
the seconds it would have taken on the host at reference speed.  The kernel is a pure-Python tridiagonal sweep over numpy
arrays, the same kind of work as the program's solver and expression loops;
on the 2-vCPU Xeon VM this benchmark was built on, the ratio of a library
invocation to the kernel stayed within 3% over ten-second windows in which
the raw times varied by 60%.  The kernel is the benchmark's own code, so a
change to the program never changes it.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on that VM with the host quiet.  It only sets the scale
# of the reported times; changing it would make every baseline stale.
REFERENCE_S = 0.012

_N = 10000
_DIAG = np.linspace(4.0, 5.0, _N)
_OFF = np.linspace(0.5, 1.0, _N)
_RHS = np.linspace(-1.0, 1.0, _N)


def kernel_s() -> float:
    """Wall time of one forward sweep and back substitution of n = 10000."""
    diag, off, rhs = _DIAG, _OFF, _RHS
    up = np.empty(_N)
    x = np.empty(_N)
    start = time.perf_counter()
    up[0] = off[0] / diag[0]
    x[0] = rhs[0] / diag[0]
    for i in range(1, _N):
        pivot = diag[i] - off[i - 1] * up[i - 1]
        up[i] = off[i] / pivot
        x[i] = (rhs[i] - off[i - 1] * x[i - 1]) / pivot
    for i in range(_N - 2, -1, -1):
        x[i] -= up[i] * x[i + 1]
    return time.perf_counter() - start
