"""Scale wall time on a shared host to time at a fixed reference speed.

Other tenants of a shared host slow this one down by up to 1.6x, in phases
that last minutes, so the same run of the same code can read 10-20% apart
from one minute to the next.  Each call is therefore bracketed by runs of
a fixed kernel, and its wall time is multiplied by ``REFERENCE_S / k``,
where ``k`` is the mean kernel time before and after it.  The kernel does
the kind of work the package does (power, exp, log and min over a 40 000
element array, the size of a 200x200 envelope grid, and sorts of a small
one), so it feels much the same slowdowns.  On a 2-core Xeon guest, five
seeds of 30 s runs of verify spread 4% scaled against 9% unscaled.  The
kernel tracks compute speed better than memory speed, so the
memory-heavy sample_estimate workload gains least.  A change to the
package moves scaled time as much as wall time.
"""

import time

import numpy as np

REFERENCE_S = 0.003  # about the kernel time on an idle host; sets the scale of reported times

_GRID = 0.01 + 0.98 * np.random.default_rng(0).random(40_000)
_SMALL = np.random.default_rng(1).random(4096)
# preallocated buffers: the kernel allocates nothing, so the allocator
# state the package leaves behind cannot change its time
_A = np.empty_like(_GRID)
_B = np.empty_like(_GRID)
_S = np.empty_like(_SMALL)


def kernel_s():
    """Best of three runs of the reference kernel, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(8):
            np.power(_GRID, 0.7, out=_A)
            np.log(_GRID, out=_B)
            np.multiply(_B, 1.3, out=_B)
            np.exp(_B, out=_B)
            np.minimum(_A, _B, out=_A)
            acc += float(_A.sum())
        for _ in range(40):
            _S[:] = _SMALL
            _S.sort()
            np.negative(_S, out=_S)
            np.exp(_S, out=_S)
            acc += float(_S.sum())
        best = min(best, time.perf_counter() - t0)
    return best


class ScaledClock:
    """Wall times of calls, converted to reference seconds once all are in.

    :meth:`tick` runs the kernel when ``every_s`` has passed since the last
    run; after :meth:`close`, each call is scaled by the kernel runs just
    before and just after it.
    """

    def __init__(self, every_s):
        self.every_s = every_s
        self._kernel = []  # kernel times, in the order they were taken
        self._calls = []  # (wall seconds, index of the kernel run before the call)
        self._last = -float("inf")

    def tick(self):
        if time.perf_counter() - self._last >= self.every_s:
            self._kernel.append(kernel_s())
            self._last = time.perf_counter()

    def record(self, wall_s):
        self._calls.append((wall_s, len(self._kernel) - 1))

    def close(self):
        """Run the kernel once more, after the last call."""
        self._kernel.append(kernel_s())

    def factors(self):
        """Per call, the factor from wall seconds to reference seconds."""
        return [2.0 * REFERENCE_S / (self._kernel[k] + self._kernel[k + 1]) for _, k in self._calls]

    def scaled(self):
        """Per call, its time in reference seconds."""
        return [wall * f for (wall, _), f in zip(self._calls, self.factors())]
