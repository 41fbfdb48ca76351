"""Host-speed calibration: a fixed kernel timed beside the measured work.

A shared host's CPU-bound speed drifts with load from its neighbours.
On the 2-core x86_64 container this benchmark was tuned on, the same
rounds ran 1.5x slower at one point of a 100-second run than at another,
and over 20 minutes the host's speed drifted by 1.6x; a fixed
pure-Python kernel slowed down and sped up with them.  Timed between the
rounds, the kernel measures how fast the host ran while they ran.

The host-time end-to-end metrics (``throughput_qps``, ``setup_s``) are
reported at a reference speed: ``t`` host seconds measured while the
kernel took ``k`` seconds on average (over the set-ups for ``setup_s``,
over the measured phase for ``throughput_qps``) count as
``t * (REFERENCE_KERNEL_S / k) ** e``.  The exponent ``e`` is the
workload's: how strongly its host time follows the kernel's.  Measured
here, some workloads slow down less than the kernel when the host is
busy (``tpch-inmem`` and ``tenant-burst`` follow it with an exponent of
about 0.6, ``iqre-shuffle`` and ``tpch-spill`` with about 1).  A
single kernel's time swings by 2x from one call to the next, so a mean
over dozens to hundreds of calls is used.

The kernel is the benchmark's own code and never calls the program, so
the scaling is the same for any version of the program: a change to
the program moves the scaled metrics by the same factor as the raw
ones, which the benchmark prints and records beside them.  A wrong
exponent leaves that comparison unbiased; it only cancels less of the
host's drift.
"""

from __future__ import annotations

import gc
import time

#: The kernel's time at the reference speed, about its median on the
#: 2-core x86_64 container (Python 3.11) the baseline was measured on.
REFERENCE_KERNEL_S = 0.0065
#: Fewest kernels one calibration times.
MIN_KERNELS = 4


def kernel() -> list:
    """Fixed interpreter work of the kind the engine does: build tuples,
    hash-join them, group and sort."""
    left = [(i, i % 97, float(i) * 1.5, "k%d" % (i % 211)) for i in range(6000)]
    index: dict = {}
    for row in left:
        index.setdefault(row[1], []).append(row)
    groups: dict = {}
    for j in range(6000):
        for row in index.get(j % 131, ())[:2]:
            acc = groups.get(row[3])
            if acc is None:
                groups[row[3]] = [1, row[2]]
            else:
                acc[0] += 1
                acc[1] += row[2]
    return sorted(groups.items(), key=lambda kv: (-kv[1][0], kv[0]))[:5]


class Calibrator:
    """Times the kernel between pieces of measured work and keeps its
    mean time over them, the host's speed while they ran."""

    def __init__(self):
        #: (kernels run, host seconds) of every calibration, in order.
        self.calibrations: list[tuple[int, float]] = []

    def calibrate(self, budget_s: float) -> None:
        """Run the kernel for about ``budget_s`` host seconds (at least
        ``MIN_KERNELS`` times).  The cyclic collector is off meanwhile:
        the kernel makes no cycles, and a collection would time the
        program's heap instead of the host."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            count, start = 0, time.perf_counter()
            while count < MIN_KERNELS or time.perf_counter() - start < budget_s:
                kernel()
                count += 1
            self.calibrations.append((count, time.perf_counter() - start))
        finally:
            if enabled:
                gc.enable()

    def kernel_s(self) -> float:
        """The kernel's mean time over every calibration so far."""
        return sum(s for _, s in self.calibrations) / sum(n for n, _ in self.calibrations)

    def at_reference(self, host_s: float, exponent: float) -> float:
        """``host_s`` scaled to the reference speed, for work whose time
        grows as the kernel's time to the power ``exponent``."""
        return host_s * (REFERENCE_KERNEL_S / self.kernel_s()) ** exponent
