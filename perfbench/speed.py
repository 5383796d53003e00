"""Host speed reference: a fixed kernel timed between ops, and the factor that
puts a measured time at the reference speed.

On a shared virtual machine the same fixed loop runs at speeds up to about
1.9x apart, and a slow period lasts from seconds to minutes, so a whole run
can lie inside one. The guest cannot see this: steal time stays near 0 and
CPU time slows exactly as wall time does. So every run times a fixed kernel
(pure Python plus small and medium numpy eigensolves, the mix belldyn's ops
are made of) every CAL_INTERVAL_S between ops, and scales each op's wall time
by REFERENCE_S over the median of the NEIGHBOURS kernel timings nearest to it.
The result reads as the op's time on a host at the reference speed. Set-up
times are scaled by the kernel's median over the whole run (run_scale). The
kernel never calls belldyn, so a change to belldyn moves the scaled times as
it moves wall times.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: the kernel's time on the baseline host in a fast period (2-vCPU VM, see
#: baseline/BASELINE.md); scaled times read as seconds at that speed
REFERENCE_S = 3.2e-3
#: a kernel timing is taken before an op once this long has passed since the last
CAL_INTERVAL_S = 0.05
#: kernel timings whose median gives the host speed at an op
NEIGHBOURS = 5

_M4 = np.random.default_rng(1).random((4, 4))
_M4 = _M4 + _M4.T
_M40 = np.random.default_rng(2).random((40, 40))
_M40 = _M40 + _M40.T


def kernel() -> int:
    """Fixed work, about REFERENCE_S at the reference speed."""
    total, table = 0, {}
    for i in range(8000):
        total += i * i % 7
        table[i & 63] = total
    for _ in range(150):
        np.linalg.eigvalsh(_M4)
    for _ in range(25):
        np.linalg.eigvalsh(_M40)
    return total


class SpeedLog:
    """Kernel timings taken between ops (when, seconds taken) and op start times."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.op_at: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.at.append(start)
        self.took.append(end - start)

    def maybe_sample(self) -> None:
        """Time the kernel if CAL_INTERVAL_S has passed since the last timing."""
        if not self.at or time.perf_counter() - self.at[-1] >= CAL_INTERVAL_S:
            self.sample()

    def as_lists(self) -> dict[str, list[float]]:
        return {"at": self.at, "took": self.took, "op_at": self.op_at}


def run_scale(log: dict[str, list[float]]) -> float:
    """REFERENCE_S over the kernel's median time over the whole run."""
    return REFERENCE_S / statistics.median(log["took"])


def scales(log: dict[str, list[float]]) -> np.ndarray:
    """REFERENCE_S over the host's kernel time at each op start, in op order.

    The host's kernel time at t is the median of the NEIGHBOURS timings whose
    start is nearest to t.
    """
    cal_at, took, at = (np.asarray(log[k], dtype=float) for k in ("at", "took", "op_at"))
    if cal_at.size == 0:
        raise ValueError("no kernel timings to scale by")
    distance = np.abs(at.reshape(-1, 1) - cal_at.reshape(1, -1))
    nearest = np.argsort(distance, axis=1, kind="stable")[:, :NEIGHBOURS]
    return (REFERENCE_S / np.median(took[nearest], axis=1)).reshape(at.shape)
