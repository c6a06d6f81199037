"""Control-group style CPU and memory accounting.

The paper measures resource usage "directly from the cgroup, enabling us to
accurately capture the total CPU usage for each sandbox, including detailed
breakdowns of user space and kernel CPU consumption" (Sec. 6.1).  This module
is that accounting surface: every sandbox (container or Wasm VM shim process)
gets a :class:`Cgroup`, operations charge user or kernel CPU seconds to it,
and the experiment harness converts the totals into the CPU-percentage panels
of Figs. 7-10.
"""

from __future__ import annotations

from repro.sim.ledger import CpuDomain, MemoryMeter


# Members charged per operation, bound once (see repro.sim.ledger).
_KERNEL = CpuDomain.KERNEL
_NO_CPU = CpuDomain.NONE
_USER = CpuDomain.USER


class CgroupError(ValueError):
    """Raised for invalid accounting operations."""


class Cgroup:
    """Per-sandbox CPU accounting plus an attached memory meter."""

    def __init__(self, name: str, memory: MemoryMeter) -> None:
        if not name:
            raise CgroupError("cgroup name must be non-empty")
        self.name = name
        self.memory = memory
        self._user_seconds = 0.0
        self._kernel_seconds = 0.0

    def charge_cpu(self, domain: CpuDomain, seconds: float) -> None:
        """Add ``seconds`` of CPU time in ``domain`` (USER or KERNEL)."""
        if seconds < 0:
            raise CgroupError("cpu charge must be non-negative, got %r" % seconds)
        if domain is _KERNEL:
            self._kernel_seconds += seconds
        elif domain is _USER:
            self._user_seconds += seconds
        elif domain is not _NO_CPU:
            raise CgroupError("unknown CPU domain %r" % (domain,))

    @property
    def user_cpu_seconds(self) -> float:
        return self._user_seconds

    @property
    def kernel_cpu_seconds(self) -> float:
        return self._kernel_seconds

    def reset(self) -> None:
        self._user_seconds = 0.0
        self._kernel_seconds = 0.0
        self.memory.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Cgroup(%r, user=%.6f, kernel=%.6f)" % (
            self.name,
            self.user_cpu_seconds,
            self.kernel_cpu_seconds,
        )
