"""Processes: the unit the kernel schedules and charges.

A process is a sandboxed execution context — a RunC container's main process,
or a Roadrunner shim together with the Wasm VM it embeds.  It belongs to a
:class:`~repro.kernel.cgroups.Cgroup`, which is where its CPU time lands.
"""

from __future__ import annotations

from repro.kernel.cgroups import Cgroup
from repro.sim.ledger import CpuDomain


class ProcessError(RuntimeError):
    """Raised for operations on dead or invalid processes."""


class Process:
    """A schedulable process owned by a kernel."""

    def __init__(self, pid: int, name: str, cgroup: Cgroup) -> None:
        if pid <= 0:
            raise ProcessError("pid must be positive, got %r" % pid)
        self.pid = pid
        self.name = name
        self.cgroup = cgroup
        self.alive = True
        self.syscall_count = 0
        self.context_switches = 0

    # The liveness test is inline on these per-charge paths; the raising
    # helper runs only for an exited process.
    def charge_cpu(self, domain: CpuDomain, seconds: float) -> None:
        if not self.alive:
            self._require_alive()
        self.cgroup.charge_cpu(domain, seconds)

    def note_syscall(self, count: int = 1) -> None:
        if not self.alive:
            self._require_alive()
        if count < 0:
            raise ProcessError("syscall count must be non-negative")
        self.syscall_count += count

    def note_context_switch(self) -> None:
        if not self.alive:
            self._require_alive()
        self.context_switches += 1

    def exit(self) -> None:
        """Terminate the process; further charges are an error."""
        self.alive = False

    def _require_alive(self) -> None:
        if not self.alive:
            raise ProcessError("process %d (%s) has exited" % (self.pid, self.name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "exited"
        return "Process(pid=%d, name=%r, %s)" % (self.pid, self.name, state)
