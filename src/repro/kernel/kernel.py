"""The per-node kernel: process management and boundary-crossing charges.

One :class:`Kernel` exists per cluster node.  It is the only place that
charges user/kernel boundary copies, syscall entry costs and context switches
— pipes and sockets delegate to it, so the accounting is consistent across
every data path (HTTP baseline, Unix-socket IPC, spliced network transfer).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pipes import us)
    from repro.kernel.buffers import KernelBuffer

from repro.kernel.cgroups import Cgroup
from repro.kernel.process import Process
from repro.sim.costs import CostModel, DEFAULT_COST_MODEL
from repro.sim.ledger import CostCategory, CostLedger, CpuDomain, MemoryMeter


# Members charged per operation, bound once (see repro.sim.ledger).
_SYSCALL = CostCategory.SYSCALL
_CONTEXT_SWITCH = CostCategory.CONTEXT_SWITCH
_MEMCPY = CostCategory.MEMCPY
_SPLICE = CostCategory.SPLICE
_KERNEL = CpuDomain.KERNEL


class KernelError(RuntimeError):
    """Raised for invalid kernel operations."""


class Kernel:
    """Kernel of a single host node."""

    def __init__(
        self,
        ledger: CostLedger,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        node_name: str = "node",
    ) -> None:
        self.ledger = ledger
        self.cost_model = cost_model
        self.node_name = node_name
        self._pid_counter = itertools.count(start=1)
        self._processes: Dict[int, Process] = {}

    # -- process management ------------------------------------------------------

    def create_process(self, name: str, baseline_rss_bytes: int = 0) -> Process:
        """Spawn a process with its own cgroup and memory meter."""
        pid = next(self._pid_counter)
        path = "%s/%s" % (self.node_name, name)
        meter = self.ledger.meter(path, baseline_rss_bytes)
        cgroup = Cgroup(name=path, memory=meter)
        process = Process(pid=pid, name=name, cgroup=cgroup)
        self._processes[pid] = process
        return process

    def process(self, pid: int) -> Process:
        if pid not in self._processes:
            raise KernelError("unknown pid %d on node %s" % (pid, self.node_name))
        return self._processes[pid]

    def reap(self, pid: int) -> None:
        """Terminate (if still alive) and forget a process.

        Undeploy paths call this so churned sandboxes and shims do not
        accumulate in the kernel's process table over long runs.
        """
        process = self._processes.pop(pid, None)
        if process is None:
            raise KernelError("unknown pid %d on node %s" % (pid, self.node_name))
        if process.alive:
            process.exit()

    @property
    def processes(self) -> Dict[int, Process]:
        return dict(self._processes)

    @property
    def live_process_count(self) -> int:
        return sum(1 for process in self._processes.values() if process.alive)

    # -- accounting primitives ----------------------------------------------------------

    def syscall(self, process: Process, name: str, count: int = 1) -> float:
        """Charge ``count`` syscall entries made by ``process``."""
        if count < 1:
            raise KernelError("syscall count must be >= 1")
        seconds = self.cost_model.syscall_time(count)
        self.ledger.charge(
            _SYSCALL,
            seconds,
            cpu_domain=_KERNEL,
            label="%s:%s" % (process.name, name),
            units=count,
        )
        process.charge_cpu(_KERNEL, seconds)
        process.note_syscall(count)
        return seconds

    def context_switch(self, from_process: Process) -> float:
        """Charge one context switch away from ``from_process``."""
        seconds = self.cost_model.context_switch_overhead
        self.ledger.charge(
            _CONTEXT_SWITCH,
            seconds,
            cpu_domain=_KERNEL,
            label="switch:%s" % from_process.name,
        )
        from_process.charge_cpu(_KERNEL, seconds)
        from_process.note_context_switch()
        return seconds

    def copy_user_to_kernel(self, process: Process, nbytes: int, label: str = "") -> float:
        """Copy ``nbytes`` from user space into kernel buffers."""
        seconds = self.cost_model.user_kernel_copy_time(nbytes)
        self.ledger.charge(
            _MEMCPY,
            seconds,
            cpu_domain=_KERNEL,
            nbytes=nbytes,
            copied=True,
            label=label or "%s:user->kernel" % process.name,
        )
        process.charge_cpu(_KERNEL, seconds)
        return seconds

    def copy_kernel_to_user(self, process: Process, nbytes: int, label: str = "") -> float:
        """Copy ``nbytes`` from kernel buffers into user space."""
        seconds = self.cost_model.user_kernel_copy_time(nbytes)
        self.ledger.charge(
            _MEMCPY,
            seconds,
            cpu_domain=_KERNEL,
            nbytes=nbytes,
            copied=True,
            label=label or "%s:kernel->user" % process.name,
        )
        process.charge_cpu(_KERNEL, seconds)
        return seconds

    def splice_pages(self, process: Process, nbytes: int, label: str = "") -> float:
        """Gift/steal page references (vmsplice/splice) — no byte copy."""
        seconds = self.cost_model.splice_time(nbytes)
        self.ledger.charge(
            _SPLICE,
            seconds,
            cpu_domain=_KERNEL,
            nbytes=nbytes,
            copied=False,
            label=label or "%s:splice" % process.name,
        )
        process.charge_cpu(_KERNEL, seconds)
        return seconds

    def track_kernel_buffer(self, process: Process, buffer: "KernelBuffer") -> None:
        """Charge a kernel buffer's memory to the producing process's meter.

        The buffer remembers which meter paid (``buffer.owner``), so however
        many processes and kernel objects it later moves through — splices,
        socket deliveries, pipe adoptions — the release hits the meter that
        allocated.  A buffer that already has an owner is left alone: splice
        moves the same pages by reference, it does not allocate new ones.
        """
        if buffer.owner is not None:
            return
        meter: MemoryMeter = process.cgroup.memory
        meter.allocate(buffer.payload.size)
        buffer.owner = meter

    def release_kernel_buffer(self, buffer: "KernelBuffer") -> None:
        """Release a kernel buffer's memory back to the meter that paid for it."""
        if buffer.owner is None:
            return
        buffer.owner.free(buffer.payload.size)
        buffer.owner = None
