"""Unit tests for cgroup accounting and processes."""

import pytest

from repro.kernel.cgroups import Cgroup, CgroupError
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process, ProcessError
from repro.sim.ledger import CostLedger, CpuDomain, MemoryMeter


def make_cgroup(name="sandbox"):
    return Cgroup(name=name, memory=MemoryMeter())


def test_cgroup_accumulates_user_and_kernel_cpu():
    cgroup = make_cgroup()
    cgroup.charge_cpu(CpuDomain.USER, 0.2)
    cgroup.charge_cpu(CpuDomain.KERNEL, 0.1)
    cgroup.charge_cpu(CpuDomain.USER, 0.3)
    assert cgroup.user_cpu_seconds == pytest.approx(0.5)
    assert cgroup.kernel_cpu_seconds == pytest.approx(0.1)


def test_cgroup_ignores_none_domain_and_rejects_negative():
    cgroup = make_cgroup()
    cgroup.charge_cpu(CpuDomain.NONE, 5.0)
    assert cgroup.user_cpu_seconds == cgroup.kernel_cpu_seconds == 0.0
    with pytest.raises(CgroupError):
        cgroup.charge_cpu(CpuDomain.USER, -1.0)
    with pytest.raises(CgroupError):
        Cgroup(name="", memory=MemoryMeter())


def test_cgroup_reset_clears_cpu_and_memory():
    cgroup = make_cgroup()
    cgroup.charge_cpu(CpuDomain.USER, 1.0)
    cgroup.memory.allocate(100)
    cgroup.reset()
    assert cgroup.user_cpu_seconds == cgroup.kernel_cpu_seconds == 0.0
    assert cgroup.memory.current_bytes == 0


def test_process_charges_land_in_its_cgroup():
    process = Process(pid=1, name="fn", cgroup=make_cgroup())
    process.charge_cpu(CpuDomain.KERNEL, 0.25)
    assert process.cgroup.kernel_cpu_seconds == pytest.approx(0.25)
    process.note_syscall(3)
    process.note_context_switch()
    assert process.syscall_count == 3
    assert process.context_switches == 1


def test_exited_process_rejects_further_charges():
    process = Process(pid=2, name="fn", cgroup=make_cgroup())
    process.exit()
    with pytest.raises(ProcessError):
        process.charge_cpu(CpuDomain.USER, 0.1)
    with pytest.raises(ProcessError):
        process.note_syscall()


def test_process_validation():
    with pytest.raises(ProcessError):
        Process(pid=0, name="bad", cgroup=make_cgroup())
    process = Process(pid=3, name="fn", cgroup=make_cgroup())
    with pytest.raises(ProcessError):
        process.note_syscall(-1)


def test_kernel_creates_processes_with_unique_pids_and_meters():
    kernel = Kernel(ledger=CostLedger(), node_name="n1")
    a = kernel.create_process("a", baseline_rss_bytes=1000)
    b = kernel.create_process("b")
    assert a.pid != b.pid
    assert kernel.process(a.pid) is a
    assert a.cgroup.memory.peak_bytes == 1000
    assert set(kernel.processes) == {a.pid, b.pid}
