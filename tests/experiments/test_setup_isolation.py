"""Setups share only immutable parts: a transfer on one leaves every other untouched.

``build_pair_setup`` and ``build_fanout_setup`` reuse what cannot change —
function specs, workflows, the stateless codec — and build everything
mutable fresh per call: ledger shards, clock, meters, processes, VMs,
linear memories and sandboxes.  Two setups built with the same arguments
must therefore stay independent, and a setup built after many others must
measure exactly what the first one did.
"""

import pytest

from repro.experiments.environment import (
    INTER_NODE_MODES,
    INTRA_NODE_MODES,
    build_fanout_setup,
    build_pair_setup,
)
from repro.experiments.harness import run_setup

PAIRS = [(mode, False) for mode in INTRA_NODE_MODES] + [
    (mode, True) for mode in INTER_NODE_MODES
]
FANOUT_MODES = ("roadrunner-user", "roadrunner-kernel", "runc-http", "wasmedge-http")


def _deployments(setup):
    return [setup.source] + list(setup.targets)


def _state(setup):
    """Everything mutable a transfer could touch, as plain values."""
    ledger = setup.cluster.ledger
    processes = []
    for node_name in setup.cluster.node_names:
        kernel = setup.cluster.node(node_name).kernel
        for pid, process in sorted(kernel.processes.items()):
            cgroup = process.cgroup
            processes.append(
                (
                    node_name,
                    pid,
                    process.alive,
                    process.syscall_count,
                    process.context_switches,
                    cgroup.user_cpu_seconds,
                    cgroup.kernel_cpu_seconds,
                    cgroup.memory.current_bytes,
                    cgroup.memory.peak_bytes,
                )
            )
    vms = []
    for deployed in _deployments(setup):
        if deployed.vm is not None:
            memory = deployed.instance.memory
            vms.append(
                (
                    deployed.name,
                    deployed.vm.meter.current_bytes,
                    deployed.vm.meter.peak_bytes,
                    len(deployed.vm.instances),
                    memory.pages,
                    memory.allocated_bytes,
                    memory.live_allocations,
                )
            )
    meters = {
        name: (meter.current_bytes, meter.peak_bytes) for name, meter in ledger.meters().items()
    }
    return {
        "charges": len(ledger),
        "clock": ledger.clock.now,
        "total": ledger.total_seconds(),
        "meters": meters,
        "processes": processes,
        "vms": vms,
        "transfers": setup.channel.transfers,
    }


def _assert_fresh_mutable_parts(first, second):
    assert first.cluster is not second.cluster
    assert first.cluster.ledger is not second.cluster.ledger
    assert first.cluster.ledger.clock is not second.cluster.ledger.clock
    assert first.channel is not second.channel
    for a, b in zip(_deployments(first), _deployments(second)):
        assert a.process is not b.process
        assert a.cgroup is not b.cgroup
        assert a.serializer is not b.serializer
        if a.vm is not None:
            assert a.vm is not b.vm
            assert a.instance.memory is not b.instance.memory
        if a.sandbox is not None:
            assert a.sandbox is not b.sandbox
        # The immutable spec is the one shared part.
        assert a.spec is b.spec


@pytest.mark.parametrize("mode,internode", PAIRS)
def test_a_transfer_on_one_pair_setup_leaves_its_twin_untouched(mode, internode):
    first = build_pair_setup(mode, internode=internode)
    second = build_pair_setup(mode, internode=internode)
    _assert_fresh_mutable_parts(first, second)
    assert first.workflow is second.workflow
    before = _state(second)
    result = run_setup(first, 4.0)
    assert _state(second) == before
    assert _state(first) != before
    # The twin still measures exactly what the first one did.
    assert run_setup(second, 4.0).aggregate == result.aggregate


@pytest.mark.parametrize("mode", FANOUT_MODES)
def test_a_fanout_on_one_setup_leaves_its_twin_untouched(mode):
    first = build_fanout_setup(mode, degree=5)
    second = build_fanout_setup(mode, degree=5)
    _assert_fresh_mutable_parts(first, second)
    before = _state(second)
    result = run_setup(first, 2.0)
    assert _state(second) == before
    twin = run_setup(second, 2.0)
    assert twin.aggregate == result.aggregate
    assert twin.total_latency_s == result.total_latency_s
    assert twin.mean_branch_latency_s == result.mean_branch_latency_s


def test_a_setup_built_after_many_others_measures_what_the_first_did():
    firsts = {
        (mode, internode): run_setup(build_pair_setup(mode, internode=internode), 3.0).aggregate
        for mode, internode in PAIRS
    }
    fanouts = {mode: run_setup(build_fanout_setup(mode, degree=7), 1.0) for mode in FANOUT_MODES}
    for size in (0.01, 1.0, 25.0, 3.0):
        for mode, internode in PAIRS:
            run_setup(build_pair_setup(mode, internode=internode), size)
        for mode in FANOUT_MODES:
            run_setup(build_fanout_setup(mode, degree=3), size)
    for (mode, internode), metrics in firsts.items():
        assert run_setup(build_pair_setup(mode, internode=internode), 3.0).aggregate == metrics
    for mode, first in fanouts.items():
        again = run_setup(build_fanout_setup(mode, degree=7), 1.0)
        assert again.aggregate == first.aggregate
        assert again.total_latency_s == first.total_latency_s
