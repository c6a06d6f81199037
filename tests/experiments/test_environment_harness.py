"""Tests for experiment environments and the measurement harness."""

import pytest

from repro.experiments.environment import (
    INTER_NODE_MODES,
    INTRA_NODE_MODES,
    EnvironmentError_,
    build_fanout_setup,
    build_pair_setup,
)
from repro.experiments.harness import (
    measure_fanout,
    measure_pair,
    run_setup,
    sweep_fanout,
    sweep_pair,
)


def test_mode_lists_cover_the_paper_configurations():
    assert set(INTRA_NODE_MODES) == {
        "roadrunner-user",
        "roadrunner-kernel",
        "runc-http",
        "wasmedge-http",
    }
    assert set(INTER_NODE_MODES) == {"roadrunner-network", "runc-http", "wasmedge-http"}


@pytest.mark.parametrize("mode", INTRA_NODE_MODES)
def test_build_pair_setup_intranode(mode):
    setup = build_pair_setup(mode, internode=False)
    assert setup.source.name == "fn-a" and setup.target.name == "fn-b"
    assert setup.source.colocated_with(setup.target)
    if mode == "roadrunner-user":
        assert setup.source.shares_vm_with(setup.target)
    assert setup.channel.supports(setup.source, setup.target)


@pytest.mark.parametrize("mode", INTER_NODE_MODES)
def test_build_pair_setup_internode(mode):
    setup = build_pair_setup(mode, internode=True)
    assert not setup.source.colocated_with(setup.target)
    assert setup.channel.supports(setup.source, setup.target)


def test_invalid_mode_topology_combinations_rejected():
    with pytest.raises(EnvironmentError_):
        build_pair_setup("roadrunner-user", internode=True)
    with pytest.raises(EnvironmentError_):
        build_pair_setup("roadrunner-network", internode=False)
    with pytest.raises(EnvironmentError_):
        build_pair_setup("unknown-mode")
    with pytest.raises(EnvironmentError_):
        build_fanout_setup("roadrunner-user", degree=0)


def test_fanout_setup_deploys_degree_targets():
    setup = build_fanout_setup("roadrunner-kernel", degree=4)
    assert len(setup.targets) == 4
    assert setup.workflow.degree == 4
    assert all(t.colocated_with(setup.source) for t in setup.targets)


def test_run_setup_executes_the_workflow():
    setup = build_pair_setup("roadrunner-user")
    result = run_setup(setup, payload_mb=1)
    assert result.total_latency_s > 0
    assert result.aggregate.payload_bytes == 1024 * 1024


def test_measure_pair_is_deterministic_across_repetitions():
    # Every measurement builds a fresh environment, so a repetition can only
    # reproduce the first sample: the harness measures each configuration once.
    first = measure_pair("roadrunner-kernel", payload_mb=5)
    assert measure_pair("roadrunner-kernel", payload_mb=5) == first
    assert first.samples == 1


def test_measure_fanout_reports_makespan_and_mean_latency():
    aggregate = measure_fanout("wasmedge-http", degree=8, payload_mb=1)
    assert aggregate.degree == 8
    assert aggregate.mean_branch_latency_s <= aggregate.makespan_s
    assert aggregate.throughput_rps == pytest.approx(8 / aggregate.makespan_s)


def test_sweep_pair_returns_modes_by_size():
    sweep = sweep_pair(["roadrunner-user", "wasmedge-http"], sizes_mb=[1, 10])
    assert set(sweep) == {"roadrunner-user", "wasmedge-http"}
    assert set(sweep["roadrunner-user"]) == {1, 10}
    assert sweep["wasmedge-http"][10].mean_latency_s > sweep["wasmedge-http"][1].mean_latency_s


def test_sweep_fanout_returns_modes_by_degree():
    sweep = sweep_fanout(["roadrunner-kernel"], degrees=[1, 4], payload_mb=1)
    assert set(sweep["roadrunner-kernel"]) == {1, 4}
    assert (
        sweep["roadrunner-kernel"][4].makespan_s
        > sweep["roadrunner-kernel"][1].makespan_s
    )
