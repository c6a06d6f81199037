"""Unit tests for the calibrated cost model."""

import pytest

from repro.sim.costs import (
    DEFAULT_COST_MODEL,
    HOST_PAGE_SIZE,
    WASM_PAGE_SIZE,
    CostModel,
    CostModelError,
)


def test_page_size_constants():
    assert WASM_PAGE_SIZE == 65536
    assert HOST_PAGE_SIZE == 4096


def test_paper_testbed_is_default():
    assert CostModel.paper_testbed() == DEFAULT_COST_MODEL


def test_transfer_time_scales_linearly():
    model = CostModel.paper_testbed()
    one = model.transfer_time(1_000_000, model.user_kernel_copy_bandwidth)
    ten = model.transfer_time(10_000_000, model.user_kernel_copy_bandwidth)
    assert ten == pytest.approx(10 * one)


def test_transfer_time_rejects_negative_bytes():
    with pytest.raises(CostModelError):
        DEFAULT_COST_MODEL.transfer_time(-1, 1.0)


def test_wasm_serialization_is_much_slower_than_native():
    model = CostModel.paper_testbed()
    nbytes = 10 * 1024 * 1024
    assert model.serialize_time(nbytes, in_wasm=True) > 5 * model.serialize_time(
        nbytes, in_wasm=False
    )


def test_serialized_size_inflates_payload():
    model = CostModel.paper_testbed()
    assert model.serialized_size(1_000_000) > 1_000_000


def test_syscall_count_matches_chunking():
    model = CostModel.paper_testbed()
    assert model.syscall_count(0) == 1
    assert model.syscall_count(model.syscall_chunk_size) == 1
    assert model.syscall_count(model.syscall_chunk_size + 1) == 2


def test_splice_time_charges_per_page():
    model = CostModel.paper_testbed()
    one_page = model.splice_time(HOST_PAGE_SIZE)
    two_pages = model.splice_time(HOST_PAGE_SIZE + 1)
    assert two_pages == pytest.approx(2 * one_page)


def test_splice_is_cheaper_than_copy_for_large_payloads():
    model = CostModel.paper_testbed()
    nbytes = 100 * 1024 * 1024
    assert model.splice_time(nbytes) < model.user_kernel_copy_time(nbytes)


def test_network_transfer_includes_propagation_delay():
    model = CostModel.paper_testbed()
    assert model.network_transfer_time(0) == pytest.approx(model.network_rtt / 2.0)


def test_wasi_mediation_reduces_network_goodput():
    model = CostModel.paper_testbed()
    nbytes = 50 * 1024 * 1024
    assert model.network_transfer_time(nbytes, wasi_mediated=True) > model.network_transfer_time(
        nbytes
    )


def test_constrained_edge_matches_paper_text():
    model = CostModel.constrained_edge()
    assert model.network_bandwidth == pytest.approx(100.0e6 / 8.0)
    assert model.network_rtt == pytest.approx(1.0e-3)


def test_with_overrides_returns_modified_copy():
    model = CostModel.paper_testbed()
    faster = model.with_overrides(network_bandwidth=1.0e9)
    assert faster.network_bandwidth == pytest.approx(1.0e9)
    assert model.network_bandwidth != faster.network_bandwidth


def test_invalid_parameters_rejected():
    with pytest.raises(CostModelError):
        CostModel(user_kernel_copy_bandwidth=0)
    with pytest.raises(CostModelError):
        CostModel(wasi_network_efficiency=0)
    with pytest.raises(CostModelError):
        CostModel(cores_per_node=0)


def test_describe_lists_every_field():
    model = CostModel.paper_testbed()
    described = model.describe()
    assert described["network_rtt"] == model.network_rtt
    assert len(described) == len(model.__dataclass_fields__)
