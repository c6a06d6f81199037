"""Unit tests for the transfer-mode router, the facade channel and the config."""

import pytest

from repro.core.config import ConfigError, RoadrunnerConfig
from repro.core.router import RoadrunnerChannel, TransferMode, TransferModeRouter
from repro.payload import Payload
from repro.platform.channel import ChannelError


def test_config_defaults_and_ablations():
    config = RoadrunnerConfig.default()
    assert config.zero_copy and config.serialization_free
    assert not RoadrunnerConfig.no_zero_copy().zero_copy
    assert not RoadrunnerConfig.with_serialization().serialization_free
    batched = RoadrunnerConfig().with_overrides(syscall_batching=True)
    assert batched.effective_batch_factor == batched.syscall_batch_factor
    with pytest.raises(ConfigError):
        RoadrunnerConfig(syscall_batch_factor=0)


def test_router_selects_user_space_for_shared_vm(shared_vm_pair):
    _, _, (a, b) = shared_vm_pair
    assert TransferModeRouter().select(a, b) is TransferMode.USER_SPACE


def test_router_selects_kernel_space_for_colocated_vms(separate_vm_pair):
    _, _, (a, b) = separate_vm_pair
    assert TransferModeRouter().select(a, b) is TransferMode.KERNEL_SPACE


def test_router_selects_network_for_remote_functions(remote_vm_pair):
    _, _, (a, b) = remote_vm_pair
    assert TransferModeRouter().select(a, b) is TransferMode.NETWORK


def test_router_rejects_non_wasm_functions(container_pair):
    _, _, (a, b) = container_pair
    with pytest.raises(ChannelError):
        TransferModeRouter().select(a, b)


def test_facade_dispatches_and_records_mode(shared_vm_pair):
    cluster, _, (a, b) = shared_vm_pair
    channel = RoadrunnerChannel(cluster)
    payload = Payload.random(32 * 1024)
    outcome = channel.transfer(a, b, payload)
    payload.require_match(outcome.delivered)
    assert channel.last_mode is TransferMode.USER_SPACE
    assert outcome.metrics.mode == "roadrunner-user"
    assert channel.transfers == 1


def test_facade_uses_kernel_space_when_vms_differ(separate_vm_pair):
    cluster, _, (a, b) = separate_vm_pair
    channel = RoadrunnerChannel(cluster)
    outcome = channel.transfer(a, b, Payload.random(16 * 1024))
    assert channel.last_mode is TransferMode.KERNEL_SPACE
    assert outcome.metrics.mode == "roadrunner-kernel"


def test_facade_uses_network_for_remote_pair(remote_vm_pair):
    cluster, _, (a, b) = remote_vm_pair
    channel = RoadrunnerChannel(cluster)
    outcome = channel.transfer(a, b, Payload.random(16 * 1024))
    assert channel.last_mode is TransferMode.NETWORK
    assert outcome.metrics.mode == "roadrunner-network"


def test_facade_exposes_concrete_channels(shared_vm_pair):
    cluster, _, _ = shared_vm_pair
    channel = RoadrunnerChannel(cluster)
    assert channel.channel_for(TransferMode.USER_SPACE).mode == "roadrunner-user"
    assert channel.channel_for(TransferMode.KERNEL_SPACE).mode == "roadrunner-kernel"
    assert channel.channel_for(TransferMode.NETWORK).mode == "roadrunner-network"
