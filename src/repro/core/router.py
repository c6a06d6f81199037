"""The transfer-mode router and the Roadrunner facade channel.

Roadrunner "optimizes communication regardless of the scheduler's decisions"
(Sec. 2.2): whatever the orchestrator did, the shim picks the best available
mode from where the two functions actually ended up — same VM, same node, or
different nodes.  :class:`RoadrunnerChannel` wraps the three concrete
channels behind that decision, and is the channel applications normally use.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.core.config import RoadrunnerConfig
from repro.core.kernel_space import KernelSpaceChannel
from repro.core.network import NetworkChannel
from repro.core.user_space import UserSpaceChannel
from repro.payload import Payload
from repro.platform.channel import ChannelError, DataPassingChannel, TransferOutcome
from repro.platform.cluster import Cluster
from repro.platform.deployment import DeployedFunction


class TransferMode(enum.Enum):
    """Roadrunner's three communication modes."""

    USER_SPACE = "user_space"
    KERNEL_SPACE = "kernel_space"
    NETWORK = "network"


class TransferModeRouter:
    """Chooses a transfer mode from the placement of the two functions."""

    def __init__(self, config: Optional[RoadrunnerConfig] = None) -> None:
        self.config = config if config is not None else RoadrunnerConfig.default()

    def select(self, source: DeployedFunction, target: DeployedFunction) -> TransferMode:
        if not source.is_wasm or not target.is_wasm:
            raise ChannelError(
                "Roadrunner attaches to Wasm functions; %r or %r is not one"
                % (source.name, target.name)
            )
        if source.shares_vm_with(target) and (
            not self.config.enforce_trust_domain or source.same_trust_domain(target)
        ):
            return TransferMode.USER_SPACE
        if source.colocated_with(target):
            return TransferMode.KERNEL_SPACE
        return TransferMode.NETWORK


class RoadrunnerChannel(DataPassingChannel):
    """Facade over the three Roadrunner channels, dispatching by placement."""

    mode = "roadrunner"
    single_threaded = False
    fanout_overhead_s = 0.0

    def __init__(self, cluster: Cluster) -> None:
        super().__init__(cluster.ledger)
        self.cluster = cluster
        self.config = RoadrunnerConfig.default()
        self.router = TransferModeRouter(self.config)
        self._channels = {
            TransferMode.USER_SPACE: UserSpaceChannel(cluster, self.config),
            TransferMode.KERNEL_SPACE: KernelSpaceChannel(cluster, self.config),
            TransferMode.NETWORK: NetworkChannel(cluster, self.config),
        }
        self.last_mode: Optional[TransferMode] = None

    def channel_for(self, mode: TransferMode) -> DataPassingChannel:
        return self._channels[mode]

    def supports(self, source: DeployedFunction, target: DeployedFunction) -> bool:
        return source.is_wasm and target.is_wasm

    # The facade delegates the full transfer (measurement included) to the
    # selected concrete channel so its mode label appears in the metrics.
    def transfer(
        self, source: DeployedFunction, target: DeployedFunction, payload: Payload
    ) -> TransferOutcome:
        mode = self.router.select(source, target)
        self.last_mode = mode
        outcome = self._channels[mode].transfer(source, target, payload)
        self.transfers += 1
        return outcome

    def _move(self, source, target, payload):  # pragma: no cover - delegation only
        raise NotImplementedError("RoadrunnerChannel delegates to its concrete channels")
