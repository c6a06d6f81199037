"""Kernel-space data transfer: co-located functions, separate sandboxes (Fig. 4b).

Each function runs in its own Wasm VM with its own shim; the two shims
exchange the payload over a Unix-domain socket.  The payload is never
serialized — the shim reads raw bytes out of the source VM and writes raw
bytes into the target VM — but it does cross the user/kernel boundary twice
(once per shim), which is the IPC overhead the paper discusses for this mode.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.base import RoadrunnerChannelBase
from repro.kernel.sockets import UnixSocketPair
from repro.payload import Payload
from repro.platform.channel import ChannelError
from repro.platform.deployment import DeployedFunction
from repro.sim.ledger import CostCategory, CpuDomain


# Members charged per operation, bound once (see repro.sim.ledger).
_IPC = CostCategory.IPC
_USER = CpuDomain.USER


class KernelSpaceChannel(RoadrunnerChannelBase):
    """Roadrunner (Kernel space): same host, Unix-socket IPC, serialization-free."""

    mode = "roadrunner-kernel"
    single_threaded = False

    @property
    def fanout_overhead_s(self) -> float:
        """Async-executor cost per outstanding IPC request (Sec. 6.4)."""
        return self.cluster.cost_model.async_task_overhead

    def __init__(self, cluster, config=None) -> None:
        super().__init__(cluster, config)
        self._sockets: Dict[Tuple[str, str], UnixSocketPair] = {}

    def supports(self, source: DeployedFunction, target: DeployedFunction) -> bool:
        return (
            source.is_wasm
            and target.is_wasm
            and source.colocated_with(target)
            and not source.shares_vm_with(target)
        )

    def _socket(self, source: DeployedFunction, target: DeployedFunction) -> UnixSocketPair:
        key = (source.name, target.name)
        if key not in self._sockets:
            kernel = self.cluster.node(source.node_name).kernel
            socket = UnixSocketPair(
                kernel,
                name="uds:%s->%s" % key,
                batch_factor=self.config.effective_batch_factor,
            )
            socket.connect(source.process, target.process)
            self._sockets[key] = socket
        return self._sockets[key]

    def _move(
        self, source: DeployedFunction, target: DeployedFunction, payload: Payload
    ) -> Payload:
        if not source.colocated_with(target):
            raise ChannelError(
                "kernel-space transfer requires %r and %r on the same node"
                % (source.name, target.name)
            )
        if source.shares_vm_with(target):
            raise ChannelError(
                "functions sharing a VM should use the user-space channel instead"
            )
        source_shim = self._stage_source_output(source, payload)
        target_shim = self.shim_for(target)

        # Steps 1-2 (Fig. 4b): shim A reads the registered region out of VM A.
        data, _, _ = source_shim.read_output()
        if not self.config.serialization_free:
            data = source.serializer.serialize(data, cgroup=source.cgroup)

        # Step 3: shim A sends the raw bytes to shim B over the Unix socket.
        socket = self._socket(source, target)
        socket.send(source.process, data)

        # Step 4: shim B wakes up and receives the payload.
        received = socket.recv(target.process)
        if not self.config.serialization_free:
            received = target.serializer.deserialize(
                received, original_size=payload.size, cgroup=target.cgroup
            )

        # Steps 5-6: shim B allocates in VM B and writes the incoming data.
        target_shim.write_input(received)

        # Per-request async bookkeeping on both shims (tokio-style executors).
        async_cost = self.cluster.cost_model.async_task_overhead
        self.node_ledger(source).charge(
            _IPC,
            async_cost,
            cpu_domain=_USER,
            label="ipc-async-overhead",
        )
        source.process.charge_cpu(_USER, async_cost)
        return received
