"""Network data transfer: remote functions, virtual data hose (Fig. 5, Alg. 1).

The source shim reads the registered region out of its Wasm VM, ``vmsplice``s
the user pages into a message-sized pipe (the virtual data hose), ``splice``s
the hose into a TCP socket, and the kernel/NIC put the bytes on the wire.  On
the target node the arriving socket buffer is spliced into another hose,
mapped out without a copy, and written into the target VM's linear memory.
Unlike RDMA the CPU still drives the transfer — but no byte is copied between
user and kernel space and nothing is serialized.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.base import RoadrunnerChannelBase
from repro.core.data_hose import VirtualDataHose
from repro.kernel.pipes import DEFAULT_PIPE_CAPACITY
from repro.kernel.sockets import TcpConnection
from repro.payload import Payload
from repro.platform.channel import ChannelError
from repro.platform.deployment import DeployedFunction
from repro.sim.ledger import CostCategory, CpuDomain


# Members charged per operation, bound once (see repro.sim.ledger).
_NETWORK = CostCategory.NETWORK
_USER = CpuDomain.USER


class NetworkChannel(RoadrunnerChannelBase):
    """Roadrunner (Network): inter-node, serialization-free, near-zero copy."""

    mode = "roadrunner-network"
    single_threaded = False

    @property
    def fanout_overhead_s(self) -> float:
        return self.cluster.cost_model.async_task_overhead

    def __init__(self, cluster, config=None) -> None:
        super().__init__(cluster, config)
        self._connections: Dict[Tuple[str, str], TcpConnection] = {}
        self._hose_counter = 0

    def supports(self, source: DeployedFunction, target: DeployedFunction) -> bool:
        return source.is_wasm and target.is_wasm and not source.colocated_with(target)

    def _connection(self, source: DeployedFunction, target: DeployedFunction) -> TcpConnection:
        key = (source.name, target.name)
        if key not in self._connections:
            connection = TcpConnection(
                source_kernel=self.cluster.node(source.node_name).kernel,
                target_kernel=self.cluster.node(target.node_name).kernel,
                link=self.cluster.link_between(source.node_name, target.node_name),
                name="rr-tcp:%s->%s" % key,
            )
            connection.establish(source.process, target.process)
            self._connections[key] = connection
        return self._connections[key]

    def _hose_capacity(self, payload: Payload) -> int:
        if self.config.size_hose_to_message:
            return max(payload.size, DEFAULT_PIPE_CAPACITY)
        return DEFAULT_PIPE_CAPACITY

    def _move(
        self, source: DeployedFunction, target: DeployedFunction, payload: Payload
    ) -> Payload:
        if source.colocated_with(target):
            raise ChannelError(
                "network transfer is for remote functions; %r and %r share node %s"
                % (source.name, target.name, source.node_name)
            )
        source_shim = self._stage_source_output(source, payload)
        target_shim = self.shim_for(target)
        source_kernel = self.cluster.node(source.node_name).kernel
        target_kernel = self.cluster.node(target.node_name).kernel

        # Algorithm 1, source side -------------------------------------------------
        # read_memory_host: pull the registered region out of the Wasm VM.
        data, _, _ = source_shim.read_output()
        if not self.config.serialization_free:
            data = source.serializer.serialize(data, cgroup=source.cgroup)

        self._hose_counter += 1
        connection = self._connection(source, target)
        with VirtualDataHose(
            kernel=source_kernel,
            owner=source.process,
            capacity=self._hose_capacity(data),
            name="vdh-src-%d" % self._hose_counter,
        ) as source_hose:
            if self.config.zero_copy:
                source_hose.gift(data)  # vmsplice(vdh, address, length)
                connection.send_spliced(source.process, source_hose.pipe)  # splice(vdh, socket)
            else:
                # Ablation: conventional copies through the same pipe+socket path.
                source_hose.push_copy(data)
                staged = source_hose.drain_to_user()
                connection.send(source.process, staged)

        # Algorithm 1, target side --------------------------------------------------
        with VirtualDataHose(
            kernel=target_kernel,
            owner=target.process,
            capacity=self._hose_capacity(data),
            name="vdh-dst-%d" % self._hose_counter,
        ) as target_hose:
            if self.config.zero_copy:
                connection.recv_spliced(target.process, target_hose.pipe)  # splice(socket, vdh)
                received = target_hose.drain_mapped()  # vmsplice(vdh, target_memory)
            else:
                received = connection.recv(target.process)

        if not self.config.serialization_free:
            received = target.serializer.deserialize(
                received, original_size=payload.size, cgroup=target.cgroup
            )

        # write_memory_host into the target VM (the unavoidable Wasm I/O).
        target_shim.write_input(received)

        # Async bookkeeping for the two shims' executors.
        async_cost = self.cluster.cost_model.async_task_overhead
        self.node_ledger(source).charge(
            _NETWORK,
            async_cost,
            cpu_domain=_USER,
            label="network-async-overhead",
        )
        source.process.charge_cpu(_USER, async_cost)
        return received
