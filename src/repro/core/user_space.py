"""User-space data transfer: both functions inside one Wasm VM (Fig. 4a).

The functions share one isolation sandbox and therefore one process; the shim
reads the source module's registered region straight out of linear memory,
allocates space in the target module and writes the data there.  No
serialization, no syscalls, no user/kernel crossings — the only cost is the
Wasm VM I/O of reaching into linear memory, which is exactly the breakdown
the paper reports for this mode.
"""

from __future__ import annotations

from repro.core.base import RoadrunnerChannelBase
from repro.payload import Payload
from repro.platform.channel import ChannelError
from repro.platform.deployment import DeployedFunction
from repro.sim.ledger import CostCategory, CpuDomain


# Members charged per operation, bound once (see repro.sim.ledger).
_TRANSFER = CostCategory.TRANSFER
_USER = CpuDomain.USER


class UserSpaceChannel(RoadrunnerChannelBase):
    """Roadrunner (User space): intra-VM, near-zero copy, serialization-free."""

    mode = "roadrunner-user"
    #: The functions and the shim share one *process*, but the shim drives
    #: memory copies from host threads, so fan-out branches still spread over
    #: the node's cores; the cost shows up as concentrated user-space CPU in
    #: that single sandbox (Sec. 6.5).
    single_threaded = False
    fanout_overhead_s = 0.0

    def supports(self, source: DeployedFunction, target: DeployedFunction) -> bool:
        return (
            source.is_wasm
            and target.is_wasm
            and source.shares_vm_with(target)
            and (not self.config.enforce_trust_domain or source.same_trust_domain(target))
        )

    def _move(
        self, source: DeployedFunction, target: DeployedFunction, payload: Payload
    ) -> Payload:
        if not source.shares_vm_with(target):
            raise ChannelError(
                "user-space transfer requires %r and %r to share a Wasm VM"
                % (source.name, target.name)
            )
        source_shim = self._stage_source_output(source, payload)
        target_shim = self.shim_for(target)
        if not source_shim.trusts(target_shim):
            raise ChannelError(
                "functions %r and %r are not in the same trust domain" % (source.name, target.name)
            )

        # Steps 2-5 of Fig. 4a: the shim reads the source's region, allocates
        # in the target and writes the incoming data.
        data, _, _ = source_shim.read_output()
        if not self.config.serialization_free:
            # Ablation: run the codec anyway, like a conventional runtime would.
            data = source.serializer.serialize(data, cgroup=source.cgroup)
            data = target.serializer.deserialize(
                data, original_size=payload.size, cgroup=target.cgroup
            )
        target_shim.write_input(data)

        # The transfer stays within one process: charge the (tiny) metadata
        # cost of updating the shim's region table on the owning node.
        self.node_ledger(source).charge(
            _TRANSFER,
            source.vm.cost_model.region_metadata_overhead,
            cpu_domain=_USER,
            label="user-space-handoff",
        )
        source.process.charge_cpu(_USER, source.vm.cost_model.region_metadata_overhead)
        return data
