"""Environment-aware serialization with cost accounting.

Serialization is cheap in a native container (bytes into an HTTP body are
close to a memcpy) but expensive inside a Wasm module: single-threaded
execution, allocation of the serialized output inside linear memory, and the
copy across the VM boundary.  The paper measures serialization at ~15 % of a
container transfer and up to ~60 % of a Wasm transfer (Fig. 2b); this module
is where that asymmetry enters the reproduction.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.payload import Payload
from repro.serialization.codec import StringCodec
from repro.sim.costs import CostModel, DEFAULT_COST_MODEL
from repro.sim.ledger import CostCategory, CostLedger, CpuDomain


class ExecutionEnvironment(enum.Enum):
    """Where the (de)serialization code runs."""

    NATIVE = "native"
    WASM = "wasm"

    __hash__ = object.__hash__  # identity hash, as for repro.sim.ledger's enums


#: One codec for every serializer: it holds no state.
_CODEC = StringCodec()
# Members charged per operation, bound once (see repro.sim.ledger).
_SERIALIZATION = CostCategory.SERIALIZATION
_DESERIALIZATION = CostCategory.DESERIALIZATION
_USER = CpuDomain.USER
#: The (serialize, deserialize) charge labels of each environment.
_LABELS = {
    environment: ("serialize:%s" % environment.value, "deserialize:%s" % environment.value)
    for environment in ExecutionEnvironment
}


class Serializer:
    """Serializes/deserializes payloads, charging environment-specific costs.

    A serializer holds no per-transfer state, so a node keeps one per
    execution environment and every function deployed there shares it.
    """

    def __init__(
        self,
        ledger: CostLedger,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        environment: ExecutionEnvironment = ExecutionEnvironment.NATIVE,
    ) -> None:
        self.ledger = ledger
        self.cost_model = cost_model
        self.environment = environment
        self.codec = _CODEC
        self.in_wasm = environment is ExecutionEnvironment.WASM
        self._serialize_label, self._deserialize_label = _LABELS[environment]

    def serialize(self, payload: Payload, cgroup=None) -> Payload:
        """Produce the wire representation of ``payload`` and charge its cost."""
        cost_model = self.cost_model
        size = payload.size
        seconds = cost_model.serialize_time(size, in_wasm=self.in_wasm)
        self.ledger.charge(
            _SERIALIZATION,
            seconds,
            cpu_domain=_USER,
            nbytes=size,
            copied=True,
            label=self._serialize_label,
        )
        if cgroup is not None:
            cgroup.charge_cpu(_USER, seconds)
            cgroup.memory.allocate(cost_model.serialized_size(size))
        if payload.data is not None:
            return Payload.from_bytes(self.codec.encode(payload), content_type="application/x-frame")
        return payload.with_size(cost_model.serialized_size(size))

    def deserialize(self, wire_payload: Payload, original_size: Optional[int] = None, cgroup=None) -> Payload:
        """Reconstruct the original payload from its wire representation."""
        size = original_size if original_size is not None else wire_payload.size
        seconds = self.cost_model.deserialize_time(size, in_wasm=self.in_wasm)
        self.ledger.charge(
            _DESERIALIZATION,
            seconds,
            cpu_domain=_USER,
            nbytes=size,
            copied=True,
            label=self._deserialize_label,
        )
        if cgroup is not None:
            cgroup.charge_cpu(_USER, seconds)
            cgroup.memory.allocate(size)
        if wire_payload.data is not None:
            return self.codec.decode(wire_payload.data)
        if original_size is None:
            raise ValueError("deserializing a virtual payload requires the original size")
        return Payload(
            original_size,
            None,
            wire_payload.origin_fingerprint,
            wire_payload.content_type,
            wire_payload.origin_fingerprint,
        )
