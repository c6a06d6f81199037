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


class Serializer:
    """Serializes/deserializes payloads, charging environment-specific costs."""

    def __init__(
        self,
        ledger: CostLedger,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        environment: ExecutionEnvironment = ExecutionEnvironment.NATIVE,
    ) -> None:
        self.ledger = ledger
        self.cost_model = cost_model
        self.environment = environment
        self.codec = StringCodec()

    @property
    def in_wasm(self) -> bool:
        return self.environment is ExecutionEnvironment.WASM

    def serialize(self, payload: Payload, cgroup=None) -> Payload:
        """Produce the wire representation of ``payload`` and charge its cost."""
        seconds = self.cost_model.serialize_time(payload.size, in_wasm=self.in_wasm)
        self.ledger.charge(
            CostCategory.SERIALIZATION,
            seconds,
            cpu_domain=CpuDomain.USER,
            nbytes=payload.size,
            copied=True,
            label="serialize:%s" % self.environment.value,
        )
        if cgroup is not None:
            cgroup.charge_cpu(CpuDomain.USER, seconds)
            cgroup.memory.allocate(self.cost_model.serialized_size(payload.size))
        if payload.is_real:
            return Payload.from_bytes(self.codec.encode(payload), content_type="application/x-frame")
        return payload.with_size(self.cost_model.serialized_size(payload.size))

    def deserialize(self, wire_payload: Payload, original_size: Optional[int] = None, cgroup=None) -> Payload:
        """Reconstruct the original payload from its wire representation."""
        size = original_size if original_size is not None else wire_payload.size
        seconds = self.cost_model.deserialize_time(size, in_wasm=self.in_wasm)
        self.ledger.charge(
            CostCategory.DESERIALIZATION,
            seconds,
            cpu_domain=CpuDomain.USER,
            nbytes=size,
            copied=True,
            label="deserialize:%s" % self.environment.value,
        )
        if cgroup is not None:
            cgroup.charge_cpu(CpuDomain.USER, seconds)
            cgroup.memory.allocate(size)
        if wire_payload.is_real:
            return self.codec.decode(wire_payload.data)  # type: ignore[arg-type]
        if original_size is None:
            raise ValueError("deserializing a virtual payload requires the original size")
        return Payload(
            size=original_size,
            data=None,
            fingerprint=wire_payload.origin_fingerprint,
            content_type=wire_payload.content_type,
            origin_fingerprint=wire_payload.origin_fingerprint,
        )
