"""Payload sweeps matching the paper's evaluation parameters."""

from __future__ import annotations

from typing import Sequence

from repro.payload import Payload

MB = 1024 * 1024

#: Payload sizes (MB) swept by Figs. 7 and 8 (1 MB to 500 MB, Sec. 6.1).
DEFAULT_SWEEP_SIZES_MB: Sequence[int] = (1, 10, 50, 100, 200, 300, 400, 500)

#: Fan-out degrees swept by Figs. 9 and 10.
DEFAULT_FANOUT_DEGREES: Sequence[int] = (1, 10, 25, 50, 75, 100)

#: Payload size used by the fan-out experiments (10 MB, Sec. 6.4).
FANOUT_PAYLOAD_MB = 10

#: Payload size of the inter-node breakdown figure (100 MB, Fig. 6).
BREAKDOWN_PAYLOAD_MB = 100


class WorkloadError(ValueError):
    """Raised for invalid workload parameters."""


def make_payload(size_mb: float, real: bool = False) -> Payload:
    """A payload of ``size_mb`` megabytes.

    ``real=True`` materialises actual bytes (keep it small); the default
    virtual payload is what the large modeled sweeps use.
    """
    if size_mb <= 0:
        raise WorkloadError("size_mb must be positive")
    size = int(size_mb * MB)
    if real:
        return Payload.random(size)
    return Payload.virtual(size)
