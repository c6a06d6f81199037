"""Workloads: payload generators and the paper's experimental sweeps.

The evaluation exchanges serialized strings between chained I/O-bound
functions, sweeping payload sizes from 1 MB to 500 MB and fan-out degrees up
to 100 (Sec. 6.1).  This package produces those payloads — real bytes for the
functional tests and examples, virtual descriptors for the large modeled
sweeps — plus the domain-flavoured generators the examples use.
"""

from repro.workloads.generators import (
    DEFAULT_FANOUT_DEGREES,
    DEFAULT_SWEEP_SIZES_MB,
    make_payload,
)
from repro.workloads.scenarios import (
    image_frame,
    sensor_batch,
    traffic_records,
)

__all__ = [
    "DEFAULT_FANOUT_DEGREES",
    "DEFAULT_SWEEP_SIZES_MB",
    "make_payload",
    "image_frame",
    "sensor_batch",
    "traffic_records",
]
