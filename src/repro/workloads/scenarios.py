"""Domain-flavoured payload generators for the example applications.

The paper motivates Roadrunner with data-intensive edge-cloud scenarios:
ML-based image processing pipelines (ingestion, frame extraction, processing,
inference) and traffic data analytics (Sec. 1).  These generators produce
small but structurally realistic payloads for those scenarios so the examples
exercise real bytes end to end.
"""

from __future__ import annotations

import json
import struct

from repro.payload import Payload


class ScenarioError(ValueError):
    """Raised for invalid scenario parameters."""


#: Colour channels of a synthetic frame (RGB).
FRAME_CHANNELS = 3


def image_frame(width: int = 640, height: int = 360) -> Payload:
    """A synthetic raw RGB image frame (deterministic pixel pattern)."""
    if width <= 0 or height <= 0:
        raise ScenarioError("invalid frame geometry")
    row = bytes((x * 7) % 256 for x in range(width * FRAME_CHANNELS))
    data = b"".join(bytes((byte + y) % 256 for byte in row) for y in range(height))
    header = struct.pack("<HHB", width, height, FRAME_CHANNELS)
    return Payload.from_bytes(header + data, content_type="image/raw")


def sensor_batch(readings: int = 256, sensor_id: str = "edge-sensor-1") -> Payload:
    """A batch of IoT sensor readings serialized as JSON text."""
    if readings <= 0:
        raise ScenarioError("readings must be positive")
    records = [
        {
            "sensor": sensor_id,
            "sequence": i,
            "temperature_c": round(20.0 + (i % 17) * 0.25, 2),
            "humidity_pct": round(40.0 + (i % 11) * 0.5, 2),
        }
        for i in range(readings)
    ]
    return Payload.from_text(json.dumps({"readings": records}, separators=(",", ":")))


def traffic_records(vehicles: int = 500) -> Payload:
    """Traffic analytics records (the paper's second motivating workload)."""
    if vehicles <= 0:
        raise ScenarioError("vehicles must be positive")
    rows = [
        {
            "intersection": "A-12",
            "vehicle": i,
            "speed_kmh": 30 + (i * 13) % 70,
            "lane": i % 4,
            "timestamp_ms": 1_700_000_000_000 + i * 40,
        }
        for i in range(vehicles)
    ]
    return Payload.from_text(json.dumps({"records": rows}, separators=(",", ":")))
