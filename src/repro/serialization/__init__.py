"""Serialization substrate: real codecs plus the environment-aware cost model.

The HTTP baselines serialize payloads before transfer and deserialize them on
arrival; Roadrunner's whole point is skipping that step.  This package offers
(1) real codecs used by the functional tests and examples — so the semantic
round trip is demonstrably correct — and (2) a :class:`Serializer` that
charges the serialization cost appropriate to where the code runs (native
container vs single-threaded Wasm behind WASI), which is what the evaluation
figures measure.
"""

from repro.serialization.codec import (
    BinaryFrameCodec,
    Codec,
    CodecError,
    JsonCodec,
    StringCodec,
)
from repro.serialization.serializer import ExecutionEnvironment, Serializer

__all__ = [
    "BinaryFrameCodec",
    "Codec",
    "CodecError",
    "JsonCodec",
    "StringCodec",
    "ExecutionEnvironment",
    "Serializer",
]
