"""Wasm value types and little-endian encoding helpers.

Wasm only defines four primitive value types (i32, i64, f32, f64); complex
data such as strings live in linear memory and are referred to by
(pointer, length) pairs.  Roadrunner's serialization-free transfer relies on
both ends agreeing on endianness (little-endian, as on x86 and ARM) and on
the explicit integer widths — these helpers encode exactly that contract.
"""

from __future__ import annotations

import enum
import struct
from typing import Union

Number = Union[int, float]


class WasmValueError(ValueError):
    """Raised when a value does not fit its declared Wasm type."""


class WasmValueType(enum.Enum):
    """The four Wasm primitive value types."""

    I32 = "i32"
    I64 = "i64"
    F32 = "f32"
    F64 = "f64"

    @property
    def size(self) -> int:
        """Width of the type in bytes."""
        return _SIZES[self]

    @property
    def struct_format(self) -> str:
        """Little-endian ``struct`` format character."""
        return _FORMATS[self]


_SIZES = {
    WasmValueType.I32: 4,
    WasmValueType.I64: 8,
    WasmValueType.F32: 4,
    WasmValueType.F64: 8,
}

_FORMATS = {
    WasmValueType.I32: "<i",
    WasmValueType.I64: "<q",
    WasmValueType.F32: "<f",
    WasmValueType.F64: "<d",
}

I32_MIN, I32_MAX = -(2 ** 31), 2 ** 31 - 1
I64_MIN, I64_MAX = -(2 ** 63), 2 ** 63 - 1


def pack_value(value_type: WasmValueType, value: Number) -> bytes:
    """Encode ``value`` as the little-endian byte representation of its type."""
    if value_type is WasmValueType.I32:
        if not isinstance(value, int) or not I32_MIN <= value <= I32_MAX:
            raise WasmValueError("value %r does not fit i32" % (value,))
    elif value_type is WasmValueType.I64:
        if not isinstance(value, int) or not I64_MIN <= value <= I64_MAX:
            raise WasmValueError("value %r does not fit i64" % (value,))
    elif not isinstance(value, (int, float)):
        raise WasmValueError("value %r is not numeric" % (value,))
    return struct.pack(value_type.struct_format, value)


def unpack_value(value_type: WasmValueType, data: bytes) -> Number:
    """Decode a value of ``value_type`` from its little-endian bytes."""
    if len(data) != value_type.size:
        raise WasmValueError(
            "expected %d bytes for %s, got %d" % (value_type.size, value_type.value, len(data))
        )
    return struct.unpack(value_type.struct_format, data)[0]
