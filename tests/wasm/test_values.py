"""Unit tests for Wasm value types and encoding."""

import pytest

from repro.wasm.values import (
    WasmValueError,
    WasmValueType,
    pack_value,
    unpack_value,
)


def test_type_sizes():
    assert WasmValueType.I32.size == 4
    assert WasmValueType.I64.size == 8
    assert WasmValueType.F32.size == 4
    assert WasmValueType.F64.size == 8


@pytest.mark.parametrize(
    "value_type,value",
    [
        (WasmValueType.I32, 0),
        (WasmValueType.I32, -(2 ** 31)),
        (WasmValueType.I32, 2 ** 31 - 1),
        (WasmValueType.I64, 2 ** 62),
        (WasmValueType.F32, 1.5),
        (WasmValueType.F64, -2.25),
    ],
)
def test_pack_unpack_round_trip(value_type, value):
    packed = pack_value(value_type, value)
    assert len(packed) == value_type.size
    assert unpack_value(value_type, packed) == value


def test_encoding_is_little_endian():
    assert pack_value(WasmValueType.I32, 1) == b"\x01\x00\x00\x00"


def test_i32_overflow_rejected():
    with pytest.raises(WasmValueError):
        pack_value(WasmValueType.I32, 2 ** 31)
    with pytest.raises(WasmValueError):
        pack_value(WasmValueType.I64, 2 ** 63)


def test_non_numeric_rejected():
    with pytest.raises(WasmValueError):
        pack_value(WasmValueType.F64, "nope")  # type: ignore[arg-type]


def test_unpack_wrong_length_rejected():
    with pytest.raises(WasmValueError):
        unpack_value(WasmValueType.I32, b"\x00\x00")
