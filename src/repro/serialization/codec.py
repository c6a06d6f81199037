"""Real serialization codecs.

These codecs move actual bytes and are exercised by the functional tests and
examples.  They deliberately mirror what the paper's workloads do: functions
exchange *serialized strings* (Sec. 6.1), so the default codec frames a
string/bytes body with a small header; a JSON codec covers structured data.
"""

from __future__ import annotations

import json
import struct
from typing import Any

from repro.payload import Payload


class CodecError(RuntimeError):
    """Raised when decoding fails or a codec is misused."""


_FRAME_MAGIC = b"RRF1"
_FRAME_HEADER = struct.Struct("<4sIQ")  # magic, content-type length, body length


class Codec:
    """Interface: encode a payload to wire bytes and decode it back."""

    name = "abstract"

    def encode(self, payload: Payload) -> bytes:
        raise NotImplementedError

    def decode(self, data: bytes) -> Payload:
        raise NotImplementedError

    def encoded_size(self, payload: Payload) -> int:
        """Size of the encoded representation without materialising it."""
        raise NotImplementedError


class StringCodec(Codec):
    """Length-prefixed framing of an opaque string/bytes body."""

    name = "string"

    def encode(self, payload: Payload) -> bytes:
        if payload.is_virtual:
            raise CodecError("StringCodec can only encode real payloads")
        content_type = payload.content_type.encode("utf-8")
        header = _FRAME_HEADER.pack(_FRAME_MAGIC, len(content_type), payload.size)
        return header + content_type + payload.data  # type: ignore[operator]

    def decode(self, data: bytes) -> Payload:
        if len(data) < _FRAME_HEADER.size:
            raise CodecError("frame too short: %d bytes" % len(data))
        magic, ct_len, body_len = _FRAME_HEADER.unpack_from(data)
        if magic != _FRAME_MAGIC:
            raise CodecError("bad frame magic %r" % magic)
        start = _FRAME_HEADER.size
        content_type = data[start : start + ct_len].decode("utf-8")
        body = data[start + ct_len : start + ct_len + body_len]
        if len(body) != body_len:
            raise CodecError("truncated frame: expected %d body bytes, got %d" % (body_len, len(body)))
        return Payload.from_bytes(body, content_type=content_type)

    def encoded_size(self, payload: Payload) -> int:
        return _FRAME_HEADER.size + len(payload.content_type.encode("utf-8")) + payload.size


class JsonCodec(Codec):
    """JSON document framing for structured data."""

    name = "json"

    def encode_object(self, obj: Any) -> bytes:
        try:
            return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise CodecError("object is not JSON serializable: %s" % exc) from exc

    def decode_object(self, data: bytes) -> Any:
        try:
            return json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CodecError("invalid JSON frame: %s" % exc) from exc

    def encode(self, payload: Payload) -> bytes:
        if payload.is_virtual:
            raise CodecError("JsonCodec can only encode real payloads")
        document = {
            "content_type": payload.content_type,
            "body": payload.data.hex(),  # type: ignore[union-attr]
        }
        return self.encode_object(document)

    def decode(self, data: bytes) -> Payload:
        document = self.decode_object(data)
        if not isinstance(document, dict) or "body" not in document:
            raise CodecError("JSON frame missing 'body'")
        try:
            body = bytes.fromhex(document["body"])
        except ValueError as exc:
            raise CodecError("JSON frame body is not valid hex") from exc
        return Payload.from_bytes(body, content_type=document.get("content_type", "application/octet-stream"))

    def encoded_size(self, payload: Payload) -> int:
        # hex doubles the body, plus a small JSON envelope.
        return 2 * payload.size + 64 + len(payload.content_type)


class BinaryFrameCodec(Codec):
    """Compact binary framing with a CRC-style trailer (checked on decode)."""

    name = "binary"
    _TRAILER = struct.Struct("<I")

    def encode(self, payload: Payload) -> bytes:
        if payload.is_virtual:
            raise CodecError("BinaryFrameCodec can only encode real payloads")
        body = StringCodec().encode(payload)
        return body + self._TRAILER.pack(payload.crc())

    def decode(self, data: bytes) -> Payload:
        if len(data) < self._TRAILER.size:
            raise CodecError("frame too short for trailer")
        body, trailer = data[: -self._TRAILER.size], data[-self._TRAILER.size :]
        payload = StringCodec().decode(body)
        (expected_crc,) = self._TRAILER.unpack(trailer)
        if payload.crc() != expected_crc:
            raise CodecError("CRC mismatch: payload corrupted in transit")
        return payload

    def encoded_size(self, payload: Payload) -> int:
        return StringCodec().encoded_size(payload) + self._TRAILER.size




