"""Unit tests for the real serialization codecs."""

import pytest

from repro.payload import Payload
from repro.serialization.codec import (
    BinaryFrameCodec,
    CodecError,
    JsonCodec,
    StringCodec,
)


@pytest.fixture(params=[StringCodec, JsonCodec, BinaryFrameCodec], ids=["string", "json", "binary"])
def codec(request):
    return request.param()


def test_round_trip_preserves_payload(codec):
    payload = Payload.random(4096, seed=11)
    decoded = codec.decode(codec.encode(payload))
    assert decoded.data == payload.data
    payload.require_match(decoded)


def test_round_trip_preserves_text_content_type():
    payload = Payload.from_text("roadrunner goes beep beep")
    decoded = StringCodec().decode(StringCodec().encode(payload))
    assert decoded.content_type == "text/plain"
    assert decoded.data == payload.data


def test_encoded_size_estimate_is_close(codec):
    payload = Payload.random(10_000)
    encoded = codec.encode(payload)
    estimate = codec.encoded_size(payload)
    assert abs(len(encoded) - estimate) <= 128


def test_virtual_payloads_cannot_be_encoded(codec):
    with pytest.raises(CodecError):
        codec.encode(Payload.virtual(1024))


def test_string_codec_rejects_garbage():
    with pytest.raises(CodecError):
        StringCodec().decode(b"NOPE")
    with pytest.raises(CodecError):
        StringCodec().decode(b"")


def test_string_codec_detects_truncation():
    encoded = StringCodec().encode(Payload.random(1000))
    with pytest.raises(CodecError):
        StringCodec().decode(encoded[:-10])


def test_binary_codec_detects_corruption():
    encoded = bytearray(BinaryFrameCodec().encode(Payload.random(1000)))
    encoded[50] ^= 0xFF  # flip a byte inside the body
    with pytest.raises(CodecError):
        BinaryFrameCodec().decode(bytes(encoded))


def test_json_codec_handles_structured_objects():
    codec = JsonCodec()
    document = {"sensor": "s1", "values": [1, 2, 3]}
    assert codec.decode_object(codec.encode_object(document)) == document
    with pytest.raises(CodecError):
        codec.encode_object({"bad": object()})
    with pytest.raises(CodecError):
        codec.decode_object(b"{not json")


def test_json_codec_rejects_malformed_frames():
    codec = JsonCodec()
    with pytest.raises(CodecError):
        codec.decode(codec.encode_object(["no", "body"]))
    with pytest.raises(CodecError):
        codec.decode(codec.encode_object({"body": "zz-not-hex"}))
