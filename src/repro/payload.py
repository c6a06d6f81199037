"""Payload: the unit of data exchanged between serverless functions.

A payload exists in one of two modes, sharing one code path end-to-end:

* **real** — backed by actual bytes.  Tests and examples use real payloads so
  data integrity can be asserted after every transfer (checksums match,
  byte-for-byte equality in functional mode).
* **virtual** — described only by its size and a deterministic fingerprint.
  The paper's sweeps go up to 500 MB per transfer; moving those bytes through
  Python would turn the benchmark harness into a memcpy benchmark of the host
  machine.  Virtual payloads traverse exactly the same substrate operations
  (and accrue exactly the same simulated costs) without materialising data.

Every transformation (serialize, copy, splice) produces a new payload whose
lineage is tracked, so a test can assert that the payload that reached
function *b* is the one function *a* sent.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass, replace
from typing import Optional


class PayloadError(ValueError):
    """Raised for invalid payload construction or integrity violations."""


def _fingerprint_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:24]


def _fingerprint_virtual(size: int) -> str:
    return "virtual-%d-0" % size


@dataclass(frozen=True)
class Payload:
    """An immutable description of a message body."""

    size: int
    data: Optional[bytes] = None
    fingerprint: str = ""
    content_type: str = "application/octet-stream"
    #: Serialized payloads remember the original (pre-serialization) fingerprint
    #: so the deserialized result can be matched back to the source.
    origin_fingerprint: str = ""

    def __post_init__(self) -> None:
        if self.size < 0:
            raise PayloadError("payload size must be non-negative, got %r" % self.size)
        if self.data is not None and len(self.data) != self.size:
            raise PayloadError(
                "payload size %d does not match data length %d" % (self.size, len(self.data))
            )
        if not self.fingerprint:
            if self.data is not None:
                object.__setattr__(self, "fingerprint", _fingerprint_bytes(self.data))
            else:
                object.__setattr__(self, "fingerprint", _fingerprint_virtual(self.size))
        if not self.origin_fingerprint:
            object.__setattr__(self, "origin_fingerprint", self.fingerprint)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_bytes(cls, data: bytes, content_type: str = "application/octet-stream") -> "Payload":
        """A real payload backed by ``data``."""
        return cls(size=len(data), data=bytes(data), content_type=content_type)

    @classmethod
    def from_text(cls, text: str) -> "Payload":
        """A real payload holding UTF-8 text (the paper exchanges strings)."""
        return cls.from_bytes(text.encode("utf-8"), content_type="text/plain")

    @classmethod
    def random(cls, size: int, seed: int = 0) -> "Payload":
        """A real payload of ``size`` pseudo-random (but deterministic) bytes."""
        if size < 0:
            raise PayloadError("size must be non-negative")
        # A cheap deterministic generator: repeated digest blocks.
        chunks = []
        counter = 0
        remaining = size
        while remaining > 0:
            block = hashlib.sha256(("%d:%d" % (seed, counter)).encode()).digest()
            chunks.append(block[: min(32, remaining)])
            remaining -= len(chunks[-1])
            counter += 1
        return cls.from_bytes(b"".join(chunks))

    @classmethod
    def virtual(cls, size: int) -> "Payload":
        """A size-only payload used for large modeled experiments."""
        return cls(size=size)

    # -- predicates --------------------------------------------------------------

    @property
    def is_virtual(self) -> bool:
        return self.data is None

    @property
    def is_real(self) -> bool:
        return self.data is not None

    # -- transformations ---------------------------------------------------------

    def with_size(self, size: int) -> "Payload":
        """A derived payload of a different size (e.g. after serialization).

        The origin fingerprint is preserved so the round trip can be verified.
        """
        if size < 0:
            raise PayloadError("size must be non-negative")
        return Payload(
            size=size,
            data=None,
            fingerprint="derived-%s-%d" % (self.origin_fingerprint, size),
            content_type=self.content_type,
            origin_fingerprint=self.origin_fingerprint,
        )

    def copy(self) -> "Payload":
        """A physical copy (same contents, same fingerprint)."""
        if self.data is not None:
            return replace(self, data=bytes(self.data))
        return replace(self)

    def crc(self) -> int:
        """A quick integrity checksum (0 for virtual payloads)."""
        if self.data is None:
            return 0
        return zlib.crc32(self.data)

    def matches(self, other: "Payload") -> bool:
        """True when ``other`` carries the same logical content."""
        if self.origin_fingerprint != other.origin_fingerprint:
            return False
        if self.is_real and other.is_real:
            return self.data == other.data
        return True

    def require_match(self, other: "Payload") -> None:
        """Raise :class:`PayloadError` unless ``other`` matches this payload."""
        if not self.matches(other):
            raise PayloadError(
                "payload integrity violation: %s != %s"
                % (self.fingerprint, other.fingerprint)
            )

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "virtual" if self.is_virtual else "real"
        return "Payload(%s, size=%d, fp=%s)" % (kind, self.size, self.fingerprint[:12])
