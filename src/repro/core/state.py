"""Shim-managed short-term function state (the paper's future work, Sec. 9).

"Finally, we aim to introduce function state management ... allowing
Roadrunner to efficiently handle stateless and stateful serverless
functions."  This extension keeps named state objects inside the function's
own linear memory, managed by the shim: a stateful function can persist a
value across invocations without serializing it to an external store, and a
successor invocation (or a colocated function of the same workflow) can read
it back through the ordinary registered-region path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.shim import RoadrunnerShim, ShimError
from repro.payload import Payload


class StateError(RuntimeError):
    """Raised for unknown keys or trust violations."""


#: Bytes of linear memory the store may hold (across all keys).
STATE_CAPACITY_BYTES = 64 * 1024 * 1024


@dataclass
class _StateEntry:
    key: str
    address: int
    size: int
    version: int


class ShimStateStore:
    """Named, versioned state slots kept in the function's linear memory."""

    def __init__(self, shim: RoadrunnerShim) -> None:
        self.shim = shim
        self._entries: Dict[str, _StateEntry] = {}
        self._used_bytes = 0

    # -- write path -----------------------------------------------------------------

    def put(self, key: str, payload: Payload) -> int:
        """Store (or replace) the state object under ``key``; returns its version."""
        if not key:
            raise StateError("state key must be non-empty")
        if payload.size <= 0:
            raise StateError("state payloads must be non-empty")
        new_used = self._used_bytes - self._size_of(key) + payload.size
        if new_used > STATE_CAPACITY_BYTES:
            raise StateError(
                "state store over capacity: %d bytes needed, %d available"
                % (new_used, STATE_CAPACITY_BYTES)
            )
        previous = self._entries.get(key)
        if previous is not None:
            self.shim.release_input(previous.address)
        address = self.shim.write_input(payload)
        version = (previous.version + 1) if previous is not None else 1
        self._entries[key] = _StateEntry(key=key, address=address, size=payload.size, version=version)
        self._used_bytes = new_used
        return version

    # -- read path --------------------------------------------------------------------

    def get(self, key: str) -> Payload:
        """Read the current value of ``key`` (through the shim, bounds-checked)."""
        entry = self._require(key)
        try:
            return self.shim.read_region(entry.address, entry.size)
        except ShimError as exc:  # pragma: no cover - defensive
            raise StateError(str(exc)) from exc

    def version(self, key: str) -> int:
        return self._require(key).version

    def keys(self) -> List[str]:
        return sorted(self._entries)

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    # -- removal -----------------------------------------------------------------------

    def delete(self, key: str) -> None:
        entry = self._require(key)
        self.shim.release_input(entry.address)
        self._used_bytes -= entry.size
        del self._entries[key]

    def clear(self) -> None:
        for key in list(self._entries):
            self.delete(key)

    # -- sharing ------------------------------------------------------------------------

    def share_with(self, other: "ShimStateStore", key: str) -> int:
        """Hand the state object to another function's store (same trust domain)."""
        if not self.shim.trusts(other.shim):
            raise StateError(
                "functions %r and %r are not in the same trust domain"
                % (self.shim.function_name, other.shim.function_name)
            )
        return other.put(key, self.get(key))

    def _require(self, key: str) -> _StateEntry:
        if key not in self._entries:
            raise StateError("no state stored under key %r" % key)
        return self._entries[key]

    def _size_of(self, key: str) -> int:
        entry = self._entries.get(key)
        return entry.size if entry is not None else 0
