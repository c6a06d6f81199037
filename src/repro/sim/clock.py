"""Simulated monotonic clock.

The reproduction does not measure wall-clock time: Python overheads would
drown the effects the paper studies.  Instead, components advance a shared
:class:`SimClock` by the modelled duration of each operation.  The clock is
deliberately tiny; its value is that every latency number in the experiments
has a single, auditable source.
"""

from __future__ import annotations


class ClockError(ValueError):
    """Raised when the clock is advanced by a negative duration."""


class SimClock:
    """A monotonically increasing simulated clock measured in seconds."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ClockError("clock cannot start before t=0, got %r" % start)
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` and return the new time."""
        if seconds < 0:
            raise ClockError("cannot advance clock by negative duration %r" % seconds)
        self._now += seconds
        return self._now

    def advance_to(self, deadline: float) -> float:
        """Advance the clock to ``deadline`` if it lies in the future.

        Advancing to a time that already passed is a no-op; this mirrors how
        an event loop fast-forwards to the next scheduled event.
        """
        if deadline > self._now:
            self._now = deadline
        return self._now

    def reset(self, start: float = 0.0) -> None:
        """Reset the clock, e.g. between benchmark iterations."""
        if start < 0:
            raise ClockError("clock cannot be reset before t=0, got %r" % start)
        self._now = float(start)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SimClock(now=%.9f)" % self._now
