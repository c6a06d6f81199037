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
    """A monotonically increasing simulated clock measured in seconds.

    :meth:`repro.sim.ledger.CostLedger.charge`, the one per-operation
    caller, steps ``_now`` in its own frame: it has already refused a
    negative duration, which is the only check :meth:`advance` adds.
    """

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0.0

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

    def reset(self) -> None:
        """Reset the clock to t=0, e.g. between benchmark iterations."""
        self._now = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SimClock(now=%.9f)" % self._now
