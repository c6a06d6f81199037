"""A live heartbeat for long simulations: how far along, how fast, how big.

Long sustained-load runs are silent until the final report; the progress
reporter prints a periodic one-line heartbeat instead::

    [progress] sim 120.0s/600.0s (20%) | 24031/120000 requests | 8012 req/s | replicas 14 | wall 3.1s

Throttling is keyed to **simulated** time (one line per ``interval_s`` of sim
time), so output is deterministic for a seeded run regardless of host speed;
only the wall-clock column varies.  The reporter is purely an observer — it
is invoked from existing engine hooks and never schedules events, so enabling
it cannot perturb results.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, IO, Optional


class ProgressError(ValueError):
    """Raised for invalid reporter parameters."""


class ProgressReporter:
    """Emits a heartbeat line at most once per ``interval_s`` of sim time."""

    def __init__(
        self,
        interval_s: float = 10.0,
        stream: Optional[IO[str]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if interval_s <= 0:
            raise ProgressError("progress interval must be positive, got %r" % interval_s)
        #: The run's totals, set by the telemetry layer when the run starts.
        self.total_requests = 0
        self.duration_s = 0.0
        self.interval_s = interval_s
        self.stream = stream if stream is not None else sys.stderr
        self._clock = clock
        self._started_wall: Optional[float] = None
        self._next_due_s = 0.0

    def start(self) -> None:
        self._started_wall = self._clock()
        self._next_due_s = self.interval_s

    def update(self, sim_now_s: float, finished: int, replicas: int) -> None:
        """Maybe emit a heartbeat; called from engine hooks, never scheduled."""
        if self._started_wall is None:
            self.start()
        if sim_now_s < self._next_due_s:
            return
        # Skip ahead past any quiet stretch so a burst doesn't flush a backlog.
        while self._next_due_s <= sim_now_s:
            self._next_due_s += self.interval_s
        self._emit(sim_now_s, finished, replicas)

    def finish(self, sim_now_s: float, finished: int, replicas: int) -> None:
        """The closing heartbeat (always emitted, even on short runs)."""
        if self._started_wall is None:
            self.start()
        self._emit(sim_now_s, finished, replicas, closing=True)

    def _emit(
        self, sim_now_s: float, finished: int, replicas: int, closing: bool = False
    ) -> None:
        wall_s = self._clock() - (self._started_wall or 0.0)
        parts = ["[progress]" if not closing else "[progress] done:"]
        if self.duration_s > 0:
            pct = min(100.0, 100.0 * sim_now_s / self.duration_s)
            parts.append("sim %.1fs/%.1fs (%d%%)" % (sim_now_s, self.duration_s, pct))
        else:
            parts.append("sim %.1fs" % sim_now_s)
        if self.total_requests > 0:
            parts.append("| %d/%d requests" % (finished, self.total_requests))
        else:
            parts.append("| %d requests" % finished)
        if sim_now_s > 0:
            parts.append("| %.0f req/s" % (finished / sim_now_s))
        parts.append("| replicas %d" % replicas)
        parts.append("| wall %.1fs" % wall_s)
        self.stream.write(" ".join(parts) + "\n")
        self.stream.flush()
