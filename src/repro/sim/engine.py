"""A discrete-event loop and a makespan helper.

Most of the reproduction is sequential accounting on a shared ledger, but
two places need genuine concurrency semantics:

* the fan-out experiments (Figs. 9 and 10), where one source function feeds
  N targets and the runtimes differ in how much of that work can overlap;
* the network link, where transmissions from different connections share
  bandwidth.

:class:`EventLoop` is a classic time-ordered event queue; every traffic run
executes on one, serially, and compared runs (runtime modes, scaling
policies) simply run one after another in the same process.  An event is
only a heap entry, the tuple ``(time, order, action, args)``: no object is
built per event.  A traffic completion event's ``args`` are the request's
scalars, so in sketch mode, when no telemetry or middleware reads a
:class:`~repro.traffic.slo.RequestRecord`, the runtime builds none: it
folds a finished request's scalars straight into its rollups
(:meth:`~repro.obs.streaming.Rollups.fold`).

Events known in order up front — a run's arrivals — need not pass through
the heap at all: :meth:`EventLoop.feed` hands the loop one lazily produced,
already ordered stream of heap-shaped entries, and :meth:`EventLoop.run`
merges the stream's head against the heap's top with one tuple compare.
Entries carry order slots from :meth:`EventLoop.reserve_orders`, so the
execution order is exactly that of scheduling each entry with
``schedule_at(order=)``; the stream is pulled one entry at a time, so it
never sits in memory whole.

:class:`ParallelTracks` serves fan-out: it computes the makespan of N
per-branch duration profiles under a bounded concurrency model — this
mirrors how a 4-core node executes N sandboxes, or how a single-threaded
Wasm VM serialises all branches.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple


class EngineError(RuntimeError):
    """Raised for scheduling errors (e.g. events in the past)."""


#: Heap entries are ``(time, order, action, args)``: the heap compares plain
#: floats and ints at C speed, and ``order`` is unique, so it never compares
#: two actions.  ``run`` calls ``action(*args)``; hot callers schedule one
#: shared function with per-event ``args`` instead of a closure per event.
_HeapEntry = Tuple[float, int, Callable[..., Any], Tuple]


class EventLoop:
    """Minimal discrete-event simulator.

    Events are executed in non-decreasing time order; ties break by order
    slot — insertion order, unless a slot was reserved — so behaviour is
    deterministic.  Events come from the heap and from at most one fed
    stream (:meth:`feed`), merged as they run.
    """

    def __init__(self) -> None:
        self._queue: List[_HeapEntry] = []
        #: The fed stream and its pending head (``None`` once drained):
        #: the head is pulled before it runs, so ``run(until=)`` can stop
        #: short of it and leave it for the next call.
        self._feed: Iterator[_HeapEntry] = iter(())
        self._head: Optional[_HeapEntry] = None
        self._order = 0
        self._now = 0.0
        self._executed = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def executed_events(self) -> int:
        return self._executed

    def reserve_orders(self, count: int) -> int:
        """Reserve ``count`` consecutive tie-break slots; return the first.

        Lets a caller pin the relative order of events it will schedule
        or feed *later* (lazily) against events scheduled in between — the
        traffic engine reserves one slot per arrival up front, then feeds
        its arrivals on demand without disturbing tie-breaking.
        """
        if count < 0:
            raise EngineError("cannot reserve a negative order block")
        base = self._order
        self._order += count
        return base

    def schedule(
        self,
        delay: float,
        action: Callable[..., Any],
        label: str = "",
        args: Tuple = (),
    ) -> None:
        """Schedule ``action`` to run ``delay`` seconds from the current time."""
        if delay < 0:
            raise EngineError("cannot schedule an event in the past (delay=%r)" % delay)
        # Through schedule_at: bench/trace.py patches it and reads ``label``.
        self.schedule_at(self._now + delay, action, label=label, args=args)

    def schedule_at(
        self,
        time: float,
        action: Callable[..., Any],
        label: str = "",
        args: Tuple = (),
        order: Optional[int] = None,
    ) -> None:
        """Schedule ``action(*args)`` at absolute time ``time``.

        ``label`` names the event for a tracer that wraps this method; the
        loop itself keeps no record of it.  ``order`` pins an explicit
        tie-break slot previously obtained from :meth:`reserve_orders`; by
        default the next slot is taken.
        """
        if time < self._now:
            raise EngineError(
                "cannot schedule an event at t=%r before now=%r" % (time, self._now)
            )
        if order is None:
            order = self._order
            self._order += 1
        heapq.heappush(self._queue, (time, order, action, args))

    def feed(self, entries: Iterable[_HeapEntry]) -> None:
        """Run ``entries`` as events, pulled one at a time as the run reaches them.

        ``entries`` are heap entries ``(time, order, action, args)`` in
        non-decreasing ``(time, order)`` order, none before :attr:`now`,
        each ``order`` a slot reserved with :meth:`reserve_orders`.  They
        run exactly as if each had been passed to :meth:`schedule_at` with
        its ``order``.  One stream at a time: a loop whose fed stream still
        has entries refuses another.
        """
        if self._head is not None:
            raise EngineError("the loop is still running a fed stream")
        feed = iter(entries)
        head = next(feed, None)
        if head is not None and head[0] < self._now:
            raise EngineError(
                "cannot feed an event at t=%r before now=%r" % (head[0], self._now)
            )
        self._feed = feed
        self._head = head

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue and the fed stream drain or ``until`` is reached.

        Returns the simulated time after the run.
        """
        queue = self._queue
        pop = heapq.heappop
        feed = self._feed
        head = self._head
        try:
            while True:
                # Entries never tie: ``order`` is unique, so the compare
                # stops at it and never reaches an action.
                if head is not None and (not queue or head < queue[0]):
                    if until is not None and head[0] > until:
                        break
                    time, _, action, args = head
                    head = next(feed, None)
                elif queue:
                    if until is not None and queue[0][0] > until:
                        break
                    time, _, action, args = pop(queue)
                else:
                    if until is not None and until > self._now:
                        self._now = until
                    return self._now
                self._now = time
                action(*args)
                self._executed += 1
        finally:
            self._head = head
        self._now = until
        return until


class ParallelTracks:
    """Makespan of N independent duration tracks under bounded concurrency.

    Each track is a pair ``(cpu_seconds, wait_seconds)``:

    * ``cpu_seconds`` competes for the ``workers`` available execution slots
      (cores, or 1 for a single-threaded Wasm VM);
    * ``wait_seconds`` is pure waiting (wire time, kernel DMA) that overlaps
      freely across tracks.

    The model is a conservative list-scheduling bound: CPU work is spread
    over the workers (longest-processing-time order) and each track's wait
    extends its own finish time.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise EngineError("workers must be >= 1, got %r" % workers)
        self.workers = workers
        self._tracks: List[Tuple[float, float]] = []

    def add(self, cpu_seconds: float, wait_seconds: float = 0.0) -> None:
        if cpu_seconds < 0 or wait_seconds < 0:
            raise EngineError("track durations must be non-negative")
        self._tracks.append((cpu_seconds, wait_seconds))

    def completion_times(self) -> List[float]:
        """Per-track completion times under list scheduling.

        Tracks are scheduled longest-first onto the earliest-available worker;
        a track's completion time is when its CPU slice finishes plus its own
        wait.  The list is returned in scheduling order.
        """
        if not self._tracks:
            return []
        ordered = sorted(self._tracks, key=lambda t: t[0] + t[1], reverse=True)
        worker_busy = [0.0] * self.workers
        completions: List[float] = []
        for cpu, wait in ordered:
            # Assign to the earliest-available worker.
            idx = min(range(self.workers), key=worker_busy.__getitem__)
            start = worker_busy[idx]
            worker_busy[idx] = start + cpu
            completions.append(start + cpu + wait)
        return completions

    def makespan(self) -> float:
        """Finish time of the last track under list scheduling."""
        completions = self.completion_times()
        return max(completions) if completions else 0.0

    def mean_completion(self) -> float:
        """Mean per-track completion time (the per-request latency a client sees)."""
        completions = self.completion_times()
        if not completions:
            return 0.0
        return sum(completions) / len(completions)

    def total_wait_seconds(self) -> float:
        return sum(wait for _, wait in self._tracks)
