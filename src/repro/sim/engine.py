"""A discrete-event loop, a process-parallel map and a makespan helper.

Most of the reproduction is sequential accounting on a shared ledger, but
several places need genuine concurrency semantics:

* the fan-out experiments (Figs. 9 and 10), where one source function feeds
  N targets and the runtimes differ in how much of that work can overlap;
* the network link, where transmissions from different connections share
  bandwidth;
* compared runs (runtime modes, scaling policies), which are independent
  simulations and can execute in separate worker processes.

:class:`EventLoop` is a classic time-ordered event queue; every traffic run
executes on one, serially.  :func:`parallel_map` ships whole independent
simulations to worker processes.  For fan-out we use the simpler
:class:`ParallelTracks` helper, which computes the makespan of N per-branch
duration profiles under a bounded concurrency model — this mirrors how a
4-core node executes N sandboxes, or how a single-threaded Wasm VM
serialises all branches.
"""

from __future__ import annotations

import atexit
import heapq
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple


class EngineError(RuntimeError):
    """Raised for scheduling errors (e.g. events in the past)."""


@dataclass
class Event:
    """An event scheduled at an absolute simulated time.

    ``args`` are passed positionally to ``action`` when the event fires.
    Hot callers schedule one shared function with per-event ``args`` instead
    of allocating a closure per event.
    """

    time: float
    order: int
    action: Callable[..., Any]
    label: str = ""
    args: Tuple = ()


#: Heap entries are ``(time, order, event)`` so the heap compares plain
#: floats and ints at C speed instead of dataclass ``__lt__`` per sift.
_HeapEntry = Tuple[float, int, Event]


class EventLoop:
    """Minimal discrete-event simulator.

    Events are executed in non-decreasing time order; ties break by insertion
    order so behaviour is deterministic.
    """

    def __init__(self) -> None:
        self._queue: List[_HeapEntry] = []
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
        *later* (lazily) against events scheduled in between — the traffic
        engine reserves one slot per arrival up front, then materializes
        arrival events on demand without disturbing tie-breaking.
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
    ) -> Event:
        """Schedule ``action`` to run ``delay`` seconds from the current time."""
        if delay < 0:
            raise EngineError("cannot schedule an event in the past (delay=%r)" % delay)
        return self.schedule_at(self._now + delay, action, label=label, args=args)

    def schedule_at(
        self,
        time: float,
        action: Callable[..., Any],
        label: str = "",
        args: Tuple = (),
        order: Optional[int] = None,
    ) -> Event:
        """Schedule ``action`` at absolute time ``time``.

        ``order`` pins an explicit tie-break slot previously obtained from
        :meth:`reserve_orders`; by default the next slot is taken.
        """
        if time < self._now:
            raise EngineError(
                "cannot schedule an event at t=%r before now=%r" % (time, self._now)
            )
        if order is None:
            order = self._order
            self._order += 1
        event = Event(
            time=time,
            order=order,
            action=action,
            label=label,
            args=args,
        )
        heapq.heappush(self._queue, (time, order, event))
        return event

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue drains or ``until`` is reached.

        Returns the simulated time after the run.
        """
        queue = self._queue
        pop = heapq.heappop
        while queue:
            if until is not None and queue[0][0] > until:
                self._now = until
                return self._now
            time, _, event = pop(queue)
            self._now = time
            event.action(*event.args)
            self._executed += 1
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def step(self) -> Optional[Event]:
        """Execute exactly one event; return it (or None if the queue is empty)."""
        if not self._queue:
            return None
        time, _, event = heapq.heappop(self._queue)
        self._now = time
        event.action(*event.args)
        self._executed += 1
        return event

    def pending(self) -> int:
        return len(self._queue)


#: Long-lived worker pool shared by every :func:`parallel_map` call, so
#: repeated comparisons (``run_comparison``, policy sweeps) stop paying
#: process spin-up per invocation.  Recreated on demand after a
#: worker crash; shut down at interpreter exit.
_shared_pool: Optional[ProcessPoolExecutor] = None


def _discard_shared_pool() -> None:
    global _shared_pool
    pool, _shared_pool = _shared_pool, None
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def _get_shared_pool() -> ProcessPoolExecutor:
    global _shared_pool
    if _shared_pool is None:
        _shared_pool = ProcessPoolExecutor(max_workers=os.cpu_count() or 1)
        atexit.register(_discard_shared_pool)
    return _shared_pool


def parallel_map(fn: Callable[..., Any], items: Sequence[Tuple]) -> List[Any]:
    """Run ``fn(*item)`` for every item, concurrently, results in input order.

    The process-pool path is for *independent simulations* — each call must
    be self-contained (its own cluster, ledger shards and clock) and both
    the arguments and the result must pickle.  Falls back to a serial map
    when there is nothing to parallelize or worker processes cannot be
    spawned, so callers never need a fallback of their own; either way the
    result list is deterministic and ordered like ``items``.  Every call
    shares one long-lived process pool across the interpreter.
    """
    if len(items) <= 1 or (os.cpu_count() or 1) < 2:
        return [fn(*item) for item in items]
    try:
        # The function and its arguments must cross the process boundary; a
        # lambda or closure-based factory degrades to the serial path rather
        # than failing the run.
        pickle.dumps((fn, tuple(items)))
    except Exception:
        return [fn(*item) for item in items]
    try:
        return list(_get_shared_pool().map(fn, *zip(*items)))
    except (OSError, BrokenProcessPool):
        # A dead worker poisons the whole executor: drop it so the next
        # call starts fresh, and finish this one serially.  Exceptions
        # raised by ``fn`` itself still propagate to the caller.
        _discard_shared_pool()
        return [fn(*item) for item in items]


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

    def extend(self, tracks: Sequence[Tuple[float, float]]) -> None:
        for cpu, wait in tracks:
            self.add(cpu, wait)

    @property
    def tracks(self) -> Tuple[Tuple[float, float], ...]:
        return tuple(self._tracks)

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
