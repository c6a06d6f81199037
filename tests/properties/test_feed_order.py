"""Property test: a fed stream runs exactly as if each entry were scheduled.

:meth:`EventLoop.feed` lets the traffic engine hand the loop its arrivals
as one lazy, ordered stream instead of pushing each onto the heap.  Over
random mixes of fed entries and scheduled events — equal times, order slots
reserved between scheduled events, actions that schedule more events, and
repeated ``run(until=)`` calls — the execution order, the clock and the
executed-event count must equal a loop where every fed entry was passed to
``schedule_at(order=)`` up front, and the stream must be pulled no more
than one entry ahead of the run.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import EventLoop

#: Few distinct instants, so fed and scheduled events tie often.
instant = st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0, 3.0))
#: An action's follow-up: none, or one more event this much later (0 ties).
spawn = st.one_of(st.none(), st.sampled_from((0.0, 0.5, 1.0)))
event = st.tuples(instant, spawn)


def _drive(fed, scheduled, reserve_after, untils, feed):
    loop = EventLoop()
    log = []
    pulled = [0]
    fed_run = [0]

    def act(label, follow_up):
        log.append((label, loop.now))
        if label.startswith("f"):
            fed_run[0] += 1
            # The loop pulls the next head before running this one, no more.
            assert pulled[0] <= fed_run[0] + 1
        if follow_up is not None:
            loop.schedule(follow_up, act, args=(label + "+", None))

    for index, (time, follow_up) in enumerate(scheduled[:reserve_after]):
        loop.schedule_at(time, act, args=("s%d" % index, follow_up))
    base = loop.reserve_orders(len(fed))
    entries = [
        (time, base + index, act, ("f%d" % index, follow_up))
        for index, (time, follow_up) in enumerate(fed)
    ]
    if feed:

        def stream():
            for entry in entries:
                pulled[0] += 1
                yield entry

        loop.feed(stream())
    else:
        for time, order, action, args in entries:
            loop.schedule_at(time, action, args=args, order=order)
    for index, (time, follow_up) in enumerate(scheduled[reserve_after:], start=reserve_after):
        loop.schedule_at(time, act, args=("s%d" % index, follow_up))
    clocks = []
    for until in untils:
        clocks.append((loop.run(until=until), loop.executed_events, len(log)))
    clocks.append((loop.run(), loop.executed_events, len(log)))
    return log, clocks


@given(
    fed=st.lists(event, max_size=25).map(lambda drawn: sorted(drawn, key=lambda e: e[0])),
    scheduled=st.lists(event, max_size=25),
    reserve_after=st.integers(min_value=0, max_value=25),
    untils=st.lists(st.sampled_from((0.0, 0.25, 0.5, 1.0, 1.75, 2.0, 2.5, 4.0)), max_size=5).map(
        sorted
    ),
)
@settings(max_examples=300, deadline=None)
def test_fed_stream_runs_as_scheduled_entries(fed, scheduled, reserve_after, untils):
    assert _drive(fed, scheduled, reserve_after, untils, feed=True) == _drive(
        fed, scheduled, reserve_after, untils, feed=False
    )
