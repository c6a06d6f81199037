"""Tests for the JSONL event stream and the progress heartbeat."""

import io
import json

import pytest

from repro.obs.exporters import ExporterError, JsonlEventWriter, read_jsonl
from repro.obs.progress import ProgressError, ProgressReporter


def test_jsonl_writer_round_trip(tmp_path):
    path = str(tmp_path / "events.jsonl")
    with JsonlEventWriter(path) as events:
        events.emit({"event": "run_start", "requests": 3})
        events.emit({"event": "request", "tenant": "a", "latency_s": 0.5})
    assert read_jsonl(path) == [
        {"event": "run_start", "requests": 3},
        {"event": "request", "tenant": "a", "latency_s": 0.5},
    ]


def test_jsonl_lines_have_sorted_keys(tmp_path):
    path = str(tmp_path / "events.jsonl")
    with JsonlEventWriter(path) as events:
        events.emit({"zulu": 1, "alpha": 2, "event": "x"})
    with open(path, "r", encoding="utf-8") as handle:
        line = handle.readline().rstrip("\n")
    assert line == json.dumps({"alpha": 2, "event": "x", "zulu": 1}, sort_keys=True)


def test_jsonl_writer_accepts_open_handle():
    buffer = io.StringIO()
    events = JsonlEventWriter(buffer)
    events.emit({"event": "ping"})
    events.close()  # must not close a handle it doesn't own
    assert not buffer.closed
    assert json.loads(buffer.getvalue()) == {"event": "ping"}


def test_jsonl_writer_rejects_emit_after_close(tmp_path):
    events = JsonlEventWriter(str(tmp_path / "e.jsonl"))
    events.close()
    with pytest.raises(ExporterError):
        events.emit({"event": "late"})


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def test_progress_throttles_on_simulated_time():
    stream = io.StringIO()
    reporter = ProgressReporter(interval_s=10.0, stream=stream, clock=FakeClock())
    reporter.start()
    for sim_now in (1.0, 5.0, 9.9):
        reporter.update(sim_now, finished=10, replicas=2)
    assert stream.getvalue().count("\n") == 0
    reporter.update(10.0, finished=20, replicas=3)
    assert stream.getvalue().count("\n") == 1
    reporter.update(12.0, finished=25, replicas=3)  # same interval: suppressed
    assert stream.getvalue().count("\n") == 1


def test_progress_skips_quiet_stretches_without_backlog():
    stream = io.StringIO()
    reporter = ProgressReporter(interval_s=10.0, stream=stream, clock=FakeClock())
    reporter.start()
    # A 55s jump crosses five interval boundaries but emits one line.
    reporter.update(55.0, finished=1, replicas=1)
    assert stream.getvalue().count("\n") == 1
    reporter.update(56.0, finished=2, replicas=1)
    assert stream.getvalue().count("\n") == 1
    reporter.update(60.0, finished=3, replicas=1)
    assert stream.getvalue().count("\n") == 2


def test_progress_line_format_uses_injected_clock():
    stream = io.StringIO()
    clock = FakeClock()
    reporter = ProgressReporter(interval_s=10.0, stream=stream, clock=clock)
    reporter.total_requests, reporter.duration_s = 200, 40.0
    reporter.start()
    clock.now += 2.5
    reporter.update(20.0, finished=50, replicas=4)
    line = stream.getvalue().strip()
    assert line == (
        "[progress] sim 20.0s/40.0s (50%) | 50/200 requests"
        " | 2 req/s | replicas 4 | wall 2.5s"
    )


def test_progress_finish_always_emits_closing_line():
    stream = io.StringIO()
    reporter = ProgressReporter(interval_s=10.0, stream=stream, clock=FakeClock())
    reporter.duration_s = 5.0
    reporter.finish(5.0, finished=7, replicas=1)  # short run, no update() ever fired
    assert stream.getvalue().count("\n") == 1
    assert stream.getvalue().startswith("[progress] done:")


def test_progress_rejects_bad_interval():
    with pytest.raises(ProgressError):
        ProgressReporter(interval_s=0.0)
