"""Telemetry exposition: Prometheus text snapshots and JSONL event streams.

Two standard formats turn an engine-owned registry into something external
tooling understands:

* :func:`render_prometheus` — the Prometheus text exposition format
  (version 0.0.4).  Counters and gauges render one sample per labelled
  child; sketch-backed summaries render as the Prometheus ``summary`` type
  (``{quantile="0.5"}`` samples plus ``_sum``/``_count``), which is exactly
  what a quantile sketch is.  Output order is registration order, so a
  seeded run snapshots byte-identically.
* :class:`JsonlEventWriter` — one JSON object per line, written as events
  happen (run start, every request's outcome with its stage durations,
  every scaling action, run end).  Keys are sorted and timestamps are
  simulated, so the stream is deterministic and diffable across runs.
"""

from __future__ import annotations

import json
import math
from typing import IO, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.obs.registry import Counter, Gauge, MetricsRegistry, Summary


class ExporterError(ValueError):
    """Raised for invalid exposition requests."""


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _label_block(names: Tuple[str, ...], values: Tuple[str, ...], extra: str = "") -> str:
    pairs = [
        '%s="%s"' % (name, _escape_label_value(value))
        for name, value in zip(names, values)
    ]
    if extra:
        pairs.append(extra)
    return "{%s}" % ",".join(pairs) if pairs else ""


def _format_value(value: float) -> str:
    # Non-finite values use the exposition format's spellings; integral
    # values print as integers (the conventional exposition style).
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry as Prometheus text exposition (one scrape's worth)."""
    lines: List[str] = []
    for family in registry.families():
        if family.help:
            lines.append("# HELP %s %s" % (family.name, family.help))
        lines.append("# TYPE %s %s" % (family.name, family.kind))
        for values, child in family.children():
            block = _label_block(family.label_names, values)
            if isinstance(child, (Counter, Gauge)):
                lines.append("%s%s %s" % (family.name, block, _format_value(child.value)))
            elif isinstance(child, Summary):
                for q, estimate in child.sketch.quantiles().items():
                    lines.append(
                        "%s%s %s"
                        % (
                            family.name,
                            _label_block(
                                family.label_names, values, 'quantile="%g"' % q
                            ),
                            _format_value(estimate),
                        )
                    )
                lines.append("%s_sum%s %s" % (family.name, block, _format_value(child.sum)))
                lines.append("%s_count%s %s" % (family.name, block, _format_value(child.count)))
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(registry: MetricsRegistry, path: str) -> str:
    """Write one exposition snapshot to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_prometheus(registry))
    return path


def parse_prometheus(text: str) -> Dict[str, Dict[str, float]]:
    """Parse exposition text back to ``{metric: {label block: value}}``.

    A convenience for tests and quick diffing — not a full Prometheus
    parser, but an exact inverse for what :func:`render_prometheus` emits.
    """
    out: Dict[str, Dict[str, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_block, value = line.rsplit(" ", 1)
        if "{" in name_block:
            name, block = name_block.split("{", 1)
            block = "{" + block
        else:
            name, block = name_block, ""
        out.setdefault(name, {})[block] = float(value)
    return out


#: One shared encoder: ``json.dumps(..., sort_keys=True)`` would build a new
#: ``JSONEncoder`` per event, since ``sort_keys`` is not its default.
_encode_sorted = json.JSONEncoder(sort_keys=True).encode


def line_template(constants: Mapping[str, object], slots: Iterable[str]) -> str:
    """A JSONL line for :meth:`JsonlEventWriter.write_line`, keys sorted.

    ``constants`` are encoded into the line once; each key of ``slots``
    gets a ``%s`` placeholder, filled per event in sorted-key order.
    """
    values = {key: _encode_sorted(value).replace("%", "%%") for key, value in constants.items()}
    values.update((key, "%s") for key in slots)
    return "{%s}\n" % ", ".join(
        "%s: %s" % (_encode_sorted(key).replace("%", "%%"), values[key]) for key in sorted(values)
    )


def json_scalars(values: Tuple[object, ...]) -> Tuple[object, ...]:
    """``values`` with every float replaced by its JSON text.

    For :meth:`JsonlEventWriter.write_line` when a float may be
    non-finite: JSON spells those ``NaN``/``Infinity``, ``str`` does not.
    """
    return tuple(_encode_sorted(value) if isinstance(value, float) else value for value in values)


class JsonlEventWriter:
    """A streaming JSONL sink: ``emit`` one structured event per line.

    Accepts a path (opened lazily, closed by :meth:`close` / context exit)
    or an already-open text handle (left open — the caller owns it).
    """

    def __init__(self, target: Union[str, IO[str]]) -> None:
        if isinstance(target, str):
            self._handle: Optional[IO[str]] = open(target, "w", encoding="utf-8")
            self._owns = True
            self.path: Optional[str] = target
        else:
            self._handle = target
            self._owns = False
            self.path = getattr(target, "name", None)

    def emit(self, event: Dict[str, object]) -> None:
        if self._handle is None:
            raise ExporterError("event writer is closed")
        self._handle.write(_encode_sorted(event) + "\n")

    def write_line(self, template: str, values: Tuple[object, ...]) -> None:
        """Write one event from a :func:`line_template` and its slot values.

        ``values`` fill the slots in sorted-key order: numbers as they are,
        strings JSON-encoded (:func:`json.encoder.encode_basestring_ascii`).
        The line is then byte for byte what :meth:`emit` writes for the same
        event, since ``str`` of a finite float is its ``repr``; pass
        non-finite floats through :func:`json_scalars` first.  For events
        hot enough that building and encoding a dict each time shows.
        """
        if self._handle is None:
            raise ExporterError("event writer is closed")
        self._handle.write(template % values)

    def close(self) -> None:
        if self._handle is not None and self._owns:
            self._handle.close()
        self._handle = None

    def __enter__(self) -> "JsonlEventWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_jsonl(path: str) -> List[Dict[str, object]]:
    """Load a JSONL event stream back into a list of dicts (test helper)."""
    events: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
