"""Request scheduling classes: deadlines and priority tiers within a tenant.

PR 2 made the gateway fair *across* tenants; this module differentiates
traffic *within* one: a :class:`RequestClass` names one kind of request a
tenant sends (an interactive call with a tight deadline, a batch job with
none), the share of the tenant's stream it makes up, the priority tier it
dispatches in and the relative deadline each of its requests carries.
:func:`assign_classes` stamps a seeded class mix onto a request stream —
deterministically, so two runs compared under different scheduling policies
see byte-identical classed arrivals — and :func:`parse_classes` reads the
``repro traffic --classes`` JSON format.

Deadlines are soft SLOs by default: a request that misses its deadline
still executes and completes, it just counts as a miss in the per-class
deadline-met ratio (:class:`~repro.traffic.slo.ClassSummary`).  A class
with ``hard=True`` opts into admission control instead: the gateway sheds
its requests at dispatch time once the deadline can no longer be met,
because serving a hard-deadline request late produces no value — only
wasted replica seconds.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple, Type

from repro.traffic.arrivals import Request


class RequestClassError(ValueError):
    """Raised for invalid class definitions or mixes."""


#: Characters banned from class names: they delimit the export encoding.
_RESERVED_CHARS = ("|", "/", ",")


@dataclass(frozen=True)
class RequestClass:
    """One scheduling class of a tenant's traffic mix."""

    name: str
    #: Fraction weight of the tenant's stream this class makes up.
    share: float = 1.0
    #: Dispatch tier under EDF: lower is served first (0 = most urgent).
    priority: int = 0
    #: Relative deadline from arrival, in seconds (``None`` = no deadline).
    deadline_s: Optional[float] = None
    #: Hard deadline: shed at dispatch when the deadline cannot be met,
    #: instead of serving (and counting) a late completion.
    hard: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise RequestClassError("class name must be non-empty")
        for char in _RESERVED_CHARS:
            if char in self.name:
                raise RequestClassError(
                    "class name %r must not contain %r (reserved for exports)"
                    % (self.name, char)
                )
        if self.share <= 0:
            raise RequestClassError("class %r: share must be positive" % self.name)
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise RequestClassError("class %r: deadline must be positive" % self.name)
        if self.hard and self.deadline_s is None:
            raise RequestClassError(
                "class %r: a hard class needs a deadline to enforce" % self.name
            )


def validate_mix(classes: Sequence[RequestClass]) -> Tuple[RequestClass, ...]:
    """Check a class mix for duplicates and return it as a tuple."""
    names = [cls.name for cls in classes]
    if len(set(names)) != len(names):
        raise RequestClassError("class names must be unique, got %s" % names)
    return tuple(classes)


def assign_classes(
    requests: Sequence[Request],
    classes: Sequence[RequestClass],
    seed: int = 0,
) -> List[Request]:
    """Stamp a seeded class mix onto a request stream.

    Each request draws its class share-weighted from ``classes`` using a
    dedicated RNG, so the assignment depends only on (``seed``, request
    count) — never on arrival times — and identical streams get identical
    classes whatever scheduling policy later serves them.  A request's
    absolute deadline is its arrival plus the class's relative deadline.
    """
    mix = validate_mix(classes)
    if not mix:
        return list(requests)
    rng = random.Random(seed)
    # ``choices`` accumulates ``weights`` on every call; passing the running
    # totals once draws the same classes from the same random numbers.
    cum_shares = list(itertools.accumulate(cls.share for cls in mix))
    stamped: List[Request] = []
    for request in requests:
        chosen = rng.choices(mix, cum_weights=cum_shares, k=1)[0]
        stamped.append(
            Request(
                request_id=request.request_id,
                arrival_s=request.arrival_s,
                function=request.function,
                payload_bytes=request.payload_bytes,
                request_class=chosen.name,
                priority=chosen.priority,
                deadline_s=(
                    request.arrival_s + chosen.deadline_s
                    if chosen.deadline_s is not None
                    else None
                ),
                hard=chosen.hard,
            )
        )
    return stamped


# -- config parsing (the ``repro traffic --classes`` format) ------------------------


def json_number(
    entry: Mapping[str, object],
    key: str,
    where: str,
    error: Type[Exception],
    integer: bool = True,
    default=None,
):
    """``entry[key]`` checked as a JSON integer (or any finite number).

    The one number check of the JSON configs (``--classes``, ``--tenants``,
    ``--clusters``): a boolean, a string, ``null``, NaN or an infinity
    raises ``error`` naming ``where`` and ``key``.  A missing key gives
    ``default``.
    """
    if key not in entry:
        return default
    value = entry[key]
    kinds = int if integer else (int, float)
    # The chained comparison is False for NaN and both infinities.
    if isinstance(value, bool) or not isinstance(value, kinds) or not -math.inf < value < math.inf:
        raise error(
            "%s: %r must be %s, got %r"
            % (where, key, "an integer" if integer else "a finite number", value)
        )
    return value


def read_json_array(
    source,
    what: str,
    error: Type[Exception],
    invalid: str = "%s is not valid JSON: %s",
    empty: str = "%s must be a non-empty JSON array",
) -> list:
    """A JSON-array config given inline, as a file path or already decoded.

    The one reader of the JSON configs (``--classes``, ``--tenants``,
    ``--clusters``): a string naming an existing file is read from it, any
    other string is parsed as JSON.  An unreadable file, invalid JSON and
    anything but a non-empty array raise ``error``; ``invalid`` and
    ``empty`` format those messages from ``what`` (and the decode error).
    """
    if isinstance(source, str):
        text = source
        if os.path.exists(source):
            try:
                with open(source, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                raise error("cannot read %s %r: %s" % (what, source, exc))
        try:
            source = json.loads(text)
        except json.JSONDecodeError as exc:
            raise error(invalid % (what, exc))
    if not isinstance(source, list) or not source:
        raise error(empty % what)
    return source


#: Recognised keys of one class object in a ``--classes`` config.
_CLASS_KEYS = frozenset({"name", "share", "priority", "deadline", "hard"})


def parse_classes(source) -> Tuple[RequestClass, ...]:
    """Parse a ``--classes`` config: a JSON array, inline, a file path or decoded.

    Each element describes one class::

        {"name": "interactive", "share": 0.5, "priority": 0, "deadline": 2.0,
         "hard": true}

    ``share`` defaults to 1.0 (equal mix), ``priority`` to 0, ``deadline``
    (relative seconds) to none and ``hard`` (shed at dispatch when the
    deadline cannot be met) to false.
    """
    raw = read_json_array(source, "classes config", RequestClassError)
    classes: List[RequestClass] = []
    for index, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise RequestClassError("class #%d must be a JSON object" % index)
        unknown = sorted(set(entry) - _CLASS_KEYS)
        if unknown:
            raise RequestClassError(
                "class #%d has unknown keys: %s" % (index, ", ".join(unknown))
            )
        if "name" not in entry:
            raise RequestClassError("class #%d is missing 'name'" % index)
        name = str(entry["name"])

        def number(key, default=None, integer=False):
            return json_number(entry, key, "class %r" % name, RequestClassError, integer, default)

        classes.append(
            RequestClass(
                name=name,
                share=float(number("share", 1.0)),
                priority=number("priority", 0, integer=True),
                deadline_s=(
                    None if entry.get("deadline") is None else float(number("deadline"))
                ),
                hard=bool(entry.get("hard", False)),
            )
        )
    return validate_mix(classes)
