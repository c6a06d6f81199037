"""Workflows: the invocation patterns the evaluation exercises.

The paper evaluates chained (sequential) workflows and fan-out/fan-in
parallel workflows, "reflecting real-world serverless invocation patterns"
(Sec. 6.1).  A workflow here is a small declarative object listing function
names and the edges along which payloads flow; the invoker executes it over
deployed functions and a data-passing channel.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Sequence, Tuple


class WorkflowError(ValueError):
    """Raised for malformed workflow definitions."""


class InvocationPattern(enum.Enum):
    """The patterns from the Berkeley serverless taxonomy used by the paper."""

    SEQUENTIAL = "sequential"
    FAN_OUT = "fan_out"


@dataclass(frozen=True)
class Workflow:
    """A named set of data-flow edges between functions."""

    name: str
    pattern: InvocationPattern
    edges: Tuple[Tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkflowError("workflow name must be non-empty")
        if not self.edges:
            raise WorkflowError("a workflow needs at least one edge")
        for source, target in self.edges:
            if not source or not target:
                raise WorkflowError("workflow edges need non-empty endpoints")
            if source == target:
                raise WorkflowError("self edges are not allowed (%r -> %r)" % (source, target))

    @property
    def functions(self) -> List[str]:
        """All function names, in first-appearance order."""
        seen: List[str] = []
        for source, target in self.edges:
            if source not in seen:
                seen.append(source)
            if target not in seen:
                seen.append(target)
        return seen

    @property
    def degree(self) -> int:
        """Number of edges (the fan-out degree for fan-out workflows)."""
        return len(self.edges)


class SequenceWorkflow(Workflow):
    """a -> b -> c -> ...: the chained two-function workflow of Sec. 6.1."""

    def __init__(self, names: Sequence[str], name: str = "sequence") -> None:
        if len(names) < 2:
            raise WorkflowError("a sequence needs at least two functions")
        edges = tuple((names[i], names[i + 1]) for i in range(len(names) - 1))
        super().__init__(name=name, pattern=InvocationPattern.SEQUENTIAL, edges=edges)


class FanOutWorkflow(Workflow):
    """One source feeding N targets (the scalability experiments)."""

    def __init__(self, source: str, targets: Sequence[str], name: str = "fan-out") -> None:
        if not targets:
            raise WorkflowError("a fan-out needs at least one target")
        edges = tuple((source, target) for target in targets)
        super().__init__(name=name, pattern=InvocationPattern.FAN_OUT, edges=edges)
