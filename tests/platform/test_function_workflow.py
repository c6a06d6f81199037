"""Unit tests for function specs and workflow definitions."""

import pytest

from repro.platform.function import FunctionSpec, FunctionSpecError
from repro.platform.workflow import (
    FanOutWorkflow,
    InvocationPattern,
    SequenceWorkflow,
    Workflow,
    WorkflowError,
)
from repro.wasm.runtime import RuntimeKind


def test_spec_defaults_and_wasm_detection():
    spec = FunctionSpec("fn")
    assert spec.is_wasm
    assert spec.runtime is RuntimeKind.WASMEDGE
    runc = FunctionSpec("fn2", runtime=RuntimeKind.RUNC)
    assert not runc.is_wasm


def test_spec_validation():
    with pytest.raises(FunctionSpecError):
        FunctionSpec("")
    with pytest.raises(FunctionSpecError):
        FunctionSpec("fn", binary_size=0)


def test_rename_keeps_everything_but_the_name():
    spec = FunctionSpec("fn", workflow="wf-1", tenant="t-9")
    clone = spec.renamed("fn-2")
    assert clone.name == "fn-2"
    assert clone.workflow == "wf-1"
    assert clone.tenant == "t-9"
    assert clone.runtime is spec.runtime


def test_sequence_workflow_edges_and_functions():
    workflow = SequenceWorkflow(["a", "b", "c"])
    assert workflow.pattern is InvocationPattern.SEQUENTIAL
    assert workflow.edges == (("a", "b"), ("b", "c"))
    assert workflow.functions == ["a", "b", "c"]
    assert workflow.degree == 2


def test_sequence_needs_two_functions():
    with pytest.raises(WorkflowError):
        SequenceWorkflow(["only"])


def test_fanout_workflow_of_degree():
    workflow = FanOutWorkflow("a", ["fn-b-%d" % i for i in range(3)])
    assert workflow.pattern is InvocationPattern.FAN_OUT
    assert workflow.degree == 3
    assert all(source == "a" for source, _ in workflow.edges)
    with pytest.raises(WorkflowError):
        FanOutWorkflow("a", [])


def test_workflow_validation():
    with pytest.raises(WorkflowError):
        Workflow(name="", pattern=InvocationPattern.SEQUENTIAL, edges=(("a", "b"),))
    with pytest.raises(WorkflowError):
        Workflow(name="w", pattern=InvocationPattern.SEQUENTIAL, edges=())
    with pytest.raises(WorkflowError):
        Workflow(name="w", pattern=InvocationPattern.SEQUENTIAL, edges=(("a", "a"),))
    with pytest.raises(WorkflowError):
        Workflow(name="w", pattern=InvocationPattern.SEQUENTIAL, edges=(("a", ""),))
