"""Function specifications.

A :class:`FunctionSpec` describes a serverless function independent of where
or how it runs: its name, which runtime packaging it targets and whether it
needs WASI capabilities.  Every function is the paper's I/O-bound workload,
which forwards its payload unchanged.  Deployment turns a spec into a
:class:`~repro.platform.deployment.DeployedFunction`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.wasm.runtime import RuntimeKind


#: Runtimes that package a function as a Wasm module.
_WASM_RUNTIMES = (RuntimeKind.WASMEDGE, RuntimeKind.ROADRUNNER)


class FunctionSpecError(ValueError):
    """Raised for invalid function definitions."""


@dataclass(frozen=True)
class FunctionSpec:
    """A serverless function definition."""

    name: str
    runtime: RuntimeKind = RuntimeKind.WASMEDGE
    requires_wasi: bool = True
    binary_size: int = 3_190_000
    workflow: str = "default"
    tenant: str = "default"
    #: Whether the function runs as a Wasm module (set from ``runtime``).
    is_wasm: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise FunctionSpecError("function name must be non-empty")
        if self.binary_size <= 0:
            raise FunctionSpecError("binary size must be positive")
        # Derived once: deployment and every channel's placement check read
        # it.  The field stays out of init, equality, hashing and the repr.
        object.__setattr__(self, "is_wasm", self.runtime in _WASM_RUNTIMES)

    def renamed(self, name: str) -> "FunctionSpec":
        """A copy with a different name (used when fanning out replicas)."""
        return FunctionSpec(
            name=name,
            runtime=self.runtime,
            requires_wasi=self.requires_wasi,
            binary_size=self.binary_size,
            workflow=self.workflow,
            tenant=self.tenant,
        )
