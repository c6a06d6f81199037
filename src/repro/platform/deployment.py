"""Deployed functions: a spec bound to a node, a sandbox and a process.

A deployed function is what data-passing channels operate on.  Depending on
the runtime it wraps either

* a Wasm module instance inside a Wasm VM (plus the WASI interface and the
  host process that runs the VM/shim), or
* a RunC container sandbox.

The channel only needs a handful of facts: which node the function is on,
which process/cgroup to charge, how to reach its memory (Wasm) and which
serializer speed applies (native vs Wasm).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.container.runc import ContainerSandbox
from repro.kernel.process import Process
from repro.platform.function import FunctionSpec
from repro.serialization.serializer import ExecutionEnvironment, Serializer
from repro.wasm.module import WasmInstance
from repro.wasm.vm import WasmVM
from repro.wasm.wasi import WasiInterface


class DeploymentError(RuntimeError):
    """Raised when a deployed function is used in an unsupported way."""


@dataclass
class DeployedFunction:
    """A function instance running somewhere in the cluster."""

    spec: FunctionSpec
    node_name: str
    process: Process
    serializer: Serializer
    vm: Optional[WasmVM] = None
    instance: Optional[WasmInstance] = None
    wasi: Optional[WasiInterface] = None
    sandbox: Optional[ContainerSandbox] = None
    #: The spec's name and runtime packaging, copied once: channels read
    #: them on every transfer.
    name: str = field(init=False, repr=False, compare=False)
    is_wasm: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.name = self.spec.name
        self.is_wasm = self.spec.is_wasm
        if self.is_wasm:
            if self.vm is None or self.instance is None:
                raise DeploymentError(
                    "Wasm function %r deployed without a VM/instance" % self.spec.name
                )
        else:
            if self.sandbox is None:
                raise DeploymentError(
                    "container function %r deployed without a sandbox" % self.spec.name
                )

    # -- convenience ------------------------------------------------------------

    @property
    def cgroup(self):
        return self.process.cgroup

    @property
    def execution_environment(self) -> ExecutionEnvironment:
        return ExecutionEnvironment.WASM if self.is_wasm else ExecutionEnvironment.NATIVE

    def shares_vm_with(self, other: "DeployedFunction") -> bool:
        """True when both functions are module instances of the same Wasm VM."""
        return (
            self.vm is not None
            and other.vm is not None
            and self.vm is other.vm
        )

    def colocated_with(self, other: "DeployedFunction") -> bool:
        """True when both functions run on the same node."""
        return self.node_name == other.node_name

    def same_trust_domain(self, other: "DeployedFunction") -> bool:
        """Workflow+tenant equality: the precondition for user-space sharing."""
        return (
            self.spec.workflow == other.spec.workflow
            and self.spec.tenant == other.spec.tenant
        )

    def require_wasm(self) -> WasmInstance:
        if self.instance is None:
            raise DeploymentError("function %r is not a Wasm deployment" % self.name)
        return self.instance

    def require_container(self) -> ContainerSandbox:
        if self.sandbox is None:
            raise DeploymentError("function %r is not a container deployment" % self.name)
        return self.sandbox

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "wasm" if self.is_wasm else "container"
        return "DeployedFunction(%r, %s, node=%s)" % (self.name, kind, self.node_name)
