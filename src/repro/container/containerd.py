"""A containerd-like high-level container manager.

Containerd sits between the orchestrator and the low-level runtimes.  Its job
here is dispatch: a bundle whose runtime class is ``runc`` becomes a container
sandbox (Wasm VMs are deployed by the node's Wasm runtime directly).  It also
keeps the per-workflow snapshot of running sandboxes (Sec. 4.1: "the shim
validates using the containerd snapshot").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.container.oci import OciBundle
from repro.container.runc import ContainerSandbox, RunCRuntime


class ContainerdError(RuntimeError):
    """Raised for unknown runtime classes or duplicate sandbox names."""


@dataclass
class SandboxHandle:
    """What containerd returns to the orchestrator for a started workload."""

    name: str
    runtime_class: str
    bundle: OciBundle
    sandbox: ContainerSandbox
    workflow: str = "default"
    tenant: str = "default"


class Containerd:
    """High-level manager dispatching bundles to registered runtimes."""

    def __init__(self, runc: RunCRuntime) -> None:
        self._runc = runc
        self._handles: Dict[str, SandboxHandle] = {}

    def start(
        self,
        bundle: OciBundle,
        workflow: str = "default",
        tenant: str = "default",
        charge_cold_start: bool = False,
    ) -> SandboxHandle:
        """Start a workload from ``bundle`` using the appropriate runtime."""
        if bundle.name in self._handles:
            raise ContainerdError("a sandbox named %r is already running" % bundle.name)
        if bundle.runtime_class != "runc":
            raise ContainerdError("no runtime registered for class %r" % bundle.runtime_class)
        sandbox = self._runc.create(bundle, charge_cold_start=charge_cold_start)
        handle = SandboxHandle(
            name=bundle.name,
            runtime_class=bundle.runtime_class,
            bundle=bundle,
            sandbox=sandbox,
            workflow=workflow,
            tenant=tenant,
        )
        self._handles[bundle.name] = handle
        return handle

    def stop(self, name: str) -> None:
        if name not in self._handles:
            raise ContainerdError("no sandbox named %r" % name)
        self._handles.pop(name).sandbox.stop()

    def handle(self, name: str) -> SandboxHandle:
        if name not in self._handles:
            raise ContainerdError("no sandbox named %r" % name)
        return self._handles[name]

    def snapshot(self, workflow: str) -> List[SandboxHandle]:
        """All sandboxes belonging to one workflow (the colocation snapshot)."""
        return [h for h in self._handles.values() if h.workflow == workflow]

    @property
    def running(self) -> List[str]:
        return sorted(self._handles)
