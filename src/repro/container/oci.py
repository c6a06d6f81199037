"""OCI bundles and runtime specs.

Roadrunner "encapsulates each Wasm VM in an OCI-compliant runtime bundle,
enabling interoperability with container runtime managers such as containerd"
(Sec. 3.2.2).  A bundle is a root filesystem plus a runtime spec; here it is a
small value object that both RunC sandboxes and Roadrunner shims are packaged
into, so the orchestrator treats them identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple, Union

from repro.container.image import ContainerImage, WasmImage


class OciError(ValueError):
    """Raised for malformed bundles or specs."""


@dataclass(frozen=True)
class OciRuntimeSpec:
    """The subset of ``config.json`` the reproduction cares about."""

    memory_limit_bytes: int = 512 * 1024 * 1024
    cpu_quota_cores: float = 1.0
    args: Tuple[str, ...] = ("/entrypoint",)

    def __post_init__(self) -> None:
        if self.memory_limit_bytes <= 0:
            raise OciError("memory limit must be positive")
        if self.cpu_quota_cores <= 0:
            raise OciError("cpu quota must be positive")


@dataclass(frozen=True)
class OciBundle:
    """A runnable bundle: image + spec + the runtime class that executes it."""

    name: str
    image: Union[ContainerImage, WasmImage]
    spec: OciRuntimeSpec = field(default_factory=OciRuntimeSpec)
    #: "runc" for containers, "roadrunner-shim" / "wasmedge-shim" for Wasm VMs.
    runtime_class: str = "runc"

    def __post_init__(self) -> None:
        if not self.name:
            raise OciError("bundle name must be non-empty")
        if not self.runtime_class:
            raise OciError("runtime_class must be non-empty")

    @property
    def is_wasm(self) -> bool:
        return isinstance(self.image, WasmImage)
