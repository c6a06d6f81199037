"""OCI bundles.

Roadrunner "encapsulates each Wasm VM in an OCI-compliant runtime bundle,
enabling interoperability with container runtime managers such as containerd"
(Sec. 3.2.2).  A bundle is an image plus the runtime class that executes it;
here it is a small value object that both RunC sandboxes and Roadrunner shims
are packaged into, so the orchestrator treats them identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.container.image import ContainerImage, WasmImage


class OciError(ValueError):
    """Raised for malformed bundles."""


@dataclass(frozen=True)
class OciBundle:
    """A runnable bundle: an image + the runtime class that executes it."""

    name: str
    image: Union[ContainerImage, WasmImage]
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
