"""Container substrate: images, OCI bundles, a RunC-like runtime, containerd.

The container stack plays two roles in the reproduction: it is the *upper
bound* baseline (RunC functions exchanging data over HTTP with native-speed
serialization, Sec. 6.1) and it supplies the cold-start comparison of
Fig. 2a.  It also provides the OCI-bundle packaging that lets Roadrunner's
shim appear to the orchestrator as an ordinary container (Sec. 3.2.2).
"""

from repro.container.image import ContainerImage, WasmImage
from repro.container.oci import OciBundle
from repro.container.runc import RunCRuntime, ContainerSandbox
from repro.container.containerd import Containerd, SandboxHandle

__all__ = [
    "ContainerImage",
    "WasmImage",
    "OciBundle",
    "RunCRuntime",
    "ContainerSandbox",
    "Containerd",
    "SandboxHandle",
]
