"""A RunC-like low-level container runtime.

RunC is the paper's performance upper bound: functions run as native
processes directly on the host kernel, so they pay no Wasm VM I/O and their
serialization runs at native speed.  The runtime models cold start (image
unpack, namespace/cgroup setup) for Fig. 2a and creates sandbox processes
whose CPU and memory land in their own cgroups.
"""

from __future__ import annotations


from repro.container.image import ContainerImage
from repro.container.oci import OciBundle, OciError
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.sim.costs import CostModel, DEFAULT_COST_MODEL
from repro.sim.ledger import CostCategory, CostLedger, CpuDomain


# Members charged per operation, bound once (see repro.sim.ledger).
_COLD_START = CostCategory.COLD_START
_USER = CpuDomain.USER


class RunCError(RuntimeError):
    """Raised for invalid sandbox operations."""


class ContainerSandbox:
    """A running container: a process in its own cgroup."""

    def __init__(self, name: str, bundle: OciBundle, process: Process) -> None:
        self.name = name
        self.bundle = bundle
        self.process = process
        self.running = True

    @property
    def cgroup(self):
        return self.process.cgroup

    def stop(self) -> None:
        if not self.running:
            raise RunCError("sandbox %r is already stopped" % self.name)
        self.process.exit()
        self.running = False


class RunCRuntime:
    """Creates container sandboxes on one node."""

    def __init__(
        self,
        kernel: Kernel,
        ledger: CostLedger,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        self.kernel = kernel
        self.ledger = ledger
        self.cost_model = cost_model
        self.sandboxes_created = 0

    def cold_start_time(self, image: ContainerImage) -> float:
        """Image unpack plus sandbox setup (namespaces, cgroups, runc exec)."""
        unpack = self.cost_model.transfer_time(image.size_bytes, self.cost_model.image_unpack_bandwidth)
        return unpack + self.cost_model.container_sandbox_setup

    def create(
        self,
        bundle: OciBundle,
        charge_cold_start: bool = False,
    ) -> ContainerSandbox:
        """Create (and optionally cold-start) a sandbox for ``bundle``."""
        if bundle.is_wasm:
            raise OciError(
                "bundle %r targets a Wasm image; use the Wasm runtime shim instead" % bundle.name
            )
        if charge_cold_start:
            self.ledger.charge(
                _COLD_START,
                self.cold_start_time(bundle.image),
                cpu_domain=_USER,
                nbytes=bundle.image.size_bytes,
                copied=True,
                label="runc-cold-start:%s" % bundle.name,
            )
        self.sandboxes_created += 1
        sandbox_name = "%s-%d" % (bundle.name, self.sandboxes_created)
        process = self.kernel.create_process(
            sandbox_name, baseline_rss_bytes=self.cost_model.container_baseline_rss_bytes
        )
        return ContainerSandbox(name=sandbox_name, bundle=bundle, process=process)
