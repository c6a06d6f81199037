"""The Roadrunner shim: the sidecar that mediates every memory access.

One shim runs beside each function sandbox (Sec. 3.2.2).  It owns the host
side of the data-access API: it reads the regions functions registered via
``send_to_host``, allocates space in a target function and writes incoming
data there.  Functions never see each other's memory — the shim enforces
region registration, trust-domain checks and bounds checks before any
read or write (Sec. 3.1, "Shared Memory").
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.api import FunctionDataApi
from repro.core.config import RoadrunnerConfig
from repro.core.registry import MemoryRegionRegistry, RegistryError
from repro.kernel.kernel import Kernel
from repro.payload import Payload
from repro.platform.cluster import Cluster
from repro.platform.deployment import DeployedFunction
from repro.wasm.vm import HostMemoryApi


class ShimError(RuntimeError):
    """Raised when the shim refuses or cannot complete an operation."""


class RoadrunnerShim:
    """The sidecar shim for one deployed Wasm function."""

    def __init__(
        self,
        deployed: DeployedFunction,
        cluster: Cluster,
        config: Optional[RoadrunnerConfig] = None,
    ) -> None:
        if not deployed.is_wasm or deployed.vm is None or deployed.instance is None:
            raise ShimError(
                "the Roadrunner shim attaches to Wasm deployments; %r is not one" % deployed.name
            )
        self.deployed = deployed
        self.function_name = deployed.name
        self.cluster = cluster
        self.registry = MemoryRegionRegistry()
        self.config = config if config is not None else RoadrunnerConfig.default()
        self.host_api: HostMemoryApi = deployed.vm.host_api()

    # -- identity ---------------------------------------------------------------

    @property
    def node_name(self) -> str:
        return self.deployed.node_name

    @property
    def kernel(self) -> Kernel:
        return self.cluster.node(self.deployed.node_name).kernel

    @property
    def process(self):
        return self.deployed.process

    def guest_api(self) -> FunctionDataApi:
        """The guest-side API handed to the function at load time."""
        return FunctionDataApi(
            self.deployed.instance,
            self.registry,
            workflow=self.deployed.spec.workflow,
            tenant=self.deployed.spec.tenant,
        )

    # -- egress: read what the function wants to send ---------------------------------

    def read_output(self) -> Tuple[Payload, int, int]:
        """Read the function's most recently registered output region.

        Returns the payload plus the (address, length) it came from, after
        validating registration and bounds.
        """
        try:
            region = self.registry.latest(self.function_name)
        except RegistryError as exc:
            raise ShimError(str(exc)) from exc
        self._validate(region.address, region.length)
        payload = self.host_api.read_memory_host(
            self.function_name, region.address, region.length
        )
        return payload, region.address, region.length

    def read_region(self, address: int, length: int) -> Payload:
        """Read an explicit registered region (used by tests and the router)."""
        self._validate(address, length)
        return self.host_api.read_memory_host(self.function_name, address, length)

    # -- ingress: deliver data into the function -----------------------------------------

    def write_input(self, payload: Payload) -> int:
        """Allocate space in the function and write ``payload`` there.

        Returns the guest address.  The region is registered on behalf of the
        function so follow-up reads by the guest (or a downstream transfer)
        pass validation.
        """
        if payload.size <= 0:
            raise ShimError("refusing to deliver an empty payload")
        address = self.host_api.allocate_memory(self.function_name, payload.size)
        self.host_api.write_memory_host(self.function_name, payload, address)
        self.registry.register(
            self.function_name,
            address,
            payload.size,
            workflow=self.deployed.spec.workflow,
            tenant=self.deployed.spec.tenant,
        )
        return address

    def release_input(self, address: int) -> None:
        """Free a previously delivered input buffer."""
        self.host_api.deallocate_memory(self.function_name, address)
        try:
            self.registry.unregister(self.function_name, address)
        except RegistryError:
            pass

    # -- trust and bounds -----------------------------------------------------------------

    def trusts(self, other: "RoadrunnerShim") -> bool:
        """Whether user-space (same-VM) sharing with ``other`` is allowed."""
        if not self.config.enforce_trust_domain:
            return True
        return self.deployed.same_trust_domain(other.deployed)

    def _validate(self, address: int, length: int) -> None:
        if not self.config.enforce_bounds_checks:
            return
        try:
            self.registry.validate_access(
                self.function_name,
                address,
                length,
                workflow=self.deployed.spec.workflow,
                tenant=self.deployed.spec.tenant,
            )
        except RegistryError as exc:
            raise ShimError(str(exc)) from exc
        memory_size = self.deployed.instance.memory.size_bytes
        if address + length > memory_size and self.deployed.instance.memory.materialized:
            raise ShimError(
                "region [%d, %d) exceeds the linear memory of %r"
                % (address, address + length, self.function_name)
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "RoadrunnerShim(function=%r, node=%r)" % (self.function_name, self.node_name)
