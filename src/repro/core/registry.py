"""Memory-region registry: the shim's access-control surface.

"To prevent unauthorized access and cross-tenant interference, Roadrunner
restricts shim-to-Wasm access to pre-registered memory regions and applies
bounds checking before any read or write operation" (Sec. 3.1).  Functions
announce the regions they want to expose via ``send_to_host``; every shim
access is validated against this registry before touching linear memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


class RegistryError(RuntimeError):
    """Raised for unregistered or out-of-bounds region access."""


@dataclass(frozen=True)
class MemoryRegion:
    """One registered (function, address, length) region."""

    function: str
    address: int
    length: int
    workflow: str = "default"
    tenant: str = "default"

    def __post_init__(self) -> None:
        if not self.function:
            raise RegistryError("region needs a function name")
        if self.address < 0 or self.length <= 0:
            raise RegistryError(
                "invalid region bounds (address=%d, length=%d)" % (self.address, self.length)
            )

    @property
    def end(self) -> int:
        return self.address + self.length

    def contains(self, address: int, length: int) -> bool:
        return address >= self.address and address + length <= self.end


class MemoryRegionRegistry:
    """Registered regions, keyed by function name."""

    def __init__(self) -> None:
        self._regions: Dict[str, List[MemoryRegion]] = {}

    def register(
        self,
        function: str,
        address: int,
        length: int,
        workflow: str = "default",
        tenant: str = "default",
    ) -> MemoryRegion:
        """Record that ``function`` exposes [address, address+length)."""
        region = MemoryRegion(
            function=function, address=address, length=length, workflow=workflow, tenant=tenant
        )
        self._regions.setdefault(function, []).append(region)
        return region

    def unregister(self, function: str, address: int) -> None:
        regions = self._regions.get(function, [])
        remaining = [r for r in regions if r.address != address]
        if len(remaining) == len(regions):
            raise RegistryError(
                "function %r has no registered region at address %d" % (function, address)
            )
        self._regions[function] = remaining

    def regions(self, function: str) -> List[MemoryRegion]:
        return list(self._regions.get(function, []))

    def latest(self, function: str) -> MemoryRegion:
        """The most recently registered region of ``function`` (its output)."""
        regions = self._regions.get(function)
        if not regions:
            raise RegistryError("function %r has not registered any memory region" % function)
        return regions[-1]

    def validate_access(
        self,
        function: str,
        address: int,
        length: int,
        workflow: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> MemoryRegion:
        """Check that [address, address+length) lies inside a registered region.

        When ``workflow``/``tenant`` are given they must match the region's
        trust domain (cross-tenant access is refused even if the bounds fit).
        """
        for region in self._regions.get(function, []):
            if region.contains(address, length):
                if workflow is not None and region.workflow != workflow:
                    raise RegistryError(
                        "workflow %r may not access a region registered by workflow %r"
                        % (workflow, region.workflow)
                    )
                if tenant is not None and region.tenant != tenant:
                    raise RegistryError(
                        "tenant %r may not access a region registered by tenant %r"
                        % (tenant, region.tenant)
                    )
                return region
        raise RegistryError(
            "access to [%d, %d) of function %r is not covered by any registered region"
            % (address, address + length, function)
        )

    def clear(self) -> None:
        self._regions.clear()

    def __len__(self) -> int:
        return sum(len(v) for v in self._regions.values())
