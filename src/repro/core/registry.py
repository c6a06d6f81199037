"""Memory-region registry: the shim's access-control surface.

"To prevent unauthorized access and cross-tenant interference, Roadrunner
restricts shim-to-Wasm access to pre-registered memory regions and applies
bounds checking before any read or write operation" (Sec. 3.1).  Functions
announce the regions they want to expose via ``send_to_host``; every shim
access is validated against this registry before touching linear memory.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.record import TypedRecord


class RegistryError(RuntimeError):
    """Raised for unregistered or out-of-bounds region access."""


class _RegionFields(NamedTuple):
    function: str
    address: int
    length: int
    workflow: str = "default"
    tenant: str = "default"


class MemoryRegion(TypedRecord, _RegionFields):
    """One registered (function, address, length) region (a validated tuple
    record, see :class:`~repro.record.TypedRecord`)."""

    __slots__ = ()

    def __new__(
        cls,
        function: str,
        address: int,
        length: int,
        workflow: str = "default",
        tenant: str = "default",
    ) -> "MemoryRegion":
        if not function:
            raise RegistryError("region needs a function name")
        if address < 0 or length <= 0:
            raise RegistryError(
                "invalid region bounds (address=%d, length=%d)" % (address, length)
            )
        return tuple.__new__(cls, (function, address, length, workflow, tenant))

    @property
    def end(self) -> int:
        return self.address + self.length

    def contains(self, address: int, length: int) -> bool:
        return address >= self.address and address + length <= self.end


class _FunctionRegions:
    """One function's regions: registration order, plus an index by base address.

    ``bases`` holds the distinct base addresses in ascending order; ``at``
    maps each base to its regions, as (registration serial, region) pairs in
    registration order; ``reach[i]`` is the largest end of any region based
    at or below ``bases[i]``.  A region covering an access must start at or
    below it, so a lookup bisects to the nearest base and walks down only
    while ``reach`` says a region so low could still cover it: one step
    when the regions do not overlap, as the allocator hands them out.
    """

    __slots__ = ("ordered", "bases", "at", "reach", "serial")

    def __init__(self) -> None:
        self.ordered: List[MemoryRegion] = []
        self.bases: List[int] = []
        self.at: Dict[int, List[Tuple[int, MemoryRegion]]] = {}
        self.reach: List[int] = []
        self.serial = 0

    def add(self, region: MemoryRegion) -> None:
        self.ordered.append(region)
        base = region.address
        end = base + region.length
        entry = (self.serial, region)
        self.serial += 1
        bases, reach = self.bases, self.reach
        if not bases or base > bases[-1]:
            # The allocator's usual case: above every base so far.
            bases.append(base)
            reach.append(end if not reach or end > reach[-1] else reach[-1])
            self.at[base] = [entry]
            return
        index = bisect_left(bases, base)
        if bases[index] != base:
            bases.insert(index, base)
            # The running maximum below, raised to ``end`` by the loop.
            reach.insert(index, reach[index - 1] if index else -1)
            self.at[base] = []
        self.at[base].append(entry)
        # Reach is a running maximum: raise it until it already covers ``end``.
        for later in range(index, len(reach)):
            if reach[later] >= end:
                break
            reach[later] = end

    def remove(self, base: int) -> bool:
        """Drop every region based at ``base``; whether there was any."""
        if self.at.pop(base, None) is None:
            return False
        self.ordered = [region for region in self.ordered if region.address != base]
        bases, reach = self.bases, self.reach
        index = bisect_left(bases, base)
        del bases[index]
        del reach[index]
        running = reach[index - 1] if index else -1
        for later in range(index, len(bases)):
            running = max(running, max(region.end for _, region in self.at[bases[later]]))
            reach[later] = running
        return True

    def first_covering(self, address: int, length: int) -> Optional[MemoryRegion]:
        """The earliest-registered region containing [address, address+length)."""
        bases, at, reach = self.bases, self.at, self.reach
        end = address + length
        best: Optional[Tuple[int, MemoryRegion]] = None
        index = bisect_right(bases, address) - 1
        while index >= 0 and reach[index] >= end:
            for entry in at[bases[index]]:
                if entry[1].contains(address, length):
                    # Later entries at this base were registered later.
                    if best is None or entry[0] < best[0]:
                        best = entry
                    break
            index -= 1
        return None if best is None else best[1]


class MemoryRegionRegistry:
    """Registered regions, keyed by function name."""

    def __init__(self) -> None:
        self._regions: Dict[str, _FunctionRegions] = {}

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
        regions = self._regions.get(function)
        if regions is None:
            regions = self._regions[function] = _FunctionRegions()
        regions.add(region)
        return region

    def unregister(self, function: str, address: int) -> None:
        regions = self._regions.get(function)
        if regions is None or not regions.remove(address):
            raise RegistryError(
                "function %r has no registered region at address %d" % (function, address)
            )

    def regions(self, function: str) -> List[MemoryRegion]:
        regions = self._regions.get(function)
        return list(regions.ordered) if regions is not None else []

    def latest(self, function: str) -> MemoryRegion:
        """The most recently registered region of ``function`` (its output)."""
        regions = self._regions.get(function)
        if regions is None or not regions.ordered:
            raise RegistryError("function %r has not registered any memory region" % function)
        return regions.ordered[-1]

    def validate_access(
        self,
        function: str,
        address: int,
        length: int,
        workflow: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> MemoryRegion:
        """Check that [address, address+length) lies inside a registered region.

        The region checked is the earliest-registered one that contains the
        access, found through the base-address index in O(log n) for
        regions that do not overlap.  When ``workflow``/``tenant`` are given
        they must match the region's trust domain (cross-tenant access is
        refused even if the bounds fit).
        """
        regions = self._regions.get(function)
        region = regions.first_covering(address, length) if regions is not None else None
        if region is None:
            raise RegistryError(
                "access to [%d, %d) of function %r is not covered by any registered region"
                % (address, address + length, function)
            )
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

    def clear(self) -> None:
        self._regions.clear()

    def __len__(self) -> int:
        return sum(len(regions.ordered) for regions in self._regions.values())
