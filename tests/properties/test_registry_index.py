"""Property test: the registry's base-address index answers as the scan it replaced.

:class:`MemoryRegionRegistry` indexes each function's regions by base
address, so a bounds check bisects instead of scanning every region the
function registered.  Over random register/unregister/validate sequences —
overlapping regions, shared bases, other functions, trust-domain mismatches
— every answer must equal the registration-order scan's: the same first
covering region (the same object), the same :class:`RegistryError` message,
and the same ``regions``/``latest``/``len`` views.
"""

from typing import Dict, List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import MemoryRegion, MemoryRegionRegistry, RegistryError


class ScanRegistry:
    """The registry as it was: one list per function, scanned in registration order."""

    def __init__(self) -> None:
        self._regions: Dict[str, List[MemoryRegion]] = {}

    def add(self, region: MemoryRegion) -> None:
        self._regions.setdefault(region.function, []).append(region)

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

    def __len__(self) -> int:
        return sum(len(v) for v in self._regions.values())


FUNCTIONS = ("f", "g")
DOMAINS = ("a", "b")

#: Small addresses so regions overlap, share bases and nest often.
address = st.integers(min_value=0, max_value=64)
operation = st.one_of(
    st.tuples(
        st.just("register"),
        st.sampled_from(FUNCTIONS),
        address,
        st.integers(min_value=1, max_value=40),
        st.sampled_from(DOMAINS),
        st.sampled_from(DOMAINS),
    ),
    st.tuples(st.just("unregister"), st.sampled_from(FUNCTIONS), address),
    st.tuples(
        st.just("validate"),
        st.sampled_from(FUNCTIONS),
        st.integers(min_value=-2, max_value=110),
        st.integers(min_value=-1, max_value=40),
        st.sampled_from((None,) + DOMAINS),
        st.sampled_from((None,) + DOMAINS),
    ),
)


def _outcome(call, *args):
    """What a call returns, or the message it raises."""
    try:
        return call(*args)
    except RegistryError as exc:
        return ("error", str(exc))


@given(ops=st.lists(operation, max_size=80))
@settings(max_examples=300, deadline=None)
def test_index_answers_as_the_registration_order_scan(ops):
    registry, scan = MemoryRegionRegistry(), ScanRegistry()
    for op in ops:
        kind, function = op[0], op[1]
        if kind == "register":
            _, _, base, length, workflow, tenant = op
            region = registry.register(function, base, length, workflow=workflow, tenant=tenant)
            scan.add(region)
        elif kind == "unregister":
            assert _outcome(registry.unregister, function, op[2]) == _outcome(
                scan.unregister, function, op[2]
            )
        else:
            _, _, start, length, workflow, tenant = op
            got = _outcome(registry.validate_access, function, start, length, workflow, tenant)
            want = _outcome(scan.validate_access, function, start, length, workflow, tenant)
            assert got == want
            if isinstance(want, MemoryRegion):
                assert got is want  # the first covering region, not an equal one
        for name in FUNCTIONS:
            assert registry.regions(name) == scan.regions(name)
            assert _outcome(registry.latest, name) == _outcome(scan.latest, name)
        assert len(registry) == len(scan)
