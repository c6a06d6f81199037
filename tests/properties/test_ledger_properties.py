"""Property-based tests for the cost ledger's accounting invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.sim.ledger import ClusterLedger, CostCategory, CostLedger, CpuDomain

charge_strategy = st.tuples(
    st.sampled_from(list(CostCategory)),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.sampled_from(list(CpuDomain)),
    st.integers(min_value=0, max_value=1 << 20),
    st.booleans(),
)


@given(charges=st.lists(charge_strategy, max_size=50))
def test_total_seconds_equals_clock_advance_for_wall_time_charges(charges):
    ledger = CostLedger()
    for category, seconds, domain, nbytes, copied in charges:
        ledger.charge(category, seconds, cpu_domain=domain, nbytes=nbytes, copied=copied)
    assert ledger.clock.now == pytest.approx(ledger.total_seconds())


@given(charges=st.lists(charge_strategy, max_size=50))
def test_breakdown_sums_to_total(charges):
    ledger = CostLedger()
    for category, seconds, domain, nbytes, copied in charges:
        ledger.charge(category, seconds, cpu_domain=domain, nbytes=nbytes, copied=copied)
    assert sum(ledger.breakdown().values()) == pytest.approx(ledger.total_seconds())


@given(charges=st.lists(charge_strategy, max_size=50))
def test_cpu_seconds_partition_by_domain(charges):
    ledger = CostLedger()
    for category, seconds, domain, nbytes, copied in charges:
        ledger.charge(category, seconds, cpu_domain=domain, nbytes=nbytes, copied=copied)
    user = ledger.cpu_seconds(CpuDomain.USER)
    kernel = ledger.cpu_seconds(CpuDomain.KERNEL)
    assert ledger.cpu_seconds() == pytest.approx(user + kernel)
    assert ledger.cpu_seconds() <= ledger.total_seconds() + 1e-9


@given(charges=st.lists(charge_strategy, max_size=50))
def test_byte_accounting_partitions_copied_and_referenced(charges):
    ledger = CostLedger()
    total_bytes = 0
    for category, seconds, domain, nbytes, copied in charges:
        ledger.charge(category, seconds, cpu_domain=domain, nbytes=nbytes, copied=copied)
        total_bytes += nbytes
    assert ledger.copied_bytes + ledger.reference_bytes == total_bytes


# -- lazily folded totals ---------------------------------------------------------
#
# ``charge`` only appends; the running totals fold the new charges in on the
# next read.  Whatever the interleaving of charges, batched syscall counts,
# resets and reads, every total must equal the running ``+=`` that a fold on
# every charge would keep, bit for bit (floats compared by ``float.hex``).


class _Totals:
    """The eager running totals of one ledger, kept by the test."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.total = 0.0
        self.cpu = 0.0
        self.categories = {}
        self.domains = {}
        self.copied = 0
        self.referenced = 0
        self.syscalls = 0
        self.switches = 0

    def charge(self, category, seconds, domain, nbytes, copied, units):
        self.total += seconds
        self.categories[category] = self.categories.get(category, 0.0) + seconds
        self.domains[domain] = self.domains.get(domain, 0.0) + seconds
        if domain is not CpuDomain.NONE:
            self.cpu += seconds
        if nbytes:
            if copied:
                self.copied += nbytes
            else:
                self.referenced += nbytes
        if category is CostCategory.SYSCALL:
            self.syscalls += units
        elif category is CostCategory.CONTEXT_SWITCH:
            self.switches += 1


def _bits(value):
    return value.hex() if isinstance(value, float) else value


def _read(ledger):
    """Every total a ledger (or a cluster view) reports, floats as bits."""
    return {
        "total": _bits(ledger.total_seconds()),
        "cpu": _bits(ledger.cpu_seconds()),
        "categories": {c: _bits(ledger.seconds(c)) for c in CostCategory},
        "domains": {d: _bits(ledger.cpu_seconds(d)) for d in CpuDomain},
        "breakdown": [(k, _bits(v)) for k, v in ledger.breakdown().items()],
        "copied": ledger.copied_bytes,
        "referenced": ledger.reference_bytes,
        "syscalls": ledger.syscalls,
        "switches": ledger.context_switches,
    }


def _expected(totals):
    return {
        "total": _bits(totals.total),
        "cpu": _bits(totals.cpu),
        "categories": {c: _bits(totals.categories.get(c, 0.0)) for c in CostCategory},
        "domains": {d: _bits(totals.domains.get(d, 0.0)) for d in CpuDomain},
        "breakdown": [(c.value, _bits(v)) for c, v in totals.categories.items()],
        "copied": totals.copied,
        "referenced": totals.referenced,
        "syscalls": totals.syscalls,
        "switches": totals.switches,
    }


def _merged(parts):
    """What a cluster view derives from its shards' totals: ``sum()`` across
    shards in shard order, breakdowns merged key by key."""
    breakdown = {}
    for part in parts:
        for key, value in part["breakdown"]:
            breakdown[key] = breakdown.get(key, 0.0) + float.fromhex(value)

    def across(name):
        values = [part[name] for part in parts]
        if isinstance(values[0], str):
            return _bits(sum(float.fromhex(v) for v in values))
        return sum(values)

    return {
        "total": across("total"),
        "cpu": across("cpu"),
        "categories": {
            c: _bits(sum(float.fromhex(part["categories"][c]) for part in parts))
            for c in CostCategory
        },
        "domains": {
            d: _bits(sum(float.fromhex(part["domains"][d]) for part in parts))
            for d in CpuDomain
        },
        "breakdown": [(k, _bits(v)) for k, v in breakdown.items()],
        "copied": across("copied"),
        "referenced": across("referenced"),
        "syscalls": across("syscalls"),
        "switches": across("switches"),
    }


# Values whose running sums round, plus exact zeros (no clock step).
_lazy_seconds = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([1e-9, 0.1, 0.2, 0.3, 1.0 / 3.0]),
)

_operation = st.one_of(
    st.tuples(
        st.just("charge"),
        st.integers(min_value=0, max_value=3),  # shard index
        st.sampled_from(list(CostCategory)),
        _lazy_seconds,
        st.sampled_from(list(CpuDomain)),
        st.one_of(st.just(0), st.integers(min_value=0, max_value=1 << 20)),
        st.booleans(),  # copied
        st.booleans(),  # wall_time
        st.integers(min_value=1, max_value=5),  # units
    ),
    st.tuples(st.just("count"), st.integers(min_value=0, max_value=3), st.integers(0, 9)),
    st.tuples(st.just("read"), st.integers(min_value=0, max_value=3)),
    # One past the last shard resets the whole ledger (the cluster view).
    st.tuples(st.just("reset"), st.integers(min_value=0, max_value=4)),
)


def _run(charged, shards, operations, view=None):
    """Apply ``operations`` to ``charged`` (ledger handles; ``shards`` are the
    ledgers that hold the charges, in the same order) and, after each read
    and at the end, compare every total with its running reference.  With a
    cluster ``view`` the view's totals are checked against the shards' too."""
    references = [_Totals() for _ in shards]
    clock = shards[0].clock
    now = 0.0

    def check(index):
        assert _read(shards[index]) == _expected(references[index])
        if view is not None:
            assert _read(view) == _merged([_expected(r) for r in references])

    for operation in operations:
        kind, index = operation[0], operation[1] % (len(shards) + 1)
        if kind == "reset" and index == len(shards):
            (shards[0] if view is None else view).reset()
            for reference in references:
                reference.reset()
            now = 0.0
        elif kind == "reset":
            # A shard's reset also resets the clock it shares.
            shards[index].reset()
            references[index].reset()
            now = 0.0
        else:
            index %= len(shards)
            if kind == "charge":
                _, _, category, seconds, domain, nbytes, copied, wall_time, units = operation
                charged[index].charge(
                    category,
                    seconds,
                    cpu_domain=domain,
                    nbytes=nbytes,
                    copied=copied,
                    wall_time=wall_time,
                    units=units,
                )
                references[index].charge(category, seconds, domain, nbytes, copied, units)
                if wall_time and seconds:
                    now += seconds
            elif kind == "count":
                charged[index].count_syscalls(operation[2])
                references[index].syscalls += operation[2]
            else:
                check(index)
        assert clock.now.hex() == now.hex()
    for index in range(len(shards)):
        check(index)


@given(operations=st.lists(_operation, max_size=80))
@settings(deadline=None)
def test_lazy_totals_equal_running_sums_on_a_ledger(operations):
    ledger = CostLedger()
    _run([ledger], [ledger], operations)


@given(operations=st.lists(_operation, max_size=80))
@settings(deadline=None)
def test_lazy_totals_equal_running_sums_on_a_cluster_ledger(operations):
    cluster = ClusterLedger()
    nodes = [cluster.shard("node-%d" % i) for i in range(3)]
    # The view's own charge/count_syscalls land on its cluster shard.
    _run([cluster] + nodes, [cluster.cluster_shard] + nodes, operations, view=cluster)
