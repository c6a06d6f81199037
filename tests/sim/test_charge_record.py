"""The Charge record contract: construction, immutability, validation, repr."""

import pickle

import pytest

from repro.sim.ledger import (
    Charge,
    ClusterLedger,
    CostCategory,
    CostLedger,
    CpuDomain,
    LedgerError,
)


def test_keyword_and_positional_construction_agree():
    by_keyword = Charge(
        category=CostCategory.SYSCALL,
        seconds=2e-6,
        cpu_domain=CpuDomain.KERNEL,
        nbytes=4096,
        copied=True,
        label="fn-a:write",
        timestamp=0.5,
        units=3,
        node="node-1",
        seq=7,
    )
    positional = Charge(
        CostCategory.SYSCALL, 2e-6, CpuDomain.KERNEL, 4096, True, "fn-a:write", 0.5, 3, "node-1", 7
    )
    assert by_keyword == positional
    assert by_keyword.units == 3
    assert by_keyword.node == "node-1"
    assert by_keyword.seq == 7


def test_defaults():
    charge = Charge(CostCategory.MEMCPY, 0.1)
    assert charge.cpu_domain is CpuDomain.USER
    assert (charge.nbytes, charge.copied, charge.label) == (0, False, "")
    assert (charge.timestamp, charge.units, charge.node, charge.seq) == (0.0, 1, "", 0)


@pytest.mark.parametrize("field", ["seconds", "category", "node", "seq"])
def test_fields_cannot_be_assigned(field):
    charge = Charge(category=CostCategory.MEMCPY, seconds=0.1)
    with pytest.raises(AttributeError):
        setattr(charge, field, 1)


def test_no_new_attributes():
    charge = Charge(category=CostCategory.MEMCPY, seconds=0.1)
    with pytest.raises(AttributeError):
        charge.extra = 1  # type: ignore[attr-defined]


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"seconds": -1e-9}, "duration must be non-negative"),
        ({"seconds": 1.0, "nbytes": -1}, "nbytes must be non-negative"),
        ({"seconds": 1.0, "units": 0}, "units must be >= 1"),
    ],
)
def test_invalid_charges_raise_from_record_and_ledger(kwargs, message):
    with pytest.raises(LedgerError, match=message):
        Charge(CostCategory.SYSCALL, **kwargs)
    for ledger in (CostLedger(), ClusterLedger(), ClusterLedger().shard("n")):
        with pytest.raises(LedgerError, match=message):
            ledger.charge(CostCategory.SYSCALL, **kwargs)
        assert len(ledger) == 0
        assert ledger.syscalls == 0
        assert ledger.clock.now == 0.0


def test_repr_format():
    assert repr(Charge(category=CostCategory.MEMCPY, seconds=0.1)) == (
        "Charge(category=<CostCategory.MEMCPY: 'memcpy'>, seconds=0.1, "
        "cpu_domain=<CpuDomain.USER: 'user'>, nbytes=0, copied=False, label='', "
        "timestamp=0.0, units=1, node='', seq=0)"
    )
    assert repr(
        Charge(CostCategory.SYSCALL, 2e-6, CpuDomain.KERNEL, 4096, True, "fn-a:write", 0.5, 3, "node-1", 7)
    ) == (
        "Charge(category=<CostCategory.SYSCALL: 'syscall'>, seconds=2e-06, "
        "cpu_domain=<CpuDomain.KERNEL: 'kernel'>, nbytes=4096, copied=True, "
        "label='fn-a:write', timestamp=0.5, units=3, node='node-1', seq=7)"
    )


def test_ledger_stamps_time_node_and_sequence():
    ledger = ClusterLedger()
    node = ledger.shard("node-1")
    first = node.charge(CostCategory.MEMCPY, 0.25)
    second = node.charge(CostCategory.SYSCALL, 1e-6, units=2, wall_time=False)
    assert (first.timestamp, first.node, first.seq) == (0.0, "node-1", 0)
    assert (second.timestamp, second.node, second.seq) == (0.25, "node-1", 1)
    assert type(first) is Charge


def test_charge_fields_are_unchanged():
    ledger = ClusterLedger()
    node = ledger.shard("node-1")
    ledger.charge(CostCategory.HTTP, 0.25, cpu_domain=CpuDomain.NONE, label="ingress")
    node.charge(CostCategory.SYSCALL, 1e-06, cpu_domain=CpuDomain.KERNEL, label="fn-a:write", units=4)
    node.charge(CostCategory.MEMCPY, 0.5, nbytes=1024, copied=True, label="copy", wall_time=False)
    node.charge(CostCategory.SPLICE, 0.125, cpu_domain=CpuDomain.KERNEL, nbytes=2048, label="splice")
    ledger.charge(CostCategory.NETWORK, 0.0, cpu_domain=CpuDomain.NONE, nbytes=10)

    assert [
        (c.timestamp, c.seconds, c.category.value, c.cpu_domain.value, c.label, c.nbytes,
         c.copied, c.units, c.node)
        for c in ledger.charges
    ] == [
        (0.0, 0.25, "http", "none", "ingress", 0, False, 1, "cluster"),
        (0.25, 1e-06, "syscall", "kernel", "fn-a:write", 0, False, 4, "node-1"),
        (0.250001, 0.5, "memcpy", "user", "copy", 1024, True, 1, "node-1"),
        (0.250001, 0.125, "splice", "kernel", "splice", 2048, False, 1, "node-1"),
        (0.375001, 0.0, "network", "none", "", 10, False, 1, "cluster"),
    ]


def test_records_and_enum_members_survive_pickling():
    for member in list(CostCategory) + list(CpuDomain):
        assert hash(member) == object.__hash__(member)  # identity hash
        assert pickle.loads(pickle.dumps(member)) is member
    charge = Charge(CostCategory.SYSCALL, 1e-6, CpuDomain.KERNEL, units=2, node="n", seq=3)
    copy = pickle.loads(pickle.dumps(charge))
    assert copy == charge
    assert type(copy) is Charge
    assert {charge: 1}[copy] == 1
