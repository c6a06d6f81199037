"""The RequestRecord and RequestTrace contract: construction, equality, hash, repr, pickling.

Both are tuple-backed records (like :class:`repro.sim.ledger.Charge`) with
the semantics the frozen dataclasses they replaced had: keyword and
positional construction, validation in the constructor, immutability, no
new attributes, the dataclass ``repr``, and equality only with a record of
the same class.  Unlike ``Charge``, a record never equals a plain tuple of
its fields (nor a record of the other class): a record is a value of its
own type, and the two record types must not meet in one set or dict by
accident.
"""

import pickle

import pytest

from repro.obs.spans import RequestTrace, SpanError
from repro.traffic.slo import RequestOutcome, RequestRecord, SloError


def _record():
    return RequestRecord(
        request_id=3,
        function="fn",
        outcome=RequestOutcome.COMPLETED,
        arrival_s=0.5,
        dispatch_s=0.75,
        completion_s=1.25,
        replica="r-1",
        cold_start_wait_s=0.125,
        request_class="gold",
        deadline_s=2.0,
    )


def _trace():
    return RequestTrace.from_record("ten", _record(), node="n-0")


def test_keyword_and_positional_construction_agree():
    positional = RequestRecord(
        3, "fn", RequestOutcome.COMPLETED, 0.5, 0.75, 1.25, "r-1", 0.125, "gold", 2.0
    )
    assert positional == _record()
    assert RequestTrace(
        "ten", 3, "gold", "completed", 0.5, 1.25, 0.75, 0.125, "n-0", "r-1"
    ) == _trace()


def test_defaults():
    record = RequestRecord(1, "f", RequestOutcome.DROPPED, 0.0)
    assert (record.dispatch_s, record.completion_s, record.replica) == (None, None, "")
    assert (record.cold_start_wait_s, record.request_class, record.deadline_s) == (
        0.0, "standard", None,
    )
    trace = RequestTrace("a", 1, "standard", "dropped", 0.0, 0.0)
    assert (trace.dispatch_s, trace.cold_start_s, trace.node, trace.replica) == (
        None, 0.0, "", "",
    )


@pytest.mark.parametrize("make, field", [
    (_record, "completion_s"), (_record, "outcome"), (_trace, "end_s"), (_trace, "node"),
])
def test_fields_cannot_be_assigned(make, field):
    with pytest.raises(AttributeError):
        setattr(make(), field, 1)


@pytest.mark.parametrize("make", [_record, _trace])
def test_no_new_attributes(make):
    with pytest.raises(AttributeError):
        make().extra = 1


def test_invalid_records_and_traces_raise():
    with pytest.raises(SloError, match="times must be ordered"):
        RequestRecord(1, "f", RequestOutcome.COMPLETED, 1.0, 0.5, 2.0)
    with pytest.raises(SloError, match="need a completion time"):
        RequestRecord(1, "f", RequestOutcome.CACHED, 1.0)
    with pytest.raises(SpanError, match="ends"):
        RequestTrace("a", 1, "standard", "dropped", 1.0, 0.5)


def test_repr_format():
    assert repr(_record()) == (
        "RequestRecord(request_id=3, function='fn', "
        "outcome=<RequestOutcome.COMPLETED: 'completed'>, arrival_s=0.5, "
        "dispatch_s=0.75, completion_s=1.25, replica='r-1', cold_start_wait_s=0.125, "
        "request_class='gold', deadline_s=2.0)"
    )
    assert repr(_trace()) == (
        "RequestTrace(tenant='ten', request_id=3, request_class='gold', "
        "outcome='completed', arrival_s=0.5, end_s=1.25, dispatch_s=0.75, "
        "cold_start_s=0.125, node='n-0', replica='r-1')"
    )


@pytest.mark.parametrize("make", [_record, _trace])
def test_equality_is_by_class_and_fields_never_with_a_plain_tuple(make):
    record = make()
    assert record == make()
    assert not record != make()
    assert record != record._replace(request_id=4)
    fields = tuple(record)
    assert record != fields and fields != record
    assert not record == fields
    assert record not in {fields}
    assert fields not in {record}


def test_a_record_never_equals_a_trace():
    assert _record() != _trace()
    assert _trace() != _record()


@pytest.mark.parametrize("make", [_record, _trace])
def test_hash_is_the_field_tuples_and_consistent_with_equality(make):
    record = make()
    assert hash(record) == hash(make()) == hash(tuple(record))
    assert {record: 1}[make()] == 1
    assert len({record, make(), record._replace(request_id=9)}) == 2


@pytest.mark.parametrize("make", [_record, _trace])
def test_records_survive_pickling(make):
    record = make()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(record, protocol))
        assert copy == record
        assert type(copy) is type(record)
        assert {record: 1}[copy] == 1


@pytest.mark.parametrize("make", [_record, _trace])
def test_replace_returns_the_same_class(make):
    record = make()
    copy = record._replace(request_class="bronze")
    assert type(copy) is type(record)
    assert copy.request_class == "bronze"
    assert copy._replace(request_class=record.request_class) == record


def test_a_replaced_record_is_validated_like_a_constructed_one():
    dropped = RequestRecord(1, "f", RequestOutcome.DROPPED, 0.0)
    # A completed record needs dispatch and completion times.
    with pytest.raises(SloError, match="dispatch and completion"):
        dropped._replace(outcome=RequestOutcome.COMPLETED)
    with pytest.raises(SloError, match="ordered"):
        _record()._replace(dispatch_s=0.25)  # dispatched before it arrived
    with pytest.raises(SloError):
        RequestRecord._make(tuple(dropped)[:2] + (RequestOutcome.CACHED, 0.0))
    with pytest.raises(SpanError, match="before it arrives"):
        _trace()._replace(end_s=0.0)
