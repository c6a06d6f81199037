"""One traffic driver: the multi-tenant engine is a one-region federation.

``MultiTenantTrafficEngine`` is a constructor of ``FederatedTrafficEngine``,
so a run crosses one driver: the tenants are validated once per engine
built (and once per single-stream run), and calibration is memoised per
process, so engines built separately measure each (mode, payload, cost
model) once between them.
"""

import sys

from repro.traffic import cluster_runtime, federation
from repro.traffic.arrivals import Request
from repro.traffic.engine import MultiTenantTrafficEngine, TrafficConfig, TrafficEngine
from repro.traffic.federation import FederatedTrafficEngine
from repro.traffic.tenants import TenantSpec

MB = 1024 * 1024


def _requests(function, count=3, payload_bytes=MB):
    return tuple(
        Request(request_id=i, arrival_s=0.1 * i, function=function, payload_bytes=payload_bytes)
        for i in range(count)
    )


def _tenant(name="a", payload_bytes=MB):
    return TenantSpec(name=name, requests=_requests(name, payload_bytes=payload_bytes))


def _count_validations(monkeypatch):
    """Count ``validate_tenants`` calls through every traffic module that binds it."""
    calls = []
    original = federation.validate_tenants

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro.traffic") and getattr(module, "validate_tenants", None) is original:
            monkeypatch.setattr(module, "validate_tenants", counted)
    return calls


def test_the_multi_tenant_engine_is_a_federation():
    engine = MultiTenantTrafficEngine([_tenant()])
    assert isinstance(engine, FederatedTrafficEngine)
    assert engine.regions == ["traffic"]


def test_tenants_are_validated_once_per_engine(monkeypatch):
    calls = _count_validations(monkeypatch)
    MultiTenantTrafficEngine([_tenant("a"), _tenant("b")], config=TrafficConfig(nodes=2))
    assert len(calls) == 1


def test_tenants_are_validated_once_per_single_stream_run(monkeypatch):
    engine = TrafficEngine("roadrunner-user", config=TrafficConfig(nodes=1))
    calls = _count_validations(monkeypatch)
    engine.run(_requests("app"))
    assert len(calls) == 1


def test_separate_engines_measure_each_service_time_once(monkeypatch):
    measured = []
    original = cluster_runtime.measure_pair

    def counted(mode, payload_mb, **kwargs):
        measured.append((mode, payload_mb))
        return original(mode, payload_mb, **kwargs)

    monkeypatch.setattr(cluster_runtime, "measure_pair", counted)
    # A payload no other test uses, so the process-wide memo starts cold.
    payload_bytes = 3 * MB + 12_345
    for _ in range(2):
        MultiTenantTrafficEngine(
            [_tenant(payload_bytes=payload_bytes)], config=TrafficConfig(nodes=1)
        ).run()
    TrafficEngine("roadrunner-user", config=TrafficConfig(nodes=1)).run(
        _requests("app", payload_bytes=payload_bytes)
    )
    assert measured == [("roadrunner-user", payload_bytes / MB)]
