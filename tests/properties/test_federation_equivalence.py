"""Contract tests: the single-cluster engine IS a one-region federation.

``MultiTenantTrafficEngine.run`` drives its tenants through the
federation's own simulation as region ``traffic`` and returns that region's
snapshot, so the two entry points share one driver.  The property below
pins the contract over random workloads (exact and sketch mode, one to
three tenants with request classes, a middleware subset, a node memory
budget): a ``FederatedTrafficEngine`` over one cluster named ``traffic``
reports request for request what the plain engine reports — same records,
same evictions, same rollups, same repr.

The one-region run must also stay cheap: it never asks the router for a
placement, builds no WAN and admits arrivals straight into its runtime.
The plain engine, which returns only the region's own summary, folds each
finished request only into the region's own accumulators.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway.middleware import build_pipeline
from repro.traffic import federation as federation_module
from repro.traffic.arrivals import BurstyArrivals, PoissonArrivals
from repro.traffic.classes import RequestClass
from repro.traffic.cluster_runtime import ClusterRuntime, _merge_timelines
from repro.traffic.engine import MultiTenantTrafficEngine, TrafficConfig
from repro.traffic.federation import ClusterSpec, FederatedTrafficEngine, GlobalRouter
from repro.traffic.slo import _replica_seconds
from repro.traffic.tenants import TenantSpec

MODES = ("roadrunner-user", "runc-http", "wasmedge-http")

CLASSES = (
    RequestClass("interactive", share=1.0, priority=0, deadline_s=0.05, hard=True),
    RequestClass("batch", share=2.0, priority=1, deadline_s=5.0),
)

tenant_params = st.fixed_dictionaries(
    {
        "rps": st.floats(min_value=5.0, max_value=60.0),
        "bursty": st.booleans(),
        "classes": st.booleans(),
        "weight": st.integers(min_value=1, max_value=3),
    }
)

workload = st.fixed_dictionaries(
    {
        "tenants": st.lists(tenant_params, min_size=1, max_size=3),
        "duration": st.floats(min_value=2.0, max_value=6.0),
        "seed": st.integers(min_value=0, max_value=2**16),
        "nodes": st.integers(min_value=1, max_value=4),
        "timeout": st.floats(min_value=0.5, max_value=30.0),
        "retain": st.booleans(),
        "memory_mb": st.sampled_from((0.0, 60.0, 160.0)),
        "middleware": st.lists(
            st.sampled_from(("cache", "coalesce", "hedge", "rate-limit")),
            unique=True,
            max_size=3,
        ),
    }
)


def _tenants(params):
    tenants = []
    for index, tenant in enumerate(params["tenants"]):
        seed = params["seed"] + index
        if tenant["bursty"]:
            arrivals = BurstyArrivals(
                on_rate_rps=tenant["rps"],
                duration_s=params["duration"],
                on_s=1.0,
                off_s=1.0,
                payload_mb=1.0,
                seed=seed,
            )
        else:
            arrivals = PoissonArrivals(
                rate_rps=tenant["rps"],
                duration_s=params["duration"],
                payload_mb=1.0,
                seed=seed,
            )
        tenants.append(
            TenantSpec(
                name="app-%d" % index,
                mode=MODES[index % len(MODES)],
                weight=tenant["weight"],
                arrivals=arrivals,
                classes=CLASSES if tenant["classes"] else (),
            )
        )
    return tenants


def _config(params):
    return TrafficConfig(
        nodes=params["nodes"],
        queue_timeout_s=params["timeout"],
        retain_records=params["retain"],
        node_memory_mb=params["memory_mb"],
    )


def _pipeline(params):
    if not params["middleware"]:
        return None
    return build_pipeline(params["middleware"], hedge_seed=params["seed"])


def _merged(tenant_summary):
    """``tenant_summary`` with its timeline merged as a federation rollup merges it."""
    timeline = _merge_timelines([tenant_summary.replica_timeline])
    return replace(
        tenant_summary,
        replica_timeline=tuple(timeline),
        max_replicas=max((count for _, count in timeline), default=0),
        replica_seconds=_replica_seconds(timeline, tenant_summary.duration_s),
    )


@given(params=workload)
@settings(max_examples=15, deadline=None)
def test_single_cluster_federation_is_request_for_request_identical(params):
    baseline = MultiTenantTrafficEngine(
        _tenants(params), config=_config(params), middleware=_pipeline(params)
    )
    expected = baseline.run()
    federated = FederatedTrafficEngine(
        _tenants(params),
        # The region is named after the engine's node prefix so replica and
        # node identifiers line up byte-for-byte.
        [ClusterSpec(region="traffic", nodes=params["nodes"])],
        config=_config(params),
        middleware_factory=lambda region: _pipeline(params),
    )
    summary = federated.run()
    assert repr(summary.region("traffic")) == repr(expected)
    assert federated.runtimes["traffic"].records == baseline.runtime.records
    assert federated.runtimes["traffic"].evictions == baseline.runtime.evictions
    # The federation-wide rollups are the region's own, except that their
    # timelines are merged across regions, which collapses same-instant
    # entries (the region's per-tenant summaries keep the raw timeline).
    for name, tenant_summary in expected.tenants.items():
        assert repr(summary.tenants[name]) == repr(_merged(tenant_summary))
    assert summary.router.remote == 0
    assert summary.router.wan_bytes == 0


def _shortcut_tenants():
    return [
        TenantSpec(
            name="web",
            arrivals=PoissonArrivals(rate_rps=40.0, duration_s=3.0, payload_mb=1.0, seed=3),
            classes=CLASSES,
        ),
        TenantSpec(
            name="batch",
            mode="wasmedge-http",
            arrivals=PoissonArrivals(rate_rps=20.0, duration_s=3.0, payload_mb=0.5, seed=4),
        ),
    ]


def _run_plain(config):
    return MultiTenantTrafficEngine(_shortcut_tenants(), config=config).run()


def _run_federated(config):
    return FederatedTrafficEngine(
        _shortcut_tenants(), [ClusterSpec(region="traffic", nodes=config.nodes)], config=config
    ).run()


def _refuse(*_args, **_kwargs):
    raise AssertionError("a one-region run must not route or cross the WAN")


# The federation-wide accumulators each tenant folds into besides its own
# and the cluster's: none for the engine, a tenant and a cluster rollup for
# a federation's run.
@pytest.mark.parametrize(
    "run, outer", [(_run_plain, 0), (_run_federated, 2)], ids=["engine", "federation"]
)
def test_one_region_run_skips_the_router_the_wan_and_outer_rollups(monkeypatch, run, outer):
    runtimes = []
    admits = []
    original_init = ClusterRuntime.__init__
    original_schedule = federation_module.schedule_arrivals

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        runtimes.append(self)

    def recording_schedule(loop, states, admit, total_requests):
        admits.append(admit)
        original_schedule(loop, states, admit, total_requests)

    monkeypatch.setattr(ClusterRuntime, "__init__", recording_init)
    monkeypatch.setattr(federation_module, "schedule_arrivals", recording_schedule)
    monkeypatch.setattr(GlobalRouter, "place", _refuse)
    monkeypatch.setattr(GlobalRouter, "reroute", _refuse)
    # Only the federation's WAN; calibration builds its own topology.
    monkeypatch.setattr(federation_module, "Topology", _refuse)

    run(TrafficConfig(nodes=2, retain_records=False))

    (runtime,) = runtimes
    # Arrivals enter the runtime directly: no route/deliver hop.
    assert admits == [runtime.admit]
    # Each tenant folds into its own rollup and the cluster's, then into
    # the federation-wide ones only when the caller returns them.
    for state in runtime.states:
        assert state.streams[0] is not runtime.cluster_stream
        assert state.streams[1] is runtime.cluster_stream
        assert len(state.streams) == 2 + outer
