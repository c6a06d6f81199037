"""The four benchmark workloads: inputs, the timed run, metrics and checks.

Every workload drives the program only through its public entry points
(``MultiTenantTrafficEngine``, ``FederatedTrafficEngine``,
``repro.experiments.harness.run_setup`` with the ``build_*_setup``
environments, and the exporters).  The benchmark generates every input from
the seed with the program's own arrival processes; the engines receive
explicit ``requests=`` streams.  Service-time calibration is not prefilled:
users pay it on every run, so it is part of the timed region.

A workload is three steps, timed separately by the worker:

* ``prepare(seed, smoke, out_dir)`` — generate inputs and construct the
  engine (part of ``setup_s``);
* ``execute()`` — the run, its summary and every export (``sim_req_per_s``);
* ``evaluate()`` — simulated metrics, correctness checks and the digest
  (never timed).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import statistics
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from bench.spec import SIM_LAYER_METRICS
from repro.experiments.environment import build_fanout_setup, build_pair_setup
from repro.experiments.harness import run_setup
from repro.gateway.middleware import build_pipeline
from repro.metrics.stats import p99
from repro.metrics.export import (
    figure_from_json,
    multi_tenant_to_figure,
    traffic_from_figure,
    write_figure,
)
from repro.obs import JsonlEventWriter, MetricsRegistry, Telemetry, TraceLog
from repro.obs import parse_prometheus, read_jsonl, write_prometheus
from repro.payload import PayloadError
from repro.platform.channel import TransferOutcome
from repro.platform.gateway import FairnessPolicy, IntraTenantOrder
from repro.traffic import (
    Autoscaler,
    BurstyArrivals,
    ClusterSpec,
    DiurnalArrivals,
    FederatedTrafficEngine,
    FixedReplicasPolicy,
    MultiTenantTrafficEngine,
    PoissonArrivals,
    Request,
    RequestClass,
    TenantSpec,
    TrafficConfig,
    derived_seed,
)
from repro.traffic.policies import autoscaler_factory
from repro.workloads.generators import FANOUT_PAYLOAD_MB, make_payload

MB = 1024 * 1024
KB = 1024

#: Full and smoke sizes.  Full sizes keep one run near 2-3 s of host time
#: on a 2-core x86 box, so a measurement window holds several runs; smoke
#: sizes keep every workload under 5 s for the benchmark's own tests.
SIZES = {
    "steady": {"full": {"duration_s": 20.0}, "smoke": {"duration_s": 1.0}},
    "tenants": {"full": {"duration_s": 45.0}, "smoke": {"duration_s": 6.0}},
    "federation": {"full": {"duration_s": 24.0}, "smoke": {"duration_s": 3.0}},
    "transfers": {
        "full": {"sizes_per_combo": 800, "fanouts_per_runtime": 16},
        "smoke": {"sizes_per_combo": 20, "fanouts_per_runtime": 3},
    },
}


class Workload:
    """One workload; subclasses fill in the three steps."""

    name = ""

    def __init__(self, seed: int, smoke: bool, out_dir: str) -> None:
        self.seed = seed
        self.size = SIZES[self.name]["smoke" if smoke else "full"]
        self.out_dir = out_dir
        #: Number of operations (requests, transfers, fan-out branches).
        self.ops = 0

    def prepare(self) -> None:
        raise NotImplementedError

    def execute(self) -> None:
        raise NotImplementedError

    def evaluate(self) -> "Evaluation":
        raise NotImplementedError


@dataclasses.dataclass
class Evaluation:
    """What one run produced, off the simulated clock."""

    #: End-to-end simulated metrics (the ``sim_*`` names of END_TO_END).
    sim: Dict[str, float]
    #: SIM_LAYER_METRICS values (0 where the workload lacks the mechanism).
    layers: Dict[str, float]
    #: Operations whose outcome broke a check.
    failed: int
    #: One line per failed check.
    failures: List[str]
    #: Canonical text of every simulated summary (the digest's input).
    canonical: str

    @property
    def digest(self) -> str:
        text = json.dumps(self.sim, sort_keys=True) + json.dumps(
            self.layers, sort_keys=True
        ) + self.canonical
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- shared helpers -------------------------------------------------------------------


def _terminal_total(summary) -> int:
    """Requests of a TrafficSummary that reached any terminal outcome."""
    return (
        summary.completed + summary.timed_out + summary.dropped + summary.shed
        + summary.cached + summary.coalesced + summary.rate_limited + summary.rejected
    )


def _check_outcomes(label: str, summary, failures: List[str]) -> int:
    """offered == sum of terminal outcomes; returns the unaccounted count."""
    missing = abs(summary.offered - _terminal_total(summary))
    if missing:
        failures.append(
            "%s: offered %d but %d terminal outcomes"
            % (label, summary.offered, _terminal_total(summary))
        )
    return missing


def _check_traffic(ops: int, tenants, cluster, failures: List[str]) -> int:
    """Every offered request reached exactly one terminal outcome.

    Checked per tenant and for the cluster rollup, which must also count
    every request the benchmark generated.  Returns the requests left
    unaccounted.
    """
    failed = 0
    for name, tenant in tenants.items():
        failed += _check_outcomes("tenant %s" % name, tenant, failures)
    _check_outcomes("cluster", cluster, failures)
    if cluster.offered != ops:
        failures.append("cluster offered %d of %d requests" % (cluster.offered, ops))
        failed = max(failed, abs(ops - cluster.offered))
    return failed


#: Every traffic workload boots its initial replica pools at time 0 and
#: sends its first request this much later, once the longest cold start
#: (RunC, ~0.9 s) is over: a run measures the pools it configures, not
#: their boot backlog, whose few hundred stalled requests would otherwise
#: decide the p99.
WARM_START_S = 1.0


def _requests(
    process, draw_sizes: Optional[Callable[[int], List[int]]] = None
) -> Tuple[Request, ...]:
    """An arrival process's stream as requests, starting at WARM_START_S.

    ``draw_sizes(count)`` gives each request its own payload size (default:
    the process's size for all).
    """
    times = process.arrival_times()
    if draw_sizes is None:
        sizes = [process.payload_bytes] * len(times)
    else:
        sizes = draw_sizes(len(times))
    return tuple(
        Request(
            request_id=index,
            arrival_s=WARM_START_S + instant,
            function=process.function,
            payload_bytes=size,
        )
        for index, (instant, size) in enumerate(zip(times, sizes))
    )


def _traffic_sim(cluster) -> Dict[str, float]:
    """The end-to-end simulated metrics of one cluster-wide summary."""
    return {
        "sim_mean_ms": cluster.latency.mean_s * 1e3,
        "sim_p99_ms": cluster.latency.p99_s * 1e3,
        "sim_goodput_rps": cluster.goodput_rps,
        "sim_served_pct": 100.0 * cluster.served / cluster.offered,
        "sim_deadline_met_pct": 100.0 * cluster.deadline_met_ratio,
    }


def _traffic_layers(cluster) -> Dict[str, float]:
    """The per-layer simulated metrics every traffic workload reports."""
    layers = dict.fromkeys(SIM_LAYER_METRICS, 0.0)
    # Share of all served latency spent waiting in the gateway queue.
    served_s = cluster.latency.mean_s * cluster.served
    if served_s > 0:
        layers["gateway.queue_share_pct"] = (
            100.0 * cluster.queueing.mean_s * cluster.completed / served_s
        )
    layers["gateway.timed_out"] = float(cluster.timed_out)
    layers["gateway.dropped"] = float(cluster.dropped)
    layers["gateway.shed"] = float(cluster.shed)
    layers["autoscaler.cold_starts"] = float(cluster.cold_starts)
    layers["autoscaler.mean_replicas"] = cluster.mean_replicas
    layers["memory.oom_evictions"] = float(cluster.oom_evictions)
    layers["memory.rss_mb_s_per_1k"] = cluster.rss_mb_per_1k
    return layers


def _log_uniform_strata(rng: random.Random, count: int, low: float, high: float) -> List[float]:
    """``count`` log-uniform draws, one per equal-width stratum of log space.

    Stratifying keeps the sample's quantiles close to the distribution's on
    every seed, so per-seed medians and tails move little.
    """
    ratio = high / low
    return [low * ratio ** ((index + rng.random()) / count) for index in range(count)]


# -- steady ---------------------------------------------------------------------------


class Steady(Workload):
    """One tenant, Poisson at 5000 rps, 4 MB payloads, a fixed 16-replica pool.

    FIFO, sketch mode, no telemetry, middleware or memory model: the hot
    path alone (event loop, FIFO queue, load balancer, runtime dispatch,
    sketches) at utilisation ~0.64, with a single service-time calibration.
    """

    name = "steady"
    RATE_RPS = 5000.0
    PAYLOAD_MB = 4.0
    REPLICAS = 16

    def prepare(self) -> None:
        requests = _requests(
            PoissonArrivals(
                rate_rps=self.RATE_RPS,
                duration_s=self.size["duration_s"],
                function="roadrunner-user",
                payload_mb=self.PAYLOAD_MB,
                seed=self.seed,
            )
        )
        self.ops = len(requests)
        replicas = self.REPLICAS
        self.engine = MultiTenantTrafficEngine(
            [
                TenantSpec(
                    name="roadrunner-user",
                    mode="roadrunner-user",
                    requests=requests,
                    pattern="poisson",
                )
            ],
            config=TrafficConfig(
                nodes=4, initial_replicas=replicas, retain_records=False
            ),
            fairness=FairnessPolicy.FIFO,
            autoscaler_factory=lambda: Autoscaler(
                FixedReplicasPolicy(replicas), min_replicas=replicas, max_replicas=replicas
            ),
            oversubscription=1.0,
        )

    def execute(self) -> None:
        self.summary = self.engine.run()

    def evaluate(self) -> Evaluation:
        failures: List[str] = []
        cluster = self.summary.cluster
        failed = _check_traffic(self.ops, self.summary.tenants, cluster, failures)
        return Evaluation(
            sim=_traffic_sim(cluster),
            layers=_traffic_layers(cluster),
            failed=failed,
            failures=failures,
            canonical=repr(self.summary),
        )


# -- tenants --------------------------------------------------------------------------


class Tenants(Workload):
    """Three tenants with every feature on and exact per-request records.

    WFQ-by-cost fairness, EDF classes with a hard 2 ms interactive deadline,
    target-concurrency autoscaling from 8 warm replicas per tenant, a 160 MB
    per-node memory budget, the
    cache/coalesce/hedge middleware, Zipf-popular payload sizes (~1.5k
    distinct calibrations) and full telemetry with Prometheus, JSONL and
    figure-JSON exports.
    """

    name = "tenants"
    PAYLOAD_SIZES = 512
    PAYLOAD_LOW = 64 * KB
    PAYLOAD_HIGH = int(4.2 * MB)
    ZIPF_S = 0.6
    CATALOGUE_SEED = 0
    #: Short enough that popular payloads expire between repeats, so the
    #: cache serves about a third of the traffic rather than nearly all.
    CACHE_TTL_S = 0.5
    #: Tail budget after which a straggling attempt is hedged on a spare
    #: replica: a few service times, so stragglers (4x) trigger hedges.
    HEDGE_BUDGET_S = 0.05
    NODE_MEMORY_MB = 160.0
    #: Warm replicas per tenant at the start.  Fewer (2) leave the first
    #: RunC burst to a cold pool, and on some seeds the cold starts, memory
    #: pressure and OOM evictions then feed each other into a collapse: mean
    #: latency moves from ~6 ms to seconds between seeds, which no bound
    #: could hold.  With 8 nothing is evicted at this budget.
    INITIAL_REPLICAS = 8
    CLASSES = (
        # Tight enough that large interactive payloads are shed at dispatch.
        RequestClass("interactive", share=0.5, priority=0, deadline_s=0.002, hard=True),
        RequestClass("batch", share=0.5, priority=1, deadline_s=5.0),
    )

    def prepare(self) -> None:
        seed = self.seed
        duration = self.size["duration_s"]
        ratio = self.PAYLOAD_HIGH / self.PAYLOAD_LOW
        sizes = [
            int(self.PAYLOAD_LOW * ratio ** (index / (self.PAYLOAD_SIZES - 1)))
            for index in range(self.PAYLOAD_SIZES)
        ]
        # The catalogue (which size has which popularity rank) is part of the
        # workload, fixed across seeds; the seed draws the requests from it.
        random.Random(self.CATALOGUE_SEED).shuffle(sizes)
        rng = random.Random(derived_seed(seed, "payloads"))
        cumulative, total = [], 0.0
        for rank in range(1, self.PAYLOAD_SIZES + 1):
            total += rank ** -self.ZIPF_S
            cumulative.append(total)
        arrivals = {
            "roadrunner-user": PoissonArrivals(
                rate_rps=300.0,
                duration_s=duration,
                seed=derived_seed(seed, "roadrunner-user"),
            ),
            "runc-http": BurstyArrivals(
                on_rate_rps=600.0,
                duration_s=duration,
                on_s=2.0,
                off_s=3.0,
                seed=derived_seed(seed, "runc-http"),
            ),
            "wasmedge-http": DiurnalArrivals(
                peak_rps=120.0,
                trough_rps=10.0,
                duration_s=duration,
                period_s=duration / 2.0,
                seed=derived_seed(seed, "wasmedge-http"),
            ),
        }

        def draw_sizes(count: int) -> List[int]:
            return rng.choices(sizes, cum_weights=cumulative, k=count)

        tenants = [
            TenantSpec(
                name=mode,
                mode=mode,
                requests=_requests(process, draw_sizes),
                pattern=process.name,
                classes=self.CLASSES if mode == "roadrunner-user" else (),
            )
            for mode, process in arrivals.items()
        ]
        self.ops = sum(len(tenant.requests) for tenant in tenants)
        self.events_path = os.path.join(self.out_dir, "tenants.events.jsonl")
        self.prom_path = os.path.join(self.out_dir, "tenants.prom")
        self.figure_path = os.path.join(self.out_dir, "tenants.figure.json")
        self.telemetry = Telemetry(
            registry=MetricsRegistry(),
            trace_log=TraceLog(),
            events=JsonlEventWriter(self.events_path),
        )
        self.engine = MultiTenantTrafficEngine(
            tenants,
            config=TrafficConfig(
                nodes=4,
                initial_replicas=self.INITIAL_REPLICAS,
                node_memory_mb=self.NODE_MEMORY_MB,
                retain_records=True,
            ),
            fairness=FairnessPolicy.WFQ_COST,
            intra=IntraTenantOrder.EDF,
            autoscaler_factory=autoscaler_factory("target", min_replicas=0, max_replicas=32),
            telemetry=self.telemetry,
            middleware=build_pipeline(
                ["cache", "coalesce", "hedge"],
                cache_ttl_s=self.CACHE_TTL_S,
                hedge_budget_s=self.HEDGE_BUDGET_S,
                hedge_seed=seed,
            ),
        )

    def execute(self) -> None:
        self.summary = self.engine.run()
        write_prometheus(self.telemetry.registry, self.prom_path)
        self.telemetry.events.close()
        write_figure(multi_tenant_to_figure(self.summary), self.figure_path, fmt="json")

    def evaluate(self) -> Evaluation:
        summary = self.summary
        failures: List[str] = []
        cluster = summary.cluster
        failed = _check_traffic(self.ops, summary.tenants, cluster, failures)

        events = read_jsonl(self.events_path)
        requests = sum(1 for event in events if event.get("event") == "request")
        if requests != cluster.offered:
            failures.append(
                "JSONL holds %d request events for %d offered" % (requests, cluster.offered)
            )
            failed = max(failed, abs(cluster.offered - requests))

        with open(self.figure_path, "r", encoding="utf-8") as handle:
            restored = traffic_from_figure(figure_from_json(handle.read()))
        expected = dict(summary.tenants, cluster=cluster)
        for label, original in expected.items():
            if restored.get(label) != dataclasses.replace(original, replica_timeline=()):
                failures.append("figure JSON does not round-trip row %r" % label)

        with open(self.prom_path, "r", encoding="utf-8") as handle:
            exposition = parse_prometheus(handle.read())
        exported = sum(exposition.get("repro_requests_total", {}).values())
        if exported != cluster.offered:
            failures.append(
                "Prometheus counts %d requests for %d offered" % (exported, cluster.offered)
            )

        stats = summary.middleware
        cache = stats.get("cache", {})
        hedge = stats.get("hedge", {})
        layers = _traffic_layers(cluster)
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        layers["middleware.cache_hit_pct"] = 100.0 * cache.get("hits", 0) / lookups if lookups else 0.0
        layers["middleware.coalesced"] = float(cluster.coalesced)
        layers["middleware.hedge_fired"] = float(hedge.get("fired", 0))
        layers["middleware.hedge_won_pct"] = (
            100.0 * hedge.get("won", 0) / hedge["fired"] if hedge.get("fired") else 0.0
        )
        return Evaluation(
            sim=_traffic_sim(cluster),
            layers=layers,
            failed=failed,
            failures=failures,
            canonical=repr(summary),
        )


# -- federation -----------------------------------------------------------------------


class Federation(Workload):
    """Three WAN-linked regions, six tenants, a regional failure at half-time.

    Two tenants per region (Roadrunner user and kernel space), diurnal
    40-400 rps staggered by a third of the cycle, the least-loaded router
    over an 80 ms / 250 Mbit/s WAN, sketch mode.
    """

    name = "federation"
    REGIONS = ("us-east", "eu-west", "ap-south")
    MODES = ("roadrunner-user", "roadrunner-kernel")
    WAN_RTT_S = 0.080
    WAN_BANDWIDTH_BPS = 250e6 / 8.0

    def prepare(self) -> None:
        duration = self.size["duration_s"]
        tenants: List[TenantSpec] = []
        clusters: List[ClusterSpec] = []
        for index, region in enumerate(self.REGIONS):
            homed = []
            for mode in self.MODES:
                name = "%s-%s" % (region, mode.partition("-")[2])
                process = DiurnalArrivals(
                    peak_rps=400.0,
                    trough_rps=40.0,
                    duration_s=duration,
                    period_s=duration,
                    function=name,
                    seed=derived_seed(self.seed, name),
                    phase_s=index * duration / len(self.REGIONS),
                )
                tenants.append(
                    TenantSpec(
                        name=name, mode=mode, requests=_requests(process), pattern=process.name
                    )
                )
                homed.append(name)
            clusters.append(
                ClusterSpec(region=region, nodes=4, initial_replicas=2, tenants=tuple(homed))
            )
        self.ops = sum(len(tenant.requests) for tenant in tenants)
        self.engine = FederatedTrafficEngine(
            tenants,
            clusters,
            config=TrafficConfig(retain_records=False),
            router="least-loaded",
            wan_rtt_s=self.WAN_RTT_S,
            wan_bandwidth_Bps=self.WAN_BANDWIDTH_BPS,
            fail_at={self.REGIONS[0]: WARM_START_S + duration / 2.0},
        )

    def execute(self) -> None:
        self.summary = self.engine.run()

    def evaluate(self) -> Evaluation:
        summary = self.summary
        failures: List[str] = []
        cluster = summary.cluster
        failed = _check_traffic(self.ops, summary.tenants, cluster, failures)
        for region, region_summary in summary.regions.items():
            for name, tenant in region_summary.tenants.items():
                _check_outcomes("%s/%s" % (region, name), tenant, failures)
            _check_outcomes("region %s" % region, region_summary.cluster, failures)
        regional = sum(region.cluster.offered for region in summary.regions.values())
        if regional != self.ops:
            failures.append("regions count %d of %d requests" % (regional, self.ops))
            failed = max(failed, abs(self.ops - regional))
        router = summary.router
        layers = _traffic_layers(cluster)
        placed = router.local + router.remote
        layers["federation.remote_pct"] = 100.0 * router.remote / placed if placed else 0.0
        layers["federation.spillovers"] = float(router.spillovers)
        layers["federation.failovers"] = float(router.failovers)
        layers["federation.wan_mb"] = router.wan_bytes / MB
        return Evaluation(
            sim=_traffic_sim(cluster),
            layers=layers,
            failed=failed,
            failures=failures,
            canonical=repr(summary),
        )


# -- transfers ------------------------------------------------------------------------


class Transfers(Workload):
    """The paper's own measurement: a->b transfers and fan-outs, no traffic.

    A stratified log-uniform sample of payload sizes (10 KB-500 MB) runs
    across all seven mode/placement combinations of the a->b pair, plus
    seeded fan-outs (degree 2-200, 10 MB) for Roadrunner, RunC and
    WasmEdge.  Payloads are virtual, as the paper's figures use them; every
    delivered payload is checked against the one sent.
    """

    name = "transfers"
    PAIRS = (
        ("roadrunner-user", False),
        ("roadrunner-kernel", False),
        ("runc-http", False),
        ("wasmedge-http", False),
        ("roadrunner-network", True),
        ("runc-http", True),
        ("wasmedge-http", True),
    )
    FANOUT_MODES = ("roadrunner-user", "runc-http", "wasmedge-http")
    LOW_MB = 10.0 / 1024.0
    HIGH_MB = 500.0
    #: Roadrunner vs WasmEdge on the same placement, per grid point.
    CUTS = (
        ("roadrunner-user", "wasmedge-http", False),
        ("roadrunner-network", "wasmedge-http", True),
    )

    def prepare(self) -> None:
        rng = random.Random(derived_seed(self.seed, "transfers"))
        self.sizes_mb = _log_uniform_strata(
            rng, self.size["sizes_per_combo"], self.LOW_MB, self.HIGH_MB
        )
        self.degrees = [
            int(round(degree))
            for degree in _log_uniform_strata(rng, self.size["fanouts_per_runtime"], 2.0, 200.0)
        ]
        self.ops = len(self.PAIRS) * len(self.sizes_mb) + len(self.FANOUT_MODES) * sum(
            self.degrees
        )

    def execute(self) -> None:
        self.pairs: Dict[Tuple[str, bool], list] = {}
        for mode, internode in self.PAIRS:
            self.pairs[(mode, internode)] = [
                run_setup(build_pair_setup(mode, internode=internode), size)
                for size in self.sizes_mb
            ]
        self.fanouts: Dict[str, list] = {
            mode: [
                run_setup(build_fanout_setup(mode, degree=degree), FANOUT_PAYLOAD_MB)
                for degree in self.degrees
            ]
            for mode in self.FANOUT_MODES
        }

    def _verify(self, outcomes: Sequence[TransferOutcome], sent) -> int:
        """How many of ``outcomes`` delivered something other than ``sent``."""
        bad = 0
        for outcome in outcomes:
            try:
                outcome.verify_against(sent)
            except PayloadError:
                bad += 1
        return bad

    def evaluate(self) -> Evaluation:
        failures: List[str] = []
        failed = 0
        for (mode, internode), results in self.pairs.items():
            for size, result in zip(self.sizes_mb, results):
                bad = self._verify(list(result.outcomes.values()), make_payload(size))
                if bad:
                    failures.append("%s%s %.6g MB: payload mismatch" % (
                        mode, " (inter-node)" if internode else "", size))
                    failed += 1
        for mode, results in self.fanouts.items():
            sent = make_payload(FANOUT_PAYLOAD_MB)
            for degree, result in zip(self.degrees, results):
                if len(result.outcomes) != degree:
                    failures.append("%s fan-out %d delivered %d branches" % (
                        mode, degree, len(result.outcomes)))
                    failed += degree
                    continue
                bad = self._verify(list(result.outcomes.values()), sent)
                if bad:
                    failures.append("%s fan-out %d: %d payload mismatches" % (mode, degree, bad))
                    failed += bad

        latencies = [
            result.total_latency_s for results in self.pairs.values() for result in results
        ]
        sim_seconds = sum(latencies) + sum(
            result.total_latency_s for results in self.fanouts.values() for result in results
        )
        sim = {
            "sim_mean_ms": statistics.fmean(latencies) * 1e3,
            "sim_p99_ms": p99(latencies) * 1e3,
            "sim_goodput_rps": self.ops / sim_seconds,
            "sim_served_pct": 100.0 * (self.ops - failed) / self.ops,
            # Transfers carry no deadlines; the repo's convention for a
            # deadline-free run is a met ratio of 1.0.
            "sim_deadline_met_pct": 100.0,
        }

        layers = dict.fromkeys(SIM_LAYER_METRICS, 0.0)
        latency_cuts, serialization_cuts = [], []
        for ours, theirs, internode in self.CUTS:
            for mine, other in zip(self.pairs[(ours, internode)], self.pairs[(theirs, internode)]):
                mine, other = mine.aggregate, other.aggregate
                latency_cuts.append(1.0 - mine.total_latency_s / other.total_latency_s)
                serialization_cuts.append(1.0 - mine.serialization_s / other.serialization_s)
        layers["transfer.rr_latency_cut_pct"] = 100.0 * statistics.median(latency_cuts)
        layers["transfer.serialization_cut_pct"] = 100.0 * statistics.median(serialization_cuts)
        layers["transfer.fanout_tput_x"] = statistics.median(
            rr.throughput_rps / wasm.throughput_rps
            for rr, wasm in zip(self.fanouts["roadrunner-user"], self.fanouts["wasmedge-http"])
        )
        groups = {"rr": [], "runc": [], "wasmedge": []}
        for (mode, _), results in self.pairs.items():
            runtime = "rr" if mode.startswith("roadrunner") else mode.partition("-")[0]
            groups[runtime].extend(result.aggregate for result in results)
        for runtime, metrics in groups.items():
            total = sum(m.total_latency_s for m in metrics)
            prefix = "transfer.%s." % runtime
            layers[prefix + "serialization_share_pct"] = (
                100.0 * sum(m.serialization_s for m in metrics) / total
            )
            layers[prefix + "wasm_io_share_pct"] = 100.0 * sum(m.wasm_io_s for m in metrics) / total
            layers[prefix + "copied_mb"] = statistics.fmean(m.copied_bytes for m in metrics) / MB
            layers[prefix + "syscalls"] = statistics.fmean(m.syscalls for m in metrics)
            layers[prefix + "context_switches"] = statistics.fmean(
                m.context_switches for m in metrics
            )

        canonical = repr(
            [
                [(result.total_latency_s, result.aggregate) for result in results]
                for results in self.pairs.values()
            ]
            + [
                [(result.total_latency_s, result.mean_branch_latency_s) for result in results]
                for results in self.fanouts.values()
            ]
        )
        return Evaluation(sim=sim, layers=layers, failed=failed, failures=failures, canonical=canonical)


WORKLOADS = {cls.name: cls for cls in (Steady, Tenants, Federation, Transfers)}
