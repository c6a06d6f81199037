"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``figures``   regenerate the paper's figures (optionally the full sweeps) and
              print them, or export them to CSV/JSON files.
``claims``    evaluate the headline claims (paper vs measured) as a table.
``select``    run the dynamic runtime selector on a workflow profile.
``traffic``   drive a sustained arrival stream (Poisson/bursty/diurnal) against
              several runtimes with autoscaling and print the SLO report;
              with ``--tenants`` drive several tenants concurrently over one
              shared cluster with weighted fair queueing at the gateway;
              with ``--middleware`` thread every request through a composable
              gateway pipeline (auth / rate-limit / cache / coalesce /
              hedge) and print per-stage counters;
              with ``--classes`` stamp deadline/priority scheduling classes
              onto the stream (EDF dispatch within a tenant's queue); with
              ``--compare-policies`` run the same seeded arrivals under
              several scaling policies and print/export the comparison;
              with ``--trace-file`` replay an Azure Functions invocations-
              per-minute trace.  Compared ``--modes`` or
              ``--compare-policies`` simulations run one after another.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

import repro
from repro.experiments.claims import evaluate_claims, render_claims
from repro.experiments.runner import render_all, run_all
from repro.gateway.middleware import (
    STAGE_NAMES,
    MiddlewareError,
    MiddlewarePipeline,
    build_pipeline,
)
from repro.metrics.export import (
    federation_to_figure,
    multi_tenant_to_figure,
    node_usage_to_figure,
    policies_to_figure,
    traffic_to_figure,
    write_figure,
)
from repro.metrics.timeline import export_federation_trace, export_traffic_trace
from repro.obs import (
    JsonlEventWriter,
    MetricsRegistry,
    ProgressReporter,
    Telemetry,
    TraceLog,
    write_prometheus,
)
from repro.platform.gateway import FairnessPolicy, IntraTenantOrder
from repro.platform.runtime_selector import RuntimeSelector, WorkflowProfile
from repro.sim.costs import DEFAULT_COST_MODEL, MiB
from repro.traffic.arrivals import ARRIVAL_PATTERNS, load_azure_trace, make_arrivals
from repro.traffic.autoscaler import AutoscalerError
from repro.traffic.classes import RequestClassError, assign_classes, parse_classes
from repro.traffic.engine import (
    TRAFFIC_MODES,
    MultiTenantTrafficEngine,
    TrafficConfig,
    TrafficEngineError,
    run_comparison,
)
from repro.traffic.federation import (
    ROUTER_POLICIES,
    FederatedTrafficEngine,
    parse_clusters,
    parse_fail_spec,
)
from repro.traffic.policies import (
    SCALING_POLICIES,
    autoscaler_factory,
    compare_scaling_policies,
    policy_cluster_summaries,
)
from repro.traffic.report import (
    render_federation_report,
    render_middleware_table,
    render_multi_tenant_report,
    render_policy_comparison,
    render_traffic_report,
    render_waterfall_table,
)
from repro.traffic.cluster_runtime import max_payload_bytes
from repro.traffic.tenants import TenantError, TenantSpec, derived_seed, parse_tenants
from repro.wasm.linear_memory import OutOfMemoryError
from repro.workloads.generators import FANOUT_PAYLOAD_MB


def _cmd_figures(args: argparse.Namespace) -> int:
    results = run_all(quick=not args.full)
    if args.export_dir:
        os.makedirs(args.export_dir, exist_ok=True)
        for name, result in sorted(results.items()):
            path = os.path.join(args.export_dir, "%s.%s" % (name, args.format))
            write_figure(result, path, fmt=args.format)
            print("wrote %s" % path)
        return 0
    print(render_all(results))
    return 0


def _payload_bytes(payload_mb: float) -> int:
    """``--payload-mb`` of ``claims`` and ``select`` in bytes.

    Both commands move the payload through a WasmEdge chain, the Wasm mode
    that holds the most per payload byte, so its :func:`max_payload_bytes`
    bounds the flag.  Raises ``ValueError`` outside ``[1 byte, bound]``.
    """
    payload_bytes = int(payload_mb * MiB)
    if payload_bytes < 1:
        raise ValueError("--payload-mb must be at least one byte, got %r" % payload_mb)
    largest = max_payload_bytes("wasmedge-http", DEFAULT_COST_MODEL)
    if payload_bytes > largest:
        raise ValueError(
            "--payload-mb %r exceeds the largest wasmedge-http payload, %r MB (%d bytes)"
            % (payload_mb, largest / MiB, largest)
        )
    return payload_bytes


def _cmd_claims(args: argparse.Namespace) -> int:
    try:
        _payload_bytes(args.payload_mb)
        if args.fanout < 1:
            raise ValueError("--fanout must be at least 1, got %d" % args.fanout)
    except ValueError as exc:
        print("invalid claims parameters: %s" % exc, file=sys.stderr)
        return 2
    try:
        checks = evaluate_claims(payload_mb=args.payload_mb, fanout_degree=args.fanout)
    except OutOfMemoryError as exc:
        print(
            "invalid claims parameters: a %d-branch fan-out of %g MB does not fit in "
            "a Wasm linear memory (%s)" % (args.fanout, FANOUT_PAYLOAD_MB, exc),
            file=sys.stderr,
        )
        return 2
    print(render_claims(checks))
    return 0 if all(c.satisfied for c in checks) else 1


def _cmd_select(args: argparse.Namespace) -> int:
    try:
        profile = WorkflowProfile(
            payload_bytes=_payload_bytes(args.payload_mb),
            hops=args.hops,
            cold_start_fraction=args.cold_start_fraction,
            colocatable=not args.remote,
        )
    except ValueError as exc:
        print("invalid select parameters: %s" % exc, file=sys.stderr)
        return 2
    recommendation = RuntimeSelector().recommend(profile)
    print("Recommended runtime      : %s" % recommendation.runtime.value)
    print("Recommended data passing : %s" % recommendation.data_passing.value)
    print("Estimated latency        : %.6f s/invocation" % recommendation.estimated_latency_s)
    print("Rationale                : %s" % recommendation.rationale)
    print("\nPer-candidate estimates:")
    for name, value in sorted(recommendation.per_candidate_latency_s.items(), key=lambda kv: kv[1]):
        print("  %-26s %.6f s" % (name, value))
    return 0


def _make_arrivals(args: argparse.Namespace):
    if getattr(args, "trace_file", None):
        return load_azure_trace(
            args.trace_file,
            payload_mb=args.payload_mb,
            max_minutes=args.trace_minutes,
        )
    return make_arrivals(
        args.pattern,
        args.rps,
        args.duration,
        on_s=args.burst_on,
        off_s=args.burst_off,
        period_s=args.diurnal_period,
        payload_mb=args.payload_mb,
        seed=args.seed,
    )


def _tenant_list(
    args: argparse.Namespace, classes
) -> Tuple[List[TenantSpec], IntraTenantOrder]:
    """The run's tenants and their intra-tenant dispatch order.

    ``--tenants`` parses into several tenants, which inherit ``--duration``
    and the first ``--modes`` entry unless they pin their own keys; without
    it the run's one arrival stream becomes the single tenant ``app``.
    Tenants may declare their own class mixes: those enable the EDF default
    exactly like a global ``--classes`` does.
    """
    default_mode = args.modes.split(",")[0].strip() or "roadrunner-user"
    if args.tenants:
        tenants = parse_tenants(
            args.tenants,
            default_mode=default_mode,
            base_seed=args.seed,
            default_duration=args.duration,
            default_classes=classes,
        )
    else:
        tenants = [
            TenantSpec(
                name="app",
                mode=default_mode,
                arrivals=_make_arrivals(args),
                classes=classes,
                pattern=args.pattern,
            )
        ]
    classes_in_play = bool(classes) or any(tenant.classes for tenant in tenants)
    return tenants, _intra_order(args, classes_in_play)


def _policy_kwargs(args: argparse.Namespace) -> dict:
    return dict(
        target_concurrency=args.target_concurrency,
        fixed_replicas=args.fixed_replicas,
        step=args.step,
        high_utilisation=args.high_utilisation,
        low_utilisation=args.low_utilisation,
        cooldown_s=args.cooldown,
        horizon_s=args.horizon,
    )


def _autoscaler_factory(args: argparse.Namespace, policy_name: str):
    return autoscaler_factory(
        policy_name,
        min_replicas=args.min_replicas,
        max_replicas=args.max_replicas,
        keep_alive_s=args.keep_alive,
        control_interval_s=args.control_interval,
        **_policy_kwargs(args),
    )


def _build_middleware(args: argparse.Namespace) -> Optional[MiddlewarePipeline]:
    """One fresh gateway pipeline from ``--middleware cache,coalesce,...``.

    Returns ``None`` when no stages were requested, so pipeline-free runs
    take exactly the pre-middleware code path (byte-identical output).
    Called once per compared mode: stage state (cache entries, token
    buckets, hedge RNG) must never leak across runs.
    """
    names = [name.strip() for name in (args.middleware or "").split(",") if name.strip()]
    if not names:
        return None
    allow = None
    if args.auth_allow:
        allow = [t.strip() for t in args.auth_allow.split(",") if t.strip()]
    return build_pipeline(
        names,
        cache_ttl_s=args.cache_ttl,
        cache_capacity=args.cache_capacity,
        cache_hit_latency_s=args.cache_hit_latency,
        rate_limit_rps=args.rate_limit_rps,
        rate_limit_burst=args.rate_limit_burst,
        hedge_budget_s=args.hedge_budget,
        hedge_straggler_prob=args.hedge_straggler_prob,
        hedge_straggler_factor=args.hedge_straggler_factor,
        hedge_seed=args.seed,
        auth_allow=allow,
        auth_quota=args.auth_quota,
    )


def _intra_order(args: argparse.Namespace, classes_in_play: bool) -> IntraTenantOrder:
    """EDF when classes are in play, unless --class-order pins it."""
    if args.class_order:
        return IntraTenantOrder(args.class_order)
    return IntraTenantOrder.EDF if classes_in_play else IntraTenantOrder.FIFO


def _wants_telemetry(args: argparse.Namespace) -> bool:
    return bool(args.metrics_out or args.trace_out or args.events_out or args.progress)


def _suffixed(path: str, tag: str) -> str:
    """``out.json`` + tag ``runc-http`` -> ``out-runc-http.json``."""
    if not tag:
        return path
    root, ext = os.path.splitext(path)
    return "%s-%s%s" % (root, tag, ext)


def _build_telemetry(args: argparse.Namespace, tag: str = "") -> Optional[Telemetry]:
    """One telemetry stack for one run (per mode in a comparison)."""
    if not _wants_telemetry(args):
        return None
    return Telemetry(
        trace_log=TraceLog() if args.trace_out else None,
        events=JsonlEventWriter(_suffixed(args.events_out, tag)) if args.events_out else None,
        progress=ProgressReporter(interval_s=args.progress_interval) if args.progress else None,
    )


def _drain_telemetry(args: argparse.Namespace, telemetry: Optional[Telemetry], tag: str = "") -> List[str]:
    """Write the run's telemetry exports; returns the paths written."""
    if telemetry is None:
        return []
    written: List[str] = []
    if args.metrics_out:
        written.append(write_prometheus(telemetry.registry, _suffixed(args.metrics_out, tag)))
    if args.trace_out and telemetry.trace_log is not None:
        written.append(
            export_traffic_trace(_suffixed(args.trace_out, tag), telemetry.trace_log.traces)
        )
    if telemetry.events is not None:
        if telemetry.events.path:
            written.append(telemetry.events.path)
        telemetry.events.close()
    for path in written:
        print("wrote %s" % path)
    return written


def _write_manifest(args: argparse.Namespace, outputs: List[str], started_wall: float) -> Optional[str]:
    """Provenance next to the exports: resolved config, seed, version, timing."""
    if not outputs:
        return None
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key != "handler" and not callable(value)
    }
    manifest = {
        "command": "traffic",
        "config": config,
        "seed": args.seed,
        "version": repro.__version__,
        "wall_seconds": round(time.time() - started_wall, 3),
        "outputs": [os.path.abspath(path) for path in outputs],
    }
    path = os.path.join(os.path.dirname(os.path.abspath(outputs[0])), "manifest.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _note_ignored(flag: str, runs: str) -> None:
    print("note: %s is not wired into %s runs; ignoring it" % (flag, runs), file=sys.stderr)


def _cmd_traffic(args: argparse.Namespace) -> int:
    if args.fail_region and not args.clusters:
        print(
            "invalid traffic parameters: --fail-region needs --clusters "
            "(a single-cluster run has no region to fail)",
            file=sys.stderr,
        )
        return 2
    try:
        classes = parse_classes(args.classes) if args.classes else ()
    except RequestClassError as exc:
        print("invalid --classes: %s" % exc, file=sys.stderr)
        return 2
    try:
        _build_middleware(args)  # validate stage names before any run starts
    except MiddlewareError as exc:
        print("invalid --middleware: %s" % exc, file=sys.stderr)
        return 2
    started_wall = time.time()
    intra = _intra_order(args, bool(classes))
    factory = _autoscaler_factory(args, args.scaling_policy)

    config_kwargs = dict(
        nodes=args.nodes,
        initial_replicas=args.initial_replicas,
        queue_timeout_s=args.timeout,
        retain_records=not args.sketch_mode,
        node_memory_mb=args.node_memory_mb,
        replica_rss_mb=args.replica_rss_mb,
        pressure_knee=args.pressure_knee,
    )

    if args.tenants and args.trace_file:
        _note_ignored("--trace-file", "--tenants")

    if args.compare_policies:
        if _wants_telemetry(args):
            print(
                "note: --metrics-out/--trace-out/--events-out/--progress are not "
                "wired into --compare-policies runs; ignoring them",
                file=sys.stderr,
            )
        if args.middleware:
            _note_ignored("--middleware", "--compare-policies")
        if args.clusters:
            _note_ignored("--clusters", "--compare-policies")
        if args.export_nodes:
            _note_ignored("--export-nodes", "--compare-policies")
        return _cmd_compare_policies(args, classes, config_kwargs, started_wall)

    if args.clusters:
        if args.export_nodes:
            _note_ignored("--export-nodes", "--clusters")
        if args.progress:
            _note_ignored("--progress", "--clusters")
        return _cmd_federation(args, classes, config_kwargs, factory, started_wall)

    if args.tenants:
        # Multi-tenant path: several named functions over one shared cluster,
        # with weighted fair queueing (or FIFO) at the gateway.
        try:
            tenants, intra = _tenant_list(args, classes)
            telemetry = _build_telemetry(args)
            engine = MultiTenantTrafficEngine(
                tenants,
                config=TrafficConfig(**config_kwargs),
                fairness=FairnessPolicy(args.fairness),
                starvation_guard=args.starvation_guard,
                autoscaler_factory=factory,
                oversubscription=args.oversubscription,
                intra=intra,
                telemetry=telemetry,
                middleware=_build_middleware(args),
            )
            result = engine.run()
        except (ValueError, TenantError, TrafficEngineError) as exc:
            print("invalid traffic parameters: %s" % exc, file=sys.stderr)
            return 2
        print(render_multi_tenant_report(result))
        if engine.waterfall:
            print()
            print(render_waterfall_table(engine.waterfall))
        outputs = _drain_telemetry(args, telemetry)
        if args.export:
            path = write_figure(multi_tenant_to_figure(result), args.export, fmt=args.format)
            outputs.append(path)
            print("\nwrote %s" % path)
        if args.export_nodes:
            path = write_figure(node_usage_to_figure(result), args.export_nodes, fmt=args.format)
            outputs.append(path)
            print("wrote %s" % path)
        manifest = _write_manifest(args, outputs, started_wall)
        if manifest:
            print("wrote %s" % manifest)
        return 0

    modes = [mode.strip() for mode in args.modes.split(",") if mode.strip()]
    if not modes:
        print("--modes needs at least one runtime (e.g. %s)" % TRAFFIC_MODES[0], file=sys.stderr)
        return 2
    unknown = [mode for mode in modes if mode not in TRAFFIC_MODES]
    if unknown:
        print(
            "unknown mode(s) %s; choose from %s" % (", ".join(unknown), ", ".join(TRAFFIC_MODES)),
            file=sys.stderr,
        )
        return 2
    if args.export_nodes:
        _note_ignored("--export-nodes", "--modes")
    wants_telemetry = _wants_telemetry(args)
    # Per-mode telemetry stacks: export files get a -<mode> suffix when the
    # comparison covers more than one runtime.
    telemetries: Dict[str, Optional[Telemetry]] = {}

    def telemetry_for(mode: str) -> Telemetry:
        tag = mode if len(modes) > 1 else ""
        telemetries[mode] = _build_telemetry(args, tag)
        return telemetries[mode]

    waterfalls: Dict[str, List] = {}
    middleware_stats: Dict[str, Dict[str, Dict[str, int]]] = {}
    try:
        requests = _make_arrivals(args).generate()
        if classes:
            requests = assign_classes(
                requests, classes, seed=derived_seed(args.seed, "cli/classes")
            )
        results = run_comparison(
            requests,
            modes=modes,
            autoscaler_factory=factory,
            config=TrafficConfig(**config_kwargs),
            pattern="azure" if args.trace_file else args.pattern,
            intra=intra,
            telemetry_factory=telemetry_for if wants_telemetry else None,
            waterfalls_out=waterfalls,
            middleware_factory=(lambda mode: _build_middleware(args)) if args.middleware else None,
            middleware_out=middleware_stats,
        )
    except (ValueError, TrafficEngineError) as exc:
        print("invalid traffic parameters: %s" % exc, file=sys.stderr)
        return 2
    print(render_traffic_report(results))
    for mode in modes:
        stats = middleware_stats.get(mode, {})
        if any(stats.values()):
            print()
            title = "Gateway middleware (per-stage counters)"
            if len(modes) > 1:
                title += " — %s" % mode
            print(render_middleware_table(stats, title=title))
    waterfall_rows = [row for mode in modes for row in waterfalls.get(mode, [])]
    if waterfall_rows:
        print()
        print(render_waterfall_table(waterfall_rows))
    outputs: List[str] = []
    for mode in modes:
        tag = mode if len(modes) > 1 else ""
        outputs.extend(_drain_telemetry(args, telemetries.get(mode), tag))
    if args.export:
        figure = traffic_to_figure(results, x_label="mode")
        path = write_figure(figure, args.export, fmt=args.format)
        outputs.append(path)
        print("\nwrote %s" % path)
    manifest = _write_manifest(args, outputs, started_wall)
    if manifest:
        print("wrote %s" % manifest)
    return 0


def _cmd_federation(
    args: argparse.Namespace,
    classes,
    config_kwargs: dict,
    factory,
    started_wall: float,
) -> int:
    """Multi-region run: --clusters JSON, a global router, optional WAN/failures."""
    try:
        clusters = parse_clusters(args.clusters)
        fail_at: Dict[str, float] = {}
        for spec in args.fail_region or []:
            region, time_s = parse_fail_spec(spec)
            fail_at[region] = time_s
        tenants, intra = _tenant_list(args, classes)
        wants_telemetry = _wants_telemetry(args)
        # One telemetry stack per region over ONE shared registry: every
        # family carries a region label, so --metrics-out stays a single
        # Prometheus snapshot with per-region children.
        shared_registry = MetricsRegistry() if wants_telemetry else None

        def telemetry_for(region: str) -> Telemetry:
            return Telemetry(
                registry=shared_registry,
                trace_log=TraceLog() if args.trace_out else None,
                events=(
                    JsonlEventWriter(_suffixed(args.events_out, region))
                    if args.events_out
                    else None
                ),
                region=region,
            )

        engine = FederatedTrafficEngine(
            tenants,
            clusters,
            config=TrafficConfig(**config_kwargs),
            fairness=FairnessPolicy(args.fairness),
            starvation_guard=args.starvation_guard,
            autoscaler_factory=factory,
            oversubscription=args.oversubscription,
            intra=intra,
            router=args.global_router,
            router_seed=args.seed,
            wan_rtt_s=args.wan_ms / 1000.0 if args.wan_ms is not None else None,
            wan_bandwidth_Bps=(
                args.wan_mbps * 1e6 / 8.0 if args.wan_mbps is not None else None
            ),
            telemetry_factory=telemetry_for if wants_telemetry else None,
            middleware_factory=(
                (lambda region: _build_middleware(args)) if args.middleware else None
            ),
            fail_at=fail_at or None,
        )
        summary = engine.run()
    except (ValueError, TenantError, TrafficEngineError, AutoscalerError) as exc:
        print("invalid traffic parameters: %s" % exc, file=sys.stderr)
        return 2
    print(render_federation_report(summary))
    outputs: List[str] = []
    for region, telemetry in engine.telemetries.items():
        if telemetry.events is not None:
            if telemetry.events.path:
                outputs.append(telemetry.events.path)
            telemetry.events.close()
    if args.metrics_out and shared_registry is not None:
        outputs.append(write_prometheus(shared_registry, args.metrics_out))
    if args.trace_out and engine.telemetries:
        traces = {
            region: telemetry.trace_log.traces
            for region, telemetry in engine.telemetries.items()
            if telemetry.trace_log is not None
        }
        outputs.append(export_federation_trace(args.trace_out, traces))
    for path in outputs:
        print("wrote %s" % path)
    if args.export:
        path = write_figure(federation_to_figure(summary), args.export, fmt=args.format)
        outputs.append(path)
        print("\nwrote %s" % path)
    manifest = _write_manifest(args, outputs, started_wall)
    if manifest:
        print("wrote %s" % manifest)
    return 0


def _cmd_compare_policies(
    args: argparse.Namespace, classes, config_kwargs: dict, started_wall: float
) -> int:
    """Run the same seeded arrivals under each --compare-policies policy."""
    names = [name.strip() for name in args.compare_policies.split(",") if name.strip()]
    if not names:
        print("--compare-policies needs at least one policy", file=sys.stderr)
        return 2
    unknown = [name for name in names if name not in SCALING_POLICIES]
    if unknown:
        print(
            "unknown scaling polic%s %s; choose from %s"
            % ("y" if len(unknown) == 1 else "ies", ", ".join(unknown), ", ".join(SCALING_POLICIES)),
            file=sys.stderr,
        )
        return 2
    try:
        tenants, intra = _tenant_list(args, classes)
        results = compare_scaling_policies(
            tenants,
            {name: _autoscaler_factory(args, name) for name in names},
            config=TrafficConfig(**config_kwargs),
            fairness=FairnessPolicy(args.fairness),
            starvation_guard=args.starvation_guard,
            intra=intra,
            oversubscription=args.oversubscription,
        )
    except (ValueError, TenantError, TrafficEngineError, AutoscalerError) as exc:
        print("invalid traffic parameters: %s" % exc, file=sys.stderr)
        return 2
    clusters = policy_cluster_summaries(results)
    print(render_policy_comparison(clusters))
    outputs: List[str] = []
    if args.export:
        path = write_figure(policies_to_figure(clusters), args.export, fmt=args.format)
        outputs.append(path)
        print("\nwrote %s" % path)
    manifest = _write_manifest(args, outputs, started_wall)
    if manifest:
        print("wrote %s" % manifest)
    return 0


def _finite_float(text: str) -> float:
    """argparse type for numeric flags: a float that is neither NaN nor ±inf.

    ``float()`` accepts ``nan`` and ``inf``, which no traffic knob can take:
    a NaN rate or an infinite duration never ends the arrival stream, and an
    infinite payload overflows the byte count.  argparse names the flag and
    exits with status 2.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid number: %r" % text) from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be a finite number, got %r" % text)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    figures = subparsers.add_parser("figures", help="regenerate the paper's figures")
    figures.add_argument("--full", action="store_true", help="run the full sweeps")
    figures.add_argument("--export-dir", help="write one file per figure instead of printing")
    figures.add_argument("--format", choices=("csv", "json", "txt"), default="csv")
    figures.set_defaults(handler=_cmd_figures)

    claims = subparsers.add_parser("claims", help="evaluate the headline claims")
    claims.add_argument("--payload-mb", type=_finite_float, default=100.0)
    claims.add_argument("--fanout", type=int, default=50)
    claims.set_defaults(handler=_cmd_claims)

    select = subparsers.add_parser("select", help="run the dynamic runtime selector")
    select.add_argument("--payload-mb", type=_finite_float, default=10.0)
    select.add_argument("--hops", type=int, default=1)
    select.add_argument("--cold-start-fraction", type=_finite_float, default=0.01)
    select.add_argument("--remote", action="store_true", help="stages cannot be colocated")
    select.set_defaults(handler=_cmd_select)

    traffic = subparsers.add_parser(
        "traffic", help="sustained arrival streams with autoscaling across runtimes"
    )
    traffic.add_argument("--pattern", choices=ARRIVAL_PATTERNS, default="poisson")
    traffic.add_argument("--rps", type=_finite_float, default=50.0, help="arrival rate (peak rate for bursty/diurnal)")
    traffic.add_argument("--duration", type=_finite_float, default=60.0, help="simulated seconds of arrivals")
    traffic.add_argument("--payload-mb", type=_finite_float, default=1.0)
    traffic.add_argument("--seed", type=int, default=0)
    traffic.add_argument(
        "--modes",
        default="roadrunner-user,runc-http",
        help="comma-separated runtimes to compare under the same arrivals",
    )
    traffic.add_argument(
        "--scaling-policy", choices=SCALING_POLICIES, default="target",
        help="autoscaling policy: "
        "target (Knative-style reactive), fixed, none, step (threshold bands "
        "with --cooldown), predictive (Holt arrival-rate forecast pre-warming "
        "--horizon seconds ahead)",
    )
    traffic.add_argument(
        "--compare-policies", metavar="LIST",
        help="run the SAME seeded arrivals once per comma-separated policy "
        "(e.g. 'target,step,predictive') and print/export one comparison "
        "figure: p99, deadline-met ratio, cold starts, replica-seconds",
    )
    traffic.add_argument("--target-concurrency", type=_finite_float, default=1.0)
    traffic.add_argument("--fixed-replicas", type=int, default=4)
    traffic.add_argument("--step", type=int, default=1, help="step policy: replicas per action")
    traffic.add_argument(
        "--high-utilisation", type=_finite_float, default=2.0,
        help="step policy: scale up above this demand per replica",
    )
    traffic.add_argument(
        "--low-utilisation", type=_finite_float, default=0.5,
        help="step policy: scale down below this demand per replica",
    )
    traffic.add_argument(
        "--cooldown", type=_finite_float, default=10.0,
        help="step policy: seconds between scaling actions",
    )
    traffic.add_argument(
        "--horizon", type=_finite_float, default=10.0,
        help="predictive policy: seconds of arrival-rate forecast to pre-warm for",
    )
    traffic.add_argument("--min-replicas", type=int, default=1)
    traffic.add_argument("--max-replicas", type=int, default=64)
    traffic.add_argument("--keep-alive", type=_finite_float, default=30.0, help="idle seconds before scale-down")
    traffic.add_argument("--control-interval", type=_finite_float, default=1.0, help="autoscaler tick period")
    traffic.add_argument("--initial-replicas", type=int, default=1)
    traffic.add_argument("--nodes", type=int, default=4)
    traffic.add_argument("--timeout", type=_finite_float, default=30.0, help="queueing timeout per request")
    traffic.add_argument(
        "--node-memory-mb", type=_finite_float, default=0.0,
        help="per-node RSS budget in MB; 0 (default) disables the memory "
        "model entirely, keeping every output byte-identical to a "
        "memory-free run.  With a budget, replicas carry their runtime "
        "profile's RSS (or --replica-rss-mb / the tenant's rss_mb key), "
        "keep-alives shrink under pressure, services inflate past the "
        "knee, and the OOM evictor kills the coldest idle replica on an "
        "over-budget node",
    )
    traffic.add_argument(
        "--replica-rss-mb", type=_finite_float, default=None,
        help="override the per-replica RSS (MB) for every tenant; default "
        "is the runtime profile's baseline (container for runc-http, Wasm "
        "otherwise)",
    )
    traffic.add_argument(
        "--pressure-knee", type=_finite_float, default=0.85,
        help="fraction of the node memory budget above which service "
        "times inflate (only with --node-memory-mb)",
    )
    traffic.add_argument(
        "--trace-file", metavar="PATH",
        help="replay an Azure Functions invocations-per-minute CSV as the "
        "arrival stream (overrides --pattern/--rps/--duration); payload "
        "size comes from --payload-mb; --tenants runs ignore it with a note",
    )
    traffic.add_argument(
        "--trace-minutes", type=int, default=None,
        help="with --trace-file: only replay the first N minutes of the trace",
    )
    traffic.add_argument("--burst-on", type=_finite_float, default=5.0, help="bursty: seconds per on-window")
    traffic.add_argument("--burst-off", type=_finite_float, default=15.0, help="bursty: silent seconds between bursts")
    traffic.add_argument("--diurnal-period", type=_finite_float, default=60.0, help="diurnal: seconds per cycle")
    traffic.add_argument(
        "--tenants",
        help="multi-tenant run over one shared cluster: a JSON array (inline or a "
        "file path) of tenant objects, e.g. "
        '\'[{"name": "steady", "pattern": "poisson", "rps": 20, "weight": 3}, '
        '{"name": "noisy", "pattern": "bursty", "rps": 300, "weight": 1}]\'; '
        "keys: name, pattern, rps, duration, payload_mb, seed (derived from "
        "--seed and the name when omitted), weight, mode, burst_on, burst_off, "
        "period, trough_rps",
    )
    traffic.add_argument(
        "--clusters", metavar="JSON",
        help="federated multi-region run: a JSON array (inline or a file path) "
        "of cluster objects, e.g. "
        '\'[{"region": "eu-west", "nodes": 4, "tenants": ["steady"]}, '
        '{"region": "us-east", "nodes": 2}]\'; '
        "keys: region, nodes, memory_mb, initial_replicas, concurrency, "
        "tenants (names homed there; unlisted tenants land in the first "
        "cluster).  Arrivals enter at each tenant's home region and the "
        "--global-router places them; remote placements pay the WAN "
        "(--wan-ms/--wan-mbps)",
    )
    traffic.add_argument(
        "--global-router", choices=ROUTER_POLICIES, default="locality",
        help="federated placement policy: locality (home region unless "
        "saturated/failed), least-loaded (global queue+flight minimum), "
        "warmth (most warm idle replicas), data-gravity (sticky per "
        "tenant+payload), random (seeded baseline); spillover to the "
        "next-best region on saturation or regional failure",
    )
    traffic.add_argument(
        "--wan-ms", type=_finite_float, default=None,
        help="federated runs: WAN round-trip time between any two regions, "
        "in milliseconds (default: the net model's WAN profile)",
    )
    traffic.add_argument(
        "--wan-mbps", type=_finite_float, default=None,
        help="federated runs: WAN bandwidth between any two regions, in "
        "megabits per second (default: the net model's WAN profile)",
    )
    traffic.add_argument(
        "--fail-region", action="append", metavar="REGION@SECONDS",
        help="federated runs: fail the named region at the given simulated "
        "time (repeatable), e.g. --fail-region eu-west@30; queued and "
        "in-flight-to-the-region requests fail over across the WAN",
    )
    traffic.add_argument(
        "--classes",
        help="scheduling classes stamped onto the stream: a JSON array (inline "
        "or a file path) of class objects, e.g. "
        '\'[{"name": "interactive", "share": 0.5, "priority": 0, "deadline": 2.0}, '
        '{"name": "batch", "share": 0.5, "priority": 1}]\'; '
        "keys: name, share (mix weight), priority (lower dispatches first), "
        "deadline (relative seconds, soft).  Tenants may override with their "
        "own 'classes' key; enables EDF dispatch unless --class-order fifo",
    )
    traffic.add_argument(
        "--class-order",
        choices=[order.value for order in IntraTenantOrder],
        default=None,
        help="intra-tenant dispatch order: edf (priority tiers, earliest "
        "deadline first) or fifo (arrival order); default edf when classes "
        "are given, fifo otherwise",
    )
    traffic.add_argument(
        "--fairness",
        choices=[policy.value for policy in FairnessPolicy],
        default=FairnessPolicy.WFQ.value,
        help="multi-tenant dispatch order at the gateway: fifo, wfq (one "
        "virtual unit per request) or wfq-cost (tags advance by the "
        "tenant's EWMA service cost — fair core *time* under unequal "
        "payload sizes); default: wfq",
    )
    traffic.add_argument(
        "--starvation-guard", type=int, default=32,
        help="WFQ: serve any tenant passed over this many consecutive dispatches",
    )
    traffic.add_argument(
        "--oversubscription", type=_finite_float, default=2.0,
        help="multi-tenant: replica slots per core (pools overlap on cores above 1.0)",
    )
    traffic.add_argument(
        "--middleware", metavar="LIST",
        help="comma-separated gateway middleware stages threaded around every "
        "request, in execution order (choose from %s): auth/quota rejection, "
        "per-tenant token-bucket rate limiting, TTL response caching, "
        "duplicate-request coalescing (N identical concurrent requests -> 1 "
        "backend invocation), hedged retries near the latency budget.  "
        "Per-stage counters are printed after the report and exported via "
        "--metrics-out/--events-out" % ", ".join(STAGE_NAMES),
    )
    traffic.add_argument(
        "--cache-ttl", type=_finite_float, default=60.0,
        help="cache stage: seconds a cached response stays fresh",
    )
    traffic.add_argument(
        "--cache-capacity", type=int, default=4096,
        help="cache stage: max entries before LRU eviction",
    )
    traffic.add_argument(
        "--cache-hit-latency", type=_finite_float, default=0.0,
        help="cache stage: seconds a cache hit takes to serve",
    )
    traffic.add_argument(
        "--rate-limit-rps", type=_finite_float, default=50.0,
        help="rate-limit stage: sustained tokens per second per tenant",
    )
    traffic.add_argument(
        "--rate-limit-burst", type=_finite_float, default=None,
        help="rate-limit stage: bucket depth (default: one second of rate)",
    )
    traffic.add_argument(
        "--hedge-budget", type=_finite_float, default=1.0,
        help="hedge stage: latency budget (s); a second attempt fires on a "
        "spare replica when the primary attempt threatens it",
    )
    traffic.add_argument(
        "--hedge-straggler-prob", type=_finite_float, default=0.05,
        help="hedge stage: fraction of attempts that straggle",
    )
    traffic.add_argument(
        "--hedge-straggler-factor", type=_finite_float, default=4.0,
        help="hedge stage: service-time multiplier for stragglers",
    )
    traffic.add_argument(
        "--auth-allow", metavar="LIST",
        help="auth stage: comma-separated tenants allowed through "
        "(default: all tenants)",
    )
    traffic.add_argument(
        "--auth-quota", type=int, default=None,
        help="auth stage: max admitted requests per tenant for the whole run",
    )
    traffic.add_argument(
        "--sketch-mode", action="store_true",
        help="streaming summaries: fold every request into log-histogram "
        "quantile sketches instead of retaining per-request records — constant "
        "memory however long the run, percentiles estimated (typically "
        "within 1%% at 100k requests)",
    )
    traffic.add_argument(
        "--metrics-out", metavar="PATH",
        help="write a Prometheus text-exposition snapshot of the run's "
        "metrics registry (counters, gauges, quantile summaries); one file "
        "per mode (suffixed -<mode>) when comparing several",
    )
    traffic.add_argument(
        "--trace-out", metavar="PATH",
        help="write the request-lifecycle trace as Perfetto/Chrome trace "
        "JSON: per-request async tracks with nested queue / cold-start / "
        "service slices, one process per node",
    )
    traffic.add_argument(
        "--events-out", metavar="PATH",
        help="stream structured JSONL events (run start/end, every request "
        "outcome with stage durations, every scaling action) to PATH",
    )
    traffic.add_argument(
        "--progress", action="store_true",
        help="print a heartbeat line (simulated time, requests/s, replicas, "
        "wall time) to stderr while the run executes; --clusters runs "
        "ignore it with a note",
    )
    traffic.add_argument(
        "--progress-interval", type=_finite_float, default=10.0,
        help="simulated seconds between --progress heartbeats",
    )
    traffic.add_argument(
        "--export", metavar="PATH",
        help="also write the summaries via repro.metrics.export (CSV/JSON like figures)",
    )
    traffic.add_argument(
        "--export-nodes", metavar="PATH",
        help="--tenants runs on one cluster: also write the per-node "
        "ledger-shard usage figure (charges, seconds, CPU, peak RAM per "
        "node); other runs ignore it with a note",
    )
    traffic.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="format for --export")
    traffic.add_argument(
        "--profile", metavar="PATH", dest="profile_out",
        help="run under cProfile and dump pstats data to PATH (load with "
        "python -m pstats, snakeviz, etc.); a cumulative-time top-25 is "
        "printed to stderr after the run",
    )
    traffic.set_defaults(handler=_cmd_traffic)
    return parser


def _run_profiled(handler, args: argparse.Namespace, path: str) -> int:
    """Run ``handler(args)`` under cProfile, dumping pstats data to ``path``."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        status = handler(args)
    finally:
        profiler.disable()
        profiler.dump_stats(path)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(25)
        print("wrote %s" % path, file=sys.stderr)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "profile_out", None):
        return _run_profiled(args.handler, args, args.profile_out)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
