"""Outside-in layer tracer: per-layer call counts and self time.

The tracer patches a declared table of layer -> entry points for the
duration of one traced run and restores every attribute afterwards.  It
never edits the program: each entry point is wrapped from outside, so a
span opens when control enters a layer and closes when it returns.

* An entry ``"module:Class.method"`` wraps one method in the class that
  defines it; ``"module:Class.*"`` wraps every public function defined in
  the class body; ``"module:function"`` wraps a module-level function in
  every loaded module that bound it by ``from ... import``.
* :class:`~repro.traffic.cluster_runtime.ClusterRuntime` handlers are
  closures, so they cannot be patched by name.  Instead
  ``EventLoop.schedule_at`` is wrapped, and each scheduled action is wrapped
  in a span of the layer its event label maps to (:data:`EVENT_LAYERS`).
* Calls from a layer into itself open no new span, so ``calls`` counts
  entries into a layer from outside it.
* Self time is a span's duration minus the time covered by its child
  spans.  The root span covers the whole traced region; its self time is
  the unattributed remainder.
* The tracer's own work per span is measured on a no-op before the run,
  as the ``profile`` module measures its bias, and left out of self times:
  the part inside a span from the callee's, the part around it from the
  caller's.  What is left out is reported as the overhead estimate, so
  the self times and the unattributed remainder sum to the traced wall
  time less that estimate.
* Spans are kept in memory up to a fixed capacity (later ones are counted
  as dropped; the per-layer totals stay exact) and written out as JSON when
  the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: The unattributed root of every traced run.
ROOT = "(root)"

#: Layer -> entry points.  The layers are the program's modules (the
#: traffic engine's closure handlers are split by event label below); the
#: last one, ``bench.prepare``, is the benchmark's own input generation and
#: engine construction, opened explicitly by the worker.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "engine": (
        "repro.traffic.engine:MultiTenantTrafficEngine.run",
        "repro.traffic.federation:FederatedTrafficEngine.run",
        "repro.traffic.engine:schedule_arrivals",
    ),
    "runtime.lifecycle": (
        "repro.traffic.cluster_runtime:ClusterRuntime.__init__",
        "repro.traffic.cluster_runtime:ClusterRuntime.bootstrap",
        "repro.traffic.cluster_runtime:ClusterRuntime.start_ticks",
        "repro.traffic.cluster_runtime:ClusterRuntime.finalize",
        "repro.traffic.cluster_runtime:ClusterRuntime.snapshot",
        "repro.traffic.cluster_runtime:ClusterRuntime.node_usage",
    ),
    "sim.engine": ("repro.sim.engine:EventLoop.run",),
    "runtime.arrive": (),
    "runtime.complete": (),
    "runtime.timeout": (),
    "runtime.tick": (),
    "runtime.fail": (),
    "gateway.queue": ("repro.platform.gateway:FairQueue.*",),
    "gateway.lb": ("repro.platform.gateway:IngressGateway.*",),
    "middleware": ("repro.gateway.middleware:MiddlewarePipeline.*",),
    "autoscaler": (
        "repro.traffic.autoscaler:Autoscaler.*",
        "repro.traffic.tenants:CapacityArbiter.*",
    ),
    "memory": (
        "repro.traffic.memory:NodeMemoryModel.*",
        "repro.traffic.memory:default_replica_rss_mb",
    ),
    "obs.streaming": ("repro.obs.streaming:StreamingTrafficStats.*",),
    "obs.telemetry": ("repro.obs.telemetry:Telemetry.*",),
    "obs.exporters": (
        "repro.obs.exporters:render_prometheus",
        "repro.obs.exporters:write_prometheus",
        "repro.obs.exporters:JsonlEventWriter.*",
    ),
    "metrics.export": (
        "repro.metrics.export:traffic_to_figure",
        "repro.metrics.export:multi_tenant_to_figure",
        "repro.metrics.export:federation_to_figure",
        "repro.metrics.export:figure_to_dict",
        "repro.metrics.export:figure_to_json",
        "repro.metrics.export:write_figure",
    ),
    "slo": (
        "repro.traffic.slo:summarize",
        "repro.traffic.slo:summarize_classes",
    ),
    "federation.router": ("repro.traffic.federation:GlobalRouter.*",),
    "net": (
        "repro.net.topology:Topology.*",
        "repro.net.link:NetworkLink.*",
        "repro.net.nic:Nic.*",
        "repro.net.http:HttpTransport.*",
    ),
    "arrivals": (
        "repro.traffic.arrivals:ArrivalProcess.generate",
        "repro.traffic.arrivals:PoissonArrivals.arrival_times",
        "repro.traffic.arrivals:BurstyArrivals.arrival_times",
        "repro.traffic.arrivals:DiurnalArrivals.arrival_times",
        "repro.traffic.tenants:TenantSpec.generate",
        "repro.traffic.classes:assign_classes",
    ),
    "calibration": (
        "repro.traffic.engine:MultiTenantTrafficEngine._service_time",
        "repro.traffic.federation:FederatedTrafficEngine._service_time",
    ),
    "experiments.environment": (
        "repro.experiments.environment:build_pair_setup",
        "repro.experiments.environment:build_fanout_setup",
    ),
    "experiments.harness": ("repro.experiments.harness:run_setup",),
    "platform.invoker": ("repro.platform.invoker:Invoker.invoke",),
    "platform.channel": ("repro.platform.channel:DataPassingChannel.*",),
    "platform.deploy": (
        "repro.platform.orchestrator:Orchestrator.*",
        "repro.platform.node:ClusterNode.*",
        "repro.platform.cluster:Cluster.*",
    ),
    "core": (
        "repro.core.base:RoadrunnerChannelBase.shim_for",
        "repro.core.user_space:UserSpaceChannel._move",
        "repro.core.kernel_space:KernelSpaceChannel._move",
        "repro.core.network:NetworkChannel._move",
        "repro.core.shim:RoadrunnerShim.*",
        "repro.core.api:FunctionDataApi.*",
        "repro.core.data_hose:VirtualDataHose.*",
        "repro.core.registry:MemoryRegionRegistry.*",
    ),
    "baselines": (
        "repro.baselines.runc_http:RunCHttpChannel._move",
        "repro.baselines.wasmedge_http:WasmEdgeHttpChannel._move",
    ),
    "serialization": (
        "repro.serialization.serializer:Serializer.*",
        "repro.serialization.codec:StringCodec.*",
        "repro.serialization.codec:JsonCodec.*",
        "repro.serialization.codec:BinaryFrameCodec.*",
    ),
    "wasm": (
        "repro.wasm.linear_memory:LinearMemory.*",
        "repro.wasm.module:WasmInstance.*",
        "repro.wasm.vm:WasmVM.*",
        "repro.wasm.vm:HostMemoryApi.*",
        "repro.wasm.wasi:WasiInterface.*",
        "repro.wasm.runtime:WasmRuntime.*",
    ),
    "kernel": (
        "repro.kernel.kernel:Kernel.*",
        "repro.kernel.pipes:Pipe.*",
        "repro.kernel.sockets:UnixSocketPair.*",
        "repro.kernel.sockets:TcpConnection.*",
        "repro.kernel.filesystem:VirtualFileSystem.*",
        "repro.kernel.process:Process.*",
        "repro.kernel.cgroups:Cgroup.*",
    ),
    "sim.ledger": (
        "repro.sim.ledger:CostLedger.*",
        "repro.sim.ledger:ClusterLedger.*",
        "repro.sim.ledger:MemoryMeter.*",
    ),
    "metrics.records": (
        "repro.metrics.records:LedgerWindow.__enter__",
        "repro.metrics.records:LedgerWindow.__exit__",
    ),
    "bench.prepare": (),
}

#: Event label (or label prefix ending in ``:``) -> layer of its action.
#: ``wan`` is a request landing in a region after a WAN hop: an arrival.
#: ``warm`` is a replica finishing its cold start: a scaling consequence.
EVENT_LAYERS: Dict[str, str] = {
    "arrive": "runtime.arrive",
    "wan": "runtime.arrive",
    "complete": "runtime.complete",
    "timeout": "runtime.timeout",
    "tick:": "runtime.tick",
    "warm": "runtime.tick",
    "fail:": "runtime.fail",
}

#: Where scheduled actions are intercepted.
SCHEDULE_AT = "repro.sim.engine:EventLoop.schedule_at"

#: Spans kept per traced run; later ones are only counted.
SPAN_CAPACITY = 100_000

#: The layer of the no-op that calibration times, and how: calls per
#: round, rounds (the fastest round counts, as in ``timeit``).
CALIBRATION = "(calibration)"
CALIBRATION_CALLS = 2_000
CALIBRATION_ROUNDS = 7


class TraceError(RuntimeError):
    """Raised for an entry point the table names but the program lacks."""


def event_layer(label: str) -> Optional[str]:
    """The layer an event's action belongs to, or None (stays with its caller)."""
    layer = EVENT_LAYERS.get(label)
    if layer is None:
        head, sep, _ = label.partition(":")
        if sep:
            layer = EVENT_LAYERS.get(head + ":")
    return layer


def _resolve(entry: str) -> Tuple[object, List[str]]:
    """``module:qualname`` -> (owner object, attribute names to wrap)."""
    module_name, _, qualname = entry.partition(":")
    owner: object = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    if name == "*":
        if not inspect.isclass(owner):
            raise TraceError("%s: a wildcard needs a class" % entry)
        names = sorted(
            attr
            for attr, value in vars(owner).items()
            if inspect.isfunction(value) and not attr.startswith("_")
        )
        if not names:
            raise TraceError("%s: the class defines no public functions" % entry)
        return owner, names
    if inspect.isclass(owner) and name not in vars(owner):
        raise TraceError("%s: not defined in %s itself" % (entry, owner.__name__))
    if not hasattr(owner, name):
        raise TraceError("%s: no such attribute" % entry)
    return owner, [name]


class LayerTracer:
    """Patch the layer table while active; account calls and self time.

    Use as a context manager around the traced region::

        with LayerTracer() as tracer:
            ...                      # the traced work
        tracer.layer_stats()         # {layer: (calls, self_s)}
    """

    def __init__(self) -> None:
        #: (owner, attribute, original value) per patch, in patch order.
        self._patches: List[Tuple[object, str, object]] = []
        #: id(wrapper) -> (wrapper, original) for module-level functions.
        self._function_wrappers: Dict[int, Tuple[Callable, Callable]] = {}
        self._calls: Dict[str, int] = {}
        self._self_s: Dict[str, float] = {}
        #: Open frames [layer, start, child seconds, span slot]; empty while
        #: inactive, so a wrapper reached outside the run records nothing.
        self._stack: List[list] = []
        #: Closed spans (layer, start, end, parent slot); -1 is the root.
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self.dropped = 0
        self.wall_s = 0.0
        self._origin = 0.0
        #: Tracer seconds per span inside it and around it (see _calibrate).
        self._cost_in = 0.0
        self._cost_out = 0.0

    # -- install / restore ----------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        self._calibrate()
        self.install()
        self._calls = {layer: 0 for layer in LAYERS}
        self._self_s = {layer: 0.0 for layer in LAYERS}
        self.spans = []
        self.dropped = 0
        self._origin = time.perf_counter()
        self._stack[:] = [[ROOT, self._origin, 0.0, -1]]
        return self

    def __exit__(self, *exc_info: object) -> None:
        try:
            end = time.perf_counter()
            # Frames left open by an exception close at the root's end.
            while len(self._stack) > 1:
                self._close(end)
            root = self._stack.pop()
            self.wall_s = end - root[1]
            self._self_s[ROOT] = self.wall_s - root[2]
        finally:
            self.uninstall()

    def install(self) -> None:
        """Wrap every entry point of the table (and the event scheduler)."""
        if self._patches:
            raise TraceError("tracer is already installed")
        try:
            for layer, entries in LAYERS.items():
                for entry in entries:
                    owner, names = _resolve(entry)
                    for name in names:
                        self._patch(owner, name, layer)
            owner, names = _resolve(SCHEDULE_AT)
            self._patch_scheduler(owner, names[0])
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every patched attribute back exactly as it was found."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        # A module first imported while tracing may have bound a wrapped
        # function by ``from ... import``; give it the original.
        if self._function_wrappers:
            for module in _loaded_modules():
                for attr, value in list(vars(module).items()):
                    entry = self._function_wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        setattr(module, attr, entry[1])
            self._function_wrappers.clear()

    def _patch(self, owner: object, name: str, layer: str) -> None:
        if inspect.ismodule(owner):
            original = getattr(owner, name)
            wrapped = self._wrap(layer, original)
            self._function_wrappers[id(wrapped)] = (wrapped, original)
            # ``from module import function`` copies the binding: patch it
            # in every module that holds the same object (the benchmark's
            # own callers included).
            for module in _loaded_modules():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapped)
            return
        raw = vars(owner)[name]
        self._patches.append((owner, name, raw))
        setattr(owner, name, self._wrap(layer, raw))

    def _patch_scheduler(self, owner: object, name: str) -> None:
        original = vars(owner)[name]
        wrap = self._wrap
        layers: Dict[str, Optional[str]] = {}
        # The runtime schedules the same few handlers over and over with
        # different ``args``: wrap each (layer, handler) once, not per event.
        wrapped: Dict[Tuple[str, Callable], Callable] = {}

        @functools.wraps(original)
        def schedule_at(loop, when, action, *args, **kwargs):
            label = kwargs.get("label", args[0] if args else "")
            if label not in layers:
                layers[label] = event_layer(label)
            layer = layers[label]
            if layer is not None:
                key = (layer, action)
                traced = wrapped.get(key)
                if traced is None:
                    traced = wrapped[key] = wrap(layer, action)
                action = traced
            return original(loop, when, action, *args, **kwargs)

        self._patches.append((owner, name, original))
        setattr(owner, name, schedule_at)

    # -- spans ----------------------------------------------------------------------

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        frames = self._stack
        open_span = self._open
        close_span = self._close
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not frames or frames[-1][0] == layer:
                return fn(*args, **kwargs)
            open_span(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(clock())

        return traced

    def _open(self, layer: str) -> None:
        slot = -1
        if len(self.spans) < SPAN_CAPACITY:
            slot = len(self.spans)
            self.spans.append(None)
        self._stack.append([layer, time.perf_counter(), 0.0, slot])

    def _close(self, end: float) -> None:
        layer, start, child_s, slot = self._stack.pop()
        duration = end - start
        self._calls[layer] = self._calls.get(layer, 0) + 1
        self._self_s[layer] = self._self_s.get(layer, 0.0) + duration - child_s - self._cost_in
        parent = self._stack[-1]
        parent[2] += duration + self._cost_out
        if slot >= 0:
            self.spans[slot] = (layer, start, end, parent[3])
        else:
            self.dropped += 1

    def _calibrate(self) -> None:
        """Measure the tracer's own seconds per span, inside it and around it.

        A no-op is called bare and through a wrapper, after an empty loop of
        the same length.  The span's recorded duration less a bare call is
        the part inside the span; the rest of the wrapper's extra time falls
        around it, in the caller's self time.
        """

        def noop(first, second):
            return None

        self._cost_in = self._cost_out = 0.0
        traced = self._wrap(CALIBRATION, noop)
        clock = time.perf_counter
        calls = range(CALIBRATION_CALLS)
        empty = bare = wrapped = inside = float("inf")
        for _ in range(CALIBRATION_ROUNDS):
            self._stack[:] = [[ROOT, clock(), 0.0, -1]]
            self._self_s[CALIBRATION] = 0.0
            start = clock()
            for _ in calls:
                pass
            after_empty = clock()
            for _ in calls:
                noop(1, 2)
            after_bare = clock()
            for _ in calls:
                traced(1, 2)
            end = clock()
            empty = min(empty, after_empty - start)
            bare = min(bare, after_bare - after_empty)
            wrapped = min(wrapped, end - after_bare)
            inside = min(inside, self._self_s[CALIBRATION])
        self._stack.clear()
        self._cost_in = max(0.0, (inside - (bare - empty)) / CALIBRATION_CALLS)
        self._cost_out = max(0.0, (wrapped - bare) / CALIBRATION_CALLS - self._cost_in)

    @contextlib.contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """A span around the caller's own code (the benchmark's set-up)."""
        self._open(layer)
        try:
            yield
        finally:
            self._close(time.perf_counter())

    # -- results --------------------------------------------------------------------

    def layer_stats(self) -> Dict[str, Tuple[int, float]]:
        """{layer: (calls, self seconds)} for every layer; ROOT is unattributed."""
        stats = {
            layer: (self._calls.get(layer, 0), self._self_s.get(layer, 0.0))
            for layer in LAYERS
        }
        stats[ROOT] = (1, self._self_s.get(ROOT, 0.0))
        return stats

    @property
    def overhead_s(self) -> float:
        """The tracer's own seconds, as calibrated, left out of the self times."""
        return sum(self._calls.values()) * (self._cost_in + self._cost_out)

    def write(self, path: str, meta: Optional[Dict[str, object]] = None) -> None:
        """Write the spans, times relative to the root's start, as JSON."""
        origin = self._origin
        document = {
            "meta": dict(meta or {}),
            "wall_s": self.wall_s,
            "overhead_s": self.overhead_s,
            "dropped": self.dropped,
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [name, start - origin, end - origin, parent]
                for name, start, end, parent in filter(None, self.spans)
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def _loaded_modules() -> List[object]:
    return [module for module in list(sys.modules.values()) if module is not None]
