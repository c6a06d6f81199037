"""Figure 2: the motivation experiments.

* (a) cold start and execution latency, and image sizes, for "Hello World"
  (no WASI) and "Resize Image" (WASI file access) packaged as a Docker
  container vs a Wasm binary;
* (b) the normalized transfer-vs-serialization breakdown for 1, 60 and
  100 MB payloads on the container and Wasm runtimes.
"""

from __future__ import annotations

from typing import Sequence

from repro.container.image import ContainerImage, WasmImage
from repro.container.runc import RunCRuntime
from repro.experiments.harness import measure_pair
from repro.experiments.results import FigureResult
from repro.kernel.kernel import Kernel
from repro.sim.costs import CostModel, DEFAULT_COST_MODEL
from repro.sim.ledger import CostLedger
from repro.wasm.module import WasmModule
from repro.wasm.runtime import WasmRuntime

#: Payload sizes of Fig. 2b (MB).
FIG2B_SIZES_MB: Sequence[int] = (1, 60, 100)

PANEL_COLD_START = "cold_start_s"
PANEL_EXECUTION = "execution_s"
PANEL_IMAGE_SIZE = "image_size_mb"
PANEL_BREAKDOWN = "normalized_breakdown_pct"

#: Size of the file the "Resize Image" function reads through the host.
_RESIZE_INPUT_BYTES = 5 * 1024 * 1024
#: Pure-compute time of the two workloads (identical across runtimes).
_HELLO_COMPUTE_S = 0.8e-3
_RESIZE_COMPUTE_S = 0.18


def _container_execution(cost_model: CostModel, reads_file: bool) -> float:
    """Execution latency of the workload in a RunC container."""
    seconds = _RESIZE_COMPUTE_S if reads_file else _HELLO_COMPUTE_S
    if reads_file:
        # read() of the input image: syscalls plus one kernel->user copy.
        seconds += cost_model.syscall_time(cost_model.syscall_count(_RESIZE_INPUT_BYTES))
        seconds += cost_model.user_kernel_copy_time(_RESIZE_INPUT_BYTES)
    return seconds


def _wasm_execution(cost_model: CostModel, reads_file: bool) -> float:
    """Execution latency of the workload in a Wasm VM.

    Without WASI the sandbox is slightly cheaper than a container (no OS-level
    process machinery on the hot path); with WASI every file read pays the
    host-call and VM-boundary-copy penalty on top of the kernel copy.
    """
    if reads_file:
        # Memory-bound image work runs at near-native speed inside Wasm; the
        # WASI file access is what adds time on top of the container path.
        seconds = _RESIZE_COMPUTE_S
    else:
        seconds = _HELLO_COMPUTE_S * 0.92
    if reads_file:
        chunk_calls = cost_model.syscall_count(_RESIZE_INPUT_BYTES)
        seconds += cost_model.syscall_time(chunk_calls)
        seconds += cost_model.user_kernel_copy_time(_RESIZE_INPUT_BYTES)
        seconds += chunk_calls * cost_model.wasi_call_overhead
        seconds += cost_model.wasm_io_time(_RESIZE_INPUT_BYTES)
    return seconds


def run_fig2a() -> FigureResult:
    """Reproduce Fig. 2a: cold start, execution latency and image size."""
    cost_model = DEFAULT_COST_MODEL
    ledger = CostLedger(name="fig2a")
    kernel = Kernel(ledger=ledger, cost_model=cost_model, node_name="motivation")
    runc = RunCRuntime(kernel=kernel, ledger=ledger, cost_model=cost_model)
    wasm = WasmRuntime(ledger=ledger, cost_model=cost_model)

    workloads = (
        ("Hello World", ContainerImage.hello_world(), WasmImage.hello_world(), False),
        ("Resize Image", ContainerImage.resize_image(), WasmImage.resize_image(), True),
    )
    result = FigureResult(
        figure="fig2a",
        title="Cold start and execution latency: containers vs Wasm",
        x_label="Function",
        x_values=[name for name, _, _, _ in workloads],
    )
    for _, container_image, wasm_image, reads_file in workloads:
        module = WasmModule(name=wasm_image.name, binary_size=wasm_image.size_bytes,
                            requires_wasi=reads_file)
        result.add_point(PANEL_COLD_START, "Cont", runc.cold_start_time(container_image))
        result.add_point(PANEL_COLD_START, "Wasm", wasm.cold_start_time(module))
        result.add_point(PANEL_EXECUTION, "Cont", _container_execution(cost_model, reads_file))
        result.add_point(PANEL_EXECUTION, "Wasm", _wasm_execution(cost_model, reads_file))
        result.add_point(PANEL_IMAGE_SIZE, "Cont", container_image.size_bytes / (1024.0 * 1024.0))
        result.add_point(PANEL_IMAGE_SIZE, "Wasm", wasm_image.size_bytes / (1024.0 * 1024.0))
    return result


def run_fig2b() -> FigureResult:
    """Reproduce Fig. 2b: normalized transfer vs serialization share."""
    result = FigureResult(
        figure="fig2b",
        title="Normalized I/O breakdown: transfer vs serialization",
        x_label="Input Size (MB)",
        x_values=list(FIG2B_SIZES_MB),
    )
    for size in FIG2B_SIZES_MB:
        for label, mode in (("Cont", "runc-http"), ("Wasm", "wasmedge-http")):
            metrics = measure_pair(mode, payload_mb=size, internode=False)
            total = metrics.total_latency_s
            serialization = metrics.serialization_s
            transfer = max(total - serialization, 0.0)
            if total <= 0:  # pragma: no cover - defensive
                continue
            result.add_point(PANEL_BREAKDOWN, "%s Transfer" % label, 100.0 * transfer / total)
            result.add_point(
                PANEL_BREAKDOWN, "%s Serialization" % label, 100.0 * serialization / total
            )
    return result
