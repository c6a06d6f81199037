"""Calibrated cost model for the Roadrunner reproduction.

The original evaluation ran on two 4-core Xeon VMs with WasmEdge, RunC,
Linux pipes/sockets and a traffic-shaped link.  This module captures that
testbed as a set of rates and fixed overheads.  Substrate operations convert
byte counts into simulated seconds (and CPU-seconds) through these rates —
the experiment code never computes latency directly.

Calibration targets (from the paper):

* serialization is ~15 % of a container transfer and ~60 % of a Wasm
  transfer (Fig. 2b);
* Roadrunner user space cuts intra-node latency by 44-89 % vs WasmEdge and
  10-80 % vs RunC; kernel space by 76-83 % vs WasmEdge (Sec. 6.3);
* inter-node totals drop 62 % vs WasmEdge and 7 % vs RunC, serialization
  drops 97 % / 46 % (Sec. 6.3, Fig. 6);
* throughput improves up to 69x vs WasmEdge for small payloads (Sec. 1).

The absolute values are synthetic but internally consistent; only the shape
of the comparison is claimed, and the ``repro claims`` table
(``results/claims.txt``) records paper-vs-measured for each headline claim.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Dict

#: Wasm page size in bytes (the Wasm spec fixes this at 64 KiB).
WASM_PAGE_SIZE = 64 * 1024

#: Most pages a 32-bit Wasm linear memory can hold (4 GiB in all).
WASM_MAX_PAGES = 65536

#: Host (kernel) page size in bytes.
HOST_PAGE_SIZE = 4096

MiB = 1024 * 1024
GiB = 1024 * MiB


class CostModelError(ValueError):
    """Raised for invalid cost-model parameters."""


def _require_positive(name: str, value: float) -> None:
    if not value > 0:  # also refuses NaN
        raise CostModelError("%s must be positive, got %r" % (name, value))


#: The fields of :class:`CostModel` that must be positive: the bandwidths,
#: which divide byte counts, and the serialized-size ratio.  Every other
#: field (overheads, RTT, sizes, RSS) must be >= 0, and all must be finite.
_RATE_FIELDS = frozenset((
    "user_kernel_copy_bandwidth",
    "wasm_memory_copy_bandwidth",
    "native_serialize_bandwidth",
    "native_deserialize_bandwidth",
    "wasm_serialize_bandwidth",
    "wasm_deserialize_bandwidth",
    "serialized_inflation",
    "pointer_registration_bandwidth",
    "unix_socket_bandwidth",
    "loopback_http_bandwidth",
    "network_bandwidth",
    "image_unpack_bandwidth",
    "wasm_instantiate_bandwidth",
))


@dataclass(frozen=True)
class CostModel:
    """Rates and fixed overheads describing the emulated testbed.

    All bandwidth-like fields are bytes/second, all overhead-like fields are
    seconds, unless stated otherwise.
    """

    # ---- raw memory movement -------------------------------------------------
    #: Copy across the user/kernel boundary (read/write syscalls, socket buffers).
    user_kernel_copy_bandwidth: float = 6.0 * GiB
    #: Copy in or out of Wasm linear memory through the runtime host API
    #: ("Wasm VM I/O" in the paper's Fig. 6).
    wasm_memory_copy_bandwidth: float = 4.0 * GiB
    #: Extra per-call overhead of a WASI host call (capability checks, arg
    #: marshalling).
    wasi_call_overhead: float = 2.0e-6

    # ---- syscalls and scheduling ----------------------------------------------
    #: Fixed cost of entering/leaving the kernel once.
    syscall_overhead: float = 1.2e-6
    #: Cost of a context switch between processes.
    context_switch_overhead: float = 3.0e-6
    #: Largest chunk moved per read/write/sendmsg syscall.
    syscall_chunk_size: int = 256 * 1024

    # ---- serialization ---------------------------------------------------------
    #: Native (container) serialization rate: strings/bytes into an HTTP body
    #: are close to a copy.
    native_serialize_bandwidth: float = 4.5 * GiB
    #: Native deserialization rate.
    native_deserialize_bandwidth: float = 5.0 * GiB
    #: Wasm serialization rate: single-threaded, allocation-heavy, and the
    #: output must additionally cross the Wasm VM boundary.
    wasm_serialize_bandwidth: float = 220.0 * MiB
    #: Wasm deserialization rate.
    wasm_deserialize_bandwidth: float = 270.0 * MiB
    #: Fixed per-message serialization setup (buffer allocation, framing).
    serialize_setup_overhead: float = 150.0e-6
    #: Size inflation of the serialized representation (framing, escaping).
    serialized_inflation: float = 1.045

    # ---- Roadrunner-specific costs ---------------------------------------------
    #: Per host page cost of vmsplice/splice page-reference gifting.
    splice_page_overhead: float = 0.06e-6
    #: Fixed cost of creating a virtual data hose (pipe pair + fcntl sizing).
    data_hose_setup_overhead: float = 40.0e-6
    #: Per-message metadata cost of locating/registering a memory region
    #: (pointer + length exchange, bounds registration).
    region_metadata_overhead: float = 8.0e-6
    #: Data-preparation rate of Roadrunner's pointer-based hand-off (walking
    #: and pinning the page range of the registered region).  This is the
    #: residual "serialization" component the paper reports for Roadrunner —
    #: orders of magnitude cheaper than a codec, but not literally zero.
    pointer_registration_bandwidth: float = 48.0 * GiB

    # ---- IPC (kernel-space mode) -------------------------------------------------
    #: Effective Unix-domain-socket streaming bandwidth (includes both copies).
    unix_socket_bandwidth: float = 0.8 * GiB
    #: Fixed connection/accept cost for a Unix socket.
    unix_socket_setup_overhead: float = 60.0e-6
    #: Async-executor overhead per outstanding IPC request (tokio-style).
    async_task_overhead: float = 35.0e-6

    # ---- HTTP / loopback ---------------------------------------------------------
    #: Effective loopback HTTP body bandwidth (kernel copies included).
    loopback_http_bandwidth: float = 850.0 * MiB
    #: Fixed per-request HTTP overhead for a native client/server pair.
    http_request_overhead_native: float = 3.5e-3
    #: Fixed per-request HTTP overhead when both ends run inside Wasm and all
    #: socket I/O is WASI-mediated.
    http_request_overhead_wasm: float = 22.0e-3
    #: HTTP header bytes added per request.
    http_header_bytes: int = 380

    # ---- network (inter-node) ------------------------------------------------------
    #: Effective inter-node bandwidth.  The paper's text says 100 Mbps (tc),
    #: but the magnitudes in Figs. 6/8 imply a far higher effective rate; the
    #: default matches the figures and the discrepancy is documented.
    network_bandwidth: float = 105.0 * MiB
    #: Round-trip time between nodes.
    network_rtt: float = 1.0e-3
    #: Per-connection TCP setup cost (handshake at one RTT plus socket setup).
    tcp_setup_overhead: float = 1.2e-3
    #: Goodput penalty applied when every socket read/write is WASI-mediated
    #: (WasmEdge HTTP baseline): fraction of network_bandwidth achieved.
    wasi_network_efficiency: float = 0.62
    #: MTU-sized segment for per-packet accounting.
    mtu_bytes: int = 1500

    # ---- cold start (Fig. 2a) ---------------------------------------------------------
    #: Container image pull+unpack bandwidth.
    image_unpack_bandwidth: float = 180.0 * MiB
    #: Fixed container sandbox setup (namespaces, cgroups, runc exec).
    container_sandbox_setup: float = 0.45
    #: Wasm module compile/instantiate bandwidth (AOT-style load).
    wasm_instantiate_bandwidth: float = 55.0 * MiB
    #: Fixed Wasm VM creation cost.
    wasm_vm_setup: float = 0.012

    # ---- resources -----------------------------------------------------------------
    #: Number of cores per node (used to express CPU usage as a percentage).
    cores_per_node: int = 4
    #: Baseline resident memory of a RunC sandbox (MB).
    container_baseline_rss_mb: float = 38.0
    #: Baseline resident memory of a Wasm VM sandbox (MB).
    wasm_baseline_rss_mb: float = 9.0

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise CostModelError("%s must be finite, got %r" % (name, value))
            if name in _RATE_FIELDS:
                _require_positive(name, value)
            elif value < 0:
                raise CostModelError("%s must be non-negative, got %r" % (name, value))
        if not 0 < self.wasi_network_efficiency <= 1:
            raise CostModelError(
                "wasi_network_efficiency must be in (0, 1], got %r"
                % self.wasi_network_efficiency
            )
        for name in ("cores_per_node", "syscall_chunk_size", "mtu_bytes"):
            if getattr(self, name) < 1:
                raise CostModelError("%s must be >= 1, got %r" % (name, getattr(self, name)))

    # -- constructors ----------------------------------------------------------

    @classmethod
    def paper_testbed(cls) -> "CostModel":
        """The default model calibrated against the paper's evaluation."""
        return cls()

    @classmethod
    def constrained_edge(cls) -> "CostModel":
        """A genuinely 100 Mbps / 1 ms testbed, matching the paper's text."""
        return cls(network_bandwidth=100.0e6 / 8.0, network_rtt=1.0e-3)

    def with_overrides(self, **kwargs: float) -> "CostModel":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    # -- derived helpers ---------------------------------------------------------

    # Sandbox baselines in bytes, derived once per model (every deployment
    # reads one); cached in the instance dict, outside the dataclass fields.
    @functools.cached_property
    def wasm_baseline_rss_bytes(self) -> int:
        return int(self.wasm_baseline_rss_mb * MiB)

    @functools.cached_property
    def container_baseline_rss_bytes(self) -> int:
        return int(self.container_baseline_rss_mb * MiB)

    def transfer_time(self, nbytes: int, bandwidth: float) -> float:
        """Seconds to move ``nbytes`` at ``bandwidth`` bytes/second."""
        if nbytes < 0:
            raise CostModelError("nbytes must be non-negative, got %r" % nbytes)
        _require_positive("bandwidth", bandwidth)
        return nbytes / bandwidth

    def user_kernel_copy_time(self, nbytes: int) -> float:
        return self.transfer_time(nbytes, self.user_kernel_copy_bandwidth)

    def wasm_io_time(self, nbytes: int) -> float:
        return self.transfer_time(nbytes, self.wasm_memory_copy_bandwidth)

    def serialize_time(self, nbytes: int, in_wasm: bool) -> float:
        rate = self.wasm_serialize_bandwidth if in_wasm else self.native_serialize_bandwidth
        return self.serialize_setup_overhead + self.transfer_time(nbytes, rate)

    def deserialize_time(self, nbytes: int, in_wasm: bool) -> float:
        rate = (
            self.wasm_deserialize_bandwidth if in_wasm else self.native_deserialize_bandwidth
        )
        return self.serialize_setup_overhead + self.transfer_time(nbytes, rate)

    def serialized_size(self, nbytes: int) -> int:
        """Size of the serialized representation of an ``nbytes`` payload."""
        return int(nbytes * self.serialized_inflation) + self.http_header_bytes

    def syscall_count(self, nbytes: int) -> int:
        """Number of read/write syscalls needed to move ``nbytes``."""
        if nbytes <= 0:
            return 1
        return -(-nbytes // self.syscall_chunk_size)

    def syscall_time(self, count: int) -> float:
        return count * self.syscall_overhead

    def splice_time(self, nbytes: int) -> float:
        """Page-gifting cost of vmsplice/splice for ``nbytes``."""
        pages = -(-nbytes // HOST_PAGE_SIZE) if nbytes > 0 else 1
        return pages * self.splice_page_overhead

    def describe(self) -> Dict[str, float]:
        """A flat dict of every parameter (useful for experiment metadata)."""
        out: Dict[str, float] = {}
        for name in self.__dataclass_fields__:
            out[name] = getattr(self, name)
        return out


#: Default shared model; experiments construct their own copies when they
#: need to override parameters (e.g. the constrained-edge ablation).
DEFAULT_COST_MODEL = CostModel.paper_testbed()
