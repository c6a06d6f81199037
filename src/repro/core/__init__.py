"""Roadrunner core: the shim, its data-access APIs and the three channels.

This is the paper's primary contribution.  The public surface is:

* :class:`~repro.core.api.FunctionDataApi` — the guest-side data access API
  (Table 1): ``allocate_memory``, ``deallocate_memory``,
  ``locate_memory_region``, ``send_to_host`` (the guest reads delivered
  data straight from its own linear memory);
* :class:`~repro.core.shim.RoadrunnerShim` — the sidecar that mediates all
  memory access, enforces region registration and bounds checks, and moves
  data in and out of the Wasm VM;
* the three data-passing channels —
  :class:`~repro.core.user_space.UserSpaceChannel` (same Wasm VM),
  :class:`~repro.core.kernel_space.KernelSpaceChannel` (same host, Unix-socket
  IPC) and :class:`~repro.core.network.NetworkChannel` (remote hosts, virtual
  data hose with splice/vmsplice);
* :class:`~repro.core.router.RoadrunnerChannel` — a facade that picks the
  right mode from function placement, which is what applications normally use.
"""

from repro.core.config import RoadrunnerConfig
from repro.core.registry import MemoryRegion, MemoryRegionRegistry, RegistryError
from repro.core.api import FunctionDataApi
from repro.core.shim import RoadrunnerShim, ShimError
from repro.core.data_hose import VirtualDataHose
from repro.core.user_space import UserSpaceChannel
from repro.core.kernel_space import KernelSpaceChannel
from repro.core.network import NetworkChannel
from repro.core.router import RoadrunnerChannel, TransferMode, TransferModeRouter

__all__ = [
    "RoadrunnerConfig",
    "MemoryRegion",
    "MemoryRegionRegistry",
    "RegistryError",
    "FunctionDataApi",
    "RoadrunnerShim",
    "ShimError",
    "VirtualDataHose",
    "UserSpaceChannel",
    "KernelSpaceChannel",
    "NetworkChannel",
    "RoadrunnerChannel",
    "TransferMode",
    "TransferModeRouter",
]
