"""Wasm substrate: linear memory, modules, VMs, a WasmEdge-like runtime, WASI.

This package models the pieces of WebAssembly that Roadrunner's mechanism
depends on:

* a byte-addressable, bounds-checked **linear memory** with 64 KiB pages and
  a guest-side allocator (`allocate_memory` / `deallocate_memory` in the
  paper's Table 1);
* **module instances** owning their linear memory, hosted inside a sandboxed
  **Wasm VM**;
* a **runtime** (WasmEdge-like) that creates VMs, loads modules and exposes
  host-side memory access APIs;
* a **WASI** layer whose host calls pay the boundary-crossing costs the paper
  identifies as the main Wasm I/O overhead.
"""

from repro.wasm.linear_memory import LinearMemory, MemoryAccessError, OutOfMemoryError
from repro.wasm.module import WasmModule, WasmInstance
from repro.wasm.vm import WasmVM, HostMemoryApi
from repro.wasm.runtime import WasmRuntime, RuntimeKind
from repro.wasm.wasi import WasiInterface

__all__ = [
    "LinearMemory",
    "MemoryAccessError",
    "OutOfMemoryError",
    "WasmModule",
    "WasmInstance",
    "WasmVM",
    "HostMemoryApi",
    "WasmRuntime",
    "RuntimeKind",
    "WasiInterface",
]
