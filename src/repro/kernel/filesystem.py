"""A per-node virtual filesystem for host file access.

Functions that are not purely compute-bound read inputs from the host
filesystem — the paper's "Resize Image" motivation workload does exactly this
through WASI, which is where Wasm's extra execution latency in Fig. 2a comes
from.  The filesystem charges the kernel-side costs of file I/O (syscalls and
kernel/user copies through the page cache).  None of the paper's transfer
modes touches a file, so no transfer path calls it.
"""

from __future__ import annotations

from typing import Dict, List

from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.payload import Payload


class FileSystemError(RuntimeError):
    """Raised for missing paths or invalid operations."""


class VirtualFileSystem:
    """An in-memory filesystem attached to one node's kernel."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self._files: Dict[str, Payload] = {}
        self.reads = 0
        self.writes = 0

    # -- namespace ---------------------------------------------------------------

    def exists(self, path: str) -> bool:
        return path in self._files

    def listdir(self, prefix: str = "/") -> List[str]:
        """Paths under ``prefix`` (flat namespace, no real directories)."""
        return sorted(path for path in self._files if path.startswith(prefix))

    def size(self, path: str) -> int:
        return self._require(path).size

    def unlink(self, process: Process, path: str) -> None:
        self._require(path)
        self.kernel.syscall(process, "unlink(%s)" % path)
        del self._files[path]

    # -- data path ------------------------------------------------------------------

    def write_file(self, process: Process, path: str, payload: Payload) -> None:
        """Write ``payload`` to ``path`` (open + chunked writes + close)."""
        if not path or not path.startswith("/"):
            raise FileSystemError("paths must be absolute, got %r" % path)
        if payload.size <= 0:
            raise FileSystemError("refusing to write an empty file")
        chunks = self.kernel.cost_model.syscall_count(payload.size)
        self.kernel.syscall(process, "openat(%s)" % path)
        self.kernel.syscall(process, "write(%s)" % path, count=chunks)
        self.kernel.copy_user_to_kernel(process, payload.size, label="page-cache:%s" % path)
        self.kernel.syscall(process, "close(%s)" % path)
        self._files[path] = payload.copy() if payload.is_real else payload
        self.writes += 1

    def read_file(self, process: Process, path: str) -> Payload:
        """Read the whole file at ``path`` (open + chunked reads + close)."""
        stored = self._require(path)
        chunks = self.kernel.cost_model.syscall_count(stored.size)
        self.kernel.syscall(process, "openat(%s)" % path)
        self.kernel.syscall(process, "read(%s)" % path, count=chunks)
        self.kernel.copy_kernel_to_user(process, stored.size, label="page-cache:%s" % path)
        self.kernel.syscall(process, "close(%s)" % path)
        self.reads += 1
        return stored

    def _require(self, path: str) -> Payload:
        if path not in self._files:
            raise FileSystemError("no such file: %r" % path)
        return self._files[path]
