"""Every definition in ``src/`` is reached by program code, or is kept on purpose.

A function, class or method that only tests call is API the program does
not need: it has to be read, kept in step and tested, and it pays for none
of that.  This check parses ``src/`` and collects its top-level functions
and classes and every non-dunder method.  It then tokenizes ``src/``,
``examples/``, ``benchmarks/`` and ``bench/`` once, counting identifiers and
the words inside string literals (``bench/trace.py`` names entry points as
``"Class.method"`` strings).  A definition's own ``def``/``class`` name is
not a use; tests are not scanned.  A definition with no use fails the check
unless :data:`KEEP` names it with a reason.

Matching is by bare name, so a method counts as used when any file names
an attribute of the same name: the check finds dead names, not every dead
path.
"""

import ast
import collections
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "examples", "benchmarks", "bench")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Definitions no program path names, kept on purpose: qualname -> reason.
KEEP = {
    # Inverses of exported formats, each pinned by a round-trip test.
    "repro.metrics.export.node_usage_from_figure": "inverse of the --export-nodes figure",
    "repro.metrics.timeline.read_trace_events": "inverse of the --trace-out trace export",
    # Read by reference formulas in tests/properties/test_slo_rollup_properties.py.
    "repro.traffic.slo.RequestRecord.queueing_delay_s": "input of the SLO reference formulas",
    # Read-only accessors that invariant tests use to read live state.
    "repro.sim.ledger.MemoryMeter.current_bytes": "live bytes of a meter",
    "repro.wasm.linear_memory.LinearMemory.allocated_bytes": "live bytes of a linear memory",
    "repro.wasm.linear_memory.LinearMemory.live_allocations": "live allocations of a linear memory",
    "repro.kernel.pipes.Pipe.buffered_bytes": "bytes buffered in a pipe",
    "repro.kernel.pipes.Pipe.pending_buffers": "buffers queued in a pipe",
    "repro.kernel.kernel.Kernel.live_process_count": "live processes after teardown",
    "repro.core.state.ShimStateStore.used_bytes": "bytes held by the shim state store",
    "repro.sim.engine.EventLoop.executed_events": "events an event loop has run",
    "repro.sim.engine.ParallelTracks.total_wait_seconds": "wait time summed over tracks",
    "repro.platform.gateway.IngressGateway.pool_size": "replicas in a pool, zero when empty",
    "repro.wasm.module.WasmInstance.input_address": "where the shim placed an instance's input",
    "repro.wasm.module.WasmInstance.output_address": "where the guest placed its output",
    "repro.platform.node.ClusterNode.vm_process": "the shim process hosting a shared VM",
    "repro.platform.deployment.DeployedFunction.execution_environment": "native or Wasm serializer",
    "repro.obs.spans.RequestTrace.total_s": "end-to-end time of one request trace",
    "repro.workloads.traces.InvocationTrace.total_bytes": "bytes moved by one invocation trace",
    "repro.core.router.RoadrunnerChannel.channel_for": "the channel configured per transfer mode",
    "repro.kernel.filesystem.VirtualFileSystem.listdir": "paths in the virtual filesystem",
    # The virtual filesystem lost its one program caller with WASI host-file I/O.
    "repro.kernel.filesystem.VirtualFileSystem.read_file": "virtual filesystem I/O",
    "repro.kernel.filesystem.VirtualFileSystem.write_file": "virtual filesystem I/O",
}


def _sources(directory):
    return sorted((ROOT / directory).rglob("*.py"))


def _definitions():
    """(qualname, bare name) of every top-level def/class and non-dunder method."""
    found = []
    for path in _sources("src"):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            found.append(("%s.%s" % (module, node.name), node.name))
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        member.name.startswith("__") and member.name.endswith("__")
                    ):
                        found.append(("%s.%s.%s" % (module, node.name, member.name), member.name))
    return found


def _name_counts():
    """Identifier and string-literal word counts over every scanned file."""
    counts = collections.Counter()
    for directory in SCANNED:
        for path in _sources(directory):
            readline = io.StringIO(path.read_text(encoding="utf-8")).readline
            for token in tokenize.generate_tokens(readline):
                if token.type == tokenize.NAME:
                    counts[token.string] += 1
                elif token.type == tokenize.STRING:
                    counts.update(WORD.findall(token.string))
    return counts


def test_every_src_definition_is_used_or_kept():
    definitions = _definitions()
    counts = _name_counts()
    # Each definition's own def/class line names it once.
    unused = {qualname for qualname, name in definitions if counts[name] <= 1}
    assert sorted(unused - set(KEEP)) == [], "definitions no program code names"
    assert sorted(set(KEEP) - unused) == [], "KEEP entries that are gone or now used"
    assert all(reason.strip() for reason in KEEP.values())
