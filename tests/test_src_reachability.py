"""Every definition, parameter and field in ``src/`` is used by program code, or kept on purpose.

Code that only tests reach is API the program does not need: it has to be
read, kept in step and tested, and it pays for none of that.  A knob that
no program path turns is the same thing one level down: its default is the
only value the program ever runs, and every other branch it selects is dead.
These checks parse ``src/``, ``examples/``, ``benchmarks/`` and ``bench/``
once (the program files; tests are not scanned) and fail on:

* *names*: a top-level function or class, or a non-dunder method, that no
  program file names.  Identifiers read and the words inside string
  literals count (``bench/trace.py`` names entry points as strings).  A
  ``def``/``class`` line, an import, an ``__all__`` or ``__slots__`` entry
  and documentation (a docstring or any bare string statement) do not:
  a name kept alive by a package re-export is still dead;
* *parameters*: a defaulted parameter of a ``src/`` function or method
  that no program call passes, by keyword or by position.  Calls match their
  callee by bare name (``Class(...)`` and ``super().__init__(...)`` reach
  the class's ``__init__``); a callee that some call reaches through
  ``*args`` or ``**kwargs`` is skipped, since its arguments cannot be seen;
* *fields*: an attribute assigned on ``self``, or a class-level annotated
  field, whose name no program file reads as an attribute or names in a
  string.  Writing a field nothing reads is bookkeeping without a reader;
* *validated-only fields*: a class-level field whose every read in the
  program files (as an attribute or a word in a string) sits in its own
  class's ``__post_init__``.  A field that is checked and never acted on
  is an input that changes nothing.

Matching is by bare name, so a use of any same-named attribute counts: the
checks find dead names, not every dead path.  A field whose name another
attribute also carries (``spec``, ``layers``, ``args``) passes every check
even when nothing acts on it; such fields are found by reading, not here.
Anything a check finds fails it unless that check's keep-dict names it with
one of :data:`REASONS`; validated-only fields have no keep-dict.
"""

import ast
import collections
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = ("src", "examples", "benchmarks", "bench")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# The only reasons to keep what a check finds.
OUTSIDE_INPUT = "a safety check on outside input keeps using it"
REFERENCE = "tests compare against it as the reference path"
INVERSE = "it inverts an exported format and has a round-trip test"
INVARIANT = "an invariant or conservation test reads it"
DIGEST = "a bench/ digest's repr covers it"
BENCH = "bench/ names it or passes it"
FAKE = "a test substitutes a fake through it"
ARGV = "cli.main(argv)"
SHRINK = "a test shrinks a sweep with it; dropping it costs tier-1 more than 1 s"
REASONS = frozenset(
    (OUTSIDE_INPUT, REFERENCE, INVERSE, INVARIANT, DIGEST, BENCH, FAKE, ARGV, SHRINK)
)

#: Definitions no program path names, kept on purpose: qualname -> reason.
KEEP = {
    "repro.metrics.export.node_usage_from_figure": INVERSE,
    "repro.metrics.timeline.read_trace_events": INVERSE,
    "repro.metrics.export.federation_from_figure": INVERSE,
    # An input of the reference formulas in test_slo_rollup_properties.
    "repro.traffic.slo.RequestRecord.queueing_delay_s": REFERENCE,
    "repro.sim.ledger.MemoryMeter.current_bytes": INVARIANT,
    "repro.wasm.linear_memory.LinearMemory.allocated_bytes": INVARIANT,
    "repro.wasm.linear_memory.LinearMemory.live_allocations": INVARIANT,
    "repro.kernel.pipes.Pipe.buffered_bytes": INVARIANT,
    "repro.kernel.pipes.Pipe.pending_buffers": INVARIANT,
    "repro.kernel.kernel.Kernel.live_process_count": INVARIANT,
    "repro.core.state.ShimStateStore.used_bytes": INVARIANT,
    "repro.sim.engine.EventLoop.executed_events": INVARIANT,
    "repro.sim.engine.ParallelTracks.total_wait_seconds": INVARIANT,
    "repro.platform.gateway.IngressGateway.pool_size": INVARIANT,
    "repro.wasm.module.WasmInstance.input_address": INVARIANT,
    "repro.wasm.module.WasmInstance.output_address": INVARIANT,
    "repro.platform.node.ClusterNode.vm_process": INVARIANT,
    "repro.platform.deployment.DeployedFunction.execution_environment": INVARIANT,
    "repro.obs.spans.RequestTrace.total_s": INVARIANT,
    "repro.workloads.traces.InvocationTrace.total_bytes": INVARIANT,
    "repro.core.router.RoadrunnerChannel.channel_for": INVARIANT,
    "repro.kernel.kernel.Kernel.processes": INVARIANT,  # process-table churn test
    "repro.sim.ledger.MemoryMeter.peak_bytes": INVARIANT,  # peak-total properties
    # NamedTuple's ``_replace`` builds its copy through ``_make``; the
    # overrides validate the copied fields as the constructor does.
    "repro.sim.ledger.Charge._make": OUTSIDE_INPUT,
    "repro.record.TypedRecord._make": OUTSIDE_INPUT,
    # bench/trace.py wraps ``repro.kernel.filesystem:VirtualFileSystem.*``
    # and raises on a class with no public function left.
    "repro.kernel.filesystem.VirtualFileSystem.listdir": BENCH,
    "repro.kernel.filesystem.VirtualFileSystem.read_file": BENCH,
    "repro.kernel.filesystem.VirtualFileSystem.write_file": BENCH,
}

#: Defaulted parameters no program call passes, kept on purpose.
KEEP_PARAMETERS = {
    "repro.cli.main.argv": ARGV,
    # Real bytes end to end: the mode-equivalence and transfer property
    # tests check the virtual payloads against them.
    "repro.experiments.environment.build_pair_setup.materialize": REFERENCE,
    "repro.obs.progress.ProgressReporter.__init__.clock": FAKE,
    # bench/trace.py names summarize and summarize_classes as the ``slo``
    # layer; the SLO property tests drive their declared classes.
    "repro.traffic.slo.summarize.declared_classes": BENCH,
    "repro.traffic.slo.summarize_classes.declared": BENCH,
}

#: Fields no program file reads, kept on purpose.
KEEP_FIELDS = {
    # test_counter_invariants checks that its runs reach scale-down.
    "repro.platform.gateway.IngressGateway.scale_downs": INVARIANT,
    # The ledger-window properties split CPU by each charge's domain.
    "repro.sim.ledger._ChargeFields.cpu_domain": INVARIANT,
}


@functools.lru_cache(maxsize=None)
def _program():
    """(directory, module, tree) of every program file."""
    found = []
    for directory in PROGRAM:
        base = ROOT / directory if directory == "src" else ROOT
        for path in sorted((ROOT / directory).rglob("*.py")):
            module = ".".join(path.relative_to(base).with_suffix("").parts)
            found.append((directory, module, ast.parse(path.read_text(encoding="utf-8"))))
    return tuple(found)


def _src():
    return [(module, tree) for directory, module, tree in _program() if directory == "src"]


def _is_method(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


class _Uses(ast.NodeVisitor):
    """Names read, attributes read, string words and calls of the program files."""

    def __init__(self):
        self.names = collections.Counter()
        self.attributes = collections.Counter()
        self.words = collections.Counter()
        self.passed = collections.defaultdict(lambda: [0, set()])  # callee -> [args, keywords]
        self.spread = set()  # callees some call reaches through *args or **kwargs
        self._classes = []

    def visit_Import(self, node):
        pass

    visit_ImportFrom = visit_Import

    def visit_Expr(self, node):
        if not (isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)):
            self.generic_visit(node)

    def visit_Assign(self, node):
        if not any(isinstance(t, ast.Name) and t.id in ("__all__", "__slots__") for t in node.targets):
            self.generic_visit(node)

    def visit_ClassDef(self, node):
        self._classes.append(node)
        self.generic_visit(node)
        self._classes.pop()

    def visit_FunctionDef(self, node):
        for decorator in node.decorator_list:
            # ``@name.setter`` redefines ``name``; it does not read it.
            if not (isinstance(decorator, ast.Attribute) and decorator.attr in ("setter", "deleter")):
                self.visit(decorator)
        for child in (node.args, node.returns, *node.body):
            if child is not None:
                self.visit(child)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.names[node.id] += 1

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.attributes[node.attr] += 1
        self.visit(node.value)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self.words.update(WORD.findall(node.value))

    def visit_Call(self, node):
        spread = any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        )
        for callee in self._callees(node.func):
            if spread:
                self.spread.add(callee)
            entry = self.passed[callee]
            entry[0] = max(entry[0], len(node.args))
            entry[1].update(k.arg for k in node.keywords if k.arg)
        self.generic_visit(node)

    def _callees(self, func):
        enclosing = self._classes[-1] if self._classes else None
        if isinstance(func, ast.Name):
            if func.id == "cls" and enclosing is not None:
                return [enclosing.name]
            return [func.id]
        if isinstance(func, ast.Attribute):
            value = func.value
            if (
                func.attr == "__init__"
                and isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "super"
                and enclosing is not None
            ):
                return [b.id if isinstance(b, ast.Name) else b.attr for b in enclosing.bases
                        if isinstance(b, (ast.Name, ast.Attribute))]
            return [func.attr]
        if (
            isinstance(func, ast.Call)
            and isinstance(func.func, ast.Name)
            and func.func.id == "type"
            and enclosing is not None
        ):
            return [enclosing.name]
        return []


@functools.lru_cache(maxsize=None)
def _uses():
    uses = _Uses()
    for _, _, tree in _program():
        uses.visit(tree)
    return uses


def unused_definitions():
    """Qualnames of top-level defs/classes and non-dunder methods no program file names."""
    uses = _uses()
    found = set()
    for module, tree in _src():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            members = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                members += [
                    ("%s.%s" % (node.name, m.name), m)
                    for m in node.body
                    if _is_method(m) and not _is_dunder(m.name)
                ]
            for qualname, member in members:
                name = member.name
                if not (uses.names[name] or uses.attributes[name] or uses.words[name]):
                    found.add("%s.%s" % (module, qualname))
    return found


def _defaulted(function, method):
    """(position or None, name) of every defaulted parameter of ``function``."""
    args = function.args
    positional = list(args.posonlyargs) + list(args.args)
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in function.decorator_list)
    if method and not static and positional:
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    found = [(index, arg.arg) for index, arg in enumerate(positional) if index >= first]
    found += [(None, arg.arg) for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def _callables():
    """(qualname, callee, [(position, parameter)]) of every src function and method."""
    found = []

    def walk(body, prefix, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                qualname = prefix + node.name
                walk(node.body, qualname + ".", node)
            elif _is_method(node):
                qualname = prefix + node.name
                if node.name == "__init__" and owner is not None:
                    callee = owner.name
                elif _is_dunder(node.name):
                    walk(node.body, qualname + ".", None)
                    continue
                else:
                    callee = node.name
                found.append((qualname, callee, _defaulted(node, owner is not None)))
                walk(node.body, qualname + ".", None)

    for module, tree in _src():
        walk(tree.body, module + ".", None)
    return found


def _classvar(annotation):
    text = ast.unparse(annotation)
    return text.startswith(("ClassVar", "typing.ClassVar"))


def unset_parameters():
    """``qualname.parameter`` of every defaulted parameter no program call passes."""
    uses = _uses()
    found = set()
    for qualname, callee, params in _callables():
        if callee in uses.spread:
            continue
        positional, keywords = uses.passed.get(callee, (0, set()))
        for position, name in params:
            if name in keywords or (position is not None and position < positional):
                continue
            found.add("%s.%s" % (qualname, name))
    return found


def unread_fields():
    """``qualname.field`` of every stored field no program file reads."""
    uses = _uses()
    found = set()
    for module, tree in _src():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            names = {
                m.target.id for m in node.body
                if isinstance(m, ast.AnnAssign) and isinstance(m.target, ast.Name)
                and not _classvar(m.annotation)
            }
            for method in (m for m in node.body if _is_method(m)):
                for inner in ast.walk(method):
                    targets = []
                    if isinstance(inner, ast.Assign):
                        targets = inner.targets
                    elif isinstance(inner, (ast.AnnAssign, ast.AugAssign)):
                        targets = [inner.target]
                    for target in targets:
                        for t in ast.walk(target):
                            if (
                                isinstance(t, ast.Attribute)
                                and isinstance(t.value, ast.Name)
                                and t.value.id == "self"
                            ):
                                names.add(t.attr)
            for name in names:
                if not (uses.attributes[name] or uses.words[name]):
                    found.add("%s.%s.%s" % (module, node.name, name))
    return found


def validated_only_fields():
    """``qualname.field`` of every class-level field read only by its own ``__post_init__``."""
    uses = _uses()
    found = set()
    for module, tree in _src():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            post_init = [m for m in node.body if _is_method(m) and m.name == "__post_init__"]
            if not post_init:
                continue
            inside = _Uses()
            inside.visit(post_init[0])
            for m in node.body:
                if not (isinstance(m, ast.AnnAssign) and isinstance(m.target, ast.Name)):
                    continue
                name = m.target.id
                reads = inside.attributes[name] + inside.words[name]
                if reads and reads == uses.attributes[name] + uses.words[name]:
                    found.add("%s.%s.%s" % (module, node.name, name))
    return found


def _check(found, keep):
    assert sorted(found - set(keep)) == [], "found by the check and not kept"
    assert sorted(set(keep) - found) == [], "keep entries that are gone or now used"
    assert sorted(q for q, reason in keep.items() if reason not in REASONS) == []


def test_every_src_definition_is_used_or_kept():
    _check(unused_definitions(), KEEP)


def test_every_defaulted_parameter_is_passed_or_kept():
    _check(unset_parameters(), KEEP_PARAMETERS)


def test_every_stored_field_is_read_or_kept():
    _check(unread_fields(), KEEP_FIELDS)


def test_no_field_is_only_validated():
    assert sorted(validated_only_fields()) == []
