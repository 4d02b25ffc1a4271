"""simlint: AST-based determinism & simulation-correctness checks.

The linter parses each file once, builds a little per-module context
(import aliases, which attributes are set-typed, which private names
the module itself owns), then runs all enabled rules in a single AST
walk.  See :mod:`repro.analysis.rules` for what each SIM rule means.

Suppression:

- ``# simlint: ignore[SIM003]`` on the offending line (or on a comment
  line directly above it) suppresses the named rules; ``# simlint:
  ignore`` suppresses every rule for that line.
- ``# simlint: skip-file`` anywhere in the first ten lines skips the
  whole file.
- a baseline file (JSON, see :func:`load_baseline`) grandfathers
  existing violations so new code is held to a higher bar than legacy
  code; baselined entries are keyed by a line-number-independent
  fingerprint so unrelated edits do not resurrect them.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .rules import RULES, Rule, rule_by_id

__all__ = [
    "Violation",
    "LintResult",
    "lint_source",
    "lint_paths",
    "is_entropy_call",
    "iter_python_files",
    "load_baseline",
    "write_baseline",
    "apply_baseline",
    "render_human",
    "render_json",
]

# ---------------------------------------------------------------------------
# Rule knobs (kept together so the doc can point at one place)
# ---------------------------------------------------------------------------

# SIM001: fully-qualified callables that read host time / OS entropy.
ENTROPY_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.clock_gettime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
}
# module-level RNG namespaces: any call into them is host entropy
# (seeded instances constructed via random.Random(seed) are fine).
_RANDOM_MODULE_OK = {"random.Random", "random.SystemRandom"}   # SIM009's turf
_NUMPY_RANDOM_OK = {
    "numpy.random.default_rng", "numpy.random.Generator",
    "numpy.random.SeedSequence", "numpy.random.PCG64",
}

# SIM002: calls that turn iteration order into event order.
SCHEDULING_ATTRS = {
    "succeed", "fail", "timeout", "process", "schedule", "submit",
    "heappush", "heapify", "interrupt",
}
DICT_VIEW_ATTRS = {"keys", "values", "items"}
ORDER_SAFE_WRAPPERS = {"sorted", "min", "max", "sum", "len", "frozenset",
                       "set", "any", "all"}

# SIM003: callables whose first delay-like argument must stay integral.
CLOCK_SINK_ATTRS = {"timeout": 0, "compute": 0, "sleep": 0}
CLOCK_SINK_NAMES = {"Timeout": 1}          # Timeout(sim, delay)
INT_CASTS = {"int", "round", "floor", "ceil"}

# SIM004: attribute calls whose result is an Event (yielding them is the
# protocol); a generator that yields at least one of these is treated as
# a simulation process, and its other yields are held to the protocol.
EVENT_FACTORY_ATTRS = {
    "timeout", "event", "process", "any_of", "all_of",
    "request", "acquire", "get", "put", "submit", "block", "poll",
}

# SIM008: modules whose classes are allocated on the per-I/O hot path.
HOT_PATH_MODULES = ("sim/engine.py", "nvme/spec.py", "sim/trace.py",
                    "sim/spans.py")
HOT_BASE_CLASSES = {"Event", "Timeout", "Process", "Condition"}
# Plain classes built for every I/O in those modules, checked like the
# dataclasses and Event subclasses there.
HOT_RECORD_CLASSES = {"Command", "Completion"}
_EXEMPT_BASES = {"Enum", "IntEnum", "IntFlag", "Flag", "Exception",
                 "BaseException"}

# SIM011: list mutators that bypass TimeSeries.record()'s sorted-
# samples invariant.  sim/ is the owning layer; a module that assigns
# its *own* samples attribute (e.g. ``self.samples = []`` in a class's
# constructor) is a friend.
SERIES_ATTRS = {"samples"}
SERIES_MUTATORS = {"append", "extend", "insert", "remove", "pop",
                   "clear", "sort", "reverse"}

# SIM013: process-level parallelism is the experiment orchestrator's
# exclusive turf; everything else must stay single-threaded
# deterministic.  Module roots whose import is flagged, plus the pool
# names flagged wherever they are imported from.
MP_MODULE_ROOTS = {"multiprocessing", "_multiprocessing"}
MP_POOL_NAMES = {"ProcessPoolExecutor", "ThreadPoolExecutor", "Pool"}
MP_ALLOWED_SUFFIX = "bench/runner.py"

# SIM014: the chaos oracles (repro/chaos/oracles.py) must be pure
# observers — judging a run may not change it.  Within that module we
# flag (a) attribute assignment/deletion on anything that is not
# ``self``, and (b) calls to known mutating method names on any
# receiver except *scratch*: a local name bound to a freshly built
# container (``out = []``, ``seen = set()``).  Parameters, loop
# variables and lookups are simulation state; scratch is the oracle's
# own working memory.
ORACLE_MODULE_SUFFIX = "chaos/oracles.py"
ORACLE_MUTATORS = {
    # container mutators
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse", "update", "setdefault", "add", "discard",
    # event/engine/process mutators
    "succeed", "fail", "interrupt", "schedule", "run", "run_process",
    "process", "spawn", "timeout",
    # device/queue/kernel mutators
    "submit", "abort", "reap", "post_completion", "pop_completion",
    "write_blocks", "zero_blocks", "flush",
    # telemetry / fault / fs mutators
    "record", "observe", "inc", "set", "log", "commit",
    "drop_running", "record_crash", "sample", "arm", "disarm",
    "recover_after_crash", "put", "acquire", "release",
}
ORACLE_FRESH_BUILTINS = {"list", "dict", "set", "tuple", "sorted",
                         "Counter", "defaultdict", "OrderedDict"}

# SIM012: the documented gauge naming scheme (docs/observability.md):
# <subsystem>.<object>.<metric> — lowercase/digits/underscores, two or
# more dot-separated components.  Keep in sync with
# repro.obs.monitor.GAUGE_NAME_RE.
GAUGE_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")

_PRAGMA_RE = re.compile(r"#\s*simlint:\s*ignore(?:\[([A-Z0-9,\s]+)\])?")
_SKIP_FILE_RE = re.compile(r"#\s*simlint:\s*skip-file")


def is_entropy_call(full: str) -> bool:
    """True when the dotted callable ``full`` reads host time/entropy.

    Shared between the per-module SIM001 check and the whole-program
    SIM016 taint seed (:mod:`repro.analysis.program`).
    """
    return (
        full in ENTROPY_CALLS
        or full.startswith("secrets.")
        or (full.startswith("random.")
            and full not in _RANDOM_MODULE_OK
            and full.count(".") == 1)
        or (full.startswith("numpy.random.")
            and full not in _NUMPY_RANDOM_OK)
    )


# ---------------------------------------------------------------------------
# Violations
# ---------------------------------------------------------------------------

@dataclass
class Violation:
    """A rule finding at ``path:line:col``, with its autofix if known."""

    rule: Rule
    path: str
    line: int
    col: int
    message: str
    source_line: str = ""
    # set by the autofixer when it knows a mechanical rewrite
    fix_span: Optional[Tuple[int, int, int, int]] = None  # l0,c0,l1,c1
    fix_text: Optional[str] = None

    @property
    def fingerprint(self) -> str:
        """Stable identity for baselining: independent of line numbers."""
        h = hashlib.sha1()
        h.update(self.rule.id.encode())
        h.update(b"\0")
        h.update(self.path.encode())
        h.update(b"\0")
        h.update(self.source_line.strip().encode())
        return h.hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            "rule": self.rule.id,
            "name": self.rule.name,
            "severity": self.rule.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }


@dataclass
class LintResult:
    """The findings of one lint run and how many files it checked."""

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    baselined: int = 0

    @property
    def errors(self) -> List[Violation]:
        return [v for v in self.violations if v.rule.severity == "error"]

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# Module context: what the file as a whole tells us
# ---------------------------------------------------------------------------

class _ModuleContext:
    """Facts gathered in a pre-pass over the whole module."""

    def __init__(self, tree: ast.Module, source_lines: List[str]):
        self.aliases: Dict[str, str] = {}       # local name -> dotted path
        self.set_attrs: Set[str] = set()        # attrs assigned set() etc.
        self.dict_attrs: Set[str] = set()
        self.own_private: Set[str] = set()      # attrs the module assigns
        self.own_attrs: Set[str] = set()        # every name it assigns
        self.source_lines = source_lines
        self._scan(tree)

    def _scan(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    self.aliases[a.asname or a.name.split(".")[0]] = a.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for a in node.names:
                    self.aliases[a.asname or a.name] = (
                        f"{node.module}.{a.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                value = node.value
                ann = getattr(node, "annotation", None)
                for t in targets:
                    name = None
                    if isinstance(t, ast.Attribute) and _is_self(t.value):
                        name = t.attr
                    elif isinstance(t, ast.Name):
                        name = t.id
                    if name is None:
                        continue
                    self.own_attrs.add(name)
                    if isinstance(t, ast.Attribute) and \
                            name.startswith("_") and not name.startswith("__"):
                        self.own_private.add(name)
                    kind = _container_kind(value, ann)
                    if kind == "set":
                        self.set_attrs.add(name)
                    elif kind == "dict":
                        self.dict_attrs.add(name)

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted path for a Name/Attribute chain, through import aliases."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))


def _is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id in ("self", "cls")


def _container_kind(value: Optional[ast.AST],
                    ann: Optional[ast.AST]) -> Optional[str]:
    """Classify an assignment as creating a set or a dict."""
    for a in (ann,):
        if a is None:
            continue
        txt = ast.unparse(a) if hasattr(ast, "unparse") else ""
        low = txt.lower()
        if low.startswith("set") or "set[" in low:
            return "set"
        if low.startswith("dict") or "dict[" in low or \
                low.startswith('"dict') or low.startswith("'dict"):
            return "dict"
    if value is None:
        return None
    if isinstance(value, ast.Set):
        return "set"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, ast.SetComp):
        return "set"
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        if value.func.id == "set":
            return "set"
        if value.func.id in ("dict", "OrderedDict", "defaultdict",
                            "Counter"):
            return "dict"
    return None


# ---------------------------------------------------------------------------
# The visitor
# ---------------------------------------------------------------------------

def _walk_no_nested(node: ast.AST) -> Iterable[ast.AST]:
    """Walk statements/expressions without descending into nested defs."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        n = stack.pop()
        yield n
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                          ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(n))


def _contains_yield(fn: ast.AST) -> bool:
    return any(isinstance(n, (ast.Yield, ast.YieldFrom))
               for n in _walk_no_nested(fn))


def _dotted_target(node: ast.AST) -> Optional[str]:
    """'ev', 'self._go', 'state.done' for a Name/Attribute chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _scratch_names(fn: ast.AST) -> Set[str]:
    """Names bound to freshly built containers inside ``fn`` (SIM014).

    ``out = []`` / ``seen: Set[str] = set()`` make *scratch* the
    oracle may mutate; ``inode = fs.lookup(...)`` or a loop variable
    alias simulation state and do not.
    """
    fresh: Set[str] = set()
    for n in ast.walk(fn):
        if isinstance(n, ast.Assign):
            targets, value = n.targets, n.value
        elif isinstance(n, ast.AnnAssign) and n.value is not None:
            targets, value = [n.target], n.value
        else:
            continue
        if not _is_fresh_container(value):
            continue
        for t in targets:
            if isinstance(t, ast.Name):
                fresh.add(t.id)
    return fresh


def _is_fresh_container(value: ast.AST) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.Tuple,
                          ast.ListComp, ast.SetComp, ast.DictComp,
                          ast.GeneratorExp)):
        return True
    return (isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ORACLE_FRESH_BUILTINS)


class _Checker(ast.NodeVisitor):
    def __init__(self, path: str, ctx: _ModuleContext,
                 enabled: Set[str], is_hot_module: bool):
        self.path = path
        self.ctx = ctx
        self.enabled = enabled
        self.is_hot = is_hot_module
        norm = path.replace("\\", "/")
        # sim/ owns TimeSeries and may touch .samples directly (SIM011)
        self._in_sim_layer = "/sim/" in norm or norm.startswith("sim/")
        # bench/runner.py is the one sanctioned process-pool site (SIM013)
        self._is_pool_owner = norm.endswith(MP_ALLOWED_SUFFIX)
        # chaos/oracles.py is held to read-only discipline (SIM014)
        self._is_oracle_module = norm.endswith(ORACLE_MODULE_SUFFIX)
        self._oracle_scratch: List[Set[str]] = []
        self.out: List[Violation] = []
        self._fn_stack: List[dict] = []   # {"generator":bool,"process":bool}
        # comprehension nodes consumed by an order-insensitive callable
        # (sorted(x for x in s), len(...), ...): exempt from SIM002
        self._laundered: Set[int] = set()

    # -- plumbing ----------------------------------------------------------

    def report(self, rule_id: str, node: ast.AST, message: str,
               fix_span: Optional[Tuple[int, int, int, int]] = None,
               fix_text: Optional[str] = None) -> None:
        if rule_id not in self.enabled:
            return
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        src = ""
        if 1 <= line <= len(self.ctx.source_lines):
            src = self.ctx.source_lines[line - 1]
        self.out.append(Violation(
            rule=rule_by_id(rule_id), path=self.path, line=line, col=col,
            message=message, source_line=src,
            fix_span=fix_span, fix_text=fix_text))

    def _resolve_call(self, node: ast.Call) -> Optional[str]:
        return self.ctx.resolve(node.func)

    # -- function context --------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)

    def _enter_function(self, node) -> None:
        is_gen = _contains_yield(node)
        is_process = False
        if is_gen:
            for n in _walk_no_nested(node):
                if isinstance(n, ast.Yield) and \
                        isinstance(n.value, ast.Call) and \
                        isinstance(n.value.func, ast.Attribute) and \
                        n.value.func.attr in EVENT_FACTORY_ATTRS:
                    is_process = True
                    break
        self._fn_stack.append({"generator": is_gen, "process": is_process})
        if self._is_oracle_module:
            self._oracle_scratch.append(_scratch_names(node))
        self._check_double_trigger(node)
        self.generic_visit(node)
        if self._is_oracle_module:
            self._oracle_scratch.pop()
        self._fn_stack.pop()

    @property
    def _in_generator(self) -> bool:
        return bool(self._fn_stack) and self._fn_stack[-1]["generator"]

    @property
    def _in_process(self) -> bool:
        return bool(self._fn_stack) and self._fn_stack[-1]["process"]

    # -- SIM001 / SIM009: entropy ------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and \
                node.func.id in ORDER_SAFE_WRAPPERS:
            for arg in node.args:
                if isinstance(arg, (ast.ListComp, ast.SetComp,
                                    ast.GeneratorExp)):
                    self._laundered.add(id(arg))
        full = self._resolve_call(node)
        if full:
            self._check_entropy(node, full)
            self._check_unseeded_rng(node, full)
            self._check_clock_sink(node, full)
            self._check_id_ordering_call(node, full)
            self._check_mp_call(node, full)
        self._check_series_mutation_call(node)
        self._check_gauge_name(node)
        self._check_oracle_mutation_call(node)
        self.generic_visit(node)

    def _check_entropy(self, node: ast.Call, full: str) -> None:
        if is_entropy_call(full):
            self.report(
                "SIM001", node,
                f"call to {full}() reads wall-clock time or OS entropy; "
                f"use sim.now / a seeded random.Random instead")

    def _check_unseeded_rng(self, node: ast.Call, full: str) -> None:
        if full == "random.SystemRandom":
            self.report("SIM009", node,
                        "random.SystemRandom draws OS entropy and cannot "
                        "be seeded; use random.Random(seed)")
            return
        if full in ("random.Random", "numpy.random.default_rng",
                    "numpy.random.SeedSequence"):
            if not node.args and not node.keywords:
                self.report(
                    "SIM009", node,
                    f"{full}() constructed without a seed draws OS "
                    f"entropy; thread a seed from the experiment config")

    # -- SIM003: float into the clock --------------------------------------

    def _check_clock_sink(self, node: ast.Call, full: str) -> None:
        arg_idx: Optional[int] = None
        label = full
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in CLOCK_SINK_ATTRS:
            arg_idx = CLOCK_SINK_ATTRS[node.func.attr]
            label = node.func.attr
        else:
            tail = full.rsplit(".", 1)[-1]
            if tail in CLOCK_SINK_NAMES:
                arg_idx = CLOCK_SINK_NAMES[tail]
                label = tail
        if arg_idx is None or len(node.args) <= arg_idx:
            return
        arg = node.args[arg_idx]
        taint = _float_taint(arg)
        if taint is not None:
            fix = None
            if isinstance(taint, ast.Constant) and \
                    getattr(taint, "end_lineno", None) == taint.lineno:
                fix = (taint.lineno, taint.col_offset,
                       taint.end_lineno, taint.end_col_offset)
            self.report(
                "SIM003", arg,
                f"{label}() receives a float "
                f"({ast.unparse(arg) if hasattr(ast, 'unparse') else '?'}); "
                f"the clock is integer nanoseconds — wrap in int()",
                fix_span=fix,
                fix_text=(f"int({ast.unparse(taint)})"
                          if fix and hasattr(ast, "unparse") else None))

    def visit_Assign(self, node: ast.Assign) -> None:
        for t in node.targets:
            if isinstance(t, ast.Attribute) and t.attr == "now" and \
                    _float_taint(node.value) is not None:
                self.report("SIM003", node,
                            "assigning a float to the simulation clock; "
                            "sim.now is integer nanoseconds")
            self._check_private_mutation(t)
            self._check_series_rebind(t)
            self._check_oracle_assign(t)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        t = node.target
        if isinstance(t, ast.Attribute) and t.attr == "now" and \
                _float_taint(node.value) is not None:
            self.report("SIM003", node,
                        "float arithmetic on the simulation clock; "
                        "sim.now is integer nanoseconds")
        self._check_private_mutation(t)
        self._check_series_rebind(t)
        self._check_oracle_assign(t)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for t in node.targets:
            self._check_private_mutation(t)
            self._check_oracle_assign(t)
        self.generic_visit(node)

    # -- SIM007: cross-layer private mutation -------------------------------

    def _check_private_mutation(self, target: ast.AST) -> None:
        if not isinstance(target, ast.Attribute):
            return
        attr = target.attr
        if not attr.startswith("_") or attr.startswith("__"):
            return
        base = target.value
        if _is_self(base):
            return
        # friend access: some class in this module owns the attribute
        if attr in self.ctx.own_private:
            return
        expr = _dotted_target(target) or f"?.{attr}"
        self.report(
            "SIM007", target,
            f"mutating private state {expr} across a layer boundary; "
            f"add a public method on the owning class")

    # -- SIM011 / SIM012: telemetry hygiene ---------------------------------

    def _check_series_mutation_call(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in SERIES_MUTATORS
                and isinstance(func.value, ast.Attribute)
                and func.value.attr in SERIES_ATTRS):
            return
        self._report_series_mutation(func.value, f".{func.attr}()")

    def _check_series_rebind(self, target: ast.AST) -> None:
        if isinstance(target, ast.Attribute) and \
                target.attr in SERIES_ATTRS:
            self._report_series_mutation(target, " assignment")

    def _report_series_mutation(self, attr_node: ast.Attribute,
                                how: str) -> None:
        if self._in_sim_layer:
            return
        if _is_self(attr_node.value):
            return
        # Friend: this module assigns a samples attribute of its own
        # (e.g. a class whose constructor sets `self.samples = []`).
        if attr_node.attr in self.ctx.own_attrs:
            return
        expr = _dotted_target(attr_node) or f"?.{attr_node.attr}"
        self.report(
            "SIM011", attr_node,
            f"direct {expr}{how} bypasses TimeSeries.record() and can "
            f"break the sorted-samples invariant windowed SLO reducers "
            f"rely on; use record()")

    # -- SIM014: chaos oracles are pure observers ---------------------------

    def _oracle_is_scratch(self, name: str) -> bool:
        return any(name in frame for frame in self._oracle_scratch)

    def _check_oracle_assign(self, target: ast.AST) -> None:
        if not self._is_oracle_module:
            return
        if isinstance(target, ast.Attribute):
            if _is_self(target.value):
                return
            # friend: attributes the module assigns itself (cf. SIM011)
            if target.attr in self.ctx.own_attrs:
                return
            expr = _dotted_target(target) or f"?.{target.attr}"
            self.report(
                "SIM014", target,
                f"oracle assigns {expr}: oracles must not mutate the "
                f"run they are judging — move state changes into the "
                f"executor")
        elif isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Name) and \
                    self._oracle_is_scratch(base.id):
                return
            expr = _dotted_target(base) or "<expr>"
            self.report(
                "SIM014", target,
                f"oracle writes into {expr}[...]: only locally built "
                f"scratch containers may be mutated inside an oracle")

    def _check_oracle_mutation_call(self, node: ast.Call) -> None:
        if not self._is_oracle_module:
            return
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in ORACLE_MUTATORS):
            return
        recv = func.value
        if _is_self(recv):
            return
        # self.items.append(...): the class's own state, not the run's
        if isinstance(recv, ast.Attribute) and _is_self(recv.value):
            return
        if isinstance(recv, ast.Name) and \
                self._oracle_is_scratch(recv.id):
            return
        expr = _dotted_target(recv) or "<expr>"
        self.report(
            "SIM014", node,
            f"oracle calls {expr}.{func.attr}(): mutating methods on "
            f"simulation state are off limits inside oracles — read "
            f"attributes and return Violations instead")

    def _check_gauge_name(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "gauge"):
            return
        if not node.args:
            return
        arg = node.args[0]
        if not (isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)):
            return     # dynamic names: the producer's responsibility
        if GAUGE_NAME_RE.match(arg.value):
            return
        self.report(
            "SIM012", arg,
            f"gauge name {arg.value!r} is outside the documented scheme "
            f"<subsystem>.<object>.<metric> (lowercase dotted, two or "
            f"more components; see docs/observability.md)")

    # -- SIM013: multiprocessing outside the runner --------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in MP_MODULE_ROOTS:
                self._report_mp(node, f"import {alias.name}")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        root = module.split(".")[0]
        if root in MP_MODULE_ROOTS:
            self._report_mp(node, f"from {module} import ...")
        elif root == "concurrent":
            pools = [a.name for a in node.names
                     if a.name in MP_POOL_NAMES or a.name == "*"]
            if pools:
                self._report_mp(
                    node, f"from {module} import {', '.join(pools)}")
        self.generic_visit(node)

    def _check_mp_call(self, node: ast.Call, full: str) -> None:
        root = full.split(".")[0]
        if root in MP_MODULE_ROOTS or (
                root == "concurrent"
                and full.rsplit(".", 1)[-1] in MP_POOL_NAMES):
            self._report_mp(node, f"call to {full}()")

    def _report_mp(self, node: ast.AST, what: str) -> None:
        if self._is_pool_owner:
            return
        self.report(
            "SIM013", node,
            f"{what}: process-level parallelism is allowed only in "
            f"repro/bench/runner.py (the experiment orchestrator); "
            f"simulation code must stay single-threaded deterministic")

    # -- SIM002: unordered iteration ----------------------------------------

    def visit_For(self, node: ast.For) -> None:
        kind = self._iterable_kind(node.iter)
        if kind and self._body_schedules(node.body):
            self.report(
                "SIM002", node.iter,
                f"iterating a {kind} while the loop body schedules "
                f"events; wrap the iterable in sorted() to pin the order",
                **self._sorted_fix(node.iter))
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comp(node)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._check_comp(node)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comp(node)
        self.generic_visit(node)

    def _check_comp(self, node) -> None:
        if not self._in_generator or id(node) in self._laundered:
            return
        for gen in node.generators:
            kind = self._iterable_kind(gen.iter, sets_only=True)
            if kind:
                self.report(
                    "SIM002", gen.iter,
                    f"comprehension over a {kind} inside a simulation "
                    f"process; the result order feeds event scheduling — "
                    f"wrap the iterable in sorted()",
                    **self._sorted_fix(gen.iter))

    def _sorted_fix(self, iter_node: ast.AST) -> dict:
        if getattr(iter_node, "end_lineno", None) != iter_node.lineno or \
                not hasattr(ast, "unparse"):
            return {}
        return {
            "fix_span": (iter_node.lineno, iter_node.col_offset,
                         iter_node.end_lineno, iter_node.end_col_offset),
            "fix_text": f"sorted({ast.unparse(iter_node)})",
        }

    def _iterable_kind(self, it: ast.AST,
                       sets_only: bool = False) -> Optional[str]:
        """'set' / 'dict view' if ``it`` iterates in hash/insertion order."""
        if isinstance(it, ast.Call) and isinstance(it.func, ast.Name) and \
                it.func.id in ORDER_SAFE_WRAPPERS:
            return None
        if isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute):
            if it.func.attr in DICT_VIEW_ATTRS and not sets_only:
                return "dict view"
            return None
        kind = self._expr_container(it)
        if kind == "set":
            return "set"
        if kind == "dict" and not sets_only:
            return "dict"
        return None

    def _expr_container(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
            return "set"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "set":
                return "set"
            return None
        name = None
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        if name is None:
            return None
        if name in self.ctx.set_attrs:
            return "set"
        if name in self.ctx.dict_attrs:
            return "dict"
        return None

    def _body_schedules(self, body: Sequence[ast.stmt]) -> bool:
        for stmt in body:
            for n in _walk_no_nested_stmts(stmt):
                if isinstance(n, (ast.Yield, ast.YieldFrom)):
                    return True
                if isinstance(n, ast.Call) and \
                        isinstance(n.func, ast.Attribute) and \
                        n.func.attr in SCHEDULING_ATTRS:
                    return True
                if isinstance(n, ast.Call) and \
                        isinstance(n.func, ast.Name) and \
                        n.func.id in ("heappush", "heapify"):
                    return True
        return False

    # -- SIM004: yield of a raw value ---------------------------------------

    def visit_Yield(self, node: ast.Yield) -> None:
        if self._in_process:
            bad = node.value is None or isinstance(
                node.value, (ast.Constant, ast.BinOp, ast.Compare,
                             ast.List, ast.Tuple, ast.Dict, ast.Set,
                             ast.JoinedStr))
            if bad:
                what = ("nothing" if node.value is None else
                        ast.unparse(node.value)
                        if hasattr(ast, "unparse") else "a raw value")
                self.report(
                    "SIM004", node,
                    f"simulation process yields {what}; processes must "
                    f"yield Event objects (sim.timeout(...), ev, ...)")
        self.generic_visit(node)

    # -- SIM005: double trigger ---------------------------------------------

    def _check_double_trigger(self, fn) -> None:
        for block in _statement_blocks(fn):
            seen: Dict[str, ast.AST] = {}
            for stmt in block:
                if isinstance(stmt, (ast.If, ast.For, ast.While, ast.Try,
                                     ast.With, ast.Return, ast.Raise,
                                     ast.Continue, ast.Break)):
                    seen.clear()
                    continue
                call = _trigger_call(stmt)
                if call is None:
                    continue
                target, node = call
                if target in seen:
                    self.report(
                        "SIM005", node,
                        f"{target}.succeed()/fail() already called on "
                        f"this path; events are one-shot")
                else:
                    seen[target] = node

    # -- SIM006: swallowed interrupt ----------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if _catches_interrupt(node.type) and _body_is_empty(node.body):
            self.report(
                "SIM006", node,
                "except Interrupt with an empty body swallows the "
                "interrupt cause; re-raise, return, or handle it")
        self.generic_visit(node)

    # -- SIM008: missing __slots__ ------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.is_hot:
            self._check_slots(node)
        self._fn_stack.append({"generator": False, "process": False})
        self.generic_visit(node)
        self._fn_stack.pop()

    def _check_slots(self, node: ast.ClassDef) -> None:
        base_names = {b.id if isinstance(b, ast.Name) else
                      getattr(b, "attr", "") for b in node.bases}
        if base_names & _EXEMPT_BASES:
            return
        is_dataclass = False
        has_slots_kw = False
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = (target.id if isinstance(target, ast.Name)
                    else getattr(target, "attr", ""))
            if name == "dataclass":
                is_dataclass = True
                if isinstance(dec, ast.Call):
                    for kw in dec.keywords:
                        if kw.arg == "slots" and \
                                isinstance(kw.value, ast.Constant) and \
                                kw.value.value is True:
                            has_slots_kw = True
        has_slots_body = any(
            isinstance(s, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in s.targets)
            for s in node.body)
        relevant = (is_dataclass or bool(base_names & HOT_BASE_CLASSES)
                    or node.name in HOT_RECORD_CLASSES)
        if not relevant:
            return
        if is_dataclass and not has_slots_kw:
            self.report(
                "SIM008", node,
                f"hot-path dataclass {node.name} without slots=True; "
                f"instances are allocated per-I/O")
        elif not is_dataclass and not has_slots_body:
            self.report(
                "SIM008", node,
                f"hot-path class {node.name} without __slots__; "
                f"instances are allocated per-I/O")

    # -- SIM010: id() ordering ----------------------------------------------

    def _check_id_ordering_call(self, node: ast.Call, full: str) -> None:
        tail = full.rsplit(".", 1)[-1]
        # d.get(id(x)) / d.pop(id(x)) / d.setdefault(id(x), ...)
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in ("get", "pop", "setdefault") and \
                node.args and _is_id_call(node.args[0]):
            self.report(
                "SIM010", node.args[0],
                "id() used as a container key; memory addresses differ "
                "across runs — use a deterministic identifier")
            return
        if tail in ("sorted", "min", "max"):
            for kw in node.keywords:
                if kw.arg != "key":
                    continue
                if isinstance(kw.value, ast.Name) and kw.value.id == "id":
                    self.report("SIM010", kw.value,
                                "sorting by id() orders by memory address")
                elif isinstance(kw.value, ast.Lambda) and any(
                        _is_id_call(n)
                        for n in ast.walk(kw.value.body)):
                    self.report("SIM010", kw.value,
                                "sort key uses id(); memory addresses "
                                "differ across runs")
        if tail in ("heappush",):
            for arg in node.args:
                for n in ast.walk(arg):
                    if _is_id_call(n):
                        self.report(
                            "SIM010", n,
                            "id() inside a heap entry makes the heap "
                            "order address dependent")

    def visit_Subscript(self, node: ast.Subscript) -> None:
        sl = node.slice
        if _is_id_call(sl):
            self.report(
                "SIM010", sl,
                "id() used as a container key; memory addresses differ "
                "across runs — use a deterministic identifier")
        self.generic_visit(node)


def _is_id_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id")


def _walk_no_nested_stmts(stmt: ast.stmt) -> Iterable[ast.AST]:
    stack: List[ast.AST] = [stmt]
    while stack:
        n = stack.pop()
        yield n
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                          ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(n))


def _statement_blocks(fn) -> Iterable[List[ast.stmt]]:
    """Every statement list inside ``fn`` (body, orelse, finally, ...)."""
    stack: List[ast.AST] = [fn]
    while stack:
        n = stack.pop()
        for name in ("body", "orelse", "finalbody"):
            block = getattr(n, name, None)
            if isinstance(block, list) and block and \
                    isinstance(block[0], ast.stmt):
                yield block
        for child in ast.iter_child_nodes(n):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            stack.append(child)


def _trigger_call(stmt: ast.stmt) -> Optional[Tuple[str, ast.AST]]:
    if not isinstance(stmt, ast.Expr) or \
            not isinstance(stmt.value, ast.Call):
        return None
    call = stmt.value
    if not isinstance(call.func, ast.Attribute) or \
            call.func.attr not in ("succeed", "fail"):
        return None
    target = _dotted_target(call.func.value)
    if target is None:
        return None
    return target, call


def _catches_interrupt(type_node: Optional[ast.AST]) -> bool:
    if type_node is None:
        return False
    candidates = (type_node.elts if isinstance(type_node, ast.Tuple)
                  else [type_node])
    for c in candidates:
        name = (c.id if isinstance(c, ast.Name)
                else getattr(c, "attr", ""))
        if name == "Interrupt":
            return True
    return False


def _body_is_empty(body: Sequence[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and \
                isinstance(stmt.value, ast.Constant):
            continue
        return False
    return True


def _float_taint(node: ast.AST) -> Optional[ast.AST]:
    """The sub-expression that makes ``node`` float-valued, or None.

    int()/round()/floor()/ceil() launder the taint; ``//`` is integer
    division and safe; ``/`` is always float in Python 3.
    """
    if isinstance(node, ast.Constant):
        return node if isinstance(node.value, float) else None
    if isinstance(node, ast.Call):
        name = (node.func.id if isinstance(node.func, ast.Name)
                else getattr(node.func, "attr", ""))
        if name in INT_CASTS:
            return None
        return None   # unknown call: assume the callee keeps the contract
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return node
        left = _float_taint(node.left)
        if left is not None:
            return left
        return _float_taint(node.right)
    if isinstance(node, ast.UnaryOp):
        return _float_taint(node.operand)
    if isinstance(node, ast.IfExp):
        return _float_taint(node.body) or _float_taint(node.orelse)
    return None


# ---------------------------------------------------------------------------
# Pragmas
# ---------------------------------------------------------------------------

def _merge_pragma_ids(a: Optional[Set[str]],
                      b: Optional[Set[str]]) -> Optional[Set[str]]:
    """Union of two suppression sets; None ("all rules") absorbs."""
    if a is None or b is None:
        return None
    return a | b


def _pragma_map(source_lines: List[str]) -> Dict[int, Optional[Set[str]]]:
    """line -> suppressed rule ids (None = all rules).

    A comment-only pragma line covers the next line too.  Stacked
    comment pragmas cascade — each comment line's accumulated set
    (its own rules plus anything carried from comment pragmas above)
    flows onto the following line — and an own-line pragma under a
    comment pragma *merges* with the carried set instead of
    overwriting it.
    """
    out: Dict[int, Optional[Set[str]]] = {}
    carry: Optional[Set[str]] = None
    have_carry = False
    for i, line in enumerate(source_lines, start=1):
        m = _PRAGMA_RE.search(line)
        own: Optional[Set[str]] = None
        have_own = False
        if m:
            have_own = True
            if m.group(1) is not None:
                own = {p.strip() for p in m.group(1).split(",")
                       if p.strip()}
        if have_own and have_carry:
            eff = _merge_pragma_ids(own, carry)
        elif have_own:
            eff = own
        elif have_carry:
            eff = carry
        else:
            carry, have_carry = None, False
            continue
        out[i] = eff
        # a comment-only pragma line forwards its accumulated set
        if m and line.strip().startswith("#"):
            carry, have_carry = eff, True
        else:
            carry, have_carry = None, False
    return out


def _suppressed(v: Violation,
                pragmas: Dict[int, Optional[Set[str]]]) -> bool:
    ids = pragmas.get(v.line, "missing")
    if ids == "missing":
        return False
    return ids is None or v.rule.id in ids   # type: ignore[operator]


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def lint_source(source: str, path: str = "<string>",
                enabled: Optional[Iterable[str]] = None,
                is_hot_module: Optional[bool] = None) -> List[Violation]:
    """Lint one module's source text; returns un-suppressed violations."""
    enabled_set = set(enabled) if enabled is not None else \
        {r.id for r in RULES}
    lines = source.splitlines()
    for line in lines[:10]:
        if _SKIP_FILE_RE.search(line):
            return []
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        line_no = exc.lineno or 1
        src = lines[line_no - 1] if 1 <= line_no <= len(lines) else ""
        v = Violation(rule=rule_by_id("SIM000"), path=path,
                      line=line_no, col=exc.offset or 0,
                      message=f"syntax error: {exc.msg}",
                      source_line=src)
        return [v] if "SIM000" in enabled_set else []
    if is_hot_module is None:
        norm = path.replace("\\", "/")
        is_hot_module = any(norm.endswith(m) for m in HOT_PATH_MODULES)
    ctx = _ModuleContext(tree, lines)
    checker = _Checker(path, ctx, enabled_set, is_hot_module)
    checker.visit(tree)
    pragmas = _pragma_map(lines)
    kept = [v for v in checker.out if not _suppressed(v, pragmas)]
    kept.sort(key=lambda v: (v.line, v.col, v.rule.id))
    return kept


def iter_python_files(paths: Sequence[str]) -> Iterable[Path]:
    for p in paths:
        path = Path(p)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(paths: Sequence[str],
               enabled: Optional[Iterable[str]] = None,
               root: Optional[str] = None) -> LintResult:
    result = LintResult()
    root_path = Path(root) if root else None
    for f in iter_python_files(paths):
        rel = f
        if root_path is not None:
            try:
                rel = f.relative_to(root_path)
            except ValueError:
                rel = f
        result.files_checked += 1
        source = f.read_text(encoding="utf-8")
        result.violations.extend(
            lint_source(source, path=str(rel).replace("\\", "/"),
                        enabled=enabled))
    return result


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------

def load_baseline(path: str) -> Dict[str, str]:
    """fingerprint -> justification (free text)."""
    p = Path(path)
    if not p.exists():
        return {}
    data = json.loads(p.read_text(encoding="utf-8"))
    entries = data.get("violations", data) if isinstance(data, dict) else {}
    out: Dict[str, str] = {}
    for fp, meta in entries.items():
        out[fp] = meta.get("justification", "") \
            if isinstance(meta, dict) else str(meta)
    return out


def write_baseline(path: str, violations: Sequence[Violation],
                   justification: str = "grandfathered") -> None:
    entries = {}
    for v in violations:
        entries[v.fingerprint] = {
            "rule": v.rule.id,
            "path": v.path,
            "line": v.line,
            "summary": v.message,
            "justification": justification,
        }
    payload = {
        "comment": "simlint baseline: existing violations grandfathered "
                   "for incremental burn-down.  Do not add entries by "
                   "hand without a justification.",
        "violations": entries,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n", encoding="utf-8")


def apply_baseline(result: LintResult,
                   baseline: Dict[str, str]) -> LintResult:
    kept, skipped = [], 0
    for v in result.violations:
        if v.fingerprint in baseline:
            skipped += 1
        else:
            kept.append(v)
    return LintResult(violations=kept,
                      files_checked=result.files_checked,
                      baselined=result.baselined + skipped)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_human(result: LintResult) -> str:
    lines = []
    for v in result.violations:
        lines.append(f"{v.path}:{v.line}:{v.col + 1}: "
                     f"{v.rule.id} {v.rule.severity}: {v.message}")
        if v.source_line.strip():
            lines.append(f"    {v.source_line.strip()}")
    n_err = len(result.errors)
    n_warn = len(result.violations) - n_err
    lines.append(
        f"simlint: {result.files_checked} files, {n_err} errors, "
        f"{n_warn} warnings"
        + (f", {result.baselined} baselined" if result.baselined else ""))
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    return json.dumps({
        "files_checked": result.files_checked,
        "baselined": result.baselined,
        "violations": [v.to_dict() for v in result.violations],
    }, indent=2)
