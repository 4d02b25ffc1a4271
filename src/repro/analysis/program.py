"""Whole-program analysis: import graph, call graph, fact inference.

The per-module linter (:mod:`repro.analysis.linter`) sees one file at
a time, which is exactly the blind spot a layered simulator cannot
afford: ``time.time()`` hidden one helper away, an oracle calling a
mutating method through a module boundary, ``nvme/`` importing
``apps/``.  This module parses the whole package **once** and builds:

1. a **module import graph** (checked against the architecture DAG in
   :mod:`repro.analysis.architecture` — rule SIM015, including cycle
   detection);
2. a **conservative call graph** with per-function fact summaries —
   reads host entropy, mutates non-local state, allocates unslotted
   classes — **fixpoint-propagated** interprocedurally (rules SIM016,
   SIM017, SIM018).

Call edges come in two kinds.  *Direct* edges are precisely resolved:
module-level calls, imported names (through ``__init__`` re-export
chains), ``self.method()`` through the class and its repo bases, and
``super().__init__``.  *Dynamic* edges resolve an attribute call by
method name against every repo class that defines it — deliberately
over-approximate.  Entropy taint (SIM016) and hot-path reachability
(SIM018) follow direct edges plus dynamic edges with a *unique*
candidate; purity facts (SIM017) follow every edge, because an oracle
must not call anything that *might* mutate the run it is judging.

Known conservatisms (documented in docs/static_analysis.md): first-
class function values and callbacks are not followed; a local name
rebound from simulation state (``qp = machine.qps[0]``) roots as
unknown non-local state; builtin container mutators (``.append`` &c.)
are assumed to mutate their receiver even if a repo class defines a
pure method of the same name.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .architecture import Layer, Manifest, ManifestError, default_manifest
from .linter import (
    Violation,
    _SKIP_FILE_RE,
    _pragma_map,
    _suppressed,
    is_entropy_call,
    rule_by_id,
)
from .rules import RULES

__all__ = [
    "Program",
    "ProgramResult",
    "build_program",
    "analyze_program",
    "lint_program",
    "export_dot",
    "export_json",
]

# Builtin container methods that mutate their receiver: Python
# semantics, not repo guesswork (cf. the SIM014 name list this pass
# replaces for repo helpers).
BUILTIN_MUTATORS = {
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse", "update", "setdefault", "add", "discard", "popitem",
    "appendleft", "popleft",
}

# Method names shared with builtin dict/list/str *read* APIs: never
# resolved by name — ``d.get(k)`` on a plain dict would otherwise
# alias every repo class that defines a method called ``get``
# (sim.resources.Store.get schedules events) and poison the purity of
# everything that reads a dict.  Precisely-resolved calls to such
# methods (self.get(), an imported symbol) still form direct edges.
DYNAMIC_NAME_SKIP = {
    "get", "keys", "values", "items", "copy", "count", "index",
    "split", "join", "strip", "startswith", "endswith", "format",
    "encode", "decode", "hex", "bit_length",
}

# Constructors of fresh containers: mutating their result is scratch.
FRESH_BUILTINS = {
    "list", "dict", "set", "tuple", "frozenset", "sorted", "reversed",
    "Counter", "defaultdict", "OrderedDict", "deque", "bytearray",
}

# Base-class names that exempt a class from the slots requirement.
SLOTS_EXEMPT_BASES = {
    "Enum", "IntEnum", "IntFlag", "Flag", "StrEnum",
    "Exception", "BaseException", "ValueError", "KeyError",
    "TypeError", "RuntimeError", "OSError", "AttributeError",
    "NamedTuple", "Protocol", "ABC", "Generic",
}

_MAX_DYNAMIC_CANDIDATES = 25
_MAX_REEXPORT_DEPTH = 8

# Roots for receiver/argument classification.
SELF, SCRATCH, PARAM, OTHER, FRESH = \
    "self", "scratch", "param", "other", "fresh"

_EMPTY_LAYER = Layer("", ())


# ---------------------------------------------------------------------------
# Graph data model
# ---------------------------------------------------------------------------

@dataclass
class CallSite:
    """One resolved call edge out of a function."""

    line: int
    callee: str                    # function qualname "pkg.mod:Class.m"
    kind: str                      # "direct" | "dynamic"
    unique: bool = True            # dynamic edge with a single candidate
    receiver_root: Optional[str] = None   # SELF/SCRATCH/PARAM/OTHER/None
    arg_roots: Tuple[str, ...] = ()


@dataclass
class AllocSite:
    """A class instantiation inside a function body."""

    line: int
    cls: str                       # class dotted path "pkg.mod.Class"


@dataclass
class MutationSite:
    """A state mutation inside a function body."""

    line: int
    desc: str                      # human description of the mutation


@dataclass
class FunctionInfo:
    """One function's identity and its intraprocedural seed facts."""

    qualname: str                  # "pkg.mod:Class.m" or "pkg.mod:f"
    module: str
    name: str
    cls: Optional[str]
    lineno: int
    # seed facts (intraprocedural)
    entropy_sites: List[Tuple[int, str]] = field(default_factory=list)
    mutations: Dict[str, MutationSite] = field(default_factory=dict)
    allocations: List[AllocSite] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One class: its bases, ``__slots__`` and methods."""

    name: str
    module: str
    lineno: int
    bases: List[str] = field(default_factory=list)   # resolved or raw
    has_slots: bool = False
    methods: Dict[str, str] = field(default_factory=dict)  # name -> qual

    @property
    def dotted(self) -> str:
        return f"{self.module}.{self.name}"


@dataclass
class ModuleInfo:
    """One parsed module: its imports, aliases, functions and classes."""

    name: str                      # "repro.sim.engine"
    path: str                      # repo-relative posix path
    is_package: bool
    tree: Optional[ast.Module]
    lines: List[str]
    aliases: Dict[str, str] = field(default_factory=dict)
    imports: Dict[str, int] = field(default_factory=dict)  # mod -> line
    functions: Dict[str, str] = field(default_factory=dict)  # f -> qual
    classes: Dict[str, ClassInfo] = field(default_factory=dict)


@dataclass
class Program:
    """The parsed package: modules, classes, functions, edges."""

    package: str
    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    methods_by_name: Dict[str, List[str]] = field(default_factory=dict)
    parse_failures: List[str] = field(default_factory=list)

    # -- symbol resolution --------------------------------------------------

    def module_of(self, dotted: str) -> Optional[str]:
        """Longest module-name prefix of ``dotted``."""
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            cand = ".".join(parts[:i])
            if cand in self.modules:
                return cand
        return None

    def resolve_symbol(self, dotted: str,
                       _depth: int = 0) -> Optional[Tuple[str, str]]:
        """What does this dotted path denote?

        Returns ("module", name) / ("func", qualname) /
        ("class", class-dotted) or None, chasing one re-export hop at
        a time through package ``__init__`` alias tables.
        """
        if _depth > _MAX_REEXPORT_DEPTH:
            return None
        if dotted in self.modules:
            return ("module", dotted)
        mod_name = self.module_of(dotted)
        if mod_name is None:
            return None
        mod = self.modules[mod_name]
        attrs = dotted[len(mod_name) + 1:].split(".")
        head = attrs[0]
        if head in mod.functions and len(attrs) == 1:
            return ("func", mod.functions[head])
        if head in mod.classes:
            cls = mod.classes[head]
            if len(attrs) == 1:
                return ("class", cls.dotted)
            if len(attrs) == 2:
                meth = self.resolve_method(cls, attrs[1])
                if meth is not None:
                    return ("func", meth)
            return None
        if head in mod.aliases:
            target = mod.aliases[head]
            rest = attrs[1:]
            full = target + ("." + ".".join(rest) if rest else "")
            return self.resolve_symbol(full, _depth + 1)
        return None

    def resolve_method(self, cls: ClassInfo, name: str,
                       _seen: Optional[Set[str]] = None) -> Optional[str]:
        """Find ``name`` on ``cls`` or its repo base classes."""
        seen = _seen or set()
        if cls.dotted in seen:
            return None
        seen.add(cls.dotted)
        if name in cls.methods:
            return cls.methods[name]
        for base in cls.bases:
            base_cls = self.lookup_class(base, cls.module)
            if base_cls is not None:
                found = self.resolve_method(base_cls, name, seen)
                if found is not None:
                    return found
        return None

    def lookup_class(self, ref: str,
                     from_module: str) -> Optional[ClassInfo]:
        """Resolve a base-class reference from inside ``from_module``."""
        mod = self.modules.get(from_module)
        if mod is not None and ref in mod.classes:
            return mod.classes[ref]
        if mod is not None and ref in mod.aliases:
            ref = mod.aliases[ref]
        resolved = self.resolve_symbol(ref)
        if resolved is not None and resolved[0] == "class":
            return self.classes.get(resolved[1])
        return self.classes.get(ref)

    def class_is_slots_exempt(self, cls: ClassInfo,
                              _seen: Optional[Set[str]] = None) -> bool:
        """Exception/Enum/Protocol subclasses don't need __slots__."""
        seen = _seen or set()
        if cls.dotted in seen:
            return False
        seen.add(cls.dotted)
        for base in cls.bases:
            tail = base.rsplit(".", 1)[-1]
            if tail in SLOTS_EXEMPT_BASES:
                return True
            base_cls = self.lookup_class(base, cls.module)
            if base_cls is not None and \
                    self.class_is_slots_exempt(base_cls, seen):
                return True
        return False


# ---------------------------------------------------------------------------
# Parsing & symbol table construction
# ---------------------------------------------------------------------------

def _module_name(file: Path, root: Path, package: str) -> Tuple[str, bool]:
    rel = file.relative_to(root)
    parts = list(rel.with_suffix("").parts)
    is_package = parts[-1] == "__init__"
    if is_package:
        parts = parts[:-1]
    return ".".join([package] + parts), is_package


def _resolve_relative(module: ModuleInfo, node: ast.ImportFrom) -> str:
    """Absolute module path of a (possibly relative) ``from`` import."""
    if node.level == 0:
        return node.module or ""
    parts = module.name.split(".")
    if not module.is_package:
        parts = parts[:-1]
    if node.level > 1:
        parts = parts[: len(parts) - (node.level - 1)]
    if node.module:
        parts = parts + node.module.split(".")
    return ".".join(parts)


def _dataclass_has_slots(node: ast.ClassDef) -> Tuple[bool, bool]:
    """(is_dataclass, slots=True present)."""
    is_dc = has_slots = False
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = (target.id if isinstance(target, ast.Name)
                else getattr(target, "attr", ""))
        if name == "dataclass":
            is_dc = True
            if isinstance(dec, ast.Call):
                for kw in dec.keywords:
                    if kw.arg == "slots" and \
                            isinstance(kw.value, ast.Constant) and \
                            kw.value.value is True:
                        has_slots = True
    return is_dc, has_slots


def _class_info(node: ast.ClassDef, module: ModuleInfo) -> ClassInfo:
    bases: List[str] = []
    for b in node.bases:
        parts: List[str] = []
        cur: ast.AST = b
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if isinstance(cur, ast.Name):
            parts.append(cur.id)
            bases.append(".".join(reversed(parts)))
        elif isinstance(cur, ast.Subscript):   # Generic[T] etc.
            continue
    is_dc, dc_slots = _dataclass_has_slots(node)
    slots_body = any(
        isinstance(s, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__"
            for t in s.targets)
        for s in node.body)
    info = ClassInfo(
        name=node.name, module=module.name, lineno=node.lineno,
        bases=bases,
        has_slots=slots_body or (is_dc and dc_slots))
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods[stmt.name] = \
                f"{module.name}:{node.name}.{stmt.name}"
    return info


def build_program(package_root: Path,
                  repo_root: Optional[Path] = None,
                  package: Optional[str] = None) -> Program:
    """Parse every module under ``package_root`` into a :class:`Program`.

    ``repo_root`` controls the repo-relative paths recorded on
    violations (defaults to the parent of ``package_root``) so that
    fingerprints line up with ``lint_paths`` output.
    """
    package_root = Path(package_root).resolve()
    if repo_root is None:
        repo_root = package_root.parent
    else:
        repo_root = Path(repo_root).resolve()
    pkg = package or package_root.name
    program = Program(package=pkg)

    files = [f for f in sorted(package_root.rglob("*.py"))
             if "__pycache__" not in f.parts]
    fn_nodes: List[Tuple[ModuleInfo, Optional[ClassInfo], ast.AST]] = []

    for file in files:
        name, is_package = _module_name(file, package_root, pkg)
        source = file.read_text(encoding="utf-8")
        lines = source.splitlines()
        try:
            rel_path = file.relative_to(repo_root).as_posix()
        except ValueError:
            rel_path = file.as_posix()
        try:
            tree = ast.parse(source, filename=str(file))
        except SyntaxError:
            program.modules[name] = ModuleInfo(
                name=name, path=rel_path, is_package=is_package,
                tree=None, lines=lines)
            program.parse_failures.append(name)
            continue
        program.modules[name] = ModuleInfo(
            name=name, path=rel_path, is_package=is_package,
            tree=tree, lines=lines)

    # Pass 1: aliases, import edges, symbol tables.
    for mod in program.modules.values():
        if mod.tree is None:
            continue
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    mod.aliases[a.asname or a.name.split(".")[0]] = a.name
                    if a.name.split(".")[0] == pkg:
                        # ancestors are imported implicitly by the
                        # runtime; only the named module is an edge
                        mod.imports.setdefault(a.name, node.lineno)
            elif isinstance(node, ast.ImportFrom):
                base = _resolve_relative(mod, node)
                if not base:
                    continue
                uses_facade = False
                for a in node.names:
                    target = f"{base}.{a.name}"
                    mod.aliases[a.asname or a.name] = target
                    if target in program.modules:
                        # ``from pkg import submodule``: the edge is
                        # to the submodule, not the package facade
                        mod.imports.setdefault(target, node.lineno)
                    else:
                        uses_facade = True
                if uses_facade and base.split(".")[0] == pkg:
                    mod.imports.setdefault(base, node.lineno)
        for stmt in mod.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                mod.functions[stmt.name] = f"{mod.name}:{stmt.name}"
                fn_nodes.append((mod, None, stmt))
            elif isinstance(stmt, ast.ClassDef):
                info = _class_info(stmt, mod)
                mod.classes[stmt.name] = info
                program.classes[info.dotted] = info
                for body_stmt in stmt.body:
                    if isinstance(body_stmt,
                                  (ast.FunctionDef, ast.AsyncFunctionDef)):
                        fn_nodes.append((mod, info, body_stmt))

    for info in program.classes.values():
        for meth_name, qual in info.methods.items():
            program.methods_by_name.setdefault(meth_name, []).append(qual)

    # Pass 2: per-function fact extraction.
    for mod, cls, node in fn_nodes:
        fn = _extract_function(program, mod, cls, node)
        program.functions[fn.qualname] = fn

    return program


# ---------------------------------------------------------------------------
# Per-function fact extraction
# ---------------------------------------------------------------------------

def _param_names(node) -> Set[str]:
    args = node.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    names.discard("self")
    names.discard("cls")
    return names


def _resolve_dotted(mod: ModuleInfo, node: ast.AST) -> Optional[str]:
    """Dotted path through the module's import aliases (cf. linter)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(mod.aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


class _FactVisitor:
    """Single walk over one function body collecting seed facts."""

    def __init__(self, program: Program, mod: ModuleInfo,
                 cls: Optional[ClassInfo], node, fn: FunctionInfo):
        self.program = program
        self.mod = mod
        self.cls = cls
        self.node = node
        self.fn = fn
        self.params = _param_names(node)
        self.is_init = fn.name in ("__init__", "__post_init__", "__new__")
        self.scratch: Set[str] = set()
        self.globals_declared: Set[str] = set()
        self._collect_locals()

    # -- local classification ----------------------------------------------

    def _is_fresh_value(self, value: ast.AST) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.Tuple,
                              ast.ListComp, ast.SetComp, ast.DictComp,
                              ast.GeneratorExp, ast.Constant,
                              ast.JoinedStr)):
            return True
        if isinstance(value, ast.Call):
            if isinstance(value.func, ast.Name) and \
                    value.func.id in FRESH_BUILTINS:
                return True
            resolved = self._resolve_call_target(value)
            if resolved is not None and resolved[0] == "class":
                return True     # a constructed object is fresh state
        return False

    def _collect_locals(self) -> None:
        for n in ast.walk(self.node):
            if isinstance(n, ast.Global) or isinstance(n, ast.Nonlocal):
                self.globals_declared.update(n.names)
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(n, ast.Assign):
                targets, value = list(n.targets), n.value
            elif isinstance(n, ast.AnnAssign) and n.value is not None:
                targets, value = [n.target], n.value
            if value is None or not self._is_fresh_value(value):
                continue
            for t in targets:
                if isinstance(t, ast.Name):
                    self.scratch.add(t.id)

    def _root_of(self, node: ast.AST) -> str:
        """SELF/SCRATCH/PARAM/OTHER/FRESH for an expression's base."""
        while isinstance(node, (ast.Attribute, ast.Subscript,
                                ast.Starred)):
            node = node.value
        if isinstance(node, ast.Name):
            if node.id in ("self", "cls"):
                return SELF
            if node.id in self.globals_declared:
                return OTHER
            if node.id in self.scratch:
                return SCRATCH
            if node.id in self.params:
                return PARAM
            return OTHER
        if isinstance(node, ast.Constant):
            return FRESH
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.Tuple,
                             ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp, ast.JoinedStr)):
            return FRESH
        if isinstance(node, ast.Call) and self._is_fresh_value(node):
            return FRESH
        return OTHER

    # -- mutation recording --------------------------------------------------

    def _record_mutation(self, root: str, line: int, desc: str) -> None:
        if root in (SCRATCH, FRESH):
            return
        if root == SELF:
            if self.is_init:
                return             # constructing a fresh object
            kind = "self"
        elif root == PARAM:
            kind = "args"
        else:
            kind = "global"
        self.fn.mutations.setdefault(
            kind, MutationSite(line=line, desc=desc))

    def _target_desc(self, node: ast.AST) -> str:
        try:
            return ast.unparse(node)
        except Exception:
            return "<expr>"

    # -- call resolution -----------------------------------------------------

    def _resolve_call_target(
            self, call: ast.Call) -> Optional[Tuple[str, str]]:
        """("func"|"class", qualname/dotted) for precisely resolvable
        callees — *not* dynamic by-name candidates."""
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.scratch:
                return None
            if name in self.mod.functions:
                return ("func", self.mod.functions[name])
            if name in self.mod.classes:
                return ("class", self.mod.classes[name].dotted)
            if name in self.mod.aliases:
                return self.program.resolve_symbol(self.mod.aliases[name])
            return None
        if isinstance(func, ast.Attribute):
            # super().__init__(...) and friends
            if isinstance(func.value, ast.Call) and \
                    isinstance(func.value.func, ast.Name) and \
                    func.value.func.id == "super" and self.cls is not None:
                for base in self.cls.bases:
                    base_cls = self.program.lookup_class(
                        base, self.mod.name)
                    if base_cls is not None:
                        meth = self.program.resolve_method(
                            base_cls, func.attr)
                        if meth is not None:
                            return ("func", meth)
                return None
            full = _resolve_dotted(self.mod, func)
            if full is not None:
                resolved = self.program.resolve_symbol(full)
                if resolved is not None and resolved[0] != "module":
                    return resolved
            # self.method() through the class and its repo bases
            base_expr = func.value
            if isinstance(base_expr, ast.Name) and \
                    base_expr.id in ("self", "cls") and \
                    self.cls is not None:
                meth = self.program.resolve_method(self.cls, func.attr)
                if meth is not None:
                    return ("func", meth)
        return None

    def _arg_roots(self, call: ast.Call) -> Tuple[str, ...]:
        roots = []
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            roots.append(self._root_of(arg))
        return tuple(roots)

    def _visit_call(self, call: ast.Call) -> None:
        mod = self.mod
        fn = self.fn
        line = call.lineno

        # entropy seed (pragma-sanctioned sites are skipped by the
        # analyzer later, which owns the pragma maps)
        full = _resolve_dotted(mod, call.func)
        if full is not None and is_entropy_call(full):
            fn.entropy_sites.append((line, full))

        resolved = self._resolve_call_target(call)
        if resolved is not None:
            kind, target = resolved
            receiver = None
            if isinstance(call.func, ast.Attribute):
                receiver = self._root_of(call.func.value)
            if kind == "class":
                fn.allocations.append(AllocSite(line=line, cls=target))
                cls_info = self.program.classes.get(target)
                if cls_info is not None:
                    init = self.program.resolve_method(
                        cls_info, "__init__")
                    if init is not None:
                        fn.calls.append(CallSite(
                            line=line, callee=init, kind="direct",
                            receiver_root=FRESH,
                            arg_roots=self._arg_roots(call)))
            else:
                fn.calls.append(CallSite(
                    line=line, callee=target, kind="direct",
                    receiver_root=receiver,
                    arg_roots=self._arg_roots(call)))
            return

        if not isinstance(call.func, ast.Attribute):
            return
        attr = call.func.attr
        receiver = self._root_of(call.func.value)
        if attr in BUILTIN_MUTATORS:
            # Python container semantics: assume receiver mutation.
            self._record_mutation(
                receiver, line,
                f"calls .{attr}() on "
                f"{self._target_desc(call.func.value)}")
            return
        if attr in DYNAMIC_NAME_SKIP:
            return
        candidates = self.program.methods_by_name.get(attr, [])
        if not candidates or len(candidates) > _MAX_DYNAMIC_CANDIDATES:
            return
        unique = len(candidates) == 1
        for target in candidates:
            fn.calls.append(CallSite(
                line=line, callee=target, kind="dynamic", unique=unique,
                receiver_root=receiver,
                arg_roots=self._arg_roots(call)))

    # -- the walk ------------------------------------------------------------

    def run(self) -> None:
        for n in ast.walk(self.node):
            if isinstance(n, ast.Call):
                self._visit_call(n)
            elif isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (n.targets if isinstance(n, ast.Assign)
                           else [n.target])
                for t in targets:
                    self._visit_store(t)
            elif isinstance(n, ast.Delete):
                for t in n.targets:
                    self._visit_store(t)

    def _visit_store(self, target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._visit_store(elt)
            return
        if isinstance(target, ast.Attribute):
            self._record_mutation(
                self._root_of(target), target.lineno,
                f"assigns {self._target_desc(target)}")
        elif isinstance(target, ast.Subscript):
            self._record_mutation(
                self._root_of(target), target.lineno,
                f"writes {self._target_desc(target)}")
        elif isinstance(target, ast.Name):
            if target.id in self.globals_declared:
                self._record_mutation(
                    OTHER, getattr(target, "lineno", 1),
                    f"rebinds global {target.id}")


def _extract_function(program: Program, mod: ModuleInfo,
                      cls: Optional[ClassInfo], node) -> FunctionInfo:
    qual = (f"{mod.name}:{cls.name}.{node.name}" if cls is not None
            else f"{mod.name}:{node.name}")
    fn = FunctionInfo(
        qualname=qual, module=mod.name, name=node.name,
        cls=cls.name if cls is not None else None, lineno=node.lineno)
    _FactVisitor(program, mod, cls, node, fn).run()
    return fn


# ---------------------------------------------------------------------------
# Interprocedural fixpoint
# ---------------------------------------------------------------------------

@dataclass
class _Witness:
    """Why a propagated fact holds: a direct site or a call edge."""

    line: int
    desc: str
    via: Optional[str] = None     # callee qualname the fact came through


@dataclass
class ProgramResult:
    """The whole-program pass: violations plus the propagated facts."""

    program: Program
    manifest: Manifest
    violations: List[Violation] = field(default_factory=list)
    entropy: Dict[str, _Witness] = field(default_factory=dict)
    impure: Dict[str, Dict[str, _Witness]] = field(default_factory=dict)
    hot: Dict[str, Optional[Tuple[str, int]]] = field(default_factory=dict)


def _propagate_entropy(result: ProgramResult) -> None:
    program = result.program
    entropy = result.entropy
    callers: Dict[str, List[Tuple[str, CallSite]]] = {}
    for fn in program.functions.values():
        for site in fn.calls:
            if site.kind == "direct" or site.unique:
                callers.setdefault(site.callee, []).append(
                    (fn.qualname, site))
    work: List[str] = []
    for fn in program.functions.values():
        if fn.entropy_sites:
            line, sink = fn.entropy_sites[0]
            entropy[fn.qualname] = _Witness(line=line, desc=f"{sink}()")
            work.append(fn.qualname)
    while work:
        callee = work.pop()
        for caller, site in callers.get(callee, ()):
            if caller in entropy:
                continue
            entropy[caller] = _Witness(
                line=site.line, desc="", via=callee)
            work.append(caller)


_MUT_KINDS = ("self", "args", "global")


def _propagate_impurity(result: ProgramResult) -> None:
    """Fixpoint over mutates-{self,args,global} facts, every edge."""
    program = result.program
    impure = result.impure
    callers: Dict[str, List[Tuple[str, CallSite]]] = {}
    work: List[str] = []
    for fn in program.functions.values():
        for site in fn.calls:
            callers.setdefault(site.callee, []).append(
                (fn.qualname, site))
        if fn.mutations:
            impure[fn.qualname] = {
                kind: _Witness(line=m.line, desc=m.desc)
                for kind, m in fn.mutations.items()}
            work.append(fn.qualname)

    def add(qual: str, kind: str, witness: _Witness) -> bool:
        facts = impure.setdefault(qual, {})
        if kind in facts:
            return False
        facts[kind] = witness
        return True

    while work:
        callee = work.pop()
        facts = impure.get(callee, {})
        for caller, site in callers.get(callee, ()):
            changed = False
            w = _Witness(line=site.line, desc="", via=callee)
            if "global" in facts:
                changed |= add(caller, "global", w)
            if "self" in facts and site.receiver_root is not None:
                root = site.receiver_root
                if root == SELF:
                    changed |= add(caller, "self", w)
                elif root == PARAM:
                    changed |= add(caller, "args", w)
                elif root == OTHER:
                    changed |= add(caller, "global", w)
            if "args" in facts:
                roots = set(site.arg_roots)
                if SELF in roots:
                    changed |= add(caller, "self", w)
                if PARAM in roots:
                    changed |= add(caller, "args", w)
                if OTHER in roots:
                    changed |= add(caller, "global", w)
            if changed:
                work.append(caller)


def _compute_hot(result: ProgramResult) -> None:
    """Forward reachability from the manifest's dispatch entries.

    Raises :class:`ManifestError` for an entry that names no function
    (unless its module failed to parse, which SIM000 reports): a
    renamed or inlined dispatch function would otherwise drop out of
    SIM018's coverage without a word.
    """
    program = result.program
    hot = result.hot
    unresolved = [
        entry for entry in result.manifest.hot_entries
        if entry not in program.functions
        and entry.partition(":")[0] not in program.parse_failures]
    if unresolved:
        raise ManifestError(
            "hot entry point(s) name no function in the program: "
            + ", ".join(unresolved)
            + " (point the manifest's hot_entries at the engine's "
            "per-event dispatch functions)")
    work: List[str] = []
    for entry in result.manifest.hot_entries:
        if entry in program.functions:
            hot[entry] = None
            work.append(entry)
    while work:
        qual = work.pop()
        fn = program.functions[qual]
        for site in fn.calls:
            if site.kind == "dynamic" and not site.unique:
                continue
            if site.callee in hot or site.callee not in program.functions:
                continue
            hot[site.callee] = (qual, site.line)
            work.append(site.callee)


# ---------------------------------------------------------------------------
# Chains (for messages)
# ---------------------------------------------------------------------------

def _entropy_chain(result: ProgramResult, qual: str) -> str:
    parts = [_short(qual)]
    seen = {qual}
    cur = qual
    while True:
        w = result.entropy.get(cur)
        if w is None:
            break
        if w.via is None or w.via in seen:
            mod = result.program.functions[cur].module
            path = result.program.modules[mod].path
            parts.append(f"{w.desc} ({path}:{w.line})")
            break
        seen.add(w.via)
        parts.append(_short(w.via))
        cur = w.via
    return " -> ".join(parts)


def _impurity_chain(result: ProgramResult, qual: str, kind: str) -> str:
    parts = [_short(qual)]
    seen = {qual}
    cur, cur_kind = qual, kind
    while True:
        facts = result.impure.get(cur, {})
        w = facts.get(cur_kind) or next(iter(facts.values()), None)
        if w is None:
            break
        if w.via is None or w.via in seen:
            mod = result.program.functions[cur].module
            path = result.program.modules[mod].path
            parts.append(f"{w.desc} ({path}:{w.line})")
            break
        seen.add(w.via)
        parts.append(_short(w.via))
        cur = w.via
        cur_kind = next(iter(result.impure.get(cur, {"": None})))
    return " -> ".join(parts)


def _hot_chain(result: ProgramResult, qual: str) -> str:
    parts = [_short(qual)]
    cur = qual
    seen = {qual}
    while True:
        parent = result.hot.get(cur)
        if parent is None:
            break
        prev, _line = parent
        if prev in seen:
            break
        parts.append(_short(prev))
        seen.add(prev)
        cur = prev
    return " <- ".join(parts)


def _short(qual: str) -> str:
    mod, _, name = qual.partition(":")
    return f"{mod.split('.', 1)[-1]}.{name}" if name else mod


# ---------------------------------------------------------------------------
# Rule evaluation
# ---------------------------------------------------------------------------

def _make_violation(result: ProgramResult, rule_id: str, module: str,
                    line: int, message: str) -> Violation:
    mod = result.program.modules[module]
    src = mod.lines[line - 1] if 1 <= line <= len(mod.lines) else ""
    return Violation(rule=rule_by_id(rule_id), path=mod.path,
                     line=line, col=0, message=message, source_line=src)


def _check_layering(result: ProgramResult) -> None:
    program, manifest = result.program, result.manifest
    for mod in program.modules.values():
        for target, line in sorted(mod.imports.items()):
            if target not in program.modules or target == mod.name:
                continue
            if manifest.import_allowed(mod.name, target):
                continue
            src_layer = manifest.layer_of(mod.name)
            dst_layer = manifest.layer_of(target)
            allowed = ()
            if src_layer in manifest.layers:
                allowed = manifest.layers[src_layer].allowed
            result.violations.append(_make_violation(
                result, "SIM015", mod.name, line,
                f"{mod.name} (layer '{src_layer}') imports {target} "
                f"(layer '{dst_layer}'), which the architecture DAG "
                f"forbids (allowed: "
                f"{', '.join(allowed) if allowed else 'nothing'}); "
                f"move the dependency below the boundary or add a "
                f"named friend exemption in "
                f"repro/analysis/architecture.py"))
    # cycles: Tarjan over the intra-package import graph
    for scc in _strongly_connected(program):
        if len(scc) < 2:
            mod = program.modules[scc[0]]
            if scc[0] not in mod.imports:
                continue
        cycle = sorted(scc)
        anchor = program.modules[cycle[0]]
        nxt = next((m for m in cycle[1:] if m in anchor.imports),
                   cycle[0])
        line = anchor.imports.get(nxt, 1)
        result.violations.append(_make_violation(
            result, "SIM015", cycle[0], line,
            f"import cycle between modules: {' -> '.join(cycle)} -> "
            f"{cycle[0]}; the module graph must stay a DAG"))


def _strongly_connected(program: Program) -> List[List[str]]:
    """Tarjan's SCC over intra-package import edges."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    out: List[List[str]] = []
    counter = [0]

    def edges(m: str) -> Iterable[str]:
        return (t for t in program.modules[m].imports
                if t in program.modules and t != m)

    def strongconnect(v: str) -> None:
        # iterative Tarjan to survive deep graphs
        work = [(v, iter(edges(v)))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(edges(w))))
                    advanced = True
                    break
                elif w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                out.append(comp)

    for v in sorted(program.modules):
        if v not in index:
            strongconnect(v)
    return [c for c in out if len(c) > 1]


def _check_transitive_entropy(result: ProgramResult) -> None:
    for qual, fn in sorted(result.program.functions.items()):
        if qual not in result.entropy:
            continue
        if fn.entropy_sites:
            continue        # direct sites are SIM001's turf
        w = result.entropy[qual]
        chain = _entropy_chain(result, qual)
        result.violations.append(_make_violation(
            result, "SIM016", fn.module, w.line,
            f"{_short(qual)}() reaches host wall-clock/entropy through "
            f"the call chain {chain}; use sim.now / a seeded "
            f"random.Random, or sanction the sink itself with "
            f"# simlint: ignore[SIM001]"))


def _call_is_impure(result: ProgramResult,
                    site: CallSite) -> Optional[str]:
    """Mutation kind this call inflicts on non-scratch state, or None."""
    facts = result.impure.get(site.callee)
    if not facts:
        return None
    if "global" in facts:
        return "global"
    if "self" in facts and site.receiver_root in (PARAM, OTHER, SELF):
        return "self"
    if "args" in facts and any(
            r in (PARAM, OTHER, SELF) for r in site.arg_roots):
        return "args"
    return None


def _check_module_purity(result: ProgramResult, modules: Set[str],
                         rule_id: str, noun: str, remedy: str) -> None:
    """Shared purity pass: every function in ``modules`` must avoid
    calls inferred to mutate non-scratch state (SIM017's machinery,
    parameterized so SIM019 can hold the attribution observers to the
    same contract)."""
    reported: Set[Tuple[str, int, str]] = set()
    for qual, fn in sorted(result.program.functions.items()):
        if fn.module not in modules:
            continue
        for site in fn.calls:
            if site.kind == "dynamic" and not site.unique:
                # equivocal by-name edges feed the summaries but are
                # too noisy to anchor a violation (a dict's .get()
                # would match every repo class named get)
                continue
            kind = _call_is_impure(result, site)
            if kind is None:
                continue
            key = (fn.qualname, site.line, site.callee)
            if key in reported:
                continue
            reported.add(key)
            chain = _impurity_chain(result, site.callee, kind)
            what = {"self": "its receiver", "args": "its arguments",
                    "global": "global state"}[kind]
            result.violations.append(_make_violation(
                result, rule_id, fn.module, site.line,
                f"{noun} {_short(qual)}() calls "
                f"{_short(site.callee)}(), inferred to mutate {what} "
                f"({chain}); {remedy}"))


def _check_oracle_purity(result: ProgramResult) -> None:
    _check_module_purity(
        result, set(result.manifest.oracle_modules), "SIM017", "oracle",
        "oracles must be pure observers — read attributes and return "
        "Violations, or move the mutation into the executor")


def _check_attribution_purity(result: ProgramResult) -> None:
    _check_module_purity(
        result, set(result.manifest.attribution_modules), "SIM019",
        "attribution observer",
        "latency attribution must never mutate simulation state — "
        "fold recorded spans into fresh local structures and return "
        "them")


def _check_hot_allocations(result: ProgramResult) -> None:
    program = result.program
    reported: Set[Tuple[str, int, str]] = set()
    for qual in sorted(result.hot):
        fn = program.functions.get(qual)
        if fn is None:
            continue
        for alloc in fn.allocations:
            cls = program.classes.get(alloc.cls)
            if cls is None or cls.has_slots:
                continue
            if program.class_is_slots_exempt(cls):
                continue
            key = (fn.module, alloc.line, alloc.cls)
            if key in reported:
                continue
            reported.add(key)
            chain = _hot_chain(result, qual)
            result.violations.append(_make_violation(
                result, "SIM018", fn.module, alloc.line,
                f"{cls.name} (no __slots__) allocated in "
                f"{_short(qual)}(), reachable from the per-event "
                f"dispatch ({chain}); declare __slots__ / "
                f"dataclass(slots=True) or move the allocation off "
                f"the hot path"))


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def analyze_program(program: Program,
                    manifest: Optional[Manifest] = None) -> ProgramResult:
    manifest = manifest or default_manifest()
    result = ProgramResult(program=program, manifest=manifest)
    _sanction_pragma_sites(program)
    _propagate_entropy(result)
    _propagate_impurity(result)
    _compute_hot(result)
    _check_layering(result)
    _check_transitive_entropy(result)
    _check_oracle_purity(result)
    _check_attribution_purity(result)
    _check_hot_allocations(result)
    if manifest.frozen_modules:
        frozen_paths = {
            mod.path for mod in program.modules.values()
            if mod.name in manifest.frozen_modules
        }
        result.violations = [v for v in result.violations
                             if v.path not in frozen_paths]
    result.violations.sort(
        key=lambda v: (v.path, v.line, v.rule.id, v.message))
    return result


def _sanction_pragma_sites(program: Program) -> None:
    """Drop entropy seeds whose site carries a SIM001/SIM016 pragma.

    A pragma-sanctioned wall-clock read (host-side progress meters in
    the bench runner) is a declared boundary: it must not taint its
    transitive callers.
    """
    for fn in program.functions.values():
        if not fn.entropy_sites:
            continue
        mod = program.modules[fn.module]
        pragmas = _pragma_map(mod.lines)
        kept = []
        for line, sink in fn.entropy_sites:
            ids = pragmas.get(line, "missing")
            if ids == "missing":
                kept.append((line, sink))
                continue
            if ids is None or {"SIM001", "SIM016"} & ids:
                continue
            kept.append((line, sink))
        fn.entropy_sites = kept


def lint_program(package_root: Path,
                 manifest: Optional[Manifest] = None,
                 enabled: Optional[Iterable[str]] = None,
                 repo_root: Optional[Path] = None) -> List[Violation]:
    """Run the whole-program pass; returns un-suppressed violations."""
    program = build_program(Path(package_root), repo_root=repo_root)
    result = analyze_program(program, manifest)
    enabled_set = set(enabled) if enabled is not None else \
        {r.id for r in RULES}
    kept: List[Violation] = []
    pragma_cache: Dict[str, Dict] = {}
    by_path = {m.path: m for m in program.modules.values()}
    for v in result.violations:
        if v.rule.id not in enabled_set:
            continue
        mod = by_path.get(v.path)
        if mod is not None:
            if any(_SKIP_FILE_RE.search(line)
                   for line in mod.lines[:10]):
                continue
            if v.path not in pragma_cache:
                pragma_cache[v.path] = _pragma_map(mod.lines)
            if _suppressed(v, pragma_cache[v.path]):
                continue
        kept.append(v)
    return kept


# ---------------------------------------------------------------------------
# Graph export
# ---------------------------------------------------------------------------

def export_dot(program: Program,
               manifest: Optional[Manifest] = None) -> str:
    """The layer DAG as Graphviz dot (aggregated per layer).

    Nodes are layers (with module counts); edges aggregate the real
    module-level import edges.  Friend-edge traffic is drawn dashed.
    """
    manifest = manifest or default_manifest()
    per_layer: Dict[str, int] = {}
    edges: Dict[Tuple[str, str], int] = {}
    friend_edges: Dict[Tuple[str, str], int] = {}
    for mod in program.modules.values():
        src_layer = manifest.layer_of(mod.name)
        if src_layer is None:
            continue
        per_layer[src_layer] = per_layer.get(src_layer, 0) + 1
        for target in mod.imports:
            if target not in program.modules:
                continue
            dst_layer = manifest.layer_of(target)
            if dst_layer is None or dst_layer == src_layer:
                continue
            key = (src_layer, dst_layer)
            layer = manifest.layers.get(src_layer, _EMPTY_LAYER)
            if manifest.friend_for(mod.name, target) is not None and \
                    dst_layer not in layer.allowed:
                friend_edges[key] = friend_edges.get(key, 0) + 1
            else:
                edges[key] = edges.get(key, 0) + 1
    out = [
        "digraph layers {",
        "  rankdir=BT;",
        "  node [shape=box, fontname=\"Helvetica\"];",
    ]
    for layer in sorted(per_layer):
        out.append(
            f'  "{layer}" [label="{layer}\\n'
            f'{per_layer[layer]} modules"];')
    for (src, dst), n in sorted(edges.items()):
        out.append(f'  "{src}" -> "{dst}" [label="{n}"];')
    for (src, dst), n in sorted(friend_edges.items()):
        out.append(
            f'  "{src}" -> "{dst}" '
            f'[label="{n} (friend)", style=dashed];')
    out.append("}")
    return "\n".join(out)


def export_json(program: Program,
                manifest: Optional[Manifest] = None) -> str:
    """Full module-level graph + layer assignment as JSON."""
    manifest = manifest or default_manifest()
    modules = {}
    for mod in sorted(program.modules.values(), key=lambda m: m.name):
        modules[mod.name] = {
            "path": mod.path,
            "layer": manifest.layer_of(mod.name),
            "imports": sorted(t for t in mod.imports
                              if t in program.modules),
        }
    return json.dumps({
        "package": program.package,
        "modules": modules,
        "functions": len(program.functions),
        "classes": len(program.classes),
        "layers": {
            name: {"allowed": list(layer.allowed), "doc": layer.doc}
            for name, layer in sorted(manifest.layers.items())},
        "friends": [
            {"importer": f.importer, "imported": f.imported_prefix,
             "why": f.why}
            for f in manifest.friends],
        "hot_entries": list(manifest.hot_entries),
        "frozen_modules": list(manifest.frozen_modules),
    }, indent=2, sort_keys=False)
