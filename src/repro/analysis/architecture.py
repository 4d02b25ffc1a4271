"""The declarative architecture manifest: the allowed layer DAG.

The whole-program pass (:mod:`repro.analysis.program`) checks every
intra-package import edge against this manifest (rule SIM015), seeds
hot-path reachability from :data:`HOT_ENTRY_POINTS` (SIM018), and
holds the modules named in :data:`ORACLE_MODULES` to inferred purity
(SIM017).

The layering mirrors the system the paper describes — userlib above
syscalls above blockio above NVMe, with the device model below — and
the split SimpleSSD/Amber show must stay clean for full-system
simulation to be trustworthy:

    sim  <-  hw  <-  nvme  <-  kernel / fs  <-  core / baselines
                                               <-  machine
                                               <-  apps / bench / chaos / obs

Amending the manifest
---------------------

* A new module under an existing top-level package needs nothing: the
  longest-prefix rule in :meth:`Manifest.layer_of` assigns it.
* A new top-level package needs a :class:`Layer` entry (its allowed
  lower layers) and an entry in ``assignments``.
* A single import that the layer rules forbid but that is genuinely
  right gets a :class:`FriendEdge` — importer module, imported module
  prefix, and a one-line justification.  Friend edges are deliberate
  public record: ``simlint --graph dot`` draws them dashed.

Everything here is plain data so tests can build alternative
manifests for toy packages; :func:`default_manifest` is the one the
CLI uses for ``src/repro``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = [
    "Layer",
    "FriendEdge",
    "Manifest",
    "ManifestError",
    "LAYERS",
    "FRIEND_EDGES",
    "HOT_ENTRY_POINTS",
    "ORACLE_MODULES",
    "FROZEN_MODULES",
    "ATTRIBUTION_MODULES",
    "default_manifest",
]


class ManifestError(ValueError):
    """The manifest names something the analysed program does not have
    (a hot entry point that resolves to no function)."""


@dataclass(frozen=True)
class Layer:
    """One architectural layer and the layers it may import from."""

    name: str
    allowed: Tuple[str, ...]      # lower layers this layer may import
    doc: str = ""


@dataclass(frozen=True)
class FriendEdge:
    """A named exemption: ``importer`` may import ``imported_prefix``.

    ``importer`` is a full module name (or a package prefix); the edge
    matches when the importing module equals the prefix or sits under
    it, and likewise for the imported module.  Every friend edge
    carries a justification — it is the written record of why this
    one import is allowed to jump the DAG.
    """

    importer: str
    imported_prefix: str
    why: str

    def matches(self, src: str, dst: str) -> bool:
        return _prefix_match(src, self.importer) and \
            _prefix_match(dst, self.imported_prefix)


def _prefix_match(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


@dataclass
class Manifest:
    """The whole architecture contract, as data."""

    package: str
    layers: Dict[str, Layer]
    assignments: Dict[str, str]          # module prefix -> layer name
    friends: Tuple[FriendEdge, ...] = ()
    hot_entries: Tuple[str, ...] = ()    # "pkg.mod:Class.method" qualnames
    oracle_modules: Tuple[str, ...] = ()  # module names held to purity
    frozen_modules: Tuple[str, ...] = ()  # test oracles: never report in
    attribution_modules: Tuple[str, ...] = ()  # observers held to purity

    _layer_cache: Dict[str, Optional[str]] = field(
        default_factory=dict, repr=False)

    def layer_of(self, module: str) -> Optional[str]:
        """Layer of ``module`` by longest-prefix assignment."""
        if module in self._layer_cache:
            return self._layer_cache[module]
        best: Optional[str] = None
        best_len = -1
        for prefix, layer in self.assignments.items():
            if _prefix_match(module, prefix) and len(prefix) > best_len:
                best, best_len = layer, len(prefix)
        self._layer_cache[module] = best
        return best

    def import_allowed(self, src: str, dst: str) -> bool:
        """May module ``src`` import module ``dst``?"""
        src_layer = self.layer_of(src)
        dst_layer = self.layer_of(dst)
        if src_layer is None or dst_layer is None:
            return True          # unassigned modules are not judged
        if src_layer == dst_layer:
            return True          # within-layer imports are free
        layer = self.layers.get(src_layer)
        if layer is not None and dst_layer in layer.allowed:
            return True
        return any(f.matches(src, dst) for f in self.friends)

    def friend_for(self, src: str, dst: str) -> Optional[FriendEdge]:
        for f in self.friends:
            if f.matches(src, dst):
                return f
        return None


# ---------------------------------------------------------------------------
# The repro manifest
# ---------------------------------------------------------------------------

LAYERS: Tuple[Layer, ...] = (
    Layer("sim", (), "discrete-event engine, resources, cpu, trace, "
                     "stats, sanitizer — depends on nothing"),
    Layer("hw", (), "hardware parameters, physical memory, page tables, "
                    "IOMMU, PCIe, IOAT — pure models, no engine types"),
    Layer("analysis", (), "simlint itself; must not import the system "
                          "it analyses"),
    Layer("faults", ("sim",), "fault plans and the injector"),
    Layer("nvme", ("sim", "hw", "faults"),
          "device model: queues, arbiter, media backend, controller"),
    Layer("fs", ("sim", "hw", "faults"),
          "the ext4 model (raises fault types — PowerFailure during "
          "journal replay — so it sits above faults)"),
    Layer("kernel", ("sim", "hw", "faults", "nvme", "fs"),
          "syscalls, blockio, page cache, processes"),
    Layer("core", ("sim", "hw", "faults", "nvme", "fs", "kernel"),
          "BypassD userlib, file table, fmap manager"),
    Layer("obs", ("sim", "hw"),
          "histograms, monitor, exporters, trace diff (obs.perf drives a "
          "Machine via a friend edge)"),
    Layer("machine", ("sim", "hw", "faults", "nvme", "fs", "kernel",
                      "core"),
          "the full-system assembly (friend edge into obs for its "
          "telemetry monitor)"),
    Layer("baselines", ("sim", "hw", "faults", "nvme", "fs", "kernel",
                        "core", "machine"),
          "io_uring / libaio / spdk / xrp / sync engines"),
    Layer("apps", ("sim", "hw", "nvme", "kernel", "machine",
                   "baselines"),
          "workload models: fio, YCSB, KVell, WiredTiger, BPF-KV "
          "— they drive kernel syscalls and pick I/O engines from the "
          "baselines registry"),
    Layer("bench", ("sim", "hw", "faults", "nvme", "kernel", "machine",
                    "obs", "apps", "core", "baselines"),
          "experiment registry (the sweep grid included), parallel "
          "runner, report tables"),
    Layer("chaos", ("sim", "hw", "faults", "nvme", "fs", "kernel",
                    "core", "machine", "baselines", "obs"),
          "scenario fuzzing, executor, oracles, shrinker"),
    Layer("root", ("sim", "hw", "faults", "nvme", "fs", "kernel",
                   "core", "machine", "baselines", "apps", "bench",
                   "chaos", "obs", "analysis"),
          "the package façade (repro/__init__.py) re-exports the "
          "public API and may touch every layer"),
)

FRIEND_EDGES: Tuple[FriendEdge, ...] = (
    FriendEdge(
        "repro.machine", "repro.obs",
        "the Machine owns its telemetry wiring: it constructs the "
        "Monitor that samples every layer; obs stays below machine "
        "for everything else"),
    FriendEdge(
        "repro.obs.perf", "repro.machine",
        "the span-measured perf matrix boots a full Machine to time "
        "real request paths; it is a measurement harness, not a "
        "dependency of the obs data model"),
    FriendEdge(
        "repro.obs.perf", "repro.apps",
        "the perf matrix pins real workloads (workload_utils file "
        "materialisation) on the Machine it boots — same measurement-"
        "harness exemption as its machine edge"),
    FriendEdge(
        "repro.obs.perf", "repro.baselines",
        "the perf matrix times every baseline I/O engine from the "
        "registry; the obs data model itself never touches them"),
    FriendEdge(
        "repro.chaos", "repro.bench.runner",
        "the chaos CLI fans scenario batches out over the bench "
        "runner's process pool instead of growing a second one, and "
        "pool workers reset the runner's ambient state before replay"),
)

# Per-event dispatch: everything the engine executes once per event.
# Reachability from these seeds defines "the hot path" for SIM018.
# The engine has a fast and an instrumented drain loop, posts inline
# in timeout() and succeed() on the fast path, and resumes a process
# in one call to Process._resume — all of it is per-event dispatch.
# An entry that names no function is a ManifestError, so a rename
# cannot quietly take a function off the hot path.
HOT_ENTRY_POINTS: Tuple[str, ...] = (
    "repro.sim.engine:Simulator.run",
    "repro.sim.engine:Simulator._run_fast",
    "repro.sim.engine:Simulator._run_slow",
    "repro.sim.engine:Simulator.timeout",
    "repro.sim.engine:Simulator._post_fast",
    "repro.sim.engine:Simulator._post_slow",
    "repro.sim.engine:Process._resume",
    "repro.sim.engine:Event.succeed",
    "repro.sim.engine:Event.fail",
)

# Modules frozen as test oracles: verbatim historical code kept only so
# differential harnesses can compare behaviour against it.  simlint
# parses them (imports still feed the graph) but reports no violations
# inside them — fixing lint findings in a frozen oracle would defeat
# its purpose.
FROZEN_MODULES: Tuple[str, ...] = (
    "repro.sim.engine_reference",
)

# Modules whose functions must be pure observers (SIM017).
ORACLE_MODULES: Tuple[str, ...] = ("repro.chaos.oracles",)

# Latency-attribution observers held to the same inferred purity
# (SIM019): folding a trace into waterfalls or capturing exemplars
# must never mutate simulation state.
ATTRIBUTION_MODULES: Tuple[str, ...] = (
    "repro.obs.attribution",
    "repro.obs.exemplar",
)

_ASSIGNMENTS: Dict[str, str] = {
    "repro": "root",
    "repro.machine": "machine",
    "repro.sim": "sim",
    "repro.hw": "hw",
    "repro.analysis": "analysis",
    "repro.faults": "faults",
    "repro.nvme": "nvme",
    "repro.fs": "fs",
    "repro.kernel": "kernel",
    "repro.core": "core",
    "repro.obs": "obs",
    "repro.baselines": "baselines",
    "repro.apps": "apps",
    "repro.bench": "bench",
    "repro.chaos": "chaos",
}


def default_manifest() -> Manifest:
    """The manifest for ``src/repro`` — what CI enforces."""
    return Manifest(
        package="repro",
        layers={layer.name: layer for layer in LAYERS},
        assignments=dict(_ASSIGNMENTS),
        friends=FRIEND_EDGES,
        hot_entries=HOT_ENTRY_POINTS,
        oracle_modules=ORACLE_MODULES,
        frozen_modules=FROZEN_MODULES,
        attribution_modules=ATTRIBUTION_MODULES,
    )
