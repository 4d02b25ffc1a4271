"""Declarative sweep grids over the experiment runner.

The paper's evaluation is a fixed grid — engine x workload x
configuration — rendered as 19 figures.  This module generalizes that
grid into a *declarative manifest*: named workloads (fio patterns and
YCSB mixes with a tenant count), named fault plans, and named grids
that pick one value per axis.  :meth:`SweepManifest.expand` turns a
grid into a deterministic, sorted list of :class:`GridPoint`s; each
point becomes one job through the parallel runner
(:mod:`repro.sweep.jobs`) with its own content fingerprint and cache
entry.

The manifest is plain JSON (``sweep-manifest.json`` at the repo root
is the committed instance) so CI can hash it into cache keys and a
grid change is a reviewed one-file diff.  Everything here is pure
data transformation — no simulation imports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "MANIFEST_SCHEMA",
    "COMMITTED_MANIFEST",
    "GridPoint",
    "Injection",
    "SweepManifest",
    "load_manifest",
    "parse_injection",
]

MANIFEST_SCHEMA = 1

#: The committed manifest at the repo root: the ``default`` grid is the
#: PR-gating sweep (small enough to re-simulate in seconds, wide enough
#: that every engine sees a clean and a faulted configuration); ``wide``
#: is the nightly grid.
COMMITTED_MANIFEST = Path(__file__).resolve().parents[3] \
    / "sweep-manifest.json"


@dataclass(frozen=True)
class GridPoint:
    """One cell of a sweep grid: engine x workload x fault plan."""

    engine: str
    workload: str
    faults: str                      # fault *plan name* (axis value)
    faults_spec: Optional[str]       # resolved plan spec ("" axes -> None)
    workload_spec: Tuple[Tuple[str, Any], ...]   # resolved, hashable

    @property
    def cell(self) -> str:
        """The cell id — stable across runs, used for baseline
        matching, timings records (``sweep/<cell>``) and dashboards."""
        return (f"engine={self.engine}/wl={self.workload}"
                f"/faults={self.faults}")

    @property
    def tenants(self) -> int:
        return int(dict(self.workload_spec).get("tenants", 1))

    def axes(self) -> Dict[str, str]:
        return {"engine": self.engine, "workload": self.workload,
                "faults": self.faults}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "engine": self.engine,
            "workload": self.workload,
            "faults": self.faults,
            "faults_spec": self.faults_spec,
            "workload_spec": dict(self.workload_spec),
        }


@dataclass(frozen=True)
class Injection:
    """A seeded-regression overlay: replace the fault plan of every
    grid point whose axes match.

    This is how the sweep gate validates itself (and how tests plant
    regressions): the injected spec changes the *executed* scenario —
    and therefore the job fingerprint — while the cell identity stays
    the axis values, so the regressed cell still pairs with its
    baseline entry.
    """

    match: Tuple[Tuple[str, str], ...]   # axis -> required value
    faults_spec: str

    def matches(self, point: GridPoint) -> bool:
        axes = point.axes()
        return all(axes.get(k) == v for k, v in self.match)


def parse_injection(text: str) -> Injection:
    """Parse ``"engine=bypassd,workload=randread-4k:SPEC"``.

    Everything before the first ``:`` is a comma-separated axis match
    (axes: engine, workload, faults); everything after is the fault
    plan spec that replaces the matched cells' plan.
    """
    if ":" not in text:
        raise ValueError(
            f"bad injection {text!r}: expected 'axis=value[,...]:faultspec'")
    match_part, spec = text.split(":", 1)
    match: List[Tuple[str, str]] = []
    for item in match_part.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"bad injection match term {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in ("engine", "workload", "faults"):
            raise ValueError(f"unknown injection axis {key!r}")
        match.append((key, value.strip()))
    if not match:
        raise ValueError(f"injection {text!r} matches nothing")
    if not spec.strip():
        raise ValueError(f"injection {text!r} has an empty fault spec")
    return Injection(match=tuple(match), faults_spec=spec.strip())


@dataclass
class SweepManifest:
    """A parsed sweep manifest: workloads, fault plans, grids."""

    workloads: Dict[str, Dict[str, Any]]
    faults: Dict[str, Optional[str]]
    grids: Dict[str, Dict[str, List[str]]]
    tolerances: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    source: str = "<dict>"

    @classmethod
    def from_dict(cls, data: Dict[str, Any],
                  source: str = "<dict>") -> "SweepManifest":
        schema = data.get("schema")
        if schema != MANIFEST_SCHEMA:
            raise ValueError(
                f"{source}: unsupported sweep manifest schema {schema!r} "
                f"(expected {MANIFEST_SCHEMA})")
        m = cls(
            workloads={str(k): dict(v)
                       for k, v in (data.get("workloads") or {}).items()},
            faults={str(k): v
                    for k, v in (data.get("faults") or {}).items()},
            grids={str(k): {a: list(vs) for a, vs in v.items()}
                   for k, v in (data.get("grids") or {}).items()},
            tolerances={str(k): dict(v)
                        for k, v in (data.get("tolerances") or {}).items()},
            source=source,
        )
        m.validate()
        return m

    @classmethod
    def builtin(cls) -> "SweepManifest":
        """The committed ``sweep-manifest.json``, wherever the working
        directory is."""
        return load_manifest(COMMITTED_MANIFEST)

    def validate(self) -> None:
        for name, spec in self.workloads.items():
            kind = spec.get("kind")
            if kind not in ("fio", "ycsb"):
                raise ValueError(
                    f"{self.source}: workload {name!r} has unknown "
                    f"kind {kind!r}")
        for gname, grid in self.grids.items():
            for axis in ("engines", "workloads", "faults"):
                if not grid.get(axis):
                    raise ValueError(
                        f"{self.source}: grid {gname!r} is missing "
                        f"axis {axis!r}")
            for wl in grid["workloads"]:
                if wl not in self.workloads:
                    raise ValueError(
                        f"{self.source}: grid {gname!r} names unknown "
                        f"workload {wl!r}")
            for fp in grid["faults"]:
                if fp not in self.faults:
                    raise ValueError(
                        f"{self.source}: grid {gname!r} names unknown "
                        f"fault plan {fp!r}")
            for rule in grid.get("exclude", []):
                bad = set(rule) - {"engine", "workload", "faults"}
                if bad or not rule:
                    raise ValueError(
                        f"{self.source}: grid {gname!r} exclude rule "
                        f"{rule!r} must use axes engine/workload/faults")

    def grid_names(self) -> List[str]:
        return sorted(self.grids)

    def expand(self, grid: str = "default") -> List[GridPoint]:
        """The grid's cells as a deterministic, sorted point list.

        Expansion order is (engine, workload, faults) with each axis
        in its declared manifest order, so the cell list — and every
        downstream artifact keyed on it — is stable across runs and
        across axis reorderings that don't change membership.  An
        ``exclude`` list of partial axis matchers prunes cells whose
        axes all match a rule (same semantics as a CI matrix exclude):
        the cross product stays declarative while impossible pairings
        — a fault plan an engine surfaces as a raw error instead of
        retrying — stay out of the grid.
        """
        if grid not in self.grids:
            raise KeyError(
                f"unknown grid {grid!r}; available: "
                f"{', '.join(self.grid_names())}")
        g = self.grids[grid]
        exclude = g.get("exclude", [])

        def excluded(point: GridPoint) -> bool:
            axes = point.axes()
            return any(all(axes.get(k) == v for k, v in rule.items())
                       for rule in exclude)

        points = []
        for engine in g["engines"]:
            for wl in g["workloads"]:
                spec = self.workloads[wl]
                for fp in g["faults"]:
                    points.append(GridPoint(
                        engine=engine, workload=wl, faults=fp,
                        faults_spec=self.faults[fp],
                        workload_spec=tuple(sorted(spec.items())),
                    ))
        return sorted((p for p in points if not excluded(p)),
                      key=lambda p: p.cell)

    def cells(self, grid: str = "default") -> List[str]:
        return [p.cell for p in self.expand(grid)]

    def point_for(self, cell: str,
                  grid: Optional[str] = None) -> GridPoint:
        """Resolve a cell id back to its grid point.

        With ``grid`` the cell must be a member; without, the cell is
        parsed against the manifest's workload/fault tables (so CI
        shards can run an explicit cell list without naming a grid).
        """
        if grid is not None:
            for p in self.expand(grid):
                if p.cell == cell:
                    return p
            raise KeyError(f"cell {cell!r} is not in grid {grid!r}")
        parts = dict(item.split("=", 1) for item in cell.split("/"))
        missing = {"engine", "wl", "faults"} - set(parts)
        if missing:
            raise ValueError(f"bad cell id {cell!r}: missing {missing}")
        wl, fp = parts["wl"], parts["faults"]
        if wl not in self.workloads:
            raise KeyError(f"cell {cell!r} names unknown workload {wl!r}")
        if fp not in self.faults:
            raise KeyError(f"cell {cell!r} names unknown fault plan {fp!r}")
        return GridPoint(
            engine=parts["engine"], workload=wl, faults=fp,
            faults_spec=self.faults[fp],
            workload_spec=tuple(sorted(self.workloads[wl].items())),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": MANIFEST_SCHEMA,
            "workloads": self.workloads,
            "faults": self.faults,
            "grids": self.grids,
            "tolerances": self.tolerances,
        }

    def fingerprint_material(self) -> str:
        """Canonical JSON of the manifest — folded into job params so
        a manifest edit (a workload knob, a fault spec) invalidates
        exactly the cells it touches via their resolved specs."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


def load_manifest(path: Optional[Path] = None) -> SweepManifest:
    """Load ``path``, or fall back to the committed manifest.

    The CLI default is ``sweep-manifest.json`` in the working
    directory when it exists; otherwise the committed instance at the
    repo root — so ``python -m repro.sweep`` works from any directory.
    """
    if path is None:
        candidate = Path("sweep-manifest.json")
        path = candidate if candidate.is_file() else COMMITTED_MANIFEST
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return SweepManifest.from_dict(data, source=str(path))


def apply_injections(points: Sequence[GridPoint],
                     injections: Sequence[Injection]
                     ) -> List[Tuple[GridPoint, Optional[str]]]:
    """Pair each point with its *effective* fault spec.

    A matching injection replaces the point's plan (last match wins);
    unmatched points keep their own.  Returns ``(point,
    effective_spec)`` pairs in input order.
    """
    out = []
    for point in points:
        spec = point.faults_spec
        for inj in injections:
            if inj.matches(point):
                spec = inj.faults_spec
        out.append((point, spec))
    return out
