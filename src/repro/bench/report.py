"""Result tables: the text the benchmark harness prints.

Each experiment returns a :class:`ResultTable` whose rows mirror the
rows/series of the corresponding table or figure in the paper, so the
harness output can be compared against the publication side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["ResultTable"]


@dataclass
class ResultTable:
    title: str
    headers: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)
    notes: str = ""
    # Machine health/fault counters attached by the harness (e.g. the
    # device's translation_faults, injected-fault totals); rendered as
    # a footer so fault-injection runs show what the run absorbed.
    counters: Dict[str, int] = field(default_factory=dict)

    def attach_counters(self, counters: Dict[str, int],
                        nonzero_only: bool = True) -> None:
        for key, value in counters.items():
            if nonzero_only and not value:
                continue
            self.counters[key] = self.counters.get(key, 0) + int(value)

    def attach_metrics(self, registry,
                       nonzero_only: bool = True) -> None:
        """Attach a :class:`repro.obs.metrics.MetricsRegistry`'s
        counters to the footer (same rendering as attach_counters)."""
        self.attach_counters(registry.counters_snapshot(),
                             nonzero_only=nonzero_only)

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable form (sorted-key JSON friendly)."""
        return {
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": self.notes,
            "counters": dict(sorted(self.counters.items())),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ResultTable":
        """Inverse of :meth:`to_dict` (rows come back as lists)."""
        return cls(data["title"], data["headers"],
                   [list(row) for row in data["rows"]],
                   data.get("notes", ""), dict(data.get("counters", {})))

    def add(self, *row: Any) -> None:
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, table has "
                f"{len(self.headers)} columns"
            )
        self.rows.append(row)

    def column(self, name: str) -> List[Any]:
        idx = list(self.headers).index(name)
        return [row[idx] for row in self.rows]

    def by(self, key_column: str) -> Dict[Any, Sequence[Any]]:
        idx = list(self.headers).index(key_column)
        return {row[idx]: row for row in self.rows}

    def _fmt(self, value: Any) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 100:
                return f"{value:,.0f}"
            if abs(value) >= 1:
                return f"{value:.2f}"
            return f"{value:.3f}"
        return str(value)

    def render(self) -> str:
        cells = [[self._fmt(c) for c in row] for row in self.rows]
        widths = [len(h) for h in self.headers]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def line(row):
            return "  ".join(c.rjust(w) for c, w in zip(row, widths))

        out = [self.title, "=" * len(self.title),
               line(self.headers), line(["-" * w for w in widths])]
        out.extend(line(row) for row in cells)
        if self.notes:
            out.append("")
            out.append(self.notes)
        if self.counters:
            out.append("")
            out.append("counters: " + "  ".join(
                f"{k}={v}" for k, v in self.counters.items()))
        return "\n".join(out)

    def show(self) -> None:
        print()
        print(self.render())
        print()
