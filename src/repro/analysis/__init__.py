"""Static analysis for simulation correctness (simlint).

``python scripts/simlint.py src/repro`` is the CLI front end; this
package is the library, in two passes:

* a **per-module AST pass** (:mod:`repro.analysis.linter`) with the
  SIM001–SIM014 rules that catch the ways Python code breaks the
  engine's same-seed-same-bytes guarantee (wall-clock reads,
  hash-order iteration into the event queue, float delays on the
  integer nanosecond clock, event-protocol misuse);
* a **whole-program pass** (:mod:`repro.analysis.program`) that parses
  the package once, builds the import graph and a conservative call
  graph with interprocedurally propagated fact summaries, and checks
  the SIM015–SIM018 rules against the declarative architecture
  manifest in :mod:`repro.analysis.architecture`.

See ``docs/static_analysis.md`` for the rule catalogue with bad/good
examples, and :mod:`repro.sim.sanitizer` for the runtime counterpart.
"""

from .rules import ERROR, RULES, Rule, WARNING, iter_rules_help, rule_by_id
from .linter import (
    LintResult,
    Violation,
    apply_baseline,
    is_entropy_call,
    iter_python_files,
    lint_paths,
    lint_source,
    load_baseline,
    render_human,
    render_json,
    write_baseline,
)
from .fixes import FIXABLE_RULES, fix_file, fix_source
from .architecture import (
    FriendEdge,
    Layer,
    Manifest,
    ManifestError,
    default_manifest,
)
from .program import (
    Program,
    ProgramResult,
    analyze_program,
    build_program,
    export_dot,
    export_json,
    lint_program,
)

__all__ = [
    "ERROR",
    "WARNING",
    "RULES",
    "Rule",
    "rule_by_id",
    "iter_rules_help",
    "iter_python_files",
    "is_entropy_call",
    "LintResult",
    "Violation",
    "lint_source",
    "lint_paths",
    "load_baseline",
    "write_baseline",
    "apply_baseline",
    "render_human",
    "render_json",
    "FIXABLE_RULES",
    "fix_source",
    "fix_file",
    "Layer",
    "FriendEdge",
    "Manifest",
    "ManifestError",
    "default_manifest",
    "Program",
    "ProgramResult",
    "build_program",
    "analyze_program",
    "lint_program",
    "export_dot",
    "export_json",
]
