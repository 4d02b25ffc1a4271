"""Differential-timeline harness: new engine vs the frozen reference.

The engine overhaul (current-instant FIFO beside the heap, event
pooling, fast-path dispatch) is only safe if it changed *nothing
observable*.  This harness runs identical workloads on both engines —
the overhauled
``repro.sim.engine`` and the pre-overhaul copy in
``repro.sim.engine_reference``, selected per-subprocess via the
``REPRO_ENGINE`` environment variable — and asserts the resulting
fingerprint documents are **byte-identical**: span-tree fingerprints,
final ``sim_time_ns``, per-op latency digests, full telemetry dumps,
chaos-oracle verdicts.

Three tiers:

- the quick tier (always on) covers the quickstart and two-tenant
  workloads under tracing/monitor/sanitize on and off, every committed
  chaos reproducer, and two cheap bench-registry experiments;
- the committed golden (``tests/golden/engine_timeline.json``) pins
  the quick tier's fingerprints so a timeline change is caught even
  without the reference engine run (refresh with
  ``REPRO_UPDATE_GOLDEN=1`` after an intentional change);
- ``REPRO_ENGINE_DIFF_FULL=1`` extends the diff to the full experiment
  registry (minutes of wall clock: the reference engine runs the
  slowest experiments at pre-overhaul speed).
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
WORKER = pathlib.Path(__file__).parent / "_diff_worker.py"
GOLDEN = REPO_ROOT / "tests" / "golden" / "engine_timeline.json"
CORPUS_DIR = REPO_ROOT / "tests" / "chaos" / "corpus"

QUICK_SCENARIOS = [
    {"label": "quickstart", "kind": "quickstart"},
    {"label": "quickstart-trace", "kind": "quickstart", "trace": True},
    {"label": "quickstart-sanitize", "kind": "quickstart",
     "sanitize": True},
    {"label": "quickstart-trace-sanitize", "kind": "quickstart",
     "trace": True, "sanitize": True},
    {"label": "two-tenant", "kind": "two_tenant"},
    {"label": "two-tenant-monitor", "kind": "two_tenant",
     "monitor": True},
    {"label": "experiment-fig12", "kind": "experiment", "name": "fig12"},
    {"label": "experiment-fig11-monitor", "kind": "experiment",
     "name": "fig11", "monitor": True},
] + [
    {"label": f"chaos-{p.stem}", "kind": "chaos",
     "path": str(p.relative_to(REPO_ROOT))}
    for p in sorted(CORPUS_DIR.glob("*.json"))
]


def run_worker(engine: str, scenarios) -> str:
    """Run the worker subprocess on ``engine`` ("" = overhauled)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_ENGINE", None)
    if engine:
        env["REPRO_ENGINE"] = engine
    proc = subprocess.run(
        [sys.executable, str(WORKER), json.dumps({"scenarios": scenarios})],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        timeout=1800)
    assert proc.returncode == 0, \
        f"worker failed on engine={engine or 'new'}:\n{proc.stderr}"
    return proc.stdout


def _diff_labels(new: str, ref: str) -> str:
    """Human summary of which scenarios diverged (for the assert)."""
    a, b = json.loads(new), json.loads(ref)
    bad = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    return f"timelines diverged for: {bad}"


def test_quick_tier_byte_identical_across_engines():
    new = run_worker("", QUICK_SCENARIOS)
    ref = run_worker("reference", QUICK_SCENARIOS)
    assert new == ref, _diff_labels(new, ref)


def test_quick_tier_matches_committed_golden():
    new = run_worker("", QUICK_SCENARIOS)
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN.write_text(new, encoding="utf-8")
    assert GOLDEN.exists(), \
        "golden timeline missing; run with REPRO_UPDATE_GOLDEN=1"
    golden = GOLDEN.read_text(encoding="utf-8")
    assert new == golden, _diff_labels(new, golden)


def test_reference_engine_selected_by_env():
    """The env switch really swaps the implementation in-subprocess."""
    probe = ("import repro.sim.engine as e, "
             "repro.sim.engine_reference as r; "
             "import sys; "
             "sys.stdout.write('ref' if e.Simulator is r.Simulator "
             "else 'new')")
    out = {}
    for engine in ("", "reference"):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env.pop("REPRO_ENGINE", None)
        if engine:
            env["REPRO_ENGINE"] = engine
        out[engine] = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True,
            text=True, env=env, timeout=120).stdout
    assert out[""] == "new" and out["reference"] == "ref"


@pytest.mark.skipif(not os.environ.get("REPRO_ENGINE_DIFF_FULL"),
                    reason="full-registry diff is minutes of wall clock; "
                           "set REPRO_ENGINE_DIFF_FULL=1")
def test_full_registry_byte_identical_across_engines():
    from repro.bench.runner import registry_names

    scenarios = [
        {"label": f"experiment-{name}-monitor", "kind": "experiment",
         "name": name, "monitor": True}
        for name in registry_names()
    ]
    new = run_worker("", scenarios)
    ref = run_worker("reference", scenarios)
    assert new == ref, _diff_labels(new, ref)
