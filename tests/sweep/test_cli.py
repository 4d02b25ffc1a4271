"""The sweep experiment through the runner: cache replay, parallel
parity, and the gate on a warm replay.

One module-scoped cold run fills a result cache; the tests then pin
that a warm replay executes zero simulations and still passes
``scripts/perf_gate.py`` against the committed record, and that a
parallel run prints what the serial one did.
"""

import importlib
import io
import json
import sys
from pathlib import Path

import pytest

from repro.bench.runner import run_experiments

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "scripts"))
perf_gate = importlib.import_module("perf_gate")


def run(names, **kwargs):
    out = io.StringIO()
    report = run_experiments(names, out=out, err=io.StringIO(), **kwargs)
    assert report.ok
    return report, out.getvalue()


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """(cache dir, stdout) of one cold serial run of ``sweep``."""
    cache = tmp_path_factory.mktemp("sweep-cache")
    report, text = run(["sweep"], cache_dir=cache)
    assert len(report.executed) == 1
    return cache, text


class TestGate:
    def test_clean_warm_cache_passes_with_zero_executed(self, cold,
                                                        tmp_path, capsys):
        cache, _ = cold
        timings = tmp_path / "warm.json"
        report, _ = run(["sweep"], cache_dir=cache, timings_path=timings)
        assert not report.executed
        committed = json.loads((REPO_ROOT / "bench-timings.json")
                               .read_text())
        committed["experiments"] = [e for e in committed["experiments"]
                                    if e["experiment"] == "sweep"]
        base = tmp_path / "base.json"
        base.write_text(json.dumps(committed))
        rc = perf_gate.main([str(timings), "--baseline", str(base)])
        assert rc == 0, capsys.readouterr().out

    def test_missing_baseline_cell_fails_gate(self, cold, tmp_path, capsys):
        """A cell the baseline has and the run does not produce fails
        the gate, naming the row counts."""
        cache, _ = cold
        timings = tmp_path / "warm.json"
        run(["sweep"], cache_dir=cache, timings_path=timings)
        committed = json.loads((REPO_ROOT / "bench-timings.json")
                               .read_text())
        committed["experiments"] = [e for e in committed["experiments"]
                                    if e["experiment"] == "sweep"]
        rows = committed["experiments"][0]["table"]["rows"]
        rows.append(["engine=ghost/wl=randread-4k/faults=none",
                     *rows[0][1:]])
        base = tmp_path / "base.json"
        base.write_text(json.dumps(committed))
        rc = perf_gate.main([str(timings), "--baseline", str(base)])
        out = capsys.readouterr().out
        assert rc == 1, out
        assert "sweep: 51 rows -> 50" in out
        assert "FAIL: sweep" in out


class TestDeterminism:
    def test_jobs_auto_byte_identical_to_serial(self, cold):
        _, sweep_text = cold
        _, table4_text = run(["table4"])
        _, parallel = run(["table4", "sweep"], jobs=2)
        assert parallel == table4_text + sweep_text

    def test_fresh_run_matches_cached_replay(self, cold):
        cache, text = cold
        report, replay = run(["sweep"], cache_dir=cache)
        assert report.cached_hits and replay == text
