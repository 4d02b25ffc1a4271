"""The exact gate on the sweep table, and what its split columns show.

``scripts/perf_gate.py`` compares a fresh ``sweep`` table with the
committed one cell by cell; these tests move one value of a copy of
the committed record and check the gate names the cell and the
metric.  The split tests compare a faulted cell with its clean twin:
the moved ``user_ns`` / ``kernel_ns`` / ``device_ns`` columns are the
per-layer blame.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from repro.bench.sweep import GridPoint, run_cell

REPO_ROOT = Path(__file__).resolve().parents[2]
RECORD = REPO_ROOT / "bench-timings.json"
sys.path.insert(0, str(REPO_ROOT / "scripts"))
perf_gate = importlib.import_module("perf_gate")

SYNC_CELL = "engine=sync/wl=randread-4k/faults=none"
RETRY_CELL = "engine=sync/wl=randread-4k/faults=media-retry"


def sweep_table(record):
    return next(e for e in record["experiments"]
                if e["experiment"] == "sweep")["table"]


def committed_row(cell):
    table = sweep_table(json.loads(RECORD.read_text()))
    row = next(r for r in table["rows"] if r[0] == cell)
    return {h: v for h, v in zip(table["headers"][1:], row[1:])
            if v is not None}


def bump(cell, column, delta):
    def edit(table):
        col = table["headers"].index(column)
        row = next(r for r in table["rows"] if r[0] == cell)
        row[col] += delta
    return edit


@pytest.fixture
def gate(tmp_path, capsys):
    """perf_gate's (exit status, output) for the committed record with
    ``edit`` applied to its sweep table, judged against the committed
    record."""
    def run(edit):
        fresh = json.loads(RECORD.read_text())
        edit(sweep_table(fresh))
        path = tmp_path / "fresh.json"
        path.write_text(json.dumps(fresh))
        rc = perf_gate.main([str(path), "--baseline", str(RECORD)])
        return rc, capsys.readouterr().out
    return run


def test_unchanged_record_passes(gate):
    rc, out = gate(lambda table: None)
    assert rc == 0, out
    assert "0 moved" in out


class TestJudging:
    def test_one_unit_p99_move_names_cell_and_metric(self, gate):
        rc, out = gate(bump(SYNC_CELL, "p99_ns", 1))
        assert rc == 1
        assert f'("{SYNC_CELL}"), column "p99_ns"' in out
        assert "FAIL: sweep" in out

    def test_throughput_fall_regresses(self, gate):
        rc, out = gate(bump(SYNC_CELL, "iops", -1.0))
        assert rc == 1
        assert f'("{SYNC_CELL}"), column "iops"' in out

    def test_exact_counter_drift_regresses_either_direction(self, gate):
        for cell, delta in ((SYNC_CELL, 1.0), (RETRY_CELL, -1.0)):
            rc, out = gate(bump(cell, "retries", delta))
            assert rc == 1
            assert f'("{cell}"), column "retries"' in out

    def test_vanished_metric_regresses(self, gate):
        """A metric no cell records any more drops its column: the
        headers differ and the gate fails."""
        def drop_sqpoll(table):
            col = table["headers"].index("sqpoll.kernel_ns")
            for row in [table["headers"], *table["rows"]]:
                del row[col]
        rc, out = gate(drop_sqpoll)
        assert rc == 1
        assert "sweep: headers:" in out


class TestReport:
    def test_missing_cell_is_fatal(self, gate):
        def drop(table):
            table["rows"] = [r for r in table["rows"] if r[0] != SYNC_CELL]
        rc, out = gate(drop)
        assert rc == 1
        assert "sweep: 50 rows -> 49" in out


class TestAttribution:
    def test_injected_retry_blamed_on_retry_layer(self):
        """One injected media read error: the cell books the injection
        and one retry, and the side that runs the retry (UserLib on
        the direct path, the kernel driver on sync) grows more than
        the device does."""
        for engine, owner in (("bypassd", "user_ns"), ("sync", "kernel_ns")):
            clean, hurt = (run_cell(GridPoint(engine, "randread-4k", f))
                           for f in ("none", "media-retry"))
            for key in ("retries", "faults_injected"):
                assert (clean[key], hurt[key]) == (0.0, 1.0), (engine, key)
            grew = {k: hurt[k] - clean[k] for k in (owner, "device_ns")}
            assert grew[owner] > grew["device_ns"], (engine, grew)


class TestCommittedBaseline:
    def test_sync_cell_folds_to_table1(self):
        """The committed sync read cell reproduces on a fresh run and
        folds to Table 1's kernel layers and device time."""
        metrics = committed_row(SYNC_CELL)
        assert run_cell(GridPoint("sync", "randread-4k", "none")) == metrics
        assert {label: metrics[f"{label}.kernel_ns"] for label in (
            "mode-switch-enter", "vfs-ext4", "block-layer",
            "nvme-driver", "mode-switch-exit")} == {
            "mode-switch-enter": 160.0, "vfs-ext4": 2810.0,
            "block-layer": 540.0, "nvme-driver": 220.0,
            "mode-switch-exit": 100.0}
        assert metrics["device_ns"] == 4013.0
        assert metrics["user_ns"] == 0.0
        assert metrics["kernel_ns"] == 3830.0
