"""Grid expansion, excludes, and the committed grid literal."""

import json
from pathlib import Path

import pytest

from repro.bench.sweep import GRID, WORKLOADS, expand, validate

REPO_ROOT = Path(__file__).resolve().parents[2]

TINY = {
    "engines": ("bypassd", "sync"),
    "workloads": ("randread-4k", "ycsb-b-2t"),
    "faults": ("none", "media-retry"),
}


def cells(grid):
    return [p.cell for p in expand(grid)]


class TestExpansion:
    def test_default_grid_is_sorted_cross_product(self):
        got = cells(TINY)
        assert len(got) == 8
        assert got == sorted(got)
        assert "engine=bypassd/wl=randread-4k/faults=none" in got
        assert "engine=sync/wl=ycsb-b-2t/faults=media-retry" in got

    def test_axis_reordering_does_not_change_membership(self):
        reordered = dict(TINY, engines=TINY["engines"][::-1],
                         faults=TINY["faults"][::-1])
        assert cells(reordered) == cells(TINY)

    def test_exclude_prunes_matching_cells(self):
        got = cells(dict(TINY, exclude=(
            {"engine": "sync", "faults": "media-retry"},)))
        assert len(got) == 6
        assert not any("engine=sync" in c and "faults=media-retry" in c
                       for c in got)
        # The partial matcher leaves the other sync cells alone.
        assert "engine=sync/wl=randread-4k/faults=none" in got


def test_grid_literal_is_well_formed():
    """Every name the grid uses resolves, every exclude rule uses the
    grid's axes, every workload kind has a driver and every fault plan
    parses."""
    validate(GRID)


class TestValidation:
    def test_unknown_workload_in_grid_rejected(self):
        grid = dict(TINY, workloads=TINY["workloads"] + ("ghost",))
        with pytest.raises(ValueError, match="unknown workload"):
            expand(grid)

    def test_unknown_fault_plan_in_grid_rejected(self):
        grid = dict(TINY, faults=TINY["faults"] + ("ghost",))
        with pytest.raises(ValueError, match="unknown fault plan"):
            expand(grid)

    def test_exclude_rule_with_bad_axis_rejected(self):
        grid = dict(TINY, exclude=({"os": "plan9"},))
        with pytest.raises(ValueError, match="exclude rule"):
            expand(grid)

    def test_unknown_workload_kind_rejected(self):
        workloads = dict(WORKLOADS, **{
            "randread-4k": dict(WORKLOADS["randread-4k"], kind="tpcc")})
        with pytest.raises(ValueError, match="unknown kind"):
            validate(TINY, workloads=workloads)


class TestCommittedManifest:
    def test_default_grid_excludes_raw_error_engines(self):
        """io_uring and libaio surface media errors as raw aio
        failures instead of retrying; the grid must exclude those
        pairings or the experiment dies."""
        for cell in cells(GRID):
            assert not (("io_uring" in cell or "libaio" in cell)
                        and "faults=media-retry" in cell), cell


def test_record_rows_are_the_grid_cells_under_fixed_headers():
    """The committed ``sweep`` table: one row per grid cell in sorted
    order (4 engines x 5 workloads x 3 fault plans, minus io_uring and
    libaio under media-retry) and one column per metric."""
    record = json.loads((REPO_ROOT / "bench-timings.json").read_text())
    table = {e["experiment"]: e for e in record["experiments"]}[
        "sweep"]["table"]
    rows = [row[0] for row in table["rows"]]
    assert rows == cells(GRID)
    assert len(rows) == 50
    stats = ["ops", "mean_ns", "p50_ns", "p99_ns", "p999_ns"]
    assert table["headers"] == [
        "Cell", *stats, "iops", "mbps", "retries", "faults_injected",
        "slo_breaches", "user_ns", "kernel_ns", "device_ns",
        "block-layer.kernel_ns", "mode-switch-enter.kernel_ns",
        "mode-switch-exit.kernel_ns", "nvme-driver.kernel_ns",
        "sqpoll.kernel_ns", "vfs-ext4.kernel_ns", "sim_end_ns",
        *(f"tenant0.{s}" for s in stats), *(f"tenant1.{s}" for s in stats),
    ]
