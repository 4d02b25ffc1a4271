"""Sweep cell execution: record shape, determinism, fault semantics."""

import pytest

from repro.bench import runner
from repro.obs.attribution import side_of
from repro.obs.diff import attribute_regression, spans_from_compact
from repro.sweep.grid import MANIFEST_SCHEMA, SweepManifest
from repro.sweep.jobs import RECORD_SCHEMA, build_job, run_sweep_point

TINY = {
    "schema": MANIFEST_SCHEMA,
    "workloads": {
        "rr": {"kind": "fio", "rw": "randread", "block_size": 4096,
               "tenants": 1, "ops": 24, "file_mib": 2, "seed": 42},
        "yb": {"kind": "ycsb", "mix": "b", "block_size": 4096,
               "tenants": 2, "ops": 6, "records": 32, "seed": 42},
    },
    "faults": {
        "none": None,
        "media-retry": "seed=7,media_read_error_nth=12",
    },
    "grids": {
        "default": {
            "engines": ["bypassd", "sync"],
            "workloads": ["rr", "yb"],
            "faults": ["none", "media-retry"],
        },
    },
    "tolerances": {},
}


@pytest.fixture(scope="module")
def manifest():
    return SweepManifest.from_dict(TINY)


def run_cell(manifest, cell, faults=None):
    point = manifest.point_for(cell, grid="default")
    job = build_job(point, "testtree", effective_faults=faults)
    payload = run_sweep_point(job)
    assert "error" not in payload, payload.get("error")
    return payload


class TestBuildJob:
    def test_job_mirrors_runner_contract(self, manifest):
        point = manifest.point_for("engine=bypassd/wl=rr/faults=none",
                                   grid="default")
        job = build_job(point, "t")
        assert job["experiment"] == "sweep/engine=bypassd/wl=rr/faults=none"
        assert job["config"]["params"]["kind"] == "sweep-cell"
        assert job["fingerprint"] == runner.job_fingerprint(
            "t", job["config"])

    def test_injected_faults_change_fingerprint_not_identity(
            self, manifest):
        """A seeded regression must re-execute (new fingerprint: the
        warm cache can never serve the clean result) while staying
        paired with the same baseline cell (same experiment name)."""
        point = manifest.point_for("engine=bypassd/wl=rr/faults=none",
                                   grid="default")
        clean = build_job(point, "t")
        injected = build_job(point, "t",
                             effective_faults="seed=7,"
                                              "media_read_error_nth=3")
        assert clean["experiment"] == injected["experiment"]
        assert clean["fingerprint"] != injected["fingerprint"]

    def test_fingerprint_tracks_workload_knobs(self, manifest):
        a = manifest.point_for("engine=sync/wl=rr/faults=none",
                               grid="default")
        b = manifest.point_for("engine=sync/wl=yb/faults=none",
                               grid="default")
        assert build_job(a, "t")["fingerprint"] != \
            build_job(b, "t")["fingerprint"]


class TestRunSweepPoint:
    def test_fio_record_shape(self, manifest):
        payload = run_cell(manifest, "engine=bypassd/wl=rr/faults=none")
        record = payload["record"]
        assert record["schema"] == RECORD_SCHEMA
        assert record["cell"] == "engine=bypassd/wl=rr/faults=none"
        metrics = record["metrics"]
        for key in ("ops", "mean_ns", "p50_ns", "p99_ns", "p999_ns",
                    "iops", "mbps", "retries", "faults_injected",
                    "slo_breaches", "user_ns", "kernel_ns", "device_ns",
                    "sim_end_ns"):
            assert key in metrics, key
        assert metrics["ops"] == 24.0
        assert metrics["retries"] == 0.0
        # The direct path books no kernel time and no kernel layer.
        assert metrics["kernel_ns"] == 0.0
        assert not any(k.endswith(".kernel_ns") for k in metrics)
        assert metrics["sim_end_ns"] == payload["timing"]["sim_time_ns"]
        assert len(record["tenants"]) == 1
        assert record["trace"], "trace dump must be present (diff path)"
        assert payload["timing"]["machines"] == 1
        assert payload["timing"]["sim_time_ns"] > 0

    def test_ycsb_record_has_per_tenant_rows(self, manifest):
        record = run_cell(
            manifest, "engine=sync/wl=yb/faults=none")["record"]
        assert len(record["tenants"]) == 2
        assert all(t["ops"] > 0 for t in record["tenants"])
        assert record["metrics"]["ops"] > 0
        # Every syscall of the data path crosses ext4.
        assert record["metrics"]["vfs-ext4.kernel_ns"] > 0

    def test_cell_is_deterministic(self, manifest):
        a = run_cell(manifest, "engine=bypassd/wl=rr/faults=none")
        b = run_cell(manifest, "engine=bypassd/wl=rr/faults=none")
        assert a["record"] == b["record"]

    def test_media_retry_cell_books_retry_counters(self, manifest):
        """The media-retry plan injects one read error; bypassd's
        userlib absorbs it as a retry, and the record must expose both
        the injection and the retry so the compare stage can gate on
        their drift."""
        record = run_cell(
            manifest, "engine=bypassd/wl=rr/faults=media-retry")["record"]
        assert record["metrics"]["faults_injected"] >= 1.0
        assert record["metrics"]["retries"] >= 1.0
        # The runner normalizes spec term order for fingerprinting.
        assert "media_read_error_nth=12" in record["faults_spec"]
        assert "seed=7" in record["faults_spec"]

    def test_worker_reports_errors_instead_of_raising(self, manifest):
        point = manifest.point_for("engine=bypassd/wl=rr/faults=none",
                                   grid="default")
        job = build_job(point, "t")
        job["point"]["workload_spec"]["ops"] = "boom"  # int() raises
        payload = run_sweep_point(job)
        assert "error" in payload and "record" not in payload


def test_blame_sees_async_io_under_a_latency_spike():
    """io_uring reads are op roots whose device phases nest under the
    op, so the wide grid's spike plan is blamed on a device-
    side layer rather than lost outside every op."""
    wide = SweepManifest.builtin()
    records = {}
    for faults in ("none", "spike"):
        cell = f"engine=io_uring/wl=randread-4k/faults={faults}"
        payload = run_sweep_point(build_job(
            wide.point_for(cell, grid="wide"), "testtree"))
        assert "error" not in payload, payload.get("error")
        records[faults] = payload["record"]
    result = attribute_regression(
        spans_from_compact(records["none"]["trace"]),
        spans_from_compact(records["spike"]["trace"]))
    assert result["blame"] is not None
    assert side_of(result["blame"]["layer"]) == "device"
