"""perf_track roundtrip: --write then --check must pass exactly; a
doctored baseline must fail with a pointed drift message."""

import json
import pathlib
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[2] / "scripts"
sys.path.insert(0, str(SCRIPTS))

import perf_track  # noqa: E402

from repro.obs.perf import (  # noqa: E402
    PerfConfig,
    collect_perf,
    compare_perf,
    measure_breakdown,
)

TINY = (PerfConfig("tiny-sync", engine="sync", ops=4,
                   file_size=1 << 20),)


class TestCompare:
    def test_identical_payloads_pass(self):
        payload = collect_perf(TINY)
        assert compare_perf(payload, payload) == []

    def test_same_seed_reruns_compare_exactly(self):
        assert compare_perf(collect_perf(TINY), collect_perf(TINY)) == []

    def test_drift_is_reported(self):
        a = collect_perf(TINY)
        b = json.loads(json.dumps(a))
        b["workloads"]["tiny-sync"]["mean_ns"] += 100.0
        problems = compare_perf(a, b)
        assert len(problems) == 1
        assert "tiny-sync.mean_ns" in problems[0]
        # A generous tolerance forgives it.
        assert compare_perf(a, b, tolerance=0.5) == []

    def test_missing_workload_is_reported(self):
        a = collect_perf(TINY)
        b = {"schema": 1, "workloads": {}}
        problems = compare_perf(a, b)
        assert any("missing from current run" in p for p in problems)

    def test_unknown_only_name_raises(self):
        with pytest.raises(ValueError):
            collect_perf(TINY, names=["nope"])


class TestCli:
    def test_write_then_check(self, tmp_path):
        baseline = tmp_path / "perf.json"
        assert perf_track.main(["--write", "--quick",
                                "--json", str(baseline)]) == 0
        doc = json.loads(baseline.read_text(encoding="utf-8"))
        assert doc["schema"] == 1
        assert set(doc["workloads"]) == {"quick-sync-4k-randread",
                                         "quick-bypassd-4k-randread"}
        for wl in doc["workloads"].values():
            assert wl["mean_ns"] > 0
            assert {"user", "kernel", "device"} == set(wl["shares"])
        assert perf_track.main(["--check", "--quick",
                                "--json", str(baseline)]) == 0

    def test_check_fails_on_drift(self, tmp_path, capsys):
        baseline = tmp_path / "perf.json"
        assert perf_track.main(["--write", "--quick",
                                "--json", str(baseline)]) == 0
        doc = json.loads(baseline.read_text(encoding="utf-8"))
        doc["workloads"]["quick-sync-4k-randread"]["device_ns"] += 1
        baseline.write_text(json.dumps(doc), encoding="utf-8")
        assert perf_track.main(["--check", "--quick",
                                "--json", str(baseline)]) == 1
        err = capsys.readouterr().err
        assert "perf drift" in err
        assert "device_ns" in err

    def test_check_without_baseline_fails(self, tmp_path, capsys):
        assert perf_track.main(["--check", "--quick",
                                "--json",
                                str(tmp_path / "absent.json")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_only_filter(self, tmp_path, capsys):
        baseline = tmp_path / "perf.json"
        assert perf_track.main(["--write", "--quick",
                                "--only", "quick-sync-4k-randread",
                                "--json", str(baseline)]) == 0
        doc = json.loads(baseline.read_text(encoding="utf-8"))
        assert list(doc["workloads"]) == ["quick-sync-4k-randread"]
        assert perf_track.main(["--check", "--quick",
                                "--only", "quick-sync-4k-randread",
                                "--json", str(baseline)]) == 0
        capsys.readouterr()
        assert perf_track.main(["--check", "--quick", "--only", "nope",
                                "--json", str(baseline)]) == 1
        assert "error: unknown perf config" in capsys.readouterr().err


def test_committed_baseline_matches_reality():
    """BENCH_perf.json at the repo root must reproduce exactly (this is
    the same comparison the CI perf-track job runs, over one config)."""
    baseline_path = pathlib.Path(__file__).resolve().parents[2] \
        / "BENCH_perf.json"
    expected = json.loads(baseline_path.read_text(encoding="utf-8"))
    name = "sync-4k-randread"
    from repro.obs.perf import PERF_MATRIX
    config = next(c for c in PERF_MATRIX if c.name == name)
    actual = measure_breakdown(config).to_dict()
    assert expected["workloads"][name] == actual
