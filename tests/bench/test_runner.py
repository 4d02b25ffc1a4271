"""Unit tests for the parallel experiment runner and result cache."""

import gc
import io
import json
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro import Machine
from repro import machine as machine_mod
from repro.bench.report import ResultTable
from repro.bench.runner import (
    CACHE_SCHEMA,
    REGISTRY,
    ResultCache,
    job_config,
    job_fingerprint,
    job_seed,
    normalize_faults_spec,
    registry_names,
    resolve_jobs,
    run_experiments,
    source_tree_hash,
)
from repro.obs.timings import load_timings, slowest

REPO_ROOT = Path(__file__).resolve().parents[2]

# A subset cheap enough to simulate repeatedly in tests (< ~0.5 s
# total) while still spanning tables, figures and machine-building
# experiments.
FAST = ["table1", "table2", "table4", "fig5"]


def bench_cli(*args, cwd=None):
    """Run `python -m repro.bench` in a subprocess, like CI does."""
    env_root = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.bench", *args],
        capture_output=True, text=True, cwd=cwd or REPO_ROOT,
        env={"PYTHONPATH": env_root, "PATH": "/usr/bin:/bin"})


class TestFingerprints:
    def test_registry_covers_public_experiments(self):
        names = registry_names()
        assert "table1" in names and "fig16" in names
        assert "selftest-fail" not in names
        assert "selftest-fail" in registry_names(include_hidden=True)

    def test_fingerprint_is_stable(self):
        tree = source_tree_hash()
        cfg = job_config("fig6", None, False)
        assert job_fingerprint(tree, cfg) == job_fingerprint(tree, cfg)

    def test_fingerprint_varies_with_config(self):
        tree = source_tree_hash()
        fps = {
            job_fingerprint(tree, job_config("fig6", None, False)),
            job_fingerprint(tree, job_config("fig7", None, False)),
            job_fingerprint(tree, job_config("fig6", "seed=7", False)),
            job_fingerprint(tree, job_config("fig6", None, True)),
        }
        assert len(fps) == 4

    def test_fingerprint_varies_with_tree(self, tmp_path):
        (tmp_path / "mod.py").write_text("A = 1\n")
        t1 = source_tree_hash(tmp_path)
        (tmp_path / "mod.py").write_text("A = 2\n")
        t2 = source_tree_hash(tmp_path)
        assert t1 != t2
        cfg = job_config("fig6", None, False)
        assert job_fingerprint(t1, cfg) != job_fingerprint(t2, cfg)

    def test_normalize_faults_spec_sorts_and_validates(self):
        a = normalize_faults_spec("media_error_rate=0.001, seed=7")
        b = normalize_faults_spec("seed=7,media_error_rate=0.001")
        assert a == b
        assert normalize_faults_spec(None) is None
        with pytest.raises(ValueError):
            normalize_faults_spec("not a spec")

    def test_job_seed_is_deterministic_int(self):
        fp = job_fingerprint(source_tree_hash(),
                             job_config("fig6", None, False))
        assert job_seed(fp) == job_seed(fp)
        assert 0 <= job_seed(fp) < 2 ** 64

    def test_resolve_jobs_grammar(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs("4") == 4
        assert resolve_jobs("auto") >= 1
        with pytest.raises(ValueError):
            resolve_jobs("0")


class TestResultCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        payload = {"schema": CACHE_SCHEMA, "experiment": "x",
                   "tree": "t", "output": "hello\n"}
        cache.put("f" * 64, payload)
        assert cache.get("f" * 64) == payload

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.dir.mkdir(parents=True)
        cache.path("a" * 64).write_text("{not json")
        assert cache.get("a" * 64) is None

    def test_schema_mismatch_and_error_payloads_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put("a" * 64, {"schema": CACHE_SCHEMA + 1})
        cache.put("b" * 64, {"schema": CACHE_SCHEMA, "error": "boom"})
        assert cache.get("a" * 64) is None
        assert cache.get("b" * 64) is None

    def test_gc_keeps_current_tree_drops_others(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put("a" * 64, {"schema": CACHE_SCHEMA, "tree": "live"})
        cache.put("b" * 64, {"schema": CACHE_SCHEMA, "tree": "stale"})
        cache.path("c" * 64).write_text("corrupt")
        removed = cache.gc(keep_tree="live")
        assert sorted(removed) == ["b" * 64, "c" * 64]
        assert cache.get("a" * 64) is not None

    def test_gc_drop_all_and_age(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put("a" * 64, {"schema": CACHE_SCHEMA, "tree": "t"})
        mtime = cache.path("a" * 64).stat().st_mtime
        assert cache.gc(max_age_s=60.0, now_s=mtime + 30.0) == []
        assert cache.gc(max_age_s=60.0, now_s=mtime + 120.0) == ["a" * 64]
        cache.put("b" * 64, {"schema": CACHE_SCHEMA, "tree": "t"})
        assert cache.gc(drop_all=True) == ["b" * 64]
        assert cache.entries() == []


class TestCachedRuns:
    def test_warm_cache_executes_zero_simulations(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold_out = io.StringIO()
        cold = run_experiments(FAST, jobs=1, cache_dir=cache_dir,
                               out=cold_out, err=io.StringIO())
        assert cold.ok and len(cold.executed) == len(FAST)

        # Arm the machine-capture sink: a warm run must not construct
        # a single Machine (run_job never executes, so nothing resets
        # or appends to this sink).
        built = []
        machine_mod.capture_machines(built)
        try:
            warm_out = io.StringIO()
            warm = run_experiments(FAST, jobs=1, cache_dir=cache_dir,
                                   out=warm_out, err=io.StringIO())
        finally:
            machine_mod.capture_machines(None)
        assert warm.ok
        assert warm.executed == []
        assert len(warm.cached_hits) == len(FAST)
        assert built == []
        assert warm_out.getvalue() == cold_out.getvalue()

    def test_warm_cache_faulted_run_byte_identical(self, tmp_path):
        # Regression: cached payloads round-trip through sort_keys=True
        # JSON, which alphabetizes faults_injected; the merged fault
        # summary must still render in FaultKind order on a warm run.
        kw = dict(jobs=1, cache_dir=tmp_path / "cache",
                  faults="seed=7,media_error_rate=0.001")
        cold_out = io.StringIO()
        cold = run_experiments(["table4", "table2"], out=cold_out,
                               err=io.StringIO(), **kw)
        warm_out = io.StringIO()
        warm = run_experiments(["table4", "table2"], out=warm_out,
                               err=io.StringIO(), **kw)
        assert cold.ok and warm.ok and warm.executed == []
        assert warm_out.getvalue() == cold_out.getvalue()
        assert (list(warm.merged_fault_summary())
                == list(cold.merged_fault_summary()))

    def test_cache_entries_record_tree_and_config(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_experiments(["table2"], jobs=1, cache_dir=cache_dir,
                        out=io.StringIO(), err=io.StringIO())
        entries = ResultCache(cache_dir).entries()
        assert len(entries) == 1
        entry = entries[0]
        assert entry["experiment"] == "table2"
        assert entry["tree"] == source_tree_hash()
        assert entry["config"]["monitor"] is False

    def test_source_edit_invalidates_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_experiments(["table2"], jobs=1, cache_dir=cache_dir,
                        out=io.StringIO(), err=io.StringIO())
        rerun = run_experiments(["table2"], jobs=1, cache_dir=cache_dir,
                                out=io.StringIO(), err=io.StringIO(),
                                tree="0" * 64)   # a different source tree
        assert rerun.cached_hits == []
        assert len(rerun.executed) == 1

    def test_failure_not_cached(self, tmp_path):
        cache_dir = tmp_path / "cache"
        report = run_experiments(["selftest-fail"], jobs=1,
                                 cache_dir=cache_dir,
                                 out=io.StringIO(), err=io.StringIO())
        assert not report.ok
        assert ResultCache(cache_dir).entries() == []


class TestTimings:
    def test_timings_file_schema(self, tmp_path):
        path = tmp_path / "timings.json"
        report = run_experiments(FAST, jobs=1, timings_path=path,
                                 out=io.StringIO(), err=io.StringIO())
        data = load_timings(path)
        assert data["schema"] == 1
        assert data["tree"] == report.tree
        names = [e["experiment"] for e in data["experiments"]]
        assert names == sorted(FAST)
        for entry in data["experiments"]:
            assert entry["ok"] is True
            assert entry["cached"] is False
            assert entry["machines"] >= 0
            assert entry["table"]["rows"]
        assert data["python"] == "%d.%d" % sys.version_info[:2]
        assert len(slowest(data, 2)) == 2

    def test_failed_experiment_records_null_table(self, tmp_path):
        path = tmp_path / "timings.json"
        run_experiments(["selftest-fail", "table4"], jobs=1,
                        timings_path=path, out=io.StringIO(),
                        err=io.StringIO())
        by = {e["experiment"]: e for e in load_timings(path)["experiments"]}
        assert by["selftest-fail"]["ok"] is False
        assert by["selftest-fail"]["table"] is None
        assert ResultTable.from_dict(by["table4"]["table"]).render() == \
            REGISTRY["table4"].build().render()

    def test_job_machines_can_be_garbage_collected(self):
        """The capture sink keeps each machine's clock, not the machine:
        a finished machine is freed and its time still counts."""
        clocks = []
        machine_mod.capture_machines(clocks)
        try:
            m = Machine(capacity_bytes=1 << 30, memory_bytes=256 << 20)
            thread = m.spawn_process().new_thread()
            m.run_process(thread.sleep(5_000))
            assert [clock.now for clock in clocks] == [m.now]
            ref = weakref.ref(m)
            del m, thread
            gc.collect()
        finally:
            machine_mod.capture_machines(None)
        assert ref() is None
        assert [clock.now for clock in clocks] == [5_000]

    def test_load_timings_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "experiments": []}))
        with pytest.raises(ValueError):
            load_timings(path)


class TestCLIExitCodes:
    def test_failing_experiment_exits_nonzero(self):
        # The historical bug: a render-time exception still exited 0.
        proc = bench_cli("selftest-fail", "table2")
        assert proc.returncode == 1
        assert "selftest-fail: render exploded" in proc.stderr
        assert "1 experiment(s) failed: selftest-fail" in proc.stderr
        # The healthy target still ran and printed its table.
        assert "Table 2" in proc.stdout

    def test_bad_faults_spec_exits_2(self):
        proc = bench_cli("--faults", "definitely-not-a-spec", "table2")
        assert proc.returncode == 2
        assert "bad --faults spec" in proc.stderr

    def test_unknown_experiment_exits_2(self):
        proc = bench_cli("no-such-figure")
        assert proc.returncode == 2
        assert "unknown experiment(s): no-such-figure" in proc.stderr

    def test_bad_jobs_exits_2(self):
        proc = bench_cli("--jobs", "0", "table2")
        assert proc.returncode == 2

    def test_list_names_public_registry(self):
        proc = bench_cli("list")
        assert proc.returncode == 0
        assert proc.stdout.split() == registry_names()

    def test_cache_flag_populates_cache_dir(self, tmp_path):
        proc = bench_cli("--cache", str(tmp_path / "c"), "table2")
        assert proc.returncode == 0
        assert len(ResultCache(tmp_path / "c").entries()) == 1


class TestRegistry:
    def test_all_public_builders_are_callable(self):
        for name in registry_names():
            assert callable(REGISTRY[name].build)
