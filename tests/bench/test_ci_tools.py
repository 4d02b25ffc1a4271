"""Tests for the CI gate and summary tools in scripts/."""

import copy
import importlib
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SCRIPTS = REPO_ROOT / "scripts"
sys.path.insert(0, str(SCRIPTS))

ci_summary = importlib.import_module("ci_summary")
generate_experiments = importlib.import_module("generate_experiments")
perf_gate = importlib.import_module("perf_gate")


def timings_file(tmp_path, entries):
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "bench-timings.json"
    path.write_text(json.dumps({
        "schema": 1, "tree": "t", "jobs": 1, "start_method": "",
        "total_wall_s": sum(e.get("wall_s", 0.0) for e in entries),
        "experiments": entries,
    }))
    return path


class TestSummary:
    JUNIT = ('<testsuites><testsuite tests="3" failures="1" errors="0" '
             'skipped="0" time="4.5">'
             '<testcase classname="b.t" name="ok" time="1.0"/>'
             '<testcase classname="b.t" name="slow" time="3.0"/>'
             '<testcase classname="b.t" name="bad" time="0.5">'
             '<failure message="boom"/></testcase>'
             '</testsuite></testsuites>')

    def test_parse_junit_totals(self, tmp_path):
        path = tmp_path / "bench-shard0.xml"
        path.write_text(self.JUNIT)
        parsed = ci_summary.parse_junit(path)
        assert parsed["label"] == "bench-shard0"
        assert parsed["totals"]["tests"] == 3
        assert parsed["totals"]["failures"] == 1
        assert sum(c["failed"] for c in parsed["cases"]) == 1

    def test_markdown_summary_merges_shards(self, tmp_path, capsys):
        ok = ('<testsuite tests="2" failures="0" errors="0" '
              'skipped="0" time="1.0">'
              '<testcase classname="u" name="a" time="0.5"/>'
              '<testcase classname="u" name="b" time="0.5"/>'
              '</testsuite>')
        (tmp_path / "unit.xml").write_text(ok)
        (tmp_path / "bench-shard0.xml").write_text(self.JUNIT)
        timings = timings_file(tmp_path, [
            {"experiment": "fig13", "wall_s": 58.0, "sim_time_ns": 5,
             "machines": 40, "cached": False, "ok": True},
            {"experiment": "table2", "wall_s": 0.01, "sim_time_ns": 0,
             "machines": 0, "cached": False, "ok": True},
        ])
        rc = ci_summary.main([str(tmp_path / "unit.xml"),
                              str(tmp_path / "bench-shard0.xml"),
                              "--timings", str(timings)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "| unit | 2 | 0 |" in out
        assert "❌ fail" in out and "✅ pass" in out
        assert "Slowest 10 experiments" in out
        # fig13 tops the slowest table
        assert out.index("fig13") < out.index("table2")

    def test_summary_without_timings_uses_junit_durations(
            self, tmp_path, capsys):
        (tmp_path / "bench-shard0.xml").write_text(self.JUNIT)
        rc = ci_summary.main([str(tmp_path / "bench-shard0.xml")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "`b.t::slow`" in out

    def test_missing_junit_files_warn_not_crash(self, tmp_path, capsys):
        rc = ci_summary.main([str(tmp_path / "nope.xml")])
        assert rc == 0
        captured = capsys.readouterr()
        assert "_no junit results found_" in captured.out
        assert "missing junit file" in captured.err

    def test_lint_section_reports_counts(self, tmp_path, capsys):
        import json
        (tmp_path / "bench-shard0.xml").write_text(self.JUNIT)
        report = tmp_path / "lint-report.json"
        report.write_text(json.dumps({
            "files_checked": 195, "baselined": 10,
            "violations": [
                {"rule": "SIM001", "path": "x.py", "line": 3},
                {"rule": "SIM016", "path": "y.py", "line": 7},
                {"rule": "SIM016", "path": "z.py", "line": 9},
            ]}))
        rc = ci_summary.main([str(tmp_path / "bench-shard0.xml"),
                              "--lint", str(report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "### simlint" in out
        assert "files checked: 195" in out
        assert "new violations: 3" in out
        assert "burn-down backlog): 10" in out
        assert "| SIM016 | 2 |" in out

    def test_sweep_section_renders_heat_table_and_blame(
            self, tmp_path, capsys):
        from repro.sweep import compare as cmp_mod
        rec = {"metrics": {"p99_ns": 9000.0}, "tenants": []}
        bad = {"metrics": {"p99_ns": 90000.0}, "tenants": []}
        report = cmp_mod.compare_results(
            {"grid": "default",
             "cells": {"engine=bypassd/wl=rr/faults=none": rec,
                       "engine=sync/wl=rr/faults=none": rec}},
            {"grid": "default",
             "cells": {"engine=bypassd/wl=rr/faults=none": bad,
                       "engine=sync/wl=rr/faults=none": rec}})
        (tmp_path / "bench-shard0.xml").write_text(self.JUNIT)
        path = tmp_path / "sweep-report.json"
        path.write_text(json.dumps(report))
        rc = ci_summary.main([str(tmp_path / "bench-shard0.xml"),
                              "--sweep", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "### Sweep grid `default`" in out
        assert "| workload / faults | bypassd | sync |" in out
        assert "**REGRESSED (p99_ns" in out
        assert "per-layer blame" in out

    def test_sweep_section_tolerates_broken_report(self, tmp_path,
                                                   capsys):
        (tmp_path / "bench-shard0.xml").write_text(self.JUNIT)
        path = tmp_path / "sweep-report.json"
        path.write_text("{not json")
        rc = ci_summary.main([str(tmp_path / "bench-shard0.xml"),
                              "--sweep", str(path)])
        assert rc == 0
        assert "could not read sweep report" in capsys.readouterr().out

    def test_lint_section_tolerates_broken_report(self, tmp_path, capsys):
        (tmp_path / "bench-shard0.xml").write_text(self.JUNIT)
        report = tmp_path / "lint-report.json"
        report.write_text("{not json")
        rc = ci_summary.main([str(tmp_path / "bench-shard0.xml"),
                              "--lint", str(report)])
        assert rc == 0
        assert "could not read lint report" in capsys.readouterr().out


class TestEngineBenchSection:
    ARTIFACT = {"schema": "engine-bench/v1", "benchmarks": [
        {"name": "pure-timeout", "ops": 200_000,
         "new_ops_per_sec": 700_000.0, "ref_ops_per_sec": 650_000.0,
         "speedup": 1.08},
        {"name": "event-churn", "ops": 200_000,
         "new_ops_per_sec": 1_400_000.0, "ref_ops_per_sec": 700_000.0,
         "speedup": 2.0},
    ]}

    def test_engine_bench_section_renders(self, tmp_path, capsys):
        (tmp_path / "bench-shard0.xml").write_text(TestSummary.JUNIT)
        artifact = tmp_path / "engine-bench.json"
        artifact.write_text(json.dumps(self.ARTIFACT))
        rc = ci_summary.main([str(tmp_path / "bench-shard0.xml"),
                              "--engine-bench", str(artifact)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "### Engine hot-path ops/sec" in out
        assert "| event-churn | 200,000 | 1,400,000 | 700,000 | 2.00x |" \
            in out

    def test_engine_bench_section_tolerates_broken_artifact(
            self, tmp_path, capsys):
        (tmp_path / "bench-shard0.xml").write_text(TestSummary.JUNIT)
        artifact = tmp_path / "engine-bench.json"
        artifact.write_text("{not json")
        rc = ci_summary.main([str(tmp_path / "bench-shard0.xml"),
                              "--engine-bench", str(artifact)])
        assert rc == 0
        assert "could not read engine bench" in capsys.readouterr().out


class TestPerfGate:
    TABLE = {"title": "Figure 6", "notes": "", "counters": {},
             "headers": ["Engine", "Block (KB)", "Mean latency (us)"],
             "rows": [["bypassd", 4, 5.81], ["sync", 4, 9.02]]}

    def entry(self, name, wall_s, ok=True):
        return {"experiment": name, "wall_s": wall_s, "sim_time_ns": 1,
                "machines": 1, "cached": False, "ok": ok,
                "table": copy.deepcopy(self.TABLE)}

    def test_within_band_passes(self, tmp_path, capsys):
        base = timings_file(tmp_path / "b", [self.entry("fig13", 10.0)])
        fresh = timings_file(tmp_path / "f", [self.entry("fig13", 12.0)])
        rc = perf_gate.main([str(fresh), "--baseline", str(base)])
        assert rc == 0
        assert "0 regressed" in capsys.readouterr().out

    def test_regression_fails(self, tmp_path, capsys):
        base = timings_file(tmp_path / "b", [self.entry("fig13", 10.0)])
        fresh = timings_file(tmp_path / "f", [self.entry("fig13", 30.0)])
        rc = perf_gate.main([str(fresh), "--baseline", str(base),
                             "--tolerance", "1.0"])
        assert rc == 1
        assert "FAIL: fig13" in capsys.readouterr().out

    def test_floor_absorbs_tiny_experiment_jitter(self, tmp_path):
        # 1 ms -> 100 ms is a 100x ratio but far under the floor
        base = timings_file(tmp_path / "b", [self.entry("table4", 0.001)])
        fresh = timings_file(tmp_path / "f", [self.entry("table4", 0.1)])
        assert perf_gate.main([str(fresh), "--baseline", str(base)]) == 0

    def test_failed_experiment_fails_gate(self, tmp_path):
        base = timings_file(tmp_path / "b", [self.entry("fig13", 10.0)])
        fresh = timings_file(
            tmp_path / "f", [self.entry("fig13", 1.0, ok=False)])
        assert perf_gate.main([str(fresh),
                               "--baseline", str(base)]) == 1

    def test_missing_experiment_fails_gate(self, tmp_path, capsys):
        base = timings_file(tmp_path / "b", [self.entry("fig13", 10.0),
                                             self.entry("fig14", 5.0)])
        fresh = timings_file(tmp_path / "f", [self.entry("fig13", 10.0)])
        rc = perf_gate.main([str(fresh), "--baseline", str(base)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "missing" in out
        assert "FAIL: fig14" in out.splitlines()

    def test_improvement_is_reported_not_failed(self, tmp_path, capsys):
        base = timings_file(tmp_path / "b", [self.entry("fig13", 10.0)])
        fresh = timings_file(tmp_path / "f", [self.entry("fig13", 2.0)])
        rc = perf_gate.main([str(fresh), "--baseline", str(base)])
        assert rc == 0
        assert "1 improved" in capsys.readouterr().out

    def test_markdown_table(self, tmp_path, capsys):
        base = timings_file(tmp_path / "b", [self.entry("fig13", 10.0)])
        fresh = timings_file(tmp_path / "f", [self.entry("fig13", 11.0)])
        rc = perf_gate.main([str(fresh), "--baseline", str(base),
                             "--markdown"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "### perf gate" in out
        assert "| fig13 | 10.00 | 11.00 | 1.10 |" in out

    def test_gate_passes_against_itself(self):
        """The committed baseline must pass its own gate (sanity: the
        schema parses and every experiment is within its band)."""
        path = REPO_ROOT / "bench-timings.json"
        if not path.exists():
            pytest.skip("bench-timings.json not generated yet")
        assert perf_gate.main([str(path),
                               "--baseline", str(path)]) == 0

    # -- exact compare of the deterministic fields ---------------------

    def gate(self, tmp_path, capsys, fresh_entry, name="fig6", flags=()):
        """Run the gate on one baseline entry and its edited twin;
        returns (exit status, stdout)."""
        base = timings_file(tmp_path / "b", [self.entry(name, 1.0)])
        fresh = timings_file(tmp_path / "f", [fresh_entry])
        rc = perf_gate.main([str(fresh), "--baseline", str(base), *flags])
        return rc, capsys.readouterr().out

    def test_changed_cell_names_experiment_row_column_and_values(
            self, tmp_path, capsys):
        fresh = self.entry("fig6", 1.0)
        fresh["table"]["rows"][1][2] = 9.03
        rc, out = self.gate(tmp_path, capsys, fresh)
        assert rc == 1
        assert ('fig6: row 1 ("sync"), column "Mean latency (us)": '
                '9.02 -> 9.03') in out
        assert "FAIL: fig6" in out.splitlines()
        assert "1 moved" in out

    def test_markdown_lists_each_moved_field(self, tmp_path, capsys):
        fresh = self.entry("fig6", 1.0)
        fresh["table"]["rows"][1][2] = 9.03
        fresh["sim_time_ns"] = 2
        rc, out = self.gate(tmp_path, capsys, fresh, flags=["--markdown"])
        assert rc == 1
        lines = out.splitlines()
        i = lines.index("moved:")
        # A blank line, then one list item per field: GitHub would
        # join plain lines into one paragraph.
        assert lines[i + 1:i + 4] == [
            "",
            "- fig6: sim_time_ns: 1 -> 2",
            '- fig6: row 1 ("sync"), column "Mean latency (us)": '
            '9.02 -> 9.03']

    def test_changed_header_fails(self, tmp_path, capsys):
        fresh = self.entry("fig6", 1.0)
        fresh["table"]["headers"][2] = "Latency (us)"
        rc, out = self.gate(tmp_path, capsys, fresh)
        assert rc == 1
        assert 'fig6: headers: ' in out and '"Latency (us)"]' in out

    def test_changed_title_fails(self, tmp_path, capsys):
        fresh = self.entry("fig6", 1.0)
        fresh["table"]["title"] = "Figure 6 (reads)"
        rc, out = self.gate(tmp_path, capsys, fresh)
        assert rc == 1
        assert 'fig6: title: "Figure 6" -> "Figure 6 (reads)"' in out

    def test_changed_sim_time_fails(self, tmp_path, capsys):
        fresh = self.entry("fig6", 1.0)
        fresh["sim_time_ns"] = 2
        rc, out = self.gate(tmp_path, capsys, fresh)
        assert rc == 1
        assert "fig6: sim_time_ns: 1 -> 2" in out

    def test_ok_experiment_without_table_fails(self, tmp_path, capsys):
        fresh = self.entry("fig6", 1.0)
        fresh["table"] = None
        rc, out = self.gate(tmp_path, capsys, fresh)
        assert rc == 1
        assert "fig6: no table in the fresh run" in out

    def test_table2_rows_are_not_pinned(self, tmp_path, capsys):
        fresh = self.entry("table2", 1.0)
        fresh["table"]["rows"][0][1] = 5
        rc, out = self.gate(tmp_path, capsys, fresh, name="table2")
        assert rc == 0
        assert "0 moved" in out

    def test_failure_names_both_interpreter_minors(self, tmp_path, capsys):
        fresh = self.entry("fig6", 1.0)
        fresh["sim_time_ns"] = 2
        base = timings_file(tmp_path / "b", [self.entry("fig6", 1.0)])
        path = timings_file(tmp_path / "f", [fresh])
        for p, minor in ((base, "3.11"), (path, "3.12")):
            data = json.loads(p.read_text())
            data["python"] = minor
            p.write_text(json.dumps(data))
        assert perf_gate.main([str(path), "--baseline", str(base)]) == 1
        assert ("baseline written by Python 3.11, fresh run by "
                "Python 3.12") in capsys.readouterr().out


class TestCommittedRecord:
    def record(self):
        from repro.obs.timings import load_timings
        return {e["experiment"]: e for e in
                load_timings(REPO_ROOT / "bench-timings.json")
                ["experiments"]}

    def test_record_holds_every_registry_experiment_with_rows(self):
        from repro.bench.runner import registry_names
        record = self.record()
        for name in registry_names():
            assert record[name]["ok"], name
            assert record[name]["table"]["rows"], name

    def test_benchmarks_read_only_recorded_experiments(self):
        """Every ``experiment("name")`` in benchmarks/ names an
        experiment whose table the committed record holds."""
        import ast
        record = self.record()
        read = []
        for path in sorted((REPO_ROOT / "benchmarks").glob("test_*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "experiment"
                        and node.args
                        and isinstance(node.args[0], ast.Constant)):
                    name = node.args[0].value
                    assert (record.get(name) or {}).get("table"), \
                        f"{path.name} reads {name!r}"
                    read.append(name)
        assert "fig6-write" in read

    def test_experiments_md_renders_from_committed_record(self):
        """EXPERIMENTS.md is exactly what the committed record renders
        to (``python scripts/generate_experiments.py`` refreshes it)."""
        from repro.obs.timings import load_timings
        record = load_timings(REPO_ROOT / "bench-timings.json")
        assert generate_experiments.render(record) == \
            (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
