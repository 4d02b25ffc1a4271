"""Unit tests for the benchmark harness plumbing."""

import pytest

from repro.bench.report import ResultTable


class TestResultTable:
    def test_add_and_columns(self):
        t = ResultTable("T", ["a", "b"])
        t.add(1, 2.5)
        t.add(3, 4.0)
        assert t.column("a") == [1, 3]
        assert t.column("b") == [2.5, 4.0]

    def test_row_arity_checked(self):
        t = ResultTable("T", ["a", "b"])
        with pytest.raises(ValueError):
            t.add(1)

    def test_by(self):
        t = ResultTable("T", ["key", "val"])
        t.add("x", 10)
        t.add("y", 20)
        assert t.by("key")["y"] == ("y", 20)

    def test_render_contains_everything(self):
        t = ResultTable("My Title", ["engine", "lat"],
                        notes="a note")
        t.add("sync", 7.84)
        out = t.render()
        assert "My Title" in out
        assert "engine" in out
        assert "sync" in out
        assert "7.84" in out
        assert "a note" in out

    def test_number_formatting(self):
        t = ResultTable("T", ["v"])
        t.add(0.00123)
        t.add(12.3456)
        t.add(123456.0)
        t.add(37759)
        t.add(999)
        t.add(-1234)
        t.add(True)
        out = t.render()
        assert "0.001" in out
        assert "12.35" in out
        assert "123,456" in out
        assert "37,759" in out          # ints group like floats
        assert " 999" in out and "-1,234" in out
        assert "True" in out

    def test_counters_footer(self):
        t = ResultTable("T", ["v"])
        t.add(1)
        assert "counters:" not in t.render()
        t.attach_counters({"translation_faults": 3, "crashes": 0})
        out = t.render()
        assert "counters: translation_faults=3" in out
        assert "crashes" not in out        # zeros filtered by default

    def test_counters_accumulate_across_machines(self):
        t = ResultTable("T", ["v"])
        t.attach_counters({"driver_retries": 2})
        t.attach_counters({"driver_retries": 5, "crashes": 1})
        assert t.counters == {"driver_retries": 7, "crashes": 1}

    def test_counters_keep_zero_when_asked(self):
        t = ResultTable("T", ["v"])
        t.attach_counters({"crashes": 0}, nonzero_only=False)
        assert "crashes=0" in t.render()


class TestCLI:
    def test_list(self, capsys):
        from repro.bench.__main__ import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig16" in out

    def test_unknown_target(self, capsys):
        from repro.bench.__main__ import main
        assert main(["not-an-experiment"]) == 2

    def test_run_one(self, capsys):
        from repro.bench.__main__ import main
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "1317" in out

    def test_faults_flag_prints_summary(self, capsys):
        from repro.bench.__main__ import main
        from repro.faults import default_injector
        assert main(["--faults", "seed=9,media_error_rate=0.0001",
                     "table4"]) == 0
        out = capsys.readouterr().out
        assert "Fault injection summary" in out
        assert "seed=9" in out
        assert "media_read_error" in out
        # The ambient injector was cleared after the run.
        assert default_injector() is None

    def test_bad_faults_spec_is_a_usage_error(self, capsys):
        from repro.bench.__main__ import main
        assert main(["--faults", "bogus_rate=1", "table4"]) == 2
        assert "bad --faults spec" in capsys.readouterr().err

    def test_monitor_flag_appends_telemetry_section(self, capsys):
        from repro.bench.__main__ import main
        from repro.obs.monitor import default_monitor
        assert main(["--monitor", "table1"]) == 0
        out = capsys.readouterr().out
        assert "telemetry [table1]:" in out
        assert "samples @ 9973 ns" in out
        assert "SLO breaches across machines:" in out
        # The ambient monitor config was cleared after the run.
        assert default_monitor() is None


class TestStartGate:
    def test_gate_releases_after_all_arrive(self):
        from repro import Machine
        from repro.apps.workload_utils import StartGate
        from repro.sim.stats import ThroughputCounter

        m = Machine(capacity_bytes=1 << 30, memory_bytes=256 << 20)
        counter = ThroughputCounter()
        gate = StartGate(m, expected=2, counters=[counter])
        order = []

        def worker(name, setup_ns):
            proc = m.spawn_process(name)
            t = proc.new_thread()

            def body():
                yield from t.compute(setup_ns)
                yield from gate.arrive(t)
                order.append((name, m.now))
                t.release_core()

            return body()

        m.sim.process(worker("fast", 10))
        m.sim.process(worker("slow", 5000))
        m.run()
        # Both released at the same instant, when the slow one arrived.
        assert order[0][1] == order[1][1] == 5000
        assert counter.start_ns == 5000
