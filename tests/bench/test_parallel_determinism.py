"""Parallel vs serial determinism of the experiment runner.

The runner's core promise: ``--jobs 4`` produces byte-identical merged
output to ``--jobs 1``, for every start method, with or without fault
injection and telemetry.  These tests pin that promise on a cheap
5-experiment subset (~0.5 s simulated serially).
"""

import io
import multiprocessing

import pytest

from repro.bench.runner import run_experiments

SUBSET = ["table1", "table2", "table4", "fig5", "fig12"]

START_METHODS = [m for m in ("fork", "spawn")
                 if m in multiprocessing.get_all_start_methods()]


def run(names, **kw):
    out, err = io.StringIO(), io.StringIO()
    report = run_experiments(names, out=out, err=err, **kw)
    assert report.ok, err.getvalue()
    return out.getvalue(), report


@pytest.fixture(scope="module")
def serial():
    return run(SUBSET, jobs=1)


@pytest.fixture(scope="module")
def parallel():
    """One ``jobs=4`` run of ``SUBSET`` per start method, shared by
    every test here that compares it with the serial run."""
    runs = {}

    def get(start_method):
        if start_method not in runs:
            runs[start_method] = run(SUBSET, jobs=4,
                                     start_method=start_method)
        return runs[start_method]

    return get


@pytest.mark.parametrize("start_method", START_METHODS)
def test_parallel_output_byte_identical(serial, parallel, start_method):
    serial_out, serial_report = serial
    par_out, par_report = parallel(start_method)
    assert par_out == serial_out
    assert par_report.merged_counters() == serial_report.merged_counters()
    # Workers really built machines (the experiments simulate).
    sim_ns = [t.sim_time_ns for t in par_report.timings()]
    assert any(ns > 0 for ns in sim_ns)


def test_parallel_stats_identical_to_serial(serial, parallel):
    _, serial_report = serial
    _, par_report = parallel("fork")
    for s, p in zip(serial_report.results, par_report.results):
        assert s.experiment == p.experiment
        assert s.payload["table"] == p.payload["table"]
        assert s.payload["fingerprint"] == p.payload["fingerprint"]
        # Simulated time is part of the determinism contract; wall
        # time is not.
        assert (s.payload["timing"]["sim_time_ns"]
                == p.payload["timing"]["sim_time_ns"])
        assert (s.payload["timing"]["machines"]
                == p.payload["timing"]["machines"])


FAULTS_SUBSET = ["table4", "fig12"]
FAULTS_KW = dict(faults="seed=9,media_error_rate=0.001", monitor=True)


@pytest.fixture(scope="module")
def faults_serial():
    return run(FAULTS_SUBSET, jobs=1, **FAULTS_KW)


@pytest.mark.parametrize("start_method", START_METHODS)
def test_faults_and_monitor_parity(faults_serial, start_method):
    serial_out, serial_report = faults_serial
    par_out, par_report = run(FAULTS_SUBSET, jobs=2,
                              start_method=start_method, **FAULTS_KW)
    assert par_out == serial_out
    assert (par_report.merged_fault_summary()
            == serial_report.merged_fault_summary())
    assert "telemetry [table4]" in par_out


def test_request_order_preserved_not_registry_order(serial):
    reordered = list(reversed(SUBSET))
    out, report = run(reordered, jobs=4, start_method="fork")
    assert [r.experiment for r in report.results] == reordered
    # Without faults the merged stream is each experiment's output in
    # request order, so the serial run of ``SUBSET`` holds every piece.
    serial_out, serial_report = serial
    outputs = {r.experiment: r.payload["output"]
               for r in serial_report.results}
    assert "".join(outputs[name] for name in SUBSET) == serial_out
    serial_out = "".join(outputs[name] for name in reordered)
    assert out == serial_out
