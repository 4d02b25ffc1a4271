"""The scenario executor: determinism, crash/recover, worker payloads."""

import pytest

from repro.chaos import generate, run_scenario, scenario_seed
from repro.chaos.executor import run_payload


def test_same_scenario_twice_is_byte_identical():
    s = generate(scenario_seed(42, 3))
    r1, r2 = run_scenario(s), run_scenario(s)
    assert r1.fingerprint() == r2.fingerprint()
    assert r1.to_dict() == r2.to_dict()


def test_generated_batch_runs_clean():
    # No canary, no model bugs: every oracle must stay silent, on
    # clean runs and crash/recover runs alike.
    crashes = 0
    for i in range(15):
        s = generate(scenario_seed(42, i))
        result = run_scenario(s)
        assert result.ok, (i, [v.to_dict() for v in result.violations])
        crashes += result.crashed
    assert crashes > 0, "batch never crashed: crash coverage lost"


def test_crash_scenario_recovers_and_reports_it():
    s = next(generate(scenario_seed(42, i)) for i in range(50)
             if generate(scenario_seed(42, i)).crash_at_ns is not None
             and generate(scenario_seed(42, i)).recover)
    result = run_scenario(s)
    assert result.crashed and result.recovered
    assert result.end_ns == s.crash_at_ns
    assert result.ok


def test_result_dict_shape():
    s = generate(scenario_seed(7, 0))
    d = run_scenario(s).to_dict()
    assert d["scenario"] == s.to_dict()
    assert set(d) >= {"scenario", "end_ns", "crashed", "recovered",
                      "violations", "stats", "tenants"}
    assert len(d["tenants"]) == len(s.tenants)
    for ledger in d["tenants"]:
        assert ledger["finished"] or ledger["aborted"] or d["crashed"]


def test_run_payload_matches_in_process_run():
    s = generate(scenario_seed(42, 3))
    d = run_payload((s.to_json(), ()))
    assert d["fingerprint"] == run_scenario(s).fingerprint()
    assert d["violations"] == []


def test_unknown_canary_rejected():
    s = generate(scenario_seed(7, 0))
    with pytest.raises(ValueError, match="unknown canary"):
        run_scenario(s, canaries=("no-such-canary",))


def test_figures_configuration_replays_the_chaos_run():
    # The figures run with no sanitizer, no monitor and no probe: on the
    # fast drain loop with event pooling on.  Chaos runs only with all
    # three attached, so replay scenarios 0-15 of base seed 0 on the
    # figures' configuration and require the same outcome.
    from repro.chaos.executor import (
        CAPACITY_BYTES,
        MEMORY_BYTES,
        _chaos_machine,
        _drive,
    )
    from repro.machine import Machine

    def outcome(machine, ledgers, crashed):
        stats = machine.stats().summary()
        del stats["slo_breaches"]
        return (machine.now, crashed,
                [vars(ledger) for ledger in ledgers], stats,
                dict(machine.device.backend._blocks))

    crashes = 0
    for i in range(16):
        s = generate(scenario_seed(0, i))
        chaos, _samples = _chaos_machine(s)
        chaos_outcome = outcome(chaos, *_drive(chaos, s))
        fast = Machine(capacity_bytes=CAPACITY_BYTES,
                       memory_bytes=MEMORY_BYTES, capture_data=True,
                       faults=s.plan())
        assert fast.monitor is None
        assert not fast.sim._instrumented and fast.sim._pooling
        fast_outcome = outcome(fast, *_drive(fast, s))
        assert fast_outcome == chaos_outcome, i
        crashes += chaos_outcome[1]
    assert crashes > 0, "no scenario crashed: crash replay not covered"
