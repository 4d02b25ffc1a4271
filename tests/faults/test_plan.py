"""FaultPlan/FaultRule/FaultInjector unit behaviour: builders, the CLI
grammar, trigger evaluation and determinism."""

import pytest

from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultRule


# -- rule validation --------------------------------------------------------

def test_rule_rejects_bad_probability():
    with pytest.raises(ValueError):
        FaultRule(FaultKind.MEDIA_READ_ERROR, probability=1.5)


def test_rule_rejects_zero_based_nth():
    with pytest.raises(ValueError):
        FaultRule(FaultKind.MEDIA_READ_ERROR, nth=0)


def test_rule_that_can_never_fire_is_rejected():
    with pytest.raises(ValueError):
        FaultRule(FaultKind.MEDIA_READ_ERROR)


def test_power_failure_needs_at_ns():
    with pytest.raises(ValueError):
        FaultRule(FaultKind.POWER_FAILURE)


def test_empty_ranges_rejected():
    with pytest.raises(ValueError):
        FaultRule(FaultKind.MEDIA_READ_ERROR, nth=1, lba_range=(10, 10))
    with pytest.raises(ValueError):
        FaultRule(FaultKind.MEDIA_READ_ERROR, nth=1, window=(500, 100))


def test_max_fires_defaults():
    assert FaultRule(FaultKind.MEDIA_READ_ERROR, nth=3).max_fires == 1
    assert FaultRule(FaultKind.MEDIA_READ_ERROR, nth=3,
                     count=5).max_fires == 5
    assert FaultRule(FaultKind.MEDIA_READ_ERROR,
                     probability=0.5).max_fires is None


# -- builder ---------------------------------------------------------------

def test_builder_chains_and_plan_queries():
    plan = (FaultPlan(seed=42)
            .media_read_errors(nth=2)
            .latency_spikes(rate=0.5, extra_ns=1000)
            .dropped_completions(rate=0.1)
            .crash_at(9_000))
    assert not plan.empty
    assert plan.may_drop
    assert plan.crash_at_ns == 9_000
    kinds = [r.kind for r in plan.rules]
    assert kinds == [FaultKind.MEDIA_READ_ERROR, FaultKind.LATENCY_SPIKE,
                     FaultKind.DROP_COMPLETION, FaultKind.POWER_FAILURE]


def test_empty_plan_properties():
    plan = FaultPlan()
    assert plan.empty
    assert not plan.may_drop
    assert plan.crash_at_ns is None


# -- adoption freezes the plan --------------------------------------------

BUILDERS = [
    ("add", lambda p: p.add(FaultRule(FaultKind.MEDIA_READ_ERROR, nth=1))),
    ("media_read_errors", lambda p: p.media_read_errors(nth=1)),
    ("media_write_errors", lambda p: p.media_write_errors(rate=0.5)),
    ("latency_spikes", lambda p: p.latency_spikes(nth=2, extra_ns=10)),
    ("dropped_completions", lambda p: p.dropped_completions(nth=1)),
    ("translation_faults", lambda p: p.translation_faults(nth=1)),
    ("crash_at", lambda p: p.crash_at(1_000)),
]


@pytest.mark.parametrize("build", [b for _, b in BUILDERS],
                         ids=[name for name, _ in BUILDERS])
@pytest.mark.parametrize("empty", [True, False], ids=["empty", "one-rule"])
def test_every_builder_refuses_an_adopted_plan(build, empty):
    plan = FaultPlan(seed=3)
    if not empty:
        plan.latency_spikes(nth=5)
    before = list(plan.rules)
    inj = FaultInjector(plan)
    with pytest.raises(RuntimeError, match="mutated after the injector "
                                           "adopted it"):
        build(plan)
    assert plan.frozen and isinstance(plan.rules, tuple)
    assert list(plan.rules) == before
    assert (inj.active, inj.may_drop) == (not empty, False)


def test_a_plan_builds_freely_until_adopted():
    plan = FaultPlan()
    for _name, build in BUILDERS:
        build(plan)
    assert not plan.frozen and len(plan.rules) == len(BUILDERS)
    FaultInjector(plan)
    FaultInjector(plan)     # adopting twice is harmless
    assert len(plan.rules) == len(BUILDERS)


@pytest.mark.parametrize("plan,active,may_drop", [
    (FaultPlan(), False, False),
    (FaultPlan().latency_spikes(nth=1), True, False),
    (FaultPlan().media_read_errors(nth=1).dropped_completions(rate=0.5),
     True, True),
], ids=["empty", "spikes", "drops"])
def test_injector_classifies_the_plan_at_adoption(plan, active, may_drop):
    inj = FaultInjector(plan)
    assert (inj.active, inj.may_drop) == (active, may_drop)
    assert (inj.active, inj.may_drop) == (not plan.empty, plan.may_drop)
    with pytest.raises(RuntimeError):
        plan.dropped_completions(nth=1)
    assert (inj.active, inj.may_drop) == (active, may_drop)


# -- CLI grammar ------------------------------------------------------------

def test_parse_full_spec():
    plan = FaultPlan.parse(
        "seed=7, media_error_rate=0.001, drop_nth=5, drop_count=2,"
        "latency_spike_rate=0.01, latency_spike_ns=500000,"
        "translation_fault_nth=3, crash_at_ns=1e6")
    assert plan.seed == 7
    assert plan.crash_at_ns == 1_000_000
    by_kind = {}
    for rule in plan.rules:
        by_kind.setdefault(rule.kind, []).append(rule)
    # media_error expands to both the read and the write kind
    assert by_kind[FaultKind.MEDIA_READ_ERROR][0].probability == 0.001
    assert by_kind[FaultKind.MEDIA_WRITE_ERROR][0].probability == 0.001
    assert by_kind[FaultKind.DROP_COMPLETION][0].nth == 5
    assert by_kind[FaultKind.DROP_COMPLETION][0].count == 2
    assert by_kind[FaultKind.LATENCY_SPIKE][0].extra_ns == 500_000
    assert by_kind[FaultKind.TRANSLATION_FAULT][0].nth == 3


def test_parse_unknown_key_raises():
    with pytest.raises(ValueError, match="unknown"):
        FaultPlan.parse("seed=1,bogus_rate=0.5")


def test_parse_count_without_trigger_raises():
    with pytest.raises(ValueError, match="drop_count"):
        FaultPlan.parse("drop_count=3")


def test_parse_missing_equals_raises():
    with pytest.raises(ValueError, match="key=value"):
        FaultPlan.parse("seed")


def test_parse_empty_spec_is_inactive():
    assert FaultPlan.parse("").empty
    assert FaultPlan.parse("seed=3").empty


# -- injector trigger evaluation -------------------------------------------

def verdicts(inj, n, is_write=False, segments=None, t0=0, dt=1):
    out = []
    for i in range(n):
        out.append(inj.media_verdict(is_write,
                                     segments or [(0, 8)], t0 + i * dt))
    return out


def test_nth_trigger_fires_exactly_once():
    inj = FaultInjector(FaultPlan().media_read_errors(nth=3))
    results = verdicts(inj, 6)
    assert [term for _, term in results] == [
        None, None, FaultKind.MEDIA_READ_ERROR, None, None, None]
    assert inj.counts["media_read_error"] == 1


def test_nth_with_count_fires_consecutively():
    inj = FaultInjector(FaultPlan().media_read_errors(nth=2, count=3))
    results = verdicts(inj, 6)
    assert [term is not None for _, term in results] == [
        False, True, True, True, False, False]


def test_probability_is_deterministic_per_seed():
    def run(seed):
        inj = FaultInjector(FaultPlan(seed=seed).media_read_errors(rate=0.3))
        return [term for _, term in verdicts(inj, 50)]

    assert run(1) == run(1)
    assert run(1) != run(2)  # astronomically unlikely to collide


def test_window_filter():
    inj = FaultInjector(
        FaultPlan().media_read_errors(nth=1, count=100,
                                      window=(100, 200)))
    assert inj.media_verdict(False, [(0, 8)], 50)[1] is None
    assert inj.media_verdict(False, [(0, 8)], 150)[1] is not None
    assert inj.media_verdict(False, [(0, 8)], 200)[1] is None


def test_lba_range_filter():
    inj = FaultInjector(
        FaultPlan().media_read_errors(nth=1, count=100,
                                      lba=(100, 200)))
    assert inj.media_verdict(False, [(0, 8)], 0)[1] is None
    # overlapping segment triggers
    assert inj.media_verdict(False, [(96, 8)], 0)[1] is not None
    # adjacent-but-not-overlapping does not
    assert inj.media_verdict(False, [(200, 8)], 0)[1] is None


def test_write_rule_ignores_reads():
    inj = FaultInjector(FaultPlan().media_write_errors(nth=1))
    assert inj.media_verdict(False, [(0, 8)], 0)[1] is None
    spike, term = inj.media_verdict(True, [(0, 8)], 0)
    assert term is FaultKind.MEDIA_WRITE_ERROR


def test_latency_spikes_accumulate_and_do_not_terminate():
    plan = (FaultPlan()
            .latency_spikes(nth=1, count=10, extra_ns=100)
            .latency_spikes(nth=1, count=10, extra_ns=40))
    inj = FaultInjector(plan)
    spike, term = inj.media_verdict(False, [(0, 8)], 0)
    assert spike == 140
    assert term is None


def test_first_terminal_rule_wins():
    plan = (FaultPlan()
            .dropped_completions(nth=1)
            .media_read_errors(nth=1, count=10))
    inj = FaultInjector(plan)
    _, term = inj.media_verdict(False, [(0, 8)], 0)
    assert term is FaultKind.DROP_COMPLETION


def test_translation_fault_query_separate_from_media():
    inj = FaultInjector(FaultPlan().translation_faults(nth=2))
    assert not inj.translation_fault(0)
    assert inj.translation_fault(1)
    assert not inj.translation_fault(2)
    # media queries were never affected
    assert inj.media_verdict(False, [(0, 8)], 3)[1] is None


def test_summary_keeps_zero_kinds():
    inj = FaultInjector(FaultPlan().media_read_errors(nth=1))
    summary = inj.summary()
    assert set(summary) == {k.value for k in FaultKind}
    assert all(v == 0 for v in summary.values())
    inj.media_verdict(False, [(0, 8)], 0)
    assert inj.summary()["media_read_error"] == 1
