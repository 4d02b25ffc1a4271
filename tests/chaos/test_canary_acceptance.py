"""End-to-end acceptance for the chaos pipeline.

The planted retry-off-by-one canary must be *found* by a seeded batch,
*shrunk* to a deterministic minimal reproducer, and *absent* when the
canary is disarmed — the chaos engine catching a bug we know is there.

The nightly CI job runs the full 200-scenario batch through the CLI;
here a 50-scenario slice of the same seed chain keeps tier-1 fast
while still covering several independent hits.
"""

import pytest

from repro.chaos import generate, run_scenario, scenario_seed, shrink

BATCH_SEED = 1234
BATCH = 50
CANARY = ("retry-off-by-one",)


def batch():
    return [generate(scenario_seed(BATCH_SEED, i)) for i in range(BATCH)]


@pytest.fixture(scope="module")
def armed_batch():
    """The batch run once with the canary armed: (scenario, result)."""
    return [(s, run_scenario(s, canaries=CANARY)) for s in batch()]


def test_seeded_batch_finds_the_canary_and_only_the_canary(armed_batch):
    hits = []
    for i, (_, result) in enumerate(armed_batch):
        kinds = {v.oracle for v in result.violations}
        assert kinds <= {"retry-bounds"}, (i, sorted(kinds))
        if kinds:
            hits.append(i)
    assert len(hits) >= 3, f"canary barely detected: hits={hits}"


def test_same_batch_without_canary_is_silent():
    for i, s in enumerate(batch()):
        result = run_scenario(s)
        assert result.ok, (i, [v.to_dict() for v in result.violations])


def test_first_hit_shrinks_to_a_stable_reproducer(armed_batch):
    first = next(s for s, result in armed_batch if not result.ok)
    r1 = shrink(first, canaries=CANARY)
    r2 = shrink(first, canaries=CANARY)
    # same seed, same scenario, byte-identical shrink
    assert r1.scenario.to_json() == r2.scenario.to_json()
    replay = run_scenario(r1.scenario, canaries=CANARY)
    assert {v.oracle for v in replay.violations} == {"retry-bounds"}
    assert run_scenario(r1.scenario).ok
