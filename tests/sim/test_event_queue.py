"""Property suite for the event queue and freelists.

The overhauled :class:`repro.sim.engine.Simulator` files events into
two structures (a current-instant FIFO and one heap of delayed posts)
but must pop in exactly ``(time, seq)`` order — the order the
pre-overhaul single-``heapq`` engine guarantees by construction.
Hypothesis drives both engines (plus an explicit sorted-list oracle
computed in the test) with arbitrary interleavings of posts and
``until``-bounded drains: duplicate timestamps, delays from 0 ns to
5 ms (kept at the edges of the 1024 ns buckets and the 262,144 ns
horizon of the calendar queue that this heap replaced), and
pathological ``until < now`` calls (which the live engine refuses with
the clock and queue untouched; the frozen reference parked its clock
there, so it skips them).

The freelist properties: recycled events are only ever ones nobody
else references (a held event is never mutated by later traffic), and
pooling is off under ``sanitize=True`` so provenance stays exact.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import engine, engine_reference

# Delays from the current instant to 5 ms, at the edges of the former
# calendar queue's 1024 ns buckets and 262,144 ns horizon — plus
# duplicates of each.
INTERESTING_DELAYS = [
    0, 0, 1, 2, 3, 17, 1023, 1024, 1025, 2048, 9973,
    262_143, 262_144, 262_145, 300_000, 1_000_000, 5_000_000,
]

# One drain phase: post this batch of delays, then run with a bound
# ("step" ns ahead), unbounded (None), or deliberately in the past
# ("past": the live engine must raise and change nothing).
PHASES = st.lists(
    st.tuples(
        st.lists(st.sampled_from(INTERESTING_DELAYS),
                 min_size=0, max_size=8),
        st.one_of(st.none(),
                  st.integers(min_value=0, max_value=400_000),
                  st.just("past")),
    ),
    min_size=1, max_size=10,
)


def _drive(sim, phases):
    """Run the phase script on ``sim``; return the observable history.

    Each posted timeout records ``(pop_time, tag)`` when it fires; the
    history also logs every ``run()`` return so `until`-bounded clock
    behaviour is part of the comparison.
    """
    history = []
    tag = 0
    for delays, bound in phases:
        for delay in delays:
            tag += 1
            sim.timeout(delay, value=tag).add_callback(
                lambda ev, s=sim: history.append(("pop", s.now, ev._value)))
        if bound is None:
            history.append(("ran", sim.run(), None))
        elif bound == "past" and sim.now == 0:
            history.append(("ran", sim.run(until=0), None))  # not past
        elif bound == "past":
            # The frozen reference parks its clock in the past: skip it.
            if not isinstance(sim, engine_reference.Simulator):
                before = (sim.now, sim.pending_events, sim._seq)
                with pytest.raises(engine.SimulationError):
                    sim.run(until=sim.now - 1)
                assert (sim.now, sim.pending_events, sim._seq) == before
        else:
            history.append(("ran", sim.run(until=sim.now + bound), None))
    history.append(("final", sim.run(), sim.pending_events))
    return history


@settings(max_examples=200, deadline=None)
@given(PHASES)
def test_pop_order_matches_reference_engine(phases):
    """Byte-identical history against the plain-heapq reference."""
    new = _drive(engine.Simulator(), phases)
    ref = _drive(engine_reference.Simulator(), phases)
    assert new == ref


@settings(max_examples=200, deadline=None)
@given(PHASES)
def test_pop_order_matches_sorted_oracle(phases):
    """Unbounded drains pop in exactly (time, seq) order.

    The oracle is computed outside the engine: every post is recorded
    as (absolute_time, seq) in post order, sorted stably — the
    definition of the contract, independent of any engine.
    """
    sim = engine.Simulator()
    expected = []
    popped = []
    tag = 0
    for delays, _bound in phases:        # ignore bounds: single drain
        for delay in delays:
            tag += 1
            expected.append((sim.now + delay, tag))
            sim.timeout(delay, value=tag).add_callback(
                lambda ev, s=sim: popped.append((s.now, ev._value)))
    sim.run()
    # seq order == post order here (one post per timeout), so a stable
    # sort by time alone is the exact (time, seq) contract.
    expected.sort(key=lambda pair: pair[0])
    assert popped == expected
    assert sim.pending_events == 0


@settings(max_examples=100, deadline=None)
@given(PHASES, st.sets(st.integers(min_value=1, max_value=80)))
def test_recycled_events_never_alias_live_ones(phases, keep_tags):
    """Held events keep their identity and value under pooling.

    The freelist only recycles events with no outside references, so
    any event the test keeps a reference to must still carry its own
    value (and stay processed) after arbitrary further traffic reuses
    the pools.
    """
    sim = engine.Simulator()
    assert sim._pooling
    kept = {}
    tag = 0
    recycled = False
    for delays, _bound in phases:
        for delay in delays:
            tag += 1
            ev = sim.timeout(delay, value=tag)
            if tag in keep_tags:
                kept[tag] = ev
            del ev      # only `kept` may hold references during run()
        sim.run()
        # The pool is LIFO and later allocations drain it again, so a
        # phase can end with an empty pool even though recycling
        # happened (e.g. the last timeout drew the pooled object and
        # was kept).  Record whether it was EVER non-empty.
        recycled = recycled or bool(sim._pool_to)
        for want, ev in kept.items():
            assert ev.processed and ev._value == want
    # Steady-state traffic really does recycle (the pools are in use) —
    # unless this example posted only kept/no events.
    if tag and len(kept) < tag:
        assert recycled, "no timeout was ever recycled"


def test_pooling_disabled_under_sanitize():
    sim = engine.Simulator(sanitize=True)
    assert not sim._pooling
    for _ in range(50):
        sim.timeout(10)
    sim.run()
    assert not sim._pool_to and not sim._pool_ev
    # and the explicit opt-out works the same way
    sim2 = engine.Simulator(pooling=False)
    assert not sim2._pooling
    for _ in range(50):
        sim2.timeout(10)
    sim2.run()
    assert not sim2._pool_to and not sim2._pool_ev


def test_pool_capacity_is_bounded():
    sim = engine.Simulator()
    for _ in range(5000):
        sim.event().succeed()
    sim.run()
    assert len(sim._pool_ev) <= engine._POOL_CAP


def test_far_horizon_spill_and_migration():
    """Timers from 0 ns to 1 ms, posted out of order, fire in exact
    time order."""
    sim = engine.Simulator()
    fired = []
    for delay in (1_000_000, 3, 500_000, 262_144, 262_143, 0, 750_000):
        sim.timeout(delay, value=delay).add_callback(
            lambda ev: fired.append(ev._value))
    sim.run()
    assert fired == [0, 3, 262_143, 262_144, 500_000, 750_000, 1_000_000]
    assert sim.now == 1_000_000 and sim.pending_events == 0
