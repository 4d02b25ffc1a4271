"""Regression tests for engine bugs fixed since the hot-path overhaul.

1. ``AnyOf`` (and a failing ``AllOf``) used to leave their ``_check``
   callback registered on the losing events after the condition
   decided — the sanitizer then reported those events as leaked even
   though nothing was waiting on them.
2. ``Process.interrupt`` only detached ``_resume`` from the event the
   process was waiting on *at call time*.  A process that started a
   new wait between the call and the poke delivery (e.g. after
   catching an earlier Interrupt) kept a stale registration: when the
   abandoned event later triggered, the process was stepped a second
   time and advanced without its real wait completing.  The poke event
   of an interrupt whose target finished in the same tick also stayed
   un-recyclable garbage under pooling.
3. ``run(until=t)`` with ``t`` before the current time moved the clock
   backwards to ``t`` when events were pending.  It now raises
   :class:`~repro.sim.engine.SimulationError` and changes nothing, as
   SimPy does.

Each test pins the fixed behaviour on the new engine; where the
pre-overhaul behaviour differed, the companion assertion documents it
against :mod:`repro.sim.engine_reference` so the difference stays
deliberate and visible.
"""

import pytest

from repro.sim import engine, engine_reference
from repro.sim.engine import Interrupt, SimulationError


# -- 1: condition callbacks detach from losing events ------------------------

def test_anyof_detaches_check_from_losing_events():
    sim = engine.Simulator()
    loser = sim.event()                    # never triggers
    winner = sim.timeout(5, value="fast")
    cond = sim.any_of([loser, winner])
    sim.run()
    assert cond.value == {1: "fast"}
    assert loser.callbacks == []           # no dead _check left behind


def test_failing_allof_detaches_check_from_losing_events():
    sim = engine.Simulator()
    loser = sim.event()
    failing = sim.event()
    cond = sim.all_of([loser, failing])
    failing.fail(RuntimeError("boom"))
    cond.defuse()
    sim.run()
    assert not cond.ok
    assert loser.callbacks == []


def test_anyof_loser_is_not_a_sanitizer_leak():
    def scenario(mod):
        sim = mod.Simulator(sanitize=True)
        loser = sim.event()
        sim.any_of([loser, sim.timeout(5)])
        sim.run()
        return sim.sanitizer.findings("leaked-event"), loser

    fixed, _loser = scenario(engine)
    assert fixed == []
    # the frozen reference engine shows the bug this fix removed
    buggy, _loser = scenario(engine_reference)
    assert len(buggy) == 1


def test_anyof_result_unchanged_with_already_processed_events():
    """The detach/incremental rewrite must keep the pre-overhaul result
    shape: all *processed* successful events at decision time count."""
    for mod in (engine, engine_reference):
        sim = mod.Simulator()
        a = sim.timeout(1, value="a")
        b = sim.timeout(1, value="b")
        sim.run()
        cond = sim.any_of([a, b])          # both already processed
        sim.run()
        assert cond.value == {0: "a", 1: "b"}, mod.__name__


# -- 2: interrupt delivery ----------------------------------------------------

def test_double_interrupt_does_not_leave_stale_resume():
    """Two interrupts in one tick: after the first is caught the
    process waits on a new event; delivery of the second must detach
    from that wait before throwing, so the abandoned event can no
    longer step the process."""
    sim = engine.Simulator()
    ev1, ev2, ev3 = sim.event(), sim.event(), sim.event()
    log = []

    def body():
        try:
            yield ev1
        except Interrupt as i:
            log.append(("int", i.cause))
        try:
            yield ev2
        except Interrupt as i:
            log.append(("int", i.cause))
        yield ev3
        log.append("ev3")

    proc = sim.process(body())
    sim.run()                         # parked on ev1
    proc.interrupt("first")
    proc.interrupt("second")
    sim.run()
    assert log == [("int", "first"), ("int", "second")]
    # the wait on ev2 was abandoned by the second interrupt: its
    # trigger must NOT advance the process past ev3
    ev2.succeed()
    sim.run()
    assert log == [("int", "first"), ("int", "second")]
    assert proc.is_alive
    ev3.succeed()
    sim.run()
    assert log[-1] == "ev3" and proc.triggered


def test_reference_engine_had_the_stale_resume_bug():
    """Same scenario on the frozen engine: the abandoned ev2 still
    steps the process (it advances past ev3 without ev3 firing)."""
    sim = engine_reference.Simulator()
    ev1, ev2, ev3 = sim.event(), sim.event(), sim.event()
    log = []

    def body():
        # NB: the reference module's own Interrupt class — this test
        # drives engine_reference directly, not via the env switch.
        try:
            yield ev1
        except engine_reference.Interrupt:
            log.append("int1")
        try:
            yield ev2
        except engine_reference.Interrupt:
            log.append("int2")
        yield ev3
        log.append("ev3")

    proc = sim.process(body())
    sim.run()
    proc.interrupt("first")
    proc.interrupt("second")
    sim.run()
    ev2.succeed()
    sim.run()
    # double-step: the process ran past `yield ev3` although ev3 never
    # triggered — the corruption the delivery-time detach prevents
    assert log[-1] == "ev3" and proc.triggered and not ev3.triggered


def test_interrupt_on_finished_process_creates_no_poke():
    sim = engine.Simulator()

    def body():
        return "done"
        yield

    proc = sim.process(body())
    sim.run()
    assert proc.value == "done"
    before = sim.pending_events
    proc.interrupt("too-late")
    assert sim.pending_events == before


def test_interrupt_poke_is_inert_and_recycled_when_target_finished():
    """Two pokes in one tick; the target finishes while the first is
    delivered, so the second arrives after the process finished *in the
    same tick*.  It must be a no-op — and under pooling the inert poke
    goes back to the freelist instead of lingering as garbage."""
    sim = engine.Simulator()
    gate = sim.event()

    def body():
        try:
            yield gate
        except Interrupt:
            return "done"

    proc = sim.process(body())
    sim.run()
    proc.interrupt("first")
    proc.interrupt("second")          # delivered after the finish
    sim.run()
    assert proc.value == "done"
    assert sim._pool_ev, "inert poke event was not recycled"


def test_interrupt_after_finish_same_tick_sanitizer_parity():
    """Same double-interrupt scenario under sanitize on both engines:
    the new engine's inert-poke handling must add no findings beyond
    what the reference reports (the mid-run drain's stranded-process
    verdict appears identically in both)."""
    def scenario(mod):
        sim = mod.Simulator(sanitize=True)
        gate = sim.event()

        def body():
            try:
                yield gate
            except mod.Interrupt:
                return "done"

        proc = sim.process(body())
        sim.run()
        proc.interrupt("first")
        proc.interrupt("second")
        sim.run()
        assert proc.value == "done", mod.__name__
        return [(d.kind, d.message) for d in sim.sanitizer.findings()]

    assert scenario(engine) == scenario(engine_reference)


# -- 3: a horizon in the past is refused -------------------------------------

@pytest.mark.parametrize("sanitize", [False, True])
def test_run_until_in_the_past_raises_and_changes_nothing(sanitize):
    sim = engine.Simulator(sanitize=sanitize)
    fired = []
    for delay in (0, 5, 2_000, 400_000):
        sim.timeout(delay, value=delay).add_callback(
            lambda ev: fired.append((sim.now, ev.value)))
    assert sim.run(until=1_000) == 1_000
    sim.timeout(0, value="now").add_callback(
        lambda ev: fired.append((sim.now, ev.value)))
    before = (sim.now, sim.pending_events, sim._seq, list(fired))
    with pytest.raises(SimulationError, match="in the past"):
        sim.run(until=999)
    assert (sim.now, sim.pending_events, sim._seq, fired) == before
    # The queue still drains in (time, seq) order from the same clock.
    assert sim.run() == 400_000
    assert fired == [(0, 0), (5, 5), (1_000, "now"), (2_000, 2_000),
                     (400_000, 400_000)]


def test_reference_engine_moved_the_clock_backwards():
    sim = engine_reference.Simulator()
    sim.timeout(2_000)
    sim.run(until=1_000)
    assert sim.run(until=500) == 500
