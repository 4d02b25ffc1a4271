"""Additional engine edge cases."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_all_of_fails_if_member_fails():
    sim = Simulator()
    good = sim.timeout(10)
    bad = sim.event()

    def body():
        try:
            yield sim.all_of([good, bad])
        except RuntimeError as exc:
            return str(exc)

    proc = sim.process(body())
    bad.fail(RuntimeError("member died"))
    sim.run()
    assert proc.value == "member died"


def test_unhandled_event_failure_crashes_run():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("nobody caught me"))
    with pytest.raises(ValueError):
        sim.run()


def test_defused_failure_does_not_crash_run():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("handled elsewhere"))
    ev.defuse()
    sim.run()  # no raise


def test_process_waits_on_already_processed_event():
    sim = Simulator()
    ev = sim.timeout(5, value="early")
    sim.run()  # ev processed before anyone waits

    def body():
        value = yield ev
        return value

    assert sim.run_process(body()) == "early"


def test_yielding_foreign_event_fails():
    sim_a, sim_b = Simulator(), Simulator()
    foreign = sim_b.timeout(1)

    def body():
        yield foreign

    with pytest.raises(SimulationError):
        sim_a.run_process(body())


def test_interrupt_after_completion_is_noop():
    sim = Simulator()

    def body():
        yield sim.timeout(1)
        return "done"

    proc = sim.process(body())
    sim.run()
    proc.interrupt("too late")
    sim.run()
    assert proc.value == "done"


def test_run_until_zero_pending():
    sim = Simulator()
    assert sim.run(until=1000) == 1000
    assert sim.now == 1000


def test_nested_process_failure_propagates_to_parent():
    sim = Simulator()

    def child():
        yield sim.timeout(1)
        raise KeyError("inner")

    def parent():
        try:
            yield sim.process(child())
        except KeyError:
            return "caught-inner"

    assert sim.run_process(parent()) == "caught-inner"


@pytest.mark.parametrize("sanitize", [False, True])
def test_timers_due_now_pop_before_events_posted_now(sanitize):
    """Two timers fire at t=10; the first one's callback succeeds an
    event at t=10.  The second timer was posted earlier (lower seq), so
    it pops before that event, as one (time, seq) heap would order it."""
    sim = Simulator(sanitize=sanitize)
    order = []
    first, second = sim.timeout(10), sim.timeout(10)
    now_ev = sim.event()
    now_ev.add_callback(lambda ev: order.append("posted-now"))

    def on_first(ev):
        order.append("first")
        now_ev.succeed()

    first.add_callback(on_first)
    second.add_callback(lambda ev: order.append("second"))
    sim.run()
    assert order == ["first", "second", "posted-now"]
    assert sim.now == 10 and sim.pending_events == 0
