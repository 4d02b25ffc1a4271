"""Runtime sim-sanitizer: race detection, leak detection, provenance,
and the zero-overhead guarantee when disabled."""

import pytest

from repro.sim import (
    Resource,
    Semaphore,
    Simulator,
    Store,
)
from repro.sim.sanitizer import SanitizerError


# -- ordering races ------------------------------------------------------

def _racy_pair(sim, res):
    """Two processes that hit the same Resource at the same timestamp."""
    def worker(name):
        yield sim.timeout(10)
        yield res.request()
        yield sim.timeout(5)
        res.release()
    sim.process(worker("left"), name="left")
    sim.process(worker("right"), name="right")


def test_detects_same_timestamp_resource_race():
    sim = Simulator(sanitize=True)
    res = Resource(sim, 1)
    _racy_pair(sim, res)
    sim.run()
    races = sim.sanitizer.findings("ordering-race")
    assert len(races) == 1
    [race] = races
    assert race.time_ns == 10
    assert race.participants == ("left", "right")
    assert "tie-break" in race.message


def test_no_race_reported_when_arrivals_differ():
    sim = Simulator(sanitize=True)
    res = Resource(sim, 1)

    def worker(name, delay):
        yield sim.timeout(delay)
        yield res.request()
        yield sim.timeout(5)
        res.release()

    sim.process(worker("early", 10), name="early")
    sim.process(worker("late", 30), name="late")
    sim.run()
    assert sim.sanitizer.findings("ordering-race") == []


def test_uncontended_same_time_ops_are_not_races():
    # capacity covers both requesters: grant order cannot matter
    sim = Simulator(sanitize=True)
    res = Resource(sim, 2)
    _racy_pair(sim, res)
    sim.run()
    assert sim.sanitizer.findings("ordering-race") == []


def test_store_get_race_detected():
    sim = Simulator(sanitize=True)
    store = Store(sim)

    def producer():
        yield sim.timeout(5)
        yield store.put("item")

    def consumer(name):
        yield sim.timeout(20)
        yield store.get()

    sim.process(producer(), name="producer")
    sim.process(consumer("c1"), name="c1")
    sim.process(consumer("c2"), name="c2")
    # only one item: c1/c2 race for it at t=20, the loser is stranded
    with_pending = sim.run(until=100)
    assert with_pending == 100
    races = sim.sanitizer.findings("ordering-race")
    assert len(races) == 1
    assert races[0].participants == ("c1", "c2")


# -- leaks at end of run -------------------------------------------------

def test_detects_process_stranded_on_untriggered_event():
    sim = Simulator(sanitize=True)
    never = sim.event()

    def stuck():
        yield never

    sim.process(stuck(), name="stuck")
    sim.run()
    stranded = sim.sanitizer.findings("stranded-process")
    assert len(stranded) == 1
    assert "stuck" in stranded[0].message
    leaked = sim.sanitizer.findings("leaked-event")
    assert len(leaked) == 1
    assert "never scheduled" in leaked[0].message


def test_detects_unreleased_resource_units():
    sim = Simulator(sanitize=True)
    res = Resource(sim, 4)

    def hog():
        yield res.request()
        yield sim.timeout(10)
        # exits without release()

    sim.process(hog(), name="hog")
    sim.run()
    leaks = sim.sanitizer.findings("leaked-resource")
    assert len(leaks) == 1
    assert "1/4 units never released" in leaks[0].message


def test_detects_held_semaphore_and_parked_getter():
    sim = Simulator(sanitize=True)
    sem = Semaphore(sim, 1)
    store = Store(sim)

    def holder():
        yield sem.acquire()
        yield sim.timeout(1)

    def starving():
        yield store.get()

    sim.process(holder(), name="holder")
    sim.process(starving(), name="starving")
    sim.run()
    msgs = "\n".join(d.message
                     for d in sim.sanitizer.findings("leaked-resource"))
    assert "still held" in msgs
    assert "getter(s) parked forever" in msgs


def test_clean_run_has_no_findings():
    sim = Simulator(sanitize=True)
    res = Resource(sim, 2)

    def polite(delay):
        yield sim.timeout(delay)
        yield res.request()
        yield sim.timeout(3)
        res.release()

    sim.process(polite(1), name="p1")
    sim.process(polite(2), name="p2")
    sim.run()
    assert sim.sanitizer.diagnostics == []
    assert sim.sanitizer.report() == "[sim-sanitizer] clean: no findings"


def test_leak_checks_only_claim_on_drained_queue():
    sim = Simulator(sanitize=True)
    never = sim.event()

    def stuck():
        yield never

    def busy():
        for _ in range(10):
            yield sim.timeout(10)

    sim.process(stuck(), name="stuck")
    sim.process(busy(), name="busy")
    sim.run(until=5)   # queue not drained: no verdict yet
    assert sim.sanitizer.findings("stranded-process") == []
    sim.run()          # drained now
    assert len(sim.sanitizer.findings("stranded-process")) == 1


# -- daemon processes ----------------------------------------------------

def test_daemon_servers_are_exempt_from_leak_and_race_verdicts():
    # the perpetual-server pattern: N interchangeable channels draining
    # a shared work queue, parked on get() when the run ends
    sim = Simulator(sanitize=True)
    work = Store(sim)

    def channel():
        while True:
            yield work.get()
            yield sim.timeout(3)

    for i in range(4):
        sim.process(channel(), name=f"ch{i}", daemon=True)

    def submitter():
        for _ in range(2):
            yield work.put("io")
            yield sim.timeout(1)

    sim.process(submitter(), name="submitter")
    sim.run()
    assert sim.sanitizer.diagnostics == []


def test_non_daemon_servers_still_reported():
    sim = Simulator(sanitize=True)
    work = Store(sim)

    def channel():
        while True:
            yield work.get()

    sim.process(channel(), name="ch0")
    sim.run()
    assert len(sim.sanitizer.findings("stranded-process")) == 1
    leaks = "\n".join(d.message
                      for d in sim.sanitizer.findings("leaked-resource"))
    assert "getter(s) parked forever" in leaks


# -- strict mode ---------------------------------------------------------

def test_strict_mode_raises_on_leaks():
    sim = Simulator(strict_sanitize=True)
    never = sim.event()

    def stuck():
        yield never

    sim.process(stuck(), name="stuck")
    with pytest.raises(SanitizerError, match="stranded-process"):
        sim.run()


def test_strict_mode_passes_clean_run():
    sim = Simulator(strict_sanitize=True)

    def fine():
        yield sim.timeout(5)

    sim.process(fine(), name="fine")
    assert sim.run() == 5


# -- provenance ----------------------------------------------------------

def test_event_provenance_records_creator_and_schedule():
    sim = Simulator(sanitize=True)
    seen = {}

    def maker():
        t = sim.timeout(7)
        seen["prov"] = sim.sanitizer.provenance(t)
        yield t

    sim.process(maker(), name="maker")
    sim.run()
    prov = seen["prov"]
    assert prov.kind == "Timeout"
    assert prov.created_by == "maker"
    assert prov.scheduled_ns == 7
    assert "t=7" in prov.describe()


def test_provenance_absent_when_sanitize_off():
    sim = Simulator()
    assert sim.sanitizer is None


# -- zero overhead when disabled -----------------------------------------

def _timeline(sanitize):
    sim = Simulator(sanitize=sanitize)
    res = Resource(sim, 2)
    stamps = []

    def worker(idx):
        yield sim.timeout(idx)
        yield res.request()
        yield sim.timeout(7)
        stamps.append((idx, sim.now))
        res.release()

    for i in range(6):
        sim.process(worker(i), name=f"w{i}")
    end = sim.run()
    return end, stamps


def test_sanitize_mode_never_changes_the_timeline():
    assert _timeline(False) == _timeline(True)
