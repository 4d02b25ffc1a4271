"""Unit tests for the CPU core model."""

import pytest

from repro.sim.cpu import CPUSet
from repro.sim.engine import Simulator


def test_compute_advances_time_and_accounts():
    sim = Simulator()
    cpus = CPUSet(sim, 2)
    t = cpus.thread("t")

    def body():
        yield from t.compute(100)
        yield from t.compute(50)

    sim.run_process(body())
    assert sim.now == 150
    assert t.compute_ns == 150
    assert cpus.busy_ns == 150


def test_core_contention_serializes():
    sim = Simulator()
    cpus = CPUSet(sim, 1)
    finish = []

    def body(thread):
        yield from thread.compute(100)
        thread.release_core()
        finish.append(sim.now)

    for i in range(3):
        sim.process(body(cpus.thread(f"t{i}")))
    sim.run()
    assert finish == [100, 200, 300]


def test_block_releases_core():
    sim = Simulator()
    cpus = CPUSet(sim, 1)
    t1, t2 = cpus.thread("t1"), cpus.thread("t2")
    log = []

    def sleeper():
        yield from t1.compute(10)
        ev = sim.timeout(1000)
        yield from t1.block(ev)  # releases the core while sleeping
        log.append(("sleeper", sim.now))

    def worker():
        yield from t2.compute(50)
        t2.release_core()
        log.append(("worker", sim.now))

    sim.process(sleeper())
    sim.process(worker())
    sim.run()
    # Worker ran during the sleeper's wait: 10 + 50 = 60 < 1010.
    assert log == [("worker", 60), ("sleeper", 1010)]
    assert t1.block_ns == 1000


def test_poll_holds_core():
    sim = Simulator()
    cpus = CPUSet(sim, 1)
    t1, t2 = cpus.thread("poller"), cpus.thread("worker")
    log = []

    def poller():
        ev = sim.timeout(100)
        yield from t1.poll(ev)  # holds the core
        t1.release_core()
        log.append(("poller", sim.now))

    def worker():
        yield from t2.compute(10)
        t2.release_core()
        log.append(("worker", sim.now))

    sim.process(poller())
    sim.process(worker())
    sim.run()
    # The worker could not run until the poller released the core.
    assert log == [("poller", 100), ("worker", 110)]
    assert t1.poll_ns == 100


def test_run_queue_time_accounted():
    sim = Simulator()
    cpus = CPUSet(sim, 1)
    t1, t2 = cpus.thread("t1"), cpus.thread("t2")

    def first():
        yield from t1.compute(100)
        t1.release_core()

    def second():
        yield from t2.compute(10)
        t2.release_core()

    sim.process(first())
    sim.process(second())
    sim.run()
    assert t2.run_queue_ns == 100


def test_woken_threads_wait_for_the_core_in_fifo_order():
    # One core.  ``blocker`` holds it for 10 ns then blocks until 100;
    # ``sleeper`` sleeps until 120; ``hog`` takes the core at 10 and
    # keeps it until 510.  Both wake while the core is busy and queue
    # for it in wake order: blocker at 510, sleeper at 540.
    sim = Simulator()
    cpus = CPUSet(sim, 1)
    blocker, sleeper, hog = (cpus.thread(n)
                             for n in ("blocker", "sleeper", "hog"))
    on_core = []

    def blocking():
        yield from blocker.compute(10)
        value = yield from blocker.block(sim.timeout(90, value="done"))
        on_core.append(("blocker", sim.now, value))
        yield from blocker.compute(30)
        blocker.release_core()

    def sleeping():
        yield from sleeper.sleep(120)
        on_core.append(("sleeper", sim.now, None))
        yield from sleeper.compute(7)
        sleeper.release_core()

    def hogging():
        yield from hog.compute(500)
        hog.release_core()

    for body in (blocking, sleeping, hogging):
        sim.process(body())
    sim.run()
    assert on_core == [("blocker", 510, "done"), ("sleeper", 540, None)]
    # The wait from going off-core to the re-grant splits exactly into
    # time asleep and time on the run queue.
    assert (blocker.block_ns, blocker.run_queue_ns) == (90, 410)
    assert blocker.block_ns + blocker.run_queue_ns == 510 - 10
    assert (sleeper.block_ns, sleeper.run_queue_ns) == (120, 420)
    assert sleeper.block_ns + sleeper.run_queue_ns == 540 - 0
    assert hog.run_queue_ns == 10
    assert sim.now == 547
    assert cpus.busy_ns == 10 + 500 + 30 + 7
    assert cpus.in_use == 0


def test_thread_run_releases_core_at_end():
    sim = Simulator()
    cpus = CPUSet(sim, 1)
    t1, t2 = cpus.thread("t1"), cpus.thread("t2")

    def body(thread):
        yield from thread.compute(10)
        # no explicit release

    sim.process(t1.run(body(t1)))
    sim.process(t2.run(body(t2)))
    sim.run()
    assert sim.now == 20
    assert cpus.in_use == 0


def test_utilization():
    sim = Simulator()
    cpus = CPUSet(sim, 2)
    t = cpus.thread("t")

    def body():
        yield from t.compute(100)
        t.release_core()

    sim.run_process(body())
    assert cpus.utilization(100) == pytest.approx(0.5)


def test_sleep_releases_core():
    sim = Simulator()
    cpus = CPUSet(sim, 1)
    t1, t2 = cpus.thread("t1"), cpus.thread("t2")
    log = []

    def sleeper():
        yield from t1.compute(5)
        yield from t1.sleep(500)
        log.append(("sleeper", sim.now))
        t1.release_core()

    def worker():
        yield from t2.compute(20)
        log.append(("worker", sim.now))
        t2.release_core()

    sim.process(sleeper())
    sim.process(worker())
    sim.run()
    assert log[0] == ("worker", 25)


def test_zero_cores_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        CPUSet(sim, 0)


def test_negative_compute_rejected():
    sim = Simulator()
    t = CPUSet(sim, 1).thread()
    with pytest.raises(ValueError):
        sim.run_process(t.compute(-5))
