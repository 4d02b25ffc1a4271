"""The unarmed-timeout hazard: the driver only arms its timeout/abort
machinery when the fault plan *can* drop completions.  If that
classification is ever wrong — a plan mutated after adoption, a
completion that evaporates while ``may_drop`` says it can't — the sim
must fail loudly (RuntimeError from the mutating call / SimulationError
+ sanitizer finding), never hang silently with a stranded waiter."""

import pytest

from repro import GiB, Machine
from repro.faults import FaultKind, FaultPlan
from repro.kernel.process import O_CREAT, O_RDWR
from repro.sim import SimulationError


def machine(plan, **kw):
    return Machine(faults=plan, capacity_bytes=1 * GiB,
                   memory_bytes=128 << 20, **kw)


def small_write(m):
    proc = m.spawn_process("w")
    t = proc.new_thread()

    def body():
        fd = yield from m.kernel.sys_open(proc, t, "/f",
                                          O_RDWR | O_CREAT)
        yield from m.kernel.sys_pwrite(proc, t, fd, 0, 4096,
                                       b"\x41" * 4096)
        yield from m.kernel.sys_fsync(proc, t, fd)

    return t.run(body())


def test_plan_mutated_after_adoption_fails_loudly():
    """Appending a drop rule *after* the machine adopted the plan is the
    classic unarmed-timeout bug: ``may_drop`` would claim a drop is
    possible, but the injector has no trigger state for the new rule,
    so it would never fire.  Adoption freezes the plan, so the mutating
    call itself raises, before any simulated time passes."""
    plan = FaultPlan().latency_spikes(nth=10 ** 6)
    m = machine(plan)
    with pytest.raises(RuntimeError, match="mutated after"):
        plan.dropped_completions(nth=1, count=1)
    assert len(plan.rules) == 1
    assert not m.faults.may_drop
    m.run_process(small_write(m))


def test_unarmed_drop_strands_loudly_not_silently():
    # Force the worst case: a completion evaporates while may_drop is
    # False, so neither the blocking-wait timeout loop nor the async
    # abort guard was armed.  The run must end with a SimulationError
    # and a sanitizer diagnosis — not an exit-code-0 sim that simply
    # never ran the rest of the workload.
    plan = FaultPlan().latency_spikes(nth=10 ** 6)
    m = machine(plan, sanitize=True)
    inj = m.device.injector
    assert not inj.may_drop

    real_verdict = inj.media_verdict
    dropped = []

    def lying_verdict(is_write, segments, now):
        if not dropped:
            dropped.append(now)
            return 0, FaultKind.DROP_COMPLETION
        return real_verdict(is_write, segments, now)

    inj.media_verdict = lying_verdict
    with pytest.raises(SimulationError, match="did not finish"):
        m.run_process(small_write(m))
    assert dropped, "verdict hook never consulted"
    assert m.device.dropped_completions == 1
    san = m.sim.sanitizer
    findings = san.findings("stranded-process")
    assert findings, "sanitizer missed the stranded waiter"


def test_armed_timeout_recovers_the_same_drop():
    # Control experiment: the identical drop with may_drop=True is
    # survivable — timeout fires, abort resurrects the completion, the
    # retry succeeds and the workload finishes.
    plan = FaultPlan().dropped_completions(nth=1, count=1)
    m = machine(plan, sanitize=True)
    m.run_process(small_write(m))
    assert m.device.dropped_completions == 1
    assert m.blockio.timeouts + m.volume.timeouts >= 1
    assert m.blockio.aborts + m.volume.aborts >= 1
    assert not m.sim.sanitizer.findings("stranded-process")
