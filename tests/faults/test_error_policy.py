"""One driver error policy on every synchronous path.

The kernel block layer (syscalls), the metadata volume and UserLib's
direct path inherit the same ``GuardedIO`` policy, so the same fault
script must leave the same counters and the same outcome on each of
them — and a bug planted in the policy must show on all three.
"""

import errno

import pytest

from repro import GiB, Machine
from repro.chaos.oracles import check_retry_bounds
from repro.faults import FaultPlan, canary
from repro.hw.params import DEFAULT_PARAMS
from repro.kernel.blockio import IOError_
from repro.kernel.process import O_CREAT, O_DIRECT, O_RDWR

# Five retries take the doubling backoff (50, 100, 200, 400, 400 us)
# into its cap, so every path's cap is exercised too.
PARAMS = DEFAULT_PARAMS.replace(io_retry_limit=5)
LIMIT = PARAMS.io_retry_limit
CAP = PARAMS.io_retry_backoff_max_ns


def _machine(plan):
    return Machine(params=PARAMS, faults=plan, capacity_bytes=1 * GiB,
                   memory_bytes=256 << 20)


def _sync_read(m):
    """A 4 KiB O_DIRECT pread through the kernel block layer."""
    proc = m.spawn_process("app")
    t = proc.new_thread()

    def body():
        fd = yield from m.kernel.sys_open(proc, t, "/f",
                                          O_RDWR | O_CREAT | O_DIRECT)
        yield from m.kernel.sys_fallocate(proc, t, fd, 0, 4096)
        n, _ = yield from m.kernel.sys_pread(proc, t, fd, 0, 4096)
        return n

    return m.blockio, lambda: m.run_process(t.run(body()))


def _volume_read(m):
    """One metadata block read through the filesystem's volume."""
    def body():
        data = yield from m.volume.read_blocks(1, 1)
        return len(data)

    return m.volume, lambda: m.run_process(body())


def _direct_read(m):
    """A 4 KiB bypassd read on the direct path."""
    proc = m.spawn_process()
    lib = m.userlib(proc)
    t = proc.new_thread()

    def body():
        f = yield from lib.open(t, "/x", write=True, create=True)
        yield from m.kernel.sys_fallocate(proc, t, f.state.fd, 0, 4096)
        n, _ = yield from f.pread(t, 0, 4096)
        assert f.using_direct_path
        return n

    return lib, lambda: m.run_process(body())


PATHS = {"blockio": _sync_read, "volume": _volume_read,
         "userlib": _direct_read}


def _run(path, plan):
    m = _machine(plan)
    layer, run = PATHS[path](m)
    try:
        outcome = ("data", run())
    except IOError_ as exc:
        outcome = ("error", exc.errno)
    counters = (layer.retries, layer.timeouts, layer.aborts,
                layer.io_errors, layer.max_attempts, layer.max_backoff_ns)
    return counters, outcome


# (retries, timeouts, aborts, io_errors, max_attempts, max_backoff_ns)
SCRIPTS = {
    "one-transient": (FaultPlan().media_read_errors(nth=1, count=1),
                      (1, 0, 0, 0, 1, PARAMS.retry_backoff_ns(1)),
                      ("data", 4096)),
    "limit-transient": (FaultPlan().media_read_errors(nth=1, count=LIMIT),
                        (LIMIT, 0, 0, 0, LIMIT, CAP), ("data", 4096)),
    "persistent": (FaultPlan().media_read_errors(nth=1, count=100),
                   (LIMIT, 0, 0, 1, LIMIT, CAP), ("error", errno.EIO)),
    "dropped": (FaultPlan().dropped_completions(nth=1),
                (1, 1, 1, 0, 1, PARAMS.retry_backoff_ns(1)),
                ("data", 4096)),
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_same_fault_script_same_policy_on_every_path(script):
    plan, counters, outcome = SCRIPTS[script]
    got = {path: _run(path, plan) for path in PATHS}
    assert got == {path: (counters, outcome) for path in PATHS}


def test_retry_canary_reaches_the_direct_path():
    m = _machine(FaultPlan().media_read_errors(nth=1, count=100))
    lib, run = _direct_read(m)
    canary.arm(canary.CANARY_RETRY_OFF_BY_ONE)
    try:
        with pytest.raises(IOError_):
            run()
    finally:
        canary.disarm_all()
    assert lib.max_attempts == LIMIT + 1
    details = [v.detail for v in check_retry_bounds(m)]
    assert details == [f"userlib[0]: retried a command {LIMIT + 1} times "
                       f"(io_retry_limit={LIMIT})"]
