"""Each invariant oracle, exercised on hand-built fakes: one clean
case and one violation case per failure family."""

from types import SimpleNamespace as NS

from repro.chaos.oracles import (
    check_completions, check_durability, check_isolation,
    check_retry_bounds, check_sanitizer, check_slo_consistency,
    check_stats_monotonic,
)

BLOCK = 4096


def kinds(violations):
    return sorted({v.oracle for v in violations})


# -- completions -------------------------------------------------------------

def qp(qid=0, submitted=4, completed=4, reaped=4, inflight=0):
    return NS(qid=qid, submitted=submitted, completed=completed,
              reaped=reaped, inflight=inflight)


def machine_with(qps, lost=None):
    return NS(device=NS(queue_pairs=lambda: qps, _lost=lost or {}))


def test_completions_clean():
    assert check_completions(machine_with([qp()]), crashed=False) == []


def test_completions_counter_inversion():
    vs = check_completions(machine_with([qp(reaped=5)]), crashed=False)
    assert kinds(vs) == ["completions"]
    assert "inversion" in vs[0].detail


def test_completions_undrained_clean_run():
    bad = qp(submitted=6, completed=4, reaped=4, inflight=2)
    vs = check_completions(machine_with([bad]), crashed=False)
    assert len(vs) == 2     # still in flight + never completed


def test_completions_crash_excuses_inflight_but_not_inversion():
    bad = qp(submitted=6, completed=4, reaped=5, inflight=2)
    vs = check_completions(machine_with([bad]), crashed=True)
    assert len(vs) == 1 and "inversion" in vs[0].detail


def test_completions_unaborted_drop():
    m = machine_with([qp()], lost={(0, 7): object()})
    vs = check_completions(m, crashed=False)
    assert any("never aborted" in v.detail for v in vs)
    assert check_completions(m, crashed=True) == []


# -- retry bounds ------------------------------------------------------------

def retry_machine(**over):
    layers = dict(
        blockio=NS(max_attempts=3, max_backoff_ns=400_000),
        volume=NS(max_attempts=0, max_backoff_ns=0),
        _userlibs=[NS(max_attempts=3, max_backoff_ns=400_000)],
    )
    layers.update(over)
    return NS(params=NS(io_retry_limit=3,
                        io_retry_backoff_max_ns=400_000), **layers)


def test_retry_bounds_clean():
    assert check_retry_bounds(retry_machine()) == []


def test_retry_bounds_kernel_attempts_over_limit():
    m = retry_machine(blockio=NS(max_attempts=4, max_backoff_ns=0))
    vs = check_retry_bounds(m)
    assert kinds(vs) == ["retry-bounds"] and "blockio" in vs[0].detail


def test_retry_bounds_userlib_and_backoff():
    m = retry_machine(
        volume=NS(max_attempts=0, max_backoff_ns=500_000),
        _userlibs=[NS(max_attempts=5, max_backoff_ns=0)])
    vs = check_retry_bounds(m)
    details = " ".join(v.detail for v in vs)
    assert len(vs) == 2
    assert "volume" in details and "userlib[0]" in details


# -- stats monotonicity ------------------------------------------------------

def test_stats_monotonic_clean():
    samples = [(0, {"reads": 1}), (10, {"reads": 1, "writes": 2}),
               (20, {"reads": 3, "writes": 2})]
    assert check_stats_monotonic(samples) == []


def test_stats_counter_decrease():
    vs = check_stats_monotonic([(0, {"reads": 3}), (10, {"reads": 1})])
    assert kinds(vs) == ["stats-monotonic"]
    assert "decreased" in vs[0].detail


def test_stats_time_backwards():
    vs = check_stats_monotonic([(10, {}), (0, {})])
    assert any("backwards" in v.detail for v in vs)


# -- SLO consistency ---------------------------------------------------------

def slo_machine(breaches, breach_count=None, breach_ticks=None,
                limit=2.0):
    return NS(monitor=NS(
        config=NS(slos=(NS(name="depth", limit=limit),)),
        breaches=breaches,
        breach_count=(len(breaches) if breach_count is None
                      else breach_count),
        breach_ticks=breach_ticks if breach_ticks is not None
        else {"depth": len(breaches)},
    ))


def breach(t_ns, value, slo="depth"):
    return NS(t_ns=t_ns, value=value, slo=slo)


def test_slo_no_monitor_is_clean():
    assert check_slo_consistency(NS(monitor=None)) == []


def test_slo_clean():
    m = slo_machine([breach(100, 3.0), breach(900, 2.5)])
    assert check_slo_consistency(m) == []


def test_slo_breach_below_limit():
    vs = check_slo_consistency(slo_machine([breach(100, 1.0)]))
    assert kinds(vs) == ["slo-consistency"]
    assert "below limit" in vs[0].detail


def test_slo_unknown_name_and_bad_ordering():
    m = slo_machine([breach(100, 9.9, slo="ghost"),
                     breach(200, 3.0), breach(200, 3.0)])
    details = " ".join(v.detail for v in check_slo_consistency(m))
    assert "unknown SLO" in details
    assert "strictly increasing" in details


def test_slo_count_and_tick_mismatch():
    m = slo_machine([breach(100, 3.0)], breach_count=2,
                    breach_ticks={"depth": 0})
    details = " ".join(v.detail for v in check_slo_consistency(m))
    assert "breach_count" in details
    assert "breach ticks" in details


# -- durability / isolation --------------------------------------------------

class FakeExtents:
    def __init__(self, mapping):
        self._mapping = mapping      # file block -> phys block

    def lookup(self, block):
        phys = self._mapping.get(block)
        return None if phys is None else (phys, 1)

    def physical_runs(self):
        return [(phys, 1) for _, phys in sorted(self._mapping.items())]


class FakeFs:
    def __init__(self, files):
        self._files = files          # path -> FakeExtents

    def exists(self, path):
        return path in self._files

    def lookup(self, path):
        return NS(extents=self._files[path])


class FakeBackend:
    def __init__(self, blocks):
        self._blocks = blocks        # phys block -> bytes or None
        self.reads = 0               # oracles must never bump this

    def read_blocks(self, lba, count):
        self.reads += 1
        return self._blocks.get(lba // 8)

    def peek_blocks(self, lba, count):
        # counter-free observer path, mirroring MediaBackend
        return self._blocks.get(lba // 8)


def ledger(path="/t0", pattern=0x41, created_durable=True,
           durable=((0, BLOCK),)):
    return NS(path=path, pattern=pattern,
              created_durable=created_durable, durable=list(durable))


def test_durability_clean():
    fs = FakeFs({"/t0": FakeExtents({0: 100})})
    backend = FakeBackend({100: bytes([0x41]) * BLOCK})
    assert check_durability(fs, backend, [ledger()]) == []


def test_durability_missing_file():
    vs = check_durability(FakeFs({}), FakeBackend({}), [ledger()])
    assert kinds(vs) == ["durability"] and "missing" in vs[0].detail


def test_durability_nothing_promised_is_clean():
    vs = check_durability(FakeFs({}), FakeBackend({}),
                          [ledger(created_durable=False)])
    assert vs == []


def test_durability_unmapped_block_and_wrong_bytes():
    fs = FakeFs({"/t0": FakeExtents({0: 100})})
    backend = FakeBackend({100: bytes([0x42]) * BLOCK})
    vs = check_durability(fs, backend,
                          [ledger(durable=[(0, BLOCK), (BLOCK, BLOCK)])])
    details = " ".join(v.detail for v in vs)
    assert "wrong bytes" in details
    assert "no extent mapping" in details


def test_durability_without_data_capture_checks_mapping_only():
    fs = FakeFs({"/t0": FakeExtents({0: 100})})
    assert check_durability(fs, FakeBackend({100: None}),
                            [ledger()]) == []


def test_isolation_clean_pattern_and_zeros():
    fs = FakeFs({"/t0": FakeExtents({0: 100, 1: 101})})
    backend = FakeBackend({100: bytes([0x41]) * BLOCK,
                           101: bytes(BLOCK)})
    assert check_isolation(fs, backend, [ledger()]) == []


def test_isolation_flags_foreign_bytes():
    fs = FakeFs({"/t0": FakeExtents({0: 100})})
    backend = FakeBackend(
        {100: bytes([0x42]) * 8 + bytes([0x41]) * (BLOCK - 8)})
    vs = check_isolation(fs, backend, [ledger()])
    assert kinds(vs) == ["isolation"]
    assert "foreign bytes" in vs[0].detail


# -- sanitizer ---------------------------------------------------------------

def san_machine(findings_by_kind):
    return NS(sim=NS(sanitizer=NS(
        findings=lambda kind: findings_by_kind.get(kind, []))))


def test_sanitizer_off_or_crashed_is_clean():
    assert check_sanitizer(NS(sim=NS(sanitizer=None)), False) == []
    m = san_machine({"stranded-process": [NS(message="p1")]})
    assert check_sanitizer(m, crashed=True) == []


def test_sanitizer_leak_findings_surface():
    m = san_machine({"leaked-event": [NS(message="ev #3 never fired")]})
    vs = check_sanitizer(m, crashed=False)
    assert kinds(vs) == ["sanitizer"]
    assert "leaked-event" in vs[0].detail
