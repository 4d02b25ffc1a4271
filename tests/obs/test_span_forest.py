"""The span forest of a contended run, pinned literally.

One core, three threads started at the same instant: a sync pwrite then
pread, an XRP chained read then a libaio 8 KiB read, and a BypassD
4 KiB write whose VBA translation outlasts its transfer.  The XRP
thread queues for the core at its kernel entry, so its
``mode-switch-enter`` span must hold the run-queue wait (it starts at
0, not at the grant); the write's device phases are transfer, translate
remainder and media back to back.

Each span is compared as (category, label, start, end, tid, parent
label, attrs), times relative to the start of the run.  Span ids are
allocation-order fields and stay out of the comparison.  The literals
were taken from the tree that charged every phase as its own delay, so
any fused run of delays must trace exactly the same forest.
"""

from repro import Machine
from repro.baselines.registry import make_engine
from repro.hw.params import DEFAULT_PARAMS

EXPECTED = [
    ('device', 'direct-io', 6912, 12270, 2, 'pwrite', ()),
    ('device', 'kernel-io', 6700, 13120, 1, '', ()),
    ('device', 'kernel-io', 13120, 17213, 0, 'pwrite', ()),
    ('device', 'kernel-io', 14320, 21043, 1, '', ()),
    ('device', 'kernel-io', 21043, 25583, 0, 'pread', ()),
    ('device', 'kernel-io', 25583, 30138, 1, 'io_getevents', ()),
    ('kernel', 'block-layer', 5940, 6480, 1, '', ()),
    ('kernel', 'block-layer', 12360, 12900, 0, 'pwrite', ()),
    ('kernel', 'block-layer', 20283, 20823, 0, 'pread', ()),
    ('kernel', 'block-layer', 24413, 24953, 1, 'io_submit', ()),
    ('kernel', 'mode-switch-enter', 0, 160, 0, 'pwrite', ()),
    ('kernel', 'mode-switch-enter', 0, 3130, 1, '', ()),
    ('kernel', 'mode-switch-enter', 17313, 17473, 0, 'pread', ()),
    ('kernel', 'mode-switch-exit', 17213, 17313, 0, 'pwrite', ()),
    ('kernel', 'mode-switch-exit', 21043, 21143, 1, '', ()),
    ('kernel', 'mode-switch-exit', 25583, 25683, 0, 'pread', ()),
    ('kernel', 'nvme-driver', 6480, 6700, 1, '', ()),
    ('kernel', 'nvme-driver', 12900, 13120, 0, 'pwrite', ()),
    ('kernel', 'nvme-driver', 20823, 21043, 0, 'pread', ()),
    ('kernel', 'nvme-driver', 24953, 25173, 1, 'io_submit', ()),
    ('kernel', 'vfs-ext4', 160, 2970, 0, 'pwrite', ()),
    ('kernel', 'vfs-ext4', 17473, 20283, 0, 'pread', ()),
    ('nvme', 'complete', 9819, 9879, -1, 'kernel-io', ()),
    ('nvme', 'complete', 12210, 12270, -1, 'direct-io', ()),
    ('nvme', 'complete', 17153, 17213, -1, 'kernel-io', ()),
    ('nvme', 'complete', 17439, 17499, -1, 'kernel-io', ()),
    ('nvme', 'complete', 24996, 25056, -1, 'kernel-io', ()),
    ('nvme', 'complete', 30078, 30138, -1, 'pread', ()),
    ('nvme', 'fetch', 6700, 6880, -1, 'kernel-io', ()),
    ('nvme', 'fetch', 6912, 7092, -1, 'direct-io', ()),
    ('nvme', 'fetch', 13120, 13300, -1, 'kernel-io', ()),
    ('nvme', 'fetch', 14320, 14500, -1, 'kernel-io', ()),
    ('nvme', 'fetch', 21043, 21223, -1, 'kernel-io', ()),
    ('nvme', 'fetch', 25173, 25353, -1, 'pread', ()),
    ('nvme', 'media', 6880, 9700, -1, 'kernel-io', ()),
    ('nvme', 'media', 9310, 12210, -1, 'direct-io', ()),
    ('nvme', 'media', 14253, 17153, -1, 'kernel-io', ()),
    ('nvme', 'media', 14500, 17320, -1, 'kernel-io', ()),
    ('nvme', 'media', 21223, 24043, -1, 'kernel-io', ()),
    ('nvme', 'media', 25353, 28173, -1, 'pread', ()),
    ('nvme', 'transfer', 7282, 8235, -1, 'direct-io', ()),
    ('nvme', 'transfer', 9700, 9819, -1, 'kernel-io', ()),
    ('nvme', 'transfer', 13300, 14253, -1, 'kernel-io', ()),
    ('nvme', 'transfer', 17320, 17439, -1, 'kernel-io', ()),
    ('nvme', 'transfer', 24043, 24996, -1, 'kernel-io', ()),
    ('nvme', 'transfer', 28173, 30078, -1, 'pread', ()),
    ('nvme', 'translate', 8235, 9310, -1, 'direct-io', ()),
    ('op', 'pread', 21143, 30238, 1, '', ()),
    ('op', 'pwrite', 0, 12360, 2, '', ()),
    ('syscall', 'io_getevents', 25273, 30238, 1, 'pread', ()),
    ('syscall', 'io_submit', 21143, 25273, 1, 'pread', ()),
    ('syscall', 'pread', 17313, 25683, 0, '', ()),
    ('syscall', 'pwrite', 0, 17313, 0, '', (('wait.inode_lock', 9390),)),
]


def _forest():
    # A long emulated ATS delay (as Figure 5 sweeps) makes the write's
    # translation outlast its 4 KiB transfer.
    params = DEFAULT_PARAMS.replace(cpu_cores=1, ats_processing_ns=1500)
    m = Machine(params=params, trace=True)
    p_sync, p_kern, p_byp = (m.spawn_process(n)
                             for n in ("sync", "kern", "bypassd"))
    t_sync, t_kern, t_byp = (p.new_thread()
                             for p in (p_sync, p_kern, p_byp))
    sync = make_engine(m, p_sync, "sync")
    xrp = make_engine(m, p_kern, "xrp")
    aio = make_engine(m, p_kern, "libaio")
    byp = make_engine(m, p_byp, "bypassd")
    files = {}

    def setup():
        f = yield from t_sync.run(sync.open(t_sync, "/s", write=True,
                                            create=True))
        yield from t_sync.run(f.pwrite(t_sync, 0, 8192, b"s" * 8192))
        files["sync"] = f
        g = yield from t_sync.run(sync.open(t_sync, "/k", write=True,
                                            create=True))
        yield from t_sync.run(g.pwrite(t_sync, 0, 16384, b"k" * 16384))
        files["xrp"] = yield from t_kern.run(xrp.open(t_kern, "/k"))
        files["aio"] = yield from t_kern.run(aio.open(t_kern, "/k"))
        h = yield from t_sync.run(sync.open(t_sync, "/b", write=True,
                                            create=True))
        yield from t_sync.run(h.pwrite(t_sync, 0, 1 << 20, bytes(1 << 20)))
        yield from t_sync.run(h.close(t_sync))   # leave /b to BypassD
        files["bypassd"] = yield from t_byp.run(byp.open(t_byp, "/b",
                                                         write=True))

    m.run_process(setup())
    m.tracer.clear()
    t0 = m.now

    def sync_ops():
        yield from files["sync"].pwrite(t_sync, 4096, 4096, b"S" * 4096)
        yield from files["sync"].pread(t_sync, 0, 4096)

    def kernel_ops():
        yield from files["xrp"].chained_read(t_kern, [0, 8192], 512)
        yield from files["aio"].pread(t_kern, 4096, 8192)

    def bypassd_write():
        yield from files["bypassd"].pwrite(t_byp, 512 * 1024, 4096,
                                           b"B" * 4096)

    for thread, gen in ((t_sync, sync_ops()), (t_kern, kernel_ops()),
                        (t_byp, bypassd_write())):
        m.spawn(thread, gen)
    m.run()
    by_id = {s.span_id: s for s in m.tracer.spans}
    return sorted(
        (s.category, s.label, s.start_ns - t0, s.end_ns - t0, s.tid,
         by_id[s.parent_id].label if s.parent_id in by_id else "",
         s.attrs)
        for s in m.tracer.spans)


def test_contended_span_forest_is_unchanged():
    assert _forest() == EXPECTED
