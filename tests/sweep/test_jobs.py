"""Sweep cell execution: metric shape, determinism, fault semantics."""

from repro.bench.sweep import GridPoint, run_cell


class TestRunSweepPoint:
    def test_fio_record_shape(self):
        metrics = run_cell(GridPoint("bypassd", "randread-4k", "none"))
        for key in ("ops", "mean_ns", "p50_ns", "p99_ns", "p999_ns",
                    "iops", "mbps", "retries", "faults_injected",
                    "slo_breaches", "user_ns", "kernel_ns", "device_ns",
                    "sim_end_ns", "tenant0.p99_ns"):
            assert key in metrics, key
        assert metrics["ops"] == 24.0
        assert metrics["retries"] == 0.0
        # The direct path books no kernel time and no kernel layer.
        assert metrics["kernel_ns"] == 0.0
        assert not any(k.endswith(".kernel_ns") for k in metrics)
        assert not any(k.startswith("tenant1.") for k in metrics)

    def test_ycsb_record_has_per_tenant_rows(self):
        metrics = run_cell(GridPoint("sync", "ycsb-b-2t", "none"))
        assert metrics["tenant0.ops"] > 0 and metrics["tenant1.ops"] > 0
        assert metrics["ops"] == \
            metrics["tenant0.ops"] + metrics["tenant1.ops"]
        # Every syscall of the data path crosses ext4.
        assert metrics["vfs-ext4.kernel_ns"] > 0

    def test_cell_is_deterministic(self):
        point = GridPoint("bypassd", "randread-4k", "none")
        assert run_cell(point) == run_cell(point)

    def test_media_retry_cell_books_retry_counters(self):
        """The media-retry plan injects one read error; bypassd's
        userlib absorbs it as a retry, and the row must expose both
        the injection and the retry so the gate pins their drift."""
        metrics = run_cell(GridPoint("bypassd", "randread-4k",
                                     "media-retry"))
        assert metrics["faults_injected"] == 1.0
        assert metrics["retries"] == 1.0


def test_blame_sees_async_io_under_a_latency_spike():
    """io_uring reads are op roots whose device phases nest under the
    op, so the spike plan's four +400 us completions land in the
    device column and nowhere else on the split."""
    none, spike = (run_cell(GridPoint("io_uring", "randread-4k", f))
                   for f in ("none", "spike"))
    assert spike["device_ns"] > none["device_ns"]
    for key in ("user_ns", "kernel_ns", "sqpoll.kernel_ns"):
        assert spike[key] == none[key], key
