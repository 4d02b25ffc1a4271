"""Exporter unit tests: Chrome trace shape, flamegraph self-time
accounting, fingerprint sensitivity, tree rendering."""

import json

from repro.obs.export import (
    DEVICE_TID,
    ancestor_chain,
    chrome_trace_json,
    collapsed_stacks,
    format_tree,
    span_index,
    tree_fingerprint,
    write_chrome_trace,
    write_flamegraph,
)
from repro.sim.spans import Span

# A tiny hand-built forest: one host op with a kernel child and a
# device-side nvme grandchild (tid -1), plus an unrelated root.
FOREST = [
    Span("op", "pread", 0, 100, span_id=1, parent_id=0, trace_id=1,
         tid=3),
    Span("syscall", "pread", 10, 90, span_id=2, parent_id=1, trace_id=1,
         tid=3),
    Span("nvme", "media", 20, 80, span_id=3, parent_id=2, trace_id=1,
         tid=-1, attrs=(("lba", 8),)),
    Span("op", "fsync", 200, 230, span_id=4, parent_id=0, trace_id=4,
         tid=3),
]


class TestChromeTrace:
    def test_event_shape(self):
        doc = json.loads(chrome_trace_json(FOREST))
        assert doc["displayTimeUnit"] == "ns"
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["tid"] for e in meta} == {3, DEVICE_TID}
        assert {e["args"]["name"] for e in meta} == {"thread-3", "device"}
        assert len(complete) == len(FOREST)
        media = next(e for e in complete if e["name"] == "nvme/media")
        assert media["tid"] == DEVICE_TID
        assert media["ts"] == 0.02 and media["dur"] == 0.06  # us
        assert media["args"]["parent_id"] == 2
        assert media["args"]["trace_id"] == 1
        assert media["args"]["lba"] == 8

    def test_sorted_and_stable(self):
        assert chrome_trace_json(FOREST) \
            == chrome_trace_json(list(reversed(FOREST)))

    def test_write_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        text = write_chrome_trace(FOREST, path)
        on_disk = path.read_text(encoding="utf-8")
        assert on_disk == text + "\n"
        json.loads(on_disk)  # valid JSON


class TestFlamegraph:
    def test_self_time_accounting(self):
        lines = collapsed_stacks(FOREST)
        weights = {}
        for line in lines.splitlines():
            stack, w = line.rsplit(" ", 1)
            weights[stack] = int(w)
        assert weights == {
            "op/pread": 20,                          # 100 - 80
            "op/pread;syscall/pread": 20,            # 80 - 60
            "op/pread;syscall/pread;nvme/media": 60,
            "op/fsync": 30,
        }
        # Self times add back up to the root durations.
        assert sum(weights.values()) == 100 + 30

    def test_write(self, tmp_path):
        path = tmp_path / "stacks.txt"
        text = write_flamegraph(FOREST, path)
        assert path.read_text(encoding="utf-8") == text


class TestFingerprint:
    def test_stable_under_reordering(self):
        assert tree_fingerprint(FOREST) \
            == tree_fingerprint(list(reversed(FOREST)))

    def test_sensitive_to_duration(self):
        changed = list(FOREST)
        changed[2] = Span("nvme", "media", 20, 81, span_id=3,
                          parent_id=2, trace_id=1, tid=-1)
        assert tree_fingerprint(changed) != tree_fingerprint(FOREST)

    def test_sensitive_to_structure(self):
        flat = [Span(s.category, s.label, s.start_ns, s.end_ns,
                     span_id=s.span_id, parent_id=0,
                     trace_id=s.span_id, tid=s.tid)
                for s in FOREST]
        assert tree_fingerprint(flat) != tree_fingerprint(FOREST)


class TestTreeHelpers:
    def test_ancestor_chain(self):
        index = span_index(FOREST)
        chain = ancestor_chain(FOREST[2], index)
        assert [s.span_id for s in chain] == [2, 1]
        assert ancestor_chain(FOREST[0], index) == []

    def test_orphan_stops_walk(self):
        orphan = Span("nvme", "media", 0, 1, span_id=9, parent_id=77,
                      trace_id=77, tid=-1)
        assert ancestor_chain(orphan, span_index([orphan])) == []

    def test_format_tree(self):
        text = format_tree(FOREST)
        lines = text.splitlines()
        assert lines[0].startswith("op/pread")
        assert lines[1].startswith("  syscall/pread")
        assert lines[2].startswith("    nvme/media")
        assert lines[3].startswith("op/fsync")
        assert "(trace 1)" in lines[2]

    def test_format_tree_max_roots(self):
        text = format_tree(FOREST, max_roots=1)
        assert "fsync" not in text

    def test_format_tree_max_roots_truncation(self):
        # max_roots cuts whole root subtrees, never children of a
        # surviving root.
        one = format_tree(FOREST, max_roots=1)
        assert [ln.lstrip().split("  ")[0] for ln in one.splitlines()] \
            == ["op/pread", "syscall/pread", "nvme/media"]
        # Larger-than-forest and zero bounds behave sanely.
        assert format_tree(FOREST, max_roots=99) == format_tree(FOREST)
        assert format_tree(FOREST, max_roots=0) == ""
        assert format_tree([], max_roots=3) == ""


class TestCounterEvents:
    def _series(self):
        from repro.sim.stats import TimeSeries
        a = TimeSeries("nvme.qp1.inflight")
        a.record(1000, 2.0)
        a.record(2000, 3.0)
        b = TimeSeries("kernel.blockio.inflight")
        b.record(1500, 1.0)
        return {"nvme.qp1.inflight": a, "kernel.blockio.inflight": b}

    def test_counter_event_shape(self):
        from repro.obs.export import counter_events
        events = counter_events(self._series())
        assert [e["ph"] for e in events] == ["C"] * 3
        # Sorted by gauge name, then sample order within a series.
        assert [e["name"] for e in events] == [
            "kernel.blockio.inflight",
            "nvme.qp1.inflight", "nvme.qp1.inflight"]
        assert events[1]["ts"] == 1.0 and events[2]["ts"] == 2.0  # us
        assert events[1]["args"] == {"value": 2.0}
        assert all(e["tid"] == 0 for e in events)

    def test_chrome_trace_with_counters(self):
        doc = json.loads(chrome_trace_json(FOREST,
                                           counters=self._series()))
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"M", "X", "C"}

    def test_omitting_counters_is_byte_identical(self):
        # The golden-trace contract: counters=None (or {}) must not
        # change a single byte of the legacy export.
        legacy = chrome_trace_json(FOREST)
        assert chrome_trace_json(FOREST, counters=None) == legacy
        assert chrome_trace_json(FOREST, counters={}) == legacy
        assert '"ph":"C"' not in legacy
