"""Grid expansion, excludes, injections, and the committed manifest."""

import json

import pytest

from repro.sweep.grid import (
    MANIFEST_SCHEMA,
    SweepManifest,
    apply_injections,
    parse_injection,
)


def tiny_manifest(**overrides):
    data = {
        "schema": MANIFEST_SCHEMA,
        "workloads": {
            "wl-a": {"kind": "fio", "rw": "randread", "block_size": 4096,
                     "tenants": 1, "ops": 4, "file_mib": 1, "seed": 42},
            "wl-b": {"kind": "ycsb", "mix": "b", "block_size": 4096,
                     "tenants": 2, "ops": 4, "records": 32, "seed": 42},
        },
        "faults": {"none": None, "err": "seed=7,media_read_error_nth=2"},
        "grids": {
            "default": {
                "engines": ["bypassd", "sync"],
                "workloads": ["wl-a", "wl-b"],
                "faults": ["none", "err"],
            },
        },
        "tolerances": {},
    }
    data.update(overrides)
    return data


class TestExpansion:
    def test_default_grid_is_sorted_cross_product(self):
        m = SweepManifest.from_dict(tiny_manifest())
        cells = m.cells("default")
        assert len(cells) == 8
        assert cells == sorted(cells)
        assert "engine=bypassd/wl=wl-a/faults=none" in cells
        assert "engine=sync/wl=wl-b/faults=err" in cells

    def test_axis_reordering_does_not_change_membership(self):
        a = SweepManifest.from_dict(tiny_manifest())
        reordered = tiny_manifest()
        grid = reordered["grids"]["default"]
        grid["engines"] = list(reversed(grid["engines"]))
        grid["faults"] = list(reversed(grid["faults"]))
        b = SweepManifest.from_dict(reordered)
        assert a.cells("default") == b.cells("default")

    def test_exclude_prunes_matching_cells(self):
        data = tiny_manifest()
        data["grids"]["default"]["exclude"] = [
            {"engine": "sync", "faults": "err"}]
        m = SweepManifest.from_dict(data)
        cells = m.cells("default")
        assert len(cells) == 6
        assert not any("engine=sync" in c and "faults=err" in c
                       for c in cells)
        # The partial matcher leaves the other sync cells alone.
        assert "engine=sync/wl=wl-a/faults=none" in cells

    def test_unknown_grid_raises(self):
        m = SweepManifest.from_dict(tiny_manifest())
        with pytest.raises(KeyError, match="unknown grid"):
            m.expand("nope")

    def test_point_carries_resolved_specs(self):
        m = SweepManifest.from_dict(tiny_manifest())
        p = m.point_for("engine=bypassd/wl=wl-b/faults=err",
                        grid="default")
        assert p.faults_spec == "seed=7,media_read_error_nth=2"
        assert dict(p.workload_spec)["kind"] == "ycsb"
        assert p.tenants == 2

    def test_point_for_without_grid_parses_cell_id(self):
        m = SweepManifest.from_dict(tiny_manifest())
        p = m.point_for("engine=whatever/wl=wl-a/faults=none")
        assert p.engine == "whatever" and p.faults_spec is None
        with pytest.raises(KeyError, match="unknown workload"):
            m.point_for("engine=x/wl=missing/faults=none")


class TestValidation:
    def test_bad_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            SweepManifest.from_dict(tiny_manifest(schema=99))

    def test_unknown_workload_in_grid_rejected(self):
        data = tiny_manifest()
        data["grids"]["default"]["workloads"].append("ghost")
        with pytest.raises(ValueError, match="unknown workload"):
            SweepManifest.from_dict(data)

    def test_unknown_fault_plan_in_grid_rejected(self):
        data = tiny_manifest()
        data["grids"]["default"]["faults"].append("ghost")
        with pytest.raises(ValueError, match="unknown fault plan"):
            SweepManifest.from_dict(data)

    def test_exclude_rule_with_bad_axis_rejected(self):
        data = tiny_manifest()
        data["grids"]["default"]["exclude"] = [{"os": "plan9"}]
        with pytest.raises(ValueError, match="exclude rule"):
            SweepManifest.from_dict(data)

    def test_unknown_workload_kind_rejected(self):
        data = tiny_manifest()
        data["workloads"]["wl-a"]["kind"] = "tpcc"
        with pytest.raises(ValueError, match="unknown kind"):
            SweepManifest.from_dict(data)


class TestInjections:
    def test_parse_single_axis(self):
        inj = parse_injection("engine=bypassd:seed=7,media_read_error_nth=3")
        assert inj.match == (("engine", "bypassd"),)
        assert inj.faults_spec == "seed=7,media_read_error_nth=3"

    def test_parse_multi_axis(self):
        inj = parse_injection(
            "engine=sync,workload=wl-a:seed=1,latency_spike_nth=2")
        assert dict(inj.match) == {"engine": "sync", "workload": "wl-a"}

    @pytest.mark.parametrize("bad", [
        "no-colon-here",
        ":seed=7",
        "engine=bypassd:",
        "os=plan9:seed=7",
        "bypassd:seed=7",
    ])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_injection(bad)

    def test_apply_replaces_matching_cells_only(self):
        m = SweepManifest.from_dict(tiny_manifest())
        points = m.expand("default")
        inj = parse_injection("engine=bypassd,faults=none:seed=9,"
                              "media_read_error_nth=1")
        pairs = apply_injections(points, [inj])
        assert [p.cell for p, _ in pairs] == [p.cell for p in points]
        for point, spec in pairs:
            if point.engine == "bypassd" and point.faults == "none":
                assert spec == "seed=9,media_read_error_nth=1"
            else:
                assert spec == point.faults_spec

    def test_last_matching_injection_wins(self):
        m = SweepManifest.from_dict(tiny_manifest())
        points = m.expand("default")
        first = parse_injection("engine=bypassd:seed=1,media_read_error_nth=1")
        second = parse_injection("engine=bypassd:seed=2,media_read_error_nth=2")
        pairs = apply_injections(points, [first, second])
        specs = {spec for p, spec in pairs if p.engine == "bypassd"}
        assert specs == {"seed=2,media_read_error_nth=2"}


class TestCommittedManifest:
    def test_default_grid_excludes_raw_error_engines(self):
        """io_uring and libaio surface media errors as raw aio
        failures instead of retrying; the grids must exclude those
        pairings or every sweep run dies."""
        m = SweepManifest.builtin()
        for grid in m.grid_names():
            for cell in m.cells(grid):
                assert not (("io_uring" in cell or "libaio" in cell)
                            and "faults=media-retry" in cell), cell

    def test_wide_grid_superset_of_default(self):
        """Nightly refreshes the default-grid baseline from the wide
        run's records, so every default cell must exist in wide."""
        m = SweepManifest.builtin()
        assert set(m.cells("default")) <= set(m.cells("wide"))

    def test_roundtrip_through_json(self):
        m = SweepManifest.builtin()
        again = SweepManifest.from_dict(json.loads(
            json.dumps(m.to_dict())))
        assert again.cells("default") == m.cells("default")
        assert again.fingerprint_material() == m.fingerprint_material()

