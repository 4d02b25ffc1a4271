"""The whole-program pass: graphs, inference, SIM015-SIM018.

Toy packages are written into tmp_path and analysed with purpose-built
manifests; the real ``src/repro`` tree is analysed with the default
manifest at the end (mirroring what CI enforces).
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    FriendEdge,
    Layer,
    Manifest,
    ManifestError,
    build_program,
    default_manifest,
    export_dot,
    export_json,
    lint_program,
    lint_source,
)
from repro.analysis.linter import ORACLE_MUTATORS

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def write_pkg(root: Path, files: dict) -> Path:
    pkg = root / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    for rel, src in files.items():
        path = pkg / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.parent != pkg and \
                not (path.parent / "__init__.py").exists():
            (path.parent / "__init__.py").write_text("")
        path.write_text(textwrap.dedent(src))
    return pkg


def empty_manifest(**kw) -> Manifest:
    defaults = dict(package="pkg", layers={}, assignments={})
    defaults.update(kw)
    return Manifest(**defaults)


# ---------------------------------------------------------------------------
# SIM016: transitive entropy (the planted acceptance fixture)
# ---------------------------------------------------------------------------

MODEL_SRC = """
    from .sched import stamp

    def submit(sim, req):
        t = stamp()
        return (t, req)
"""


def entropy_pkg(tmp_path):
    return write_pkg(tmp_path, {
        "clockutil.py": """
            import time

            def now_ns():
                return int(time.time() * 1e9)
        """,
        "sched.py": """
            from .clockutil import now_ns

            def stamp():
                return now_ns()
        """,
        "model.py": MODEL_SRC,
    })


def test_single_module_pass_cannot_see_the_chain():
    # the helper is two calls away: per-module SIM001 sees nothing
    assert lint_source(textwrap.dedent(MODEL_SRC)) == []


def test_sim016_flags_model_code_with_full_chain(tmp_path):
    pkg = entropy_pkg(tmp_path)
    vs = lint_program(pkg, manifest=empty_manifest(),
                      repo_root=tmp_path)
    flagged = [v for v in vs if v.rule.id == "SIM016"
               and v.path == "pkg/model.py"]
    assert len(flagged) == 1
    msg = flagged[0].message
    # the full chain, ending at the sink with its file:line
    assert "model.submit" in msg
    assert "sched.stamp" in msg
    assert "clockutil.now_ns" in msg
    assert "time.time()" in msg
    assert "pkg/clockutil.py:" in msg


def test_sim016_skips_the_direct_sink_itself(tmp_path):
    # clockutil.now_ns has the call in its own body: SIM001's turf
    pkg = entropy_pkg(tmp_path)
    vs = lint_program(pkg, manifest=empty_manifest(),
                      repo_root=tmp_path)
    assert not [v for v in vs if v.rule.id == "SIM016"
                and v.path == "pkg/clockutil.py"]


def test_sanctioned_sink_does_not_taint_callers(tmp_path):
    pkg = write_pkg(tmp_path, {
        "clockutil.py": """
            import time

            def now_ns():
                # host-side progress meter, declared boundary
                return int(time.time() * 1e9)  # simlint: ignore[SIM001]
        """,
        "model.py": """
            from .clockutil import now_ns

            def submit(sim):
                return now_ns()
        """,
    })
    vs = lint_program(pkg, manifest=empty_manifest(),
                      repo_root=tmp_path)
    assert not [v for v in vs if v.rule.id == "SIM016"]


def test_sim016_through_method_calls(tmp_path):
    pkg = write_pkg(tmp_path, {
        "clock.py": """
            import time

            class Clock:
                def read(self):
                    return time.monotonic()
        """,
        "model.py": """
            from .clock import Clock

            class Device:
                def __init__(self):
                    self.clock = Clock()

                def latency(self):
                    return self.clock.read()
        """,
    })
    vs = lint_program(pkg, manifest=empty_manifest(),
                      repo_root=tmp_path)
    flagged = [v for v in vs if v.rule.id == "SIM016"]
    assert any(v.path == "pkg/model.py" for v in flagged)


# ---------------------------------------------------------------------------
# SIM017: impure oracle calls (inference, not name lists)
# ---------------------------------------------------------------------------

def oracle_pkg(tmp_path):
    return write_pkg(tmp_path, {
        "store.py": """
            class Store:
                def __init__(self):
                    self.items = {}

                def insert_item(self, key, value):
                    self.items[key] = value
        """,
        "helpers.py": """
            def refresh_cache(store, key, value):
                store.insert_item(key, value)
                return value
        """,
        "oracles.py": """
            from .helpers import refresh_cache

            def check_thing(store):
                refresh_cache(store, "probe", 1)
                return []
        """,
    })


def test_sim017_fires_via_inference(tmp_path):
    pkg = oracle_pkg(tmp_path)
    manifest = empty_manifest(oracle_modules=("pkg.oracles",))
    vs = lint_program(pkg, manifest=manifest, repo_root=tmp_path)
    flagged = [v for v in vs if v.rule.id == "SIM017"]
    assert len(flagged) == 1
    assert flagged[0].path == "pkg/oracles.py"
    msg = flagged[0].message
    assert "refresh_cache" in msg
    # the inference chain reaches the underlying mutation
    assert "insert_item" in msg


def test_sim017_helper_is_not_in_any_hardcoded_list():
    # acceptance criterion: the flagged helper's name appears in no
    # hardcoded mutator list — SIM017 is inference, not name matching
    assert "refresh_cache" not in ORACLE_MUTATORS
    assert "insert_item" not in ORACLE_MUTATORS


def test_sim017_pure_reads_are_fine(tmp_path):
    pkg = write_pkg(tmp_path, {
        "helpers.py": """
            def count_items(store):
                total = 0
                for key in sorted(store.items):
                    total += 1
                return total
        """,
        "oracles.py": """
            from .helpers import count_items

            def check_thing(store):
                out = []
                if count_items(store) < 0:
                    out.append("impossible")
                return out
        """,
    })
    manifest = empty_manifest(oracle_modules=("pkg.oracles",))
    vs = lint_program(pkg, manifest=manifest, repo_root=tmp_path)
    assert not [v for v in vs if v.rule.id == "SIM017"]


def test_sim017_scratch_state_is_fine(tmp_path):
    # mutating an object the oracle itself constructed is not a
    # mutation of the run under audit
    pkg = write_pkg(tmp_path, {
        "store.py": """
            class Tally:
                def __init__(self):
                    self.count = 0

                def bump(self):
                    self.count += 1
        """,
        "oracles.py": """
            from .store import Tally

            def check_thing(machine):
                tally = Tally()
                tally.bump()
                return []
        """,
    })
    manifest = empty_manifest(oracle_modules=("pkg.oracles",))
    vs = lint_program(pkg, manifest=manifest, repo_root=tmp_path)
    assert not [v for v in vs if v.rule.id == "SIM017"]


# ---------------------------------------------------------------------------
# SIM015: the architecture DAG
# ---------------------------------------------------------------------------

def layered_manifest(friends=()):
    return Manifest(
        package="pkg",
        layers={"low": Layer("low", ()),
                "high": Layer("high", ("low",))},
        assignments={"pkg.low": "low", "pkg.high": "high"},
        friends=tuple(friends))


def test_sim015_flags_upward_import(tmp_path):
    pkg = write_pkg(tmp_path, {
        "low/core.py": """
            from ..high.api import helper

            def f():
                return helper()
        """,
        "high/api.py": """
            def helper():
                return 1
        """,
    })
    vs = lint_program(pkg, manifest=layered_manifest(),
                      repo_root=tmp_path)
    flagged = [v for v in vs if v.rule.id == "SIM015"]
    assert len(flagged) == 1
    assert flagged[0].path == "pkg/low/core.py"
    assert "layer 'low'" in flagged[0].message
    assert "layer 'high'" in flagged[0].message


def test_sim015_downward_import_is_fine(tmp_path):
    pkg = write_pkg(tmp_path, {
        "low/core.py": """
            def f():
                return 1
        """,
        "high/api.py": """
            from ..low.core import f

            def helper():
                return f()
        """,
    })
    vs = lint_program(pkg, manifest=layered_manifest(),
                      repo_root=tmp_path)
    assert not [v for v in vs if v.rule.id == "SIM015"]


def test_sim015_friend_edge_exempts(tmp_path):
    pkg = write_pkg(tmp_path, {
        "low/core.py": """
            from ..high.api import helper

            def f():
                return helper()
        """,
        "high/api.py": """
            def helper():
                return 1
        """,
    })
    friend = FriendEdge("pkg.low.core", "pkg.high.api",
                        "test exemption")
    vs = lint_program(pkg, manifest=layered_manifest([friend]),
                      repo_root=tmp_path)
    assert not [v for v in vs if v.rule.id == "SIM015"]


def test_sim015_detects_import_cycles(tmp_path):
    pkg = write_pkg(tmp_path, {
        "alpha.py": """
            from . import beta

            def a():
                return beta.b()
        """,
        "beta.py": """
            def b():
                from .alpha import a
                return a
        """,
    })
    vs = lint_program(pkg, manifest=empty_manifest(),
                      repo_root=tmp_path)
    cycles = [v for v in vs if v.rule.id == "SIM015"
              and "cycle" in v.message]
    assert len(cycles) == 1
    assert "pkg.alpha" in cycles[0].message
    assert "pkg.beta" in cycles[0].message


# ---------------------------------------------------------------------------
# SIM018: hot-path allocation
# ---------------------------------------------------------------------------

def test_sim018_flags_unslotted_allocation_on_hot_path(tmp_path):
    pkg = write_pkg(tmp_path, {
        "engine.py": """
            class Evt:
                def __init__(self):
                    self.x = 1

            class SlottedEvt:
                __slots__ = ("x",)

                def __init__(self):
                    self.x = 1

            class Engine:
                def run(self):
                    first = Evt()
                    second = SlottedEvt()
                    self.helper()
                    return (first, second)

                def helper(self):
                    return Evt()
        """,
        "setup.py": """
            from .engine import Evt

            def build():
                # not reachable from the dispatch entry: fine
                return Evt()
        """,
    })
    manifest = empty_manifest(hot_entries=("pkg.engine:Engine.run",))
    vs = lint_program(pkg, manifest=manifest, repo_root=tmp_path)
    flagged = [v for v in vs if v.rule.id == "SIM018"]
    assert len(flagged) == 2                    # run + helper, not setup
    assert all(v.path == "pkg/engine.py" for v in flagged)
    assert all("Evt" in v.message for v in flagged)
    assert not any("SlottedEvt (" in v.message for v in flagged)
    helper_hit = [v for v in flagged if "helper" in v.message]
    assert helper_hit and "Engine.run" in helper_hit[0].message


def test_sim018_dataclass_slots_and_exceptions_exempt(tmp_path):
    pkg = write_pkg(tmp_path, {
        "engine.py": """
            from dataclasses import dataclass

            @dataclass(slots=True)
            class Sample:
                x: int

            class EngineError(Exception):
                pass

            class Engine:
                def run(self):
                    if Sample(1).x > 2:
                        raise EngineError("impossible")
        """,
    })
    manifest = empty_manifest(hot_entries=("pkg.engine:Engine.run",))
    vs = lint_program(pkg, manifest=manifest, repo_root=tmp_path)
    assert not [v for v in vs if v.rule.id == "SIM018"]


def test_sim018_unresolved_hot_entry_is_an_error(tmp_path):
    # a renamed or inlined dispatch function must not silently leave
    # the hot path: an entry naming no function stops the pass
    pkg = write_pkg(tmp_path, {
        "engine.py": """
            class Engine:
                def run(self):
                    return 1
        """,
    })
    manifest = empty_manifest(hot_entries=("pkg.engine:Engine.run",
                                           "pkg.engine:Engine.bogus"))
    with pytest.raises(ManifestError, match="pkg.engine:Engine.bogus"):
        lint_program(pkg, manifest=manifest, repo_root=tmp_path)
    manifest = empty_manifest(hot_entries=("pkg.engine:Engine.run",))
    assert lint_program(pkg, manifest=manifest, repo_root=tmp_path) == []


# ---------------------------------------------------------------------------
# Graph building details
# ---------------------------------------------------------------------------

def test_import_edges_skip_implicit_ancestors(tmp_path):
    pkg = write_pkg(tmp_path, {
        "sub/leaf.py": """
            def f():
                return 1
        """,
        "user.py": """
            from . import sub
            from .sub import leaf

            def g():
                return leaf.f()
        """,
    })
    program = build_program(pkg, repo_root=tmp_path)
    imports = set(program.modules["pkg.user"].imports)
    # ``from . import sub`` / ``from .sub import leaf`` depend on the
    # named submodules, not on the bare package facade
    assert "pkg.sub" in imports
    assert "pkg.sub.leaf" in imports
    assert "pkg" not in imports


def test_reexport_chain_is_followed(tmp_path):
    pkg = write_pkg(tmp_path, {
        "impl.py": """
            import time

            def now():
                return time.time()
        """,
        "api/__init__.py": """
            from ..impl import now
        """,
        "model.py": """
            from .api import now

            def run(sim):
                return now()
        """,
    })
    vs = lint_program(pkg, manifest=empty_manifest(),
                      repo_root=tmp_path)
    flagged = [v for v in vs if v.rule.id == "SIM016"
               and v.path == "pkg/model.py"]
    assert flagged and "impl.now" in flagged[0].message


def test_unparseable_module_does_not_crash_the_pass(tmp_path):
    pkg = write_pkg(tmp_path, {
        "broken.py": "def f(:\n    pass\n",
        "fine.py": """
            def g():
                return 1
        """,
    })
    program = build_program(pkg, repo_root=tmp_path)
    assert "pkg.broken" in program.parse_failures
    assert lint_program(pkg, manifest=empty_manifest(),
                        repo_root=tmp_path) == []


# ---------------------------------------------------------------------------
# The real tree (what CI enforces)
# ---------------------------------------------------------------------------

def test_real_repo_program_pass_is_clean():
    # also proves every default hot entry resolves (ManifestError)
    vs = lint_program(REPO_ROOT / "src" / "repro",
                      repo_root=REPO_ROOT)
    assert vs == [], "\n".join(
        f"{v.rule.id} {v.path}:{v.line} {v.message}" for v in vs)


@pytest.fixture(scope="module")
def real_program():
    """One parse of ``src/repro`` for the tests that only read it."""
    return build_program(REPO_ROOT / "src" / "repro", repo_root=REPO_ROOT)


def test_real_repo_graph_shape(real_program):
    program = real_program
    manifest = default_manifest()
    assert "repro.sim.engine" in program.modules
    assert len(program.modules) > 50
    assert len(program.functions) > 500
    assert manifest.layer_of("repro.sim.engine") == "sim"
    assert manifest.layer_of("repro.nvme.device") == "nvme"
    assert not manifest.import_allowed("repro.nvme.device",
                                       "repro.apps.fio")
    assert manifest.import_allowed("repro.kernel.blockio",
                                   "repro.sim.engine")


def test_real_repo_graph_exports(real_program):
    program = real_program
    dot = export_dot(program)
    assert dot.startswith("digraph")
    assert '"kernel" -> "sim"' in dot
    assert "friend" in dot                       # dashed friend edges
    data = json.loads(export_json(program))
    assert data["package"] == "repro"
    assert data["modules"]["repro.sim.engine"]["layer"] == "sim"
    assert data["friends"], "friend edges should be on public record"
    assert any("Simulator.run" in e for e in data["hot_entries"])
