"""scripts/event_sites.py: events per op by posting call site.

The script charges each bump of ``Simulator._seq`` (one per posted
event) to a call site, so its total is the ``_seq`` delta over the
rep's timed window: the figure perfbench reports as
``sim.events_per_op``.  Counting calls into one post function instead
would miss the posts that ``timeout`` and ``succeed`` make inline.
"""

import importlib
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "scripts"))

event_sites = importlib.import_module("event_sites")


def test_site_total_is_the_seq_delta_perfbench_reports():
    workload = event_sites.WORKLOADS["fmap-cold-warm"]
    sites, events = event_sites.count_sites(workload, 101)
    assert events > workload.ops
    assert sum(sites.values()) == events
    with event_sites.RepProbe(counting=True) as probe:
        workload.rep(101, probe)
    assert probe.counts["sim.events"] == events
    # the inline timeout posts land on the model's call sites
    assert sites["kernel/syscalls.py:leave > sim/cpu.py:compute"] \
        == 3 * workload.ops
