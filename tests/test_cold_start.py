"""scripts/cold_start.py: the fresh-interpreter cost of a plain run."""

import importlib
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "scripts"))

cold_start = importlib.import_module("cold_start")


def test_self_times_reads_importtime_lines():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       152 |        152 |   _io",
        "import time:      1204 |       3310 | repro.nvme.spec",
        "some other line",
    ])
    assert cold_start.self_times(stderr) == {"_io": 152,
                                             "repro.nvme.spec": 1204}


def test_one_sample_times_a_fresh_import():
    assert 0 < cold_start.sample() < 60
