"""Import weight: a plain run loads none of the exporters or unused apps.

``import repro``, a ``Machine`` and the fio and WiredTiger models must
not load ``repro.obs.export`` (whose ``hashlib`` maps OpenSSL's
libcrypto), the other trace-only obs modules, or the app models the run
does not drive.  Checked in a fresh interpreter, since this test
process has long imported all of them.
"""

import json
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

UNWANTED = [
    "hashlib",
    "repro.obs.export",
    "repro.obs.metrics",
    "repro.obs.attribution",
    "repro.obs.exemplar",
    "repro.obs.timings",
    "repro.apps.kvell",
    "repro.apps.bpfkv",
    "repro.apps.lsm",
    "repro.apps.kvstore",
]

PROGRAM = f"""
import json, sys
sys.path.insert(0, {str(SRC)!r})
import repro
repro.Machine()
import repro.apps.fio, repro.apps.wiredtiger
print(json.dumps(sorted(m for m in {UNWANTED!r} if m in sys.modules)))
"""


def test_plain_run_loads_no_exporters_hashlib_or_unused_apps():
    proc = subprocess.run([sys.executable, "-c", PROGRAM],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []
