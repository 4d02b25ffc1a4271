#!/usr/bin/env python3
"""cold_start — what a fresh interpreter pays before the first event.

    python scripts/cold_start.py        (or: make cold-start)

Times ``import repro; repro.Machine()`` in 12 fresh interpreters and
prints the fastest, then prints the 10 modules with the largest
``-X importtime`` self time (each module's fastest over 5 more fresh
interpreters), leaving out the modules interpreter start-up loads.
The source is byte-compiled first, so no sample pays for compiling.
The numbers in docs/engine_performance.md ("Optional subsystems on
first use") come from this script.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SAMPLES = 12
IMPORTTIME_RUNS = 5
TOP = 10

COLD_START = "import repro; repro.Machine()"
# The child reads its own clock, so interpreter start-up is left out.
TIMED = ("import time; t0 = time.perf_counter(); "
         f"{COLD_START}; print(time.perf_counter() - t0)")


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, check=True)


def sample() -> float:
    """Seconds one fresh interpreter takes to import and build."""
    return float(_python("-c", TIMED).stdout)


def self_times(stderr: str) -> Dict[str, int]:
    """Module -> self time (us) from ``-X importtime`` output."""
    out: Dict[str, int] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, _cumulative, module = line[len("import time:"):].split("|")
        if self_us.strip().isdigit():
            out[module.strip()] = int(self_us)
    return out


def top_self_times() -> List[Tuple[str, int]]:
    """The TOP modules by self time, each its fastest over the runs,
    leaving out those the interpreter had loaded before the import."""
    at_start = set(_python(
        "-c", "import sys; print(*sys.modules)").stdout.split())
    best: Dict[str, int] = {}
    for _ in range(IMPORTTIME_RUNS):
        run = self_times(_python("-X", "importtime", "-c", COLD_START).stderr)
        for module, us in run.items():
            if module not in at_start:
                best[module] = min(us, best.get(module, us))
    return sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP]


def main() -> int:
    _python("-m", "compileall", "-q", str(SRC / "repro"))
    fastest = min(sample() for _ in range(SAMPLES))
    print(f"import repro; repro.Machine(): fastest of {SAMPLES} fresh "
          f"interpreters {fastest * 1e3:.1f} ms")
    print(f"largest -X importtime self times (us, fastest of "
          f"{IMPORTTIME_RUNS}):")
    for module, us in top_self_times():
        print(f"  {us:>7,}  {module}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
