"""The examples must keep running: each is executed as a script.

latency_tour is excluded (it runs a minute of experiments); the
benchmark suite covers the same code paths.
"""

import pathlib
import runpy
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "examples"


@pytest.mark.parametrize("script", [
    "quickstart.py",
    "shared_device.py",
    "log_ingest.py",
    "fault_injection.py",
])
def test_example_runs(script, capsys):
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()  # every example reports something


def test_quickstart_shows_the_headline(capsys):
    runpy.run_path(str(EXAMPLES / "quickstart.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "direct 4KB read" in out
    assert "kernel 4KB read" in out
