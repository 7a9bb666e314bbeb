"""Smoke test of the demos: each runs as a script and exits 0.

Demos 01, 03, 04 and 05 take a few seconds at most; demo 03 reads a
volume partition's ``volumes`` list, which the grid builds on demand.
Demo 02 is left out: it builds dense full-room maps and takes about
12 s, and its map code is covered by the pipeline and acceptance tests.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import subprocess_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "name", ["01_tdoa_and_gcc", "03_search_strategies", "04_two_sources", "05_tracking"]
)
def test_demo_runs(tmp_path, name):
    res = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        capture_output=True, text=True, cwd=tmp_path, env=subprocess_env(),
    )
    assert res.returncode == 0, res.stderr
