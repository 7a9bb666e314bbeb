"""Smoke test of the demos: each runs as a script and exits 0.

Demos 01, 03, 04 and 05 take a few seconds at most; demo 03 reads a
volume partition's ``volumes`` list, which the grid builds on demand.
Demo 02, the one demo that writes a PGM map, builds two 90,000-point
maps and took 5.5-7 s on a 2-core host.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import subprocess_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "name",
    ["01_tdoa_and_gcc", "02_srp_map_localization", "03_search_strategies", "04_two_sources", "05_tracking"],
)
def test_demo_runs(tmp_path, name):
    res = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        capture_output=True, text=True, cwd=tmp_path, env=subprocess_env(),
    )
    assert res.returncode == 0, res.stderr
