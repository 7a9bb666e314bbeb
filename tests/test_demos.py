"""Smoke test of the demos and of the README's library code.

Each demo runs as a script and exits 0. Demos 01, 03, 04 and 05 take a
few seconds at most; demo 03 reads a volume partition's ``volumes``
list, which the grid builds on demand. Demo 02, the one demo that
writes a PGM map, builds two 90,000-point maps and took 5.5-7 s on a
2-core host. The README's ``python`` blocks run in order, in one
namespace, and took 0.3 s.
"""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_cli import subprocess_env
from xsrp.io_utils import write_wav

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


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


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    """The quick start prints the source's position; the streaming block then reads
    the same scene back from ``scene.wav`` and finds it in its one frame."""
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    ns = {}
    exec(blocks[0], ns)
    assert capsys.readouterr().out == "[2.2 3.1 1.4]\n"
    write_wav(tmp_path / "scene.wav", 16000.0, ns["signals"])
    exec(blocks[1], ns)
    (est,) = ns["estimates"]
    assert np.allclose(est.positions, [[2.2, 3.1, 1.4]])
