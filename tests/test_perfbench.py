"""The benchmark harness's own self-test runs clean against the package.

perfbench/selftest.py runs every workload once, untimed and traced, on
toy scenes (about 4 s on 2 cores). The traced run wraps the public layer
functions and probes their arguments, so a change to what those
functions receive (the features the frequency kernel reads, say) shows
here as a crash of ``--trace 1``.
"""

import subprocess
import sys
from pathlib import Path

from test_cli import subprocess_env

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes():
    res = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, env=subprocess_env(), timeout=300
    )
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.splitlines()[-1] == "selftest: ok"
