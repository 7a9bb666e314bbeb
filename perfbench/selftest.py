#!/usr/bin/env python3
"""Toy-sized self-test of the benchmark harness; finishes in well under a minute.

    python3 perfbench/selftest.py

Runs every workload once per mode at one frame per command on coarse
grids, and checks that each run is judged correct, that every metric
named in BENCHMARK.json is printed by name with its unit, that the timed
runs never load the tracing wrappers, that the reference check rejects a
wrong score, and that the harness refuses to run without the program's
sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def _check_result(result: dict, expected: dict[str, str], label: str) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{label}: run judged incorrect")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        errors.append(f"{label}: attempted = {result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"{label}: metric names differ: "
                      f"missing {sorted(set(expected) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errors.append(f"{label}: {name} has unit {m.get('unit')!r}, expected {unit!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            errors.append(f"{label}: {name} value {v!r} is not a finite number")
    return errors


def _reference_flags_wrong_scores() -> list[str]:
    """The reference check must reject a command whose scores are off."""
    import reference
    from workloads import make_scene

    scene = make_scene("time3d_multi", seed=0, frames=1, toy=True)
    workdir = run.WORK / "selftest-reference"
    runner = run.Runner(scene, workdir, run.Tally())
    with contextlib.redirect_stdout(io.StringIO()):
        runner.command("selftest")
    frames = reference.read_frames(runner.paths["wav"], scene.frame_len, scene.hop, 1)
    records = runner.records()
    errors = []
    if reference.check_time3d(scene, frames, records):
        errors.append("reference check rejects the program's own answer")
    records[0]["estimates"][0]["score"] *= 1.001
    if not reference.check_time3d(scene, frames, records):
        errors.append("reference check accepts a score 0.1 % off")
    print(f"reference check: {'ok' if not errors else 'FAILED'}")
    return errors


def main() -> int:
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors: list[str] = []
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        errors.append("BENCHMARK.json declares a workload that workloads.py does not build")
    if e2e != run.END_TO_END:
        errors.append("BENCHMARK.json end_to_end differs from run.END_TO_END")

    sys.path.insert(0, str(run.SRC))
    for trace in (False, True):
        for name in WORKLOADS:
            label = f"{name} --trace {int(trace)}"
            with contextlib.redirect_stdout(io.StringIO()):
                result = run.run_workload(name, seed=0, seconds=0.0, trace=trace, toy=True)
            found = _check_result(result, layers if trace else e2e, label)
            print(f"{label}: {'ok' if not found else 'FAILED'}")
            errors += found
        if not trace and "tracing" in sys.modules:
            errors.append("the timed runs imported the tracing wrappers")
    import tracing

    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if declared != tracing.PER_LAYER:
        errors.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")

    errors += _reference_flags_wrong_scores()

    real_src = run.SRC
    run.SRC = real_src.parent / "no-such-src"
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "track", "--seed", "0", "--seconds", "1"])
    finally:
        run.SRC = real_src
    if code == 0:
        errors.append("run.py exited 0 without the program's sources")

    for e in errors:
        print(f"FAIL {e}")
    print("selftest: " + ("ok" if not errors else f"{len(errors)} problem(s)"))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
