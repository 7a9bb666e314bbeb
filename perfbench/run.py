#!/usr/bin/env python3
"""End-to-end benchmark of the xsrp CLI on seeded synthetic scenes.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads (see README.md): time3d_multi, volumetric, track.
Each run renders its scene from the seed and runs the real ``localize``
or ``track`` command on it repeatedly. A run is correct when every
command exits 0, writes every frame well formed, writes the same bytes as
the first command, counts exactly the kernel evaluations the workload
predicts, and (volumetric) exports a map whose argmax is the last
estimate; and when the first command's scores agree with reference.py's
independent recomputation. Accuracy against the known sources is
measured too and reported as miss_rate; it is not part of the gate (see
README.md).

--trace 0 reports the end-to-end metrics: fps (median over warm
in-process commands whose walls add up to --seconds), setup_s (median
over fresh ``python -m xsrp.cli`` processes on a one-frame cut) and
peak_mem_mb (tracemalloc peak over one command in its own pass); the
set-up processes and the peak-memory pass run spread out between the
timed commands. --trace 1 times the same untraced commands, then runs
one more command with every public layer function wrapped and reports
the per-layer metrics.

The last line of standard output is the JSON result. The exit code is 0
for a correct run, 1 for an incorrect one, and 2 when the program's
sources are missing (nothing is printed then).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

# frames per command: each warm command takes roughly 1-2.5 s, so every
# run times many of them; track runs 32 frames because its accuracy is
# measured from frame 20 on, once the particle cloud has settled
FRAMES = {"time3d_multi": 4, "volumetric": 2, "track": 32}
SETUP_REPS = 5
MIN_TIMED = 3
SUBPROCESS_TIMEOUT = 150

END_TO_END = {
    "fps": "frames/s",
    "setup_s": "s",
    "peak_mem_mb": "MiB",
}


@dataclass
class Tally:
    """Frames attempted and failed over every command in a run, plus what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


class Runner:
    """Runs one workload's commands in-process and checks their outputs.

    Every command in a run must write byte-identical JSON lines (the
    program is deterministic), must count exactly the predicted kernel
    evaluations, and, for the volumetric map, must export a map whose
    argmax is the last frame's estimate.
    """

    def __init__(self, scene, workdir: Path, tally: Tally):
        from xsrp import cli, srp_core

        self.cli = cli
        self.counter = srp_core.counter
        self.scene = scene
        self.paths = scene.write(workdir)
        self.out = workdir / "out.jsonl"
        self.export = workdir / "map.csv"
        self.tally = tally
        self.reference: list[str] | None = None  # the first command's output lines

    def argv(self, one_frame: bool = False, suffix: str = "") -> list[str]:
        wav = self.paths["wav1" if one_frame else "wav"]
        out = self.out.with_name(f"out{suffix}.jsonl")
        export = self.export.with_name(f"map{suffix}.csv")
        return self.scene.argv(self.paths["config"], wav, out, export)

    def command(self, tag: str) -> float:
        """Run the full-input command once; return its wall time in seconds."""
        for p in (self.out, self.export):
            p.unlink(missing_ok=True)
        argv = self.argv()
        ops0 = self.counter.kernel_ops
        sink_out, sink_err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
            t0 = time.perf_counter()
            code = self.cli.main(argv)
            wall = time.perf_counter() - t0
        ops = self.counter.kernel_ops - ops0
        lines = self.check(code, self.out, self.scene.n_frames, tag, sink_err.getvalue())
        if lines is None:
            return wall
        want = self.scene.expected_ops(self.scene.n_frames)
        if ops != want:
            self.tally.problems.append(f"{tag}: kernel ops {ops}, expected exactly {want}")
        if self.scene.workload == "volumetric":
            err = self.scene.check_export([json.loads(x) for x in lines], self.export)
            if err is not None:
                self.tally.problems.append(f"{tag}: {err}")
        return wall

    def check(self, code: int, out: Path, frames: int, tag: str, stderr: str):
        """Judge one command's output; return its lines, or None if it failed."""
        self.tally.attempted += frames
        lines = out.read_text().splitlines() if code == 0 and out.exists() else []
        if code != 0:
            self.tally.failed += frames
            self.tally.problems.append(f"{tag}: exit code {code}: {stderr.strip()[-300:]}")
            return None
        bad = self.scene.invalid_frames([json.loads(x) for x in lines], frames)
        if bad or len(lines) != frames:
            self.tally.failed += len(bad)
            reasons = [f"frame {i}: {why}" for i, why in list(bad.items())[:5]]
            self.tally.problems.append(f"{tag}: {len(lines)} records for {frames} frames; " + "; ".join(reasons))
            return None
        if self.reference is None:
            self.reference = lines
        elif lines != self.reference[:frames]:
            self.tally.problems.append(f"{tag}: output differs from the first command's")
        return lines

    def reference_check(self) -> None:
        """Compare the first command's answers with reference.py's independent scores."""
        import reference

        if self.reference is None:
            return  # the command failed, which is already recorded as a problem
        sc = self.scene
        frames = reference.read_frames(self.paths["wav"], sc.frame_len, sc.hop, sc.n_frames)
        if sc.workload == "time3d_multi":
            found = reference.check_time3d(sc, frames, self.records())
        elif sc.workload == "volumetric":
            if not self.export.exists():
                return  # recorded by check_export
            rows = np.loadtxt(self.export, delimiter=",", skiprows=1, ndmin=2)
            found = reference.check_volumetric(sc, frames, self.records(), rows)
        else:
            found = reference.check_track(sc, frames, self.track_scorer)
        self.tally.problems += [f"reference check: {p}" for p in found]

    def track_scorer(self, block):
        """The tracker's points -> scores function for one frame block, as the
        ``track`` command builds it from the workload's config."""
        from xsrp.features import GccConfig, compute_spectral_gccs
        from xsrp.geometry import MicArray
        from xsrp.srp_core import make_freq_scorer

        cfg = self.scene.config
        array = MicArray(np.asarray(cfg["array"]["positions"]), cfg["array"]["sample_rate"])
        gccs = compute_spectral_gccs(block, array, GccConfig(band=tuple(cfg["tracker"]["band"])))
        return make_freq_scorer(gccs, array)

    def records(self) -> list[dict]:
        return [json.loads(x) for x in self.reference or []]

    def timed(self, seconds: float, between=()) -> list[float]:
        """Run the command until the timed walls add up to ``seconds``.

        The ``between`` calls run between timed commands, spread evenly
        over the timed seconds, so that the timed commands sample a longer
        stretch of the machine's varying speed than one block would.
        """
        walls: list[float] = []
        pending = list(between)
        due = [seconds * (k + 1) / (len(pending) + 1) for k in range(len(pending))]
        # a failing command is timed MIN_TIMED times only: its walls mean nothing
        while len(walls) < MIN_TIMED or (sum(walls) < seconds and self.reference is not None):
            walls.append(self.command(f"timed #{len(walls)}"))
            while pending and sum(walls) >= due[0]:
                due.pop(0)
                pending.pop(0)()
        for call in pending:
            call()
        return walls

    def setup_time(self, tag: str) -> float:
        """Wall time of a fresh interpreter running the command on one frame."""
        env = dict(os.environ)
        env.pop("XSRP_THREADS", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        argv = self.argv(one_frame=True, suffix="_setup")
        out = Path(argv[argv.index("-o") + 1])
        out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "xsrp.cli", *argv], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT,
        )
        wall = time.perf_counter() - t0
        self.check(proc.returncode, out, 1, tag, proc.stderr)
        return wall

    def peak_memory_mib(self) -> float:
        tracemalloc.start()
        try:
            self.command("peak-memory pass")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / 2**20


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1))


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    from workloads import make_scene, source_cell_rank, track_error, TRACK_SETTLED

    frames = 1 if toy else FRAMES[name]
    workdir = WORK / f"{name}-{seed}{'-toy' if toy else ''}-{'trace' if trace else 'e2e'}"
    tally = Tally()
    t0 = time.perf_counter()
    scene = make_scene(name, seed, frames, toy=toy)
    runner = Runner(scene, workdir, tally)
    gen_s = time.perf_counter() - t0
    prov = provenance(name, seed)
    _write_json(workdir / "provenance.json", prov)
    print("provenance " + json.dumps(prov))
    print(f"{name}: scene rendered in {gen_s:.2f} s, {frames} frames per command")

    runner.command("warm-up")
    runner.reference_check()
    records = runner.records()
    judged, missed = scene.misses(records)
    miss_rate = missed / judged if judged else 0.0
    accuracy = (f"miss_rate {miss_rate:.4f} fraction ({missed}/{judged} judged frames "
                f"outside the tolerance of {scene.tolerance:g})")
    metrics: dict[str, dict] = {}
    if not trace:
        setup: list[float] = []
        peak: list[float] = []
        between = [lambda k=k: setup.append(runner.setup_time(f"setup #{k}"))
                   for k in range(1 if toy else SETUP_REPS)]
        between.insert(len(between) // 2, lambda: peak.append(runner.peak_memory_mib()))
        walls = runner.timed(seconds, between)
        fps = [frames / w for w in walls]
        _write_json(workdir / "timings.json", {"frames": frames, "timed_s": walls, "setup_s": setup})
        metrics = {
            "fps": _metric(statistics.median(fps), END_TO_END["fps"]),
            "setup_s": _metric(statistics.median(setup), END_TO_END["setup_s"]),
            "peak_mem_mb": _metric(peak[0], END_TO_END["peak_mem_mb"]),
        }
        print(
            f"{name} seed={seed}: fps {metrics['fps']['value']:.4f} frames/s "
            f"(median of {len(fps)} commands, {min(fps):.4f}..{max(fps):.4f}) | "
            f"setup_s {metrics['setup_s']['value']:.4f} s (median of {len(setup)}) | "
            f"peak_mem_mb {peak[0]:.2f} MiB | {accuracy}"
        )
    else:
        import tracing

        walls = runner.timed(seconds)
        tracer = tracing.Tracer(run_id=f"{name}:{seed}:{os.getpid()}")
        ops0, pts0 = runner.counter.kernel_ops, runner.counter.points
        tracer.install()
        try:
            t1 = time.perf_counter()
            runner.command("traced")
            traced_wall = time.perf_counter() - t1
        finally:
            tracer.uninstall()
        settled = [track_error(scene, r, i) for i, r in enumerate(records)
                   if name == "track" and i >= TRACK_SETTLED]
        facts = {
            "kernel_ops": runner.counter.kernel_ops - ops0,
            "points": runner.counter.points - pts0,
            "miss_rate": miss_rate,
            "ess_mean": statistics.fmean(r["ess"] for r in records) if name == "track" else 0.0,
            "track_err_m": statistics.median(settled) if settled else 0.0,
            "cell_rank": (source_cell_rank(scene, runner.export)
                          if name == "volumetric" and runner.export.exists() else 0),
        }
        for problem in tracing.check_builds(tracer, scene.ops_per_build):
            tally.problems.append(f"traced: {problem}")
        _write_json(workdir / "timings.json", {"frames": frames, "timed_s": walls, "traced_s": traced_wall})
        metrics = tracing.layer_metrics(tracer, facts, traced_wall, statistics.median(walls))
        tracer.dump(workdir / "spans.jsonl")
        report = tracing.report(tracer, metrics, traced_wall, name) + [f"{name}: {accuracy}"]
        (workdir / "trace_report.txt").write_text("\n".join(report) + "\n")
        print("\n".join(report))
    for p in tally.problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


# -- provenance --------------------------------------------------------------------

def _blas_threads():
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """The checked-out commit; None outside a git clone or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    nproc = len(os.sched_getaffinity(0))
    threads = _blas_threads()
    if threads is not None and threads > nproc:
        print(f"warning: BLAS uses {threads} threads on {nproc} cpus", file=sys.stderr)
    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": threads,
        "thread_env": {
            k: v for k, v in sorted(os.environ.items())
            if any(t in k for t in ("THREAD", "OMP_", "BLAS", "MKL_", "XSRP_"))
        },
        "git_commit": _git_commit(),
    }


# -- entry point -------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "xsrp" / "cli.py").is_file():
        print(f"error: the xsrp sources are not at {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS} or all",
              file=sys.stderr)
        return 2
    os.environ.pop("XSRP_THREADS", None)  # the plain single-threaded baseline
    sys.path.insert(0, str(SRC))

    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
