"""In-process tracing of xsrp's public functions for the traced run.

The package's modules import each other's functions by name
(``from .geometry import tdoa_matrix``), so one function object is bound
under several module attributes. ``Tracer.install`` replaces every
binding of each target in every loaded ``xsrp`` module with one wrapper
and ``uninstall`` puts the originals back. Only ``run.py``'s traced run
imports this module; the timed runs never do.

Each call becomes a span (name, start, end, parent, run id) held in
memory; ``dump`` writes them out when the run ends. A span's self time is
its duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

TARGETS = {
    "geometry": ("tdoa_matrix", "tof_matrix"),
    "grids": ("cartesian_grid", "partition_room"),
    "srp_core": ("srp_time_map", "srp_freq_scores", "vsrp_map", "tdoa_bounds"),
    "features": ("compute_spectral_gccs", "temporal_gcc"),
    "search": ("argmax_search",),
    "multisource": ("localize_multi",),
    "tracking": ("predict", "update_weights", "resample"),
    "pipeline": ("x_srp",),
    "io_utils": ("read_wav", "write_jsonl", "sha256_file", "export_map_csv"),
    "cli": ("main",),
}

# map builders: each call is one map build and must count exactly the
# kernel evaluations the workload predicts
MAP_BUILDERS = ("srp_core.srp_time_map", "srp_core.srp_freq_scores", "srp_core.vsrp_map")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    child_time: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Wraps the targets, records spans, and restores the originals."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        from xsrp import srp_core

        self._counter = srp_core.counter

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {n: m for n, m in sys.modules.items() if n == "xsrp" or n.startswith("xsrp.")}
        for short, names in TARGETS.items():
            home = mods[f"xsrp.{short}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        probe = _PROBES.get(name)
        counter = self._counter
        is_builder = name in MAP_BUILDERS

        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1)
            idx = len(self.spans)
            self.spans.append(span)
            self._stack.append(idx)
            ops0 = counter.kernel_ops if is_builder else 0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent >= 0:
                    self.spans[span.parent].child_time += span.duration
            if is_builder:
                span.meta["kernel_ops"] = counter.kernel_ops - ops0
            if probe is not None:
                span.meta.update(probe(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- reporting ----------------------------------------------------------

    def of(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.of(name))

    def self_total(self, name: str) -> float:
        return sum(s.self_time for s in self.of(name))

    def count(self, name: str) -> int:
        return len(self.of(name))

    def meta_sum(self, name: str, key: str) -> float:
        return sum(s.meta.get(key, 0) for s in self.of(name))

    def under(self, span_index: int, ancestor: str) -> bool:
        p = self.spans[span_index].parent
        while p >= 0:
            if self.spans[p].name == ancestor:
                return True
            p = self.spans[p].parent
        return False

    def self_breakdown(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + s.self_time
        return out

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "run": self.run_id,
                    "self_s": s.self_time, **s.meta,
                }) + "\n")


# name -> (unit, better); run.py prints exactly these with --trace 1
PER_LAYER = {
    "geometry.tdoa_matrix_s": ("s", "lower"),
    "geometry.tdoa_matrix_rows": ("count", "lower"),
    "geometry.tdoa_useful_ratio": ("ratio", "higher"),
    "geometry.tof_matrix_s": ("s", "lower"),
    "grids.build_s": ("s", "lower"),
    "grids.build_calls": ("count", "lower"),
    "grids.candidates": ("count", "lower"),
    "srp_core.time_map_self_s": ("s", "lower"),
    "srp_core.freq_scores_s": ("s", "lower"),
    "srp_core.kernel_ops": ("count", "lower"),
    "srp_core.points": ("count", "lower"),
    "srp_core.kernel_ops_per_s": ("1/s", "higher"),
    "srp_core.freq_phase_bytes": ("bytes", "lower"),
    "srp_core.vsrp_map_self_s": ("s", "lower"),
    "srp_core.tdoa_bounds_calls": ("count", "lower"),
    "srp_core.tdoa_bounds_s": ("s", "lower"),
    "srp_core.vsrp_source_cell_rank": ("rank", "lower"),
    "features.compute_spectral_gccs_s": ("s", "lower"),
    "features.gcc_pairs": ("count", "lower"),
    "features.temporal_gcc_s": ("s", "lower"),
    "search.argmax_search_s": ("s", "lower"),
    "search.evaluations": ("count", "lower"),
    "multisource.localize_multi_self_s": ("s", "lower"),
    "multisource.rounds": ("count", "lower"),
    "tracking.predict_s": ("s", "lower"),
    "tracking.update_weights_self_s": ("s", "lower"),
    "tracking.resample_calls": ("count", "lower"),
    "tracking.ess_mean": ("particles", "higher"),
    "tracking.err_median_m": ("m", "lower"),
    "pipeline.x_srp_calls": ("count", "lower"),
    "pipeline.x_srp_self_s": ("s", "lower"),
    "io_utils.read_wav_s": ("s", "lower"),
    "io_utils.write_jsonl_s": ("s", "lower"),
    "io_utils.sha256_file_s": ("s", "lower"),
    "io_utils.export_map_csv_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "accuracy.miss_rate": ("fraction", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# what each workload was built to show: these spans should take at
# least half of the traced wall time between them
PREDICTIONS = {
    "time3d_multi": ("geometry.tdoa_matrix dominates", ("geometry.tdoa_matrix",)),
    "volumetric": ("grids plus vsrp_map dominate", ("grids.partition_room", "srp_core.vsrp_map")),
    "track": ("the frequency kernel dominates", ("srp_core.srp_freq_scores",)),
}


def check_builds(tracer: Tracer, ops_per_build: int) -> list[str]:
    """Every map build must count exactly the predicted kernel evaluations."""
    problems = []
    for name in MAP_BUILDERS:
        for s in tracer.of(name):
            if s.meta["kernel_ops"] != ops_per_build:
                problems.append(
                    f"{name} counted {s.meta['kernel_ops']} kernel ops, expected {ops_per_build}"
                )
    return problems


def layer_metrics(tracer: Tracer, facts: dict, traced_wall: float, untraced_wall: float) -> dict:
    """The per-layer metrics of one traced command, each with its unit."""
    t = tracer
    rows = t.meta_sum("geometry.tdoa_matrix", "rows")
    tables = {s.meta["table"]: s.meta["rows"] for s in t.of("geometry.tdoa_matrix")}
    grids = ("grids.cartesian_grid", "grids.partition_room")
    kernel_s = sum(t.total(n) for n in MAP_BUILDERS)
    freq_calls = t.count("srp_core.srp_freq_scores")
    rounds = sum(
        1 for i, s in enumerate(t.spans)
        if s.name in MAP_BUILDERS and t.under(i, "multisource.localize_multi")
    )
    values = {
        "geometry.tdoa_matrix_s": t.total("geometry.tdoa_matrix"),
        "geometry.tdoa_matrix_rows": rows,
        "geometry.tdoa_useful_ratio": sum(tables.values()) / rows if rows else 0.0,
        "geometry.tof_matrix_s": t.total("geometry.tof_matrix"),
        "grids.build_s": sum(t.total(n) for n in grids),
        "grids.build_calls": sum(t.count(n) for n in grids),
        "grids.candidates": sum(t.meta_sum(n, "candidates") for n in grids),
        "srp_core.time_map_self_s": t.self_total("srp_core.srp_time_map"),
        "srp_core.freq_scores_s": t.total("srp_core.srp_freq_scores"),
        "srp_core.kernel_ops": facts["kernel_ops"],
        "srp_core.points": facts["points"],
        "srp_core.kernel_ops_per_s": facts["kernel_ops"] / kernel_s if kernel_s else 0.0,
        "srp_core.freq_phase_bytes": (
            t.meta_sum("srp_core.srp_freq_scores", "phase_bytes") // freq_calls if freq_calls else 0
        ),
        "srp_core.vsrp_map_self_s": t.self_total("srp_core.vsrp_map"),
        "srp_core.tdoa_bounds_calls": t.count("srp_core.tdoa_bounds"),
        "srp_core.tdoa_bounds_s": t.total("srp_core.tdoa_bounds"),
        "srp_core.vsrp_source_cell_rank": facts["cell_rank"],
        "features.compute_spectral_gccs_s": t.total("features.compute_spectral_gccs"),
        "features.gcc_pairs": t.meta_sum("features.compute_spectral_gccs", "pairs"),
        "features.temporal_gcc_s": t.total("features.temporal_gcc"),
        "search.argmax_search_s": t.total("search.argmax_search"),
        "search.evaluations": t.meta_sum("search.argmax_search", "evaluations"),
        "multisource.localize_multi_self_s": t.self_total("multisource.localize_multi"),
        "multisource.rounds": rounds,
        "tracking.predict_s": t.total("tracking.predict"),
        "tracking.update_weights_self_s": t.self_total("tracking.update_weights"),
        "tracking.resample_calls": t.count("tracking.resample"),
        "tracking.ess_mean": facts["ess_mean"],
        "tracking.err_median_m": facts["track_err_m"],
        "pipeline.x_srp_calls": t.count("pipeline.x_srp"),
        "pipeline.x_srp_self_s": t.self_total("pipeline.x_srp"),
        "io_utils.read_wav_s": t.total("io_utils.read_wav"),
        "io_utils.write_jsonl_s": t.total("io_utils.write_jsonl"),
        "io_utils.sha256_file_s": t.total("io_utils.sha256_file"),
        "io_utils.export_map_csv_s": t.total("io_utils.export_map_csv"),
        "cli.self_s": t.self_total("cli.main"),
        "accuracy.miss_rate": facts["miss_rate"],
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    return {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}


def report(tracer: Tracer, metrics: dict, traced_wall: float, workload: str) -> list[str]:
    """Human-readable lines: each metric with its share of the traced wall time."""
    lines = [f"traced command: {traced_wall:.4f} s wall, {len(tracer.spans)} spans"]
    for name, m in metrics.items():
        share = f"  {100 * m['value'] / traced_wall:5.1f}% of traced wall" if m["unit"] == "s" else ""
        lines.append(f"  {name:36s} {m['value']:>16.6g} {m['unit']:9s}{share}")
    lines.append("self time by span (sums to the traced wall with the untraced remainder):")
    breakdown = sorted(tracer.self_breakdown().items(), key=lambda kv: -kv[1])
    covered = 0.0
    for name, s in breakdown:
        covered += s
        lines.append(f"  {name:36s} {s:10.4f} s  {100 * s / traced_wall:5.1f}%")
    lines.append(f"  {'(outside any span)':36s} {traced_wall - covered:10.4f} s")
    claim, names = PREDICTIONS[workload]
    share = sum(tracer.total(n) for n in names) / traced_wall
    verdict = "holds" if share >= 0.5 else "does NOT hold"
    lines.append(f"prediction for {workload}: {claim}: {100 * share:.1f}% of traced wall, {verdict}")
    return lines


# per-call facts recorded beside the span; each takes (args, kwargs, result)

def _tdoa_rows(args, kwargs, result):
    # a fingerprint of 64 evenly spaced points tells a rebuilt table from a new
    # one without hashing the whole grid inside the traced time
    pts = np.asarray(args[0] if args else kwargs["points"], dtype=float)
    sample = np.ascontiguousarray(pts[:: max(1, len(pts) // 64)])
    key = hashlib.sha1(sample.tobytes() + repr(pts.shape).encode()).hexdigest()
    return {"rows": int(result.size), "table": key}


def _candidates(args, kwargs, result):
    return {"candidates": len(result)}


def _freq_phase_bytes(args, kwargs, result):
    points = np.atleast_2d(args[0])
    gccs, array = args[1], args[2]
    g = next(iter(gccs.values()))
    n = len(g.freqs)
    half = int(np.count_nonzero(g.in_band & (g.freqs > 0))) + int(g.in_band[0])
    if n % 2 == 0:
        half += int(g.in_band[n // 2])  # the unpaired Nyquist bin
    return {"phase_bytes": len(points) * array.n_mics * half * 16}


def _gcc_pairs(args, kwargs, result):
    return {"pairs": len(result)}


def _evaluations(args, kwargs, result):
    return {"evaluations": int(result.evaluations)}


_PROBES = {
    "geometry.tdoa_matrix": _tdoa_rows,
    "grids.cartesian_grid": _candidates,
    "grids.partition_room": _candidates,
    "srp_core.srp_freq_scores": _freq_phase_bytes,
    "features.compute_spectral_gccs": _gcc_pairs,
    "search.argmax_search": _evaluations,
}
