"""Grid search strategies over SRP maps and score functions.

Three modes: exhaustive argmax over a precomputed map, hierarchical
cell refinement, and stochastic region contraction (boundary
sampling, then repeated contraction of a bounding region around the
best candidates). The iterative modes work on a scorer callable
(points (N, 3) -> scores (N,)), so they share the exact map code
with the exhaustive path and their evaluations are counted by the
same kernel counter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grids import Volume, sample_boundary, subdivide
from .srp_core import SrpMap

_MODES = ("exhaustive", "refine", "src")


@dataclass
class SearchConfig:
    """Knobs shared by the search strategies.

    ``min_region_edge`` stops refinement/contraction once every
    region edge is below it; it also serves as the contraction
    margin around the retained candidates in src mode.
    """

    mode: str = "exhaustive"
    max_iters: int = 10
    points_per_iter: int = 100
    top_k: int = 10
    min_region_edge: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.points_per_iter < 1:
            raise ValueError(f"points_per_iter must be >= 1, got {self.points_per_iter}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if not self.min_region_edge > 0:
            raise ValueError(f"min_region_edge must be > 0, got {self.min_region_edge}")


@dataclass
class SearchResult:
    """Outcome of a search: the winning point, its score, and the cost."""

    estimate: np.ndarray
    score: float
    evaluations: int
    iterations: int
    trace: list[dict] = field(default_factory=list)

    def __post_init__(self):
        self.estimate = np.asarray(self.estimate, dtype=float).reshape(3)


def argmax_search(srp_map: SrpMap) -> SearchResult:
    """Exhaustive search: the highest-scoring candidate (ties: lowest index)."""
    scores = srp_map.scores
    idx = int(np.argmax(scores))
    return SearchResult(
        estimate=srp_map.points[idx].copy(),
        score=float(scores[idx]),
        evaluations=len(scores),
        iterations=1,
        trace=[{"iteration": 0, "evaluations": len(scores), "best_score": float(scores[idx])}],
    )


def _split_factors(vol: Volume, min_edge: float) -> tuple[int, int, int]:
    # halve only axes still wider than the stopping edge; degenerate
    # (zero-extent) axes are never split
    return tuple(2 if e > min_edge else 1 for e in vol.edges)


def refine_search(scorer, region: Volume, cfg: SearchConfig) -> SearchResult:
    """Coarse-to-fine cell refinement.

    Each iteration splits the retained cells in two per active axis,
    scores the child centers, and keeps the top_k children. Stops
    when every retained cell is smaller than min_region_edge on all
    axes, or after max_iters.
    """
    cells = [region]
    best_point = region.center.copy()
    best_score = -math.inf
    evals = 0
    trace: list[dict] = []
    it = 0
    while it < cfg.max_iters:
        children: list[Volume] = []
        for cell in cells:
            f = _split_factors(cell, cfg.min_region_edge)
            if f == (1, 1, 1):
                children.append(cell)
            else:
                children.extend(subdivide(cell, f))
        centers = np.array([c.center for c in children])
        scores = scorer(centers)
        evals += len(centers)
        order = np.argsort(-scores, kind="stable")
        if scores[order[0]] > best_score:
            best_score = float(scores[order[0]])
            best_point = centers[order[0]].copy()
        cells = [children[i] for i in order[: cfg.top_k]]
        it += 1
        trace.append(
            {
                "iteration": it - 1,
                "evaluations": len(centers),
                "best_score": best_score,
                "max_cell_edge": float(max(c.edges.max() for c in cells)),
            }
        )
        if all(c.edges.max() <= cfg.min_region_edge for c in cells):
            break
    return SearchResult(best_point, best_score, evals, it, trace)


def _contract_region(current: Volume, top: np.ndarray, margin: float) -> Volume:
    # Shrink each axis to the retained candidates' spread plus a
    # margin, but never beyond the current region. An axis whose
    # candidates all hug one face keeps its previous extent: a
    # cluster on a surface carries no depth information, so the next
    # region is the cuboid whose face holds the cluster, reaching
    # inward. Without this, a peak deep inside the region can be
    # discarded after the boundary-sampling pass.
    lo = current.lo.copy()
    hi = current.hi.copy()
    for a in range(3):
        s_lo = float(top[:, a].min())
        s_hi = float(top[:, a].max())
        hugs_low = s_hi <= current.lo[a] + margin
        hugs_high = s_lo >= current.hi[a] - margin
        if hugs_low or hugs_high:
            continue
        lo[a] = max(s_lo - margin, current.lo[a])
        hi[a] = min(s_hi + margin, current.hi[a])
    return Volume.from_bounds(lo, hi)


def src_search(scorer, region: Volume, cfg: SearchConfig) -> SearchResult:
    """Stochastic region contraction.

    Iteration 0 samples the region boundary (area-weighted over the
    faces); later iterations sample the current region's interior
    uniformly. After each batch the region contracts around the
    top_k candidates (plus a min_region_edge margin) axis by axis,
    never growing, with face-hugging clusters leaving their normal
    axis untouched (see _contract_region). Fully deterministic for
    a given seed.
    """
    rng = np.random.default_rng(cfg.seed)
    current = region
    best_point = region.center.copy()
    best_score = -math.inf
    evals = 0
    trace: list[dict] = []
    it = 0
    while it < cfg.max_iters:
        if it == 0:
            pts = sample_boundary(current, cfg.points_per_iter, rng).points
        else:
            pts = rng.uniform(current.lo, current.hi, size=(cfg.points_per_iter, 3))
        scores = scorer(pts)
        evals += len(pts)
        order = np.argsort(-scores, kind="stable")
        if scores[order[0]] > best_score:
            best_score = float(scores[order[0]])
            best_point = pts[order[0]].copy()
        top = pts[order[: cfg.top_k]]
        current = _contract_region(current, top, cfg.min_region_edge)
        it += 1
        trace.append(
            {
                "iteration": it - 1,
                "evaluations": len(pts),
                "best_score": best_score,
                "region_lo": current.lo.tolist(),
                "region_hi": current.hi.tolist(),
            }
        )
        if current.edges.max() <= cfg.min_region_edge:
            break
    return SearchResult(best_point, best_score, evals, it, trace)


def complexity_estimate(
    n_mics: int, frame_len: int, grid_size: int, domain: str = "frequency"
) -> float:
    """Operation-count model for one SRP map build.

    Covers the FFTs (M L log2 L), the pairwise spectra (P L), and the
    steering stage: G P L in the frequency domain versus G P lag
    lookups in the time domain.
    """
    if domain not in ("time", "frequency"):
        raise ValueError(f"domain must be time|frequency, got {domain!r}")
    p = n_mics * (n_mics - 1) / 2
    base = n_mics * frame_len * math.log2(frame_len) + p * frame_len
    steering = grid_size * p * (frame_len if domain == "frequency" else 1)
    return base + steering
