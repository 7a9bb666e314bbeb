"""Search strategy tests.

A smooth radial bump gives an analytic optimum the iterative modes
must approach; determinism by seed and region monotonicity are
checked directly.
"""

import numpy as np
import pytest

from xsrp.grids import CandidateGrid, Volume, cartesian_grid
from xsrp.search import (
    SearchConfig,
    SearchResult,
    argmax_search,
    refine_search,
    src_search,
)
from xsrp.srp_core import SrpMap

PEAK = np.array([2.35, 1.6, 1.1])


def bump(points: np.ndarray) -> np.ndarray:
    d = np.linalg.norm(np.atleast_2d(points) - PEAK, axis=1)
    return np.exp(-(d**2) / 0.5)


def room_region() -> Volume:
    return Volume.from_bounds((0.0, 0.0, 0.0), (5.0, 4.0, 3.0))


def test_argmax_search_picks_max_and_ties_lowest_index():
    grid = CandidateGrid(
        "cartesian3d", np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
    )
    m = SrpMap(grid, np.array([1.0, 5.0, 5.0, 2.0]))
    r = argmax_search(m)
    np.testing.assert_array_equal(r.estimate, [1.0, 0.0, 0.0])
    assert r.score == 5.0
    assert r.evaluations == 4
    assert r.iterations == 1
    assert r.trace[0]["evaluations"] == 4


def test_exhaustive_on_bump_matches_grid_argmax():
    grid = cartesian_grid((5.0, 4.0, 3.0), 0.5)
    m = SrpMap(grid, bump(grid.points))
    r = argmax_search(m)
    expected = grid.points[np.argmax(bump(grid.points))]
    np.testing.assert_array_equal(r.estimate, expected)


def test_refine_converges_to_peak():
    cfg = SearchConfig(mode="refine", max_iters=12, top_k=8, min_region_edge=0.02)
    r = refine_search(bump, room_region(), cfg)
    assert np.linalg.norm(r.estimate - PEAK) < 0.02
    assert r.evaluations > 0
    assert r.iterations <= 12
    # trace records shrinking cells
    edges = [t["max_cell_edge"] for t in r.trace]
    assert edges[-1] <= edges[0]
    assert edges[-1] <= 0.02


def test_refine_respects_max_iters():
    cfg = SearchConfig(mode="refine", max_iters=2, top_k=4, min_region_edge=1e-4)
    r = refine_search(bump, room_region(), cfg)
    assert r.iterations == 2
    assert len(r.trace) == 2


def test_refine_never_splits_degenerate_axis():
    # planar region: z extent zero, search stays in the plane
    region = Volume.from_bounds((0.0, 0.0, 1.1), (5.0, 4.0, 1.1))
    peak2d = bump  # PEAK has z = 1.1, inside the plane
    cfg = SearchConfig(mode="refine", max_iters=12, top_k=8, min_region_edge=0.02)
    r = refine_search(peak2d, region, cfg)
    assert r.estimate[2] == 1.1
    assert np.linalg.norm(r.estimate - PEAK) < 0.02


def test_src_converges_to_peak():
    cfg = SearchConfig(
        mode="src", max_iters=20, points_per_iter=200, top_k=10, min_region_edge=0.05, seed=7
    )
    r = src_search(bump, room_region(), cfg)
    assert np.linalg.norm(r.estimate - PEAK) < 0.06
    assert r.evaluations <= 20 * 200


def test_src_deterministic_by_seed():
    cfg = SearchConfig(mode="src", max_iters=8, points_per_iter=64, seed=3)
    a = src_search(bump, room_region(), cfg)
    b = src_search(bump, room_region(), cfg)
    np.testing.assert_array_equal(a.estimate, b.estimate)
    assert a.score == b.score and a.evaluations == b.evaluations
    c = src_search(bump, room_region(), SearchConfig(mode="src", max_iters=8, points_per_iter=64, seed=4))
    assert np.any(a.estimate != c.estimate) or a.score != c.score


def test_src_region_never_grows():
    cfg = SearchConfig(mode="src", max_iters=15, points_per_iter=100, seed=1)
    r = src_search(bump, room_region(), cfg)
    spans = []
    for t in r.trace:
        lo = np.array(t["region_lo"])
        hi = np.array(t["region_hi"])
        spans.append(hi - lo)
    spans = np.array(spans)
    assert np.all(np.diff(spans, axis=0) <= 1e-12)
    # final region contains the true peak
    lo = np.array(r.trace[-1]["region_lo"])
    hi = np.array(r.trace[-1]["region_hi"])
    assert np.all(PEAK >= lo - 0.1) and np.all(PEAK <= hi + 0.1)


def test_src_first_iteration_samples_boundary():
    region = room_region()
    seen = []

    def recording_scorer(pts):
        seen.append(np.array(pts))
        return bump(pts)

    cfg = SearchConfig(mode="src", max_iters=1, points_per_iter=50, seed=2)
    src_search(recording_scorer, region, cfg)
    first = seen[0]
    on_boundary = np.zeros(len(first), dtype=bool)
    for axis in range(3):
        for coord in (region.lo[axis], region.hi[axis]):
            on_boundary |= np.abs(first[:, axis] - coord) < 1e-12
    assert on_boundary.all()


def test_search_config_validation():
    with pytest.raises(ValueError, match="mode"):
        SearchConfig(mode="random")
    with pytest.raises(ValueError, match="max_iters"):
        SearchConfig(max_iters=0)
    with pytest.raises(ValueError, match="points_per_iter"):
        SearchConfig(points_per_iter=0)
    with pytest.raises(ValueError, match="top_k"):
        SearchConfig(top_k=0)
    with pytest.raises(ValueError, match="min_region_edge"):
        SearchConfig(min_region_edge=0.0)


def test_search_result_reshapes_estimate():
    r = SearchResult(np.array([[1.0, 2.0, 3.0]]), 1.0, 10, 1)
    assert r.estimate.shape == (3,)
