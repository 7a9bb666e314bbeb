"""Grid and volume tests.

Counting oracles are worked by hand (a 4 x 3 room at 1 m spacing has
12 interior lattice points); geometric properties (tiling, coverage,
containment) are checked exactly or by seeded Monte Carlo.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xsrp.grids import (
    _CORNERS,
    _EPS,
    CandidateGrid,
    Volume,
    VolumeGrid,
    _interiors_overlap,
    cartesian_grid,
    doa_grid,
    grid_in_volume,
    intersect_volumes,
    partition_room,
    sample_boundary,
    subdivide,
)


def contains(volume: Volume, points, atol: float = 0.0) -> np.ndarray:
    """Whether each of (n, 3) points lies in the closed box of ``volume``, widened by atol, (n,)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.all((pts >= volume.lo - atol) & (pts <= volume.hi + atol), axis=1)


def test_planar_grid_count_and_positions():
    g = cartesian_grid((4.0, 3.0), 1.0, planar=True)
    assert g.kind == "cartesian2d"
    assert len(g) == 12
    xs = sorted(set(g.points[:, 0]))
    ys = sorted(set(g.points[:, 1]))
    np.testing.assert_allclose(xs, [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(ys, [1.0, 2.0, 3.0])
    assert np.all(g.points[:, 2] == 0.0)


def test_volumetric_grid_count():
    g = cartesian_grid((4.0, 3.0, 2.0), 1.0)
    assert g.kind == "cartesian3d"
    assert len(g) == 24


def test_grid_count_robust_to_float_division():
    # 0.3 / 0.1 = 2.9999... must still produce 3 points
    g = cartesian_grid((0.3, 0.3, 0.3), 0.1)
    assert len(g) == 27


def test_anisotropic_resolution():
    g = cartesian_grid((2.0, 2.0, 2.0), (1.0, 0.5, 2.0))
    assert len(g) == 2 * 4 * 1


def test_coarse_resolution_falls_back_to_midpoint():
    with pytest.warns(UserWarning, match="coarser"):
        g = cartesian_grid((1.0, 1.0, 1.0), 5.0)
    assert len(g) == 1
    np.testing.assert_allclose(g.points[0], [0.5, 0.5, 0.5])


def test_grid_validation():
    with pytest.raises(ValueError, match="positive"):
        cartesian_grid((4.0, -3.0, 2.0), 1.0)
    with pytest.raises(ValueError, match="resolution"):
        cartesian_grid((4.0, 3.0, 2.0), 0.0)
    with pytest.raises(ValueError, match="kind"):
        CandidateGrid("spherical", np.zeros((1, 3)))
    with pytest.raises(ValueError, match="unit-norm"):
        CandidateGrid("doa_azimuth", np.array([[2.0, 0.0, 0.0]]))


def test_doa_azimuth_grid():
    g = doa_grid(math.pi / 2)
    assert g.kind == "doa_azimuth"
    assert len(g) == 4
    np.testing.assert_allclose(np.linalg.norm(g.points, axis=1), 1.0, atol=1e-12)
    assert np.all(g.points[:, 2] == 0.0)
    # phi = pi/2, pi, 3pi/2, 2pi
    np.testing.assert_allclose(g.points[0], [0.0, 1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(g.points[3], [1.0, 0.0, 0.0], atol=1e-12)


def test_doa_az_el_grid_covers_sphere():
    res = math.radians(10.0)
    g = doa_grid(res, res)
    assert g.kind == "doa_az_el"
    np.testing.assert_allclose(np.linalg.norm(g.points, axis=1), 1.0, atol=1e-12)
    # single point per pole
    poles = np.abs(g.points[:, 2]) > 1.0 - 1e-12
    assert poles.sum() == 2
    # any random bearing lies within the lattice spacing of some grid
    # point: worst case is half a cell diagonal, under 7.1 degrees here
    rng = np.random.default_rng(1)
    for _ in range(500):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        angles = np.arccos(np.clip(g.points @ v, -1.0, 1.0))
        assert np.degrees(angles.min()) <= 7.11


def test_doa_grid_validation():
    with pytest.raises(ValueError, match="azimuth_res"):
        doa_grid(0.0)
    with pytest.raises(ValueError, match="elevation_res"):
        doa_grid(math.pi / 4, 4.0)


def test_volume_accessors():
    v = Volume((1.0, 2.0, 3.0), (0.5, 1.0, 0.0))
    np.testing.assert_allclose(v.lo, [0.5, 1.0, 3.0])
    np.testing.assert_allclose(v.hi, [1.5, 3.0, 3.0])
    np.testing.assert_allclose(v.edges, [1.0, 2.0, 0.0])
    assert v.measure() == 0.0
    verts = np.where(_CORNERS, v.hi, v.lo)
    assert verts.shape == (8, 3)
    assert contains(v, verts).all()
    assert not contains(v, [[2.0, 2.0, 3.0]])[0]
    assert contains(v, [[1.6, 2.0, 3.0]], atol=0.2)[0]


def test_volume_from_bounds_roundtrip():
    v = Volume.from_bounds((0.0, 1.0, 2.0), (4.0, 5.0, 6.0))
    np.testing.assert_allclose(v.center, [2.0, 3.0, 4.0])
    np.testing.assert_allclose(v.half_extents, [2.0, 2.0, 2.0])
    with pytest.raises(ValueError, match="hi"):
        Volume.from_bounds((1.0, 0.0, 0.0), (0.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="non-negative"):
        Volume((0.0, 0.0, 0.0), (-1.0, 1.0, 1.0))


def test_subdivide_tiles_exactly():
    v = Volume((1.0, 1.0, 1.0), (1.0, 1.5, 0.5))
    kids = subdivide(v, (2, 3, 1))
    assert len(kids) == 6
    assert abs(sum(k.measure() for k in kids) - v.measure()) < 1e-12
    # children are accepted as a tiling of the parent
    VolumeGrid(kids, region=v)
    # and cover random interior points exactly once
    rng = np.random.default_rng(2)
    pts = rng.uniform(v.lo, v.hi, size=(200, 3))
    hits = np.stack([contains(k, pts, atol=1e-12) for k in kids]).sum(axis=0)
    assert np.all(hits >= 1)


def test_volume_grid_rejects_overlap_and_bad_tiling():
    a = Volume((0.5, 0.5, 0.5), (0.5, 0.5, 0.5))
    b = Volume((0.9, 0.5, 0.5), (0.5, 0.5, 0.5))
    with pytest.raises(ValueError, match="disjoint"):
        VolumeGrid([a, b])
    region = Volume.from_bounds((0.0, 0.0, 0.0), (2.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="tile"):
        VolumeGrid([a], region=region)


def test_volume_grid_disjointness_check_on_large_tilings():
    room = Volume.from_bounds((0.0, 0.0, 0.0), (6.0, 5.0, 3.0))
    cells = subdivide(room, (6, 5, 3))
    # face-touching cells are disjoint, as a user list and as a tiling
    VolumeGrid(cells)
    VolumeGrid(cells, region=room)
    assert len(partition_room((6.0, 5.0, 3.0), (14, 14, 14))) == 2744
    # one box straddling four cells, hidden in the middle of the list
    intruder = Volume((3.0, 2.0, 1.5), (0.25, 0.25, 0.25))
    with pytest.raises(ValueError, match="disjoint"):
        VolumeGrid(cells[:40] + [intruder] + cells[40:])


def test_partition_room_counts_and_points():
    vg = partition_room((4.0, 2.0, 2.0), (2, 2, 1))
    assert len(vg) == 4
    assert vg.points.shape == (4, 3)
    assert abs(sum(v.measure() for v in vg.volumes) - 16.0) < 1e-12


def test_sample_boundary_on_surface_and_area_weighted():
    region = Volume.from_bounds((0.0, 0.0, 0.0), (4.0, 2.0, 1.0))
    n = 100000
    g = sample_boundary(region, n, seed=5)
    pts = g.points
    on_face = np.zeros(len(pts), dtype=bool)
    counts = []
    for axis, coord_pairs in enumerate(((0.0, 4.0), (0.0, 2.0), (0.0, 1.0))):
        for coord in coord_pairs:
            sel = np.abs(pts[:, axis] - coord) < 1e-12
            counts.append(sel.sum())
            on_face |= sel
    assert on_face.all()
    assert contains(region, pts, atol=1e-12).all()
    # counts were collected axis-major: x-faces have area 2, y-faces 4, z-faces 8
    areas = np.array([2.0, 2.0, 4.0, 4.0, 8.0, 8.0])
    expect = n * areas / areas.sum()
    sigma = np.sqrt(expect * (1.0 - areas / areas.sum()))
    assert np.all(np.abs(np.array(counts) - expect) < 4.0 * sigma)


def test_sample_boundary_deterministic_by_seed():
    region = Volume.from_bounds((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    a = sample_boundary(region, 64, seed=3)
    b = sample_boundary(region, 64, seed=3)
    np.testing.assert_array_equal(a.points, b.points)
    c = sample_boundary(region, 64, seed=4)
    assert np.any(a.points != c.points)


def test_sample_boundary_validation():
    region = Volume.from_bounds((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="n >= 1"):
        sample_boundary(region, 0)
    degenerate = Volume((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="surface"):
        sample_boundary(degenerate, 4)


def test_intersect_volumes():
    a = Volume.from_bounds((0.0, 0.0, 0.0), (2.0, 2.0, 2.0))
    b = Volume.from_bounds((1.0, 1.0, 1.0), (3.0, 3.0, 3.0))
    v = intersect_volumes(a, b)
    np.testing.assert_allclose(v.lo, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(v.hi, [2.0, 2.0, 2.0])
    c = Volume.from_bounds((5.0, 5.0, 5.0), (6.0, 6.0, 6.0))
    with pytest.raises(ValueError, match="intersect"):
        intersect_volumes(a, c)


def test_grid_in_volume_matches_room_grid_at_origin():
    room = (4.0, 3.0, 2.0)
    vol = Volume.from_bounds((0.0, 0.0, 0.0), room)
    a = cartesian_grid(room, 0.5)
    b = grid_in_volume(vol, 0.5)
    np.testing.assert_allclose(a.points, b.points)
    # offset volumes shift the lattice with them
    vol2 = Volume.from_bounds((1.0, 1.0, 1.0), (2.0, 2.0, 2.0))
    c = grid_in_volume(vol2, 0.5)
    assert np.all(c.points > 1.0)
    assert contains(vol2, c.points).all()


def test_grid_in_volume_degenerate_axis():
    vol = Volume((1.0, 1.0, 0.5), (1.0, 1.0, 0.0))
    g = grid_in_volume(vol, 0.5)
    assert np.all(g.points[:, 2] == 0.5)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


_dim = st.floats(0.01, 20.0, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(dims=st.tuples(_dim, _dim, _dim), counts=st.tuples(*[st.integers(1, 7)] * 3))
def test_partition_room_matches_subdivide_bit_for_bit(dims, counts):
    """The array-built partition equals one Volume per subdivide child, bit for bit."""
    vg = partition_room(dims, counts)
    region = Volume.from_bounds(np.zeros(3), dims)
    kids = subdivide(region, counts)
    assert len(vg) == len(kids) == math.prod(counts)
    # the child expression, one index tuple at a time in C order
    half = region.half_extents / np.array(counts)
    centers = [region.lo + (2 * np.array(idx) + 1) * half
               for idx in itertools.product(*(range(k) for k in counts))]
    assert _same_bits(vg.centers, centers)
    assert _same_bits(vg.centers, [k.center for k in kids])
    assert _same_bits(vg.half_extents, [k.half_extents for k in kids])
    assert _same_bits(vg.lo, [k.lo for k in kids])
    assert _same_bits(vg.hi, [k.hi for k in kids])
    assert _same_bits(vg.points, vg.centers)
    # the Volume list built on demand, and its vertices in itertools.product order
    for vol, kid in zip(vg.volumes, kids):
        assert _same_bits(vol.center, kid.center) and _same_bits(vol.half_extents, kid.half_extents)
        corners = np.array(list(itertools.product(*zip(kid.lo, kid.hi))))
        assert _same_bits(np.where(_CORNERS, vol.hi, vol.lo), corners)
        assert _same_bits(np.where(_CORNERS, kid.hi, kid.lo), corners)
    ref = VolumeGrid(kids, region=region)
    for name in ("centers", "half_extents", "lo", "hi"):
        assert _same_bits(getattr(vg, name), getattr(ref, name))


def test_volume_grid_arrays_are_read_only():
    vg = partition_room((4.0, 2.0, 2.0), (2, 2, 1))
    for a in (vg.points, vg.centers, vg.half_extents, vg.lo, vg.hi):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 9.0
    # a caller's arrays are copied, not frozen
    centers, half = np.array([[1.0, 1.0, 1.0]]), np.array([[0.5, 0.5, 0.5]])
    VolumeGrid.from_arrays(centers, half)
    centers[0, 0] = 2.0


def test_volume_grid_from_arrays_runs_the_same_checks():
    with pytest.raises(ValueError, match="non-empty"):
        VolumeGrid([])
    with pytest.raises(ValueError, match="non-empty"):
        VolumeGrid.from_arrays(np.zeros((2, 3)), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="non-negative"):
        VolumeGrid.from_arrays([[0.0, 0.0, 0.0]], [[-1.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        VolumeGrid.from_arrays([[np.nan, 0.0, 0.0]], [[1.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="disjoint"):
        VolumeGrid.from_arrays([[0.5, 0.5, 0.5], [0.9, 0.5, 0.5]], [[0.5, 0.5, 0.5]] * 2)
    region = Volume.from_bounds((0.0, 0.0, 0.0), (2.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="tile"):
        VolumeGrid.from_arrays([[0.5, 0.5, 0.5]], [[0.5, 0.5, 0.5]], region)
    with pytest.raises(ValueError, match="outside"):
        VolumeGrid.from_arrays([[0.5, 0.5, 0.5], [2.5, 0.5, 0.5]], [[0.5, 0.5, 0.5]] * 2, region)


def _overlap_brute(lo, hi) -> bool:
    """Every pair of distinct boxes, with the grid's own per-axis test."""
    overlap = np.minimum(hi[:, None], hi[None]) - np.maximum(lo[:, None], lo[None])
    hit = np.all(overlap > _EPS, axis=2)
    np.fill_diagonal(hit, False)
    return bool(hit.any())


_nudge = st.sampled_from([0.0, 0.5 * _EPS, -0.5 * _EPS, 2.0 * _EPS, -2.0 * _EPS])


@st.composite
def _box_sets(draw):
    """Boxes on a coarse lattice, so faces touch, boxes repeat and extents vanish;
    each face is nudged by 0, +/-_EPS/2 or +/-2 _EPS, so overlaps fall just
    under and just over _EPS."""
    n = draw(st.integers(1, 12))
    cell = st.lists(st.integers(0, 3), min_size=3, max_size=3)
    lo = np.array(draw(st.lists(cell, min_size=n, max_size=n)), dtype=float)
    ext = np.array(draw(st.lists(cell, min_size=n, max_size=n)), dtype=float)
    scale = draw(st.sampled_from([1.0, 0.1, 3.7]))
    nudges = np.array(draw(st.lists(_nudge, min_size=6 * n, max_size=6 * n))).reshape(2, n, 3)
    hi = (lo + ext) * scale + nudges[1]
    lo = lo * scale + nudges[0]
    return lo, np.maximum(hi, lo)


@settings(max_examples=300, deadline=None)
@given(boxes=_box_sets(), chunk=st.sampled_from([1, 2, 3, 4096]))
def test_overlap_sweep_matches_brute_force(boxes, chunk):
    lo, hi = boxes
    expect = _overlap_brute(lo, hi)
    assert _interiors_overlap(lo, hi, chunk) == expect
    # and the grid built from these boxes is refused exactly then
    c, h = (lo + hi) / 2.0, (hi - lo) / 2.0
    try:
        VolumeGrid.from_arrays(c, h)
        refused = False
    except ValueError:
        refused = True
    assert refused == _overlap_brute(c - h, c + h)


def test_overlap_sweep_edge_cases():
    one = np.ones((1, 3))
    box = np.zeros((1, 3)), one
    assert not _interiors_overlap(*box)  # a single box
    assert _interiors_overlap(np.zeros((2, 3)), np.ones((2, 3)))  # duplicates
    assert not _interiors_overlap(np.zeros((2, 3)), np.zeros((2, 3)))  # duplicate points
    touching = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert not _interiors_overlap(touching, touching + 1.0)
    for depth, expect in ((0.5 * _EPS, False), (2.0 * _EPS, True)):
        lo = touching - [[0.0, 0.0, 0.0], [depth, 0.0, 0.0]]
        assert _interiors_overlap(lo, touching + 1.0) == expect


def test_overlap_sweep_memory_is_bounded_when_boxes_share_an_x_range():
    # 2000 boxes stacked along y over one x-range: about 2 M candidate
    # pairs, tested a chunk at a time
    n = 2000
    lo = np.column_stack([np.zeros(n), np.arange(n, dtype=float), np.zeros(n)])
    tracemalloc.start()
    try:
        assert not _interiors_overlap(lo, lo + 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _meshgrid_points(volume: Volume, resolution, planar: bool) -> np.ndarray:
    """grid_in_volume's points as it stacked them before grids were lattices."""
    n_axes = 2 if planar else 3
    res = np.broadcast_to(np.asarray(resolution, dtype=float), (n_axes,))
    axes = []
    for d, r, lo, c in zip(volume.edges, res, volume.lo, volume.center):
        count = int(math.floor(d / r + _EPS))
        axes.append(lo + np.arange(1, count + 1) * r if count >= 1 else np.array([c]))
    axes += [np.array([c]) for c in volume.center[n_axes:]]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@settings(max_examples=150, deadline=None)
@given(
    lo=st.tuples(*[st.floats(-5.0, 5.0, allow_nan=False)] * 3),
    dims=st.tuples(*[st.floats(0.0, 4.0, allow_nan=False)] * 3),
    resolution=st.floats(0.05, 1.5) | st.tuples(*[st.floats(0.05, 1.5)] * 3),
    planar=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_lattice_take_equals_the_meshgrid_points_bitwise(lo, dims, resolution, planar, seed):
    """A lattice's take(idx), for any indices in any order, and its points
    are the rows of the stacked meshgrid, bit for bit and in C order."""
    if planar and isinstance(resolution, tuple):
        resolution = resolution[:2]
    volume = Volume.from_bounds(lo, np.add(lo, dims))
    grid = grid_in_volume(volume, resolution, planar)
    want = _meshgrid_points(volume, resolution, planar)
    assert grid.axes is not None and len(grid) == len(want) == math.prod(grid.shape)
    assert _same_bits(grid.points, want)
    idx = np.random.default_rng(seed).integers(0, len(want), size=17)
    assert _same_bits(grid.take(idx), want[idx])
    assert _same_bits(grid.take(int(idx[0])), want[idx[0]])


def test_a_lattice_holds_its_axes_not_its_points():
    """A 90,000-point room lattice holds three axes; its points are built
    on each read, and only where read."""
    tracemalloc.start()
    try:
        grid = cartesian_grid((6.0, 5.0, 3.0), 0.1)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.shape == (60, 50, 30) and len(grid) == 90_000
    assert held < 16 * 2**10
    assert grid.points is not grid.points and np.array_equal(grid.points, grid.points)
    with pytest.raises(ValueError, match="Cartesian"):
        CandidateGrid("doa_azimuth", axes=[[1.0], [0.0], [0.0]])
    with pytest.raises(ValueError, match="non-empty and finite"):
        CandidateGrid("cartesian3d", axes=[[1.0], [], [0.0]])
