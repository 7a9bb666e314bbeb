"""Grid and volume tests.

Counting oracles are worked by hand (a 4 x 3 room at 1 m spacing has
12 interior lattice points); geometric properties (tiling, coverage,
containment) are checked exactly or by seeded Monte Carlo.
"""

import math

import numpy as np
import pytest

from xsrp.grids import (
    CandidateGrid,
    Volume,
    VolumeGrid,
    cartesian_grid,
    doa_grid,
    grid_in_volume,
    intersect_volumes,
    partition_room,
    sample_boundary,
    subdivide,
)


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
    assert g.resolution == (1.0, 1.0, 1.0)


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
    assert abs(v.diameter() - math.sqrt(5.0)) < 1e-12
    verts = v.vertices()
    assert verts.shape == (8, 3)
    assert v.contains(verts).all()
    assert not v.contains([[2.0, 2.0, 3.0]])[0]
    assert v.contains([[1.6, 2.0, 3.0]], atol=0.2)[0]


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
    hits = np.stack([k.contains(pts, atol=1e-12) for k in kids]).sum(axis=0)
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
    assert region.contains(pts, atol=1e-12).all()
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
    assert vol2.contains(c.points).all()


def test_grid_in_volume_degenerate_axis():
    vol = Volume((1.0, 1.0, 0.5), (1.0, 1.0, 0.0))
    g = grid_in_volume(vol, 0.5)
    assert np.all(g.points[:, 2] == 0.5)
