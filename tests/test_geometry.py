"""Geometry tests: times of flight, TDOAs, and their far-field limits.

The numeric oracles here are either closed-form (hyperbola loci,
collinear bearings) or independently derived constants frozen into
the assertions.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xsrp.geometry import (
    MicArray,
    MicPair,
    SphericalDirection,
    max_tdoa,
    tdoa,
    tdoa_far_field,
    tdoa_matrix,
    tof,
    tof_matrix,
)


def pair_array(spacing=1.0, fs=16000.0):
    return MicArray([[0.0, 0.0, 0.0], [spacing, 0.0, 0.0]], sample_rate=fs)


class TestSphericalDirection:
    def test_unit_vectors(self):
        east = SphericalDirection(0.0, 0.0)
        np.testing.assert_allclose(east.to_unit(), [1.0, 0.0, 0.0], atol=1e-15)
        up = SphericalDirection(0.0, math.pi / 2)
        np.testing.assert_allclose(up.to_unit(), [0.0, 0.0, 1.0], atol=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(
        az=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
        el=st.floats(-math.pi / 2, math.pi / 2),
    )
    def test_to_unit_is_unit_norm_and_inverts(self, az, el):
        x, y, z = SphericalDirection(az, el).to_unit()
        assert abs(math.sqrt(x * x + y * y + z * z) - 1.0) <= 1e-12
        # atan2 of (z, horizontal norm): asin(z) loses digits near the poles
        assert abs(math.atan2(z, math.hypot(x, y)) - el) <= 1e-12
        if abs(el) < math.pi / 2 - 1e-6:
            wrapped = (math.atan2(y, x) - az + math.pi) % (2.0 * math.pi) - math.pi
            assert abs(wrapped) <= 1e-12

    def test_domain_validation(self):
        with pytest.raises(ValueError, match="azimuth"):
            SphericalDirection(2.0 * math.pi, 0.0)
        with pytest.raises(ValueError, match="elevation"):
            SphericalDirection(0.0, 2.0)


class TestMicArray:
    def test_pairs_lexicographic(self):
        arr = MicArray(np.eye(3), sample_rate=8000.0)
        assert arr.pairs() == [MicPair(0, 1), MicPair(0, 2), MicPair(1, 2)]
        assert arr.n_pairs == 3

    def test_pair_count_matches_formula(self):
        rng = np.random.default_rng(0)
        for m in (2, 3, 5, 8):
            arr = MicArray(rng.normal(size=(m, 3)), sample_rate=48000.0)
            assert len(arr.pairs()) == m * (m - 1) // 2 == arr.n_pairs

    def test_pairs_and_pair_rows_are_built_once_and_returned_as_new_lists(self):
        """pairs() and pair_rows() equal the per-call construction, and a
        caller that edits the list it got does not change the next."""
        for m in (2, 3, 8):
            arr = MicArray(np.random.default_rng(m).normal(size=(m, 3)), sample_rate=16000.0)
            want = [MicPair(i, j) for i in range(m) for j in range(i + 1, m)]
            rows, row = [], 0
            for l in range(m - 1):
                rows.append((l, slice(row, row + m - 1 - l)))
                row += m - 1 - l
            got = arr.pairs()
            got.pop()
            assert arr.pairs() == want and arr.pairs() is not arr.pairs()
            assert arr.pair_rows() == rows

    def test_min_spacing(self):
        arr = MicArray([[0, 0, 0], [1, 0, 0], [5, 0, 0]], sample_rate=16000.0)
        assert arr.min_spacing() == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            MicArray([[0, 0, 0]], sample_rate=16000.0)
        with pytest.raises(ValueError, match="distinct"):
            MicArray([[0, 0, 0], [0, 0, 0]], sample_rate=16000.0)
        with pytest.raises(ValueError, match="sample_rate"):
            MicArray(np.eye(3), sample_rate=0.0)
        with pytest.raises(ValueError, match="speed_of_sound"):
            MicArray(np.eye(3), sample_rate=16000.0, speed_of_sound=-1.0)
        with pytest.raises(ValueError, match="shape"):
            MicArray(np.zeros((3, 2)), sample_rate=16000.0)

    def test_mic_pair_ordering(self):
        with pytest.raises(ValueError):
            MicPair(2, 1)
        with pytest.raises(ValueError):
            MicPair(-1, 0)
        with pytest.raises(ValueError):
            MicPair(1, 1)


def test_tof_one_meter():
    # 1 m at the default 343 m/s
    assert abs(tof((0, 0, 0), (1, 0, 0)) - 0.0029154518950437317) < 1e-18


def test_tof_custom_speed():
    assert tof((0, 0, 0), (0, 2, 0), speed_of_sound=1000.0) == 0.002


def test_points_reject_non_finite():
    with pytest.raises(ValueError, match="finite"):
        tof(np.array([np.nan, 0.0, 0.0]), (1, 0, 0))
    with pytest.raises(ValueError, match="finite"):
        tdoa(np.array([0.0, np.inf, 0.0]), MicPair(0, 1), pair_array())


def test_tdoa_two_tof_difference():
    # mics 0.686 m apart, source 1 m beyond the first mic on the axis:
    # paths are 1.0 m and 1.686 m, so the pair delay is -0.686/343 = -2 ms
    arr = pair_array(spacing=0.686)
    val = tdoa(np.array([-1.0, 0.0, 0.0]), MicPair(0, 1), arr)
    assert abs(val - (-0.002)) < 1e-15


def test_tdoa_sign_flips_with_side():
    arr = pair_array(spacing=0.686)
    left = tdoa(np.array([-1.0, 0.0, 0.0]), MicPair(0, 1), arr)
    right = tdoa(np.array([1.686, 0.0, 0.0]), MicPair(0, 1), arr)
    assert abs(left + right) < 1e-15  # mirror positions, opposite delays


def test_tdoa_antisymmetry():
    rng = np.random.default_rng(3)
    arr = MicArray(rng.uniform(0, 4, size=(4, 3)), sample_rate=16000.0)
    for _ in range(100):
        u = rng.uniform(-2, 6, size=3)
        for p in arr.pairs():
            fwd = tdoa(u, p, arr)
            rev = tof(u, arr.positions[p.m], arr.speed_of_sound) - tof(
                u, arr.positions[p.l], arr.speed_of_sound
            )
            assert fwd == -rev


def test_tdoa_bounded_by_max_tdoa():
    rng = np.random.default_rng(7)
    for _ in range(50):
        arr = MicArray(rng.uniform(0, 5, size=(4, 3)), sample_rate=16000.0)
        pts = rng.uniform(-10, 15, size=(200, 3))
        td = tdoa_matrix(pts, arr)
        bound = np.array([max_tdoa(p, arr) for p in arr.pairs()])
        assert np.all(np.abs(td) <= bound[None, :] + 1e-12)


def test_max_tdoa_on_axis():
    arr = pair_array(spacing=0.686)
    assert abs(max_tdoa(MicPair(0, 1), arr) - 0.002) < 1e-18
    # collinear exterior points attain the bound
    val = tdoa(np.array([5.0, 0.0, 0.0]), MicPair(0, 1), arr)
    assert abs(val - 0.002) < 1e-15


def test_hyperboloid_locus_constant_tdoa():
    # Points sharing a TDOA lie on one sheet of a hyperboloid whose
    # foci are the two mics. With foci (+-f, 0, 0) and semi-axis a,
    # the branch nearer +f satisfies d(-f) - d(+f) = 2a, so the pair
    # (0, 1) with mic0 at -f sees tdoa = +2a/c everywhere on it.
    f, a = 1.0, 0.4
    b = math.sqrt(f * f - a * a)
    arr = MicArray([[-f, 0.0, 0.0], [f, 0.0, 0.0]], sample_rate=16000.0)
    c = arr.speed_of_sound
    expected = 2.0 * a / c
    for t in np.linspace(-3.0, 3.0, 25):
        for phi in np.linspace(0.0, 2.0 * math.pi, 9):
            u = np.array(
                [
                    a * math.cosh(t),
                    b * math.sinh(t) * math.cos(phi),
                    b * math.sinh(t) * math.sin(phi),
                ]
            )
            assert abs(tdoa(u, MicPair(0, 1), arr) - expected) < 1e-12


def test_far_field_collinear_and_orthogonal():
    arr = pair_array(spacing=1.0)
    p = MicPair(0, 1)
    # bearing along the baseline: mic1 is nearer the source, hears it
    # first, so the (0, 1) delay is positive and maximal
    assert abs(tdoa_far_field((1.0, 0.0, 0.0), p, arr) - 1.0 / 343.0) < 1e-18
    assert abs(tdoa_far_field((-1.0, 0.0, 0.0), p, arr) + 1.0 / 343.0) < 1e-18
    # broadside bearing: no delay
    assert tdoa_far_field((0.0, 1.0, 0.0), p, arr) == 0.0
    assert tdoa_far_field((0.0, 0.0, 1.0), p, arr) == 0.0


def test_far_field_requires_unit_norm():
    arr = pair_array()
    with pytest.raises(ValueError, match="unit-norm"):
        tdoa_far_field((2.0, 0.0, 0.0), MicPair(0, 1), arr)
    with pytest.raises(ValueError, match="unit-norm"):
        tdoa_matrix(np.array([[0.5, 0.5, 0.5]]), arr, far_field=True)


def test_far_field_limit_of_exact_tdoa():
    # the exact TDOA converges to the plane-wave value as the source
    # recedes along a fixed bearing; error should fall roughly like 1/r
    rng = np.random.default_rng(11)
    arr = MicArray(rng.uniform(-0.2, 0.2, size=(5, 3)), sample_rate=16000.0)
    for trial in range(20):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        for p in arr.pairs():
            ff = tdoa_far_field(d, p, arr)
            errs = []
            for r in (10.0, 100.0, 1000.0):
                errs.append(abs(tdoa(r * d, p, arr) - ff))
            # residual is the curvature term, bounded by the spread of
            # |v|^2 - (v.d)^2 over the pair divided by 2*r*c; for mics
            # inside [-0.2, 0.2]^3 that is 0.12/(2*r*343)
            assert errs[0] < 0.12 / (2.0 * 10.0 * 343.0) * 1.01
            assert errs[2] < 0.12 / (2.0 * 1000.0 * 343.0) * 1.01
            # error decays monotonically with distance
            assert errs[1] < errs[0] or errs[0] < 1e-14
            assert errs[2] < errs[1] or errs[1] < 1e-14


def test_batch_matches_scalar():
    rng = np.random.default_rng(5)
    arr = MicArray(rng.uniform(0, 3, size=(4, 3)), sample_rate=16000.0)
    pts = rng.uniform(-1, 4, size=(50, 3))
    tm = tof_matrix(pts, arr)
    td = tdoa_matrix(pts, arr)
    dirs = rng.normal(size=(50, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    fd = tdoa_matrix(dirs, arr, far_field=True)
    for i in range(50):
        for m in range(arr.n_mics):
            assert abs(tm[i, m] - tof(pts[i], arr.positions[m])) < 1e-15
        for j, p in enumerate(arr.pairs()):
            assert abs(td[i, j] - tdoa(pts[i], p, arr)) < 1e-15
            assert abs(fd[i, j] - tdoa_far_field(dirs[i], p, arr)) < 1e-15


def test_tof_matrix_shape():
    arr = MicArray(np.eye(3), sample_rate=8000.0)
    assert tof_matrix(np.zeros((7, 3)), arr).shape == (7, 3)
    assert tdoa_matrix(np.zeros((7, 3)), arr).shape == (7, 3)


def test_tof_matrix_equals_norm_formula_bitwise():
    # the column form sums dx*dx + dy*dy + dz*dz in np.linalg.norm's
    # order, so the two agree exactly, not just to rounding
    rng = np.random.default_rng(9)
    arr = MicArray(rng.uniform(0, 5, size=(8, 3)), sample_rate=16000.0)
    scale = rng.choice([1e-6, 1e-2, 1.0, 1e3], size=(20000, 1))
    pts = rng.uniform(-3, 8, size=(20000, 3)) * scale
    expect = np.stack([np.linalg.norm(pts - v, axis=1) for v in arr.positions], axis=1)
    np.testing.assert_array_equal(tof_matrix(pts, arr), expect / arr.speed_of_sound)
    one = tof_matrix(pts[0], arr)
    np.testing.assert_array_equal(one, expect[:1] / arr.speed_of_sound)
