"""Tests for iterative de-emphasis and the estimate set."""

import math

import numpy as np
import pytest

from xsrp.features import (
    FrameConfig,
    GccConfig,
    LagVector,
    compute_lag_vectors,
    compute_spectral_gccs,
    frame_stack,
    spectral_from_lags,
)
from xsrp.geometry import MicArray, tdoa
from xsrp.grids import cartesian_grid
from xsrp.multisource import (
    EstimateSet,
    MultiConfig,
    deemphasize,
    deemphasize_spectral,
    default_notch_sigma,
    localize_multi,
)
from xsrp.search import SearchConfig, argmax_search
from xsrp.srp_core import srp_time_map
from xsrp.synth import SceneSpec, Source, add_noise, synthesize_free_field, white_noise

FS = 16000.0
ROOM = np.array([6.0, 5.0, 3.0])

# mics near the room corners so distinct sources produce well
# separated TDOAs on every pair
MIC_POSITIONS = np.array(
    [
        [0.3, 0.3, 0.3],
        [5.7, 0.4, 0.5],
        [0.4, 4.6, 2.7],
        [5.6, 4.5, 0.4],
        [3.0, 0.3, 2.7],
    ]
)

SRC_A = np.array([2.0, 2.0, 1.5])
SRC_B = np.array([4.5, 3.5, 1.5])


def wide_array() -> MicArray:
    return MicArray(MIC_POSITIONS, sample_rate=FS)


def bump_features(array, sources, max_lag=340, width_samples=0.8):
    """Per-pair lag vectors with one Gaussian bump per source.

    ``sources`` is a list of (position, amplitude). The bump width is
    in samples; max_lag must cover the largest TDOA of the geometry.
    """
    taus = np.arange(-max_lag, max_lag + 1) / array.sample_rate
    sig = width_samples / array.sample_rate
    feats = {}
    for pair in array.pairs():
        v = np.zeros_like(taus)
        for pos, amp in sources:
            t = tdoa(pos, pair, array)
            v += amp * np.exp(-((taus - t) ** 2) / (2.0 * sig**2))
        feats[pair] = LagVector(v, array.sample_rate)
    return feats


def test_notch_is_exactly_zero_at_center():
    lag = LagVector(np.ones(129), FS)
    t0 = 17 / FS  # on a lag sample, so the exponent is exactly zero
    out = deemphasize(lag, t0, default_notch_sigma(wide_array()))
    assert out.at_lag(17) == 0.0
    assert out.sample_rate == FS


def test_notch_locality_and_symmetry():
    lag = LagVector(np.ones(257), FS)
    sigma = 2.0 / FS
    out = deemphasize(lag, 0.0, sigma)
    vals = out.values
    k = out.max_lag
    # symmetric around the notch center
    np.testing.assert_allclose(vals, vals[::-1], atol=1e-15)
    # attenuation shrinks monotonically with distance from the center
    right = vals[k:]
    assert np.all(np.diff(right) >= -1e-15)
    # beyond six sigma the relative change is under 1e-6
    far = np.abs(out.lags) > 12
    assert np.all(np.abs(vals[far] - 1.0) < 1e-6)
    # and the floor is genuine: 1 - exp(-36/2)
    assert abs(vals[k + 12] - 1.0) == pytest.approx(math.exp(-18.0), rel=1e-9)


def test_notch_validation():
    lag = LagVector(np.ones(65), FS)
    with pytest.raises(ValueError, match="sigma"):
        deemphasize(lag, 0.0, 0.0)
    with pytest.raises(ValueError, match="lag range"):
        deemphasize(lag, 1.0, 1e-4)  # 1 s is far outside +/-32 samples


def test_default_notch_sigma_is_two_samples():
    assert default_notch_sigma(wide_array()) == 2.0 / FS


def test_spectral_notch_matches_lag_notch():
    rng = np.random.default_rng(3)
    lag = LagVector(rng.normal(size=255), FS)
    g = spectral_from_lags(lag)
    t0 = -9 / FS
    sigma = 2.0 / FS
    notched = deemphasize_spectral(g, t0, sigma)
    expect = spectral_from_lags(deemphasize(lag, t0, sigma))
    np.testing.assert_allclose(notched.values, expect.values, atol=1e-12)
    assert notched.sample_rate == FS


def test_spectral_notch_stays_in_band():
    array = MicArray([[0.0, 0.0, 0.0], [0.4, 0.0, 0.0]], sample_rate=FS)
    rng = np.random.default_rng(4)
    frames = rng.normal(size=(2, 512))
    gccs = compute_spectral_gccs(frames, array, GccConfig(band=(300.0, 3000.0)))
    g = gccs[next(iter(gccs))]
    notched = deemphasize_spectral(g, 2 / FS, 2 / FS)
    assert np.all(notched.values[~g.in_band] == 0.0)
    np.testing.assert_array_equal(notched.in_band, g.in_band)


def test_single_source_path_is_bitwise_identical():
    array = wide_array()
    sig = white_noise(4096, seed=11)
    scene = SceneSpec(ROOM, [Source(SRC_A, sig)])
    signals = add_noise(synthesize_free_field(scene, array), 25.0, seed=2)
    frames = frame_stack(signals, FrameConfig(4096, 4096), 0)
    feats = compute_lag_vectors(frames, array)
    grid = cartesian_grid(ROOM, 0.5)

    single = argmax_search(srp_time_map(feats, grid, array))
    multi = localize_multi(feats, grid, array, MultiConfig(n_sources=1))

    assert len(multi) == 1
    assert np.array_equal(multi.positions[0], single.estimate)
    assert multi.scores[0] == single.score


def test_two_bump_sources_recovered_in_score_order():
    array = wide_array()
    feats = bump_features(array, [(SRC_A, 1.0), (SRC_B, 0.8)])
    grid = cartesian_grid(ROOM, 0.5)
    est = localize_multi(feats, grid, array, MultiConfig(n_sources=2))
    assert len(est) == 2
    np.testing.assert_allclose(est.positions[0], SRC_A, atol=1e-9)
    np.testing.assert_allclose(est.positions[1], SRC_B, atol=1e-9)
    assert est.scores[0] >= est.scores[1]


def test_auto_mode_stops_after_single_source():
    array = wide_array()
    feats = bump_features(array, [(SRC_A, 1.0)])
    grid = cartesian_grid(ROOM, 0.5)
    est = localize_multi(feats, grid, array, MultiConfig(n_sources=None, score_floor=0.4))
    assert len(est) == 1
    np.testing.assert_allclose(est.positions[0], SRC_A, atol=1e-9)


def test_auto_mode_warns_on_nonpositive_first_peak():
    array = wide_array()
    feats = {p: LagVector(np.zeros(681), FS) for p in array.pairs()}
    grid = cartesian_grid(ROOM, 1.0)
    with pytest.warns(UserWarning, match="non-positive"):
        est = localize_multi(feats, grid, array, MultiConfig(n_sources=None))
    assert len(est) == 0


def test_min_source_distance_stops_extraction():
    array = wide_array()
    feats = bump_features(array, [(SRC_A, 1.0)])
    grid = cartesian_grid(ROOM, 0.5)
    cfg = MultiConfig(n_sources=2, min_source_distance=100.0)
    with pytest.warns(UserWarning, match="min_source_distance"):
        est = localize_multi(feats, grid, array, cfg)
    assert len(est) == 1


def test_third_source_extraction_warns():
    array = wide_array()
    feats = bump_features(array, [(SRC_A, 1.0), (SRC_B, 0.8)])
    grid = cartesian_grid(ROOM, 0.5)
    with pytest.warns(UserWarning, match="third"):
        localize_multi(feats, grid, array, MultiConfig(n_sources=3))


def test_non_exhaustive_search_rejected():
    array = wide_array()
    feats = bump_features(array, [(SRC_A, 1.0)])
    grid = cartesian_grid(ROOM, 1.0)
    with pytest.raises(ValueError, match="exhaustive"):
        localize_multi(feats, grid, array, search=SearchConfig(mode="src"))


def test_multi_config_validation():
    with pytest.raises(ValueError, match="n_sources"):
        MultiConfig(n_sources=0)
    with pytest.raises(ValueError, match="notch_sigma"):
        MultiConfig(notch_sigma=0.0)
    with pytest.raises(ValueError, match="min_source_distance"):
        MultiConfig(min_source_distance=-0.1)
    with pytest.raises(ValueError, match="score_floor"):
        MultiConfig(score_floor=1.5)


def test_estimate_set_ordering_and_json():
    pairs = [([1.0, 2.0, 3.0], 0.5), ([4.0, 5.0, 6.0], 2.0)]
    est = EstimateSet.from_pairs(pairs)
    np.testing.assert_allclose(est.positions[0], [4.0, 5.0, 6.0])
    assert list(est.scores) == [2.0, 0.5]
    records = est.records()
    assert records == [
        {"x": 4.0, "y": 5.0, "z": 6.0, "score": 2.0},
        {"x": 1.0, "y": 2.0, "z": 3.0, "score": 0.5},
    ]
    assert len(EstimateSet.from_pairs([])) == 0
    with pytest.raises(ValueError, match="non-increasing"):
        EstimateSet(np.zeros((2, 3)), [1.0, 2.0])
    with pytest.raises(ValueError, match="equal length"):
        EstimateSet(np.zeros((2, 3)), [1.0])
    seen = [(p.copy(), s) for p, s in est]
    assert len(seen) == 2 and seen[0][1] == 2.0
