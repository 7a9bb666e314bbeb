"""Tests for iterative de-emphasis and the estimate set."""

import collections
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xsrp import features, srp_core
from xsrp.features import (
    FrameConfig,
    GccConfig,
    LagBlock,
    SpectralBlock,
    compute_spectral_gccs,
    frame_stack,
    gccs_from_half,
    half_from_lags,
    lag_block,
    lags_from_half,
)
from xsrp.geometry import MicArray, MicPair, far_field_tdoa_matrix, tdoa, tdoa_matrix
from xsrp.grids import CandidateGrid, cartesian_grid
from xsrp.multisource import (
    EstimateSet,
    MultiConfig,
    deemphasize,
    default_notch_sigma,
    localize_multi,
    localize_multi_batch,
)
from xsrp.search import SearchConfig, argmax_search
from xsrp.srp_core import counter, lag_bounds, lag_table, srp_time_map, time_argmax, time_cells
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
PAIR = MicPair(0, 1)


def wide_array() -> MicArray:
    return MicArray(MIC_POSITIONS, sample_rate=FS)


def bump_features(array, sources, max_lag=340, width_samples=0.8):
    """A lag block, a row per pair, with one Gaussian bump per source.

    ``sources`` is a list of (position, amplitude). The bump width is
    in samples; max_lag must cover the largest TDOA of the geometry.
    """
    taus = np.arange(-max_lag, max_lag + 1) / array.sample_rate
    sig = width_samples / array.sample_rate
    rows = np.zeros((array.n_pairs, len(taus)))
    for v, pair in zip(rows, array.pairs()):
        for pos, amp in sources:
            t = tdoa(pos, pair, array)
            v += amp * np.exp(-((taus - t) ** 2) / (2.0 * sig**2))
    return LagBlock(rows, array.sample_rate)


def spectral_of(lag: LagBlock, pairs) -> SpectralBlock:
    """The full-band spectra of a lag block's rows, their wrap slot at lag n/2 zero."""
    k = lag.max_lag
    n = 2 * (k + 1)
    circ = np.zeros((len(lag.values), n))
    circ[:, : k + 1] = lag.values[:, k:]
    circ[:, n - k:] = lag.values[:, :k]
    band = slice(0, n // 2 + 1)
    return SpectralBlock(np.fft.fft(circ)[:, band], band, np.ones(n, dtype=bool), lag.sample_rate, pairs)


def test_notch_is_exactly_zero_at_center():
    lag = LagBlock(np.ones((1, 129)), FS)
    t0 = 17 / FS  # on a lag sample, so the exponent is exactly zero
    out = deemphasize(lag, [t0], default_notch_sigma(wide_array()))
    assert out.values[0, 17 + out.max_lag] == 0.0
    assert out.sample_rate == FS
    # every pair at once, each zero at its own center
    n_pairs = wide_array().n_pairs
    feats = LagBlock(np.ones((n_pairs, 129)), FS)
    centers = np.arange(n_pairs) - 4
    out = deemphasize(feats, centers / FS, 2.0 / FS)
    assert out.values.shape == (n_pairs, 129)
    for row, c in zip(out.values, centers):
        assert row[int(c) + out.max_lag] == 0.0


def test_notch_locality_and_symmetry():
    lag = LagBlock(np.ones((1, 257)), FS)
    sigma = 2.0 / FS
    out = deemphasize(lag, [0.0], sigma)
    vals = out.values[0]
    k = out.max_lag
    # symmetric around the notch center
    np.testing.assert_allclose(vals, vals[::-1], atol=1e-15)
    # attenuation shrinks monotonically with distance from the center
    right = vals[k:]
    assert np.all(np.diff(right) >= -1e-15)
    # beyond six sigma the relative change is under 1e-6
    far = np.abs(np.arange(-k, k + 1)) > 12
    assert np.all(np.abs(vals[far] - 1.0) < 1e-6)
    # and the floor is genuine: 1 - exp(-36/2)
    assert abs(vals[k + 12] - 1.0) == pytest.approx(math.exp(-18.0), rel=1e-9)


def test_notch_validation():
    feats = LagBlock(np.ones((1, 65)), FS)
    with pytest.raises(ValueError, match="sigma"):
        deemphasize(feats, [0.0], 0.0)
    with pytest.raises(ValueError, match="lag range"):
        deemphasize(feats, [1.0], 1e-4)  # 1 s is far outside +/-32 samples
    with pytest.raises(ValueError, match="lag range"):
        deemphasize(feats, [float("nan")], 1e-4)
    with pytest.raises(ValueError, match="2 tdoas for 1 pairs"):
        deemphasize(feats, [0.0, 0.0], 1e-4)


def full_block_notch(lags, tdoa_hat, sigma, fs):
    """The notch evaluated on every lag of every row, no window."""
    k = (lags.shape[1] - 1) // 2
    taus = np.arange(-k, k + 1) / fs
    return lags * (1.0 - np.exp(-((taus - tdoa_hat[:, None]) ** 2) / (2.0 * sigma**2)))


@pytest.mark.parametrize("sigma_samples", [0.3, 2.0, 7.5, 40.0, 1e6])
def test_windowed_notch_equals_full_block_formula(sigma_samples):
    # deemphasize notches only +-ceil(9 sigma fs) lags around each center;
    # beyond them the factor is exactly 1.0, so the results are identical.
    # 40 samples covers the whole +-255-lag block, 1e6 saturates the window
    array = MicArray(np.random.default_rng(5).uniform(0, 4, size=(8, 3)), sample_rate=FS)
    pairs = array.pairs()
    rng = np.random.default_rng(6)
    k = 255
    sigma = sigma_samples / FS
    # centers on and off lag samples, at and near both ends of the block
    edges = np.array([k, -k, k - 0.4, -k + 0.4, k - 3, -k + 2.5])
    centers = np.concatenate([edges, rng.uniform(-k, k, size=len(pairs) - len(edges))]) / FS
    lags = rng.normal(size=(len(pairs), 2 * k + 1))
    out = deemphasize(LagBlock(lags.copy(), FS), centers, sigma)
    expect = full_block_notch(lags, centers, sigma, FS)
    np.testing.assert_array_equal(out.values, expect)

    gccs = compute_spectral_gccs(rng.normal(size=(8, 256)), array, GccConfig(band=(300.0, 5000.0)))
    first = gccs[pairs[0]]
    keep = first.in_band[: first.n_fft // 2 + 1]
    block = lags_from_half(np.stack([gccs[p].values[: len(keep)] for p in pairs]))
    assert block.shape == lags.shape  # 256-sample frames give the same +-255 lags
    half = half_from_lags(full_block_notch(block, centers, sigma, FS))
    half[:, ~keep] = 0.0
    expect = gccs_from_half(half, first.in_band, FS, pairs)
    out = deemphasize(gccs, centers, sigma)
    for p in pairs:
        np.testing.assert_array_equal(out[p].values, expect[p].values)


def test_default_notch_sigma_is_two_samples():
    assert default_notch_sigma(wide_array()) == 2.0 / FS


def test_spectral_notch_matches_lag_notch():
    rng = np.random.default_rng(3)
    lag = LagBlock(rng.normal(size=(1, 255)), FS)
    t0 = -9 / FS
    sigma = 2.0 / FS
    notched = deemphasize(spectral_of(lag, [PAIR]), [t0], sigma)[PAIR]
    expect = spectral_of(deemphasize(lag.copy(), [t0], sigma), [PAIR])[PAIR]
    np.testing.assert_allclose(notched.values, expect.values, atol=1e-12)
    assert notched.sample_rate == FS


def test_spectral_notch_stays_in_band():
    array = MicArray([[0.0, 0.0, 0.0], [0.4, 0.0, 0.0]], sample_rate=FS)
    rng = np.random.default_rng(4)
    frames = rng.normal(size=(2, 512))
    gccs = compute_spectral_gccs(frames, array, GccConfig(band=(300.0, 3000.0)))
    g = gccs[PAIR]
    notched = deemphasize(gccs, [2 / FS], 2 / FS)[PAIR]
    assert np.all(notched.values[~g.in_band] == 0.0)
    assert np.any(notched.values[g.in_band] != g.values[g.in_band])
    np.testing.assert_array_equal(notched.in_band, g.in_band)


def two_sided(block: SpectralBlock) -> dict:
    """A block's features as a plain dict of two-sided SpectralGccs, laid out eagerly."""
    return gccs_from_half(block.spectra, block.in_band, block.sample_rate, block.pairs, block.band)


def block_of(gccs: dict) -> SpectralBlock:
    """Two-sided SpectralGccs, in pair order, as the block of their in-band f >= 0 bins."""
    first = next(iter(gccs.values()))
    band = features._half_band(first.in_band)
    spectra = np.stack([g.values[band] for g in gccs.values()])
    return SpectralBlock(spectra, band, first.in_band, first.sample_rate, list(gccs))


def dict_chain_notch(gccs, tdoa_hat, sigma):
    """Frequency de-emphasis as a dict of two-sided SpectralGccs took it: every
    pair's f >= 0 half by one irfft, the notch, one rfft, the band mask re-applied."""
    pairs = list(gccs)
    first = gccs[pairs[0]]
    keep = first.in_band[: first.n_fft // 2 + 1]
    lags = lags_from_half(np.stack([gccs[p].values[: len(keep)] for p in pairs]))
    half = half_from_lags(full_block_notch(lags, np.asarray(tdoa_hat), sigma, first.sample_rate))
    half[:, ~keep] = 0.0
    return gccs_from_half(half, first.in_band, first.sample_rate, pairs)


@settings(max_examples=40, deadline=None)
@given(
    n_mics=st.integers(2, 6),
    log_len=st.integers(4, 9),
    edges=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    sigma_samples=st.floats(0.3, 20.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_notch_equals_the_two_sided_dict_chain_bitwise(n_mics, log_len, edges, sigma_samples, seed):
    rng = np.random.default_rng(seed)
    L, (u, v) = 2**log_len, sorted(edges)
    array = MicArray(rng.uniform(0.0, 3.0, size=(n_mics, 3)), sample_rate=FS)
    band = (u * FS / 2, max(v, u + 1e-3) * FS / 2)
    block = compute_spectral_gccs(rng.normal(size=(n_mics, L)), array, GccConfig(band=band))
    centers = rng.uniform(-(L - 1), L - 1, size=array.n_pairs) / FS
    out = deemphasize(block, centers, sigma_samples / FS)
    assert isinstance(out, SpectralBlock) and out is not block
    assert out.spectra.shape == block.spectra.shape and out.spectra.base is None
    want = dict_chain_notch(two_sided(block), centers, sigma_samples / FS)
    for p, w in want.items():
        assert out[p].values.tobytes() == w.values.tobytes()
        assert out[p].in_band.tobytes() == w.in_band.tobytes()


def _dict_chain_rounds(gccs, grid, array, cfg):
    """Frequency-domain rounds of one frame on a two-sided dict: srp_freq_map
    of its block -> argmax_search -> the dict chain's notch."""
    sigma = cfg.notch_sigma or default_notch_sigma(array)
    cap, auto = cfg.n_sources or 10, cfg.n_sources is None
    work, found = gccs, []
    while True:
        res = argmax_search(srp_core.srp_freq_map(block_of(work), grid, array))
        if auto and not found and res.score <= 0:
            warnings.warn("auto mode: first peak is non-positive; no sources found")
            break
        if auto and found and res.score < cfg.score_floor * found[0][1]:
            break
        found.append((res.estimate, res.score))
        if len(found) == cap:
            break
        if len(found) == 2:
            warnings.warn("extracting a third or later source")
        work = dict_chain_notch(work, tdoa_matrix(res.estimate[None, :], array)[0], sigma)
    return EstimateSet.from_pairs(found)


@pytest.mark.parametrize("n_sources", [1, 2, 3, None])
def test_frequency_rounds_on_a_block_equal_the_two_sided_dict_chain(n_sources):
    array = wide_array()
    sig_a, sig_b = white_noise(1024, seed=21), white_noise(1024, seed=22)
    scene = SceneSpec(ROOM, [Source(SRC_A, sig_a), Source(SRC_B, 0.8 * sig_b)])
    signals = add_noise(synthesize_free_field(scene, array), 20.0, seed=3)
    block = compute_spectral_gccs(frame_stack(signals, FrameConfig(1024, 1024), 0), array,
                                  GccConfig(band=(200.0, 4000.0)))
    grid = cartesian_grid(ROOM, 0.5)
    cfg = MultiConfig(n_sources=n_sources, score_floor=0.3)
    with warnings.catch_warnings(record=True) as want_warnings:
        warnings.simplefilter("always")
        want = _dict_chain_rounds(two_sided(block), grid, array, cfg)
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        got = localize_multi(block, grid, array, cfg)
    assert got.positions.tobytes() == want.positions.tobytes()
    assert got.scores.tobytes() == want.scores.tobytes()
    assert _warning_counts(got_warnings) == _warning_counts(want_warnings)


def test_single_source_path_is_bitwise_identical():
    array = wide_array()
    sig = white_noise(4096, seed=11)
    scene = SceneSpec(ROOM, [Source(SRC_A, sig)])
    signals = add_noise(synthesize_free_field(scene, array), 25.0, seed=2)
    frames = frame_stack(signals, FrameConfig(4096, 4096), 0)
    feats = lag_block(frames, array)
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


def test_two_bump_sources_recovered_in_frequency_rounds():
    array = wide_array()
    feats = spectral_of(bump_features(array, [(SRC_A, 1.0), (SRC_B, 0.8)]), array.pairs())
    grid = cartesian_grid(ROOM, 0.5)
    est = localize_multi(feats, grid, array, MultiConfig(n_sources=2))
    assert len(est) == 2
    np.testing.assert_allclose(est.positions[0], SRC_A, atol=1e-9)
    np.testing.assert_allclose(est.positions[1], SRC_B, atol=1e-9)


def test_auto_mode_stops_after_single_source():
    array = wide_array()
    feats = bump_features(array, [(SRC_A, 1.0)])
    grid = cartesian_grid(ROOM, 0.5)
    est = localize_multi(feats, grid, array, MultiConfig(n_sources=None, score_floor=0.4))
    assert len(est) == 1
    np.testing.assert_allclose(est.positions[0], SRC_A, atol=1e-9)


def test_auto_mode_warns_on_nonpositive_first_peak():
    array = wide_array()
    feats = LagBlock(np.zeros((array.n_pairs, 681)), FS)
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


def test_a_batch_holds_one_feature_domain_and_may_be_empty():
    array = wide_array()
    grid = cartesian_grid(ROOM, 1.0)
    lags = bump_features(array, [(SRC_A, 1.0)])
    spectra = spectral_of(lags, array.pairs())
    for batch in ([lags, spectra], [spectra, lags]):
        with pytest.raises(ValueError, match="mixes time and frequency"):
            localize_multi_batch(batch, grid, array)
    assert localize_multi_batch([], grid, array) == []  # the end of a stream


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


# ------------------------------------------------------- batched time rounds


@st.composite
def _batch_cases(draw):
    """An array, a Cartesian or DOA grid, and 1-9 frames' lag blocks.

    Lags are normal floats, small integers (plateaus of tied scores, as
    in C4 where candidates share a lag tuple) or all zeros; the grid
    repeats some points, which ties their scores exactly.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fs = draw(st.sampled_from([8000.0, 16000.0]))
    array = MicArray(rng.uniform(0.0, 2.0, size=(draw(st.integers(2, 8)), 3)), sample_rate=fs)
    k = int(lag_bounds(array).max()) + draw(st.integers(0, 20))
    blocks = []
    for kind in draw(st.lists(st.sampled_from(["normal", "integer", "zero"]), min_size=1, max_size=9)):
        shape = (array.n_pairs, 2 * k + 1)
        values = {"normal": lambda: rng.normal(size=shape),
                  "integer": lambda: rng.integers(0, 3, size=shape).astype(float),
                  "zero": lambda: np.zeros(shape)}[kind]()
        blocks.append(LagBlock(values, fs))
    n = draw(st.integers(1, 80))
    if draw(st.booleans()):
        pts = rng.normal(size=(n, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        grid = CandidateGrid("doa_az_el", np.concatenate([pts, pts[: n // 3]]))
    else:
        pts = rng.uniform(-1.0, 3.0, size=(n, 3))
        grid = CandidateGrid("cartesian3d", np.concatenate([pts, pts[: n // 3]]))
    return array, grid, blocks


def _per_frame_chain(block, grid, array, cfg):
    """The standalone rounds of one frame: srp_time_map -> argmax_search -> deemphasize."""
    tdoas = far_field_tdoa_matrix if grid.is_doa else tdoa_matrix
    sigma = cfg.notch_sigma or default_notch_sigma(array)
    cap, auto = cfg.n_sources or 10, cfg.n_sources is None
    work, found = block.copy(), []
    while True:
        res = argmax_search(srp_time_map(work, grid, array))
        if auto and not found and res.score <= 0:
            warnings.warn("auto mode: first peak is non-positive; no sources found")
            break
        if auto and found and res.score < cfg.score_floor * found[0][1]:
            break
        found.append((res.estimate, res.score))
        if len(found) == cap:
            break
        if len(found) == 2:
            warnings.warn("extracting a third or later source")
        work = deemphasize(work, tdoas(res.estimate[None, :], array)[0], sigma)
    return EstimateSet.from_pairs(found)


def _warning_counts(caught):
    return collections.Counter(str(w.message).split(":")[0] for w in caught)


@settings(max_examples=60, deadline=None)
@given(
    case=_batch_cases(),
    n_sources=st.sampled_from([1, 2, 3, None]),
    step=st.integers(1, 40) | st.just(srp_core._GATHER_BLOCK),
)
def test_batched_rounds_equal_the_per_frame_chain(case, n_sources, step):
    """Every frame of a batch gets the per-frame chain's estimates, scores,
    warnings and kernel counts, bit for bit, over blocks of any size."""
    array, grid, blocks = case
    cfg = MultiConfig(n_sources=n_sources, score_floor=0.5)
    with warnings.catch_warnings(record=True) as want_warnings:
        warnings.simplefilter("always")
        counter.reset()
        want = [_per_frame_chain(b, grid, array, cfg) for b in blocks]
        want_counts = counter.snapshot()
    originals = [b.copy() for b in blocks]
    with warnings.catch_warnings(record=True) as got_warnings, \
            mock.patch.object(srp_core, "_GATHER_BLOCK", step):
        warnings.simplefilter("always")
        counter.reset()
        got = localize_multi_batch(blocks, grid, array, cfg)
        assert counter.snapshot() == want_counts
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g.positions, w.positions)
        assert np.array_equal(g.scores, w.scores)
    assert _warning_counts(got_warnings) == _warning_counts(want_warnings)
    for b, o in zip(blocks, originals):  # the caller's blocks are not notched
        assert np.array_equal(b.values, o.values)


@settings(max_examples=60, deadline=None)
@given(case=_batch_cases(), step=st.integers(1, 40))
def test_time_argmax_is_the_first_index_of_each_frames_map_maximum(case, step):
    array, grid, blocks = case
    bounds = lag_bounds(array)
    cells = time_cells(grid.points, array, grid.is_doa, bounds)
    with mock.patch.object(srp_core, "_GATHER_BLOCK", step):
        idx, scores = time_argmax(cells, blocks, bounds)
        maps = [srp_time_map(b, grid, array, bounds=bounds).scores for b in blocks]
    assert np.array_equal(idx, [int(np.argmax(m)) for m in maps])
    assert np.array_equal(scores, [m.max() for m in maps])


def test_time_argmax_refuses_non_finite_scores():
    # like SrpMap: three pairs of 1e308 sum past the largest float
    array = MicArray([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], sample_rate=8000.0)
    grid = cartesian_grid(np.array([1.0, 1.0, 1.0]), 0.5)
    cells, bounds = time_cells(grid.points, array), lag_bounds(array)
    lags = np.zeros((3, 2 * int(bounds.max()) + 1))
    lags[0] = 1e308
    idx, scores = time_argmax(cells, [LagBlock(lags, 8000.0)], bounds)
    assert idx[0] == 0 and scores[0] == 1e308
    overflow = LagBlock(np.full_like(lags, 1e308), 8000.0)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="finite"):
            time_argmax(cells, [overflow], bounds)
        with pytest.raises(ValueError, match="finite"):
            srp_time_map(overflow, grid, array)


# ------------------------------------------------------ pruned time search


@st.composite
def _search_cases(draw):
    """_batch_cases, with some Cartesian grids flattened onto one plane."""
    array, grid, blocks = draw(_batch_cases())
    if not grid.is_doa and draw(st.booleans()):
        pts = grid.points.copy()
        pts[:, 2] = pts[0, 2]
        grid = CandidateGrid("cartesian2d", pts)
    return array, grid, blocks


def _pruning(cell_points: int, seed_cells: int, table_share: float = srp_core._TABLE_SHARE):
    """Cells and seeds small enough that even a small grid's search skips
    cells; a table share of 0 makes every round with a survivor flat, so
    the second such round keeps the grid's table if none did, and 1 none."""
    return mock.patch.multiple(
        srp_core, _CELL_POINTS=cell_points, _SEED_CELLS=seed_cells, _TABLE_SHARE=table_share
    )


@settings(max_examples=80, deadline=None)
@given(
    case=_search_cases(),
    cell_points=st.sampled_from([1, 2, 4, 16, 64]),
    seed_cells=st.integers(1, 4),
    table_share=st.sampled_from([0.0, srp_core._TABLE_SHARE, 1.0]),
    step=st.integers(1, 40) | st.just(srp_core._GATHER_BLOCK),
)
def test_time_argmax_equals_the_exhaustive_search(case, cell_points, seed_cells, table_share, step):
    """Index, score and counts of each frame equal argmax_search over its
    full map, bit for bit, whatever the cell, seed, table share and
    gather block sizes, in three rounds over the same cells, the second
    of which may keep the table that the third reads."""
    array, grid, blocks = case
    bounds = lag_bounds(array)
    counter.reset()
    maps = [srp_time_map(b, grid, array) for b in blocks]
    want_counts = counter.snapshot()
    with _pruning(cell_points, seed_cells, table_share), mock.patch.object(srp_core, "_GATHER_BLOCK", step):
        cells = time_cells(grid.points, array, grid.is_doa, bounds)
        for _ in range(3):
            counter.reset()
            idx, scores = time_argmax(cells, blocks, bounds)
            assert counter.snapshot() == want_counts
            for i, s, m in zip(idx, scores, maps, strict=True):
                want = argmax_search(m)
                assert i == int(np.argmax(m.scores)) and np.array_equal(grid.points[i], want.estimate)
                assert s == want.score


@settings(max_examples=60, deadline=None)
@given(case=_search_cases(), cell_points=st.sampled_from([1, 4, 16, 64]))
def test_no_member_scores_above_its_cells_bound(case, cell_points):
    """Every member's lag_table offset lies in its cell's range, pair by
    pair, and so no member's score exceeds its cell's bound."""
    array, grid, blocks = case
    bounds = lag_bounds(array)
    with _pruning(cell_points, 1):
        cells = time_cells(grid.points, array, grid.is_doa, bounds)
    first, second, _, width = cells.query
    level, lo = np.divmod(first, width)
    hi = second - level * width + np.left_shift(1, level) - 1
    table = lag_table(grid.points, array, grid.is_doa, bounds)
    assert np.all(lo[:, cells.cell] <= table) and np.all(table <= hi[:, cells.cell])
    upper = srp_core._cell_bounds(cells, blocks, srp_core._windows(blocks, bounds))
    scores = np.stack([srp_time_map(b, grid, array).scores for b in blocks], axis=1)
    assert np.all(scores <= upper[cells.cell])


@pytest.mark.parametrize("fill, n_pairs", [(-np.inf, 1), (np.nan, 1), (1e308, 2)])
def test_a_non_finite_score_that_only_a_losing_point_reaches_still_raises(fill, n_pairs):
    """A peaked map, so that the search skips most cells. At its lowest
    point that reads a lag of pair 0 no other point reads, n pairs'
    lags become ``fill``: -inf, NaN, or 1e308 twice, whose sum overflows."""
    array = MicArray(MIC_POSITIONS, sample_rate=FS)
    grid = cartesian_grid(ROOM, 0.5)
    bounds = lag_bounds(array)
    rng = np.random.default_rng(5)
    lags = 0.01 * rng.normal(size=(array.n_pairs, 2 * int(bounds.max()) + 1))
    table = lag_table(grid.points, array, bounds=bounds)
    lags[np.arange(array.n_pairs), bounds.max() - bounds + table[:, len(grid) // 2]] += 1.0
    alone = np.flatnonzero(np.bincount(table[0])[table[0]] == 1)
    loser = alone[np.argmin(srp_time_map(LagBlock(lags, FS), grid, array).scores[alone])]
    for j in range(n_pairs):
        lags[j, int(bounds.max() - bounds[j] + table[j, loser])] = fill
    block = LagBlock(lags, FS)
    with _pruning(4, 1), np.errstate(over="ignore"):
        cells = time_cells(grid.points, array, bounds=bounds)
        with pytest.raises(ValueError, match="finite"):
            time_argmax(cells, [block], bounds)
        with pytest.raises(ValueError, match="finite"):
            srp_time_map(block, grid, array)


def test_an_all_zero_frame_over_the_room_grid_peaks_at_the_first_point():
    array = MicArray(MIC_POSITIONS, sample_rate=FS)
    grid = cartesian_grid(ROOM, 0.1)
    bounds = lag_bounds(array)
    zero = LagBlock(np.zeros((array.n_pairs, 2 * int(bounds.max()) + 1)), FS)
    idx, scores = time_argmax(time_cells(grid.points, array, bounds=bounds), [zero], bounds)
    assert idx[0] == 0 and scores[0] == 0.0


@pytest.mark.parametrize("build_share", [srp_core._BUILD_SHARE, 1.0])
def test_a_flat_round_keeps_the_grid_table_for_later_rounds(build_share):
    """A peaked round builds no table. An all-zero round, where every cell
    survives, builds the grid's lag_table and keeps it if that outgrows
    _BUILD_SHARE of the grid; otherwise it builds its columns
    _COLUMN_BLOCK points at a time, and the next all-zero round builds
    the table. A peaked round after it reads the kept table's columns.
    Each equals argmax_search."""
    array = MicArray(MIC_POSITIONS, sample_rate=FS)
    grid = cartesian_grid(ROOM, 0.2)
    bounds = lag_bounds(array)
    table = lag_table(grid.points, array, bounds=bounds)
    lags = 0.01 * np.random.default_rng(7).normal(size=(array.n_pairs, 2 * int(bounds.max()) + 1))
    lags[np.arange(array.n_pairs), bounds.max() - bounds + table[:, len(grid) // 3]] += 1.0
    peaked, zero = LagBlock(lags, FS), LagBlock(np.zeros_like(lags), FS)
    rounds = [(peaked, False), (zero, build_share < 1), (zero, True), (peaked, True)]
    cells = time_cells(grid.points, array, bounds=bounds)
    assert len(grid) > srp_core._COLUMN_BLOCK
    for block, kept in rounds:
        want = argmax_search(srp_time_map(block, grid, array))
        had = cells.table is not None
        with mock.patch.object(srp_core, "_BUILD_SHARE", build_share), \
                mock.patch.object(srp_core, "lag_table", wraps=srp_core.lag_table) as build:
            (idx,), (score,) = time_argmax(cells, [block], bounds)
        sizes = [len(c.args[0]) for c in build.call_args_list]
        assert (cells.table is not None) == kept
        if kept and not had:  # after the seed cells' columns
            assert sizes[-1] == len(grid)
            sizes.pop()
        assert max(sizes, default=0) <= srp_core._COLUMN_BLOCK
        assert np.array_equal(grid.points[idx], want.estimate) and score == want.score
    assert np.array_equal(cells.table, table)
