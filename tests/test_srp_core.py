"""Map-construction tests.

The strongest oracles: a single-bin spectrum gives a closed-form
cosine map; a brute-force double loop over pairs and two-sided bins
checks the production scorer including its folded-spectrum shortcut;
degenerate volumes must reproduce point scores exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xsrp.features import (
    FrameConfig,
    GccConfig,
    LagVector,
    SpectralGcc,
    compute_cc_lag_vectors,
    compute_lag_vectors,
    compute_spectral_gccs,
    frame_stack,
)
from xsrp.geometry import MicArray, MicPair, Point3, tdoa, tdoa_matrix
from xsrp.grids import (
    CandidateGrid,
    Volume,
    VolumeGrid,
    cartesian_grid,
    doa_grid,
    partition_room,
    subdivide,
)
from xsrp.srp_core import (
    PairwiseFreqScores,
    SrpMap,
    WsrpConfig,
    counter,
    make_freq_scorer,
    make_time_scorer,
    pairwise_freq_scores,
    srp_freq_map,
    srp_freq_scores,
    srp_time_map,
    srp_time_scores,
    tdoa_bounds,
    vsrp_map,
    wsrp_map,
)
from xsrp.synth import SceneSpec, Source, synthesize_free_field, white_noise

FS = 16000.0
ROOM = np.array([5.0, 4.0, 3.0])
SRC = Point3(2.3, 2.1, 1.4)


@pytest.fixture(scope="module")
def scene():
    rng = np.random.default_rng(21)
    positions = rng.uniform([0.5, 0.5, 0.5], [4.5, 3.5, 2.5], size=(5, 3))
    array = MicArray(positions, sample_rate=FS)
    sig = white_noise(8000, seed=13)
    spec = SceneSpec(room_dims=ROOM, sources=[Source(SRC, sig)], snr_db=25.0, seed=5)
    signals = synthesize_free_field(spec, array)
    frames = frame_stack(signals, FrameConfig(frame_len=4096, hop=4096), 0)
    lags = compute_lag_vectors(frames, array, GccConfig(band=(100.0, 4000.0)))
    gccs = compute_spectral_gccs(frames, array, GccConfig(band=(100.0, 4000.0)))
    return array, lags, gccs


def test_time_scores_identity(scene):
    array, lags, _ = scene
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.3, 2.8, size=(12, 3))
    scores = srp_time_scores(pts, lags, array)
    for i in range(len(pts)):
        expected = 0.0
        for p in array.pairs():
            k = int(np.rint(tdoa(pts[i], p, array) * FS))
            expected += lags[p].at_lag(k)
        assert abs(scores[i] - expected) < 1e-12


def test_time_map_peaks_on_source_grid_point(scene):
    array, lags, _ = scene
    grid = cartesian_grid(ROOM, 0.1)
    m = srp_time_map(lags, grid, array)
    assert m.domain == "time"
    best = grid.points[np.argmax(m.scores)]
    np.testing.assert_allclose(best, SRC.as_array(), atol=1e-9)


def test_freq_map_matches_brute_force(scene):
    array, _, gccs = scene
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.3, 2.8, size=(20, 3))
    scores = srp_freq_scores(pts, gccs, array)
    taus = tdoa_matrix(pts, array)
    brute = np.zeros(len(pts))
    for j, p in enumerate(array.pairs()):
        g = gccs[p]
        vals = g.values[g.in_band]
        freqs = g.freqs[g.in_band]
        for i in range(len(pts)):
            brute[i] += np.sum(vals * np.exp(2j * math.pi * freqs * taus[i, j])).real
    np.testing.assert_allclose(scores, brute, rtol=1e-9, atol=1e-9)


def test_freq_single_bin_closed_form():
    # with one active bin pair the map is exactly a shifted cosine of
    # the candidate TDOA
    fs, n = 16000.0, 256
    array = MicArray([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]], sample_rate=fs)
    freqs = np.fft.fftfreq(n, d=1.0 / fs)
    k0 = 16
    f0 = freqs[k0]
    t0 = 3.2e-4
    values = np.zeros(n, dtype=complex)
    values[k0] = np.exp(-2j * math.pi * f0 * t0)
    values[n - k0] = np.conj(values[k0])
    in_band = np.zeros(n, dtype=bool)
    in_band[k0] = in_band[n - k0] = True
    g = SpectralGcc(values, freqs, fs, in_band)
    xs = np.linspace(0.05, 0.45, 33)
    pts = np.column_stack([xs, np.zeros(33), np.zeros(33)])
    scores = srp_freq_scores(pts, {MicPair(0, 1): g}, array)
    taus = (2.0 * xs - 0.5) / array.speed_of_sound
    np.testing.assert_allclose(scores, 2.0 * np.cos(2.0 * math.pi * f0 * (taus - t0)), atol=1e-9)


def test_freq_far_field_matches_distant_exact(scene):
    # a compact array cannot tell a bearing from a very distant point
    fs = 16000.0
    rng = np.random.default_rng(2)
    array = MicArray(rng.uniform(-0.05, 0.05, size=(4, 3)), sample_rate=fs)
    sig = rng.normal(size=(4, 512))
    gccs = compute_spectral_gccs(sig, array, GccConfig())
    dirs = rng.normal(size=(10, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    ff = srp_freq_scores(dirs, gccs, array, far_field=True)
    # residual curvature phase at 5 km is ~2e-4 rad across the band
    exact = srp_freq_scores(5000.0 * dirs, gccs, array, far_field=False)
    np.testing.assert_allclose(ff, exact, rtol=1e-3, atol=1e-3)


def test_translation_invariance(scene):
    fs = 16000.0
    rng = np.random.default_rng(3)
    positions = rng.uniform(0, 2, size=(4, 3))
    frames = rng.normal(size=(4, 256))
    shift = np.array([11.7, -3.2, 5.5])
    a1 = MicArray(positions, sample_rate=fs)
    a2 = MicArray(positions + shift, sample_rate=fs)
    g1 = compute_spectral_gccs(frames, a1, GccConfig())
    g2 = compute_spectral_gccs(frames, a2, GccConfig())
    pts = rng.uniform(0, 2, size=(15, 3))
    np.testing.assert_allclose(
        srp_freq_scores(pts, g1, a1), srp_freq_scores(pts + shift, g2, a2), rtol=1e-9
    )
    l1 = compute_cc_lag_vectors(frames, a1)
    l2 = compute_cc_lag_vectors(frames, a2)
    np.testing.assert_allclose(
        srp_time_scores(pts, l1, a1), srp_time_scores(pts + shift, l2, a2), rtol=1e-9
    )


def test_channel_permutation_invariance():
    # relabeling microphones must not change the map
    fs = 16000.0
    rng = np.random.default_rng(4)
    positions = rng.uniform(0, 3, size=(4, 3))
    frames = rng.normal(size=(4, 512))
    perm = np.array([2, 0, 3, 1])
    a1 = MicArray(positions, sample_rate=fs)
    a2 = MicArray(positions[perm], sample_rate=fs)
    pts = rng.uniform(0, 3, size=(10, 3))
    s1 = srp_time_scores(pts, compute_cc_lag_vectors(frames, a1), a1)
    s2 = srp_time_scores(pts, compute_cc_lag_vectors(frames[perm], a2), a2)
    np.testing.assert_allclose(s1, s2, rtol=1e-9)
    f1 = srp_freq_scores(pts, compute_spectral_gccs(frames, a1), a1)
    f2 = srp_freq_scores(pts, compute_spectral_gccs(frames[perm], a2), a2)
    np.testing.assert_allclose(f1, f2, rtol=1e-9)


def test_lag_coverage_precondition():
    fs = 16000.0
    array = MicArray([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]], sample_rate=fs)
    rng = np.random.default_rng(5)
    # 3 m baseline needs ~140 lags; 64-sample frames cover only 63
    frames = rng.normal(size=(2, 64))
    lags = compute_cc_lag_vectors(frames, array)
    with pytest.raises(ValueError, match="longer frames"):
        srp_time_scores(np.array([[1.0, 1.0, 1.0]]), lags, array)


def test_counter_accounting(scene):
    array, lags, gccs = scene
    grid = cartesian_grid(ROOM, 0.5)
    n_inband = int(next(iter(gccs.values())).in_band.sum())
    counter.reset()
    srp_time_map(lags, grid, array)
    assert counter.snapshot() == (len(grid), len(grid) * array.n_pairs)
    counter.reset()
    srp_freq_map(gccs, grid, array)
    assert counter.snapshot() == (len(grid), len(grid) * array.n_pairs * n_inband)
    counter.reset()
    small = CandidateGrid("cartesian3d", grid.points[:7])
    pairwise_freq_scores(gccs, small, array)
    assert counter.snapshot() == (7, 7 * array.n_pairs * n_inband)
    counter.reset()
    vg = partition_room(ROOM, (2, 2, 1))
    vsrp_map(lags, vg, array)
    assert counter.snapshot() == (4, 4 * array.n_pairs)


def test_tdoa_bounds_degenerate_and_guard(scene):
    array, _, _ = scene
    center = np.array([1.0, 1.5, 1.0])
    vol = Volume(center, (0.0, 0.0, 0.0))
    p = array.pairs()[0]
    exact = tdoa(center, p, array)
    b0 = tdoa_bounds(vol, p, array, guard=0.0)
    assert abs(b0.tau_min - exact) < 1e-15 and abs(b0.tau_max - exact) < 1e-15
    b2 = tdoa_bounds(vol, p, array, guard=2.0)
    assert abs(b2.tau_min - (exact - 2.0 / FS)) < 1e-15
    assert abs(b2.tau_max - (exact + 2.0 / FS)) < 1e-15
    with pytest.raises(ValueError, match="guard"):
        tdoa_bounds(vol, p, array, guard=-1.0)


def test_tdoa_bounds_clamped_to_physical_limit(scene):
    array, _, _ = scene
    from xsrp.geometry import max_tdoa

    huge = Volume((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))
    for p in array.pairs():
        lim = max_tdoa(p, array)
        # bounds never exceed the physical limit
        b = tdoa_bounds(huge, p, array, guard=5.0)
        assert -lim <= b.tau_min <= b.tau_max <= lim
        # an absurd guard is clamped exactly to it
        wide = tdoa_bounds(huge, p, array, guard=1e6)
        assert wide.tau_min == -lim and wide.tau_max == lim


def test_tdoa_bounds_contain_interior_points():
    fs = 16000.0
    rng = np.random.default_rng(6)
    # mics well outside the volume so vertex bounds plus one sample of
    # guard absorb the hyperboloid curvature
    array = MicArray(rng.uniform(3.0, 6.0, size=(5, 3)), sample_rate=fs)
    vol = Volume((1.0, 1.0, 1.0), (0.4, 0.3, 0.5))
    pts = rng.uniform(vol.lo, vol.hi, size=(300, 3))
    for p in array.pairs():
        b = tdoa_bounds(vol, p, array, guard=1.0)
        taus = np.array([tdoa(u, p, array) for u in pts])
        assert np.all(taus >= b.tau_min) and np.all(taus <= b.tau_max)


def test_vsrp_degenerate_volumes_reproduce_point_scores(scene):
    array, lags, _ = scene
    centers = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 1.5], [3.0, 1.5, 2.0]])
    vg = VolumeGrid([Volume(c, (0.0, 0.0, 0.0)) for c in centers])
    m = vsrp_map(lags, vg, array, pooling="sum", guard=0.0)
    np.testing.assert_allclose(m.scores, srp_time_scores(centers, lags, array), atol=1e-12)


def test_vsrp_pooling_arithmetic():
    # one pair, hand-built lag vector, volume with known TDOA window
    fs = 1000.0
    array = MicArray([[0.0, 0.0, 0.0], [3.43, 0.0, 0.0]], sample_rate=fs)
    pair = MicPair(0, 1)
    values = np.zeros(41)
    values[20 - 3: 20 + 4] = np.array([1.0, 2.0, 4.0, 8.0, 4.0, 2.0, 1.0])
    lags = {pair: LagVector(values, fs)}
    # a volume straddling the array midplane: tdoa range symmetric
    vol = Volume((1.715, 0.0, 0.0), (0.01, 0.0, 0.0))
    vg = VolumeGrid([vol])
    # vertex TDOAs are +-0.02/343 s = +-0.058 samples; guard 1 sample
    # widens the window to lags -1..1
    m_sum = vsrp_map(lags, vg, array, pooling="sum", guard=1.0)
    m_mean = vsrp_map(lags, vg, array, pooling="mean", guard=1.0)
    m_max = vsrp_map(lags, vg, array, pooling="max", guard=1.0)
    assert m_sum.scores[0] == 16.0
    assert m_mean.scores[0] == pytest.approx(16.0 / 3.0)
    assert m_max.scores[0] == 8.0
    with pytest.raises(ValueError, match="pooling"):
        vsrp_map(lags, vg, array, pooling="median")


def _vsrp_by_loop(lags, vg, array, pooling, guard):
    """Reference: each volume's window of each pair, read off tdoa_bounds and pooled directly."""
    fs = array.sample_rate
    scores = []
    for vol in vg.volumes:
        total = 0.0
        for pair in array.pairs():
            lv = lags[pair]
            b = tdoa_bounds(vol, pair, array, guard)
            k0 = max(int(np.rint(b.tau_min * fs)) + lv.max_lag, 0)
            k1 = min(int(np.rint(b.tau_max * fs)) + lv.max_lag, len(lv.values) - 1)
            window = lv.values[k0: k1 + 1]
            total += float({"sum": np.sum, "mean": np.mean, "max": np.max}[pooling](window))
        scores.append(total)
    return np.array(scores)


_coord = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def _room_tilings(draw):
    """A box in ROOM (any axis may have zero extent) cut into up to 4 x 4 x 4 cells."""
    lo = np.array([draw(_coord) for _ in range(3)]) * ROOM
    frac = np.array([draw(st.sampled_from([0.0, 1.0]) | _coord) for _ in range(3)])
    region = Volume.from_bounds(lo, lo + frac * (ROOM - lo))
    counts = tuple(draw(st.integers(1, 4)) for _ in range(3))
    return VolumeGrid(subdivide(region, counts))


@settings(max_examples=60, deadline=None)
@given(
    vg=_room_tilings(),
    guard=st.floats(0.0, 3.0, allow_nan=False),
    pooling=st.sampled_from(["sum", "mean", "max"]),
)
def test_vsrp_map_matches_per_window_loop(scene, vg, guard, pooling):
    array, lags, _ = scene
    got = vsrp_map(lags, vg, array, pooling=pooling, guard=guard).scores
    ref = _vsrp_by_loop(lags, vg, array, pooling, guard)
    if pooling == "max":
        np.testing.assert_array_equal(got, ref)
    else:  # prefix sums reorder the additions: last-place differences only
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_vsrp_source_volume_wins(scene):
    array, lags, _ = scene
    vg = partition_room(ROOM, (4, 4, 2))
    m = vsrp_map(lags, vg, array, pooling="max")
    assert m.domain == "volumetric"
    winner = vg.volumes[int(np.argmax(m.scores))]
    assert winner.contains(SRC.as_array()[None, :])[0]


def test_wsrp_sum_sum_equals_plain_freq_map(scene):
    array, _, gccs = scene
    # a Cartesian grid (exact TDOAs) and a DOA grid (far-field steering)
    for grid in (cartesian_grid(ROOM, 1.0), doa_grid(math.pi / 8, math.pi / 8)):
        pfs = pairwise_freq_scores(gccs, grid, array)
        w = wsrp_map(pfs)
        plain = srp_freq_map(gccs, grid, array)
        np.testing.assert_allclose(w.scores, plain.scores, rtol=1e-9, atol=1e-9)


def test_wsrp_pair_weight_inf_excludes_pair(scene):
    array, _, gccs = scene
    grid = cartesian_grid(ROOM, 1.0)
    pfs = pairwise_freq_scores(gccs, grid, array)
    drop = array.pairs()[2]
    cfg = WsrpConfig(pair_weights={drop: math.inf})
    m = wsrp_map(pfs, cfg)
    keep = [j for j, p in enumerate(pfs.pairs) if p != drop]
    np.testing.assert_array_equal(m.scores, pfs.tensor[keep].sum(axis=2).sum(axis=0))


def test_wsrp_weights_divide(scene):
    array, _, gccs = scene
    grid = cartesian_grid(ROOM, 1.0)
    pfs = pairwise_freq_scores(gccs, grid, array)
    base = wsrp_map(pfs)
    halved = wsrp_map(pfs, WsrpConfig(freq_weights=np.full(pfs.tensor.shape[2], 2.0)))
    np.testing.assert_allclose(halved.scores, base.scores / 2.0, rtol=1e-12)
    pw = {p: 2.0 for p in pfs.pairs}
    halved2 = wsrp_map(pfs, WsrpConfig(pair_weights=pw))
    np.testing.assert_allclose(halved2.scores, base.scores / 2.0, rtol=1e-12)


def test_wsrp_product_with_constant_row_is_zero():
    grid = CandidateGrid("cartesian3d", np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    pairs = [MicPair(0, 1), MicPair(0, 2)]
    tensor = np.zeros((2, 2, 1))
    tensor[0, :, 0] = [3.0, 7.0]
    tensor[1, :, 0] = [5.0, 5.0]  # constant row normalizes to zero
    pfs = PairwiseFreqScores(tensor, pairs, np.array([100.0]), grid)
    m = wsrp_map(pfs, WsrpConfig(pair_combinator="product"))
    np.testing.assert_array_equal(m.scores, [0.0, 0.0])


def test_wsrp_hamacher_fold_matches_hand_computation():
    grid = CandidateGrid("cartesian3d", np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    pairs = [MicPair(0, 1), MicPair(0, 2)]
    tensor = np.zeros((2, 3, 1))
    tensor[0, :, 0] = [0.0, 1.0, 0.5]
    tensor[1, :, 0] = [0.0, 0.5, 1.0]
    pfs = PairwiseFreqScores(tensor, pairs, np.array([100.0]), grid)
    m = wsrp_map(pfs, WsrpConfig(pair_combinator="hamacher"))

    def ham(a, b):
        d = a + b - a * b
        return a * b / d if d > 0 else 0.0

    # rows already span [0, 1], so min-max normalization keeps them
    expected = [ham(0.0, 0.0), ham(1.0, 0.5), ham(0.5, 1.0)]
    np.testing.assert_allclose(m.scores, expected, atol=1e-12)


def test_wsrp_validation(scene):
    array, _, gccs = scene
    grid = cartesian_grid(ROOM, 1.0)
    pfs = pairwise_freq_scores(gccs, grid, array)
    with pytest.raises(ValueError, match="freq_combinator"):
        WsrpConfig(freq_combinator="mean")
    with pytest.raises(ValueError, match="pair_combinator"):
        WsrpConfig(pair_combinator="mean")
    with pytest.raises(ValueError, match="positive"):
        WsrpConfig(freq_weights=np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="must be > 0"):
        WsrpConfig(pair_weights={MicPair(0, 1): 0.0})
    with pytest.raises(ValueError, match="freq weights"):
        wsrp_map(pfs, WsrpConfig(freq_weights=np.ones(3)))
    with pytest.raises(ValueError, match="all pairs excluded"):
        wsrp_map(pfs, WsrpConfig(pair_weights={p: math.inf for p in pfs.pairs}))


def test_low_band_widens_peak(scene):
    array, _, _ = scene
    rng = np.random.default_rng(21)
    sig = white_noise(8000, seed=13)
    spec = SceneSpec(room_dims=ROOM, sources=[Source(SRC, sig)], snr_db=25.0, seed=5)
    signals = synthesize_free_field(spec, array)
    frames = frame_stack(signals, FrameConfig(frame_len=4096, hop=4096), 0)
    offsets = np.linspace(-0.3, 0.3, 31)
    pts = SRC.as_array()[None, :] + np.column_stack(
        [offsets, np.zeros(31), np.zeros(31)]
    )
    rel = {}
    for hi in (4000.0, 1000.0):
        gccs = compute_spectral_gccs(frames, array, GccConfig(band=(100.0, hi)))
        s = srp_freq_scores(pts, gccs, array)
        s = s - s.min()
        rel[hi] = s / s.max()
    # 0.2 m off the peak, the low-passed map retains more of its peak
    side = np.abs(offsets) > 0.15
    assert rel[1000.0][side].mean() > rel[4000.0][side].mean()


def test_map_validation(scene):
    array, lags, gccs = scene
    grid = cartesian_grid(ROOM, 1.0)
    with pytest.raises(ValueError, match="scores"):
        SrpMap(grid, np.zeros(3), "time")
    with pytest.raises(ValueError, match="finite"):
        SrpMap(grid, np.full(len(grid), np.nan), "time")
    with pytest.raises(ValueError, match="domain"):
        SrpMap(grid, np.zeros(len(grid)), "cepstral")
    incomplete = {p: lags[p] for p in list(lags)[:-1]}
    with pytest.raises(ValueError, match="missing"):
        srp_time_map(incomplete, grid, array)
    incomplete_g = {p: gccs[p] for p in list(gccs)[:-1]}
    with pytest.raises(ValueError, match="missing"):
        srp_freq_map(incomplete_g, grid, array)


def test_scorers_match_maps(scene):
    array, lags, gccs = scene
    pts = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    np.testing.assert_array_equal(
        make_time_scorer(lags, array)(pts), srp_time_scores(pts, lags, array)
    )
    np.testing.assert_array_equal(
        make_freq_scorer(gccs, array)(pts), srp_freq_scores(pts, gccs, array)
    )
