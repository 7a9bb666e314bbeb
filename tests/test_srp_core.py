"""Map-construction tests.

The strongest oracles: a single-bin spectrum gives a closed-form
cosine map; a brute-force double loop over pairs and two-sided bins
checks the production scorer including its folded-spectrum shortcut;
degenerate volumes must reproduce point scores exactly.
"""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xsrp.features import (
    FrameConfig,
    GccConfig,
    LagBlock,
    SpectralBlock,
    compute_spectral_gccs,
    frame_stack,
    gccs_from_half,
    lag_block,
)
from xsrp import features, srp_core
from xsrp.geometry import (
    MicArray,
    MicPair,
    max_tdoa,
    tdoa,
    tdoa_matrix,
    tof_matrix,
)
from xsrp.grids import (
    CandidateGrid,
    Volume,
    VolumeGrid,
    cartesian_grid,
    doa_grid,
    partition_room,
    subdivide,
)
from xsrp.multisource import MultiConfig, deemphasize, localize_multi
from xsrp.search import SearchConfig, argmax_search, refine_search
from xsrp.srp_core import (
    PairwiseFreqScores,
    SrpMap,
    WsrpConfig,
    counter,
    lag_windows,
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
SRC = np.array([2.3, 2.1, 1.4])
CC = GccConfig(beta=0.0, gamma=0.0)  # classical cross-correlation


@pytest.fixture(scope="module")
def scene():
    rng = np.random.default_rng(21)
    positions = rng.uniform([0.5, 0.5, 0.5], [4.5, 3.5, 2.5], size=(5, 3))
    array = MicArray(positions, sample_rate=FS)
    sig = white_noise(8000, seed=13)
    spec = SceneSpec(room_dims=ROOM, sources=[Source(SRC, sig)], snr_db=25.0, seed=5)
    signals = synthesize_free_field(spec, array)
    frames = frame_stack(signals, FrameConfig(frame_len=4096, hop=4096), 0)
    lags = lag_block(frames, array, GccConfig(band=(100.0, 4000.0)))
    gccs = compute_spectral_gccs(frames, array, GccConfig(band=(100.0, 4000.0)))
    return array, lags, gccs


def hand_block(spectra, in_band, pairs, fs=FS) -> SpectralBlock:
    """Two-sided (P, n) spectra as the SpectralBlock of their in-band f >= 0 bins."""
    band = features._half_band(in_band)
    return SpectralBlock(spectra[:, band], band, in_band, fs, pairs)


def test_time_scores_identity(scene):
    array, lags, _ = scene
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.3, 2.8, size=(12, 3))
    scores = srp_time_scores(pts, lags, array)
    for i in range(len(pts)):
        expected = 0.0
        for j, p in enumerate(array.pairs()):
            k = int(np.rint(tdoa(pts[i], p, array) * FS))
            expected += lags.values[j, k + lags.max_lag]
        assert abs(scores[i] - expected) < 1e-12


def test_time_map_peaks_on_source_grid_point(scene):
    array, lags, _ = scene
    grid = cartesian_grid(ROOM, 0.1)
    m = srp_time_map(lags, grid, array)
    best = grid.points[np.argmax(m.scores)]
    np.testing.assert_allclose(best, SRC, atol=1e-9)


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
    g = hand_block(values[None, :], in_band, [MicPair(0, 1)], fs)
    xs = np.linspace(0.05, 0.45, 33)
    pts = np.column_stack([xs, np.zeros(33), np.zeros(33)])
    scores = srp_freq_scores(pts, g, array)
    taus = (2.0 * xs - 0.5) / array.speed_of_sound
    np.testing.assert_allclose(scores, 2.0 * np.cos(2.0 * math.pi * f0 * (taus - t0)), atol=1e-9)


@st.composite
def _freq_cases(draw):
    """PHAT-like conjugate-symmetric spectra on an even DFT grid, a band and candidates.

    The band is drawn with and without the DC and Nyquist bins, or
    falls between two bins so that it holds none.
    """
    n = 2 * draw(st.integers(2, 256))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    array = MicArray(rng.uniform(0.0, 3.0, size=(draw(st.integers(2, 6)), 3)), sample_rate=FS)
    df, half = FS / n, n // 2
    k_lo = 0 if draw(st.booleans()) else draw(st.integers(1, half - 1))
    k_hi = half if draw(st.booleans()) else draw(st.integers(k_lo, half - 1))
    band = (max(k_lo - 0.5, 0.0) * df, (k_hi + 0.5) * df)
    if draw(st.booleans()):
        band = ((k_lo + 0.25) * df, (k_lo + 0.75) * df)
    freqs = np.fft.fftfreq(n, d=1.0 / FS)
    in_band = (np.abs(freqs) >= band[0]) & (np.abs(freqs) <= band[1])
    spectra = np.fft.fft(rng.normal(size=(array.n_pairs, n)))
    spectra = np.where(in_band, spectra / np.maximum(np.abs(spectra), 1e-12), 0.0)
    gccs = hand_block(spectra, in_band, array.pairs())
    far_field = draw(st.booleans())
    pts = rng.normal(size=(draw(st.integers(20, 60)), 3))
    if far_field:
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    else:
        pts = rng.uniform(-1.0, 4.0, size=pts.shape)
    return array, gccs, pts, far_field


@settings(max_examples=80, deadline=None)
@given(case=_freq_cases(), block=st.integers(1, 200) | st.just(srp_core._FREQ_BLOCK))
def test_freq_scores_match_direct_two_sided_sum(case, block):
    # Horner over the folded DFT bins, in blocks of any size, against
    # the definition: every two-sided in-band bin steered directly
    array, gccs, pts, far_field = case
    with mock.patch.object(srp_core, "_FREQ_BLOCK", block):
        got = srp_freq_scores(pts, gccs, array, far_field=far_field)
    taus = tdoa_matrix(pts, array, far_field)
    ref = np.zeros(len(pts))
    for j, g in enumerate(gccs.values()):
        f = g.freqs[g.in_band]
        ref += (np.exp(2j * math.pi * taus[:, j, None] * f) @ g.values[g.in_band]).real
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def gathered_phasor_scores(pts, gccs, array, far_field):
    """srp_freq_scores by baby-step giant-step in groups of pairs, every pair's phasors gathered into (P, g) copies first.

    The band start z^k_lo is z^r y^e0, (e0, r) = divmod(k_lo, B), from
    the group's own powers and y = z^B raised by binary powering."""
    pairs = array.pairs()
    mask = gccs[pairs[0]].in_band
    n = len(mask)
    k = np.arange(n // 2 + 1)  # the fold's weights: 2, 1 at DC and Nyquist, 0 out of band
    weights = np.where((k == 0) | (2 * k == n), 1.0, 2.0) * mask[: n // 2 + 1]
    bins = np.flatnonzero(weights)
    scores = np.zeros(len(pts))
    if not len(bins):
        return scores
    k_lo, k_hi = bins[0], bins[-1] + 1
    K = k_hi - k_lo
    B = next(b for b in itertools.count(1) if b * b >= K)
    A = -(-K // B)
    e0, r = divmod(k_lo, B)
    coef = np.zeros((len(pairs), A * B), dtype=complex)
    for j, p in enumerate(pairs):
        coef[j, :K] = gccs[p].values[k_lo:k_hi] * weights[k_lo:k_hi]
    coef = coef.reshape(len(pairs), A, B)
    df = gccs[pairs[0]].sample_rate / len(mask)
    ls, ms = np.array([(p.l, p.m) for p in pairs]).T
    n = -(-len(pts) // srp_core._FREQ_BLOCK)
    edges = np.arange(n + 1) * len(pts) // n
    for i, e in zip(edges[:-1], edges[1:]):
        g = e - i
        t = np.ascontiguousarray(tof_matrix(pts[i:e], array, far_field).T)
        w = np.exp((2j * math.pi * df) * t)
        zs, tails_of_z = w[ls], w.conj()[ms]
        most = max(1, srp_core._FREQ_BLOCK // g)
        groups = []  # equal groups of each mic's pair rows, at most ``most`` pairs each
        for l, rows in array.pair_rows():
            k = -(-(rows.stop - rows.start) // most)
            parts = rows.start + np.arange(k + 1) * (rows.stop - rows.start) // k
            groups += zip(parts[:-1], parts[1:])
        for a0, a1 in groups:
            # a group's pairs side by side in flat rows, in place as one
            # point's product rounds by its layout
            z = tails_of_z[a0:a1].ravel()
            z *= zs[a0:a1].ravel()
            powers = np.empty((B, len(z)), dtype=complex)
            powers[0] = 1.0
            for b in range(1, B):
                powers[b] = powers[b - 1] * z
            y = powers[B - 1].copy()
            y *= z  # in place, as a one-point product rounds by its layout
            q = (coef[a0:a1] @ powers.reshape(B, a1 - a0, g).transpose(1, 0, 2)).transpose(1, 0, 2).reshape(A, -1)
            acc = q[A - 1].copy()
            for a in range(A - 2, -1, -1):
                acc *= y
                acc += q[a]
            head, square = powers[r].copy(), y.copy()
            for bit in reversed(format(e0, "b")):
                if bit == "1":
                    head *= square
                square *= square
            acc *= head
            for row in acc.real.reshape(a1 - a0, g):
                scores[i:e] += row
    return scores


@settings(max_examples=80, deadline=None)
@given(case=_freq_cases(), block=st.integers(1, 200) | st.just(srp_core._FREQ_BLOCK))
def test_freq_scores_equal_the_gathered_phasor_kernel_bitwise(case, block):
    # grouped phasor products into preallocated flat rows, against (P, g)
    # gathered copies; small blocks leave one-point blocks, one-pair
    # groups or every pair in one group
    array, gccs, pts, far_field = case
    with mock.patch.object(srp_core, "_FREQ_BLOCK", block):
        got = srp_freq_scores(pts, gccs, array, far_field=far_field)
        want = gathered_phasor_scores(pts, gccs, array, far_field)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("far_field", [False, True], ids=["near", "far"])
@pytest.mark.parametrize("k_lo, k_hi", [(1000, 4096), (1000, 1400), (3000, 4096), (3000, 3300)])
def test_freq_scores_exact_at_large_band_starts(k_lo, k_hi, far_field):
    # per-mic phasors steer the band start e^{j 2 pi f_lo tau} from
    # absolute delays, whose phase grows with k_lo; the hypothesis
    # cases above never pass bin 255. Bands end at Nyquist (4096) or
    # short of it. The band start z^k_lo comes from the powers, z^r
    # (z^B)^e0, so the (3000, 3300) band (B = 18) squares y up to
    # y^128 for e0 = 166. Measured worst error: 2.1e-13 of the peak
    n, df = 8192, FS / 8192
    rng = np.random.default_rng(k_lo + k_hi)
    array = MicArray(rng.uniform(0.0, 1.0, size=(8, 3)) * [6.0, 5.0, 3.0], sample_rate=FS)
    freqs = np.fft.fftfreq(n, d=1.0 / FS)
    in_band = (np.abs(freqs) >= (k_lo - 0.5) * df) & (np.abs(freqs) <= (k_hi + 0.5) * df)
    spectra = np.fft.fft(rng.normal(size=(array.n_pairs, n)))
    spectra = np.where(in_band, spectra / np.abs(spectra), 0.0)
    gccs = hand_block(spectra, in_band, array.pairs())
    if far_field:
        pts = rng.normal(size=(40, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    else:
        pts = rng.uniform(0.0, 1.0, size=(40, 3)) * [6.0, 5.0, 3.0]
    bufsize = np.getbufsize()
    got = srp_freq_scores(pts, gccs, array, far_field=far_field)
    assert np.getbufsize() == bufsize  # the kernel leaves numpy's ufunc buffer size as it found it
    taus = tdoa_matrix(pts, array, far_field)
    ref = np.zeros(len(pts))
    for j, g in enumerate(gccs.values()):
        ref += (np.exp(2j * math.pi * taus[:, j, None] * freqs[in_band]) @ g.values[in_band]).real
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _banded_case(K, start, n_mics, far_field):
    """PHAT spectra on a 4096-point DFT over K folded bins: from DC, ending at Nyquist, or from bin 300."""
    n = 4096
    df, half = FS / n, n // 2
    k_lo = {"dc": 0, "nyquist": half - K + 1, "mid": 300}[start]
    rng = np.random.default_rng(K + 7 * n_mics)
    array = MicArray(rng.uniform(0.0, 1.0, size=(n_mics, 3)) * [6.0, 5.0, 3.0], sample_rate=FS)
    freqs = np.fft.fftfreq(n, d=1.0 / FS)
    in_band = (np.abs(freqs) >= (k_lo - 0.5) * df) & (np.abs(freqs) <= (k_lo + K - 0.5) * df)
    spectra = np.fft.fft(rng.normal(size=(array.n_pairs, n)))
    spectra = np.where(in_band, spectra / np.abs(spectra), 0.0)
    gccs = hand_block(spectra, in_band, array.pairs())
    if far_field:
        pts = rng.normal(size=(40, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    else:
        pts = rng.uniform(0.0, 1.0, size=(40, 3)) * [6.0, 5.0, 3.0]
    return array, gccs, pts, freqs[in_band], spectra[:, in_band]


@pytest.mark.parametrize("far_field", [False, True], ids=["near", "far"])
@pytest.mark.parametrize("n_mics", [2, 6])
@pytest.mark.parametrize("start", ["dc", "nyquist", "mid"])
@pytest.mark.parametrize("K", [1, 2, 3, 16, 17, 121, 122, 973])
def test_freq_scores_match_the_direct_sum_at_edge_bin_counts(K, start, n_mics, far_field):
    # K = B^2 and B^2 + 1 (B = 4, 11) fill the last block row or start a
    # new one; bands start at DC or end at Nyquist, whose bins fold once
    array, gccs, pts, f, values = _banded_case(K, start, n_mics, far_field)
    assert gccs.spectra.shape[1] == K
    got = srp_freq_scores(pts, gccs, array, far_field=far_field)
    taus = tdoa_matrix(pts, array, far_field)
    ref = np.zeros(len(pts))
    for j in range(array.n_pairs):
        ref += (np.exp(2j * math.pi * taus[:, j, None] * f) @ values[j]).real
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("K", [0, 1, 115])
def test_zero_points_score_to_an_empty_result_and_count_nothing(K):
    array, gccs, _, _, _ = _banded_case(max(K, 1), "mid", 4, False)
    if not K:
        gccs = SpectralBlock(gccs.spectra[:, :0], slice(0, 0), np.zeros_like(gccs.in_band), FS, gccs.pairs)
    counter.reset()
    for scores in (srp_freq_scores(np.empty((0, 3)), gccs, array), make_freq_scorer(gccs, array)(np.empty((0, 3)))):
        assert scores.shape == (0,) and scores.dtype == float
    assert (counter.points, counter.kernel_ops) == (0, 0)


@pytest.mark.parametrize("G, products", [(80, [7, 6, 5, 4, 3, 2, 1]), (100, [7, 6, 5, 4, 3, 2, 1]), (360, [1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 1, 2, 2, 1]), (1000, [1] * 28)])
def test_small_calls_take_their_pairs_in_groups(G, products):
    """A block of g points splits each mic's pair rows (7, 6, .., 1 at 8
    mics) into the fewest equal groups of at most 1024 // g pairs, one
    stacked product each, so a search's 80-100 point call makes seven;
    1,000 points take one pair at a time. Scores equal those of one-point
    blocks, one pair a group, to 1e-12."""
    # at 360 points, at most 2 a group: 7 rows as 1, 2, 2, 2; 6 as 2, 2, 2; 5 as 1, 2, 2; ...
    array, gccs, _, _, _ = _banded_case(115, "mid", 8, False)
    pts = np.random.default_rng(G).uniform(0.0, 1.0, size=(G, 3)) * [6.0, 5.0, 3.0]
    matmul = mock.Mock(wraps=np.matmul)
    with mock.patch.object(np, "matmul", matmul):
        got = srp_freq_scores(pts, gccs, array)
    assert [c.args[0].shape[0] for c in matmul.call_args_list] == products
    with mock.patch.object(srp_core, "_FREQ_BLOCK", 1):
        assert np.max(np.abs(got - srp_freq_scores(pts, gccs, array))) <= 1e-12 * np.max(np.abs(got))


def test_a_track_sized_frequency_call_holds_under_0_55_mib():
    """8 mics, 1,000 points, 300-1200 Hz at L = 1024 (K = 115): one block,
    one pair's powers, giant-step rows and z at a time, one per-mic phasor
    table and the call's own coefficients: 0.54 MiB, where a second
    phasor table for the band start and a separate y row took 0.67."""
    rng = np.random.default_rng(4)
    array = MicArray(rng.uniform(0.0, 1.0, size=(8, 3)) * [6.0, 5.0, 3.0], sample_rate=FS)
    block = compute_spectral_gccs(rng.normal(size=(8, 1024)), array, GccConfig(band=(300.0, 1200.0)))
    assert block.spectra.shape == (28, 115)
    pts = rng.uniform(0.0, 1.0, size=(1000, 3)) * [6.0, 5.0, 3.0]
    srp_freq_scores(pts, block, array)
    tracemalloc.start()
    try:
        srp_freq_scores(pts, block, array)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.55 * 2**20


@pytest.mark.parametrize("block, blocks", [(1024, 1), (100, 10), (7, 143)])
def test_freq_scores_take_one_exponential_per_block_of_points(block, blocks):
    # the per-mic phasors e^{j 2 pi df t}; the band start comes from the
    # pair's own powers, not from a second table of exponentials
    array, gccs, _, _, _ = _banded_case(115, "mid", 8, False)
    pts = np.random.default_rng(3).uniform(0.0, 1.0, size=(1000, 3)) * [6.0, 5.0, 3.0]
    exp = mock.Mock(wraps=np.exp)
    with mock.patch.object(srp_core, "_FREQ_BLOCK", block), mock.patch.object(np, "exp", exp):
        srp_freq_scores(pts, gccs, array)
    assert exp.call_count == blocks


@st.composite
def _block_cases(draw):
    """Frames of 2-8 mics, a band (empty, DC only, Nyquist only, partial or
    full) and near- or far-field candidates."""
    L = 2 ** draw(st.integers(3, 9))
    df = FS / (2 * L)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    array = MicArray(rng.uniform(0.0, 3.0, size=(draw(st.integers(2, 8)), 3)), sample_rate=FS)
    k = draw(st.integers(0, L - 1))
    band = draw(st.sampled_from([
        ((k + 0.25) * df, (k + 0.75) * df),  # between two bins: empty
        (0.0, 0.5 * df),  # DC only
        (FS / 2 - 0.5 * df, FS / 2),  # Nyquist only
        (k * df, (k + draw(st.integers(0, L - k))) * df + 0.5 * df),  # partial
        None,  # full
    ]))
    far_field = draw(st.booleans())
    pts = rng.normal(size=(draw(st.integers(1, 50)), 3))
    if far_field:
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    else:
        pts = rng.uniform(-1.0, 4.0, size=pts.shape)
    return array, rng.normal(size=(array.n_mics, L)), GccConfig(band=band), pts, far_field


def two_sided_gccs(frames, array, cfg):
    """The features as a plain dict of two-sided SpectralGccs, laid out eagerly from the band block."""
    block = compute_spectral_gccs(frames, array, cfg)
    return gccs_from_half(block.spectra, block.in_band, array.sample_rate, array.pairs(), block.band)


@settings(max_examples=80, deadline=None)
@given(case=_block_cases())
def test_block_items_equal_the_eager_two_sided_gccs_bitwise(case):
    array, frames, cfg, _, _ = case
    block = compute_spectral_gccs(frames, array, cfg)
    want = two_sided_gccs(frames, array, cfg)
    assert list(block) == list(want) == array.pairs()
    assert len(block) == array.n_pairs
    for p, w in want.items():
        g = block[p]
        for a, b in ((g.values, w.values), (g.freqs, w.freqs), (g.in_band, w.in_band)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert g.sample_rate == w.sample_rate
    with pytest.raises(TypeError):
        block[MicPair(0, 1)] = want[MicPair(0, 1)]  # read-only


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
    l1 = lag_block(frames, a1, CC)
    l2 = lag_block(frames, a2, CC)
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
    s1 = srp_time_scores(pts, lag_block(frames, a1, CC), a1)
    s2 = srp_time_scores(pts, lag_block(frames[perm], a2, CC), a2)
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
    lags = lag_block(frames, array, CC)
    with pytest.raises(ValueError, match="longer frames"):
        srp_time_scores(np.array([[1.0, 1.0, 1.0]]), lags, array)


def _offset_reference(pts, array, far_field=False):
    """rint(tau * fs) of every pair and point, (P, G), and each pair's lag bound D."""
    taus = tdoa_matrix(pts, array, far_field)
    fs = array.sample_rate
    bounds = np.array([round(max_tdoa(p, array) * fs) + 1 for p in array.pairs()])
    return np.rint(taus * fs).T.astype(np.int64), bounds


@st.composite
def _time_cases(draw):
    """A lag block from the longest pair's covering length up, and candidates.

    Cartesian candidates lie in and out of a 3 m box and include the
    mics themselves (|tau| = max_tdoa); bearings include the baselines.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fs = draw(st.floats(1000.0, 96000.0))
    array = MicArray(rng.uniform(0.0, 3.0, size=(draw(st.integers(2, 8)), 3)), sample_rate=fs)
    k = max(round(max_tdoa(p, array) * fs) + 1 for p in array.pairs()) + draw(st.integers(0, 40))
    lags = LagBlock(rng.normal(size=(array.n_pairs, 2 * k + 1)), fs)
    far_field = draw(st.booleans())
    n = draw(st.integers(1, 60))
    if far_field:
        pos = array.positions
        pts = np.concatenate([rng.normal(size=(n, 3)), pos[1:] - pos[0]])
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    else:
        pts = np.concatenate([rng.uniform(-2.0, 5.0, size=(n, 3)), array.positions])
    return array, lags, pts, far_field


@settings(max_examples=80, deadline=None)
@given(case=_time_cases())
def test_time_scores_match_signed_lag_gather(case):
    # the offset table read through each pair's lag window against
    # the definition: a pair's row at rint(tau * fs) + K, summed over pairs;
    # the scores steer positions only, so bearings go through a DOA grid's map
    array, lags, pts, far_field = case
    if far_field:
        got = srp_time_map(lags, CandidateGrid("doa_az_el", pts), array).scores
    else:
        got = srp_time_scores(pts, lags, array)
    rint_lags, _ = _offset_reference(pts, array, far_field)
    ref = np.zeros(len(pts))
    for row, lv in zip(rint_lags, lags.values):
        ref += lv[row + lags.max_lag]
    np.testing.assert_array_equal(got, ref)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_mics=st.integers(2, 9),
    span=st.floats(0.01, 50.0),
    fs=st.floats(1000.0, 192000.0),
    c=st.floats(100.0, 2000.0),
)
def test_an_arrays_lag_bounds_are_each_pairs_rounded_max_tdoa_plus_one(seed, n_mics, span, fs, c):
    """MicArray.lag_bounds is round(max_tdoa * fs) + 1 of each pair, in
    pairs() order, as ints, and cannot be written."""
    pos = np.random.default_rng(seed).uniform(0.0, span, size=(n_mics, 3))
    array = MicArray(pos, sample_rate=fs, speed_of_sound=c)
    _, want = _offset_reference(pos, array)
    assert array.lag_bounds.dtype.kind == "i" and np.array_equal(array.lag_bounds, want)
    with pytest.raises(ValueError, match="read-only"):
        array.lag_bounds[0] = 0


def test_lag_table_is_offset_rint_of_tdoas(scene):
    array, _, _ = scene
    for pts, far_field in ((cartesian_grid(ROOM, 0.1).points, False),
                           (doa_grid(5.0).points, True)):
        table = srp_core.lag_table(pts, array, far_field=far_field)
        rint_lags, bounds = _offset_reference(pts, array, far_field)
        np.testing.assert_array_equal(table, rint_lags + bounds[:, None])
        assert table.min() >= 0
        assert np.all(table.max(axis=1) <= 2 * bounds)


def test_lag_table_width_follows_the_largest_baseline():
    # room-sized arrays get 2 bytes per entry; a 100 m baseline at
    # 192 kHz (2 D = 111,956) needs a wider type and keeps its values
    rng = np.random.default_rng(0)
    room = np.array([6.0, 5.0, 3.0])
    array = MicArray(rng.uniform(0.3, room - 0.3, size=(8, 3)), sample_rate=16000.0)
    grid = cartesian_grid(room, 0.1)
    table = srp_core.lag_table(grid.points, array)
    assert table.dtype == np.uint16
    assert table.nbytes == 2 * array.n_pairs * len(grid)
    wide = MicArray([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]], sample_rate=192000.0)
    pts = np.concatenate([wide.positions, rng.uniform(-20.0, 120.0, size=(500, 3))])
    table = srp_core.lag_table(pts, wide)
    assert table.dtype.itemsize > 2
    rint_lags, bounds = _offset_reference(pts, wide)
    np.testing.assert_array_equal(table, rint_lags + bounds[:, None])
    assert table[0, 0] == 1 and table[0, 1] == 2 * bounds[0] - 1  # a mic: tau = -+max_tdoa


def test_counter_accounting(scene):
    array, lags, gccs = scene
    grid = cartesian_grid(ROOM, 0.5)
    n_inband = int(next(iter(gccs.values())).in_band.sum())
    counter.reset()
    srp_time_map(lags, grid, array)
    assert (counter.points, counter.kernel_ops) == (len(grid), len(grid) * array.n_pairs)
    counter.reset()
    srp_freq_map(gccs, grid, array)
    assert (counter.points, counter.kernel_ops) == (len(grid), len(grid) * array.n_pairs * n_inband)
    counter.reset()
    small = CandidateGrid("cartesian3d", grid.points[:7])
    pairwise_freq_scores(gccs, small, array)
    assert (counter.points, counter.kernel_ops) == (7, 7 * array.n_pairs * n_inband)
    counter.reset()
    vg = partition_room(ROOM, (2, 2, 1))
    vsrp_map(lags, vg, array)
    assert (counter.points, counter.kernel_ops) == (4, 4 * array.n_pairs)


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


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    far_field=st.booleans(),
    placement=st.sampled_from(["inside", "face", "corner", "far"]),
    flat=st.sampled_from([None, 0, 1, 2]),
)
def test_every_point_of_a_box_lies_in_its_time_cells_intervals(seed, far_field, placement, flat):
    """Random boxes, one of them flat along an axis or not, and mic 0
    inside a box, on a face, at a corner or 5-20 m away: every corner,
    face centre and random point of a box has each pair's TDOA inside
    the box's interval (srp_core._box_tdoas), and every grid point in a
    box its lag_table offset inside the box's lag range (_box_query). In
    the far field the boxes bound clusters of unit directions, the
    points lag_table steers; the TDOA, linear in u, is checked over the
    whole box."""
    rng = np.random.default_rng(seed)
    if far_field:
        dirs = [rng.normal(size=3) + rng.uniform(0.0, 0.5) * rng.normal(size=(50, 3)) for _ in range(4)]
        members = [d / np.linalg.norm(d, axis=1, keepdims=True) for d in dirs]
        lo, hi = np.stack([m.min(axis=0) for m in members], axis=1), np.stack([m.max(axis=0) for m in members], axis=1)
    else:
        lo = rng.uniform(-2.0, 2.0, size=(3, 4))
        hi = lo + rng.uniform(0.0, 1.0, size=(3, 4))
        if flat is not None:
            hi[flat, 0] = lo[flat, 0]
    pos = rng.uniform(-3.0, 3.0, size=(int(rng.integers(2, 7)), 3))
    if placement == "far":
        v = rng.normal(size=3)
        pos[0] = (lo[:, 0] + hi[:, 0]) / 2 + rng.uniform(5.0, 20.0) * v / np.linalg.norm(v)
    else:
        pos[0] = rng.uniform(lo[:, 0], hi[:, 0])
        if placement != "inside":  # one face, or three at a corner
            for a in [int(rng.integers(3))] if placement == "face" else range(3):
                pos[0, a] = (lo if rng.random() < 0.5 else hi)[a, 0]
    array = MicArray(pos, sample_rate=16000.0)
    base = np.stack([pos[p.m] - pos[p.l] for p in array.pairs()])
    intervals = [(rows, t_lo.copy(), t_hi.copy()) for rows, t_lo, t_hi in srp_core._box_tdoas(lo, hi, array, far_field)]
    first, second, _, width = srp_core._box_query(lo, hi, array, far_field)
    level, k_lo = np.divmod(first, width)
    k_hi = second - level * width + np.left_shift(1, level) - 1
    corners = np.array(list(itertools.product((0, 1), repeat=3)), dtype=bool)
    for c in range(lo.shape[1]):
        a, b = lo[:, c], hi[:, c]
        faces = np.concatenate([np.where(np.eye(3, dtype=bool) & side, b if side else a, (a + b) / 2)
                                for side in (False, True)])
        pts = np.vstack([np.where(corners, b, a), faces, rng.uniform(a, b, size=(200, 3))])
        steered = members[c] if far_field else pts
        if far_field:
            tau = base @ pts.T / array.speed_of_sound * array.sample_rate
        else:
            tau = tdoa_matrix(pts, array).T * array.sample_rate
        for rows, t_lo, t_hi in intervals:
            assert np.all(t_lo[:, c, None] - 1e-9 <= tau[rows]) and np.all(tau[rows] <= t_hi[:, c, None] + 1e-9)
        table = srp_core.lag_table(steered, array, far_field)
        assert np.all(k_lo[:, c, None] <= table) and np.all(table <= k_hi[:, c, None])


@pytest.mark.parametrize("grid", [cartesian_grid(ROOM, 0.2), doa_grid(math.radians(4.0), math.radians(8.0))],
                         ids=["lattice", "doa"])
def test_time_cells_built_in_blocks_of_boxes_equal_one_block(scene, grid, monkeypatch):
    """time_cells bounds its boxes in blocks of at most _BOX_BLOCK: in
    blocks of 7 boxes or in one, every range and top level is the same."""
    array, _, _ = scene
    monkeypatch.setattr(srp_core, "_BOX_BLOCK", 10**9)
    one = srp_core.time_cells(grid, array).query
    monkeypatch.setattr(srp_core, "_BOX_BLOCK", 7)
    blocks = srp_core.time_cells(grid, array).query
    assert one[0].shape[1] > 7 * 3
    for a, b in zip(one, blocks, strict=True):
        assert np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype


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
    lags = LagBlock(values[None, :], fs)
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
        for pair, lv in zip(array.pairs(), lags.values):
            b = tdoa_bounds(vol, pair, array, guard)
            k0 = max(int(np.rint(b.tau_min * fs)) + lags.max_lag, 0)
            k1 = min(int(np.rint(b.tau_max * fs)) + lags.max_lag, len(lv) - 1)
            window = lv[k0: k1 + 1]
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


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), frames=st.integers(0, 4), ties=st.booleans())
def test_range_maxima_equal_direct_window_maxima(seed, frames, ties):
    """The range-max tables behind max pooling and the time search's cell
    bounds give np.max over each range, for 1-D rows or rows of frames,
    with the ranges given in one block or in blocks of rows and of
    columns, as time_cells gives them."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 70, size=rng.integers(1, 6))
    tail = (frames,) if frames else ()
    rows = [rng.integers(-2, 3, size=(n, *tail)).astype(float) if ties else rng.normal(size=(n, *tail))
            for n in lengths]
    ranges = rng.integers(1, 12)
    lo = np.stack([rng.integers(0, n, size=ranges) for n in lengths])
    hi = np.stack([np.minimum(a + rng.integers(0, n, size=ranges), n - 1) for a, n in zip(lo, lengths)])
    width = int(lengths.max()) + int(rng.integers(0, 4))
    cut, split = int(rng.integers(0, len(lengths))), int(rng.integers(0, ranges))
    blocks = [(r, c, lo[r, c], hi[r, c]) for r in (slice(0, cut), slice(cut, len(lengths)))
              for c in (slice(0, split), slice(split, ranges)) if r.start != r.stop and c.start != c.stop]
    got = list(srp_core._range_maxima(rows, srp_core._range_query(blocks, lo.shape, width)))
    for row, g, a, b in zip(rows, got, lo, hi, strict=True):
        assert np.array_equal(g, np.stack([row[i: j + 1].max(axis=0) for i, j in zip(a, b)]))


def _windows_by_volume(vg, array, guard):
    """Reference: each Volume's 8 corners (itertools order) through its own
    tof_matrix call, reduced pair by pair."""
    fs = array.sample_rate
    k0 = np.empty((array.n_pairs, len(vg)), dtype=np.int32)
    k1 = np.empty_like(k0)
    for v, vol in enumerate(vg.volumes):
        t = tof_matrix(np.array(list(itertools.product(*zip(vol.lo, vol.hi)))), array)
        for j, p in enumerate(array.pairs()):
            taus = t[:, p.l] - t[:, p.m]
            lim = max_tdoa(p, array)
            k0[j, v] = np.rint(max(taus.min() - guard / fs, -lim) * fs)
            k1[j, v] = np.rint(min(taus.max() + guard / fs, lim) * fs)
    return k0, k1


# a 0.1 m lattice keeps distinct mics apart
_mic = st.tuples(*[st.integers(-10, 70).map(lambda k: k / 10.0)] * 3)


@settings(max_examples=60, deadline=None)
@given(
    vg=_room_tilings(),
    mics=st.lists(_mic, min_size=2, max_size=6, unique=True),
    fs=st.sampled_from([8000.0, 16000.0, 44100.0]),
    guard=st.floats(0.0, 3.0, allow_nan=False),
)
def test_lag_windows_match_per_volume_vertices(vg, mics, fs, guard):
    """The grid's one (M, 8, V) pass equals per-box vertex bounds, bit for bit."""
    array = MicArray(np.array(mics), sample_rate=fs)
    got, ref = lag_windows(vg, array, guard), _windows_by_volume(vg, array, guard)
    for g, r in zip(got, ref):
        assert g.dtype == np.int32
        np.testing.assert_array_equal(g, r)


def _per_pair_vsrp(lags, vg, array, pooling, guard):
    """Volumetric scores pair by pair from an uncropped lag block's rows, read
    over lags -D..D, D = max(array.lag_bounds): np.cumsum prefix sums from lag -D,
    or a max over each window slice."""
    scores = np.zeros(len(vg))
    k, d = lags.max_lag, int(array.lag_bounds.max())
    for v, k0, k1 in zip(lags.values, *lag_windows(vg, array, guard)):
        w = v[k - d: k + d + 1]
        a, b = np.maximum(k0 + d, 0), np.minimum(k1 + d, len(w) - 1)
        if pooling == "max":
            scores += np.array([w[i: j + 1].max() for i, j in zip(a, b)])
            continue
        csum = np.concatenate([[0.0], np.cumsum(w)])
        pooled = csum[b + 1] - csum[a]
        scores += pooled / (b - a + 1) if pooling == "mean" else pooled
    return scores


_BOX = np.array([1.5, 1.5, 1.5])


@settings(max_examples=40, deadline=None)
@given(
    mics=st.lists(st.tuples(*[st.integers(0, 15).map(lambda k: k / 10.0)] * 3),
                  min_size=2, max_size=8, unique=True),
    fs=st.sampled_from([8000.0, 16000.0]),
    frame_len=st.sampled_from([256, 512, 1024]),
    gcc=st.sampled_from([GccConfig(), CC, GccConfig(band=(200.0, 3000.0))]),
    guard=st.floats(0.0, 3.0, allow_nan=False),
    seed=st.integers(0, 2**32 - 1),
)
def test_cropped_block_path_equals_per_pair_path(mics, fs, frame_len, gcc, guard, seed):
    """Maps over the cropped LagBlock equal those over the uncropped one and the per-pair references, bitwise."""
    array = MicArray(np.array(mics), sample_rate=fs)
    frames = np.random.default_rng(seed).normal(size=(array.n_mics, frame_len))
    bounds = array.lag_bounds
    d = int(bounds.max())
    block = lag_block(frames, array, gcc, reach=d)
    lags = lag_block(frames, array, gcc)
    assert block.values.shape == (array.n_pairs, 2 * d + 1)
    k = frame_len - 1
    assert lags.max_lag == k

    for grid in (cartesian_grid(_BOX, 0.5), doa_grid(math.pi / 4, math.pi / 4)):
        got = srp_time_map(block, grid, array).scores
        assert np.array_equal(got, srp_time_map(lags, grid, array).scores)
        rint_lags, _ = _offset_reference(grid.points, array, grid.is_doa)
        ref = np.zeros(len(grid))
        for row, whole_row in zip(rint_lags, lags.values):
            ref += whole_row[row + k]
        assert np.array_equal(got, ref)

    vg = partition_room(_BOX, (2, 2, 2))
    wider = [lag_block(frames, array, gcc, reach=r) for r in (d + 1, d + 7, 2 * d, k - 1)]
    for pooling in ("sum", "mean", "max"):
        got = vsrp_map(block, vg, array, pooling=pooling, guard=guard).scores
        assert np.array_equal(got, vsrp_map(lags, vg, array, pooling=pooling, guard=guard).scores)
        assert np.array_equal(got, _per_pair_vsrp(lags, vg, array, pooling, guard))
        for other in wider:  # any reach >= D gives the same bits
            assert np.array_equal(got, vsrp_map(other, vg, array, pooling=pooling, guard=guard).scores)

    grid = cartesian_grid(_BOX, 0.5)
    two = MultiConfig(n_sources=2)
    est = localize_multi(block, grid, array, two)
    ref = localize_multi(lags, grid, array, two)
    assert np.array_equal(est.positions, ref.positions)
    assert np.array_equal(est.scores, ref.scores)
    # and round by round over the uncropped block, notched as a copy
    first = argmax_search(srp_time_map(lags, grid, array))
    notched = deemphasize(LagBlock(lags.values.copy(), fs), tdoa_matrix(first.estimate[None, :], array)[0], 2.0 / fs)
    second = argmax_search(srp_time_map(notched, grid, array))
    want = sorted([first.score, second.score], reverse=True)
    assert np.array_equal(est.scores, want)
    assert np.array_equal(block.values, lag_block(frames, array, gcc, reach=d).values)  # not notched


def test_vsrp_source_volume_wins(scene):
    array, lags, _ = scene
    vg = partition_room(ROOM, (4, 4, 2))
    m = vsrp_map(lags, vg, array, pooling="max")
    winner = vg.volumes[int(np.argmax(m.scores))]
    assert np.all((winner.lo <= SRC) & (SRC <= winner.hi))


def test_wsrp_sum_sum_equals_plain_freq_map(scene):
    array, _, gccs = scene
    # a Cartesian grid (exact TDOAs) and a DOA grid (far-field steering)
    for grid in (cartesian_grid(ROOM, 1.0), doa_grid(math.pi / 8, math.pi / 8)):
        pfs = pairwise_freq_scores(gccs, grid, array)
        w = wsrp_map(pfs)
        plain = srp_freq_map(gccs, grid, array)
        np.testing.assert_allclose(w.scores, plain.scores, rtol=1e-9, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([16, 30, 64]),
    band=st.tuples(st.floats(0.0, FS / 2), st.floats(0.0, FS / 2)).map(sorted),
    far=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_pairwise_tensor_equals_one_built_from_the_mapping_view(n, band, far, seed):
    """The tensor reads each two-sided in-band bin from the block's half
    spectrum (conjugated past n/2), bit for bit the SpectralGcc values
    that the block's Mapping view builds for each pair."""
    rng = np.random.default_rng(seed)
    array = MicArray(rng.uniform(0.0, 1.0, size=(4, 3)), sample_rate=FS)
    in_band = features._band_mask(np.fft.fftfreq(n, d=1.0 / FS), tuple(band), FS)
    spectra = rng.normal(size=(array.n_pairs, n)) + 1j * rng.normal(size=(array.n_pairs, n))
    block = hand_block(spectra, in_band, array.pairs())
    grid = doa_grid(math.pi / 4, math.pi / 4) if far else CandidateGrid("cartesian3d", rng.uniform(-1, 2, (7, 3)))
    got = pairwise_freq_scores(block, grid, array)
    freqs = np.fft.fftfreq(n, d=1.0 / FS)[in_band]
    phases = np.exp((2j * math.pi) * tof_matrix(grid.points, array, far)[:, :, None] * freqs)
    for j, pair in enumerate(array.pairs()):
        steer = phases[:, pair.l, :] * np.conj(phases[:, pair.m, :])
        want = (steer * block[pair].values[in_band][None, :]).real
        assert np.array_equal(got.tensor[j], want)


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
    pts = SRC[None, :] + np.column_stack(
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
        SrpMap(grid, np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        SrpMap(grid, np.full(len(grid), np.nan))
    incomplete = LagBlock(lags.values[:-1], FS)
    with pytest.raises(ValueError, match="rows for"):
        srp_time_map(incomplete, grid, array)
    incomplete_g = SpectralBlock(gccs.spectra[:-1], gccs.band, gccs.in_band, FS, gccs.pairs[:-1])
    with pytest.raises(ValueError, match="pairs"):
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


def test_a_freq_scorer_lays_out_its_coefficients_once(scene):
    """A search calls one scorer many times a frame; the padded (P, A, B)
    coefficients are built when the scorer is made, not per call."""
    array, _, gccs = scene
    region = Volume([0.5, 0.5, 0.5], [4.5, 3.5, 2.5])
    builds = mock.Mock(wraps=srp_core._freq_coefficients)
    with mock.patch.object(srp_core, "_freq_coefficients", builds):
        scorer = make_freq_scorer(gccs, array)
        res = refine_search(scorer, region, SearchConfig(mode="refine", max_iters=4))
    assert builds.call_count == 1 and res.iterations > 1
    pts = np.random.default_rng(3).uniform(0.5, 2.5, size=(50, 3))
    assert scorer(pts).tobytes() == srp_freq_scores(pts, gccs, array).tobytes()


def test_maps_scorers_and_deemphasis_take_only_blocks(scene):
    """A per-pair dict is refused with a TypeError that names the block type."""
    array, lags, gccs = scene
    grid = cartesian_grid(ROOM, 1.0)
    pts = grid.points[:3]
    lag_dict = {p: row for p, row in zip(array.pairs(), lags.values)}
    gcc_dict = dict(gccs)
    time_entries = [
        lambda f: srp_time_map(f, grid, array),
        lambda f: srp_time_scores(pts, f, array),
        lambda f: make_time_scorer(f, array),
        lambda f: vsrp_map(f, partition_room(ROOM, (2, 2, 1)), array),
    ]
    freq_entries = [
        lambda f: srp_freq_scores(pts, f, array),
        lambda f: srp_freq_map(f, grid, array),
        lambda f: make_freq_scorer(f, array),
        lambda f: pairwise_freq_scores(f, grid, array),
    ]
    for entry in time_entries:
        with pytest.raises(TypeError, match="LagBlock"):
            entry(lag_dict)
    for entry in freq_entries:
        with pytest.raises(TypeError, match="SpectralBlock"):
            entry(gcc_dict)
    for feats in (lag_dict, gcc_dict):
        with pytest.raises(TypeError, match="LagBlock or a SpectralBlock"):
            deemphasize(feats, np.zeros(array.n_pairs), 2.0 / FS)
        with pytest.raises(TypeError, match="LagBlock"):  # all but a SpectralBlock go to the batch of LagBlocks
            localize_multi(feats, grid, array)


def test_a_spectral_block_out_of_pair_order_is_refused(scene):
    """Rows must follow array.pairs(); a reordered block is refused, not re-ordered."""
    array, _, gccs = scene
    grid = cartesian_grid(ROOM, 1.0)
    flipped = SpectralBlock(gccs.spectra[::-1].copy(), gccs.band, gccs.in_band, FS, gccs.pairs[::-1])
    for entry in (
        lambda: srp_freq_scores(grid.points, flipped, array),
        lambda: srp_freq_map(flipped, grid, array),
        lambda: make_freq_scorer(flipped, array),
        lambda: pairwise_freq_scores(flipped, grid, array),
        lambda: localize_multi(flipped, grid, array),
    ):
        with pytest.raises(ValueError, match=r"array\.pairs\(\) order"):
            entry()


@pytest.mark.parametrize("n_mics, band", [(2, None), (4, (1000.0, 1000.0 + 0.5 * FS / 1024))])
def test_frequency_scoring_leaves_the_block_unchanged(n_mics, band):
    """A block of one pair or one bin: laying out its coefficients must not
    scale the caller's block, so a scorer called twice gives the same scores."""
    rng = np.random.default_rng(8)
    array = MicArray(rng.uniform(0.0, 1.0, size=(n_mics, 3)), sample_rate=FS)
    block = compute_spectral_gccs(rng.normal(size=(n_mics, 512)), array, GccConfig(band=band))
    assert 1 in block.spectra.shape
    before = block.spectra.copy()
    pts = rng.uniform(0.0, 2.0, size=(5, 3))
    scorer = make_freq_scorer(block, array)
    first = scorer(pts)
    assert np.array_equal(scorer(pts), first)
    assert np.array_equal(block.spectra, before)
