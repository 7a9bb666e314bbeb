"""Correlation feature tests.

The main oracle is the O(L^2) direct double sum for the classical
cross-correlation, the GccConfig(beta=0, gamma=0) setting of the pair
block; everything spectral is checked against it, against closed-form
properties (unit PHAT magnitude, conjugate symmetry, band support),
against a per-pair two-sided reference of the GCC formula, or against
exact round trips. Pair features are read through the two public
edges, compute_spectral_gccs and lag_block, on a 2-mic array unless a
test needs more microphones.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from xsrp import features
from xsrp.features import (
    GAMMA_RELATIVE_FLOOR,
    FrameConfig,
    GccConfig,
    LagBlock,
    SpectralGcc,
    analysis_band,
    compute_spectral_gccs,
    frame_stack,
    half_from_lags,
    lag_block,
    lags_from_half,
    n_frames,
    temporal_gcc,
)
from xsrp.geometry import MicArray, MicPair

CC = GccConfig(beta=0.0, gamma=0.0)  # classical cross-correlation
PAIR = MicPair(0, 1)


def pair_array(fs=1.0) -> MicArray:
    return MicArray([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]], sample_rate=fs)


def pair_gcc(xl, xm, fs, cfg=None) -> SpectralGcc:
    return compute_spectral_gccs(np.stack([xl, xm]), pair_array(fs), cfg)[PAIR]


def pair_lags(xl, xm, fs=1.0, cfg=None) -> LagBlock:
    """The pair's lags -(L-1)..(L-1): the uncropped lag_block, one row."""
    return lag_block(np.stack([xl, xm]), pair_array(fs), cfg)


def peak_lag(block: LagBlock, row: int = 0) -> int:
    return int(np.argmax(block.values[row])) - block.max_lag


def direct_cc(xl, xm):
    """Reference implementation: CC(tau) = sum_n xl[n] xm[n - tau]."""
    L = len(xl)
    out = np.zeros(2 * L - 1)
    for i, tau in enumerate(range(-(L - 1), L)):
        acc = 0.0
        for n in range(L):
            j = n - tau
            if 0 <= j < L:
                acc += xl[n] * xm[j]
        out[i] = acc
    return out


def test_cross_correlation_matches_direct_sum():
    rng = np.random.default_rng(0)
    for L in (4, 8, 16):
        for _ in range(5):
            xl = rng.normal(size=L)
            xm = rng.normal(size=L)
            cc = pair_lags(xl, xm, cfg=CC)
            np.testing.assert_allclose(cc.values[0], direct_cc(xl, xm), atol=1e-9)
            assert cc.max_lag == L - 1


def test_cross_correlation_peak_at_integer_delay():
    rng = np.random.default_rng(1)
    x = rng.normal(size=256)
    for s in (1, 5, 20):
        # xl delayed by s relative to xm puts the peak at +s
        xl = np.concatenate([np.zeros(s), x[:-s]])
        assert peak_lag(pair_lags(xl, x, cfg=CC)) == s
        assert peak_lag(pair_lags(x, xl, cfg=CC)) == -s


def test_cross_correlation_swap_reverses_lags():
    rng = np.random.default_rng(2)
    xl = rng.normal(size=64)
    xm = rng.normal(size=64)
    fwd = pair_lags(xl, xm, cfg=CC)
    rev = pair_lags(xm, xl, cfg=CC)
    np.testing.assert_allclose(fwd.values[0], rev.values[0, ::-1], atol=1e-10)


def test_cross_correlation_validates_inputs():
    for frames in (np.zeros((1, 8)), np.zeros((3, 8))):
        with pytest.raises(ValueError, match="channels"):
            lag_block(frames, pair_array(), CC)


def test_spectrum_roundtrip_and_padding():
    # frames are zero-padded to 2L: the spectra live on the 2L-point
    # DFT grid, and the raw cross-spectrum's inverse transform is the
    # linear correlation, so its wrap slot at lag L is zero
    rng = np.random.default_rng(3)
    frames = rng.normal(size=(2, 32))
    g = pair_gcc(frames[0], frames[1], 8000.0, CC)
    assert g.n_fft == 64
    np.testing.assert_array_equal(g.freqs, np.fft.fftfreq(64, d=1.0 / 8000.0))
    circ = np.fft.ifft(g.values)
    assert abs(circ[32]) < 1e-12
    np.testing.assert_allclose(circ.imag, 0.0, atol=1e-12)
    np.testing.assert_allclose(
        np.concatenate([circ.real[33:], circ.real[:32]]), direct_cc(*frames), atol=1e-12
    )


def test_phat_unit_magnitude_in_band():
    rng = np.random.default_rng(4)
    g = pair_gcc(rng.normal(size=128), rng.normal(size=128), 16000.0, GccConfig(beta=1.0, gamma=0.0))
    mags = np.abs(g.values[g.in_band])
    np.testing.assert_allclose(mags, 1.0, atol=1e-12)
    assert np.all(g.values[~g.in_band] == 0)


def test_phat_scale_invariance():
    rng = np.random.default_rng(5)
    fs = 16000.0
    xl = rng.normal(size=128)
    xm = rng.normal(size=128)
    # the default gamma floor is relative, so scaling both channels
    # leaves the weighted spectrum unchanged
    g = pair_gcc(xl, xm, fs)
    g2 = pair_gcc(7.5 * xl, 0.01 * xm, fs)
    np.testing.assert_allclose(g2.values, g.values, atol=1e-12)


def test_band_limits_apply_to_absolute_frequency():
    rng = np.random.default_rng(6)
    g = pair_gcc(rng.normal(size=64), rng.normal(size=64), 2000.0, GccConfig(band=(300.0, 800.0)))
    absf = np.abs(g.freqs)
    outside = (absf < 300.0) | (absf > 800.0)
    assert np.all(g.values[outside] == 0)
    assert np.all(np.abs(g.values[~outside]) > 0.5)
    # conjugate symmetry survives the band mask
    for i, f in enumerate(g.freqs):
        j = np.argmin(np.abs(g.freqs + f))
        assert abs(g.values[i] - np.conj(g.values[j])) < 1e-9


def test_beta_zero_gamma_zero_is_raw_cross_spectrum():
    rng = np.random.default_rng(7)
    fs = 8000.0
    xl = rng.normal(size=64)
    xm = rng.normal(size=64)
    g = pair_gcc(xl, xm, fs, CC)
    np.testing.assert_allclose(
        g.values, np.fft.fft(xl, 128) * np.conj(np.fft.fft(xm, 128)), atol=1e-12
    )
    # and its inverse transform is the classical cross-correlation
    lag = temporal_gcc(g)
    np.testing.assert_allclose(lag.values[0], direct_cc(xl, xm), atol=1e-8)
    np.testing.assert_allclose(pair_lags(xl, xm, fs, CC).values, lag.values, atol=1e-12)


def test_phat_peak_at_integer_delay():
    rng = np.random.default_rng(8)
    fs = 16000.0
    x = rng.normal(size=512)
    for s in (2, 9, 41):
        xl = np.concatenate([np.zeros(s), x[:-s]])
        assert peak_lag(pair_lags(xl, x, fs)) == s


def test_half_from_lags_left_inverse():
    # lag -> spectrum -> lag is exact
    rng = np.random.default_rng(9)
    lags = rng.normal(size=(3, 63))
    back = lags_from_half(half_from_lags(lags))
    np.testing.assert_allclose(back, lags, atol=1e-12)


def test_spectral_roundtrip_exact_for_raw_cross_spectrum():
    # a 2L-padded raw cross-spectrum has a zero wrap slot, so the
    # spectrum -> lag -> spectrum round trip loses nothing
    rng = np.random.default_rng(19)
    g = pair_gcc(*rng.normal(size=(2, 128)), 16000.0, CC)
    half = g.values[None, :129]
    back = half_from_lags(lags_from_half(half.copy()))
    np.testing.assert_allclose(back, half, atol=1e-9)


def test_spectral_roundtrip_contracts_for_banded_spectra():
    # banded PHAT spectra have a nonzero wrap slot; the round trip
    # alternates projections onto the kept-lag and in-band subspaces,
    # so repeated passes converge geometrically
    rng = np.random.default_rng(29)
    g = pair_gcc(*rng.normal(size=(2, 128)), 16000.0, GccConfig(band=(500.0, 6000.0)))
    keep = g.in_band[:129]
    prev = g.values[None, :129]
    last_diff = None
    for _ in range(5):
        nxt = half_from_lags(lags_from_half(prev.copy()))
        nxt[:, ~keep] = 0.0
        diff = float(np.max(np.abs(nxt - prev)))
        if last_diff is not None:
            assert diff < 0.5 * last_diff
        last_diff = diff
        prev = nxt
    assert last_diff < 1e-3


def test_temporal_gcc_requires_even_fft():
    g = pair_gcc(np.ones(4), np.ones(4), 100.0)
    assert g.n_fft == 8
    assert temporal_gcc(g).max_lag == 3
    # odd-length spectra are rejected
    odd = SpectralGcc(np.ones(7), np.zeros(7), 100.0, np.ones(7, dtype=bool))
    with pytest.raises(ValueError, match="even"):
        temporal_gcc(odd)


def test_analysis_band_spatial_aliasing_cap():
    # closest pair 0.343 m apart: cap at 343 / (2 * 0.343) = 500 Hz
    arr = MicArray([[0, 0, 0], [0.343, 0, 0], [5, 0, 0]], sample_rate=48000.0)
    assert analysis_band(arr) == (0.0, pytest.approx(500.0, rel=1e-12))
    # compact array: cap at 3430 Hz, below Nyquist
    arr2 = MicArray([[0, 0, 0], [0.05, 0, 0]], sample_rate=16000.0)
    assert analysis_band(arr2) == (0.0, pytest.approx(3430.0, rel=1e-12))
    # very close spacing: aliasing limit exceeds Nyquist, Nyquist wins
    arr3 = MicArray([[0, 0, 0], [0.01, 0, 0]], sample_rate=16000.0)
    assert analysis_band(arr3) == (0.0, 8000.0)


def test_frame_config_validation():
    with pytest.raises(ValueError, match="power of two"):
        FrameConfig(frame_len=100, hop=50)
    with pytest.raises(ValueError, match="hop"):
        FrameConfig(frame_len=64, hop=0)
    with pytest.raises(ValueError, match="hop"):
        FrameConfig(frame_len=64, hop=128)
    with pytest.raises(ValueError, match="window"):
        FrameConfig(frame_len=64, hop=32, window="hamming")


def test_framing_indices_and_window():
    x = np.arange(100, dtype=float)
    cfg = FrameConfig(frame_len=16, hop=8)
    assert n_frames(100, cfg) == 11
    assert n_frames(15, cfg) == 0
    np.testing.assert_array_equal(frame_stack(x, cfg, 0)[0], x[:16])
    np.testing.assert_array_equal(frame_stack(x, cfg, 3)[0], x[24:40])
    with pytest.raises(ValueError, match="out of range"):
        frame_stack(x, cfg, 11)
    hann = FrameConfig(frame_len=16, hop=8, window="hann")
    w = hann.window_values()
    assert w[0] == 0.0 and w[-1] == 0.0 and w.max() <= 1.0
    np.testing.assert_allclose(frame_stack(x, hann, 0)[0], x[:16] * w)


def test_frame_stack_shape():
    rng = np.random.default_rng(10)
    sig = rng.normal(size=(3, 64))
    cfg = FrameConfig(frame_len=32, hop=16)
    block = frame_stack(sig, cfg, 1)
    assert block.shape == (3, 32)
    np.testing.assert_array_equal(block[2], sig[2, 16:48])


def test_gcc_config_validation():
    with pytest.raises(ValueError, match="beta"):
        GccConfig(beta=1.5)
    with pytest.raises(ValueError, match="gamma"):
        GccConfig(gamma=-1.0)
    with pytest.raises(ValueError, match="band"):
        GccConfig(band=(500.0, 100.0))


def test_pairwise_helpers_cover_all_pairs():
    rng = np.random.default_rng(11)
    arr = MicArray(rng.uniform(0, 1, size=(4, 3)), sample_rate=8000.0)
    frames = rng.normal(size=(4, 64))
    gccs = compute_spectral_gccs(frames, arr)
    lags = lag_block(frames, arr)
    ccs = lag_block(frames, arr, CC)
    assert list(gccs) == arr.pairs()
    assert len(lags.values) == len(ccs.values) == arr.n_pairs
    for g, row in zip(gccs.values(), lags.values):
        np.testing.assert_allclose(temporal_gcc(g).values[0], row, atol=1e-12)
    with pytest.raises(ValueError, match="channels"):
        compute_spectral_gccs(frames[:3], arr)
    with pytest.raises(ValueError, match="channels"):
        lag_block(frames[:3], arr, CC)


def reference_gccs(frames, fs, cfg):
    """Per pair, on the two-sided DFT grid: the formula of the features docstring.

    The channel spectra are np.fft.rfft's, mirrored to the negative
    frequencies: PHAT with gamma = 0 magnifies an FFT's rounding in
    near-zero bins to unit size, so the reference shares the channel
    transform and checks everything after it.
    """
    M, L = frames.shape
    n = 2 * L
    half = np.fft.rfft(frames, n)
    spec = np.concatenate([half, np.conj(half[:, L - 1: 0: -1])], axis=1)
    freqs = np.fft.fftfreq(n, d=1.0 / fs)
    lo, hi = cfg.band if cfg.band is not None else (0.0, fs / 2)
    mask = (np.abs(freqs) >= lo) & (np.abs(freqs) <= hi)
    out = {}
    for l in range(M):
        for m in range(l + 1, M):
            cross = spec[l] * np.conj(spec[m])
            mag = np.abs(cross)
            if cfg.gamma is not None:
                gamma = cfg.gamma
            else:
                gamma = GAMMA_RELATIVE_FLOOR * mag[mask].mean() if mask.any() else 0.0
            denom = mag**cfg.beta + gamma
            g = np.zeros(n, dtype=complex)
            ok = mask & (denom > 0)
            g.real[ok] = cross.real[ok] / denom[ok]
            g.imag[ok] = cross.imag[ok] / denom[ok]
            out[MicPair(l, m)] = g
    return out, freqs, mask


_EDGE = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@settings(max_examples=80, deadline=None)
@given(
    n_mics=st.integers(2, 6),
    log_len=st.integers(3, 9),
    beta=st.floats(0.0, 1.0),
    gamma=st.one_of(st.none(), st.just(0.0), st.floats(0.0, 100.0)),
    band=st.one_of(st.none(), st.tuples(_EDGE, _EDGE)),
    dead=st.one_of(st.none(), st.integers(0, 5)),
    seed=st.integers(0, 2**32 - 1),
)
# a subnormal denominator: a complex division by it overflows to NaN
@example(n_mics=2, log_len=3, beta=1.0, gamma=2.2e-309, band=None, dead=0, seed=0)
def test_block_matches_per_pair_reference(n_mics, log_len, beta, gamma, band, dead, seed):
    fs = 16000.0
    if band is not None:  # fractions of Nyquist; 0 and 1 touch DC and Nyquist
        assume(band[0] < band[1])
        band = (band[0] * fs / 2, band[1] * fs / 2)
    cfg = GccConfig(beta=beta, gamma=gamma, band=band)
    rng = np.random.default_rng(seed)
    frames = rng.normal(size=(n_mics, 2**log_len))
    dead = None if dead is None else dead % n_mics
    if dead is not None:
        frames[dead] = 0.0
    arr = MicArray(rng.uniform(0, 1, size=(n_mics, 3)), sample_rate=fs)
    want, freqs, mask = reference_gccs(frames, fs, cfg)
    gccs = compute_spectral_gccs(frames, arr, cfg)
    lags = lag_block(frames, arr, cfg)
    assert list(gccs) == arr.pairs() and len(lags.values) == arr.n_pairs
    n = 2 * frames.shape[1]
    for (p, g), got in zip(gccs.items(), lags.values):
        ref = want[p]
        np.testing.assert_array_equal(g.freqs, freqs)
        np.testing.assert_array_equal(g.in_band, mask)
        assert np.all(g.values[~mask] == 0)
        assert np.max(np.abs(g.values - ref)) <= 1e-12 * np.max(np.abs(ref))
        circ = np.fft.ifft(ref).real
        ref_lags = np.concatenate([circ[n // 2 + 1:], circ[: n // 2]])
        assert np.max(np.abs(got - ref_lags)) <= 1e-12 * np.max(np.abs(ref_lags))
        if dead in (p.l, p.m):
            assert np.all(g.values == 0) and np.all(got == 0)


def whole_band_block(frames, array, cfg):
    """The (P, nb) weighted band block of every pair at once, by the GCC formula.

    Returns it, its slice of half-spectrum bins k = 0..L, and L.
    """
    M, L = frames.shape
    fs = array.sample_rate
    freqs = np.fft.fftfreq(2 * L, d=1.0 / fs)
    lo, hi = cfg.band if cfg.band is not None else (0.0, fs / 2.0)
    idx = np.flatnonzero((np.abs(freqs[: L + 1]) >= lo) & (np.abs(freqs[: L + 1]) <= hi))
    band = slice(idx[0], idx[-1] + 1) if idx.size else slice(0, 0)
    spec = np.fft.rfft(frames, 2 * L)[:, band]
    conj = np.conj(spec)
    g = np.empty((array.n_pairs, len(idx)), dtype=complex)
    row = 0
    for l in range(M - 1):
        np.multiply(spec[l: l + 1], conj[l + 1:], out=g[row: row + M - 1 - l])
        row += M - 1 - l
    denom = np.abs(g)
    if cfg.gamma is not None:
        gamma = cfg.gamma
    elif idx.size:  # a dot product per row
        w = np.where((idx > 0) & (idx < L), 2.0, 1.0)
        gamma = (GAMMA_RELATIVE_FLOOR * np.vecdot(denom, w) / w.sum())[:, None]
    else:
        gamma = 0.0
    np.power(denom, cfg.beta, out=denom)
    denom += gamma
    ok = denom > 0
    for part in (g.real, g.imag):
        np.divide(part, denom, out=part, where=ok)
    g[~ok] = 0.0
    return g, band, L


@settings(max_examples=80, deadline=None)
@given(
    n_mics=st.integers(2, 8),
    log_len=st.integers(1, 10),
    reach=st.none() | st.integers(0, 1100),
    rows=st.integers(1, 30),
    beta=st.sampled_from([0.0, 0.5, 1.0]),
    gamma=st.sampled_from([None, 0.0, 1e-3]),
    band=st.sampled_from([(100.0, 5000.0), (0.0, 5000.0), (100.0, 8000.0), (0.0, 8000.0)]),
    scale=st.sampled_from([1.0, 1e4]),
    seed=st.integers(0, 2**32 - 1),
)
# cases where a matrix-vector product over a group's rows gives other floor bits
@example(n_mics=8, log_len=9, reach=None, rows=4, beta=0.0, gamma=None, band=(0.0, 8000.0), scale=1e4, seed=1979643162)
@example(n_mics=6, log_len=8, reach=300, rows=2, beta=0.0, gamma=None, band=(0.0, 8000.0), scale=1e4, seed=3609109948)
@example(n_mics=6, log_len=10, reach=None, rows=22, beta=0.0, gamma=None, band=(0.0, 8000.0), scale=1e4,
         seed=2163061375)
def test_row_grouped_lag_block_equals_one_whole_block_irfft(
    n_mics, log_len, reach, rows, beta, gamma, band, scale, seed
):
    """Row groups of any size give the whole band block's one irfft cropped to lags -reach..reach, bit for bit,
    with bands inside the spectrum and touching DC, Nyquist or both. At beta = 0 and samples
    of 1e4 the gamma = None floor is near the denominator's 1, so its every bit shows."""
    rng = np.random.default_rng(seed)
    array = MicArray(rng.uniform(0.0, 3.0, size=(n_mics, 3)), sample_rate=16000.0)
    frames = scale * rng.normal(size=(n_mics, 2**log_len))
    cfg = GccConfig(beta=beta, gamma=gamma, band=band)
    g, bins, L = whole_band_block(frames, array, cfg)
    half = np.zeros((len(g), L + 1), dtype=complex)  # the band block, zero-padded
    half[:, bins] = g
    want = crop(lags_from_half(half), reach)
    with mock.patch.object(features, "_IRFFT_SAMPLES", rows * 2 * L):  # groups of at most ``rows`` rows
        got = lag_block(frames, array, cfg, reach=reach)
    assert same_bits(got.values, want)


def full_block_reference(frames, array, cfg):
    """The GCC block as first built: all L + 1 bins formed and weighted, then the out-of-band ones zeroed.

    Returns the (P, L + 1) half spectra and the two-sided in-band mask.
    """
    M, L = frames.shape
    fs = array.sample_rate
    freqs = np.fft.fftfreq(2 * L, d=1.0 / fs)
    lo, hi = cfg.band if cfg.band is not None else (0.0, fs / 2.0)
    in_band = (np.abs(freqs) >= lo) & (np.abs(freqs) <= hi)
    spec = np.fft.rfft(frames, 2 * L)
    conj = np.conj(spec)
    block = np.empty((array.n_pairs, L + 1), dtype=complex)
    row = 0
    for l in range(M - 1):
        np.multiply(spec[l], conj[l + 1:], out=block[row: row + M - 1 - l])
        row += M - 1 - l
    idx = np.flatnonzero(in_band[: L + 1])
    band = slice(idx[0], idx[-1] + 1) if idx.size else slice(0, 0)
    g = block[:, band]
    denom = np.abs(g)
    if cfg.gamma is not None:
        gamma = cfg.gamma
    elif idx.size:
        w = np.where((idx > 0) & (idx < L), 2.0, 1.0)
        gamma = (GAMMA_RELATIVE_FLOOR * np.vecdot(denom, w) / w.sum())[:, None]  # a dot product per row
    else:
        gamma = 0.0
    np.power(denom, cfg.beta, out=denom)
    denom += gamma
    ok = denom > 0
    for part in (g.real, g.imag):
        np.divide(part, denom, out=part, where=ok)
    g[~ok] = 0.0
    block[:, : band.start] = 0.0
    block[:, band.stop:] = 0.0
    return block, in_band


def crop(lags, reach):
    """The (P, 2L - 1) ``lags`` -(L-1)..(L-1) over -reach..reach (all if reach is None or >= L - 1)."""
    K = (lags.shape[1] - 1) // 2
    k = K if reach is None else min(reach, K)
    return lags[:, K - k: K + k + 1]


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: NaN payloads and signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("band_kind", ["random", "empty", "dc", "nyquist", "full"])
@settings(max_examples=25, deadline=None)
@given(
    n_mics=st.integers(2, 8),
    log_len=st.integers(1, 10),
    beta=st.sampled_from([0.5, 1.0]),
    gamma=st.none() | st.floats(0.0, 10.0),
    edges=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    defect=st.sampled_from([None, "nan", "dead"]),
    reach=st.none() | st.integers(0, 1100),
    seed=st.integers(0, 2**32 - 1),
)
def test_band_block_features_equal_the_full_block_bitwise(
    band_kind, n_mics, log_len, beta, gamma, edges, defect, reach, seed
):
    """lag_block and compute_spectral_gccs from the band block equal the full-block formula bit for bit."""
    fs, L = 16000.0, 2**log_len
    df, u, v = fs / (2 * L), *sorted(edges)
    if band_kind == "random":
        assume(u < v)
        band = (u * fs / 2, v * fs / 2)
    elif band_kind == "empty":  # strictly between two bins
        k = int(u * (L - 1))
        band = ((k + 0.25) * df, (k + 0.75) * df)
    elif band_kind == "dc":
        band = (0.0, max(v, 1e-3) * fs / 2)
    elif band_kind == "nyquist":
        band = (min(u, 0.999) * fs / 2, fs / 2)
    else:
        band = None
    cfg = GccConfig(beta=beta, gamma=gamma, band=band)
    rng = np.random.default_rng(seed)
    array = MicArray(rng.uniform(0.0, 3.0, size=(n_mics, 3)), sample_rate=fs)
    frames = rng.normal(size=(n_mics, L))
    if defect == "nan":
        frames[rng.integers(n_mics), rng.integers(L)] = np.nan
    elif defect == "dead":
        frames[rng.integers(n_mics)] = 0.0
    block, in_band = full_block_reference(frames, array, cfg)
    if band_kind == "empty":
        assert not in_band.any()
    # two-sided values as gccs_from_half laid them out from the full block
    values = np.empty((len(block), 2 * L), dtype=complex)
    values[:, : L + 1] = block
    np.conjugate(block[:, L - 1: 0: -1], out=values[:, L + 1:])
    gccs = compute_spectral_gccs(frames, array, cfg)
    assert list(gccs) == array.pairs()
    for g, want in zip(gccs.values(), values):
        assert same_bits(g.values, want)
        assert same_bits(g.in_band, in_band)
    # lags by one whole-block irfft, odd bins negated as lags_from_half did
    half = block.copy()
    half[:, 1::2] *= -1.0
    want = crop(np.fft.irfft(half)[:, 1:], reach)
    got = lag_block(frames, array, cfg, reach=reach)
    assert same_bits(got.values, want)


def test_lag_block_transient_is_below_the_full_spectrum_block():
    """8 mics, L = 4096, 100-2000 Hz, +/-267 lags: one call's tracemalloc peak stays under 2.25 MiB.

    Weighting all L + 1 bins and zeroing the out-of-band ones took 3.13 MiB.
    """
    rng = np.random.default_rng(12)
    array = MicArray(rng.uniform(0.0, 3.0, size=(8, 3)), sample_rate=16000.0)
    frames = rng.normal(size=(8, 4096))
    cfg = GccConfig(band=(100.0, 2000.0))
    lag_block(frames, array, cfg, reach=267)  # warm-up: numpy's lazy set-up is not the call's
    tracemalloc.start()
    try:
        lag_block(frames, array, cfg, reach=267)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * 2**20
