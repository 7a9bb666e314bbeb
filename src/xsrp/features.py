"""Framing and the pair-feature blocks.

Every feature is a generalized cross-correlation (GCC, Knapp & Carter
1976) with beta-weighted phase transform,

    gcc[f] = X_l[f] X_m*[f] / (|X_l[f] X_m*[f]|^beta + gamma),

formed by one weighting (_weighted_cross_spectra) from the mic spectra
(_mic_spectra): one rfft of the (M, L) frame block, zero-padded to 2L
so lags cover -(L-1)..(L-1) without circular wrap, kept over the nb
in-band f >= 0 bins (out of L+1). Both blocks are made from the
spectra alone, so a frame can go once they are made (pipeline.Plan).
compute_spectral_gccs (_gccs_of) weights every pair at once into a
SpectralBlock: the (P, nb) weighted cross-spectra, one row per pair in
array.pairs() order, which frequency maps and the tracker steer.
lag_block (_lags_of) weights a few pair rows at a time, copies them
into the zero-padded input of one irfft and crops their lags to the
window -reach..reach that time and volumetric maps read, so neither a
(P, nb) block nor every pair's full lags exist at once; its LagBlock
equals the irfft of the SpectralBlock's rows, bit for bit. Maps,
scorers and de-emphasis take only these two blocks. beta = 1, gamma =
0 is GCC-PHAT; beta = 0, gamma = 0 over the full band leaves the raw
cross-spectrum, whose inverse transform is the classical
cross-correlation CC(tau) = sum_n x_l[n] x_m[n - tau].
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from .geometry import MicArray, MicPair

# relative floor used when GccConfig.gamma is None: gamma becomes
# GAMMA_RELATIVE_FLOOR * mean in-band cross-power magnitude
GAMMA_RELATIVE_FLOOR = 1e-12

_WINDOWS = ("rectangular", "hann")


@dataclass(frozen=True)
class FrameConfig:
    """Analysis framing: length L (a power of two), hop (None: L), window."""

    frame_len: int
    hop: int | None = None
    window: str = "rectangular"

    def __post_init__(self):
        L = self.frame_len
        if self.hop is None:
            object.__setattr__(self, "hop", L)  # frozen: set once, here
        if L < 2 or (L & (L - 1)) != 0:
            raise ValueError(f"frame_len must be a power of two >= 2, got {L}")
        if not (0 < self.hop <= L):
            raise ValueError(f"hop must lie in (0, frame_len], got {self.hop}")
        if self.window not in _WINDOWS:
            raise ValueError(f"window must be one of {_WINDOWS}, got {self.window!r}")

    def window_values(self) -> np.ndarray:
        if self.window == "hann":
            return np.hanning(self.frame_len)
        return np.ones(self.frame_len)


def n_frames(n_samples: int, cfg: FrameConfig) -> int:
    """Number of whole frames that fit in a signal of n_samples."""
    if n_samples < cfg.frame_len:
        return 0
    return 1 + (n_samples - cfg.frame_len) // cfg.hop


def frame_stack(signals: np.ndarray, cfg: FrameConfig, frame_index: int) -> np.ndarray:
    """Frame ``frame_index`` of every channel of an (M, T) signal, windowed: (M, L).

    Frame i covers samples [i * hop, i * hop + L); successive frames
    advance by ``hop``.
    """
    signals = np.atleast_2d(np.asarray(signals, dtype=float))
    start = frame_index * cfg.hop
    if frame_index < 0 or start + cfg.frame_len > signals.shape[1]:
        raise ValueError(f"frame {frame_index} out of range for signal of {signals.shape[1]} samples")
    return np.multiply(signals[:, start:start + cfg.frame_len], cfg.window_values(), order="C")  # a new block


def frame_blocks(signals: np.ndarray, cfg: FrameConfig) -> Iterator[np.ndarray]:
    """Every whole frame of an (M, T) signal held in memory, as frame_stack blocks, made lazily."""
    signals = np.atleast_2d(np.asarray(signals, dtype=float))
    return (frame_stack(signals, cfg, i) for i in range(n_frames(signals.shape[1], cfg)))


@dataclass(frozen=True)
class GccConfig:
    """Weighting for the generalized cross-correlation.

    gamma = None selects a small relative floor (see
    GAMMA_RELATIVE_FLOOR); band = None means the full band
    [0, sample_rate / 2]. Band limits apply to |f|, keeping the
    two-sided spectrum conjugate-symmetric.
    """

    beta: float = 1.0
    gamma: float | None = None
    band: tuple[float, float] | None = None

    def __post_init__(self):
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if self.gamma is not None and self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.band is not None:
            lo, hi = self.band
            if not (0 <= lo < hi):
                raise ValueError(f"band must satisfy 0 <= f_lo < f_hi, got {self.band}")


@dataclass
class LagBlock:
    """Every pair's correlation at lags -k..k: one (P, 2k+1) block.

    Row j is pair j of array.pairs(); ``values[j, i]`` is lag i - k.
    It holds these lags only: a map reads the same window -D..D of any
    block that covers it, cropped or not.
    """

    values: np.ndarray
    sample_rate: float

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[1] % 2 != 1:
            raise ValueError("lag block must be 2D with an odd row length (lags -k..k)")

    @property
    def max_lag(self) -> int:
        return (self.values.shape[1] - 1) // 2


@dataclass
class SpectralGcc:
    """One pair's weighted cross-spectrum over the two-sided DFT grid.

    ``in_band`` marks the bins that carry the feature; everything
    outside is exactly zero. A SpectralBlock's per-pair item.
    """

    values: np.ndarray
    freqs: np.ndarray
    sample_rate: float
    in_band: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        self.freqs = np.asarray(self.freqs, dtype=float)
        self.in_band = np.asarray(self.in_band, dtype=bool)
        if not (self.values.shape == self.freqs.shape == self.in_band.shape):
            raise ValueError("values, freqs and in_band must have matching shapes")

    @property
    def n_fft(self) -> int:
        return len(self.values)


@dataclass(eq=False)
class SpectralBlock(Mapping):
    """Every pair's weighted cross-spectrum over the in-band f >= 0 bins: one (P, nb) block.

    Row j, pair ``pairs[j]``, holds bins ``band`` of the half spectrum of
    an n-point DFT, n = len(in_band), the two-sided in-band mask; other
    bins are 0, never formed. Also a read-only Mapping whose two-sided
    SpectralGcc items are built only when read, for the readers of
    per-pair items (perfbench's probes).
    """

    spectra: np.ndarray
    band: slice
    in_band: np.ndarray
    sample_rate: float
    pairs: list[MicPair]

    def __getitem__(self, pair: MicPair) -> SpectralGcc:
        if pair not in self.pairs:
            raise KeyError(pair)
        j = self.pairs.index(pair)
        return gccs_from_half(self.spectra[j: j + 1], self.in_band, self.sample_rate, [pair], self.band)[pair]

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


def analysis_band(array: MicArray) -> tuple[float, float]:
    """Default analysis band [0, f_hi] for an array.

    f_hi = min(f_s / 2, c / (2 d_min)) caps the band at the spatial
    aliasing limit of the closest microphone pair. Intended for
    compact arrays; override freely for distributed ones.
    """
    f_hi = min(array.sample_rate / 2.0, array.speed_of_sound / (2.0 * array.min_spacing()))
    return (0.0, f_hi)


def _band_mask(freqs: np.ndarray, band: tuple[float, float] | None, sample_rate: float):
    lo, hi = band if band is not None else (0.0, sample_rate / 2.0)
    absf = np.abs(freqs)
    return (absf >= lo) & (absf <= hi)


def _half_band(in_band: np.ndarray) -> slice:
    """The slice of half-spectrum bins k = 0..n/2 from the first to the last in-band one."""
    idx = np.flatnonzero(in_band[: len(in_band) // 2 + 1])
    return slice(idx[0], idx[-1] + 1) if idx.size else slice(0, 0)


def _mic_spectra(frames: np.ndarray, array: MicArray, cfg: GccConfig):
    """Each mic's 2L-point rfft over the in-band f >= 0 bins, (M, nb).

    Returns it, the slice of half-spectrum bins k = 0..L it holds, and
    the two-sided in-band mask (length 2L); |f| grows along the half
    spectrum, so the band is one slice. The mics go in groups of as many
    rows as lag_block's (_IRFFT_SAMPLES) through one buffer, with the bits
    of one rfft of all: no (M, L + 1) spectra.
    """
    frames = np.atleast_2d(np.asarray(frames, dtype=float))
    M, L = frames.shape
    if M != array.n_mics:
        raise ValueError(f"frame block has {M} channels for {array.n_mics} microphones")
    in_band = _band_mask(np.fft.fftfreq(2 * L, d=1.0 / array.sample_rate), cfg.band, array.sample_rate)
    band = _half_band(in_band)
    rows, spec = min(max(1, _IRFFT_SAMPLES // (2 * L)), M), np.empty((M, band.stop - band.start), dtype=complex)
    edges, full = _equal_parts(M, rows), np.empty((rows, L + 1), dtype=complex)
    for i, j in zip(edges[:-1], edges[1:]):
        spec[i:j] = np.fft.rfft(frames[i:j], 2 * L, out=full[: j - i])[:, band]
    return spec, band, in_band


def _floor_weights(band: slice, L: int) -> np.ndarray:
    """Two-sided bins per half bin of ``band``: 2 for 0 < k < L, 1 for DC and Nyquist.

    The weights of the GCC floor's in-band mean and of the frequency
    kernel's fold onto the half spectrum (srp_core._freq_coefficients).
    """
    idx = np.arange(band.start, band.stop)
    return np.where((idx > 0) & (idx < L), 2.0, 1.0)


def _pair_segments(array: MicArray, r0: int, r1: int) -> list[tuple[int, slice, slice]]:
    """(l, mics m, rows of out) of mic l's pairs (l, m) among pair rows [r0, r1)."""
    segments = []
    for l, rows in array.pair_rows():
        a, b = max(rows.start, r0), min(rows.stop, r1)
        if a < b:
            segments.append((l, slice(l + 1 + a - rows.start, l + 1 + b - rows.start), slice(a - r0, b - r0)))
    return segments


def _weighted_cross_spectra(spec, segments, out: np.ndarray, cfg: GccConfig, w: np.ndarray) -> None:
    """The GCC weighting, into ``out`` (rows, nb), C-contiguous: the one formula of both blocks.

    Cross-power spec[l] conj(spec[m]) of each pair of ``segments``
    (_pair_segments), in that operand order, a mic's rows at a time;
    gamma = None floors each row's denominator at GAMMA_RELATIVE_FLOOR
    times its mean |cross-power| over the two-sided in-band bins (``w``,
    _floor_weights), a dot product per row, so a row's bits do not
    depend on the other rows; a bin whose denominator is not > 0 is 0.
    On contiguous rows numpy's broadcasts buffer no more than the rows
    themselves; on a group's strided view of the irfft input they took
    60-180 KiB a call.
    """
    conj = np.empty((max(ms.stop - ms.start for _, ms, _ in segments), out.shape[1]), dtype=complex)
    for l, ms, rows in segments:
        # a 2-D row: numpy rounds a 1-D row times a one-element block differently
        np.multiply(spec[l: l + 1], np.conjugate(spec[ms], out=conj[: ms.stop - ms.start]), out=out[rows])
    denom = np.abs(out)
    if cfg.gamma is None and len(w):
        gamma = (GAMMA_RELATIVE_FLOOR * np.vecdot(denom, w) / w.sum())[:, None]
    else:
        gamma = cfg.gamma or 0.0
    if cfg.beta != 1.0:  # x ** 1 is x
        np.power(denom, cfg.beta, out=denom)
    denom += gamma
    every = denom.min(initial=np.inf) > 0  # False where a NaN sample made the cross-power NaN
    ok = True if every else denom > 0  # unmasked, a division takes half as long
    # part by part: numpy's complex division overflows on a subnormal divisor
    for part in (out.real, out.imag):
        np.divide(part, denom, out=part, where=ok)
    if not every:
        out[~ok] = 0.0


def lags_from_half(half: np.ndarray) -> np.ndarray:
    """Correlations at lags -(n/2 - 1)..(n/2 - 1) of (P, n/2 + 1) half spectra, (P, n - 1).

    One irfft for all rows; the result is a view of its (P, n) output.
    Negating the odd bins (in place, in ``half``) delays every
    correlation by n/2 samples, so lag k lands in column k + n/2 and
    column 0 holds the wrap slot at lag +/- n/2, which is dropped. For a
    raw cross-spectrum of 2L-padded frames that slot is identically
    zero; for reweighted spectra (PHAT, band-limited) it is generally
    small but nonzero.
    """
    _negate_odd_bins(half)
    return np.fft.irfft(half)[:, 1:]


def half_from_lags(lags: np.ndarray) -> np.ndarray:
    """Inverse of lags_from_half, with the wrap slot restored as zero: one rfft."""
    circ = np.zeros((len(lags), lags.shape[1] + 1))
    circ[:, 1:] = lags
    half = np.fft.rfft(circ)
    _negate_odd_bins(half)
    return half


def _negate_odd_bins(half: np.ndarray, odd: slice = slice(1, None, 2)) -> None:
    """half[:, odd] *= -1.0 in place (the odd bins), a row at a time.

    numpy buffers the 2-D strided product through two 8192-element
    copies (256 KiB of complex); a 1-D strided row needs none.
    """
    for row in half:
        row[odd] *= -1.0


def gccs_from_half(
    half: np.ndarray, in_band: np.ndarray, sample_rate: float, pairs: list[MicPair], band: slice = slice(None)
) -> dict[MicPair, SpectralGcc]:
    """Two-sided SpectralGccs, sharing one freqs and in_band, of half spectra ``half``.

    These hold bins ``band`` (default all) of k = 0..n/2; the others are 0.
    """
    n = len(in_band)
    values = np.zeros((len(half), n), dtype=complex)
    values[:, : n // 2 + 1][:, band] = half
    np.conjugate(values[:, n // 2 - 1: 0: -1], out=values[:, n // 2 + 1:])
    freqs = np.fft.fftfreq(n, d=1.0 / sample_rate)
    return {p: SpectralGcc(v, freqs, sample_rate, in_band) for p, v in zip(pairs, values)}


def temporal_gcc(g: SpectralGcc) -> LagBlock:
    """A spectral GCC's lags -(n/2 - 1)..(n/2 - 1) from its f >= 0 half, as lags_from_half: one row.

    No code in the package calls it; it stays because perfbench's tracer
    looks it up by name, until the trace stops timing it.
    """
    n = g.n_fft
    if n % 2 != 0:
        raise ValueError("temporal_gcc expects an even DFT length")
    return LagBlock(lags_from_half(g.values[None, : n // 2 + 1].copy()), g.sample_rate)


def compute_spectral_gccs(
    frames: np.ndarray, array: MicArray, cfg: GccConfig | None = None
) -> SpectralBlock:
    """Weighted cross-spectra of every microphone pair of a frame block (_gccs_of its _mic_spectra)."""
    cfg = cfg or GccConfig()
    return _gccs_of(_mic_spectra(frames, array, cfg), array, cfg)


def _gccs_of(spectra, array: MicArray, cfg: GccConfig) -> SpectralBlock:
    """The SpectralBlock of mic spectra (_mic_spectra): every pair weighted at once into (P, nb).

    The bins outside its band slice are exactly 0 and are never formed.
    """
    spec, band, in_band = spectra
    g = np.empty((array.n_pairs, spec.shape[1]), dtype=complex)
    segments = _pair_segments(array, 0, array.n_pairs)
    _weighted_cross_spectra(spec, segments, g, cfg, _floor_weights(band, len(in_band) // 2))
    return SpectralBlock(g, band, in_band, array.sample_rate, array.pairs())


#: lag samples per irfft of lag_block: a group of pair rows fills at
#: most this many of the (P, 2L) lags, max(1, _IRFFT_SAMPLES // 2L) rows;
#: the P rows, and the mics' rfft, go in the fewest equal groups
#: (_equal_parts). At 8 mics and 100-2000 Hz, one call's tracemalloc
#: peak and time (median of 300 calls, 4 MiB of other memory written
#: between calls, 2-core host) for groups of 1, 2, 4, 8 and 16 rows: at
#: L = 4096, 0.41, 0.59, 0.93, 1.58 and 2.76 MiB, 3.7, 2.9, 3.0, 4.5 and
#: 3.9 ms; at L = 2048, 0.27, 0.35, 0.52, 0.85 and 1.46 MiB, 2.4, 1.8,
#: 1.5, 1.5 and 1.4 ms; volumetric's commands took as long at 4 rows as at 8
_IRFFT_SAMPLES = 16384


def _equal_parts(n: int, most: int) -> list[int]:
    """Edges of the fewest equal parts of range(n) with at most ``most`` each: no short trailing part."""
    k = -(-n // most)
    return [i * n // k for i in range(k + 1)]


def lag_block(frames: np.ndarray, array: MicArray, cfg: GccConfig | None = None,
              reach: int | None = None) -> LagBlock:
    """Temporal GCCs of every pair at lags -reach..reach (all if None), as one LagBlock (_lags_of)."""
    cfg = cfg or GccConfig()
    return _lags_of(_mic_spectra(frames, array, cfg), array, cfg, reach)


def _lags_of(spectra, array: MicArray, cfg: GccConfig, reach: int | None = None) -> LagBlock:
    """The LagBlock of mic spectra (_mic_spectra) at lags -reach..reach (all if None).

    Each group of pair rows' weighted cross-spectra go straight into
    their irfft input (_band_lags), so no (P, nb) block is built.
    """
    spec, band, in_band = spectra
    w = _floor_weights(band, len(in_band) // 2)

    def fill(out, r0, r1):
        _weighted_cross_spectra(spec, _pair_segments(array, r0, r1), out, cfg, w)

    return _band_lags(fill, array.n_pairs, band, len(in_band) // 2, array.sample_rate, reach)


def _band_lags(fill, n_rows: int, band: slice, L: int, fs: float, reach: int | None = None) -> LagBlock:
    """The lags -k..k of ``n_rows`` band rows by irfft, k = min(reach, L - 1) (L - 1 if reach is None).

    ``fill(out, r0, r1)`` writes rows [r0, r1) of the half spectra's
    bins ``band`` (of k = 0..L) into ``out``, a C-contiguous buffer.
    Each group of rows (_IRFFT_SAMPLES) is copied into one zero-padded
    (rows, L + 1) buffer, its odd bins negated as lags_from_half does,
    transformed into one (rows, 2L) buffer, and its lags -k..k copied
    out; the buffers are allocated once per call, and the bins outside
    ``band`` are written once: one whole-block irfft, bit for bit. A
    value that is not finite (a NaN or inf sample) is a
    FloatingPointError, a fault of the data, not of the config.
    """
    k = L - 1 if reach is None else min(reach, L - 1)
    rows = min(max(1, _IRFFT_SAMPLES // (2 * L)), n_rows)
    values = np.empty((n_rows, 2 * k + 1))
    half, out = np.zeros((rows, L + 1), dtype=complex), np.empty((rows, 2 * L))
    bins = np.empty((rows, band.stop - band.start), dtype=complex)
    _negate_odd_bins(half)  # the padding as lags_from_half leaves it
    odd = slice(band.start | 1, band.stop, 2)
    edges = _equal_parts(n_rows, rows)
    for r0, r1 in zip(edges[:-1], edges[1:]):
        h = half[: r1 - r0]
        fill(bins[: r1 - r0], r0, r1)
        h[:, band] = bins[: r1 - r0]
        _negate_odd_bins(h, odd)
        values[r0:r1] = np.fft.irfft(h, out=out[: r1 - r0])[:, L - k: L + k + 1]
    if not np.isfinite(values).all():
        raise FloatingPointError("lag values must be finite")
    return LagBlock(values, fs)
