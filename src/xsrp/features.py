"""Framing and the pair-feature block.

Every feature is a generalized cross-correlation (GCC, Knapp & Carter
1976) with beta-weighted phase transform,

    gcc[f] = X_l[f] X_m*[f] / (|X_l[f] X_m*[f]|^beta + gamma),

and all pairs come from one block. One rfft of the (M, L) frame block,
zero-padded to 2L so lags cover -(L-1)..(L-1) without circular wrap,
gives a SpectralBlock: the (P, nb) weighted cross-spectra over the nb
in-band f >= 0 bins (out of L+1), one row per pair in array.pairs()
order, which frequency maps and the tracker steer (compute_spectral_gccs).
Its irfft, zero-padded back to L+1 bins, gives every pair's lags as one
LagBlock, optionally cropped to the window -reach..reach that time and
volumetric maps read (lag_block). Maps, scorers and de-emphasis take
only these two blocks. beta = 1, gamma = 0 is GCC-PHAT; beta = 0,
gamma = 0 over the full band leaves the raw cross-spectrum, whose
inverse transform is the classical cross-correlation
CC(tau) = sum_n x_l[n] x_m[n - tau].
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

    def windowed(self, frame: np.ndarray) -> np.ndarray:
        """An (M, L) frame of float64 samples times the window, as a new C-ordered block."""
        return np.multiply(frame, self.window_values(), order="C")


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
    return cfg.windowed(signals[:, start:start + cfg.frame_len])


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

    @classmethod
    def crop(cls, lags: np.ndarray, sample_rate: float, reach: int | None = None) -> "LagBlock":
        """The (P, 2K+1) ``lags`` over -reach..reach (all if reach is None or >= K).

        A cropped block is a copy, so ``lags`` can be freed; ``lags`` itself
        is never written.
        """
        k = (lags.shape[1] - 1) // 2
        s = 0 if reach is None else max(k - reach, 0)
        return cls(lags[:, s:-s].copy() if s else lags, sample_rate)

    def copy(self) -> "LagBlock":
        return LagBlock(self.values.copy(), self.sample_rate)


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

    def __post_init__(self):
        self._rows = {p: j for j, p in enumerate(self.pairs)}

    def __getitem__(self, pair: MicPair) -> SpectralGcc:
        j = self._rows[pair]
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


def _gcc_block(frames: np.ndarray, array: MicArray, cfg: GccConfig | None):
    """Weighted cross-spectra of every pair over the in-band f >= 0 bins.

    Returns the (P, nb) band block, the slice of half-spectrum bins
    k = 0..L it holds, and the two-sided in-band mask (length 2L); the
    bins outside the slice are exactly 0 and are never formed. Per pair,
    gamma = None floors the denominator at GAMMA_RELATIVE_FLOOR times
    the mean |cross-power| over the two-sided in-band bins; a bin whose
    denominator is not > 0 is 0.
    """
    cfg = cfg or GccConfig()
    frames = np.atleast_2d(np.asarray(frames, dtype=float))
    M, L = frames.shape
    if M != array.n_mics:
        raise ValueError(f"frame block has {M} channels for {array.n_mics} microphones")
    n = 2 * L
    in_band = _band_mask(np.fft.fftfreq(n, d=1.0 / array.sample_rate), cfg.band, array.sample_rate)
    band = _half_band(in_band)  # |f| grows along the half spectrum, so the band is one slice
    idx = np.arange(band.start, band.stop)
    spec = np.fft.rfft(frames, n)[:, band].copy()  # the full spectra are freed here
    conj = np.conj(spec)
    g = np.empty((array.n_pairs, len(idx)), dtype=complex)
    for l, rows in array.pair_rows():
        # a 2-D row: numpy rounds a 1-D row times a one-element block differently
        np.multiply(spec[l: l + 1], conj[l + 1:], out=g[rows])
    del spec, conj
    denom = np.abs(g)
    if cfg.gamma is not None:
        gamma = cfg.gamma
    elif idx.size:
        # bins 0 < k < L stand for two two-sided bins, DC and Nyquist for one
        w = np.where((idx > 0) & (idx < L), 2.0, 1.0)
        gamma = (GAMMA_RELATIVE_FLOOR * (denom @ w) / w.sum())[:, None]
    else:
        gamma = 0.0
    np.power(denom, cfg.beta, out=denom)
    denom += gamma
    ok = denom > 0  # also False where a NaN sample made the cross-power NaN
    # part by part: numpy's complex division overflows on a subnormal divisor
    for part in (g.real, g.imag):
        np.divide(part, denom, out=part, where=ok)
    g[~ok] = 0.0
    return g, band, in_band


def lags_from_half(half: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Correlations at lags -(n/2 - 1)..(n/2 - 1) of (P, n/2 + 1) half spectra, (P, n - 1).

    One irfft for all rows, into ``out`` (P, n) when given; the result
    is a view of it. Negating the odd bins (in place, in ``half``)
    delays every correlation by n/2 samples, so lag k lands in column
    k + n/2 and column 0 holds the wrap slot at lag +/- n/2, which is
    dropped. For a raw cross-spectrum of 2L-padded frames that slot is
    identically zero; for reweighted spectra (PHAT, band-limited) it is
    generally small but nonzero.
    """
    _negate_odd_bins(half)
    return np.fft.irfft(half, out=out)[:, 1:]


def half_from_lags(lags: np.ndarray) -> np.ndarray:
    """Inverse of lags_from_half, with the wrap slot restored as zero: one rfft."""
    circ = np.zeros((len(lags), lags.shape[1] + 1))
    circ[:, 1:] = lags
    half = np.fft.rfft(circ)
    _negate_odd_bins(half)
    return half


def _negate_odd_bins(half: np.ndarray) -> None:
    """half[:, 1::2] *= -1.0 in place, a row at a time.

    numpy buffers the 2-D strided product through two 8192-element
    copies (256 KiB of complex); a 1-D strided row needs none.
    """
    for row in half:
        row[1::2] *= -1.0


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
    """Weighted cross-spectra of every microphone pair of a frame block: _gcc_block's band block."""
    g, band, in_band = _gcc_block(frames, array, cfg)
    return SpectralBlock(g, band, in_band, array.sample_rate, array.pairs())


#: pair rows per irfft in lag_block, and the rows of its two buffers.
#: Each group is cropped as soon as it is transformed, so only this many
#: rows of the (P, 2L - 1) lags exist at once. At 8 mics, L = 4096 and
#: 100-2000 Hz, cropped to +/-267 lags, one call's tracemalloc peak was
#: 0.78, 1.31, 1.82 and 4.29 MiB for groups of 1, 4, 8 and all 28 rows
#: (3.13 MiB for 8 rows when the weighting formed all L + 1 bins); 4
#: and 8 rows were the fastest, 1 row 25 % slower
_IRFFT_ROWS = 8


def lag_block(frames: np.ndarray, array: MicArray, cfg: GccConfig | None = None,
              reach: int | None = None) -> LagBlock:
    """Temporal GCCs of every pair at lags -reach..reach (all if None), straight from
    the band block by _band_lags, as one LagBlock."""
    return _band_lags(*_gcc_block(frames, array, cfg), array.sample_rate, reach)


def _band_lags(g, band: slice, in_band, fs: float, reach: int | None = None) -> LagBlock:
    """The lags of band block rows ``g`` (bins ``band``, n = len(in_band)) by irfft, cropped as LagBlock.crop.

    Groups of _IRFFT_ROWS rows are zero-padded into one (rows, n/2 + 1)
    buffer and transformed into one (rows, n) buffer, both allocated
    once per call: one whole-block irfft and crop, bit for bit.
    """
    L = len(in_band) // 2
    rows, k = min(_IRFFT_ROWS, len(g)), L - 1 if reach is None else min(reach, L - 1)
    values = np.empty((len(g), 2 * k + 1))
    half, out = np.empty((rows, L + 1), dtype=complex), np.empty((rows, 2 * L))
    for r in range(0, len(g), rows):
        part = g[r: r + rows]
        h = half[: len(part)]
        h[:] = 0.0
        h[:, band] = part
        lags = lags_from_half(h, out[: len(part)])
        if not np.all(np.isfinite(lags)):
            raise ValueError("lag values must be finite")
        values[r: r + len(part)] = LagBlock.crop(lags, fs, reach).values
    return LagBlock(values, fs)
