"""Steered-response-power maps.

A map assigns each candidate location the power of a beamformer
steered at it, accumulated over microphone pairs:

  time domain       score(u) = sum_pairs lag[round(tau_lm(u) * fs)]
  frequency domain  score(u) = sum_pairs sum_f Re(gcc[f] e^{j 2 pi f tau_lm(u)})
  volumetric        score(V) = sum_pairs pool(lag[k], k in TDOA bounds of V)
  weighted          configurable per-frequency / per-pair combination

Cartesian grids use exact TDOAs, DOA grids the far-field form; the
two are never mixed within one map. A module-level counter tracks
candidate scorings and steering-kernel evaluations so complexity
claims can be checked; frequency-domain kernel counts are exactly
G * P * |F| with |F| the number of in-band bins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .features import LagVector, SpectralGcc
from .geometry import (
    MicArray,
    MicPair,
    far_field_tdoa_matrix,
    max_tdoa,
    tdoa_matrix,
    tof_matrix,
)
from .grids import CandidateGrid, Volume, VolumeGrid



@dataclass
class EvalCounter:
    """Running totals: candidates scored and steering kernels evaluated."""

    points: int = 0
    kernel_ops: int = 0

    def reset(self) -> None:
        self.points = 0
        self.kernel_ops = 0

    def snapshot(self) -> tuple[int, int]:
        return (self.points, self.kernel_ops)


#: global counter; reset() it around a measurement. Updated once per
#: map build.
counter = EvalCounter()


@dataclass
class SrpMap:
    """Scores over a candidate grid plus the metadata that produced them."""

    grid: CandidateGrid | VolumeGrid
    scores: np.ndarray
    domain: str
    band: tuple[float, float] | None = None
    frame_index: int | None = None

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float)
        if len(self.scores) != len(self.grid):
            raise ValueError(
                f"{len(self.scores)} scores for {len(self.grid)} candidates"
            )
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("map scores must be finite")
        if self.domain not in ("time", "frequency", "volumetric"):
            raise ValueError(f"unknown map domain {self.domain!r}")

    @property
    def points(self) -> np.ndarray:
        return self.grid.points

    def __len__(self) -> int:
        return len(self.grid)


def _pairs_and_lags(lag_vectors: dict[MicPair, LagVector], array: MicArray):
    pairs = array.pairs()
    missing = [p for p in pairs if p not in lag_vectors]
    if missing:
        raise ValueError(f"lag vectors missing for pairs {missing}")
    return pairs, [lag_vectors[p] for p in pairs]


def _check_lag_coverage(array: MicArray, lags: list[LagVector]) -> None:
    # every in-room candidate TDOA satisfies |tau| <= max_tdoa, so it
    # is enough that the lag vectors cover the pair baselines
    fs = array.sample_rate
    for pair, lv in zip(array.pairs(), lags):
        need = int(round(max_tdoa(pair, array) * fs)) + 1
        if lv.max_lag < need:
            raise ValueError(
                f"lag vector for pair ({pair.l}, {pair.m}) covers +/-{lv.max_lag} "
                f"samples but the baseline needs {need}; use longer frames"
            )


#: points per TDOA block while building a lag table; bounds the float
#: temporaries to a few hundred kB whatever the grid size
_TABLE_CHUNK = 4096


def lag_table(points: np.ndarray, array: MicArray, far_field: bool = False) -> np.ndarray:
    """Nearest-lag steering rint(tau_lm(u) * fs) of every pair and point, int32 (P, G).

    Depends only on the points and the array, so a grid's table is
    built once and reused for every frame and de-emphasis round.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    tdoas = far_field_tdoa_matrix if far_field else tdoa_matrix
    table = np.empty((array.n_pairs, len(pts)), dtype=np.int32)
    for i in range(0, len(pts), _TABLE_CHUNK):
        taus = tdoas(pts[i: i + _TABLE_CHUNK], array)
        table[:, i: i + _TABLE_CHUNK] = np.rint(taus * array.sample_rate).T
    return table


def _time_scores(table: np.ndarray, lag_vectors: dict[MicPair, LagVector], array: MicArray):
    """Gather-and-sum of each pair's lag vector over a lag table."""
    pairs, lags = _pairs_and_lags(lag_vectors, array)
    _check_lag_coverage(array, lags)
    scores = np.zeros(table.shape[1])
    for row, lv in zip(table, lags):
        scores += lv.values[row + lv.max_lag]
    counter.points += table.shape[1]
    counter.kernel_ops += table.shape[1] * len(pairs)
    return scores


def srp_time_scores(
    points: np.ndarray,
    lag_vectors: dict[MicPair, LagVector],
    array: MicArray,
    far_field: bool = False,
) -> np.ndarray:
    """Time-domain SRP at arbitrary points: nearest-lag projection."""
    return _time_scores(lag_table(points, array, far_field), lag_vectors, array)


def srp_time_map(
    lag_vectors: dict[MicPair, LagVector],
    grid: CandidateGrid,
    array: MicArray,
    frame_index: int | None = None,
    table: np.ndarray | None = None,
) -> SrpMap:
    """Time-domain SRP map over a grid (far-field for DOA grids).

    ``table`` is the grid's lag_table when the caller has prepared it;
    otherwise it is built here.
    """
    if table is None:
        table = lag_table(grid.points, array, far_field=grid.is_doa)
    scores = _time_scores(table, lag_vectors, array)
    return SrpMap(grid, scores, "time", frame_index=frame_index)


def _active_freqs(gccs: dict[MicPair, SpectralGcc], array: MicArray):
    pairs = array.pairs()
    missing = [p for p in pairs if p not in gccs]
    if missing:
        raise ValueError(f"spectral gccs missing for pairs {missing}")
    first = gccs[pairs[0]]
    for p in pairs[1:]:
        g = gccs[p]
        if g.n_fft != first.n_fft or not np.array_equal(g.in_band, first.in_band):
            raise ValueError("all pairs must share one DFT grid and band")
        if g.sample_rate != first.sample_rate:
            raise ValueError("all pairs must share one sample rate")
    mask = first.in_band
    return pairs, first.freqs[mask], mask


def _mic_delays(pts, array: MicArray, far_field: bool) -> np.ndarray:
    if far_field:
        # per-mic arrival offsets for a plane wave from bearing d;
        # differences give the far-field pair TDOAs
        return -(pts @ array.positions.T) / array.speed_of_sound  # (g, M)
    return tof_matrix(pts, array)


def _pair_steering(pts, array, far_field, pairs, freqs):
    """Yield each pair's steering e^{+j 2 pi f tau_lm(u)}, (g, F), in pair order."""
    delays = _mic_delays(pts, array, far_field)
    # factored per mic: tau_lm = tau_l - tau_m
    phases = np.exp((2j * math.pi) * delays[:, :, None] * freqs[None, None, :])  # (g, M, F)
    for pair in pairs:
        yield phases[:, pair.l, :] * np.conj(phases[:, pair.m, :])


def _freq_scores_chunk(pts, array, far_field, pairs, freqs, gvals):
    out = np.zeros(len(pts))
    for steer, g in zip(_pair_steering(pts, array, far_field, pairs, freqs), gvals):
        out += (steer @ g).real
    return out


def _half_spectrum(freqs: np.ndarray, mask: np.ndarray):
    """Reduce the two-sided in-band set to f >= 0 with symmetry weights.

    A negative-frequency bin of a conjugate-symmetric GCC contributes
    the same real part as its positive twin, so summing the positive
    half with weight 2 (weight 1 at f = 0 and at the unpaired Nyquist
    bin) is exact, at half the kernel cost.
    """
    n = len(freqs)
    pos = mask & (freqs > 0)
    zero = mask & (freqs == 0)
    nyq = np.zeros(n, dtype=bool)
    if n % 2 == 0:
        nyq[n // 2] = mask[n // 2]
    keep = pos | zero | nyq
    weights = np.where(pos & ~nyq, 2.0, 1.0)[keep]
    return keep, weights


def srp_freq_scores(
    points: np.ndarray,
    gccs: dict[MicPair, SpectralGcc],
    array: MicArray,
    far_field: bool = False,
) -> np.ndarray:
    """Frequency-domain SRP at arbitrary points.

    The sum runs over the two-sided in-band set; the implementation
    folds conjugate-symmetric bins, which is exact for the real
    correlations this consumes.
    """
    pairs, freqs_all, mask = _active_freqs(gccs, array)
    keep, half_w = _half_spectrum(next(iter(gccs.values())).freqs, mask)
    freqs = next(iter(gccs.values())).freqs[keep]
    gvals = [gccs[p].values[keep] * half_w for p in pairs]
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    # bound the per-chunk steering tensor to a few tens of MB
    chunk = max(32, int(2e6 / max(1, array.n_mics * len(freqs))))
    parts = [
        _freq_scores_chunk(pts[i: i + chunk], array, far_field, pairs, freqs, gvals)
        for i in range(0, len(pts), chunk)
    ]
    scores = np.concatenate(parts) if parts else np.zeros(0)
    counter.points += len(pts)
    counter.kernel_ops += len(pts) * len(pairs) * len(freqs_all)
    return scores


def srp_freq_map(
    gccs: dict[MicPair, SpectralGcc],
    grid: CandidateGrid,
    array: MicArray,
    frame_index: int | None = None,
) -> SrpMap:
    """Frequency-domain SRP map over a grid (far-field for DOA grids)."""
    pairs, freqs, _ = _active_freqs(gccs, array)
    scores = srp_freq_scores(grid.points, gccs, array, far_field=grid.is_doa)
    band = (float(np.min(np.abs(freqs))), float(np.max(np.abs(freqs)))) if len(freqs) else None
    return SrpMap(grid, scores, "frequency", band=band, frame_index=frame_index)


def make_time_scorer(lag_vectors, array: MicArray, far_field: bool = False):
    """points (N, 3) -> time-domain SRP scores (N,); feeds searches and tracking."""

    def scorer(points: np.ndarray) -> np.ndarray:
        return srp_time_scores(points, lag_vectors, array, far_field=far_field)

    return scorer


def make_freq_scorer(gccs, array: MicArray, far_field: bool = False):
    """points (N, 3) -> frequency-domain SRP scores (N,)."""

    def scorer(points: np.ndarray) -> np.ndarray:
        return srp_freq_scores(points, gccs, array, far_field=far_field)

    return scorer


@dataclass(frozen=True)
class TdoaBounds:
    """TDOA interval [tau_min, tau_max] of a pair over a volume."""

    tau_min: float
    tau_max: float

    def __post_init__(self):
        if self.tau_min > self.tau_max:
            raise ValueError("tau_min must be <= tau_max")


def volume_tdoa_bounds(volumes, array: MicArray, guard: float = 1.0):
    """TDOA bounds of every volume for every pair, (tau_min, tau_max), each (P, V).

    Each box's bounds come from its 8 vertices, widened by a guard in
    samples (default 1) that absorbs the curvature the vertex
    evaluation misses for mics well outside the volume, and clamped to
    the pair's physical limit +/- max_tdoa. One time-of-flight pass
    covers all vertices; rows follow array.pairs().
    """
    if guard < 0:
        raise ValueError(f"guard must be >= 0, got {guard}")
    pairs = array.pairs()
    verts = np.concatenate([v.vertices() for v in volumes])
    t = tof_matrix(verts, array).reshape(len(volumes), 8, array.n_mics)
    pad = guard / array.sample_rate
    tau_min = np.empty((len(pairs), len(volumes)))
    tau_max = np.empty_like(tau_min)
    for j, pair in enumerate(pairs):
        taus = t[:, :, pair.l] - t[:, :, pair.m]
        lim = max_tdoa(pair, array)
        tau_min[j] = np.maximum(taus.min(axis=1) - pad, -lim)
        tau_max[j] = np.minimum(taus.max(axis=1) + pad, lim)
    return tau_min, tau_max


def tdoa_bounds(
    volume: Volume, pair: MicPair, array: MicArray, guard: float = 1.0
) -> TdoaBounds:
    """TDOA bounds of one pair over one box; see volume_tdoa_bounds."""
    tau_min, tau_max = volume_tdoa_bounds([volume], array, guard)
    j = array.pairs().index(pair)
    return TdoaBounds(float(tau_min[j, 0]), float(tau_max[j, 0]))


def lag_windows(volume_grid: VolumeGrid, array: MicArray, guard: float = 1.0):
    """Nearest-lag windows [k0, k1] of every pair over every volume, int32 (P, V) each.

    Like lag_table for points, these depend only on the volumes, the
    array and the guard, so they are built once per grid.
    """
    tau_min, tau_max = volume_tdoa_bounds(volume_grid.volumes, array, guard)
    fs = array.sample_rate
    return np.rint(tau_min * fs).astype(np.int32), np.rint(tau_max * fs).astype(np.int32)


_POOLS = ("sum", "mean", "max")


def vsrp_map(
    lag_vectors: dict[MicPair, LagVector],
    volume_grid: VolumeGrid,
    array: MicArray,
    pooling: str = "sum",
    guard: float = 1.0,
    frame_index: int | None = None,
    windows: tuple[np.ndarray, np.ndarray] | None = None,
) -> SrpMap:
    """Volumetric SRP: pool each pair's lags over the volume's TDOA bounds.

    A degenerate (zero-extent) volume with guard 0 reproduces the
    point SRP score at its center. Pooling is sum, mean or max per
    pair; pairs always combine by summation. ``windows`` is the
    grid's lag_windows when the caller has prepared them. Sum and
    mean pool by prefix sums, so they can differ from a direct window
    sum in the last place; max is exact.
    """
    if pooling not in _POOLS:
        raise ValueError(f"pooling must be one of {_POOLS}, got {pooling!r}")
    pairs, lags = _pairs_and_lags(lag_vectors, array)
    _check_lag_coverage(array, lags)
    if windows is None:
        windows = lag_windows(volume_grid, array, guard)
    scores = np.zeros(len(volume_grid))
    for lv, k0, k1 in zip(lags, *windows):
        n = len(lv.values)
        k0 = np.maximum(k0 + lv.max_lag, 0)
        k1 = np.minimum(k1 + lv.max_lag, n - 1)
        if pooling == "max":
            # segment [k0, k1] is reduced at even slots; the -inf pad
            # keeps the end index k1 + 1 <= n in range
            padded = np.append(lv.values, -np.inf)
            scores += np.maximum.reduceat(padded, np.stack([k0, k1 + 1], axis=1).ravel())[::2]
            continue
        csum = np.concatenate([[0.0], np.cumsum(lv.values)])
        pooled = csum[k1 + 1] - csum[k0]
        scores += pooled / (k1 - k0 + 1) if pooling == "mean" else pooled
    counter.points += len(volume_grid)
    counter.kernel_ops += len(volume_grid) * len(pairs)
    return SrpMap(volume_grid, scores, "volumetric", frame_index=frame_index)


@dataclass
class WsrpConfig:
    """Weighted-SRP combination rules.

    Frequencies combine first (sum or product over in-band bins),
    then pairs (sum, product, or the Hamacher t-norm). Weights
    divide their terms; a pair weight of inf excludes the pair
    outright. Product and Hamacher paths min-max normalize each
    pair map to [0, 1] first.
    """

    freq_combinator: str = "sum"
    pair_combinator: str = "sum"
    freq_weights: np.ndarray | None = None
    pair_weights: dict[MicPair, float] | None = None

    def __post_init__(self):
        if self.freq_combinator not in ("sum", "product"):
            raise ValueError(f"freq_combinator must be sum|product, got {self.freq_combinator!r}")
        if self.pair_combinator not in ("sum", "product", "hamacher"):
            raise ValueError(
                f"pair_combinator must be sum|product|hamacher, got {self.pair_combinator!r}"
            )
        if self.freq_weights is not None:
            w = np.asarray(self.freq_weights, dtype=float)
            if np.any(w <= 0) or not np.all(np.isfinite(w)):
                raise ValueError("freq_weights must be positive and finite")
            self.freq_weights = w
        if self.pair_weights is not None:
            for p, w in self.pair_weights.items():
                if not (w > 0):
                    raise ValueError(f"pair weight for ({p.l}, {p.m}) must be > 0, got {w}")


@dataclass
class PairwiseFreqScores:
    """Per-pair, per-frequency steered responses over a grid.

    tensor[j, g, f] = Re(gcc_j[f] e^{j 2 pi f tau_j(u_g)}), the raw
    material the weighted-SRP combinators consume. Desk-scale only:
    memory is P x G x |F|.
    """

    tensor: np.ndarray
    pairs: list[MicPair]
    freqs: np.ndarray
    grid: CandidateGrid

    def __post_init__(self):
        self.tensor = np.asarray(self.tensor, dtype=float)
        if self.tensor.shape != (len(self.pairs), len(self.grid), len(self.freqs)):
            raise ValueError("tensor shape must be (P, G, F)")


def pairwise_freq_scores(
    gccs: dict[MicPair, SpectralGcc], grid: CandidateGrid, array: MicArray
) -> PairwiseFreqScores:
    """The (P, G, F) steered-response tensor for weighted combination."""
    pairs, freqs, mask = _active_freqs(gccs, array)
    pts = grid.points
    tensor = np.empty((len(pairs), len(pts), len(freqs)))
    steering = _pair_steering(pts, array, grid.is_doa, pairs, freqs)
    for j, (pair, steer) in enumerate(zip(pairs, steering)):
        tensor[j] = (steer * gccs[pair].values[mask][None, :]).real
    counter.points += len(pts)
    counter.kernel_ops += len(pts) * len(pairs) * len(freqs)
    return PairwiseFreqScores(tensor, pairs, freqs, grid)


def _minmax_rows(rows: np.ndarray) -> np.ndarray:
    lo = rows.min(axis=1, keepdims=True)
    hi = rows.max(axis=1, keepdims=True)
    span = hi - lo
    out = np.zeros_like(rows)
    ok = span[:, 0] > 0
    out[ok] = (rows[ok] - lo[ok]) / span[ok]
    return out


def _hamacher(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    denom = a + b - a * b
    out = np.zeros_like(a)
    nz = denom > 0
    out[nz] = a[nz] * b[nz] / denom[nz]
    return out


def wsrp_map(
    pfs: PairwiseFreqScores, cfg: WsrpConfig | None = None, frame_index: int | None = None
) -> SrpMap:
    """Weighted SRP map from a steered-response tensor.

    With sum/sum combination and unit weights this reduces to the
    conventional frequency-domain map. Excluding a pair with weight
    inf is exactly equivalent to recomputing without it.
    """
    cfg = cfg or WsrpConfig()
    t = pfs.tensor
    if cfg.freq_weights is not None:
        if len(cfg.freq_weights) != t.shape[2]:
            raise ValueError(
                f"{len(cfg.freq_weights)} freq weights for {t.shape[2]} in-band bins"
            )
        t = t / cfg.freq_weights[None, None, :]
    per_pair = t.sum(axis=2) if cfg.freq_combinator == "sum" else t.prod(axis=2)
    weights = np.ones(len(pfs.pairs))
    if cfg.pair_weights:
        for j, p in enumerate(pfs.pairs):
            if p in cfg.pair_weights:
                weights[j] = cfg.pair_weights[p]
    keep = ~np.isinf(weights)
    if not keep.any():
        raise ValueError("all pairs excluded (weight inf); nothing to combine")
    rows = per_pair[keep] / weights[keep, None]
    if cfg.pair_combinator == "sum":
        scores = rows.sum(axis=0)
    else:
        norm = _minmax_rows(rows)
        if cfg.pair_combinator == "product":
            scores = np.prod(norm, axis=0)
        else:
            scores = norm[0]
            for r in norm[1:]:
                scores = _hamacher(scores, r)
    return SrpMap(pfs.grid, scores, "frequency", frame_index=frame_index)
