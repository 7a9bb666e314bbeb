"""Steered-response-power maps.

A map assigns each candidate location the power of a beamformer
steered at it, accumulated over microphone pairs:

  time domain       score(u) = sum_pairs lag[round(tau_lm(u) * fs)]
  frequency domain  score(u) = sum_pairs sum_f Re(gcc[f] e^{j 2 pi f tau_lm(u)})
  volumetric        score(V) = sum_pairs pool(lag[k], k in TDOA bounds of V)
  weighted          configurable per-frequency / per-pair combination

Cartesian grids use exact TDOAs, DOA grids the far-field form; the two
are never mixed within one map. Time and volumetric maps read one
LagBlock per frame, rows in array.pairs() order (a dict of LagVectors
is stacked into one on entry). The time map reads each pair's lag
window -D..D, D = round(max_tdoa * fs) + 1 (lag_bounds), through a
table of offsets rint(tau * fs) + D, so a block cropped to +/-max D
serves every map of the array. One blocked gather scores a batch of
frames per pass over the table: time_argmax reduces each block of
points to every frame's running argmax, and srp_time_map is its
one-frame full map. The frequency map is Horner's rule over the
uniform DFT bins, exact, steered by per-mic phasors (2 M complex
exponentials per point). A module-level counter tracks candidate
scorings and steering-kernel evaluations so complexity claims can be
checked: each frame's map adds G points and G * P kernel ops (time,
volumetric) or G * P * |F| (frequency), whether it is built alone or
scored in a batch; |F| is the in-band bin count, the complexity
model's unit, not a count of multiplies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .features import LagBlock, LagVector, SpectralGcc
from .geometry import (
    MicArray,
    MicPair,
    far_field_tdoa_matrix,
    max_tdoa,
    tof_matrix,
)
from .grids import _CORNERS, CandidateGrid, Volume, VolumeGrid


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
#: map build, or once per pass of a batch of frames by the frames' maps.
counter = EvalCounter()


@dataclass
class SrpMap:
    """Scores over a candidate grid and the domain that produced them."""

    grid: CandidateGrid | VolumeGrid
    scores: np.ndarray
    domain: str

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


def lag_bounds(array: MicArray) -> np.ndarray:
    """Each pair's D = round(max_tdoa * fs) + 1 >= |rint(tau * fs)|, (P,) in pairs() order."""
    return np.array([round(max_tdoa(p, array) * array.sample_rate) + 1 for p in array.pairs()])


def _lag_block(lags, array: MicArray, bounds: np.ndarray | None = None):
    """(block, bounds): ``lags`` as one LagBlock that covers every pair's bound D.

    A dict of LagVectors is stacked into one block, shorter rows
    zero-padded (no map reads past its pair's D, and leading zeros
    leave running sums as they are), and cropped to +/-max D.
    """
    if bounds is None:
        bounds = lag_bounds(array)
    pairs = array.pairs()
    if isinstance(lags, LagBlock):
        if len(lags.values) != len(pairs):
            raise ValueError(f"lag block has {len(lags.values)} rows for {len(pairs)} pairs")
        reach = np.full(len(pairs), lags.max_lag)
    else:
        missing = [p for p in pairs if p not in lags]
        if missing:
            raise ValueError(f"lag vectors missing for pairs {missing}")
        reach = np.array([lags[p].max_lag for p in pairs])
    short = np.flatnonzero(reach < bounds)
    if short.size:
        j = short[0]
        raise ValueError(
            f"lag vector for pair ({pairs[j].l}, {pairs[j].m}) covers +/-{reach[j]} "
            f"samples but the baseline needs {bounds[j]}; use longer frames"
        )
    if isinstance(lags, LagBlock):
        return lags, bounds
    k = int(reach.max())
    full = np.zeros((len(pairs), 2 * k + 1))
    for row, p, kp in zip(full, pairs, reach):
        row[k - kp: k + kp + 1] = lags[p].values
    return LagBlock.crop(full, lags[pairs[0]].sample_rate, int(bounds.max())), bounds


#: points per block of a lag table build. The block's (M, chunk) times
#: of flight and (P, chunk) TDOAs came to a 1.66 MiB tracemalloc
#: transient at 8 mics, below the 1.82 MiB of one frame's lag_block
#: (L = 4096, 100-2000 Hz, +/-267 lags), so the build does not raise a
#: run's peak
_TABLE_CHUNK = 4096


def lag_table(points: np.ndarray, array: MicArray, far_field: bool = False) -> np.ndarray:
    """Nearest-lag steering of every pair and point, offset into [0, 2 D], (P, G).

    Entry [j, g] is rint(tau_j(u_g) * fs) + D_j (see lag_bounds), so
    row j indexes the lag window -D_j..D_j directly; the dtype is the
    smallest unsigned one holding 2 max D, uint16 for any room-sized
    array. Near-field blocks take one mic-major tof_matrix pass and
    the pair rows by consecutive-row subtraction, t[l] - t[l+1:] (see
    MicArray.pair_rows), then one scale/rint/offset pass: tdoa_matrix's
    float operations, bit for bit. Built once per grid and reused for
    every frame and de-emphasis round.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    fs = array.sample_rate
    bounds = lag_bounds(array)
    table = np.empty((len(bounds), len(pts)), dtype=np.min_scalar_type(2 * bounds.max()))
    buf = np.empty((len(bounds), min(_TABLE_CHUNK, len(pts))))
    for i in range(0, len(pts), _TABLE_CHUNK):
        chunk = pts[i: i + _TABLE_CHUNK]
        tau = buf[:, : len(chunk)]
        if far_field:
            tau[:] = far_field_tdoa_matrix(chunk, array).T
        else:
            t = tof_matrix(chunk, array).T  # (M, chunk), C-contiguous
            for l, rows in array.pair_rows():
                np.subtract(t[l], t[l + 1:], out=tau[rows])
        tau *= fs
        np.add(np.rint(tau, out=tau), bounds[:, None], out=table[:, i: i + _TABLE_CHUNK],
               casting="unsafe")
    return table


#: gathered elements (points x frames) per block of a time-map pass: a
#: 512 KiB float64 running sum. On a 90k-point, 28-pair table, a 4-frame
#: pass took 4.12, 3.17, 3.14, 3.01, 4.00 and 6.41 ms per frame at blocks
#: of 8,192 to 262,144 elements (doubling), and a one-frame map 6.50 ms
#: at 65,536; smaller blocks pay per-call overhead, larger ones miss cache
_GATHER_BLOCK = 65536


def _gather(table: np.ndarray, blocks: list[LagBlock], bounds: np.ndarray):
    """Yield (start, scores): time-map scores of points start.. of every frame, (B, F) per block.

    Every score is the sum from 0.0 over pairs, in table row order, of
    the frame's lag at the table offset. Pair j gathers rows of one
    (2 D_j + 1, F) window of all F frames: take costs about the same
    per index whether an index fetches one float or a row of F, so a
    batch of frames shares each pass over the table. The counter adds
    G points and G * P kernel ops per frame.
    """
    G, F = table.shape[1], len(blocks)
    wins = [
        np.stack([b.values[j, b.max_lag - d: b.max_lag + d + 1] for b in blocks], axis=1)
        for j, d in enumerate(bounds)
    ]
    counter.points += G * F
    counter.kernel_ops += G * len(bounds) * F
    step = max(1, _GATHER_BLOCK // F)
    for i in range(0, G, step):
        scores = np.zeros((min(step, G - i), F))
        for win, row in zip(wins, table[:, i: i + step]):
            scores += win.take(row, axis=0)
        yield i, scores


def _time_scores(table: np.ndarray, lags, array: MicArray, bounds=None):
    """Gather-and-sum of each pair's lag window -D..D over a lag table: one frame's scores."""
    block, bounds = _lag_block(lags, array, bounds)
    scores = np.empty(table.shape[1])
    for i, part in _gather(table, [block], bounds):
        scores[i: i + len(part)] = part[:, 0]
    return scores


def time_argmax(table: np.ndarray, blocks: list[LagBlock], bounds: np.ndarray):
    """Argmax and peak score of each frame's time map over a lag table, (F,) each.

    ``blocks`` are the frames' LagBlocks (rows in array.pairs() order,
    each covering the pairs' lag bounds); ``bounds`` the array's
    lag_bounds. Equal to argmax_search(srp_time_map(...)) per frame,
    bit for bit, with the full map never built: each block of points
    is checked for finite scores, as SrpMap does, and a block's peak
    replaces a frame's best only if strictly greater, so ties keep the
    lowest index. The counter adds what srp_time_map would.
    """
    best = np.full(len(blocks), -np.inf)
    idx = np.zeros(len(blocks), dtype=np.intp)
    cols = np.arange(len(blocks))
    for i, part in _gather(table, blocks, bounds):
        if not np.isfinite(part).all():
            raise ValueError("map scores must be finite")
        j = part.argmax(axis=0)
        peak = part[j, cols]
        better = peak > best
        best[better], idx[better] = peak[better], i + j[better]
    return idx, best


def srp_time_scores(
    points: np.ndarray,
    lags: LagBlock | dict[MicPair, LagVector],
    array: MicArray,
    far_field: bool = False,
) -> np.ndarray:
    """Time-domain SRP at arbitrary points: nearest-lag projection."""
    return _time_scores(lag_table(points, array, far_field), lags, array)


def srp_time_map(
    lags: LagBlock | dict[MicPair, LagVector],
    grid: CandidateGrid,
    array: MicArray,
    table: np.ndarray | None = None,
    bounds: np.ndarray | None = None,
) -> SrpMap:
    """Time-domain SRP map over a grid (far-field for DOA grids).

    ``lags`` is a LagBlock or a dict of LagVectors (stacked into one
    block on entry). ``table`` is the grid's lag_table and ``bounds``
    the array's lag_bounds when the caller has prepared them;
    otherwise they are built here. The full map of one frame: the
    one-frame case of time_argmax's blocked gather.
    """
    if table is None:
        table = lag_table(grid.points, array, far_field=grid.is_doa)
    scores = _time_scores(table, lags, array, bounds)
    return SrpMap(grid, scores, "time")


def _active_freqs(gccs: dict[MicPair, SpectralGcc], array: MicArray):
    pairs = array.pairs()
    missing = [p for p in pairs if p not in gccs]
    if missing:
        raise ValueError(f"spectral gccs missing for pairs {missing}")
    first = gccs[pairs[0]]
    for p in pairs[1:]:
        g = gccs[p]
        same_grid = g.freqs is first.freqs or np.array_equal(g.freqs, first.freqs)
        same_band = g.in_band is first.in_band or np.array_equal(g.in_band, first.in_band)
        if not (same_grid and same_band and g.sample_rate == first.sample_rate):
            raise ValueError("all pairs must share one DFT grid, band and sample rate")
    grid = np.fft.fftfreq(first.n_fft, d=1.0 / first.sample_rate)
    if np.max(np.abs(first.freqs - grid), initial=0.0) > 1e-9 * first.sample_rate / first.n_fft:
        raise ValueError("spectral gcc frequencies must lie on the DFT grid fftfreq(n, 1 / fs)")
    mask = first.in_band
    return pairs, first.freqs[mask], mask


def _mic_delays(pts, array: MicArray, far_field: bool) -> np.ndarray:
    if far_field:
        # per-mic arrival offsets for a plane wave from bearing d;
        # differences give the far-field pair TDOAs
        return -(pts @ array.positions.T) / array.speed_of_sound  # (g, M)
    return tof_matrix(pts, array)


def _half_spectrum(mask: np.ndarray) -> np.ndarray:
    """Weights of the DFT bins k = 0..n/2 that fold a two-sided in-band mask.

    A negative-frequency bin of a conjugate-symmetric GCC contributes
    the same real part as its positive twin, so summing bins 0..n/2
    with weight 2 (1 at f = 0 and at the unpaired Nyquist bin, 0 out
    of band) is exact, at half the kernel cost.
    """
    n = len(mask)
    k = np.arange(n // 2 + 1)
    return np.where((k == 0) | (2 * k == n), 1.0, 2.0) * mask[: n // 2 + 1]


#: accumulator elements (pairs x points) per Horner block, 512 kB of
#: complex128, so the per-step sweeps stay in cache
_HORNER_BLOCK = 32768


def srp_freq_scores(
    points: np.ndarray,
    gccs: dict[MicPair, SpectralGcc],
    array: MicArray,
    far_field: bool = False,
) -> np.ndarray:
    """Frequency-domain SRP at arbitrary points.

    The sum runs over the two-sided in-band set. Conjugate-symmetric
    bins are folded onto k = 0..n/2 (the Nyquist bin at +fs/2, where a
    real correlation's term has the same real part), and those bins
    are uniform, f_k = k fs/n, so each pair's sum is a polynomial in
    z = e^{j 2 pi (fs/n) tau}: e^{j 2 pi f_lo tau} sum_k c_k z^(k - k_lo).
    Horner's rule evaluates it exactly with one complex multiply-add
    per bin, pair and point, and no phase tensor. As tau_lm = t_l - t_m,
    z and the band start's e^{j 2 pi f_lo tau} are products w_l conj(w_m)
    of per-mic phasors: 2 M complex exponentials per point, not 2 P,
    laid out a mic's consecutive pair rows at a time (MicArray.pair_rows)
    in z's (P, g) buffer, with no gathered (P, g) temporaries. Scores
    match the direct two-sided sum to 2e-13 of the map's peak
    (measured at n = 8192, band starts up to bin 4000). The counter still
    adds G * P * |F| per call, |F| the two-sided in-band count; that
    is the complexity model's unit, not a count of multiplies.
    """
    pairs, freqs_all, mask = _active_freqs(gccs, array)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    scores = np.zeros(len(pts))
    weights = _half_spectrum(mask)
    bins = np.flatnonzero(weights)
    if len(bins):
        k_lo, k_hi = bins[0], bins[-1] + 1
        coef = np.stack([gccs[p].values[k_lo:k_hi] for p in pairs], axis=1)
        coef *= weights[k_lo:k_hi, None]  # (K, P): row k - k_lo is bin k
        df = gccs[pairs[0]].sample_rate / len(mask)
        spans = array.pair_rows()
        chunk = max(1, _HORNER_BLOCK // len(pairs))
        for i in range(0, len(pts), chunk):
            t = _mic_delays(pts[i: i + chunk], array, far_field).T  # (M, g)
            w = np.exp((2j * math.pi * df) * t)
            wc = w.conj()
            z = np.empty((len(pairs), t.shape[1]), dtype=complex)  # e^{j 2 pi df tau_lm}
            for l, rows in spans:
                np.multiply(w[l: l + 1], wc[l + 1:], out=z[rows])
            acc = np.repeat(coef[-1][:, None], z.shape[1], axis=1)
            with np.errstate():  # restores the ufunc buffer size on exit
                np.setbufsize(16)  # short rows: buffering doubles the broadcast add's cost
                for c in coef[-2::-1]:
                    acc *= z
                    acc += c[:, None]
            # acc *= w_l, then acc *= conj(w_m): each factor laid out in z
            # and applied as one (P, g) product, as numpy's rounding of a
            # one-element product depends on its shape
            w = np.exp((2j * math.pi * df * k_lo) * t)
            np.conjugate(w, out=wc)
            for l, rows in spans:
                z[rows] = w[l]
            acc *= z
            for l, rows in spans:
                z[rows] = wc[l + 1:]
            acc *= z
            scores[i: i + chunk] = acc.real.sum(axis=0)
    counter.points += len(pts)
    counter.kernel_ops += len(pts) * len(pairs) * len(freqs_all)
    return scores


def srp_freq_map(gccs: dict[MicPair, SpectralGcc], grid: CandidateGrid, array: MicArray) -> SrpMap:
    """Frequency-domain SRP map over a grid (far-field for DOA grids)."""
    return SrpMap(grid, srp_freq_scores(grid.points, gccs, array, far_field=grid.is_doa), "frequency")


def make_time_scorer(lags, array: MicArray, far_field: bool = False):
    """points (N, 3) -> time-domain SRP scores (N,); feeds searches and tracking."""
    block, bounds = _lag_block(lags, array)

    def scorer(points: np.ndarray) -> np.ndarray:
        return _time_scores(lag_table(points, array, far_field), block, array, bounds)

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


def volume_tdoa_bounds(lo, hi, array: MicArray, guard: float = 1.0):
    """TDOA bounds of V boxes [lo, hi], each (V, 3), for every pair: (tau_min, tau_max), (P, V).

    Each box's bounds come from its 8 vertices, widened by a guard in
    samples (default 1) that absorbs the curvature the vertex
    evaluation misses for mics well outside the volume, and clamped to
    the pair's physical limit +/- max_tdoa. The 8 V vertices take one
    time-of-flight pass, laid out (M, 8, V) so each pair (rows follow
    array.pairs()) reduces over the corner axis of contiguous rows.
    """
    if guard < 0:
        raise ValueError(f"guard must be >= 0, got {guard}")
    pairs = array.pairs()
    verts = np.where(_CORNERS[:, None, :], hi, lo).reshape(-1, 3)
    t = tof_matrix(verts, array).T.reshape(array.n_mics, 8, len(lo))
    pad = guard / array.sample_rate
    tau_min = np.empty((len(pairs), len(lo)))
    tau_max = np.empty_like(tau_min)
    for j, pair in enumerate(pairs):
        taus = t[pair.l] - t[pair.m]
        lim = max_tdoa(pair, array)
        tau_min[j] = np.maximum(taus.min(axis=0) - pad, -lim)
        tau_max[j] = np.minimum(taus.max(axis=0) + pad, lim)
    return tau_min, tau_max


def tdoa_bounds(
    volume: Volume, pair: MicPair, array: MicArray, guard: float = 1.0
) -> TdoaBounds:
    """TDOA bounds of one pair over one box; see volume_tdoa_bounds."""
    tau_min, tau_max = volume_tdoa_bounds(volume.lo[None], volume.hi[None], array, guard)
    j = array.pairs().index(pair)
    return TdoaBounds(float(tau_min[j, 0]), float(tau_max[j, 0]))


def lag_windows(volume_grid: VolumeGrid, array: MicArray, guard: float = 1.0):
    """Nearest-lag windows [k0, k1] of every pair over every volume, int32 (P, V) each.

    Like lag_table for points, these depend only on the volumes, the
    array and the guard, so they are built once per grid.
    """
    tau_min, tau_max = volume_tdoa_bounds(volume_grid.lo, volume_grid.hi, array, guard)
    fs = array.sample_rate
    return np.rint(tau_min * fs).astype(np.int32), np.rint(tau_max * fs).astype(np.int32)


_POOLS = ("sum", "mean", "max")


def vsrp_map(
    lags: LagBlock | dict[MicPair, LagVector],
    volume_grid: VolumeGrid,
    array: MicArray,
    pooling: str = "sum",
    guard: float = 1.0,
    windows: tuple[np.ndarray, np.ndarray] | None = None,
    bounds: np.ndarray | None = None,
) -> SrpMap:
    """Volumetric SRP: pool each pair's lags over the volume's TDOA bounds.

    A degenerate (zero-extent) volume with guard 0 reproduces the
    point SRP score at its center. Pooling is sum, mean or max per
    pair; pairs always combine by summation. ``lags`` is a LagBlock
    or a dict of LagVectors (stacked into one block on entry);
    ``windows`` is the grid's lag_windows and ``bounds`` the array's
    lag_bounds when the caller has prepared them. Sum and mean pool
    by prefix sums cumsum([head, row]), which equal the uncropped
    row's np.cumsum, so they can differ from a direct window sum in
    the last place; max is exact.
    """
    if pooling not in _POOLS:
        raise ValueError(f"pooling must be one of {_POOLS}, got {pooling!r}")
    block, _ = _lag_block(lags, array, bounds)
    if pooling != "max" and np.isnan(block.head).any():
        raise ValueError(f"{pooling} pooling reads the lag block's head; build the block with head=True")
    if windows is None:
        windows = lag_windows(volume_grid, array, guard)
    k = block.max_lag
    P, n = block.values.shape
    # prefix sums of [head, row] (sum, mean), or the row and a -inf pad
    # that keeps a segment [lo, hi]'s end index hi + 1 in the row (max)
    ext = np.empty((P, n + 1))
    if pooling == "max":
        ext[:, :n], ext[:, n] = block.values, -np.inf
    else:
        ext[:, 0], ext[:, 1:] = block.head, block.values
        np.cumsum(ext, axis=1, out=ext)
    flat = ext.ravel()
    row0 = np.arange(P)[:, None] * (n + 1)  # flat index of each row's start
    lo = row0 + np.maximum(windows[0] + k, 0)
    hi = row0 + np.minimum(windows[1] + k, n - 1)
    if pooling == "max":  # segment [lo, hi] is reduced at even slots
        pooled = np.maximum.reduceat(flat, np.stack([lo, hi + 1], axis=2).ravel())[::2]
        pooled = pooled.reshape(P, -1)
    else:
        pooled = flat[hi + 1] - flat[lo]
        if pooling == "mean":
            pooled /= hi - lo + 1
    scores = np.zeros(len(volume_grid))
    for row in pooled:  # pairs combine in pairs() order
        scores += row
    counter.points += len(volume_grid)
    counter.kernel_ops += len(volume_grid) * P
    return SrpMap(volume_grid, scores, "volumetric")


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
    # factored per mic, tau_lm = tau_l - tau_m: e^{+j 2 pi f tau_lm} per pair
    delays = _mic_delays(pts, array, grid.is_doa)
    phases = np.exp((2j * math.pi) * delays[:, :, None] * freqs[None, None, :])  # (G, M, F)
    tensor = np.empty((len(pairs), len(pts), len(freqs)))
    for j, pair in enumerate(pairs):
        steer = phases[:, pair.l, :] * np.conj(phases[:, pair.m, :])
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


def wsrp_map(pfs: PairwiseFreqScores, cfg: WsrpConfig | None = None) -> SrpMap:
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
    return SrpMap(pfs.grid, scores, "frequency")
