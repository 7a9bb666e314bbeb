"""Steered-response-power maps.

A map assigns each candidate location the power of a beamformer
steered at it, accumulated over microphone pairs:

  time domain       score(u) = sum_pairs lag[round(tau_lm(u) * fs)]
  frequency domain  score(u) = sum_pairs sum_f Re(gcc[f] e^{j 2 pi f tau_lm(u)})
  volumetric        score(V) = sum_pairs pool(lag[k], k in TDOA bounds of V)
  weighted          configurable per-frequency / per-pair combination

Cartesian grids use exact TDOAs, DOA grids the far-field form; the two
are never mixed within one map. Time and volumetric maps read one
LagBlock per frame, frequency maps one SpectralBlock, rows in
array.pairs() order, and take no other form. The time map reads each
pair's lag window -D..D, D = round(max_tdoa * fs) + 1 (lag_bounds),
through a table of offsets rint(tau * fs) + D, so a block cropped to
+/-max D serves every map of the array. srp_time_map gathers a grid's
full table; time_argmax finds a batch of frames' argmaxes by scoring
only the boxes of grid points (TimeCells) whose bound can reach the
best score found. The frequency map is Horner's rule over the block's
uniform DFT bins, exact, steered by per-mic phasors (2 M complex
exponentials per point). A module-level counter tracks candidate
scorings and steering-kernel evaluations so complexity claims can be
checked: each frame's map, alone or in a batch, adds G points and
G * P kernel ops (time, volumetric; for time_argmax, those of the map
it certifies) or G * P * |F| (frequency), |F| the in-band bin count:
the complexity model's unit, not a count of multiplies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .features import LagBlock, SpectralBlock
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


def _lag_block(lags: LagBlock, array: MicArray, bounds: np.ndarray | None = None):
    """(lags, bounds): a LagBlock checked to hold a row per pair that covers its bound D."""
    if not isinstance(lags, LagBlock):
        raise TypeError(f"time features must be a LagBlock, got {type(lags).__name__}")
    if bounds is None:
        bounds = lag_bounds(array)
    pairs = array.pairs()
    if len(lags.values) != len(pairs):
        raise ValueError(f"lag block has {len(lags.values)} rows for {len(pairs)} pairs")
    short = np.flatnonzero(lags.max_lag < bounds)
    if short.size:
        j = short[0]
        raise ValueError(
            f"lag block for pair ({pairs[j].l}, {pairs[j].m}) covers +/-{lags.max_lag} "
            f"samples but the baseline needs {bounds[j]}; use longer frames"
        )
    return lags, bounds


def _spectral_block(gccs: SpectralBlock, array: MicArray) -> SpectralBlock:
    """``gccs``, checked to be a SpectralBlock with rows in array.pairs() order."""
    if not isinstance(gccs, SpectralBlock):
        raise TypeError(f"frequency features must be a SpectralBlock, got {type(gccs).__name__}")
    if gccs.pairs != array.pairs():
        raise ValueError("spectral block rows must be the array's pairs, in array.pairs() order")
    return gccs


#: points per block of a lag table build. The block's (M, chunk) times
#: of flight and (P, chunk) TDOAs came to a 1.66 MiB tracemalloc
#: transient at 8 mics, below the 1.82 MiB of one frame's lag_block
#: (L = 4096, 100-2000 Hz, +/-267 lags), so the build does not raise a
#: run's peak
_TABLE_CHUNK = 4096


def lag_table(
    points: np.ndarray, array: MicArray, far_field: bool = False, bounds: np.ndarray | None = None
) -> np.ndarray:
    """Nearest-lag steering of every pair and point, offset into [0, 2 D], (P, G).

    Entry [j, g] is rint(tau_j(u_g) * fs) + D_j (see lag_bounds;
    ``bounds`` if the caller has them), so row j indexes the lag window
    -D_j..D_j directly; the dtype is the smallest unsigned one holding
    2 max D, uint16 for any room-sized array. Near-field blocks take
    one mic-major tof_matrix pass and the pair rows by consecutive-row
    subtraction, t[l] - t[l+1:] (see MicArray.pair_rows), then one
    scale/rint/offset pass: tdoa_matrix's float operations, bit for
    bit, so a point's column does not depend on the other points.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    fs = array.sample_rate
    if bounds is None:
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


def _windows(blocks: list[LagBlock], bounds: np.ndarray) -> list[np.ndarray]:
    """Each pair's lag window -D_j..D_j of every frame, (2 D_j + 1, F) per pair.

    Take costs about the same per index whether it fetches one float or
    a row of F, so a batch of frames shares each pass over a lag table.
    """
    return [
        np.stack([b.values[j, b.max_lag - d: b.max_lag + d + 1] for b in blocks], axis=1)
        for j, d in enumerate(bounds)
    ]


def _gather(table, wins: list[np.ndarray], n: int) -> np.ndarray:
    """Scores (n, F) of n points of a lag table, given as its rows (any
    iterable): from 0.0, each pair's lag at its offset, in row order."""
    scores = np.zeros((n, wins[0].shape[1]))
    for win, row in zip(wins, table):
        scores += win.take(row, axis=0)
    return scores


def _time_scores(table: np.ndarray, lags, array: MicArray, bounds=None):
    """One frame's scores over a lag table, gathered in blocks of points."""
    block, bounds = _lag_block(lags, array, bounds)
    wins = _windows([block], bounds)
    G = table.shape[1]
    scores = np.empty(G)
    for i in range(0, G, _GATHER_BLOCK):
        part = table[:, i: i + _GATHER_BLOCK]
        scores[i: i + _GATHER_BLOCK] = _gather(part, wins, part.shape[1])[:, 0]
    counter.points += G
    counter.kernel_ops += G * len(bounds)
    return scores


def _range_query(lo: np.ndarray, hi: np.ndarray, width: int) -> tuple:
    """Where _range_maxima reads the maximum over each range [lo, hi] of (P, C).

    A range of n entries is the union of the runs of 2^k entries, k =
    floor(log2 n), that start at lo and end at hi: entries lo and
    hi - 2^k + 1 of level k of a range-max table, flattened over levels
    ``width`` entries long. Returns (first, second, each row's top level,
    width), entries in the smallest unsigned dtype that holds them.
    """
    level = np.frexp(hi - lo + 1)[1] - 1  # floor(log2 n), exact
    first = level * width + lo
    second = first + (hi - lo + 1 - np.left_shift(1, level))
    dtype = np.min_scalar_type((int(level.max()) + 1) * width)
    return first.astype(dtype), second.astype(dtype), level.max(axis=1), width


def _range_maxima(rows, query: tuple):
    """Yield the maxima of each row (n_j <= width entries, ...) over its ranges, (C, ...) per row.

    One range-max table serves each row in turn: level k holds the
    maxima of 2^k consecutive entries. Max is exact, so a result equals
    np.max over its range.
    """
    first, second, tops, width = query
    tail = rows[0].shape[1:]
    table = np.empty((int(tops.max()) + 1, width) + tail)
    flat = table.reshape((-1,) + tail)
    for row, a, b, top in zip(rows, first, second, tops):
        table[0, : len(row)] = row
        for k in range(1, top + 1):
            h, n = 1 << (k - 1), len(row) - (1 << k) + 1
            np.maximum(table[k - 1, :n], table[k - 1, h: h + n], out=table[k, :n])
        yield np.maximum(flat.take(a, axis=0), flat.take(b, axis=0))


#: grid points per cell of time_cells. On time3d_multi (90k points, 28
#: pairs, 4 frames, 2 rounds, seeds 0-3), cells of 16, 32, 64, 128 and
#: 256 points took 10.2, 6.5, 6.5, 5.4 and 5.0 ms to build and 7.1, 7.7,
#: 8.4, 12.4 and 16.1 ms to search per command (32 seed cells): smaller
#: cells cost setup and bounds, larger ones more survivors
_CELL_POINTS = 64

#: cells per frame whose members time_argmax scores first. On 16 rounds
#: of time3d_multi (seeds 0-7, 64-point cells), 8, 16, 32 and 64 seed
#: cells scored 120,076, 61,000, 63,956 and 82,872 points, at most
#: 28,528, 10,752, 10,752 and 10,752 in a round: 8 seeds too low a bar
_SEED_CELLS = 32

#: share of a grid's points past which a round of time_argmax is flat:
#: once the grid's lag_table is kept (TimeCells.table), a flat round
#: gathers every point from it instead of building the survivors'
#: columns, and the second flat round on the cells builds it if no
#: round has. On time3d_multi (90k points, 28 pairs, 4 frames) the
#: table took 23.6 ms to build and 11.8 ms to gather, and the columns
#: of 10, 20, 30, 40, 50 and 100 % of the cells 3.5, 6.4, 9.6, 12.8,
#: 15.3 and 27.7 ms to build and gather (in blocks of 16,384 points):
#: at 40 % the columns cost what a pass over the kept table does
_TABLE_SHARE = 0.4

#: share of a grid's points past which a single round builds the
#: grid's lag_table, where columns would cost more than the table. On
#: time3d_multi, 4 frames of normal lags, the columns of 40, 50, 60,
#: 70, 80 and 100 % of the points in _COLUMN_BLOCKs took 13.0-19.4,
#: 17.5-26.8, 19.9-29.8, 24.4-34.7, 26.1-38.6 and 34.1-45.3 ms against
#: 24.3-29.6 ms to build and gather the table (medians of 12, two
#: runs). Below it a lone flat round holds 5 MiB less: seeds 17 and 18,
#: whose second rounds keep 41,210 and 45,634 points, took 69.5 and
#: 82.8 ms a command and peaked at 5.66 and 5.61 MiB, against 74.2 and
#: 89.1 ms and 11.29 and 11.18 MiB when a flat round built the table
_BUILD_SHARE = 0.7

#: grid points per block of lag_table columns built by time_argmax. A
#: block's columns, TDOAs and times of flight hold about 420 bytes a
#: point, so blocks past about 1,500 points raised time3d_multi's
#: tracemalloc peak above its lag_block's, by as many bytes as a round
#: had survivors: over seeds 0-11 the peak spread over 5.58-6.85 MiB
#: at blocks of 16,384 points (the gather block at 4 frames), 5.58-6.45
#: at 4,096, 5.53-5.86 at 2,048 and 5.53-5.75 at 1,024, where
#: lag_block sets it. Building and gathering took 506, 436, 309 and
#: 308 ns a point at 1,024, 2,048, 4,096 and 16,384 points (4 frames);
#: a command 1-5 ms more at 1,024 than at 16,384 (seeds 0, 3, 4, 7, 11)
_COLUMN_BLOCK = 1024


@dataclass
class TimeCells:
    """A grid's points in boxes (time_cells): each point's box, (G,), and
    the _range_query of each pair's range of lag_table offsets over each
    box; ``flat`` tells whether a round of time_argmax has been flat (its
    survivors outgrew _TABLE_SHARE of the grid); ``table`` is the grid's
    lag_table, built by a round whose survivors outgrow _BUILD_SHARE or
    by the second flat round, then kept."""

    points: np.ndarray
    array: MicArray
    far_field: bool
    cell: np.ndarray
    query: tuple
    flat: bool = False
    table: np.ndarray | None = None


def _cell_boxes(pts: np.ndarray):
    """Each point's cell, (G,), and each cell's box: its members' lo and hi, (3, C) each.

    Points are keyed by floor((p - p_min) / s), cubes of edge s that
    tile the longest axes they do not outgrow, and grouped by a stable
    argsort (numpy sorts uint16 keys by radix). The keys only make the
    cells compact; the boxes hold whatever the grouping.
    """
    cols = [pts[:, a] for a in range(3)]  # views: a (3, G) copy would raise a run's peak
    p_min = np.array([c.min() for c in cols])
    extents = np.array([c.max() for c in cols]) - p_min
    longest, want, s = np.sort(extents)[::-1], max(len(pts) / _CELL_POINTS, 1.0), 1.0
    for k in (3, 2, 1):  # 1.0 if every point is the same
        if 0 < (edge := (longest[:k].prod() / want) ** (1 / k)) <= longest[k - 1]:
            s = edge
            break
    n = [int(x / s) + 1 for x in extents]  # cells per axis: (p - p_min) / s <= extent / s
    key = np.zeros(len(pts), dtype=np.min_scalar_type(math.prod(n) - 1))
    q = np.empty(len(pts))
    for c, c0, n_a in zip(cols, p_min, n):
        key *= n_a
        np.subtract(c, c0, out=q)
        q /= s
        key += q.astype(key.dtype)  # truncation floors a quotient >= 0
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.r_[True, key[1:] != key[:-1]]
    starts = np.flatnonzero(new)
    cell = np.empty(len(pts), dtype=np.min_scalar_type(len(starts) - 1))
    cell[order] = np.cumsum(new, dtype=cell.dtype) - 1
    lo, hi = np.empty((3, len(starts))), np.empty((3, len(starts)))
    for c, c_lo, c_hi in zip(cols, lo, hi):  # "clip" writes q unbuffered; order is in range
        np.minimum.reduceat(c.take(order, out=q, mode="clip"), starts, out=c_lo)
        np.maximum.reduceat(q, starts, out=c_hi)
    return cell, lo, hi


def time_cells(
    points: np.ndarray, array: MicArray, far_field: bool = False, bounds: np.ndarray | None = None
) -> TimeCells:
    """The cells of time_argmax: boxes of about _CELL_POINTS grid points (_cell_boxes).

    Near field: a mic's distance over a box runs from its clamped
    position to the farthest corner, so a pair's TDOA lies in
    [(near_l - far_m) / c, (far_l - near_m) / c]. Far field: u . (v_m -
    v_l) / c is linear in u, so its extremes lie at corners, axis by
    axis. The lags are [floor(tau_min fs) - 1, ceil(tau_max fs) + 1],
    clipped to +/-D: the extra lag on each side absorbs the float
    rounding of this bound and of lag_table.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if bounds is None:
        bounds = lag_bounds(array)
    cell, lo, hi = _cell_boxes(pts)
    tau_lo = np.zeros((len(bounds), lo.shape[1]))
    tau_hi = np.zeros_like(tau_lo)
    if far_field:
        base = np.stack([array.positions[p.m] - array.positions[p.l] for p in array.pairs()])
        for b, a_lo, a_hi in zip(base.T[:, :, None] / array.speed_of_sound, lo, hi):
            tau_lo += np.minimum(b * a_lo, b * a_hi)
            tau_hi += np.maximum(b * a_lo, b * a_hi)
    else:
        near = np.zeros((array.n_mics, lo.shape[1]))
        far = np.zeros_like(near)
        for v, a_lo, a_hi in zip(array.positions.T[:, :, None], lo, hi):
            below, above = a_lo - v, v - a_hi  # > 0 where the mic lies outside the box
            near += np.maximum(np.maximum(below, above), 0.0) ** 2
            far += np.maximum(np.abs(below), np.abs(above)) ** 2
        near, far = np.sqrt(near) / array.speed_of_sound, np.sqrt(far) / array.speed_of_sound
        for l, rows in array.pair_rows():
            tau_lo[rows] = near[l] - far[l + 1:]
            tau_hi[rows] = far[l] - near[l + 1:]
    fs, d = array.sample_rate, bounds[:, None]
    k_lo = np.clip(np.floor(tau_lo * fs) - 1, -d, d).astype(np.intp) + d
    k_hi = np.clip(np.ceil(tau_hi * fs) + 1, -d, d).astype(np.intp) + d
    return TimeCells(pts, array, far_field, cell, _range_query(k_lo, k_hi, 2 * int(bounds.max()) + 1))


def _cell_bounds(cells: TimeCells, blocks: list[LagBlock], wins: list[np.ndarray]) -> np.ndarray:
    """Each cell's upper bound on its members' scores in every frame, (C, F).

    The sum from 0.0, in pairs() order, of each pair's largest lag over
    the cell's range: rounded addition is monotone, so it is at least
    each member's float score. A frame that could sum to a non-finite
    score (a non-finite lag, or P max|lag| near the float maximum) gets
    +inf, so all its cells are scored.
    """
    upper = np.zeros((cells.query[0].shape[1], len(blocks)))
    for m in _range_maxima(wins, cells.query):
        upper += m
    amax = np.array([np.abs(b.values).max() for b in blocks])  # P * amax < max: finite sums
    upper[:, ~(amax < np.finfo(float).max / 2 / len(wins))] = np.inf
    return upper


def _score_points(cells: TimeCells, members, wins, bounds, best, idx) -> None:
    """Score the points ``members`` and update each frame's best, in place.

    ``members`` are ascending grid indices, or None for every point;
    their lag_table columns are built per _COLUMN_BLOCK points, or read
    from the grid's table once it is kept. Scores are checked finite as
    SrpMap does. A peak replaces a frame's best if greater, or equal at
    a lower index.
    """
    n = len(cells.cell) if members is None else len(members)
    cols = np.arange(len(best))
    step = max(1, _GATHER_BLOCK // len(best))
    if cells.table is None:
        step = min(step, _COLUMN_BLOCK)
    for i in range(0, n, step):
        part = np.arange(i, min(i + step, n)) if members is None else members[i: i + step]
        if cells.table is None:
            table = lag_table(cells.points[part], cells.array, cells.far_field, bounds)
        elif members is None:
            table = cells.table[:, i: i + step]
        else:  # row by row: no (P, step) copy
            table = (row.take(part) for row in cells.table)
        scores = _gather(table, wins, len(part))
        if not np.isfinite(scores).all():
            raise ValueError("map scores must be finite")
        j = scores.argmax(axis=0)
        peak, at = scores[j, cols], part[j]
        del table, scores  # before the next block's are made
        better = (peak > best) | ((peak == best) & (at < idx))
        best[better], idx[better] = peak[better], at[better]


def time_argmax(cells: TimeCells, blocks: list[LagBlock], bounds: np.ndarray):
    """Argmax and peak score of each frame's time map over a grid's cells, (F,) each.

    ``blocks`` are the frames' LagBlocks (rows in array.pairs() order,
    each covering the pairs' lag bounds); ``bounds`` the array's
    lag_bounds, as given to time_cells. Equal to
    argmax_search(srp_time_map(...)) per frame, bit for bit: the
    members of each frame's _SEED_CELLS best-bounded cells are scored,
    then those of every other cell whose bound is not below some frame's
    best (so ties and NaN are scored). A skipped point scores below
    its frame's peak, so the peak and its lowest index are found. When
    those cells hold over _TABLE_SHARE of the points (a flat map) and
    the grid's table is kept, every point is gathered from it; a round
    builds and keeps the table when they hold over _BUILD_SHARE, or
    when it is the second flat round on these cells. The
    counter adds what srp_time_map would, G points and G * P kernel
    ops per frame: the exhaustive map the search certifies.
    """
    G, F = len(cells.cell), len(blocks)
    wins = _windows(blocks, bounds)
    counter.points += G * F
    counter.kernel_ops += G * len(bounds) * F
    upper = _cell_bounds(cells, blocks, wins)
    C = len(upper)
    seeds = np.zeros(C, dtype=bool)
    n = min(_SEED_CELLS, C)
    seeds[np.argpartition(upper, C - n, axis=0)[C - n:]] = True
    best, idx = np.full(F, -np.inf), np.zeros(F, dtype=np.intp)
    _score_points(cells, np.flatnonzero(seeds.take(cells.cell)), wins, bounds, best, idx)
    rest = (~(upper < best).all(axis=1) & ~seeds).take(cells.cell)
    del upper, seeds
    survivors = np.count_nonzero(rest)
    flat = survivors > _TABLE_SHARE * G
    if cells.table is None and (survivors > _BUILD_SHARE * G or flat and cells.flat):
        cells.table = lag_table(cells.points, cells.array, cells.far_field, bounds)
    cells.flat |= flat
    rest = None if flat and cells.table is not None else np.flatnonzero(rest)
    _score_points(cells, rest, wins, bounds, best, idx)
    return idx, best


def srp_time_scores(
    points: np.ndarray,
    lags: LagBlock,
    array: MicArray,
    far_field: bool = False,
) -> np.ndarray:
    """Time-domain SRP at arbitrary points: nearest-lag projection."""
    return _time_scores(lag_table(points, array, far_field), lags, array)


def srp_time_map(
    lags: LagBlock,
    grid: CandidateGrid,
    array: MicArray,
    bounds: np.ndarray | None = None,
) -> SrpMap:
    """Time-domain SRP map over a grid (far-field for DOA grids).

    ``bounds`` is the array's lag_bounds when the caller has them.
    Builds the grid's lag_table and gathers every point's score: the
    exhaustive map that time_argmax searches.
    """
    block, bounds = _lag_block(lags, array, bounds)
    table = lag_table(grid.points, array, grid.is_doa, bounds)
    return SrpMap(grid, _time_scores(table, block, array, bounds), "time")


def _mic_delays(pts, array: MicArray, far_field: bool) -> np.ndarray:
    if far_field:
        # per-mic arrival offsets for a plane wave from bearing d;
        # differences give the far-field pair TDOAs
        return -(pts @ array.positions.T) / array.speed_of_sound  # (g, M)
    return tof_matrix(pts, array)


def _half_spectrum(mask: np.ndarray) -> np.ndarray:
    """Weights of the DFT bins k = 0..n/2 that fold a two-sided in-band mask: 2, 1 at DC and Nyquist.

    A negative-frequency bin of a conjugate-symmetric GCC contributes the
    same real part as its positive twin, so the fold (0 out of band) is exact, at half the cost.
    """
    n = len(mask)
    k = np.arange(n // 2 + 1)
    return np.where((k == 0) | (2 * k == n), 1.0, 2.0) * mask[: n // 2 + 1]


#: accumulator elements (pairs x points) per Horner block, 512 kB of
#: complex128, so the per-step sweeps stay in cache
_HORNER_BLOCK = 32768


def srp_freq_scores(
    points: np.ndarray,
    gccs: SpectralBlock,
    array: MicArray,
    far_field: bool = False,
) -> np.ndarray:
    """Frequency-domain SRP at arbitrary points, from a SpectralBlock's (P, nb) bins alone.

    The two-sided in-band sum is folded onto the f >= 0 bins k = 0..n/2
    (_half_spectrum), which are uniform, f_k = k fs/n, so each pair's
    sum is a polynomial in z = e^{j 2 pi (fs/n) tau}: e^{j 2 pi f_lo tau}
    sum_k c_k z^(k - k_lo), c_k the block's bins times the fold weights.
    Horner's rule evaluates it exactly with one complex multiply-add
    per bin, pair and point, and no phase tensor. As tau_lm = t_l - t_m,
    z and the band start's e^{j 2 pi f_lo tau} are products w_l conj(w_m)
    of per-mic phasors: 2 M complex exponentials per point, not 2 P,
    laid out a mic's consecutive pair rows at a time (MicArray.pair_rows)
    in z's (P, g) buffer, with no gathered (P, g) temporaries. Scores
    match the direct two-sided sum to 2e-13 of the map's peak
    (measured at n = 8192, band starts up to bin 4000). The counter
    adds G * P * |F|, |F| = in_band.sum().
    """
    block = _spectral_block(gccs, array)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    scores = np.zeros(len(pts))
    P, k_lo = len(block.pairs), block.band.start
    if block.spectra.shape[1]:  # the band runs from the first in-band bin to the last
        # (K, P), row k - k_lo is bin k: a new array, as a transpose of one
        # pair or one bin is already contiguous and scaling it would scale the block
        coef = np.multiply(block.spectra.T, _half_spectrum(block.in_band)[block.band, None], order="C")
        df = block.sample_rate / len(block.in_band)
        spans = array.pair_rows()
        chunk = max(1, _HORNER_BLOCK // P)
        for i in range(0, len(pts), chunk):
            t = _mic_delays(pts[i: i + chunk], array, far_field).T  # (M, g)
            w = np.exp((2j * math.pi * df) * t)
            wc = w.conj()
            z = np.empty((P, t.shape[1]), dtype=complex)  # e^{j 2 pi df tau_lm}
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
            np.multiply(t, 2j * math.pi * df * k_lo, out=w)  # in place: no (M, g) temporaries
            np.exp(w, out=w)
            np.conjugate(w, out=wc)
            for l, rows in spans:
                z[rows] = w[l]
            acc *= z
            for l, rows in spans:
                z[rows] = wc[l + 1:]
            acc *= z
            scores[i: i + chunk] = acc.real.sum(axis=0)
    counter.points += len(pts)
    counter.kernel_ops += len(pts) * P * int(np.count_nonzero(block.in_band))
    return scores


def srp_freq_map(gccs: SpectralBlock, grid: CandidateGrid, array: MicArray) -> SrpMap:
    """Frequency-domain SRP map over a grid (far-field for DOA grids)."""
    return SrpMap(grid, srp_freq_scores(grid.points, gccs, array, far_field=grid.is_doa), "frequency")


def make_time_scorer(lags: LagBlock, array: MicArray, far_field: bool = False):
    """points (N, 3) -> time-domain SRP scores (N,); feeds searches and tracking."""
    block, bounds = _lag_block(lags, array)

    def scorer(points: np.ndarray) -> np.ndarray:
        return _time_scores(lag_table(points, array, far_field, bounds), block, array, bounds)

    return scorer


def make_freq_scorer(gccs: SpectralBlock, array: MicArray, far_field: bool = False):
    """points (N, 3) -> frequency-domain SRP scores (N,); the block is checked once, here."""
    block = _spectral_block(gccs, array)

    def scorer(points: np.ndarray) -> np.ndarray:
        return srp_freq_scores(points, block, array, far_field=far_field)

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
    lags: LagBlock,
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
    pair; pairs always combine by summation. ``windows`` is the
    grid's lag_windows and ``bounds`` the array's
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
    lo = np.maximum(windows[0] + k, 0)  # each window's first and last column in the block
    hi = np.minimum(windows[1] + k, n - 1)
    if pooling == "max":
        pooled = _range_maxima(block.values, _range_query(lo, hi, n))
    else:  # prefix sums of [head, row]: a window sums to ext[hi + 1] - ext[lo]
        ext = np.empty((P, n + 1))
        ext[:, 0], ext[:, 1:] = block.head, block.values
        np.cumsum(ext, axis=1, out=ext)
        flat, row0 = ext.ravel(), np.arange(P)[:, None] * (n + 1)  # flat index of each row's start
        pooled = flat[row0 + hi + 1] - flat[row0 + lo]
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
    gccs: SpectralBlock, grid: CandidateGrid, array: MicArray
) -> PairwiseFreqScores:
    """The (P, G, F) steered-response tensor for weighted combination."""
    block = _spectral_block(gccs, array)
    pairs, mask = block.pairs, block.in_band
    freqs = np.fft.fftfreq(len(mask), d=1.0 / block.sample_rate)[mask]
    pts = grid.points
    # factored per mic, tau_lm = tau_l - tau_m: e^{+j 2 pi f tau_lm} per pair
    delays = _mic_delays(pts, array, grid.is_doa)
    phases = np.exp((2j * math.pi) * delays[:, :, None] * freqs[None, None, :])  # (G, M, F)
    tensor = np.empty((len(pairs), len(pts), len(freqs)))
    for j, pair in enumerate(pairs):
        steer = phases[:, pair.l, :] * np.conj(phases[:, pair.m, :])
        tensor[j] = (steer * block[pair].values[mask][None, :]).real
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
