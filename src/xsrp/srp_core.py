"""Steered-response-power maps.

A map assigns each candidate location the power of a beamformer
steered at it, accumulated over microphone pairs:

  time domain       score(u) = sum_pairs lag[round(tau_lm(u) * fs)]
  frequency domain  score(u) = sum_pairs sum_f Re(gcc[f] e^{j 2 pi f tau_lm(u)})
  volumetric        score(V) = sum_pairs pool(lag[k], k in TDOA bounds of V)
  weighted          configurable per-frequency / per-pair combination

Cartesian grids use exact TDOAs, DOA grids the far-field form; the two
are never mixed within one map, which passes grid.is_doa to geometry's
tof_matrix or tdoa_matrix (the one place that chooses), and the
scorers (make_time_scorer, make_freq_scorer) steer positions only.
Time and volumetric maps read one LagBlock per frame, frequency maps
one SpectralBlock, rows in array.pairs() order, and take no other
form. The time map reads each pair's lag window -D..D, D =
round(max_tdoa * fs) + 1, the array's own bound (MicArray.lag_bounds),
through a table of offsets rint(tau * fs) + D (lag_table, from
geometry's tdoa_matrix), so a block cropped to +/-max D serves every
map of the array. Every
time score builds its points' table columns a block at a time and
gathers them (_time_scores): srp_time_map and the scorers over all their
points, time_argmax, which finds a batch of frames' argmaxes, over only
the boxes of grid points (TimeCells) whose bound, from each pair's TDOA
interval over the box, can reach the best score found. The frequency map
evaluates each pair's polynomial in the block's uniform DFT bins exactly
by baby-step giant-step: per block of points, one matrix product per
pair and about 2 sqrt(K) array passes for K bins, steered by per-mic
phasors (M complex exponentials per point). A module-level counter,
written by _count alone, tracks candidate scorings and steering-kernel
evaluations so complexity claims can be checked: each frame's map,
alone or in a batch, adds G points and G * P kernel ops (time,
volumetric; for time_argmax, those of the map it certifies) or
G * P * |F| (frequency), |F| the in-band bin count: the complexity
model's unit, not a count of multiplies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .features import LagBlock, SpectralBlock, _equal_parts, _floor_weights
from .geometry import MicArray, MicPair, max_tdoa, tdoa_matrix, tof_matrix
from .grids import _CORNERS, CandidateGrid, Volume, VolumeGrid


@dataclass
class EvalCounter:
    """Running totals: candidates scored and steering kernels evaluated."""

    points: int = 0
    kernel_ops: int = 0

    def reset(self) -> None:
        self.points = 0
        self.kernel_ops = 0


#: global counter; reset() it around a measurement. Updated once per
#: map build, or once per pass of a batch of frames by the frames' maps.
counter = EvalCounter()


def _count(points: int, kernel_ops: int) -> None:
    """Add candidate scorings and steering-kernel evaluations to the counter: its one writer."""
    counter.points += points
    counter.kernel_ops += kernel_ops


@dataclass
class SrpMap:
    """Finite scores over a candidate grid or volume grid, one per candidate, in grid order."""

    grid: CandidateGrid | VolumeGrid
    scores: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float)
        if len(self.scores) != len(self.grid):
            raise ValueError(
                f"{len(self.scores)} scores for {len(self.grid)} candidates"
            )
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("map scores must be finite")

    @property
    def points(self) -> np.ndarray:
        return self.grid.points

    def __len__(self) -> int:
        return len(self.grid)


def _lag_block(lags: LagBlock, array: MicArray) -> LagBlock:
    """``lags``, checked to be a LagBlock with a row per pair that covers its bound D (MicArray.lag_bounds)."""
    if not isinstance(lags, LagBlock):
        raise TypeError(f"time features must be a LagBlock, got {type(lags).__name__}")
    pairs, bounds = array.pairs(), array.lag_bounds
    if len(lags.values) != len(pairs):
        raise ValueError(f"lag block has {len(lags.values)} rows for {len(pairs)} pairs")
    short = np.flatnonzero(lags.max_lag < bounds)
    if short.size:
        j = short[0]
        raise ValueError(
            f"lag block for pair ({pairs[j].l}, {pairs[j].m}) covers +/-{lags.max_lag} "
            f"samples but the baseline needs {bounds[j]}; use longer frames"
        )
    return lags


def _spectral_block(gccs: SpectralBlock, array: MicArray) -> SpectralBlock:
    """``gccs``, checked to be a SpectralBlock with rows in array.pairs() order."""
    if not isinstance(gccs, SpectralBlock):
        raise TypeError(f"frequency features must be a SpectralBlock, got {type(gccs).__name__}")
    if gccs.pairs != array.pairs():
        raise ValueError("spectral block rows must be the array's pairs, in array.pairs() order")
    return gccs


def lag_table(points: np.ndarray, array: MicArray, far_field: bool = False) -> np.ndarray:
    """Nearest-lag steering of every pair and point, offset into [0, 2 D], (P, n).

    ``points`` are (n, 3). Entry [j, g] is rint(tau_j(u_g) * fs) + D_j
    (D = array.lag_bounds), so row j
    indexes the lag window -D_j..D_j directly; the dtype is the smallest
    unsigned one holding 2 max D, uint16 for any room-sized array.
    The TDOAs are tdoa_matrix's (far-field for DOA points, as
    ``far_field``), read pair-major through its transpose, then one
    scale/rint/offset pass, so a point's column does not depend on the
    other points.
    """
    bounds = array.lag_bounds
    tau = tdoa_matrix(points, array, far_field).T
    tau *= array.sample_rate
    table = np.empty(tau.shape, dtype=np.min_scalar_type(2 * bounds.max()))
    np.add(np.rint(tau, out=tau), bounds[:, None], out=table, casting="unsafe")
    return table


def _windows(blocks: list[LagBlock], array: MicArray) -> np.ndarray:
    """Each pair's lag window -D_j..D_j of every frame: one (S, F) array, S = sum(2 D_j + 1),
    pair after pair, whose (2 D_j + 1, F) row views (_pair_windows) the time scores read.

    Take costs about the same per index whether it fetches one float or
    a row of F, so a batch of frames shares each pass over a lag table.
    """
    return np.stack([_window_column(b, array) for b in blocks], axis=1)


def _window_column(block: LagBlock, array: MicArray) -> np.ndarray:
    """A block's column of _windows' (S, F) array, the block checked (_lag_block): its lags -D_j..D_j
    of each pair, pair after pair."""
    bounds, k = array.lag_bounds, _lag_block(block, array).max_lag
    d = int(bounds.max())
    return block.values[:, k - d: k + d + 1][np.abs(np.arange(-d, d + 1)) <= bounds[:, None]]


def _window_lags(array: MicArray) -> np.ndarray:
    """The lag of each row of _windows' (S, F) array, (S,): -D_j..D_j, pair after pair."""
    return np.concatenate([np.arange(-d, d + 1) for d in array.lag_bounds])


def _pair_windows(values: np.ndarray, array: MicArray) -> list[np.ndarray]:
    """The (2 D_j + 1, F) row views of each pair's window in an (S, F) array of _windows."""
    return np.split(values, np.cumsum(2 * array.lag_bounds[:-1] + 1))


#: points per block of lag_table columns in _time_scores, through which
#: every time score goes. A block's columns, TDOAs and times of flight
#: hold about 420 bytes a point, so larger blocks raise a run's peak by
#: as many bytes as a round has survivors: over time3d_multi seeds 0-11
#: the tracemalloc peak of a command spread over 1.08-1.15 MiB at blocks
#: of 512 points, 1.08-1.20 at 1,024 and 1.08-1.33 at 2,048, 4,096 and
#: 16,384, and a command took 19.1, 18.6, 18.7, 18.7 and 18.8 ms of
#: thread CPU (median over the seeds of 3 interleaved commands each). A
#: one-frame map of 90,000 points at 8 mics took 24-41 ms and peaked at
#: 1.32 MiB
_COLUMN_BLOCK = 1024


def _time_scores(points, wins: list[np.ndarray], array: MicArray, far_field: bool):
    """Scores (n, F) of n points, a CandidateGrid or (n, 3), in F frames' lag windows (_windows).

    Their lag_table columns are built _COLUMN_BLOCK points at a time and
    gathered: from 0.0, each pair's lag at its offset, in pairs() order,
    so a point's score does not depend on the other points.
    """
    grid, n = isinstance(points, CandidateGrid), len(points)
    scores = np.zeros((n, wins[0].shape[1]))
    for i in range(0, n, _COLUMN_BLOCK):
        j = min(i + _COLUMN_BLOCK, n)
        table = lag_table(points.take(np.arange(i, j)) if grid else points[i:j], array, far_field)
        acc = scores[i:j]
        for win, row in zip(wins, table):
            acc += win.take(row, axis=0)
    return scores


def _range_query(ranges, shape: tuple, width: int) -> tuple:
    """Where _range_maxima reads the maximum over each range [lo, hi] of a (P, C) array of ranges.

    ``ranges`` yields (rows, cols, lo, hi), lo and hi (n, c) each: the
    ranges, of at most ``width`` entries, of a block of rows and columns.
    A range of n entries is the union of the runs of 2^k entries, k =
    floor(log2 n), that start at lo and end at hi: entries lo and hi -
    2^k + 1 of level k of a range-max table, flattened over levels
    ``width`` entries long. Returns (first, second, each row's top level
    over its blocks, width), in the smallest unsigned dtype for any.
    """
    dtype = np.min_scalar_type(width.bit_length() * width)
    first, second = np.empty(shape, dtype), np.empty(shape, dtype)
    tops = np.zeros(shape[0], dtype=int)
    for rows, cols, lo, hi in ranges:
        n = hi - lo
        n += 1
        k = np.frexp(n)[1]  # exact: n < 2^53
        k -= 1  # floor(log2 n)
        np.maximum(tops[rows], k.max(axis=1, initial=0), out=tops[rows])
        np.left_shift(1, k, out=n, casting="unsafe")
        k *= width
        np.add(k, lo, out=first[rows, cols], casting="unsafe")
        np.subtract(k, n, out=n)
        n += hi
        n += 1
        second[rows, cols] = n
        del n, k  # before the next block's ranges are made
    return first, second, tops, width


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


#: grid points per cell of time_cells: index boxes of edge
#: round(_CELL_POINTS^(1/k)) on a lattice, sorted cells otherwise. On the
#: 90k-point time3d_multi lattice, boxes of 27, 64, 125 and 216 points
#: took 4.7, 1.8, 1.0 and 0.8 ms to build; over seeds 0-29 the first
#: three scored 32,139, 84,256 and 171,375 points at 24.5, 21.4 and 21.0
#: ms a command (medians of 4 interleaved passes, 8 seed cells)
_CELL_POINTS = 64

#: cells per frame whose members time_argmax scores first. Over
#: time3d_multi seeds 0-29, 1, 2, 4, 8, 16 and 32 seed cells scored
#: 181,056, 97,056, 81,280, 84,256, 100,544 and 164,288 points at 22.0,
#: 21.4, 21.1, 20.9, 21.0 and 21.9 ms a command (as above)
_SEED_CELLS = 8


@dataclass
class TimeCells:
    """A grid's points in boxes (time_cells) and the _range_query of each
    pair's range of lag_table offsets over each box. A lattice's boxes
    are index boxes, given by each axis's box starts (``parts``); other
    grids' by each point's box, (G,) (``cell``)."""

    grid: CandidateGrid
    array: MicArray
    cell: np.ndarray | None
    parts: tuple | None
    query: tuple


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


def _lattice_boxes(axes, parts):
    """Corners lo and hi, (3, C) each, of index boxes: the product, in C order, of each axis's
    intervals [parts[a][i], parts[a][i + 1]) of indices. A corner is the min or max of an axis slice."""
    shape = tuple(len(p) for p in parts)
    at = np.unravel_index(np.arange(math.prod(shape)), shape)
    lo, hi = np.empty((3, len(at[0]))), np.empty((3, len(at[0])))
    for a, p, i, a_lo, a_hi in zip(axes, parts, at, lo, hi):
        a_lo[:] = np.minimum.reduceat(a, p).take(i)
        a_hi[:] = np.maximum.reduceat(a, p).take(i)
    return lo, hi


def _lattice_members(shape, parts, keep: np.ndarray, step: int):
    """Yield the grid indices of the index boxes ``keep`` (C,) bool, ascending, in blocks.

    The points of a box that share x and y indices are a run of
    consecutive indices, and runs ordered by (x, y, z box) start in
    ascending order. A block holds the runs of step // w of them, w the
    longest z interval, so at most max(step, w) indices.
    """
    nx, ny, nz = shape
    px, py, pz = parts
    owner = [np.repeat(np.arange(len(p)), np.diff(p, append=n)) for p, n in ((px, nx), (py, ny))]
    runs = np.flatnonzero(keep.reshape(len(px), len(py), len(pz))[owner[0]][:, owner[1]])
    lens = np.diff(pz, append=nz)
    offs = np.arange(lens.max())
    per = max(1, step // len(offs))
    for i in range(0, len(runs), per):
        xy, b = np.divmod(runs[i: i + per], len(pz))
        yield (xy[:, None] * nz + pz.take(b)[:, None] + offs)[offs < lens.take(b)[:, None]]


def _box_tdoas(lo: np.ndarray, hi: np.ndarray, array: MicArray, far_field: bool):
    """Yield (rows, tau_min, tau_max): each pair's TDOA interval over boxes [lo, hi], (3, C) each,
    in samples, (n, C) for mic l's pairs, rows ``rows`` of pairs(), in buffers the next mic's overwrite.

    Near field: a mic at o = c0 - v from the box centre, r = |o|, is at
    |u - v| in [r + o.e / r, that + |e|^2 / (2 r)] from u = c0 + e (a
    convex function's tangent plane; sqrt(r^2 + x) <= r + x / (2 r)). So
    with |e_a| <= h_a, tau_lm lies in r_l - r_m -/+ sum_a |w_la - w_ma|,
    w_a = o_a h_a / r, widened by q = |h|^2 / (2 r) of m below and of l
    above, and in [near_l - far_m, far_l - near_m] (the clamped point,
    the farthest corner), which holds where a mic is in or by the box (q
    = inf at r = 0). Far field: tau_lm = u . (v_m - v_l) / c is linear:
    r = -c0 . v and w_a = -v_a h_a bound it exactly, q = 0, no enclosure.
    """
    fs_c, pos, C = array.sample_rate / array.speed_of_sound, array.positions, lo.shape[1]
    near, far, r, q = dist = np.zeros((4, len(pos), C))
    w, (t, u) = np.empty((3, len(pos), C)), np.empty((2, len(pos), C))
    centre, half = (lo + hi) / 2, (hi - lo) / 2
    for v, c0, h, w_a in zip(pos.T[:, :, None], centre, half, w):
        if far_field:
            r -= np.multiply(c0, v, out=t)
            np.multiply(v, -h, out=w_a)
            continue
        r += np.square(np.subtract(c0, v, out=w_a), out=t)
        far += np.square(np.add(np.abs(w_a, out=t), h, out=u), out=u)
        t -= h
        near += np.square(np.maximum(t, 0.0, out=t), out=t)
        w_a *= h
    del t, u  # before the pairs' buffers are made
    if far_field:
        near[:], far[:] = -np.inf, np.inf
    else:
        np.sqrt(dist[:3], out=dist[:3])
        np.divide(w, r, out=w, where=r > 0)  # o = 0 where r = 0
        np.divide((half**2).sum(axis=0) / 2, r, out=q, where=r > 0)
        q[r == 0] = np.inf
    dist *= fs_c  # in samples
    w *= fs_c
    out = np.empty((2, len(pos) - 1, C))
    for l, rows in array.pair_rows():
        m = slice(l + 1, None)
        t_lo, t_hi = out[:, : rows.stop - rows.start]
        np.subtract(r[l], r[m], out=t_hi)
        np.subtract(t_hi, q[m], out=t_lo)
        t_hi += q[l]
        spread, tmp = np.zeros((2,) + t_hi.shape)
        for w_a in w:
            spread += np.abs(np.subtract(w_a[l], w_a[m], out=tmp), out=tmp)
        t_hi += spread
        t_lo -= spread
        np.minimum(t_hi, np.subtract(far[l], near[m], out=spread), out=t_hi)
        np.maximum(t_lo, np.subtract(near[l], far[m], out=spread), out=t_lo)
        del spread, tmp  # while the caller reads this mic's pairs
        yield rows, t_lo, t_hi


#: boxes per block of _box_query, whose per-mic interval terms
#: (_box_tdoas) hold about 9 M floats a box. time_cells on time3d_multi's
#: 8 mics over the 0.1 m lattice of its room (1,560 boxes) took 4.2,
#: 2.9, 2.0 and 1.6 ms of thread CPU (medians of 40 interleaved calls,
#: 2-core host) at blocks of 256, 512, 1,024 (two of 780) and 2,048 or
#: more boxes, at tracemalloc peaks of 0.43, 0.58, 0.91 and 1.40 MiB;
#: over the 0.05 m lattice (720,000 points, 11,250 boxes) 35, 24, 17, 15
#: and 13 ms at 256, 512, 1,024, 2,048 and 4,096 boxes, at 1.94, 2.16,
#: 2.59, 3.27 and 4.76 MiB (one block: 13 ms, 9.75 MiB). A block costs
#: about 0.4 ms of numpy calls, whatever its size
_BOX_BLOCK = 1024


def _box_query(lo: np.ndarray, hi: np.ndarray, array: MicArray, far_field: bool):
    """The _range_query of each pair's lag_table offsets over boxes [lo, hi], (3, C) each.

    The lags of each pair's TDOA interval (_box_tdoas), [floor(tau_min
    fs) - 1, ceil(tau_max fs) + 1], clipped to +/-D: the extra lag on
    each side absorbs the float rounding of the interval and of
    lag_table. Built in the fewest equal blocks of at most _BOX_BLOCK
    boxes, a mic's pairs at a time: no (P, C) temporaries, and per-mic
    terms of one block of boxes only.
    """
    bounds = array.lag_bounds

    def ranges():
        edges = _equal_parts(lo.shape[1], _BOX_BLOCK)
        for cols in map(slice, edges[:-1], edges[1:]):
            for rows, t_lo, t_hi in _box_tdoas(lo[:, cols], hi[:, cols], array, far_field):
                d = bounds[rows, None]
                for t, rnd, step in ((t_lo, np.floor, -1), (t_hi, np.ceil, 1)):
                    rnd(t, out=t)
                    t += d + step
                    np.clip(t, 0, 2 * d, out=t)
                yield rows, cols, t_lo, t_hi

    return _range_query(ranges(), (len(bounds), lo.shape[1]), 2 * int(bounds.max()) + 1)


def time_cells(grid: CandidateGrid, array: MicArray) -> TimeCells:
    """The cells of time_argmax over a grid: boxes of about _CELL_POINTS points.

    A lattice's boxes are index boxes of edge _CELL_POINTS^(1/k) indices
    on its k axes longer than one point (4 x 4 x 4, or 8 x 8 when
    planar), built from its axes alone: no point, sort or (G,) array is
    made. Other grids (DOA, hand-built points) are boxed by _cell_boxes.
    Each box's lag ranges come from each pair's TDOA interval over it,
    built in blocks of boxes (_box_query) and clipped to the array's
    lag_bounds.
    """
    if grid.axes is None:
        (cell, lo, hi), parts = _cell_boxes(grid.points), None
    else:
        k = sum(n > 1 for n in grid.shape)
        edge = max(1, round(_CELL_POINTS ** (1 / k))) if k else 1
        cell, parts = None, tuple(np.arange(0, n, edge) for n in grid.shape)
        lo, hi = _lattice_boxes(grid.axes, parts)
    return TimeCells(grid, array, cell, parts, _box_query(lo, hi, array, grid.is_doa))


def _cell_bounds(query: tuple, wins: list[np.ndarray], amax: np.ndarray) -> np.ndarray:
    """Each box's upper bound on its members' scores in every frame, (C, F), from its _range_query.

    The sum from 0.0, in pairs() order, of each pair's largest lag over
    the box's range: rounded addition is monotone, so it is at least
    each member's float score. ``amax`` (F,) bounds each frame's |lag|
    over its windows (_window_amax); a frame that could sum to a
    non-finite score (a non-finite lag, or P amax near the float
    maximum) gets +inf, so all its boxes are scored.
    """
    upper = np.zeros((query[0].shape[1], len(amax)))
    for m in _range_maxima(wins, query):
        upper += m
    upper[:, ~(amax < np.finfo(float).max / 2 / len(wins))] = np.inf  # P * amax < max: finite sums
    return upper


def _window_amax(values: np.ndarray) -> np.ndarray:
    """Each frame's max |lag| over an (S, F) array of _windows (NaN if it holds one), (F,).

    A column at a time: at S = 8,532 and F = 4 (time3d_multi, 2-core
    host) that took 70 us, and one max and min over axis 0 460 us.
    """
    cols = values.T
    return np.maximum([c.max() for c in cols], [-c.min() for c in cols])


def _score_points(cells: TimeCells, keep, wins, best, idx) -> None:
    """Score the points of the cells ``keep`` (C,) bool and update each frame's best, in place.

    Points go in ascending blocks of about _COLUMN_BLOCK (_time_scores).
    Scores are checked finite as SrpMap does. A peak replaces a frame's
    best if greater, or equal at a lower index.
    """
    cols = np.arange(len(best))
    if cells.parts is not None:
        chunks = _lattice_members(cells.grid.shape, cells.parts, keep, _COLUMN_BLOCK)
    else:
        members = np.flatnonzero(keep.take(cells.cell))
        chunks = (members[i: i + _COLUMN_BLOCK] for i in range(0, len(members), _COLUMN_BLOCK))
    for part in chunks:
        scores = _time_scores(cells.grid.take(part), wins, cells.array, cells.grid.is_doa)
        if not np.isfinite(scores).all():
            raise ValueError("map scores must be finite")
        j = scores.argmax(axis=0)
        peak, at = scores[j, cols], part[j]
        del scores  # before the next block's are made
        better = (peak > best) | ((peak == best) & (at < idx))
        best[better], idx[better] = peak[better], at[better]


def time_argmax(cells: TimeCells, blocks: list[LagBlock]):
    """Argmax and peak score of each frame's time map over a grid's cells, (F,) each.

    ``blocks`` are the frames' LagBlocks, each checked to hold a row per
    pair of the cells' array that covers its lag_bounds. Cuts their lag
    windows and searches them (_window_argmax).
    """
    return _window_argmax(cells, _windows(blocks, cells.array))


def _window_argmax(cells: TimeCells, values: np.ndarray):
    """Argmax and peak score of each frame's time map over a grid's cells, (F,) each, from its lag windows.

    ``values`` is the batch's (S, F) array of _windows; its per-pair
    views (_pair_windows) and the bound on each frame's |lag| over it
    (_window_amax) are built on each call, so a caller that notches
    columns in place or drops them holds the array alone. Equal to
    argmax_search(srp_time_map(...)) per frame, bit for bit: the members
    of each frame's _SEED_CELLS best-bounded cells are scored, then
    those of every other cell whose bound is not below some frame's best
    (so ties and NaN are scored). A skipped point scores below its
    frame's peak, so the peak and its lowest index are found. The
    counter adds what srp_time_map would, G points and G * P kernel ops
    per frame: the exhaustive map the search certifies.
    """
    wins = _pair_windows(values, cells.array)
    G, F = len(cells.grid), values.shape[1]
    _count(G * F, G * len(wins) * F)
    upper = _cell_bounds(cells.query, wins, _window_amax(values))
    C = len(upper)
    seeds = np.zeros(C, dtype=bool)
    n = min(_SEED_CELLS, C)
    seeds[np.argpartition(upper, C - n, axis=0)[C - n:]] = True
    best, idx = np.full(F, -np.inf), np.zeros(F, dtype=np.intp)
    _score_points(cells, seeds, wins, best, idx)
    rest = ~(upper < best).all(axis=1) & ~seeds
    del upper, seeds
    _score_points(cells, rest, wins, best, idx)
    return idx, best


def srp_time_scores(points: np.ndarray, lags: LagBlock, array: MicArray) -> np.ndarray:
    """Time-domain SRP at arbitrary positions (n, 3): nearest-lag projection."""
    return make_time_scorer(lags, array)(points)


def srp_time_map(lags: LagBlock, grid: CandidateGrid, array: MicArray) -> SrpMap:
    """Time-domain SRP map over a grid (far-field for DOA grids).

    Reads each pair's lags -D..D of the block (D = array.lag_bounds) and
    scores every point, _COLUMN_BLOCK lag_table columns at a time
    (_time_scores): the exhaustive map that time_argmax searches.
    """
    scores = _time_scores(grid, _pair_windows(_windows([lags], array), array), array, grid.is_doa)
    _count(len(grid), len(grid) * array.n_pairs)
    return SrpMap(grid, scores[:, 0])


#: most points per block of srp_freq_scores, and most pair-points per
#: group of pairs in a block. The points are split into equal blocks of
#: at most this many, so the tracker's 1,000 particles are one block and
#: take one pair at a time. A block of g points splits each mic's pair
#: rows into the fewest equal groups of at most _FREQ_BLOCK // g pairs,
#: side by side in flat rows, so the 80-100 point calls of refine and
#: source searches make a few numpy calls per group, not per pair (8
#: mics, K = 115, 100 points: 0.6-0.9 ms, against 1.2-2.1 ms a pair at a
#: time). The size trades map speed for peak memory, as a group's A + B
#: rows grow with sqrt(K): at K = 973 a 90k-point map took 1.8, 1.0-1.2,
#: 0.9 and 0.9 s in blocks of at most 512, 1024, 2048 and 4096 points
#: (2-core host), and a 4,000-point call peaked at 2.7 MiB in blocks of
#: 1,000 points and 4.9 MiB in blocks of 2,000
_FREQ_BLOCK = 1024


def _freq_coefficients(block: SpectralBlock) -> np.ndarray:
    """(P, A, B): each pair's fold-weighted bins k_lo + aB + b at [a, b], zero-padded to A * B.

    A negative-frequency bin of a conjugate-symmetric GCC adds the same
    real part as its positive twin, so the fold weights are the two-sided
    bins per half bin (features._floor_weights), 0 out of band. K =
    block.spectra.shape[1] bins, B = ceil(sqrt(K)), A = ceil(K / B);
    (P, 0, 1) for an empty band.
    """
    P, K = block.spectra.shape
    B = math.isqrt(max(K - 1, 0)) + 1
    A = -(-K // B)
    coef = np.zeros((P, A * B), dtype=complex)
    fold = _floor_weights(block.band, len(block.in_band) // 2) * block.in_band[block.band]
    np.multiply(block.spectra, fold, out=coef[:, :K])
    return coef.reshape(P, A, B)


def srp_freq_scores(
    points: np.ndarray,
    gccs: SpectralBlock,
    array: MicArray,
    far_field: bool = False,
    *,
    _coef: np.ndarray | None = None,
) -> np.ndarray:
    """Frequency-domain SRP at arbitrary points, from a SpectralBlock's (P, nb) bins alone.

    The two-sided in-band sum is folded onto the f >= 0 bins k = 0..n/2
    (_freq_coefficients), which are uniform, f_k = k fs/n, so each pair's
    sum is a polynomial in z = e^{j 2 pi (fs/n) tau}: e^{j 2 pi f_lo tau}
    sum_k c_k z^(k - k_lo), c_k the block's bins times the fold weights.
    Its K coefficients, zero-padded to A x B (_freq_coefficients), are
    evaluated exactly by baby-step giant-step (Paterson & Stockmeyer,
    1973): per pair, the baby powers z^0..z^(B-1) of a block of points,
    one matrix product Q = C_pair @ powers, and Horner's rule in
    y = z^B over Q's A rows, about 2 sqrt(K) array passes in all. As
    tau_lm = t_l - t_m, z is the product w_l conj(w_m) of per-mic
    phasors (M complex exponentials per point, not P); the band start
    e^{j 2 pi f_lo tau} = z^k_lo is z^r y^e0, (e0, r) = divmod(k_lo, B).
    A block's pairs are taken in groups of one mic's consecutive pair
    rows (_FREQ_BLOCK), side by side in flat rows, with one stacked
    product per group, one BLAS call per pair. Scores match the direct
    two-sided sum to 3.4e-13 of the map's peak (worst from bin 3000, at
    n = 8192, 8 mics, 40, 100 and 1,000 points, near and far field,
    bands from bin 0, 1000 or 3000 up to Nyquist). ``_coef`` must be
    _freq_coefficients of this same block, laid out once by a caller
    that scores it many times (make_freq_scorer). The counter adds
    G * P * |F|, |F| = in_band.sum().
    """
    block = _spectral_block(gccs, array)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    G = len(pts)
    scores = np.zeros(G)
    coef = _freq_coefficients(block) if _coef is None else _coef
    _, A, B = coef.shape
    if A and G:
        df = block.sample_rate / len(block.in_band)
        phase = 2j * math.pi * df
        e0, r = divmod(block.band.start, B)  # z^k_lo = z^r y^e0
        edges = _equal_parts(G, _FREQ_BLOCK)
        for i, j in zip(edges[:-1], edges[1:]):
            w = np.multiply(np.ascontiguousarray(tof_matrix(pts[i:j], array, far_field).T), phase)  # (M, g)
            np.exp(w, out=w)  # e^{j 2 pi df t}
            g, acc = j - i, scores[i:j]
            most = max(1, _FREQ_BLOCK // g)  # pairs per group
            # rows of B powers, A giant steps and z (then y) for a
            # group's pairs, each pair's g points in turn
            bufs = np.empty((B + A + 1, min(most, array.n_mics - 1) * g), dtype=complex)
            for l, rows in array.pair_rows():  # pairs (l, l+1..M-1), block rows ``rows``
                parts = _equal_parts(rows.stop - rows.start, most)
                for a0, a1 in zip(parts[:-1], parts[1:]):
                    n, ms = a1 - a0, slice(l + 1 + a0, l + 1 + a1)
                    powers, q, z = bufs[:B, : n * g], bufs[B: B + A, : n * g], bufs[-1, : n * g]
                    zn, qn = z.reshape(n, g), q[0].reshape(n, g)  # a row per pair
                    # z = e^{j 2 pi df tau_lm} = conj(w_m) w_l, in place: numpy
                    # rounds a one-point block's broadcast product as a flat one only in place
                    np.conjugate(w[ms], out=zn)
                    np.multiply(zn, w[l], out=zn)
                    powers[0] = 1.0  # z^0, reset: the band start overwrites it when r = 0
                    for b in range(1, B):
                        np.multiply(powers[b - 1], z, out=powers[b])
                    y = np.multiply(powers[B - 1], z, out=z)  # y = z^B, over the spent z
                    # one BLAS product per pair: its (A, B) coefficients by its (B, g) powers
                    np.matmul(
                        coef[rows][a0:a1],
                        powers.reshape(B, n, g).transpose(1, 0, 2),
                        out=q.reshape(A, n, g).transpose(1, 0, 2),
                    )
                    for a in range(A - 2, -1, -1):
                        np.multiply(q[a + 1], y, out=q[a + 1])
                        np.add(q[a], q[a + 1], out=q[a])
                    # the band start e^{j 2 pi f_lo tau} = z^r y^e0 into powers[r], e0's bits lowest first
                    for bit in bin(e0)[:1:-1]:
                        if bit == "1":
                            np.multiply(powers[r], y, out=powers[r])
                        np.multiply(y, y, out=y)  # the spent y squared in place
                    np.multiply(q[0], powers[r], out=q[0])
                    for row in qn.real:
                        acc += row
    _count(G, G * len(block.pairs) * int(np.count_nonzero(block.in_band)))
    return scores


def srp_freq_map(gccs: SpectralBlock, grid: CandidateGrid, array: MicArray) -> SrpMap:
    """Frequency-domain SRP map over a grid (far-field for DOA grids)."""
    return SrpMap(grid, srp_freq_scores(grid.points, gccs, array, far_field=grid.is_doa))


def make_time_scorer(lags: LagBlock, array: MicArray):
    """positions (N, 3) -> time-domain SRP scores (N,); feeds searches and tracking.

    The block is checked and its lag windows cut once, here.
    """
    wins = _pair_windows(_windows([lags], array), array)

    def scorer(points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        scores = _time_scores(pts, wins, array, False)[:, 0]
        _count(len(pts), len(pts) * len(wins))
        return scores

    return scorer


def make_freq_scorer(gccs: SpectralBlock, array: MicArray):
    """positions (N, 3) -> frequency-domain SRP scores (N,).

    The block is checked and its coefficients laid out once, here.
    """
    block = _spectral_block(gccs, array)
    coef = _freq_coefficients(block)

    def scorer(points: np.ndarray) -> np.ndarray:
        return srp_freq_scores(points, block, array, _coef=coef)

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
) -> SrpMap:
    """Volumetric SRP: pool each pair's lags over the volume's TDOA bounds.

    A degenerate (zero-extent) volume with guard 0 reproduces the point
    SRP score at its center. Pooling is sum, mean or max per pair; pairs
    always combine by summation. ``windows`` is the grid's lag_windows
    when the caller has prepared them. Every pair is read over lags
    -D..D, D = max(array.lag_bounds), as time maps read it, so a block
    cropped to +/-D and an uncropped one give the same bits. Sum and
    mean pool by prefix sums from lag -D, so they can differ from a
    direct window sum in the last place; max is exact.
    """
    if pooling not in _POOLS:
        raise ValueError(f"pooling must be one of {_POOLS}, got {pooling!r}")
    block = _lag_block(lags, array)
    if windows is None:
        windows = lag_windows(volume_grid, array, guard)
    d, k = int(array.lag_bounds.max()), block.max_lag
    vals = block.values[:, k - d: k + d + 1]
    P, n = vals.shape
    lo = np.maximum(windows[0] + d, 0)  # each window's first and last column in vals
    hi = np.minimum(windows[1] + d, n - 1)
    if pooling == "max":
        pooled = _range_maxima(vals, _range_query([(slice(None), slice(None), lo, hi)], lo.shape, n))
    else:  # prefix sums from lag -D: a window sums to ext[hi + 1] - ext[lo]
        ext = np.empty((P, n + 1))
        ext[:, 0], ext[:, 1:] = 0.0, vals
        np.cumsum(ext, axis=1, out=ext)
        flat, row0 = ext.ravel(), np.arange(P)[:, None] * (n + 1)  # flat index of each row's start
        pooled = flat[row0 + hi + 1] - flat[row0 + lo]
        if pooling == "mean":
            pooled /= hi - lo + 1
    scores = np.zeros(len(volume_grid))
    for row in pooled:  # pairs combine in pairs() order
        scores += row
    _count(len(volume_grid), len(volume_grid) * P)
    return SrpMap(volume_grid, scores)


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
    n, bins = len(mask), np.flatnonzero(mask)
    freqs = np.fft.fftfreq(n, d=1.0 / block.sample_rate)[mask]
    # each two-sided bin's half-spectrum twin, conjugated past n/2
    rows = block.spectra[:, np.where(bins <= n // 2, bins, n - bins) - block.band.start]
    np.conjugate(rows, out=rows, where=bins > n // 2)
    pts = grid.points
    # factored per mic, tau_lm = tau_l - tau_m: e^{+j 2 pi f tau_lm} per pair
    delays = tof_matrix(pts, array, grid.is_doa)
    phases = np.exp((2j * math.pi) * delays[:, :, None] * freqs[None, None, :])  # (G, M, F)
    tensor = np.empty((len(pairs), len(pts), len(freqs)))
    for j, pair in enumerate(pairs):
        steer = phases[:, pair.l, :] * np.conj(phases[:, pair.m, :])
        tensor[j] = (steer * rows[j][None, :]).real
    _count(len(pts), len(pts) * len(pairs) * len(freqs))
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
    return SrpMap(pfs.grid, scores)
