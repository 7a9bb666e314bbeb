"""Multi-source localization by iterative source de-emphasis.

After a source is localized, its theoretical TDOA is notched out of
every pair's correlation with an inverted Gaussian,

    lag(tau) *= 1 - exp(-(tau - tau_hat)^2 / (2 sigma^2)),

and the map is rebuilt, letting the next-strongest source surface.
All pairs are notched at once: one (P,) TDOA vector and one notch
over the (P, 2K+1) lag block, in place on a LagBlock; a SpectralBlock
reaches that block by one irfft and returns by one rfft. The features
are one of these two blocks, rows in array.pairs() order.
No renormalization is applied, so successive peak scores are
comparable and an auto stopping rule (score floor relative to the
first peak) is possible. The stop rules are one function (_extend),
called by both loops: localize_multi runs a SpectralBlock's rounds,
and localize_multi_batch a batch of LagBlocks' rounds together, each
round searching every frame still extracting in one pruned pass over
the grid's cells, reading the lag windows cut once for the batch and
notched in place there. A LagBlock's single frame is a batch of one.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .features import LagBlock, SpectralBlock, _band_lags, half_from_lags
from .geometry import MicArray, tdoa_matrix
from .grids import CandidateGrid
from .search import argmax_search
from .srp_core import TimeCells, _window_argmax, _window_column, _window_lags, srp_freq_map, time_cells

_AUTO_CAP = 10  # hard cap on de-emphasis rounds in auto mode


@dataclass
class MultiConfig:
    """Multi-source settings.

    ``n_sources = None`` means auto: keep extracting while the peak
    score stays above score_floor times the first peak's score.
    ``notch_sigma`` is in seconds; None selects two samples at the
    array rate. ``min_source_distance`` (meters): extraction stops, with
    a warning, at the first peak closer than this to an accepted source.
    """

    n_sources: int | None = 1
    notch_sigma: float | None = None
    min_source_distance: float = 0.0
    score_floor: float = 0.4

    def __post_init__(self):
        if self.n_sources is not None and self.n_sources < 1:
            raise ValueError(f"n_sources must be >= 1 or None, got {self.n_sources}")
        if self.notch_sigma is not None and not self.notch_sigma > 0:
            raise ValueError(f"notch_sigma must be > 0, got {self.notch_sigma}")
        if self.min_source_distance < 0:
            raise ValueError("min_source_distance must be >= 0")
        if not (0.0 <= self.score_floor <= 1.0):
            raise ValueError(f"score_floor must lie in [0, 1], got {self.score_floor}")


@dataclass
class EstimateSet:
    """Localized sources, ordered by score (non-increasing)."""

    positions: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        self.scores = np.asarray(self.scores, dtype=float).reshape(-1)
        if len(self.positions) != len(self.scores):
            raise ValueError("positions and scores must have equal length")
        if np.any(np.diff(self.scores) > 0):
            raise ValueError("estimates must be ordered by non-increasing score")

    @classmethod
    def from_pairs(cls, pairs) -> "EstimateSet":
        """Build from (point, score) tuples, sorting by score (stable)."""
        if not pairs:
            return cls(np.zeros((0, 3)), np.zeros(0))
        pts = np.array([np.asarray(p, dtype=float).reshape(3) for p, _ in pairs])
        sc = np.array([float(s) for _, s in pairs])
        order = np.argsort(-sc, kind="stable")
        return cls(pts[order], sc[order])

    def records(self) -> list[dict]:
        """One {"x", "y", "z", "score"} dict per estimate, in order."""
        return [
            {"x": float(p[0]), "y": float(p[1]), "z": float(p[2]), "score": float(s)}
            for p, s in zip(self.positions, self.scores)
        ]

    def __len__(self) -> int:
        return len(self.scores)

    def __iter__(self):
        return iter(zip(self.positions, self.scores))


def default_notch_sigma(array: MicArray) -> float:
    """Two samples at the array rate, in seconds."""
    return 2.0 / array.sample_rate


def deemphasize(features: LagBlock | SpectralBlock, tdoa_hat, sigma: float):
    """Notch every pair's feature around its estimated TDOA, all pairs at once.

    ``features`` is a LagBlock, notched in place and returned, or a
    SpectralBlock, returned as a new block. ``tdoa_hat`` holds one TDOA
    in seconds per row, in row order. One notch covers the (P, 2K+1) lag
    block, which a SpectralBlock reaches by irfft (as lag_block) and
    leaves by one rfft, its band sliced back out. Exact zero at a notch
    center; beyond 6 sigma the relative change is below 1e-6. A cropped
    block is notched over the lags it holds. localize_multi_batch
    applies the same notch (_notch) to its time rounds' lag windows.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if isinstance(features, SpectralBlock):
        spectra, L = features.spectra, len(features.in_band) // 2
        block = _band_lags(lambda out, r0, r1: np.copyto(out, spectra[r0:r1]), len(spectra), features.band, L,
                           features.sample_rate)
    elif isinstance(features, LagBlock):
        block = features
    else:
        raise TypeError(f"features must be a LagBlock or a SpectralBlock, got {type(features).__name__}")
    lags, fs = block.values, block.sample_rate
    tdoa_hat = np.asarray(tdoa_hat, dtype=float)
    if tdoa_hat.shape != (len(lags),):
        raise ValueError(f"{tdoa_hat.size} tdoas for {len(lags)} pairs")
    k = block.max_lag
    worst = float(np.abs(tdoa_hat).max())
    if not worst <= k / fs:  # NaN fails too
        raise ValueError(f"tdoa {worst:.3e} s outside the lag range +/-{k / fs:.3e} s")
    taus = np.arange(-k, k + 1) / fs
    # beyond 8.66 sigma exp() < 2**-54 and the factor rounds to 1.0, so notching
    # only +-ceil(9 sigma fs) lags (at most a row) equals notching the whole row
    half_width = math.ceil(min(9.0 * sigma * fs, 2 * k + 1))
    for row, t in zip(lags, tdoa_hat):
        c = round(t * fs) + k
        w = slice(max(c - half_width, 0), c + half_width + 1)
        row[w] *= _notch(taus[w], t, sigma)
    if features is block:
        return block
    band = features.band
    spectra = half_from_lags(lags)[:, band].copy()  # the half spectra are freed here
    spectra[:, ~features.in_band[band]] = 0.0  # a hand-built band may have holes
    return SpectralBlock(spectra, band, features.in_band, fs, features.pairs)


def _notch(taus: np.ndarray, tdoa, sigma: float) -> np.ndarray:
    """The notch factor 1 - exp(-(tau - tau_hat)^2 / (2 sigma^2)) at lags ``taus`` (s)."""
    return 1.0 - np.exp(-((taus - tdoa) ** 2) / (2.0 * sigma**2))


def _extend(found: list, point: np.ndarray, score: float, cfg: MultiConfig) -> bool:
    """The stop rules of a frame's next peak, which is appended to ``found`` if accepted.

    True if extraction goes on: the caller notches the peak's TDOAs
    (_tdoa_hat) and maps again.
    """
    auto = cfg.n_sources is None
    if not found:
        if auto and score <= 0:
            warnings.warn("auto mode: first peak is non-positive; no sources found")
            return False
    elif auto and score < cfg.score_floor * found[0][1]:
        return False
    if cfg.min_source_distance > 0 and found:
        dists = np.linalg.norm(np.array([p for p, _ in found]) - point, axis=1)
        if dists.min() < cfg.min_source_distance:
            warnings.warn("new peak closer than min_source_distance to an accepted source; stopping")
            return False
    found.append((point, score))
    if len(found) >= (cfg.n_sources or _AUTO_CAP):
        return False
    if len(found) == 2:
        warnings.warn("extracting a third or later source: residual correlation noise grows with each cancellation")
    return True


def _tdoa_hat(point: np.ndarray, grid: CandidateGrid, array: MicArray) -> np.ndarray:
    """The (P,) TDOAs of an accepted peak, far-field on a DOA grid."""
    return tdoa_matrix(point[None, :], array, grid.is_doa)[0]


def localize_multi(
    features: LagBlock | SpectralBlock,
    grid: CandidateGrid,
    array: MicArray,
    cfg: MultiConfig | None = None,
) -> EstimateSet:
    """Iterative multi-source localization over a grid, in one frame.

    features is a LagBlock (time-domain maps), localized as a batch of
    one (localize_multi_batch), or a SpectralBlock (frequency-domain
    maps), rows in array.pairs() order. A SpectralBlock's round maps it
    over the whole grid (srp_freq_map), takes the argmax, applies the
    stop rules (_extend) and notches the estimate's TDOAs from every
    pair (deemphasize). With n_sources = 1 the first round is exactly
    the single-source pipeline.
    """
    if not isinstance(features, SpectralBlock):
        return localize_multi_batch([features], grid, array, cfg)[0]
    cfg, found = cfg or MultiConfig(), []
    sigma = cfg.notch_sigma or default_notch_sigma(array)
    while True:
        res = argmax_search(srp_freq_map(features, grid, array))
        if not _extend(found, res.estimate, res.score, cfg):
            return EstimateSet.from_pairs(found)
        features = deemphasize(features, _tdoa_hat(res.estimate, grid, array), sigma)


def localize_multi_batch(
    batch: Iterable[LagBlock],
    grid: CandidateGrid,
    array: MicArray,
    cfg: MultiConfig | None = None,
    cells: TimeCells | None = None,
) -> list[EstimateSet]:
    """Iterative time-domain multi-source localization of each frame of a batch over a grid.

    ``batch`` is an iterable of each frame's LagBlock, rows in
    array.pairs() order, read once; anything else is a TypeError. Each
    round searches every still-active frame's time map, takes its
    argmax, applies the stop rules (_extend) and notches the estimate's
    theoretical TDOAs from every pair; each frame keeps its own notch,
    stop rules and warnings, so its estimates equal those of a batch of
    one. With n_sources = 1 the first round is exactly the single-source
    pipeline. The search is exhaustive: the de-emphasis loop is defined
    on the full-grid argmax. Rounds share the grid's cells, ``cells``
    (time_cells) if prepared, else built here, and each pair's lag
    windows -D_j..D_j of every frame (D = array.lag_bounds), cut from
    each LagBlock as it is read, which is then let go, so a generator's
    blocks go one by one, into one (S, F) array (as srp_core._windows),
    the only state a round keeps. A round searches all active frames in
    one pass over the cells (srp_core._window_argmax, which builds its
    own views of the array), an accepted frame's column is notched in
    place, deemphasize's notch over lags -D_j..D_j, the only lags a time
    map reads, and a stopped frame's column is dropped; the caller's
    blocks are never written.
    """
    cfg = cfg or MultiConfig()
    work = list(map(lambda block: _window_column(block, array), batch))  # map keeps no block once cut
    if not work:
        return []
    values, work = np.stack(work, axis=1), None  # the batch's lag windows, notched in place round after round
    if cells is None:
        cells = time_cells(grid, array)
    sizes = 2 * array.lag_bounds + 1
    taus = _window_lags(array) / array.sample_rate
    sigma = cfg.notch_sigma or default_notch_sigma(array)
    found: list[list[tuple[np.ndarray, float]]] = [[] for _ in range(values.shape[1])]
    active = list(range(len(found)))
    while active:  # column c of the windows is frame active[c]
        idx, scores = _window_argmax(cells, values)
        still, cols = [], []
        for c, (i, j, score) in enumerate(zip(active, idx, scores)):
            point = grid.take(j)
            if _extend(found[i], point, float(score), cfg):
                col = values[:, c]  # deemphasize's notch over lags -D_j..D_j of each pair
                col *= _notch(taus, np.repeat(_tdoa_hat(point, grid, array), sizes), sigma)
                still.append(i)
                cols.append(c)
        if still and len(still) < len(active):  # drop the stopped frames' columns
            values = values[:, cols]
        active = still
    return [EstimateSet.from_pairs(estimates) for estimates in found]
