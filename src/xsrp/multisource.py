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
first peak) is possible. A batch of frames runs its rounds together
(localize_multi_batch): each time-domain round searches every frame
still extracting in one pruned pass over the grid's cells.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .features import LagBlock, SpectralBlock, _band_lags, half_from_lags
from .geometry import MicArray, far_field_tdoa_matrix, tdoa_matrix
from .grids import CandidateGrid
from .search import SearchConfig, argmax_search
from .srp_core import TimeCells, _lag_block, _spectral_block, srp_freq_map, time_argmax, time_cells

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
    center; beyond 6 sigma the relative change is below 1e-6. A block's
    head, the sum of lags beyond it, is left as it is.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if isinstance(features, SpectralBlock):
        block = _band_lags(features.spectra, features.band, features.in_band, features.sample_rate)
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
        row[w] *= 1.0 - np.exp(-((taus[w] - t) ** 2) / (2.0 * sigma**2))
    if features is block:
        return block
    band = features.band
    spectra = half_from_lags(lags)[:, band].copy()  # the half spectra are freed here
    spectra[:, ~features.in_band[band]] = 0.0  # a hand-built band may have holes
    return SpectralBlock(spectra, band, features.in_band, fs, features.pairs)


def localize_multi(
    features: LagBlock | SpectralBlock,
    grid: CandidateGrid,
    array: MicArray,
    cfg: MultiConfig | None = None,
    search: SearchConfig | None = None,
) -> EstimateSet:
    """Iterative multi-source localization over a grid, in one frame.

    features is a LagBlock (time-domain maps) or a SpectralBlock
    (frequency-domain maps), rows in array.pairs() order. The batch of
    one of localize_multi_batch, which says what each round does.
    """
    return localize_multi_batch([features], grid, array, cfg, search)[0]


def localize_multi_batch(
    batch: list,
    grid: CandidateGrid,
    array: MicArray,
    cfg: MultiConfig | None = None,
    search: SearchConfig | None = None,
    cells: TimeCells | None = None,
    bounds: np.ndarray | None = None,
) -> list[EstimateSet]:
    """Iterative multi-source localization of each frame of a batch over a grid.

    ``batch`` holds each frame's features, all of one domain (see
    localize_multi). Each round maps every still-active frame, takes
    its argmax, appends the estimate, and notches its theoretical TDOA
    from every pair; each frame keeps its own notch, stop rules and
    warnings, so its estimates equal those of a batch of one. With
    n_sources = 1 the first round is exactly the single-source
    pipeline. Time-domain rounds search all active frames in one pass
    over the grid's cells (time_argmax), notch one lag block per frame
    (a copy of a caller's), and share the cells and the array's lag
    bounds: ``cells`` (time_cells) and ``bounds`` if prepared, else
    built here.

    Only exhaustive search is meaningful here (the de-emphasis loop
    is defined on the full-grid argmax); other modes are rejected.
    """
    cfg = cfg or MultiConfig()
    if search is not None and search.mode != "exhaustive":
        raise ValueError("localize_multi supports only exhaustive search")
    if not batch:
        return []
    odd = [f for f in batch if not isinstance(f, (LagBlock, SpectralBlock))]
    if odd:
        raise TypeError(f"features must be a LagBlock or a SpectralBlock, got {type(odd[0]).__name__}")
    time_domain = isinstance(batch[0], LagBlock)
    if any(isinstance(f, LagBlock) != time_domain for f in batch):
        raise ValueError("a batch mixes time and frequency features")
    if time_domain:  # blocks in array.pairs() order, as the TDOAs
        work = []
        for f in batch:
            block, bounds = _lag_block(f, array, bounds)
            work.append(block)
        if cells is None:
            cells = time_cells(grid.points, array, grid.is_doa, bounds)
    else:
        work = [_spectral_block(f, array) for f in batch]
    tdoas = far_field_tdoa_matrix if grid.is_doa else tdoa_matrix
    sigma = cfg.notch_sigma if cfg.notch_sigma is not None else default_notch_sigma(array)
    cap = cfg.n_sources if cfg.n_sources is not None else _AUTO_CAP
    auto = cfg.n_sources is None
    found: list[list[tuple[np.ndarray, float]]] = [[] for _ in batch]
    active = list(range(len(batch)))
    while active:
        if time_domain:
            idx, scores = time_argmax(cells, [work[i] for i in active], bounds)
            peaks = [(grid.points[j].copy(), float(s)) for j, s in zip(idx, scores)]
        else:
            results = [argmax_search(srp_freq_map(work[i], grid, array)) for i in active]
            peaks = [(r.estimate, r.score) for r in results]
        still = []
        for i, (point, score) in zip(active, peaks):
            estimates = found[i]
            if not estimates:
                if auto and score <= 0:
                    warnings.warn("auto mode: first peak is non-positive; no sources found")
                    continue
            elif auto and score < cfg.score_floor * estimates[0][1]:
                continue
            if cfg.min_source_distance > 0 and estimates:
                dists = np.linalg.norm(np.array([p for p, _ in estimates]) - point, axis=1)
                if dists.min() < cfg.min_source_distance:
                    warnings.warn(
                        "new peak closer than min_source_distance to an accepted source; stopping"
                    )
                    continue
            estimates.append((point, score))
            if len(estimates) >= cap:
                continue
            if len(estimates) == 2:
                warnings.warn(
                    "extracting a third or later source: residual correlation noise "
                    "grows with each cancellation"
                )
            # a lag block is notched in place: the caller's stays
            w = work[i].copy() if time_domain and work[i] is batch[i] else work[i]
            work[i] = deemphasize(w, tdoas(point[None, :], array)[0], sigma)
            still.append(i)
        active = still
    return [EstimateSet.from_pairs(estimates) for estimates in found]
