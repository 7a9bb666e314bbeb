"""Multi-source localization by iterative source de-emphasis.

After a source is localized, its theoretical TDOA is notched out of
every pair's correlation with an inverted Gaussian,

    lag(tau) *= 1 - exp(-(tau - tau_hat)^2 / (2 sigma^2)),

and the map is rebuilt, letting the next-strongest source surface.
No renormalization is applied, so successive peak scores are
comparable and an auto stopping rule (score floor relative to the
first peak) is possible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .features import LagVector, SpectralGcc, spectral_from_lags, temporal_gcc
from .geometry import MicArray, tdoa, tdoa_far_field
from .grids import CandidateGrid
from .search import SearchConfig, argmax_search
from .srp_core import lag_table, srp_freq_map, srp_time_map

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


def deemphasize(lag: LagVector, tdoa_hat: float, sigma: float) -> LagVector:
    """Notch a lag vector around an estimated TDOA (seconds).

    Exact zero at the notch center; beyond 6 sigma the relative
    change is below 1e-6, so remote peaks are untouched.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    max_tau = lag.max_lag / lag.sample_rate
    if abs(tdoa_hat) > max_tau:
        raise ValueError(
            f"tdoa {tdoa_hat:.3e} s outside the lag range +/-{max_tau:.3e} s"
        )
    taus = lag.lag_times
    factor = 1.0 - np.exp(-((taus - tdoa_hat) ** 2) / (2.0 * sigma**2))
    return LagVector(lag.values * factor, lag.sample_rate)


def deemphasize_spectral(g: SpectralGcc, tdoa_hat: float, sigma: float) -> SpectralGcc:
    """Notch a spectral GCC by round-tripping through the lag domain.

    The band mask is re-applied afterwards, so the notched spectrum
    stays confined to the original analysis band.
    """
    lag = temporal_gcc(g)
    notched = deemphasize(lag, tdoa_hat, sigma)
    return spectral_from_lags(notched, in_band=g.in_band)


def _features_domain(features: dict) -> str:
    first = next(iter(features.values()))
    if isinstance(first, LagVector):
        return "time"
    if isinstance(first, SpectralGcc):
        return "frequency"
    raise TypeError(f"unsupported feature type {type(first).__name__}")


def localize_multi(
    features: dict,
    grid: CandidateGrid,
    array: MicArray,
    cfg: MultiConfig | None = None,
    search: SearchConfig | None = None,
    table: np.ndarray | None = None,
) -> EstimateSet:
    """Iterative multi-source localization over a grid.

    features maps each pair to a LagVector (time-domain maps) or a
    SpectralGcc (frequency-domain maps). Each round builds the map,
    takes the argmax, appends the estimate, and notches its
    theoretical TDOA from every pair. With n_sources = 1 the first
    round is exactly the single-source pipeline. Time-domain rounds
    share one lag table: ``table`` when the caller prepared it for
    this grid, else one built here.

    Only exhaustive search is meaningful here (the de-emphasis loop
    is defined on the full-grid argmax); other modes are rejected.
    """
    cfg = cfg or MultiConfig()
    if search is not None and search.mode != "exhaustive":
        raise ValueError("localize_multi supports only exhaustive search")
    domain = _features_domain(features)
    if domain == "time" and table is None:
        table = lag_table(grid.points, array, far_field=grid.is_doa)
    work = {p: f.copy() for p, f in features.items()}
    sigma = cfg.notch_sigma if cfg.notch_sigma is not None else default_notch_sigma(array)
    cap = cfg.n_sources if cfg.n_sources is not None else _AUTO_CAP
    auto = cfg.n_sources is None
    estimates: list[tuple[np.ndarray, float]] = []
    first_score = None
    while len(estimates) < cap:
        if domain == "time":
            srp = srp_time_map(work, grid, array, table=table)
        else:
            srp = srp_freq_map(work, grid, array)
        res = argmax_search(srp)
        if first_score is None:
            first_score = res.score
            if auto and first_score <= 0:
                warnings.warn("auto mode: first peak is non-positive; no sources found")
                break
        elif auto and res.score < cfg.score_floor * first_score:
            break
        if cfg.min_source_distance > 0 and estimates:
            dists = np.linalg.norm(
                np.array([p for p, _ in estimates]) - res.estimate, axis=1
            )
            if dists.min() < cfg.min_source_distance:
                warnings.warn(
                    "new peak closer than min_source_distance to an accepted source; stopping"
                )
                break
        estimates.append((res.estimate, res.score))
        if len(estimates) >= cap:
            break
        if len(estimates) == 2:
            warnings.warn(
                "extracting a third or later source: residual correlation noise "
                "grows with each cancellation"
            )
        for pair in array.pairs():
            if grid.is_doa:
                tau_hat = tdoa_far_field(res.estimate, pair, array)
            else:
                tau_hat = tdoa(res.estimate, pair, array)
            if domain == "time":
                work[pair] = deemphasize(work[pair], tau_hat, sigma)
            else:
                work[pair] = deemphasize_spectral(work[pair], tau_hat, sigma)
    return EstimateSet.from_pairs(estimates)
