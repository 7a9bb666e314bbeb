"""Particle-filter tracking of a moving source over SRP scores.

Particles carry position and velocity; the motion prior is a
discretized Langevin process applied per axis:

    v <- a v + b F,   F ~ N(0, 1),   p <- p + v dt

with a = exp(-alpha dt) and b = beta sqrt(1 - a). The stationary
velocity variance is therefore b^2 / (1 - a^2). Weights come from
the frequency-domain SRP kernel evaluated at the particle positions;
resampling is systematic, triggered when the effective sample size
drops below half the particle count.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .features import FrameConfig, GccConfig, compute_spectral_gccs
from .geometry import MicArray
from .pipeline import MAX_STEERED_POINTS
from .srp_core import make_freq_scorer


@dataclass(frozen=True)
class LangevinParams:
    """Langevin motion constants per axis.

    alpha (1/s) damps velocity, beta (m/s) scales the random drive,
    dt (s) is the frame hop. Scalars apply to all three axes.
    """

    alpha: float = 2.0
    beta: float = 0.5
    dt: float = 0.1

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")

    @property
    def a(self) -> float:
        return math.exp(-self.alpha * self.dt)

    @property
    def b(self) -> float:
        return self.beta * math.sqrt(1.0 - self.a)

    def stationary_velocity_var(self) -> float:
        """Variance of the stationary AR(1) velocity: b^2 / (1 - a^2)."""
        return self.b**2 / (1.0 - self.a**2)


@dataclass(frozen=True)
class TrackerConfig:
    """Settings of track(): q particles drawn with seed, the Langevin alpha and beta
    (the frame hop sets dt), reweighting by score^kappa, resampling when
    ESS < resample_fraction * q, and the features' GccConfig beta (gcc_beta), gamma and band.
    """

    q: int = 500
    alpha: float = LangevinParams.alpha
    beta: float = LangevinParams.beta
    kappa: float = 1.0
    seed: int = 0
    resample_fraction: float = 0.5
    band: tuple[float, float] | None = None
    gcc_beta: float = GccConfig.beta
    gamma: float | None = None

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"need q >= 1 particles, got {self.q}")
        if self.q > MAX_STEERED_POINTS:
            raise ValueError(f"q = {self.q} particles is over the cap of {MAX_STEERED_POINTS:,} steered points")
        if not self.kappa > 0:
            raise ValueError(f"kappa must be > 0, got {self.kappa}")
        if not 0 < self.resample_fraction <= 1:
            raise ValueError(f"resample_fraction must lie in (0, 1], got {self.resample_fraction}")


@dataclass
class TrackerState:
    """Particle cloud: positions, velocities, normalized weights, RNG."""

    positions: np.ndarray
    velocities: np.ndarray
    weights: np.ndarray
    rng: np.random.Generator

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.velocities = np.asarray(self.velocities, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        q = len(self.weights)
        if self.positions.shape != (q, 3) or self.velocities.shape != (q, 3):
            raise ValueError("positions and velocities must be (Q, 3)")
        if q < 1:
            raise ValueError("need at least one particle")
        s = self.weights.sum()
        if not (s > 0) or np.any(self.weights < 0):
            raise ValueError("weights must be non-negative and sum to > 0")

    @property
    def q(self) -> int:
        return len(self.weights)

    def ess(self) -> float:
        """Effective sample size 1 / sum(w^2) of the normalized weights."""
        w = self.weights / self.weights.sum()
        return float(1.0 / np.sum(w**2))


def init_state(room_dims, q: int = 500, seed: int = 0) -> TrackerState:
    """Uniform particle cloud over the room box, zero velocity."""
    if q < 1:
        raise ValueError(f"need q >= 1 particles, got {q}")
    dims = np.asarray(room_dims, dtype=float).reshape(3)
    if np.any(dims <= 0):
        raise ValueError(f"room dimensions must be positive, got {dims}")
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, dims, size=(q, 3))
    return TrackerState(positions, np.zeros((q, 3)), np.full(q, 1.0 / q), rng)


def predict(state: TrackerState, params: LangevinParams, room_dims) -> TrackerState:
    """Advance every particle one step under the Langevin prior.

    Mutates the state in place (and returns it); positions are
    clamped to the room box.
    """
    dims = np.asarray(room_dims, dtype=float).reshape(3)
    noise = state.rng.standard_normal((state.q, 3))
    state.velocities *= params.a
    state.velocities += params.b * noise
    state.positions += state.velocities * params.dt
    np.clip(state.positions, 0.0, dims, out=state.positions)
    return state


def update_weights(state: TrackerState, scorer, kappa: float = 1.0) -> TrackerState:
    """Reweight particles by max(score, 0)^kappa, normalized.

    Where those powers sum to inf or underflow to 0, they are taken
    relative to the best score, (s / max s)^kappa: the same weights in
    exact arithmetic, finite whenever some score is positive. If every
    score is non-positive the weights reset to uniform and a warning is
    raised (the frame carries no usable evidence).
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    s = np.clip(np.asarray(scorer(state.positions), dtype=float), 0.0, None)
    with np.errstate(over="ignore"):
        w = s**kappa
    total = w.sum()
    if not 0 < total < math.inf and s.max() > 0:
        w = (s / s.max()) ** kappa
        total = w.sum()
    if not total > 0:
        warnings.warn("all particle scores non-positive; resetting to uniform weights")
        state.weights = np.full(state.q, 1.0 / state.q)
        return state
    state.weights = w / total
    return state


def resample(state: TrackerState) -> TrackerState:
    """Systematic resampling with the state's own RNG; copy counts stay within 1 of Q * weight.

    Weights reset to uniform.
    """
    q = state.q
    w = state.weights / state.weights.sum()
    u = (state.rng.random() + np.arange(q)) / q
    edges = np.cumsum(w)
    edges[-1] = 1.0
    idx = np.searchsorted(edges, u)
    state.positions = state.positions[idx].copy()
    state.velocities = state.velocities[idx].copy()
    state.weights = np.full(q, 1.0 / q)
    return state


def estimate(state: TrackerState) -> np.ndarray:
    """Weighted mean position of the cloud."""
    w = state.weights / state.weights.sum()
    return w @ state.positions


@dataclass
class TrackPoint:
    """One tracked frame: index, end time in seconds, position, ESS."""

    frame: int
    t_seconds: float
    position: np.ndarray
    ess: float

    def as_record(self) -> dict:
        return {
            "frame": self.frame,
            "t_seconds": self.t_seconds,
            "x": float(self.position[0]),
            "y": float(self.position[1]),
            "z": float(self.position[2]),
            "ess": self.ess,
        }


def track(blocks: Iterable[np.ndarray], array: MicArray, room_dims, frame_cfg: FrameConfig,
          cfg: TrackerConfig = TrackerConfig()) -> list[TrackPoint]:
    """Track one source through the windowed (M, L) frames 0, 1, ... of one
    recording, taken one at a time from ``blocks`` (WavReader.frames or
    features.frame_blocks). Per frame: GCC-PHAT features, Langevin prediction,
    reweighting by the frequency-domain SRP at the particle positions,
    systematic resampling when ESS < resample_fraction * q, then the
    weighted mean as the frame estimate. Deterministic for a given seed.
    """
    params = LangevinParams(cfg.alpha, cfg.beta, dt=frame_cfg.hop / array.sample_rate)
    gcc_cfg = GccConfig(beta=cfg.gcc_beta, gamma=cfg.gamma, band=cfg.band)
    state = init_state(room_dims, cfg.q, cfg.seed)
    points: list[TrackPoint] = []
    for frames in blocks:  # no enumerate: its reused result tuple would hold each frame into the kernel
        gccs = compute_spectral_gccs(frames, array, gcc_cfg)
        del frames  # the samples go before the kernel runs, its features before the next frame
        scorer = make_freq_scorer(gccs, array)
        predict(state, params, room_dims)
        update_weights(state, scorer, cfg.kappa)
        del gccs, scorer
        if state.ess() < cfg.resample_fraction * cfg.q:
            resample(state)
        i = len(points)
        t_end = (i * frame_cfg.hop + frame_cfg.frame_len) / array.sample_rate
        points.append(TrackPoint(i, t_end, estimate(state), state.ess()))
    return points
