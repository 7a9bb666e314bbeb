"""Microphone-array geometry: propagation delays and TDOAs.

All positions are Cartesian, in meters, with the room corner at the
origin. Times are seconds. The functions here are pure and accept
either :class:`Point3` instances or any array-like of shape (3,);
the batch helpers take (N, 3) arrays and are what the map builders
use internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_SOUND = 343.0  # m/s, default; configurable per array

_UNIT_TOL = 1e-9


def as_xyz(u) -> np.ndarray:
    """Coerce a Point3 or array-like to a float (3,) vector."""
    if isinstance(u, Point3):
        return u.as_array()
    a = np.asarray(u, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"coordinates must be finite, got {a}")
    return a


@dataclass(frozen=True)
class Point3:
    """A point in 3D space (meters)."""

    x: float
    y: float
    z: float = 0.0

    def __post_init__(self):
        for v in (self.x, self.y, self.z):
            if not math.isfinite(v):
                raise ValueError(f"coordinates must be finite, got {(self.x, self.y, self.z)}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @classmethod
    def from_array(cls, a) -> "Point3":
        a = np.asarray(a, dtype=float).reshape(3)
        return cls(float(a[0]), float(a[1]), float(a[2]))


@dataclass(frozen=True)
class SphericalDirection:
    """A direction of arrival: azimuth in [0, 2pi), elevation in [-pi/2, pi/2].

    ``range_m`` is optional; when present it places the point at a finite
    distance, otherwise the direction is understood as far-field.
    Elevation is measured from the horizontal plane (positive up).
    """

    azimuth: float
    elevation: float
    range_m: float | None = None

    def __post_init__(self):
        if not (0.0 <= self.azimuth < 2.0 * math.pi):
            raise ValueError(f"azimuth must lie in [0, 2pi), got {self.azimuth}")
        if not (-math.pi / 2 <= self.elevation <= math.pi / 2):
            raise ValueError(f"elevation must lie in [-pi/2, pi/2], got {self.elevation}")
        if self.range_m is not None and not self.range_m > 0:
            raise ValueError(f"range must be positive, got {self.range_m}")

    def to_unit(self) -> np.ndarray:
        ce = math.cos(self.elevation)
        return np.array(
            [ce * math.cos(self.azimuth), ce * math.sin(self.azimuth), math.sin(self.elevation)]
        )

    def to_point(self) -> np.ndarray:
        if self.range_m is None:
            raise ValueError("direction has no range; cannot produce a point")
        return self.range_m * self.to_unit()

    @classmethod
    def from_unit(cls, d, range_m: float | None = None) -> "SphericalDirection":
        d = as_xyz(d)
        n = np.linalg.norm(d)
        if abs(n - 1.0) > _UNIT_TOL:
            raise ValueError(f"direction must be unit-norm within {_UNIT_TOL}, |d| = {n}")
        el = math.asin(np.clip(d[2], -1.0, 1.0))
        az = math.atan2(d[1], d[0]) % (2.0 * math.pi)
        return cls(az, el, range_m)


@dataclass(frozen=True, order=True)
class MicPair:
    """An ordered microphone pair (l, m) with l < m, lexicographic."""

    l: int
    m: int

    def __post_init__(self):
        if not (0 <= self.l < self.m):
            raise ValueError(f"pair requires 0 <= l < m, got ({self.l}, {self.m})")


class MicArray:
    """A set of M >= 2 microphones sharing a sample rate and sound speed.

    Parameters
    ----------
    positions : array-like, shape (M, 3)
        Microphone positions in meters. Must be pairwise distinct.
    sample_rate : float
        Sampling rate in Hz, > 0.
    speed_of_sound : float
        Propagation speed in m/s, > 0. Defaults to 343.
    """

    def __init__(self, positions, sample_rate: float, speed_of_sound: float = SPEED_OF_SOUND):
        pos = np.atleast_2d(np.asarray(positions, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must have shape (M, 3), got {pos.shape}")
        if pos.shape[0] < 2:
            raise ValueError(f"need at least 2 microphones, got {pos.shape[0]}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("microphone positions must be finite")
        if not sample_rate > 0:
            raise ValueError(f"sample_rate must be positive, got {sample_rate}")
        if not speed_of_sound > 0:
            raise ValueError(f"speed_of_sound must be positive, got {speed_of_sound}")
        diffs = pos[:, None, :] - pos[None, :, :]
        dist = np.linalg.norm(diffs, axis=-1)
        np.fill_diagonal(dist, np.inf)
        if dist.min() <= _UNIT_TOL:
            raise ValueError("microphone positions must be pairwise distinct")
        self.positions = pos
        self.sample_rate = float(sample_rate)
        self.speed_of_sound = float(speed_of_sound)
        self._pair_dist = dist

    @property
    def n_mics(self) -> int:
        return self.positions.shape[0]

    def pairs(self) -> list[MicPair]:
        """All M(M-1)/2 pairs (l, m) with l < m, lexicographic order."""
        m = self.n_mics
        return [MicPair(i, j) for i in range(m) for j in range(i + 1, m)]

    @property
    def n_pairs(self) -> int:
        m = self.n_mics
        return m * (m - 1) // 2

    def min_spacing(self) -> float:
        masked = np.where(np.isinf(self._pair_dist), np.nan, self._pair_dist)
        return float(np.nanmin(masked))

    def aperture(self) -> float:
        masked = np.where(np.isinf(self._pair_dist), np.nan, self._pair_dist)
        return float(np.nanmax(masked))

    def centroid(self) -> np.ndarray:
        return self.positions.mean(axis=0)


def tof(u, v, speed_of_sound: float = SPEED_OF_SOUND) -> float:
    """Time of flight ||u - v|| / c in seconds."""
    if not speed_of_sound > 0:
        raise ValueError(f"speed_of_sound must be positive, got {speed_of_sound}")
    return float(np.linalg.norm(as_xyz(u) - as_xyz(v)) / speed_of_sound)


def tdoa(u, pair: MicPair, array: MicArray) -> float:
    """Exact TDOA tau_lm(u) = tof(u, v_l) - tof(u, v_m) in seconds."""
    c = array.speed_of_sound
    return tof(u, array.positions[pair.l], c) - tof(u, array.positions[pair.m], c)


def tdoa_far_field(direction, pair: MicPair, array: MicArray) -> float:
    """Far-field TDOA for a unit source bearing: (v_m - v_l) . d / c.

    ``direction`` must be unit-norm within 1e-9. The sign is fixed by
    the far-field limit of the exact TDOA: a source far along d is
    closer to whichever mic lies farther along d, which then hears it
    earlier. Collinear bearings reach +/- max_tdoa.
    """
    d = as_xyz(direction)
    n = np.linalg.norm(d)
    if abs(n - 1.0) > _UNIT_TOL:
        raise ValueError(f"direction must be unit-norm within {_UNIT_TOL}, |d| = {n}")
    baseline = array.positions[pair.m] - array.positions[pair.l]
    return float(baseline @ d / array.speed_of_sound)


def max_tdoa(pair: MicPair, array: MicArray) -> float:
    """Largest attainable |tdoa| for the pair: ||v_l - v_m|| / c."""
    baseline = array.positions[pair.l] - array.positions[pair.m]
    return float(np.linalg.norm(baseline) / array.speed_of_sound)


def tof_matrix(points: np.ndarray, array: MicArray) -> np.ndarray:
    """Times of flight from each of N points to each mic, shape (N, M).

    Built one mic at a time, so the only temporary is one (N, 3)
    difference rather than an (N, M, 3) broadcast.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = np.empty((len(pts), array.n_mics))
    for i, v in enumerate(array.positions):
        d[:, i] = np.linalg.norm(pts - v, axis=1)
    return d / array.speed_of_sound


def tdoa_matrix(points: np.ndarray, array: MicArray) -> np.ndarray:
    """Exact TDOAs for each of N points over all pairs, shape (N, P)."""
    t = tof_matrix(points, array)
    cols = [t[:, p.l] - t[:, p.m] for p in array.pairs()]
    return np.stack(cols, axis=1)


def far_field_tdoa_matrix(directions: np.ndarray, array: MicArray) -> np.ndarray:
    """Far-field TDOAs for N unit directions over all pairs, shape (N, P)."""
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
        raise ValueError("all directions must be unit-norm within 1e-9")
    baselines = np.stack(
        [array.positions[p.m] - array.positions[p.l] for p in array.pairs()]
    )  # (P, 3)
    return dirs @ baselines.T / array.speed_of_sound
