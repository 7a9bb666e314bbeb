"""Microphone-array geometry: propagation delays and TDOAs.

All positions are Cartesian, in meters, with the room corner at the
origin. Times are seconds. The functions here are pure and take a
point as any array-like of shape (3,); the batch helpers (tof_matrix,
tdoa_matrix) take (N, 3) arrays and are what the map builders use
internally. They are where near or far field is chosen: with
``far_field`` the points are unit bearings of plane waves; maps and
de-emphasis pass grid.is_doa as that flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_SOUND = 343.0  # m/s, default; configurable per array

_UNIT_TOL = 1e-9


def as_xyz(u) -> np.ndarray:
    """Coerce an array-like to a float (3,) vector."""
    a = np.asarray(u, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"coordinates must be finite, got {a}")
    return a


@dataclass(frozen=True)
class SphericalDirection:
    """A far-field direction of arrival: azimuth in [0, 2pi), elevation in [-pi/2, pi/2].

    Elevation is measured from the horizontal plane (positive up).
    """

    azimuth: float
    elevation: float

    def __post_init__(self):
        if not (0.0 <= self.azimuth < 2.0 * math.pi):
            raise ValueError(f"azimuth must lie in [0, 2pi), got {self.azimuth}")
        if not (-math.pi / 2 <= self.elevation <= math.pi / 2):
            raise ValueError(f"elevation must lie in [-pi/2, pi/2], got {self.elevation}")

    def to_unit(self) -> np.ndarray:
        ce = math.cos(self.elevation)
        return np.array(
            [ce * math.cos(self.azimuth), ce * math.sin(self.azimuth), math.sin(self.elevation)]
        )


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

    ``lag_bounds`` holds each pair's lag bound D = round(max_tdoa * fs)
    + 1 >= |rint(tau * fs)|, a read-only int (P,) array in pairs()
    order, computed once here: every time and volumetric map reads lags
    -D..D of each pair. The smallest mic spacing (min_spacing) is kept
    from the check that the mics are distinct.
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
        self._min_spacing = float(dist.min())
        m = pos.shape[0]
        self._pairs = tuple(MicPair(i, j) for i in range(m) for j in range(i + 1, m))
        starts = np.cumsum([0] + [m - 1 - l for l in range(m - 1)])
        self._pair_rows = tuple((l, slice(int(starts[l]), int(starts[l + 1]))) for l in range(m - 1))
        self.lag_bounds = np.array([round(max_tdoa(p, self) * self.sample_rate) + 1 for p in self._pairs])
        self.lag_bounds.flags.writeable = False

    @property
    def n_mics(self) -> int:
        return self.positions.shape[0]

    def pairs(self) -> list[MicPair]:
        """All M(M-1)/2 pairs (l, m) with l < m, lexicographic order: a new list of pairs built once."""
        return list(self._pairs)

    @property
    def n_pairs(self) -> int:
        m = self.n_mics
        return m * (m - 1) // 2

    def pair_rows(self) -> list[tuple[int, slice]]:
        """(l, rows) for each mic l < M - 1: pairs (l, l+1..M-1) are rows ``rows`` of pairs().

        A pair block is built a mic at a time from it, as
        ``op(x[l: l + 1], x[l + 1:], out=block[rows])``.
        """
        return list(self._pair_rows)

    def min_spacing(self) -> float:
        """The smallest distance between two of the mics."""
        return self._min_spacing


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


def tof_matrix(points: np.ndarray, array: MicArray, far_field: bool = False) -> np.ndarray:
    """Delays from each of N points to each mic, shape (N, M): times of flight, or plane-wave offsets.

    Near field: the transpose of a mic-major (M, N) array, so
    ``tof_matrix(...).T`` is C-contiguous, built one mic row at a time
    from (N,) coordinate columns. The sum dx*dx + dy*dy + dz*dz runs in
    ``np.linalg.norm(..., axis=1)``'s order, so the distances equal that
    formula's bit for bit. Far field: the points are unit bearings d
    (unit-norm within 1e-9), and the delays are the plane-wave arrival
    offsets -(d . v_m) / c, whose pair differences are the far-field TDOAs.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if far_field:
        if np.any(np.abs(np.linalg.norm(pts, axis=1) - 1.0) > _UNIT_TOL):
            raise ValueError("all directions must be unit-norm within 1e-9")
        return -(pts @ array.positions.T) / array.speed_of_sound
    x, y, z = pts.T.copy()
    t = np.empty((array.n_mics, len(x)))
    for row, (vx, vy, vz) in zip(t, array.positions):
        dx, dy, dz = x - vx, y - vy, z - vz
        np.sqrt(dx * dx + dy * dy + dz * dz, out=row)
    t /= array.speed_of_sound
    return t.T


def tdoa_matrix(points: np.ndarray, array: MicArray, far_field: bool = False) -> np.ndarray:
    """TDOAs for each of N points over all pairs, shape (N, P): exact, or far-field for unit bearings.

    The pair differences t_l - t_m of tof_matrix's delays, laid out as
    the transpose of a pair-major (P, N) array: mic l's pair rows are
    one subtraction t_l - t_{l+1..M-1} (MicArray.pair_rows).
    """
    t = tof_matrix(points, array, far_field).T  # (M, N)
    tau = np.empty((array.n_pairs, t.shape[1]))
    for l, rows in array.pair_rows():
        np.subtract(t[l], t[l + 1:], out=tau[rows])
    return tau.T
