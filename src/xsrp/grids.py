"""Candidate grids and volumes for the search space.

Cartesian position grids place points at integer multiples of the
resolution, g * R for g = 1..floor(D / R) per axis, so a 4 m x 3 m
planar room at R = 1 m yields 12 points. They are lattices: a grid
holds its three axis arrays, not its points, and builds a point from
its unravelled index (CandidateGrid.take), so a 90,000-point room grid
holds about 1 KiB instead of 2 MiB. DOA grids and sampled boundaries
hold their points, unit vectors for DOA. Volumes are axis-aligned boxes
used by the volumetric map and by region-contraction searches; a
VolumeGrid stores its boxes as (V, 3) arrays, so a room partition
needs no per-cell objects.

Note the Cartesian rule leaves no point within R of the low walls;
the half-diagonal coverage bound holds for sources in the covered
core of the room, which is where the localization suites place them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

_EPS = 1e-9

_GRID_KINDS = ("cartesian2d", "cartesian3d", "doa_azimuth", "doa_az_el")

# which of (lo, hi) each of a box's 8 vertices takes per axis, x slowest
_CORNERS = np.array([[i >> 2 & 1, i >> 1 & 1, i & 1] for i in range(8)], dtype=bool)


class CandidateGrid:
    """A finite set of candidate locations (or unit directions).

    ``kind`` is one of cartesian2d, cartesian3d, doa_azimuth,
    doa_az_el; DOA grids hold unit-norm rows. A grid holds its (G, 3)
    ``points``, or is a lattice: three ``axes`` arrays, whose product in
    C order (x slowest) is the grid, and their lengths ``shape``. A
    lattice holds no points: take(idx) is points[idx], bit for bit, and
    ``points`` builds all G of them, for readers of a whole grid.
    """

    def __init__(self, kind: str, points=None, axes=None):
        if kind not in _GRID_KINDS:
            raise ValueError(f"unknown grid kind {kind!r}")
        self.kind = kind
        if axes is not None:
            if self.is_doa or len(axes) != 3:
                raise ValueError("a lattice grid is Cartesian, with three axes")
            self.axes = tuple(np.asarray(a, dtype=float).reshape(-1) for a in axes)
            self.shape = tuple(len(a) for a in self.axes)
            if min(self.shape) == 0 or not all(np.isfinite(a).all() for a in self.axes):
                raise ValueError("lattice axes must be non-empty and finite")
            self._points = None
            return
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] == 0 or pts.shape[1] != 3:
            raise ValueError(f"grid points must be a non-empty (G, 3) array, got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be finite")
        if self.is_doa:
            norms = np.linalg.norm(pts, axis=1)
            if np.any(np.abs(norms - 1.0) > _EPS):
                raise ValueError("DOA grid points must be unit-norm within 1e-9")
        self.axes = self.shape = None
        self._points = pts

    @property
    def is_doa(self) -> bool:
        return self.kind.startswith("doa")

    @property
    def points(self) -> np.ndarray:
        """All G points, (G, 3); a lattice builds them on each read."""
        return self._points if self.axes is None else self.take(np.arange(len(self)))

    def take(self, idx) -> np.ndarray:
        """A new array of points[idx]: (3,) for an index, (n, 3) for n indices."""
        if self.axes is None:
            return self._points.take(idx, axis=0)
        return np.stack([a.take(i) for a, i in zip(self.axes, np.unravel_index(idx, self.shape))], axis=-1)

    def __len__(self) -> int:
        return len(self._points) if self.axes is None else math.prod(self.shape)


@dataclass(frozen=True)
class Volume:
    """An axis-aligned box: center and half-extents (degenerate axes allowed)."""

    center: np.ndarray
    half_extents: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float).reshape(3)
        h = np.asarray(self.half_extents, dtype=float).reshape(3)
        if np.any(h < 0) or not np.all(np.isfinite(h)) or not np.all(np.isfinite(c)):
            raise ValueError("volume needs finite center and non-negative half-extents")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "half_extents", h)

    @property
    def lo(self) -> np.ndarray:
        return self.center - self.half_extents

    @property
    def hi(self) -> np.ndarray:
        return self.center + self.half_extents

    @property
    def edges(self) -> np.ndarray:
        return 2.0 * self.half_extents

    def measure(self) -> float:
        return float(np.prod(self.edges))

    @classmethod
    def from_bounds(cls, lo, hi) -> "Volume":
        lo = np.asarray(lo, dtype=float).reshape(3)
        hi = np.asarray(hi, dtype=float).reshape(3)
        if np.any(hi < lo):
            raise ValueError("hi must be >= lo on every axis")
        return cls((lo + hi) / 2.0, (hi - lo) / 2.0)


class VolumeGrid:
    """Boxes with pairwise disjoint interiors, optionally tiling a region.

    Stored as (V, 3) arrays ``centers`` and ``half_extents`` (``lo``/``hi``
    derived as a Volume derives them); ``volumes`` is built on demand.
    from_arrays skips the per-box objects and runs the same checks.
    A ``region``, when given, is only checked: the boxes must tile it.
    """

    def __init__(self, volumes: list[Volume], region: Volume | None = None):
        self._set([v.center for v in volumes], [v.half_extents for v in volumes], region)

    @classmethod
    def from_arrays(cls, centers, half_extents, region: Volume | None = None) -> "VolumeGrid":
        grid = cls.__new__(cls)
        grid._set(centers, half_extents, region)
        return grid

    def _set(self, centers, half_extents, region) -> None:
        c, h = np.array(centers, dtype=float), np.array(half_extents, dtype=float)
        if c.size == 0 or c.ndim != 2 or c.shape[1] != 3 or h.shape != c.shape:
            raise ValueError(f"volume grid must be non-empty (V, 3) arrays, got {c.shape}, {h.shape}")
        if np.any(h < 0) or not np.all(np.isfinite(h)) or not np.all(np.isfinite(c)):
            raise ValueError("volume needs finite center and non-negative half-extents")
        lo, hi = c - h, c + h
        if _interiors_overlap(lo, hi):
            raise ValueError("volumes must have pairwise disjoint interiors")
        if region is not None:
            total = float(np.prod(2.0 * h, axis=1).sum())
            if abs(total - region.measure()) > 1e-9 * max(region.measure(), 1.0):
                raise ValueError("volumes do not tile the declared region")
            if np.any(lo < region.lo - _EPS) or np.any(hi > region.hi + _EPS):
                raise ValueError("volume extends outside the declared region")
        for a in (c, h, lo, hi):
            a.flags.writeable = False
        self.centers, self.half_extents, self.lo, self.hi = c, h, lo, hi

    @property
    def points(self) -> np.ndarray:
        """Volume centers, shape (V, 3); lets searches treat this like a grid."""
        return self.centers

    def take(self, idx) -> np.ndarray:
        """A new array of centers[idx], as CandidateGrid.take."""
        return self.centers.take(idx, axis=0)

    @property
    def volumes(self) -> list[Volume]:
        return [Volume(c, h) for c, h in zip(self.centers, self.half_extents)]

    def __len__(self) -> int:
        return len(self.centers)


def _interiors_overlap(lo: np.ndarray, hi: np.ndarray, chunk: int = 4096) -> bool:
    """True if two boxes overlap by more than _EPS on every axis.

    Sort and sweep along x: once sorted by lo_x, box j > i can overlap
    box i only if lo_j < hi_i (a superset: no _EPS), a run searchsorted
    finds. The candidates take the per-axis min(hi) - max(lo) > _EPS
    test ``chunk`` pairs at a time, so memory stays bounded.
    """
    order = np.argsort(lo[:, 0], kind="stable")
    lo, hi = lo[order].T.copy(), hi[order].T.copy()  # (3, V): one contiguous row per axis
    ends = np.searchsorted(lo[0], hi[0], side="left")
    counts = np.maximum(ends - np.arange(1, lo.shape[1] + 1), 0)
    starts, total = np.cumsum(counts) - counts, int(counts.sum())
    for k0 in range(0, total, chunk):
        k = np.arange(k0, min(k0 + chunk, total))
        i = np.searchsorted(starts, k, side="right") - 1
        j = i + 1 + k - starts[i]
        hit = np.ones(len(k), dtype=bool)
        for h, l in zip(hi, lo):
            hit &= np.minimum(h.take(i), h.take(j)) - np.maximum(l.take(i), l.take(j)) > _EPS
        if hit.any():
            return True
    return False


def _resolution3(resolution, n_axes: int) -> np.ndarray:
    r = np.asarray(resolution, dtype=float)
    if r.ndim == 0:
        r = np.full(n_axes, float(r))
    if r.shape != (n_axes,):
        raise ValueError(f"resolution must be scalar or length {n_axes}, got {r.shape}")
    if np.any(r <= 0):
        raise ValueError(f"resolution must be positive, got {r}")
    return r


def _room_box(room_dims, planar: bool = False) -> Volume:
    """The box [0, D] of a room's first three dimensions, each > 0 (planar: two, at z = 0)."""
    dims = np.asarray(room_dims, dtype=float).reshape(-1)
    n_axes = 2 if planar else 3
    if len(dims) < n_axes:
        raise ValueError(f"room_dims needs {n_axes} entries, got {len(dims)}")
    box = np.zeros(3)
    box[:n_axes] = dims[:n_axes]
    if np.any(box[:n_axes] <= 0):
        raise ValueError(f"room dimensions must be positive, got {box[:n_axes]}")
    return Volume.from_bounds(np.zeros(3), box)


def cartesian_grid(room_dims, resolution, planar: bool = False) -> CandidateGrid:
    """Regular Cartesian grid over a room box (_room_box).

    Points sit at g * R per axis for g = 1..floor(D / R). A
    resolution coarser than the room still yields one point per
    axis (with a warning) so searches always have a candidate.
    """
    return grid_in_volume(_room_box(room_dims, planar), resolution, planar, warn=True)


def _doa_layout(azimuth_res: float, elevation_res: float | None = None) -> tuple[float, float, float]:
    """doa_grid's layout at these resolutions, counted without building it: (n_az, rings, poles).

    The grid holds n_az azimuths on each of ``rings`` elevation rings (an
    azimuth-only grid is one ring) and one point at each of ``poles``
    poles: n_az * rings + poles points. The counts are floats, inf where
    a subnormal resolution overflows them.
    """
    with np.errstate(over="ignore"):
        n_az = float(np.floor(2 * math.pi / azimuth_res + _EPS))
        if elevation_res is None:
            return n_az, 1.0, 0.0
        n_el = float(np.floor(math.pi / elevation_res + _EPS))
    top = -math.pi / 2 + n_el * elevation_res  # the last ring: below, at or past (left out) the north pole
    return n_az, n_el - (top >= math.pi / 2 - _EPS), 1.0 + (abs(top - math.pi / 2) <= _EPS)


def doa_grid(azimuth_res: float, elevation_res: float | None = None) -> CandidateGrid:
    """Grid of unit directions, laid out as _doa_layout counts them.

    Azimuth-only grids hold in-plane vectors (cos phi, sin phi, 0)
    at phi = R, 2R, .., 2pi. With an elevation resolution, a full
    az-el lattice is built with single points at the poles.
    """
    if not (0 < azimuth_res <= 2 * math.pi):
        raise ValueError(f"azimuth_res must lie in (0, 2pi], got {azimuth_res}")
    if elevation_res is not None and not (0 < elevation_res <= math.pi):
        raise ValueError(f"elevation_res must lie in (0, pi], got {elevation_res}")
    n_az, rings, poles = (int(n) for n in _doa_layout(azimuth_res, elevation_res))
    phis = np.arange(1, n_az + 1) * azimuth_res
    if elevation_res is None:
        pts = np.column_stack([np.cos(phis), np.sin(phis), np.zeros(n_az)])
        return CandidateGrid("doa_azimuth", pts)
    rows = [np.array([[0.0, 0.0, -1.0]])]  # the south pole, then the rings upwards
    for th in -math.pi / 2 + np.arange(1, rings + 1) * elevation_res:
        ce, se = math.cos(th), math.sin(th)
        rows.append(np.column_stack([ce * np.cos(phis), ce * np.sin(phis), np.full(n_az, se)]))
    if poles == 2:
        rows.append(np.array([[0.0, 0.0, 1.0]]))
    pts = np.vstack(rows)
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    pts = pts / norms
    return CandidateGrid("doa_az_el", pts)


def _cells(region: Volume, counts) -> tuple[np.ndarray, np.ndarray]:
    """Centers (V, 3, C order) and half-extents (3,) of region cut into counts cells."""
    f = np.asarray(counts, dtype=int)
    if f.shape != (3,) or np.any(f < 1):
        raise ValueError(f"factors must be three integers >= 1, got {counts}")
    child_half = region.half_extents / f
    idx = np.indices(f).reshape(3, -1).T
    return region.lo + (2 * idx + 1) * child_half, child_half


def subdivide(volume: Volume, factors=(2, 2, 2)) -> list[Volume]:
    """Split a box into prod(factors) children that tile it exactly."""
    centers, child_half = _cells(volume, factors)
    return [Volume(c, child_half) for c in centers]


def sample_boundary(region: Volume, n: int, seed=0) -> CandidateGrid:
    """n points sampled uniformly on a box surface (area-weighted faces).

    ``seed`` may be an int or a numpy Generator; a given seed yields
    a fixed point set.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 samples, got {n}")
    rng = np.random.default_rng(seed)
    ex, ey, ez = region.edges
    areas = np.array([ey * ez, ey * ez, ex * ez, ex * ez, ex * ey, ex * ey], dtype=float)
    total = areas.sum()
    if total <= 0:
        raise ValueError("region has no surface area to sample")
    faces = rng.choice(6, size=n, p=areas / total)
    uv = rng.random((n, 2))
    pts = np.empty((n, 3))
    lo, hi = region.lo, region.hi
    spans = region.edges
    for axis in range(3):
        others = [a for a in range(3) if a != axis]
        for side, coord in ((0, hi[axis]), (1, lo[axis])):
            sel = faces == 2 * axis + side
            pts[sel, axis] = coord
            pts[sel, others[0]] = lo[others[0]] + uv[sel, 0] * spans[others[0]]
            pts[sel, others[1]] = lo[others[1]] + uv[sel, 1] * spans[others[1]]
    return CandidateGrid("cartesian3d", pts)


def intersect_volumes(a: Volume, b: Volume) -> Volume:
    """The box intersection; raises if the boxes are disjoint."""
    lo = np.maximum(a.lo, b.lo)
    hi = np.minimum(a.hi, b.hi)
    if np.any(hi < lo):
        raise ValueError("volumes do not intersect")
    return Volume.from_bounds(lo, hi)


def partition_room(room_dims, counts=(2, 2, 2)) -> VolumeGrid:
    """Tile a room box (_room_box) into counts[0] x counts[1] x counts[2] volumes."""
    region = _room_box(room_dims)
    centers, child_half = _cells(region, counts)
    return VolumeGrid.from_arrays(centers, np.broadcast_to(child_half, centers.shape), region)


def grid_in_volume(
    volume: Volume, resolution, planar: bool = False, warn: bool = False
) -> CandidateGrid:
    """Cartesian lattice inside a box: lo + g * R per axis, g = 1..floor(D / R).

    A short axis (and z when planar) gets the box's center; ``warn`` flags short axes.
    """
    n_axes = 2 if planar else 3
    res = _resolution3(resolution, n_axes)
    axes = []
    for d, r, lo, c in zip(volume.edges, res, volume.lo, volume.center):
        count = int(math.floor(d / r + _EPS))
        if count < 1 and warn:
            warnings.warn(f"grid resolution {r} coarser than room extent {d}; using a single point")
        axes.append(lo + np.arange(1, count + 1) * r if count >= 1 else np.array([c]))
    axes += [np.array([c]) for c in volume.center[n_axes:]]
    return CandidateGrid("cartesian2d" if planar else "cartesian3d", axes=axes)
