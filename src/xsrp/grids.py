"""Candidate grids and volumes for the search space.

Cartesian position grids place points at integer multiples of the
resolution, g * R for g = 1..floor(D / R) per axis, so a 4 m x 3 m
planar room at R = 1 m yields 12 points. DOA grids hold unit
vectors. Volumes are axis-aligned boxes used by the volumetric map
and by region-contraction searches.

Note the Cartesian rule leaves no point within R of the low walls;
the half-diagonal coverage bound holds for sources in the covered
core of the room, which is where the localization suites place them.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

_EPS = 1e-9

_GRID_KINDS = ("cartesian2d", "cartesian3d", "doa_azimuth", "doa_az_el")


@dataclass
class CandidateGrid:
    """A finite set of candidate locations (or unit directions).

    ``kind`` is one of cartesian2d, cartesian3d, doa_azimuth,
    doa_az_el; DOA grids hold unit-norm rows. ``resolution`` keeps
    the per-axis spacing used to build the grid (None for sampled
    point sets).
    """

    kind: str
    points: np.ndarray
    resolution: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in _GRID_KINDS:
            raise ValueError(f"unknown grid kind {self.kind!r}")
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[0] == 0 or pts.shape[1] != 3:
            raise ValueError(f"grid points must be a non-empty (G, 3) array, got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be finite")
        if self.is_doa:
            norms = np.linalg.norm(pts, axis=1)
            if np.any(np.abs(norms - 1.0) > _EPS):
                raise ValueError("DOA grid points must be unit-norm within 1e-9")
        self.points = pts

    @property
    def is_doa(self) -> bool:
        return self.kind.startswith("doa")

    def __len__(self) -> int:
        return self.points.shape[0]


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

    def vertices(self) -> np.ndarray:
        """The 8 corners, shape (8, 3)."""
        corners = list(itertools.product(*zip(self.lo, self.hi)))
        return np.array(corners, dtype=float)

    def contains(self, points, atol: float = 0.0) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.all((pts >= self.lo - atol) & (pts <= self.hi + atol), axis=1)

    def measure(self) -> float:
        return float(np.prod(self.edges))

    def diameter(self) -> float:
        return float(np.linalg.norm(self.edges))

    @classmethod
    def from_bounds(cls, lo, hi) -> "Volume":
        lo = np.asarray(lo, dtype=float).reshape(3)
        hi = np.asarray(hi, dtype=float).reshape(3)
        if np.any(hi < lo):
            raise ValueError("hi must be >= lo on every axis")
        return cls((lo + hi) / 2.0, (hi - lo) / 2.0)


@dataclass
class VolumeGrid:
    """A set of non-overlapping volumes, optionally tiling a region."""

    volumes: list[Volume]
    region: Volume | None = None

    def __post_init__(self):
        if not self.volumes:
            raise ValueError("volume grid must be non-empty")
        lo = np.array([v.lo for v in self.volumes])
        hi = np.array([v.hi for v in self.volumes])
        # row i against every later box at once: O(V) memory per row
        for i in range(len(lo) - 1):
            overlap = np.minimum(hi[i], hi[i + 1:]) - np.maximum(lo[i], lo[i + 1:])
            if np.any(np.all(overlap > _EPS, axis=1)):
                raise ValueError("volumes must have pairwise disjoint interiors")
        if self.region is not None:
            total = sum(v.measure() for v in self.volumes)
            if abs(total - self.region.measure()) > 1e-9 * max(self.region.measure(), 1.0):
                raise ValueError("volumes do not tile the declared region")
            if np.any(lo < self.region.lo - _EPS) or np.any(hi > self.region.hi + _EPS):
                raise ValueError("volume extends outside the declared region")

    @property
    def points(self) -> np.ndarray:
        """Volume centers, shape (n, 3); lets searches treat this like a grid."""
        return np.array([v.center for v in self.volumes])

    def __len__(self) -> int:
        return len(self.volumes)


def _resolution3(resolution, n_axes: int) -> np.ndarray:
    r = np.asarray(resolution, dtype=float)
    if r.ndim == 0:
        r = np.full(n_axes, float(r))
    if r.shape != (n_axes,):
        raise ValueError(f"resolution must be scalar or length {n_axes}, got {r.shape}")
    if np.any(r <= 0):
        raise ValueError(f"resolution must be positive, got {r}")
    return r


def cartesian_grid(room_dims, resolution, planar: bool = False) -> CandidateGrid:
    """Regular Cartesian grid over a room box.

    Points sit at g * R per axis for g = 1..floor(D / R). A
    resolution coarser than the room still yields one point per
    axis (with a warning) so searches always have a candidate.
    """
    dims = np.asarray(room_dims, dtype=float).reshape(-1)
    n_axes = 2 if planar else 3
    if len(dims) < n_axes:
        raise ValueError(f"room_dims needs {n_axes} entries, got {len(dims)}")
    dims = dims[:n_axes]
    if np.any(dims <= 0):
        raise ValueError(f"room dimensions must be positive, got {dims}")
    res = _resolution3(resolution, n_axes)
    axes = []
    for d, r in zip(dims, res):
        count = int(math.floor(d / r + _EPS))
        if count < 1:
            warnings.warn(
                f"grid resolution {r} coarser than room extent {d}; using a single point"
            )
            axes.append(np.array([d / 2.0]))
        else:
            axes.append(np.arange(1, count + 1) * r)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    if planar:
        pts = np.column_stack([pts, np.zeros(len(pts))])
    kind = "cartesian2d" if planar else "cartesian3d"
    return CandidateGrid(kind, pts, tuple(float(r) for r in res))


def doa_grid(azimuth_res: float, elevation_res: float | None = None) -> CandidateGrid:
    """Grid of unit directions.

    Azimuth-only grids hold in-plane vectors (cos phi, sin phi, 0)
    at phi = R, 2R, .., 2pi. With an elevation resolution, a full
    az-el lattice is built with single points at the poles.
    """
    if not (0 < azimuth_res <= 2 * math.pi):
        raise ValueError(f"azimuth_res must lie in (0, 2pi], got {azimuth_res}")
    n_az = int(math.floor(2 * math.pi / azimuth_res + _EPS))
    phis = np.arange(1, n_az + 1) * azimuth_res
    if elevation_res is None:
        pts = np.column_stack([np.cos(phis), np.sin(phis), np.zeros(n_az)])
        return CandidateGrid("doa_azimuth", pts, (float(azimuth_res),))
    if not (0 < elevation_res <= math.pi):
        raise ValueError(f"elevation_res must lie in (0, pi], got {elevation_res}")
    n_el = int(math.floor(math.pi / elevation_res + _EPS))
    thetas = -math.pi / 2 + np.arange(0, n_el + 1) * elevation_res
    thetas = thetas[thetas <= math.pi / 2 + _EPS]
    rows = []
    for th in thetas:
        if abs(abs(th) - math.pi / 2) <= _EPS:
            rows.append(np.array([[0.0, 0.0, math.copysign(1.0, th)]]))
            continue
        ce, se = math.cos(th), math.sin(th)
        rows.append(np.column_stack([ce * np.cos(phis), ce * np.sin(phis), np.full(n_az, se)]))
    pts = np.vstack(rows)
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    pts = pts / norms
    return CandidateGrid("doa_az_el", pts, (float(azimuth_res), float(elevation_res)))


def subdivide(volume: Volume, factors=(2, 2, 2)) -> list[Volume]:
    """Split a box into prod(factors) children that tile it exactly."""
    f = np.asarray(factors, dtype=int)
    if f.shape != (3,) or np.any(f < 1):
        raise ValueError(f"factors must be three integers >= 1, got {factors}")
    child_half = volume.half_extents / f
    out = []
    for idx in itertools.product(*(range(k) for k in f)):
        offset = volume.lo + (2 * np.asarray(idx) + 1) * child_half
        out.append(Volume(offset, child_half))
    return out


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
    return CandidateGrid("cartesian3d", pts, None)


def intersect_volumes(a: Volume, b: Volume) -> Volume:
    """The box intersection; raises if the boxes are disjoint."""
    lo = np.maximum(a.lo, b.lo)
    hi = np.minimum(a.hi, b.hi)
    if np.any(hi < lo):
        raise ValueError("volumes do not intersect")
    return Volume.from_bounds(lo, hi)


def partition_room(room_dims, counts=(2, 2, 2)) -> VolumeGrid:
    """Tile a room box into counts[0] x counts[1] x counts[2] volumes."""
    dims = np.asarray(room_dims, dtype=float).reshape(3)
    if np.any(dims <= 0):
        raise ValueError(f"room dimensions must be positive, got {dims}")
    region = Volume.from_bounds(np.zeros(3), dims)
    return VolumeGrid(subdivide(region, counts), region=region)


def grid_in_volume(volume: Volume, resolution, planar: bool = False) -> CandidateGrid:
    """Cartesian grid inside an arbitrary box (corner-anchored, like cartesian_grid)."""
    n_axes = 2 if planar else 3
    res = _resolution3(resolution, n_axes)
    axes = []
    for i in range(n_axes):
        d = volume.edges[i]
        r = res[i]
        count = int(math.floor(d / r + _EPS))
        if count < 1:
            axes.append(np.array([volume.center[i]]))
        else:
            axes.append(volume.lo[i] + np.arange(1, count + 1) * r)
    for i in range(n_axes, 3):
        axes.append(np.array([volume.center[i]]))
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    kind = "cartesian2d" if planar else "cartesian3d"
    return CandidateGrid(kind, pts, tuple(float(r) for r in res))
