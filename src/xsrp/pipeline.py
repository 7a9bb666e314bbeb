"""Composable localization pipeline.

A PipelineConfig picks one option per stage: grid builder, feature
extractor, map builder, searcher, optional feature updater
(de-emphasis) and grid updater. prepare() does the frame-invariant
work once (grid, steering tables) and Plan.run then runs the
generic loop on each frame block:

    estimates <- {}; grid <- build; features <- extract
    while grid: map <- build_map; estimates <- search;
                features <- update_features; grid <- update_grid

Single-source configs terminate after one pass (the grid updater
"none" empties the grid). The iterative searchers and the
de-emphasis loop run their full procedure inside one pass, calling
the same functions as their standalone counterparts, so pipeline
results match standalone compositions bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from .features import (
    GccConfig,
    analysis_band,
    compute_cc_lag_vectors,
    compute_spectral_gccs,
    temporal_gcc,
)
from .geometry import MicArray, MicPair
from .grids import (
    Volume,
    cartesian_grid,
    doa_grid,
    grid_in_volume,
    intersect_volumes,
    partition_room,
)
from .multisource import EstimateSet, MultiConfig, localize_multi
from .search import SearchConfig, argmax_search, refine_search, src_search
from .srp_core import (
    SrpMap,
    WsrpConfig,
    lag_table,
    lag_windows,
    make_freq_scorer,
    make_time_scorer,
    pairwise_freq_scores,
    srp_freq_map,
    srp_time_map,
    vsrp_map,
    wsrp_map,
)


class ConfigError(ValueError):
    """A pipeline configuration that cannot be run."""


_GRID_KINDS = ("cartesian2d", "cartesian3d", "doa_azimuth", "doa_az_el", "volumes")
_FEATURE_KINDS = ("gcc_phat", "cc")
_MAP_DOMAINS = ("time", "frequency", "volumetric", "weighted")
_GRID_UPDATES = ("none", "contract", "subdivide")


@dataclass
class GridSpec:
    """Which candidate grid to build.

    Cartesian kinds need a resolution (meters); DOA kinds an azimuth
    (and optionally elevation) resolution in radians; "volumes" a
    per-axis count for the room partition.
    """

    kind: str = "cartesian3d"
    resolution: float | tuple[float, ...] | None = 0.1
    azimuth_res: float | None = None
    elevation_res: float | None = None
    counts: tuple[int, int, int] | None = None

    def __post_init__(self):
        if self.kind not in _GRID_KINDS:
            raise ConfigError(f"grid kind must be one of {_GRID_KINDS}, got {self.kind!r}")


@dataclass
class FeatureSpec:
    """Feature stage: classical CC or the beta-weighted GCC family.

    band = None selects the array's aliasing-capped analysis band.
    """

    kind: str = "gcc_phat"
    beta: float = 1.0
    gamma: float | None = None
    band: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in _FEATURE_KINDS:
            raise ConfigError(f"feature kind must be one of {_FEATURE_KINDS}, got {self.kind!r}")


@dataclass
class MapSpec:
    """Map stage: domain plus volumetric pooling / weighted combination."""

    domain: str = "frequency"
    pooling: str = "sum"
    guard: float = 1.0
    wsrp: WsrpConfig | None = None

    def __post_init__(self):
        if self.domain not in _MAP_DOMAINS:
            raise ConfigError(f"map domain must be one of {_MAP_DOMAINS}, got {self.domain!r}")


@dataclass
class PipelineConfig:
    """One choice per pipeline stage; see validate_config for the rules."""

    grid: GridSpec = field(default_factory=GridSpec)
    features: FeatureSpec = field(default_factory=FeatureSpec)
    map: MapSpec = field(default_factory=MapSpec)
    search: SearchConfig = field(default_factory=SearchConfig)
    multi: MultiConfig | None = None
    grid_update: str = "none"
    max_loop_iters: int = 50

    def __post_init__(self):
        if self.grid_update not in _GRID_UPDATES:
            raise ConfigError(
                f"grid_update must be one of {_GRID_UPDATES}, got {self.grid_update!r}"
            )
        if self.max_loop_iters < 1 or self.max_loop_iters > 50:
            raise ConfigError("max_loop_iters must lie in 1..50")


def validate_config(cfg: PipelineConfig, room=None) -> list[str]:
    """All reasons the config cannot run (empty list = valid)."""
    diags: list[str] = []
    g, f, m, s = cfg.grid, cfg.features, cfg.map, cfg.search
    doa = g.kind.startswith("doa")
    if f.kind == "cc" and m.domain in ("frequency", "weighted"):
        diags.append(
            "classical cc features carry no usable spectral phase weighting; "
            "frequency/weighted maps need gcc_phat"
        )
    if doa and m.domain == "volumetric":
        diags.append("volumetric maps need position volumes, not DOA grids")
    if m.domain == "volumetric" and g.kind != "volumes":
        diags.append("volumetric maps need grid kind 'volumes'")
    if g.kind == "volumes" and m.domain != "volumetric":
        diags.append("a volume partition only feeds volumetric maps")
    if g.kind in ("cartesian2d", "cartesian3d", "volumes") and room is None:
        diags.append(f"grid kind {g.kind!r} needs room dimensions")
    if g.kind.startswith("cartesian") and g.resolution is None:
        diags.append("cartesian grids need a resolution")
    if doa and g.azimuth_res is None:
        diags.append("DOA grids need azimuth_res")
    if g.kind == "doa_az_el" and g.elevation_res is None:
        diags.append("az-el grids need elevation_res")
    if s.mode in ("refine", "src"):
        if doa:
            diags.append(f"{s.mode} search contracts position regions; DOA grids unsupported")
        if m.domain in ("volumetric", "weighted"):
            diags.append(f"{s.mode} search needs a per-point score; use time or frequency maps")
        if room is None:
            diags.append(f"{s.mode} search needs room dimensions for its initial region")
    if cfg.multi is not None:
        if s.mode != "exhaustive":
            diags.append("de-emphasis localization uses exhaustive search only")
        if m.domain in ("volumetric", "weighted"):
            diags.append("de-emphasis is defined for time and frequency maps")
        if cfg.grid_update != "none":
            diags.append("de-emphasis manages its own loop; set grid_update to none")
    if cfg.grid_update != "none":
        if not g.kind.startswith("cartesian"):
            diags.append("grid updaters contract cartesian grids only")
        if s.mode != "exhaustive":
            diags.append("grid updaters pair with exhaustive search; refine/src update internally")
    return diags


def _room_volume(room, planar: bool) -> Volume:
    dims = np.asarray(room, dtype=float).reshape(-1)
    if planar:
        return Volume.from_bounds(np.zeros(3), [dims[0], dims[1], 0.0])
    return Volume.from_bounds(np.zeros(3), dims[:3])


def build_grid(spec: GridSpec, room=None):
    """Materialize a GridSpec (room required for position grids)."""
    if spec.kind == "cartesian2d":
        return cartesian_grid(room, spec.resolution, planar=True)
    if spec.kind == "cartesian3d":
        return cartesian_grid(room, spec.resolution)
    if spec.kind == "doa_azimuth":
        return doa_grid(spec.azimuth_res)
    if spec.kind == "doa_az_el":
        return doa_grid(spec.azimuth_res, spec.elevation_res)
    return partition_room(room, spec.counts or (2, 2, 2))


def _gcc_config(f: FeatureSpec, array: MicArray) -> GccConfig:
    band = f.band if f.band is not None else analysis_band(array)
    return GccConfig(beta=f.beta, gamma=f.gamma, band=band)


class Plan:
    """Frame-invariant work of one validated (array, room, config), done once.

    Holds the candidate grid and its steering: the int32 lag table of
    a time map, or the lag windows of a volumetric map. Frequency and
    weighted maps steer per frame, so only their grid is held.
    Iterative searches (refine/src) place their own points and need
    neither. run() then does only the per-frame work, and map()
    builds one more map over the prepared grid (the CLI's export).
    """

    def __init__(self, array: MicArray, room, cfg: PipelineConfig):
        diags = validate_config(cfg, room)
        if diags:
            raise ConfigError("; ".join(diags))
        self.array, self.room, self.cfg = array, room, cfg
        self.grid = self.steering = None
        if cfg.search.mode != "exhaustive":
            return
        self.grid = build_grid(cfg.grid, room)
        if cfg.map.domain == "time":
            self.steering = lag_table(self.grid.points, array, far_field=self.grid.is_doa)
        elif cfg.map.domain == "volumetric":
            self.steering = lag_windows(self.grid, array, cfg.map.guard)

    def _features(self, frames):
        """Returns (lag_vectors or None, spectral gccs or None) per the config."""
        frames = np.atleast_2d(np.asarray(frames, dtype=float))
        f, array = self.cfg.features, self.array
        if f.kind == "cc":
            return compute_cc_lag_vectors(frames, array), None
        gccs = compute_spectral_gccs(frames, array, _gcc_config(f, array))
        need_lags = self.cfg.map.domain in ("time", "volumetric")
        lags = {p: temporal_gcc(g) for p, g in gccs.items()} if need_lags else None
        return lags, gccs

    def map(self, frames) -> SrpMap:
        """One map of the configured domain over the prepared grid."""
        grid = build_grid(self.cfg.grid, self.room) if self.grid is None else self.grid
        return self._build_map(grid, self.steering, *self._features(frames))

    def _build_map(self, grid, steering, lags, gccs) -> SrpMap:
        m, array = self.cfg.map, self.array
        if m.domain == "time":
            return srp_time_map(lags, grid, array, table=steering)
        if m.domain == "frequency":
            return srp_freq_map(gccs, grid, array)
        if m.domain == "volumetric":
            return vsrp_map(lags, grid, array, pooling=m.pooling, guard=m.guard, windows=steering)
        return wsrp_map(pairwise_freq_scores(gccs, grid, array), m.wsrp)

    def run(self, frames: np.ndarray) -> EstimateSet:
        """Localize in one (M, L) frame block; see x_srp."""
        cfg, array = self.cfg, self.array
        lags, gccs = self._features(frames)
        planar = cfg.grid.kind == "cartesian2d"

        if cfg.multi is not None:
            feats = lags if cfg.map.domain == "time" else gccs
            return localize_multi(feats, self.grid, array, cfg.multi, cfg.search, table=self.steering)

        if cfg.search.mode in ("refine", "src"):
            region = _room_volume(self.room, planar)
            if cfg.map.domain == "time":
                scorer = make_time_scorer(lags, array)
            else:
                scorer = make_freq_scorer(gccs, array)
            runner = src_search if cfg.search.mode == "src" else refine_search
            res = runner(scorer, region, cfg.search)
            return EstimateSet(res.estimate[None, :], [res.score])

        estimates: list[tuple[np.ndarray, float]] = []
        grid, steering = self.grid, self.steering
        region = _room_volume(self.room, planar) if self.room is not None else None
        resolution = None
        if cfg.grid.kind.startswith("cartesian"):
            n_axes = 2 if planar else 3
            resolution = np.broadcast_to(
                np.asarray(cfg.grid.resolution, dtype=float), (n_axes,)
            ).astype(float)
        it = 0
        while grid is not None and it < cfg.max_loop_iters:
            res = argmax_search(self._build_map(grid, steering, lags, gccs))
            estimates.append((res.estimate, res.score))
            # later passes grid a new region, so their steering is built per map
            grid, region, resolution = _update_grid(
                cfg, res.estimate, region, resolution, planar
            )
            steering = None
            it += 1
        return EstimateSet.from_pairs(estimates)


def prepare(array: MicArray, room=None, cfg: PipelineConfig | None = None) -> Plan:
    """Validate the config and do its frame-invariant work; raises ConfigError."""
    return Plan(array, room, cfg or PipelineConfig())


def x_srp(frames: np.ndarray, array: MicArray, room=None, cfg: PipelineConfig | None = None) -> EstimateSet:
    """Run the configured pipeline on one (M, L) frame block.

    Returns the estimate set ordered by score. Iterative searchers
    (refine/src), the de-emphasis loop, and grid updaters all run
    within the generic loop's passes; a hard cap of max_loop_iters
    passes guarantees termination. Shorthand for
    prepare(array, room, cfg).run(frames); prepare once and run the
    plan per frame to localize a stream.
    """
    return prepare(array, room, cfg).run(frames)


def _update_grid(cfg: PipelineConfig, best, region, resolution, planar):
    """Next-pass grid under the configured updater (None ends the loop)."""
    if cfg.grid_update == "none":
        return None, region, resolution
    if cfg.grid_update == "contract":
        new_half = region.half_extents / 2.0
    else:  # subdivide: re-grid the best cell
        n = len(resolution)
        new_half = np.zeros(3)
        new_half[:n] = resolution
    target = Volume(best, new_half)
    # successive contractions intersect against the current region,
    # which started as the room box, so they can never escape it
    new_region = intersect_volumes(target, region)
    new_res = resolution / 2.0
    if new_region.edges.max() <= cfg.search.min_region_edge:
        return None, new_region, new_res
    grid = grid_in_volume(new_region, new_res, planar=planar)
    return grid, new_region, new_res


def config_to_dict(cfg: PipelineConfig) -> dict:
    """JSON-ready dict (inverse of config_from_dict)."""
    return _dump(cfg)


def _dump(v):
    if is_dataclass(v):
        return {f.name: _dump(getattr(v, f.name)) for f in fields(v)}
    if isinstance(v, dict):  # pair weights
        return {f"{p.l}-{p.m}": _dump(w) for p, w in v.items()}
    if isinstance(v, (tuple, list, np.ndarray)):
        return [_dump(x) for x in v]
    if isinstance(v, np.generic):
        return v.item()
    return v


def _check_keys(d, allowed, section: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{section!r} must be a JSON object")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {section!r}: {sorted(unknown)}")


def config_from_dict(d: dict) -> PipelineConfig:
    """Parse a config dict, rejecting unknown keys fail-fast."""
    return _section(PipelineConfig, d, "pipeline")


def _section(cls, d, name: str):
    """Build dataclass cls from a JSON object; omitted keys keep their defaults.

    Allowed keys are the dataclass fields, and each value is coerced
    by the field's annotation.
    """
    _check_keys(d, [f.name for f in fields(cls)], name)
    hints = get_type_hints(cls)
    return cls(**{k: _value(hints[k], v, name, k) for k, v in d.items()})


def _value(tp, v, section: str, key: str):
    """Coerce the JSON value of section[key] to its annotation tp."""
    if v is None:
        if type(None) in get_args(tp):
            return None
        raise ConfigError(f"null is not allowed for {key!r} in {section!r}")
    if get_origin(tp) in (Union, UnionType):
        options = [a for a in get_args(tp) if a is not type(None)]
        if len(options) > 1:  # a number or a per-axis list: the JSON type picks
            seq = isinstance(v, (list, tuple))
            options = [a for a in options if (get_origin(a) is tuple) == seq]
        return _value(options[0], v, section, key)
    if is_dataclass(tp):
        return _section(tp, v, key)
    if tp is object:  # any JSON value; the caller checks it
        return v
    origin, args = get_origin(tp), get_args(tp)
    if origin is tuple:
        if not isinstance(v, (list, tuple)):
            raise ConfigError(f"{key!r} in {section!r} must be a list, got {v!r}")
        types = args[:1] * len(v) if args[-1] is Ellipsis else args
        if len(v) != len(types):
            raise ConfigError(
                f"{key!r} in {section!r}: expected {len(types)} entries, got {len(v)}"
            )
        return tuple(_value(t, x, section, key) for t, x in zip(types, v))
    if origin is dict:
        if not isinstance(v, dict):
            raise ConfigError(f"{key!r} in {section!r} must be a JSON object")
        return {_pair(k): _value(args[1], w, section, key) for k, w in v.items()}
    if tp is str:
        if not isinstance(v, str):
            raise ConfigError(f"{key!r} in {section!r} must be a string, got {v!r}")
        return v
    try:
        return np.asarray(v, dtype=float) if tp is np.ndarray else tp(v)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{key!r} in {section!r}: not a number: {v!r}") from e


def _pair(key: str) -> MicPair:
    try:
        l, m = (int(x) for x in key.split("-"))
        return MicPair(l, m)
    except ValueError as e:
        raise ConfigError(f"bad pair key {key!r} (want 'l-m')") from e
