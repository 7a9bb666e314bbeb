"""Composable localization pipeline.

A PipelineConfig picks one option per stage: grid builder, feature
extractor, map builder, searcher, optional feature updater
(de-emphasis) and grid updater. prepare() does the frame-invariant
work once (grid, its cells or lag windows) and Plan.run runs
the generic loop on a frame block, or Plan.stream on a sequence of
them, keeping the last frame's features for Plan.map:

    estimates <- {}; grid <- build; features <- extract
    while grid: map <- build_map; estimates <- search;
                features <- update_features; grid <- update_grid

Single-source configs terminate after one pass (the grid updater
"none" empties the grid). The iterative searchers and the
de-emphasis loop run their full procedure inside one pass, calling
the same functions as their standalone counterparts, so pipeline
results match standalone compositions bit for bit. Every exhaustive
time-domain pass searches its grid's cells (srp_core.time_argmax);
passes over the prepared grid (every de-emphasis round, and the one
pass of a single-source config with the grid updater "none") search a
batch of frames together; a one-frame run is a batch of one.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache
from itertools import islice
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from .features import GccConfig, _gccs_of, _lags_of, _mic_spectra, analysis_band
from .geometry import MicArray, MicPair
from .grids import (
    _EPS,
    _doa_layout,
    _resolution3,
    _room_box,
    Volume,
    cartesian_grid,
    doa_grid,
    grid_in_volume,
    intersect_volumes,
    partition_room,
)
from .multisource import EstimateSet, MultiConfig, localize_multi, localize_multi_batch
from .search import SearchConfig, argmax_search, refine_search, src_search
from .srp_core import (
    SrpMap,
    WsrpConfig,
    lag_windows,
    make_freq_scorer,
    make_time_scorer,
    pairwise_freq_scores,
    srp_freq_map,
    srp_time_map,
    time_argmax,
    time_cells,
    vsrp_map,
    wsrp_map,
)


class ConfigError(ValueError):
    """A pipeline configuration that cannot be run."""


_GRID_KINDS = ("cartesian2d", "cartesian3d", "doa_azimuth", "doa_az_el", "volumes")
_FEATURE_KINDS = ("gcc_phat", "cc")
_MAP_DOMAINS = ("time", "frequency", "volumetric", "weighted")
_GRID_UPDATES = ("none", "contract", "subdivide")
_type_hints = cache(get_type_hints)  # a config dataclass's annotations, evaluated once


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


#: most points an exhaustive map may steer (a Cartesian or DOA grid's points,
#: or 8 vertices per volume), a round of an iterative search, or a tracker's
#: particles: at most 24 MB of points, as grid.points builds them
MAX_STEERED_POINTS = 1_000_000


def _steered_points(g: GridSpec, room) -> float:
    """Points a map over g would steer, from the spec alone (0 if malformed)."""
    if g.kind == "volumes":
        return 8.0 * np.prod(g.counts or (2, 2, 2), dtype=float)  # no int64 wrap-around
    if g.kind.startswith("doa"):
        el = g.elevation_res if g.kind == "doa_az_el" else None
        if not (g.azimuth_res > 0 and (el is None or el > 0)):
            return 0.0  # build_grid diagnoses it
        n_az, rings, poles = _doa_layout(g.azimuth_res, el)
        return n_az * rings + poles
    dims = np.asarray(room, dtype=float).reshape(-1)[: 2 if g.kind == "cartesian2d" else 3]
    res = np.asarray(g.resolution, dtype=float)
    if res.size not in (1, len(dims)) or np.any(res <= 0):
        return 0.0  # build_grid diagnoses it
    return float(np.prod(np.maximum(np.floor(dims / res + _EPS), 1.0)))  # as grid_in_volume


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
    if f.kind == "cc":  # the raw cross-spectrum over the full band (_gcc_config)
        ignored = [x.name for x in fields(FeatureSpec) if x.name != "kind" and getattr(f, x.name) != x.default]
        if ignored:
            diags.append(f"cc features are the raw cross-spectrum over the full band; they ignore {', '.join(ignored)}")
    if doa and m.domain == "volumetric":
        diags.append("volumetric maps need position volumes, not DOA grids")
    if m.domain == "volumetric" and g.kind != "volumes":
        diags.append("volumetric maps need grid kind 'volumes'")
    if g.kind == "volumes" and m.domain != "volumetric":
        diags.append("a volume partition only feeds volumetric maps")
    if g.kind in ("cartesian2d", "cartesian3d", "volumes") and room is None:
        diags.append(f"grid kind {g.kind!r} needs room dimensions")
    if g.kind == "volumes" and g.counts is not None and (len(g.counts) != 3 or min(g.counts) < 1):
        diags.append("volume counts must be three integers >= 1")
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
    if s.mode == "exhaustive":
        what, n = f"grid {g.kind!r}", 0.0 if diags else _steered_points(g, room)
    else:  # a src round's sampled points, a refine round's children: up to 8 of each of top_k cells
        what, n = f"a {s.mode} round", s.points_per_iter if s.mode == "src" else 8 * s.top_k
    if n > MAX_STEERED_POINTS:
        diags.append(f"{what} would steer {n:.4g} points, over the cap of {MAX_STEERED_POINTS:,}")
    return diags


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
    if f.kind == "cc":  # the raw cross-spectrum over the full band
        return GccConfig(beta=0.0, gamma=0.0)
    band = f.band if f.band is not None else analysis_band(array)
    return GccConfig(beta=f.beta, gamma=f.gamma, band=band)


#: frames per batch of Plan.stream. Streaming 16 frames at time3d_multi's
#: size (90k points, 28 pairs, 2 pruned rounds a frame, framed lazily)
#: took 4.5, 4.0, 3.4, 3.2 and 3.1 ms of thread CPU per frame (fastest
#: of 15 streams, 2-core host) at batches of 1, 2, 4, 8 and 16 frames,
#: at tracemalloc peaks of 0.68, 0.98, 1.20, 1.71 and 3.16 MiB: a batch
#: holds one (S, F) array of its frames' lag windows, S = sum(2 D_j + 1),
#: notched in place round after round, and the search's (C, F) cell
#: bounds; a frame's samples and its lag block are gone by then
BATCH_FRAMES = 8


class Plan:
    """Frame-invariant work of one validated (array, room, config), done once.

    Holds the candidate grid and its steering: the cells of a time map
    (srp_core.time_cells), or the lag windows of a volumetric map, and
    the features' GccConfig, built once, so a bad band or beta is
    refused here. A time or volumetric map's frames' lags are one
    LagBlock cropped to +/-max D, D the array's lag_bounds. A Cartesian
    grid is a lattice that holds its axes, not its points, and a time
    map's cells are its index boxes, so a 90,000-point time plan holds
    about 0.2 MiB; an estimate reads one point (CandidateGrid.take).
    Frequency and weighted maps steer per frame, so only their grid is
    held, and they build its points per map.
    Iterative searches (refine/src) place their own points in the room
    box (grids._room_box) and need no grid; the grid updaters contract
    the same box, one pass after another, until _update_grid gives no
    grid or max_loop_iters passes have run. run() then does only the
    per-frame work of one frame block,
    and stream() that of a sequence of blocks, taken lazily in batches
    of BATCH_FRAMES. Each frame block is turned into its mic spectra
    (features._mic_spectra) as it is read and let go, so its samples are
    gone before its pairs are weighted and transformed, and the previous
    frame's features are gone before its spectra are made; the features
    step takes the spectra. When every pass is exhaustive over the
    prepared grid, a batch's lag blocks are built one frame at a time,
    each one's lag windows cut before the next is built
    (localize_multi_batch, whose rounds are a de-emphasis config's, or
    the one pass of any other), and its frames are searched together;
    no block but the last outlives its cut. A frequency de-emphasis
    config runs each frame's rounds in localize_multi.
    The last frame's features stay until the next run; map() maps them
    once more over the prepared grid (the CLI's export), a time map's
    lag table columns a block at a time as every time score builds them
    (srp_core._time_scores), and the export builds the grid's points for
    that map alone. No table of a whole grid is built or kept. The grid
    updaters' passes over new regions search cells built per pass.
    """

    def __init__(self, array: MicArray, room, cfg: PipelineConfig):
        diags = validate_config(cfg, room)
        if diags:
            raise ConfigError("; ".join(diags))
        self.array, self.room, self.cfg = array, room, cfg
        try:
            self.gcc = _gcc_config(cfg.features, array)
        except ValueError as e:
            raise ConfigError(f"features: {e}") from e
        self.grid = self.steering = self.features = None
        if cfg.search.mode != "exhaustive":
            return
        self.grid = build_grid(cfg.grid, room)
        if cfg.map.domain == "time":
            self.steering = time_cells(self.grid, array)
        elif cfg.map.domain == "volumetric":
            self.steering = lag_windows(self.grid, array, cfg.map.guard)

    def _features(self, blocks: Iterable[np.ndarray]) -> Iterator:
        """Each frame block's features, lazily, each held as the plan's features until the next block is read.

        A LagBlock over +/-max D for time/volumetric maps, else a
        SpectralBlock, made from the block's mic spectra: the previous
        frame's features go before they are made, and a block once they
        are, before its pairs are weighted and transformed.
        """
        array, gcc = self.array, self.gcc
        lags = self.cfg.map.domain in ("time", "volumetric")
        for frames in blocks:
            self.features = None  # before this frame's rfft; the last frame's stay for map()
            spectra = _mic_spectra(frames, array, gcc)
            del frames  # before its pairs are weighted and transformed
            if lags:
                self.features = _lags_of(spectra, array, gcc, reach=int(array.lag_bounds.max()))
            else:
                self.features = _gccs_of(spectra, array, gcc)
            del spectra  # before the next block is read
            yield self.features

    def map(self) -> SrpMap:
        """One map of the configured domain, over the prepared grid, of the last run's features."""
        if self.features is None:
            raise ValueError("Plan.map() maps the features of the last run(); run a frame block first")
        grid = build_grid(self.cfg.grid, self.room) if self.grid is None else self.grid
        return self._build_map(grid, self.steering, self.features)

    def _build_map(self, grid, steering, feats) -> SrpMap:
        m, array = self.cfg.map, self.array
        if m.domain == "time":
            return srp_time_map(feats, grid, array)
        if m.domain == "frequency":
            return srp_freq_map(feats, grid, array)
        if m.domain == "volumetric":
            return vsrp_map(feats, grid, array, pooling=m.pooling, guard=m.guard, windows=steering)
        return wsrp_map(pairwise_freq_scores(feats, grid, array), m.wsrp)

    def run(self, frames: np.ndarray) -> EstimateSet:
        """Localize in one (M, L) frame block, a batch of one; see x_srp."""
        return self._run_batch([frames])[0]

    def stream(self, blocks: Iterable[np.ndarray]) -> Iterator[EstimateSet]:
        """Localize in each (M, L) frame block of ``blocks``, in order, taking
        them lazily in batches of at most BATCH_FRAMES; each estimate set
        equals run() of its block."""
        blocks = iter(blocks)
        while estimates := self._run_batch(islice(blocks, BATCH_FRAMES)):
            yield from estimates

    def _run_batch(self, blocks: Iterable[np.ndarray]) -> list[EstimateSet]:
        cfg, feats = self.cfg, self._features(blocks)
        if cfg.map.domain != "time" or cfg.search.mode != "exhaustive" or cfg.grid_update != "none":
            return list(map(self._run_one, feats))  # map holds no frame's features past its run
        # every pass is exhaustive over the prepared grid: search the batch together;
        # each frame's block goes once its windows are cut, the last stays for map()
        return localize_multi_batch(feats, self.grid, self.array, cfg.multi or MultiConfig(), cells=self.steering)

    def _run_one(self, feats) -> EstimateSet:
        cfg, array = self.cfg, self.array
        if cfg.multi is not None:
            return localize_multi(feats, self.grid, array, cfg.multi)
        planar = cfg.grid.kind == "cartesian2d"
        # the room box that an iterative search or a grid updater contracts
        contracts = cfg.search.mode != "exhaustive" or cfg.grid_update != "none"
        region = _room_box(self.room, planar) if contracts else None
        if cfg.search.mode in ("refine", "src"):
            scorer = (make_time_scorer if cfg.map.domain == "time" else make_freq_scorer)(feats, array)
            res = (src_search if cfg.search.mode == "src" else refine_search)(scorer, region, cfg.search)
            return EstimateSet(res.estimate[None, :], [res.score])

        estimates: list[tuple[np.ndarray, float]] = []
        grid, steering = self.grid, self.steering
        resolution = _resolution3(cfg.grid.resolution, 2 if planar else 3) if contracts else None
        for _ in range(cfg.max_loop_iters):
            if cfg.map.domain == "time":  # every pass searches its grid's cells
                if steering is None:
                    steering = time_cells(grid, array)
                (j,), (score,) = time_argmax(steering, [feats])
                best, score = grid.take(j), float(score)
            else:
                res = argmax_search(self._build_map(grid, steering, feats))
                best, score = res.estimate, res.score
            estimates.append((best, score))
            grid, region, resolution = _update_grid(cfg, best, region, resolution, planar)
            if grid is None:
                break
            steering = None  # later passes grid a new region, so their steering is built per pass
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


def config_to_dict(v):
    """JSON-ready form of a config dataclass, every field filled (inverse of config_from_dict)."""
    if is_dataclass(v):
        return {f.name: config_to_dict(getattr(v, f.name)) for f in fields(v)}
    if isinstance(v, dict):  # pair weights, or a JSON object passed through
        return {f"{k.l}-{k.m}" if isinstance(k, MicPair) else k: config_to_dict(w) for k, w in v.items()}
    if isinstance(v, (tuple, list, np.ndarray)):
        return [config_to_dict(x) for x in v]
    if isinstance(v, np.generic):
        return v.item()
    return v


def config_from_dict(d: dict, cls=PipelineConfig, name: str = "pipeline"):
    """Build dataclass cls from the JSON object d, the section called name.

    Allowed keys are the dataclass fields, each value coerced by the
    field's annotation (a dataclass annotation recurses). An omitted key
    keeps its default; a field without one is required.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{name!r} must be a JSON object")
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}")
    missing = [f.name for f in fields(cls)
               if f.name not in d and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"missing keys in {name!r}: {missing}")
    hints = _type_hints(cls)
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
        return config_from_dict(v, tp, key)
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
    if tp is int and not (type(v) is int or isinstance(v, float) and v.is_integer()):
        raise ConfigError(f"{key!r} in {section!r} must be a whole number, got {v!r}")
    if tp in (float, np.ndarray) and _has_bool(v):
        raise ConfigError(f"{key!r} in {section!r} must be a number, got {v!r}")
    try:
        value = np.asarray(v, dtype=float) if tp is np.ndarray else tp(v)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{key!r} in {section!r}: not a number: {v!r}") from e
    # JSON's NaN and "nan" are refused; inf stays (a pair weight of inf excludes the pair)
    if tp in (float, np.ndarray) and np.isnan(value).any():
        raise ConfigError(f"{key!r} in {section!r}: not a number: {v!r}")
    return value


def _has_bool(v) -> bool:  # at any nesting depth of a JSON value
    return isinstance(v, bool) or isinstance(v, list) and any(map(_has_bool, v))


def _pair(key: str) -> MicPair:
    try:
        l, m = (int(x) for x in key.split("-"))
        return MicPair(l, m)
    except ValueError as e:
        raise ConfigError(f"bad pair key {key!r} (want 'l-m')") from e
