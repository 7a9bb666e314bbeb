"""Pipeline composition tests.

The pipeline promises bit-for-bit agreement with the standalone
functions it composes, so most tests here assert exact equality
rather than tolerances.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from xsrp.features import (
    FrameConfig,
    GccConfig,
    compute_cc_lag_vectors,
    compute_spectral_gccs,
    frame_stack,
    temporal_gcc,
)
from xsrp.geometry import MicArray, MicPair
from xsrp.grids import Volume, cartesian_grid, partition_room
from xsrp.multisource import MultiConfig, localize_multi
from xsrp.pipeline import (
    ConfigError,
    FeatureSpec,
    GridSpec,
    MapSpec,
    PipelineConfig,
    build_grid,
    config_from_dict,
    config_to_dict,
    prepare,
    validate_config,
    x_srp,
)
from xsrp.search import SearchConfig, argmax_search, refine_search, src_search
from xsrp.srp_core import (
    WsrpConfig,
    counter,
    make_freq_scorer,
    make_time_scorer,
    pairwise_freq_scores,
    srp_freq_map,
    srp_time_map,
    vsrp_map,
    wsrp_map,
)
from xsrp.synth import SceneSpec, Source, add_noise, synthesize_free_field, white_noise

FS = 16000.0
ROOM = np.array([5.0, 4.0, 3.0])
SRC = np.array([2.0, 2.5, 1.5])
BAND = (300.0, 3000.0)


@pytest.fixture(scope="module")
def scene():
    array = MicArray(
        np.array(
            [
                [0.4, 0.4, 0.5],
                [4.6, 0.5, 0.6],
                [0.5, 3.6, 2.4],
                [4.5, 3.5, 0.5],
                [2.5, 0.4, 2.5],
            ]
        ),
        sample_rate=FS,
    )
    sig = white_noise(4096, seed=31)
    spec = SceneSpec(ROOM, [Source(SRC, sig)])
    signals = add_noise(synthesize_free_field(spec, array), 20.0, seed=32)
    frames = frame_stack(signals, FrameConfig(4096, 4096), 0)
    return array, frames


def gccs_of(scene, beta=1.0, gamma=None):
    array, frames = scene
    return compute_spectral_gccs(frames, array, GccConfig(beta=beta, gamma=gamma, band=BAND))


# ---------------------------------------------------------------- validation


def test_validate_accepts_default_with_room(scene):
    cfg = PipelineConfig(features=FeatureSpec(band=BAND))
    assert validate_config(cfg, room=ROOM) == []


def test_validate_cc_features_reject_spectral_maps():
    cfg = PipelineConfig(features=FeatureSpec(kind="cc"), map=MapSpec(domain="frequency"))
    diags = validate_config(cfg, room=ROOM)
    assert any("gcc_phat" in d for d in diags)


def test_validate_volumetric_grid_pairing():
    cfg = PipelineConfig(map=MapSpec(domain="volumetric"))
    assert any("volumes" in d for d in validate_config(cfg, room=ROOM))
    cfg = PipelineConfig(grid=GridSpec(kind="volumes", counts=(2, 2, 2)))
    assert any("volumetric" in d for d in validate_config(cfg, room=ROOM))


def test_validate_room_and_resolution_requirements():
    assert any("room" in d for d in validate_config(PipelineConfig()))
    cfg = PipelineConfig(grid=GridSpec(resolution=None))
    assert any("resolution" in d for d in validate_config(cfg, room=ROOM))
    cfg = PipelineConfig(grid=GridSpec(kind="doa_azimuth"))
    assert any("azimuth_res" in d for d in validate_config(cfg))
    cfg = PipelineConfig(grid=GridSpec(kind="doa_az_el", azimuth_res=0.1))
    assert any("elevation_res" in d for d in validate_config(cfg))


def test_validate_iterative_search_restrictions():
    cfg = PipelineConfig(
        grid=GridSpec(kind="doa_azimuth", azimuth_res=0.1),
        search=SearchConfig(mode="src"),
    )
    assert any("DOA" in d for d in validate_config(cfg))
    cfg = PipelineConfig(
        grid=GridSpec(kind="volumes", counts=(2, 2, 2)),
        map=MapSpec(domain="volumetric"),
        search=SearchConfig(mode="refine"),
    )
    assert any("per-point" in d for d in validate_config(cfg, room=ROOM))
    cfg = PipelineConfig(search=SearchConfig(mode="src"))
    assert any("room" in d for d in validate_config(cfg))


def test_validate_multi_source_restrictions():
    cfg = PipelineConfig(multi=MultiConfig(), search=SearchConfig(mode="src"))
    assert any("exhaustive" in d for d in validate_config(cfg, room=ROOM))
    cfg = PipelineConfig(multi=MultiConfig(), grid_update="contract")
    assert any("grid_update" in d for d in validate_config(cfg, room=ROOM))


def test_validate_grid_update_restrictions():
    cfg = PipelineConfig(
        grid=GridSpec(kind="doa_azimuth", azimuth_res=0.1), grid_update="subdivide"
    )
    assert any("cartesian" in d for d in validate_config(cfg))
    cfg = PipelineConfig(grid_update="contract", search=SearchConfig(mode="refine"))
    assert any("exhaustive" in d for d in validate_config(cfg, room=ROOM))


def test_x_srp_raises_config_error(scene):
    array, frames = scene
    cfg = PipelineConfig(features=FeatureSpec(kind="cc"), map=MapSpec(domain="frequency"))
    with pytest.raises(ConfigError, match="gcc_phat"):
        x_srp(frames, array, room=ROOM, cfg=cfg)


def test_spec_constructors_reject_unknown_kinds():
    with pytest.raises(ConfigError, match="grid kind"):
        GridSpec(kind="hexagonal")
    with pytest.raises(ConfigError, match="feature kind"):
        FeatureSpec(kind="mfcc")
    with pytest.raises(ConfigError, match="map domain"):
        MapSpec(domain="cepstral")
    with pytest.raises(ConfigError, match="grid_update"):
        PipelineConfig(grid_update="expand")
    with pytest.raises(ConfigError, match="max_loop_iters"):
        PipelineConfig(max_loop_iters=0)
    with pytest.raises(ConfigError, match="max_loop_iters"):
        PipelineConfig(max_loop_iters=51)


# ------------------------------------------------------------- composition


def test_frequency_pipeline_matches_standalone(scene):
    array, frames = scene
    cfg = PipelineConfig(
        grid=GridSpec(resolution=0.5),
        features=FeatureSpec(band=BAND),
        map=MapSpec(domain="frequency"),
    )
    est = x_srp(frames, array, room=ROOM, cfg=cfg)

    grid = cartesian_grid(ROOM, 0.5)
    ref = argmax_search(srp_freq_map(gccs_of(scene), grid, array))
    assert len(est) == 1
    assert np.array_equal(est.positions[0], ref.estimate)
    assert est.scores[0] == ref.score


def test_time_pipeline_matches_standalone(scene):
    array, frames = scene
    cfg = PipelineConfig(
        grid=GridSpec(resolution=0.5),
        features=FeatureSpec(band=BAND),
        map=MapSpec(domain="time"),
    )
    est = x_srp(frames, array, room=ROOM, cfg=cfg)

    lags = {p: temporal_gcc(g) for p, g in gccs_of(scene).items()}
    ref = argmax_search(srp_time_map(lags, cartesian_grid(ROOM, 0.5), array))
    assert np.array_equal(est.positions[0], ref.estimate)
    assert est.scores[0] == ref.score


def test_cc_time_pipeline_matches_standalone(scene):
    array, frames = scene
    cfg = PipelineConfig(
        grid=GridSpec(resolution=0.5),
        features=FeatureSpec(kind="cc"),
        map=MapSpec(domain="time"),
    )
    est = x_srp(frames, array, room=ROOM, cfg=cfg)

    lags = compute_cc_lag_vectors(frames, array)
    ref = argmax_search(srp_time_map(lags, cartesian_grid(ROOM, 0.5), array))
    assert np.array_equal(est.positions[0], ref.estimate)
    assert est.scores[0] == ref.score


def test_src_pipeline_matches_standalone(scene):
    array, frames = scene
    search = SearchConfig(mode="src", max_iters=8, points_per_iter=150, top_k=10, seed=4)
    cfg = PipelineConfig(features=FeatureSpec(band=BAND), search=search)
    est = x_srp(frames, array, room=ROOM, cfg=cfg)

    scorer = make_freq_scorer(gccs_of(scene), array)
    ref = src_search(scorer, Volume.from_bounds(np.zeros(3), ROOM), search)
    assert np.array_equal(est.positions[0], ref.estimate)
    assert est.scores[0] == ref.score


def test_refine_pipeline_matches_standalone(scene):
    array, frames = scene
    search = SearchConfig(mode="refine", max_iters=6, top_k=6, min_region_edge=0.1)
    cfg = PipelineConfig(
        features=FeatureSpec(band=BAND), map=MapSpec(domain="time"), search=search
    )
    est = x_srp(frames, array, room=ROOM, cfg=cfg)

    lags = {p: temporal_gcc(g) for p, g in gccs_of(scene).items()}
    scorer = make_time_scorer(lags, array)
    ref = refine_search(scorer, Volume.from_bounds(np.zeros(3), ROOM), search)
    assert np.array_equal(est.positions[0], ref.estimate)
    assert est.scores[0] == ref.score


def test_multi_pipeline_matches_standalone(scene):
    array, frames = scene
    multi = MultiConfig(n_sources=2)
    cfg = PipelineConfig(
        grid=GridSpec(resolution=0.5), features=FeatureSpec(band=BAND), multi=multi
    )
    est = x_srp(frames, array, room=ROOM, cfg=cfg)

    ref = localize_multi(gccs_of(scene), cartesian_grid(ROOM, 0.5), array, multi)
    assert len(est) == len(ref) == 2
    assert np.array_equal(est.positions, ref.positions)
    assert np.array_equal(est.scores, ref.scores)


def test_volumetric_pipeline_matches_standalone(scene):
    array, frames = scene
    cfg = PipelineConfig(
        grid=GridSpec(kind="volumes", counts=(3, 3, 2)),
        features=FeatureSpec(band=BAND),
        map=MapSpec(domain="volumetric", pooling="max", guard=1.0),
    )
    est = x_srp(frames, array, room=ROOM, cfg=cfg)

    lags = {p: temporal_gcc(g) for p, g in gccs_of(scene).items()}
    vgrid = partition_room(ROOM, (3, 3, 2))
    ref = argmax_search(vsrp_map(lags, vgrid, array, pooling="max", guard=1.0))
    assert np.array_equal(est.positions[0], ref.estimate)
    assert est.scores[0] == ref.score


def test_weighted_pipeline_matches_standalone(scene):
    array, frames = scene
    wsrp = WsrpConfig(pair_combinator="product")
    cfg = PipelineConfig(
        grid=GridSpec(resolution=0.5),
        features=FeatureSpec(band=BAND),
        map=MapSpec(domain="weighted", wsrp=wsrp),
    )
    est = x_srp(frames, array, room=ROOM, cfg=cfg)

    tensor = pairwise_freq_scores(gccs_of(scene), cartesian_grid(ROOM, 0.5), array)
    ref = argmax_search(wsrp_map(tensor, wsrp))
    assert np.array_equal(est.positions[0], ref.estimate)
    assert est.scores[0] == ref.score


# ---------------------------------------------------------- prepared plan


_PLAN_CONFIGS = {
    "time_multi": PipelineConfig(
        grid=GridSpec(resolution=0.5), features=FeatureSpec(band=BAND),
        map=MapSpec(domain="time"), multi=MultiConfig(n_sources=2),
    ),
    "volumetric": PipelineConfig(
        grid=GridSpec(kind="volumes", counts=(3, 3, 2)), features=FeatureSpec(band=BAND),
        map=MapSpec(domain="volumetric", pooling="sum", guard=1.0),
    ),
    "frequency": PipelineConfig(grid=GridSpec(resolution=0.5), features=FeatureSpec(band=BAND)),
    "refine": PipelineConfig(
        features=FeatureSpec(band=BAND), map=MapSpec(domain="time"),
        search=SearchConfig(mode="refine", max_iters=5, top_k=4, min_region_edge=0.2),
    ),
    "contract": PipelineConfig(
        grid=GridSpec(resolution=0.5), features=FeatureSpec(band=BAND),
        map=MapSpec(domain="time"), grid_update="contract", max_loop_iters=4,
    ),
}


@pytest.mark.parametrize("name", list(_PLAN_CONFIGS))
def test_prepared_plan_reused_across_frames_matches_x_srp(scene, name):
    array, _ = scene
    cfg = _PLAN_CONFIGS[name]
    sig = white_noise(3 * 2048, seed=33)
    signals = add_noise(synthesize_free_field(SceneSpec(ROOM, [Source(SRC, sig)]), array), 20.0, seed=34)
    plan = prepare(array, ROOM, cfg)
    for i in range(3):
        frames = frame_stack(signals, FrameConfig(2048, 2048), i)
        counter.reset()
        got = plan.run(frames)
        got_counts = counter.snapshot()
        counter.reset()
        want = x_srp(frames, array, room=ROOM, cfg=cfg)
        assert counter.snapshot() == got_counts
        assert np.array_equal(got.positions, want.positions)
        assert np.array_equal(got.scores, want.scores)


# ------------------------------------------------------------ grid updates


def test_subdivide_update_refines_estimate(scene):
    # a low band widens the correlation lobes past the coarse cell
    # size, so the first pass lands next to the source and the
    # refined passes stay on the true peak
    low_band = (100.0, 900.0)
    array, frames = scene
    cfg = PipelineConfig(
        grid=GridSpec(resolution=0.4),
        features=FeatureSpec(band=low_band),
        map=MapSpec(domain="time"),
        grid_update="subdivide",
    )
    est = x_srp(frames, array, room=ROOM, cfg=cfg)
    assert len(est) >= 2
    assert np.all(np.diff(est.scores) <= 0)
    assert np.all(est.positions >= 0) and np.all(est.positions <= ROOM)

    # pass 1 is exactly the coarse exhaustive map, and refinement
    # can only add rows, so the coarse winner appears verbatim and
    # the overall best scores at least as high
    gccs = compute_spectral_gccs(
        frames, array, GccConfig(band=low_band)
    )
    lags = {p: temporal_gcc(g) for p, g in gccs.items()}
    coarse = argmax_search(srp_time_map(lags, cartesian_grid(ROOM, 0.4), array))
    assert any(
        np.array_equal(p, coarse.estimate) and s == coarse.score for p, s in est
    )
    assert est.scores[0] >= coarse.score
    assert np.linalg.norm(est.positions[0] - SRC) < 0.4 * math.sqrt(3)


def test_contract_update_terminates(scene):
    array, frames = scene
    cfg = PipelineConfig(
        grid=GridSpec(resolution=0.5),
        features=FeatureSpec(band=BAND),
        map=MapSpec(domain="time"),
        grid_update="contract",
        max_loop_iters=4,
    )
    est = x_srp(frames, array, room=ROOM, cfg=cfg)
    assert 1 <= len(est) <= 4


def test_loop_cap_bounds_pass_count(scene):
    array, frames = scene
    cfg = PipelineConfig(
        grid=GridSpec(resolution=0.4),
        features=FeatureSpec(band=BAND),
        map=MapSpec(domain="time"),
        grid_update="subdivide",
        max_loop_iters=2,
    )
    est = x_srp(frames, array, room=ROOM, cfg=cfg)
    assert len(est) == 2


# ------------------------------------------------------------------ config


def full_config() -> PipelineConfig:
    return PipelineConfig(
        grid=GridSpec(kind="cartesian3d", resolution=(0.2, 0.2, 0.4)),
        features=FeatureSpec(kind="gcc_phat", beta=0.8, gamma=1e-6, band=(200.0, 4000.0)),
        map=MapSpec(
            domain="weighted",
            wsrp=WsrpConfig(
                freq_combinator="sum",
                pair_combinator="hamacher",
                freq_weights=np.array([1.0, 2.0, 3.0]),
                pair_weights={MicPair(0, 1): 2.0, MicPair(1, 2): math.inf},
            ),
        ),
        search=SearchConfig(mode="exhaustive", seed=3),
        multi=MultiConfig(n_sources=None, notch_sigma=1e-4, score_floor=0.3),
        grid_update="none",
        max_loop_iters=7,
    )


def test_config_round_trips_through_json():
    # the default config leaves multi, wsrp, band and counts at None
    for cfg in (full_config(), PipelineConfig()):
        d = config_to_dict(cfg)
        wire = json.loads(json.dumps(d))
        back = config_from_dict(wire)
        assert config_to_dict(back) == d
        # and a second round trip is stable
        assert config_to_dict(config_from_dict(json.loads(json.dumps(config_to_dict(back))))) == d


# every section dataclass and the keys that lead to its object
SECTIONS = {
    PipelineConfig: (),
    GridSpec: ("grid",),
    FeatureSpec: ("features",),
    MapSpec: ("map",),
    WsrpConfig: ("map", "wsrp"),
    SearchConfig: ("search",),
    MultiConfig: ("multi",),
}


def test_config_schema_covers_every_dataclass_field():
    cfg = full_config()
    cfg.grid = dataclasses.replace(cfg.grid, azimuth_res=0.1, elevation_res=0.2, counts=(2, 3, 1))
    cfg.search = dataclasses.replace(cfg.search, max_iters=4, points_per_iter=50, top_k=3)
    full = config_to_dict(cfg)

    def at(d, path):
        for k in path:
            d = d[k]
        return d

    for cls, path in SECTIONS.items():
        for f in dataclasses.fields(cls):
            value = at(full, path)[f.name]
            # the key alone, at its place in an otherwise empty config
            one = {f.name: value}
            for k in reversed(path):
                one = {k: one}
            back = config_to_dict(config_from_dict(json.loads(json.dumps(one))))
            assert at(back, path)[f.name] == value, (cls.__name__, f.name)


def test_config_defaults_from_empty_dict():
    cfg = config_from_dict({})
    assert cfg.grid.kind == "cartesian3d"
    assert cfg.features.kind == "gcc_phat"
    assert cfg.map.domain == "frequency"
    assert cfg.search.mode == "exhaustive"
    assert cfg.multi is None
    assert cfg.grid_update == "none"


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="pipeline"):
        config_from_dict({"grids": {}})
    with pytest.raises(ConfigError, match="'grid'"):
        config_from_dict({"grid": {"resolutoin": 0.1}})
    with pytest.raises(ConfigError, match="'features'"):
        config_from_dict({"features": {"alpha": 1.0}})
    with pytest.raises(ConfigError, match="'map'"):
        config_from_dict({"map": {"pool": "max"}})
    with pytest.raises(ConfigError, match="'wsrp'"):
        config_from_dict({"map": {"wsrp": {"combiner": "sum"}}})
    with pytest.raises(ConfigError, match="'search'"):
        config_from_dict({"search": {"iters": 3}})
    with pytest.raises(ConfigError, match="'multi'"):
        config_from_dict({"multi": {"sources": 2}})
    with pytest.raises(ConfigError, match="pair key"):
        config_from_dict({"map": {"wsrp": {"pair_weights": {"ab": 1.0}}}})
    with pytest.raises(ConfigError, match="not a number"):
        config_from_dict({"map": {"wsrp": {"pair_weights": {"0-1": "huge"}}}})
    with pytest.raises(ConfigError, match="'grid' must be a JSON object"):
        config_from_dict({"grid": [1, 2]})
    with pytest.raises(ConfigError, match="'band' in 'features': expected 2 entries, got 3"):
        config_from_dict({"features": {"band": [100.0, 200.0, 300.0]}})
    with pytest.raises(ConfigError, match="null is not allowed for 'max_iters' in 'search'"):
        config_from_dict({"search": {"max_iters": None}})


def test_config_accepts_inf_strings():
    cfg = config_from_dict({"map": {"wsrp": {"pair_weights": {"0-1": "inf"}}}})
    assert cfg.map.wsrp.pair_weights[MicPair(0, 1)] == math.inf


def test_build_grid_matches_direct_builders():
    g = build_grid(GridSpec(kind="cartesian2d", resolution=0.5), room=ROOM)
    ref = cartesian_grid(ROOM, 0.5, planar=True)
    np.testing.assert_array_equal(g.points, ref.points)
    vg = build_grid(GridSpec(kind="volumes", counts=(2, 3, 1)), room=ROOM)
    assert len(vg) == 6
