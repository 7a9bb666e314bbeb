"""Pipeline composition tests.

The pipeline promises bit-for-bit agreement with the standalone
functions it composes, so most tests here assert exact equality
rather than tolerances.
"""

import dataclasses
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from xsrp import features, pipeline
from xsrp.cli import ArraySpec, LocalizeConfig, SimulateConfig, SimulateSpec, SourceSpec, TrackConfig
from xsrp.features import (
    FrameConfig,
    GccConfig,
    LagBlock,
    compute_spectral_gccs,
    frame_blocks,
    frame_stack,
    lag_block,
)
from xsrp.geometry import MicArray, MicPair
from xsrp.grids import Volume, cartesian_grid, doa_grid, partition_room
from xsrp.io_utils import WavReader, write_wav
from xsrp.multisource import MultiConfig, localize_multi
from xsrp.pipeline import (
    MAX_STEERED_POINTS,
    ConfigError,
    FeatureSpec,
    GridSpec,
    MapSpec,
    PipelineConfig,
    _steered_points,
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
    time_cells,
    vsrp_map,
    wsrp_map,
)
from xsrp.synth import SceneSpec, Source, add_noise, synthesize_free_field, white_noise
from xsrp.tracking import TrackerConfig

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


def lags_of(scene):
    array, frames = scene
    return lag_block(frames, array, GccConfig(band=BAND))


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


def test_validate_volume_counts_at_least_one(scene):
    array, _ = scene
    cfg = config_from_dict(
        {"grid": {"kind": "volumes", "counts": [0, 2, 2]}, "map": {"domain": "volumetric"}}
    )
    assert validate_config(cfg, room=ROOM) == ["volume counts must be three integers >= 1"]
    with pytest.raises(ConfigError, match="volume counts must be three integers >= 1"):
        prepare(array, ROOM, cfg)


def test_validate_room_and_resolution_requirements():
    assert any("room" in d for d in validate_config(PipelineConfig()))
    cfg = PipelineConfig(grid=GridSpec(resolution=None))
    assert any("resolution" in d for d in validate_config(cfg, room=ROOM))
    cfg = PipelineConfig(grid=GridSpec(kind="doa_azimuth"))
    assert any("azimuth_res" in d for d in validate_config(cfg))
    cfg = PipelineConfig(grid=GridSpec(kind="doa_az_el", azimuth_res=0.1))
    assert any("elevation_res" in d for d in validate_config(cfg))


def test_validate_bounds_the_grid_before_building_it():
    # a volume steers its 8 vertices: 50^3 cells sit exactly at the cap
    volumetric = MapSpec(domain="volumetric")
    at_cap = PipelineConfig(grid=GridSpec(kind="volumes", counts=(50, 50, 50)), map=volumetric)
    assert MAX_STEERED_POINTS == 8 * 50**3 and validate_config(at_cap, room=ROOM) == []
    over = PipelineConfig(grid=GridSpec(kind="volumes", counts=(50, 50, 51)), map=volumetric)
    assert validate_config(over, room=ROOM) == [
        "grid 'volumes' would steer 1.02e+06 points, over the cap of 1,000,000"
    ]
    counts = (2**21, 2**21, 2**22)  # 2^64 cells: an int64 product wraps to 0
    huge = PipelineConfig(grid=GridSpec(kind="volumes", counts=counts), map=volumetric)
    assert validate_config(huge, room=ROOM)
    assert validate_config(PipelineConfig(grid=GridSpec(resolution=0.05)), room=ROOM) == []
    (diag,) = validate_config(PipelineConfig(grid=GridSpec(resolution=0.03)), room=ROOM)
    assert "2.208e+06 points" in diag  # 166 x 133 x 100, as cartesian_grid counts them
    assert len(cartesian_grid(ROOM, 0.03)) == 2_207_800
    # refine/src searches place their own points and never build the grid
    refine = PipelineConfig(grid=GridSpec(resolution=0.03), search=SearchConfig(mode="refine"))
    assert validate_config(refine, room=ROOM) == []

    # but a round is capped: src samples points_per_iter points, refine scores up to 8 children of each of top_k cells
    def search_diags(**search):
        return validate_config(PipelineConfig(search=SearchConfig(**search)), room=ROOM)

    assert search_diags(mode="src", points_per_iter=MAX_STEERED_POINTS) == []
    assert search_diags(mode="refine", top_k=MAX_STEERED_POINTS // 8) == []
    assert len(search_diags(mode="src", points_per_iter=MAX_STEERED_POINTS + 1)) == 1
    assert len(search_diags(mode="refine", top_k=MAX_STEERED_POINTS // 8 + 1)) == 1
    assert search_diags(mode="src", points_per_iter=1_500_000) == [
        "a src round would steer 1.5e+06 points, over the cap of 1,000,000"
    ]
    assert search_diags(mode="refine", top_k=10**14) == [
        "a refine round would steer 8e+14 points, over the cap of 1,000,000"
    ]


def test_validate_bounds_doa_grids_before_building_them():
    # n_az azimuths on each ring between the poles and one point per pole, counted from the spec
    huge = PipelineConfig(grid=GridSpec(kind="doa_azimuth", azimuth_res=1e-9))
    assert validate_config(huge) == [
        "grid 'doa_azimuth' would steer 6.283e+09 points, over the cap of 1,000,000"
    ]
    with pytest.raises(ConfigError, match="would steer"):
        prepare(MicArray([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]], sample_rate=FS), cfg=huge)
    ring = GridSpec(kind="doa_az_el", azimuth_res=2 * math.pi / 1000, elevation_res=math.pi / 999)
    assert _steered_points(ring, None) == 1000 * 998 + 2
    assert validate_config(PipelineConfig(grid=ring)) == []
    at = dataclasses.replace(ring, elevation_res=math.pi / 1000)
    assert _steered_points(at, None) == 999_002
    assert validate_config(PipelineConfig(grid=at)) == []
    over = dataclasses.replace(ring, elevation_res=math.pi / 1001)
    assert _steered_points(over, None) == 1_000_002
    (diag,) = validate_config(PipelineConfig(grid=over))
    assert diag == "grid 'doa_az_el' would steer 1e+06 points, over the cap of 1,000,000"
    tiny = GridSpec(kind="doa_az_el", azimuth_res=1e-5, elevation_res=5e-324)
    assert "inf points" in validate_config(PipelineConfig(grid=tiny))[0]


@pytest.mark.parametrize("features", [FeatureSpec(band=(2000.0, 100.0)), FeatureSpec(beta=2.0)])
@pytest.mark.parametrize("search", ["exhaustive", "refine"])
def test_prepare_refuses_bad_feature_settings(features, search):
    """The features' GccConfig is built once, by prepare, not at the first frame."""
    cfg = PipelineConfig(features=features, map=MapSpec(domain="time"), search=SearchConfig(mode=search))
    with pytest.raises(ConfigError, match="features: (band|beta)"):
        prepare(MicArray([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]], sample_rate=FS), ROOM, cfg)


@pytest.mark.parametrize("settings, named", [
    ({"beta": 2.0, "band": (2000.0, 100.0)}, "beta, band"),
    ({"beta": 0.0}, "beta"),
    ({"gamma": 0.0}, "gamma"),
    ({"gamma": 1e-3, "band": (100.0, 2000.0)}, "gamma, band"),
])
def test_prepare_refuses_settings_a_cc_feature_ignores(settings, named):
    """cc is the raw cross-spectrum over the full band, so a beta, gamma or band
    off its default is refused by name, not run as GccConfig(0, 0, None)."""
    array = MicArray([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]], sample_rate=FS)
    cfg = PipelineConfig(features=FeatureSpec(kind="cc", **settings), map=MapSpec(domain="time"))
    with pytest.raises(ConfigError, match=f"they ignore {named}$"):
        prepare(array, ROOM, cfg)
    assert validate_config(PipelineConfig(features=FeatureSpec(kind="cc"), map=MapSpec(domain="time")), ROOM) == []


@pytest.mark.parametrize("el", [None, math.pi / 180, math.pi / 36, 0.1, 1.0, math.pi / 2 * (1 + 4e-10), math.pi])
@pytest.mark.parametrize("az", [2 * math.pi / 1000, math.pi / 36, 1.0, 2 * math.pi])
def test_counted_doa_points_equal_the_built_grid(az, el):
    g = GridSpec(kind="doa_azimuth" if el is None else "doa_az_el", azimuth_res=az, elevation_res=el)
    assert _steered_points(g, None) == len(doa_grid(az, el))


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

    lags = lags_of(scene)
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

    lags = lag_block(frames, array, GccConfig(beta=0.0, gamma=0.0))
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

    lags = lags_of(scene)
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

    lags = lags_of(scene)
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
        got_counts = (counter.points, counter.kernel_ops)
        counter.reset()
        want = x_srp(frames, array, room=ROOM, cfg=cfg)
        assert (counter.points, counter.kernel_ops) == got_counts
        assert np.array_equal(got.positions, want.positions)
        assert np.array_equal(got.scores, want.scores)


_EXPORT_CONFIGS = {
    "time": PipelineConfig(
        grid=GridSpec(resolution=0.5), features=FeatureSpec(band=BAND), map=MapSpec(domain="time"),
    ),
    "time_multi": _PLAN_CONFIGS["time_multi"],
    "volumetric": _PLAN_CONFIGS["volumetric"],
}


@pytest.mark.parametrize("name", list(_EXPORT_CONFIGS))
def test_plan_map_reuses_the_last_run_block(scene, name, monkeypatch):
    array, frames = scene
    cfg = _EXPORT_CONFIGS[name]
    plan = prepare(array, ROOM, cfg)
    with pytest.raises(ValueError, match="run a frame block first"):
        plan.map()
    plan.run(frames)
    calls = []
    mic_spectra = features._mic_spectra  # the rfft of both feature blocks
    monkeypatch.setattr(features, "_mic_spectra", lambda *a: calls.append(1) or mic_spectra(*a))
    counter.reset()
    got = plan.map()
    assert calls == []  # no GCCs recomputed
    grid = plan.grid
    assert (counter.points, counter.kernel_ops) == (len(grid), len(grid) * array.n_pairs)  # one build
    # the first-round map of the frame: de-emphasis notched a copy of the block
    if cfg.map.domain == "time":
        want = srp_time_map(lags_of(scene), grid, array)
    else:
        want = vsrp_map(lags_of(scene), grid, array, pooling="sum", guard=1.0)
    assert np.array_equal(got.scores, want.scores)


@pytest.mark.parametrize("name", ["time_multi", "volumetric", "refine"])
def test_plan_holds_only_the_cropped_lag_block(scene, name):
    array, frames = scene
    plan = prepare(array, ROOM, _PLAN_CONFIGS[name])
    plan.run(frames)
    block = plan.features
    d = int(array.lag_bounds.max())
    assert isinstance(block, LagBlock)
    assert block.values.shape == (array.n_pairs, 2 * d + 1)
    assert block.values.base is None  # a copy: the irfft output is not kept alive


def _traced(run):
    """run() once to warm up, so numpy's lazy set-up is not what a guard
    measures, then once more under tracemalloc: (its result, the bytes
    traced while the result is held, the peak), tracing stopped however
    run ends."""
    run()
    tracemalloc.start()
    try:
        return run(), *tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_a_90k_point_time_plan_holds_under_half_a_mib(scene):
    """The prepared plan of a 90,000-point room lattice holds its cells'
    lag ranges and the grid's axes, not its points (2.06 MiB) or a (G,)
    box index."""
    array, _ = scene
    cfg = PipelineConfig(grid=GridSpec(resolution=0.1), map=MapSpec(domain="time"))
    plan, held, _ = _traced(lambda: prepare(array, [6.0, 5.0, 3.0], cfg))
    assert len(plan.grid) == 90_000 and plan.steering.cell is None
    assert held < 0.5 * 2**20


_ROOM_6x5x3 = np.array([6.0, 5.0, 3.0])
#: time3d_multi's 8 distributed mics in the 6 x 5 x 3 m room
_MICS_8 = np.array([[0.3, 0.3, 0.3], [5.7, 0.4, 0.5], [0.4, 4.6, 2.7], [5.6, 4.5, 0.4],
                    [3.0, 0.3, 2.7], [0.3, 2.5, 1.5], [5.7, 2.6, 2.6], [3.1, 4.7, 0.3]])


def test_time_cells_of_a_720k_point_lattice_peak_under_3_mib():
    """A 0.05 m lattice of the 6 x 5 x 3 m room: 720,000 points in
    11,250 boxes. time_cells bounds the boxes in blocks of at most
    srp_core._BOX_BLOCK, whose per-mic interval terms are all it holds
    besides the (P, C) ranges, so it peaks at about 2.6 MiB; all boxes
    at once, it peaked at 9.75 MiB."""
    array = MicArray(_MICS_8, sample_rate=FS)
    grid = cartesian_grid(_ROOM_6x5x3, 0.05)
    cells, _, peak = _traced(lambda: time_cells(grid, array))
    assert len(grid) == 720_000 and cells.query[0].shape == (array.n_pairs, 11_250)
    assert peak < 3 * 2**20


def _two_source_stream(n_frames: int):
    """time3d_multi's size: 8 mics, frames of 4,096 at 16 kHz, 100-2000
    Hz, a 0.1 m lattice of the 6 x 5 x 3 m room (90,000 points) and two
    de-emphasis rounds, ``n_frames`` frames framed lazily and streamed:
    its estimate sets and tracemalloc peak."""
    array = MicArray(_MICS_8, sample_rate=FS)
    sources = [Source(np.array([2.0, 2.0, 1.5]), white_noise(n_frames * 4096, seed=41)),
               Source(np.array([4.5, 3.5, 1.2]), white_noise(n_frames * 4096, seed=42))]
    signals = add_noise(synthesize_free_field(SceneSpec(_ROOM_6x5x3, sources), array), 20.0, seed=43)
    cfg = PipelineConfig(grid=GridSpec(resolution=0.1), features=FeatureSpec(band=(100.0, 2000.0)),
                         map=MapSpec(domain="time"), multi=MultiConfig(n_sources=2))
    plan = prepare(array, _ROOM_6x5x3, cfg)
    estimates, _, peak = _traced(lambda: list(plan.stream(frame_blocks(signals, FrameConfig(4096, 4096)))))
    return estimates, peak


def test_a_4_frame_two_source_stream_over_90k_points_peaks_under_2_1_mib():
    """Four frames streamed as one batch. No (P, nb) cross-spectral
    block, no copy of a frame's lag block and no per-round restack of
    the lag windows is made, so the stream peaks under 2.1 MiB; with all
    three it peaked at 2.36 MiB."""
    estimates, peak = _two_source_stream(4)
    assert [len(e) for e in estimates] == [2, 2, 2, 2]
    assert peak < 2.1 * 2**20


def test_a_4_frame_two_source_stream_over_90k_points_peaks_under_1_3_mib():
    """As above: each frame's lag block goes once its lag windows are
    cut, and the mics' spectra are transformed and weighted a group of
    rows at a time, so the stream peaks at 1.19 MiB; holding every
    frame's block until the search ended, it peaked at 1.88."""
    estimates, peak = _two_source_stream(4)
    assert [len(e) for e in estimates] == [2, 2, 2, 2]
    assert peak < 1.3 * 2**20


def test_a_16_frame_two_source_stream_over_90k_points_peaks_under_2_3_mib():
    """Two batches of BATCH_FRAMES = 8: a batch holds its frames' lag
    window columns, not their blocks, so the stream peaks at 1.71 MiB;
    holding every frame's block of a batch, it peaked at 2.95."""
    estimates, peak = _two_source_stream(16)
    assert [len(e) for e in estimates] == [2] * 16
    assert peak < 2.3 * 2**20


def test_a_2_frame_volumetric_stream_peaks_under_0_62_mib():
    """volumetric's size: 8 mics, frames of 2,048, 100-2000 Hz and 8 x 8 x
    4 volumes of the 6 x 5 x 3 m room, two frames streamed. Each frame
    goes once its mic spectra are made, and the last frame's features
    before the next frame's are made, so the stream peaks at 0.57 MiB;
    holding each frame through its lags, and the last frame's features
    while the next were made, it peaked at 0.69 MiB."""
    array = MicArray(_MICS_8, sample_rate=FS)
    source = Source(np.array([2.0, 2.0, 1.5]), white_noise(2 * 2048, seed=44))
    signals = add_noise(synthesize_free_field(SceneSpec(_ROOM_6x5x3, [source]), array), 20.0, seed=45)
    cfg = PipelineConfig(grid=GridSpec(kind="volumes", counts=(8, 8, 4)),
                         features=FeatureSpec(band=(100.0, 2000.0)), map=MapSpec(domain="volumetric"))
    plan = prepare(array, _ROOM_6x5x3, cfg)
    estimates, _, peak = _traced(lambda: list(plan.stream(frame_blocks(signals, FrameConfig(2048, 2048)))))
    assert [len(e) for e in estimates] == [1, 1]
    assert peak < 0.62 * 2**20


@pytest.mark.parametrize("name", ["time_multi", "volumetric"])
def test_each_streamed_frame_is_gone_before_its_lags_are_transformed(scene, name, tmp_path, monkeypatch):
    """Frames read from a WAV file: when a frame's lags are transformed
    (features._band_lags), no streamed frame is held, the one whose
    spectra they come from included."""
    array, frames = scene
    path = tmp_path / "scene.wav"
    write_wav(path, FS, np.tile(frames, 3))
    plan = prepare(array, ROOM, _PLAN_CONFIGS[name])
    read, transformed, real = [], [], features._band_lags

    def tracked(*args, **kwargs):
        transformed.append(len(read))
        assert not any(ref() is not None for ref in read), "a frame outlived its spectra"
        return real(*args, **kwargs)

    monkeypatch.setattr(features, "_band_lags", tracked)
    with WavReader(path) as reader:
        blocks = map(lambda f: read.append(weakref.ref(f)) or f, reader.frames(FrameConfig(4096)))
        estimates = list(plan.stream(blocks))
    assert len(estimates) == 3 and transformed == [1, 2, 3]


def test_a_streamed_batch_holds_only_its_last_lag_block(scene, monkeypatch):
    """A batch of three frames: each frame's lag block is gone before the
    next one is built, and after the stream only the last one is held,
    as the plan's features for map()."""
    array, frames = scene
    plan = prepare(array, ROOM, _PLAN_CONFIGS["time_multi"])
    made, real = [], pipeline._lags_of

    def tracked(*args, **kwargs):
        assert not any(ref() for ref in made), "a lag block outlived its window cut"
        block = real(*args, **kwargs)
        made.append(weakref.ref(block))
        return block

    monkeypatch.setattr(pipeline, "_lags_of", tracked)
    estimates = list(plan.stream([frames, frames, frames]))
    assert [len(e) for e in estimates] == [2, 2, 2] and len(made) == 3
    assert [ref() is not None for ref in made] == [False, False, True] and made[-1]() is plan.features


@pytest.mark.parametrize("name", list(_PLAN_CONFIGS))
def test_a_frames_features_are_gone_before_the_next_frames_spectra_are_made(scene, name, monkeypatch):
    """A stream of three frames: when a frame's mic spectra are made
    (features._mic_spectra), the previous frame's features, held for
    map() until then, are gone; after the stream the last one's stay."""
    array, frames = scene
    plan = prepare(array, ROOM, _PLAN_CONFIGS[name])
    made, spectra = [], []

    def tracked(real):
        def build(*args, **kwargs):
            feats = real(*args, **kwargs)
            made.append(weakref.ref(feats))
            return feats
        return build

    def mic_spectra(*args):
        spectra.append(len(made))
        assert not any(ref() for ref in made), "a frame's features outlived the next frame's read"
        return real_spectra(*args)

    real_spectra = pipeline._mic_spectra
    monkeypatch.setattr(pipeline, "_mic_spectra", mic_spectra)
    monkeypatch.setattr(pipeline, "_lags_of", tracked(pipeline._lags_of))
    monkeypatch.setattr(pipeline, "_gccs_of", tracked(pipeline._gccs_of))
    assert len(list(plan.stream([frames, frames, frames]))) == 3
    assert spectra == [0, 1, 2] and made[-1]() is plan.features is not None


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
    lags = lag_block(frames, array, GccConfig(band=low_band))
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


MINIMAL_ARRAY = {"positions": [[0.5, 0.5, 0.5], [3.5, 0.5, 0.5], [0.5, 2.5, 1.5]], "sample_rate": 16000.0}


def full_configs() -> dict:
    """Each config that holds sections, with every field set."""
    pipeline = full_config()
    pipeline.grid = dataclasses.replace(pipeline.grid, azimuth_res=0.1, elevation_res=0.2, counts=(2, 3, 1))
    pipeline.search = dataclasses.replace(pipeline.search, max_iters=4, points_per_iter=50, top_k=3)
    array = ArraySpec(np.array(MINIMAL_ARRAY["positions"]), 16000.0, 340.0)
    room = np.array([4.0, 3.0, 2.0])
    tracker = TrackerConfig(q=7, alpha=1.5, beta=0.25, kappa=4.0, seed=9, resample_fraction=0.25,
                            band=(300.0, 1200.0), gcc_beta=0.5, gamma=1e-6)
    source = SourceSpec(np.array([1.0, 1.0, 1.0]), "pink", 9)
    return {
        PipelineConfig: pipeline,
        LocalizeConfig: LocalizeConfig(array, FrameConfig(1024, 512, "hann"), room),
        TrackConfig: TrackConfig(array, room, FrameConfig(1024, 256), tracker),
        SimulateConfig: SimulateConfig(array, room, SimulateSpec((source,), 0.5, 10.0, 4)),
    }


# each config's required keys alone
MINIMAL = {
    PipelineConfig: {},
    LocalizeConfig: {"array": MINIMAL_ARRAY, "frame": {"frame_len": 1024}},
    TrackConfig: {"array": MINIMAL_ARRAY, "room": [4.0, 3.0, 2.0], "frame": {"frame_len": 1024}},
    SimulateConfig: {"array": MINIMAL_ARRAY, "room": [4.0, 3.0, 2.0],
                     "simulate": {"sources": [{"position": [1.0, 1.0, 1.0]}]}},
}

# every section dataclass, the config it sits in, and the keys that lead to its object
SECTIONS = {
    PipelineConfig: (PipelineConfig, ()),
    GridSpec: (PipelineConfig, ("grid",)),
    FeatureSpec: (PipelineConfig, ("features",)),
    MapSpec: (PipelineConfig, ("map",)),
    WsrpConfig: (PipelineConfig, ("map", "wsrp")),
    SearchConfig: (PipelineConfig, ("search",)),
    MultiConfig: (PipelineConfig, ("multi",)),
    ArraySpec: (LocalizeConfig, ("array",)),
    FrameConfig: (LocalizeConfig, ("frame",)),
    TrackerConfig: (TrackConfig, ("tracker",)),
    SimulateSpec: (SimulateConfig, ("simulate",)),
    SourceSpec: (SimulateConfig, ("simulate", "sources", 0)),
}


def test_config_schema_covers_every_dataclass_field():
    fulls = {root: config_to_dict(full) for root, full in full_configs().items()}

    def at(d, path):
        for k in path:
            d = d[k]
        return d

    for cls, (root, path) in SECTIONS.items():
        section = at(fulls[root], path)
        required = {f.name: section[f.name] for f in dataclasses.fields(cls)
                    if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING}
        for f in dataclasses.fields(cls):
            value = section[f.name]
            # the key alone, with the required keys, at its place in an otherwise minimal config
            one = json.loads(json.dumps(MINIMAL[root]))
            if path:
                *outer, last = path
                parent = one
                for k in outer:
                    parent = parent[k] if isinstance(parent, list) else parent.setdefault(k, {})
                parent[last] = required | {f.name: value}
            else:
                one = required | {f.name: value}
            back = config_to_dict(config_from_dict(json.loads(json.dumps(one)), root))
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
    # integer keys take whole numbers only, and no numeric key takes a boolean
    with pytest.raises(ConfigError, match="'counts' in 'grid' must be a whole number, got 2.5"):
        config_from_dict({"grid": {"counts": [2.5, 2, 2]}})
    with pytest.raises(ConfigError, match="'counts' in 'grid' must be a whole number, got True"):
        config_from_dict({"grid": {"counts": [2, 2, True]}})
    with pytest.raises(ConfigError, match="'max_loop_iters' in 'pipeline' must be a whole number"):
        config_from_dict({"max_loop_iters": 3.9})
    with pytest.raises(ConfigError, match="'max_iters' in 'search' must be a whole number"):
        config_from_dict({"search": {"max_iters": float("inf")}})
    with pytest.raises(ConfigError, match="'guard' in 'map' must be a number, got True"):
        config_from_dict({"map": {"guard": True}})
    assert config_from_dict({"max_loop_iters": 3.0}).max_loop_iters == 3


def test_config_accepts_inf_strings():
    cfg = config_from_dict({"map": {"wsrp": {"pair_weights": {"0-1": "inf"}}}})
    assert cfg.map.wsrp.pair_weights[MicPair(0, 1)] == math.inf


def test_build_grid_matches_direct_builders():
    g = build_grid(GridSpec(kind="cartesian2d", resolution=0.5), room=ROOM)
    ref = cartesian_grid(ROOM, 0.5, planar=True)
    np.testing.assert_array_equal(g.points, ref.points)
    vg = build_grid(GridSpec(kind="volumes", counts=(2, 3, 1)), room=ROOM)
    assert len(vg) == 6
