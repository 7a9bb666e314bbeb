"""Tests for the particle filter and its Langevin motion prior."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy.signal import lfilter

from xsrp import tracking
from xsrp.features import FrameConfig, SpectralBlock, SpectralGcc, frame_blocks, n_frames
from xsrp.geometry import MicArray
from xsrp.pipeline import MAX_STEERED_POINTS
from xsrp.synth import SceneSpec, Source, add_noise, synthesize_free_field, white_noise
from xsrp.tracking import (
    LangevinParams,
    TrackerConfig,
    TrackerState,
    estimate,
    init_state,
    predict,
    resample,
    track,
    update_weights,
)

FS = 16000.0
ROOM = np.array([5.0, 4.0, 3.0])


class TestLangevinParams:
    def test_discretization_constants(self):
        p = LangevinParams(alpha=2.0, beta=0.5, dt=0.1)
        assert p.a == pytest.approx(math.exp(-0.2), rel=1e-15)
        assert p.b == pytest.approx(0.5 * math.sqrt(1.0 - p.a), rel=1e-15)
        assert p.stationary_velocity_var() == pytest.approx(
            p.b**2 / (1.0 - p.a**2), rel=1e-15
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            LangevinParams(alpha=0.0)
        with pytest.raises(ValueError, match="beta"):
            LangevinParams(beta=-0.1)
        with pytest.raises(ValueError, match="dt"):
            LangevinParams(dt=0.0)

    def test_stationary_variance_matches_simulation(self):
        # drive a single-axis AR(1) chain and compare the sample
        # variance of the stationary stretch to the closed form,
        # within three standard errors of the variance estimator
        p = LangevinParams(alpha=2.0, beta=0.5, dt=0.05)
        n = 100_000
        burn = 2_000
        rng = np.random.default_rng(77)
        drive = p.b * rng.standard_normal(n + burn)
        v = lfilter([1.0], [1.0, -p.a], drive)[burn:]
        target = p.stationary_velocity_var()
        sample = v.var()
        a2 = p.a**2
        se = target * math.sqrt(2.0 * (1.0 + a2) / ((1.0 - a2) * n))
        assert abs(sample - target) < 3.0 * se


class TestPredict:
    def test_noise_free_stepping_is_exact(self):
        # beta = 0 removes the random drive, so velocities decay
        # geometrically and positions integrate them exactly
        p = LangevinParams(alpha=1.3, beta=0.0, dt=0.2)
        v0 = np.array([[0.3, -0.2, 0.1], [0.0, 0.4, -0.3]])
        p0 = np.array([[2.0, 2.0, 1.5], [1.0, 3.0, 1.0]])
        state = TrackerState(p0.copy(), v0.copy(), np.full(2, 0.5), np.random.default_rng(0))
        for k in range(1, 4):
            predict(state, p, ROOM)
            np.testing.assert_allclose(state.velocities, v0 * p.a**k, rtol=1e-14)
            geom = p.a * (1.0 - p.a**k) / (1.0 - p.a)
            np.testing.assert_allclose(p0 + v0 * p.dt * geom, state.positions, rtol=1e-13)

    def test_positions_clamped_to_room(self):
        p = LangevinParams(alpha=1.0, beta=0.0, dt=1.0)
        state = TrackerState(
            np.array([[4.9, 0.05, 1.0]]),
            np.array([[5.0, -5.0, 0.0]]),
            np.ones(1),
            np.random.default_rng(0),
        )
        predict(state, p, ROOM)
        assert state.positions[0, 0] == ROOM[0]
        assert state.positions[0, 1] == 0.0

    def test_prediction_is_deterministic_per_seed(self):
        p = LangevinParams()
        runs = []
        for _ in range(2):
            s = init_state(ROOM, q=64, seed=9)
            predict(s, p, ROOM)
            runs.append(s.positions.copy())
        np.testing.assert_array_equal(runs[0], runs[1])


class TestWeights:
    def make_state(self, q=4):
        return TrackerState(
            np.zeros((q, 3)), np.zeros((q, 3)), np.full(q, 1.0 / q),
            np.random.default_rng(1),
        )

    def test_weights_follow_clipped_powered_scores(self):
        state = self.make_state()
        scores = np.array([2.0, -1.0, 0.0, 6.0])
        update_weights(state, lambda pts: scores, kappa=1.0)
        np.testing.assert_allclose(state.weights, [0.25, 0.0, 0.0, 0.75], atol=1e-15)
        update_weights(self.make_state(), lambda pts: scores, kappa=2.0)

    def test_kappa_sharpens(self):
        state = self.make_state()
        scores = np.array([2.0, 0.0, 0.0, 6.0])
        update_weights(state, lambda pts: scores, kappa=2.0)
        np.testing.assert_allclose(state.weights, [4.0 / 40.0, 0.0, 0.0, 36.0 / 40.0])

    def test_all_nonpositive_resets_uniform_with_warning(self):
        state = self.make_state()
        with pytest.warns(UserWarning, match="non-positive"):
            update_weights(state, lambda pts: np.full(4, -3.0))
        np.testing.assert_allclose(state.weights, np.full(4, 0.25))

    def test_scores_whose_powers_overflow_keep_finite_weights(self):
        # 2e3^120 overflows to inf, and inf / inf would make every weight NaN
        state = self.make_state()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            update_weights(state, lambda pts: np.array([1e3, 2e3, 1e3, 1e3]), kappa=120.0)
        rel = 0.5**120
        np.testing.assert_allclose(state.weights, np.array([rel, 1.0, rel, rel]) / (1.0 + 3.0 * rel), rtol=1e-12)

    def test_positive_scores_whose_powers_underflow_are_not_reset(self):
        # 2e-3^200 underflows to 0, which must not read as "all scores non-positive"
        state = self.make_state()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            update_weights(state, lambda pts: np.array([1e-3, 2e-3, 1e-3, 1e-3]), kappa=200.0)
        rel = 0.5**200
        np.testing.assert_allclose(state.weights, np.array([rel, 1.0, rel, rel]) / (1.0 + 3.0 * rel), rtol=1e-12)

    def test_kappa_validation(self):
        with pytest.raises(ValueError, match="kappa"):
            update_weights(self.make_state(), lambda pts: np.ones(4), kappa=0.0)

    def test_ess_endpoints(self):
        state = self.make_state(4)
        assert state.ess() == pytest.approx(4.0)
        state.weights = np.array([1.0, 0.0, 0.0, 0.0])
        assert state.ess() == pytest.approx(1.0)
        state.weights = np.array([0.5, 0.5, 0.0, 0.0])
        assert state.ess() == pytest.approx(2.0)


class TestResample:
    def test_copy_counts_track_expected_counts(self):
        q = 100
        rng = np.random.default_rng(5)
        w = rng.random(q)
        w /= w.sum()
        positions = np.zeros((q, 3))
        positions[:, 0] = np.arange(q)  # tag each particle by x
        state = TrackerState(positions, np.zeros((q, 3)), w, np.random.default_rng(8))
        resample(state)
        np.testing.assert_allclose(state.weights, np.full(q, 1.0 / q))
        tags = state.positions[:, 0].astype(int)
        counts = np.bincount(tags, minlength=q)
        # systematic resampling keeps every copy count within one of
        # its expectation q * w_i
        assert np.all(np.abs(counts - q * w) <= 1.0 + 1e-12)

    def test_velocities_copied_with_positions(self):
        q = 8
        positions = np.zeros((q, 3))
        positions[:, 0] = np.arange(q)
        velocities = np.zeros((q, 3))
        velocities[:, 1] = np.arange(q) * 10.0
        w = np.zeros(q)
        w[3] = 1.0
        state = TrackerState(positions, velocities, w, np.random.default_rng(2))
        resample(state)
        assert np.all(state.positions[:, 0] == 3.0)
        assert np.all(state.velocities[:, 1] == 30.0)

    def test_equally_seeded_state_rngs_resample_alike(self):
        def fresh():
            q = 32
            pos = np.zeros((q, 3))
            pos[:, 0] = np.arange(q)
            w = np.linspace(1.0, 5.0, q)
            w /= w.sum()
            return TrackerState(pos, np.zeros((q, 3)), w, np.random.default_rng(42))

        a = resample(fresh()).positions
        b = resample(fresh()).positions
        np.testing.assert_array_equal(a, b)


def test_init_state_properties():
    state = init_state(ROOM, q=200, seed=3)
    assert state.q == 200
    assert np.all(state.positions >= 0.0) and np.all(state.positions <= ROOM)
    assert np.all(state.velocities == 0.0)
    np.testing.assert_allclose(state.weights, np.full(200, 1.0 / 200))
    with pytest.raises(ValueError, match="q >= 1"):
        init_state(ROOM, q=0)
    with pytest.raises(ValueError, match="positive"):
        init_state([-1.0, 2.0, 2.0])


def test_estimate_is_weighted_mean():
    positions = np.array([[0.0, 0.0, 0.0], [2.0, 4.0, 6.0]])
    state = TrackerState(
        positions, np.zeros((2, 3)), np.array([0.25, 0.75]), np.random.default_rng(0)
    )
    np.testing.assert_allclose(estimate(state), [1.5, 3.0, 4.5])


def test_a_tracker_config_bounds_its_particles_by_the_steered_point_cap():
    # refused as the config is read, before init_state allocates q particles
    assert TrackerConfig(q=MAX_STEERED_POINTS).q == MAX_STEERED_POINTS
    for q in (MAX_STEERED_POINTS + 1, 10**14):
        with pytest.raises(ValueError, match="cap of 1,000,000"):
            TrackerConfig(q=q)


def test_tracker_state_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=r"\(Q, 3\)"):
        TrackerState(np.zeros((3, 2)), np.zeros((3, 3)), np.ones(3), rng)
    with pytest.raises(ValueError, match="weights"):
        TrackerState(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(2), rng)


def static_scene_signals(src, seconds=1.0, snr_db=20.0):
    array = MicArray(
        np.array(
            [
                [0.4, 0.4, 0.5],
                [4.6, 0.5, 0.6],
                [0.5, 3.6, 2.4],
                [4.5, 3.5, 0.5],
            ]
        ),
        sample_rate=FS,
    )
    sig = white_noise(int(seconds * FS), seed=6)
    scene = SceneSpec(ROOM, [Source(src, sig)])
    signals = add_noise(synthesize_free_field(scene, array), snr_db, seed=7)
    return signals, array


def test_track_converges_on_static_source():
    src = np.array([2.2, 1.9, 1.4])
    signals, array = static_scene_signals(src)
    cfg = FrameConfig(1024, 512)
    points = track(frame_blocks(signals, cfg), array, ROOM, cfg, TrackerConfig(q=400, seed=1, band=(300.0, 3000.0)))
    assert len(points) == n_frames(signals.shape[1], cfg)
    assert [p.frame for p in points] == list(range(len(points)))
    assert points[3].t_seconds == pytest.approx((3 * 512 + 1024) / FS)
    for p in points:
        assert np.all(p.position >= 0.0) and np.all(p.position <= ROOM)
        assert 1.0 <= p.ess <= 400.0
    tail = np.array([p.position for p in points[-5:]])
    err = np.linalg.norm(tail - src, axis=1)
    assert np.median(err) < 0.5


def test_track_is_deterministic():
    src = np.array([3.0, 2.0, 1.2])
    signals, array = static_scene_signals(src, seconds=0.4)
    cfg = FrameConfig(1024, 1024)
    a = track(frame_blocks(signals, cfg), array, ROOM, cfg, TrackerConfig(q=100, seed=5))
    b = track(frame_blocks(signals, cfg), array, ROOM, cfg, TrackerConfig(q=100, seed=5))
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa.position, pb.position)
        assert pa.ess == pb.ess


def test_track_rejects_channel_mismatch():
    signals, array = static_scene_signals(np.array([2.0, 2.0, 1.0]), seconds=0.2)
    with pytest.raises(ValueError, match="channels"):
        cfg = FrameConfig(1024, 1024)
        track(frame_blocks(signals[:2], cfg), array, ROOM, cfg)


def test_track_point_record_keys():
    src = np.array([2.5, 2.0, 1.5])
    signals, array = static_scene_signals(src, seconds=0.2)
    cfg = FrameConfig(1024, 1024)
    points = track(frame_blocks(signals, cfg), array, ROOM, cfg, TrackerConfig(q=50, seed=0))
    rec = points[0].as_record()
    assert set(rec) == {"frame", "t_seconds", "x", "y", "z", "ess"}
    assert rec["frame"] == 0


def test_a_tracker_frame_holds_only_the_band_block():
    """The features each frame steers hold no spectrum wider than the nb in-band bins.

    Deterministic stand-in for a memory bound: two-sided (P, 2L) values
    would be 2L / nb times wider than the block the kernel reads.
    """
    signals, array = static_scene_signals(np.array([2.5, 2.0, 1.5]), seconds=0.2)
    seen = []
    make = tracking.make_freq_scorer

    def spy(gccs, arr, *args, **kwargs):
        seen.append(gccs)
        scorer = make(gccs, arr, *args, **kwargs)
        assert any(c.cell_contents is gccs for c in scorer.__closure__)  # steers the block itself
        return scorer

    with mock.patch.object(tracking, "make_freq_scorer", spy):
        cfg = FrameConfig(1024, 1024)
        points = track(frame_blocks(signals, cfg), array, ROOM, cfg,
                       TrackerConfig(q=50, seed=0, band=(300.0, 3000.0)))
    assert len(seen) == len(points) > 0
    for feats in seen:
        assert isinstance(feats, SpectralBlock)
        nb = feats.band.stop - feats.band.start
        assert 0 < nb < len(feats.in_band) // 4  # 300-3000 Hz of the 2L bins over -8000..8000 Hz
        held = list(vars(feats).values())
        assert not any(isinstance(v, SpectralGcc) for v in held)
        for v in held:
            if isinstance(v, np.ndarray) and v.dtype != bool:  # in_band: one byte a two-sided bin
                assert v.shape == (array.n_pairs, nb)
