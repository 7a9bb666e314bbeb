"""Acceptance suite: one test per shipped guarantee.

Every test prints a single PASS/FAIL line (visible with pytest -s)
and pins its tolerances inline. Statistical checks use fixed seeds;
runtime limits are asserted where a criterion carries one.
"""

import math
import time

import numpy as np
import pytest
from scipy.signal import lfilter

from xsrp.features import (
    FrameConfig,
    GccConfig,
    SpectralBlock,
    compute_spectral_gccs,
    frame_blocks,
    frame_stack,
    lag_block,
)
from xsrp.geometry import MicArray, MicPair, SphericalDirection, tdoa, tdoa_matrix
from xsrp.grids import CandidateGrid, Volume, VolumeGrid, cartesian_grid, doa_grid
from xsrp.multisource import MultiConfig, localize_multi
from xsrp.search import SearchConfig, argmax_search, src_search
from xsrp.srp_core import (
    PairwiseFreqScores,
    WsrpConfig,
    counter,
    make_time_scorer,
    pairwise_freq_scores,
    srp_freq_map,
    srp_freq_scores,
    srp_time_map,
    srp_time_scores,
    tdoa_bounds,
    vsrp_map,
    wsrp_map,
)
from xsrp.synth import SceneSpec, Source, add_noise, pink_noise, synthesize_free_field, white_noise
from xsrp.tracking import LangevinParams, TrackerConfig, track

FS = 16000.0
C = 343.0


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def _render(room, positions, sources, snr_db, noise_seed):
    array = MicArray(positions, sample_rate=FS)
    scene = SceneSpec(np.asarray(room, dtype=float), sources)
    signals = synthesize_free_field(scene, array)
    if math.isfinite(snr_db):
        signals = add_noise(signals, snr_db, seed=noise_seed)
    return array, signals


# ------------------------------------------------------------ criterion 1


def test_c1_tdoa_recovery():
    """GCC-PHAT recovers a -2 ms TDOA within +/-1 sample and out-peaks CC."""
    t0 = time.perf_counter()
    room = [4.0, 2.0, 2.0]
    # mics 0.686 m apart on the x axis, source on the same line, so
    # the path difference is the full baseline: -0.686/343 = -2 ms
    positions = np.array([[2.314, 1.0, 1.0], [3.0, 1.0, 1.0]])
    src = np.array([0.5, 1.0, 1.0])
    sig = white_noise(6144, seed=101)
    array, signals = _render(room, positions, [Source(src, sig)], 20.0, noise_seed=102)
    frames = frame_stack(signals, FrameConfig(4096, 4096), 0)

    lag = lag_block(frames, array)  # one row: pair (0, 1), lags -K..K
    peak_lag = int(np.argmax(lag.values[0])) - lag.max_lag
    cc = lag_block(frames, array, GccConfig(beta=0.0, gamma=0.0))

    def par(v):
        return float(v.values.max() / np.abs(v.values).mean())

    elapsed = time.perf_counter() - t0
    ok = abs(peak_lag - (-32)) <= 1 and par(lag) > par(cc) and elapsed < 1.0
    _report(
        "C1 tdoa recovery",
        ok,
        f"peak lag {peak_lag} (want -32+/-1), par phat {par(lag):.1f} vs cc {par(cc):.1f}, "
        f"{elapsed:.2f} s",
    )


# ------------------------------------------------------------ criterion 2


def test_c2_doa_map_peak():
    """Spherical-array DOA map peaks within one 5 degree cell, 19/20 trials."""
    t0 = time.perf_counter()
    res = math.radians(5.0)
    grid = doa_grid(res, res)
    center = np.array([25.0, 25.0, 25.0])
    verts = np.array(
        [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=float
    ) / math.sqrt(3.0)
    positions = center + 0.05 * verts
    true_dir = SphericalDirection(math.radians(100.0), math.radians(60.0))
    u = true_dir.to_unit()
    src = center + 20.0 * u

    hits = 0
    for trial in range(20):
        sig = white_noise(1024 + 256, seed=1000 + trial)
        array, signals = _render(
            [50.0, 50.0, 50.0], positions, [Source(src, sig)], 20.0, noise_seed=2000 + trial
        )
        frames = frame_stack(signals, FrameConfig(1024, 1024), 0)
        gccs = compute_spectral_gccs(frames, array)  # aliasing-capped default band
        srp = srp_freq_map(gccs, grid, array)
        est = argmax_search(srp).estimate
        az = math.atan2(est[1], est[0]) % (2 * math.pi)
        el = math.asin(np.clip(est[2], -1.0, 1.0))
        daz = abs(az - true_dir.azimuth)
        daz = min(daz, 2 * math.pi - daz)
        if daz <= res + 1e-9 and abs(el - true_dir.elevation) <= res + 1e-9:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 19 and elapsed < 30.0
    _report("C2 doa map peak", ok, f"{hits}/20 within one 5 deg cell, {elapsed:.1f} s")


# ------------------------------------------------------------ criterion 3


def test_c3_free_field_localization():
    """Median 3D error over 50 random free-field scenes <= 0.15 m."""
    t0 = time.perf_counter()
    room = np.array([6.0, 5.0, 3.0])
    grid = cartesian_grid(room, 0.1)
    cfg = GccConfig(band=(100.0, 2000.0))
    errors = []
    for trial in range(50):
        rng = np.random.default_rng(3000 + trial)
        positions = rng.uniform(0.25, room - 0.25, size=(8, 3))
        src = rng.uniform(0.5, room - 0.5)
        noise = white_noise if trial % 2 == 0 else pink_noise
        sig = noise(16000, seed=4000 + trial)
        array, signals = _render(room, positions, [Source(src, sig)], 20.0, 5000 + trial)
        frames = frame_stack(signals, FrameConfig(8192, 8192), 0)
        lags = lag_block(frames, array, cfg)
        est = argmax_search(srp_time_map(lags, grid, array)).estimate
        errors.append(float(np.linalg.norm(est - src)))
    med = float(np.median(errors))
    elapsed = time.perf_counter() - t0
    ok = med <= 0.15 and elapsed < 120.0
    _report("C3 free-field localization", ok, f"median error {med:.3f} m over 50, {elapsed:.1f} s")


# ------------------------------------------------------------ criterion 4


def test_c4_time_frequency_consistency():
    """Integer-sample TDOA scenes: time and frequency argmax agree 100/100."""
    step = C / FS  # one sample of path difference, in meters
    agreements = 0
    for trial in range(100):
        rng = np.random.default_rng(6000 + trial)
        a = int(rng.integers(40, 121))
        b = int(rng.integers(150, 261))
        mic_samples = np.array([0, a, b])
        # keep the source strictly between the outer mics and clear
        # of each of them: outside the span every candidate beyond the
        # last mic shares the true lag tuple and the argmax degenerates
        # into a tie plateau
        while True:
            s = 4 * int(rng.integers(3, b // 4 - 2))
            if np.all(np.abs(mic_samples - s) >= 12):
                break
        offset = 5.0
        positions = np.column_stack(
            [offset + mic_samples * step, np.ones(3), np.ones(3)]
        )
        src = np.array([offset + s * step, 1.0, 1.0])
        lattice = np.arange(-152, 353, 4)
        assert s in lattice
        pts = np.column_stack(
            [offset + lattice * step, np.ones(len(lattice)), np.ones(len(lattice))]
        )
        grid = CandidateGrid("cartesian3d", pts)

        sig = white_noise(2048 + 512, seed=7000 + trial)
        array, signals = _render([14.0, 2.0, 2.0], positions, [Source(src, sig)], 20.0, 8000 + trial)
        frames = frame_stack(signals, FrameConfig(2048, 2048), 0)
        gccs = compute_spectral_gccs(frames, array)
        lags = lag_block(frames, array)
        i_time = int(np.argmax(srp_time_map(lags, grid, array).scores))
        i_freq = int(np.argmax(srp_freq_map(gccs, grid, array).scores))
        if i_time == i_freq:
            agreements += 1
    _report("C4 time/frequency consistency", agreements == 100, f"{agreements}/100 identical argmax")


# ------------------------------------------------------------ criterion 5


def test_c5_volumetric_bounds():
    """Vertex-plus-guard TDOA bounds contain every interior sample."""
    rng = np.random.default_rng(42)
    violations = 0
    for _ in range(1000):
        half = rng.uniform(0.025, 0.2, size=3)
        cen = rng.uniform(-1.5, 1.5, size=3)
        vol = Volume(cen, half)
        # the one-sample guard absorbs vertex-hull curvature only for
        # mics well outside the box: at distance d a face of radius r
        # bulges by about r^2 / (2 d) < c / fs once d > 2.5 m here
        mics = np.empty((2, 3))
        for i in range(2):
            while True:
                m = rng.uniform(-6.0, 6.0, size=3)
                if np.linalg.norm(m - cen) >= 2.5:
                    mics[i] = m
                    break
        array = MicArray(mics, sample_rate=FS)
        pair = MicPair(0, 1)
        bounds = tdoa_bounds(vol, pair, array, guard=1.0)
        samples = rng.uniform(vol.lo, vol.hi, size=(1000, 3))
        taus = tdoa_matrix(samples, array)[:, 0]
        violations += int(np.sum((taus < bounds.tau_min) | (taus > bounds.tau_max)))

    # degenerate volumes with no guard reproduce the point SRP
    rng2 = np.random.default_rng(43)
    positions = rng2.uniform(0.3, [5.7, 4.7, 2.7], size=(5, 3))
    src = np.array([2.1, 2.4, 1.3])
    sig = white_noise(4096 + 512, seed=44)
    array, signals = _render([6.0, 5.0, 3.0], positions, [Source(src, sig)], 20.0, 45)
    frames = frame_stack(signals, FrameConfig(4096, 4096), 0)
    lags = lag_block(frames, array)
    centers = rng2.uniform(0.5, [5.5, 4.5, 2.5], size=(24, 3))
    vgrid = VolumeGrid([Volume(c, np.zeros(3)) for c in centers])
    pooled = vsrp_map(lags, vgrid, array, pooling="sum", guard=0.0).scores
    point = srp_time_scores(centers, lags, array)
    max_dev = float(np.max(np.abs(pooled - point)))

    ok = violations == 0 and max_dev < 1e-12
    _report(
        "C5 volumetric bounds",
        ok,
        f"{violations} violations in 1e6 samples, degenerate dev {max_dev:.1e}",
    )


# ------------------------------------------------------------ criterion 6


def test_c6_src_efficiency():
    """SRC lands within 0.2 m of the dense-grid argmax at >=10x fewer kernels."""
    room = np.array([6.0, 5.0, 3.0])
    grid = cartesian_grid(room, 0.05)
    region = Volume.from_bounds(np.zeros(3), room)
    cfg = GccConfig(band=(100.0, 1000.0))
    matches = 0
    ratios = []
    for trial in range(100):
        rng = np.random.default_rng(9000 + trial)
        positions = rng.uniform(0.3, room - 0.3, size=(8, 3))
        src = rng.uniform(0.5, room - 0.5)
        sig = white_noise(4096 + 512, seed=9100 + trial)
        array, signals = _render(room, positions, [Source(src, sig)], 20.0, 9200 + trial)
        frames = frame_stack(signals, FrameConfig(4096, 4096), 0)
        lags = lag_block(frames, array, cfg)

        counter.reset()
        exhaustive = argmax_search(srp_time_map(lags, grid, array)).estimate
        ops_exhaustive = counter.kernel_ops

        counter.reset()
        scorer = make_time_scorer(lags, array)
        # a generous top_k relative to points_per_iter keeps the
        # retained cloud spread out and avoids locking onto sidelobes
        sc = SearchConfig(
            mode="src", max_iters=14, points_per_iter=300, top_k=20,
            min_region_edge=0.05, seed=trial,
        )
        res = src_search(scorer, region, sc)
        ops_src = counter.kernel_ops

        if np.linalg.norm(res.estimate - exhaustive) <= 0.2 and ops_exhaustive >= 10 * ops_src:
            matches += 1
        ratios.append(ops_exhaustive / ops_src)
    ok = matches >= 90
    _report(
        "C6 src efficiency",
        ok,
        f"{matches}/100 within 0.2 m at >=10x savings, median ratio {np.median(ratios):.0f}x",
    )


# ------------------------------------------------------------ criterion 7


def test_c7_complexity_law():
    """Kernel counters are exactly linear in G, P and band size."""
    room = np.array([5.0, 4.0, 3.0])
    rng = np.random.default_rng(51)
    sig = white_noise(1024 + 512, seed=52)

    def setup(n_mics, band):
        positions = rng.uniform(0.3, room - 0.3, size=(n_mics, 3))
        src = rng.uniform(0.5, room - 0.5)
        array, signals = _render(room, positions, [Source(src, sig)], 20.0, 53)
        frames = frame_stack(signals, FrameConfig(1024, 1024), 0)
        gccs = compute_spectral_gccs(frames, array, GccConfig(band=band))
        lags = lag_block(frames, array, GccConfig(band=band))
        n_bins = int(gccs.in_band.sum())
        return array, gccs, lags, n_bins

    exact = True
    for n_mics, band, g_size in [
        (4, (0.0, 4000.0), 500),
        (4, (0.0, 4000.0), 1000),
        (8, (0.0, 4000.0), 500),
        (4, (0.0, 2000.0), 500),
    ]:
        array, gccs, lags, n_bins = setup(n_mics, band)
        pairs = array.n_pairs
        pts = rng.uniform(0.3, room - 0.3, size=(g_size, 3))
        counter.reset()
        srp_freq_scores(pts, gccs, array)
        exact &= (counter.points, counter.kernel_ops) == (g_size, g_size * pairs * n_bins)
        counter.reset()
        srp_time_scores(pts, lags, array)
        exact &= (counter.points, counter.kernel_ops) == (g_size, g_size * pairs)

    # wall clock for doubling G stays near 2x
    array, gccs, _, _ = setup(6, (0.0, 4000.0))
    times = {}
    for g_size in (4000, 8000):
        pts = rng.uniform(0.3, room - 0.3, size=(g_size, 3))
        best = math.inf
        for _ in range(3):
            t1 = time.perf_counter()
            srp_freq_scores(pts, gccs, array)
            best = min(best, time.perf_counter() - t1)
        times[g_size] = best
    ratio = times[8000] / times[4000]
    ok = exact and 1.6 <= ratio <= 2.5
    _report("C7 complexity law", ok, f"counters exact: {exact}, 2x-grid wall ratio {ratio:.2f}")


# ------------------------------------------------------------ criterion 8


def test_c8_weighted_reductions():
    """W-SRP reduces to the plain map, respects nulls, and drops infinite pairs."""
    room = np.array([5.0, 4.0, 3.0])
    rng = np.random.default_rng(61)
    positions = rng.uniform(0.3, room - 0.3, size=(5, 3))
    src = np.array([2.2, 1.7, 1.6])
    sig = white_noise(2048 + 512, seed=62)
    array, signals = _render(room, positions, [Source(src, sig)], 20.0, 63)
    frames = frame_stack(signals, FrameConfig(2048, 2048), 0)
    gccs = compute_spectral_gccs(frames, array, GccConfig(band=(300.0, 1500.0)))
    grid = cartesian_grid(room, 0.5)
    tensor = pairwise_freq_scores(gccs, grid, array)

    plain = srp_freq_map(gccs, grid, array).scores
    summed = wsrp_map(tensor, WsrpConfig()).scores
    rel = float(np.max(np.abs(summed - plain)) / np.max(np.abs(plain)))
    sum_ok = rel < 1e-9

    nulled = PairwiseFreqScores(
        np.concatenate([np.zeros((1,) + tensor.tensor.shape[1:]), tensor.tensor[1:]]),
        tensor.pairs, tensor.freqs, tensor.grid,
    )
    prod = wsrp_map(nulled, WsrpConfig(pair_combinator="product")).scores
    null_ok = bool(np.all(prod == 0.0))

    drop = tensor.pairs[2]
    inf_cfg = WsrpConfig(pair_weights={drop: math.inf})
    with_inf = wsrp_map(tensor, inf_cfg).scores
    keep = [j for j, p in enumerate(tensor.pairs) if p != drop]
    sub = PairwiseFreqScores(
        tensor.tensor[keep], [tensor.pairs[j] for j in keep], tensor.freqs, tensor.grid
    )
    removed = wsrp_map(sub, WsrpConfig()).scores
    inf_ok = bool(np.array_equal(with_inf, removed))

    # report-only benchmark: sum vs product under one corrupted pair.
    # the original large improvement claim is not reproducible from
    # the information available here, so no threshold is applied.
    sum_err, prod_err = [], []
    for trial in range(12):
        trng = np.random.default_rng(6500 + trial)
        tpos = trng.uniform(0.3, room - 0.3, size=(5, 3))
        tsrc = trng.uniform(0.6, room - 0.6)
        tsig = white_noise(2048 + 512, seed=6600 + trial)
        tarr, tsignals = _render(room, tpos, [Source(tsrc, tsig)], 20.0, 6700 + trial)
        tframes = frame_stack(tsignals, FrameConfig(2048, 2048), 0)
        tg = compute_spectral_gccs(tframes, tarr, GccConfig(band=(300.0, 1500.0)))
        # corrupt one pair: substitute the gcc of two unrelated noises in
        # row (0, 1) of a copy of the block
        junk = np.stack([white_noise(2048, seed=6800 + trial), white_noise(2048, seed=6900 + trial)])
        jg = compute_spectral_gccs(junk, MicArray(tpos[:2], sample_rate=FS),
                                   GccConfig(band=(300.0, 1500.0)))
        spectra = tg.spectra.copy()
        spectra[tg.pairs.index(MicPair(0, 1))] = jg.spectra[0]
        tg = SpectralBlock(spectra, tg.band, tg.in_band, tg.sample_rate, tg.pairs)
        tt = pairwise_freq_scores(tg, grid, tarr)
        for combi, bucket in (("sum", sum_err), ("product", prod_err)):
            est = argmax_search(wsrp_map(tt, WsrpConfig(pair_combinator=combi))).estimate
            bucket.append(float(np.sum((est - tsrc) ** 2)))
    rmse_sum = math.sqrt(np.mean(sum_err))
    rmse_prod = math.sqrt(np.mean(prod_err))
    print(
        "[acceptance] C8 report: corrupted-pair benchmark over 12 scenes: "
        f"rmse sum {rmse_sum:.3f} m, product {rmse_prod:.3f} m (no threshold)",
        flush=True,
    )

    ok = sum_ok and null_ok and inf_ok
    _report(
        "C8 weighted reductions",
        ok,
        f"sum rel dev {rel:.1e}, product null {null_ok}, inf==removal {inf_ok}",
    )


# ------------------------------------------------------------ criterion 9


def test_c9_multi_source():
    """Two well-separated equal-power sources recovered in >=80% of trials."""
    room = np.array([6.0, 5.0, 3.0])
    grid = cartesian_grid(room, 0.1)
    cfg = GccConfig(band=(100.0, 2000.0))
    hits = 0
    for trial in range(50):
        rng = np.random.default_rng(10_000 + trial)
        positions = rng.uniform(0.3, room - 0.3, size=(8, 3))
        src_a = rng.uniform(0.5, room - 0.5)
        while True:
            src_b = rng.uniform(0.5, room - 0.5)
            if np.linalg.norm(src_b - src_a) >= 1.5:
                break
        sources = [
            Source(src_a, white_noise(8192 + 512, seed=11_000 + trial)),
            Source(src_b, white_noise(8192 + 512, seed=12_000 + trial)),
        ]
        array, signals = _render(room, positions, sources, 20.0, 13_000 + trial)
        frames = frame_stack(signals, FrameConfig(8192, 8192), 0)
        lags = lag_block(frames, array, cfg)
        est = localize_multi(lags, grid, array, MultiConfig(n_sources=2))
        if len(est) == 2:
            d_direct = max(
                np.linalg.norm(est.positions[0] - src_a), np.linalg.norm(est.positions[1] - src_b)
            )
            d_swapped = max(
                np.linalg.norm(est.positions[0] - src_b), np.linalg.norm(est.positions[1] - src_a)
            )
            if min(d_direct, d_swapped) <= 0.2:
                hits += 1

    # the single-source path is the plain pipeline, bit for bit
    rng = np.random.default_rng(14_000)
    positions = rng.uniform(0.3, room - 0.3, size=(8, 3))
    src = rng.uniform(0.5, room - 0.5)
    array, signals = _render(
        room, positions, [Source(src, white_noise(8192 + 512, seed=14_001))], 20.0, 14_002
    )
    frames = frame_stack(signals, FrameConfig(8192, 8192), 0)
    lags = lag_block(frames, array, cfg)
    single = argmax_search(srp_time_map(lags, grid, array))
    multi = localize_multi(lags, grid, array, MultiConfig(n_sources=1))
    bitwise = np.array_equal(multi.positions[0], single.estimate) and multi.scores[0] == single.score

    ok = hits >= 40 and bitwise
    _report("C9 multi-source", ok, f"{hits}/50 pairs within 0.2 m, single-path bitwise {bitwise}")


# ----------------------------------------------------------- criterion 10


def test_c10_tracking():
    """Particle filter follows a 0.5 m/s walk and beats per-frame argmax RMSE."""
    room = np.array([6.0, 5.0, 3.0])
    hop = 4096  # 256 ms at 16 kHz
    n_blocks = 39  # 10 s
    start = np.array([1.0, 1.5, 1.5])
    vel = 0.5 * np.array([0.8, 0.6, 0.0])
    rng = np.random.default_rng(70)
    positions = rng.uniform(0.3, room - 0.3, size=(8, 3))
    array = MicArray(positions, sample_rate=FS)

    # piecewise-stationary render: one block per hop, excitation cut
    # from a single continuous noise stream, tails overlap-added
    stream = white_noise(hop * n_blocks, seed=71)
    total = np.zeros((8, hop * n_blocks + 4096))
    for k in range(n_blocks):
        pos_k = start + vel * ((k + 0.5) * hop / FS)
        block = synthesize_free_field(
            SceneSpec(room, [Source(pos_k, stream[k * hop: (k + 1) * hop])]), array
        )
        total[:, k * hop: k * hop + block.shape[1]] += block
    signals = add_noise(total[:, : hop * n_blocks], 20.0, seed=72)

    # moderate band so the map's main lobe is wide enough for blind
    # acquisition from a uniform particle cloud; a sharp likelihood
    # exponent then pins the posterior to the lobe center
    frame_cfg = FrameConfig(4096, hop)
    gcc_cfg = GccConfig(band=(300.0, 1200.0))
    points = track(
        frame_blocks(signals, frame_cfg), array, room, frame_cfg,
        TrackerConfig(q=4000, seed=73, alpha=1.0, beta=0.5, band=(300.0, 1200.0), kappa=16.0),
    )
    truth = np.array(
        [start + vel * ((p.frame * hop + 2048) / FS) for p in points]
    )
    traj = np.array([p.position for p in points])
    errs = np.linalg.norm(traj - truth, axis=1)
    frac_ok = float(np.mean(errs < 0.5))
    rmse_track = float(np.sqrt(np.mean(errs**2)))

    # independent per-frame argmax on a 0.1 m grid, same features
    grid = cartesian_grid(room, 0.1)
    argmax_errs = []
    for i, p in enumerate(points):
        frames = frame_stack(signals, frame_cfg, p.frame)
        lags = lag_block(frames, array, gcc_cfg)
        est = argmax_search(srp_time_map(lags, grid, array)).estimate
        argmax_errs.append(float(np.sum((est - truth[i]) ** 2)))
    rmse_argmax = float(np.sqrt(np.mean(argmax_errs)))

    # Langevin velocity statistics against the AR(1) closed form,
    # within three standard errors over 1e5 Monte-Carlo steps
    params = LangevinParams(alpha=1.0, beta=0.5, dt=hop / FS)
    n = 100_000
    burn = 2_000
    mc = np.random.default_rng(74)
    v = lfilter([1.0], [1.0, -params.a], params.b * mc.standard_normal(n + burn))[burn:]
    target = params.stationary_velocity_var()
    a2 = params.a**2
    se_var = target * math.sqrt(2.0 * (1.0 + a2) / ((1.0 - a2) * n))
    se_mean = math.sqrt(target * (1.0 + params.a) / ((1.0 - params.a) * n))
    stats_ok = abs(v.var() - target) < 3 * se_var and abs(v.mean()) < 3 * se_mean

    ok = frac_ok >= 0.9 and rmse_track <= rmse_argmax and stats_ok
    _report(
        "C10 tracking",
        ok,
        f"{frac_ok * 100:.0f}% frames < 0.5 m, rmse track {rmse_track:.3f} vs argmax "
        f"{rmse_argmax:.3f} m, langevin stats {stats_ok}",
    )
