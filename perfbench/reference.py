"""Independent numpy recomputation of the SRP scores the commands must produce.

This is the benchmark's check on the program's answers that does not
depend on acoustic accuracy: whatever the scene, the program must score
its candidates as the SRP definitions say. The formulas here share no
code with xsrp; they restate its documented conventions (rectangular
frames, GCC-PHAT on a 2L-point two-sided DFT with a 1e-12 relative
floor, band limits on |f|, nearest-lag time maps, vertex-bounded
volumetric windows with a one-sample guard, frequency maps summed over
the two-sided band).

``check_time3d`` and ``check_volumetric`` judge a command's own output;
``check_track`` judges the tracker's scoring function on seeded particle
positions, because the particle cloud itself is not part of the output.
Each returns a list of problems, empty when the program agrees.
"""

from __future__ import annotations

import numpy as np
from scipy.io import wavfile

C = 343.0  # m/s, the program's default speed of sound; the configs do not set one
GAMMA_FLOOR = 1e-12  # relative PHAT floor: gamma = floor * mean in-band |cross|
RTOL = 1e-5  # agreement required, relative to the largest |score| of the map: loose
# enough for a single-precision kernel, far tighter than any error in a formula


def read_frames(wav, frame_len: int, hop: int, frames: int) -> np.ndarray:
    """(frames, M, L) float64 blocks, read back from the WAV the program reads."""
    _, data = wavfile.read(wav)
    x = np.asarray(data, dtype=float).T
    return np.stack([x[:, i * hop: i * hop + frame_len] for i in range(frames)])


def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    l, r = np.triu_indices(m, k=1)  # (0,1), (0,2), ... lexicographic
    return l, r


def gcc_phat(block: np.ndarray, fs: float, band):
    """PHAT-weighted two-sided cross-spectra of every pair, (P, 2L), their
    frequencies and the in-band mask."""
    n = 2 * block.shape[1]
    spec = np.fft.fft(block, n, axis=1)
    freqs = np.fft.fftfreq(n, d=1.0 / fs)
    mask = (np.abs(freqs) >= band[0]) & (np.abs(freqs) <= band[1])
    l, r = _pairs(len(block))
    cross = spec[l] * np.conj(spec[r])
    mag = np.abs(cross)
    gamma = GAMMA_FLOOR * mag[:, mask].mean(axis=1, keepdims=True)
    g = np.where(mask, cross / (mag + gamma), 0.0)
    return g, freqs, mask


def lag_values(g: np.ndarray) -> tuple[np.ndarray, int]:
    """Real correlations at lags -(n/2 - 1)..(n/2 - 1), (P, n - 1), and the lag offset."""
    n = g.shape[1]
    gt = np.fft.ifft(g, axis=1).real
    k = n // 2 - 1
    return np.concatenate([gt[:, n - k:], gt[:, : k + 1]], axis=1), k


def _tdoas(points: np.ndarray, mics: np.ndarray) -> np.ndarray:
    """TDOA tau_l - tau_m of each point for each pair, (N, P)."""
    tof = np.linalg.norm(points[:, None, :] - mics[None, :, :], axis=-1) / C
    l, r = _pairs(len(mics))
    return tof[:, l] - tof[:, r]


def time_scores(points, mics, fs, block, band) -> np.ndarray:
    """Time-domain SRP: the nearest-lag correlation value of every pair, summed."""
    vals, k = lag_values(gcc_phat(block, fs, band)[0])
    idx = np.rint(_tdoas(points, mics) * fs).astype(int) + k
    return vals[np.arange(vals.shape[0])[None, :], idx].sum(axis=1)


def freq_scores(points, mics, fs, block, band) -> np.ndarray:
    """Frequency-domain SRP: sum over pairs and in-band bins of Re{G(f) e^{+j 2 pi f tau}}."""
    g, freqs, mask = gcc_phat(block, fs, band)
    g, freqs = g[:, mask], freqs[mask]
    taus = _tdoas(points, mics)
    out = np.zeros(len(points))
    for j in range(g.shape[0]):
        out += (np.exp(2j * np.pi * taus[:, j, None] * freqs[None, :]) @ g[j]).real
    return out


def volume_scores(lo, hi, mics, fs, block, band, guard: float = 1.0) -> np.ndarray:
    """Volumetric SRP with sum pooling: each pair's correlations summed over the
    box's vertex TDOA range widened by ``guard`` samples and clamped to the
    pair's physical limit, then summed over pairs. ``lo``/``hi`` are (V, 3)."""
    vals, k = lag_values(gcc_phat(block, fs, band)[0])
    corners = np.array([[a, b, d] for a in (0, 1) for b in (0, 1) for d in (0, 1)])
    verts = np.where(corners[None, :, :] == 0, lo[:, None, :], hi[:, None, :])  # (V, 8, 3)
    taus = _tdoas(verts.reshape(-1, 3), mics).reshape(len(lo), 8, -1)
    l, r = _pairs(len(mics))
    lim = np.linalg.norm(mics[l] - mics[r], axis=1) / C
    t_lo = np.maximum(taus.min(axis=1) - guard / fs, -lim)
    t_hi = np.minimum(taus.max(axis=1) + guard / fs, lim)
    k0 = np.maximum(np.rint(t_lo * fs).astype(int) + k, 0)
    k1 = np.minimum(np.rint(t_hi * fs).astype(int) + k, vals.shape[1] - 1)
    csum = np.concatenate([np.zeros((vals.shape[0], 1)), np.cumsum(vals, axis=1)], axis=1)
    rows = np.arange(vals.shape[0])[None, :]
    return (csum[rows, k1 + 1] - csum[rows, k0]).sum(axis=1)


def _close(a, b, scale) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= RTOL * scale))


def check_time3d(scene, frames: np.ndarray, records: list[dict]) -> list[str]:
    """Each frame's first estimate is the argmax of the first-round time map on the
    0.1 m grid, and its reported score is that map's value there."""
    cfg = scene.config
    mics = np.asarray(cfg["array"]["positions"], dtype=float)
    fs = float(cfg["array"]["sample_rate"])
    band = cfg["pipeline"]["features"]["band"]
    res = cfg["pipeline"]["grid"]["resolution"]
    axes = [np.arange(1, int(np.floor(d / res + 1e-9)) + 1) * res for d in cfg["room"]]
    grid = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    problems = []
    for i, rec in enumerate(records):
        e = rec["estimates"][0]
        est = np.array([[e["x"], e["y"], e["z"]]])
        ref = time_scores(np.vstack([grid, est]), mics, fs, frames[i], band)
        best, at_est = ref[:-1].max(), ref[-1]
        scale = np.abs(ref).max()
        if not _close(at_est, best, scale) or not _close(e["score"], at_est, scale):
            problems.append(
                f"frame {i}: first estimate scores {e['score']:.6g} (reference {at_est:.6g}) "
                f"but the reference map's maximum is {best:.6g}"
            )
    return problems


def check_volumetric(scene, frames: np.ndarray, records: list[dict], map_rows) -> list[str]:
    """Every frame's estimate is the argmax cell of the reference volumetric map with
    its score, and the exported map (last frame) equals that map cell by cell."""
    cfg = scene.config
    mics = np.asarray(cfg["array"]["positions"], dtype=float)
    fs = float(cfg["array"]["sample_rate"])
    band = cfg["pipeline"]["features"]["band"]
    counts = np.asarray(cfg["pipeline"]["grid"]["counts"])
    cell = np.asarray(cfg["room"], dtype=float) / counts
    idx = np.stack(np.meshgrid(*(np.arange(n) for n in counts), indexing="ij"), -1).reshape(-1, 3)
    center = (2 * idx + 1) * (cell / 2)
    lo, hi = center - cell / 2, center + cell / 2
    problems = []
    ref = None
    for i, rec in enumerate(records):
        ref = volume_scores(lo, hi, mics, fs, frames[i], band)
        e = rec["estimates"][0]
        own = int(np.flatnonzero(np.all(idx == np.floor([e["x"], e["y"], e["z"]] / cell), 1))[0])
        scale = np.abs(ref).max()
        if not _close(ref[own], ref.max(), scale) or not _close(e["score"], ref[own], scale):
            problems.append(f"frame {i}: estimate scores {e['score']:.6g} (reference "
                            f"{ref[own]:.6g}) but the reference maximum is {ref.max():.6g}")
    exported = np.zeros(len(idx))
    cells = np.floor(map_rows[:, :3] / cell).astype(int)
    exported[np.ravel_multi_index(cells.T, counts)] = map_rows[:, 3]
    if ref is not None and not _close(exported, ref, np.abs(ref).max()):
        worst = int(np.argmax(np.abs(exported - ref)))
        problems.append(f"exported map differs from the reference: cell {idx[worst].tolist()} "
                        f"scores {exported[worst]:.9g}, reference {ref[worst]:.9g}")
    return problems


def check_track(scene, frames: np.ndarray, scorer_factory, n_points: int = 1000) -> list[str]:
    """The tracker's frequency-domain scorer, built by the program from frame 0,
    gives the reference scores at seeded particle-like positions in the room.

    ``scorer_factory(block)`` returns the program's points -> scores function.
    """
    cfg = scene.config
    mics = np.asarray(cfg["array"]["positions"], dtype=float)
    fs = float(cfg["array"]["sample_rate"])
    room = np.asarray(cfg["room"], dtype=float)
    band = cfg["tracker"]["band"]
    pts = np.random.default_rng(cfg["tracker"]["seed"]).uniform(0.0, room, size=(n_points, 3))
    got = np.asarray(scorer_factory(frames[0])(pts), dtype=float)
    ref = freq_scores(pts, mics, fs, frames[0], band)
    if got.shape != ref.shape or not _close(got, ref, np.abs(ref).max()):
        diff = np.abs(got - ref).max() if got.shape == ref.shape else float("nan")
        return [f"frame 0: tracker scores differ from the reference by up to {diff:.3g} "
                f"(largest reference score {np.abs(ref).max():.6g})"]
    return []
