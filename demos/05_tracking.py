"""Follow a walking noise source with the particle filter.

A source crosses the room at 0.5 m/s, rendered as a sequence of
256 ms stationary blocks cut from one continuous excitation. The
tracker's Langevin motion prior carries particles between frames;
per-frame errors are printed alongside the frame-by-frame grid argmax
for contrast.
"""

import numpy as np

from xsrp.features import FrameConfig, GccConfig, compute_lag_vectors, frame_blocks, frame_stack
from xsrp.geometry import MicArray
from xsrp.grids import cartesian_grid
from xsrp.search import argmax_search
from xsrp.srp_core import srp_time_map
from xsrp.synth import SceneSpec, Source, add_noise, synthesize_free_field, white_noise
from xsrp.tracking import TrackerConfig, track

FS = 16000.0
HOP = 4096  # 256 ms


def main():
    room = np.array([6.0, 5.0, 3.0])
    rng = np.random.default_rng(41)
    mics = rng.uniform(0.3, room - 0.3, size=(8, 3))
    array = MicArray(mics, sample_rate=FS)
    start = np.array([1.0, 1.5, 1.5])
    vel = 0.5 * np.array([0.8, 0.6, 0.0])
    n_blocks = 20

    stream = white_noise(HOP * n_blocks, seed=42)
    total = np.zeros((len(mics), HOP * n_blocks + 4096))
    for k in range(n_blocks):
        pos = start + vel * ((k + 0.5) * HOP / FS)
        block = synthesize_free_field(
            SceneSpec(room, [Source(pos, stream[k * HOP: (k + 1) * HOP])]), array
        )
        total[:, k * HOP: k * HOP + block.shape[1]] += block
    signals = add_noise(total[:, : HOP * n_blocks], 20.0, seed=43)
    truth = np.array([start + vel * ((k + 0.5) * HOP / FS) for k in range(n_blocks)])

    frame_cfg = FrameConfig(4096, HOP)
    gcc_cfg = GccConfig(band=(300.0, 1200.0))
    points = track(
        frame_blocks(signals, frame_cfg), array, room, frame_cfg,
        TrackerConfig(q=2000, seed=44, alpha=1.0, beta=0.5, band=(300.0, 1200.0), kappa=16.0),
    )

    grid = cartesian_grid(room, 0.1)
    print(" frame    t/s   track err   argmax err   ess")
    for k, p in enumerate(points):
        frames = frame_stack(signals, frame_cfg, p.frame)
        lags = compute_lag_vectors(frames, array, gcc_cfg)
        ax = argmax_search(srp_time_map(lags, grid, array)).estimate
        e_t = np.linalg.norm(p.position - truth[k])
        e_a = np.linalg.norm(ax - truth[k])
        print(f"{p.frame:6d}  {p.t_seconds:5.2f}   {e_t * 100:6.1f} cm   {e_a * 100:7.1f} cm   {p.ess:5.0f}")


if __name__ == "__main__":
    main()
