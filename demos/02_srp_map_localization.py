"""Localize one speaker on a room grid and export the power map.

Synthesizes an 8-mic free-field scene, steers a time-domain and a
frequency-domain SRP map over a 10 cm lattice, prints both estimates,
and writes a horizontal map slice at the source height to srp_map.csv
and srp_map.pgm (viewable with any image tool).
"""

import numpy as np

from xsrp.features import (
    FrameConfig,
    GccConfig,
    compute_spectral_gccs,
    frame_stack,
    lag_block,
)
from xsrp.geometry import MicArray
from xsrp.grids import cartesian_grid
from xsrp.io_utils import export_map_csv, export_map_pgm
from xsrp.search import argmax_search
from xsrp.srp_core import SrpMap, srp_freq_map, srp_time_map, srp_time_scores
from xsrp.synth import SceneSpec, Source, add_noise, synthesize_free_field, white_noise

FS = 16000.0


def main():
    room = np.array([6.0, 5.0, 3.0])
    rng = np.random.default_rng(7)
    mics = rng.uniform(0.3, room - 0.3, size=(8, 3))
    src = np.array([2.2, 3.1, 1.4])
    array = MicArray(mics, sample_rate=FS)

    signals = synthesize_free_field(SceneSpec(room, [Source(src, white_noise(8704, seed=8))]), array)
    signals = add_noise(signals, 20.0, seed=9)
    frames = frame_stack(signals, FrameConfig(8192, 8192), 0)
    cfg = GccConfig(band=(100.0, 2000.0))
    gccs = compute_spectral_gccs(frames, array, cfg)
    lags = lag_block(frames, array, cfg)

    grid = cartesian_grid(room, 0.1)
    print(f"grid: {len(grid)} points at 0.1 m")
    for name, srp in [
        ("time domain", srp_time_map(lags, grid, array)),
        ("frequency domain", srp_freq_map(gccs, grid, array)),
    ]:
        res = argmax_search(srp)
        err = np.linalg.norm(res.estimate - src)
        print(f"{name:>16}: estimate {np.round(res.estimate, 2)}, error {err * 100:.1f} cm")

    # score a 2d slice raised to the source height; the exported grid
    # stays planar, which is what the pgm writer expects
    flat = cartesian_grid(room, 0.1, planar=True)
    slice_pts = flat.points.copy()
    slice_pts[:, 2] = src[2]
    smap = SrpMap(flat, srp_time_scores(slice_pts, lags, array))
    export_map_csv(smap, "srp_map.csv")
    export_map_pgm(smap, "srp_map.pgm")
    print("wrote srp_map.csv and srp_map.pgm (bright pixel = power peak)")


if __name__ == "__main__":
    main()
