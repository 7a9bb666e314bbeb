"""Exhaustive grid search against coarse-to-fine and stochastic search.

The same scene is solved three ways: dense 5 cm grid argmax,
subdivision refinement, and stochastic region contraction. The
kernel-evaluation counter shows what each strategy actually paid.
A volumetric bound map on a coarse cell partition is shown as a
cheap pre-filter of the room.
"""

import numpy as np

from xsrp.features import FrameConfig, GccConfig, compute_lag_vectors, frame_stack
from xsrp.geometry import MicArray
from xsrp.grids import Volume, cartesian_grid, partition_room
from xsrp.search import SearchConfig, argmax_search, refine_search, src_search
from xsrp.srp_core import counter, make_time_scorer, srp_time_map, vsrp_map
from xsrp.synth import SceneSpec, Source, add_noise, synthesize_free_field, white_noise

FS = 16000.0


def main():
    room = np.array([6.0, 5.0, 3.0])
    rng = np.random.default_rng(21)
    mics = rng.uniform(0.3, room - 0.3, size=(8, 3))
    src = np.array([4.1, 1.9, 1.2])
    array = MicArray(mics, sample_rate=FS)

    signals = synthesize_free_field(SceneSpec(room, [Source(src, white_noise(4608, seed=22))]), array)
    signals = add_noise(signals, 20.0, seed=23)
    frames = frame_stack(signals, FrameConfig(4096, 4096), 0)
    lags = compute_lag_vectors(frames, array, GccConfig(band=(100.0, 1000.0)))
    scorer = make_time_scorer(lags, array)
    region = Volume.from_bounds(np.zeros(3), room)

    counter.reset()
    dense = argmax_search(srp_time_map(lags, cartesian_grid(room, 0.05), array))
    ops_dense = counter.kernel_ops
    report("exhaustive 5 cm", dense.estimate, src, ops_dense, ops_dense)

    counter.reset()
    # keep a few dozen cells while they are still lobe-sized, or the
    # true basin gets pruned before it can stand out
    ref = refine_search(scorer, region, SearchConfig(mode="refine", max_iters=10, top_k=24))
    report("subdivision", ref.estimate, src, counter.kernel_ops, ops_dense)

    counter.reset()
    sto = src_search(
        scorer,
        region,
        SearchConfig(mode="src", max_iters=14, points_per_iter=300, top_k=20, seed=3),
    )
    report("stochastic contraction", sto.estimate, src, counter.kernel_ops, ops_dense)

    # volumetric screening: upper-bound the power of whole cells
    cells = partition_room(room, (6, 5, 3))
    vmap = vsrp_map(lags, cells, array, pooling="max")
    best = cells.volumes[int(np.argmax(vmap.scores))]
    print(f"volumetric screen: best 1 m cell centered at {np.round(best.center, 2)}")


def report(name, est, src, ops, ops_dense):
    err = float(np.linalg.norm(est - src))
    print(f"{name:>22}: error {err * 100:5.1f} cm, {ops:>10d} kernel ops ({ops_dense / max(ops, 1):5.1f}x cheaper)")


if __name__ == "__main__":
    main()
