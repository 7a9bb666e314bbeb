"""Two microphones, one noise source: how sharp is GCC-PHAT?

Builds a free-field scene whose true time difference of arrival is an
exact -2 ms, then compares the plain cross-correlation against the
PHAT-weighted one. The script prints the recovered lag of each method
and its peak-to-average ratio.
"""

import numpy as np

from xsrp.features import FrameConfig, GccConfig, compute_lag_vectors, frame_stack
from xsrp.geometry import MicArray, MicPair, tdoa
from xsrp.synth import SceneSpec, Source, add_noise, synthesize_free_field, white_noise

FS = 16000.0


def main():
    # source and mics on one line: the path difference is the full
    # 0.686 m baseline, i.e. -2 ms = -32 samples at 16 kHz
    room = np.array([4.0, 2.0, 2.0])
    mics = np.array([[2.314, 1.0, 1.0], [3.0, 1.0, 1.0]])
    src = np.array([0.5, 1.0, 1.0])
    array = MicArray(mics, sample_rate=FS)

    true_tau = tdoa(src, MicPair(0, 1), array)
    print(f"true tdoa: {true_tau * 1e3:.3f} ms = {true_tau * FS:.1f} samples")

    signals = synthesize_free_field(SceneSpec(room, [Source(src, white_noise(6144, seed=1))]), array)
    signals = add_noise(signals, 20.0, seed=2)
    frames = frame_stack(signals, FrameConfig(4096, 4096), 0)

    pair = MicPair(0, 1)
    phat = compute_lag_vectors(frames, array)[pair]
    # the plain cross-correlation is the unweighted setting of the same GCC
    cc = compute_lag_vectors(frames, array, GccConfig(beta=0.0, gamma=0.0))[pair]

    for name, vec in [("gcc-phat", phat), ("cross-correlation", cc)]:
        peak = int(vec.lags[np.argmax(vec.values)])
        par = vec.values.max() / np.abs(vec.values).mean()
        print(f"{name:>17}: peak at lag {peak:+d} samples, peak-to-average {par:7.1f}")

    print("phat whitening trades amplitude information for a much narrower peak")


if __name__ == "__main__":
    main()
