"""Synthesis tests.

Integer-sample cases give exact oracles (a shifted, scaled copy of
the input); fractional delays are checked against sine phase shifts
and against the correlation peak locations the rest of the toolkit
depends on.
"""

import math

import numpy as np
import pytest

from xsrp.features import cross_correlation
from xsrp.geometry import MicArray, Point3
from xsrp.synth import (
    FILTER_LEAD,
    SINC_TAPS,
    SceneSpec,
    Source,
    add_noise,
    delay_signal,
    fractional_delay_kernel,
    pink_noise,
    synthesize_free_field,
    white_noise,
)


def test_kernel_integer_delay_is_unit_pulse():
    k = fractional_delay_kernel(0.0)
    assert len(k) == SINC_TAPS
    assert k[FILTER_LEAD - 1] == 1.0
    others = np.delete(k, FILTER_LEAD - 1)
    assert np.max(np.abs(others)) < 1e-15


def test_kernel_rejects_out_of_range_frac():
    with pytest.raises(ValueError, match="frac"):
        fractional_delay_kernel(1.0)
    with pytest.raises(ValueError, match="frac"):
        fractional_delay_kernel(-0.1)


def test_delay_signal_integer_shift_exact():
    rng = np.random.default_rng(0)
    x = rng.normal(size=200)
    for d in (0, 3, 17):
        y = delay_signal(x, float(d))
        assert len(y) == len(x) + d + SINC_TAPS
        np.testing.assert_allclose(y[d + FILTER_LEAD: d + FILTER_LEAD + len(x)], x, atol=1e-12)
        # nothing before the shifted copy
        assert np.max(np.abs(y[: d + FILTER_LEAD])) < 1e-12


def test_delay_signal_fractional_shifts_sine_phase():
    fs = 16000.0
    f0 = 440.0
    n = np.arange(4096)
    x = np.sin(2.0 * math.pi * f0 * n / fs)
    for d in (2.5, 7.25, 10.9):
        y = delay_signal(x, d)
        # compare interior samples against the analytically delayed sine
        idx = np.arange(200, 3800)
        expected = np.sin(2.0 * math.pi * f0 * (idx - d - FILTER_LEAD) / fs)
        np.testing.assert_allclose(y[idx], expected, atol=1e-4)


def test_delay_signal_rejects_negative():
    with pytest.raises(ValueError, match="delay"):
        delay_signal(np.ones(8), -1.0)


def test_free_field_integer_delays_scaled_copies():
    # distances chosen so both delays are whole samples
    fs = 16000.0
    c = 343.0
    r0, r1 = 10.0 * c / fs, 25.0 * c / fs
    arr = MicArray([[1.0 + r0, 1.0, 1.0], [1.0 + r1, 1.0, 1.0]], sample_rate=fs)
    sig = white_noise(500, seed=1)
    scene = SceneSpec(
        room_dims=(4.0, 2.0, 2.0), sources=[Source(Point3(1.0, 1.0, 1.0), sig)]
    )
    out = synthesize_free_field(scene, arr)
    assert out.shape[0] == 2
    np.testing.assert_allclose(
        out[0][10 + FILTER_LEAD: 10 + FILTER_LEAD + 500], sig / r0, atol=1e-10
    )
    np.testing.assert_allclose(
        out[1][25 + FILTER_LEAD: 25 + FILTER_LEAD + 500], sig / r1, atol=1e-10
    )


def test_free_field_distance_doubling_halves_amplitude():
    fs = 16000.0
    arr = MicArray([[1.5, 1.0, 1.0], [2.0, 1.0, 1.0]], sample_rate=fs)
    # source 0.5 m from mic0 and 1.0 m from mic1
    sig = white_noise(2000, seed=2)
    scene = SceneSpec(room_dims=(4.0, 2.0, 2.0), sources=[Source(Point3(1.0, 1.0, 1.0), sig)])
    out = synthesize_free_field(scene, arr)
    ratio = np.sqrt(np.mean(out[0] ** 2) / np.mean(out[1] ** 2))
    # fractional-delay interpolation costs a fraction of a percent
    assert abs(ratio - 2.0) < 5e-3


def test_free_field_correlation_peak_at_rounded_tdoa():
    fs = 16000.0
    rng = np.random.default_rng(3)
    arr = MicArray(rng.uniform(0.5, 3.5, size=(4, 3)), sample_rate=fs)
    src = Point3(2.0, 1.7, 1.2)
    sig = white_noise(8000, seed=4)
    scene = SceneSpec(room_dims=(4.0, 4.0, 4.0), sources=[Source(src, sig)])
    out = synthesize_free_field(scene, arr)
    for p in arr.pairs():
        from xsrp.geometry import tdoa

        expected = int(np.rint(tdoa(src, p, arr) * fs))
        cc = cross_correlation(out[p.l], out[p.m], fs)
        assert cc.lags[np.argmax(cc.values)] == expected


def test_free_field_two_sources_superpose():
    fs = 16000.0
    arr = MicArray([[1.0, 1.0, 1.0], [3.0, 1.0, 1.0]], sample_rate=fs)
    s1 = white_noise(1000, seed=5)
    s2 = white_noise(1000, seed=6)
    room = (4.0, 2.0, 2.0)
    a = synthesize_free_field(
        SceneSpec(room_dims=room, sources=[Source(Point3(1.5, 0.8, 0.9), s1)]), arr
    )
    b = synthesize_free_field(
        SceneSpec(room_dims=room, sources=[Source(Point3(2.5, 1.2, 1.1), s2)]), arr
    )
    both = synthesize_free_field(
        SceneSpec(
            room_dims=room,
            sources=[Source(Point3(1.5, 0.8, 0.9), s1), Source(Point3(2.5, 1.2, 1.1), s2)],
        ),
        arr,
    )
    n = min(a.shape[1], b.shape[1])
    np.testing.assert_allclose(both[:, :n], a[:, :n] + b[:, :n], atol=1e-9)


def test_scene_validation():
    sig = np.ones(10)
    with pytest.raises(ValueError, match="inside"):
        SceneSpec(room_dims=(2.0, 2.0, 2.0), sources=[Source(Point3(2.0, 1.0, 1.0), sig)])
    with pytest.raises(ValueError, match="at least one"):
        SceneSpec(room_dims=(2.0, 2.0, 2.0), sources=[])
    with pytest.raises(ValueError, match="length"):
        SceneSpec(
            room_dims=(2.0, 2.0, 2.0),
            sources=[
                Source(Point3(1.0, 1.0, 1.0), np.ones(10)),
                Source(Point3(1.5, 1.0, 1.0), np.ones(20)),
            ],
        )
    with pytest.raises(ValueError, match="positive"):
        SceneSpec(room_dims=(0.0, 2.0, 2.0), sources=[Source(Point3(1.0, 1.0, 1.0), sig)])
    with pytest.raises(ValueError, match="non-empty"):
        Source(Point3(1.0, 1.0, 1.0), np.array([]))


def test_scene_sample_rate_must_match_array():
    arr = MicArray([[1.0, 1.0, 1.0], [2.0, 1.0, 1.0]], sample_rate=16000.0)
    scene = SceneSpec(
        room_dims=(3.0, 2.0, 2.0),
        sources=[Source(Point3(1.5, 1.0, 1.0), np.ones(10))],
        sample_rate=8000.0,
    )
    with pytest.raises(ValueError, match="sample rate"):
        synthesize_free_field(scene, arr)


def test_source_too_close_to_microphone():
    arr = MicArray([[1.0, 1.0, 1.0], [2.0, 1.0, 1.0]], sample_rate=16000.0)
    scene = SceneSpec(
        room_dims=(3.0, 2.0, 2.0),
        sources=[Source(Point3(1.0, 1.0, 1.0 + 1e-6), np.ones(10))],
    )
    with pytest.raises(ValueError, match="distance"):
        synthesize_free_field(scene, arr)


def test_add_noise_deterministic_and_calibrated():
    rng = np.random.default_rng(7)
    sig = rng.normal(size=(3, 100000))
    a = add_noise(sig, 20.0, seed=9)
    b = add_noise(sig, 20.0, seed=9)
    np.testing.assert_array_equal(a, b)
    c = add_noise(sig, 20.0, seed=10)
    assert np.any(a != c)
    # measured SNR within 0.2 dB per channel
    for m in range(3):
        noise = a[m] - sig[m]
        snr = 10.0 * np.log10(np.mean(sig[m] ** 2) / np.mean(noise**2))
        assert abs(snr - 20.0) < 0.2
    # channels get independent noise
    assert np.corrcoef(a[0] - sig[0], a[1] - sig[1])[0, 1] < 0.05


def test_add_noise_edge_cases():
    sig = np.ones((2, 50))
    out = add_noise(sig, math.inf)
    np.testing.assert_array_equal(out, sig)
    assert out is not sig
    sig2 = np.vstack([np.ones(50), np.zeros(50)])
    with pytest.raises(ValueError, match="all-zero"):
        add_noise(sig2, 30.0)


def test_white_noise_deterministic_unit_variance():
    a = white_noise(50000, seed=3)
    b = white_noise(50000, seed=3)
    np.testing.assert_array_equal(a, b)
    assert abs(np.var(a) - 1.0) < 0.02


def test_pink_noise_equal_octave_energy():
    # pink noise carries roughly equal energy per octave
    n = 1 << 17
    octaves = [(0.01, 0.02), (0.02, 0.04), (0.04, 0.08), (0.08, 0.16)]
    energies = np.zeros(len(octaves))
    for seed in range(8):
        x = pink_noise(n, seed=seed)
        assert abs(np.sqrt(np.mean(x**2)) - 1.0) < 1e-12
        spec = np.abs(np.fft.rfft(x)) ** 2
        f = np.fft.rfftfreq(n)
        for i, (lo, hi) in enumerate(octaves):
            energies[i] += spec[(f >= lo) & (f < hi)].sum()
    energies /= energies.mean()
    assert np.all(np.abs(energies - 1.0) < 0.25)
