"""Ground-truth scene synthesis.

Free-field propagation with per-microphone gain 1/r and fractional
sample delay, and noise injection at a calibrated per-channel SNR.
Fractional delays use a 64-tap Hann-windowed sinc interpolator; to
keep it causal, every channel carries a uniform
extra lead of FILTER_LEAD samples on top of its acoustic delay, so
inter-channel TDOAs and relative gains are unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import MicArray, as_xyz

SINC_TAPS = 64
FILTER_LEAD = SINC_TAPS // 2  # uniform lead added to every channel, samples

_MIN_SOURCE_MIC_DIST = 1e-3  # m, below this the 1/r gain is treated as singular


@dataclass(frozen=True)
class Source:
    """A point source: position (meters) and its dry signal."""

    position: np.ndarray
    signal: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", as_xyz(self.position))
        sig = np.asarray(self.signal, dtype=float)
        if sig.ndim != 1 or sig.size == 0:
            raise ValueError("source signal must be a non-empty 1D array")
        object.__setattr__(self, "signal", sig)


@dataclass
class SceneSpec:
    """A synthesis scene: room box, sources, noise level, seed.

    Source positions must lie strictly inside the room box; all
    source signals must share one length. ``snr_db = math.inf``
    means no noise. ``sample_rate`` is optional and, when set, must
    match the array's at synthesis time.
    """

    room_dims: np.ndarray
    sources: list[Source]
    snr_db: float = math.inf
    seed: int = 0
    sample_rate: float | None = None

    def __post_init__(self):
        self.room_dims = as_xyz(self.room_dims)
        if np.any(self.room_dims <= 0):
            raise ValueError(f"room dimensions must be positive, got {self.room_dims}")
        if not self.sources:
            raise ValueError("scene needs at least one source")
        lengths = {len(s.signal) for s in self.sources}
        if len(lengths) != 1:
            raise ValueError(f"source signals must share one length, got {sorted(lengths)}")
        for s in self.sources:
            if np.any(s.position <= 0) or np.any(s.position >= self.room_dims):
                raise ValueError(
                    f"source at {s.position} is not strictly inside room {self.room_dims}"
                )


def fractional_delay_kernel(frac: float) -> np.ndarray:
    """64-tap Hann-windowed sinc realizing a delay of (31 + frac) samples.

    frac must lie in [0, 1). At frac = 0 the kernel is an exact unit
    pulse at tap 31, so integer delays are reproduced exactly.
    """
    if not (0.0 <= frac < 1.0):
        raise ValueError(f"frac must lie in [0, 1), got {frac}")
    half = SINC_TAPS // 2
    t = np.arange(SINC_TAPS) - (half - 1) - frac
    window = np.where(np.abs(t) < half, 0.5 + 0.5 * np.cos(np.pi * t / half), 0.0)
    return np.sinc(t) * window


def delay_signal(signal: np.ndarray, delay_samples: float, out_len: int | None = None) -> np.ndarray:
    """Delay a signal by a (possibly fractional) number of samples.

    The output carries the requested delay plus the uniform
    FILTER_LEAD samples. With an integer delay the result is an
    exact shifted copy.
    """
    signal = np.asarray(signal, dtype=float)
    if delay_samples < 0:
        raise ValueError(f"delay must be >= 0, got {delay_samples}")
    n0 = int(math.floor(delay_samples))
    frac = delay_samples - n0
    seg = np.convolve(signal, fractional_delay_kernel(frac))
    if out_len is None:
        out_len = len(signal) + n0 + SINC_TAPS
    out = np.zeros(out_len)
    start = n0 + 1
    stop = min(start + len(seg), out_len)
    out[start:stop] = seg[: stop - start]
    return out


def synthesize_free_field(scene: SceneSpec, array: MicArray) -> np.ndarray:
    """Render a scene to (M, T) microphone signals in free field.

    Each source contributes an image with gain 1 / ||u - v_m|| and
    delay ||u - v_m|| / c at each microphone, then white Gaussian
    noise is added at the scene's per-channel SNR (seeded). Output
    length is the input length plus the largest integer delay plus
    the interpolator margin.
    """
    fs = array.sample_rate
    if scene.sample_rate is not None and scene.sample_rate != fs:
        raise ValueError(
            f"scene sample rate {scene.sample_rate} != array sample rate {fs}"
        )
    dists = np.array(
        [[np.linalg.norm(s.position - v) for v in array.positions] for s in scene.sources]
    )  # (S, M)
    if dists.min() < _MIN_SOURCE_MIC_DIST:
        raise ValueError(
            f"source-microphone distance {dists.min():.2e} m below {_MIN_SOURCE_MIC_DIST} m"
        )
    delays = dists / array.speed_of_sound * fs  # samples
    sig_len = len(scene.sources[0].signal)
    out_len = sig_len + int(math.ceil(delays.max())) + SINC_TAPS
    out = np.zeros((array.n_mics, out_len))
    for si, src in enumerate(scene.sources):
        for mi in range(array.n_mics):
            gain = 1.0 / dists[si, mi]
            out[mi] += gain * delay_signal(src.signal, delays[si, mi], out_len)
    if math.isfinite(scene.snr_db):
        out = add_noise(out, scene.snr_db, scene.seed)
    return out


def add_noise(signals: np.ndarray, snr_db: float, seed: int = 0) -> np.ndarray:
    """Add white Gaussian noise per channel at the given SNR (dB).

    Noise power is calibrated against each channel's own mean
    power, with an independent substream per channel spawned from
    the seed, so results are bit-identical across runs.
    snr_db = inf returns an unchanged copy; an all-zero channel
    with finite snr is rejected (its SNR is undefined).
    """
    signals = np.atleast_2d(np.asarray(signals, dtype=float))
    if snr_db is None or math.isinf(snr_db):
        return signals.copy()
    powers = np.mean(signals**2, axis=1)
    if np.any(powers == 0):
        raise ValueError("cannot set a finite SNR on an all-zero channel")
    children = np.random.SeedSequence(seed).spawn(signals.shape[0])
    out = signals.copy()
    for m, child in enumerate(children):
        rng = np.random.default_rng(child)
        noise_power = powers[m] / (10.0 ** (snr_db / 10.0))
        out[m] += rng.standard_normal(signals.shape[1]) * math.sqrt(noise_power)
    return out


def white_noise(n_samples: int, seed: int = 0) -> np.ndarray:
    """Unit-variance white Gaussian noise."""
    return np.random.default_rng(seed).standard_normal(n_samples)


def pink_noise(n_samples: int, seed: int = 0) -> np.ndarray:
    """Pink (1/f) noise, normalized to unit RMS.

    Shaped in the frequency domain: white spectrum scaled by
    1/sqrt(f), DC removed.
    """
    w = white_noise(n_samples, seed)
    spec = np.fft.rfft(w)
    f = np.fft.rfftfreq(n_samples)
    spec[0] = 0.0
    spec[1:] /= np.sqrt(f[1:] / f[1])
    x = np.fft.irfft(spec, n_samples)
    rms = np.sqrt(np.mean(x**2))
    return x / rms
