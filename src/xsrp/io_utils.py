"""File I/O helpers: WAV, CSV/PGM map export, JSON lines, hashing."""

from __future__ import annotations

import hashlib
import json

import numpy as np
from scipy.io import wavfile

from .grids import CandidateGrid


def read_wav(path) -> tuple[float, np.ndarray]:
    """Read a WAV file to (sample_rate, (M, T) float array).

    PCM16 is scaled to [-1, 1); float32/float64 pass through. Other
    encodings are rejected.
    """
    try:
        fs, data = wavfile.read(path)
    except FileNotFoundError:
        raise
    except ValueError as e:
        raise OSError(f"cannot read {path}: {e}") from e
    if data.dtype == np.int16:
        x = data.astype(float) / 32768.0
    elif data.dtype in (np.float32, np.float64):
        x = data.astype(float)
    else:
        raise OSError(f"unsupported WAV dtype {data.dtype} in {path}")
    if x.ndim == 1:
        x = x[None, :]
    else:
        x = x.T  # wavfile uses (T, M)
    return float(fs), x


def write_wav(path, sample_rate: float, signals: np.ndarray, encoding: str = "float32"):
    """Write (M, T) signals as a WAV file (float32 or pcm16)."""
    signals = np.atleast_2d(np.asarray(signals, dtype=float))
    data = signals.T if signals.shape[0] > 1 else signals[0]
    if encoding == "float32":
        wavfile.write(path, int(sample_rate), data.astype(np.float32))
    elif encoding == "pcm16":
        peak = np.max(np.abs(data))
        if peak > 1.0:
            data = data / peak
        wavfile.write(path, int(sample_rate), (data * 32767.0).astype(np.int16))
    else:
        raise ValueError(f"encoding must be float32|pcm16, got {encoding!r}")


def write_jsonl(records, path) -> None:
    """Write an iterable of dicts as JSON lines."""
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


def read_jsonl(path) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def export_map_csv(srp_map, path) -> None:
    """Map rows: candidate coordinates plus score."""
    pts = srp_map.points
    with open(path, "w") as f:
        f.write("x,y,z,score\n")
        for p, s in zip(pts, srp_map.scores):
            f.write(f"{p[0]:.9g},{p[1]:.9g},{p[2]:.9g},{s:.9g}\n")


def export_map_pgm(srp_map, path) -> None:
    """Binary PGM (P5) raster of a planar Cartesian map.

    Rows run along y (top row = largest y), columns along x; scores
    are min-max scaled to 0..255. Only cartesian2d grids have the
    regular lattice structure this needs.
    """
    grid = srp_map.grid
    if not isinstance(grid, CandidateGrid) or grid.kind != "cartesian2d":
        raise ValueError("PGM export needs a planar cartesian2d grid")
    pts = grid.points
    xs = np.unique(pts[:, 0])
    ys = np.unique(pts[:, 1])
    if len(xs) * len(ys) != len(pts):
        raise ValueError("grid is not a full x-y lattice")
    scores = np.asarray(srp_map.scores, dtype=float)
    lo, hi = scores.min(), scores.max()
    norm = (scores - lo) / (hi - lo) if hi > lo else np.zeros_like(scores)
    gray = np.round(norm * 255.0).astype(np.uint8)
    # points were built x-major (x varies slowest), so reshape to (nx, ny)
    img = gray.reshape(len(xs), len(ys)).T[::-1, :]
    with open(path, "wb") as f:
        f.write(f"P5\n{len(xs)} {len(ys)}\n255\n".encode())
        f.write(img.tobytes())
