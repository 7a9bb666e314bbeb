"""File I/O helpers: WAV, CSV/PGM map export, JSON lines, hashing.

A WAV file is read whole (read_wav) or frame by frame (WavReader), which
holds one frame whatever the length of the recording.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from collections.abc import Iterator

import numpy as np

from .features import FrameConfig, n_frames
from .grids import CandidateGrid

_PCM, _FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
# SubFormat GUID {000000XX-0000-0010-8000-00AA00389B71} after its 2-byte tag
_GUID_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
_DTYPES = {(_PCM, 16): "<i2", (_FLOAT, 32): "<f4", (_FLOAT, 64): "<f8"}


def _read_header(f, path) -> tuple[float, int, str, int]:
    """(sample rate, channels, sample dtype, samples per channel) of the WAV
    file open as f, which is left at its first sample.

    Accepted: a little-endian RIFF/WAVE file whose ``fmt `` chunk (a plain
    format tag or WAVE_FORMAT_EXTENSIBLE) says 16-bit PCM, read scaled by
    1/32768 to [-1, 1), or 32/64-bit IEEE float. Other chunks (``fact``,
    ``LIST``, ...) are skipped. Everything else raises OSError, checked
    before any sample is read: bytes that are not RIFF/WAVE (RIFX and RF64
    included), no ``fmt `` chunk before ``data``, no ``data`` chunk, a data
    chunk longer than the file, and any other encoding (8/24/32-bit PCM, ...).
    """
    head = f.read(12)
    if len(head) < 12 or head[:4] != b"RIFF" or head[8:] != b"WAVE":
        raise OSError(f"{path}: not a RIFF/WAVE file")
    fmt = None
    while True:
        chunk = f.read(8)
        if len(chunk) < 8:
            raise OSError(f"{path}: no data chunk")
        cid, size = struct.unpack("<4sI", chunk)
        if cid == b"data":
            break
        skip = size + (size & 1)  # chunks are padded to even sizes
        if cid == b"fmt ":
            fmt, skip = f.read(size), size & 1
        f.seek(skip, 1)
    if fmt is None or len(fmt) < 16:
        raise OSError(f"{path}: no fmt chunk before the data chunk")
    tag, channels, rate, _, align, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == _EXTENSIBLE and len(fmt) >= 40 and fmt[26:40] == _GUID_TAIL:
        tag = struct.unpack_from("<H", fmt, 24)[0]
    dtype = _DTYPES.get((tag, bits))
    if dtype is None or channels == 0 or align != channels * bits // 8:
        raise OSError(f"{path}: unsupported WAV encoding (format tag {tag:#x}, {bits}-bit, "
                      f"{channels} channels); expected 16-bit PCM or 32/64-bit float")
    n = size // align
    if f.tell() + n * align > os.fstat(f.fileno()).st_size:
        raise OSError(f"{path}: data chunk of {size} bytes runs past the end of the file")
    return float(rate), channels, dtype, n


def read_wav(path) -> tuple[float, np.ndarray]:
    """Read a whole WAV file to (sample_rate, (M, T) float64 array), as _read_header accepts it."""
    with open(path, "rb") as f:
        rate, channels, dtype, n = _read_header(f, path)
        data = np.fromfile(f, dtype=dtype, count=n * channels)
    data = data.reshape(n, channels)  # a file cut short since its header fails here
    return rate, (data / 32768.0 if data.dtype == np.int16 else data.astype(float, copy=False)).T


def _windowed(raw: np.ndarray, cfg: FrameConfig) -> np.ndarray:
    """(L, M) raw samples times cfg's window, one multiply each, as a new (M, L) float64 block.

    For PCM the window is scaled by 1/32768, a power of two, so the bits
    are those of scaling the samples first. A mic at a time: no float64
    copy of the samples is made, and numpy buffers a mic's cast (L
    floats), not a block's (128 KiB).
    """
    window = cfg.window_values()  # made per frame, as frame_stack does: a stream holds none
    if raw.dtype == np.int16:
        window /= 32768.0
    frame = np.empty(raw.shape[::-1])
    for row, mic in zip(frame, raw.T):
        np.multiply(mic, window, out=row)
    return frame


class WavReader:
    """A WAV file open for reading frame by frame, as a context manager: its
    header (``sample_rate``, ``n_channels``, ``n_samples`` per channel) is
    parsed, or refused with read_wav's OSErrors, when the reader is made."""

    def __init__(self, path):
        self._file = open(path, "rb")
        try:
            self.sample_rate, self.n_channels, self._dtype, self.n_samples = _read_header(self._file, path)
        except BaseException:
            self._file.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._file.close()

    def frames(self, cfg: FrameConfig) -> Iterator[np.ndarray]:
        """Every whole frame as a windowed (M, L) float64 block, frame_stack(read_wav(path)[1], cfg, i)
        bit for bit, from one raw (L, M) buffer in the file's sample type, shifted by hop a frame.

        Each frame is one multiply of the raw samples by the window (_windowed).
        """
        L, hop = cfg.frame_len, cfg.hop
        raw = np.empty((L, self.n_channels), self._dtype)
        fresh = raw  # rows still to read: all of them for the first frame
        for _ in range(n_frames(self.n_samples, cfg)):
            if self._file.readinto(fresh) != fresh.nbytes:
                raise OSError(f"{self._file.name}: data chunk runs past the end of the file")
            yield _windowed(raw, cfg)  # no local holds it while the caller reads it
            raw[:L - hop] = raw[hop:]
            fresh = raw[L - hop:]


def write_wav(path, sample_rate: float, signals: np.ndarray):
    """Write (M, T) signals as a 32-bit float WAV file."""
    data = np.atleast_2d(np.asarray(signals, dtype=float)).T.astype("<f4")
    rate, align = int(sample_rate), data.shape[1] * data.itemsize
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + data.nbytes, b"WAVE", b"fmt ", 16, _FLOAT,
        data.shape[1], rate, rate * align, align, 8 * data.itemsize, b"data", data.nbytes,
    )
    with open(path, "wb") as f:
        f.write(header)
        f.write(data.tobytes())


def write_jsonl(records, path) -> None:
    """Write an iterable of dicts as JSON lines."""
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


def sha256_file(path) -> str:
    """Hex SHA-256 of a file, read 64 KiB at a time so hashing holds little memory."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def export_map_csv(srp_map, path) -> None:
    """Map rows: candidate coordinates plus score."""
    rows = np.column_stack([srp_map.points, srp_map.scores]).tolist()
    with open(path, "w") as f:
        f.write("x,y,z,score\n")
        f.writelines("%.9g,%.9g,%.9g,%.9g\n" % tuple(row) for row in rows)


def export_map_pgm(srp_map, path) -> None:
    """Binary PGM (P5) raster of a planar Cartesian map.

    Rows run along y (top row = largest y), columns along x; scores
    are min-max scaled to 0..255. The raster's nx x ny is the grid's
    lattice shape, so only a planar lattice (a cartesian2d grid that
    grid_in_volume built) can be written.
    """
    grid = srp_map.grid
    if not isinstance(grid, CandidateGrid) or grid.kind != "cartesian2d":
        raise ValueError("PGM export needs a planar cartesian2d grid")
    if grid.shape is None or grid.shape[2] != 1:
        raise ValueError("grid is not a full x-y lattice")
    nx, ny, _ = grid.shape
    scores = np.asarray(srp_map.scores, dtype=float)
    lo, hi = scores.min(), scores.max()
    norm = (scores - lo) / (hi - lo) if hi > lo else np.zeros_like(scores)
    gray = np.round(norm * 255.0).astype(np.uint8)
    # lattice points run x-major (x varies slowest), so reshape to (nx, ny)
    img = gray.reshape(nx, ny).T[::-1, :]
    with open(path, "wb") as f:
        f.write(f"P5\n{nx} {ny}\n255\n".encode())
        f.write(img.tobytes())
