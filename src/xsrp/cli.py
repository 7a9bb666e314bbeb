"""Command-line interface.

Subcommands: simulate (synthesize a scene + ground truth), localize
(per-frame estimates from a WAV) and track (particle-filter
trajectory). pipeline.config_from_dict parses each one's JSON config
into its dataclass (SimulateConfig, LocalizeConfig, TrackConfig),
whose sections are dataclasses too: ArraySpec, FrameConfig,
SimulateSpec with SourceSpec, PipelineConfig and TrackerConfig. Each
key is a field, typed by its annotation and defaulted there; unknown
keys and omitted required ones are rejected. Every command runs in
one shell (_run): it times the run, loads the config, does the
command's own work (_simulate, _localize, _track), writes the manifest
(the resolved config, input hashes, package version, timing)
sufficient to reproduce it, and prints the command's summary line.

Exit codes: 0 success, 1 usage or config error, 2 I/O error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .features import FrameConfig, _band_mask, _half_band, n_frames
from .geometry import SPEED_OF_SOUND, MicArray, tdoa
from .io_utils import (
    WavReader,
    export_map_csv,
    export_map_pgm,
    read_wav,
    sha256_file,
    write_jsonl,
    write_wav,
)
from .pipeline import ConfigError, PipelineConfig, config_from_dict, config_to_dict, prepare
from .synth import SceneSpec, Source, pink_noise, synthesize_free_field, white_noise
from .tracking import TrackerConfig, track


@dataclass
class ArraySpec:
    """Microphone positions (M, 3) in meters, sample rate in whole Hz, sound speed in m/s."""

    positions: np.ndarray
    sample_rate: float
    speed_of_sound: float = SPEED_OF_SOUND

    def __post_init__(self):
        if not float(self.sample_rate).is_integer():  # a WAV header holds whole hertz
            raise ConfigError(f"sample_rate must be a whole number of Hz, got {self.sample_rate}")

    def mic_array(self) -> MicArray:
        return MicArray(self.positions, self.sample_rate, self.speed_of_sound)


@dataclass
class SourceSpec:
    """One simulated source: position, signal ("white", "pink" or {"wav": path}), noise seed."""

    position: np.ndarray
    signal: object = "white"
    seed: int = None  # None: the scene seed plus the source's index; typed int to refuse null


@dataclass
class SimulateSpec:
    """The simulated scene: sources, duration, SNR (None: no noise), seed."""

    sources: tuple[SourceSpec, ...]
    duration_s: float = 1.0
    snr_db: float | None = None
    seed: int = 0

    def __post_init__(self):  # an empty list is refused by SceneSpec
        self.sources = tuple(s if s.seed is not None else replace(s, seed=self.seed + k)
                             for k, s in enumerate(self.sources))


@dataclass
class SimulateConfig:
    array: ArraySpec
    room: np.ndarray
    simulate: SimulateSpec


@dataclass
class LocalizeConfig:
    array: ArraySpec
    frame: FrameConfig
    room: np.ndarray | None = None  # DOA grids need no room
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)


@dataclass
class TrackConfig:
    array: ArraySpec
    room: np.ndarray
    frame: FrameConfig
    tracker: TrackerConfig = field(default_factory=TrackerConfig)


def _load_config(path, cls):
    """The JSON config file at path, parsed into the command dataclass cls (the parsed JSON is not kept)."""
    try:
        with open(path) as f:
            d = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON in {path}: {e}") from e
    return config_from_dict(d, cls, "config")


def _write_manifest(path, command: str, config, inputs: list, outputs: list,
                    wall_seconds: float) -> None:
    manifest = {
        "tool": "xsrp",
        "version": __version__,
        "command": command,
        "config": config_to_dict(config),
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "wall_seconds": wall_seconds,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2)


def _source_signal(spec, n_samples: int, fs: float, base_dir: Path, seed: int):
    if spec == "white":
        return white_noise(n_samples, seed)
    if spec == "pink":
        return pink_noise(n_samples, seed)
    if isinstance(spec, dict) and set(spec) == {"wav"}:
        if not isinstance(spec["wav"], str):
            raise ConfigError(f"source wav must be a path string, got {spec['wav']!r}")
        wav_fs, x = read_wav(base_dir / spec["wav"])
        if wav_fs != fs:
            raise ConfigError(f"source wav rate {wav_fs} != array rate {fs}")
        if x.shape[0] != 1:
            raise ConfigError("source wav must be mono")
        return x[0]
    raise ConfigError(f"source signal must be 'white', 'pink' or {{'wav': path}}, got {spec!r}")


def _simulate(args, cfg: SimulateConfig):
    array, sim, room = cfg.array.mic_array(), cfg.simulate, cfg.room
    n = int(round(sim.duration_s * array.sample_rate))
    base_dir = Path(args.config).resolve().parent
    sources = [
        Source(s.position, _source_signal(s.signal, n, array.sample_rate, base_dir, s.seed))
        for s in sim.sources
    ]
    snr = math.inf if sim.snr_db is None else sim.snr_db
    scene = SceneSpec(room, sources, snr_db=snr, seed=sim.seed)
    signals = synthesize_free_field(scene, array)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    wav_path = out_dir / "scene.wav"
    write_wav(wav_path, array.sample_rate, signals)
    truth = {
        "sample_rate": array.sample_rate,
        "room": [float(v) for v in room],
        "sources": [
            {
                "position": [float(v) for v in src.position],
                "tdoas": {
                    f"{p.l}-{p.m}": tdoa(src.position, p, array) for p in array.pairs()
                },
            }
            for src in sources
        ],
    }
    truth_path = out_dir / "ground_truth.json"
    with open(truth_path, "w") as f:
        json.dump(truth, f, indent=2)
    summary = f"wrote {wav_path} ({signals.shape[0]} ch, {signals.shape[1]} samples)"
    return out_dir / "manifest.json", [args.config], [wav_path, truth_path], summary


def _check_scene(wav: WavReader, path, array: MicArray, frame_cfg: FrameConfig,
                 band: tuple[float, float] | None) -> int:
    """The number of whole frames of the scene WAV at path, once its header fits the array
    and the feature band holds a bin of the frames' 2L-point DFT (as features._mic_spectra counts them)."""
    if wav.sample_rate != array.sample_rate:
        raise OSError(f"{path}: sample rate {wav.sample_rate} != configured {array.sample_rate}")
    if wav.n_channels != array.n_mics:
        raise OSError(f"{path}: {wav.n_channels} channels for {array.n_mics} microphones")
    total = n_frames(wav.n_samples, frame_cfg)
    if total == 0:
        raise OSError(f"{path}: shorter than one frame ({frame_cfg.frame_len})")
    n = 2 * frame_cfg.frame_len
    bins = _half_band(_band_mask(np.fft.fftfreq(n, d=1.0 / array.sample_rate), band, array.sample_rate))
    if bins.stop == bins.start:
        raise ConfigError(f"band {band} Hz holds no bin of the {n}-point DFT at {array.sample_rate:g} Hz")
    return total


def _localize(args, cfg: LocalizeConfig):
    pipe, frame_cfg = cfg.pipeline, cfg.frame
    pgm = str(args.export_map).endswith(".pgm")  # False without --export-map
    if pgm and pipe.grid.kind != "cartesian2d":
        raise ConfigError("PGM export needs a planar cartesian2d grid")
    array = cfg.array.mic_array()
    plan = prepare(array, cfg.room, pipe)
    records = []
    with WavReader(args.input) as wav:
        total = _check_scene(wav, args.input, array, frame_cfg, plan.gcc.band)
        for i, est in enumerate(plan.stream(wav.frames(frame_cfg))):  # read hop by hop, run in batches
            t_end = (i * frame_cfg.hop + frame_cfg.frame_len) / array.sample_rate
            records.append({"frame": i, "t_seconds": t_end, "estimates": est.records()})
    write_jsonl(records, args.out)
    outputs = [args.out]
    if args.export_map:
        srp = plan.map()  # the last frame's, from the features its run() kept
        if pgm:
            export_map_pgm(srp, args.export_map)
        else:
            export_map_csv(srp, args.export_map)
        outputs.append(args.export_map)
    summary = f"wrote {args.out} ({total} frames)"
    return str(args.out) + ".manifest.json", [args.config, args.input], outputs, summary


def _track(args, cfg: TrackConfig):
    array = cfg.array.mic_array()
    with WavReader(args.input) as wav:
        _check_scene(wav, args.input, array, cfg.frame, cfg.tracker.band)
        points = track(wav.frames(cfg.frame), array, cfg.room, cfg.frame, cfg.tracker)
    write_jsonl([p.as_record() for p in points], args.out)
    summary = f"wrote {args.out} ({len(points)} frames)"
    return str(args.out) + ".manifest.json", [args.config, args.input], [args.out], summary


def _run(args) -> int:
    """The shell of every command: load its config, do its work (``args.work(args, cfg)``, which returns
    the manifest path, inputs, outputs and summary line), write its manifest and print its summary."""
    t0 = time.perf_counter()
    cfg = _load_config(args.config, args.config_cls)
    manifest, inputs, outputs, summary = args.work(args, cfg)
    _write_manifest(manifest, args.command, cfg, inputs, outputs, time.perf_counter() - t0)
    print(summary)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xsrp", description="Steered-response-power sound source localization"
    )
    parser.add_argument("--version", action="version", version=f"xsrp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a scene WAV plus ground truth")
    p.add_argument("-c", "--config", required=True, help="JSON scene config")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.set_defaults(config_cls=SimulateConfig, work=_simulate)

    p = sub.add_parser("localize", help="per-frame localization from a WAV")
    p.add_argument("-c", "--config", required=True, help="JSON pipeline config")
    p.add_argument("-i", "--input", required=True, help="M-channel scene WAV")
    p.add_argument("-o", "--out", required=True, help="output JSON-lines file")
    p.add_argument("--export-map", default=None, help="also export the last frame's map (.csv or .pgm)")
    p.set_defaults(config_cls=LocalizeConfig, work=_localize)

    p = sub.add_parser("track", help="particle-filter tracking from a WAV")
    p.add_argument("-c", "--config", required=True, help="JSON tracker config")
    p.add_argument("-i", "--input", required=True, help="M-channel scene WAV")
    p.add_argument("-o", "--out", required=True, help="output JSON-lines trajectory")
    p.set_defaults(config_cls=TrackConfig, work=_track)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse uses 2 for usage errors; exit code 1 is ours for usage/config
        return 0 if e.code in (0, None) else 1
    try:
        return _run(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
