"""Command-line interface.

Subcommands: simulate (synthesize a scene + ground truth), localize
(per-frame estimates from a WAV) and track (particle-filter
trajectory). All take a JSON config; unknown keys anywhere are
rejected. Every run writes a manifest (config snapshot,
input hashes, package version, timing) sufficient to reproduce it.

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
from pathlib import Path

import numpy as np

from . import __version__
from .features import FrameConfig, GccConfig, frame_stack, n_frames
from .geometry import MicArray, tdoa
from .io_utils import (
    export_map_csv,
    export_map_pgm,
    read_wav,
    sha256_file,
    write_jsonl,
    write_wav,
)
from .pipeline import ConfigError, _check_keys, _value, config_from_dict, prepare
from .synth import SceneSpec, Source, pink_noise, synthesize_free_field, white_noise
from .tracking import LangevinParams, track


def _load_json(path) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON in {path}: {e}") from e


def _typed(d, types: dict, section: str) -> dict:
    """The keys of a hand-parsed section, each coerced to its type in ``types``."""
    _check_keys(d, types, section)
    return {k: _value(types[k], v, section, k) for k, v in d.items()}


def _parse_array(d: dict) -> MicArray:
    if d is None:
        raise ConfigError("config needs an 'array' section")
    d = _typed(d, {"positions": np.ndarray, "sample_rate": float, "speed_of_sound": float}, "array")
    if "positions" not in d or "sample_rate" not in d:
        raise ConfigError("array needs 'positions' and 'sample_rate'")
    if not d["sample_rate"].is_integer():  # a WAV header holds whole hertz
        raise ConfigError(f"sample_rate must be a whole number of Hz, got {d['sample_rate']}")
    return MicArray(d["positions"], d["sample_rate"], d.get("speed_of_sound", 343.0))


def _parse_frame(d: dict) -> FrameConfig:
    if d is None:
        raise ConfigError("config needs a 'frame' section")
    d = _typed(d, {"frame_len": int, "hop": int, "window": str}, "frame")
    if "frame_len" not in d:
        raise ConfigError("frame needs 'frame_len'")
    return FrameConfig(d["frame_len"], d.get("hop", d["frame_len"]), d.get("window", "rectangular"))


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _write_manifest(path, command: str, config: dict, inputs: list, outputs: list,
                    seed, wall_seconds: float) -> None:
    manifest = {
        "tool": "xsrp",
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "seed": seed,
        "wall_seconds": wall_seconds,
        "created_utc": _utc_now(),
    }
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2)


def _source_signal(spec, n_samples: int, fs: float, base_dir: Path, seed: int):
    if spec == "white":
        return white_noise(n_samples, seed)
    if spec == "pink":
        return pink_noise(n_samples, seed)
    if isinstance(spec, dict) and set(spec) == {"wav"}:
        wav_fs, x = read_wav(base_dir / spec["wav"])
        if wav_fs != fs:
            raise ConfigError(f"source wav rate {wav_fs} != array rate {fs}")
        if x.shape[0] != 1:
            raise ConfigError("source wav must be mono")
        return x[0]
    raise ConfigError(f"source signal must be 'white', 'pink' or {{'wav': path}}, got {spec!r}")


_SIMULATE_KEYS = {
    "duration_s": float, "snr_db": float | None, "seed": int, "sources": tuple[object, ...],
}
_SOURCE_KEYS = {"position": np.ndarray, "signal": object, "seed": int}


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    cfg = _load_json(args.config)
    _check_keys(cfg, ("array", "room", "simulate"), "config")
    array = _parse_array(cfg.get("array"))
    if "room" not in cfg:
        raise ConfigError("simulate needs 'room' dimensions")
    room = _value(np.ndarray, cfg["room"], "config", "room")
    if cfg.get("simulate") is None:
        raise ConfigError("config needs a 'simulate' section")
    sim = _typed(cfg["simulate"], _SIMULATE_KEYS, "simulate")
    snr = sim.get("snr_db")
    snr = math.inf if snr is None else snr
    seed = sim.get("seed", 0)
    n = int(round(sim.get("duration_s", 1.0) * array.sample_rate))
    base_dir = Path(args.config).resolve().parent
    sources = []
    for k, sd in enumerate(sim.get("sources", ())):
        sd = _typed(sd, _SOURCE_KEYS, "source")
        if "position" not in sd:
            raise ConfigError("each simulate source needs a 'position'")
        sig = _source_signal(
            sd.get("signal", "white"), n, array.sample_rate, base_dir, sd.get("seed", seed + k)
        )
        sources.append(Source(sd["position"], sig))
    if not sources:
        raise ConfigError("simulate needs at least one source")
    scene = SceneSpec(room, sources, snr_db=snr, seed=seed)
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
    _write_manifest(
        out_dir / "manifest.json", "simulate", cfg, [args.config],
        [wav_path, truth_path], seed, time.perf_counter() - t0,
    )
    print(f"wrote {wav_path} ({signals.shape[0]} ch, {signals.shape[1]} samples)")
    return 0


def _load_localize_config(path):
    cfg = _load_json(path)
    _check_keys(cfg, ("array", "room", "frame", "pipeline"), "config")
    array = _parse_array(cfg.get("array"))
    frame_cfg = _parse_frame(cfg.get("frame"))
    room = _value(np.ndarray, cfg["room"], "config", "room") if "room" in cfg else None
    pipe = config_from_dict(cfg.get("pipeline", {}) or {})
    return cfg, array, room, frame_cfg, pipe


def _read_scene(path, array: MicArray):
    fs, signals = read_wav(path)
    if fs != array.sample_rate:
        raise OSError(f"{path}: sample rate {fs} != configured {array.sample_rate}")
    if signals.shape[0] != array.n_mics:
        raise OSError(
            f"{path}: {signals.shape[0]} channels for {array.n_mics} microphones"
        )
    return signals


def cmd_localize(args) -> int:
    t0 = time.perf_counter()
    cfg, array, room, frame_cfg, pipe = _load_localize_config(args.config)
    plan = prepare(array, room, pipe)
    signals = _read_scene(args.input, array)
    total = n_frames(signals.shape[1], frame_cfg)
    if total == 0:
        raise OSError(f"{args.input}: shorter than one frame ({frame_cfg.frame_len})")
    records = []
    for i in range(total):
        est = plan.run(frame_stack(signals, frame_cfg, i))
        records.append(
            {
                "frame": i,
                "t_seconds": (i * frame_cfg.hop + frame_cfg.frame_len) / array.sample_rate,
                "estimates": est.records(),
            }
        )
    write_jsonl(records, args.out)
    outputs = [args.out]
    if args.export_map:
        srp = plan.map()  # the last frame's, from the features its run() kept
        if str(args.export_map).endswith(".pgm"):
            export_map_pgm(srp, args.export_map)
        else:
            export_map_csv(srp, args.export_map)
        outputs.append(args.export_map)
    _write_manifest(
        str(args.out) + ".manifest.json", "localize", cfg, [args.config, args.input],
        outputs, pipe.search.seed, time.perf_counter() - t0,
    )
    print(f"wrote {args.out} ({total} frames)")
    return 0


_TRACKER_KEYS = {
    "q": int, "alpha": float, "beta": float, "kappa": float, "seed": int,
    "resample_fraction": float, "band": tuple[float, float] | None, "gcc_beta": float,
    "gamma": float | None,
}


def cmd_track(args) -> int:
    t0 = time.perf_counter()
    cfg = _load_json(args.config)
    _check_keys(cfg, ("array", "room", "frame", "tracker"), "config")
    array = _parse_array(cfg.get("array"))
    if "room" not in cfg:
        raise ConfigError("track needs 'room' dimensions")
    room = _value(np.ndarray, cfg["room"], "config", "room")
    frame_cfg = _parse_frame(cfg.get("frame"))
    td = _typed(cfg.get("tracker", {}) or {}, _TRACKER_KEYS, "tracker")
    seed = td.get("seed", 0)
    params = LangevinParams(
        alpha=td.get("alpha", 2.0),
        beta=td.get("beta", 0.5),
        dt=frame_cfg.hop / array.sample_rate,
    )
    gcc_cfg = GccConfig(beta=td.get("gcc_beta", 1.0), gamma=td.get("gamma"), band=td.get("band"))
    signals = _read_scene(args.input, array)
    points = track(
        signals, array, room, frame_cfg,
        params=params, q=td.get("q", 500), seed=seed, gcc_cfg=gcc_cfg,
        kappa=td.get("kappa", 1.0),
        resample_fraction=td.get("resample_fraction", 0.5),
    )
    write_jsonl([p.as_record() for p in points], args.out)
    _write_manifest(
        str(args.out) + ".manifest.json", "track", cfg, [args.config, args.input],
        [args.out], seed, time.perf_counter() - t0,
    )
    print(f"wrote {args.out} ({len(points)} frames)")
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
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("localize", help="per-frame localization from a WAV")
    p.add_argument("-c", "--config", required=True, help="JSON pipeline config")
    p.add_argument("-i", "--input", required=True, help="M-channel scene WAV")
    p.add_argument("-o", "--out", required=True, help="output JSON-lines file")
    p.add_argument("--export-map", default=None, help="also export the last frame's map (.csv or .pgm)")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("track", help="particle-filter tracking from a WAV")
    p.add_argument("-c", "--config", required=True, help="JSON tracker config")
    p.add_argument("-i", "--input", required=True, help="M-channel scene WAV")
    p.add_argument("-o", "--out", required=True, help="output JSON-lines trajectory")
    p.set_defaults(func=cmd_track)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse uses 2 for usage errors; exit code 1 is ours for usage/config
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
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
