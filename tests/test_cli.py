"""End-to-end tests of the command line interface.

These call main(argv) in-process for speed; one test runs the CLI as a
real process through ``python -m xsrp``, checks that the ``[project.scripts]``
entry in pyproject.toml names ``xsrp.cli.main``, and also runs the installed
``xsrp`` script when there is one.
"""

import contextlib
import csv
import gc
import hashlib
import importlib
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

import xsrp
from xsrp import __version__
from xsrp import multisource
from xsrp import tracking
from xsrp.cli import LocalizeConfig, TrackConfig, main
from xsrp.features import FrameConfig, frame_blocks, frame_stack, n_frames
from xsrp.geometry import MicArray, MicPair, tdoa
from xsrp.grids import CandidateGrid, cartesian_grid
from xsrp.io_utils import (
    WavReader,
    export_map_csv,
    export_map_pgm,
    read_wav,
    sha256_file,
    write_jsonl,
    write_wav,
)
from xsrp.pipeline import config_from_dict, prepare
from xsrp.srp_core import SrpMap, counter
from xsrp.synth import SceneSpec, Source, synthesize_free_field, white_noise

FS = 16000.0
ROOM = [4.0, 3.0, 2.0]
MICS = [
    [0.5, 0.5, 0.5],
    [3.5, 0.5, 0.5],
    [0.5, 2.5, 1.5],
    [3.5, 2.5, 1.5],
]
SRC = [2.0, 1.5, 1.0]


def read_jsonl(path) -> list[dict]:
    """The records of a JSON-lines file, such as the CLI's output."""
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def write_config(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f)
    return str(path)


def simulate_config(duration=0.3, seed=3):
    return {
        "array": {"positions": MICS, "sample_rate": FS},
        "room": ROOM,
        "simulate": {
            "duration_s": duration,
            "snr_db": 20.0,
            "seed": seed,
            "sources": [{"position": SRC, "signal": "white"}],
        },
    }


@pytest.fixture()
def scene_dir(tmp_path):
    cfg = write_config(tmp_path / "scene.json", simulate_config())
    out = tmp_path / "scene"
    assert main(["simulate", "-c", cfg, "-o", str(out)]) == 0
    return out


def test_simulate_outputs(scene_dir):
    fs, signals = read_wav(scene_dir / "scene.wav")
    assert fs == FS
    # the render keeps the delay-filter tail, so it runs a little
    # past the nominal duration
    assert signals.shape[0] == 4
    assert int(0.3 * FS) <= signals.shape[1] <= int(0.3 * FS) + 512

    truth = json.loads((scene_dir / "ground_truth.json").read_text())
    assert truth["room"] == ROOM
    array = MicArray(np.array(MICS), sample_rate=FS)
    got = truth["sources"][0]["tdoas"]
    for p in array.pairs():
        assert got[f"{p.l}-{p.m}"] == pytest.approx(
            tdoa(np.array(SRC), p, array), abs=1e-15
        )

    manifest = json.loads((scene_dir / "manifest.json").read_text())
    assert manifest["tool"] == "xsrp"
    assert manifest["version"] == __version__
    assert manifest["command"] == "simulate"
    assert len(manifest["inputs"]) == 1
    digest = next(iter(manifest["inputs"].values()))
    assert len(digest) == 64
    assert any(str(p).endswith("scene.wav") for p in manifest["outputs"])
    assert manifest["wall_seconds"] > 0


def test_simulate_reports_collinear_tdoa(tmp_path):
    # two mics 0.686 m apart along x, source on the same line: the
    # path difference is the full baseline, 0.686 / 343 = 2 ms
    cfg = write_config(
        tmp_path / "c.json",
        {
            "array": {
                "positions": [[2.314, 1.0, 1.0], [3.0, 1.0, 1.0]],
                "sample_rate": FS,
            },
            "room": [4.0, 2.0, 2.0],
            "simulate": {
                "duration_s": 0.1,
                "sources": [{"position": [0.5, 1.0, 1.0]}],
            },
        },
    )
    out = tmp_path / "o"
    assert main(["simulate", "-c", cfg, "-o", str(out)]) == 0
    truth = json.loads((out / "ground_truth.json").read_text())
    assert truth["sources"][0]["tdoas"]["0-1"] == pytest.approx(-0.002, rel=1e-12)


def localize_config(resolution=0.25):
    return {
        "array": {"positions": MICS, "sample_rate": FS},
        "room": ROOM,
        "frame": {"frame_len": 2048, "hop": 2048},
        "pipeline": {
            "grid": {"kind": "cartesian2d", "resolution": resolution},
            "features": {"band": [100.0, 900.0]},
            "map": {"domain": "time"},
        },
    }


def parse_pgm(path):
    raw = open(path, "rb").read()
    magic, dims, maxval, pixels = raw.split(b"\n", 3)
    assert magic == b"P5" and maxval == b"255"
    w, h = (int(v) for v in dims.split())
    img = np.frombuffer(pixels, dtype=np.uint8, count=w * h).reshape(h, w)
    return img


def test_localize_jsonl_and_pgm(tmp_path, scene_dir):
    cfg = write_config(tmp_path / "loc.json", localize_config())
    out = tmp_path / "est.jsonl"
    pgm = tmp_path / "map.pgm"
    code = main(
        [
            "localize", "-c", cfg, "-i", str(scene_dir / "scene.wav"),
            "-o", str(out), "--export-map", str(pgm),
        ]
    )
    assert code == 0

    records = read_jsonl(out)
    n_samples = read_wav(scene_dir / "scene.wav")[1].shape[1]
    assert len(records) == (n_samples - 2048) // 2048 + 1
    assert [r["frame"] for r in records] == list(range(len(records)))
    assert records[0]["t_seconds"] == pytest.approx(2048 / FS)
    top = records[-1]["estimates"][0]
    assert set(top) == {"x", "y", "z", "score"}
    assert top["z"] == 0.0  # planar grid

    # the brightest PGM pixel is the exported map's argmax, which is
    # the same map the last frame's estimate came from; the lattice
    # starts one step in and reaches the far walls
    img = parse_pgm(pgm)
    xs = np.arange(1, int(ROOM[0] / 0.25) + 1) * 0.25
    ys = np.arange(1, int(ROOM[1] / 0.25) + 1) * 0.25
    assert img.shape == (len(ys), len(xs))
    r, c = np.unravel_index(np.argmax(img), img.shape)
    assert img[r, c] == 255
    assert xs[c] == pytest.approx(top["x"])
    assert ys[::-1][r] == pytest.approx(top["y"])

    with open(str(out) + ".manifest.json") as f:
        manifest = json.load(f)
    assert manifest["command"] == "localize"
    assert len(manifest["inputs"]) == 2


def test_localize_csv_export(tmp_path, scene_dir):
    cfg = write_config(tmp_path / "loc.json", localize_config(resolution=0.5))
    out = tmp_path / "est.jsonl"
    csv_path = tmp_path / "map.csv"
    code = main(
        [
            "localize", "-c", cfg, "-i", str(scene_dir / "scene.wav"),
            "-o", str(out), "--export-map", str(csv_path),
        ]
    )
    assert code == 0
    with open(csv_path) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 8 * 6  # xs 0.5..4.0, ys 0.5..3.0
    best = max(rows, key=lambda r: float(r["score"]))
    top = read_jsonl(out)[-1]["estimates"][0]
    assert float(best["x"]) == pytest.approx(top["x"])
    assert float(best["y"]) == pytest.approx(top["y"])


def test_localize_export_is_one_more_map_build(tmp_path, scene_dir):
    cfg = localize_config()
    cfg["pipeline"]["grid"] = {"kind": "volumes", "counts": [4, 3, 2]}
    cfg["pipeline"]["map"] = {"domain": "volumetric"}
    path = write_config(tmp_path / "vol.json", cfg)
    out = tmp_path / "est.jsonl"
    ops0 = counter.kernel_ops
    argv = ["localize", "-c", path, "-i", str(scene_dir / "scene.wav"), "-o", str(out)]
    assert main(argv + ["--export-map", str(tmp_path / "map.csv")]) == 0
    frames = len(read_jsonl(out))
    assert frames == 2
    assert counter.kernel_ops - ops0 == (frames + 1) * (4 * 3 * 2) * (4 * 3 // 2)


def test_localize_in_batches_writes_what_one_frame_runs_write(tmp_path, monkeypatch):
    # 11 frames go to the plan as batches of 8 and 3, two rounds each;
    # the records and the export equal those of one-frame Plan.run calls
    sim = write_config(tmp_path / "scene.json", simulate_config(duration=(1024 + 10 * 512) / FS))
    assert main(["simulate", "-c", sim, "-o", str(tmp_path / "scene")]) == 0
    wav = tmp_path / "scene" / "scene.wav"
    cfg = localize_config(resolution=0.5)
    cfg["frame"] = {"frame_len": 1024, "hop": 512}
    cfg["pipeline"]["grid"]["kind"] = "cartesian3d"
    cfg["pipeline"]["multi"] = {"n_sources": 2}
    path = write_config(tmp_path / "loc.json", cfg)
    batches = []
    search = multisource._window_argmax  # one call a round, over the batch's active frames
    monkeypatch.setattr(multisource, "_window_argmax",
                        lambda cells, values: batches.append(values.shape[1]) or search(cells, values))
    argv = ["localize", "-c", path, "-i", str(wav), "-o", str(tmp_path / "est.jsonl")]
    assert main(argv + ["--export-map", str(tmp_path / "map.csv")]) == 0
    assert batches == [8, 8, 3, 3]

    parsed = config_from_dict(cfg, LocalizeConfig, "config")
    array = parsed.array.mic_array()
    signals = read_wav(wav)[1]
    records = []
    for i in range(11):
        plan = prepare(array, parsed.room, parsed.pipeline)
        est = plan.run(frame_stack(signals, parsed.frame, i))
        records.append({"frame": i, "t_seconds": (i * 512 + 1024) / FS, "estimates": est.records()})
    write_jsonl(records, tmp_path / "want.jsonl")
    export_map_csv(plan.map(), tmp_path / "want.csv")
    assert (tmp_path / "est.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
    assert (tmp_path / "map.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def track_config():
    return {
        "array": {"positions": MICS, "sample_rate": FS},
        "room": ROOM,
        "frame": {"frame_len": 1024, "hop": 512},
        "tracker": {"q": 150, "seed": 2, "band": [300.0, 3000.0]},
    }


def test_track_jsonl(tmp_path):
    cfg = write_config(tmp_path / "scene.json", simulate_config(duration=0.5))
    scene = tmp_path / "scene"
    assert main(["simulate", "-c", cfg, "-o", str(scene)]) == 0
    tcfg = write_config(tmp_path / "track.json", track_config())
    out = tmp_path / "traj.jsonl"
    assert main(["track", "-c", tcfg, "-i", str(scene / "scene.wav"), "-o", str(out)]) == 0
    records = read_jsonl(out)
    assert len(records) == (int(0.5 * FS) - 1024) // 512 + 1
    for rec in records:
        assert set(rec) == {"frame", "t_seconds", "x", "y", "z", "ess"}
        assert 0.0 <= rec["x"] <= ROOM[0]
        assert 0.0 <= rec["y"] <= ROOM[1]
        assert 0.0 <= rec["z"] <= ROOM[2]
        assert 1.0 <= rec["ess"] <= 150.0


def test_track_writes_what_tracking_track_writes(tmp_path):
    # the command reads its frames hop by hop from the file; the records
    # equal those of track() over frame_stack blocks of the whole signal
    sim = write_config(tmp_path / "scene.json", simulate_config(duration=0.4))
    assert main(["simulate", "-c", sim, "-o", str(tmp_path / "scene")]) == 0
    wav = tmp_path / "scene" / "scene.wav"
    cfg = track_config()
    cfg["frame"]["window"] = "hann"
    path = write_config(tmp_path / "track.json", cfg)
    with no_unclosed_file(wav):
        assert main(["track", "-c", path, "-i", str(wav), "-o", str(tmp_path / "traj.jsonl")]) == 0

    parsed = config_from_dict(cfg, TrackConfig, "config")
    signals = read_wav(wav)[1]
    points = tracking.track(frame_blocks(signals, parsed.frame), parsed.array.mic_array(), parsed.room,
                            parsed.frame, parsed.tracker)
    assert len(points) == n_frames(signals.shape[1], parsed.frame) > 1
    write_jsonl([p.as_record() for p in points], tmp_path / "want.jsonl")
    assert (tmp_path / "traj.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()


def test_track_memory_does_not_grow_with_the_recording(tmp_path):
    """An 8-frame and a 160-frame recording of one scene: the in-process
    command's tracemalloc peaks differ by under 256 KiB, where holding the
    152 extra frames' float64 samples would cost 4.75 MiB."""
    array = MicArray(np.random.default_rng(19).uniform(0.3, np.array(ROOM) - 0.3, size=(8, 3)), FS)
    n = 1024 + 159 * 512
    scene = SceneSpec(np.array(ROOM), [Source(np.array(SRC), white_noise(n, seed=20))])
    signals = synthesize_free_field(scene, array)[:, :n]
    cfg = track_config()
    cfg["array"]["positions"] = array.positions.tolist()
    cfg["tracker"]["q"] = 50
    path = write_config(tmp_path / "track.json", cfg)
    frame_cfg = FrameConfig(1024, 512)
    peaks = {}
    for frames in (8, 8, 160):  # the first run warms caches that stay allocated
        wav = tmp_path / f"scene{frames}.wav"
        write_wav(wav, FS, signals[:, :1024 + (frames - 1) * 512])
        tracemalloc.start()
        try:
            assert main(["track", "-c", path, "-i", str(wav), "-o", str(tmp_path / "o.jsonl")]) == 0
            peaks[frames] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(read_jsonl(tmp_path / "o.jsonl")) == frames
    assert abs(peaks[160] - peaks[8]) < 256 << 10, peaks

    # after frame i the reader has asked the file for no sample past that frame's last
    with WavReader(wav) as reader:
        align = 8 * 4  # 8 channels of float32
        for i, _ in enumerate(reader.frames(frame_cfg)):
            assert reader._file.tell() <= 44 + (i * 512 + 1024) * align  # write_wav's header: 44 bytes
        assert i == 159


def test_a_wav_shorter_than_one_frame_is_an_io_error(tmp_path, capsys):
    wav = tmp_path / "short.wav"
    write_wav(wav, FS, np.zeros((len(MICS), 800)))
    for command, cfg in (("localize", localize_config()), ("track", track_config())):
        path = write_config(tmp_path / f"{command}.json", cfg)
        assert main([command, "-c", path, "-i", str(wav), "-o", str(tmp_path / "o.jsonl")]) == 2
        assert "i/o error: " in (err := capsys.readouterr().err) and "shorter than one frame" in err
    assert not (tmp_path / "o.jsonl").exists()


@pytest.mark.parametrize("command", ["localize", "track"])
def test_a_band_with_no_dft_bin_is_a_config_error(tmp_path, scene_dir, capsys, command):
    """9-12 kHz lies above the 8 kHz Nyquist limit of a 16 kHz scene: no bin of the
    frames' DFT is in band, so there is no evidence to localize or track from."""
    cfg = localize_config() if command == "localize" else track_config()
    (cfg["pipeline"]["features"] if command == "localize" else cfg["tracker"])["band"] = [9000.0, 12000.0]
    path = write_config(tmp_path / f"{command}.json", cfg)
    out = tmp_path / "o.jsonl"
    assert main([command, "-c", path, "-i", str(scene_dir / "scene.wav"), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "no bin" in err
    assert not out.exists()


def _bearing(az_deg, el_deg):
    az, el = np.radians(az_deg), np.radians(el_deg)
    return np.array([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)])


#: a compact 6-mic array (radius 0.12 m, z +/-0.05 m) at the centre of a 20 x 20 x 10 m room
DOA_CENTRE = np.array([10.0, 10.0, 5.0])
DOA_MICS = [[10.0 + 0.12 * np.cos(k * np.pi / 3), 10.0 + 0.12 * np.sin(k * np.pi / 3), 5.0 + (0.05 if k % 2 else -0.05)]
            for k in range(6)]


@pytest.mark.parametrize("domain", ["time", "frequency"])
@pytest.mark.parametrize("n_sources, steps", [(1, 3), (2, 4)])
def test_doa_localize_finds_each_bearing(tmp_path, domain, n_sources, steps):
    """Far-field steering end to end: sources 6 m from a compact array, between the
    nodes of a 2-degree azimuth-elevation grid. Each true bearing is matched by an
    estimate of every frame within ``steps`` grid steps (over seeds 0-5 the worst
    errors were 3.9 and 0.7 degrees with one source, 4.8 and 1.8 with two, time and
    frequency maps)."""
    bearings = [_bearing(37.3, 21.7), _bearing(203.1, -8.9)][:n_sources]
    sim = {"array": {"positions": DOA_MICS, "sample_rate": FS}, "room": [20.0, 20.0, 10.0],
           "simulate": {"duration_s": 0.6, "snr_db": 20.0, "seed": 0,
                        "sources": [{"position": list(DOA_CENTRE + 6.0 * b)} for b in bearings]}}
    assert main(["simulate", "-c", write_config(tmp_path / "sim.json", sim), "-o", str(tmp_path / "scene")]) == 0
    step = np.radians(2.0)
    loc = {"array": {"positions": DOA_MICS, "sample_rate": FS}, "frame": {"frame_len": 4096, "hop": 4096},
           "pipeline": {"grid": {"kind": "doa_az_el", "azimuth_res": step, "elevation_res": step},
                        "features": {"band": [200.0, 4000.0]}, "map": {"domain": domain}}}
    if n_sources > 1:
        loc["pipeline"]["multi"] = {"n_sources": n_sources}
    out = tmp_path / "doa.jsonl"
    argv = ["localize", "-c", write_config(tmp_path / "loc.json", loc), "-i", str(tmp_path / "scene" / "scene.wav")]
    assert main(argv + ["-o", str(out)]) == 0
    records = read_jsonl(out)
    assert len(records) == 2
    for rec in records:
        ests = np.array([[e["x"], e["y"], e["z"]] for e in rec["estimates"]])
        np.testing.assert_allclose(np.linalg.norm(ests, axis=1), 1.0, atol=1e-9)
        for b in bearings:
            assert np.degrees(np.arccos(np.clip(ests @ b, -1.0, 1.0))).min() <= 2.0 * steps


def test_a_nan_sample_under_cc_features_is_a_numerical_error(tmp_path, scene_dir, capsys):
    """The classical cross-correlation carries a NaN sample into every lag of its pairs:
    a fault of the data, exit 3, not of the config."""
    _, signals = read_wav(scene_dir / "scene.wav")
    signals[1, 100] = np.nan
    wav = tmp_path / "nan.wav"
    write_wav(wav, FS, signals)
    cfg = localize_config()
    cfg["pipeline"]["features"] = {"kind": "cc"}
    path = write_config(tmp_path / "loc.json", cfg)
    assert main(["localize", "-c", path, "-i", str(wav), "-o", str(tmp_path / "o.jsonl")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and "finite" in err


def test_pgm_export_reads_the_raster_shape_from_the_planar_lattice(tmp_path):
    """The raster is the lattice's nx x ny, top row the largest y; the
    same points held as a hand-built grid are not a lattice and are
    refused, as is any grid but a cartesian2d one."""
    grid = cartesian_grid((4.0, 3.0), 1.0, planar=True)
    scores = np.arange(len(grid), dtype=float)
    export_map_pgm(SrpMap(grid, scores), tmp_path / "map.pgm")
    img = parse_pgm(tmp_path / "map.pgm")
    want = np.round(scores / scores.max() * 255).astype(np.uint8).reshape(4, 3).T[::-1]
    assert np.array_equal(img, want)
    held = CandidateGrid("cartesian2d", grid.points)
    with pytest.raises(ValueError, match="grid is not a full x-y lattice"):
        export_map_pgm(SrpMap(held, scores), tmp_path / "held.pgm")
    with pytest.raises(ValueError, match="PGM export needs a planar cartesian2d grid"):
        export_map_pgm(SrpMap(cartesian_grid((4.0, 3.0, 2.0), 1.0), np.zeros(24)), tmp_path / "3d.pgm")


def test_pgm_export_of_a_non_planar_grid_fails_before_any_output(tmp_path, scene_dir, capsys):
    cfg = localize_config()
    cfg["pipeline"]["grid"] = {"kind": "cartesian3d", "resolution": 0.5}
    path = write_config(tmp_path / "loc.json", cfg)
    out = tmp_path / "est.jsonl"
    argv = ["localize", "-c", path, "-i", str(scene_dir / "scene.wav"), "-o", str(out)]
    assert main(argv + ["--export-map", str(tmp_path / "map.pgm")]) == 1
    assert "PGM export needs a planar cartesian2d grid" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["loc.json", "scene", "scene.json"]


@pytest.mark.parametrize("command", ["simulate", "localize", "track"])
def test_manifest_config_reproduces_the_run(tmp_path, scene_dir, command):
    # the manifest holds the resolved config: every default filled in,
    # every source seed set, and fed back it writes the same bytes
    cfg = {"simulate": simulate_config, "localize": localize_config, "track": track_config}[command]()
    if command == "simulate":
        del cfg["simulate"]["seed"]
        cfg["simulate"]["sources"].append({"position": [1.0, 1.0, 1.0], "signal": "pink"})

    def run(config, name):
        argv = [command, "-c", write_config(tmp_path / f"{name}.json", config), "-o", str(tmp_path / name)]
        if command != "simulate":
            argv += ["-i", str(scene_dir / "scene.wav")]
        assert main(argv) == 0
        if command == "simulate":
            manifest = tmp_path / name / "manifest.json"
            return (tmp_path / name / "scene.wav").read_bytes(), json.loads(manifest.read_text())
        return (tmp_path / name).read_bytes(), json.loads(Path(f"{tmp_path / name}.manifest.json").read_text())

    first, manifest = run(cfg, "a")
    resolved = manifest["config"]
    assert set(resolved) == {"simulate": {"array", "room", "simulate"},
                             "localize": {"array", "room", "frame", "pipeline"},
                             "track": {"array", "room", "frame", "tracker"}}[command]
    assert resolved["array"]["speed_of_sound"] == 343.0
    if command == "simulate":
        assert [s["seed"] for s in resolved["simulate"]["sources"]] == [0, 1]
        assert resolved["simulate"]["snr_db"] == 20.0
    else:
        assert resolved["frame"]["window"] == "rectangular"
    if command == "localize":
        assert resolved["pipeline"]["search"]["mode"] == "exhaustive"
    if command == "track":
        assert resolved["tracker"]["kappa"] == 1.0
    second, again = run(resolved, "b")
    assert second == first
    assert again["config"] == resolved


@pytest.mark.parametrize("command, make_config, required", [
    ("simulate", simulate_config, "simulate"),
    ("localize", localize_config, "frame"),
    ("track", track_config, "room"),
])
def test_top_level_keys_come_from_the_command_config(tmp_path, capsys, command, make_config, required):
    for bad, key in ((make_config() | {"bogus": 1}, "bogus"),
                     ({k: v for k, v in make_config().items() if k != required}, required)):
        argv = [command, "-c", write_config(tmp_path / "c.json", bad), "-o", str(tmp_path / "o")]
        if command != "simulate":
            argv += ["-i", str(tmp_path / "missing.wav")]  # the config fails before the input is read
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"'{key}'" in err and "'config'" in err


def test_csv_export_bytes(tmp_path):
    points = [[0.1, -0.0, 1e-20], [1.0 / 3.0, 2.5, 1e300], [7.0, -8.25, 123456789.0]]
    grid = CandidateGrid("cartesian3d", points)
    export_map_csv(SrpMap(grid, [1e-20, -1.5e-7, -0.0]), tmp_path / "m.csv")
    assert (tmp_path / "m.csv").read_text() == (
        "x,y,z,score\n"
        "0.1,-0,1e-20,1e-20\n"
        "0.333333333,2.5,1e+300,-1.5e-07\n"
        "7,-8.25,123456789,-0\n"
    )


def test_sha256_file_hashes_in_small_chunks(tmp_path):
    """A 2 MiB file: hashlib's digest of the whole file, under 256 KiB of allocations."""
    data = np.random.default_rng(3).bytes(2 << 20)
    path = tmp_path / "blob.bin"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        digest = sha256_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(data).hexdigest()
    assert peak < 256 << 10


def test_exit_codes(tmp_path):
    # missing config file -> i/o error
    assert main(["localize", "-c", str(tmp_path / "nope.json"), "-i", "x", "-o", "y"]) == 2
    # malformed JSON -> config error
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["simulate", "-c", str(bad), "-o", str(tmp_path / "o")]) == 1
    # unknown config key -> config error
    cfg = simulate_config()
    cfg["simulate"]["duratoin_s"] = 1.0
    assert main(["simulate", "-c", write_config(tmp_path / "k.json", cfg), "-o", str(tmp_path / "o")]) == 1
    # missing input wav -> i/o error
    loc = write_config(tmp_path / "loc.json", localize_config())
    assert main(["localize", "-c", loc, "-i", str(tmp_path / "missing.wav"), "-o", str(tmp_path / "e.jsonl")]) == 2
    with pytest.raises(FileNotFoundError):
        read_wav(tmp_path / "missing.wav")
    # bytes that are not a WAV file -> i/o error
    garbage = tmp_path / "garbage.wav"
    garbage.write_bytes(b"\x00" * 64)
    assert main(["localize", "-c", loc, "-i", str(garbage), "-o", str(tmp_path / "e.jsonl")]) == 2
    # wrong sample rate -> i/o error
    wav = tmp_path / "wrong.wav"
    write_wav(wav, 8000.0, np.zeros((4, 4000)))
    assert main(["localize", "-c", loc, "-i", str(wav), "-o", str(tmp_path / "e.jsonl")]) == 2
    # wrong channel count -> i/o error
    wav2 = tmp_path / "two.wav"
    write_wav(wav2, FS, np.zeros((2, 4000)))
    assert main(["localize", "-c", loc, "-i", str(wav2), "-o", str(tmp_path / "e.jsonl")]) == 2
    # usage error -> 1
    assert main([]) == 1
    # --version -> 0
    assert main(["--version"]) == 0


def test_simulate_wav_source(tmp_path):
    mono = tmp_path / "src.wav"
    rng = np.random.default_rng(0)
    write_wav(mono, FS, rng.normal(size=(1, 4800)) * 0.1)
    cfg = simulate_config()
    cfg["simulate"]["sources"][0]["signal"] = {"wav": "src.wav"}
    out = tmp_path / "o"
    assert main(["simulate", "-c", write_config(tmp_path / "c.json", cfg), "-o", str(out)]) == 0
    fs, signals = read_wav(out / "scene.wav")
    assert signals.shape[0] == 4

    # rate mismatch is a config error
    write_wav(mono, 8000.0, rng.normal(size=(1, 2400)) * 0.1)
    assert main(["simulate", "-c", write_config(tmp_path / "c.json", cfg), "-o", str(out)]) == 1
    # stereo sources are rejected
    write_wav(mono, FS, rng.normal(size=(2, 4800)) * 0.1)
    assert main(["simulate", "-c", write_config(tmp_path / "c.json", cfg), "-o", str(out)]) == 1


def riff(*chunks):
    """A RIFF/WAVE file of (id, body) chunks, odd bodies padded by one byte."""
    body = b"WAVE"
    for cid, data in chunks:
        body += cid + struct.pack("<I", len(data)) + data + b"\0" * (len(data) % 2)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def fmt_chunk(tag, channels, bits, rate=16000):
    align = channels * bits // 8
    return b"fmt ", struct.pack("<HHIIHH", tag, channels, rate, rate * align, align, bits)


@pytest.mark.parametrize("channels", [1, 3])
def test_wav_round_trip(tmp_path, channels):
    rng = np.random.default_rng(channels)
    sig = rng.normal(size=(channels, 1001)) * 0.3
    write_wav(tmp_path / "f.wav", FS, sig)
    fs, x = read_wav(tmp_path / "f.wav")
    assert fs == FS
    np.testing.assert_array_equal(x, sig.astype(np.float32))


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int16])
@pytest.mark.parametrize("channels", [1, 4])
def test_read_wav_of_scipy_files(tmp_path, dtype, channels):
    rng = np.random.default_rng(7)
    data = rng.normal(size=(777, channels)) * 0.3
    if dtype is np.int16:
        data = data * 30000
    data = data.astype(dtype)
    wavfile.write(tmp_path / "s.wav", 8000, data[:, 0] if channels == 1 else data)
    fs, x = read_wav(tmp_path / "s.wav")
    assert fs == 8000.0 and x.dtype == np.float64 and x.shape == (channels, 777)
    expect = data.T.astype(float) / (32768.0 if dtype is np.int16 else 1.0)
    np.testing.assert_array_equal(x, expect)


def test_write_wav_is_read_by_scipy(tmp_path):
    sig = np.random.default_rng(8).normal(size=(2, 500)) * 0.3
    write_wav(tmp_path / "f.wav", FS, sig)
    fs, data = wavfile.read(tmp_path / "f.wav")
    assert fs == 16000 and data.dtype == np.float32
    np.testing.assert_array_equal(data, sig.T.astype(np.float32))


def test_read_wav_extensible_and_extra_chunks(tmp_path):
    samples = np.array([[0, 1], [-32768, 32767], [5, -5]], dtype="<i2")
    guid = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
    _, fmt = fmt_chunk(0xFFFE, 2, 16)
    ext = fmt + struct.pack("<HHI", 22, 16, 0x3) + struct.pack("<H", 1) + guid
    path = tmp_path / "ext.wav"
    # an odd-sized chunk (padded to even) between fmt and data is skipped
    path.write_bytes(riff((b"fmt ", ext), (b"LIST", b"odd"), (b"data", samples.tobytes())))
    fs, x = read_wav(path)
    assert fs == 16000.0
    np.testing.assert_array_equal(x, samples.T / 32768.0)
    floats = np.array([0.5, -0.25, 1.5], dtype="<f4")
    _, fmt = fmt_chunk(0xFFFE, 1, 32)
    ext = fmt + struct.pack("<HHI", 22, 32, 0x4) + struct.pack("<H", 3) + guid
    path.write_bytes(riff((b"fmt ", ext), (b"fact", b"\x03\0\0\0"), (b"data", floats.tobytes())))
    np.testing.assert_array_equal(read_wav(path)[1], floats[None, :].astype(float))


# a 16-bit, 4-channel header that fits the CLI configs, whose data chunk
# claims 3,000 sample frames more than the file holds
_TRUNCATED_SCENE = riff(fmt_chunk(1, 4, 16), (b"data", bytes(8 * 6000)))[:-8 * 3000]

MALFORMED_WAVS = [
    pytest.param(b"this is not a wave file", "not a RIFF/WAVE", id="garbage"),
    pytest.param(b"RIFX" + riff((b"data", b""))[4:], "not a RIFF/WAVE", id="rifx"),
    pytest.param(riff(fmt_chunk(1, 2, 24), (b"data", bytes(12))), "unsupported WAV encoding", id="pcm24"),
    pytest.param(riff(fmt_chunk(1, 1, 8), (b"data", bytes(4))), "unsupported WAV encoding", id="pcm8"),
    pytest.param(riff(fmt_chunk(1, 1, 32), (b"data", bytes(8))), "unsupported WAV encoding", id="pcm32"),
    pytest.param(riff((b"data", bytes(8))), "no fmt chunk", id="missing_fmt"),
    pytest.param(riff(fmt_chunk(1, 1, 16)), "no data chunk", id="missing_data"),
    pytest.param(riff(fmt_chunk(1, 1, 16), (b"data", bytes(8)))[:-4], "past the end", id="truncated"),
    pytest.param(_TRUNCATED_SCENE, "past the end", id="truncated_scene"),
]


@pytest.mark.parametrize("raw, message", MALFORMED_WAVS)
def test_read_wav_rejects(tmp_path, raw, message):
    path = tmp_path / "bad.wav"
    path.write_bytes(raw)
    with pytest.raises(OSError, match=message):
        read_wav(path)


@contextlib.contextmanager
def no_unclosed_file(path):
    """Fail if a file object open on path is left for the garbage collector to close."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    leaks = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
    assert not [m for m in leaks if str(path) in m], leaks


@pytest.mark.parametrize("command", ["localize", "track"])
@pytest.mark.parametrize("raw, message", MALFORMED_WAVS)
def test_a_malformed_wav_fails_localize_and_track_as_read_wav_does(tmp_path, capsys, command, raw, message):
    path = tmp_path / "bad.wav"
    path.write_bytes(raw)
    with pytest.raises(OSError, match=message) as refused:
        read_wav(path)
    cfg = {"localize": localize_config, "track": track_config}[command]()
    out = tmp_path / "o.jsonl"
    with no_unclosed_file(path):
        assert main([command, "-c", write_config(tmp_path / "c.json", cfg), "-i", str(path), "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"i/o error: {refused.value}\n"
    assert not out.exists()


_SAMPLE_TYPES = {"<f4": 3, "<f8": 3, "<i2": 1}  # numpy dtype -> WAV format tag


@st.composite
def wav_files(draw):
    """(file bytes, (T, M) samples as stored) of a valid WAV in any accepted layout."""
    dtype = draw(st.sampled_from(sorted(_SAMPLE_TYPES)))
    channels, n = draw(st.integers(1, 4)), draw(st.integers(0, 80))
    if dtype == "<i2":
        values = st.integers(-32768, 32767)
    else:
        values = st.floats(-2.0, 2.0, width=32 if dtype == "<f4" else 64)
    samples = np.array(draw(st.lists(values, min_size=n * channels, max_size=n * channels)),
                       dtype=dtype).reshape(n, channels)
    tag, bits = _SAMPLE_TYPES[dtype], 8 * np.dtype(dtype).itemsize
    if draw(st.booleans()):  # WAVE_FORMAT_EXTENSIBLE, the format tag in its SubFormat GUID
        guid = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
        fmt = fmt_chunk(0xFFFE, channels, bits)[1] + struct.pack("<HHIH", 22, bits, 0, tag) + guid
    else:
        fmt = fmt_chunk(tag, channels, bits)[1]
    extra = draw(st.lists(st.sampled_from([(b"fact", b"\x03\0\0\0"), (b"LIST", b"odd"), (b"LIST", b"")]),
                          max_size=2))
    data = samples.tobytes() + bytes(draw(st.integers(0, 1)))  # a stray byte: no whole sample frame
    tail = [(b"LIST", b"after")] if draw(st.booleans()) else []
    return riff((b"fmt ", fmt), *extra, (b"data", data), *tail), samples


@settings(max_examples=80, deadline=None)
@given(wav_files(), st.sampled_from([2, 4, 8]), st.data())
def test_wav_reader_frames_equal_frame_stack_of_read_wav(wav, frame_len, data):
    raw, samples = wav
    cfg = FrameConfig(frame_len, data.draw(st.integers(1, frame_len)), data.draw(st.sampled_from(["rectangular", "hann"])))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.wav"
        path.write_bytes(raw)
        signals = read_wav(path)[1]
        assert np.array_equal(signals, samples.T / (32768.0 if samples.dtype == np.int16 else 1.0))
        with WavReader(path) as reader:
            assert (reader.n_channels, reader.n_samples) == signals.shape
            blocks = list(reader.frames(cfg))
    assert len(blocks) == n_frames(signals.shape[1], cfg)
    for i, block in enumerate(blocks):
        want = frame_stack(signals, cfg, i)
        assert block.dtype == want.dtype and block.flags.c_contiguous
        assert np.array_equal(block, want) and block.tobytes() == want.tobytes()  # bit for bit


@pytest.mark.parametrize("window", ["rectangular", "hann"])
@pytest.mark.parametrize("dtype", [np.int16, np.float32, np.float64])
def test_wav_reader_frames_are_one_multiply_of_the_raw_samples(tmp_path, dtype, window):
    """Frames of 1,024 at hop 384 from a 6-channel file: one multiply of
    the raw samples by the window (scaled by 1/32768 for PCM) gives
    frame_stack of read_wav's array bit for bit, the extreme PCM values
    and float samples over 40 orders of magnitude included."""
    rng = np.random.default_rng(11)
    if dtype is np.int16:
        data = rng.integers(-32768, 32768, size=(5000, 6)).astype(dtype)
        data[:2] = [[-32768] * 6, [32767] * 6]
    else:
        data = (rng.normal(size=(5000, 6)) * 10.0 ** rng.uniform(-20, 20, size=(5000, 6))).astype(dtype)
    wavfile.write(tmp_path / "s.wav", 16000, data)
    cfg = FrameConfig(1024, 384, window)
    signals = read_wav(tmp_path / "s.wav")[1]
    with WavReader(tmp_path / "s.wav") as reader:
        blocks = list(reader.frames(cfg))
    assert len(blocks) == n_frames(5000, cfg) == 11
    for i, block in enumerate(blocks):
        want = frame_stack(signals, cfg, i)
        assert block.dtype == want.dtype and block.flags.c_contiguous
        assert block.tobytes() == want.tobytes()


def test_cli_import_loads_no_scipy():
    # start-up time is mostly imports; scipy alone roughly doubles it
    code = "import sys, xsrp.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=subprocess_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def project_scripts(pyproject):
    """The ``[project.scripts]`` table of a pyproject.toml file."""
    text = pyproject.read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read the table's ``name = "target"`` lines
        scripts, section = {}, None
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("["):
                section = line
            elif section == "[project.scripts]" and "=" in line:
                name, target = line.split("=", 1)
                scripts[name.strip().strip('"')] = target.strip().strip('"')
        return scripts
    return tomllib.loads(text)["project"]["scripts"]


def subprocess_env():
    """Environment in which a subprocess imports the package under test,
    whatever PYTHONPATH the caller has."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(xsrp.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_console_script(tmp_path):
    # the installed script must call the very function tested here
    target = project_scripts(Path(__file__).resolve().parents[1] / "pyproject.toml")["xsrp"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main
    env = subprocess_env()
    commands = [[sys.executable, "-m", "xsrp"]]
    exe = shutil.which("xsrp")
    if exe is not None:
        commands.append([exe])
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    for cmd in commands:
        res = subprocess.run(cmd + ["--version"], capture_output=True, text=True, env=env)
        assert res.returncode == 0
        assert res.stdout.strip() == f"xsrp {__version__}"
        # a config error surfaces as exit code 1 through the real process
        res = subprocess.run(
            cmd + ["simulate", "-c", str(bad), "-o", str(tmp_path / "o")],
            capture_output=True, text=True, env=env,
        )
        assert res.returncode == 1
        assert "config error" in res.stderr


def _frame_without_frame_len():
    cfg = localize_config()
    cfg["frame"] = {"hop": 512}
    return "localize", cfg


def _source_without_position():
    cfg = simulate_config()
    cfg["simulate"]["sources"] = [{"signal": "white"}]
    return "simulate", cfg


def _null_max_iters():
    cfg = localize_config()
    cfg["pipeline"]["search"] = {"max_iters": None}
    return "localize", cfg


def _null_frame_len():
    cfg = localize_config()
    cfg["frame"] = {"frame_len": None}
    return "localize", cfg


def _number_tracker_band():
    return "track", {
        "array": {"positions": MICS, "sample_rate": FS},
        "room": ROOM,
        "frame": {"frame_len": 1024, "hop": 512},
        "tracker": {"band": 5},
    }


def _null_duration():
    cfg = simulate_config()
    cfg["simulate"]["duration_s"] = None
    return "simulate", cfg


def _sources_not_a_list():
    cfg = simulate_config()
    cfg["simulate"]["sources"] = 5
    return "simulate", cfg


def _null_source_seed():
    cfg = simulate_config()
    cfg["simulate"]["sources"][0]["seed"] = None
    return "simulate", cfg


def _source_wav(path):
    def make():
        cfg = simulate_config()
        cfg["simulate"]["sources"][0]["signal"] = {"wav": path}
        return "simulate", cfg
    return make


def _non_integer_rate(make_config, command):
    def make():
        cfg = make_config()
        cfg["array"]["sample_rate"] = 16000.5
        return command, cfg
    return make


def _tracker_with(key, value):
    def make():
        cfg = track_config()
        cfg["tracker"][key] = value
        return "track", cfg
    return make


def _localize_with(path, value, **pipeline):
    """A localize config with its pipeline sections replaced, then cfg[path] = value."""
    def make():
        cfg = localize_config()
        cfg["pipeline"].update(pipeline)
        *outer, key = path
        section = cfg
        for name in outer:
            section = section[name]
        section[key] = value
        return "localize", cfg
    return make


def _track_room(room):
    def make():
        cfg = track_config()
        cfg["room"] = room
        return "track", cfg
    return make


def _volumes(counts):
    return _localize_with(("pipeline", "grid", "counts"), counts,
                          grid={"kind": "volumes"}, map={"domain": "volumetric"})


@pytest.mark.parametrize(
    "make",
    [_frame_without_frame_len, _source_without_position, _null_max_iters, _null_frame_len,
     _number_tracker_band, _null_duration, _sources_not_a_list, _null_source_seed,
     _non_integer_rate(simulate_config, "simulate"),
     _non_integer_rate(localize_config, "localize"),
     _volumes([2.5, 2, 2]), _volumes([2, 2, True]), _volumes([0, 2, 2]),
     _localize_with(("pipeline", "max_loop_iters"), 3.9),
     _localize_with(("frame", "frame_len"), 2048.5), _localize_with(("frame", "hop"), 1024.5),
     _localize_with(("array", "sample_rate"), True),
     _volumes([10000, 10000, 10000]),
     _localize_with(("pipeline", "grid", "resolution"), 1e-4, grid={"kind": "cartesian3d"}),
     _localize_with(("array", "positions"), [[True, 0.0, 1.0], [0.0, 1.0, 1.0]]),
     _localize_with(("pipeline", "grid", "azimuth_res"), 1e-9, grid={"kind": "doa_azimuth"}),
     _tracker_with("q", 0), _tracker_with("kappa", 0.0), _tracker_with("resample_fraction", -3.0),
     _tracker_with("resample_fraction", 1.5),
     _source_wav(5), _source_wav(None), _source_wav(["a.wav"]),
     _localize_with(("pipeline", "features", "gamma"), "nan"), _tracker_with("beta", float("nan")),
     _localize_with(("pipeline", "multi", "min_source_distance"), "nan", multi={"n_sources": 2}),
     _track_room(["nan", 5, 3])],
    ids=["frame_without_frame_len", "source_without_position", "null_max_iters",
         "null_frame_len", "number_tracker_band", "null_duration", "sources_not_a_list",
         "null_source_seed", "non_integer_rate_simulate", "non_integer_rate_localize",
         "fractional_volume_count", "boolean_volume_count", "zero_volume_count",
         "fractional_max_loop_iters", "fractional_frame_len", "fractional_hop",
         "boolean_sample_rate", "volume_partition_too_large", "cartesian_grid_too_large",
         "boolean_in_positions", "doa_grid_too_large", "zero_particles", "zero_kappa",
         "negative_resample_fraction", "resample_fraction_above_one",
         "number_source_wav", "null_source_wav", "list_source_wav",
         "nan_gamma", "nan_tracker_beta", "nan_min_source_distance", "nan_track_room"],
)
def test_malformed_config_is_a_config_error(tmp_path, make):
    command, cfg = make()
    argv = [command, "-c", write_config(tmp_path / "c.json", cfg), "-o", str(tmp_path / "o")]
    if command in ("localize", "track"):
        argv += ["-i", str(tmp_path / "scene.wav")]  # the config fails before the input is read
    res = subprocess.run(
        [sys.executable, "-m", "xsrp", *argv], capture_output=True, text=True, env=subprocess_env()
    )
    assert res.returncode == 1
    assert "config error:" in res.stderr
    assert "Traceback" not in res.stderr
