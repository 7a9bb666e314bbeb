"""End-to-end tests of the command line interface.

These call main(argv) in-process for speed; one test runs the CLI as a
real process through ``python -m xsrp``, checks that the ``[project.scripts]``
entry in pyproject.toml names ``xsrp.cli.main``, and also runs the installed
``xsrp`` script when there is one.
"""

import csv
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xsrp
from xsrp import __version__
from xsrp.cli import main
from xsrp.geometry import MicArray, MicPair, tdoa
from xsrp.io_utils import read_jsonl, read_wav, write_wav
from xsrp.search import complexity_estimate
from xsrp.srp_core import counter

FS = 16000.0
ROOM = [4.0, 3.0, 2.0]
MICS = [
    [0.5, 0.5, 0.5],
    [3.5, 0.5, 0.5],
    [0.5, 2.5, 1.5],
    [3.5, 2.5, 1.5],
]
SRC = [2.0, 1.5, 1.0]


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


def test_track_jsonl(tmp_path):
    cfg = write_config(tmp_path / "scene.json", simulate_config(duration=0.5))
    scene = tmp_path / "scene"
    assert main(["simulate", "-c", cfg, "-o", str(scene)]) == 0
    tcfg = write_config(
        tmp_path / "track.json",
        {
            "array": {"positions": MICS, "sample_rate": FS},
            "room": ROOM,
            "frame": {"frame_len": 1024, "hop": 512},
            "tracker": {"q": 150, "seed": 2, "band": [300.0, 3000.0]},
        },
    )
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


def test_bench_csv(tmp_path):
    cfg = write_config(
        tmp_path / "bench.json",
        {
            "domains": ["time", "frequency"],
            "n_mics": [4],
            "frame_lens": [512],
            "grid_sizes": [200, 400],
            "room": [5.0, 4.0, 3.0],
            "sample_rate": FS,
            "seed": 1,
        },
    )
    out = tmp_path / "bench.csv"
    assert main(["bench", "-c", cfg, "-o", str(out)]) == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4
    pairs = 4 * 3 // 2
    for row in rows:
        g = int(row["grid_size"])
        assert int(row["points_scored"]) == g
        assert int(row["n_pairs"]) == pairs
        if row["domain"] == "time":
            assert int(row["kernel_ops"]) == g * pairs
        else:
            assert int(row["kernel_ops"]) == g * pairs * int(row["n_bins"])
        want = complexity_estimate(4, 1024, g, row["domain"])
        assert float(row["predicted_ops"]) == pytest.approx(want, rel=1e-6)
        assert float(row["wall_seconds"]) > 0
    # counters scale exactly linearly in the grid size
    for domain in ("time", "frequency"):
        ops = [int(r["kernel_ops"]) for r in rows if r["domain"] == domain]
        assert ops[1] == 2 * ops[0]


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


def _number_bench_domains():
    return "bench", {"domains": 5}


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


@pytest.mark.parametrize(
    "make",
    [_frame_without_frame_len, _source_without_position, _null_max_iters, _null_frame_len,
     _number_tracker_band, _number_bench_domains, _null_duration, _sources_not_a_list,
     _null_source_seed],
    ids=["frame_without_frame_len", "source_without_position", "null_max_iters",
         "null_frame_len", "number_tracker_band", "number_bench_domains", "null_duration",
         "sources_not_a_list", "null_source_seed"],
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
