import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conewave
from conewave.cli import main, read_tubes, tube_from_dict, tube_to_dict, write_tubes
from conewave.geometry import Tube, unit_dir
from conewave.wave_io import load_wave, save_wave
from conewave.waves import mass, random_colored_wave
from conewave.lattice import lattice_for

SMALL = ["--box-L", "20", "--window", "4"]


def test_tube_json_roundtrip(tmp_path):
    tubes = [Tube(0.5, (1.0, 2.0), tuple(unit_dir(0.1)), half_length=4.0, lam=3.0),
             Tube(0.0, (3.0, 4.0), (1.0, 0.0), half_length=None, radius=2.0)]
    path = tmp_path / "tubes.json"
    write_tubes(tubes, path)
    back = read_tubes(path)
    assert back[0].lam == 3.0
    assert back[1].half_length is None
    assert tube_to_dict(back[0]) == tube_to_dict(tubes[0])


def test_wave_file_roundtrip(tmp_path, small_config, lat0):
    w = random_colored_wave(lat0, "blue", 0, 1 / 20, seed=3)
    p = tmp_path / "w.cwav"
    save_wave(w, p)
    back = load_wave(p)
    assert back.color == "blue" and back.k == 0
    assert back.lattice.size == lat0.size and back.lattice.box == lat0.box
    assert mass(back) == pytest.approx(mass(w), rel=1e-6)  # complex64 storage
    sidecar = json.loads((tmp_path / "w.cwav.json").read_text())
    assert sidecar["points_per_axis"] == lat0.size
    # deterministic bytes
    save_wave(w, tmp_path / "w2.cwav")
    assert (tmp_path / "w.cwav").read_bytes() == (tmp_path / "w2.cwav").read_bytes()


def test_cli_gen_wave_and_reload(tmp_path):
    rc = main(SMALL + ["--out-dir", str(tmp_path), "--seed", "5",
                       "gen-wave", "--kind", "random", "--color", "red",
                       "--k", "0", "--out", "r.cwav"])
    assert rc == 0
    w = load_wave(tmp_path / "r.cwav")
    assert w.color == "red"
    assert mass(w) == pytest.approx(1.0, rel=1e-6)


def test_cli_cover_runs(tmp_path):
    rc = main(SMALL + ["--out-dir", str(tmp_path), "--seed", "1",
                       "cover", "--delta", "0.5", "--tubes", "30", "--k", "1",
                       "--samples", "5000"])
    assert rc == 0
    assert (tmp_path / "cover_tubes.json").exists()


def test_cli_blue_tubes(tmp_path):
    rc = main(SMALL + ["--out-dir", str(tmp_path),
                       "blue-tubes", "--delta", "0.2", "--k", "0"])
    assert rc == 0
    assert (tmp_path / "bad_cubes.csv").exists()
    assert (tmp_path / "blue_tubes.json").exists()


def test_cli_extract(tmp_path):
    rc = main(SMALL + ["--out-dir", str(tmp_path), "--seed", "7",
                       "extract", "--delta", "0.3"])
    assert rc == 0
    assert (tmp_path / "extract_trace.csv").exists()
    assert (tmp_path / "remainder.cwav").exists()


def test_cli_sharpness(tmp_path):
    rc = main(SMALL + ["--out-dir", str(tmp_path),
                       "sharpness", "--kmax", "1", "--seeds", "3"])
    assert rc == 0
    text = (tmp_path / "sharpness.csv").read_text()
    assert text.startswith("k,seed,rho")


def test_cli_config_file(tmp_path):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("box_l = 20   # torus\nwindow = 4\nseed = 9\n")
    rc = main(["--config", str(cfgf), "--out-dir", str(tmp_path),
               "gen-wave", "--kind", "bump", "--out", "b.cwav"])
    assert rc == 0
    w = load_wave(tmp_path / "b.cwav")
    assert w.lattice.box == 20.0


def test_cli_profile_smoke(tmp_path):
    # exercises the pipeline end to end; the frozen ratio constants are
    # calibrated for the default torus, so on this small box only the exit
    # path and artifacts are asserted
    rc = main(SMALL + ["--out-dir", str(tmp_path), "--seed", "3",
                       "profile", "--delta", "0.5", "--suite-size", "1"])
    assert rc in (0, 1)
    assert (tmp_path / "universal_tubes.json").exists()
    assert (tmp_path / "profile_report.csv").exists()
    assert (tmp_path / "profile_t0.ppm").read_bytes().startswith(b"P6")


def test_cli_fungibility_smoke(tmp_path):
    rc = main(SMALL + ["--out-dir", str(tmp_path), "--seed", "3",
                       "fungibility", "--delta", "0.5", "--suite-size", "1"])
    assert rc in (0, 1)
    text = (tmp_path / "fungibility.csv").read_text()
    assert text.startswith("k,seed,kind,t_lo,t_hi,ratio")


def test_cli_usage_error_exit_2():
    # the child imports the same conewave as this process
    src = str(Path(conewave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "conewave.cli", "no-such-command"],
                          capture_output=True, env=env)
    assert proc.returncode == 2
    proc = subprocess.run([sys.executable, "-m", "conewave.cli"], capture_output=True,
                          env=env)
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [
    ["--n", "3", "gen-wave"],
    ["--dt", "0.3", "gen-wave"],
    ["--box-L", "40.5", "gen-wave"],
    ["cover", "--delta", "0"],
    ["gen-wave", "--k", "-1"],
    ["extract", "--delta", "1.5"],
    ["gen-wave", "--margin", "-0.1"],
])
def test_cli_bad_values_are_usage_errors(argv, tmp_path, capsys):
    # rejected before any work: one error line, exit status 2, no output files
    with pytest.raises(SystemExit) as exc:
        main(["--out-dir", str(tmp_path)] + argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("conewave: error: ")
    assert "Traceback" not in "\n".join(err)
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# wave files are checked where they are read

def _saved(tmp_path, lat0):
    w = random_colored_wave(lat0, "red", 0, 1 / 20, seed=4)
    p = tmp_path / "w.cwav"
    save_wave(w, p)
    return p


def test_load_wave_rejects_bad_length(tmp_path, lat0):
    p = _saved(tmp_path, lat0)
    raw = p.read_bytes()
    for bad in (raw[:-8], raw + bytes(8), raw[:20]):
        p.write_bytes(bad)
        with pytest.raises(ValueError):
            load_wave(p)


def test_load_wave_rejects_unknown_color(tmp_path, lat0):
    p = _saved(tmp_path, lat0)
    raw = bytearray(p.read_bytes())
    raw[5 + 16] = 7                     # the uint8 color code after I, I, d
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="color"):
        load_wave(p)


def test_load_wave_rejects_support_outside_color(tmp_path, lat0):
    # a red wave is stored, then its file is relabeled blue
    p = _saved(tmp_path, lat0)
    raw = bytearray(p.read_bytes())
    raw[5 + 16] = 2
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="blue wave"):
        load_wave(p)


def test_cli_bad_input_files_are_usage_errors(tmp_path, lat0, capsys):
    p = _saved(tmp_path, lat0)
    p.write_bytes(p.read_bytes()[:-1])
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({"tubes": []}))
    out = tmp_path / "out"
    for argv in (["extract", "--delta", "0.3", "--wave", str(p)],
                 ["blue-tubes", "--delta", "0.2", "--wave", str(tmp_path / "none.cwav")],
                 ["cover", "--delta", "0.3", "--family", str(fam)]):
        with pytest.raises(SystemExit) as exc:
            main(SMALL + ["--out-dir", str(out)] + argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("conewave: error: cannot read input")
        assert not out.exists()


def test_cli_cover_reads_family(tmp_path):
    tubes = [Tube(0.0, (5.0, 5.0), (1.0, 0.0), half_length=2.0),
             Tube(0.0, (12.0, 9.0), tuple(unit_dir(0.2)), half_length=2.0)]
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({"tubes": [tube_to_dict(t) for t in tubes],
                               "weights": [0.5, 0.5]}))
    rc = main(SMALL + ["--out-dir", str(tmp_path), "cover", "--delta", "0.3",
                       "--k", "1", "--samples", "2000", "--family", str(fam)])
    assert rc == 0
    assert len(read_tubes(tmp_path / "cover_tubes.json")) > 0
