import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import conewave
from conewave.cli import (_check_usage, _random_family, build_parser, main,
                          tube_from_dict, tube_to_dict, write_tubes)
from conewave.config import RunConfig
from conewave.constants import S_MIN
from conewave.geometry import Tube, unit_dir
from conewave.wave_io import load_wave, save_wave
from conewave.waves import random_colored_wave
from conewave.lattice import FrequencyLattice, lattice_for

SMALL = ["--box-L", "20", "--window", "4"]


def test_tube_json_roundtrip(tmp_path):
    tubes = [Tube(0.5, (1.0, 2.0), tuple(unit_dir(0.1)), half_length=4.0, lam=3.0),
             Tube(0.0, (3.0, 4.0), (1.0, 0.0), half_length=None, radius=2.0)]
    path = tmp_path / "tubes.json"
    write_tubes(tubes, path)
    back = [tube_from_dict(d) for d in json.loads(path.read_text())]
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
    assert back.mass() == pytest.approx(w.mass(), rel=1e-6)  # complex64 storage
    sidecar = json.loads((tmp_path / "w.cwav.json").read_text())
    assert sidecar["points_per_axis"] == lat0.size
    # deterministic bytes
    save_wave(w, tmp_path / "w2.cwav")
    assert (tmp_path / "w.cwav").read_bytes() == (tmp_path / "w2.cwav").read_bytes()


@settings(max_examples=30, deadline=None)
@given(color=st.sampled_from(["red", "blue"]), k=st.integers(0, 2),
       margin=st.floats(0.0, 0.4), seed=st.integers(0, 10_000))
def test_wave_file_roundtrip_keeps_every_coefficient(small_config, color, k, margin, seed):
    w = random_colored_wave(lattice_for(small_config, k), color, k, margin, seed=seed)
    with tempfile.TemporaryDirectory() as d:
        save_wave(w, Path(d) / "w.cwav")
        back = load_wave(Path(d) / "w.cwav")
    assert (back.color, back.k, back.lattice) == (w.color, w.k, w.lattice)
    for a, b in ((back.modes_plus, w.modes_plus), (back.modes_minus, w.modes_minus)):
        assert np.array_equal(a, b)
    for a, b in ((back.vals_plus, w.vals_plus), (back.vals_minus, w.vals_minus)):
        # complex64 keeps each part to half a unit in the 24th bit
        for part in (np.real, np.imag):
            assert np.all(np.abs(part(a) - part(b)) <= 2.0 ** -24 * np.abs(part(b)))


def test_cli_gen_wave_and_reload(tmp_path):
    rc = main(SMALL + ["--out-dir", str(tmp_path), "--seed", "5",
                       "gen-wave", "--kind", "random", "--color", "red",
                       "--k", "0", "--out", "r.cwav"])
    assert rc == 0
    w = load_wave(tmp_path / "r.cwav")
    assert w.color == "red"
    assert w.mass() == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("k", [0, 2])
def test_cli_gen_wave_train_is_the_sharpness_train(tmp_path, monkeypatch, k):
    # gen-wave --kind train writes, like every other kind, a unit-mass wave,
    # and it is the train that sharpness_experiment pairs with the scale-k
    # packet, coefficient for coefficient
    import conewave.cli as cli
    import conewave.harness as harness
    written, paired = [], []
    monkeypatch.setattr(cli, "save_wave", lambda w, path: written.append(w))
    real = harness.product_densities
    monkeypatch.setattr(harness, "product_densities",
                        lambda phi, *a: paired.append(phi) or real(phi, *a))
    assert main(SMALL + ["--out-dir", str(tmp_path), "--seed", "43", "gen-wave",
                         "--kind", "train", "--k", str(k)]) == 0
    harness.sharpness_experiment(RunConfig(box=20.0, half_window=4.0), ks=(k,), seeds=(43,))
    (w,), (tr,) = written, paired
    assert abs(w.mass() - 1.0) <= 1e-12
    assert np.array_equal(w.modes_plus, tr.modes_plus)
    assert np.array_equal(w.vals_plus, tr.vals_plus)


def test_cli_cover_runs(tmp_path, capsys):
    rc = main(SMALL + ["--out-dir", str(tmp_path), "--seed", "1",
                       "cover", "--delta", "0.5", "--tubes", "30", "--k", "1",
                       "--samples", "5000"])
    assert rc == 0
    assert (tmp_path / "cover_tubes.json").exists()
    outside = capsys.readouterr().out.split("outside=")[1].split()[0]
    n, total = map(int, outside.split("/"))
    assert total == 5000 and 0 < n <= total


def test_cli_random_family_is_separated():
    # the default family of `cover`; seeds 3 and 4 gave 0.34 and 0.44 when
    # the separation was measured without the torus wrap
    for seed in range(6):
        fam = _random_family(RunConfig(), argparse.Namespace(seed=seed, k=1, tubes=400))
        assert len(fam) == 400
        assert fam.check_separation() >= S_MIN


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


def test_cli_extract_stops_unfinished_at_max_iter(tmp_path, capsys):
    # the standard train needs 6 steps at delta = 0.2: one step leaves the
    # extraction unfinished, which is a violation
    rc = main(["--out-dir", str(tmp_path), "extract", "--delta", "0.2", "--max-iter", "1"])
    assert rc == 1
    assert "completed=False" in capsys.readouterr().out.split()
    rows = (tmp_path / "extract_trace.csv").read_text().strip().splitlines()
    assert rows[0] == "iteration,value,mu,mass_before,mass_after" and len(rows) == 2
    assert len(json.loads((tmp_path / "extract_tubes.json").read_text())) == 1


def test_cli_sharpness(tmp_path):
    rc = main(SMALL + ["--out-dir", str(tmp_path),
                       "sharpness", "--kmax", "1", "--seeds", "3"])
    assert rc == 0
    text = (tmp_path / "sharpness.csv").read_text()
    assert text.startswith("k,seed,rho")


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


def _child_env() -> dict:
    """The environment of a child process that imports the same conewave as
    this process."""
    src = str(Path(conewave.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_cli_usage_error_exit_2():
    env = _child_env()
    proc = subprocess.run([sys.executable, "-m", "conewave.cli", "no-such-command"],
                          capture_output=True, env=env)
    assert proc.returncode == 2
    proc = subprocess.run([sys.executable, "-m", "conewave.cli"], capture_output=True,
                          env=env)
    assert proc.returncode == 2


def test_cli_import_leaves_scipy_spatial_out():
    # scipy.spatial costs every command about 0.1 s of start-up: only covers
    # need it, and tube_cover imports it inside _incidence
    proc = subprocess.run([sys.executable, "-c", "import sys, conewave.cli; "
                           "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv,unknown", [
    (["--n", "2", "gen-wave"], "--n 2"),
    (["--seed", "3", "--bogus", "gen-wave", "--k", "1"], "--bogus"),
    (["--dims=3", "cover", "--delta", "0.3"], "--dims=3"),
    (["--config", "run.cfg", "gen-wave"], "--config run.cfg"),
])
def test_cli_unknown_global_flag_is_named(capsys, argv, unknown):
    # argparse alone reads the value of an unknown flag as the command and
    # names that value; the error names the flag
    with pytest.raises(SystemExit) as exc:
        main(SMALL + argv)
    assert exc.value.code == 2
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.endswith(f"unrecognized arguments before the command: {unknown}")


def test_cli_global_defaults():
    # with no global flags the run has the default config, seed 42 and the
    # current directory
    ap = build_parser()
    args = ap.parse_args(["sharpness"])
    assert _check_usage(ap, args) == RunConfig()
    assert args.seed == 42 and args.out_dir == "."


def test_cli_command_name_as_global_value(tmp_path, monkeypatch):
    # a global flag's value may be a command name: the command is the next one
    monkeypatch.chdir(tmp_path)
    assert main(SMALL + ["--out-dir", "cover", "--seed", "1", "cover", "--delta", "0.5",
                         "--tubes", "5", "--k", "0", "--samples", "100"]) == 0
    assert (tmp_path / "cover" / "cover_tubes.json").exists()


@pytest.mark.parametrize("argv", [
    ["--n", "3", "gen-wave"],
    ["--dt", "0.3", "gen-wave"],
    ["--box-L", "40.5", "gen-wave"],
    ["cover", "--delta", "0"],
    ["gen-wave", "--k", "-1"],
    ["extract", "--delta", "1.5"],
    ["gen-wave", "--margin", "-0.1"],
    ["cover", "--delta", "0.3", "--samples", "-1"],
    ["cover", "--delta", "0.3", "--tubes", "-3"],
    ["cover", "--delta", "0.3", "--tubes", "0"],
    ["--seed", "-1", "gen-wave"],
    ["sharpness", "--kmax", "0", "--seeds", "-1"],
    ["sharpness", "--kmax", "0", "--seeds", "3", "-2"],
    SMALL + ["fungibility", "--delta", "0.2", "--suite-size", "-1"],
    SMALL + ["profile", "--delta", "0.2", "--suite-size", "-1"],
    ["extract", "--delta", "0.2", "--max-iter", "0"],
    ["--dt", "0", "gen-wave"],
    ["--dt", "-0.25", "--window", "4", "gen-wave"],
    ["--window", "0", "gen-wave"],
    ["--box-L", "0", "gen-wave"],
    ["--grid-N", "0", "gen-wave"],
    SMALL + ["gen-wave", "--margin", "5"],
    SMALL + ["gen-wave", "--kind", "bump", "--margin", "5"],
    SMALL + ["gen-wave", "--kind", "bump", "--margin", "0.01"],
    SMALL + ["gen-wave", "--kind", "packet", "--theta", "1.0"],
])
def test_cli_bad_values_are_usage_errors(argv, tmp_path, capsys):
    # rejected before any work: one error line, exit status 2, no output files
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--out-dir", str(out)] + argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("conewave: error: ")
    assert "Traceback" not in "\n".join(err)
    assert not out.exists()


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


def test_load_wave_rejects_other_dimension(tmp_path, lat0, capsys):
    p = _saved(tmp_path, lat0)
    raw = bytearray(p.read_bytes())
    raw[5:9] = (3).to_bytes(4, "little")    # the uint32 dimension after the magic
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="dimension 3"):
        load_wave(p)
    with pytest.raises(SystemExit) as exc:
        main(SMALL + ["--out-dir", str(tmp_path / "out"), "extract", "--delta", "0.3",
                      "--wave", str(p)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("conewave: error: cannot read input") and "dimension 3" in err[-1]


def test_load_wave_rejects_support_outside_color(tmp_path, lat0):
    # a red wave is stored, then its file is relabeled blue
    p = _saved(tmp_path, lat0)
    raw = bytearray(p.read_bytes())
    raw[5 + 16] = 2
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="blue wave"):
        load_wave(p)


def test_load_wave_rejects_color_code_zero(tmp_path, lat0, capsys):
    # the format's colorless code: a wave is red or blue
    p = _saved(tmp_path, lat0)
    raw = bytearray(p.read_bytes())
    raw[5 + 16] = 0
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="color code 0"):
        load_wave(p)
    with pytest.raises(SystemExit) as exc:
        main(SMALL + ["--out-dir", str(tmp_path / "out"), "extract", "--delta", "0.3",
                      "--wave", str(p)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("conewave: error: cannot read input") and "color code 0" in err[-1]


@pytest.mark.parametrize("color", ["red", "blue"])
def test_load_wave_rejects_a_coefficient_on_the_other_cone_side(tmp_path, lat0, color):
    # one coefficient in the block the color does not fill, on a mode of the
    # wave's own sector
    w = random_colored_wave(lat0, color, 0, 1 / 20, seed=2)
    p = tmp_path / "w.cwav"
    save_wave(w, p)
    n = lat0.size
    m1, m2 = (int(m) + n // 2 for m in w.modes[0])
    other = 1 if color == "red" else 0
    off = 5 + 21 + 8 * (other * n * n + m1 * n + m2)
    raw = bytearray(p.read_bytes())
    raw[off:off + 8] = np.complex64(0.5).tobytes()
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"a {color} wave with coefficients on the other"):
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


@pytest.mark.parametrize("command, color, needed", [
    ("blue-tubes", "red", "blue"), ("extract", "blue", "red"), ("profile", "blue", "red"),
    ("fungibility", "blue", "red"),
])
def test_cli_wave_of_the_other_color_is_usage_error(command, color, needed, tmp_path, lat0,
                                                    capsys):
    # a blue wave gave extract 0 steps and exit 0, and profile and fungibility
    # a NoDecrementError; a red one gave blue-tubes a ValueError
    p = tmp_path / "w.cwav"
    save_wave(random_colored_wave(lat0, color, 0, 1 / 20, seed=4), p)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(SMALL + ["--out-dir", str(out), command, "--delta", "0.5", "--wave", str(p)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1] == f"conewave: error: {command} needs a {needed} --wave, got a {color} one"
    assert not out.exists()


@pytest.mark.parametrize("command", ["extract", "profile", "fungibility"])
def test_cli_red_wave_above_scale_zero_is_usage_error(command, tmp_path, small_config,
                                                      capsys):
    # the extractor lies on the k = 0 sector, so it pairs to zero with a
    # k = 1 wave: a NoDecrementError traceback and exit status 1
    p = tmp_path / "w.cwav"
    save_wave(random_colored_wave(lattice_for(small_config, 1), "red", 1, 1 / 18, seed=4), p)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(SMALL + ["--out-dir", str(out), command, "--delta", "0.3", "--wave", str(p)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1] == f"conewave: error: {command} needs a k = 0 --wave, got k = 1"
    assert not out.exists()


def test_cli_cover_reads_family(tmp_path, capsys):
    tubes = [Tube(0.0, (5.0, 5.0), (1.0, 0.0), half_length=2.0),
             Tube(0.0, (12.0, 9.0), tuple(unit_dir(0.2)), half_length=2.0)]

    def cover(name, weights):
        fam = tmp_path / f"{name}.json"
        fam.write_text(json.dumps({"tubes": [tube_to_dict(t) for t in tubes],
                                   "weights": weights}))
        out = tmp_path / name
        rc = main(SMALL + ["--out-dir", str(out), "cover", "--delta", "0.3",
                           "--k", "1", "--samples", "2000", "--family", str(fam)])
        assert rc == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        emitted = json.loads((out / "cover_tubes.json").read_text())
        return [tube_from_dict(d) for d in emitted], dict(
            f.split("=") for f in line.split() if "=" in f)

    # weights above delta/2: the greedy cover emits tubes
    exc, _ = cover("heavy", [0.5, 0.5])
    assert len(exc) > 0
    # weights below delta/2 = 0.15: no round runs and no sample is excluded,
    # so the bound is checked at every sample and the residual is the heavier
    # weight, found on that tube's axis
    exc, printed = cover("light", [0.1, 0.13])
    assert exc == []
    outside, checked = map(int, printed["outside"].split("/"))
    assert 0 < outside == checked == 2000
    assert float(printed["residual"]) == 0.13


def _family_file(tmp_path, tube_changes=None, weight=0.5):
    tube = dict(tube_to_dict(Tube(0.0, (5.0, 5.0), (1.0, 0.0), half_length=2.0)),
                **(tube_changes or {}))
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"tubes": [tube], "weights": [weight]}))
    return path


@pytest.mark.parametrize("tube_changes, weight", [
    ({"x0": [float("nan"), 5.0]}, 0.5),
    ({}, float("nan")),
    ({"halflength": -3}, 0.5),
    ({"x0": [5.0, 5.0, 1.0]}, 0.5),
    ({"omega": [1.0, 0.0, 0.0]}, 0.5),
])
def test_cli_malformed_family_is_usage_error(tube_changes, weight, tmp_path, capsys):
    path = _family_file(tmp_path, tube_changes, weight)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--out-dir", str(out), "cover", "--k", "1", "--delta", "0.5",
              "--family", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("conewave: error: cannot read input")
    assert "Traceback" not in "\n".join(err)
    assert not out.exists()


@pytest.mark.parametrize("tubes, message", [
    ([tube_to_dict(Tube(0.0, (5.0, 5.0), (1.0, 0.0), half_length=6.0))], "half length"),
    ([tube_to_dict(Tube(0.0, (5.0, 5.0), (1.0, 0.0), half_length=2.0))] * 2, "separation"),
])
def test_cli_family_outside_the_lemma_is_usage_error(tubes, message, tmp_path, capsys):
    # a half length other than 2^k, or a tube given twice, exits 2 in one line
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"tubes": tubes, "weights": [0.25] * len(tubes)}))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--out-dir", str(out), "cover", "--k", "1", "--delta", "0.5",
              "--family", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("conewave: error: cannot read input") and message in err[-1]
    assert "Traceback" not in "\n".join(err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["extract", "profile", "fungibility"])
def test_cli_search_off_the_pixel_grid_is_usage_error(command, tmp_path, capsys):
    # h = 20/100 = 0.2 puts the half-unit tube offsets between pixels, where
    # the search's bounds and stencils do not hold
    p = tmp_path / "w.cwav"
    save_wave(random_colored_wave(FrequencyLattice(100, 20.0), "red", 0, 1 / 20, seed=4), p)
    with pytest.raises(SystemExit) as exc:
        main(SMALL + ["--out-dir", str(tmp_path / "out"),
                      command, "--delta", "0.5", "--wave", str(p)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("conewave: error: --wave: the tube search needs")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, color, lattice, message", [
    ("extract", "red", (80, 20.0), "disagree on the torus size"),
    ("profile", "red", (80, 20.0), "disagree on the torus size"),
    ("fungibility", "red", (80, 20.0), "disagree on the torus size"),
    ("blue-tubes", "blue", (80, 20.0), "disagree on the torus size"),
    ("blue-tubes", "blue", (170, 40.0), "divisible by the box side"),
])
def test_cli_wave_the_command_cannot_use_is_usage_error(command, color, lattice, message,
                                                         tmp_path, capsys):
    # a box-20 wave at the default box 40, and unit cells of a blue wave off
    # its pixels, gave a ValueError traceback and exit status 1
    p = tmp_path / "w.cwav"
    save_wave(random_colored_wave(FrequencyLattice(*lattice), color, 0, 1 / 20, seed=4), p)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--out-dir", str(out), command, "--delta", "0.5", "--wave", str(p)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith("conewave: error: --wave: ") and message in err[-1]
    assert not out.exists()
