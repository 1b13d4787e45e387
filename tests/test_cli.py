import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from birkhoff_lab import cli, curves, experiments, lax_oleinik, spectral
from birkhoff_lab.calibration import calibrated_curve
from birkhoff_lab.cli import main
from birkhoff_lab.errors import ExactnessLost
from birkhoff_lab.experiments import load_config, resolve_potential_settings
from birkhoff_lab.flow import PhasePoint, trajectory
from birkhoff_lab.grids import GridFunction
from birkhoff_lab.hamiltonians import free_hamiltonian
from birkhoff_lab.lax_oleinik import clear_potential_cache, potential
from birkhoff_lab.spectral import fibred_sum_fqi, fqi_to_csv, sample_fqi


@pytest.fixture
def small_curves(monkeypatch):
    """Half the default curve nodes at twice the default resampling gap, and a
    detected subsequence of 2 iterates."""
    monkeypatch.setattr(experiments, "INITIAL_NODES", 512)
    monkeypatch.setattr(experiments, "SPACING", 4e-3)
    monkeypatch.setattr(experiments, "DETECTOR_WINDOW", 2)


@pytest.fixture
def small_config(tmp_path, small_curves):
    path = tmp_path / "cfg.ini"
    path.write_text(
        "[experiment]\n"
        "n_max = 2\n"
        "m_max = 2\n"
        "quad_nodes = 32\n"
        "resolution = 128\n",
        encoding="utf-8",
    )
    return path


def run(args):
    return main([str(a) for a in args])


def test_birkhoff_pass_exit_code(tmp_path, small_config):
    out = tmp_path / "out"
    code = run(["--config", small_config, "--out", out, "--quiet", "birkhoff"])
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["verdict"] == "PASS"
    assert payload["seed"] == 0


def test_exactness_lost_is_a_typed_error(tmp_path, small_config, monkeypatch):
    # an evolved curve whose loop integral is off zero raises ExactnessLost,
    # a BirkhoffLabError, so the CLI exits with the error code, not the
    # config-error code
    monkeypatch.setattr(curves, "loop_integral", lambda curve: 1.0)
    curve = curves.from_potential(GridFunction(np.sin(2 * np.pi * np.arange(64) / 64) / 40))
    with pytest.raises(ExactnessLost):
        curves.evolve(free_hamiltonian(), curve, 0.0, 0.1)
    code = run(["--config", small_config, "--out", tmp_path / "out", "--quiet", "birkhoff"])
    assert code == cli.EXIT_ERROR == 10


def test_negative_case_exit_and_witness(tmp_path, small_curves):
    cfg = tmp_path / "neg.ini"
    amp = 1.0 / (2 * math.pi**2)
    cfg.write_text(
        "[hamiltonian]\n"
        "family = mechanical\n"
        "potential_coeffs =\n"
        "[experiment]\n"
        f"initial_potential_coeffs = 0 1 0.0 {amp}\n"
        "n_max = 2\n"
        "m_max = 2\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code = run(["--config", cfg, "--out", out, "--quiet", "birkhoff"])
    assert code == 0  # contrapositive PASS
    payload = json.loads((out / "report.json").read_text())
    assert "contrapositive" in payload["reason"]
    assert (out / "witness_curve.csv").exists()


def test_recurrence_and_mane(tmp_path, small_config):
    out = tmp_path / "out"
    assert run(["--config", small_config, "--out", out, "--quiet", "recurrence"]) == 0
    assert run(["--config", small_config, "--out", out, "--quiet", "mane"]) == 0
    est = json.loads((out / "mane.json").read_text())
    assert abs(est["alpha0"]) <= 5e-3  # manufactured family, offset zero


def test_mane_reports_the_alpha0_the_pipelines_use(tmp_path, small_config):
    # a user who pins the alpha0 that mane printed runs what an unpinned
    # config runs
    out = tmp_path / "out"
    assert run(["--config", small_config, "--out", out, "--quiet", "mane"]) == 0
    assert run(["--config", small_config, "--out", out, "--quiet", "barrier"]) == 0
    mane = json.loads((out / "mane.json").read_text())
    assert mane["alpha0"] == json.loads((out / "barrier.json").read_text())["alpha0"]


def test_flow_and_lax_and_potential(tmp_path, small_config):
    out = tmp_path / "out"
    assert run(["--config", small_config, "--out", out, "--quiet", "flow", "--p", "0.5"]) == 0
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == "t,q,p,action_increment"
    assert run(["--config", small_config, "--out", out, "--quiet",
                "potential", "--t0", "0", "--t1", "0.5"]) == 0
    head = (out / "potential.csv").read_text().splitlines()[0]
    assert head.startswith("y\\x,")


def test_spectral_subcommand(tmp_path):
    s = sample_fqi(
        lambda q, x: x**2 + np.sin(2 * np.pi * q), (1,), base_resolution=16, fiber_resolution=33
    )
    inst = tmp_path / "inst.csv"
    fqi_to_csv(s, inst)
    out = tmp_path / "out"
    assert run(["--out", out, "--quiet", "spectral", "--fqi", inst]) == 0
    payload = json.loads((out / "spectral.json").read_text())
    assert payload["unit"]["value"] == pytest.approx(-1.0, abs=1e-6)
    assert payload["bounds_ok"] is True


def test_invariance_subcommand(tmp_path, small_curves):
    cfg = tmp_path / "auto.ini"
    cfg.write_text(
        "[hamiltonian]\n"
        "family = shifted_quadratic\n"
        "shift_coeffs = 0 1 0.0 0.05\n"
        "drift = 0.3\n"
        "[experiment]\n"
        "initial_potential_coeffs = 0 1 0.0 0.05\n"
        "resolution = 128\n"
        "quad_nodes = 32\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "--quiet", "invariance"]) == 0


def test_calibrate_subcommand(tmp_path, small_config):
    out = tmp_path / "out"
    code = run(["--config", small_config, "--out", out, "--quiet",
                "calibrate", "--curves", "100"])
    assert code == 0
    payload = json.loads((out / "calibration.json").read_text())
    assert payload["verdict"] == "PASS"
    assert payload["min_defect"] >= -5e-3


def test_cli_surface_is_what_callers_use(tmp_path):
    # a subcommand flag needs callers outside the tests (perfbench, CI, the
    # README examples, scripts/) that set it to different values; a value
    # that every caller leaves alone is a module constant, which a test can
    # monkeypatch. A new flag is added here together with its caller
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: {flag for action in parser._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, parser in sub.choices.items()
    }
    assert surface == {
        "flow": {"--q", "--p", "--t0", "--t1"},
        "potential": {"--t0", "--t1"},
        "mane": set(),
        "barrier": set(),
        "spectral": {"--fqi"},
        "calibrate": {"--curves"},
        "birkhoff": set(),
        "recurrence": set(),
        "invariance": set(),
    }
    out = tmp_path / "out"
    assert run(["--out", out, "lax"]) == cli.EXIT_ERROR
    assert run(["--out", out, "barrier", "--n-min", "4"]) == cli.EXIT_ERROR
    assert not out.exists()


def test_bad_arguments_exit_ge_10(tmp_path, capsys):
    assert run(["definitely-not-a-command"]) >= 10
    assert run(["--config", tmp_path / "missing.ini", "--quiet", "mane"]) >= 10


@pytest.mark.parametrize("argv", [
    ["flow", "--t1", "inf"],
    ["flow", "--q", "inf"],
    ["flow", "--p", "nan"],
    ["potential", "--t1", "inf"],
], ids=["flow-t1", "flow-q", "flow-p", "potential-t1"])
def test_non_finite_floats_refused(tmp_path, capsys, argv):
    # refused before any work: a traceback exit 1 reads as FAIL, and a NaN
    # start point wrote NaN output with a verdict
    out = tmp_path / "out"
    assert run(["--out", out, "--resolution", "16", *argv]) == cli.EXIT_ERROR
    assert f"{argv[1]}: must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_calibrate_nonpositive_horizon_is_a_duration_error(tmp_path, capsys, monkeypatch, horizon):
    # an empty or reversed span, not a knot step that fails to divide it
    monkeypatch.setattr(experiments, "CALIBRATION_HORIZON", float(horizon))
    out = tmp_path / "out"
    assert run(["--out", out, "--resolution", "16", "calibrate"]) == cli.EXIT_ERROR
    assert f"need t1 > t0, got [0.0, {float(horizon)}]" in capsys.readouterr().err


def test_potential_span_rounding_to_zero_is_a_duration_error(tmp_path, capsys):
    # potential keys its span at 12 digits; a span that rounds to 0 made the
    # single step divide by 0 and write a matrix of NaN with exit 0
    out = tmp_path / "out"
    argv = ["--out", out, "--resolution", "16", "potential", "--t0", "0.3", "--t1", "0.30000000000001"]
    assert run(argv) == cli.EXIT_ERROR
    assert "rounds to 0 at 12 digits" in capsys.readouterr().err
    assert not (out / "potential.csv").exists()


def test_potential_span_moved_by_its_key_is_a_duration_error(tmp_path, capsys):
    # the 12-digit key of a 1.4e-12 span is 1e-12: exit 0 wrote the potential
    # of the shorter span, entry [0, 1] 7.8e9 where 5.6e9 is right
    out = tmp_path / "out"
    argv = ["--out", out, "--resolution", "8", "potential", "--t0", "0", "--t1", "1.4e-12"]
    assert run(argv) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert "t - s = 1.4e-12" in err and "rounds to 1e-12 at 12 digits" in err
    assert not (out / "potential.csv").exists()


def test_calibrate_needs_a_curve(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "lax_spacetime", lambda *args: pytest.fail("candidate built"))
    assert run(["--out", tmp_path / "out", "calibrate", "--curves", "0"]) == cli.EXIT_ERROR
    assert "--curves" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["mane", "barrier"])
@pytest.mark.parametrize("key, value, named", [
    ("potential_coeffs", "0 1 nan 0.0", "term (0,1) has a non-finite coefficient"),
    ("offset", "inf", "offset must be finite"),
], ids=["nan-coefficient", "inf-offset"])
def test_non_finite_hamiltonian_is_a_config_error(tmp_path, capsys, command, key, value, named):
    # refused when the config is built, before a NaN reaches mane.json or barrier.csv
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[hamiltonian]\nfamily = mechanical\n{key} = {value}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "--resolution", "16", command]) == cli.EXIT_ERROR + 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_strang_integrator_is_a_config_error(tmp_path):
    cfg = tmp_path / "strang.ini"
    cfg.write_text("[flow]\nintegrator = strang\n", encoding="utf-8")
    assert run(["--config", cfg, "--out", tmp_path / "out", "--quiet", "flow"]) == cli.EXIT_ERROR + 1


@pytest.mark.parametrize("command", ["mane", "potential"])
@pytest.mark.parametrize("resolution", [0, 100])
def test_resolution_not_a_power_of_two_is_a_config_error(tmp_path, capsys, monkeypatch, resolution, command):
    # refused when the config is built, before any potential
    monkeypatch.setattr(lax_oleinik, "_single_step", lambda *args: pytest.fail("potential built"))
    out = tmp_path / "out"
    assert run(["--out", out, "--resolution", resolution, command]) == cli.EXIT_ERROR + 1
    assert f"resolution {resolution} is not a power of two" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "n_max = 2\n",  # no section header
    "[experiment]\nn_max = 2\nn_max = 3\n",  # duplicate key
    "[experiment]\nn_max = 2\n[experiment]\nm_max = 2\n",  # duplicate section
], ids=["no-header", "duplicate-key", "duplicate-section"])
def test_malformed_ini_is_an_input_error(tmp_path, capsys, text):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text, encoding="utf-8")
    assert run(["--config", cfg, "--quiet", "mane"]) == cli.EXIT_ERROR + 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["calibrate", "birkhoff"])
@pytest.mark.parametrize("route", ["flag", "ini"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, monkeypatch, route, command):
    # refused when the config is built: calibrate built the whole candidate
    # and then failed in numpy without naming the seed, birkhoff ran and
    # echoed it
    monkeypatch.setattr(lax_oleinik, "_single_step", lambda *args: pytest.fail("potential built"))
    out = tmp_path / "out"
    if route == "flag":
        argv = ["--seed", "-1"]
    else:
        cfg = tmp_path / "seed.ini"
        cfg.write_text("[experiment]\nseed = -1\n", encoding="utf-8")
        argv = ["--config", cfg]
    assert run([*argv, "--out", out, "--resolution", "16", command]) == cli.EXIT_ERROR + 1
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["flow", "--t1", "0.1"], ["potential"], ["mane"], ["barrier"], ["birkhoff"]],
                         ids=lambda argv: argv[0])
def test_unwritable_out_is_an_io_failure_naming_the_file(tmp_path, capsys, monkeypatch, small_curves, argv):
    # cli.main makes --out through textio before any work, so the IoFailure
    # names the directory and no flow, potential or pipeline runs
    for name in ("trajectory", "potential", "mane_critical_value", "peierls_barrier", "run_iteration_experiment"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("work started"))
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    out = blocker / "out"
    assert run(["--out", out, "--resolution", "16", *argv]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create directory {out}: ") and "Not a directory" in err


def test_seed_override_changes_echo(tmp_path, small_config):
    out = tmp_path / "out"
    run(["--config", small_config, "--out", out, "--seed", "123", "--quiet", "birkhoff"])
    payload = json.loads((out / "report.json").read_text())
    assert payload["seed"] == 123


def test_byte_identical_reruns(tmp_path, small_config):
    a, b = tmp_path / "a", tmp_path / "b"
    run(["--config", small_config, "--out", a, "--quiet", "birkhoff"])
    run(["--config", small_config, "--out", b, "--quiet", "birkhoff"])
    for name in ("diagnostics.csv", "report.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_cli_honours_config_potential_settings_and_pinned_alpha0(tmp_path):
    cfg = tmp_path / "pinned.ini"
    cfg.write_text(
        "[experiment]\n"
        "resolution = 32\n"
        "quad_nodes = 4\n"
        "alpha0 = 0.25\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "--quiet", "potential"]) == 0
    rows = (out / "potential.csv").read_text().splitlines()[1:]
    written = np.array([[float(x) for x in row.split(",")[1:]] for row in rows])
    clear_potential_cache()
    expected = potential(load_config(cfg).hamiltonian, 0, 1, 32, quad_nodes=4)
    assert np.array_equal(written, expected.entries)
    # barrier normalizes by the critical value under the same settings, as
    # mane reports it: its Kleene star is finite at no other constant
    assert run(["--config", cfg, "--out", out, "--quiet", "barrier"]) == 0
    assert run(["--config", cfg, "--out", out, "--quiet", "mane"]) == 0
    alpha0 = json.loads((out / "barrier.json").read_text())["alpha0"]
    assert alpha0 == json.loads((out / "mane.json").read_text())["alpha0"]
    assert alpha0 != 0.25


def test_birkhoff_scores_iterates_against_the_configured_limit(tmp_path):
    # the default initial potential is 0.05 sin(2 pi q); a limit that equals it
    # is the blank key's default, and one 0.01 higher moves every graph by
    # 2 pi 0.01 in p and its primitive by 0.01 sin, of oscillation 0.02
    def birkhoff(limit):
        cfg = tmp_path / f"{limit or 'blank'}.ini"
        cfg.write_text(f"[experiment]\nn_max = 2\nm_max = 2\nlimit_potential_coeffs = {limit}\n", encoding="utf-8")
        out = tmp_path / cfg.stem
        run(["--config", cfg, "--out", out, "--quiet", "birkhoff"])
        return out

    blank, same, higher = birkhoff(""), birkhoff("0 1 0.0 0.05"), birkhoff("0 1 0.0 0.06")
    assert (same / "diagnostics.csv").read_bytes() == (blank / "diagnostics.csv").read_bytes()
    rows = [row.split(",") for row in (higher / "diagnostics.csv").read_text().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == [-2, -1, 1, 2]
    assert all(float(row[1]) == pytest.approx(2 * np.pi * 0.01, abs=1e-5) for row in rows)
    assert all(float(row[2]) == pytest.approx(0.02, abs=1e-6) for row in rows)
    report = json.loads((higher / "report.json").read_text())
    assert all(not d["fired"] and d["hits"] == [] for d in report["detectors"].values())
    assert report["config"]["limit_potential_coeffs"] == [[0, 1, 0.0, 0.06]]


def test_spectral_runs_each_global_percolation_once(tmp_path, monkeypatch):
    f = lambda q, x: x**2 + 0.2 * np.sin(2 * np.pi * q)
    g = lambda q, x: x**2 + 0.1 * np.cos(2 * np.pi * q)
    s1 = sample_fqi(f, (1,), base_resolution=8, fiber_resolution=9)
    s2 = sample_fqi(g, (1,), base_resolution=8, fiber_resolution=9)
    inst = tmp_path / "sum.csv"
    fqi_to_csv(fibred_sum_fqi(s1, s2, negate_second=True), inst)
    shapes = []
    percolate = spectral.sublevel_percolation_threshold

    def counting(values, *args):
        shapes.append(values.shape)
        return percolate(values, *args)

    monkeypatch.setattr(spectral, "sublevel_percolation_threshold", counting)
    out = tmp_path / "out"
    assert run(["--out", out, "--quiet", "spectral", "--fqi", inst]) == 0
    assert shapes.count((8, 9, 9)) == 2
    payload = json.loads((out / "spectral.json").read_text())
    assert payload["bounds_ok"] is True
    assert payload["unit"]["certificate"] == payload["top"]["certificate"] == "percolation_threshold"


def test_spectral_rejects_damaged_csv(tmp_path, capsys):
    saddle = lambda x, y: x**2 - y**2 + np.exp(-(x**2 + y**2))
    inst = tmp_path / "saddle.csv"
    fqi_to_csv(sample_fqi(saddle, (1, -1), fiber_resolution=65), inst)
    header, *rows = inst.read_text().splitlines()
    del rows[32 * 65 + 32]  # the saddle cell (32, 32)
    rows[-1] += ",0.0"
    inst.write_text("\n".join([header, *rows]) + "\n")
    assert run(["--out", tmp_path / "out", "--quiet", "spectral", "--fqi", inst]) == 11
    assert run(["--out", tmp_path / "out", "spectral", "--fqi", inst]) == 11
    assert f"{inst}: line {len(rows) + 1} is not one finite float" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("fiber_resolution", 9),
    ("fiber_resolution", "99"),
    ("fiber_resolution", [[9], [9]]),
    ("signature", None),
    ("signature", [1.5, -1]),
    ("signature", [True, -1]),
    ("base_resolution", "x"),
    ("base_resolution", 1.5),
    ("shell_enforced", 1),
    ("fiber_resolution", [9, 9, 9]),
    ("fiber_resolution", [-3, -3]),  # its product, 9, alone would match the file's 81 rows
    ("fiber_resolution", [0, 9]),
    ("base_resolution", 30),  # not a power of two
])
def test_spectral_rejects_mistyped_meta(tmp_path, capsys, key, value):
    # each was a TypeError traceback with exit 1, or was cast (1.5 and true
    # to 1, 1 to true) and exited 0
    inst = tmp_path / "saddle.csv"
    fqi_to_csv(sample_fqi(lambda x, y: x**2 - y**2, (1, -1), fiber_resolution=9), inst)
    meta_path = inst.with_suffix(".meta.json")
    meta = json.loads(meta_path.read_text())
    meta[key] = value
    meta_path.write_text(json.dumps(meta))
    out = tmp_path / "out"
    assert run(["--out", out, "spectral", "--fqi", inst]) == cli.EXIT_ERROR + 1
    assert f"{meta_path}: {key} must be" in capsys.readouterr().err
    assert not (out / "spectral.json").exists()


def test_spectral_quiet_on_a_csv_without_rows_prints_nothing(tmp_path, capfd):
    # numpy warns on a body with no rows; the CLI runs in a child process so
    # that pytest's warning capture cannot hide such a warning
    inst = tmp_path / "saddle.csv"
    fqi_to_csv(sample_fqi(lambda x, y: x**2 - y**2, (1, -1), fiber_resolution=9), inst)
    inst.write_text("value\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = ["--out", str(tmp_path / "out"), "--quiet", "spectral", "--fqi", str(inst)]
    done = subprocess.run([sys.executable, "-m", "birkhoff_lab.cli", *argv], env=env)
    assert done.returncode == cli.EXIT_ERROR + 1
    assert capfd.readouterr() == ("", "")
    with pytest.raises(ValueError) as raised:
        spectral.fqi_from_csv(inst)
    assert str(inst) in str(raised.value)


def test_spectral_on_a_smooth_saddle_loads_no_scipy(tmp_path):
    # the percolation bracket closes on a smooth saddle, so no probe runs and
    # neither scipy.ndimage nor scipy.sparse is imported
    inst = tmp_path / "saddle_65.csv"
    saddle = lambda x, y: x**2 - y**2 + np.exp(-(x**2 + y**2))
    fqi_to_csv(sample_fqi(saddle, (1, -1), fiber_resolution=65), inst)
    script = """
import sys
import birkhoff_lab.cli
inst, out = sys.argv[1:]
assert birkhoff_lab.cli.main(["--out", out, "--quiet", "spectral", "--fqi", inst]) == 0
print(" ".join(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", script, str(inst), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout.split() == []
    assert (tmp_path / "out" / "spectral.json").is_file()


def test_trajectory_csv_reads_back_bitwise(tmp_path, small_config):
    out = tmp_path / "out"
    assert run(["--config", small_config, "--out", out, "--quiet", "flow", "--q", "0.2", "--p", "0.7"]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()[1:]
    cells = [line.split(",") for line in lines]
    config = load_config(small_config)
    tr = trajectory(config.hamiltonian, PhasePoint(0.2, 0.7), 0.0, 1.0, config.flow_settings)
    for k, expected in enumerate((tr.times, tr.q, tr.p)):
        assert np.array_equal([float(c[k]) for c in cells], expected)
    assert np.array_equal([float(c[3]) for c in cells[:-1]], tr.action_increments)
    assert cells[-1][3] == ""  # no increment after the last knot


def test_potential_csv_reads_back_bitwise(tmp_path, small_config):
    out = tmp_path / "out"
    assert run(["--config", small_config, "--out", out, "--quiet", "potential", "--t1", "0.5"]) == 0
    header, *rows = [line.split(",") for line in (out / "potential.csv").read_text().splitlines()]
    clear_potential_cache()
    config = load_config(small_config)
    expected = potential(config.hamiltonian, 0.0, 0.5, **resolve_potential_settings(config))
    grid = np.arange(expected.resolution) / expected.resolution
    assert header[0] == "y\\x"
    assert np.array_equal([float(x) for x in header[1:]], grid)
    assert np.array_equal([float(row[0]) for row in rows], grid)
    assert np.array_equal([[float(x) for x in row[1:]] for row in rows], expected.entries)


def test_calibration_shots_are_the_reports_payloads(tmp_path, small_config, monkeypatch):
    reports = []

    def recording(*args, **kwargs):
        reports.append(calibrated_curve(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "calibrated_curve", recording)
    out = tmp_path / "out"
    assert run(["--config", small_config, "--out", out, "--quiet", "calibrate", "--curves", "20"]) == 0
    shots = json.loads((out / "calibration.json").read_text())["calibrated_shots"]
    assert shots and shots == [rep.to_dict() for rep in reports]


def test_import_and_scipy_free_pipelines_load_no_scipy(tmp_path):
    # scipy is imported by the layers that use it, on first use: a fresh
    # process that imports the package, runs mane, barrier, recurrence on a
    # kinked pendulum, calibrate and an rk4 flow, then birkhoff and
    # recurrence on the default config, which evolve curves and measure
    # Hausdorff distances, builds the positive weak KAM solution, and takes
    # the Legendre transform of a custom callable, scalar and through a
    # potential, loads none of it
    cfg = tmp_path / "pendulum.ini"
    cfg.write_text(
        "[hamiltonian]\n"
        "family = mechanical\n"
        "potential_coeffs = 0 1 1.0 0.0\n"
        "[experiment]\n"
        "resolution = 64\n"
        "[flow]\n"
        "integrator = rk4\n",
        encoding="utf-8",
    )
    script = """
import sys
import birkhoff_lab, birkhoff_lab.cli
cfg, out = sys.argv[1:]
for command in (["mane"], ["barrier"], ["recurrence"], ["calibrate"], ["flow", "--p", "2"]):
    assert birkhoff_lab.cli.main(["--config", cfg, "--out", out, "--quiet", *command]) == 0, command
for command in ("birkhoff", "recurrence"):
    assert birkhoff_lab.cli.main(["--resolution", "64", "--out", f"{out}/{command}", "--quiet", command]) == 0, command
from birkhoff_lab.hamiltonians import Family, TonelliHamiltonian, legendre_transform, pendulum
from birkhoff_lab.lax_oleinik import positive_weak_kam, potential
_, residual = positive_weak_kam(pendulum(), 1.0, 0, 0.0, 64)
assert residual <= 1e-2, residual
custom = TonelliHamiltonian(family=Family.CUSTOM, custom_fn=lambda t, q, p: 0.5 * p**2)
assert abs(legendre_transform(custom, 0.0, 0.3, 0.7).optimal_momentum - 0.7) <= 1e-9
assert potential(custom, 0, 0.25, 16).entries.shape == (16, 16)
print(" ".join(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", script, str(cfg), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout.split() == []
    for name in ("mane.json", "barrier.json", "report.json", "calibration.json", "trajectory.csv"):
        assert (tmp_path / "out" / name).is_file(), name
    for command in ("birkhoff", "recurrence"):
        assert (tmp_path / "out" / command / "report.json").is_file(), command
