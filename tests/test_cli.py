"""End-to-end checks of the command-line front end.

Commands run in-process through ``cli.main`` with a temporary working
directory; one subprocess test confirms the ``python -m`` entry point.
"""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import benpde
from benpde.cli import _resolve_config, load_config, main
from benpde.grid import load_trajectory_csv, save_trajectory_csv


@pytest.fixture(scope="module")
def heat_run(tmp_path_factory):
    """One shared `solve heat.cfg` run; several tests inspect its artifacts."""
    workdir = tmp_path_factory.mktemp("heat_run")
    prev = os.getcwd()
    os.chdir(workdir)
    try:
        code = main(["solve", "heat.cfg"])
    finally:
        os.chdir(prev)
    return code, workdir / "runs" / "heat"


def test_heat_config_solves_and_writes_artifacts(heat_run):
    code, out_dir = heat_run
    assert code == 0
    for name in ("trajectory.csv", "report.json", "history.csv",
                 "profiles.dat"):
        assert (out_dir / name).exists()
    report = json.loads((out_dir / "report.json").read_text())
    assert report["normalized"] <= 1e-6
    assert report["certificate"]["solved"] is True
    history = (out_dir / "history.csv").read_text().splitlines()
    assert history[0] == "iter,J,grad_norm"
    assert len(history) == report["iterations"] + 2
    first = history[1].split(",")
    assert first[0] == "0" and float(first[1]) > 0.0
    profiles = (out_dir / "profiles.dat").read_text().splitlines()
    assert profiles[0].startswith("# t ")
    assert len(profiles) == 1 + 65  # header + one row per time node
    assert len(profiles[1].split()) == 4  # t plus three probe nodes


def test_line_search_failure_writes_last_iterate(tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "stall.cfg").write_text(
        "model.name = divergence_form\nmodel.q = 4\ngrid.n = 9\n"
        "time.T0 = 0.1\ntime.M = 8\n"
        "solve.noise = 1.0\nsolve.max_line_trials = 1\n"
        "solve.armijo_c1 = 0.75\noutputs.dir = out\n")
    assert main(["solve", "stall.cfg"]) == 3
    captured = capsys.readouterr()
    assert len(captured.out.strip().splitlines()) == 1
    assert "line search" in captured.err
    out_dir = tmp_path / "out"
    cfg = load_config(tmp_path / "stall.cfg")
    traj = load_trajectory_csv(out_dir / "trajectory.csv", cfg.grid)
    assert traj.states.shape == (9, 1, 9)
    report = json.loads((out_dir / "report.json").read_text())
    failure = report["failure"]
    assert failure["kind"] == "LineSearchError"
    assert "line search" in failure["message"]
    assert failure["iterations"] == report["iterations"]
    assert report["converged"] is False
    history = (out_dir / "history.csv").read_text().splitlines()
    assert len(history) == report["iterations"] + 2


def test_history_energy_is_nonincreasing(heat_run):
    _, out_dir = heat_run
    rows = np.loadtxt(out_dir / "history.csv", delimiter=",", skiprows=1)
    energies = rows[:, 1]
    assert np.all(np.diff(energies) <= 1e-18)


def test_trajectory_csv_round_trips_bit_exact(heat_run, tmp_path):
    _, out_dir = heat_run
    cfg = load_config(_resolve_config("heat.cfg"))
    traj = load_trajectory_csv(out_dir / "trajectory.csv", cfg.grid)
    copy = tmp_path / "again.csv"
    save_trajectory_csv(traj, copy)
    assert copy.read_bytes() == (out_dir / "trajectory.csv").read_bytes()


def test_solve_prints_single_summary_line(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_quick_heat(tmp_path / "quick.cfg")
    code = main(["solve", "quick.cfg"])
    captured = capsys.readouterr()
    assert code == 0
    assert len(captured.out.strip().splitlines()) == 1
    assert captured.err == ""


def test_burgers_report_embeds_baseline_comparison(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "burgers.cfg"]) == 0
    report = json.loads(
        (tmp_path / "runs" / "burgers" / "report.json").read_text())
    block = report["compare_baseline"]
    assert block["rel_l2"] <= 1e-2
    assert 0.0 <= block["max_node"]
    assert block["baseline_energy"]["total"] > 0.0


def test_baseline_command_writes_report(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_quick_heat(tmp_path / "quick.cfg")
    assert main(["baseline", "quick.cfg"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["steps"] == 8
    assert report["total"] > 0.0
    assert (tmp_path / "out" / "trajectory.csv").exists()


def test_singular_baseline_jacobian_exits_3(tmp_path, monkeypatch, capsys):
    # One node, h = 1/2, tau = 1/16: the Newton Jacobian 1/tau + 8 - kappa
    # of the first step is exactly zero.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "singular.cfg").write_text(
        "model.name = adversarial\nmodel.kappa = 24\ngrid.n = 1\n"
        "time.T0 = 0.125\ntime.M = 2\noutputs.dir = out\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["baseline", "singular.cfg"]) == 3
    err = capsys.readouterr().err
    assert "step 0" in err and "singular" in err


def test_zero_time_steps_rejected_naming_key(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text(
        "model.name = heat\ngrid.n = 9\ntime.T0 = 0.1\ntime.M = 0\n")
    assert main(["solve", "bad.cfg"]) == 2
    err = capsys.readouterr().err
    assert "time.M" in err


@pytest.mark.parametrize("line,key", [
    ("solve.turbo = yes", "solve.turbo"),
    ("warp.factor = 9", "warp.factor"),
    ("grid.n = fast", "grid.n"),
    ("model.kappa = 2.0", "model.kappa"),  # not a heat-model parameter
    ("solve.use_lbfgs = false", "solve.use_lbfgs"),
    ("solve.memory = 10", "solve.memory"),
])
def test_malformed_keys_rejected(tmp_path, monkeypatch, capsys, line, key):
    monkeypatch.chdir(tmp_path)
    base = "model.name = heat\ngrid.n = 9\ntime.T0 = 0.1\ntime.M = 4\n"
    (tmp_path / "bad.cfg").write_text(base + line + "\n")
    assert main(["solve", "bad.cfg"]) == 2
    assert key in capsys.readouterr().err


def test_duplicate_key_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text(
        "model.name = heat\ngrid.n = 9\ngrid.n = 17\n"
        "time.T0 = 0.1\ntime.M = 4\n")
    assert main(["solve", "bad.cfg"]) == 2
    assert "grid.n" in capsys.readouterr().err


def test_missing_config_is_io_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "no_such_file.cfg"]) == 4
    assert "no_such_file.cfg" in capsys.readouterr().err


def test_verify_adversarial_fails_positivity(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["verify", "adversarial.cfg"])
    assert code == 1
    assert "positivity" in capsys.readouterr().out
    reports = json.loads(
        (tmp_path / "runs" / "adversarial" / "conditions.json").read_text())
    by_name = {r["condition"]: r for r in reports}
    assert by_name["positivity"]["verdict"] == "fail"
    assert len(by_name["positivity"]["witnesses"]) >= 1
    witness = by_name["positivity"]["witnesses"][0]
    assert witness["margin"] < 0.0
    assert len(witness["x"]) == 9


#: ``(t, margin)`` of the positivity witnesses of ``verify adversarial.cfg``
#: in index order, as the one-sample-at-a-time checker recorded them.  They
#: pin the ``(seed, condition, index)`` sample streams: ``t`` exactly, the
#: margin to summation-order roundoff.
ADVERSARIAL_WITNESSES = (
    (0.08830719356077293, -0.678255166180026),
    (0.07669830914332021, -0.5002384157824089),
    (0.04684736930318298, -0.035001450224729676),
    (0.02591460699999463, -1.8793727666968545),
    (0.07963731409721446, -0.021184213465267616),
)


def test_verify_adversarial_witnesses_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "adversarial.cfg"]) == 1
    reports = json.loads(
        (tmp_path / "runs" / "adversarial" / "conditions.json").read_text())
    witnesses = {r["condition"]: r for r in reports}["positivity"]["witnesses"]
    assert len(witnesses) == len(ADVERSARIAL_WITNESSES)
    for wit, (t, margin) in zip(witnesses, ADVERSARIAL_WITNESSES):
        assert wit["t"] == t
        assert wit["margin"] == pytest.approx(margin, rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("config", ["heat.cfg", "burgers.cfg"])
def test_verify_passes_for_bundled_models(tmp_path, monkeypatch, config):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", config]) == 0


def test_verify_passes_for_heat(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_quick_heat(tmp_path / "quick.cfg", extra="verify.samples = 200\n")
    assert main(["verify", "quick.cfg"]) == 0
    reports = json.loads((tmp_path / "out" / "conditions.json").read_text())
    assert len(reports) == 6
    assert all(r["verdict"] == "pass" for r in reports)


def test_gradcheck_reports_small_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_quick_heat(tmp_path / "quick.cfg",
                      extra="gradcheck.trajectories = 2\n"
                            "gradcheck.directions = 5\n")
    assert main(["gradcheck", "quick.cfg"]) == 0
    out = capsys.readouterr().out
    worst = float(out.split("error")[1].split()[0])
    assert worst <= 1e-5


def test_conjugate_table_quadratic_is_half_square(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["conjugate-table", "--exponent", "2", "--coefficient", "1",
                 "--regularizer", "0", "--y-min", "-2", "--y-max", "2",
                 "--steps", "41", "--out", "table.csv"])
    assert code == 0
    rows = np.loadtxt(tmp_path / "table.csv", delimiter=",", skiprows=1)
    y, psi_star, argmax = rows.T
    assert np.allclose(psi_star, y**2 / 2.0, atol=1e-12)
    assert np.allclose(argmax, y, atol=1e-12)
    zero_row = rows[np.abs(y) < 1e-15][0]
    assert np.all(zero_row == 0.0)


def test_conjugate_table_monotone_and_convex(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["conjugate-table", "--exponent", "3", "--coefficient", "0.7",
                 "--regularizer", "1e-8", "--y-min", "-4", "--y-max", "4",
                 "--steps", "81", "--out", "t3.csv"])
    assert code == 0
    rows = np.loadtxt(tmp_path / "t3.csv", delimiter=",", skiprows=1)
    y, psi_star, argmax = rows.T
    assert np.all(np.diff(argmax) >= 0.0)
    assert np.all(np.diff(psi_star, 2) >= -1e-9)
    assert np.all(psi_star >= -1e-15)


def test_conjugate_table_rejects_bad_arguments(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["conjugate-table", "--steps", "1"]) == 2
    assert main(["conjugate-table", "--exponent", "1.5"]) == 2
    assert capsys.readouterr().err != ""


def test_csv_initial_profile(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    values = np.sin(np.pi * np.arange(1, 10) / 10.0)
    np.savetxt(tmp_path / "w0.csv", values, delimiter=",")
    _write_quick_heat(tmp_path / "quick.cfg",
                      initial="initial.profile = csv\n"
                              "initial.path = w0.csv\n")
    assert main(["solve", "quick.cfg"]) == 0
    cfg = load_config(tmp_path / "quick.cfg")
    assert np.allclose(cfg.w0.values[0], values)


def test_csv_initial_wrong_size_names_key(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    np.savetxt(tmp_path / "w0.csv", np.ones(5), delimiter=",")
    _write_quick_heat(tmp_path / "quick.cfg",
                      initial="initial.profile = csv\n"
                              "initial.path = w0.csv\n")
    assert main(["solve", "quick.cfg"]) == 2
    assert "initial.path" in capsys.readouterr().err


def test_bump_profile_vanishes_at_walls():
    cfg_path = _resolve_config("heat.cfg")
    cfg = load_config(cfg_path)
    assert cfg.grid.n == 33 and cfg.times.size == 65
    # swap in the bump profile through a temp config
    import tempfile

    text = cfg_path.read_text().replace("initial.profile = sin",
                                        "initial.profile = bump")
    with tempfile.NamedTemporaryFile("w", suffix=".cfg", delete=False) as fh:
        fh.write(text)
        name = fh.name
    bump = load_config(name)
    w = bump.w0.values[0]
    assert w.max() <= 1.0 + 1e-12
    assert w.min() >= 0.0
    assert w[0] < w[len(w) // 2]


def test_bundled_divform_config_parses():
    cfg = load_config(_resolve_config("divform_q4.cfg"))
    assert cfg.model.density.exponent == 4.0
    assert cfg.model.density.regularizer > 0.0


def test_module_entry_point(tmp_path):
    # The child runs in tmp_path, so a relative PYTHONPATH (such as the
    # ``src`` of an uninstalled checkout) would not resolve there; put the
    # directory holding the imported package first, as an absolute path.
    package_root = os.path.dirname(os.path.dirname(
        os.path.abspath(benpde.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "benpde", "conjugate-table", "--steps", "5",
         "--out", str(tmp_path / "t.csv")],
        capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 1
    assert (tmp_path / "t.csv").exists()


def _write_quick_heat(path, extra="", initial="initial.profile = sin\n"):
    path.write_text(
        "model.name = heat\n"
        "grid.n = 9\n"
        "time.T0 = 0.1\n"
        "time.M = 8\n"
        + initial +
        "solve.max_iters = 600\n"
        "solve.grad_tol = 1e-13\n"
        "solve.energy_tol = 1e-13\n"
        "solve.tol = 1e-5\n"
        "outputs.dir = out\n"
        + extra)
