"""End-to-end checks of the command-line front end.

Commands run in-process through ``cli.main`` with a temporary working
directory; one subprocess test confirms the ``python -m`` entry point.
"""

import importlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import benpde
import benpde.cli
import benpde.solver
from benpde.cli import (_ACCEPTED, _parse_lines, _resolve_config,
                        _write_history, _write_profiles, load_config, main)
from benpde.energy import energy_and_gradient, eval_energy
from benpde.errors import ConfigError, ConjugateSolveError
from benpde.grid import (SpaceGrid, Trajectory, mixed_inner, save_trajectory_csv,
                         uniform_times)
from test_grid import read_trajectory_csv


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
    assert history[0] == "iter,phi,grad_norm"
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
    monkeypatch.setattr(benpde.solver, "MAX_LINE_TRIALS", 1)
    monkeypatch.setattr(benpde.solver, "ARMIJO_C1", 0.75)
    (tmp_path / "stall.cfg").write_text(
        "model.name = divergence_form\nmodel.q = 4\ngrid.n = 9\n"
        "time.T0 = 0.1\ntime.M = 8\n"
        "solve.noise = 1.0\noutputs.dir = out\n")
    assert main(["solve", "stall.cfg"]) == 3
    captured = capsys.readouterr()
    assert len(captured.out.strip().splitlines()) == 1
    assert "line search" in captured.err
    out_dir = tmp_path / "out"
    cfg = load_config(tmp_path / "stall.cfg")
    traj = read_trajectory_csv(out_dir / "trajectory.csv", cfg.grid)
    assert traj.states.shape == (9, 9)
    report = json.loads((out_dir / "report.json").read_text())
    failure = report["failure"]
    assert failure["kind"] == "LineSearchError"
    assert "line search" in failure["message"]
    assert failure["iterations"] == report["iterations"]
    assert report["converged"] is False
    history = (out_dir / "history.csv").read_text().splitlines()
    assert len(history) == report["iterations"] + 2


def _derived_config(path: Path, base: str, **keys) -> Path:
    """``base.cfg`` with the given ``section.key`` values (``__`` for the
    dot) replacing its own, written to ``path``."""
    keys = {k.replace("__", "."): v for k, v in keys.items()}
    lines = [line for line in _resolve_config(f"{base}.cfg").read_text()
             .splitlines() if line.split("=")[0].strip() not in keys]
    path.write_text("\n".join(lines + [f"{k} = {v}" for k, v in keys.items()])
                    + "\n")
    return path


def _assert_failed_run_artifacts(out_dir: Path, kind: str, capsys):
    """Exit-3 artifacts: the last iterate, its history, a ``failure`` block
    and one summary line."""
    captured = capsys.readouterr()
    assert len(captured.out.strip().splitlines()) == 1
    assert "solved=False" in captured.out
    report = json.loads((out_dir / "report.json").read_text())
    assert report["failure"]["kind"] == kind
    assert report["failure"]["message"] in captured.err
    assert report["converged"] is False
    history = (out_dir / "history.csv").read_text().splitlines()
    assert len(history) == report["iterations"] + 2
    assert (out_dir / "trajectory.csv").exists()
    return report


def test_fine_divform_stop_agrees_with_the_certificate(tmp_path, monkeypatch):
    # At n = 65, M = 128 and seed 4 a stop on the normalized energy alone
    # left a defect of 2.5e-6 against the 1e-6 certificate; a stop must
    # now pass the certificate at solve.tol.
    monkeypatch.chdir(tmp_path)
    cfg = _derived_config(tmp_path / "fine.cfg", "divform_q4", grid__n=65,
                          time__M=128, solve__seed=4, solve__tol="1e-6",
                          outputs__dir="out")
    assert main(["solve", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["certificate"]["solved"] is True
    assert report["converged"] is True


def test_failed_certificate_assembly_writes_last_iterate(tmp_path, monkeypatch,
                                                         capsys):
    # The conjugate runs only in the certificate assembly; its failure must
    # still leave the last iterate, a failure block and exit code 3.
    def fail(model, traj):
        raise ConjugateSolveError("slice 0: injected failure", 1.0, 0)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(benpde.solver, "_assemble", fail)
    cfg = _derived_config(tmp_path / "q4.cfg", "divform_q4",
                          outputs__dir="out")
    assert main(["solve", str(cfg)]) == 3
    report = _assert_failed_run_artifacts(tmp_path / "out",
                                          "ConjugateSolveError", capsys)
    assert report["certificate"] is None and "normalized" not in report


def test_huge_2d_quartic_start_exits_3_with_artifacts(tmp_path, monkeypatch,
                                                      capsys):
    # Just inside the Psi(w0)^2 bound the merit descends, but the certifying
    # conjugate at the stop test stalls: the run still writes its artifacts.
    monkeypatch.chdir(tmp_path)
    cfg = _derived_config(tmp_path / "huge.cfg", "divform_q4", grid__dim=2,
                          grid__n=6, time__M=8, initial__amplitude="2.1e38",
                          outputs__dir="out")
    assert main(["solve", str(cfg)]) == 3
    report = _assert_failed_run_artifacts(tmp_path / "out",
                                          "ConjugateSolveError", capsys)
    assert report["iterations"] > 0


def test_history_energy_is_nonincreasing(heat_run):
    # the merit column: only Armijo-accepted steps are recorded
    _, out_dir = heat_run
    lines = (out_dir / "history.csv").read_text().splitlines()
    assert lines[0] == "iter,phi,grad_norm"
    rows = np.loadtxt(out_dir / "history.csv", delimiter=",", skiprows=1,
                      ndmin=2)
    assert np.all(np.diff(rows[:, 1]) <= 0.0)


def test_trajectory_csv_round_trips_bit_exact(heat_run, tmp_path):
    _, out_dir = heat_run
    cfg = load_config(_resolve_config("heat.cfg"))
    traj = read_trajectory_csv(out_dir / "trajectory.csv", cfg.grid)
    copy = tmp_path / "again.csv"
    save_trajectory_csv(traj, copy)
    assert copy.read_bytes() == (out_dir / "trajectory.csv").read_bytes()


def test_artifact_rows_match_per_value_formatting(tmp_path):
    """Trajectory, history and profile rows are byte for byte the
    ``%.17g`` text of each value, one value at a time."""
    fmt = "%.17g"
    rng = np.random.default_rng(3)
    grid, times = SpaceGrid(dim=1, n=10), uniform_times(0.3, 3)
    states = rng.normal(size=(4, 10)) * 10.0 ** rng.integers(-300, 300,
                                                             size=(4, 10))
    states[1, :3] = [-0.0, 1.0 / 3.0, 5e-324]
    traj = Trajectory(grid, times, states)
    history = np.abs(rng.normal(size=(12, 2))) * [[1e-7, 3.0]]

    save_trajectory_csv(traj, tmp_path / "trajectory.csv")
    _write_history(tmp_path / "history.csv", history)
    _write_profiles(tmp_path / "profiles.dat", traj)

    flat = traj.states.reshape(4, -1)
    expected = {
        "trajectory.csv": ["t," + ",".join(f"node_{i}" for i in range(10))]
        + [",".join([fmt % t] + [fmt % v for v in row])
           for t, row in zip(traj.times, flat)],
        "history.csv": ["iter,phi,grad_norm"]
        + [f"{i},{fmt % j},{fmt % g}" for i, (j, g) in enumerate(history)],
        "profiles.dat": ["# t node_2 node_5 node_7"]
        + [" ".join([fmt % t] + [fmt % row[p] for p in (2, 5, 7)])
           for t, row in zip(traj.times, flat)],
    }
    for name, lines in expected.items():
        text = "".join(line + "\n" for line in lines)
        assert (tmp_path / name).read_bytes() == text.encode("utf-8")


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
    captured = capsys.readouterr()
    assert captured.out == "baseline adversarial: failed -> out\n"
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert list(report) == ["failure"]
    failure = report["failure"]
    assert failure["kind"] == "TimeStepError"
    assert failure["message"].startswith("step 0: singular")
    assert captured.err == f"baseline: {failure['message']}\n"
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "report.json"]


def test_failed_baseline_removes_an_earlier_trajectory(tmp_path,
                                                      monkeypatch):
    # The singular config above, run over an earlier run's artifacts: no
    # trajectory may stay next to the failure report.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "singular.cfg").write_text(
        "model.name = adversarial\nmodel.kappa = 24\ngrid.n = 1\n"
        "time.T0 = 0.125\ntime.M = 2\noutputs.dir = out\n")
    (tmp_path / "out").mkdir()
    for name in ("trajectory.csv", "profiles.dat", "report.json",
                 "history.csv"):
        (tmp_path / "out" / name).write_text("from an earlier run\n")
    assert main(["baseline", "singular.cfg"]) == 3
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "report.json"]
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["failure"]["kind"] == "TimeStepError"


def test_baseline_after_solve_leaves_no_history(tmp_path, monkeypatch):
    # One outputs.dir for both commands: the solve's iteration history must
    # not sit next to the baseline's trajectory and report.
    monkeypatch.chdir(tmp_path)
    _write_quick_heat(tmp_path / "quick.cfg")
    assert main(["solve", "quick.cfg"]) == 0
    assert (tmp_path / "out" / "history.csv").is_file()
    assert main(["baseline", "quick.cfg"]) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "profiles.dat", "report.json", "trajectory.csv"]


def test_failed_baseline_assembly_writes_the_trajectory(tmp_path, monkeypatch,
                                                        capsys):
    def fail(model, traj):
        raise ConjugateSolveError("slice 0: injected failure", 1.0, 0)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(benpde.cli, "_assemble", fail)
    _write_quick_heat(tmp_path / "quick.cfg")
    assert main(["baseline", "quick.cfg"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "baseline heat: failed -> out\n"
    assert captured.err == "baseline: slice 0: injected failure\n"
    out_dir = tmp_path / "out"
    assert json.loads((out_dir / "report.json").read_text()) == {
        "failure": {"kind": "ConjugateSolveError",
                    "message": "slice 0: injected failure"}}
    traj = read_trajectory_csv(out_dir / "trajectory.csv",
                               load_config(tmp_path / "quick.cfg").grid)
    assert traj.states.shape == (9, 9)
    assert len((out_dir / "profiles.dat").read_text().splitlines()) == 1 + 9


def test_failed_compare_baseline_keeps_the_solve_report(tmp_path, monkeypatch,
                                                      capsys):
    # The singular config above: the midpoint solve certifies, but the
    # implicit baseline it is compared against has a singular first step.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "singular.cfg").write_text(
        "model.name = adversarial\nmodel.kappa = 24\ngrid.n = 1\n"
        "time.T0 = 0.125\ntime.M = 2\ncompare.baseline = true\n"
        "outputs.dir = out\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "singular.cfg"]) == 3
    captured = capsys.readouterr()
    assert len(captured.out.strip().splitlines()) == 1
    assert "solved=True" in captured.out
    assert len(captured.err.strip().splitlines()) == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["certificate"]["solved"] is True
    assert "failure" not in report
    failure = report["compare_baseline"]["failure"]
    assert failure == {"kind": "TimeStepError", "message": failure["message"]}
    assert failure["message"].startswith("step 0: singular")
    assert failure["message"] in captured.err
    for name in ("trajectory.csv", "history.csv", "profiles.dat"):
        assert (tmp_path / "out" / name).exists()


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
    ("solve.tol 1e-6", "solve.tol 1e-6"),  # no '='
    ("tol = 1e-6", "'tol'"),  # no section
    # line-search controls that are module constants, not config keys
    *(pytest.param(f"solve.{name} = {value}",
                   f"unknown config key 'solve.{name}'", id=f"removed-{name}")
      for name, value in (("armijo_c1", "1e-4"), ("backtrack", "2"),
                          ("max_line_trials", "0"))),
    # the start key that duplicated solve.noise = 0
    pytest.param("solve.init = constant", "unknown config key 'solve.init'",
                 id="removed-init"),
])
def test_malformed_keys_rejected(tmp_path, monkeypatch, capsys, line, key):
    monkeypatch.chdir(tmp_path)
    base = "model.name = heat\ngrid.n = 9\ntime.T0 = 0.1\ntime.M = 4\n"
    (tmp_path / "bad.cfg").write_text(base + line + "\n")
    assert main(["solve", "bad.cfg"]) == 2
    err = capsys.readouterr().err
    assert key in err and err.count("\n") == 1


@pytest.mark.parametrize("model,command,line,key", [
    ("heat", "solve", "model.a = inf", "model.a"),
    ("heat", "solve", "model.a = 1e400", "model.a"),
    ("divergence_form", "solve", "model.a = inf", "model.a"),
    ("heat", "gradcheck", "gradcheck.step = 0", "gradcheck.step"),
    ("heat", "gradcheck", "gradcheck.trajectories = 0",
     "gradcheck.trajectories"),
    ("heat", "gradcheck", "gradcheck.directions = -3", "gradcheck.directions"),
    ("heat", "verify", "verify.amplitude = nan", "verify.amplitude"),
    ("heat", "solve", "solve.noise = inf", "solve.noise"),
    ("heat", "solve", "time.T0 = inf", "time.T0"),
    ("heat", "solve", "solve.seed = -1", "solve.seed"),
    ("heat", "verify", "verify.seed = -1", "verify.seed"),
    ("heat", "gradcheck", "gradcheck.seed = -2", "gradcheck.seed"),
    ("divergence_form", "solve", "model.eps = -1", "model.eps"),
    ("burgers", "gradcheck", "model.u_max = -1", "model.u_max"),
    ("divergence_form", "gradcheck", "model.flux_cap = -1", "model.flux_cap"),
    ("divergence_form", "solve", "model.q = 4; model.flux_amp = -0.4",
     "model.flux_amp"),
    ("adversarial", "verify", "model.kappa = -5", "model.kappa"),
    ("heat", "solve", "solve.grad_tol = 0", "solve.grad_tol"),
    ("heat", "solve", "solve.tol = 0", "solve.tol"),
    ("heat", "solve", "solve.max_iters = -1", "solve.max_iters"),
])
def test_out_of_range_values_rejected(tmp_path, monkeypatch, capsys, model,
                                      command, line, key):
    monkeypatch.chdir(tmp_path)
    base = {"model.name": model, "grid.n": "9", "time.T0": "0.1",
            "time.M": "4"}
    for assignment in line.split(";"):
        name, value = (part.strip() for part in assignment.split("="))
        base[name] = value
    (tmp_path / "bad.cfg").write_text(
        "".join(f"{k} = {v}\n" for k, v in base.items()))
    assert main([command, "bad.cfg"]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("lines,csv,key", [
    ("model.name = heat\ntime.T0 = 0.1\ntime.M = 4", None, "grid.n"),
    ("model.name = wave\ngrid.n = 9\ntime.T0 = 0.1\ntime.M = 4", None,
     "model.name"),
    ("initial.profile = square", None, "initial.profile"),
    ("initial.profile = csv", None, "initial.path"),
    ("initial.profile = csv\ninitial.path = w0.csv", None, "initial.path"),
    ("initial.profile = csv\ninitial.path = w0.csv", "1,2,x\n", "initial.path"),
    ("initial.profile = csv\ninitial.path = w0.csv", "0\n" * 8 + "nan\n",
     "initial.path"),
], ids=["no-grid-n", "unknown-model", "unknown-profile", "csv-without-path",
        "csv-missing", "csv-unparsable", "csv-nan"])
def test_missing_or_unknown_values_name_the_key(tmp_path, monkeypatch, capsys,
                                                lines, csv, key):
    monkeypatch.chdir(tmp_path)
    if lines.startswith("initial."):  # a valid heat run otherwise
        lines = ("model.name = heat\ngrid.n = 9\ntime.T0 = 0.1\ntime.M = 4\n"
                 + lines)
    if csv is not None:
        (tmp_path / "w0.csv").write_text(csv)
    (tmp_path / "bad.cfg").write_text(lines + "\n")
    assert main(["solve", "bad.cfg"]) == 2
    err = capsys.readouterr().err
    assert f"'{key}'" in err and err.count("\n") == 1
    assert not (tmp_path / "runs").exists()


def test_lam_zero_replaces_the_built_model(tmp_path):
    (tmp_path / "lam.cfg").write_text(
        "model.name = burgers\nmodel.u_max = 3\nmodel.lam = 0\ngrid.n = 9\n"
        "time.T0 = 0.1\ntime.M = 4\n")
    model = load_config(tmp_path / "lam.cfg").model
    assert model.lam == 0 and model.flux.lipschitz == 3.0


def test_constant_start_solves(tmp_path, monkeypatch, capsys):
    # solve.noise = 0 starts from the constant extension of w0
    monkeypatch.chdir(tmp_path)
    _write_quick_heat(tmp_path / "quick.cfg", extra="solve.noise = 0\n")
    assert main(["solve", "quick.cfg"]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["certificate"]["solved"] and report["iterations"] > 0


@pytest.mark.parametrize("command", ["solve", "baseline", "verify", "gradcheck"])
def test_initial_state_with_overflowing_energy_names_the_key(
        tmp_path, monkeypatch, capsys, command):
    # The profile itself is finite; its gradient and integrated density are
    # not.  No numpy warning may escape (the suite turns them into errors).
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.cfg").write_text(
        "model.name = heat\ngrid.n = 9\ntime.T0 = 0.1\ntime.M = 4\n"
        "initial.amplitude = 1e308\n")
    assert main([command, "big.cfg"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"{command}: config key 'initial.amplitude': the integrated "
                   f"density of the initial state is too large (its square "
                   f"overflows)\n")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("amplitude", ["1e151", "1e152", "1e153"])
@pytest.mark.parametrize("command", ["solve", "baseline"])
def test_initial_state_near_overflow_names_the_key(tmp_path, monkeypatch,
                                                   capsys, command, amplitude):
    # Psi(w0) is finite here, but the gradient norm of a random start or the
    # baseline's residual norms would overflow.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.cfg").write_text(
        "model.name = heat\ngrid.n = 9\ntime.T0 = 0.1\ntime.M = 64\n"
        f"initial.amplitude = {amplitude}\n")
    assert main([command, "big.cfg"]) == 2
    assert "'initial.amplitude'" in capsys.readouterr().err


@pytest.mark.parametrize("noise,code", [("5e75", 0), ("1e76", 2), ("1e152", 2),
                                        ("1e160", 2), ("1e308", 2)])
def test_random_start_near_overflow_names_the_key(tmp_path, monkeypatch,
                                                  capsys, noise, code):
    # The square of each random state's integrated density must be finite,
    # as for Psi(w0); at 1e308 the noise itself overflows.  No numpy warning
    # may escape (the suite turns them into errors).
    monkeypatch.chdir(tmp_path)
    (tmp_path / "noisy.cfg").write_text(
        "model.name = heat\ngrid.n = 9\ntime.T0 = 0.1\ntime.M = 64\n"
        f"solve.noise = {noise}\n")
    assert main(["solve", "noisy.cfg"]) == code
    err = capsys.readouterr().err
    if code:
        assert err.count("\n") == 1 and "'solve.noise'" in err
        assert not (tmp_path / "runs").exists()
    else:
        assert err == ""


def test_solve_key_errors_name_the_key(tmp_path):
    (tmp_path / "bad.cfg").write_text(
        "model.name = heat\ngrid.n = 9\ntime.T0 = 0.1\ntime.M = 4\n"
        "solve.max_iters = 1.5\n")
    with pytest.raises(ConfigError) as err:
        load_config(tmp_path / "bad.cfg")
    assert err.value.key == "solve.max_iters"
    assert str(err.value) == "config key 'solve.max_iters': cannot parse '1.5'"


def test_readme_lists_every_config_key():
    """The README configuration table names exactly the accepted keys,
    every model builder parameter included."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    listed = {key for row in table.splitlines() if row.startswith("| `")
              for key in re.findall(r"`([a-z]+\.\w+)`", row.split(" | ")[0])}
    assert listed == _ACCEPTED
    assert set(_parse_lines("".join(f"{k} = 1\n" for k in listed))) == listed


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


def test_verify_with_overflowed_margins_exits_3(tmp_path, monkeypatch, capsys):
    # Every margin overflows at this amplitude: the first condition in the
    # checker's order names its first sample, and no warning escapes.
    monkeypatch.chdir(tmp_path)
    cfg = _derived_config(tmp_path / "big.cfg", "adversarial",
                          verify__amplitude="1e200")
    assert main(["verify", str(cfg)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "verify: growth: the margin of sample 0 is not finite\n"
    assert not (tmp_path / "runs").exists()


def test_failed_verify_removes_an_earlier_conditions_file(tmp_path,
                                                           monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    cfg = _derived_config(tmp_path / "a.cfg", "adversarial",
                          outputs__dir=str(out))
    assert main(["verify", str(cfg)]) == 1
    assert (out / "conditions.json").exists()
    capsys.readouterr()
    cfg = _derived_config(tmp_path / "a.cfg", "adversarial",
                          outputs__dir=str(out), verify__amplitude="1e200")
    assert main(["verify", str(cfg)]) == 3
    assert capsys.readouterr().err == (
        "verify: growth: the margin of sample 0 is not finite\n")
    assert list(out.iterdir()) == []


#: ``(t, margin)`` of the positivity witnesses of ``verify adversarial.cfg``
#: in index order, as the one-sample-at-a-time replay of ``test_models``
#: records them.  They pin the ``(seed, condition)`` sample streams: ``t``
#: exactly, the margin to summation-order roundoff.
ADVERSARIAL_WITNESSES = (
    (0.02573769717048722, -0.7661344112499716),
    (0.051192048954910946, -0.7051465495391483),
    (0.07321512176430496, -0.6732024807913994),
    (0.0040622737838458935, -0.6985813999814577),
    (0.07460166766603188, -0.70996407960692),
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


def test_gradcheck_fails_on_non_finite_error(tmp_path, monkeypatch, capsys):
    """A step so large that the energies overflow gives a NaN difference
    quotient: the check must fail on it, not skip it."""
    monkeypatch.chdir(tmp_path)
    _write_quick_heat(tmp_path / "quick.cfg",
                      extra="gradcheck.trajectories = 1\n"
                            "gradcheck.directions = 2\n"
                            "gradcheck.step = 1e200\n")
    assert main(["gradcheck", "quick.cfg"]) == 1
    worst = capsys.readouterr().out.split("error")[1].split()[0]
    assert worst in ("inf", "nan")


def _gradcheck_reference(cfg):
    """The gradcheck summary line from two ``eval_energy`` calls per
    direction, one trajectory at a time, with the same draws."""
    rng = np.random.default_rng(cfg.keys["gradcheck.seed"])
    worst, e = 0.0, cfg.keys["gradcheck.step"]
    for _ in range(cfg.keys["gradcheck.trajectories"]):
        states = 0.5 * rng.normal(size=(cfg.times.size,) + cfg.grid.shape)
        traj = Trajectory(cfg.grid, cfg.times, states)
        _, grad = energy_and_gradient(cfg.model, traj)
        for _ in range(cfg.keys["gradcheck.directions"]):
            s = rng.normal(size=states.shape)
            s[0] = 0.0
            jp = eval_energy(cfg.model,
                             traj.with_tail(traj.states[1:] + e * s[1:])).total
            jm = eval_energy(cfg.model,
                             traj.with_tail(traj.states[1:] - e * s[1:])).total
            fd = (jp - jm) / (2.0 * e)
            an = mixed_inner(traj, s, grad)
            worst = max(worst, abs(an - fd) / max(1.0, abs(fd)))
    return (f"gradcheck {cfg.model.name}: worst relative error {worst:.3e} "
            f"over {cfg.keys['gradcheck.trajectories']} trajectories x "
            f"{cfg.keys['gradcheck.directions']} directions")


@pytest.mark.parametrize("model,dim,n", [
    ("model.name = heat", 1, 9),
    ("model.name = divergence_form\nmodel.q = 4", 1, 9),
    ("model.name = burgers", 2, 6),
])
def test_gradcheck_equals_per_trajectory_loop(tmp_path, monkeypatch, capsys,
                                              model, dim, n):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "check.cfg").write_text(
        f"{model}\ngrid.dim = {dim}\ngrid.n = {n}\ntime.T0 = 0.1\n"
        "time.M = 8\ngradcheck.trajectories = 3\ngradcheck.directions = 4\n"
        "gradcheck.seed = 17\n")
    assert main(["gradcheck", "check.cfg"]) == 0
    expected = _gradcheck_reference(load_config(tmp_path / "check.cfg"))
    assert capsys.readouterr().out == expected + "\n"


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
    for argv, flag in ((["--steps", "1"], "--steps"),
                       (["--exponent", "1.5"], "exponent"),
                       (["--y-min", "nan"], "--y-min"),
                       (["--y-max", "inf"], "--y-max"),
                       (["--exponent", "10", "--coefficient", "1e-300",
                         "--y-min=-1e308", "--y-max", "1e308"],
                        "--y-max - --y-min")):
        assert main(["conjugate-table", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and flag in err
    assert not (tmp_path / "conjugate_table.csv").exists()


def test_conjugate_table_counts_non_finite_rows_as_failures(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    # psi_star = r|y| - psi(r) overflows above |y| ~ 3e205 at q = 3; numpy
    # warnings are errors in this suite, so none may escape either.
    monkeypatch.chdir(tmp_path)
    assert main(["conjugate-table", "--exponent", "3", "--y-max", "1e300",
                 "--out", "t.csv"]) == 3
    assert "41 rows, 40 failures" in capsys.readouterr().out
    rows = (tmp_path / "t.csv").read_text().splitlines()[1:]
    assert rows[0].startswith("-2,1.8856180831641272,-1.41421356237309")
    assert all(row.endswith("  # not finite") for row in rows[1:])


FAILED_ROW = "nan,nan  # solve failed: radial conjugate solve failed to " \
    "converge for |y|="


@pytest.mark.parametrize("argv, summary, table", [
    (["--exponent", "2.0000001", "--coefficient", "1e-10", "--regularizer",
      "1", "--y-min=-1e300", "--y-max", "1e300", "--steps", "9"],
     "q=2 a=1e-10 eps=1: 9 rows, 8 failures",
     ["-1.0000000000000001e+300,inf,-9.9999999989999311e+299  # not finite",
      "-7.5000000000000004e+299,inf,-7.4999999992499491e+299  # not finite",
      "-5.0000000000000003e+299,inf,-4.9999999994999655e+299  # not finite",
      "-2.5000000000000001e+299,inf,-2.4999999997499828e+299  # not finite",
      "0,0,0",
      "2.5000000000000001e+299,inf,2.4999999997499828e+299  # not finite",
      "5.0000000000000003e+299,inf,4.9999999994999655e+299  # not finite",
      "7.4999999999999989e+299,inf,7.4999999992499476e+299  # not finite",
      "1.0000000000000001e+300,inf,9.9999999989999311e+299  # not finite"]),
    (["--exponent", "2.5", "--coefficient", "1e-300", "--regularizer",
      "1e-300", "--y-min", "1e100", "--y-max", "1e300", "--steps", "2"],
     "q=2.5 a=1e-300 eps=1e-300: 2 rows, 2 failures",
     ["1e+100,inf,4.6415888336127799e+266  # not finite",
      "1.0000000000000001e+300," + FAILED_ROW + "1e+300"]),
    (["--exponent", "3", "--coefficient", "1e-300", "--y-min",
      "2.4007924772804366e+93", "--y-max", "1e300", "--steps", "2"],
     "q=3 a=1e-300 eps=0: 2 rows, 1 failures",
     ["2.4007924772804366e+93,7.842249827313409e+289,4.8997882375470438e+196",
      "1.0000000000000001e+300,inf,9.999999999999999e+299  # not finite"]),
], ids=["eight-failed-around-zero", "not-finite-beside-failed",
        "finite-beside-not-finite"])
def test_conjugate_table_failed_rows(tmp_path, monkeypatch, capsys, argv,
                                     summary, table):
    # Each row reads as a solve of its |y| alone.  A row whose argmax is
    # finite but whose psi* overflows reads inf and "not finite"; one whose
    # argmax lies beyond the float range (about 1e400 at |y| = 1e300 and
    # q = 2.5) reads as a failed solve.
    monkeypatch.chdir(tmp_path)
    assert main(["conjugate-table", *argv, "--out", "t.csv"]) == 3
    captured = capsys.readouterr()
    assert captured.out == f"conjugate-table {summary} -> t.csv\n"
    assert captured.err == ""
    assert (tmp_path / "t.csv").read_bytes() == "\n".join(
        ["y,psi_star,argmax", *table, ""]).encode()


def test_solve_over_longer_stale_artifacts_writes_fresh_bytes(tmp_path,
                                                             monkeypatch):
    names = ("trajectory.csv", "history.csv", "profiles.dat", "report.json")
    for side in ("fresh", "stale"):
        (tmp_path / side).mkdir()
        monkeypatch.chdir(tmp_path / side)
        _write_quick_heat(tmp_path / side / "quick.cfg")
        if side == "stale":
            (tmp_path / side / "out").mkdir()
            for name in names:
                (tmp_path / side / "out" / name).write_bytes(b"junk," * 10**5)
        assert main(["solve", "quick.cfg"]) == 0
    for name in names:
        assert ((tmp_path / "stale" / "out" / name).read_bytes()
                == (tmp_path / "fresh" / "out" / name).read_bytes())


def test_conjugate_table_into_a_directory_is_io_error(tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "table").mkdir()
    assert main(["conjugate-table", "--out", "table"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert (tmp_path / "table").is_dir()


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write any file")
def test_conjugate_table_into_a_read_only_file_is_io_error(tmp_path,
                                                           monkeypatch,
                                                           capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.csv").write_text("kept\n")
    (tmp_path / "t.csv").chmod(0o444)
    assert main(["conjugate-table", "--out", "t.csv"]) == 4
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert (tmp_path / "t.csv").read_text() == "kept\n"


def test_conjugate_table_at_a_tiny_coefficient(tmp_path, monkeypatch, capsys):
    # The argmax sqrt(|y|/a) is about 1e149, so psi(r) = a r^3/3 overflows,
    # but psi* = (2/3) r |y| does not.
    monkeypatch.chdir(tmp_path)
    assert main(["conjugate-table", "--exponent", "3", "--coefficient",
                 "1e-300", "--y-min", "0.01", "--y-max", "0.02", "--steps",
                 "2", "--out", "t.csv"]) == 0
    assert "2 rows, 0 failures" in capsys.readouterr().out
    assert (tmp_path / "t.csv").read_text().splitlines()[1:] == [
        "0.01,6.6666666666666683e+146,1e+149",
        "0.02,1.8856180831641273e+147,1.4142135623730951e+149"]


def test_conjugate_table_general_q_at_huge_arguments(tmp_path, monkeypatch):
    # r = |y|^{1/9} = 1.29e11 and psi* = (9/10) r |y| = 1.16e111 at the
    # last row.
    monkeypatch.chdir(tmp_path)
    assert main(["conjugate-table", "--exponent", "10", "--y-min", "1e99",
                 "--y-max", "1e100", "--steps", "3", "--out", "t.csv"]) == 0
    y, psi_star, argmax = np.loadtxt(tmp_path / "t.csv", delimiter=",",
                                     skiprows=1).T
    np.testing.assert_allclose(argmax, y ** (1.0 / 9.0), rtol=1e-14)
    np.testing.assert_allclose(psi_star, 0.9 * argmax * y, rtol=1e-14)


def test_csv_initial_profile(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    values = np.sin(np.pi * np.arange(1, 10) / 10.0)
    np.savetxt(tmp_path / "w0.csv", values, delimiter=",")
    _write_quick_heat(tmp_path / "quick.cfg",
                      initial="initial.profile = csv\n"
                              "initial.path = w0.csv\n")
    assert main(["solve", "quick.cfg"]) == 0
    cfg = load_config(tmp_path / "quick.cfg")
    assert np.allclose(cfg.w0, values)


def test_csv_initial_wrong_size_names_key(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    np.savetxt(tmp_path / "w0.csv", np.ones(5), delimiter=",")
    _write_quick_heat(tmp_path / "quick.cfg",
                      initial="initial.profile = csv\n"
                              "initial.path = w0.csv\n")
    assert main(["solve", "quick.cfg"]) == 2
    assert "initial.path" in capsys.readouterr().err


def test_empty_csv_initial_profile_is_one_config_error(tmp_path, monkeypatch,
                                                      capsys):
    # numpy warns that an empty file holds no data; only the config error
    # may reach stderr
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w0.csv").write_text("")
    _write_quick_heat(tmp_path / "quick.cfg",
                      initial="initial.profile = csv\n"
                              "initial.path = w0.csv\n")
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(["solve", "quick.cfg"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "solve: config key 'initial.path': expected 9 values, found 0"]
    assert seen == []


def test_bump_profile_vanishes_at_walls(tmp_path):
    cfg_path = _resolve_config("heat.cfg")
    cfg = load_config(cfg_path)
    assert cfg.grid.n == 33 and cfg.times.size == 65
    # swap in the bump profile through a temp config
    bump_path = tmp_path / "bump.cfg"
    bump_path.write_text(cfg_path.read_text().replace("initial.profile = sin",
                                                      "initial.profile = bump"))
    bump = load_config(bump_path)
    w = bump.w0
    assert w.max() <= 1.0 + 1e-12
    assert w.min() >= 0.0
    assert w[0] < w[len(w) // 2]


def test_bundled_divform_config_parses():
    cfg = load_config(_resolve_config("divform_q4.cfg"))
    assert cfg.model.density.exponent == 4.0
    assert cfg.model.density.regularizer > 0.0


def _child_env() -> dict:
    """The environment with the directory holding the imported package first
    on PYTHONPATH, as an absolute path: a child run in another directory
    would not resolve a relative one (such as the ``src`` of a checkout)."""
    package_root = os.path.dirname(os.path.dirname(
        os.path.abspath(benpde.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    return env


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "benpde", "conjugate-table", "--steps", "5",
         "--out", str(tmp_path / "t.csv")],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 1
    assert (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("module", ["cli", "convex", "energy", "grid", "models",
                                    "solver"])
def test_every_exported_name_exists(module):
    # A deleted function must not stay listed in its module's __all__.
    exported = importlib.import_module(f"benpde.{module}")
    assert [name for name in exported.__all__ if not hasattr(exported, name)] == []


def test_one_parser_serves_successive_runs(tmp_path, monkeypatch, capsys):
    # main builds its parser once per process; a conjugate table and a
    # rejected flag between two solves leave the second solve's stdout and
    # artifacts equal to the first's.
    monkeypatch.chdir(tmp_path)
    out_dir = tmp_path / "runs" / "heat"

    def solve():
        assert main(["solve", "heat.cfg"]) == 0
        return capsys.readouterr().out, {
            path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}

    first = solve()
    assert main(["conjugate-table", "--exponent", "3"]) == 0
    with pytest.raises(SystemExit) as bad:
        main(["conjugate-table", "--no-such-flag"])
    assert bad.value.code == 2
    capsys.readouterr()
    assert solve() == first
    assert benpde.cli._build_parser() is benpde.cli._build_parser()


def test_cli_import_loads_no_scipy_linalg_sparse_or_f2py(tmp_path):
    # grid loads scipy's LAPACK and BLAS extensions from their files, so a
    # fresh interpreter importing the CLI loads neither the scipy.linalg
    # package (whose array-API copy of numpy pulls in numpy.f2py) nor any
    # scipy.sparse module.  CPython lists the two extensions under their names.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, benpde.cli\n"
         "print(sorted(set(m for m in sys.modules if m.startswith("
         "('scipy.linalg', 'scipy.sparse', 'numpy.f2py')))\n"
         "             - {'scipy.linalg._flapack', 'scipy.linalg._fblas'}))"],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_solve_never_imports_scipy_linalg(tmp_path):
    # The import cost is removed, not moved into the run: a whole solve of
    # the bundled heat config leaves the package unimported too.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, benpde.cli\n"
         "code = benpde.cli.main(['solve', 'heat.cfg'])\n"
         "print(code, 'scipy.linalg' in sys.modules,"
         " any(m.startswith('numpy.f2py') for m in sys.modules))"],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False False"
    assert (tmp_path / "runs" / "heat" / "report.json").is_file()


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
