"""Command-line front end: config ingestion, runs, and report emission.

Commands
--------
``solve <cfg>``
    Minimize the certificate energy for the configured model and write
    ``trajectory.csv``, ``report.json``, ``history.csv`` and ``profiles.dat``
    into the configured output directory.  Exit 0 iff the zero-energy
    certificate accepts the result.  A run that ``minimize`` returns with a
    ``failure`` still writes its last iterate, with a ``failure`` block in
    the report, then exits 3.  A start it cannot price writes nothing.
``baseline <cfg>``
    Solve the implicit stepping scheme and write the same artifacts minus
    the iteration history, removing an earlier run's ``history.csv``.  A
    failed solve or assembly still writes ``report.json`` with a ``failure``
    block, and the trajectory when only its assembly failed (else it
    removes an earlier one), then exits 3.
``verify <cfg>``
    Run every structural-condition checker for the configured model and
    write ``conditions.json``.  Exit 0 iff all conditions pass.
``gradcheck <cfg>``
    Compare the analytic energy gradient against central finite differences
    on random trajectories; print the worst relative error.
``conjugate-table --exponent Q ...``
    Tabulate the pointwise convex conjugate as CSV ``y,psi_star,argmax``.
    A row whose radial solve fails or whose values are not finite is
    marked with a comment and counts as failed; any failed row exits 3.

Configs are flat ``section.key = value`` text files ('#' and ';' start
comments).  Unknown or malformed keys abort with exit code 2 and a message
naming the key.  Exit codes: 0 success, 1 criterion not met, 2 config
error, 3 numerical failure, 4 I/O error.  Stdout carries a one-line
summary; diagnostics go to stderr.
All emitted files are UTF-8 with LF line endings and ``%.17g`` numbers.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import warnings
from dataclasses import asdict, dataclass, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .convex import PowerDensity, solve_radius
from .energy import _assemble, energy_and_gradient, energy_totals, eval_energy
from .errors import BenpdeError, ConfigError, NonFiniteInputError
from .grid import (
    SpaceGrid,
    Trajectory,
    format_rows,
    mixed_inner,
    save_trajectory_csv,
    uniform_times,
    write_lines,
)
from .models import _BUILDERS, ModelSpec, build_model, check_all_conditions, psi_total
from .solver import (
    SolveOptions,
    compare,
    implicit_baseline,
    minimize,
    random_initial_trajectory,
)

__all__ = ["main", "load_config", "RunConfig"]

#: parameter names of each model builder, read from its signature
_MODEL_PARAMS = {name: tuple(inspect.signature(builder).parameters)
                 for name, builder in _BUILDERS.items()}

#: Checks ``(predicate, message)`` shared by several keys (NumPy seeds are
#: nonnegative).
_SEED = (lambda v: v >= 0, "must be nonnegative")
_POSITIVE = (lambda v: v > 0, "must be positive")
_AT_LEAST_1 = (lambda v: v >= 1, "must be at least 1")


#: spellings of a boolean value
_BOOL = {**dict.fromkeys(("true", "yes", "on", "1"), True),
         **dict.fromkeys(("false", "no", "off", "0"), False)}


#: Every non-model key in reading order, ``section.key -> (converter,
#: default, check)``: a default of None marks a required key, and ``...`` a
#: key whose default its reader derives (``initial.path`` is required by the
#: csv profile only; ``outputs.dir`` defaults to ``runs/<model>``).  The
#: ``solve.*`` keys up to ``solve.tol`` are the :class:`SolveOptions` fields,
#: whose defaults and ranges ``SolveOptions`` holds; ``solve.tol`` is also the
#: certificate tolerance of ``solve`` and ``baseline``, and the other two
#: ``solve.*`` keys shape the start.
_KEYS = {
    "grid.dim": (int, 1, (lambda v: v in (1, 2), "must be 1 or 2")),
    "grid.n": (int, None, _AT_LEAST_1),
    "time.T0": (float, None, _POSITIVE),
    "time.M": (int, None, _AT_LEAST_1),
    "initial.profile": (str, "sin", None),
    "initial.path": (str, ..., None),
    "initial.amplitude": (float, 1.0, None),
    **{f"solve.{f.name}": (type(f.default), f.default, None)
       for f in fields(SolveOptions)},
    "solve.seed": (int, 0, _SEED),
    "solve.noise": (float, 0.5, None),
    "outputs.dir": (str, ..., None),
    "verify.samples": (int, 1000, _AT_LEAST_1),
    "verify.seed": (int, 0, _SEED),
    "verify.amplitude": (float, 1.0, None),
    "gradcheck.trajectories": (int, 5, _AT_LEAST_1),
    "gradcheck.directions": (int, 20, _AT_LEAST_1),
    "gradcheck.step": (float, 1e-6, _POSITIVE),
    "gradcheck.seed": (int, 0, _SEED),
    "compare.baseline": (lambda v: _BOOL[v.lower()], False, None),
}

#: every accepted ``section.key``, and the sections they fall in
_ACCEPTED = frozenset(["model.name", "model.lam", *_KEYS] + [
    f"model.{p}" for params in _MODEL_PARAMS.values() for p in params])
_SECTIONS = frozenset(key.split(".")[0] for key in _ACCEPTED)


@dataclass
class RunConfig:
    """Fully validated run configuration: the objects built from the config
    plus ``keys``, the value of every non-model key of ``_KEYS`` (given or
    default; ``initial.path`` and ``outputs.dir`` only when given)."""

    model: ModelSpec
    grid: SpaceGrid
    times: np.ndarray
    w0: np.ndarray
    options: SolveOptions
    out_dir: Path
    keys: dict


def _parse_lines(text: str) -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', "
                              f"got '{raw.strip()}'", key=raw.strip())
        key, value = (part.strip() for part in line.split("=", 1))
        if key.count(".") != 1:
            raise ConfigError(f"line {lineno}: key '{key}' is not of the form "
                              f"section.key", key=key)
        if key.split(".")[0] not in _SECTIONS:
            raise ConfigError(f"unknown config section in '{key}'", key=key)
        if key not in _ACCEPTED:
            raise ConfigError(f"unknown config key '{key}'", key=key)
        if key in values:
            raise ConfigError(f"duplicate config key '{key}'", key=key)
        values[key] = value
    return values


def _get(values, key, spec=None):
    """Parse and check ``key`` as ``spec`` says, by default its ``_KEYS`` row."""
    conv, default, check = _KEYS[key] if spec is None else spec
    if key not in values:
        if default is None:
            raise ConfigError(f"missing required config key '{key}'", key=key)
        return default
    try:
        out = conv(values[key])
    except (ValueError, TypeError, KeyError):
        raise ConfigError(
            f"config key '{key}': cannot parse '{values[key]}'", key=key)
    if isinstance(out, float) and not np.isfinite(out):
        raise ConfigError(f"config key '{key}': must be finite", key=key)
    if check is not None and not check[0](out):
        raise ConfigError(f"config key '{key}': {check[1]}", key=key)
    return out


def _key_error(section: str, exc: ValueError) -> ConfigError:
    """Name ``section.<name>`` for an error whose message starts with
    ``"<name>: "``, as those of the model builders and ``SolveOptions`` do."""
    name, _, why = str(exc).partition(": ")
    return ConfigError(f"config key '{section}.{name}': {why}",
                       key=f"{section}.{name}")


def _build_model(values) -> ModelSpec:
    name = _get(values, "model.name", (str, None, None))
    if name not in _MODEL_PARAMS:
        raise ConfigError(f"config key 'model.name': unknown model '{name}'",
                          key="model.name")
    params = {}
    for key in values:
        section, prop = key.split(".")
        if section == "model" and prop not in ("name", "lam"):
            if prop not in _MODEL_PARAMS[name]:
                raise ConfigError(f"config key '{key}' does not apply to "
                                  f"model '{name}'", key=key)
            params[prop] = _get(values, key, (float, None, None))
    try:
        model = build_model(name, **params)
    except ValueError as exc:
        raise _key_error("model", exc)
    lam = _get(values, "model.lam",
               (int, model.lam, (lambda v: v in (0, 1), "must be 0 or 1")))
    if lam != model.lam:
        model = replace(model, lam=lam)
    return model


#: named initial profiles, as products over the axes of a coordinate factor
_PROFILES = {"sin": lambda x: np.sin(np.pi * x),
             "bump": lambda x: (4.0 * x * (1.0 - x)) ** 2}


def _check_density(density, grid, values, key: str, what: str) -> None:
    """Raise :class:`ConfigError` for ``key`` if a finite state in ``values``
    has an integrated density whose square overflows in the energy's norms."""
    with np.errstate(over="ignore", invalid="ignore"):
        square = np.square(psi_total(density, grid, values))
    if not np.isfinite(square).all():
        raise ConfigError(f"config key '{key}': the integrated density of "
                          f"{what} is too large (its square overflows)", key=key)


def _initial_profile(keys: dict, grid: SpaceGrid, cfg_dir: Path,
                     density: PowerDensity) -> np.ndarray:
    """The initial state ``w0`` ``grid.shape``, finite and checked by
    :func:`_check_density`."""
    profile = keys["initial.profile"]
    bad = "initial.path" if profile == "csv" else "initial.amplitude"
    if profile in _PROFILES:
        out = keys["initial.amplitude"] * np.prod(
            _PROFILES[profile](grid.node_coords), axis=0)
    elif profile == "csv":
        if "initial.path" not in keys:
            raise ConfigError("missing required config key 'initial.path'",
                              key="initial.path")
        path = Path(keys["initial.path"])
        if not path.is_absolute():
            path = cfg_dir / path
        if not path.exists():
            raise ConfigError(f"config key 'initial.path': file '{path}' "
                              f"does not exist", key="initial.path")
        try:
            with warnings.catch_warnings():  # an empty file fails below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(path, delimiter=",", dtype=float)
        except ValueError as exc:
            raise ConfigError(f"config key 'initial.path': {exc}",
                              key="initial.path")
        if data.size != grid.n_nodes:
            raise ConfigError(
                f"config key 'initial.path': expected {grid.n_nodes} values, "
                f"found {data.size}", key="initial.path")
        out = data.reshape(grid.shape)
    else:
        raise ConfigError(f"config key 'initial.profile': unknown profile "
                          f"'{profile}'", key="initial.profile")
    if not np.all(np.isfinite(out)):
        raise ConfigError(f"config key '{bad}': field values contain "
                          f"non-finite entries", key=bad)
    _check_density(density, grid, out, bad, "the initial state")
    return out


def load_config(path) -> RunConfig:
    """Parse and validate a flat ``section.key = value`` config file."""
    path = Path(path)
    values = _parse_lines(path.read_text(encoding="utf-8"))
    model = _build_model(values)
    keys = {key: value for key in _KEYS
            if (value := _get(values, key)) is not ...}
    grid = SpaceGrid(dim=keys["grid.dim"], n=keys["grid.n"])
    try:
        options = SolveOptions(**{f.name: keys[f"solve.{f.name}"]
                                  for f in fields(SolveOptions)})
    except ValueError as exc:
        raise _key_error("solve", exc)
    return RunConfig(
        model=model, grid=grid,
        times=uniform_times(keys["time.T0"], keys["time.M"]),
        w0=_initial_profile(keys, grid, path.parent, model.density),
        options=options,
        out_dir=Path(keys.get("outputs.dir", f"runs/{model.name}")), keys=keys)


# -- artifact writers --------------------------------------------------------------


def _write_history(path: Path, history: np.ndarray) -> None:
    rows = np.column_stack([np.arange(len(history)), history])
    write_lines(path, ["iter,phi,grad_norm", *format_rows(rows)])


def _write_profiles(path: Path, traj: Trajectory) -> None:
    """Gnuplot-ready node traces: time column plus three probe nodes."""
    flat = traj.states.reshape(traj.states.shape[0], -1)
    n = flat.shape[1]
    picks = sorted({n // 4, n // 2, (3 * n) // 4})
    header = "# t " + " ".join(f"node_{p}" for p in picks)
    rows = np.column_stack([traj.times, flat[:, picks]])
    write_lines(path, [header, *format_rows(rows, " ")])


def _write_report(path: Path, payload: dict) -> None:
    write_lines(path, [json.dumps(payload, indent=2)])


def _failure(exc: BenpdeError) -> dict:
    """The ``failure`` block of a report: the error's class and message."""
    return {"kind": type(exc).__name__, "message": str(exc)}


# -- commands ----------------------------------------------------------------------


def _cmd_solve(cfg: RunConfig) -> int:
    with np.errstate(all="ignore"):
        try:
            init = random_initial_trajectory(cfg.grid, cfg.times, cfg.w0,
                                             seed=cfg.keys["solve.seed"],
                                             noise=cfg.keys["solve.noise"])
        except NonFiniteInputError as exc:
            raise ConfigError(f"config key 'solve.noise': {exc}",
                              key="solve.noise")
    _check_density(cfg.model.density, cfg.grid, init.states,
                   "solve.noise", "a state of the random start")
    outcome = minimize(cfg.model, init, cfg.options)
    failure = outcome.failure
    report, verdict = outcome.report, outcome.verdict(cfg.keys["solve.tol"])
    where = ""  # the stage that failed, when it is not the minimizer

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    save_trajectory_csv(outcome.trajectory, cfg.out_dir / "trajectory.csv")
    _write_history(cfg.out_dir / "history.csv", outcome.history)
    _write_profiles(cfg.out_dir / "profiles.dat", outcome.trajectory)
    # no report or verdict when the certificate assembly failed
    payload = {} if report is None else asdict(report)
    payload["certificate"] = None if verdict is None else asdict(verdict)
    payload["iterations"] = outcome.iterations
    payload["converged"] = outcome.converged
    if failure is not None:
        payload["failure"] = {**_failure(failure),
                              "iterations": outcome.iterations}
    elif cfg.keys["compare.baseline"]:
        try:
            base = implicit_baseline(cfg.model, cfg.grid, cfg.times, cfg.w0)
            result = compare(outcome.trajectory, base)
            payload["compare_baseline"] = {
                "rel_l2": result.rel_l2,
                "max_node": result.max_node,
                "baseline_energy": asdict(eval_energy(cfg.model, base)),
            }
        except BenpdeError as exc:  # the solve's own artifacts still stand
            failure, where = exc, "compare.baseline: "
            payload["compare_baseline"] = {"failure": _failure(exc)}
    _write_report(cfg.out_dir / "report.json", payload)

    shown = (np.nan, np.nan) if report is None else (report.normalized,
                                                     report.defect_norm)
    print(f"solve {cfg.model.name}: solved={bool(verdict and verdict.solved)} "
          f"normalized={shown[0]:.3e} defect={shown[1]:.3e} "
          f"iterations={outcome.iterations} -> {cfg.out_dir}")
    if failure is not None:
        print(f"solve: {where}{failure}", file=sys.stderr)
        return 3
    return 0 if verdict.solved else 1


def _cmd_baseline(cfg: RunConfig) -> int:
    traj = failure = None  # a trajectory exists when only its assembly fails
    try:
        traj = implicit_baseline(cfg.model, cfg.grid, cfg.times, cfg.w0)
        state = _assemble(cfg.model, traj)
        report, verdict = state.report, state.verdict(cfg.keys["solve.tol"])
    except BenpdeError as exc:
        failure = exc
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    (cfg.out_dir / "history.csv").unlink(missing_ok=True)  # a solve's, if any
    if traj is not None:
        save_trajectory_csv(traj, cfg.out_dir / "trajectory.csv")
        _write_profiles(cfg.out_dir / "profiles.dat", traj)
    else:  # no earlier run's trajectory may sit next to this failure
        (cfg.out_dir / "trajectory.csv").unlink(missing_ok=True)
        (cfg.out_dir / "profiles.dat").unlink(missing_ok=True)
    if failure is not None:
        _write_report(cfg.out_dir / "report.json",
                      {"failure": _failure(failure)})
        print(f"baseline {cfg.model.name}: failed -> {cfg.out_dir}")
        print(f"baseline: {failure}", file=sys.stderr)
        return 3
    payload = asdict(report)
    payload["certificate"] = asdict(verdict)
    payload["steps"] = traj.n_steps
    _write_report(cfg.out_dir / "report.json", payload)
    print(f"baseline {cfg.model.name}: steps={traj.n_steps} "
          f"J={report.total:.3e} normalized={report.normalized:.3e} "
          f"-> {cfg.out_dir}")
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    try:
        reports = check_all_conditions(
            cfg.model, cfg.grid, samples=cfg.keys["verify.samples"],
            seed=cfg.keys["verify.seed"], amplitude=cfg.keys["verify.amplitude"],
            t_range=(0.0, float(cfg.times[-1])))
    except BenpdeError:  # no earlier run's conditions may outlive this failure
        (cfg.out_dir / "conditions.json").unlink(missing_ok=True)
        raise
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    _write_report(cfg.out_dir / "conditions.json",
                  [r.to_json_dict() for r in reports])
    failed = [r for r in reports if not r.passed]
    n_pass = len(reports) - len(failed)
    if failed:
        detail = ", ".join(f"{r.condition} (worst={r.worst_margin:.3e}, "
                           f"{len(r.witnesses)} witnesses)" for r in failed)
        print(f"verify {cfg.model.name}: {n_pass}/{len(reports)} conditions "
              f"passed; FAIL {detail} -> {cfg.out_dir}")
        return 1
    worst = min(r.worst_margin for r in reports)
    print(f"verify {cfg.model.name}: {n_pass}/{len(reports)} conditions "
          f"passed (worst margin={worst:.3e}) -> {cfg.out_dir}")
    return 0


def _cmd_gradcheck(cfg: RunConfig) -> int:
    trajectories, directions = (cfg.keys["gradcheck.trajectories"],
                                cfg.keys["gradcheck.directions"])
    rng = np.random.default_rng(cfg.keys["gradcheck.seed"])
    grid, times, e = cfg.grid, cfg.times, cfg.keys["gradcheck.step"]
    an, fd = [], []
    with np.errstate(all="ignore"):  # an inf or nan error fails the check
        for _ in range(trajectories):
            states = 0.5 * rng.normal(size=(times.size,) + grid.shape)
            traj = Trajectory(grid, times, states)
            _, grad = energy_and_gradient(cfg.model, traj)
            for _ in range(directions):
                s = rng.normal(size=states.shape)
                s[0] = 0.0
                tail, step = traj.states[1:], e * s[1:]
                jp, jm = energy_totals(cfg.model, traj, [tail + step, tail - step])
                fd.append((jp - jm) / (2.0 * e))
                an.append(mixed_inner(traj, s, grad))
        fd = np.array(fd)
        worst = float(np.max(np.abs(np.array(an) - fd) / np.maximum(1.0, np.abs(fd))))
    print(f"gradcheck {cfg.model.name}: worst relative error {worst:.3e} "
          f"over {trajectories} trajectories x {directions} directions")
    return 0 if worst <= 1e-5 else 1


def _cmd_conjugate_table(args) -> int:
    if args.steps < 2:
        raise ConfigError("--steps must be at least 2")
    for flag, value in (("--y-min", args.y_min), ("--y-max", args.y_max),
                        ("--y-max - --y-min", args.y_max - args.y_min)):
        if not np.isfinite(value):
            raise ConfigError(f"{flag} must be finite")
    try:
        density = PowerDensity(args.coefficient, args.exponent,
                               args.regularizer)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    q, eps = args.exponent, args.regularizer
    with np.errstate(all="ignore"):  # a row that overflows fails
        ys = np.linspace(args.y_min, args.y_max, args.steps)
        r, _, unsolved = solve_radius(density, np.abs(ys))
        # psi* = r|y| - psi(r) with a r^{q-1} = |y| - eps r: it overflows
        # only where psi* does
        psi_star = r * ((1.0 - 1.0 / q) * np.abs(ys) - (0.5 - 1.0 / q) * eps * r)
        table = np.column_stack((ys, psi_star, np.sign(ys) * r))
    finite = np.all(np.isfinite(table), axis=1)  # NaN where a solve failed
    rows = [text + (f"  # solve failed: {unsolved[i]}" if i in unsolved
                    else "" if finite[i] else "  # not finite")
            for i, text in enumerate(format_rows(table))]
    out = Path(args.out)
    write_lines(out, ["y,psi_star,argmax"] + rows)
    print(f"conjugate-table q={args.exponent:g} a={args.coefficient:g} "
          f"eps={args.regularizer:g}: {len(rows)} rows, "
          f"{np.count_nonzero(~finite)} failures -> {out}")
    return 0 if finite.all() else 3


# -- entry point --------------------------------------------------------------------


def _resolve_config(path_text: str) -> Path:
    """Use the filesystem path if present, else fall back to a bundled config."""
    path = Path(path_text)
    if path.exists():
        return path
    bundled = resources.files("benpde") / "configs" / path.name
    if path_text == path.name and bundled.is_file():
        return Path(str(bundled))
    raise FileNotFoundError(f"config file '{path_text}' not found")


#: command -> (handler, help); a handler gets the :class:`RunConfig` loaded
#: from the command's ``config`` argument, or the parsed arguments if it has none
_COMMANDS = {
    "solve": (_cmd_solve, "minimize the trajectory energy and emit artifacts"),
    "baseline": (_cmd_baseline, "run the implicit stepping scheme"),
    "verify": (_cmd_verify, "run the structural condition checkers"),
    "gradcheck": (_cmd_gradcheck, "finite-difference check of the energy gradient"),
    "conjugate-table": (_cmd_conjugate_table,
                        "tabulate the pointwise convex conjugate"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benpde",
        description="Variational certificate solver for parabolic evolutions")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name != "conjugate-table":
            p.add_argument("config", help="path to a flat section.key=value "
                                          "config (bundled name also accepted)")
    table = sub.choices["conjugate-table"]
    table.add_argument("--exponent", type=float, default=2.0,
                       help="growth exponent q >= 2")
    table.add_argument("--coefficient", type=float, default=1.0,
                       help="leading coefficient a > 0")
    table.add_argument("--regularizer", type=float, default=0.0,
                       help="quadratic regularizer eps >= 0")
    table.add_argument("--y-min", type=float, default=-2.0)
    table.add_argument("--y-max", type=float, default=2.0)
    table.add_argument("--steps", type=int, default=41)
    table.add_argument("--out", default="conjugate_table.csv",
                       help="output CSV path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](
            load_config(_resolve_config(args.config)) if "config" in args else args)
    except (BenpdeError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return (2 if isinstance(exc, ConfigError)
                else 3 if isinstance(exc, BenpdeError) else 4)


if __name__ == "__main__":
    sys.exit(main())
