"""The three workloads: which CLI jobs they run, the configs the seed
generates for them, and the correctness check of every job.

The program sees only the generated config files.  Each is a bundled config
with a few keys overridden: the seed fixes ``solve.seed``, ``verify.seed``
and ``gradcheck.seed``, and the workload fixes grid sizes and output
directories.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("quad-lbfgs", "powerlaw-lbfgs", "audit")

#: gradcheck passes when the worst relative error stays at or below this.
GRADCHECK_LIMIT = 1e-5

#: ``conjugate-table`` row count at its default ``--steps``.
TABLE_ROWS = 41


@dataclass
class Job:
    """One CLI invocation and what its outputs must show."""

    name: str
    argv: list
    kind: str
    config: Path | None = None
    values: dict = field(default_factory=dict)
    out: Path | None = None
    expect_rc: int = 0
    expect_failed: frozenset = frozenset()


def _config_entry(line: str):
    """``(key, value)`` of a config line, or None for comments and blanks."""
    body = line.split("#", 1)[0].split(";", 1)[0]
    if "=" not in body:
        return None
    key, value = body.split("=", 1)
    return key.strip(), value.strip()


def _derive_config(configs: Path, base: str, overrides: dict, path: Path) -> dict:
    """Write ``base.cfg`` with ``overrides`` applied; return the key values."""
    lines = (configs / f"{base}.cfg").read_text(encoding="utf-8").splitlines()
    kept = [line for line in lines
            if (_config_entry(line) or ("",))[0] not in overrides]
    kept += [f"{key} = {value}" for key, value in overrides.items()]
    path.write_text("\n".join(kept) + "\n", encoding="utf-8")
    return dict(entry for entry in map(_config_entry, kept) if entry)


def build_jobs(workload: str, seed: int, work: Path, package: Path) -> list:
    """Jobs of one pass of ``workload``; configs and outputs go under ``work``."""
    rng = random.Random(f"{workload}/{seed}")
    configs = package / "configs"
    jobs = []

    def config_job(kind, base, overrides, **expect):
        name = f"{kind}-{base}"
        if "grid.n" in overrides:
            name += f"-n{overrides['grid.n']}-M{overrides['time.M']}"
        out = work / name
        overrides = dict(overrides, **{"outputs.dir": str(out)})
        path = work / f"{name}.cfg"
        values = _derive_config(configs, base, overrides, path)
        jobs.append(Job(name=name, argv=[kind, str(path)], kind=kind,
                        config=path, values=values, out=out, **expect))

    def draw():
        return rng.randrange(2**31)

    if workload == "quad-lbfgs":
        for n, m in ((33, 64), (65, 128)):
            for base in ("heat", "burgers"):
                config_job("solve", base, {"grid.n": n, "time.M": m,
                                           "solve.seed": draw()})
    elif workload == "powerlaw-lbfgs":
        config_job("solve", "divform_q4", {"solve.seed": draw()})
    elif workload == "audit":
        config_job("verify", "burgers", {"verify.seed": draw()})
        config_job("verify", "divform_q4", {"verify.seed": draw()})
        config_job("verify", "adversarial", {"verify.seed": draw()},
                   expect_rc=1, expect_failed=frozenset({"positivity"}))
        for base in ("heat", "burgers", "divform_q4"):
            config_job("baseline", base, {})
        for base in ("heat", "burgers"):
            config_job("gradcheck", base, {"gradcheck.seed": draw()})
        table = work / "conjugate_table.csv"
        jobs.append(Job(name="conjugate-table-q3",
                        argv=["conjugate-table", "--exponent", "3",
                              "--out", str(table)],
                        kind="conjugate-table", out=table))
    else:
        raise ValueError(f"unknown workload '{workload}'")
    return jobs


# -- correctness checks --------------------------------------------------------


def crank_nicolson_heat(n: int, m: int, t_end: float, a: float,
                        amplitude: float):
    """Independent Crank-Nicolson solve of ``u_t = a u_xx`` on (0, 1) with
    zero Dirichlet data and ``u(0) = amplitude sin(pi x)``; rows are time
    nodes."""
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    h = 1.0 / (n + 1)
    tau = t_end / m
    stiff = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)) / h**2
    eye = sp.identity(n)
    implicit = spla.splu(sp.csc_matrix(eye / tau + 0.5 * a * stiff))
    explicit = sp.csr_matrix(eye / tau - 0.5 * a * stiff)
    u = amplitude * np.sin(np.pi * h * np.arange(1, n + 1))
    states = [u]
    for _ in range(m):
        u = implicit.solve(explicit @ u)
        states.append(u)
    return np.asarray(states)


def relative_mixed_discrepancy(a, b) -> float:
    """``|a - b| / max(|a|, |b|)`` in the tau-h weighted L2 norm (the common
    weight cancels)."""
    import numpy as np

    diff = float(np.sqrt(np.sum((a - b) ** 2)))
    scale = max(float(np.sqrt(np.sum(a**2))), float(np.sqrt(np.sum(b**2))))
    return diff / scale


def _heat_reference_error(job: Job) -> float:
    import numpy as np

    v = job.values
    if v.get("initial.profile", "sin") != "sin":
        raise ValueError("the Crank-Nicolson reference assumes a sine profile")
    reference = crank_nicolson_heat(
        int(v["grid.n"]), int(v["time.M"]), float(v["time.T0"]),
        float(v.get("model.a", 1.0)), float(v.get("initial.amplitude", 1.0)))
    data = np.loadtxt(job.out / "trajectory.csv", delimiter=",", skiprows=1,
                      ndmin=2)
    return relative_mixed_discrepancy(data[:, 1:], reference)


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def check(job: Job, rc, stdout: str):
    """Return ``(failure reason or None, facts)`` for one finished job."""
    facts = {}
    if rc != job.expect_rc:
        return f"exit code {rc}, expected {job.expect_rc}", facts
    if job.kind == "solve":
        found = re.search(r"solved=(\w+) .*iterations=(\d+)", stdout)
        if not found or found.group(1) != "True":
            return f"no solved=True in {stdout.strip()!r}", facts
        facts["iterations"] = int(found.group(2))
        report = _read_json(job.out / "report.json")
        if not report["certificate"]["solved"]:
            return "report.json certificate not solved", facts
        if report["iterations"] != facts["iterations"]:
            return "report.json iterations differ from the summary line", facts
        if job.values["model.name"] == "heat":
            tol = float(job.values["solve.tol"])
            err = _heat_reference_error(job)
            facts["crank_nicolson_rel"] = err
            if not err <= tol:
                return f"Crank-Nicolson discrepancy {err:.3e} > tol {tol:g}", facts
    elif job.kind == "verify":
        reports = _read_json(job.out / "conditions.json")
        failed = {r["condition"] for r in reports if r["verdict"] != "pass"}
        facts["failed_conditions"] = sorted(failed)
        if failed != job.expect_failed:
            return (f"failed conditions {sorted(failed)}, expected "
                    f"{sorted(job.expect_failed)}"), facts
    elif job.kind == "baseline":
        report = _read_json(job.out / "report.json")
        if report["steps"] != int(job.values["time.M"]):
            return f"baseline took {report['steps']} steps", facts
    elif job.kind == "gradcheck":
        found = re.search(r"worst relative error (\S+)", stdout)
        if not found:
            return f"no gradcheck error in {stdout.strip()!r}", facts
        facts["worst_error"] = float(found.group(1))
        if not facts["worst_error"] <= GRADCHECK_LIMIT:
            return f"gradcheck error {facts['worst_error']:.3e}", facts
    elif job.kind == "conjugate-table":
        found = re.search(r"(\d+) rows, (\d+) failures", stdout)
        if not found or found.group(2) != "0":
            return f"conjugate-table reported {stdout.strip()!r}", facts
        lines = job.out.read_text(encoding="utf-8").splitlines()
        if len(lines) != TABLE_ROWS + 1:
            return f"conjugate table has {len(lines) - 1} rows", facts
    return None, facts
