"""One workload in one process: set-up, closed-loop passes, checks, metrics.

``run.py`` starts this with BLAS threads pinned and prints what it returns:
one JSON line on stdout.  A pass runs every job of the workload once, one
after another, through ``benpde.cli.main``; passes start until ``--seconds``
have passed, so a run measures at least that long.  With ``--trace 1``
passes alternate untraced and traced, and the traced ones feed the
per-layer metrics.

Times are converted to reference seconds with ``calibrate``: a fixed block
of work is timed through the run, between the set-up probes and, by an
interval timer, during untraced passes.  ``wall_s`` scales each stretch of a
pass by the block that ends it; ``setup_s`` is scaled by the run's median
block.  The raw times are kept in the report.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import calibrate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
PACKAGE_DIR = HERE.parent / "src" / "benpde"

#: Fresh-interpreter set-ups whose median enters setup_s.
SETUP_ROUNDS = 9

#: Calibration blocks run before each set-up probe and after the last.
SETUP_BLOCKS = 4

#: Seconds a set-up probe may take.
SETUP_TIMEOUT_S = 60

#: At most this many failure reasons are kept in the report.
MAX_REASONS = 10


def summarize(values: list) -> dict:
    """Median, sample count, and the highest percentile with at least ten
    samples beyond it (none below eleven samples)."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "count": n, "tail": None}
    if n >= 11:
        pct = int(100 * (n - 10) / n)
        out["tail"] = {"percentile": pct,
                       "value": ordered[max(0, -(-pct * n // 100) - 1)]}
    return out


def run_job(main, job, tracer, sampler):
    """Run one CLI job; return (exit code, stdout, seconds, traced iters).
    The seconds exclude the calibration blocks run during the job."""
    out, err = io.StringIO(), io.StringIO()
    spent_before = sampler.spent
    if tracer is not None:
        tracer.job = job.name
        iters_before = tracer.counter("iters", job.name)
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(job.argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a crash is a failed job, not a failed benchmark
        rc = "crash"
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start - (sampler.spent - spent_before)
    traced_iters = None
    if tracer is not None:
        traced_iters = tracer.counter("iters", job.name) - iters_before
        tracer.job = None
    return rc, out.getvalue() + err.getvalue(), seconds, traced_iters


def measure_setup(jobs, sampler) -> list:
    """Seconds of each of ``SETUP_ROUNDS`` cold set-ups, one after another in
    fresh interpreters, with calibration blocks around each."""
    configs = [str(job.config) for job in jobs if job.config is not None]
    rounds = []
    for _ in range(SETUP_ROUNDS):
        sampler.run(SETUP_BLOCKS)
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *configs],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            check=True)
        rounds.append(float(proc.stdout.strip().splitlines()[-1]))
    sampler.run(SETUP_BLOCKS)
    return rounds


class Passes:
    """Closed-loop passes over the jobs, with every job checked after its pass."""

    def __init__(self, jobs, tracer, sampler):
        self.jobs = jobs
        self.tracer = tracer
        self.sampler = sampler
        self.walls, self.traced_walls = [], []
        self.reference_walls = []
        self.job_seconds = {job.name: [] for job in jobs}
        self.job_facts = {}
        self.reasons = []
        self.attempted = self.failed = 0

    def run(self, main, seconds: float) -> None:
        start = time.perf_counter()
        while True:
            # with a tracer, passes alternate untraced and traced
            traced = self.tracer is not None and \
                len(self.walls) > len(self.traced_walls)
            tracer = self.tracer if traced else None
            if traced:
                tracer.install()
            else:
                self.sampler.start()
            spent_before = self.sampler.spent
            pass_start = time.perf_counter()
            try:
                results = [run_job(main, job, tracer, self.sampler)
                           for job in self.jobs]
            finally:
                if not traced:
                    self.sampler.stop()
            pass_end = time.perf_counter()
            wall = pass_end - pass_start - (self.sampler.spent - spent_before)
            if traced:
                tracer.uninstall()
            else:
                self.reference_walls.append(
                    self.sampler.reference_seconds(pass_start, pass_end))
            (self.traced_walls if traced else self.walls).append(wall)
            for job, result in zip(self.jobs, results):
                self._check(job, *result)
            if (time.perf_counter() - start >= seconds
                    and (self.tracer is None or self.traced_walls)):
                return

    def _check(self, job, rc, output, seconds, traced_iters) -> None:
        self.attempted += 1
        self.job_seconds[job.name].append(seconds)
        try:
            reason, facts = workloads.check(job, rc, output)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            reason, facts = f"check raised {exc!r}", {}
        if (reason is None and traced_iters is not None
                and "solver.minimize" in self.tracer.installed
                and traced_iters != facts.get("iterations", 0)):
            reason = (f"traced solver.iters {traced_iters} != printed "
                      f"iterations {facts.get('iterations')}")
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append({"job": job.name, "reason": reason,
                                     "output": output[-2000:]})
        self.job_facts[job.name] = facts


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(PACKAGE_DIR.parent))
    import benpde.cli as cli
    if Path(cli.__file__).resolve().parent != PACKAGE_DIR.resolve():
        print(f"benpde imported from {cli.__file__}, not {PACKAGE_DIR}",
              file=sys.stderr)
        return 2

    import numpy
    import scipy

    kernels = kernel_note = None
    if args.trace:
        try:
            import kernels
        except ImportError as exc:
            kernel_note = f"kernels unavailable: {exc}"

    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        jobs = workloads.build_jobs(args.workload, args.seed, Path(tmp),
                                    PACKAGE_DIR)
        sampler = calibrate.Sampler()
        rounds = measure_setup(jobs, sampler)
        setup_blocks = len(sampler.samples)
        passes = Passes(jobs, tracing.Tracer() if args.trace else None,
                        sampler)
        passes.run(cli.main, args.seconds)

    walls, traced_walls = passes.walls, passes.traced_walls
    metrics = {
        "wall_s": statistics.median(passes.reference_walls),
        "setup_s": statistics.median(rounds) * sampler.factor(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "passes": {"untraced": len(walls), "traced": len(traced_walls)},
        "wall_s": summarize(walls),
        "pass_walls_s": {"untraced": walls, "traced": traced_walls},
        "setup_rounds_s": rounds,
        "calibration": {
            "reference_block_s": calibrate.REFERENCE_BLOCK_S,
            "blocks": len(sampler.samples),
            "setup_blocks": setup_blocks,
            "median_block_s": statistics.median(sampler.samples),
            "reference_walls_s": passes.reference_walls,
        },
        "failed_frac": passes.failed / passes.attempted,
        "failures": passes.reasons,
        "jobs": {name: {"seconds": summarize(secs), **passes.job_facts[name]}
                 for name, secs in passes.job_seconds.items()},
    }
    if args.trace:
        tracer = passes.tracer
        metrics = tracing.layer_metrics(tracer, len(traced_walls),
                                        sum(traced_walls))
        metrics["trace.overhead_frac"] = (statistics.median(traced_walls)
                                          / statistics.median(walls) - 1.0)
        metrics["src.lines"] = float(sum(
            len(path.read_text(encoding="utf-8").splitlines())
            for path in PACKAGE_DIR.rglob("*.py")))
        if kernels is not None:
            metrics.update(kernels.kernel_metrics(args.seed))
        else:
            report["kernel_note"] = kernel_note
        report["spans_installed"] = sorted(tracer.installed)
        report["spans"] = tracer.job_table(len(traced_walls))

    print(json.dumps({"correct": passes.failed == 0,
                      "attempted": passes.attempted, "failed": passes.failed,
                      "metrics": metrics, "report": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
