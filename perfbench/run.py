"""Benchmark of the benpde CLI: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload quad-lbfgs --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload runs in a process of its own (``worker.py``), with
``BEN_THREADS`` unset and BLAS threads set to ``BLAS_THREADS`` (within
``nproc``).  The metric names and units come from ``BENCHMARK.json``.
Stdout ends with the full report as one JSON line and then the summary line
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics with
``--trace 0``, per-layer ones with ``--trace 1``.  The exit code is 0 whenever a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
PACKAGE_DIR = ROOT / "src" / "benpde"

#: Every workload process must end within this many seconds.
TIMEOUT_S = 170

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: The program's arrays are far too small for threaded BLAS, and idle
#: OpenBLAS threads spin: with two threads a serial job used two cores.
BLAS_THREADS = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pinned_env() -> dict:
    env = dict(os.environ)
    env.pop("BEN_THREADS", None)
    for var in BLAS_THREAD_VARS:
        env[var] = str(min(BLAS_THREADS, nproc()))
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, versions: dict) -> dict:
    """Versions and settings the numbers depend on."""
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": nproc(),
        "blas_threads": min(BLAS_THREADS, nproc()),
        "BEN_THREADS": None,
        "git_commit": git_commit(),
        "seed": seed,
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=pinned_env(),
                          timeout=TIMEOUT_S, check=False, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload {name} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def named_metrics(result: dict, specs: list) -> dict:
    """The metrics ``BENCHMARK.json`` lists, in its order and units."""
    return {m["name"]: {"value": result["metrics"].get(m["name"], 0.0),
                        "unit": m["unit"]} for m in specs}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per workload "
                             "(default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (PACKAGE_DIR / "cli.py").is_file() or not SPEC.is_file():
        print(f"benchmark needs {PACKAGE_DIR} and {SPEC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"unknown workload '{args.workload}'; choose from {names} or all",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    specs = spec["per_layer" if args.trace else "end_to_end"]

    chosen = names if args.workload == "all" else [args.workload]
    results = {}
    for name in chosen:
        start = time.perf_counter()
        try:
            results[name] = run_workload(name, args.seed, seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        result = results[name]
        report = result["report"]
        print(f"== {name}: {result['attempted']} jobs, {result['failed']} "
              f"failed (failed_frac {report['failed_frac']:.4g}), "
              f"{report['passes']['untraced']} untraced + "
              f"{report['passes']['traced']} traced passes, "
              f"{time.perf_counter() - start:.1f} s")
        wall = report["wall_s"]
        print(f"   raw pass time: median {wall['median']:.4f} s over "
              f"{wall['count']} passes; tail percentile: "
              f"{wall['tail'] or 'needs 11 or more passes'}")
        for metric, entry in named_metrics(result, specs).items():
            print(f"   {metric:32s} {entry['value']:.6g} {entry['unit']}")
        for failure in report["failures"]:
            print(f"   FAILED {failure['job']}: {failure['reason']}")

    versions = next(iter(results.values()))["report"]["versions"]
    print(json.dumps({"environment": environment(args.seed, versions),
                      "results": results}))
    if args.workload == "all":
        metrics = {f"{name}.{metric}": entry
                   for name, result in results.items()
                   for metric, entry in named_metrics(result, specs).items()}
    else:
        metrics = named_metrics(results[args.workload], specs)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
