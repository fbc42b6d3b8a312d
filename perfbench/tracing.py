"""Spans and counters for the traced run, recorded from outside the program.

Each traced function is replaced, in the namespace of every module that
calls it, by a wrapper that times the call and charges its duration to the
enclosing span.  The program imports its callees by name (``from .energy
import eval_energy``), so a wrapper installed only on the defining module
would never run for those callers and its count would silently read zero.
A name a module no longer has is skipped and its metrics read zero; the
report lists which spans were installed.

Spans are aggregated in memory per job: calls, inclusive seconds, self
seconds (inclusive minus the traced children), and calls per parent span.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

PACKAGE = "benpde"

#: (span, defining module, attribute, modules whose name is replaced, group).
#: A group's time counts only its outermost span, so nested psi calls are
#: not counted twice in ``models.psi_s``.
SPANS = (
    ("cli.load_config", "cli", "load_config", ("cli",), None),
    ("solver.minimize", "solver", "minimize", ("cli",), None),
    ("solver.implicit_baseline", "solver", "implicit_baseline", ("cli",), None),
    ("solver.compare", "solver", "compare", ("cli",), None),
    ("energy.eval_energy", "energy", "eval_energy", ("solver", "cli"), None),
    ("energy.energy_and_gradient", "energy", "energy_and_gradient",
     ("solver", "cli"), None),
    ("energy.certificate", "energy", "certificate", ("cli",), None),
    ("energy.conjugate_on_dual", "energy", "conjugate_on_dual", ("energy",),
     None),
    ("grid.poisson_solve", "grid", "poisson_solve",
     ("energy", "grid", "models"), None),
    ("grid.weighted_neg_laplacian", "grid", "weighted_neg_laplacian",
     ("energy", "solver"), None),
    ("grid.save_trajectory_csv", "grid", "save_trajectory_csv", ("cli",), None),
    ("grid.splu", "grid", "splu", ("grid",), None),
    ("models.psi_total", "models", "psi_total", ("energy", "models"), "psi"),
    ("models.psi_grad_edges", "models", "psi_grad_edges", ("models",), "psi"),
    ("models.psi_gradient_density", "models", "psi_gradient_density",
     ("energy", "solver", "models"), "psi"),
    ("models.psi_hessian_edge_weights", "models", "psi_hessian_edge_weights",
     ("energy", "solver"), "psi"),
    ("models.lambda_density", "models", "lambda_density",
     ("energy", "solver", "models"), "lambda"),
    ("models.dlambda_density", "models", "dlambda_density", ("models",),
     "lambda"),
    ("models.dlambda_adjoint_density", "models", "dlambda_adjoint_density",
     ("energy",), "lambda"),
    ("models.dlambda_matrix", "models", "dlambda_matrix", ("solver",), None),
    ("models.check_all_conditions", "models", "check_all_conditions",
     ("cli",), None),
    ("models.check_condition", "models", "check_condition", ("models",), None),
    ("models.heat_model", "models", "heat_model", ("cli",), "build"),
    ("models.burgers_model", "models", "burgers_model", ("cli",), "build"),
    ("models.divergence_form_model", "models", "divergence_form_model",
     ("cli",), "build"),
    ("models.adversarial_model", "models", "adversarial_model", ("cli",),
     "build"),
    ("runtime.map_indexed", "runtime", "map_indexed", ("models", "energy"),
     None),
    ("convex.conjugate_radius", "convex", "conjugate_radius", ("convex",), None),
)

#: Counters read off a traced call's arguments or result: span -> (counter,
#: function of (result, args)).
COUNTERS = {
    "solver.minimize": ("iters", lambda result, args: result.iterations),
    "energy.conjugate_on_dual": ("conjugate_newton_iters",
                                 lambda result, args: result[2]),
    "convex.conjugate_radius": ("radius_newton_iters",
                                lambda result, args: result[1]),
    "models.check_condition": ("samples", lambda result, args: result.samples),
    "grid.save_trajectory_csv": ("csv_bytes",
                                 lambda result, args: os.path.getsize(args[1])),
}

#: Modules that reach the sparse LU through ``scipy.sparse.linalg as spla``.
SPLA_USERS = ("energy", "solver")


def _modules() -> dict:
    found = {}
    for short in ("cli", "solver", "energy", "grid", "models", "runtime",
                  "convex"):
        try:
            found[short] = importlib.import_module(f"{PACKAGE}.{short}")
        except ImportError:
            continue
    return found


class _SpluProxy:
    """Stands in for ``scipy.sparse.linalg`` with a traced ``splu``."""

    def __init__(self, module, splu):
        self._module = module
        self.splu = splu

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Per-job span aggregates; :meth:`install` and :meth:`uninstall` bracket
    the traced passes."""

    def __init__(self):
        self.job = None
        self.installed = set()
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # (job, span) -> calls, incl s, self s
        self.edges = defaultdict(int)  # (job, parent, child) -> calls
        self.groups = defaultdict(float)  # (job, group) -> outermost incl s
        self.counters = defaultdict(float)  # (job, counter) -> total
        self._stack = []  # open spans: [name, traced child seconds]
        self._open_groups = defaultdict(int)
        self._patches = []

    def _wrap(self, name, group, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            if group:
                self._open_groups[group] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                job = self.job
                record = self.spans[job, name]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                    self.edges[job, parent[0], name] += 1
                if group:
                    self._open_groups[group] -= 1
                    if not self._open_groups[group]:
                        self.groups[job, group] += elapsed
            if counter is not None:
                self.counters[self.job, counter[0]] += counter[1](result, args)
            return result

        return traced

    def _patch(self, namespace, attr, value):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self):
        modules = _modules()
        for name, home, attr, importers, group in SPANS:
            origin = modules.get(home)
            fn = getattr(origin, attr, None)
            if fn is None:
                continue
            wrapped = self._wrap(name, group, fn)
            for importer in importers:
                namespace = modules.get(importer)
                if namespace is not None and getattr(namespace, attr, None) is fn:
                    self._patch(namespace, attr, wrapped)
                    self.installed.add(name)
            if name == "grid.splu":
                for user in SPLA_USERS:
                    namespace = modules.get(user)
                    spla = getattr(namespace, "spla", None)
                    if getattr(spla, "splu", None) is fn:
                        self._patch(namespace, "spla", _SpluProxy(spla, wrapped))
                        self.installed.add(name)

    def uninstall(self):
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    # -- aggregates ---------------------------------------------------------

    def calls(self, span):
        return sum(r[0] for (_, s), r in self.spans.items() if s == span)

    def inclusive(self, span):
        return sum(r[1] for (_, s), r in self.spans.items() if s == span)

    def self_time(self, span):
        return sum(r[2] for (_, s), r in self.spans.items() if s == span)

    def edge_calls(self, parent, child):
        return sum(n for (_, p, c), n in self.edges.items()
                   if p == parent and c == child)

    def group_time(self, group):
        return sum(t for (_, g), t in self.groups.items() if g == group)

    def counter(self, key, job=None):
        return sum(v for (j, k), v in self.counters.items()
                   if k == key and job in (None, j))

    def job_table(self, passes: int) -> dict:
        """Per job and span: calls, inclusive and self seconds per pass."""
        table = defaultdict(dict)
        for (job, span), (calls, incl, own) in sorted(self.spans.items()):
            table[job][span] = {"calls": calls / passes,
                                "inclusive_s": incl / passes,
                                "self_s": own / passes}
        return dict(table)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, traced_wall_s: float) -> dict:
    """Per-layer metric values for one traced pass (averaged over passes).

    ``traced_wall_s`` is the summed wall time of the traced passes.
    """
    t = tracer
    iters = t.counter("iters")
    minimize_s = t.inclusive("solver.minimize")
    trials = t.edge_calls("solver.minimize", "energy.eval_energy")
    assemblies = trials + t.edge_calls("solver.minimize",
                                       "energy.energy_and_gradient")
    check_s = t.inclusive("models.check_all_conditions")
    conjugate_s = t.inclusive("energy.conjugate_on_dual")
    per_pass = {
        "solver.iters": iters,
        "solver.line_trials": trials,
        "solver.minimize_self_s": t.self_time("solver.minimize"),
        "solver.baseline_s": t.inclusive("solver.implicit_baseline"),
        "solver.baseline_newton_steps": t.edge_calls(
            "solver.implicit_baseline", "models.dlambda_matrix"),
        "energy.eval_calls": t.calls("energy.eval_energy"),
        "energy.grad_calls": t.calls("energy.energy_and_gradient"),
        "energy.cert_calls": t.calls("energy.certificate"),
        "energy.eval_self_s": t.self_time("energy.eval_energy"),
        "energy.grad_self_s": t.self_time("energy.energy_and_gradient"),
        "energy.conjugate_s": conjugate_s,
        "energy.conjugate_calls": t.calls("energy.conjugate_on_dual"),
        "energy.conjugate_newton_iters": t.counter("conjugate_newton_iters"),
        "grid.factorizations": t.calls("grid.splu"),
        "grid.weighted_laplacian_calls": t.calls("grid.weighted_neg_laplacian"),
        "grid.weighted_laplacian_s": t.inclusive("grid.weighted_neg_laplacian"),
        "grid.poisson_solve_calls": t.calls("grid.poisson_solve"),
        "grid.poisson_solve_s": t.inclusive("grid.poisson_solve"),
        "grid.csv_write_s": t.inclusive("grid.save_trajectory_csv"),
        "grid.csv_bytes": t.counter("csv_bytes"),
        "models.lambda_s": t.group_time("lambda"),
        "models.psi_s": t.group_time("psi"),
        "models.check_s": check_s,
        "runtime.map_calls": t.calls("runtime.map_indexed"),
        "runtime.map_s": t.inclusive("runtime.map_indexed"),
        "convex.radius_calls": t.calls("convex.conjugate_radius"),
        "convex.radius_s": t.inclusive("convex.conjugate_radius"),
        "convex.radius_newton_iters": t.counter("radius_newton_iters"),
        "cli.load_config_s": t.inclusive("cli.load_config"),
        "models.build_s": t.group_time("build"),
    }
    out = {name: value / passes for name, value in per_pass.items()}
    out.update({
        "solver.trials_per_iter": _ratio(trials, iters),
        "solver.ms_per_iter": 1e3 * _ratio(minimize_s, iters),
        "energy.assemblies_per_iter": _ratio(assemblies, iters),
        "energy.conjugate_share": _ratio(conjugate_s, traced_wall_s),
        "models.samples_per_s": _ratio(t.counter("samples"), check_s),
    })
    runtime = sys.modules.get(f"{PACKAGE}.runtime")
    out["runtime.workers"] = float(runtime.thread_count()
                                   if hasattr(runtime, "thread_count") else 1)
    return out
