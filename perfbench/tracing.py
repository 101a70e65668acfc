"""Spans around hitmin's layer boundaries, recorded from outside the package.

``Tracer.install`` wraps the public functions listed in ``TRACED`` at every
module binding that holds them (the package imports names with
``from .x import y``, so ``hitmin.cli.evaluate`` and ``hitmin.optimize.evaluate``
are separate bindings of one function), plus the factorization and
back-substitution entry points ``hitmin.exact`` calls in scipy.  Spans stay in
memory; ``layer_metrics`` turns the spans of one pass into per-layer numbers
and ``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass

import scipy.linalg
import scipy.sparse.linalg

# Home module of each traced function; the home module names the layer.
TRACED = {
    "generators": ("gen_planted_two_community", "gen_star_path_clique",
                   "gen_lollipop"),
    "graph": ("augmented_view", "candidate_endpoints"),
    "exact": ("hitting_to_blue", "hitting_to_target", "evaluate"),
    "optimize": ("greedy_exact", "greedy_plus", "pure_random",
                 "top_hitting_baseline"),
    "kcenter": ("build_quasi_metric", "asym_k_center_fixed",
                "kcenter_shortcuts"),
    "estimator": ("estimate_mean_hitting", "spectral_radius"),
    "cli": ("run_sweep",),
}

# scipy entry points called by hitmin.exact; their spans belong to the exact layer.
DEPENDENCIES = (
    (scipy.linalg, "lu_factor", "exact.lu_factor"),
    (scipy.linalg, "lu_solve", "exact.lu_solve"),
    (scipy.sparse.linalg, "splu", "exact.splu"),
)

SOLVES = ("exact.hitting_to_blue", "exact.hitting_to_target")
FACTORS = ("exact.lu_factor", "exact.splu")
BACKSOLVES = ("exact.lu_solve", "exact.superlu_solve")
GREEDIES = ("optimize.greedy_exact", "optimize.greedy_plus")

# Per-layer metric name -> unit.  Counts repeat exactly for a fixed seed.
LAYER_UNITS = {
    "generators.gen_s": "s",
    "graph.view_calls": "count",
    "graph.view_s": "s",
    "graph.candidates_s": "s",
    "exact.solve_calls": "count",
    "exact.solve_s": "s",
    "exact.assembly_s": "s",
    "exact.factor_dense_calls": "count",
    "exact.factor_sparse_calls": "count",
    "exact.factor_s": "s",
    "exact.backsolve_calls": "count",
    "exact.backsolve_s": "s",
    "exact.refine_passes": "count",
    "exact.failures": "count",
    "optimize.cand_evals": "count",
    "optimize.greedy_s": "s",
    "optimize.self_s": "s",
    "kcenter.qm_build_s": "s",
    "kcenter.qm_solves": "count",
    "kcenter.cover_s": "s",
    "estimator.estimate_calls": "count",
    "estimator.estimate_s": "s",
    "estimator.spectral_calls": "count",
    "estimator.spectral_s": "s",
    "estimator.walk_s": "s",
    "estimator.walk_steps": "count",
    "estimator.walkers": "count",
    "estimator.steps_per_s": "1/s",
    "estimator.degenerate": "count",
    "cli.score_evals": "count",
    "cli.score_s": "s",
    "cli.self_s": "s",
    "bench.unattributed_s": "s",
    "bench.trace_overhead_s": "s",
}


@dataclass
class Span:
    """One call across a layer boundary.

    ``site`` is the module whose binding was called, ``parent`` the index of
    the enclosing span (-1 at top level).  ``counts`` holds program-made
    counts read from the return value.
    """

    name: str
    site: str
    parent: int
    start: float
    end: float = 0.0
    error: str | None = None
    counts: tuple = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


def _estimate_counts(estimate) -> tuple:
    steps = int(round(float((estimate.per_node_means * estimate.samples_per_node).sum())))
    walkers = int(estimate.samples_per_node) * int(estimate.sampled_nodes.size)
    return steps, walkers, int(estimate.walk_length == 1)


def _greedy_counts(result) -> tuple:
    return (int(result[1].evaluations),)


COUNTERS = {
    "estimator.estimate_mean_hitting": _estimate_counts,
    "optimize.greedy_exact": _greedy_counts,
    "optimize.greedy_plus": _greedy_counts,
}


class _TracedFactor:
    """Stand-in for scipy's SuperLU object whose ``solve`` records a span."""

    def __init__(self, factor, tracer):
        self._factor = factor
        self.solve = tracer.wrap(factor.solve, "exact.superlu_solve", "scipy")

    def __getattr__(self, name):
        return getattr(self._factor, name)


class Tracer:
    """Records spans while installed; ``uninstall`` restores every binding."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, fn, name, site):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, site, self._stack[-1] if self._stack else -1,
                        time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(result)
            return result

        return traced

    def _patch(self, module, attr, replacement):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self):
        modules = {name[len("hitmin."):] if "." in name else name: mod
                   for name, mod in list(sys.modules.items())
                   if name == "hitmin" or name.startswith("hitmin.")}
        for home, names in TRACED.items():
            for fname in names:
                fn = getattr(modules[home], fname)
                for site, mod in modules.items():
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, attr,
                                        self.wrap(fn, f"{home}.{fname}", site))
        for module, attr, name in DEPENDENCIES:
            wrapped = self.wrap(getattr(module, attr), name, "scipy")
            if attr == "splu":
                inner = wrapped

                def wrapped(*args, _inner=inner, **kwargs):
                    return _TracedFactor(_inner(*args, **kwargs), self)
            self._patch(module, attr, wrapped)

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def dump(self, path):
        """Write every recorded span as one JSON document."""
        with open(path, "w") as fh:
            json.dump([{"name": s.name, "site": s.site, "parent": s.parent,
                        "start": s.start, "end": s.end, "error": s.error,
                        "counts": list(s.counts)} for s in self.spans], fh)
            fh.write("\n")


def layer_metrics(spans: list[Span], lo: int, hi: int, wall: float) -> dict:
    """Per-layer numbers for the spans ``lo:hi`` of one pass lasting ``wall`` s.

    Parents always precede their children in ``spans``.  Self time is a span's
    duration minus that of its direct children.
    """
    child_time = {}
    for i in range(lo, hi):
        p = spans[i].parent
        if p >= lo:
            child_time[p] = child_time.get(p, 0.0) + spans[i].duration
    self_time = {i: spans[i].duration - child_time.get(i, 0.0) for i in range(lo, hi)}

    def total(names, measure=None):
        return sum((measure(i) if measure else spans[i].duration)
                   for i in range(lo, hi) if spans[i].name in names)

    def count(names):
        return sum(1 for i in range(lo, hi) if spans[i].name in names)

    def layer_self(layer):
        return sum(self_time[i] for i in range(lo, hi)
                   if spans[i].name.split(".")[0] == layer)

    def under(i, name):
        while spans[i].parent >= lo:
            i = spans[i].parent
            if spans[i].name == name:
                return True
        return False

    est = [spans[i].counts for i in range(lo, hi)
           if spans[i].name == "estimator.estimate_mean_hitting"]
    walk_steps = sum(c[0] for c in est)
    walk_s = total(("estimator.estimate_mean_hitting",), self_time.get)
    scores = [i for i in range(lo, hi)
              if spans[i].name == "exact.evaluate" and spans[i].site == "cli"]
    factors = count(FACTORS)
    backsolves = count(BACKSOLVES)
    return {
        "graph.view_calls": count(("graph.augmented_view",)),
        "graph.view_s": total(("graph.augmented_view",)),
        "graph.candidates_s": total(("graph.candidate_endpoints",)),
        "exact.solve_calls": count(SOLVES),
        "exact.solve_s": total(SOLVES),
        "exact.assembly_s": total(SOLVES, self_time.get),
        "exact.factor_dense_calls": count(("exact.lu_factor",)),
        "exact.factor_sparse_calls": count(("exact.splu",)),
        "exact.factor_s": total(FACTORS),
        "exact.backsolve_calls": backsolves,
        "exact.backsolve_s": total(BACKSOLVES),
        "exact.refine_passes": backsolves - factors,
        "exact.failures": sum(1 for i in range(lo, hi) if spans[i].name in SOLVES
                              and spans[i].error == "SolverFailure"),
        "optimize.cand_evals": sum(spans[i].counts[0] for i in range(lo, hi)
                                   if spans[i].name in GREEDIES and spans[i].counts),
        "optimize.greedy_s": total(GREEDIES),
        "optimize.self_s": layer_self("optimize"),
        "kcenter.qm_build_s": total(("kcenter.build_quasi_metric",)),
        "kcenter.qm_solves": sum(1 for i in range(lo, hi) if spans[i].name in SOLVES
                                 and under(i, "kcenter.build_quasi_metric")),
        "kcenter.cover_s": total(("kcenter.asym_k_center_fixed",)),
        "estimator.estimate_calls": len(est),
        "estimator.estimate_s": total(("estimator.estimate_mean_hitting",)),
        "estimator.spectral_calls": count(("estimator.spectral_radius",)),
        "estimator.spectral_s": total(("estimator.spectral_radius",)),
        "estimator.walk_s": walk_s,
        "estimator.walk_steps": walk_steps,
        "estimator.walkers": sum(c[1] for c in est),
        "estimator.steps_per_s": walk_steps / walk_s if walk_s > 0 else 0.0,
        "estimator.degenerate": sum(c[2] for c in est),
        "cli.score_evals": len(scores),
        "cli.score_s": sum(spans[i].duration for i in scores),
        "cli.self_s": layer_self("cli"),
        "bench.unattributed_s": wall - sum(self_time.values()),
    }


def generator_seconds(spans: list[Span], lo: int, hi: int) -> float:
    """Time spent inside generator calls among the spans ``lo:hi``."""
    return sum(spans[i].duration for i in range(lo, hi)
               if spans[i].name.startswith("generators.") and spans[i].parent < lo)
