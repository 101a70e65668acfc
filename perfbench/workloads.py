"""The benchmark's three workloads, each a fixed list of closed-loop operations.

One caller runs the operations one after another, each starting when the
previous one returns.  ``setup`` builds every input from the workload seed;
the program receives only those inputs.  ``run_pass`` runs the operation list
once and returns one ``Outcome`` per operation, plus the duration of each
timed unit (one package call).  ``check`` compares one pass's
outputs with the reference in ``reference.py`` and returns the mismatches by
operation, plus the objective ratio of every selection.

Every package call goes through a module attribute (``hitmin.exact.evaluate``,
not a local import), so the tracer's patched bindings see it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import hitmin
import hitmin.cli
import hitmin.estimator
import hitmin.exact
import hitmin.generators
import hitmin.optimize
from reference import Reference, close


@dataclass
class Outcome:
    """Result of one operation: its output, or the type of what it raised."""

    op: str
    value: object = None
    error: str | None = None


def derive(seed: int, tag: str) -> int:
    """Seed for one input stream, derived from the workload seed and a tag."""
    entropy = (int(seed),) + tuple(tag.encode())
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint32)[0])


def warm_up():
    """Run each solver path once on tiny inputs so first-call costs stay out of
    the timed passes: dense and sparse factorization, and one walk estimate."""
    tiny = hitmin.generators.gen_lollipop(5, 3)
    hitmin.exact.hitting_to_blue(tiny)
    hitmin.exact.hitting_to_blue(tiny, dense_limit=0)
    config = hitmin.estimator.EstimatorConfig(walk_length=4, samples_per_node=4)
    hitmin.estimator.estimate_mean_hitting(tiny, None, config)


def _can_take_shortcut(instance, r, count=1) -> bool:
    return int(instance.blue_degree[r]) + count <= instance.blue_count


class SweepPlanted:
    """``run_sweep`` over four algorithms and two budgets on one planted graph.

    An operation is one sweep cell: one algorithm at one budget and rep.
    ``run_sweep`` returns rows but not the endpoints behind them, so each pass
    records the selection every algorithm call returns, through a wrapper on
    the ``hitmin.cli`` binding that reads no clock.
    """

    name = "sweep-planted"
    ALGORITHMS = ("greedy", "asymm", "top_hitting", "pure_random")
    # hitmin.cli binding called by each algorithm's cell
    CALLS = {"greedy_exact": "greedy", "kcenter_shortcuts": "asymm",
             "top_hitting_baseline": "top_hitting", "pure_random": "pure_random"}
    ROW_FIELDS = ("seed", "g_exact", "f_exact", "edges", "eval_count", "error")

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        instance = hitmin.generators.gen_planted_two_community(
            200, 200, 0.1, 0.01, derive(self.seed, "sweep-instance"))
        args = hitmin.cli.build_parser().parse_args([
            "run", "--algorithms", ",".join(self.ALGORITHMS),
            "--fractions", "0.025,0.05", "--reps", "3",
            "--seed", str(derive(self.seed, "sweep-master")),
            "--output", "unused.csv",
        ])
        # one run_sweep call per algorithm gives four timed units per pass;
        # per-cell seeds depend on the algorithm's index in hitmin.cli.ALGORITHMS,
        # not on its place in the list, so the rows are those of one full call
        calls = []
        for algorithm in args.algorithms:
            cells = []
            for fraction in args.fractions:
                k = max(1, math.ceil(fraction * instance.red_count))
                reps = args.reps if algorithm in hitmin.cli.RANDOMIZED else 1
                cells.extend((algorithm, k, rep) for rep in range(reps))
            calls.append((SimpleNamespace(**{**vars(args), "algorithms": [algorithm]}),
                          cells))
        return SimpleNamespace(instance=instance, calls=calls)

    def run_pass(self, inputs):
        calls = {}
        originals = {name: getattr(hitmin.cli, name) for name in self.CALLS}

        def recording(name, fn):
            def call(instance, k, *args, **kwargs):
                result = fn(instance, k, *args, **kwargs)
                seed = args[0] if args else kwargs.get("seed")
                calls[(self.CALLS[name], int(k), seed)] = result
                return result
            return call

        outcomes, times = [], []
        for name, fn in originals.items():
            setattr(hitmin.cli, name, recording(name, fn))
        try:
            for args, cells in inputs.calls:
                started = time.perf_counter()
                try:
                    rows = hitmin.cli.run_sweep(inputs.instance, args)
                except Exception as exc:  # an escaped error fails every cell of the call
                    rows = exc
                times.append(time.perf_counter() - started)
                outcomes.extend(self._cell_outcomes(cells, rows, calls))
        finally:
            for name, fn in originals.items():
                setattr(hitmin.cli, name, fn)
        return outcomes, times

    def _cell_outcomes(self, cells, rows, calls):
        if isinstance(rows, Exception):
            return [Outcome(self._op(cell), error=f"escaped {type(rows).__name__}")
                    for cell in cells]
        by_cell = {}
        for row in rows:
            key = (row["algorithm"], int(row["k"]), int(row["rep"]))
            by_cell.setdefault(key, []).append(
                {f: row[f] for f in self.ROW_FIELDS})
        outcomes = []
        for cell in cells:
            cell_rows = by_cell.get(cell, [])
            errors = [r["error"] for r in cell_rows if r["error"]]
            if errors:
                outcomes.append(Outcome(self._op(cell), error=errors[0].split(":")[0]))
                continue
            algorithm, k, _rep = cell
            seed = cell_rows[0]["seed"] if cell_rows else ""
            result = calls.get((algorithm, k, int(seed) if seed != "" else None))
            outcomes.append(Outcome(self._op(cell), (cell_rows, result)))
        return outcomes

    @staticmethod
    def _op(cell):
        algorithm, k, rep = cell
        return f"{algorithm}/k={k}/rep={rep}"

    @staticmethod
    def fingerprint(value):
        rows, result = value
        if isinstance(result, tuple) and isinstance(result[1], hitmin.optimize.GreedyTrace):
            # trace entries carry wall times; compare what the algorithm chose
            result = (result[0], tuple(result[1].values), result[1].evaluations)
        return (tuple(tuple(r.values()) for r in rows), result)

    def check(self, inputs, outcomes):
        ref = Reference(inputs.instance)
        mismatches, ratios = {}, []
        for out in outcomes:
            if out.error is not None:
                continue
            cause = self._check_cell(out, ref, ratios)
            if cause:
                mismatches[out.op] = cause
        return mismatches, ratios

    def _check_cell(self, out, ref, ratios):
        rows, result = out.value
        algorithm = out.op.split("/")[0]
        if result is None or not rows:
            return "no selection or no row recorded"
        if algorithm == "greedy":
            selection, trace = result
            endpoints = trace.endpoints
            if sorted(endpoints) != list(selection.endpoints):
                return "greedy selection differs from its trace"
            for j, entry in enumerate(trace.entries, start=1):
                if not close(entry.value, ref.mean(endpoints[:j])):
                    return "greedy trace value differs from reference"
        else:
            selection = result[0] if algorithm == "asymm" else result
            endpoints = list(selection.endpoints)
        expected_rows = max(1, len(endpoints)) if algorithm == "greedy" else 1
        if len(rows) != expected_rows:
            return "row count differs from the selection"
        for row in rows:
            edges = int(row["edges"])
            if algorithm != "greedy" and edges != len(endpoints):
                return "edge count differs from the selection"
            chosen = endpoints[:edges]
            if not close(float(row["g_exact"]), ref.mean(chosen)):
                return "g_exact differs from reference"
            if not close(float(row["f_exact"]), ref.max(chosen)):
                return "f_exact differs from reference"
        objective = "max" if algorithm == "asymm" else "avg"
        ratios.append(ref.objective(objective, endpoints) / ref.objective(objective))
        return None


class EvalLarge:
    """The calls of ``hitmin eval`` on large and ill-conditioned instances.

    Each instance is scored with ``evaluate(..., "avg")`` then ``"max"``, first
    with no shortcuts and then with a fixed set of four endpoints: the four
    highest-index red nodes that can still take a shortcut.  An operation is
    one ``evaluate`` call.  The lollipop ladder straddles the size where the
    absolute 1e-9 residual gate in ``hitmin.exact`` starts raising
    ``SolverFailure`` on valid instances; those failures are a known program
    defect and are counted, not skipped.  ``objective_ratio`` does not apply:
    the endpoints are fixed, not selected, so ``check`` returns no ratios.
    """

    name = "eval-large"
    LOLLIPOPS = ((50, 20), (400, 30), (1000, 10), (100, 100), (3000, 10),
                 (4000, 30))

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        gen = hitmin.generators
        graphs = [
            # n = 1000 takes the dense path, n = 4200 (|R| = 1200) the sparse one
            ("planted-1000", gen.gen_planted_two_community(
                500, 500, 0.1, 0.01, derive(self.seed, "eval-planted-1000"))),
            ("planted-4200", gen.gen_planted_two_community(
                1200, 3000, 0.1, 0.01, derive(self.seed, "eval-planted-4200"))),
            ("star-path-clique-4096", gen.gen_star_path_clique(4096)),
        ]
        graphs += [(f"lollipop-{p}-{c}", gen.gen_lollipop(p, c))
                   for p, c in self.LOLLIPOPS]
        instances = []
        for label, graph in graphs:
            capable = [int(r) for r in graph.red_ids if _can_take_shortcut(graph, r)]
            instances.append((label, graph, tuple(capable[-4:])))
        return SimpleNamespace(instances=instances)

    def run_pass(self, inputs):
        outcomes, times = [], []
        for label, graph, fixed in inputs.instances:
            for set_label, shortcuts in (("none", None), ("fixed4", fixed)):
                for objective in ("avg", "max"):
                    op = f"{label}/{set_label}/{objective}"
                    started = time.perf_counter()
                    try:
                        value = hitmin.exact.evaluate(graph, shortcuts, objective)
                    except Exception as exc:  # counted per type, the pass goes on
                        outcomes.append(Outcome(op, error=type(exc).__name__))
                    else:
                        outcomes.append(Outcome(op, value))
                    times.append(time.perf_counter() - started)
        return outcomes, times

    @staticmethod
    def fingerprint(value):
        return value

    def check(self, inputs, outcomes):
        fixed_of = {label: fixed for label, _g, fixed in inputs.instances}
        refs = {label: Reference(graph) for label, graph, _f in inputs.instances}
        mismatches = {}
        for out in outcomes:
            if out.error is not None:
                continue
            label, set_label, objective = out.op.split("/")
            endpoints = fixed_of[label] if set_label == "fixed4" else ()
            if not close(out.value, refs[label].objective(objective, endpoints)):
                mismatches[out.op] = f"evaluate {objective} differs from reference"
        # no algorithm selects here, so there is no objective ratio
        return mismatches, []


class GreedyPlusGuarantee:
    """``greedy_plus`` in guarantee mode on eight 8-node planted instances.

    Guarantee mode (``cap_at_k=False``, epsilon = 1/(4k)) runs the full
    iteration budget with walk lengths and trial counts taken from the proofs.
    The graphs are the first eight of the package's tiny acceptance batch and
    do not vary with the seed: the walk length depends steeply on each graph's
    spectral radius, and seed-drawn graphs changed one pass's time between
    5.6 s and 17.8 s.  The seed drives every walk through the estimator seeds.
    """

    name = "greedy-plus-guarantee"
    GRAPH_SEEDS = range(8)
    BUDGETS = (1, 2)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        graphs = [hitmin.generators.gen_planted_two_community(4, 4, 0.6, 0.3, s)
                  for s in self.GRAPH_SEEDS]
        return SimpleNamespace(graphs=graphs,
                               estimator_seed=derive(self.seed, "estimator"))

    def run_pass(self, inputs):
        outcomes, times = [], []
        for i, graph in enumerate(inputs.graphs):
            for k in self.BUDGETS:
                epsilon = 1.0 / (4 * k)
                config = hitmin.estimator.EstimatorConfig(
                    epsilon=epsilon, delta=0.1, guarantee=True,
                    seed=(inputs.estimator_seed, i, k))
                op = f"graph-{i}/k={k}"
                started = time.perf_counter()
                try:
                    result = hitmin.optimize.greedy_plus(
                        graph, k, epsilon=epsilon, estimator_config=config,
                        cap_at_k=False)
                except Exception as exc:  # counted per type, the pass goes on
                    outcomes.append(Outcome(op, error=type(exc).__name__))
                else:
                    outcomes.append(Outcome(op, result))
                times.append(time.perf_counter() - started)
        return outcomes, times

    @staticmethod
    def fingerprint(value):
        selection, trace = value
        return selection.endpoints, tuple(trace.values), trace.evaluations

    def check(self, inputs, outcomes):
        mismatches, ratios = {}, []
        for out in outcomes:
            if out.error is not None:
                continue
            graph = inputs.graphs[int(out.op.split("/")[0].split("-")[1])]
            ref = Reference(graph)
            selection, trace = out.value
            endpoints = list(selection.endpoints)
            counts = selection.counts()
            if any(not graph.is_red[r] or not _can_take_shortcut(graph, r, c)
                   for r, c in counts.items()):
                mismatches[out.op] = "endpoint is not red or has no free blue slot"
            elif sorted(trace.endpoints) != endpoints or len(endpoints) > trace.budget:
                mismatches[out.op] = "selection differs from its trace or budget"
            elif trace.evaluations < len(endpoints):
                mismatches[out.op] = "fewer evaluations than iterations"
            elif ref.mean(endpoints) > ref.mean() * (1.0 + 1e-12):
                mismatches[out.op] = "shortcuts raised the exact mean"
            else:
                ratios.append(ref.mean(endpoints) / ref.mean())
        return mismatches, ratios


WORKLOADS = {w.name: w for w in (SweepPlanted, EvalLarge, GreedyPlusGuarantee)}
