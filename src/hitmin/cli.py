"""Command-line benchmark harness.

Verbs: ``run`` sweeps algorithms over a budget grid and writes a CSV,
``verify`` runs the instance property checks, ``gen`` writes synthetic
instance files, and ``eval`` scores one shortcut list exactly.  A JSON
config file overrides command-line flags field by field.  All randomized
paths require an explicit seed; per-cell seeds are derived from it, so a
fixed (config, seed) pair reproduces every column except wall time.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .errors import HitminError, InvalidParameter
from .estimator import EstimatorConfig
# evaluate is not called here; it stays bound for callers that read or patch
# hitmin.cli's bindings (perfbench's tracer does)
from .exact import evaluate, hitting_to_blue  # noqa: F401
from .generators import (gen_lollipop, gen_path, gen_planted_two_community,
                         gen_star_path_clique)
from .graph import ShortcutSet, load_instance
from .kcenter import build_quasi_metric, kcenter_shortcuts, minmax_via_mean
from .optimize import (GreedyTrace, greedy_exact, greedy_plus, pure_random,
                       top_hitting_baseline)
from .verify import has_failure, run_checks, summarize

ALGORITHMS = ("greedy", "greedy_plus", "asymm", "bmah_route",
              "pure_random", "top_hitting")
RANDOMIZED = frozenset({"greedy_plus", "pure_random"})

CSV_HEADER = ["algorithm", "k", "fraction", "rep", "seed",
              "g_exact", "f_exact", "edges", "eval_count", "wall_ms", "error"]

DEFAULT_FRACTIONS = [round(0.05 * i, 2) for i in range(1, 11)]


def parse_gen_spec(spec: str, default_seed=None):
    """Build an instance from a "family;key=value;..." description."""
    parts = [p.strip() for p in spec.split(";") if p.strip()]
    if not parts:
        raise InvalidParameter("empty generator spec")
    family, kv = parts[0], {}
    for part in parts[1:]:
        if "=" not in part:
            raise InvalidParameter(f"malformed generator field {part!r}")
        key, value = part.split("=", 1)
        kv[key.strip()] = value.strip()

    known = {
        "path": {"length", "blue"},
        "star_path_clique": {"n"},
        "lollipop": {"path_len", "clique_size"},
        "planted": {"n_red", "n_blue", "p_in", "p_out", "seed"},
    }
    if family not in known:
        raise InvalidParameter(f"unknown generator family {family!r}")
    stray = set(kv) - known[family]
    if stray:
        raise InvalidParameter(
            f"unknown generator field(s) for {family!r}: {', '.join(sorted(stray))}"
        )

    def need(key, cast=int):
        if key not in kv:
            raise InvalidParameter(f"generator {family!r} needs {key}=")
        try:
            return cast(kv[key])
        except ValueError:
            raise InvalidParameter(
                f"generator {family!r}: bad {key}={kv[key]!r}") from None

    if family == "path":
        return gen_path(need("length"), need("blue", _comma_list(int)))
    if family == "star_path_clique":
        return gen_star_path_clique(need("n"))
    if family == "lollipop":
        return gen_lollipop(need("path_len"), need("clique_size"))
    kv.setdefault("seed", 0 if default_seed is None else default_seed)
    return gen_planted_two_community(
        need("n_red"), need("n_blue"),
        need("p_in", float), need("p_out", float), need("seed"),
    )


def _load_from_args(args):
    if getattr(args, "gen", None):
        if getattr(args, "edges", None) or getattr(args, "partition", None):
            raise InvalidParameter("give either --gen or --edges/--partition")
        return parse_gen_spec(args.gen, getattr(args, "seed", None))
    if not getattr(args, "edges", None) or not getattr(args, "partition", None):
        raise InvalidParameter("need --edges and --partition, or --gen")
    return load_instance(args.edges, args.partition)


def _derived_seed(master: int, algo_index: int, frac_index: int, rep: int) -> int:
    ss = np.random.SeedSequence((int(master), algo_index, frac_index, rep))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _estimator_config(args, seed: int) -> EstimatorConfig:
    sb = args.spectral_bound
    if sb is None:
        # experiment protocol fixes the knob at 0.1; guarantee mode
        # computes it and rejects any value
        sb = None if args.guarantee else 0.1
    elif sb < 0:
        sb = None
    return EstimatorConfig(
        epsilon=args.epsilon,
        delta=args.delta,
        spectral_bound=sb,
        subsample_fraction=None if args.guarantee else args.subsample,
        guarantee=args.guarantee,
        seed=seed,
    )


def _blank_row(algorithm, k, fraction, rep, seed):
    return {
        "algorithm": algorithm, "k": k, "fraction": f"{fraction:g}",
        "rep": rep, "seed": "" if seed is None else seed,
        "g_exact": "", "f_exact": "", "edges": "", "eval_count": "",
        "wall_ms": "", "error": "",
    }


class _SweepMemo:
    """Work the cells of one ``run_sweep`` call share; it dies with the call.

    ``greedy`` is the capped ``greedy_exact`` result of the largest budget
    so far, which later ``greedy`` and ``bmah_route`` cells resume from.
    The quasi-metric is built by the first ``asymm`` cell that asks for it.
    ``scores`` holds the mean and max exact hitting time of every multiset
    scored so far, both from one ``hitting_to_blue``.  Failures are not
    kept: a cell that repeats a failed call fails on its own.
    """

    def __init__(self, instance):
        self.instance = instance
        self.greedy = None
        self._quasi_metric = None
        self.scores = {}

    def greedy_kwargs(self):
        return {} if self.greedy is None else {"resume": self.greedy}

    def keep_greedy(self, result):
        if self.greedy is None or result[1].budget > self.greedy[1].budget:
            self.greedy = result
        return result

    def quasi_metric(self):
        if self._quasi_metric is None:
            self._quasi_metric = build_quasi_metric(self.instance)
        return self._quasi_metric

    def score(self, shortcuts):
        key = ShortcutSet.coerce(shortcuts)
        if key not in self.scores:
            profile = hitting_to_blue(self.instance, key)
            self.scores[key] = (profile.mean_time, profile.max_time)
        return self.scores[key]


def _score_row(row, memo, shortcuts, edges, eval_count, wall_ms):
    g_exact, f_exact = memo.score(shortcuts)
    row["g_exact"] = repr(g_exact)
    row["f_exact"] = repr(f_exact)
    row["edges"] = edges
    row["eval_count"] = eval_count
    row["wall_ms"] = f"{wall_ms:.3f}"
    return row


# algorithm -> call(instance, k, seed, args, memo).  A sequential algorithm
# returns (shortcuts, GreedyTrace), a one-shot one (shortcuts, eval_count).
# Every cell makes one call, and the lambdas look the callees up in this
# module when called, so a caller that patches a binding here sees every
# cell.  greedy and bmah_route make the same capped greedy_exact call, so
# each resumes the sweep's largest-budget run so far.
_CALLS = {
    "greedy": lambda inst, k, seed, args, memo: memo.keep_greedy(
        greedy_exact(inst, k, epsilon=args.epsilon, **memo.greedy_kwargs())),
    "greedy_plus": lambda inst, k, seed, args, memo: greedy_plus(
        inst, k, epsilon=args.epsilon, estimator_config=_estimator_config(args, seed)),
    "asymm": lambda inst, k, seed, args, memo: (
        kcenter_shortcuts(inst, k, quasi_metric=memo.quasi_metric())[0],
        inst.red_count + 1),
    "bmah_route": lambda inst, k, seed, args, memo: memo.keep_greedy(
        minmax_via_mean(inst, k, epsilon=args.epsilon, **memo.greedy_kwargs())),
    "pure_random": lambda inst, k, seed, args, memo: (pure_random(inst, k, seed), 0),
    "top_hitting": lambda inst, k, seed, args, memo: (top_hitting_baseline(inst, k), 1),
}


def _run_cell(memo, algorithm, k, fraction, rep, seed, args):
    def row(shortcuts, edges, eval_count, wall_ms):
        return _score_row(_blank_row(algorithm, k, fraction, rep, seed),
                          memo, shortcuts, edges, eval_count, wall_ms)

    started = time.perf_counter()
    shortcuts, result = _CALLS[algorithm](memo.instance, k, seed, args, memo)
    wall = (time.perf_counter() - started) * 1000.0
    if not isinstance(result, GreedyTrace):
        return [row(shortcuts, len(shortcuts), result, wall)]
    # one row per incremental edge, scored on the trace's prefix
    endpoints = result.endpoints
    rows = [row(ShortcutSet(endpoints[:j]), j, entry.evaluations, entry.wall_ms)
            for j, entry in enumerate(result.entries, start=1)]
    return rows or [row(None, 0, result.evaluations, 0.0)]


def run_sweep(instance, args):
    """Execute the full sweep and return the result rows in canonical order.

    The cells share work through a ``_SweepMemo`` that lives only for this
    call, so the rows are those of running each cell alone, ``wall_ms``
    apart.
    """
    algorithms = args.algorithms
    if not algorithms:
        raise InvalidParameter("algorithm list is empty")
    for a in algorithms:
        if a not in ALGORITHMS:
            raise InvalidParameter(
                f"unknown algorithm {a!r}; choose from {', '.join(ALGORITHMS)}"
            )
    fractions = args.fractions
    if not fractions:
        raise InvalidParameter("budget fraction list is empty")
    for frac in fractions:
        if not 0 < frac <= 1:
            raise InvalidParameter(f"budget fraction {frac} outside (0, 1]")
    if args.reps < 1:
        raise InvalidParameter(f"reps must be >= 1, got {args.reps}")
    if args.seed is not None and args.seed < 0:
        raise InvalidParameter(f"seed must be nonnegative, got {args.seed}")

    memo = _SweepMemo(instance)
    rows = []
    for a in algorithms:
        ai = ALGORITHMS.index(a)
        for fi, frac in enumerate(fractions):
            k = max(1, math.ceil(frac * instance.red_count))
            reps = args.reps if a in RANDOMIZED else 1
            for rep in range(reps):
                seed = None
                if a in RANDOMIZED:
                    seed = _derived_seed(args.seed, ai, fi, rep)
                try:
                    rows.extend(_run_cell(memo, a, k, frac, rep, seed, args))
                except HitminError as exc:
                    row = _blank_row(a, k, frac, rep, seed)
                    row["error"] = f"{type(exc).__name__}: {exc}"
                    rows.append(row)
    rows.sort(key=lambda r: (r["algorithm"], float(r["fraction"]),
                             int(r["rep"]), r["edges"] if r["edges"] != "" else -1))
    return rows


def _write_results(rows, args, instance):
    with open(args.output, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_HEADER)
        writer.writeheader()
        writer.writerows(rows)
    meta = {
        "version": __version__,
        "algorithms": list(args.algorithms),
        "fractions": list(args.fractions),
        "reps": args.reps,
        "seed": args.seed,
        "epsilon": args.epsilon,
        "delta": args.delta,
        "spectral_bound": args.spectral_bound,
        "subsample": args.subsample,
        "guarantee": args.guarantee,
        "instance": {
            "nodes": instance.n,
            "edges": instance.edge_count,
            "red": instance.red_count,
            "blue": instance.blue_count,
            "source": args.gen or f"{args.edges}+{args.partition}",
        },
    }
    with open(args.output + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def _comma_list(cast):
    def parse(text):
        return [cast(tok) for tok in text.split(",") if tok.strip()]
    return parse


def _add_instance_flags(p):
    p.add_argument("--edges", help="edge list file, one 'u v' per line")
    p.add_argument("--partition", help="partition file, one 'node R|B' per line")
    p.add_argument("--gen", help="generator spec 'family;key=value;...'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hitmin",
        description="Shortcut selection benchmark for red-to-blue hitting times",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="sweep algorithms over budget fractions")
    _add_instance_flags(p_run)
    p_run.add_argument("--algorithms", type=_comma_list(str),
                       default=["greedy"],
                       help=f"comma list from: {', '.join(ALGORITHMS)}")
    p_run.add_argument("--fractions", type=_comma_list(float),
                       default=DEFAULT_FRACTIONS,
                       help="budget fractions k/|R| (default 0.05..0.5)")
    p_run.add_argument("--reps", type=int, default=10,
                       help="repetitions for randomized algorithms")
    p_run.add_argument("--seed", type=int, default=None,
                       help="master seed (required for randomized algorithms)")
    p_run.add_argument("--epsilon", type=float, default=0.1)
    p_run.add_argument("--delta", type=float, default=0.1)
    p_run.add_argument("--spectral-bound", dest="spectral_bound",
                       type=float, default=None,
                       help="walk-length knob (default 0.1; any negative value "
                            "forces computation; --guarantee computes it and "
                            "rejects a nonnegative value)")
    p_run.add_argument("--subsample", type=float, default=0.1,
                       help="fraction of red start nodes per estimate")
    p_run.add_argument("--guarantee", action="store_true",
                       help="derive every estimator knob from the proofs")
    p_run.add_argument("--config", help="JSON file overriding any flag above")
    p_run.add_argument("--output", required=True, help="CSV output path")

    p_ver = sub.add_parser("verify", help="run instance property checks")
    _add_instance_flags(p_ver)
    p_ver.add_argument("--level", choices=("fast", "full"), default="fast")
    p_ver.add_argument("--seed", type=int, default=None)

    p_gen = sub.add_parser("gen", help="write synthetic instance files")
    p_gen.add_argument("--spec", required=True,
                       help="generator spec 'family;key=value;...'")
    p_gen.add_argument("--out-prefix", required=True,
                       help="writes <prefix>.edges and <prefix>.partition")
    p_gen.add_argument("--seed", type=int, default=None)

    p_eval = sub.add_parser("eval", help="score one shortcut list exactly")
    _add_instance_flags(p_eval)
    p_eval.add_argument("--shortcuts", default="",
                        help="comma list of red endpoint names, may repeat")
    p_eval.add_argument("--seed", type=int, default=None)
    return parser


# The JSON value each `run` config key takes, as its flag would parse it: a
# type, or a one-element list for a list of that type, which a comma string
# also gives.  Keys whose flag defaults to None also take null.
_CONFIG_KINDS = {
    "edges": str, "partition": str, "gen": str, "config": str, "output": str,
    "algorithms": [str], "fractions": [float], "reps": int, "seed": int,
    "epsilon": float, "delta": float, "spectral_bound": float,
    "subsample": float, "guarantee": bool,
}
_CONFIG_NULLABLE = {"edges", "partition", "gen", "config", "seed", "spectral_bound"}


def _is_kind(value, kind):
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def _apply_config_file(args):
    if not getattr(args, "config", None):
        return
    with open(args.config) as fh:
        try:
            overrides = json.load(fh)
        except ValueError as exc:
            raise InvalidParameter(
                f"config file {args.config} is not valid JSON: {exc}") from exc
    if not isinstance(overrides, dict):
        raise InvalidParameter("config file must hold a JSON object")
    for key, value in overrides.items():
        if key not in _CONFIG_KINDS:
            raise InvalidParameter(f"unknown config key {key!r}")
        kind = _CONFIG_KINDS[key]
        if isinstance(kind, list):
            if isinstance(value, str):
                try:
                    value = _comma_list(kind[0])(value)
                except ValueError as exc:
                    raise InvalidParameter(f"config key {key!r}: {exc}") from exc
            ok = isinstance(value, list) and all(_is_kind(v, kind[0]) for v in value)
            expected = f"a list of {kind[0].__name__} or a comma string"
        else:
            ok = _is_kind(value, kind) or (value is None and key in _CONFIG_NULLABLE)
            expected = kind.__name__
        if not ok:
            raise InvalidParameter(
                f"config key {key!r} must be {expected}, got {value!r}")
        setattr(args, key, value)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            _apply_config_file(args)
            if any(a in RANDOMIZED for a in args.algorithms) and args.seed is None:
                parser.error("--seed is required when running "
                             "greedy_plus or pure_random")
            instance = _load_from_args(args)
            rows = run_sweep(instance, args)
            _write_results(rows, args, instance)
            print(f"{len(rows)} rows -> {args.output}")
            return 0
        if args.verb == "verify":
            instance = _load_from_args(args)
            results = run_checks(instance, args.level)
            print(summarize(results))
            return 1 if has_failure(results) else 0
        if args.verb == "gen":
            instance = parse_gen_spec(args.spec, args.seed)
            edges_path = args.out_prefix + ".edges"
            part_path = args.out_prefix + ".partition"
            with open(edges_path, "w") as fh:
                fh.write("\n".join(instance.to_edge_lines()) + "\n")
            with open(part_path, "w") as fh:
                fh.write("\n".join(instance.to_partition_lines()) + "\n")
            print(f"{instance!r} -> {edges_path}, {part_path}")
            return 0
        if args.verb == "eval":
            instance = _load_from_args(args)
            endpoints = [instance.index_of(tok.strip())
                         for tok in args.shortcuts.split(",") if tok.strip()]
            shortcuts = ShortcutSet(endpoints)
            profile = hitting_to_blue(instance, shortcuts)
            out = {
                "g": profile.mean_time,
                "f": profile.max_time,
                "edges": len(shortcuts),
            }
            print(json.dumps(out))
            return 0
    except (HitminError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser.error(f"unknown verb {args.verb!r}")


if __name__ == "__main__":
    sys.exit(main())
