"""hitmin benchmark: one seeded, closed-loop workload per run.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-planted --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``.  A run times several set-ups and
reports their median, then repeats the workload's operation list for
``--seconds`` seconds.  ``wall_s`` is the time of one pass, taken as the sum
over the pass's timed units (package calls) of each unit's median over the
passes, which keeps a slow spell in one pass from moving the result.  Outputs of
every pass are checked against the reference in ``reference.py`` (first pass)
or against the first pass (later passes, which must be bit-identical), outside
the timed region.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
spends half the time untraced and half with spans around every layer
boundary and reports the per-layer metrics.  The last line of standard output
is one JSON object; the lines before it give sample counts, failures by
cause, and provenance.
"""

import os

# One BLAS thread: the workloads are single-process and single-caller, and a
# second thread on a small shared machine mostly adds run-to-run noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("sweep-planted", "eval-large", "greedy-plus-guarantee")

# Set-up runs at least SETUP_MIN_REPS times before the passes, and again after
# each untraced pass for up to SETUP_SHARE of that pass's time, so that its
# median samples the whole run rather than its first second.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 5000
SETUP_SHARE = 0.1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_revision() -> str:
    # the ceiling keeps git from searching the directories above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except Exception:  # older releases print instead of returning dicts
            return "unknown"

    return {
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def timed_setup(workload, times):
    """Build the inputs and warm up once; append the duration to ``times``."""
    from workloads import warm_up

    t0 = time.perf_counter()
    inputs = workload.setup()
    warm_up()
    times.append(time.perf_counter() - t0)
    return inputs


def more_setups(workload, times, budget):
    """Time further set-ups while the next one is expected to fit in ``budget``."""
    spent = 0.0
    while (len(times) < SETUP_MAX_REPS
           and spent + statistics.median(times) <= budget):
        t0 = time.perf_counter()
        timed_setup(workload, times)
        spent += time.perf_counter() - t0


def timed_passes(workload, inputs, seconds, on_pass=None):
    """Repeat the operation list until ``seconds`` have passed (at least once).

    Returns each pass's outcomes, each pass's duration and the duration of
    every timed unit of every pass.
    """
    passes, walls, units = [], [], []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        outcomes, unit_times = workload.run_pass(inputs)
        walls.append(time.perf_counter() - t0)
        passes.append(outcomes)
        units.append(unit_times)
        if on_pass is not None:
            on_pass(walls[-1])
    return passes, walls, units


def unit_median_sum(units) -> float:
    """Sum over timed units of the unit's median duration across passes."""
    return sum(statistics.median(column) for column in zip(*units))


def tally(workload, inputs, passes):
    """Check every pass; return attempted, failed, wrong, causes and ratios."""
    first = passes[0]
    mismatches, ratios = workload.check(inputs, first)
    prints = [None if o.error else workload.fingerprint(o.value) for o in first]
    attempted = failed = wrong = 0
    causes = Counter()
    for outcomes in passes:
        for i, out in enumerate(outcomes):
            attempted += 1
            cause = None
            if out.error is not None:
                cause = f"raised {out.error}"
            elif first[i].error is not None or workload.fingerprint(out.value) != prints[i]:
                cause = "output differs from the first pass"
            elif out.op in mismatches:
                cause = mismatches[out.op]
            if cause is None:
                continue
            failed += 1
            wrong += not cause.startswith("raised ")
            causes[f"{out.op.split('/')[0]}: {cause}"] += 1
    return attempted, failed, wrong, causes, ratios


def summary(values) -> str:
    values = sorted(values)
    return (f"median {statistics.median(values):.6g} min {values[0]:.6g} "
            f"max {values[-1]:.6g} (n={len(values)})")


def traced_run(workload, inputs, seconds, span_file):
    """Half of ``seconds`` untraced, half traced; per-layer metrics of the traced passes.

    Returns every pass's outcomes, the per-layer metrics and notes to print.
    Times are medians over traced passes; counts come from the first traced
    pass and must repeat in every other one.
    """
    import tracing

    tracer = tracing.Tracer()
    with tracer:
        workload.setup()
    gen_s = tracing.generator_seconds(tracer.spans, 0, len(tracer.spans))
    plain, plain_walls, _units = timed_passes(workload, inputs, seconds / 2)
    bounds = [len(tracer.spans)]
    with tracer:
        traced, traced_walls, _units = timed_passes(
            workload, inputs, seconds / 2,
            on_pass=lambda _wall: bounds.append(len(tracer.spans)))
    layer = [tracing.layer_metrics(tracer.spans, lo, hi, wall)
             for lo, hi, wall in zip(bounds, bounds[1:], traced_walls)]
    layer_values = {
        "generators.gen_s": gen_s,
        "bench.trace_overhead_s": (statistics.median(traced_walls)
                                   - statistics.median(plain_walls)),
    }
    notes = {"untraced_pass_s": summary(plain_walls),
             "traced_pass_s": summary(traced_walls)}
    for name, unit in tracing.LAYER_UNITS.items():
        if name in layer_values:
            continue
        values = [m[name] for m in layer]
        if unit == "count":
            if len(set(values)) > 1:
                notes.setdefault("counts_differing_between_passes", []).append(name)
            layer_values[name] = values[0]
        else:
            layer_values[name] = statistics.median(values)
    metrics = {name: {"value": layer_values[name], "unit": unit}
               for name, unit in tracing.LAYER_UNITS.items()}
    span_file.parent.mkdir(exist_ok=True)
    tracer.dump(span_file)
    notes["spans"] = str(span_file.relative_to(ROOT))
    return plain + traced, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hitmin" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    setup_times = []
    for _ in range(SETUP_MIN_REPS):
        inputs = None  # drop the previous inputs before building new ones
        inputs = timed_setup(workload, setup_times)

    if args.trace:
        span_file = SPAN_DIR / f"{args.workload}-seed{args.seed}.spans.json"
        passes, metrics, notes = traced_run(workload, inputs, args.seconds, span_file)
    else:
        passes, walls, units = timed_passes(
            workload, inputs, args.seconds,
            on_pass=lambda wall: more_setups(workload, setup_times,
                                             SETUP_SHARE * wall))
        # read before tally(), whose reference solves would add their own peak
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, wrong, causes, ratios = tally(workload, inputs, passes)
    if not args.trace:
        metrics = {
            "wall_s": {"value": unit_median_sum(units), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ok_share": {"value": (attempted - failed) / attempted, "unit": "ratio"},
            "objective_ratio": {"value": statistics.fmean(ratios) if ratios else 1.0,
                                "unit": "ratio"},
        }
        notes = {
            "wall_s": (f"{metrics['wall_s']['value']:.6g} = sum of medians of "
                       f"{len(units[0])} timed units over {len(units)} passes"),
            "pass_s": summary(walls),
            "setup_s": summary(setup_times),
            "objective_ratio": (f"mean over {len(ratios)} selections" if ratios
                                else "not applicable, reads 1.0"),
        }
    notes["fail_share"] = f"{failed}/{attempted} = {failed / attempted:.6g}"
    correct = wrong == 0 and "counts_differing_between_passes" not in notes

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes, {attempted} operations, {failed} failed")
    for name, text in notes.items():
        print(f"  {name}: {text}")
    for cause, count in sorted(causes.items()):
        print(f"  failure: {cause} x{count}")
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
