"""Run one workload under several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/steadiness.py --workload eval-large --seeds 1-10 --seconds 20

Runs ``run.py`` once per seed, one after another, and prints for every
end-to-end metric its median, first and third quartile
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
next to a third of the bound ``BENCHMARK.json`` gives it.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = []
    for seed in args.seeds:
        result = run_once(args.workload, seed, seconds)
        results.append(result)
        values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values}",
              flush=True)

    print(f"{'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound/3':>8s}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / statistics.median(values)
        print(f"{name:16s} {statistics.median(values):12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread:8.4f} {bound / 3:8.4f}")


if __name__ == "__main__":
    main()
