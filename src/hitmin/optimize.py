"""Budgeted shortcut selection: greedy variants, brute force, baselines.

The mean objective is supermodular in the shortcut multiset, so stale
greedy marginals are valid upper bounds and a lazy priority queue returns
exactly the eager result while evaluating fewer candidates.  With sampled
evaluation that bound argument no longer holds, so the sampled greedy
scores every candidate in every iteration.
"""

from __future__ import annotations

import heapq
import math
import time
import warnings
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .errors import InstanceTooLarge, InvalidParameter
from .estimator import EstimatorConfig, estimate_mean_hitting
from .exact import evaluate, hitting_to_blue
from .graph import ShortcutSet, candidate_endpoints

__all__ = [
    "TraceEntry",
    "GreedyTrace",
    "greedy_exact",
    "greedy_plus",
    "brute_force_opt",
    "pure_random",
    "top_hitting_baseline",
    "iteration_budget",
]

# A best marginal decrease at or below this is treated as "no improvement".
_MARGINAL_FLOOR = 1e-12


@dataclass(frozen=True)
class TraceEntry:
    endpoint: int
    value: float
    evaluations: int
    wall_ms: float


@dataclass
class GreedyTrace:
    """Per-iteration record of a greedy run.

    ``value`` is the objective the algorithm itself saw after inserting the
    endpoint: exact means for the exact variant, estimates for the sampled
    one.  Evaluation and wall-time counters are cumulative.
    """

    mode: str
    budget: int
    entries: list = field(default_factory=list)

    @property
    def values(self) -> list[float]:
        return [e.value for e in self.entries]

    @property
    def endpoints(self) -> list[int]:
        return [e.endpoint for e in self.entries]

    @property
    def evaluations(self) -> int:
        return self.entries[-1].evaluations if self.entries else 0


def iteration_budget(k: int, n: int, epsilon: float, estimated: bool = False) -> int:
    """Iteration count that makes the greedy approximation argument go through."""
    if k < 1:
        raise InvalidParameter(f"budget k must be >= 1, got {k}")
    if epsilon <= 0:
        raise InvalidParameter(f"epsilon must be positive, got {epsilon}")
    factor = 2 * k if estimated else k
    return math.ceil(factor * math.log(float(n) ** 3 / epsilon))


def greedy_exact(instance, k: int, epsilon: float = 0.1, cap_at_k: bool = True):
    """Greedy insertion of shortcut endpoints under the exact mean objective.

    Runs for k iterations when ``cap_at_k`` is set, otherwise for the full
    iteration budget that yields a (1+epsilon)-approximation with extra
    edges.  Ties break toward the lowest node index.  Returns the chosen
    multiset and a trace.
    """
    if k < 1:
        raise InvalidParameter(f"budget k must be >= 1, got {k}")
    if epsilon <= 0:
        raise InvalidParameter(f"epsilon must be positive, got {epsilon}")
    tau = k if cap_at_k else iteration_budget(k, instance.n, epsilon)
    trace = GreedyTrace(mode="exact", budget=tau)

    def measure(sc, endpoint, iteration):
        return evaluate(instance, sc, "avg")

    selected = _greedy_loop(instance, tau, measure, trace, exact=True)
    return selected, trace


def greedy_plus(instance, k: int, epsilon: float = 0.1,
                estimator_config: EstimatorConfig | None = None,
                cap_at_k: bool = True):
    """Greedy insertion driven by the sampled mean-hitting estimator.

    In guarantee mode the algorithm epsilon must not exceed 1/(4k); the
    doubled iteration budget then gives a (2+epsilon)-approximation with
    high probability.  Every candidate evaluation draws from a seed stream
    keyed by (iteration, candidate) so reruns are reproducible.
    """
    if k < 1:
        raise InvalidParameter(f"budget k must be >= 1, got {k}")
    if epsilon <= 0:
        raise InvalidParameter(f"epsilon must be positive, got {epsilon}")
    config = estimator_config or EstimatorConfig(epsilon=epsilon)
    if config.guarantee and epsilon > 1.0 / (4 * k) + 1e-15:
        raise InvalidParameter(
            f"guarantee mode needs epsilon <= 1/(4k) = {1.0 / (4 * k)}, got {epsilon}"
        )
    tau = k if cap_at_k else iteration_budget(k, instance.n, epsilon, estimated=True)
    trace = GreedyTrace(mode="estimated", budget=tau)

    def measure(sc, endpoint, iteration):
        cfg = config.reseeded(iteration, endpoint)
        return estimate_mean_hitting(instance, sc, cfg).value

    selected = _greedy_loop(instance, tau, measure, trace, exact=False)
    return selected, trace


def _greedy_loop(instance, tau, measure, trace, exact):
    """Greedy insertion shared by both variants.

    The exact greedy is lazy; the sampled greedy scores every candidate in
    every iteration and keeps the first strict minimum.
    """
    start = time.perf_counter()
    selected = ShortcutSet()
    evals = 0
    if exact:
        current = measure(selected, instance.n, 0)
        evals += 1
        # lazy queue of (-marginal, endpoint, stamp, value); an entry may only
        # win after being refreshed at the current iteration, which reproduces
        # the eager argmin with the same lowest-index tie-break
        heap = [(-math.inf, r, -1, math.inf)
                for r in candidate_endpoints(instance, selected)]
        heapq.heapify(heap)

    for i in range(tau):
        cands = candidate_endpoints(instance, selected)
        if not cands:
            break

        best = None
        best_value = None
        if exact:
            cand_set = set(cands)
            while heap:
                neg_delta, r, stamp, value = heapq.heappop(heap)
                if r not in cand_set:
                    continue
                if stamp == i:
                    best, best_value = r, value
                    break
                value = measure(selected.with_added(r), r, i)
                evals += 1
                heapq.heappush(heap, (-(current - value), r, i, value))
            if best is None or current - best_value <= _MARGINAL_FLOOR:
                break
            # the winner's fresh marginal stays a valid upper bound for the
            # next iteration under supermodularity
            heapq.heappush(heap, (-(current - best_value), best, i, best_value))
            current = best_value
        else:
            for r in cands:
                value = measure(selected.with_added(r), r, i)
                evals += 1
                # exact comparison, not floor-banded: the same raw-float
                # order the lazy queue applies
                if best_value is None or value < best_value:
                    best, best_value = r, value

        selected = selected.with_added(best)
        trace.entries.append(TraceEntry(
            endpoint=int(best),
            value=float(best_value),
            evaluations=evals,
            wall_ms=(time.perf_counter() - start) * 1000.0,
        ))
    return selected


def brute_force_opt(instance, k: int, objective: str = "avg",
                    max_multisets: int = 10 ** 6):
    """Exhaustive search over all shortcut multisets of size at most k.

    Larger multisets are enumerated first and ties keep the first minimizer
    found, so a budget-exhausting optimum wins over a smaller one with the
    same value.  Refuses to run past ``max_multisets`` enumerations.
    """
    if k < 0:
        raise InvalidParameter(f"budget k must be >= 0, got {k}")
    cands = candidate_endpoints(instance, None)
    c = len(cands)
    total = sum(math.comb(c + s - 1, s) for s in range(k + 1)) if c else 1
    if total > max_multisets:
        raise InstanceTooLarge(
            f"{total} multisets exceed the enumeration cap {max_multisets}"
        )

    best_set = None
    best_value = None
    for size in range(k, -1, -1):
        for combo in combinations_with_replacement(cands, size):
            shortcuts = ShortcutSet(combo)
            if any(c > instance.capacity[r] for r, c in shortcuts.counts().items()):
                continue
            value = evaluate(instance, shortcuts, objective)
            if best_value is None or value < best_value - _MARGINAL_FLOOR:
                best_set, best_value = shortcuts, value
    return best_set, best_value


def pure_random(instance, k: int, seed: int) -> ShortcutSet:
    """Uniform random endpoints with replacement, re-drawing on conflicts.

    Draws whose blue slots are exhausted are rejected and re-drawn.  If
    every candidate saturates before k picks the result comes out shorter
    than k, with a warning.
    """
    if k < 0:
        raise InvalidParameter(f"budget k must be >= 0, got {k}")
    rng = np.random.default_rng(int(seed))
    cands = candidate_endpoints(instance, None)
    if not cands:
        if k > 0:
            warnings.warn("no shortcut capacity left; returning an empty set",
                          stacklevel=2)
        return ShortcutSet()
    spare = instance.capacity.copy()
    chosen: list[int] = []
    while len(chosen) < k:
        if not spare.any():
            warnings.warn(
                f"capacity exhausted after {len(chosen)} of {k} shortcuts",
                stacklevel=2,
            )
            break
        r = cands[int(rng.integers(0, len(cands)))]
        if not spare[r]:
            continue
        spare[r] -= 1
        chosen.append(r)
    return ShortcutSet(chosen)


def top_hitting_baseline(instance, k: int) -> ShortcutSet:
    """One shortcut each at the k candidates with the largest hitting time."""
    if k < 0:
        raise InvalidParameter(f"budget k must be >= 0, got {k}")
    profile = hitting_to_blue(instance)
    cands = candidate_endpoints(instance, None)
    order = sorted(cands, key=lambda r: (-profile.time_of(r), r))
    return ShortcutSet(order[:k])
