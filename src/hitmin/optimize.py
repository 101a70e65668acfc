"""Budgeted shortcut selection: greedy variants, brute force, baselines.

Both greedy variants score every candidate in every iteration and keep the
first strict minimum, so ties break toward the lowest node index.  The
exact greedy scores all candidates from one factorization per iteration: a
shortcut at red r changes only row r of the red block, so a rank-one
(Sherman-Morrison) update gives every candidate's mean at once.  Exact
solves then settle the candidates within a relative tie band of the lowest
score and fix the winner's value, and an iteration whose winner's score
misses its exact value by more than a quarter of the band falls back to
scoring every candidate exactly.  The sampled greedy measures every
candidate with the estimator.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .errors import InstanceTooLarge, InvalidParameter
from .estimator import EstimatorConfig, estimate_mean_hitting
from .exact import _shortcut_means, evaluate, hitting_to_blue
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
# Exact-greedy candidates whose rank-one scores lie within this relative
# distance of the lowest score are settled by exact solves.
_TIE_BAND = 1e-12


@dataclass(frozen=True)
class TraceEntry:
    endpoint: int
    value: float
    evaluations: int
    wall_ms: float
    solves: int


@dataclass
class GreedyTrace:
    """Per-iteration record of a greedy run.

    ``value`` is the objective the algorithm itself saw after inserting the
    endpoint: exact means for the exact variant, estimates for the sampled
    one.  The counters are cumulative: ``evaluations`` counts candidates
    scored (one per candidate per iteration, plus the exact variant's base
    value), ``solves`` the exact solves made (the base value, tie settles,
    winner re-scores and fallback scans; 0 for the sampled variant), and
    ``wall_ms`` the time since the run started.
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

    @property
    def solves(self) -> int:
        return self.entries[-1].solves if self.entries else 0


def iteration_budget(k: int, n: int, epsilon: float, estimated: bool = False) -> int:
    """Iteration count that makes the greedy approximation argument go through."""
    if k < 1:
        raise InvalidParameter(f"budget k must be >= 1, got {k}")
    if epsilon <= 0:
        raise InvalidParameter(f"epsilon must be positive, got {epsilon}")
    factor = 2 * k if estimated else k
    return math.ceil(factor * math.log(float(n) ** 3 / epsilon))


def greedy_exact(instance, k: int, epsilon: float = 0.1, cap_at_k: bool = True,
                 resume=None):
    """Greedy insertion of shortcut endpoints under the exact mean objective.

    Runs for k iterations when ``cap_at_k`` is set, otherwise for the full
    iteration budget that yields a (1+epsilon)-approximation with extra
    edges.  Ties break toward the lowest node index.  Returns the chosen
    multiset and a trace.

    Each iteration depends only on the picks before it, so a capped run at
    budget k is the first k entries of a capped run at any larger budget,
    values and counters included.  ``resume`` takes an earlier
    ``(selection, trace)`` of ``greedy_exact`` on this instance and needs
    ``cap_at_k``: the first k entries are copied (the earlier trace is left
    as it was), and the run continues from the last of them only if the
    earlier run stopped at its own budget below k.  Entries the
    continuation adds time from the start of the earlier run, as if it had
    not been interrupted.
    """
    if k < 1:
        raise InvalidParameter(f"budget k must be >= 1, got {k}")
    if epsilon <= 0:
        raise InvalidParameter(f"epsilon must be positive, got {epsilon}")
    tau = k if cap_at_k else iteration_budget(k, instance.n, epsilon)
    trace = GreedyTrace(mode="exact", budget=tau)
    if resume is not None:
        earlier = resume[1]
        if not cap_at_k:
            raise InvalidParameter("resume needs cap_at_k=True")
        if earlier.mode != "exact":
            raise InvalidParameter("resume takes a greedy_exact result")
        trace.entries = earlier.entries[:k]
        if len(earlier.entries) >= k or len(earlier.entries) < earlier.budget:
            # the earlier run reached k, or stopped early where this one would
            return ShortcutSet(trace.endpoints), trace

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

    The run continues from the last entry already in ``trace``, if any: its
    selection, value, counters and wall time.  Each iteration keeps the
    first strict minimum over the candidates in ascending order.  The
    sampled greedy measures every candidate.  The exact greedy scores every
    candidate with ``_shortcut_means`` and measures, by exact solves, only
    those whose scores lie within ``_TIE_BAND`` (relative) of the lowest;
    the winner's value is always its exact one.  If all scores are within a
    quarter of the band of the exact values, a candidate outside the band
    cannot beat or tie the winner.  The winner's own error stands in for
    that: when it exceeds a quarter of the band, the iteration measures
    every candidate, as the sampled greedy does.
    """
    start = time.perf_counter()
    selected = ShortcutSet(trace.endpoints)
    evals = solves = 0
    offset_ms = 0.0
    if trace.entries:
        last = trace.entries[-1]
        current, evals, solves, offset_ms = (last.value, last.evaluations,
                                             last.solves, last.wall_ms)
    elif exact:
        current = measure(selected, instance.n, 0)
        evals = solves = 1

    def first_minimum(endpoints, iteration):
        best = best_value = None
        for r in endpoints:
            value = measure(selected.with_added(r), r, iteration)
            if best_value is None or value < best_value:
                best, best_value = r, value
        return best, best_value

    for i in range(len(trace.entries), tau):
        cands = candidate_endpoints(instance, selected)
        if not cands:
            break

        evals += len(cands)
        if exact:
            scores = _shortcut_means(instance, selected, cands)
            low = scores.min()
            band = _TIE_BAND * low
            near = [r for r, score in zip(cands, scores) if score - low <= band]
            best, best_value = first_minimum(near, i)
            solves += len(near)
            # the negated test falls back on NaN scores too
            if best is None or not (abs(scores[cands.index(best)] - best_value)
                                    <= band / 4):
                best, best_value = first_minimum(cands, i)
                solves += len(cands)
            if current - best_value <= _MARGINAL_FLOOR:
                break
            current = best_value
        else:
            best, best_value = first_minimum(cands, i)

        selected = selected.with_added(best)
        trace.entries.append(TraceEntry(
            endpoint=int(best),
            value=float(best_value),
            evaluations=evals,
            wall_ms=offset_ms + (time.perf_counter() - start) * 1000.0,
            solves=solves,
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
