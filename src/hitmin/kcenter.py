"""Max-objective machinery: hitting-time quasi-metric and center-based shortcuts.

Expected hitting times between red nodes, together with a synthetic point
standing in for the whole blue group, form a quasi-metric: the triangle
inequality holds but symmetry does not.  The table comes from one
factorization of the exact solver's absorbing-chain matrix with one node
absorbing, with the direct solver as a checked fallback
(``build_quasi_metric``).  Placing at most k centers under
that metric (the blue point is a free fixed center) and wiring each center
to the blue side gives a heuristic shortcut set for the max objective; no
approximation factor is proved here, and the covering radius is a
diagnostic, not a bound on the optimum.  The mean-objective greedy can also
be reused directly, with a group-size-dependent factor between the two
objectives.  ``lower_bound_check`` holds the one proved lower bound on the
best max hitting time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InstanceTooLarge, InvalidParameter
from .exact import (DENSE_NODE_LIMIT, SOLVE_BLOCK, _chain, _factored, _passes,
                    _residual, hitting_to_blue, hitting_to_target)
from .graph import ShortcutSet
from .optimize import GreedyTrace, brute_force_opt, greedy_exact

__all__ = [
    "QuasiMetric",
    "CenterSolution",
    "build_quasi_metric",
    "asym_k_center_fixed",
    "kcenter_shortcuts",
    "minmax_via_mean",
    "lower_bound_check",
    "MAX_DENSE_RED",
]

# dense table memory cap: (5000+1)^2 doubles is about 200 MB
MAX_DENSE_RED = 5000


@dataclass(frozen=True)
class QuasiMetric:
    """Dense table of expected-step distances on the red nodes plus one
    synthetic point for the blue group.

    Row and column order follows ``red_ids`` (ascending node id); the last
    index is the blue point.  Entry [u, v] is the expected number of steps
    for a walk started at u to first reach v.  Diagonal entries are zero
    and the triangle inequality holds, but the table is not symmetric.
    ``fallback_columns`` counts the red-target columns that missed the
    residual gate on the factored path and were re-solved directly.
    """

    red_ids: np.ndarray
    table: np.ndarray
    fallback_columns: int = 0

    @property
    def blue_index(self) -> int:
        return len(self.red_ids)


@dataclass(frozen=True)
class CenterSolution:
    """Chosen centers (red node ids, ascending) and their covering radius.

    The radius is recomputed from the table after the search: the largest,
    over all red nodes, of the distance to the nearest chosen center or to
    the blue point.  It is a diagnostic, not a lower bound on the max
    objective: one shortcut lowers every node's time at once, so the best
    achievable max time can sit below it.
    """

    centers: tuple
    radius: float


def build_quasi_metric(instance, dense_limit=DENSE_NODE_LIMIT) -> QuasiMetric:
    """Assemble the full distance table from one factorization.

    With L = D - A the graph Laplacian, d the degree vector and m the edge
    count, the hitting times h = H(., v) to a node v solve
    L h = d - 2m e_v with h_v = 0; in closed form
    H(u, v) = 2m (L+_vv - L+_uv) + (L+ d)_u - (L+ d)_v
    (Tetali, "Random walks and the effective resistance of networks", 1991;
    Lovasz, "Random walks on graphs: a survey", 1993).  Instead of the
    pseudo-inverse, the system is divided by the degrees row by row and
    grounded at the highest-degree node g (its row and column removed, its
    value fixed at 0): (I - P)_g x = 1 - (2m / d_v) e_v, the absorbing-chain
    system with g absorbing, built once by ``exact._chain`` and factored once
    by ``exact._factored``.  The red targets' right-hand sides are solved
    ``SOLVE_BLOCK`` columns at a time, with one refinement pass on the same
    factor that reads ``exact._residual``, and each column is shifted so
    h_v = 0.

    Each column must then pass ``exact``'s one gate, ``_passes``, on its
    residual 1 - (I - P) h over the whole graph, every node but v, as every
    exact solution does.  A column that misses it, NaN included, is
    re-solved with ``hitting_to_target`` and counted in
    ``fallback_columns``.  The blue-point row holds the worst blue starting
    node; the blue-point column comes from one ``hitting_to_blue`` solve.

    ``dense_limit`` picks dense or sparse LU for the grounded factor and for
    the direct path of those two solvers.  It picks nothing for their CG
    path, which serves a large cycle-rich block first.
    """
    red_ids = np.asarray(instance.red_ids)
    r = len(red_ids)
    if r > MAX_DENSE_RED:
        raise InstanceTooLarge(
            f"{r} red nodes exceed the dense table cap {MAX_DENSE_RED}"
        )
    blue_ids = np.asarray(instance.blue_ids)
    table = np.zeros((r + 1, r + 1))
    table[:r, r] = hitting_to_blue(instance, dense_limit=dense_limit).times

    nodes = np.arange(instance.n)
    # the gate reads the whole graph's chain, so it also checks the grounded
    # node's dropped equation, whose residual is minus the degree-weighted
    # sum of all the others divided by that node's degree; grounded at a
    # degree-1 node (a lollipop's blue head), most columns missed the gate
    full, deg = _chain(instance, nodes, instance.degrees)
    ground = int(np.argmax(instance.degrees))
    grounded = _chain(instance, np.delete(nodes, ground), instance.degrees)
    solve, _ = _factored(*grounded, dense_limit)

    fallbacks = 0
    for lo in range(0, r, SOLVE_BLOCK):
        targets = red_ids[lo:lo + SOLVE_BLOCK]
        h = _target_columns(solve, grounded, ground, deg, targets)
        # a target's own row is h_v = 0, not a walk equation
        residual = _residual(full, deg, h, 1.0)
        residual[targets, np.arange(targets.size)] = 0.0
        for j in np.flatnonzero(~_passes(residual)):
            h[:, j] = hitting_to_target(instance, int(targets[j]), dense_limit)
            fallbacks += 1
        table[:r, lo:lo + targets.size] = h[red_ids]
        table[r, lo:lo + targets.size] = h[blue_ids].max(axis=0)
    return QuasiMetric(red_ids=red_ids, table=table, fallback_columns=fallbacks)


def _target_columns(solve, grounded, ground, deg, targets):
    """Hitting times from every node to each target, one column per target.

    Solves the row-scaled grounded system, whose chain is ``grounded``, for
    the right-hand sides 1 - (2m / d_v) e_v, refines once with the same
    factor, and shifts each column to 0 at its target.  A target at the
    grounded node keeps the all-ones right-hand side: its row is the one
    dropped.
    """
    cols = np.arange(targets.size)
    rows = targets - (targets > ground)
    kept = targets != ground
    rhs = np.ones((deg.size - 1, targets.size))
    rhs[rows[kept], cols[kept]] -= deg.sum() / deg[targets[kept]]
    x = solve(rhs)
    x += solve(_residual(*grounded, x, rhs))
    h = np.insert(x, ground, 0.0, axis=0)
    h -= h[targets, cols]
    return h


def _greedy_cover(table, r_count, blue_col, radius, k):
    """Try to cover every red point with at most k centers at this radius.

    Points already within the radius of the blue point need no center.
    Remaining demand is met greedily: the center covering the most still
    uncovered points wins each round, ties to the lowest node index.
    Returns the chosen center indices or None when k centers do not
    suffice under this rule.
    """
    uncovered = table[:r_count, blue_col] > radius
    reach = table[:r_count, :r_count] <= radius
    centers: list[int] = []
    while uncovered.any():
        if len(centers) == k:
            return None
        gains = reach[uncovered].sum(axis=0)
        u = int(np.argmax(gains))
        centers.append(u)
        uncovered &= ~reach[:, u]
    return centers


def asym_k_center_fixed(qm: QuasiMetric, k: int) -> CenterSolution:
    """Place at most k centers so every red point is near one, or near the
    free blue-point center.

    Binary search over the distinct table values finds the smallest radius
    the greedy cover certifies feasible; the reported radius is then
    recomputed from the chosen centers and can only be smaller.  The
    result is always feasible (at most k centers); how close the radius is
    to optimal is checked against brute force on small instances rather
    than proven.
    """
    if k < 1:
        raise InvalidParameter(f"center budget k must be >= 1, got {k}")
    r_count = qm.blue_index
    table = qm.table
    values = np.unique(table)

    lo, hi = 0, len(values) - 1
    # the largest table value always covers everything through b alone
    best = _greedy_cover(table, r_count, r_count, values[hi], k)
    while lo < hi:
        mid = (lo + hi) // 2
        centers = _greedy_cover(table, r_count, r_count, values[mid], k)
        if centers is not None:
            best, hi = centers, mid
        else:
            lo = mid + 1

    center_ids = tuple(int(qm.red_ids[c]) for c in sorted(best))
    cols = list(best) + [r_count]
    radius = float(table[:r_count, cols].min(axis=1).max()) if r_count else 0.0
    return CenterSolution(centers=center_ids, radius=radius)


def kcenter_shortcuts(instance, k: int, quasi_metric: QuasiMetric | None = None):
    """Shortcut selection for the max objective via center placement.

    Builds the quasi-metric, or takes ``quasi_metric``, one built by
    ``build_quasi_metric`` on this instance, so that several budgets share
    one build.  Solves the fixed-center problem, then gives every returned
    center one shortcut to the blue group.  A center already adjacent to
    every blue node stays a center but contributes no edge, so the result
    has at most k edges.
    Returns the shortcut set together with the center solution.
    """
    if k < 1:
        raise InvalidParameter(f"budget k must be >= 1, got {k}")
    qm = quasi_metric
    if qm is None:
        qm = build_quasi_metric(instance)
    elif not np.array_equal(qm.red_ids, instance.red_ids):
        raise InvalidParameter("quasi_metric was built on other red nodes")
    solution = asym_k_center_fixed(qm, k)
    endpoints = [c for c in solution.centers if instance.capacity[c]]
    return ShortcutSet(endpoints), solution


def minmax_via_mean(instance, k: int, epsilon: float = 0.1, resume=None):
    """Run the capped exact mean-objective greedy and hand its edges to the
    max objective.

    A good mean solution is a bounded-factor max solution because the two
    objectives never differ by more than a fixed power of the red group
    size.  Returns the greedy's shortcut set and trace unchanged; callers
    evaluate the max objective on the augmentation.  ``epsilon`` and
    ``resume`` go to ``greedy_exact`` as they are.  The sampled route is
    ``greedy_plus``.
    """
    if k == 0:
        # zero budget is a legal no-op here even though the greedies demand k >= 1
        return ShortcutSet(()), GreedyTrace(mode="exact", budget=0)
    return greedy_exact(instance, k, epsilon=epsilon, resume=resume)


def lower_bound_check(instance, k: int, tol: float = 1e-9,
                      max_subsets: int = 10 ** 6):
    """Exhaustively confirm a proved lower bound on the best achievable max
    hitting time with budget k.

    The bound is LB = min over red sets C with |C| <= k of
    max over red u of H_G(u, B ∪ C), the worst time to reach the blue group
    or a node of C in the original graph.  Proof that LB <= OPT_max: let C
    be the distinct red endpoints of an optimal shortcut multiset, so
    |C| <= k.  A walk in the augmented graph G' from u not in C moves
    exactly as it would in G until it reaches B ∪ C, so
    H_G'(u, B) >= H_G(u, B ∪ C).  For u in C, H_G(u, B ∪ C) = 0.  Hence
    LB <= OPT_max.

    Hitting times only fall as C grows, so only sets of size min(k, |R|)
    are enumerated.  The shortcut problem is then brute-forced under the
    max objective and the bound checked against it; a violation means a
    solver fault.  Returns (bound, best max).
    """
    red_ids = np.asarray(instance.red_ids)
    blue_ids = np.asarray(instance.blue_ids)
    r_count = len(red_ids)
    size = min(k, r_count)
    total = math.comb(r_count, size)
    if total > max_subsets:
        raise InstanceTooLarge(
            f"{total} center subsets exceed the enumeration cap {max_subsets}"
        )

    bound = math.inf
    for combo in combinations(red_ids, size):
        h = hitting_to_target(instance, np.concatenate([blue_ids, combo]))
        bound = min(bound, float(h[red_ids].max()))

    _, m_star = brute_force_opt(instance, k, objective="max")
    if bound > m_star + tol:
        raise AssertionError(
            f"lower bound {bound} exceeds brute-force max objective {m_star}"
        )
    return bound, m_star
