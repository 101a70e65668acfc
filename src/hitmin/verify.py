"""Instance-level self-checks wiring the property suites into one report.

Each check returns pass, fail, or skip; skips happen when an instance is
too large for the check's cost gate, never silently.  The fast level keeps
everything interactive; full widens sample sizes and pair coverage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HitminError, SolverFailure
from .estimator import (EstimatorConfig, _guarantee_knobs, empirical_hitting,
                        estimate_mean_hitting, expected_bounded_steps,
                        spectral_radius, truncation_length)
from .exact import evaluate, hitting_to_blue
from .graph import (BipartiteInstance, ShortcutSet, augmented_view,
                    candidate_endpoints, load_instance)
from .kcenter import build_quasi_metric

__all__ = ["CheckResult", "run_checks", "summarize", "has_failure"]

_PROP_TOL = 1e-7


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass | fail | skip
    detail: str = ""


def _result(name, ok, detail=""):
    return CheckResult(name, "pass" if ok else "fail", detail)


def _skip(name, detail):
    return CheckResult(name, "skip", detail)


def _check_profile(instance):
    """Whether the exact solve succeeds; ``hitting_to_blue`` enforces the
    sanity bounds itself.  Returns the result and the profile, or None when
    the solve failed."""
    try:
        profile = hitting_to_blue(instance)
    except SolverFailure as exc:
        return _result("hitting-profile", False,
                       f"{type(exc).__name__}: {exc}"), None
    return _result(
        "hitting-profile", True,
        f"mean={profile.mean_time:.6g} max={profile.max_time:.6g}",
    ), profile


def _check_monte_carlo(instance, profile, level):
    trials = 2000 if level == "fast" else 10000
    count = 2 if level == "fast" else min(len(profile.red_ids), 10)
    order = np.argsort(profile.times)
    picks = list(dict.fromkeys(
        [int(profile.red_ids[order[-1]]), int(profile.red_ids[order[0]])]
        + [int(u) for u in profile.red_ids[:count]]
    ))[:max(count, 2)]
    budget = profile.max_time * trials * len(picks)
    if budget > 3e7:
        return _skip("monte-carlo-agreement",
                     f"estimated {budget:.2g} walk steps exceed the gate")
    means, stds = empirical_hitting(instance, picks, trials=trials, seed=17)
    bad = []
    for j, u in enumerate(picks):
        exact = profile.time_of(u)
        se = stds[j] / math.sqrt(trials)
        # 4 sigma: up to ~12 nodes are tested per run, so a 3-sigma gate
        # false-alarms on a few percent of healthy instances
        if abs(means[j] - exact) > 4.0 * se + 1e-9:
            bad.append(f"node {instance.name_of(u)}: mc={means[j]:.4f} "
                       f"exact={exact:.4f} se={se:.4f}")
    return _result("monte-carlo-agreement", not bad, "; ".join(bad))


def _objectives(instance, shortcuts):
    """(g, f), the mean and max objectives, from one exact solve."""
    profile = hitting_to_blue(instance, shortcuts)
    return profile.mean_time, profile.max_time


def _check_monotone(instance, profile, level):
    steps = 2 if level == "fast" else 4
    shortcuts = ShortcutSet()
    g_prev, f_prev = profile.mean_time, profile.max_time
    for _ in range(steps):
        cands = candidate_endpoints(instance, shortcuts)
        if not cands:
            break
        shortcuts = shortcuts.with_added(cands[0])
        g_cur, f_cur = _objectives(instance, shortcuts)
        if g_cur > g_prev + _PROP_TOL or f_cur > f_prev + _PROP_TOL:
            return _result(
                "shortcut-monotonicity", False,
                f"adding {instance.name_of(cands[0])} "
                f"raised g {g_prev:.6g}->{g_cur:.6g} "
                f"or f {f_prev:.6g}->{f_cur:.6g}",
            )
        g_prev, f_prev = g_cur, f_cur
    return _result("shortcut-monotonicity", True, f"chain of {steps} additions")


def _check_supermodular(instance, profile, level):
    if instance.n > 600:
        return _skip("supermodular-pairs", f"n={instance.n} exceeds the gate")
    cands = candidate_endpoints(instance, None)
    if not cands:
        return _skip("supermodular-pairs", "no shortcut capacity")
    pool = cands[:4] if level == "fast" else cands
    pairs = [(e1, e2) for i, e1 in enumerate(pool) for e2 in pool[i:]
             if e1 != e2 or instance.capacity[e1] >= 2]
    limit = 6 if level == "fast" else 100
    pairs = pairs[:limit]
    if not pairs:
        return _skip("supermodular-pairs", "no feasible candidate pair")

    h_base = profile.times
    singles = {}
    for e in {e for pair in pairs for e in pair}:
        singles[e] = hitting_to_blue(
            instance, ShortcutSet((e,))
        ).times
    worst = 0.0
    for e1, e2 in pairs:
        h_both = hitting_to_blue(instance, ShortcutSet((e1, e2))).times
        for a, b in ((e1, e2), (e2, e1)):
            gap = (singles[b] - h_both) - (h_base - singles[a])
            worst = max(worst, float(gap.max()))
    ok = worst <= _PROP_TOL
    return _result("supermodular-pairs", ok,
                   f"{len(pairs)} pairs, worst slack {worst:.3g}")


def _check_endpoint_invariance(instance, level):
    roomy = np.flatnonzero(instance.capacity >= 2)
    if not roomy.size:
        return _skip("endpoint-invariance",
                     "no red node with two free blue partners")
    target = int(roomy[0])
    adjacent = set(int(v) for v in instance.neighbors(target))
    free = [int(b) for b in instance.blue_ids if b not in adjacent][:2]
    values = []
    base_edges = list(instance.iter_edges())
    for b in free:
        alt = BipartiteInstance(
            instance.n, base_edges + [(target, b)], instance.is_red
        )
        values.append(_objectives(alt, None))
    ok = values[0] == values[1]
    blues = ", ".join(instance.name_of(b) for b in free)
    return _result("endpoint-invariance", ok,
                   f"red {instance.name_of(target)} to blue [{blues}]: "
                   f"g/f {values[0]} vs {values[1]}")


def _check_triangle(instance, level):
    cap = 40 if level == "fast" else 120
    if instance.red_count > cap:
        return _skip("triangle-inequality",
                     f"|R|={instance.red_count} exceeds the gate {cap}")
    qm = build_quasi_metric(instance)
    d = qm.table
    worst = 0.0
    for z in range(d.shape[0]):
        via = d[:, z][:, None] + d[z, :][None, :]
        worst = max(worst, float((d - via).max()))
    ok = worst <= _PROP_TOL
    return _result("triangle-inequality", ok,
                   f"{d.shape[0]} points incl. blue, worst slack {worst:.3g}")


def _check_estimator_below(instance, profile, level):
    mean_red_degree = float(instance.degrees[instance.red_ids].mean())
    lam = spectral_radius(instance)
    ell = truncation_length(mean_red_degree, 0.2, lam)
    if ell > 2000:
        return _skip("estimator-below", f"walk bound {ell} exceeds the gate")
    p1 = expected_bounded_steps(instance, None, ell)
    gap = float((p1 - profile.times).max())
    return _result("estimator-below", gap <= 1e-9,
                   f"bounded mean under exact by >= {-gap:.3g}")


def _check_estimator_coverage(instance, profile, level):
    eps, delta = 0.2, 0.1
    view = augmented_view(instance)
    _, ell, trials = _guarantee_knobs(instance, None, view, eps, delta)
    seeds = 5 if level == "fast" else 40
    # a kernel step costs occupied (start, node) pairs times row width, at
    # most starts times the table's cells, whatever the walk count: about
    # 100 ns a unit on 2 vCPUs, so fast stays within a few seconds
    cells = sum(pvals.size for _, pvals, _ in view.buckets)
    cost = float(ell) * instance.red_count * cells * seeds
    gate = 3e7 if level == "fast" else 1e9
    if cost > gate:
        return _skip("estimator-coverage",
                     f"estimated {cost:.2g} units of walk length x starts x "
                     "count-table cells exceed the gate")
    g_exact = profile.mean_time
    hits = 0
    for seed in range(seeds):
        cfg = EstimatorConfig(epsilon=eps, delta=delta, seed=seed, guarantee=True)
        est = estimate_mean_hitting(instance, None, cfg)
        if abs(est.value - g_exact) <= eps * g_exact:
            hits += 1
    need = seeds if level == "fast" else math.ceil(0.9 * seeds)
    return _result("estimator-coverage", hits >= need,
                   f"{hits}/{seeds} within {eps:g} of exact, walk length {ell}, "
                   f"{trials} walks per node")


def _check_candidate_shrink(instance, level):
    before = candidate_endpoints(instance, None)
    if not before:
        return _skip("candidate-shrink", "no shortcut capacity")
    after = candidate_endpoints(instance, ShortcutSet((before[0],)))
    ok = set(after) <= set(before)
    return _result("candidate-shrink", ok,
                   f"{len(before)} -> {len(after)} candidates")


def _check_roundtrip(instance, profile, level):
    edges = list(instance.to_edge_lines())
    partition = list(instance.to_partition_lines())
    reloaded = load_instance(edges, partition)
    ok = (
        reloaded.n == instance.n
        and reloaded.edge_count == instance.edge_count
        and reloaded.red_count == instance.red_count
        and sorted(reloaded.degrees) == sorted(instance.degrees)
    )
    if ok:
        ok = abs(evaluate(reloaded, None, "avg") - profile.mean_time) <= 1e-9
    return _result("serialization-roundtrip", ok)


def run_checks(instance, level: str = "fast"):
    """Run every applicable property check and return the results.

    The base instance is solved once, by the profile check; the checks
    that need its times read that profile.  Details name nodes as the
    instance does (``name_of``).
    """
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    profile_result, profile = _check_profile(instance)
    results = [profile_result]
    if profile is None:
        return results

    checks = [
        lambda: _check_monte_carlo(instance, profile, level),
        lambda: _check_monotone(instance, profile, level),
        lambda: _check_supermodular(instance, profile, level),
        lambda: _check_endpoint_invariance(instance, level),
        lambda: _check_triangle(instance, level),
        lambda: _check_estimator_below(instance, profile, level),
        lambda: _check_estimator_coverage(instance, profile, level),
        lambda: _check_candidate_shrink(instance, level),
        lambda: _check_roundtrip(instance, profile, level),
    ]
    for check in checks:
        try:
            results.append(check())
        except HitminError as exc:
            results.append(CheckResult("internal", "fail",
                                       f"{type(exc).__name__}: {exc}"))
    return results


def has_failure(results) -> bool:
    return any(r.status == "fail" for r in results)


def summarize(results) -> str:
    lines = []
    for r in results:
        mark = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[r.status]
        line = f"[{mark}] {r.name}"
        if r.detail:
            line += f": {r.detail}"
        lines.append(line)
    counts = {s: sum(1 for r in results if r.status == s)
              for s in ("pass", "fail", "skip")}
    lines.append(
        f"{counts['pass']} passed, {counts['fail']} failed, "
        f"{counts['skip']} skipped"
    )
    return "\n".join(lines)
