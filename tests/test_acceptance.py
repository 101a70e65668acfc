"""End-to-end acceptance checks.

Each test pins one headline guarantee of the library: exact solver values,
the pairwise-interaction counterexample for the max objective, diminishing
returns for the mean objective, approximation bounds of both greedy
variants, estimator coverage, quasi-metric structure, center lower bounds,
ratio growth on the star-path-clique family, the two-community benchmark
curves, and the scalar inequality behind the estimated-greedy proof.
"""

import time

import numpy as np
import pytest

from hitmin import (
    BipartiteInstance,
    EstimatorConfig,
    ShortcutSet,
    SolverFailure,
    brute_force_opt,
    build_quasi_metric,
    candidate_endpoints,
    empirical_hitting,
    estimate_mean_hitting,
    evaluate,
    gen_path,
    gen_planted_two_community,
    gen_star_path_clique,
    greedy_exact,
    greedy_plus,
    hitting_to_blue,
    kcenter_shortcuts,
    lower_bound_check,
    pure_random,
)
from hitmin import exact


def test_exact_solver_path_instance():
    """Hand-solved times on the 5-node path, cross-checked by simulation."""
    start = time.perf_counter()
    inst = gen_path(5, [2])
    profile = hitting_to_blue(inst)
    np.testing.assert_allclose(profile.times, [4.0, 3.0, 3.0, 4.0], atol=1e-9)
    assert profile.mean_time == pytest.approx(3.5, abs=1e-9)
    assert profile.max_time == pytest.approx(4.0, abs=1e-9)
    means, stds = empirical_hitting(inst, trials=10**5, seed=0)
    tol = 3 * stds / np.sqrt(10**5)
    assert np.all(np.abs(means - profile.times) <= tol)
    assert time.perf_counter() - start < 1.0


def test_pairwise_interaction_counterexample():
    """One endpoint pair helps the max objective although neither endpoint does."""
    inst = gen_path(5, [2])
    f_empty = evaluate(inst, objective="max")
    f_pair = evaluate(inst, ShortcutSet((0, 4)), objective="max")
    assert f_empty - f_pair == pytest.approx(2.0, abs=1e-9)
    assert f_empty - f_pair > 0
    for single in (0, 4):
        f_single = evaluate(inst, ShortcutSet((single,)), objective="max")
        assert f_empty - f_single == pytest.approx(0.0, abs=1e-9)


def test_diminishing_returns_sweep():
    """Mean-objective marginals shrink as the shortcut set grows.

    All candidate endpoint pairs on 100 random two-community instances,
    doubles included where a second blue partner exists.
    """
    start = time.perf_counter()
    worst = -np.inf
    for i in range(100):
        inst = gen_planted_two_community(
            4 + (i % 5) * 3, 4 + ((i * 7) % 4) * 3, 0.45, 0.2, 7000 + i
        )
        assert inst.n <= 30
        cands = candidate_endpoints(inst)
        g_empty = evaluate(inst)
        g_one = {a: evaluate(inst, ShortcutSet((a,))) for a in cands}
        spare = inst.blue_count - inst.blue_degree
        for ai, a in enumerate(cands):
            for b in cands[ai:]:
                if a == b and spare[a] < 2:
                    continue
                g_both = evaluate(inst, ShortcutSet((a, b)))
                gap = (g_one[b] - g_both) - (g_empty - g_one[a])
                worst = max(worst, gap)
                if a != b:
                    gap = (g_one[a] - g_both) - (g_empty - g_one[b])
                    worst = max(worst, gap)
    assert worst <= 1e-7
    assert time.perf_counter() - start < 300.0


def test_uncapped_greedy_bicriteria(tiny_batch):
    """Budget-relaxed greedy lands within (1 + eps) of the exact optimum."""
    eps = 0.5
    for inst in tiny_batch:
        assert inst.n == 8
        for k in (1, 2):
            _, opt_value = brute_force_opt(inst, k)
            shortcuts, _ = greedy_exact(inst, k, epsilon=eps, cap_at_k=False)
            achieved = evaluate(inst, shortcuts)
            assert achieved <= (1 + eps) * opt_value + 1e-9


def test_estimated_greedy_guarantee(tiny_batch):
    """Sampled greedy stays within (2 + eps) of optimum in >= 90% of runs."""
    hits = 0
    runs = 0
    for idx, inst in enumerate(tiny_batch):
        for k in (1, 2):
            runs += 1
            eps = 1.0 / (4 * k)
            cfg = EstimatorConfig(
                epsilon=eps, delta=0.1, seed=(1000 + idx, k), guarantee=True
            )
            shortcuts, _ = greedy_plus(
                inst, k, epsilon=eps, estimator_config=cfg, cap_at_k=False
            )
            achieved = evaluate(inst, shortcuts)
            _, opt_value = brute_force_opt(inst, k)
            if achieved <= (2 + eps) * opt_value + 1e-9:
                hits += 1
    assert runs == 100
    assert hits >= 90


def test_capped_estimated_greedy_tracks_the_exact_greedy(tiny_batch):
    """Sampled greedy capped at k picks as the exact greedy does.

    Uncapped, both greedies fill every free slot on these graphs, so the
    run above cannot tell a good estimator from a bad one.  Capped at k,
    random picks also stay within (2 + eps) of optimum, but match the exact
    greedy's picks in about one run in six.
    """
    hits = matches = 0
    for idx, inst in enumerate(tiny_batch):
        for k in (1, 2):
            eps = 1.0 / (4 * k)
            cfg = EstimatorConfig(epsilon=eps, delta=0.1, seed=(2000 + idx, k),
                                  guarantee=True)
            shortcuts, _ = greedy_plus(inst, k, epsilon=eps, estimator_config=cfg)
            _, opt_value = brute_force_opt(inst, k)
            hits += evaluate(inst, shortcuts) <= (2 + eps) * opt_value + 1e-9
            matches += shortcuts == greedy_exact(inst, k)[0]
    assert hits >= 90
    assert matches >= 70


def test_estimator_relative_coverage():
    """Sampled mean is within 20% of the exact mean in >= 90% of seeds."""
    for i in range(20):
        inst = gen_planted_two_community(5 + (i % 4), 38, 0.5, 0.3, 900 + i)
        assert inst.n <= 50
        exact = hitting_to_blue(inst).mean_time
        covered = 0
        for s in range(200):
            cfg = EstimatorConfig(
                epsilon=0.2, delta=0.1, seed=(900 + i, s), guarantee=True
            )
            est = estimate_mean_hitting(inst, config=cfg)
            if abs(est.value - exact) <= 0.2 * exact:
                covered += 1
        assert covered >= 180


def test_quasi_metric_triangle_sweep():
    """Directed triangle inequality on 50 instances, synthetic point included."""
    for i in range(50):
        inst = gen_planted_two_community(
            10 + (i % 31), 6 + (i % 7), 0.3, 0.1, 4200 + i
        )
        assert inst.red_count <= 40
        d = build_quasi_metric(inst).table
        through = d[:, :, None] + d[None, :, :]
        assert np.all(d <= through.min(axis=1) + 1e-7)
        b = d.shape[0] - 1
        # the three cases where the synthetic point takes part
        assert np.all(d[b, :] <= (d[b, :][:, None] + d).min(axis=0) + 1e-7)
        assert np.all(d[:, b] <= (d + d[:, b][None, :]).min(axis=1) + 1e-7)
        assert np.all(d <= d[:, b][:, None] + d[b, :][None, :] + 1e-7)


def test_center_radius_lower_bound(tiny_batch):
    """Best covering radius never exceeds the best achievable max time."""
    for inst in tiny_batch:
        for k in (1, 2):
            c_star, m_star = lower_bound_check(inst, k)
            assert c_star <= m_star + 1e-9


def test_ratio_bound_and_growth(monkeypatch):
    """Max-to-mean ratio is capped per profile and grows on the star family."""
    start = time.perf_counter()
    # a violating profile needs > 16 nodes: max/mean is at most the node
    # count, which only exceeds the 2 n^{3/4} cap from n = 17 up; the
    # solve is replaced, so the star's 32 red leaves only give the count
    star = BipartiteInstance(33, [(r, 32) for r in range(32)], [True] * 32 + [False])
    spiked = np.array([1.0] * 31 + [1000.0])
    with monkeypatch.context() as patch:
        patch.setattr(exact, "_transient_times", lambda *args: spiked)
        with pytest.raises(SolverFailure, match="ratio bound violated"):
            hitting_to_blue(star)
    sizes = [16, 256, 1296, 4096]
    ratios = []
    for n in sizes:
        profile = hitting_to_blue(gen_star_path_clique(n))
        ratios.append(profile.max_time / profile.mean_time)
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    slope = np.polyfit(np.log(sizes), np.log(ratios), 1)[0]
    assert slope >= 0.5
    assert time.perf_counter() - start < 120.0


def test_two_community_sweep_curves():
    """Benchmark protocol on a 200-node polarized instance."""
    start = time.perf_counter()
    inst = gen_planted_two_community(100, 100, 0.1, 0.005, 12345)
    fractions = [0.05 * j for j in range(1, 11)]
    budgets = [int(np.ceil(f * inst.red_count)) for f in fractions]

    shortcuts, trace = greedy_exact(inst, budgets[-1])
    # the trace prefix is the capped run for every smaller budget; if the
    # greedy halted early its last value stands in for the larger budgets
    values = trace.values
    greedy_curve = [values[min(k, len(values)) - 1] for k in budgets]
    assert all(b <= a + 1e-9 for a, b in zip(greedy_curve, greedy_curve[1:]))

    rng_master = 777
    for fi, k in enumerate(budgets):
        draws = [
            evaluate(inst, pure_random(inst, k, seed=rng_master + 97 * fi + r))
            for r in range(10)
        ]
        assert greedy_curve[fi] <= np.mean(draws) + 1e-9

    f_empty = evaluate(inst, objective="max")
    centers_set, _ = kcenter_shortcuts(inst, budgets[-1])
    f_centered = evaluate(inst, centers_set, objective="max")
    assert f_centered <= f_empty / 2
    assert time.perf_counter() - start < 600.0


def test_growth_rate_inequality_grid():
    """Scalar bound used by the estimated-greedy analysis, on a dense grid."""
    x = np.linspace(-1.0, 1.0, 10**4)
    rhs = np.exp(2 * x - 1)
    for k in range(1, 101):
        if k == 1:
            # the (1 - 1/k) factor vanishes; the limit value is zero
            lhs = np.zeros_like(x)
        else:
            lhs = ((k + x) / (k - x) * (1 - 1.0 / k)) ** k
        assert np.all(lhs <= rhs + 1e-12)
