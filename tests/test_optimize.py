"""Greedy insertion, baselines, and the brute-force oracle."""

import pytest

from hitmin import (
    BipartiteInstance,
    EstimatorConfig,
    InstanceTooLarge,
    InvalidParameter,
    ShortcutSet,
    brute_force_opt,
    candidate_endpoints,
    evaluate,
    gen_lollipop,
    gen_planted_two_community,
    gen_star_path_clique,
    greedy_exact,
    greedy_plus,
    iteration_budget,
    pure_random,
    top_hitting_baseline,
)
from hitmin import optimize


def test_iteration_budget_frozen_values():
    assert iteration_budget(2, 5, 0.1) == 15
    assert iteration_budget(2, 5, 0.1, estimated=True) == 29


def test_iteration_budget_validation():
    with pytest.raises(InvalidParameter):
        iteration_budget(0, 5, 0.1)
    with pytest.raises(InvalidParameter):
        iteration_budget(2, 5, 0.0)


def test_greedy_exact_path5(path5):
    shortcuts, trace = greedy_exact(path5, 1)
    assert shortcuts.endpoints == (0,)
    assert trace.values == [pytest.approx(2.75, abs=1e-9)]
    shortcuts, trace = greedy_exact(path5, 2)
    assert shortcuts.endpoints == (0, 4)
    assert trace.values == [pytest.approx(2.75, abs=1e-9), pytest.approx(2.0, abs=1e-9)]
    assert trace.mode == "exact"
    assert trace.budget == 2


def test_greedy_exact_validation(path5):
    with pytest.raises(InvalidParameter):
        greedy_exact(path5, 0)
    with pytest.raises(InvalidParameter):
        greedy_exact(path5, 1, epsilon=-0.2)


def _picks(trace):
    return [(e.endpoint, e.value, e.evaluations, e.solves) for e in trace.entries]


def test_greedy_exact_runs_are_prefixes_and_resume(path5):
    # path5 saturates after two picks, so its runs at k >= 3 stop early
    planted = gen_planted_two_community(8, 8, 0.5, 0.2, 2)
    for inst, top in ((path5, 4), (planted, 6)):
        runs = {k: greedy_exact(inst, k) for k in range(1, top + 1)}
        assert len(runs[top][1].entries) == (2 if inst is path5 else top)
        for k, (_, trace) in runs.items():
            for longer in range(k + 1, top + 1):
                assert _picks(runs[longer][1])[:k] == _picks(trace)
        # resume from every earlier run: upward, downward (truncation) and
        # from a run that stopped early
        for k, (fresh_sel, fresh) in runs.items():
            for earlier in runs.values():
                entries = earlier[1].entries
                before = list(entries)
                sel, trace = greedy_exact(inst, k, resume=earlier)
                assert earlier[1].entries is entries and entries == before
                assert trace.entries is not entries
                assert sel == fresh_sel
                assert _picks(trace) == _picks(fresh)
                assert (trace.mode, trace.budget) == (fresh.mode, fresh.budget)
                walls = [e.wall_ms for e in trace.entries]
                assert walls == sorted(walls)
                shared = min(len(before), len(walls))
                assert walls[:shared] == [e.wall_ms for e in before[:shared]]
    with pytest.raises(InvalidParameter):
        greedy_exact(path5, 2, cap_at_k=False, resume=runs[1])
    with pytest.raises(InvalidParameter):
        greedy_exact(path5, 2, resume=(ShortcutSet(), optimize.GreedyTrace("estimated", 1)))


def test_greedy_stops_when_saturated(path3):
    # only one red node can still reach a new blue partner
    shortcuts, trace = greedy_exact(path3, 2)
    assert shortcuts.endpoints == (0,)
    assert evaluate(path3, shortcuts, objective="avg") == pytest.approx(2.0)
    assert evaluate(path3, shortcuts, objective="max") == pytest.approx(2.0)


def test_greedy_uncapped_exhausts_candidates(path5):
    shortcuts, trace = greedy_exact(path5, 1, cap_at_k=False)
    assert trace.budget == 8  # ceil(ln(125 / 0.1))
    assert shortcuts.endpoints == (0, 4)


def test_greedy_trace_strictly_decreases(path5):
    _, trace = greedy_exact(path5, 2)
    values = trace.values
    assert all(b < a for a, b in zip(values, values[1:]))


def _eager_greedy(inst, k):
    # every candidate solved exactly in every iteration, ascending, first
    # strict minimum kept; stops like greedy_exact once the gain is at most
    # 1e-12
    selected, endpoints, values = ShortcutSet(), [], []
    current, evaluations = evaluate(inst, selected), 1
    for _ in range(k):
        best = best_value = None
        for r in candidate_endpoints(inst, selected):
            value = evaluate(inst, selected.with_added(r))
            evaluations += 1
            if best_value is None or value < best_value:
                best, best_value = r, value
        if best is None or current - best_value <= 1e-12:
            break
        selected, current = selected.with_added(best), best_value
        endpoints.append(best)
        values.append(best_value)
    return endpoints, values, evaluations


def test_greedy_matches_eager():
    instances = [gen_planted_two_community(5, 5, 0.5, 0.2, 100 + seed)
                 for seed in range(10)]
    # node 3's first marginal rounds below its third, so a lazy heap that
    # trusts stale marginals as bounds takes node 1 third, one ulp worse
    instances.append(gen_planted_two_community(4, 4, 0.6, 0.3, 14))
    # rank-one scores err by up to 4.8e-13 relative, and up to nine
    # candidates fall in the tie band
    instances.append(gen_lollipop(40, 10))
    for inst in instances:
        for k in (1, 2, 3, 8):
            shortcuts, trace = greedy_exact(inst, k)
            endpoints, values, evaluations = _eager_greedy(inst, k)
            assert trace.endpoints == endpoints
            assert sorted(endpoints) == list(shortcuts.endpoints)
            assert trace.values == values
            assert trace.evaluations == evaluations
            assert 1 + len(values) <= trace.solves < evaluations


def test_greedy_exact_tie_takes_lowest_index(path5):
    assert evaluate(path5, [0]) == evaluate(path5, [4])
    shortcuts, trace = greedy_exact(path5, 1)
    assert shortcuts.endpoints == (0,)
    # the base value, then both tied candidates settled exactly
    assert trace.solves == 3


def test_greedy_exact_falls_back_on_wrong_scores(monkeypatch):
    # scores in reverse order: the winner's score misses its exact value, so
    # every candidate is solved exactly and the eager result stands
    inst = gen_planted_two_community(5, 5, 0.5, 0.2, 103)
    scores = optimize._shortcut_means
    monkeypatch.setattr(optimize, "_shortcut_means",
                        lambda *args: scores(*args)[::-1])
    shortcuts, trace = greedy_exact(inst, 3)
    endpoints, values, evaluations = _eager_greedy(inst, 3)
    assert (trace.endpoints, trace.values) == (endpoints, values)
    # the base value, each iteration's tie band, then all its candidates
    assert trace.solves > evaluations


def test_greedy_plus_guarantee_needs_small_epsilon(path5):
    cfg = EstimatorConfig(epsilon=0.1, guarantee=True)
    with pytest.raises(InvalidParameter):
        greedy_plus(path5, 4, epsilon=0.1, estimator_config=cfg)


def test_greedy_plus_guarantee_needs_the_estimators_epsilon():
    # the estimates run at the config's epsilon: 0.9 would pass 1/(4k) as 0.1
    graph = gen_planted_two_community(4, 4, 0.6, 0.3, 0)
    cfg = EstimatorConfig(epsilon=0.9, guarantee=True)
    with pytest.raises(InvalidParameter, match="estimator's epsilon"):
        greedy_plus(graph, 2, epsilon=0.1, estimator_config=cfg, cap_at_k=False)


def test_greedy_plus_rejects_an_override_without_an_estimate():
    # complete bipartite 3/3: no red node can take a shortcut, so the run
    # makes no estimate, and the config's override is refused all the same
    graph = BipartiteInstance(6, [(r, 3 + b) for r in range(3) for b in range(3)],
                              [True] * 3 + [False] * 3)
    assert candidate_endpoints(graph) == []
    with pytest.raises(InvalidParameter, match="spectral_bound"):
        greedy_plus(graph, 1, epsilon=0.25, estimator_config=EstimatorConfig(
            epsilon=0.25, guarantee=True, spectral_bound=0.9))


def test_greedy_plus_deterministic_and_correct(path5):
    cfg = EstimatorConfig(epsilon=0.1, delta=0.1, seed=21, guarantee=True)
    s1, t1 = greedy_plus(path5, 2, epsilon=0.1, estimator_config=cfg)
    s2, t2 = greedy_plus(path5, 2, epsilon=0.1, estimator_config=cfg)
    assert s1.endpoints == (0, 4)
    assert s1.endpoints == s2.endpoints
    assert t1.values == t2.values
    assert t1.mode == "estimated"


def test_brute_force_frozen_optima(path5):
    best, value = brute_force_opt(path5, 2)
    assert best.endpoints == (0, 4)
    assert value == pytest.approx(2.0, abs=1e-9)
    best, value = brute_force_opt(path5, 1)
    assert best.endpoints == (0,)
    assert value == pytest.approx(2.75, abs=1e-9)
    best, value = brute_force_opt(path5, 1, objective="max")
    assert best.endpoints == (0,)
    assert value == pytest.approx(4.0, abs=1e-9)
    best, value = brute_force_opt(path5, 0)
    assert best.endpoints == ()
    assert value == pytest.approx(3.5, abs=1e-9)


def test_brute_force_size_guard(path5):
    with pytest.raises(InstanceTooLarge):
        brute_force_opt(path5, 2, max_multisets=2)


def test_pure_random_is_seeded(path5):
    a = pure_random(path5, 2, 5)
    b = pure_random(path5, 2, 5)
    assert a.endpoints == b.endpoints
    assert set(a.endpoints) <= {0, 4}


def test_pure_random_warns_when_capacity_short(path5):
    with pytest.warns(UserWarning):
        s = pure_random(path5, 3, 0)
    assert len(s) == 2


def test_top_hitting_baseline(path5):
    assert top_hitting_baseline(path5, 1).endpoints == (0,)
    assert top_hitting_baseline(path5, 2).endpoints == (0, 4)
    # more budget than candidates: take them all
    assert top_hitting_baseline(path5, 9).endpoints == (0, 4)


def test_top_hitting_picks_slowest_node():
    inst = gen_star_path_clique(16)
    s = top_hitting_baseline(inst, 1)
    assert s.endpoints == (19,)  # deepest clique node


def test_greedy_never_worse_than_top_hitting():
    for seed in range(5):
        inst = gen_planted_two_community(6, 6, 0.5, 0.15, 200 + seed)
        k = 2
        g_greedy = evaluate(inst, greedy_exact(inst, k)[0])
        g_top = evaluate(inst, top_hitting_baseline(inst, k))
        assert g_greedy <= g_top + 1e-9
