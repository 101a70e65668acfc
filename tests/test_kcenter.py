"""Directed distance table, fixed-center covering, and the min-max pipeline."""

import numpy as np
import pytest

from hitmin import (
    BipartiteInstance,
    InvalidParameter,
    asym_k_center_fixed,
    build_quasi_metric,
    evaluate,
    gen_lollipop,
    gen_planted_two_community,
    gen_star_path_clique,
    hitting_to_blue,
    hitting_to_target,
    kcenter_shortcuts,
    lower_bound_check,
    minmax_via_mean,
)
from hitmin.exact import DENSE_NODE_LIMIT

PATH3_TABLE = [
    [0.0, 1.0, 4.0],
    [3.0, 0.0, 3.0],
    [4.0, 1.0, 0.0],
]

PATH5_TABLE = [
    [0.0, 1.0, 9.0, 16.0, 4.0],
    [7.0, 0.0, 8.0, 15.0, 3.0],
    [15.0, 8.0, 0.0, 7.0, 3.0],
    [16.0, 9.0, 1.0, 0.0, 4.0],
    [12.0, 5.0, 5.0, 12.0, 0.0],
]


def test_path3_table(path3):
    qm = build_quasi_metric(path3)
    assert list(qm.red_ids) == [0, 1]
    assert qm.blue_index == 2
    np.testing.assert_allclose(qm.table, PATH3_TABLE, atol=1e-9)


def test_path5_table(path5):
    qm = build_quasi_metric(path5)
    assert list(qm.red_ids) == [0, 1, 3, 4]
    np.testing.assert_allclose(qm.table, PATH5_TABLE, atol=1e-9)


def test_asymmetry_witness(path3):
    qm = build_quasi_metric(path3)
    assert qm.distance(0, 1) == pytest.approx(1.0, abs=1e-9)
    assert qm.distance(1, 0) == pytest.approx(3.0, abs=1e-9)
    assert qm.distance("b", "b") == 0.0


def test_distance_lookup_errors(path3):
    qm = build_quasi_metric(path3)
    with pytest.raises(InvalidParameter):
        qm.index_of(2)  # blue node id is not a point; use "b"
    with pytest.raises(InvalidParameter):
        qm.index_of(99)


def test_triangle_inequality_everywhere(path3, path5):
    for inst in (path3, path5):
        d = build_quasi_metric(inst).table
        m = d.shape[0]
        worst = max(
            d[x, y] - d[x, z] - d[z, y]
            for x in range(m) for y in range(m) for z in range(m)
        )
        assert worst <= 1e-7


def test_triangle_inequality_random_instances():
    for seed in range(5):
        inst = gen_planted_two_community(8, 8, 0.4, 0.1, 300 + seed)
        d = build_quasi_metric(inst).table
        # through[x, z, y] = d(x, z) + d(z, y); need d(x, y) <= all of them
        through = d[:, :, None] + d[None, :, :]
        assert np.all(d <= through.min(axis=1) + 1e-7)


def test_fixed_center_path3(path3):
    sol = asym_k_center_fixed(build_quasi_metric(path3), 1)
    assert sol.centers == (1,)
    assert sol.radius == pytest.approx(1.0, abs=1e-9)


def test_fixed_center_path5(path5):
    qm = build_quasi_metric(path5)
    sol = asym_k_center_fixed(qm, 2)
    assert sol.centers == (1, 3)
    assert sol.radius == pytest.approx(1.0, abs=1e-9)
    # single center cannot beat the free blue point's own coverage
    sol1 = asym_k_center_fixed(qm, 1)
    assert sol1.radius == pytest.approx(4.0, abs=1e-9)


def test_fixed_center_saturating_budget(path5):
    qm = build_quasi_metric(path5)
    sol = asym_k_center_fixed(qm, 4)
    assert sol.radius == 0.0
    with pytest.raises(InvalidParameter):
        asym_k_center_fixed(qm, 0)


def test_center_radius_is_recomputed(path5):
    qm = build_quasi_metric(path5)
    sol = asym_k_center_fixed(qm, 2)
    cols = [qm.index_of(c) for c in sol.centers] + [qm.blue_index]
    radius = qm.table[: len(qm.red_ids), cols].min(axis=1).max()
    assert sol.radius == pytest.approx(radius, abs=1e-12)


def test_kcenter_shortcuts_skips_saturated_centers(path5):
    # the chosen centers already touch every blue node, so nothing is added
    shortcuts, sol = kcenter_shortcuts(path5, 2)
    assert sol.centers == (1, 3)
    assert shortcuts.endpoints == ()
    assert evaluate(path5, shortcuts, objective="max") == pytest.approx(4.0)


def test_kcenter_shortcuts_complete_bipartite():
    edges = [(r, 2 + b) for r in range(2) for b in range(2)]
    inst = BipartiteInstance(4, edges, [True, True, False, False])
    shortcuts, _ = kcenter_shortcuts(inst, 1)
    assert shortcuts.endpoints == ()
    assert evaluate(inst, shortcuts, objective="max") == pytest.approx(1.0)


def test_kcenter_shortcuts_respects_budget_and_objective():
    for seed in range(5):
        inst = gen_planted_two_community(7, 7, 0.5, 0.1, 400 + seed)
        base_f = evaluate(inst, objective="max")
        for k in (1, 2, 3):
            shortcuts, _ = kcenter_shortcuts(inst, k)
            assert len(shortcuts) <= k
            assert evaluate(inst, shortcuts, objective="max") <= base_f + 1e-9


def test_minmax_via_mean_exact(path5):
    shortcuts, trace = minmax_via_mean(path5, 2, mode="exact")
    assert shortcuts.endpoints == (0, 4)
    assert evaluate(path5, shortcuts, objective="max") == pytest.approx(2.0)
    assert trace.mode == "exact"


def test_shared_quasi_metric_and_resumed_greedy_match_fresh_runs(path5):
    inst = gen_planted_two_community(8, 8, 0.5, 0.2, 2)
    qm = build_quasi_metric(inst)
    for k in (1, 2, 3):
        assert kcenter_shortcuts(inst, k, quasi_metric=qm) == kcenter_shortcuts(inst, k)
    with pytest.raises(InvalidParameter):
        kcenter_shortcuts(path5, 1, quasi_metric=qm)
    earlier = minmax_via_mean(inst, 2)
    sel, trace = minmax_via_mean(inst, 4, resume=earlier)
    fresh_sel, fresh = minmax_via_mean(inst, 4)
    assert sel == fresh_sel and trace.values == fresh.values
    assert trace.evaluations == fresh.evaluations
    with pytest.raises(InvalidParameter):
        minmax_via_mean(inst, 4, mode="estimated", resume=earlier)


def test_minmax_via_mean_estimated(path5):
    from hitmin import EstimatorConfig

    cfg = EstimatorConfig(epsilon=0.1, delta=0.1, seed=6, guarantee=True)
    shortcuts, trace = minmax_via_mean(path5, 2, mode="estimated", estimator_config=cfg)
    assert shortcuts.endpoints == (0, 4)
    assert trace.mode == "estimated"


def test_minmax_via_mean_zero_budget(path5):
    shortcuts, trace = minmax_via_mean(path5, 0)
    assert shortcuts.endpoints == ()
    assert evaluate(path5, shortcuts, objective="max") == pytest.approx(4.0)
    with pytest.raises(InvalidParameter):
        minmax_via_mean(path5, 1, mode="sampled")


def test_lower_bound_frozen(path5):
    assert lower_bound_check(path5, 1) == (pytest.approx(4.0), pytest.approx(4.0))
    c_star, m_star = lower_bound_check(path5, 2)
    assert c_star == pytest.approx(1.0)
    assert m_star == pytest.approx(2.0)
    assert c_star <= m_star


def test_lower_bound_random_instances():
    for seed in (4, 5, 7, 10, 14):
        inst = gen_planted_two_community(4, 4, 0.6, 0.3, seed)
        for k in (1, 2):
            c_star, m_star = lower_bound_check(inst, k)
            assert c_star <= m_star + 1e-9


def test_lower_bound_detects_violations():
    # when a single shortcut improves every node's time at once, the best
    # covering radius can sit above the best achievable max time, so the
    # radius is no lower bound; the center-absorption bound stays below it
    inst = gen_planted_two_community(4, 4, 0.6, 0.3, 0)
    radius = asym_k_center_fixed(build_quasi_metric(inst), 1).radius
    bound, m_star = lower_bound_check(inst, 1)
    assert radius == pytest.approx(2.6111, abs=1e-4)
    assert m_star == pytest.approx(2.4078, abs=1e-4)
    assert bound == pytest.approx(1.5)
    assert radius > m_star
    assert bound <= m_star + 1e-9


def test_lower_bound_size_guard(path5):
    from hitmin import InstanceTooLarge

    with pytest.raises(InstanceTooLarge):
        lower_bound_check(path5, 2, max_subsets=2)
    # k = 2 enumerates the comb(4, 2) = 6 red pairs, nothing smaller
    assert lower_bound_check(path5, 2, max_subsets=6) == (1, 2)
    with pytest.raises(InstanceTooLarge):
        lower_bound_check(path5, 2, max_subsets=5)


def _per_target_table(inst, dense_limit):
    # one absorbing solve per red target, as the table was first built
    red, blue = inst.red_ids, inst.blue_ids
    r = len(red)
    table = np.zeros((r + 1, r + 1))
    table[:r, r] = hitting_to_blue(inst, dense_limit=dense_limit).times
    for j, v in enumerate(red):
        h = hitting_to_target(inst, int(v), dense_limit)
        table[:r, j] = h[red]
        table[r, j] = h[blue].max()
    return table


@pytest.mark.parametrize("dense_limit", [DENSE_NODE_LIMIT, 0])
def test_quasi_metric_matches_per_target_solves(tiny_batch, path5, dense_limit):
    cases = [(inst, 1e-12) for inst in tiny_batch[:10] + [path5]]
    # ill-conditioned: long paths and a slow-to-leave clique
    cases += [(gen_lollipop(200, 30), 1e-9), (gen_star_path_clique(256), 1e-9)]
    for inst, rtol in cases:
        qm = build_quasi_metric(inst, dense_limit=dense_limit)
        assert qm.fallback_columns == 0
        np.testing.assert_allclose(qm.table, _per_target_table(inst, dense_limit),
                                   rtol=rtol, atol=0)


def test_quasi_metric_resolves_a_column_that_misses_the_gate(monkeypatch, path5):
    import hitmin.kcenter

    factored = hitmin.kcenter._target_columns
    # far off, off by 1e-7 relative (a residual of 1e-7 on every row), and NaN
    for corrupt in (lambda h: h * 1.5, lambda h: h * (1 + 1e-7),
                    lambda h: np.full_like(h, np.nan)):
        def corrupt_second_column(*args):
            h = factored(*args)
            h[:, 1] = corrupt(h[:, 1])
            return h

        monkeypatch.setattr(hitmin.kcenter, "_target_columns", corrupt_second_column)
        qm = build_quasi_metric(path5)
        assert qm.fallback_columns == 1
        np.testing.assert_allclose(qm.table, PATH5_TABLE, atol=1e-9)
        np.testing.assert_allclose(qm.table, _per_target_table(path5, DENSE_NODE_LIMIT),
                                   rtol=1e-12, atol=0)
