"""Sampled hitting-time estimation: formulas, walks, and seed discipline."""

import numpy as np
import pytest

from hitmin import (
    BipartiteInstance,
    EstimatorConfig,
    InvalidParameter,
    empirical_hitting,
    estimate_mean_hitting,
    expected_bounded_steps,
    gen_path,
    hitting_to_blue,
    sample_count,
    spectral_radius,
    truncation_length,
)

SQRT_HALF = 2.0**-0.5


def complete_bipartite(nr, nb):
    edges = [(r, nr + b) for r in range(nr) for b in range(nb)]
    return BipartiteInstance(nr + nb, edges, [True] * nr + [False] * nb)


def test_truncation_length_frozen_values():
    assert truncation_length(1.5, 0.1, 0.1) == 1
    assert truncation_length(10, 0.1, 0.5) == 7


def test_truncation_length_validation():
    with pytest.raises(InvalidParameter):
        truncation_length(1.5, 0.1, 1.0)
    with pytest.raises(InvalidParameter):
        truncation_length(1.5, 0.1, 1.5)
    # no mixing within the red group at all: a single step suffices
    assert truncation_length(1.5, 0.1, 0.0) == 1


def test_truncation_length_monotone_in_spectral_bound():
    lengths = [truncation_length(3.0, 0.1, lam) for lam in np.linspace(SQRT_HALF, 0.999, 40)]
    assert all(b >= a for a, b in zip(lengths, lengths[1:]))


def test_sample_count_frozen_values():
    assert sample_count(10, 0.1, 0.01, 100) == 99035
    assert sample_count(2, 0.5, 0.5, 5) == 48


def test_spectral_radius_paths(path3, path5):
    assert spectral_radius(path3) == pytest.approx(SQRT_HALF, abs=1e-6)
    assert spectral_radius(path5) == pytest.approx(SQRT_HALF, abs=1e-6)


def test_spectral_radius_no_red_red_edges():
    assert spectral_radius(complete_bipartite(2, 2)) == 0.0


def test_walk_length_uses_mean_red_degree(path5):
    # path5's red degrees are 1, 2, 2, 1; at this bound the walk length
    # separates 1.5 from 1.4 (46 steps) and the all-node mean 1.6 (48)
    cfg = EstimatorConfig(epsilon=0.1, delta=0.3, seed=2, spectral_bound=0.9,
                          samples_per_node=16)
    est = estimate_mean_hitting(path5, config=cfg)
    assert est.walk_length == truncation_length(1.5, 0.1, 0.9) == 47


def test_estimate_deterministic_per_seed(path5):
    cfg = EstimatorConfig(epsilon=0.2, delta=0.2, seed=11, guarantee=True)
    a = estimate_mean_hitting(path5, config=cfg)
    b = estimate_mean_hitting(path5, config=cfg)
    assert a.value == b.value
    assert np.array_equal(a.per_node_means, b.per_node_means)


def test_estimate_value_is_mean_of_node_means(path5):
    cfg = EstimatorConfig(epsilon=0.3, delta=0.3, seed=5, guarantee=True)
    est = estimate_mean_hitting(path5, config=cfg)
    assert est.value == pytest.approx(est.per_node_means.mean(), rel=1e-12)


def test_guarantee_mode_computes_spectral_bound(path5):
    est = estimate_mean_hitting(
        path5, config=EstimatorConfig(epsilon=0.3, delta=0.3, seed=1, guarantee=True)
    )
    assert est.spectral_bound == pytest.approx(SQRT_HALF, abs=1e-6)
    assert est.subsample_fraction == 1.0
    assert list(est.sampled_nodes) == [0, 1, 3, 4]


def test_guarantee_mode_rejects_weak_overrides(path5):
    with pytest.raises(InvalidParameter):
        estimate_mean_hitting(
            path5,
            config=EstimatorConfig(epsilon=0.3, seed=0, guarantee=True, spectral_bound=0.2),
        )
    with pytest.raises(InvalidParameter):
        estimate_mean_hitting(
            path5,
            config=EstimatorConfig(epsilon=0.3, seed=0, guarantee=True, walk_length=1),
        )
    with pytest.raises(InvalidParameter):
        estimate_mean_hitting(
            path5,
            config=EstimatorConfig(epsilon=0.3, seed=0, guarantee=True, samples_per_node=2),
        )
    with pytest.raises(InvalidParameter):
        estimate_mean_hitting(
            path5,
            config=EstimatorConfig(epsilon=0.3, seed=0, guarantee=True, subsample_fraction=0.5),
        )


def test_guarantee_mode_halves_epsilon(path5):
    shared = dict(epsilon=0.2, delta=0.2, spectral_bound=0.8, seed=0)
    loose = estimate_mean_hitting(path5, config=EstimatorConfig(**shared))
    tight = estimate_mean_hitting(path5, config=EstimatorConfig(**shared, guarantee=True))
    assert tight.walk_length > loose.walk_length
    assert tight.samples_per_node > loose.samples_per_node


def test_subsample_picks_at_least_one_node(path5):
    cfg = EstimatorConfig(epsilon=0.3, delta=0.3, seed=9, subsample_fraction=0.1,
                          spectral_bound=0.1)
    est = estimate_mean_hitting(path5, config=cfg)
    assert len(est.sampled_nodes) == 1
    assert est.sampled_nodes[0] in (0, 1, 3, 4)


def test_unit_walk_length_estimates_exactly_one(path5):
    # every truncated walk then counts exactly one step
    cfg = EstimatorConfig(epsilon=0.3, delta=0.3, seed=4, walk_length=1, spectral_bound=0.1)
    est = estimate_mean_hitting(path5, config=cfg)
    assert est.walk_length == 1
    assert est.value == 1.0


def test_complete_bipartite_estimate_is_exact():
    inst = complete_bipartite(3, 3)
    cfg = EstimatorConfig(epsilon=0.3, delta=0.3, seed=8, guarantee=True)
    est = estimate_mean_hitting(inst, config=cfg)
    assert est.value == 1.0


def test_expected_bounded_steps_converges_from_below(path5):
    exact = hitting_to_blue(path5).times
    prev = np.zeros(4)
    for length in (1, 2, 4, 8, 16, 64, 256):
        cur = expected_bounded_steps(path5, length=length)
        assert np.all(cur <= exact + 1e-9)
        assert np.all(cur >= prev - 1e-12)
        prev = cur
    np.testing.assert_allclose(prev, exact, atol=1e-6)


def test_estimate_tracks_truncated_expectation(path5):
    cfg = EstimatorConfig(epsilon=0.2, delta=0.05, seed=123, guarantee=True)
    est = estimate_mean_hitting(path5, config=cfg)
    truncated = expected_bounded_steps(path5, length=est.walk_length).mean()
    # the estimate is a sample mean of the truncated walk; generous margin
    assert est.value == pytest.approx(truncated, abs=0.25)
    assert est.value <= hitting_to_blue(path5).mean_time + 0.25


def test_empirical_hitting_agrees_with_solver(path5):
    means, stds = empirical_hitting(path5, trials=20000, seed=2)
    exact = hitting_to_blue(path5).times
    err = 3 * stds / np.sqrt(20000)
    assert np.all(np.abs(means - exact) <= err + 1e-9)


def test_empirical_hitting_enforces_step_budget(path5):
    # node 0's only neighbour is red, so no walk is absorbed in one step
    with pytest.raises(RuntimeError):
        empirical_hitting(path5, [0], trials=8, max_steps=1)
    # a blue start would report a return time; an out-of-range one has no row
    for start in (2, 7, -1):
        with pytest.raises(InvalidParameter):
            empirical_hitting(path5, [start], trials=8)


def test_config_reseeding_extends_entropy():
    cfg = EstimatorConfig(seed=7)
    child = cfg.reseeded(3, 1)
    assert child.seed == (7, 3, 1)
    grand = child.reseeded(0)
    assert grand.seed == (7, 3, 1, 0)


def test_config_validation():
    with pytest.raises(InvalidParameter):
        estimate_mean_hitting(gen_path(5, [2]), config=EstimatorConfig(epsilon=0.0))
    with pytest.raises(InvalidParameter):
        estimate_mean_hitting(gen_path(5, [2]), config=EstimatorConfig(delta=1.5))
    with pytest.raises(InvalidParameter):
        estimate_mean_hitting(gen_path(5, [2]), config=EstimatorConfig(walk_length=0))
    with pytest.raises(InvalidParameter):
        estimate_mean_hitting(gen_path(5, [2]), config=EstimatorConfig(subsample_fraction=0.0))
