"""Sampled hitting-time estimation: formulas, walks, and seed discipline."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from hitmin import (
    BipartiteInstance,
    EstimatorConfig,
    InvalidParameter,
    ShortcutSet,
    augmented_view,
    empirical_hitting,
    estimate_mean_hitting,
    expected_bounded_steps,
    gen_lollipop,
    gen_path,
    gen_planted_two_community,
    greedy_plus,
    hitting_to_blue,
    sample_count,
    shortcut_counts,
    spectral_radius,
    truncation_length,
)
from hitmin.estimator import _CHUNK, _integers, _walk_steps, _words

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


def _with_real_edges(instance, shortcuts):
    # each shortcut as a real edge from its endpoint to a distinct blue node
    # the endpoint is not yet joined to, as verify's endpoint-invariance
    # check builds them
    edges = list(instance.iter_edges())
    for r, count in ShortcutSet.coerce(shortcuts).counts().items():
        joined = set(instance.neighbors(r).tolist())
        free = [int(b) for b in instance.blue_ids if int(b) not in joined]
        edges += [(r, b) for b in free[:count]]
    return BipartiteInstance(instance.n, edges, instance.is_red)


@pytest.mark.parametrize("instance, shortcuts", [
    (gen_path(5, [2]), (0,)),
    (gen_planted_two_community(6, 6, 0.5, 0.2, 1), (0, 1, 1, 4)),
    # the blue node 0 ends the path; the clique's far end takes the shortcut
    (gen_lollipop(5, 3), (7,)),
])
def test_shortcuts_enter_the_radius_and_bounded_steps_as_degrees(instance, shortcuts):
    # a shortcut changes only its endpoint's degree, so a real edge to a
    # free blue node gives the same red block, bit for bit
    real = _with_real_edges(instance, shortcuts)
    assert real.edge_count == instance.edge_count + len(shortcuts)
    assert spectral_radius(instance, shortcuts) == spectral_radius(real)
    for length in (1, 6, 40):
        steps = expected_bounded_steps(instance, shortcuts, length)
        np.testing.assert_array_equal(steps, expected_bounded_steps(real, length=length))
    assert not np.array_equal(steps, expected_bounded_steps(instance, length=40))


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
    # the walks grow longer; the pilot and the second stage together take
    # fewer walks than Hoeffding's count at epsilon/2
    shared = dict(epsilon=0.2, delta=0.2, spectral_bound=0.8, seed=0)
    loose = estimate_mean_hitting(path5, config=EstimatorConfig(**shared))
    tight = estimate_mean_hitting(path5, config=EstimatorConfig(**shared, guarantee=True))
    assert tight.walk_length > loose.walk_length
    assert (tight.walk_length, tight.pilot_samples, tight.samples_per_node) == (19, 3056,
                                                                                13778)
    assert tight.pilot_samples + tight.samples_per_node < sample_count(19, 0.1, 0.2, 5)


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


def test_estimate_reports_its_walks(path5):
    cfg = EstimatorConfig(epsilon=0.2, delta=0.2, seed=11, guarantee=True)
    est = estimate_mean_hitting(path5, config=cfg)
    assert not est.degenerate
    assert est.walk_steps == round((est.per_node_means * est.samples_per_node).sum())
    # the length-1 estimate of test_unit_walk_length_estimates_exactly_one
    cfg = EstimatorConfig(epsilon=0.3, delta=0.3, seed=4, walk_length=1, spectral_bound=0.1)
    est = estimate_mean_hitting(path5, config=cfg)
    assert est.degenerate
    assert est.walk_steps == est.samples_per_node * est.sampled_nodes.size


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


def test_empirical_hitting_stream_is_pinned(path5):
    # recorded from _reference_walk_steps walking path5's red nodes one at a
    # time (20000 walks fill more than half a chunk) on one generator keyed
    # (2, 0), with each std from the exact integer sums
    means, stds = empirical_hitting(path5, trials=20000, seed=2)
    assert means.tolist() == [4.008, 2.9996, 3.0126, 4.0319]
    assert stds.tolist() == [
        2.786453698917463, 2.8555222885449556, 2.827833282223972, 2.8632136297549438]


def test_empirical_hitting_keeps_unsorted_repeated_starts_aligned(path5):
    # node 4 is walked twice, on different draws of the one generator
    trials = 20000
    means, stds = empirical_hitting(path5, [4, 0, 4], trials=trials, seed=5)
    exact = hitting_to_blue(path5).times[[3, 0, 3]]
    assert np.all(np.abs(means - exact) <= 4 * stds / np.sqrt(trials))
    assert means[0] != means[2]


def test_empirical_hitting_enforces_step_budget(path5):
    # node 0's only neighbour is red, so no walk is absorbed in one step
    with pytest.raises(RuntimeError):
        empirical_hitting(path5, [0], trials=8, max_steps=1)
    # a blue start would report a return time; an out-of-range one has no row
    for start in (2, 7, -1):
        with pytest.raises(InvalidParameter):
            empirical_hitting(path5, [start], trials=8)


def test_zero_step_limit_draws_nothing(path5, monkeypatch):
    # no step is taken, so no walk is absorbed and no word is drawn
    graph = gen_planted_two_community(4, 4, 0.6, 0.3, 4)
    for start in (0, 1, 2):
        rng, fresh = np.random.default_rng(start), np.random.default_rng(start)
        assert _walk_steps(augmented_view(graph), [start], 10, 0, rng) == ([0], [0], [10])
        assert rng.bit_generator.state == fresh.bit_generator.state
    made = []
    default_rng = np.random.default_rng

    def recording_rng(seed):
        made.append((seed, default_rng(seed)))
        return made[-1][1]

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    with pytest.raises(RuntimeError):
        empirical_hitting(path5, [0, 1], trials=8, max_steps=0)
    assert made
    for seed, rng in made:
        assert rng.bit_generator.state == default_rng(seed).bit_generator.state


def test_empirical_hitting_needs_two_trials(path5):
    # one trial has no sample std and none has no mean
    for trials in (1, 0):
        with pytest.raises(InvalidParameter):
            empirical_hitting(path5, [0], trials=trials)
    means, stds = empirical_hitting(path5, [1], trials=2)
    assert means[0] >= 1 and np.isfinite(stds[0])


def _reference_walk_steps(instance, shortcuts, starts, trials, limit, rng):
    # the kernel that kept every walk's position and step count, on the
    # base CSR: a node draws among its base degree plus its shortcut count,
    # and a draw past its base row takes a shortcut, which absorbs the walk.
    # Every start's walks sit in one array, start after start, and each
    # step draws over the live ones.  Returns the steps, one row per start,
    # and each start's count of walks still red
    indptr, indices, is_red = instance.indptr, instance.indices, instance.is_red
    base = instance.degrees
    degrees = base + shortcut_counts(instance, shortcuts)
    pos = np.repeat(np.asarray(starts, dtype=np.int64), trials)
    steps = np.full(pos.size, limit, dtype=np.int64)
    alive = np.arange(pos.size)
    for step in range(1, limit + 1):
        cur = pos[alive]
        drawn = rng.integers(0, degrees[cur])
        shortcut = drawn >= base[cur]
        nxt = indices[np.where(shortcut, 0, indptr[cur] + drawn)]
        hit = shortcut | ~is_red[nxt]
        if hit.any():
            steps[alive[hit]] = step
            keep = ~hit
            alive = alive[keep]
            pos[alive] = nxt[keep]
        else:
            pos[alive] = nxt
        if alive.size == 0:
            break
    return steps.reshape(len(starts), trials), np.bincount(alive // trials,
                                                           minlength=len(starts))


def _kernel_and_reference(graph, starts, trials, limit, rng, ref_rng):
    # graph is an instance, or an (instance, shortcuts) pair; returns the
    # kernel's (total, total_sq, still_red) and the reference's, one entry
    # per start each
    instance, shortcuts = graph if isinstance(graph, tuple) else (graph, None)
    steps, still_red = _reference_walk_steps(instance, shortcuts, starts, trials, limit,
                                             ref_rng)
    return (_walk_steps(augmented_view(instance, shortcuts), starts, trials, limit, rng),
            (steps.sum(axis=1).tolist(), (steps * steps).sum(axis=1).tolist(),
             still_red.tolist()))


@pytest.mark.parametrize("graph, start, limit, survivors", [
    (gen_path(5, [2]), 0, 200, False),
    (gen_path(5, [2]), 1, 200, False),
    # a long path through a clique: many steps per walk
    (gen_lollipop(5, 3), 7, 5000, False),
    # graph 4's node 3 has one neighbour, blue; node 1 has one, red
    (gen_planted_two_community(4, 4, 0.6, 0.3, 4), 3, 50, False),
    (gen_planted_two_community(4, 4, 0.6, 0.3, 4), 1, 500, False),
    # limits that leave walks unabsorbed
    (gen_path(5, [2]), 0, 3, True),
    (gen_lollipop(5, 3), 7, 6, True),
    # a limit whose squares overflow int64: the sums are kept as Python ints
    (gen_path(5, [2]), 0, 2**40, False),
])
def test_walk_kernel_matches_reference(graph, start, limit, survivors):
    trials = 3000
    rng, ref_rng = (np.random.default_rng(np.random.SeedSequence((6, start)))
                    for _ in range(2))
    kernel, reference = _kernel_and_reference(graph, [start], trials, limit, rng, ref_rng)
    assert kernel == reference
    assert (kernel[2][0] > 0) == survivors
    # the same draws were consumed; a degree-1 node draws nothing in either
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# planted 4/4 graph 4: red 3's one neighbour is blue, red 1's is red 2
PLANTED4 = gen_planted_two_community(4, 4, 0.6, 0.3, 4)


@pytest.mark.parametrize("graph, starts, trials, limit", [
    # the leading segment, red 3's, and a later one empty after step 1
    pytest.param(PLANTED4, [3, 0, 3, 2], 3000, 40, id="empty-segments"),
    # red 1's degree-1 row draws nothing; its walks share chunks with others
    pytest.param(PLANTED4, [0, 1, 2], 3000, 40, id="degree-1-row"),
    # more walks than a chunk: segments span chunks as they compact
    pytest.param(PLANTED4, [0, 1, 2, 3], _CHUNK // 2 + 9, 40, id="over-a-chunk"),
    pytest.param(PLANTED4, [0, 1, 2, 3], _CHUNK // 2 + 9, 3, id="over-a-chunk-cut"),
    pytest.param((PLANTED4, (0, 2, 2)), [0, 1, 2], _CHUNK // 2 + 9, 40,
                 id="over-a-chunk-shortcuts"),
    pytest.param(PLANTED4, [0, 1, 2, 3], 10, 0, id="limit-0"),
])
def test_walk_kernel_matches_reference_over_several_starts(graph, starts, trials, limit):
    rng, ref_rng = (np.random.default_rng(np.random.SeedSequence((8, len(starts), limit)))
                    for _ in range(2))
    kernel, reference = _kernel_and_reference(graph, starts, trials, limit, rng, ref_rng)
    assert kernel == reference
    if limit == 0:
        assert kernel == ([0] * len(starts), [0] * len(starts), [trials] * len(starts))
    if starts[0] == 3:
        # every walk from red 3 ends at step 1
        assert kernel[0][0] == kernel[1][0] == trials and kernel[2][0] == 0
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# 2**31 + 1 and 3 * 2**30 + 7 reject about a half and a quarter of their draws
BOUNDS = (1, 2, 7, 2**31 + 1, 3 * 2**30 + 7, 2**32 - 1)


def _draw_integers(rng, high):
    # one word source per call, screened by the largest bound, and the
    # bound-1 scatter only where a bound is 1
    high = high.astype(np.uint64)
    with _words(rng) as draw:
        return _integers(draw, high, high.max(initial=0), bool((high == 1).any()))


@pytest.mark.parametrize("seed", range(4))
def test_integers_replicates_numpy(seed):
    rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
    mix = np.random.default_rng(100 + seed)
    sizes = [0, 1, 5, 600, 0, 2000] + [int(n) for n in mix.integers(0, 300, 6)]
    # several calls in a row, each ending on the same state
    for size in sizes:
        high = mix.choice(BOUNDS, size)
        drawn = _draw_integers(rng, high)
        expected = ref_rng.integers(0, high)
        assert drawn.dtype == expected.dtype
        assert np.array_equal(drawn, expected)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    for bound in BOUNDS:
        high = np.full(500, bound)
        assert np.array_equal(_draw_integers(rng, high), ref_rng.integers(0, high))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def _drawing(words):
    # MT19937 returns its state words through an invertible tempering, so
    # a state can be set that draws the given 32-bit words next
    def untemper(y):
        for shift, mask in ((18, None), (-15, 0xEFC60000), (-7, 0x9D2C5680), (11, None)):
            x = y
            for _ in range(5):
                x = y ^ (x >> shift if mask is None else (x << -shift) & mask & 0xFFFFFFFF)
            y = x
        return y
    key = np.full(624, 12345, dtype=np.uint32)
    key[:len(words)] = [untemper(w) for w in words]
    bit_generator = np.random.MT19937(0)
    bit_generator.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": 0}}
    return np.random.Generator(bit_generator)


def test_integers_rejects_strictly_below_the_threshold():
    # for the bound 2**31 + 1 the threshold (2**32 - h) % h is 2**31 - 1;
    # the first word makes a low word equal to it, the second one below it
    h = 2**31 + 1
    words = [2**32 - 1, 2**31 - 2, 2**32 - 5, 3, 2**31 + 8]
    assert [w * h % 2**32 for w in words[:2]] == [2**31 - 1, 2**31 - 2]
    assert _drawing(words).integers(0, 2**32, 5, dtype=np.uint64).tolist() == words
    rng, ref_rng = _drawing(words), _drawing(words)
    high = np.full(3, h)
    assert np.array_equal(_draw_integers(rng, high), ref_rng.integers(0, high))
    assert rng.bit_generator.state["state"]["pos"] == ref_rng.bit_generator.state["state"]["pos"]


# red 0 has the slots 1, 2 (red) and 3 (blue), red 1 has 0, 3 and 4, and
# red 2 has one slot, 0: bounds 3, 3 and 1.  For the bound 3 the threshold
# (2**32 - 3) % 3 is 1, so the word 0 is rejected
BOUND_THREE = BipartiteInstance(5, [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4)],
                                [True, True, True, False, False])


@pytest.mark.parametrize("words, trials, bounds, drawn", [
    # the first step, from red 0: walk 2's word 0 is rejected, and it takes
    # the next word, 2**32 - 1, to the blue node 3
    ([2**31, 0, 2**32 - 1], 3, [3, 3], [1, 2]),
    # four walks from red 0 step to red 2, red 1, red 2 and red 1; in the
    # second step the degree-1 rows draw nothing, walk 2's word 0 is
    # rejected, and walks 2 and 4 take the next two words, to the blue
    # nodes 4 and 3
    ([2**31, 1, 2**31, 1, 0, 2**32 - 1, 2**31], 4, [3, 3, 3, 3, 1, 3, 1, 3],
     [1, 0, 1, 0, 0, 2, 0, 1]),
])
def test_walk_kernel_matches_reference_through_a_rejection(words, trials, bounds, drawn):
    # the draws numpy makes for the bounds the walks meet, in stream order
    assert _drawing(words).integers(0, np.array(bounds)).tolist() == drawn
    rng, ref_rng = _drawing(words), _drawing(words)
    kernel, reference = _kernel_and_reference(BOUND_THREE, [0], trials, 40, rng, ref_rng)
    assert kernel == reference
    np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)


def test_walk_kernel_rejects_a_degree_of_two_to_the_32():
    # numpy draws a bound of 2**32 as a raw word, outside the replica; the
    # table builder refuses it before it sizes an array by the degrees
    graph = SimpleNamespace(n=1, indptr=np.array([0, 2**32]), indices=np.zeros(0, np.int64),
                            is_red=np.array([True]), red_ids=np.array([0]),
                            degrees=np.array([2**32]), capacity=np.array([0]))
    with pytest.raises(AssertionError):
        augmented_view(graph)


@pytest.mark.parametrize("graph, start, limit", [
    # graph 4's node 1 has one neighbour, red: its walks draw nothing there
    (gen_planted_two_community(4, 4, 0.6, 0.3, 4), 1, 40),
    (gen_planted_two_community(4, 4, 0.6, 0.3, 4), 2, 40),
    # most walks survive three steps: survivors compact across chunks
    (gen_planted_two_community(4, 4, 0.6, 0.3, 4), 1, 3),
    # shortcut slots at nodes 0 and 2; node 1 keeps its one neighbour
    ((gen_planted_two_community(4, 4, 0.6, 0.3, 4), (0, 2, 2)), 1, 40),
    ((gen_planted_two_community(4, 4, 0.6, 0.3, 4), (0, 2, 2)), 0, 5),
])
def test_walk_kernel_matches_reference_across_chunks(graph, start, limit):
    trials = 2 * _CHUNK + 17
    rng, ref_rng = (np.random.default_rng(np.random.SeedSequence((7, start, limit)))
                    for _ in range(2))
    kernel, reference = _kernel_and_reference(graph, [start], trials, limit, rng, ref_rng)
    assert kernel == reference
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _pcg64_holding_a_half_word(seed):
    # an odd-size draw leaves the high half of its last raw draw pending
    rng = np.random.default_rng(seed)
    rng.integers(0, 2**32, size=3, dtype=np.uint64)
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


def _mt19937(seed):
    # not PCG64: the kernel draws its words through rng.integers
    return np.random.Generator(np.random.MT19937(seed))


@pytest.mark.parametrize("make_rng", [_pcg64_holding_a_half_word, _mt19937])
@pytest.mark.parametrize("graph, start, limit, trials", [
    # node 1 has one neighbour, red: bounds of 1 among the draws
    (gen_planted_two_community(4, 4, 0.6, 0.3, 4), 2, 40, 2 * _CHUNK + 17),
    (gen_lollipop(5, 3), 7, 5000, 3000),
    # red rows that end in blue shortcut slots, one of them two deep
    ((gen_planted_two_community(6, 6, 0.5, 0.2, 1), (0, 1, 1, 4)), 1, 60,
     2 * _CHUNK + 17),
    ((gen_planted_two_community(6, 6, 0.5, 0.2, 1), (0, 1, 1, 4)), 5, 3, 3000),
])
def test_walk_kernel_matches_reference_from_any_generator(make_rng, graph, start, limit,
                                                          trials):
    rng, ref_rng = make_rng(start), make_rng(start)
    kernel, reference = _kernel_and_reference(graph, [start], trials, limit, rng, ref_rng)
    assert kernel == reference
    # MT19937's state holds its key as an array
    np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)


def test_words_replicate_numpy():
    # successive calls of odd and even sizes, 0 included, so that calls
    # enter with and without a pending half word and leave either way
    rng, ref_rng = (np.random.default_rng(12) for _ in range(2))
    pending = set()
    sizes = (0, 1, 1, 2, 5, 0, 4, 7, 1, 0, 600, 33, 2, 2, 0)
    for size in sizes:
        pending.add(rng.bit_generator.state["has_uint32"])
        with _words(rng) as draw:
            words = draw(size)
        expected = ref_rng.integers(0, 2**32, size=size, dtype=np.uint64)
        assert words.tolist() == expected.tolist()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert pending == {0, 1}
    # one source for all of them carries the pending word from draw to draw
    # and leaves the state once, on exit
    for entry in (0, 1):
        if rng.bit_generator.state["has_uint32"] != entry:
            # one word takes or leaves a pending half word
            for r in (rng, ref_rng):
                r.integers(0, 2**32, dtype=np.uint64)
        assert rng.bit_generator.state["has_uint32"] == entry
        with _words(rng) as draw:
            for size in sizes:
                words = draw(size)
                expected = ref_rng.integers(0, 2**32, size=size, dtype=np.uint64)
                assert words.tolist() == expected.tolist()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_walk_kernel_peak_memory():
    view = augmented_view(gen_planted_two_community(4, 4, 0.6, 0.3, 4))
    trials = 200_000
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        _walk_steps(view, [2], trials, 30, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # numpy registers its data buffers with tracemalloc, so the peak is
    # deterministic: the positions, one int64 array of length trials, and
    # a few chunk-sized temporaries (1.58 arrays of length trials here, 1
    # plus 3.6 chunks); nine arrays for a kernel that keeps every walk's
    # position and step count
    assert peak <= 8 * trials + 4 * 8 * _CHUNK


def test_estimate_peak_memory():
    # samples_per_node >= _CHUNK: each kernel call walks one start node, so
    # a four-start estimate holds no more than one start's walks, within
    # the bound of test_walk_kernel_peak_memory plus the walk table
    graph = gen_planted_two_community(4, 4, 0.6, 0.3, 4)
    view = augmented_view(graph)
    table = view.bound.nbytes + view.target.nbytes + view.first.nbytes
    trials = 200_000
    config = EstimatorConfig(seed=0, walk_length=30, spectral_bound=0.5,
                             samples_per_node=trials, subsample_fraction=1.0)
    tracemalloc.start()
    try:
        est = estimate_mean_hitting(graph, config=config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.sampled_nodes.size == 4 and est.samples_per_node == trials
    assert peak <= 8 * trials + 4 * 8 * _CHUNK + table


def test_estimator_stream_is_pinned(path5):
    # a pilot, then fewer walks than Hoeffding's count, which give the means
    est = estimate_mean_hitting(
        path5, config=EstimatorConfig(epsilon=0.2, delta=0.2, seed=11, guarantee=True))
    assert (est.walk_length, est.pilot_samples, est.samples_per_node) == (11, 1770, 9871)
    assert (est.walk_steps, est.pilot_steps) == (135077, 24168)
    assert est.per_node_means.tolist() == [
        3.9051767804680377, 2.9288825853510283, 2.9495491844797894, 3.9006179718366933]
    planted = gen_planted_two_community(4, 4, 0.6, 0.3, 4)
    est = estimate_mean_hitting(
        planted, config=EstimatorConfig(epsilon=0.3, delta=0.2, seed=5, guarantee=True))
    assert (est.walk_length, est.pilot_samples, est.samples_per_node) == (29, 3110, 24795)
    assert (est.walk_steps, est.pilot_steps) == (563337, 70446)
    assert est.per_node_means.tolist() == [
        4.993547086106069, 8.856745311554748, 7.869489816495261, 1.0]


def test_greedy_plus_stream_is_pinned():
    graph = gen_planted_two_community(4, 4, 0.6, 0.3, 0)
    cfg = EstimatorConfig(epsilon=0.25, delta=0.1, seed=(9, 0, 1), guarantee=True)
    selection, trace = greedy_plus(graph, 1, epsilon=0.25, estimator_config=cfg,
                                   cap_at_k=False)
    assert selection.endpoints == (0, 0, 0, 1, 1, 1, 2, 2, 2, 3)
    assert trace.endpoints == [2, 0, 1, 0, 2, 3, 2, 1, 1, 0]
    assert trace.values == [
        2.0845444877702946, 1.9476212259835315, 1.8493698497333981,
        1.7428293631502187, 1.647467036780014, 1.6051962209302326,
        1.5784862043251306, 1.5426241660489253, 1.4959499263622975,
        1.4807984790874524]
    assert trace.evaluations == 32


@pytest.mark.parametrize("config", [
    pytest.param(EstimatorConfig(epsilon=0.2, delta=0.2, spectral_bound=0.8, seed=0),
                 id="experiment"),
    # Hoeffding's count at epsilon/2, given explicitly
    pytest.param(EstimatorConfig(epsilon=0.2, delta=0.2, seed=3, guarantee=True,
                                 samples_per_node=47336), id="guarantee-override"),
])
def test_only_formula_counts_in_guarantee_mode_run_a_pilot(path5, config):
    est = estimate_mean_hitting(path5, config=config)
    assert est.pilot_samples == est.pilot_steps == 0
    assert est.samples_per_node == (config.samples_per_node
                                    or sample_count(est.walk_length, 0.2, 0.2, 5))


def test_guarantee_mode_without_a_paying_pilot_takes_one_stage():
    # ell = 5, a = 0.45, m = 4 start nodes, delta = 0.5: the pilot,
    # ceil(4 ell sqrt(ln 16 ln 32) / a) = 138 walks, and the smallest second
    # stage, 61, reach Hoeffding's count at delta/m, ceil(25 ln 16 / (2 a**2))
    # = 172, so the estimate draws those walks in one stage
    planted = gen_planted_two_community(4, 4, 0.6, 0.3, 0)
    est = estimate_mean_hitting(planted, config=EstimatorConfig(
        epsilon=0.9, delta=0.5, seed=3, guarantee=True))
    assert (est.walk_length, est.pilot_samples, est.samples_per_node) == (5, 0, 172)
    assert (est.walk_steps, est.pilot_steps) == (1597, 0)
    assert est.per_node_means.tolist() == [
        2.38953488372093, 2.052325581395349, 2.7325581395348837, 2.11046511627907]


@pytest.mark.parametrize("graph, epsilon", [
    pytest.param(gen_path(5, [2]), 0.2, id="path5"),
    pytest.param(gen_planted_two_community(4, 4, 0.6, 0.3, 4), 0.3, id="planted4"),
])
def test_two_stage_means_cover_at_the_stated_rate(graph, epsilon):
    # with probability at least 1 - delta every per-node mean lies within
    # epsilon/2 of its bounded-walk expectation
    delta, runs = 0.2, 40
    covered = 0
    for seed in range(runs):
        est = estimate_mean_hitting(graph, config=EstimatorConfig(
            epsilon=epsilon, delta=delta, seed=seed, guarantee=True))
        hoeffding = sample_count(est.walk_length, epsilon / 2, delta, graph.n)
        assert 0 < est.pilot_samples and est.samples_per_node < hoeffding
        expected = expected_bounded_steps(graph, length=est.walk_length)
        covered += bool(np.all(np.abs(est.per_node_means - expected) <= epsilon / 2))
    assert covered >= (1 - delta) * runs


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
