"""Sampled hitting-time estimation: formulas, walks, and seed discipline."""

import math
import tracemalloc

import numpy as np
import pytest

from hitmin import (
    BipartiteInstance,
    CapacityExceeded,
    EstimatorConfig,
    InvalidParameter,
    ShortcutSet,
    augmented_view,
    candidate_endpoints,
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
from hitmin.estimator import _CELLS, _stage

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
    # no red block to iterate on, but the shortcuts are still checked against
    # the rule: a blue endpoint, and a red one with no free blue slot
    graph = complete_bipartite(3, 3)
    with pytest.raises(InvalidParameter, match="endpoint 5 is not a red node"):
        spectral_radius(graph, (5,))
    with pytest.raises(CapacityExceeded, match="endpoint 0 has 0 free blue slot"):
        spectral_radius(graph, (0,))


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
    # every walk knob comes from the proof: guarantee mode rejects each
    # override, weak or not, by name, before any walk
    for knob, value in [("spectral_bound", 0.2), ("spectral_bound", 0.99),
                        ("walk_length", 1), ("walk_length", 10**6),
                        ("samples_per_node", 2), ("samples_per_node", 10**7),
                        ("subsample_fraction", 0.5), ("subsample_fraction", 1.0)]:
        with pytest.raises(InvalidParameter, match=knob):
            estimate_mean_hitting(path5, config=EstimatorConfig(
                epsilon=0.3, seed=0, guarantee=True, **{knob: value}))
    with pytest.raises(InvalidParameter,
                       match="spectral_bound, walk_length, samples_per_node, subsample_fraction"):
        estimate_mean_hitting(path5, config=EstimatorConfig(
            epsilon=0.3, seed=0, guarantee=True, spectral_bound=0.99, walk_length=10**6,
            samples_per_node=10**7, subsample_fraction=1.0))


def test_guarantee_mode_halves_epsilon(path5):
    # at path5's computed radius 1/sqrt(2) the walks grow longer; Hoeffding's
    # count at delta/m, m = 4 start nodes, is fewer walks than the same
    # count at delta/n
    shared = dict(epsilon=0.2, delta=0.2, seed=0)
    loose = estimate_mean_hitting(path5, config=EstimatorConfig(**shared))
    tight = estimate_mean_hitting(path5, config=EstimatorConfig(**shared, guarantee=True))
    assert loose.spectral_bound == tight.spectral_bound == pytest.approx(SQRT_HALF)
    assert (loose.walk_length, tight.walk_length, tight.samples_per_node) == (9, 11, 22318)
    assert tight.samples_per_node < sample_count(11, 0.1, 0.2, 5)


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
    # recorded from the count kernel walking path5's red nodes in one call
    # on one generator keyed (2, 0), with each std from the exact integer
    # sums
    means, stds = empirical_hitting(path5, trials=20000, seed=2)
    assert means.tolist() == [4.0025, 3.0145, 2.9907, 4.0025]
    assert stds.tolist() == [
        2.82789561329268, 2.8416181111603445, 2.801232917001506, 2.855065904679961]


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
    # no step is taken, so no walk is absorbed and nothing is drawn
    graph = gen_planted_two_community(4, 4, 0.6, 0.3, 4)
    for start in (0, 1, 2):
        rng, fresh = np.random.default_rng(start), np.random.default_rng(start)
        assert _stage(augmented_view(graph), [start], 10, 0, rng) == ([0], [0], [10])
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
    # the count process one (start, node) pair at a time, from the base CSR.
    # Red node v of degree d, its base degree plus its shortcuts, with r red
    # neighbours splits its count by one rng.multinomial over
    # max(8, 2**bit_length(r)) categories: the absorbed one at (d - r)/d,
    # zero padding, then its red neighbours in CSR order at 1/d each.  A
    # node with no red neighbour absorbs every walk and draws nothing.  The
    # pairs split in the table's order: by row width, then by node, then by
    # place in starts.  A walk counts the step that absorbs it, or limit;
    # returns each start's sum of step counts, sum of their squares and
    # number of walks that take step limit
    is_red = instance.is_red
    degrees = (instance.degrees + shortcut_counts(instance, shortcuts)).tolist()
    rows = {}
    for v in instance.red_ids.tolist():
        red = [int(u) for u in instance.neighbors(v) if is_red[u]]
        d, r = degrees[v], len(red)
        width = max(8, 1 << r.bit_length()) if r else 0
        rows[v] = (width, [(d - r) / d] + [0.0] * (width - 1 - r) + [1.0 / d] * r, red)
    m = len(starts)
    total, total_sq, live = [0] * m, [0] * m, [trials] * m
    at = {(int(v), i): trials for i, v in enumerate(starts)}
    for step in range(1, limit + 1):
        live = [0] * m
        for (v, i), count in at.items():
            live[i] += count
        if step == limit:
            for i in range(m):
                total[i] += step * live[i]
                total_sq[i] += step * step * live[i]
            break
        moved = {}
        for v, i in sorted(at, key=lambda pair: (rows[pair[0]][0],) + pair):
            width, pvals, red = rows[v]
            absorbed = at[(v, i)]
            if width:
                split = rng.multinomial(absorbed, pvals).tolist()
                assert not any(split[1:width - len(red)])
                absorbed = split[0]
                for u, count in zip(red, split[width - len(red):]):
                    if count:
                        moved[(u, i)] = moved.get((u, i), 0) + count
            total[i] += step * absorbed
            total_sq[i] += step * step * absorbed
        at = moved
        if not at:
            live = [0] * m
            break
    return total, total_sq, live


def _kernel_and_reference(graph, starts, trials, limit, rng, ref_rng):
    # graph is an instance, or an (instance, shortcuts) pair; returns the
    # kernel's (total, total_sq, live) and the reference's, one entry per
    # start each
    instance, shortcuts = graph if isinstance(graph, tuple) else (graph, None)
    return (_stage(augmented_view(instance, shortcuts), starts, trials, limit, rng),
            _reference_walk_steps(instance, shortcuts, starts, trials, limit, ref_rng))


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
    # the same draws were consumed; a row whose one red neighbour takes
    # every walk draws nothing in either
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# planted 4/4 graph 4: red 3's one neighbour is blue, red 1's is red 2.
# Planted 30/30 graph 1: reds 4, 10, 24 and 29 have 8 or more red
# neighbours, so their rows form a second bucket of the count table, and
# each step draws in one multinomial call per occupied bucket
PLANTED4 = gen_planted_two_community(4, 4, 0.6, 0.3, 4)
PLANTED30 = gen_planted_two_community(30, 30, 0.2, 0.05, 1)


def _red_star(leaves):
    # red centre 0 with red leaves 1..leaves, and one blue node joined to
    # all of them: the centre's row is 2**bit_length(leaves) wide, each
    # leaf's 8 wide, and a leaf absorbs half its walks
    blue = leaves + 1
    edges = [(0, v) for v in range(1, blue + 1)] + [(v, blue) for v in range(1, blue)]
    return BipartiteInstance(leaves + 2, edges, [True] * blue + [False])


# the centre's 2048-wide row takes 16 pairs per split call, and a leaf row
# 4096: 40 starts at the centre span three calls, and their 2000 walks each
# spread over about 50,000 (leaf, start) pairs, thirteen calls; what the
# centre's calls send outgrows 2 x 40 + 2**15 entries and is merged midway
STAR = _red_star(2000)


@pytest.mark.parametrize("graph, starts, trials, limit", [
    # red 3's row is in no bucket: its pairs, the leading and a later
    # segment of the starts, are empty after step 1
    pytest.param(PLANTED4, [3, 0, 3, 2], 3000, 40, id="empty-segments"),
    # red 1's row has one nonzero category, its last, and draws nothing
    pytest.param(PLANTED4, [0, 1, 2], 3000, 40, id="degree-1-row"),
    # starts on rows of both buckets: each step draws in both buckets' calls
    pytest.param(PLANTED30, [4, 0, 29, 1], 16393, 40, id="over-a-chunk"),
    pytest.param(PLANTED30, [4, 0, 29, 1], 16393, 3, id="over-a-chunk-cut"),
    pytest.param((PLANTED30, (0, 4, 4)), [0, 4, 2], 16393, 40,
                 id="over-a-chunk-shortcuts"),
    pytest.param(PLANTED4, [0, 1, 2, 3], 10, 0, id="limit-0"),
    # one bucket's pairs split over several calls
    pytest.param(STAR, [0] * 40, 2000, 4, id="over-split-calls"),
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


@pytest.mark.parametrize("graph, start, limit", [
    # walks from a narrow row reach the wide ones and come back
    (PLANTED30, 1, 40),
    (PLANTED30, 2, 40),
    # most walks survive three steps
    (PLANTED30, 1, 3),
    # shortcut slots at a narrow and a wide row, one of them two deep
    ((PLANTED30, (0, 4, 4)), 1, 40),
    ((PLANTED30, (0, 4, 4)), 0, 5),
])
def test_walk_kernel_matches_reference_across_chunks(graph, start, limit):
    # walks that move between rows of two buckets, so each step draws in
    # one multinomial call per occupied bucket
    view = augmented_view(*graph) if isinstance(graph, tuple) else augmented_view(graph)
    assert len(view.buckets) == 2
    trials = 65553
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
    # not PCG64: a 32-bit generator, whose doubles take two words each
    return np.random.Generator(np.random.MT19937(seed))


@pytest.mark.parametrize("make_rng", [_pcg64_holding_a_half_word, _mt19937])
@pytest.mark.parametrize("graph, start, limit, trials", [
    # node 1 has one neighbour, red: a row that draws nothing
    (PLANTED4, 2, 40, 65553),
    (gen_lollipop(5, 3), 7, 5000, 3000),
    # red rows with absorbed shares from shortcut slots, one two deep
    ((gen_planted_two_community(6, 6, 0.5, 0.2, 1), (0, 1, 1, 4)), 1, 60, 65553),
    ((gen_planted_two_community(6, 6, 0.5, 0.2, 1), (0, 1, 1, 4)), 5, 3, 3000),
])
def test_walk_kernel_matches_reference_from_any_generator(make_rng, graph, start, limit,
                                                          trials):
    rng, ref_rng = make_rng(start), make_rng(start)
    kernel, reference = _kernel_and_reference(graph, [start], trials, limit, rng, ref_rng)
    assert kernel == reference
    # MT19937's state holds its key as an array
    np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)


def test_walk_kernel_peak_memory():
    # the state is one count per occupied (start, node) pair, so the traced
    # peak is the same few KB at 2 * 10**5 and at 10**12 walks; one int64
    # per walk would take 1.6 MB at the smaller count
    view = augmented_view(PLANTED4)
    peaks = []
    for trials in (200_000, 10**12):
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            _stage(view, [2], trials, 30, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert max(peaks) <= 16 * 1024


def test_walk_kernel_peak_memory_with_many_starts_on_a_wide_row():
    # 1024 starts at the star's centre, 4 walks each: one split call over
    # all 1024 pairs, 2048 columns wide, peaked at about 50 MB; calls of at
    # most _CELLS cells peak at about 1.4 MB
    view = augmented_view(STAR)
    width = view.buckets[-1][1].shape[1]
    starts = [0] * 1024
    assert width == 2048 and len(starts) * width > 32 * _CELLS
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        total, _, _ = _stage(view, starts, 4, 3, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 1024 * 1024
    assert len(total) == 1024 and min(total) >= 4


def _survival(instance, shortcuts, length):
    # P(T >= s) for s = 1..length, one row per s, one column per red node:
    # the increments of the bounded-step expectation
    steps = [expected_bounded_steps(instance, shortcuts, s) for s in range(length + 1)]
    return np.diff(steps, axis=0)


_KERNEL_GRAPHS = {
    "path5": gen_path(5, [2]),
    "planted4": gen_planted_two_community(4, 4, 0.6, 0.3, 4),
    "planted30": gen_planted_two_community(30, 30, 0.2, 0.05, 1),
    "lollipop": gen_lollipop(20, 10),
}


def test_walk_counts_have_the_chain_law():
    # each start's mean of X = min(T, ell) against E X from the exact
    # survival probabilities, and its mean of X**2 against
    # E X**2 = sum over s <= ell of (2s - 1) P(T >= s), as z-scores; the
    # variances come from the same sums with s**2 - (s - 1)**2 and
    # s**4 - (s - 1)**4.  A start whose X is constant must match exactly
    trials, zs = 20000, []
    for index, (name, graph) in enumerate(_KERNEL_GRAPHS.items()):
        for shortcuts in (None, (candidate_endpoints(graph)[-1],)):
            view = augmented_view(graph, shortcuts)
            for ell in (1, 3, 8, 25):
                survive = _survival(graph, shortcuts, ell)
                s = np.arange(1, ell + 1)[:, None]
                m1, m2, m4 = ((w * survive).sum(axis=0)
                              for w in (1, 2 * s - 1, s**4 - (s - 1)**4))
                rng = np.random.default_rng(np.random.SeedSequence((index, ell)))
                total, total_sq, _ = _stage(view, graph.red_ids, trials, ell, rng)
                for sums, mean, var in ((total, m1, m2 - m1**2), (total_sq, m2, m4 - m2**2)):
                    got = np.array(sums) / trials
                    constant = var <= 1e-12 * mean**2
                    assert got[constant].tolist() == mean[constant].tolist(), (name, ell)
                    zs += ((got - mean)[~constant] / np.sqrt(var[~constant] / trials)).tolist()
    zs = np.array(zs)
    assert zs.size > 400
    assert np.abs(zs).max() <= 4.5
    assert abs(zs.mean()) <= 0.2 and 0.8 <= zs.std() <= 1.25


@pytest.mark.parametrize("name", list(_KERNEL_GRAPHS))
def test_one_step_walks_count_exactly_one(name):
    # every walk takes step 1 and none is moved, so nothing is drawn
    graph = _KERNEL_GRAPHS[name]
    rng, fresh = np.random.default_rng(3), np.random.default_rng(3)
    starts = graph.red_ids
    trials = 10**12
    assert _stage(augmented_view(graph), starts, trials, 1, rng) == ([trials] * starts.size,) * 3
    assert rng.bit_generator.state == fresh.bit_generator.state


def test_a_node_with_only_blue_neighbours_counts_exactly_one():
    # planted 4/4 graph 4: red 3's one neighbour is blue; complete
    # bipartite red nodes have no red neighbour, with or without shortcuts
    planted = _KERNEL_GRAPHS["planted4"]
    assert not planted.is_red[planted.neighbors(3)].any()
    for graph, shortcuts, start in ((planted, None, 3), (planted, (3,), 3),
                                    (complete_bipartite(3, 3), None, 1)):
        rng = np.random.default_rng(4)
        totals = _stage(augmented_view(graph, shortcuts), [start, start], 5000, 25, rng)
        assert totals == ([5000, 5000], [5000, 5000], [0, 0])


def test_estimate_peak_memory():
    # the walks are counts, so one traced-peak bound holds at 10**3 and at
    # 10**9 walks per node (both read about 14 KB); at 10**9 the walk
    # length makes the sums Python ints, and their total is still exact
    graph = _KERNEL_GRAPHS["planted4"]
    peaks = []
    for trials in (10**3, 10**9):
        config = EstimatorConfig(seed=0, walk_length=2**17, spectral_bound=0.5,
                                 samples_per_node=trials, subsample_fraction=1.0)
        tracemalloc.start()
        try:
            est = estimate_mean_hitting(graph, config=config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
        assert est.sampled_nodes.size == 4 and est.samples_per_node == trials
        assert isinstance(est.walk_steps, int) and est.walk_steps >= 4 * trials
    assert max(peaks) <= 32 * 1024
    # every walk from path5's red 0 steps to red 1 and takes step 2: sums
    # of 2**63 and 2**64 past int64, from one split with nothing to draw
    trials = 2**62
    assert _stage(augmented_view(_KERNEL_GRAPHS["path5"]), [0], trials, 2,
                  np.random.default_rng(0)) == ([2 * trials], [4 * trials], [trials])


def test_estimator_stream_is_pinned(path5):
    # Hoeffding's count at delta/m, m = 4 start nodes, in one stage
    est = estimate_mean_hitting(
        path5, config=EstimatorConfig(epsilon=0.2, delta=0.2, seed=11, guarantee=True))
    assert (est.walk_length, est.samples_per_node, est.walk_steps) == (11, 22318, 305170)
    assert est.per_node_means.tolist() == [
        3.931087014965499, 2.952773546016668, 2.883322878394121, 3.906532843444753]
    planted = gen_planted_two_community(4, 4, 0.6, 0.3, 4)
    est = estimate_mean_hitting(
        planted, config=EstimatorConfig(epsilon=0.3, delta=0.2, seed=5, guarantee=True))
    assert (est.walk_length, est.samples_per_node, est.walk_steps) == (29, 68942, 1560618)
    assert est.per_node_means.tolist() == [
        4.948362391575527, 8.86812102927098, 7.820196687070291, 1.0]


def test_estimates_match_on_a_warm_and_a_cold_instance():
    # the red block's layout is built by an instance's first estimate and
    # read by every later one; an estimate on an instance whose layout
    # earlier estimates built reads what one on a fresh equal instance does
    def make():
        return gen_planted_two_community(4, 4, 0.6, 0.3, 4)

    warm = make()
    cfg = EstimatorConfig(epsilon=0.3, delta=0.2, seed=5, guarantee=True)
    estimate_mean_hitting(warm, (1,), cfg)
    for shortcuts in ((), (0, 2, 2), (1,)):
        assert spectral_radius(warm, shortcuts) == spectral_radius(make(), shortcuts)
        a = estimate_mean_hitting(warm, shortcuts, cfg)
        b = estimate_mean_hitting(make(), shortcuts, cfg)
        assert (a.value, a.spectral_bound, a.walk_length, a.samples_per_node) == (
            b.value, b.spectral_bound, b.walk_length, b.samples_per_node)
        assert a.per_node_means.tolist() == b.per_node_means.tolist()


def test_greedy_plus_stream_is_pinned():
    graph = gen_planted_two_community(4, 4, 0.6, 0.3, 0)
    cfg = EstimatorConfig(epsilon=0.25, delta=0.1, seed=(9, 0, 1), guarantee=True)
    selection, trace = greedy_plus(graph, 1, epsilon=0.25, estimator_config=cfg,
                                   cap_at_k=False)
    assert selection.endpoints == (0, 0, 0, 1, 1, 1, 2, 2, 2, 3)
    assert trace.endpoints == [0, 2, 1, 0, 2, 0, 1, 3, 1, 2]
    assert trace.values == [
        2.1083877995642704, 1.9380347974900172, 1.8397746719908727,
        1.752780946948089, 1.6747994652406417, 1.6158645276292334,
        1.56729055258467, 1.5337566844919786, 1.5052361853832443,
        1.4799465240641712]
    assert trace.evaluations == 33


@pytest.mark.parametrize("config", [
    pytest.param(EstimatorConfig(epsilon=0.2, delta=0.2, spectral_bound=0.8, seed=0),
                 id="experiment"),
])
def test_only_formula_counts_in_guarantee_mode_take_t_1(path5, config):
    est = estimate_mean_hitting(path5, config=config)
    assert est.samples_per_node == sample_count(est.walk_length, 0.2, 0.2, 5)


def test_guarantee_mode_draws_hoeffdings_count_in_one_stage():
    # ell = 5, a = 0.45, m = 4 start nodes, delta = 0.5: Hoeffding's count
    # at delta/m, ceil(25 ln 16 / (2 a**2)) = 172, in one stage
    planted = gen_planted_two_community(4, 4, 0.6, 0.3, 0)
    est = estimate_mean_hitting(planted, config=EstimatorConfig(
        epsilon=0.9, delta=0.5, seed=3, guarantee=True))
    assert (est.walk_length, est.samples_per_node) == (5, 172)
    assert est.walk_steps == 1506
    assert est.per_node_means.tolist() == [
        2.2790697674418605, 1.930232558139535, 2.4127906976744184, 2.133720930232558]


@pytest.mark.parametrize("graph, epsilon", [
    pytest.param(gen_path(5, [2]), 0.2, id="path5"),
    pytest.param(gen_planted_two_community(4, 4, 0.6, 0.3, 4), 0.3, id="planted4"),
])
def test_guarantee_mode_means_cover_at_the_stated_rate(graph, epsilon):
    # with probability at least 1 - delta every per-node mean lies within
    # epsilon/2 of its bounded-walk expectation
    delta, runs = 0.2, 40
    covered = 0
    for seed in range(runs):
        est = estimate_mean_hitting(graph, config=EstimatorConfig(
            epsilon=epsilon, delta=delta, seed=seed, guarantee=True))
        hoeffding = sample_count(est.walk_length, epsilon / 2, delta, graph.n)
        t_1 = math.ceil(est.walk_length ** 2 * math.log(2 * graph.red_ids.size / delta)
                        / (2 * (epsilon / 2) ** 2))
        assert est.samples_per_node == t_1 < hoeffding
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
