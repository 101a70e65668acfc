"""Absorbing-walk solver: frozen hand values, closed forms, and invariants."""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import hitmin.graph
from hitmin import (
    BipartiteInstance,
    InvalidParameter,
    ShortcutSet,
    SolverFailure,
    augmented_view,
    build_quasi_metric,
    candidate_endpoints,
    evaluate,
    expected_bounded_steps,
    gen_lollipop,
    gen_path,
    gen_planted_two_community,
    hitting_to_blue,
    hitting_to_target,
    spectral_radius,
)
from hitmin import exact
from hitmin.exact import CG_MIN_NODES, DENSE_NODE_LIMIT, _transient_times
from hitmin.graph import shortcut_counts


def test_path5_hand_solved_times(path5):
    profile = hitting_to_blue(path5)
    assert list(profile.red_ids) == [0, 1, 3, 4]
    np.testing.assert_allclose(profile.times, [4.0, 3.0, 3.0, 4.0], atol=1e-9)
    assert profile.mean_time == pytest.approx(3.5, abs=1e-9)
    assert profile.max_time == pytest.approx(4.0, abs=1e-9)
    assert profile.time_of(3) == pytest.approx(3.0, abs=1e-9)


def test_path3_hand_solved_times(path3):
    profile = hitting_to_blue(path3)
    np.testing.assert_allclose(profile.times, [4.0, 3.0], atol=1e-9)


def test_path_endpoint_square_law():
    # on a path with the far end absorbing, time from i is (m^2 - i^2) with m = last index
    m = 6
    inst = gen_path(m + 1, [m])
    profile = hitting_to_blue(inst)
    expect = [m * m - i * i for i in range(m)]
    np.testing.assert_allclose(profile.times, expect, atol=1e-9)


def test_hitting_to_target_path5(path5):
    times = hitting_to_target(path5, 0)
    np.testing.assert_allclose(times, [0.0, 7.0, 12.0, 15.0, 16.0], atol=1e-9)
    # with targets {0, 2}, node 1 is one step away and h3 = 1 + h4 / 2, h4 = 1 + h3
    times = hitting_to_target(path5, [0, 2])
    np.testing.assert_allclose(times, [0.0, 1.0, 0.0, 3.0, 4.0], atol=1e-9)
    np.testing.assert_array_equal(hitting_to_target(path5, range(5)), np.zeros(5))
    with pytest.raises(InvalidParameter):
        hitting_to_target(path5, [0, 5])
    with pytest.raises(InvalidParameter):
        hitting_to_target(path5, [])


def test_hitting_to_target_rejects_a_non_integral_target():
    lollipop = gen_lollipop(5, 3)
    for target in (2.7, [0, 2.5], "2", float("nan")):
        with pytest.raises(InvalidParameter, match="is not a node index"):
            hitting_to_target(lollipop, target)
    # an integral float names its node
    np.testing.assert_array_equal(hitting_to_target(lollipop, 2.0),
                                  hitting_to_target(lollipop, 2))


def test_single_shortcut_profile(path5):
    profile = hitting_to_blue(path5, ShortcutSet((0,)))
    np.testing.assert_allclose(profile.times, [2.0, 2.0, 3.0, 4.0], atol=1e-9)
    assert profile.mean_time == pytest.approx(2.75, abs=1e-9)


def test_pair_shortcut_profile(path5):
    assert evaluate(path5, ShortcutSet((0, 4)), objective="avg") == pytest.approx(2.0, abs=1e-9)
    assert evaluate(path5, ShortcutSet((0, 4)), objective="max") == pytest.approx(2.0, abs=1e-9)


def test_evaluate_objectives(path5, monkeypatch):
    assert evaluate(path5, objective="avg") == pytest.approx(3.5, abs=1e-9)
    assert evaluate(path5, objective="max") == pytest.approx(4.0, abs=1e-9)
    with pytest.raises(InvalidParameter):
        evaluate(path5, objective="median")

    # the objective is checked before any solve: this lollipop's solve
    # without shortcuts fails the residual gate
    def no_solve(*args, **kwargs):
        raise AssertionError("evaluate solved before checking its objective")
    monkeypatch.setattr(exact, "hitting_to_blue", no_solve)
    with pytest.raises(InvalidParameter, match="got 'bogus'"):
        evaluate(gen_lollipop(4000, 30), None, "bogus")


def test_augmentation_matches_manual_instance(path5):
    """A shortcut must behave exactly like the same edge built in directly."""
    manual = BipartiteInstance(
        5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)], list(path5.is_red)
    )
    via_view = hitting_to_blue(path5, ShortcutSet((0,)))
    direct = hitting_to_blue(manual)
    np.testing.assert_array_equal(via_view.times, direct.times)


def test_blue_endpoint_choice_is_irrelevant():
    # two free blue partners for red node 0; the transient block ignores which one is used
    edges = [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)]
    is_red = [True, True, False, False, True]
    base = BipartiteInstance(5, edges, is_red)
    with_2 = BipartiteInstance(5, edges + [(0, 2)], is_red)
    with_3 = BipartiteInstance(5, edges + [(0, 3)], is_red)
    assert base.blue_degree[0] == 0
    t2 = hitting_to_blue(with_2)
    t3 = hitting_to_blue(with_3)
    assert tuple(t2.times) == tuple(t3.times)
    assert t2.mean_time == t3.mean_time
    assert t2.max_time == t3.max_time


def test_profile_ratio_is_hard_asserted(monkeypatch):
    # max/mean never exceeds the red count, and the gated bound 2 n^{3/4}
    # mean only dips below n*mean once n > 16, so a violating profile needs
    # at least 17 red nodes; one big spike among 31 units does it.  The
    # solve is replaced, so the star's 32 red leaves only give the count
    star = BipartiteInstance(33, [(r, 32) for r in range(32)], [True] * 32 + [False])
    spiked = np.array([1.0] * 31 + [1000.0])
    monkeypatch.setattr(exact, "_transient_times", lambda *args: spiked)
    with pytest.raises(SolverFailure, match="ratio bound violated"):
        hitting_to_blue(star)
    # the same shape with a mild spike stays legal
    calm = np.array([1.0] * 31 + [20.0])
    monkeypatch.setattr(exact, "_transient_times", lambda *args: calm)
    assert hitting_to_blue(star).max_time == 20.0


def test_dense_and_sparse_paths_agree():
    inst = gen_planted_two_community(30, 30, 0.2, 0.05, 7)
    dense = hitting_to_blue(inst)
    sparse = hitting_to_blue(inst, dense_limit=0)
    np.testing.assert_allclose(sparse.times, dense.times, atol=1e-9)


def test_times_within_cubic_envelope():
    for seed in range(5):
        inst = gen_planted_two_community(10, 10, 0.3, 0.05, seed)
        profile = hitting_to_blue(inst)
        assert np.all(profile.times >= 1.0)
        assert np.all(profile.times <= inst.n**3)


def _loop_matrix(graph, transient):
    # the row-by-row assembly that the vectorized builder replaced
    pos = np.full(graph.n, -1, dtype=np.int64)
    pos[transient] = np.arange(transient.size)
    A = np.eye(transient.size)
    for i, v in enumerate(transient):
        t_nb = pos[graph.neighbors(v)]
        A[i, t_nb[t_nb >= 0]] -= 1.0 / graph.degrees[v]
    return A


def test_transient_matrix_matches_row_loop(monkeypatch):
    inst = gen_planted_two_community(6, 6, 0.5, 0.2, 3)
    r = max(candidate_endpoints(inst), key=lambda v: inst.capacity[v])
    # the augmented graph written out: two shortcut edges at r
    free = np.setdiff1d(inst.blue_ids, inst.neighbors(r))[:2]
    graph = BipartiteInstance(
        inst.n, list(inst.iter_edges()) + [(r, int(b)) for b in free], inst.is_red)
    seen = []
    dense, sparse = scipy.linalg.lu_factor, scipy.sparse.linalg.splu
    monkeypatch.setattr(scipy.linalg, "lu_factor",
                        lambda a, **kw: (seen.append(a.copy()), dense(a, **kw))[1])
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda a: (seen.append(a.toarray()), sparse(a))[1])
    for transient in (graph.red_ids, np.delete(np.arange(graph.n), r)):
        for dense_limit in (DENSE_NODE_LIMIT, 0):
            seen.clear()
            _transient_times(*exact._chain(graph, transient, graph.degrees), dense_limit)
            np.testing.assert_array_equal(seen[0], _loop_matrix(graph, transient))
    # the counts form of the same red block, on the base graph
    degrees = inst.degrees + shortcut_counts(inst, (r, r))
    for dense_limit in (DENSE_NODE_LIMIT, 0):
        seen.clear()
        _transient_times(*exact._chain_to_blue(inst, degrees), dense_limit)
        np.testing.assert_array_equal(seen[0], _loop_matrix(graph, graph.red_ids))


def _tree_plus(m, extra, parts=1, seed=0):
    # blue node 0 and red nodes 1..m in `parts` random trees, each hung from
    # node 0, plus `extra` chords inside the first tree: the red block's
    # cycle rank is `extra`, with `parts` components
    rng = np.random.default_rng(seed)
    size = m // parts
    edges = []
    for lo in range(1, m + 1, size):
        edges.append((0, lo))
        edges += [(v, int(rng.integers(lo, v))) for v in range(lo + 1, lo + size)]
    present = {frozenset(e) for e in edges}
    while len(present) < m + extra:
        chord = frozenset(int(v) for v in rng.choice(np.arange(1, size + 1), 2,
                                                      replace=False))
        if chord not in present:
            present.add(chord)
            edges.append(tuple(chord))
    return BipartiteInstance(m + 1, edges, [v != 0 for v in range(m + 1)])


def _grid(side):
    # a side x side grid with one blue corner: all but a few red nodes lie in
    # the kernel, and hitting times stay in the thousands
    idx = np.arange(side * side).reshape(side, side)
    edges = np.concatenate((np.column_stack((idx[:, :-1].ravel(), idx[:, 1:].ravel())),
                            np.column_stack((idx[:-1].ravel(), idx[1:].ravel()))))
    return BipartiteInstance(side * side, edges, np.arange(side * side) != 0)


def _direct(monkeypatch, call):
    # the same call with the CG path switched off
    with monkeypatch.context() as patched:
        patched.setattr(exact, "CG_MIN_NODES", np.inf)
        return call()


def _record_factors(monkeypatch):
    # each factorization as ("dense" or "sparse", unknowns), in call order
    seen = []
    dense, sparse = scipy.linalg.lu_factor, scipy.sparse.linalg.splu
    monkeypatch.setattr(scipy.linalg, "lu_factor",
                        lambda a, **kw: (seen.append(("dense", a.shape[0])),
                                         dense(a, **kw))[1])
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda a: (seen.append(("sparse", a.shape[0])), sparse(a))[1])
    return seen


def test_solver_path_is_picked_by_unknowns(monkeypatch):
    # a block is cycle-rich when its cycle rank exceeds an eighth of its m
    # unknowns and, past 4 DENSE_MIN_KERNEL unknowns, its kernel (the 2-core's
    # nodes of degree at least 3) holds at least a quarter of them; CG for a
    # cycle-rich block of at least CG_MIN_NODES unknowns; else dense LU for a
    # cycle-rich block of up to dense_limit unknowns, whatever the node
    # count, and sparse LU for every other block
    inst = gen_planted_two_community(6, 8, 0.5, 0.2, 3)
    n, r = inst.n, inst.red_count
    seen = _record_factors(monkeypatch)

    def blue_times(instance):
        return lambda limit: hitting_to_blue(instance, dense_limit=limit)

    planted = gen_planted_two_community(CG_MIN_NODES, 100, 0.05, 0.02, 4)

    cases = [
        (blue_times(inst), {r: [("dense", r)], r - 1: [("sparse", r)]}),
        # the blue-point column, then the table's one grounded factor
        (lambda limit: build_quasi_metric(inst, dense_limit=limit),
         {n - 1: [("dense", r), ("dense", n - 1)],
          n - 2: [("dense", r), ("sparse", n - 1)]}),
        # a path with a 10-clique: cycle rank 36 of 1009 unknowns
        (blue_times(gen_lollipop(1000, 10)), {DENSE_NODE_LIMIT: [("sparse", 1009)]}),
        # cycle rank 5 = 40/8 is a near-forest, on either side of dense_limit
        (blue_times(_tree_plus(40, 5)), {40: [("sparse", 40)], 39: [("sparse", 40)]}),
        # cycle rank 6 is cyclic enough, dense within dense_limit
        (blue_times(_tree_plus(40, 6)), {40: [("dense", 40)], 39: [("sparse", 40)]}),
        # rank 6 only once the second component is counted
        (blue_times(_tree_plus(40, 6, parts=2)), {40: [("dense", 40)]}),
        (blue_times(_tree_plus(40, 5, parts=2)), {40: [("sparse", 40)]}),
        # cycle-rich by rank, but its 406 cycles lie in a 30-node kernel
        (blue_times(gen_lollipop(400, 30)), {DENSE_NODE_LIMIT: [("sparse", 429)]}),
        # at most 4 DENSE_MIN_KERNEL unknowns the rank decides; past them a
        # kernel of 100 is half the unknowns
        (blue_times(gen_lollipop(50, 20)), {DENSE_NODE_LIMIT: [("dense", 69)]}),
        (blue_times(gen_lollipop(100, 100)), {DENSE_NODE_LIMIT: [("dense", 199)]}),
        # cycle-rich planted blocks: CG from CG_MIN_NODES unknowns, whatever
        # dense_limit says, and dense LU one unknown below
        (blue_times(planted), {DENSE_NODE_LIMIT: [], 0: []}),
        (blue_times(gen_planted_two_community(CG_MIN_NODES - 1, 100, 0.05, 0.02, 4)),
         {DENSE_NODE_LIMIT: [("dense", CG_MIN_NODES - 1)]}),
    ]
    for call, expected in cases:
        for limit, factors in expected.items():
            seen.clear()
            call(limit)
            assert seen == factors

    # the re-routed lollipop agrees with a dense solve of the row-loop matrix
    graph = gen_lollipop(1000, 10)
    solved = np.linalg.solve(_loop_matrix(graph, graph.red_ids), np.ones(1009))
    np.testing.assert_allclose(hitting_to_blue(graph).times, solved, rtol=1e-12, atol=0)

    # the CG block agrees with a forced direct solve, which is dense LU
    seen.clear()
    direct = _direct(monkeypatch, lambda: hitting_to_blue(planted).times)
    assert seen == [("dense", CG_MIN_NODES)]
    np.testing.assert_allclose(hitting_to_blue(planted).times, direct,
                               rtol=1e-12, atol=0)

    # the kernel test only ever overrules the cycle rank's yes
    blocks = [_tree_plus(40, extra, parts) for extra in (5, 6) for parts in (1, 2)]
    blocks += [gen_lollipop(p, c) for p, c in ((50, 20), (400, 30), (1000, 10),
                                               (100, 100), (520, 30), (350, 200))]
    blocks += [inst, planted, gen_planted_two_community(200, 200, 0.1, 0.01, 1)]
    flags = [(exact._has_many_cycles(b._red_chain.adjacency), b._red_chain.cyclic)
             for b in blocks]
    assert (False, True) not in flags
    assert (True, False) in flags and (True, True) in flags


def test_cg_miss_falls_back_to_the_direct_path(monkeypatch):
    misses = []
    cg = exact._cg_times

    def spy(*args):
        h = cg(*args)
        misses.append(h is None)
        return h

    monkeypatch.setattr(exact, "_cg_times", spy)
    seen = _record_factors(monkeypatch)
    # 624 unknowns of a grid, nearly all in the kernel: CG reaches its cap,
    # dense LU passes the gate
    inst = _grid(25)
    times = hitting_to_blue(inst).times
    assert misses == [True] and seen == [("dense", 624)]
    assert times.tobytes() == _direct(monkeypatch,
                                      lambda: hitting_to_blue(inst).times).tobytes()
    # both paths miss on a 200-node kernel of 549 unknowns: the failure names
    # the direct path and its size
    misses.clear()
    with pytest.raises(SolverFailure,
                       match=r"after refinement \(dense LU, 549 unknowns\)$"):
        hitting_to_blue(gen_lollipop(350, 200))
    assert misses == [True]
    # 549 unknowns, cycle-rich by rank, but with a 30-node kernel: no CG run,
    # and sparse LU passes the gate
    misses.clear()
    seen.clear()
    hitting_to_blue(gen_lollipop(520, 30))
    assert misses == [] and seen == [("sparse", 549)]


@pytest.mark.parametrize("dense_limit, path", [(DENSE_NODE_LIMIT, "dense LU"),
                                               (0, "sparse LU")])
def test_solver_failure_names_the_path(monkeypatch, dense_limit, path):
    monkeypatch.setattr("hitmin.exact.RESIDUAL_TOL", -1.0)
    inst = gen_planted_two_community(30, 30, 0.2, 0.05, 7)
    with pytest.raises(SolverFailure,
                       match=rf"after refinement \({path}, 30 unknowns\)$"):
        hitting_to_blue(inst, dense_limit=dense_limit)


def _nan_solve(rhs):
    return np.full(np.shape(rhs), np.nan)


@pytest.mark.parametrize("dense_limit, path", [(DENSE_NODE_LIMIT, "dense LU"),
                                               (0, "sparse LU")])
def test_nan_solutions_fail_the_gate(monkeypatch, dense_limit, path):
    # a factor whose every solve is NaN: no NaN times and no NaN table
    monkeypatch.setattr(scipy.linalg, "lu_solve", lambda lu, rhs: _nan_solve(rhs))
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda a: SimpleNamespace(solve=_nan_solve))
    inst = gen_planted_two_community(20, 20, 0.3, 0.1, 2)
    with pytest.raises(SolverFailure,
                       match=rf"^residual nan .* \({path}, 20 unknowns\)$"):
        hitting_to_blue(inst, dense_limit=dense_limit)
    with pytest.raises(SolverFailure):
        build_quasi_metric(inst, dense_limit=dense_limit)


# one case per solver path of a red block
_PATH_CASES = pytest.mark.parametrize("make, dense_limit, factors", [
    (lambda: gen_planted_two_community(CG_MIN_NODES, 500, 0.05, 0.01, 5),
     DENSE_NODE_LIMIT, []),
    (lambda: gen_planted_two_community(200, 200, 0.1, 0.01, 1),
     DENSE_NODE_LIMIT, [("dense", 200)]),
    (lambda: gen_lollipop(50, 20), 0, [("sparse", 69)]),
    # sparse LU by default: a 30-node kernel in 429 unknowns
    (lambda: gen_lollipop(400, 30), DENSE_NODE_LIMIT, [("sparse", 429)]),
], ids=["CG", "dense LU", "sparse LU", "sparse LU small kernel"])


@_PATH_CASES
def test_gate_rejects_a_perturbed_solution(monkeypatch, make, dense_limit, factors):
    seen = _record_factors(monkeypatch)
    inst = make()
    h = hitting_to_blue(inst, dense_limit=dense_limit).times
    assert seen == factors
    chain = exact._chain(inst, inst.red_ids, inst.degrees)
    assert exact._passes(exact._residual(*chain, h, 1.0))
    # (I - Q) h = 1 makes the residual of c h equal 1 - c in every row, up to
    # rounding
    assert not exact._passes(exact._residual(*chain, h * (1 + 1e-7), 1.0))


@_PATH_CASES
def test_warm_instance_solves_to_the_bits_of_a_fresh_one(monkeypatch, make,
                                                         dense_limit, factors):
    # every solve after the first reads the instance's red block; each still
    # takes its own path and factor, and its times are, bit for bit, those
    # a freshly built equal instance gives
    seen = _record_factors(monkeypatch)
    warm = make()
    shortcuts = ShortcutSet(candidate_endpoints(warm)[-4:])
    for _ in range(2):
        for multiset in (None, shortcuts):
            hitting_to_blue(warm, multiset, dense_limit)
    assert seen == 4 * factors
    for multiset in (None, shortcuts):
        seen.clear()
        cold = hitting_to_blue(make(), multiset, dense_limit).times
        assert hitting_to_blue(warm, multiset, dense_limit).times.tobytes() == cold.tobytes()
        assert seen == 2 * factors


def _count_blocks(monkeypatch):
    # the size of every node set that an induced block is built on
    sizes = []
    entries = hitmin.graph.block_entries

    def counting(graph, nodes):
        sizes.append(nodes.size)
        return entries(graph, nodes)

    monkeypatch.setattr(exact, "block_entries", counting)
    monkeypatch.setattr(hitmin.graph, "block_entries", counting)
    return sizes


@pytest.mark.parametrize("estimator_first", [False, True])
def test_one_red_block_per_instance(monkeypatch, estimator_first):
    sizes = _count_blocks(monkeypatch)
    inst = gen_planted_two_community(30, 20, 0.3, 0.1, 5)
    shortcuts = ShortcutSet(candidate_endpoints(inst)[:3])
    exact_calls = [
        lambda: hitting_to_blue(inst),
        lambda: hitting_to_blue(inst, shortcuts),
        lambda: exact._shortcut_means(inst, shortcuts, candidate_endpoints(inst, shortcuts)),
        lambda: expected_bounded_steps(inst, shortcuts, 5),
    ]
    estimator_calls = [lambda: augmented_view(inst, shortcuts),
                       lambda: spectral_radius(inst, shortcuts)]
    first, then = ((estimator_calls, exact_calls) if estimator_first
                   else (exact_calls, estimator_calls))
    for call in first:
        call()
    # exact solves alone build no count-table layout
    assert estimator_first or "_red_block" not in vars(inst)
    for call in then:
        call()
    assert sizes == [inst.red_count]
    # the layout reads its entries from the red block, and both are read-only
    adjacency = inst._red_chain.adjacency
    np.testing.assert_array_equal(inst._red_block.cols, adjacency.indices)
    for arr in (adjacency.data, adjacency.indices, adjacency.indptr,
                *inst._red_chain.pattern, inst._red_block.rows, inst._red_block.cols):
        assert not arr.flags.writeable

    # every other transient set builds its own block on every call
    sizes.clear()
    hitting_to_target(inst, 0)
    hitting_to_target(inst, 0)
    assert sizes == [inst.n - 1, inst.n - 1]
    sizes.clear()
    assert build_quasi_metric(inst).fallback_columns == 0
    # the whole graph's chain for the gate, then the grounded one
    assert sizes == [inst.n, inst.n - 1]


@pytest.mark.parametrize("dense_limit", [DENSE_NODE_LIMIT, 0])
def test_inverse_diagonal_is_solved_in_blocks(monkeypatch, dense_limit):
    # 20 unknowns, blocks of 7: the last block is short
    monkeypatch.setattr(exact, "SOLVE_BLOCK", 7)
    inst = gen_planted_two_community(20, 10, 0.4, 0.1, 2)
    adjacency, d = exact._chain(inst, inst.red_ids, inst.degrees)
    solve, _ = exact._factored(adjacency, d, dense_limit)
    # I - Q is minus the residual of the identity against a zero right-hand side
    inverse = np.linalg.inv(-exact._residual(adjacency, d, np.eye(20), 0.0))
    np.testing.assert_allclose(exact._inverse_diagonal(solve, 20), np.diag(inverse),
                               rtol=1e-13, atol=0)


def test_shortcut_means_match_exact_solves():
    inst = gen_planted_two_community(30, 20, 0.3, 0.1, 5)
    shortcuts = ShortcutSet(candidate_endpoints(inst)[:3])
    cands = candidate_endpoints(inst, shortcuts)
    means = [evaluate(inst, shortcuts.with_added(r)) for r in cands]
    np.testing.assert_allclose(exact._shortcut_means(inst, shortcuts, cands), means,
                               rtol=1e-13, atol=0)


def _sha1(times):
    return hashlib.sha1(times.tobytes()).hexdigest()


# SHA-1 of times.tobytes(), recorded while every solve still built an overlay
@pytest.mark.parametrize("make, shortcuts, digest", [
    (lambda: gen_planted_two_community(30, 30, 0.2, 0.05, 7), (3, 11, 11, 24),
     "fc7534c0754c4e173ea7b0d8356defc0eef17271"),
])
def test_shortcut_times_are_pinned(make, shortcuts, digest):
    assert _sha1(hitting_to_blue(make(), ShortcutSet(shortcuts)).times) == digest


def test_cg_times_are_pinned(monkeypatch):
    # the CG path's bits do not depend on the BLAS thread count: its sums are
    # NumPy's and its products scipy's serial sparse ones
    def no_factor(*args):
        raise AssertionError("a 600-unknown planted block should not be factored")
    monkeypatch.setattr(scipy.linalg, "lu_factor", no_factor)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", no_factor)
    times = hitting_to_blue(gen_planted_two_community(600, 600, 0.05, 0.01, 5)).times
    assert _sha1(times) == "b839a8a600d4b775a990912f5595a8cdf87fc852"


def test_lollipop_shortcut_times_are_pinned_on_the_sparse_path(monkeypatch):
    # the 429-unknown block's 30-node kernel sends it to sparse LU by
    # default, whose bits do not vary with the BLAS thread count; a forced
    # dense solve agrees to rounding
    inst, shortcuts = gen_lollipop(400, 30), ShortcutSet((50, 200, 399, 420))
    seen = _record_factors(monkeypatch)
    default = hitting_to_blue(inst, shortcuts).times
    assert seen == [("sparse", 429)]
    assert _sha1(default) == "a6fafcb918e6f6b5d217410741a034980266a2ae"
    with monkeypatch.context() as patched:
        patched.setattr(exact._Block, "cyclic", True)
        dense = hitting_to_blue(gen_lollipop(400, 30), shortcuts).times
    assert seen[-1] == ("dense", 429)
    np.testing.assert_allclose(dense, default, rtol=1e-12, atol=0)
