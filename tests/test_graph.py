"""Instance construction, shortcut bookkeeping, and serialization."""

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from hitmin import (
    AugmentedView,
    BipartiteInstance,
    CapacityExceeded,
    DisconnectedGraph,
    EstimatorConfig,
    InvalidBipartition,
    InvalidParameter,
    MalformedInput,
    ShortcutSet,
    augmented_view,
    candidate_endpoints,
    estimate_mean_hitting,
    gen_lollipop,
    gen_path,
    gen_planted_two_community,
    hitting_to_blue,
    load_instance,
)
from hitmin.graph import block_entries


def test_construction_rejects_disconnected():
    with pytest.raises(DisconnectedGraph):
        BipartiteInstance(4, [(0, 1), (2, 3)], [True, False, True, False])


def test_construction_rejects_single_color():
    with pytest.raises(InvalidBipartition):
        BipartiteInstance(3, [(0, 1), (1, 2)], [True, True, True])
    with pytest.raises(InvalidBipartition):
        BipartiteInstance(3, [(0, 1), (1, 2)], [False, False, False])


def test_construction_rejects_bad_edges():
    with pytest.raises(MalformedInput):
        BipartiteInstance(3, [(0, 0), (0, 1), (1, 2)], [True, False, True])
    with pytest.raises(MalformedInput):
        BipartiteInstance(3, [(0, 3), (0, 1)], [True, False, True])


def test_path_degrees_and_ids(path5):
    assert path5.n == 5
    assert path5.edge_count == 4
    assert list(path5.degrees) == [1, 2, 2, 2, 1]
    assert list(path5.blue_degree) == [0, 1, 0, 1, 0]
    assert list(path5.red_ids) == [0, 1, 3, 4]
    assert list(path5.blue_ids) == [2]
    assert path5.red_count == 4
    assert path5.blue_count == 1
    assert list(path5.neighbors(2)) == [1, 3]


def test_shortcut_set_is_sorted_and_counted():
    s = ShortcutSet((4, 0, 4))
    assert s.endpoints == (0, 4, 4)
    assert len(s) == 3
    assert dict(s.counts()) == {0: 1, 4: 2}
    assert s.with_added(0).endpoints == (0, 0, 4, 4)
    # original unchanged
    assert s.endpoints == (0, 4, 4)


def test_shortcut_coerce():
    s = ShortcutSet((0, 4))
    assert ShortcutSet.coerce(s) is s
    assert ShortcutSet.coerce([4, 0]).endpoints == (0, 4)
    assert ShortcutSet.coerce(None).endpoints == ()


def test_augmented_view_capacity(path5):
    # node 0 has a single blue partner available, a second copy cannot land
    with pytest.raises(CapacityExceeded):
        augmented_view(path5, ShortcutSet((0, 0)))


def test_augmented_view_rejects_blue_endpoint(path5):
    with pytest.raises(InvalidParameter):
        augmented_view(path5, ShortcutSet((2,)))


def test_candidate_endpoints_shrink(path5):
    assert candidate_endpoints(path5) == [0, 4]
    assert candidate_endpoints(path5, ShortcutSet((0,))) == [4]
    assert candidate_endpoints(path5, ShortcutSet((0, 4))) == []


def test_load_instance_comments_and_labels():
    edges = ["# a comment", "a b", "b c", ""]
    parts = ["a R", "b B", "# trailing", "c red"]
    inst = load_instance(edges, parts)
    assert inst.n == 3
    assert inst.edge_count == 2
    assert inst.red_count == 2
    assert inst.name_of(inst.index_of("a")) == "a"


def test_load_instance_duplicate_edge_warns():
    with pytest.warns(UserWarning):
        inst = load_instance(["a b", "b a", "b c"], ["a R", "b B", "c R"])
    assert inst.edge_count == 2


def test_load_instance_label_conflict():
    with pytest.raises(MalformedInput):
        load_instance(["a b"], ["a R", "a B", "b B"])


def test_load_instance_unlabeled_node():
    with pytest.raises(InvalidBipartition):
        load_instance(["a b", "b c"], ["a R", "b B"])


def test_serialization_roundtrip(path5):
    back = load_instance(path5.to_edge_lines(), path5.to_partition_lines())
    assert back.n == path5.n
    assert back.edge_count == path5.edge_count
    assert back.red_count == path5.red_count
    assert sorted(back.degrees) == sorted(path5.degrees)
    assert sorted(back.blue_degree) == sorted(path5.blue_degree)


def _two_blue_instance():
    # red 0, 1, 2 and blue 3, 4, 5; red 0 already touches blue 5
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
    return BipartiteInstance(6, edges, [True, True, True, False, False, False])


def _loop_rows(inst, shortcuts):
    # each red node's table row, from a loop over its neighbours:
    # absorption with probability (d - r)/d, zero padding, then each red
    # neighbour with probability 1/d, in r + 1 rounded up to a power of two
    # and at least 8 categories; targets name nodes, -1 where a category
    # absorbs or pads.  A node with no red neighbour has no row
    counts = ShortcutSet(shortcuts).counts()
    rows = {}
    for v in inst.red_ids.tolist():
        d = int(inst.degrees[v]) + counts[v]
        red = [int(w) for w in inst.neighbors(v) if inst.is_red[w]]
        if not red:
            continue
        width = 8
        while width < len(red) + 1:
            width *= 2
        pad = width - len(red) - 1
        rows[v] = ([(d - len(red)) / d] + [0.0] * pad + [1 / d] * len(red),
                   [-1] * (pad + 1) + red)
    return rows


def _view_rows(view):
    # the same rows read back from the buckets, targets as node ids
    node_of = np.empty(view.row.size, dtype=np.int64)
    node_of[view.row] = view.red_ids
    rows = {}
    for lo, pvals, targets in view.buckets:
        for i in range(len(pvals)):
            rows[int(node_of[lo + i])] = (
                pvals[i].tolist(),
                [int(node_of[t]) if t >= 0 else -1 for t in targets[i]])
    return rows


_VIEW_CASES = pytest.mark.parametrize("make, shortcuts", [
    (lambda: gen_path(5, [2]), (0,)),
    (_two_blue_instance, (1, 0, 0)),
    # node 3's one neighbour is blue, node 1's is red
    (lambda: gen_planted_two_community(4, 4, 0.6, 0.3, 4), (0, 2, 2)),
    # red degrees of 9 and 10: a second bucket, 16 wide
    (lambda: gen_lollipop(20, 10), (29,)),
], ids=["path5", "two_blue", "planted4", "lollipop"])


@_VIEW_CASES
def test_augmented_view_matches_a_loop_over_neighbors(make, shortcuts):
    inst = make()
    view = augmented_view(inst, ShortcutSet(shortcuts))
    assert isinstance(view, AugmentedView)
    assert _view_rows(view) == _loop_rows(inst, shortcuts)
    np.testing.assert_array_equal(view.red_ids, inst.red_ids)
    assert view.slots == int(inst.degrees[inst.red_ids].sum()) + len(shortcuts)
    # buckets of ascending width tile the table rows after those of the
    # nodes with no red neighbour, each width's rows in red_ids order
    width = {v: len(p) for v, (p, _) in _loop_rows(inst, shortcuts).items()}
    widths, lo = [], inst.red_count - len(width)
    for start, pvals, targets in view.buckets:
        assert start == lo and pvals.shape == targets.shape
        assert pvals.dtype == np.float64 and targets.dtype == np.int64
        widths.append(pvals.shape[1])
        lo += len(pvals)
    assert lo == inst.red_count and widths == sorted(set(widths))
    assert view.red_ids[np.argsort(view.row)].tolist() == sorted(
        inst.red_ids.tolist(), key=lambda v: (width.get(v, 0), v))


@_VIEW_CASES
def test_augmented_views_share_one_red_block_layout(make, shortcuts):
    # the first view builds the instance's layout and every later view
    # reads it, filling only its own probabilities: each view matches the
    # loop, and a view without shortcuts built after one with them is, bit
    # for bit, the view a fresh equal instance builds first
    inst = make()
    assert "_red_block" not in vars(inst)
    with_shortcuts = augmented_view(inst, ShortcutSet(shortcuts))
    block = inst._red_block
    plain = augmented_view(inst)
    again = augmented_view(inst, ShortcutSet(shortcuts))
    assert inst._red_block is block
    assert _view_rows(with_shortcuts) == _view_rows(again) == _loop_rows(inst, shortcuts)
    assert _view_rows(plain) == _loop_rows(inst, ())
    cold = augmented_view(make())
    np.testing.assert_array_equal(plain.row, cold.row)
    assert len(plain.buckets) == len(cold.buckets)
    for (lo, pvals, targets), (lo_c, pvals_c, targets_c) in zip(plain.buckets, cold.buckets):
        assert lo == lo_c
        assert pvals.tobytes() == pvals_c.tobytes()
        np.testing.assert_array_equal(targets, targets_c)
    # the layout's arrays are shared by the views and read-only
    assert plain.row is with_shortcuts.row is block.row
    for (_, _, targets), (_, _, shared) in zip(plain.buckets, with_shortcuts.buckets):
        assert targets is shared
    layout = (block.rows, block.cols, block.start, block.red, block.row,
              block.absorbing, block.absorbed_at, block.entry_at,
              *(targets for _, _, targets in block.buckets))
    for arr in layout:
        assert not arr.flags.writeable


def test_augmented_view_leaves_the_base_untouched():
    base = _two_blue_instance()
    indptr, indices = base.indptr.copy(), base.indices.copy()
    view = augmented_view(base, ShortcutSet((1, 0, 0)))
    np.testing.assert_array_equal(base.indptr, indptr)
    np.testing.assert_array_equal(base.indices, indices)
    assert list(base.degrees) == [2] * 6
    assert base.edge_count == 6
    tables = [arr for _, pvals, targets in view.buckets for arr in (pvals, targets)]
    for arr in (base.indptr, base.indices, base.degrees, view.row, *tables):
        assert not arr.flags.writeable
    assert np.shares_memory(base.neighbors(3), base.indices)


def test_augmented_view_is_linear_in_the_red_slots():
    # a red star: the centre has 2000 red leaves and one blue neighbour.
    # Padding every row to the largest degree would take 2001 x 2048
    # numbers per array; the centre's row takes 2048 and each leaf's 8
    leaves = 2000
    edges = [(0, v) for v in range(1, leaves + 2)]
    star = BipartiteInstance(leaves + 2, edges, [True] * (leaves + 1) + [False])
    view = augmented_view(star)
    assert view.slots == 2 * leaves + 1
    cells = sum(pvals.size for _, pvals, _ in view.buckets)
    assert cells == 2048 + 8 * leaves
    assert cells <= 2 * view.slots + 8 * star.red_count


def test_block_entries_match_a_loop_over_rows():
    inst = gen_planted_two_community(6, 6, 0.5, 0.2, 3)
    r = candidate_endpoints(inst)[0]
    for nodes in (inst.red_ids, np.flatnonzero(np.arange(inst.n) != r)):
        pos = {int(v): i for i, v in enumerate(nodes)}
        expect = [(i, pos[int(w)]) for i, v in enumerate(nodes)
                  for w in inst.neighbors(v) if int(w) in pos]
        rows, cols = block_entries(inst, nodes)
        assert list(zip(rows.tolist(), cols.tolist())) == expect


def _csr(graph):
    return (graph.indptr.tolist(), graph.indices.tolist(), graph.degrees.tolist(),
            graph.blue_degree.tolist(), graph.edge_count)


def test_array_and_list_edges_build_the_same_csr():
    inst = gen_planted_two_community(30, 20, 0.3, 0.05, 9)
    edges = list(inst.iter_edges())
    rng = np.random.default_rng(0)
    # any edge order and orientation gives the same rows
    shuffled = [edges[i][::-1] if i % 3 else edges[i]
                for i in rng.permutation(len(edges))]
    for given in (edges, shuffled):
        from_list = BipartiteInstance(inst.n, given, inst.is_red)
        from_array = BipartiteInstance(inst.n, np.array(given), inst.is_red)
        assert _csr(from_list) == _csr(from_array) == _csr(inst)


@pytest.mark.parametrize("edges, error, message", [
    ([(0, 1, 2), (1, 2, 3)], MalformedInput, "edges must be (u, v) pairs"),
    ([0, 1, 1, 2], MalformedInput, "edges must be (u, v) pairs"),
    ([], DisconnectedGraph, "graph has 3 node(s) unreachable from node 0"),
    ([(0, 1), (1, 2), (2, 4), (3, 3), (0, 1)], MalformedInput,
     "edge (2, 4) out of range for n=4"),
    ([(0, 1), (-1, 2)], MalformedInput, "edge (-1, 2) out of range for n=4"),
    ([(0, 1), (1, 1), (2, 5), (1, 0)], MalformedInput, "self-loop at node 1"),
    ([(0, 1), (1, 2), (2, 1), (3, 3)], MalformedInput, "duplicate edge (1, 2)"),
    ([(2, 3), (0, 1), (1, 2), (3, 2)], MalformedInput, "duplicate edge (2, 3)"),
    ([(0, 1), (1, 2), (0, 1), (2, 3)], MalformedInput, "duplicate edge (0, 1)"),
])
def test_array_and_list_edges_raise_the_same_error(edges, error, message):
    # the first bad edge in input order is the one reported
    as_array = (np.array(edges, dtype=np.int64) if edges
                else np.zeros((0, 2), dtype=np.int64))
    for given in (edges, as_array):
        with pytest.raises(error) as caught:
            BipartiteInstance(4, given, [True, True, False, False])
        assert str(caught.value) == message


def _unreachable_from_zero(n, edges):
    adj = coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
    _count, labels = connected_components(adj, directed=False)
    return int(np.count_nonzero(labels != labels[0]))


@pytest.mark.parametrize("n_red, n_blue, p_in", [(4, 4, 0.9), (2500, 1500, 0.01)])
def test_disconnected_graph_reports_the_unreachable_count(n_red, n_blue, p_in):
    # two planted communities with their cross edges dropped
    inst = gen_planted_two_community(n_red, n_blue, p_in, p_in / 10, 11)
    edges = np.array(list(inst.iter_edges()))
    same = inst.is_red[edges[:, 0]] == inst.is_red[edges[:, 1]]
    edges = edges[same]
    unreachable = _unreachable_from_zero(inst.n, edges)
    assert unreachable >= n_blue
    with pytest.raises(DisconnectedGraph) as caught:
        BipartiteInstance(inst.n, edges, inst.is_red)
    assert str(caught.value) == f"graph has {unreachable} node(s) unreachable from node 0"
    # relabelled v -> n - 1 - v, so node 0 sits in the blue community
    flipped = inst.n - 1 - edges
    with pytest.raises(DisconnectedGraph) as caught:
        BipartiteInstance(inst.n, flipped, inst.is_red[::-1])
    assert str(caught.value) == (
        f"graph has {_unreachable_from_zero(inst.n, flipped)} node(s) "
        "unreachable from node 0")


def test_capacity_is_read_only_and_counts_free_blue_slots(tiny_batch, path5):
    for inst in tiny_batch + [path5]:
        assert not inst.capacity.flags.writeable
        red = inst.is_red
        np.testing.assert_array_equal(inst.capacity[red],
                                      inst.blue_count - inst.blue_degree[red])
        assert not inst.capacity[~red].any()


def _old_candidate_loop(inst, shortcuts):
    counts = ShortcutSet.coerce(shortcuts).counts()
    return [int(r) for r in inst.red_ids
            if inst.blue_degree[r] + counts.get(int(r), 0) < inst.blue_count]


def test_candidate_endpoints_match_the_row_loop(tiny_batch):
    for inst in tiny_batch:
        cands = candidate_endpoints(inst)
        assert cands == _old_candidate_loop(inst, None)
        for r in cands:
            full = (r,) * int(inst.blue_count - inst.blue_degree[r])
            for extra in [()] + [(e,) for e in cands if e != r]:
                shortcuts = ShortcutSet(full + extra)
                assert (candidate_endpoints(inst, shortcuts)
                        == _old_candidate_loop(inst, shortcuts))


# messages recorded before the shortcut rule moved into shortcut_counts
_PLANTED = (30, 30, 0.2, 0.05, 7)
_SHORTCUT_ERRORS = [
    (_PLANTED, (3, 40), InvalidParameter, "shortcut endpoint 40 is not a red node"),
    (_PLANTED, (-1, 3), InvalidParameter, "shortcut endpoint -1 is not a red node"),
    (_PLANTED, (3, 60), InvalidParameter, "shortcut endpoint 60 is not a red node"),
    (_PLANTED, (1,) * 27, CapacityExceeded,
     "endpoint 1 has 26 free blue slot(s), needs 27"),
    # the lowest bad endpoint is reported, whatever is wrong with it
    (_PLANTED, (0,) * 29 + (45,), CapacityExceeded,
     "endpoint 0 has 28 free blue slot(s), needs 29"),
    (_PLANTED, (0,) * 29 + (-2,), InvalidParameter,
     "shortcut endpoint -2 is not a red node"),
    (_PLANTED, (1,) * 27 + (60,), CapacityExceeded,
     "endpoint 1 has 26 free blue slot(s), needs 27"),
    # a blue node fails the red check before the capacity check
    (_PLANTED, (40, 40, 60), InvalidParameter,
     "shortcut endpoint 40 is not a red node"),
    # path 0-1-2-3-4 with blue 2: red 1 already touches the only blue node
    (None, (1, 4), CapacityExceeded, "endpoint 1 has 0 free blue slot(s), needs 1"),
]


@pytest.mark.parametrize("planted, shortcuts, error, message", _SHORTCUT_ERRORS)
def test_shortcut_errors_are_the_same_everywhere(planted, shortcuts, error, message):
    inst = gen_planted_two_community(*planted) if planted else gen_path(5, [2])
    config = EstimatorConfig(walk_length=2, samples_per_node=2, spectral_bound=0.5)
    calls = (lambda: hitting_to_blue(inst, ShortcutSet(shortcuts)),
             lambda: augmented_view(inst, ShortcutSet(shortcuts)),
             lambda: estimate_mean_hitting(inst, shortcuts, config))
    for call in calls:
        with pytest.raises(error) as caught:
            call()
        assert str(caught.value) == message
