"""Instance construction, shortcut bookkeeping, and serialization."""

import numpy as np
import pytest

from hitmin import (
    AugmentedView,
    BipartiteInstance,
    CapacityExceeded,
    DisconnectedGraph,
    InvalidBipartition,
    InvalidParameter,
    MalformedInput,
    ShortcutSet,
    augmented_view,
    candidate_endpoints,
    gen_planted_two_community,
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
    assert s.k_used == 3
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


def test_augmented_view_adds_lowest_free_blue(path5):
    view = augmented_view(path5, ShortcutSet((0,)))
    assert isinstance(view, AugmentedView)
    assert view.edge_count == 5
    assert list(view.neighbors(0)) == [1, 2]
    assert 0 in list(view.neighbors(2))
    assert list(view.degrees) == [2, 2, 3, 2, 1]
    assert list(view.blue_degree) == [1, 1, 0, 1, 0]
    # base untouched
    assert path5.edge_count == 4


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


def test_augmented_view_splices_csr_rows():
    base = _two_blue_instance()
    indptr, indices = base.indptr.copy(), base.indices.copy()
    view = augmented_view(base, ShortcutSet((1, 0, 0)))
    # 0 takes blue 3 and 4, 1 takes blue 3; base neighbours first, then the
    # added partners in ascending order
    rows = [list(view.indices[view.indptr[v]:view.indptr[v + 1]]) for v in range(6)]
    assert rows == [[1, 5, 3, 4], [0, 2, 3], [1, 3], [2, 4, 0, 1], [3, 5, 0], [0, 4]]
    assert [list(view.neighbors(v)) for v in range(6)] == rows
    assert list(view.degrees) == [len(r) for r in rows]
    np.testing.assert_array_equal(base.indptr, indptr)
    np.testing.assert_array_equal(base.indices, indices)
    for arr in (base.indptr, base.indices, view.indptr, view.indices):
        assert not arr.flags.writeable
    assert np.shares_memory(base.neighbors(3), base.indices)


def test_block_entries_match_a_loop_over_rows():
    inst = gen_planted_two_community(6, 6, 0.5, 0.2, 3)
    r = candidate_endpoints(inst)[0]
    for graph in (inst, augmented_view(inst, ShortcutSet((r,)))):
        for nodes in (graph.red_ids, np.flatnonzero(np.arange(graph.n) != r)):
            pos = {int(v): i for i, v in enumerate(nodes)}
            expect = [(i, pos[int(w)]) for i, v in enumerate(nodes)
                      for w in graph.neighbors(v) if int(w) in pos]
            rows, cols = block_entries(graph, nodes)
            assert list(zip(rows.tolist(), cols.tolist())) == expect
