"""Synthetic instance families."""

import hashlib

import numpy as np
import pytest

import hitmin.generators
from hitmin import (
    BipartiteInstance,
    GenerationFailed,
    InvalidBipartition,
    InvalidParameter,
    evaluate,
    gen_lollipop,
    gen_path,
    gen_planted_two_community,
    gen_star_path_clique,
    hitting_to_blue,
)


def test_gen_path_shape(path5):
    assert path5.n == 5
    assert path5.edge_count == 4
    assert list(path5.blue_ids) == [2]


def test_gen_path_validation():
    with pytest.raises(InvalidBipartition):
        gen_path(3, [0, 1, 2])
    with pytest.raises(InvalidBipartition):
        gen_path(3, [])
    with pytest.raises(InvalidParameter):
        gen_path(2, [0])


def test_star_path_clique_16_layout(spc16):
    # 16-node star (hub blue), 2-node path, 2-node clique
    assert spc16.n == 20
    assert spc16.blue_count == 1
    assert list(spc16.blue_ids) == [0]
    assert spc16.degrees[0] == 16  # 15 leaves plus the path attachment
    profile = hitting_to_blue(spc16)
    assert profile.mean_time == pytest.approx(65 / 19, abs=1e-9)
    assert profile.max_time == pytest.approx(16.0, abs=1e-9)
    # walk down the attached path into the clique: frozen solver values
    np.testing.assert_allclose(profile.times[-4:], [7.0, 12.0, 15.0, 16.0], atol=1e-9)


def test_star_path_clique_accepts_fourth_powers():
    inst = gen_star_path_clique(81)  # 81 = 3^4
    assert inst.n == 81 + 2 * 3
    with pytest.raises(InvalidParameter):
        gen_star_path_clique(15)
    with pytest.raises(InvalidParameter):
        gen_star_path_clique(17)
    with pytest.raises(InvalidParameter):
        gen_star_path_clique(1)


def test_star_path_clique_ratio_grows():
    r16 = evaluate(gen_star_path_clique(16), objective="max") / evaluate(
        gen_star_path_clique(16), objective="avg"
    )
    r256 = evaluate(gen_star_path_clique(256), objective="max") / evaluate(
        gen_star_path_clique(256), objective="avg"
    )
    assert r256 > r16


def test_star_path_clique_max_time_band():
    # the worst red node sits deep in the clique; its escape time grows
    # roughly like the cube of the attachment size
    f16 = evaluate(gen_star_path_clique(16), objective="max")
    f256 = evaluate(gen_star_path_clique(256), objective="max")
    assert f16 == pytest.approx(16.0, abs=1e-9)
    assert 8 * f16 / 8 <= f256 <= 8 * 8 * f16


def test_gen_lollipop_shape():
    inst = gen_lollipop(3, 4)
    # path of 3 plus clique of 4, one bridge edge
    assert inst.n == 7
    assert inst.blue_count == 1
    assert list(inst.blue_ids) == [0]
    assert inst.edge_count == 2 + 1 + 6
    with pytest.raises(InvalidParameter):
        gen_lollipop(1, 3)
    with pytest.raises(InvalidParameter):
        gen_lollipop(3, 0)


def test_planted_two_community_determinism():
    a = gen_planted_two_community(10, 10, 0.4, 0.1, 42)
    b = gen_planted_two_community(10, 10, 0.4, 0.1, 42)
    assert sorted(a.iter_edges()) == sorted(b.iter_edges())
    c = gen_planted_two_community(10, 10, 0.4, 0.1, 43)
    assert sorted(a.iter_edges()) != sorted(c.iter_edges())


@pytest.mark.parametrize("p_in, p_out", [(2.0, 0.1), (0.3, 0.3), (0.5, 0.0)])
def test_planted_two_community_names_the_probability_range(p_in, p_out):
    # p_in = 2 satisfies p_in > p_out > 0, so the message names the bound 1
    with pytest.raises(InvalidParameter, match=r"need 0 < p_out < p_in <= 1, got "
                                               rf"p_in={p_in}, p_out={p_out}$"):
        gen_planted_two_community(4, 4, p_in, p_out, 1)


def test_planted_two_community_validation():
    with pytest.raises(InvalidParameter):
        gen_planted_two_community(5, 5, 0.5, 0.0, 1)
    with pytest.raises(InvalidParameter):
        gen_planted_two_community(5, 5, 0.3, 0.3, 1)
    with pytest.raises(InvalidParameter):
        gen_planted_two_community(5, 5, 0.2, 0.4, 1)


def test_planted_two_community_gives_up():
    # cross probability so small that connectivity never materializes
    with pytest.raises(GenerationFailed):
        gen_planted_two_community(10, 10, 0.9, 1e-12, 0, max_attempts=5)


def test_planted_colors_follow_groups():
    inst = gen_planted_two_community(6, 9, 0.5, 0.2, 3)
    assert inst.red_count == 6
    assert inst.blue_count == 9


def _arrays(graph):
    return (graph.indptr.tolist(), graph.indices.tolist(),
            graph.blue_degree.tolist(), graph.edge_count)


def _digest(graph):
    sha = hashlib.sha1()
    for arr in (graph.indptr, graph.indices, graph.blue_degree):
        sha.update(np.asarray(arr, dtype="<i8").tobytes())
    sha.update(str(graph.edge_count).encode())
    return sha.hexdigest()


# Recorded from the generators that drew all n(n - 1)/2 pairs in one call and
# built the family graphs with nested loops.
_PLANTED_500_500 = ("1b14aef8b4c76ec079dfadae19fcb960c208c836", 27253)
_PLANTED_6_6_SEED4 = (
    [0, 4, 5, 9, 12, 15, 19, 24, 27, 30, 33, 36, 38],
    [2, 3, 4, 6, 5, 0, 3, 4, 5, 0, 2, 5, 0, 2, 5, 1, 2, 3, 4, 0, 8, 9, 10,
     11, 8, 9, 10, 6, 7, 11, 6, 7, 10, 6, 7, 9, 6, 8],
    [1, 0, 0, 0, 0, 0, 4, 3, 3, 3, 3, 2], 19)
_PLANTED_4_4_SEED0 = (
    [0, 3, 5, 8, 14, 16, 18, 21, 22],
    [2, 3, 4, 3, 6, 0, 3, 5, 0, 1, 2, 4, 6, 7, 0, 3, 2, 6, 1, 3, 5, 3],
    [1, 1, 1, 3, 0, 1, 1, 0], 11)


def test_planted_graphs_are_pinned(monkeypatch):
    big = gen_planted_two_community(500, 500, 0.1, 0.01, 5)
    assert 1000 * 999 // 2 > hitmin.generators._BLOCK_PAIRS  # several blocks
    assert (_digest(big), big.edge_count) == _PLANTED_500_500
    assert _arrays(gen_planted_two_community(4, 4, 0.6, 0.3, 0)) == _PLANTED_4_4_SEED0

    # seed 4's first attempt is disconnected, so the second one is kept
    built = []

    def counting(*args):
        built.append(args[0])
        return BipartiteInstance(*args)

    monkeypatch.setattr(hitmin.generators, "BipartiteInstance", counting)
    assert _arrays(gen_planted_two_community(6, 6, 0.6, 0.05, 4)) == _PLANTED_6_6_SEED4
    assert built == [12, 12]


@pytest.mark.parametrize("block", [1, 2, 7, 40])
def test_planted_graphs_do_not_depend_on_block_size(monkeypatch, block):
    # every block size, down to one row a block, continues one random stream
    one_block = _arrays(gen_planted_two_community(30, 20, 0.3, 0.05, 9))
    monkeypatch.setattr(hitmin.generators, "_BLOCK_PAIRS", block)
    assert _arrays(gen_planted_two_community(4, 4, 0.6, 0.3, 0)) == _PLANTED_4_4_SEED0
    assert _arrays(gen_planted_two_community(6, 6, 0.6, 0.05, 4)) == _PLANTED_6_6_SEED4
    assert _arrays(gen_planted_two_community(30, 20, 0.3, 0.05, 9)) == one_block


def test_family_graphs_are_pinned():
    assert _arrays(gen_path(6, [0, 3])) == (
        [0, 1, 3, 5, 7, 9, 10], [1, 0, 2, 1, 3, 2, 4, 3, 5, 4],
        [0, 1, 1, 0, 1, 0], 5)
    assert _arrays(gen_star_path_clique(16)) == (
        [0, 16] + list(range(17, 32)) + [33, 35, 37, 38],
        list(range(1, 17)) + [0] * 16 + [17, 16, 18, 17, 19, 18],
        [0] + [1] * 16 + [0, 0, 0], 19)
    assert _arrays(gen_lollipop(3, 4)) == (
        [0, 1, 3, 5, 9, 12, 15, 18],
        [1, 0, 2, 1, 3, 2, 4, 5, 6, 3, 5, 6, 3, 4, 6, 3, 4, 5],
        [0, 1, 0, 0, 0, 0, 0], 9)
    spc = gen_star_path_clique(4096)
    assert (_digest(spc), spc.edge_count) == (
        "9e92280b5a830363ce3873c96ad2b72ce8f340ec", 4132)
    lollipop = gen_lollipop(400, 30)
    assert (_digest(lollipop), lollipop.edge_count) == (
        "b561aeaf71ba1e57a9663892ae9101c6f454230a", 835)
