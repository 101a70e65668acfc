"""Synthetic instance families used by tests and the benchmark CLI.

Every generator hands ``BipartiteInstance`` an (m, 2) integer edge array.
``gen_planted_two_community`` draws one ``rng.random`` value per pair
(i, j), i < j, in ``np.triu_indices`` order: row 0's pairs first, then
row 1's, and so on.  It draws them a block of rows at a time, so it never
holds the n(n - 1)/2 candidate pairs at once, and each (sizes,
probabilities, seed, attempt) gives the same graph as one full-length draw.
"""

from __future__ import annotations

import numpy as np

from .errors import DisconnectedGraph, GenerationFailed, InvalidParameter
from .graph import BipartiteInstance

__all__ = [
    "gen_path",
    "gen_star_path_clique",
    "gen_lollipop",
    "gen_planted_two_community",
]

# Most pairs drawn at once.  Building planted n = 4200 (8.8M pairs) took a
# median 163-169 ms with 2^16 to 2^18 pairs a block and 178-188 ms with 2^19
# to 2^22, and its traced peak was 27.6 MiB at 2^18 against 33.6 MiB at 2^20
# and 57.6 MiB at 2^22 (15 builds each, 2 vCPUs).  Graphs up to 724 nodes
# are one block.
_BLOCK_PAIRS = 1 << 18


def _chain(start: int, count: int) -> np.ndarray:
    """Edges (start + i, start + i + 1) for i < count."""
    return np.arange(start, start + count, dtype=np.int64)[:, None] + [0, 1]


def _clique(start: int, size: int) -> np.ndarray:
    """Edges of a clique on start..start + size - 1, in nested-loop order."""
    return np.column_stack(np.triu_indices(size, 1)).astype(np.int64) + start


def gen_path(length: int, blue_positions) -> BipartiteInstance:
    """Path 0-1-...-(length-1) with blue nodes at the given positions."""
    if length < 3:
        raise InvalidParameter("path generator needs length >= 3")
    blue = {int(p) for p in blue_positions}
    for p in blue:
        if not 0 <= p < length:
            raise InvalidParameter(f"blue position {p} out of range")
    is_red = np.ones(length, dtype=bool)
    is_red[list(blue)] = False
    return BipartiteInstance(length, _chain(0, length - 1), is_red)


def gen_star_path_clique(n: int) -> BipartiteInstance:
    """Star with a lollipop tail; the worst red node sits in the clique.

    Builds a star of n nodes whose center is the only blue node, attaches a
    path of n^(1/4) nodes to the center, and a clique of n^(1/4) nodes to the
    far end of the path.  n must be a perfect fourth power, at least 16.
    The max/mean hitting-time ratio of this family grows polynomially with n.
    """
    if n < 16:
        raise InvalidParameter("star-path-clique needs n >= 16")
    m = round(n ** 0.25)
    if m ** 4 != n:
        raise InvalidParameter(f"n={n} is not a perfect fourth power")

    # node layout: 0 = center, 1..n-1 leaves, then m path nodes, then m clique
    # nodes; the center also links to the path's head, whose far end links to
    # the clique's first node
    total = n + 2 * m
    spokes = np.column_stack((np.zeros(n, dtype=np.int64), np.arange(1, n + 1)))
    edges = np.concatenate((spokes, _chain(n, m), _clique(n + m, m)))
    return BipartiteInstance(total, edges, np.arange(total) != 0)


def gen_lollipop(path_len: int, clique_size: int) -> BipartiteInstance:
    """Path with a clique stuck on the far end; only the path's head is blue.

    Nodes 0..path_len-1 form the path, the next clique_size nodes the
    clique, joined at the path's last node.  Escaping the clique is slow,
    so the max hitting time concentrates there.
    """
    if path_len < 2:
        raise InvalidParameter("lollipop needs path_len >= 2")
    if clique_size < 1:
        raise InvalidParameter("lollipop needs clique_size >= 1")
    total = path_len + clique_size
    # the path's last edge is the bridge to the clique's first node
    edges = np.concatenate((_chain(0, path_len), _clique(path_len, clique_size)))
    return BipartiteInstance(total, edges, np.arange(total) != 0)


def gen_planted_two_community(
    n_red: int,
    n_blue: int,
    p_in: float,
    p_out: float,
    seed: int,
    max_attempts: int = 100,
) -> BipartiteInstance:
    """Two dense communities (one per color) with sparse cross edges.

    Edges appear independently: probability p_in inside a community and
    p_out across.  Requires 0 < p_out < p_in <= 1.  Resamples up to
    ``max_attempts`` times until the graph comes out connected; no edges are
    patched in afterwards.  Attempt a draws from
    ``SeedSequence((seed, a))`` one uniform value per pair in
    ``np.triu_indices`` order and keeps the pair when the value falls below
    its probability.
    """
    if n_red < 1 or n_blue < 1:
        raise InvalidParameter("both communities need at least one node")
    if not (0 < p_out < p_in <= 1):
        raise InvalidParameter(
            f"need 0 < p_out < p_in <= 1, got p_in={p_in}, p_out={p_out}")
    if seed < 0:
        raise InvalidParameter(f"seed must be nonnegative, got {seed}")

    n = n_red + n_blue
    is_red = np.arange(n) < n_red
    # first[i] is the triu position of row i's first pair (i, i + 1), and
    # first[n - 1] the pair count; a block is rows bounds[b]..bounds[b + 1] - 1
    i = np.arange(n, dtype=np.int64)
    first = i * (2 * n - 1 - i) // 2
    bounds = [0]
    while bounds[-1] < n - 1:
        lo = bounds[-1]
        hi = int(np.searchsorted(first, first[lo] + _BLOCK_PAIRS, side="right")) - 1
        bounds.append(max(hi, lo + 1))
    blocks = list(zip(bounds, bounds[1:]))
    draws = np.empty(max(first[hi] - first[lo] for lo, hi in blocks))

    for attempt in range(max_attempts):
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), attempt)))
        edges = np.concatenate([_draw_rows(rng, draws, first, lo, hi, n_red,
                                           p_in, p_out) for lo, hi in blocks])
        try:
            return BipartiteInstance(n, edges, is_red)
        except DisconnectedGraph:
            continue
    raise GenerationFailed(
        f"no connected sample in {max_attempts} attempts "
        f"(n_red={n_red}, n_blue={n_blue}, p_in={p_in}, p_out={p_out})"
    )


def _draw_rows(rng, draws, first, lo, hi, n_red, p_in, p_out):
    """Kept pairs of triu rows lo..hi - 1, one draw per pair, as (m, 2) rows.

    The draws fill the front of the buffer ``draws``.  Red nodes come
    first, so a pair (i, j), i < j, is a cross pair when i < n_red <= j.
    Since p_out < p_in, a pair is kept exactly when its draw falls below
    p_in and, for a cross pair, also below p_out.
    """
    start = first[lo:hi] - first[lo]
    u = rng.random(out=draws[:first[hi] - first[lo]])
    hit = np.flatnonzero(u < p_in)
    row = np.searchsorted(start, hit, side="right") - 1
    col = hit - start[row] + row + (lo + 1)
    row += lo
    keep = (row >= n_red) | (col < n_red) | (u[hit] < p_out)
    return np.column_stack((row[keep], col[keep]))
