"""Graph containers shared by every other module.

An instance is an undirected, simple, connected graph whose nodes are split
into a red group and a blue group.  It is stored as read-only CSR arrays:
``indices[indptr[v]:indptr[v + 1]]`` lists the neighbours of v, each row
ascending, and ``neighbors(v)`` returns that slice as a view.

This module holds the one shortcut rule.  A shortcut joins a red node to a
blue node it is not yet adjacent to, so red r can take ``capacity[r]`` more
of them: ``blue_count - blue_degree[r]``, and 0 on blue nodes.
``shortcut_counts`` checks a multiset against that rule and returns how many
shortcuts each node takes.  Shortcut bookkeeping stores only the red
endpoints: the objectives depend on nothing else, so every consumer reads
only the counts, and no blue partner is ever chosen.  The exact solves, the
spectral radius and the bounded-step expectation take them as
``degrees + shortcut_counts(...)``.  The walks read an ``AugmentedView``, a
table of the red rows, each row the probabilities of a step to each red
neighbour and of absorption, blue neighbours and shortcuts together.  Its
layout, and the red block's entries the spectral radius reads, come from
the instance's ``_RedBlock``, built once from the instance's red chain, the
red block's CSR adjacency that the exact solves read too; a view fills only
the probabilities from the counts.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    CapacityExceeded,
    DisconnectedGraph,
    InvalidBipartition,
    InvalidParameter,
    MalformedInput,
)

__all__ = [
    "BipartiteInstance",
    "ShortcutSet",
    "AugmentedView",
    "load_instance",
    "augmented_view",
    "block_entries",
    "candidate_endpoints",
    "shortcut_counts",
]


class BipartiteInstance:
    """Undirected, simple, connected graph with a red/blue node split.

    Nodes are dense 0-based indices.  ``node_names`` keeps the external
    string identifiers when the instance came from files; generated
    instances leave it unset and fall back to the decimal index.
    Instances are immutable after construction; the adjacency lives in the
    read-only CSR arrays ``indptr`` and ``indices``, each row ascending.
    Two things are added later, each built on first use, read-only and
    unchanged by any shortcut.  ``_red_chain`` is the red block's CSR
    adjacency (``exact._Block``, O(red slots)), with its cycle-rich flag and
    sparse pattern once a solve needs them, read by every exact solve of
    the red set, by the estimator's bounded-step expectation and by
    ``_red_block``; each solve still computes its own degrees and its own
    CG run or factor.  ``_red_block`` is the count table's layout, O(red
    slots) arrays that the estimator's first count table or spectral radius
    builds and every later one reads; exact solves never build it.
    ``capacity[v]`` is how many shortcuts node v can still take.
    ``edges`` is an (m, 2) integer array or an iterable of (u, v) pairs; an
    array is used as it is, without a round trip through Python tuples.
    """

    def __init__(self, n, edges, is_red, node_names=None):
        n = int(n)
        if n < 2:
            raise InvalidBipartition("need at least one red and one blue node")
        is_red = np.array(is_red, dtype=bool)
        if is_red.shape != (n,):
            raise InvalidParameter(f"color vector must have length {n}")
        if node_names is not None:
            node_names = [str(x) for x in node_names]
            if len(node_names) != n or len(set(node_names)) != n:
                raise InvalidParameter("node names must be unique, one per node")

        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        pairs = np.asarray(edges, dtype=np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise MalformedInput("edges must be (u, v) pairs")
        u, v = pairs[:, 0], pairs[:, 1]

        # each edge appears once in the row of either end, rows ascending:
        # the key src * n + dst orders the entries, and a repeated edge shows
        # as two equal neighbouring keys
        keys = np.concatenate((u * n + v, v * n + u))
        keys.sort()
        if (((u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v)).any()
                or (keys[1:] == keys[:-1]).any()):
            _check_edges(n, u, v)
        keys %= n  # now each entry's dst, in CSR order
        indices = keys
        degrees = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])

        self.n = n
        self.edge_count = int(pairs.shape[0])
        self.indptr = indptr
        self.indices = indices
        self.is_red = is_red
        self.degrees = degrees
        self.blue_degree = (np.bincount(u[~is_red[v]], minlength=n)
                            + np.bincount(v[~is_red[u]], minlength=n))
        self.red_ids = np.flatnonzero(is_red)
        self.blue_ids = np.flatnonzero(~is_red)
        self.capacity = np.where(is_red, self.blue_ids.size - self.blue_degree, 0)
        for arr in (self.indptr, self.indices, self.is_red, self.degrees,
                    self.blue_degree, self.capacity):
            arr.setflags(write=False)
        self.node_names = node_names
        self._name_to_index = (
            {name: i for i, name in enumerate(node_names)} if node_names else None
        )

        if self.red_ids.size == 0 or self.blue_ids.size == 0:
            raise InvalidBipartition("both groups must be non-empty")
        self._check_connected()

    def _check_connected(self):
        # a plain search that stops once every node is reached, so a dense
        # connected graph reads only a few neighbours per node; on small
        # graphs a scipy traversal costs more to set up than the whole search
        n = self.n
        indptr, indices = memoryview(self.indptr), memoryview(self.indices)
        seen = bytearray(n)
        seen[0] = 1
        stack = [0]
        reached = 1
        while stack and reached < n:
            v = stack.pop()
            for w in indices[indptr[v]:indptr[v + 1]]:
                if not seen[w]:
                    seen[w] = 1
                    reached += 1
                    stack.append(w)
        if reached != n:
            raise DisconnectedGraph(
                f"graph has {n - reached} node(s) unreachable from node 0"
            )

    @cached_property
    def _red_chain(self):
        # imported here: exact, which builds every chain block, imports this
        # module
        from .exact import _Block

        return _Block(self, self.red_ids)

    @cached_property
    def _red_block(self) -> "_RedBlock":
        return _RedBlock(self)

    @property
    def red_count(self) -> int:
        return int(self.red_ids.size)

    @property
    def blue_count(self) -> int:
        return int(self.blue_ids.size)

    def neighbors(self, v) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def name_of(self, v) -> str:
        return self.node_names[v] if self.node_names else str(int(v))

    def index_of(self, name) -> int:
        if self._name_to_index is not None:
            try:
                return self._name_to_index[str(name)]
            except KeyError:
                raise InvalidParameter(f"unknown node name {name!r}") from None
        try:
            idx = int(name)
        except (TypeError, ValueError):
            raise InvalidParameter(f"unknown node name {name!r}") from None
        if not 0 <= idx < self.n:
            raise InvalidParameter(f"node index {idx} out of range")
        return idx

    def iter_edges(self):
        """Yield each undirected edge once as (u, v) with u < v."""
        rows = np.repeat(np.arange(self.n), self.degrees)
        upper = self.indices > rows
        yield from zip(rows[upper].tolist(), self.indices[upper].tolist())

    def to_edge_lines(self) -> list[str]:
        return [f"{self.name_of(u)} {self.name_of(v)}" for u, v in self.iter_edges()]

    def to_partition_lines(self) -> list[str]:
        return [
            f"{self.name_of(v)} {'R' if self.is_red[v] else 'B'}"
            for v in range(self.n)
        ]

    def __repr__(self):
        return (
            f"BipartiteInstance(n={self.n}, edges={self.edge_count}, "
            f"red={self.red_count}, blue={self.blue_count})"
        )


@dataclass(frozen=True)
class ShortcutSet:
    """Multiset of red endpoints for added inter-group edges.

    Stored in sorted order so that equal multisets compare and hash equal.
    """

    endpoints: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self, "endpoints", tuple(sorted(int(e) for e in self.endpoints))
        )

    def __len__(self) -> int:
        return len(self.endpoints)

    def __iter__(self):
        return iter(self.endpoints)

    def counts(self) -> Counter:
        return Counter(self.endpoints)

    def with_added(self, endpoint) -> "ShortcutSet":
        return ShortcutSet(self.endpoints + (int(endpoint),))

    @staticmethod
    def coerce(value) -> "ShortcutSet":
        if value is None:
            return ShortcutSet()
        if isinstance(value, ShortcutSet):
            return value
        return ShortcutSet(tuple(value))


class AugmentedView:
    """Count table: the red rows of a base instance with shortcuts, as the
    walk kernel splits them, for walks that start at red nodes and stop at
    the first blue node they reach.

    Red node v of degree d, its base degree plus its shortcuts, with r red
    neighbours sends a walk to each red neighbour with probability 1/d and
    absorbs it, at a blue neighbour or a shortcut, with probability
    (d − r)/d.  Its table row holds these r + 1 categories in r + 1 rounded
    up to a power of two, and at least 8, columns: the absorbed one first,
    then zero padding, then the red neighbours in CSR order.  So a
    multinomial draw takes the absorbed share first, at one rounding of
    (d − r)/d; each padding column's probability is 0 over a remainder of
    at least about 1/d, never 0/0; and the last category, which the draw
    leaves to the remainder, is a red neighbour.

    Rows of one width form a bucket: ``buckets`` holds one (lo, pvals,
    targets) per width, ascending, for the table rows lo, lo + 1, ...;
    ``pvals`` holds each category's probability and ``targets`` its table
    row, or −1 where it absorbs or pads.  A node with no red neighbour
    absorbs every walk at its next step and has a row in no bucket; those
    rows come first.  ``row`` holds each red node's table row, in
    ``red_ids`` order, and ``slots`` the red rows' slot count, the sum of
    their degrees.  A row holds at most max(8, 2r) numbers per array, so the
    table is O(red slots), with no padding to the largest degree.

    Only ``pvals`` depends on the shortcuts, and only through the red
    degrees: each view fills it from ``degrees + shortcut_counts(...)``.
    Everything else, ``row``, the bucket widths, ``targets`` and the cell
    of every probability, is the base's red-block layout (``_RedBlock``),
    built once per instance and shared, read-only, by all its views.  The
    base is never modified.
    """

    def __init__(self, base, shortcuts):
        block = base._red_block
        reds = base.red_ids
        degrees = (base.degrees + shortcut_counts(base, shortcuts))[reds]
        cells = np.zeros(block.cells)
        cells[block.absorbed_at] = ((degrees - block.red) / degrees)[block.absorbing]
        cells[block.entry_at] = 1.0 / degrees[block.rows]
        cells.setflags(write=False)
        self.red_ids, self.row = reds, block.row
        self.buckets = tuple(
            (lo, cells[at:at + targets.size].reshape(targets.shape), targets)
            for lo, at, targets in block.buckets)
        self.slots = int(degrees.sum())


class _RedBlock:
    """The parts of an instance's red block that no shortcut changes, built
    on first use (``BipartiteInstance._red_block``) and read-only.

    ``rows`` and ``cols`` are the red block's entries, read from the
    adjacency of the instance's red chain (``BipartiteInstance._red_chain``),
    so the red block is built once per instance.  ``start``, drawn on its
    own first use, is the unit start vector of the power iteration in
    ``estimator.spectral_radius``.  The
    rest lays out the count table (``AugmentedView``) as one flat run of
    ``cells`` numbers, bucket after bucket, row after row: ``red`` holds
    each red node's red-neighbour count and ``row`` its table row;
    ``buckets`` one (lo, at, targets) per width, ascending, the bucket's
    first table row, its first cell and its targets; ``absorbing`` the red
    nodes with a row in a bucket, whose absorbed category sits in the cell
    ``absorbed_at``; and ``entry_at`` the cell of each entry's 1/d.  Every
    array is O(red slots).
    """

    def __init__(self, graph):
        reds = graph.red_ids
        adjacency = graph._red_chain.adjacency
        rows = np.repeat(np.arange(reds.size), np.diff(adjacency.indptr))
        # scipy may store the indices narrower; the power iteration indexes
        # with them every step, and a narrower index is cast on every use
        cols = adjacency.indices.astype(np.intp)
        red = np.bincount(rows, minlength=reds.size)
        # 2**bit_length(r), the least power of two above r, and at least 8
        # so that small rows share one multinomial call; 0 without a red
        # neighbour
        width = (8 << np.frexp(red >> 3)[1].astype(np.int64)) * (red > 0)
        order = np.argsort(width, kind="stable")
        row = np.empty(reds.size, dtype=np.int64)
        row[order] = np.arange(reds.size)
        # each table row's first cell
        first = np.zeros(reds.size + 1, dtype=np.int64)
        np.cumsum(width[order], out=first[1:])
        targets = np.full(first[-1], -1, dtype=np.int64)
        # each red entry's cell: its rank within its row, after the
        # absorbed category and the padding
        entry_at = (first[row] + width - red)[rows] + np.arange(rows.size) \
            - np.repeat(np.cumsum(red) - red, red)
        targets[entry_at] = row[cols]
        absorbing = np.flatnonzero(red)
        absorbed_at = first[row[absorbing]]
        for arr in (rows, cols, red, row, targets, absorbing, absorbed_at, entry_at):
            arr.setflags(write=False)
        buckets, lo = [], int((width == 0).sum())
        for w in np.unique(width[width > 0]).tolist():
            size = int((width == w).sum())
            at = int(first[lo])
            buckets.append((lo, at, targets[at:at + size * w].reshape(size, w)))
            lo += size
        self.rows, self.cols = rows, cols
        self.red, self.row, self.buckets, self.cells = red, row, tuple(buckets), targets.size
        self.absorbing, self.absorbed_at, self.entry_at = absorbing, absorbed_at, entry_at

    @cached_property
    def start(self) -> np.ndarray:
        # drawn only when a spectral radius needs it, so that a count table
        # alone draws from no generator
        start = np.random.default_rng(0x5EED).random(self.row.size)
        start /= np.linalg.norm(start)
        start.setflags(write=False)
        return start


def _check_edges(n, u, v):
    """Raise on the first edge, in input order, that is out of range, a
    self-loop, or a repeat of an earlier edge."""
    out_of_range = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(u.size, dtype=bool)
    repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
    bad = np.flatnonzero(out_of_range | (u == v) | repeat)
    if not bad.size:
        return
    i = bad[0]
    if out_of_range[i]:
        raise MalformedInput(f"edge ({u[i]}, {v[i]}) out of range for n={n}")
    if u[i] == v[i]:
        raise MalformedInput(f"self-loop at node {u[i]}")
    raise MalformedInput(f"duplicate edge {(int(lo[i]), int(hi[i]))}")


def block_entries(graph, nodes):
    """Entries of the adjacency block induced on ``nodes``, without a loop
    over nodes.

    Returns (rows, cols), the positions within ``nodes`` of both ends of
    every edge whose ends both lie in ``nodes``.  Entries come row by row in
    the order of ``nodes`` and, within a row, in the graph's CSR order.
    """
    pos = np.full(graph.n, -1, dtype=np.int64)
    pos[nodes] = np.arange(nodes.size)
    starts = graph.indptr[nodes]
    counts = graph.indptr[nodes + 1] - starts
    rows = np.repeat(np.arange(nodes.size), counts)
    within = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    cols = pos[graph.indices[np.repeat(starts, counts) + within]]
    keep = cols >= 0
    return rows[keep], cols[keep]


def augmented_view(instance, shortcuts=None) -> AugmentedView:
    """Count table of ``instance`` with ``shortcuts``; see ``AugmentedView``."""
    return AugmentedView(instance, shortcuts)


def shortcut_counts(graph, shortcuts=None) -> np.ndarray:
    """Shortcuts each node takes under a multiset, checked against the rule.

    Returns an int array of length n.  Raises on the lowest endpoint that
    breaks the rule: InvalidParameter if it is not a red node,
    CapacityExceeded if it takes more shortcuts than its capacity.
    """
    ends = ShortcutSet.coerce(shortcuts).endpoints  # ascending
    lo, hi = bisect_left(ends, 0), bisect_left(ends, graph.n)
    counts = np.bincount(np.array(ends[lo:hi], dtype=np.int64), minlength=graph.n)
    over = np.flatnonzero(counts > graph.capacity)
    if lo:
        bad = ends[0]
    elif over.size:
        bad = int(over[0])
    elif hi < len(ends):
        bad = ends[hi]
    else:
        return counts
    if not 0 <= bad < graph.n or not graph.is_red[bad]:
        raise InvalidParameter(f"shortcut endpoint {bad} is not a red node")
    raise CapacityExceeded(
        f"endpoint {bad} has {graph.capacity[bad]} free blue slot(s), "
        f"needs {counts[bad]}"
    )


def candidate_endpoints(instance, shortcuts=None) -> list[int]:
    """Red nodes that can still take a shortcut on top of ``shortcuts``."""
    spare = instance.capacity - shortcut_counts(instance, shortcuts)
    return np.flatnonzero(spare > 0).tolist()


def _as_lines(source):
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            yield from fh
    else:
        yield from source


_RED_TOKENS = {"R", "RED"}
_BLUE_TOKENS = {"B", "BLUE"}


def load_instance(edge_source, partition_source) -> BipartiteInstance:
    """Parse an edge list and a partition file into a validated instance.

    Edge lines hold two whitespace-separated node identifiers; partition
    lines hold an identifier and an R or B label.  '#' starts a comment in
    both files.  Duplicate edges are dropped with a warning; self-loops and
    unparseable lines are rejected outright.
    """
    names: list[str] = []
    index: dict[str, int] = {}

    def node_id(token: str) -> int:
        got = index.get(token)
        if got is None:
            got = len(names)
            index[token] = got
            names.append(token)
        return got

    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    duplicates = 0
    for lineno, raw in enumerate(_as_lines(edge_source), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MalformedInput(f"edge line {lineno}: expected 'u v', got {raw!r}")
        u, v = node_id(parts[0]), node_id(parts[1])
        if u == v:
            raise MalformedInput(f"edge line {lineno}: self-loop on {parts[0]!r}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        edges.append(key)
    if duplicates:
        warnings.warn(f"dropped {duplicates} duplicate edge(s)", stacklevel=2)

    colors: dict[int, bool] = {}
    for lineno, raw in enumerate(_as_lines(partition_source), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MalformedInput(
                f"partition line {lineno}: expected 'node R|B', got {raw!r}"
            )
        label = parts[1].upper()
        if label in _RED_TOKENS:
            flag = True
        elif label in _BLUE_TOKENS:
            flag = False
        else:
            raise MalformedInput(f"partition line {lineno}: unknown label {parts[1]!r}")
        nid = node_id(parts[0])
        if nid in colors and colors[nid] != flag:
            raise MalformedInput(
                f"partition line {lineno}: conflicting label for {parts[0]!r}"
            )
        colors[nid] = flag

    n = len(names)
    if n == 0:
        raise MalformedInput("no nodes found in input")
    missing = [names[i] for i in range(n) if i not in colors]
    if missing:
        raise InvalidBipartition(f"unlabeled node(s): {missing[:5]}")
    is_red = [colors[i] for i in range(n)]
    return BipartiteInstance(n, edges, is_red, node_names=names)
