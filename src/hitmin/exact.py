"""Exact expected hitting times via absorbing-chain linear systems.

For a walk absorbed by the blue group, the expected hitting times of the
red (transient) nodes solve (I - Q) h = 1, where Q is the walk's transition
matrix restricted to red rows and columns.  The same machinery with a
target node or node set absorbing gives hitting times to that target.

A shortcut from red r to the blue group adds a neighbour outside the red
block, so it changes only r's degree: (I - Q) on the red nodes is the base
block with row r scaled by 1/(d_r + c_r), where c_r counts r's shortcuts.
Exact solves therefore build no overlay; they read
``graph.shortcut_counts`` and solve on the graph's own CSR arrays.

A chain is a ``_Block``, the CSR adjacency A of the block induced on the
transient set, from the graph's CSR slices (``graph.block_entries``) with
no loop over nodes, plus the float degrees d.  No shortcut changes the
block, so the red set's is built once per instance, on its first exact
solve or estimate (``BipartiteInstance._red_chain``, read-only), and read
by every solve of the red set: ``hitting_to_blue``, ``_shortcut_means`` and
the estimator's bounded-step expectation (``_chain_to_blue``).  Each solve
still computes its degrees, ``degrees + shortcut_counts(...)``, and from
them its CG run or its factor; no solution or failure is kept.  Every other
transient set, a target's or the quasi-metric's grounded one, gets its
block per call from ``_chain``.  Every solution, on every path and in every
quasi-metric column, meets one residual, ``_residual``:
b - (I - Q) h = b - h + A h / d, and one gate, ``_passes``:
max |residual| <= ``RESIDUAL_TOL`` per column, which NaN fails.

Multiplying row v by d_v gives the symmetric positive definite form
(D - A) h = d.  A block is cycle-rich (``_Block.cyclic``) when its cycle
rank exceeds ``DENSE_MIN_CYCLE_SHARE`` of its m unknowns and, past
4 ``DENSE_MIN_KERNEL`` unknowns, its kernel, the nodes of degree at least 3
left once leaves are peeled, holds at least m / 4: eliminating the peeled
trees and chains makes no fill, so the kernel is where fill can spread.  A
cycle-rich block of at least ``CG_MIN_NODES`` unknowns is solved by
conjugate gradients on the symmetric form (Hestenes and Stiefel, 1952),
preconditioned by D, until max |r / d| <= ``CG_TOL`` or for
``CG_MAX_ITERATIONS`` steps; its residual is then recomputed and gated.
Every reduction is a NumPy sum and every product a serial sparse one, so
the bits do not depend on the BLAS thread count.  A miss, as on
clique-heavy lollipops, whose hitting times reach 1e5 and more, falls
through to the direct path: ``_factored`` builds I - Q from the chain and
factors it, by dense LU (built in Fortran order and factored in place) for
a cycle-rich block of at most ``dense_limit`` unknowns, by sparse LU for
every other block, near-forests and blocks whose cycles crowd into a small
kernel included, on the block's CSC pattern (``_Block.pattern``), built
once and filled with each solve's -1/d.  A direct solution may take one
refinement pass with the same factor before the gate; a failure names the
path and the size.  The quasi-metric and the exact greedy's candidate
scores (``_shortcut_means``) share the chain and the factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import InvalidParameter, SolverFailure
from .graph import block_entries, shortcut_counts

__all__ = [
    "HittingProfile",
    "hitting_to_blue",
    "hitting_to_target",
    "evaluate",
    "DENSE_NODE_LIMIT",
    "RESIDUAL_TOL",
    "CG_MIN_NODES",
]

# Cap on the unknowns (the size of the transient set) of a dense
# factorization on the direct path; larger blocks always go sparse.
DENSE_NODE_LIMIT = 4000
# Dense LU needs the block's cycle rank c = E - m + (components) above this
# share of its m unknowns.  Eliminating leaves and chains first makes almost
# no fill when c is small (Rose, Tarjan and Lueker, SIAM J. Comput. 1976),
# so splu wins on near-forests at any size.  One solve on a random spanning
# tree plus m/8 extra edges (2 vCPUs, one BLAS thread) took 3.0 ms sparse
# against 35 ms dense at m = 1000, and 9 ms against 544 ms at m = 3000.
# Dense won only at c of about 2.4 m (a random block of degree ~6), so m/8
# leaves a wide margin.
DENSE_MIN_CYCLE_SHARE = 1 / 8
# The rank counts cycles wherever they lie, but fill spreads only through
# the kernel, the 2-core's nodes of degree at least 3 (``_kernel_size``):
# dense LU also needs kappa, counted as at least this, to reach a quarter of
# the m unknowns, so every block of at most 152 keeps the rank's answer,
# where splu's fixed cost of about 0.1 ms loses.  One solve (2 vCPUs, one
# BLAS thread; dense against sparse LU, ms; kappa / m in brackets):
#   lollipop(100,20)  [0.17]  0.12 against 0.17
#   lollipop(200,20)  [0.09]  0.38 against 0.19
#   lollipop(400,30)  [0.07]  1.92 against 0.31
#   lollipop(400,100) [0.20]  3.09 against 0.90
#   lollipop(1000,60) [0.06]  21.2 against 0.71
#   lollipop(200,100) [0.33]  1.05 against 1.11
#   lollipop(100,100) [0.50]  0.35 against 0.89
#   planted 200 / 500 / 1000 red [1.0]  0.46 / 4.3 / 22 against 2.6 / 12 / 64
DENSE_MIN_KERNEL = 38
RESIDUAL_TOL = 1e-9
# A cycle-rich block of at least this many unknowns tries conjugate
# gradients before the direct path.  One solve on planted graphs (2 vCPUs,
# one BLAS thread, median of five) took 1.5 ms by CG against 4.1 ms by dense
# LU at 500 unknowns, 5.0 against 59 ms at 1200 and 5.8 against 360 ms at
# 2500.  Smaller blocks keep dense LU and its bits.
CG_MIN_NODES = 500
# CG stops once max |r / d| = max |1 - (I - Q) h| of its running residual is
# this small, three orders inside RESIDUAL_TOL, or after the cap.  Planted
# graphs stop within 10 to 16 steps; a lollipop whose clique holds a quarter
# of its nodes reaches the cap in a few milliseconds and goes to the direct
# path.
CG_TOL = 1e-12
CG_MAX_ITERATIONS = 100
# Right-hand sides solved together when many columns of one factor are
# needed (the quasi-metric's targets, the inverse's diagonal): caps the
# working set at a few m x SOLVE_BLOCK arrays instead of m x m.
SOLVE_BLOCK = 32


@dataclass(frozen=True)
class HittingProfile:
    """Per-red-node expected hitting times to the blue group.

    ``times`` is aligned with ``red_ids`` (ascending node index).
    """

    red_ids: np.ndarray
    times: np.ndarray
    mean_time: float
    max_time: float

    def time_of(self, red_node) -> float:
        pos = int(np.searchsorted(self.red_ids, red_node))
        if pos >= self.red_ids.size or self.red_ids[pos] != red_node:
            raise InvalidParameter(f"node {red_node} is not a red node")
        return float(self.times[pos])


def _has_many_cycles(adjacency):
    """Whether the block's cycle rank E - m + (components) exceeds
    ``DENSE_MIN_CYCLE_SHARE`` of its m nodes.  Components are counted only
    when the rank could be low enough to matter."""
    m = adjacency.shape[0]
    excess = adjacency.nnz // 2 - m
    if excess + 1 > DENSE_MIN_CYCLE_SHARE * m:
        return True
    # imported here: it adds about 1 MB of resident memory, and only blocks
    # this close to a forest need it
    from scipy.sparse.csgraph import connected_components

    components = connected_components(adjacency, directed=False,
                                      return_labels=False)
    return excess + components > DENSE_MIN_CYCLE_SHARE * m


def _kernel_size(adjacency):
    """kappa, the size of the block's kernel: the nodes of degree at least 3 that are
    left once nodes of degree at most 1 are peeled until none is.

    What is left is the 2-core, and eliminating the peeled nodes first
    makes no fill.  Peeling a node of degree 1 drops one node and one edge,
    and one of degree 0 one node and one component, so the core keeps the
    block's cycle rank c = E - m + (components).  On the core, of m' nodes,
    E' edges and p' components, every degree is at least 2, so

        sum (degree - 2) = 2 E' - 2 m' = 2 (c - p'),

    and each kernel node adds at least 1: kappa <= 2 (c - p') <= 2 c.  So
    kappa >= m / 4 implies c > m / 8: the kernel test is never met where
    ``_has_many_cycles`` fails.  A work stack peels each node once and
    reads each of its edges once, O(m + edges removed).
    """
    indptr, indices = adjacency.indptr.tolist(), adjacency.indices
    left = np.diff(adjacency.indptr).tolist()
    stack = [v for v, degree in enumerate(left) if degree <= 1]
    while stack:
        v = stack.pop()
        left[v] = 0
        for u in indices[indptr[v]:indptr[v + 1]].tolist():
            if left[u] > 0:
                left[u] -= 1
                if left[u] == 1:
                    stack.append(u)
    return int(np.count_nonzero(np.array(left) >= 3))


class _Block:
    """The part of an absorbing chain that no shortcut changes.

    ``adjacency`` is the CSR adjacency of the block induced on a transient
    node set, rows in the order of the nodes, its arrays read-only, from
    one ``block_entries`` call.  Two parts are computed on first use and
    kept: ``cyclic``, the flag that sends the block to CG and dense LU, and
    ``pattern``, the sparse path's CSC pattern of I - Q.  The red set's
    block is built once per instance (``BipartiteInstance._red_chain``);
    every other set's per call, by ``_chain``.
    """

    def __init__(self, graph, nodes):
        rows, cols = block_entries(graph, nodes)
        m = nodes.size
        self.adjacency = scipy.sparse.csr_matrix(
            (np.ones(rows.size), cols, np.searchsorted(rows, np.arange(m + 1))),
            shape=(m, m))
        for arr in (self.adjacency.data, self.adjacency.indices,
                    self.adjacency.indptr):
            arr.setflags(write=False)

    @cached_property
    def cyclic(self) -> bool:
        """Whether fill can spread through the block: it passes
        ``_has_many_cycles`` and 4 max(kappa, ``DENSE_MIN_KERNEL``) >= m,
        kappa its ``_kernel_size``.  A block of at most 4
        ``DENSE_MIN_KERNEL`` unknowns needs no peeling."""
        m = self.adjacency.shape[0]
        return _has_many_cycles(self.adjacency) and (
            m <= 4 * DENSE_MIN_KERNEL or 4 * _kernel_size(self.adjacency) >= m)

    @cached_property
    def pattern(self):
        """(indptr, indices, diagonal), the CSC pattern of I - Q, read-only.

        The adjacency is symmetric, so column u holds -1/d_v at the rows of
        u's neighbours v and 1 at row u, which ``diagonal`` marks.  Rows
        ascend within each column, the canonical form ``splu`` reads
        without re-sorting.
        """
        adjacency = self.adjacency
        m = adjacency.shape[0]
        cols = np.concatenate((np.repeat(np.arange(m), np.diff(adjacency.indptr)),
                               np.arange(m)))
        rows = np.concatenate((adjacency.indices, np.arange(m)))
        order = np.lexsort((rows, cols))
        indices = rows[order].astype(adjacency.indices.dtype)
        diagonal = indices == cols[order]
        indptr = (adjacency.indptr + np.arange(m + 1)).astype(adjacency.indptr.dtype)
        for arr in (indptr, indices, diagonal):
            arr.setflags(write=False)
        return indptr, indices, diagonal


def _chain(graph, nodes, degrees):
    """The absorbing chain on ``nodes``: the ``_Block`` they induce and their
    ``degrees`` as floats.  Row v of I - Q is e_v minus row v of the block's
    adjacency divided by d_v."""
    return _Block(graph, nodes), degrees[nodes].astype(float)


def _chain_to_blue(instance, degrees):
    """The absorbing chain on the red set, which the blue group absorbs: the
    instance's one red ``_Block`` and the red ``degrees`` as floats."""
    return instance._red_chain, degrees[instance.red_ids].astype(float)


def _residual(block, d, h, b):
    """b - (I - Q) h = b - h + A h / d, for one column h or a block."""
    walked = block.adjacency @ h
    return b - h + (walked / d if h.ndim == 1 else walked / d[:, None])


def _passes(residual):
    """The residual gate: whether max |residual| <= ``RESIDUAL_TOL``, per
    column of a block.  Written so that NaN fails."""
    return np.abs(residual).max(axis=0) <= RESIDUAL_TOL


def _factored(block, d, dense_limit):
    """Build I - Q from the chain's block and degrees and factor it.

    Returns (solve, path): the factor's solve and "dense LU" or "sparse LU".
    Dense LU when the block has at most ``dense_limit`` unknowns and is
    ``cyclic``, its cycles spread over a kernel of at least a quarter of
    them; sparse LU otherwise, whose fill stays in the kernel: the block's
    cached ``pattern`` filled with this solve's -1/d.
    """
    m = d.size
    if m <= dense_limit and block.cyclic:
        rows = np.repeat(np.arange(m), np.diff(block.adjacency.indptr))
        # Fortran order lets lu_factor work in place; it copies a C-ordered
        # array
        dense = np.eye(m, order="F")
        dense[rows, block.adjacency.indices] = -(1.0 / d)[rows]
        lu = scipy.linalg.lu_factor(dense, overwrite_a=True)
        return (lambda rhs: scipy.linalg.lu_solve(lu, rhs)), "dense LU"

    indptr, indices, diagonal = block.pattern
    data = -(1.0 / d)[indices]
    data[diagonal] = 1.0
    A = scipy.sparse.csc_matrix((data, indices, indptr), shape=(m, m))
    try:
        factor = scipy.sparse.linalg.splu(A)
    except RuntimeError as exc:
        raise SolverFailure(f"sparse factorization failed: {exc}") from exc
    return factor.solve, "sparse LU"


def _cg_times(block, d):
    """Jacobi-preconditioned CG on (D - A) h = d for the chain's block and
    degrees.  Returns h when it passes the residual gate, else None."""
    adjacency = block.adjacency
    h = np.zeros(d.size)
    r = d.copy()
    z = r / d
    p = z.copy()
    rz = (r * z).sum()
    for _ in range(CG_MAX_ITERATIONS):
        q = d * p - adjacency @ p
        alpha = rz / (p * q).sum()
        h += alpha * p
        r -= alpha * q
        z = r / d
        if np.abs(z).max() <= CG_TOL:
            break
        rz, previous = (r * z).sum(), rz
        p = z + (rz / previous) * p
    return h if _passes(_residual(block, d, h, 1.0)) else None


def _transient_times(block, d, dense_limit):
    """Solve (I - Q) h = 1 on the chain of ``block`` and degrees ``d``: by CG
    on a large cycle-rich block, else, or when CG misses the gate,
    directly."""
    if d.size >= CG_MIN_NODES and block.cyclic:
        h = _cg_times(block, d)
        if h is not None:
            return h
    solve, path = _factored(block, d, dense_limit)
    b = np.ones(d.size)
    h = solve(b)
    residual = _residual(block, d, h, b)
    if not _passes(residual):
        h = h + solve(residual)
        residual = _residual(block, d, h, b)
        if not _passes(residual):
            raise SolverFailure(
                f"residual {np.abs(residual).max():.3e} exceeds {RESIDUAL_TOL} "
                f"after refinement ({path}, {d.size} unknowns)"
            )
    return h


def _inverse_diagonal(solve, m):
    """Diagonal of the inverse of an m x m factored matrix, from solves of
    identity columns ``SOLVE_BLOCK`` at a time."""
    out = np.empty(m)
    for lo in range(0, m, SOLVE_BLOCK):
        cols = np.arange(lo, min(lo + SOLVE_BLOCK, m))
        rhs = np.zeros((m, cols.size))
        rhs[cols, cols - lo] = 1.0
        out[cols] = solve(rhs)[cols, cols - lo]
    return out


def _shortcut_means(instance, shortcuts, candidates):
    """Mean hitting time after one more shortcut at each red candidate, every
    candidate scored from one factorization of I - Q under ``shortcuts``.

    A shortcut at r adds 1 to d_r: it adds e_r e_r^T to the symmetric form
    S = D - A and e_r to its right-hand side d.  With M = (I - Q)^-1 = S^-1 D,
    h = M 1, s = M (1/d) = S^-1 1 and (S^-1)_rr = M_rr / d_r, Sherman and
    Morrison's formula gives

        sum h' = sum h - s_r (h_r - 1) / (1 + M_rr / d_r).

    The scores carry the factor's rounding and no residual gate; callers
    that need exact values solve again.
    """
    reds = instance.red_ids
    degrees = instance.degrees + shortcut_counts(instance, shortcuts)
    block, d = _chain_to_blue(instance, degrees)
    solve, _ = _factored(block, d, DENSE_NODE_LIMIT)
    h, s = solve(np.column_stack((np.ones(reds.size), 1.0 / d))).T
    pos = np.searchsorted(reds, candidates)
    diagonal = _inverse_diagonal(solve, reds.size)[pos]
    gains = s[pos] * (h[pos] - 1.0) / (1.0 + diagonal / d[pos])
    return (h.sum() - gains) / reds.size


def hitting_to_blue(instance, shortcuts=None, dense_limit=DENSE_NODE_LIMIT) -> HittingProfile:
    """Exact expected hitting times from every red node to the blue group.

    ``shortcuts`` only add to the red degrees, so no overlay is built and
    the instance is untouched.  ``dense_limit`` picks only between dense
    and sparse LU on the direct path, which a large cycle-rich block takes
    only when CG misses the gate.  Raises SolverFailure if the residual
    cannot be pushed below the tolerance, or if the solution violates basic
    sanity bounds.
    """
    reds = instance.red_ids
    degrees = instance.degrees + shortcut_counts(instance, shortcuts)
    h = _transient_times(*_chain_to_blue(instance, degrees), dense_limit)
    mean_time, max_time = float(h.mean()), float(h.max())

    n_cubed = float(instance.n) ** 3
    if h.min() < 1.0 - 1e-9:
        raise SolverFailure(f"hitting time {h.min()} below 1")
    if max_time > n_cubed * (1.0 + 1e-9):
        raise SolverFailure(f"hitting time {max_time} above n^3 = {n_cubed}")
    # max <= 2 |R|^(3/4) mean is not proved here: it is a sanity gate, and
    # a violation is taken to mean the solver produced garbage
    if max_time > 2.0 * float(reds.size) ** 0.75 * mean_time * (1.0 + 1e-9):
        raise SolverFailure(
            "max/mean hitting-time ratio bound violated: "
            f"max={max_time}, mean={mean_time}, |R|={reds.size}"
        )

    return HittingProfile(red_ids=reds, times=h, mean_time=mean_time, max_time=max_time)


def hitting_to_target(instance, target, dense_limit=DENSE_NODE_LIMIT) -> np.ndarray:
    """Exact expected hitting times from every node to a target node or set.

    ``target`` is one node id, or a collection of node ids that all absorb
    the walk; a value that is not an integer raises InvalidParameter.
    Returns an array of length n with H(u, target) at index u and 0 at
    every target node.  ``dense_limit`` acts as in
    ``hitting_to_blue``: only on the direct path.
    """
    targets = []
    for t in [target] if np.ndim(target) == 0 else target:
        try:
            node = int(t)
        except (TypeError, ValueError, OverflowError):
            node = None
        if node is None or node != t:
            raise InvalidParameter(f"target {t!r} is not a node index")
        if not 0 <= node < instance.n:
            raise InvalidParameter(f"target {node} out of range")
        targets.append(node)
    if not targets:
        raise InvalidParameter("target set is empty")
    absorbing = np.zeros(instance.n, dtype=bool)
    absorbing[targets] = True
    transient = np.flatnonzero(~absorbing)
    out = np.zeros(instance.n)
    if transient.size:
        out[transient] = _transient_times(
            *_chain(instance, transient, instance.degrees), dense_limit)
    return out


def evaluate(instance, shortcuts=None, objective="avg") -> float:
    """Exact objective value of a shortcut multiset: "avg" or "max"."""
    if objective not in ("avg", "max"):
        raise InvalidParameter(f"objective must be 'avg' or 'max', got {objective!r}")
    profile = hitting_to_blue(instance, shortcuts)
    return profile.mean_time if objective == "avg" else profile.max_time
