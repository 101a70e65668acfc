"""Independent reference for red-to-blue hitting times.

The package solves ``(I - Q) h = 1`` with ``Q`` the red-red block of the
walk's transition matrix.  Multiplying row u by deg(u) gives the symmetric
positive definite form ``(D_R - A_RR) h = d_R``, which this module solves
with its own matrix build and a Cholesky (dense) or symmetric-ordered sparse
LU factorization.  A shortcut at red node r adds one edge from r to the blue
side, which raises d_r by one and leaves A_RR unchanged, so every shortcut
multiset only changes the diagonal.  The module reads the instance's
adjacency and nothing else from the package.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

# Red-node count up to which the reference factors a dense matrix.
DENSE_RED_LIMIT = 1500

# Relative tolerance for comparing a program value with the reference.  The
# lollipop systems have condition numbers near 1e7, so two backward-stable
# solvers in double precision can differ by about 1e7 * 2.2e-16 = 2e-9.
REL_TOL = 1e-7


class Reference:
    """Reference hitting times for one instance under any shortcut multiset."""

    def __init__(self, instance):
        reds = np.asarray(instance.red_ids, dtype=np.int64)
        pos = np.full(instance.n, -1, dtype=np.int64)
        pos[reds] = np.arange(reds.size)
        rows, cols = [], []
        for i, v in enumerate(reds):
            nb = pos[instance.neighbors(int(v))]
            nb = nb[nb >= 0]
            rows.append(np.full(nb.size, i, dtype=np.int64))
            cols.append(nb)
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        self.red_count = reds.size
        self._pos = pos
        self._adj = scipy.sparse.csr_matrix(
            (np.ones(rows.size), (rows, cols)), shape=(reds.size, reds.size)
        )
        self._deg = np.asarray(instance.degrees, dtype=float)[reds]
        self._cache: dict[tuple, np.ndarray] = {}

    def times(self, endpoints=()) -> np.ndarray:
        """Hitting times of the red nodes, ascending node order."""
        key = tuple(sorted(int(e) for e in endpoints))
        got = self._cache.get(key)
        if got is not None:
            return got
        deg = self._deg.copy()
        for r, c in Counter(key).items():
            if self._pos[r] < 0:
                raise ValueError(f"shortcut endpoint {r} is not a red node")
            deg[self._pos[r]] += c
        system = scipy.sparse.diags(deg) - self._adj
        if self.red_count <= DENSE_RED_LIMIT:
            factor = scipy.linalg.cho_factor(system.toarray())
            h = scipy.linalg.cho_solve(factor, deg)
        else:
            h = scipy.sparse.linalg.spsolve(
                system.tocsc(), deg, permc_spec="MMD_AT_PLUS_A"
            )
        if not np.all(np.isfinite(h)) or h.min() < 1.0 - 1e-9:
            raise ArithmeticError("reference solve produced an invalid solution")
        self._cache[key] = h
        return h

    def mean(self, endpoints=()) -> float:
        return float(self.times(endpoints).mean())

    def max(self, endpoints=()) -> float:
        return float(self.times(endpoints).max())

    def objective(self, objective: str, endpoints=()) -> float:
        return self.mean(endpoints) if objective == "avg" else self.max(endpoints)


def close(value: float, reference: float, rel_tol: float = REL_TOL) -> bool:
    """Whether a program value matches the reference at the relative tolerance."""
    return abs(float(value) - reference) <= rel_tol * max(abs(reference), 1.0)
