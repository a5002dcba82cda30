"""Independent reference answers for the benchmark's checks.

Nothing here imports grassvar: every value is computed from plain integer
action matrices with this file's own elimination over F_p, so a fault in
grassvar's arithmetic cannot hide by also producing the expected answer.

The closed forms used:

- rank variety: a nonzero u in F_p^c lies in V(M) exactly when
  p * rank((sum u_i X_i)^(p-1)) < dim M;
- Schubert count: the d-planes of k^c meeting an r-dimensional subspace
  nontrivially form all of G_d(k^c) (dimension d(c-d)) when r + d > c, and
  otherwise a Schubert variety of codimension c - d - r + 1.  A union of
  subspaces has the dimension of its largest component;
- Betti numbers of the trivial module: b_i(k) = C(i + c - 1, c - 1), and
  Ext^i(k, k) = b_i(k) because the minimal resolution has zero differentials
  after applying Hom(-, k);
- kE/(u) for a nonzero linear form u has the periodic free resolution
  ... -> kE --u^(p-1)--> kE --u--> kE, so Ext^0(kE/(u), N) = dim ker(u | N)
  and Ext^i(kE/(u), N) = dim N - rank(u | N) - rank(u^(p-1) | N) for i >= 1.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb

import numpy as np


def _array(rows, p: int) -> np.ndarray:
    return np.array(rows, dtype=np.int64).reshape(len(rows), -1) % p


def echelon(rows, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p and its pivot columns."""
    a = _array(rows, p)
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    for j in range(n):
        if r == m:
            break
        nz = np.flatnonzero(a[r:, j])
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            a[[r, k]] = a[[k, r]]
        a[r] = a[r] * pow(int(a[r, j]), p - 2, p) % p
        col = a[:, j].copy()
        col[r] = 0
        hit = np.flatnonzero(col)
        if hit.size:
            a[hit] = (a[hit] - np.outer(col[hit], a[r])) % p
        pivots.append(j)
        r += 1
    return a[:r], pivots


def rank(rows, p: int) -> int:
    """Rank over F_p of a matrix given as a list of rows (or a 2-d array)."""
    if len(rows) == 0:
        return 0
    return len(echelon(rows, p)[1])


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return (np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)) % p


def matpow(a: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.eye(a.shape[0], dtype=np.int64)
    for _ in range(e):
        out = matmul(out, a, p)
    return out


def action(actions, u, p: int) -> np.ndarray:
    """Matrix of sum(u_i * X_i)."""
    n = np.asarray(actions[0]).shape[0]
    out = np.zeros((n, n), dtype=np.int64)
    for a, X in zip(u, actions):
        out = (out + int(a) * np.asarray(X, dtype=np.int64)) % p
    return out


def projective_points(p: int, c: int) -> list[tuple[int, ...]]:
    """One representative per line of F_p^c: first nonzero coordinate 1."""
    return [
        (0,) * lead + (1,) + tail
        for lead in range(c)
        for tail in product(range(p), repeat=c - lead - 1)
    ]


def normalize(v, p: int) -> tuple[int, ...]:
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    lead = next(x for x in v if x % p)
    inv = pow(int(lead), p - 2, p)
    return tuple(int(x) * inv % p for x in v)


def rank_variety_points(actions, n: int, p: int, c: int) -> frozenset:
    """Projective F_p-points of the rank variety of the module."""
    if n == 0:
        return frozenset()
    return frozenset(
        u
        for u in projective_points(p, c)
        if p * rank(matpow(action(actions, u, p), p - 1, p), p) < n
    )


def subspaces(p: int, c: int, d: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every d-subspace of F_p^c by its reduced echelon basis, built from
    pivot patterns and free entries."""
    out = []
    for piv in combinations(range(c), d):
        free = [(r, j) for r in range(d) for j in range(piv[r] + 1, c) if j not in piv]
        for values in product(range(p), repeat=len(free)):
            m = [[0] * c for _ in range(d)]
            for r, j in enumerate(piv):
                m[r][j] = 1
            for (r, j), v in zip(free, values):
                m[r][j] = v
            out.append(tuple(tuple(row) for row in m))
    return out


def span_points(basis, p: int) -> frozenset:
    """Projective points of the span of the given rows."""
    rows = [tuple(int(x) for x in r) for r in basis]
    c = len(rows[0])
    pts = set()
    for coeffs in product(range(p), repeat=len(rows)):
        if any(coeffs):
            v = tuple(sum(t * r[i] for t, r in zip(coeffs, rows)) % p for i in range(c))
            if any(v):
                pts.add(normalize(v, p))
    return frozenset(pts)


def largest_linear_component(points: frozenset, p: int, c: int) -> int:
    """Largest r such that some r-subspace has all its points in `points`.

    For a union of subspaces this is the largest component, provided the
    union of the smaller components does not cover a larger subspace's
    rational points; the benchmark's inputs are chosen so that it cannot.
    """
    for r in range(c, 0, -1):
        for W in subspaces(p, c, r):
            if span_points(W, p) <= points:
                return r
    return 0


def schubert_dim(c: int, d: int, r: int) -> int:
    """Projective dimension of the d-planes meeting an r-subspace; -1 if r = 0."""
    if r == 0:
        return -1
    if r + d > c:
        return d * (c - d)
    return d * (c - d) - (c - d - r + 1)


def meets(basis_a, basis_b, p: int) -> bool:
    """Whether the spans of two row sets share a nonzero vector."""
    return rank(list(basis_a) + list(basis_b), p) < rank(basis_a, p) + rank(basis_b, p)


def betti_trivial(c: int, i: int) -> int:
    return comb(i + c - 1, c - 1)


def ext_cyclic_quotient(u, n_actions, n: int, p: int, bound: int) -> list[int]:
    """dim Ext^i(kE/(u), N) for i = 0..bound in closed form."""
    if n == 0:
        return [0] * (bound + 1)
    U = action(n_actions, u, p)
    ru = rank(U, p)
    rv = rank(matpow(U, p - 1, p), p)
    return [n - ru] + [n - ru - rv] * bound


def hom_dim(m_actions, n_m: int, n_actions, n_n: int, p: int) -> int:
    """dim Hom_kE(M, N): solutions f of f X_i^M = X_i^N f, by one rank."""
    if n_m == 0 or n_n == 0:
        return 0
    blocks = []
    eye_m = np.eye(n_m, dtype=np.int64)
    eye_n = np.eye(n_n, dtype=np.int64)
    for XM, XN in zip(m_actions, n_actions):
        # row-major vec(f): vec(XN f) = (XN kron I) vec f, vec(f XM) = (I kron XM^T) vec f
        XM = np.asarray(XM, dtype=np.int64)
        XN = np.asarray(XN, dtype=np.int64)
        blocks.append(np.kron(XN, eye_m) - np.kron(eye_n, XM.T))
    return n_n * n_m - rank(np.concatenate(blocks, axis=0), p)

