"""Tests of the benchmark's independent reference (reference.py).

Run with `python3 -m pytest perfbench`.  The rank and echelon form are
compared with sympy's DomainMatrix over GF(p); the module-level answers
with identities that hold for every module.  Skipped without sympy.
"""

import random
from itertools import product

import numpy as np
import pytest

import reference as ref

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402


def _sympy_matrix(rows, p):
    K = sympy.GF(p)
    m, n = len(rows), len(rows[0])
    return DomainMatrix([[K(int(x)) for x in row] for row in rows], (m, n), K)


def _random_matrix(rng, p, m, n, density):
    return [[rng.randrange(1, p) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]


def _regular(p, c):
    """kE on the monomial basis x^e, e in base-p index order."""
    n = p**c
    acts = []
    for i in range(c):
        X = np.zeros((n, n), dtype=np.int64)
        for j in range(n):
            if (j // p**i) % p < p - 1:
                X[j + p**i, j] = 1
        acts.append(X)
    return acts


def _block_diag(a, b):
    out = np.zeros((a.shape[0] + b.shape[0],) * 2, dtype=np.int64)
    out[: a.shape[0], : a.shape[0]] = a
    out[a.shape[0]:, a.shape[0]:] = b
    return out


def _modules(p, c):
    """Trivial, regular, and their direct sum, as action lists."""
    k = [np.zeros((1, 1), dtype=np.int64) for _ in range(c)]
    kE = _regular(p, c)
    return {"k": k, "kE": kE, "k+kE": [_block_diag(a, b) for a, b in zip(k, kE)]}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_and_echelon_match_sympy(p):
    rng = random.Random(p)
    for _ in range(40):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        rows = _random_matrix(rng, p, m, n, rng.choice([0.2, 0.5, 0.9]))
        dm = _sympy_matrix(rows, p)
        assert ref.rank(rows, p) == dm.rank()
        red, piv = ref.echelon(rows, p)
        want, want_piv = dm.rref()
        assert piv == list(want_piv)
        assert red.tolist() == [[int(x) % p for x in row] for row in want.to_list()[: len(piv)]]


def test_rank_of_empty_matrix():
    assert ref.rank([], 3) == 0


@pytest.mark.parametrize("p,c", [(2, 2), (3, 2), (2, 3)])
def test_rank_variety_points(p, c):
    mods = _modules(p, c)
    everything = frozenset(ref.projective_points(p, c))
    assert ref.rank_variety_points(mods["k"], 1, p, c) == everything
    assert ref.rank_variety_points(mods["kE"], p**c, p, c) == frozenset()
    assert ref.rank_variety_points(mods["k+kE"], p**c + 1, p, c) == everything
    assert ref.rank_variety_points([], 0, p, c) == frozenset()


@pytest.mark.parametrize("p,c,d", [(2, 3, 1), (2, 3, 2), (3, 3, 2), (2, 4, 2), (3, 4, 1)])
def test_subspace_count_is_the_gaussian_binomial(p, c, d):
    num = den = 1
    for i in range(d):
        num *= p ** (c - i) - 1
        den *= p ** (i + 1) - 1
    subs = ref.subspaces(p, c, d)
    assert len(subs) == len(set(subs)) == num // den
    assert all(ref.rank(W, p) == d for W in subs)


def test_span_points_and_meets():
    p = 3
    line = [(1, 2, 0)]
    plane = [(1, 0, 0), (0, 1, 0)]
    assert ref.span_points(line, p) == {(1, 2, 0)}
    assert len(ref.span_points(plane, p)) == p + 1
    assert ref.meets(line, plane, p)
    assert not ref.meets([(0, 0, 1)], plane, p)
    assert ref.largest_linear_component(ref.span_points(plane, p) | {(0, 0, 1)}, p, 3) == 2


def test_schubert_dimensions():
    # all of G_d(k^c) when every d-plane meets the component
    assert ref.schubert_dim(3, 2, 2) == 2
    # planes through a line in k^3, lines through a point, planes through a line in k^4
    assert ref.schubert_dim(3, 2, 1) == 1
    assert ref.schubert_dim(3, 1, 1) == 0
    assert ref.schubert_dim(4, 2, 1) == 2
    assert ref.schubert_dim(4, 2, 0) == -1


def test_betti_numbers_of_the_trivial_module():
    assert [ref.betti_trivial(2, i) for i in range(5)] == [1, 2, 3, 4, 5]
    assert [ref.betti_trivial(3, i) for i in range(4)] == [1, 3, 6, 10]


@pytest.mark.parametrize("p,c", [(2, 2), (3, 2), (2, 3)])
def test_hom_dimensions(p, c):
    mods = _modules(p, c)
    kE = mods["kE"]
    n = p**c
    # Hom(kE, N) = N, Hom(N, k) = N / rad N, Hom(k, N) = socle of N
    for name, acts in mods.items():
        dim = acts[0].shape[0]
        assert ref.hom_dim(kE, n, acts, dim, p) == dim
        radical = ref.rank(np.concatenate(acts, axis=1), p)
        socle = dim - ref.rank(np.concatenate(acts, axis=0), p)
        assert ref.hom_dim(acts, dim, mods["k"], 1, p) == dim - radical
        assert ref.hom_dim(mods["k"], 1, acts, dim, p) == socle


@pytest.mark.parametrize("p,c", [(2, 2), (3, 2), (3, 3)])
def test_ext_of_a_cyclic_quotient(p, c):
    mods = _modules(p, c)
    for u in product(range(p), repeat=c):
        if not any(u):
            continue
        # kE is injective; k sees one class in every degree
        assert ref.ext_cyclic_quotient(u, mods["kE"], p**c, p, 4) == [p ** (c - 1), 0, 0, 0, 0]
        assert ref.ext_cyclic_quotient(u, mods["k"], 1, p, 4) == [1, 1, 1, 1, 1]

