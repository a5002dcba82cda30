"""Rank-variety ideals checked against sympy.

The reference forms U = a1*X1 + .. + ac*Xc as a sympy Matrix, takes
U^(p-1) and every r-minor of it, r = n/p, and runs sympy's Groebner basis
modulo p.  It shares no arithmetic with grassvar, whose minor route never
forms U^(p-1) and takes minors only on the independent rows and columns.
Skipped when sympy is not installed.
"""

import random
from itertools import combinations

import pytest

from grassvar.fp import MatrixFp, PrimeField, _minors
from grassvar.modules import KEModule, direct_sum, quotient_by_linear_forms
from grassvar.rankvariety import coordinate_ring, rank_variety_ideal

sympy = pytest.importorskip("sympy")


def _reference_minors(M):
    """The nonzero r-minors of U^(p-1), expanded, and the symbols a1..ac."""
    p, c, n = M.p, M.c, M.n
    a = sympy.symbols(f"a1:{c + 1}")
    U = sum((a[i] * sympy.Matrix(X.tolist()) for i, X in enumerate(M.actions)), sympy.zeros(n, n))
    A = (U ** (p - 1)).expand()
    r = n // p
    minors = []
    for rows in combinations(range(n), r):
        for cols in combinations(range(n), r):
            f = sympy.Poly(A.extract(list(rows), list(cols)).det(method="berkowitz"), *a, modulus=p)
            if not f.is_zero:
                minors.append(f.as_expr())
    return minors, a


def _check(M, label):
    p = M.p
    minors, a = _reference_minors(M)
    ours = rank_variety_ideal(M)
    got = {tuple(g.terms) for g in ours.gb.gens}
    if not minors:
        assert got == set(), label
        return minors
    theirs = sympy.groebner(minors, *a, modulus=p, order="grevlex")
    want = {
        tuple((e, int(k) % p) for e, k in g.terms(order="grevlex") if int(k) % p)
        for g in theirs.polys
    }
    assert got == want, label
    return minors


@pytest.mark.parametrize("p", [2, 3])
def test_catalog_rank_ideals_match_sympy_minors(catalog, p):
    cat = {name: M for name, M in catalog[(p, 2)].items() if M.n <= 6 and M.n % p == 0}
    assert len(cat) >= 4
    for name, M in cat.items():
        _check(M, (p, name))


@pytest.mark.parametrize("seed", [1, 2])
def test_dense_basis_change_matches_sympy_minors(seed):
    # R/x1 + R/x2 over (3,2) conjugated by a seeded dense matrix, drawn
    # until no row or column of U^(p-1) is zero: only its two rows in
    # rad^2 M are independent, so they are found by row reduction, not by
    # support
    p = 3
    F = PrimeField(p)
    M = direct_sum(quotient_by_linear_forms(F, 2, [(1, 0)]), quotient_by_linear_forms(F, 2, [(0, 1)]))
    rng = random.Random(seed)
    a = sympy.symbols("a1:3")
    while True:
        P = sympy.Matrix(M.n, M.n, lambda i, j: rng.randrange(p))
        if P.det() % p == 0:
            continue
        Pinv = P.inv_mod(p)
        arrays = [(P * sympy.Matrix(X.tolist()) * Pinv).applyfunc(lambda v: v % p) for X in M.actions]
        A = ((a[0] * arrays[0] + a[1] * arrays[1]) ** (p - 1)).expand()
        nonzero = [sympy.Poly(v, *a, modulus=p).is_zero is False for v in A]
        if all(any(nonzero[i * M.n : (i + 1) * M.n]) for i in range(M.n)) and all(
            any(nonzero[j :: M.n]) for j in range(M.n)
        ):
            break
    N = KEModule(F, 2, M.n, tuple(MatrixFp(F, X.tolist()) for X in arrays))
    minors = _check(N, seed)
    # the route took fewer minors than the whole matrix has nonzero ones
    assert len(rank_variety_ideal(N).raw.gens) < len(minors)
    assert str(rank_variety_ideal(N).gb) == "ideal(a1^2*a2^2)"


@pytest.mark.parametrize("p", [2, 3, 5])
def test_shared_minors_match_sympy_determinants(p):
    # fp._minors, which expands every rank-variety minor and Pluecker
    # coordinate, on small random matrices of polynomials in F_p[a1, a2, a3]
    rng = random.Random(700 + p)
    ring = coordinate_ring(PrimeField(p), 3)
    a = sympy.symbols("a1:4")
    for _ in range(6):
        n = rng.randint(1, 4)
        entries = [
            [
                {
                    tuple(rng.randrange(3) for _ in range(3)): rng.randrange(1, p)
                    for _ in range(rng.choice([0, 1, 1, 2]))
                }
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        minor = _minors([[{ring._pack(e): k for e, k in f.items()} for f in row] for row in entries], p)
        mat = sympy.Matrix(n, n, lambda i, j: sum(
            (k * sympy.Mul(*(x**e for x, e in zip(a, mono))) for mono, k in entries[i][j].items()),
            sympy.Integer(0),
        ))
        for size in range(1, n + 1):
            for R in combinations(range(n), size):
                for S in combinations(range(n), size):
                    det = mat.extract(list(R), list(S)).det(method="berkowitz")
                    want = {
                        e: int(k) % p
                        for e, k in sympy.Poly(det, *a, modulus=p).terms()
                        if int(k) % p
                    }
                    got = {ring._unpack(m): k for m, k in minor(R, S).items()}
                    assert got == want, (entries, R, S)
