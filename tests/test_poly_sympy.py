"""Reduced Groebner bases checked against sympy, which shares no code with
grassvar's Buchberger.  Skipped when sympy is not installed."""

import random

import pytest

from grassvar.fp import PrimeField
from grassvar.poly import MonomialOrder, PolyRing, buchberger_reduced, ideal

sympy = pytest.importorskip("sympy")


def _random_terms(rng, p):
    """A few distinct monomials of degree at most 2 in each variable."""
    monos = {tuple(rng.randrange(3) for _ in range(3)) for _ in range(rng.randint(1, 4))}
    return [(e, rng.randrange(1, p)) for e in sorted(monos)]


def _random_form_terms(rng, p):
    """A few distinct monomials of one total degree between 1 and 4."""
    d = rng.randint(1, 4)
    degree_d = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
    monos = set(rng.sample(degree_d, min(len(degree_d), rng.randint(1, 4))))
    return [(e, rng.randrange(1, p)) for e in sorted(monos)]


def _basis_terms(polys):
    """Each generator as its set of (exponent, coefficient) terms."""
    return {frozenset(terms) for terms in polys}


def _ours(ring, terms):
    x, y, z = ring.gens()
    return sum((ring.const(c) * x**a * y**b * z**e for (a, b, e), c in terms), ring.zero)


def _theirs(symbols, terms):
    x, y, z = symbols
    return sum(c * x**a * y**b * z**e for (a, b, e), c in terms)


def _check_against_sympy(p, order, seed, terms=_random_terms):
    rng = random.Random(seed)
    ring = PolyRing(PrimeField(p), ["x", "y", "z"], MonomialOrder(order))
    symbols = sympy.symbols("x y z")
    for _ in range(20):
        ideal_terms = [terms(rng, p) for _ in range(rng.randint(2, 3))]
        ours = buchberger_reduced(ideal(ring, [_ours(ring, t) for t in ideal_terms]))
        theirs = sympy.groebner(
            [_theirs(symbols, t) for t in ideal_terms],
            *symbols,
            modulus=p,
            order=order,
        )
        # sympy reports coefficients mod p in the symmetric range
        want = _basis_terms(
            [(e, int(c) % p) for e, c in g.terms()] for g in theirs.polys
        )
        assert len(ours.gens) == len(theirs.polys), ideal_terms
        assert _basis_terms(g.terms for g in ours.gens) == want, ideal_terms


@pytest.mark.parametrize("p", [2, 3, 5])
def test_reduced_basis_matches_sympy(p):
    _check_against_sympy(p, "grevlex", 100 + p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_reduced_lex_basis_matches_sympy(p):
    # homogeneous input takes pairs by sugar, the rest by smallest lcm
    _check_against_sympy(p, "lex", 200 + p)
    _check_against_sympy(p, "lex", 300 + p, _random_form_terms)
