"""Reduced Groebner bases, normal forms and eliminations checked against
sympy, which shares no code with grassvar's Buchberger.  Skipped when sympy
is not installed."""

import random

import pytest

from grassvar.errors import GroebnerBudgetError
from grassvar.fp import PrimeField
from grassvar.grassmann import _set_to_one, incidence_ideal
from grassvar import coordinate_ring, poly
from grassvar.poly import (
    MonomialOrder,
    PolyRing,
    buchberger_reduced,
    eliminate,
    groebner_budget,
    ideal,
    normal_form,
)
from grassvar.rankvariety import VarietyIdeal1

sympy = pytest.importorskip("sympy")
from sympy.polys.orderings import ProductOrder, grevlex  # noqa: E402


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
    """Each generator as its sequence of (exponent, coefficient) terms."""
    return {tuple(terms) for terms in polys}


def _sympy_terms(poly, order, p):
    """sympy's nonzero terms in its own descending order, coefficients mod p
    (sympy reports them in the symmetric range, and 0 as one zero term)."""
    return [(e, int(c) % p) for e, c in poly.terms(order=order) if int(c) % p]


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
        want = _basis_terms(_sympy_terms(g, order, p) for g in theirs.polys)
        assert len(ours.gens) == len(theirs.polys), ideal_terms
        assert _basis_terms(g.terms for g in ours.gens) == want, ideal_terms
        # the remainder by a Groebner basis is unique, whatever the division
        f_terms = _random_terms(rng, p) + _random_terms(rng, p)
        f_terms = list({e: c for e, c in f_terms}.items())
        _, rem = sympy.reduced(_theirs(symbols, f_terms), theirs.exprs, *symbols,
                               modulus=p, order=order)
        rem = sympy.Poly(rem, *symbols, modulus=p)
        nf = normal_form(_ours(ring, f_terms), ours)
        assert list(nf.terms) == _sympy_terms(rem, order, p), (ideal_terms, f_terms)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_reduced_basis_matches_sympy(p):
    _check_against_sympy(p, "grevlex", 100 + p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_reduced_lex_basis_matches_sympy(p):
    # homogeneous input takes pairs by sugar, the rest by smallest lcm
    _check_against_sympy(p, "lex", 200 + p)
    _check_against_sympy(p, "lex", 300 + p, _random_form_terms)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_block_elimination_matches_sympy(p):
    # a lex basis eliminates every leading variable; sympy's basis of the
    # elements free of the dropped ones, under the input ring's order, is
    # the reduced basis that eliminate() returns in the smaller ring
    rng = random.Random(400 + p)
    symbols = sympy.symbols("x y z")
    for order in ("grevlex", "lex"):
        ring = PolyRing(PrimeField(p), ["x", "y", "z"], MonomialOrder(order))
        for drop in (["x"], ["x", "y"]) * 5:
            ideal_terms = [_random_terms(rng, p) for _ in range(rng.randint(2, 3))]
            ours = eliminate(ideal(ring, [_ours(ring, t) for t in ideal_terms]), drop)
            assert ours.ring.order.kind == order
            lex = sympy.groebner([_theirs(symbols, t) for t in ideal_terms], *symbols,
                                 modulus=p, order="lex")
            kept = symbols[len(drop):]
            free = [g for g in lex.exprs if not (g.free_symbols & set(symbols[:len(drop)]))]
            if not free:
                assert ours.gens == (), ideal_terms
                continue
            theirs = sympy.groebner(free, *kept, modulus=p, order=order)
            want = _basis_terms(_sympy_terms(g, order, p) for g in theirs.polys)
            assert len(ours.gens) == len(theirs.polys), ideal_terms
            assert _basis_terms(g.terms for g in ours.gens) == want, ideal_terms


@pytest.mark.parametrize("p", [2, 3])
def test_reduced_basis_memo_sees_one_ideal_in_any_order_scaling_or_repeat(p):
    # one basis object per ideal, however its generators are listed, and it
    # is sympy's reduced basis; a run that runs out of budget stores nothing
    rng = random.Random(500 + p)
    field = PrimeField(p)
    symbols = sympy.symbols("x y z")
    # the block order that drops x: x's grevlex block above that of y and z
    block = ProductOrder((grevlex, lambda m: m[:1]), (grevlex, lambda m: m[1:]))
    spent_any = False
    for order, theirs_order in [(MonomialOrder("grevlex"), "grevlex"), (MonomialOrder.lex(), "lex"),
                                (MonomialOrder.block(["x"]), block)]:
        ring = PolyRing(field, ["x", "y", "z"], order)
        for _ in range(6):
            ideal_terms = [_random_terms(rng, p) for _ in range(rng.randint(2, 3))]
            gens = [_ours(ring, t) for t in ideal_terms]
            poly._reduced_groebner.cache_clear()
            with groebner_budget(10**6):
                cold = buchberger_reduced(ideal(ring, gens))
                spent = poly._pool.get()[1]
            poly._reduced_groebner.cache_clear()
            if spent:
                spent_any = True
                with groebner_budget(spent - 1), pytest.raises(GroebnerBudgetError):
                    buchberger_reduced(ideal(ring, gens))
                assert poly._reduced_groebner.cache_info().currsize == 0
            with groebner_budget(spent):
                G = buchberger_reduced(ideal(ring, gens))
                assert poly._pool.get()[1] == spent
            assert G.gens == cold.gens
            for _ in range(4):
                variant = [g * rng.randrange(1, p) for g in gens + rng.sample(gens, rng.randint(0, len(gens)))]
                rng.shuffle(variant)
                with groebner_budget(0):
                    assert buchberger_reduced(ideal(ring, variant)) is G
            theirs = sympy.groebner([_theirs(symbols, t) for t in ideal_terms], *symbols,
                                    modulus=p, order=theirs_order)
            want = _basis_terms(_sympy_terms(g, theirs_order, p) for g in theirs.polys)
            assert len(G.gens) == len(theirs.polys), ideal_terms
            assert _basis_terms(g.terms for g in G.gens) == want, ideal_terms
    assert spent_any


def _chart_of_three_lines(p, seed, chart):
    """The chart ideal that project_incidence eliminates at c = 4, d = 2,
    for a seeded cone Z in k^4: the product of the linear equations of three
    seeded lines.  It lies in the incidence ring, whose block order drops
    the four point coordinates, with x_(chart+1) set to 1, so its
    generators lie in the other nine variables.  A packed monomial of the
    ring has eleven fields, 220 bits."""
    rng = random.Random(seed)
    field = PrimeField(p)
    ring = coordinate_ring(field, 4)
    a = ring.gens()

    def form():
        return sum((a[j] * rng.randrange(p) for j in range(4)), ring.zero)

    products = [ring.one]
    for _ in range(3):
        equations = [form() for _ in range(3)]
        products = [f * g for f in products for g in equations]
    gb = buchberger_reduced(ideal(ring, products))
    inc = incidence_ideal(VarietyIdeal1(ring, gb, gb), 2)
    return ideal(inc.ring, [_set_to_one(g, 6 + chart) for g in inc.gens])


@pytest.mark.parametrize("p, seed, chart", [(2, 4, 3), (3, 5, 0), (5, 2, 1)])
def test_nine_variable_chart_elimination_matches_sympy(p, seed, chart):
    # sympy's ProductOrder of two grevlex blocks on the nine variables other
    # than x_i is the block order, with the three point coordinates
    # greatest.  Its reduced basis must be ours term for term, taken in the
    # incidence ring and in a ring of the nine alike, and the elements free
    # of the point coordinates are the elimination
    chart_ideal = _chart_of_three_lines(p, seed, chart)
    ring, i = chart_ideal.ring, 6 + chart
    assert ring.order == MonomialOrder.block(ring.names[6:])
    assert not any(i in g.support() for g in chart_ideal.gens)
    names = ring.names[:i] + ring.names[i + 1:]
    nine = PolyRing(ring.field, names, MonomialOrder.block(names[6:]))
    index_map = [*range(i), None, *range(i, 9)]
    gens = [g.map_to(nine, index_map) for g in chart_ideal.gens]
    ours = buchberger_reduced(chart_ideal)
    ours_nine = buchberger_reduced(ideal(nine, gens))
    assert [g.map_to(nine, index_map) for g in ours.gens] == list(ours_nine.gens)
    symbols = sympy.symbols(names)
    order = ProductOrder((grevlex, lambda m: m[6:]), (grevlex, lambda m: m[:6]))
    exprs = [sum(c * sympy.prod([s**x for s, x in zip(symbols, e)]) for e, c in g.terms) for g in gens]
    theirs = sympy.groebner(exprs, *symbols, order=order, modulus=p)
    assert len(ours_nine.gens) == len(theirs.polys) > 6
    assert _basis_terms(g.terms for g in ours_nine.gens) == _basis_terms(
        _sympy_terms(g, order, p) for g in theirs.polys)
    E = eliminate(chart_ideal, ring.names[6:])
    free = [tuple((e[:6], c) for e, c in g.terms) for g in ours.gens if not any(g.support() & {6, 7, 8, 9})]
    assert [g.terms for g in E.gens] == free
