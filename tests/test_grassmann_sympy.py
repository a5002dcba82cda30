"""Projections of incidence ideals checked against sympy.

The reference here is written with sympy alone and shares no code with
grassvar.  It takes the textbook route: for each point coordinate xi,
saturate the incidence ideal at xi with a Rabinowitsch variable t
(adjoin t*xi - 1 and eliminate t and the point coordinates under lex),
then intersect the projections.  grassvar instead makes one elimination
per affine chart xi = 1, so the two reduced bases agree only when that
identity holds.  Skipped when sympy is not installed.
"""

import random
from itertools import combinations

import pytest

from grassvar.cli import parse_polynomial
from grassvar.fp import PrimeField
from grassvar.grassmann import project_incidence
from grassvar.poly import buchberger_reduced, ideal
from grassvar.rankvariety import VarietyIdeal1, coordinate_ring

sympy = pytest.importorskip("sympy")


def _bracket(P, seq):
    """The Pluecker coordinate of an ordered index sequence: alternating in
    its entries, zero when one repeats."""
    if len(set(seq)) < len(seq):
        return 0
    inversions = sum(1 for i, j in combinations(range(len(seq)), 2) if seq[i] > seq[j])
    return (-1) ** inversions * P[tuple(sorted(seq))]


def _incidence(zgens, a, x, P, c, d):
    """Generators of { (u, W) : u in Z, u in W } in the p and x variables."""
    gens = []
    # Grassmann-Pluecker relations
    for S in combinations(range(c), d - 1):
        for T in combinations(range(c), d + 1):
            gens.append(sum(
                (-1) ** k * _bracket(P, S + (t,)) * _bracket(P, T[:k] + T[k + 1:])
                for k, t in enumerate(T)
            ))
    # u in W: the (d+1)-minors of a basis of W stacked on u vanish
    for J in combinations(range(c), d + 1):
        gens.append(sum((-1) ** k * x[j] * P[J[:k] + J[k + 1:]] for k, j in enumerate(J)))
    gens += [g.subs(dict(zip(a, x)), simultaneous=True) for g in zgens]
    return [g for g in map(sympy.expand, gens) if g != 0]


def _eliminate(gens, drop, keep, p):
    """Generators of the ideal intersected with k[keep], by a lex basis."""
    G = sympy.groebner(gens, *drop, *keep, order="lex", modulus=p)
    return [g for g in G.exprs if not g.free_symbols & set(drop)]


def _reference(zgens, a, c, d, p):
    """Reduced grevlex basis of the projection, as a set of term sets."""
    x = sympy.symbols(f"x1:{c + 1}")
    t = sympy.Symbol("t")
    subsets = list(combinations(range(c), d))
    P = {S: sympy.Symbol("p_" + "".join(str(i + 1) for i in S)) for S in subsets}
    pvars = [P[S] for S in subsets]
    inc = _incidence(zgens, a, x, P, c, d)
    parts = []
    for xi in x:
        part = _eliminate(inc + [t * xi - 1], [t, *x], pvars, p)
        if not any(g.is_number for g in part):
            parts.append(part)
    if not parts:
        return {frozenset({((0,) * len(pvars), 1)})}
    result = parts[0]
    for part in parts[1:]:
        # I n J = (t I + (1 - t) J) n k[p]
        result = _eliminate(
            [t * f for f in result] + [(1 - t) * g for g in part], [t], pvars, p
        )
    if not result:
        return set()
    G = sympy.groebner(result, *pvars, order="grevlex", modulus=p)
    # sympy reports coefficients mod p in the symmetric range
    return {frozenset((e, int(k) % p) for e, k in g.terms()) for g in G.polys}


def _random_form(rng, a, p, degree):
    """A nonzero homogeneous form with a few seeded terms."""
    while True:
        form = sum(
            rng.randrange(p) * sympy.Mul(*(rng.choice(a) for _ in range(degree)))
            for _ in range(3)
        )
        form = sympy.Poly(form, *a, modulus=p)
        if not form.is_zero:
            return form.as_expr()


# (p, c, d, generators of the cone); the named cones are non-linear, and
# the unions of coordinate axes need every chart; the seeded cones mix
# linear forms and quadrics
NAMED = [
    (2, 4, 2, "a1*a3+a2*a4; a1+a2+a3"),
    (2, 4, 2, "a1*a2-a3*a4"),
    (3, 4, 2, "a1*a2-a3*a4"),
    (3, 3, 1, "a1^2-a2*a3"),
    (2, 4, 2, "a1*a2; a1*a3; a1*a4; a2*a3; a2*a4; a3*a4"),
    (3, 4, 3, "a1*a2; a1*a3; a1*a4; a2*a3; a2*a4; a3*a4"),
]
SEEDED_CONTEXTS = [(2, 3, 1), (3, 3, 1), (2, 4, 1), (3, 4, 2), (2, 4, 3), (3, 4, 3)]


def _seeded_cones():
    rng = random.Random(20261018)
    cones = []
    for p, c, d in SEEDED_CONTEXTS:
        a = sympy.symbols(f"a1:{c + 1}")
        forms = [_random_form(rng, a, p, 1) for _ in range(rng.randint(1, c - 2))]
        forms.append(_random_form(rng, a, p, 2))
        text = "; ".join(str(f).replace("**", "^") for f in forms)
        cones.append((p, c, d, text))
    return cones


CASES = NAMED + _seeded_cones()


@pytest.mark.parametrize(
    "p, c, d, text", CASES, ids=[f"F{p}-c{c}-d{d}-({z.replace(' ', '')})" for p, c, d, z in CASES]
)
def test_projection_matches_sympy_saturation_route(p, c, d, text, cold_memos):
    ring = coordinate_ring(PrimeField(p), c)
    raw = ideal(ring, [parse_polynomial(ring, g) for g in text.split(";")])
    V = project_incidence(VarietyIdeal1(ring, raw, buchberger_reduced(raw)), d)
    a = sympy.symbols(f"a1:{c + 1}")
    zgens = [sympy.sympify(g, locals=dict(zip(map(str, a), a))) for g in text.split(";")]
    want = _reference(zgens, a, c, d, p)
    assert {frozenset(g.terms) for g in V.gb.gens} == want
