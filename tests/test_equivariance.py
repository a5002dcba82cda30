"""GL_c(F_p) equivariance of the projection to G_d.

g in GL_c(F_p) acts on k[a1..ac] by f -> f(a g), for a a row vector, and
on the Pluecker ring of G_d(k^c) by its d-th exterior power: p_S is sent
to P'_S = sum over T of det(g[T, S]) p_T (Cauchy-Binet, the minors taken by
fp._minors on constant entries).  A d-plane W meets V(f(a g)) = V(f) g^-1
away from 0 iff W g meets V(f), and the Pluecker point of W g is P' at the
point of W; the incidence ideal, the irrelevant ideal and the Pluecker
relations are carried to themselves, so the projection of the twisted cone
is the twisted projection, as ideals and not only as varieties.  The
reduced bases are compared after re-reduction, and must be identical.

Each route of project_incidence reads the coordinates: the charts, one
per coordinate; the saturation's parts and its "some variable divides no
lead" shortcut; the Schubert answer's minors, one per column subset; the
reduced-union answer's scan of rational points.  These checks need no
second implementation of any of them.
"""

import itertools
import random

import pytest

from grassvar.fp import MatrixFp, PrimeField, _minors
from grassvar.grassmann import pluecker_ring, project_incidence, _subsets
from grassvar.poly import buchberger_reduced, ideal
from grassvar.rankvariety import VarietyIdeal1, coordinate_ring, pair_variety_ideal

from test_grassmann import CONE_SHAPES, _union_of_subspaces

F2 = PrimeField(2)
F3 = PrimeField(3)


def _invertible(rng, field, c):
    """A seeded g in GL_c(F_p), as a list of rows."""
    while True:
        g = [[rng.randrange(field.p) for _ in range(c)] for _ in range(c)]
        if MatrixFp(field, g).rank() == c:
            return g


def _substituted(f, images):
    """f with its i-th variable replaced by images[i], all in one ring."""
    ring = images[0].ring
    out = ring.zero
    for e, a in f.terms:
        term = ring.const(a)
        for x, k in zip(images, e):
            if k:
                term = term * x**k
        out = out + term
    return out


def _twisted_cone(gb, g):
    """The reduced basis of {f(a g) : f in gb}."""
    ring = gb.ring
    a, n = ring.gens(), ring.nvars
    images = [sum((a[i] * g[i][j] for i in range(n) if g[i][j]), ring.zero) for j in range(n)]
    return buchberger_reduced(ideal(ring, [_substituted(f, images) for f in gb.gens]))


def _twisted_variety(gb, g, d):
    """The reduced basis of {F(P') : F in gb}, gb in the Pluecker ring of
    G_d(k^c), with P'_S = sum over T of det(g[T, S]) p_T."""
    ring = gb.ring
    c = len(g)
    minor = _minors([[{0: x} if x else {} for x in row] for row in g], ring.p)
    subsets = _subsets(c, d)
    p = ring.gens()
    images = [sum((p_T * minor(T, S).get(0, 0) for p_T, T in zip(p, subsets)), ring.zero) for S in subsets]
    return buchberger_reduced(ideal(ring, [_substituted(F, images) for F in gb.gens]))


def _check(gb, rng, twists):
    """For `twists` seeded g, the projection of the twisted cone against the
    twisted projection, at every d; returns the number of comparisons."""
    c = gb.ring.nvars
    checked = 0
    for _ in range(twists):
        g = _invertible(rng, gb.ring.field, c)
        twisted = _twisted_cone(gb, g)
        for d in range(1, c + 1):
            V = project_incidence(VarietyIdeal1(gb.ring, gb, gb), d).gb
            W = project_incidence(VarietyIdeal1(twisted.ring, twisted, twisted), d).gb
            want = _twisted_variety(V, g, d)
            assert W.ring is want.ring is pluecker_ring(gb.ring.field, c, d)
            assert W.gens == want.gens, (str(gb), g, d)
            checked += 1
    return checked


def test_twisted_invertible_maps_compose():
    # (f(a g))(a h) = f(a h g) and the exterior powers compose the same way,
    # so the helpers act as a group: a check on the helpers themselves
    rng = random.Random("compose")
    ring = coordinate_ring(F3, 4)
    a1, a2, a3, a4 = ring.gens()
    gb = buchberger_reduced(ideal(ring, [a1 * a2 + a3 * a3, a4 * a1]))
    g, h = _invertible(rng, F3, 4), _invertible(rng, F3, 4)
    hg = (MatrixFp(F3, h) @ MatrixFp(F3, g)).tolist()
    assert _twisted_cone(_twisted_cone(gb, g), h).gens == _twisted_cone(gb, hg).gens
    p12, p13, p14, p23, p24, p34 = pluecker_ring(F3, 4, 2).gens()
    V = buchberger_reduced(ideal(p12.ring, [p12 * p34 + p13 * p13, p14 * p23 - p24]))
    assert _twisted_variety(_twisted_variety(V, g, 2), h, 2).gens == _twisted_variety(V, hg, 2).gens
    # the identity fixes both
    one = [[int(i == j) for j in range(4)] for i in range(4)]
    assert _twisted_cone(gb, one).gens == gb.gens
    assert _twisted_variety(V, one, 2).gens == V.gens


@pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
def test_projection_of_cones_is_equivariant(field):
    # every CONE_SHAPES union of subspaces of k^4, two seeded g each, at
    # every d: each route of project_incidence is reached
    rng = random.Random(f"equivariance cones {field.p}")
    checked = sum(_check(_union_of_subspaces(rng, field, 4, dims).gb, rng, 2) for dims in CONE_SHAPES)
    assert checked == len(CONE_SHAPES) * 2 * 4


def test_projection_of_catalog_pairs_is_equivariant(catalog):
    # the variety of every ordered catalog pair over (2,2), (3,2) and (2,3),
    # each distinct basis once, two seeded g each, at every d
    rng = random.Random("equivariance catalog")
    bases = {pair_variety_ideal(M, N).gb for cat in catalog.values()
             for M, N in itertools.product(cat.values(), repeat=2)}
    checked = sum(_check(gb, rng, 2) for gb in sorted(bases, key=str))
    assert checked == 2 * sum(gb.ring.nvars for gb in bases)
