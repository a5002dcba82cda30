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
lead" shortcut; the Schubert answer's minors, one per column subset, and
its scan of rational points, both read from the saturation.  These checks
need no second implementation of any of them.

g also acts on kE-modules: M^g has actions X'_i = sum over j of g_ij X_j,
which commute and have p-th power 0 in characteristic p, so M^g is M seen
through the automorphism x_i -> sum over j of g_ij x_j of kE.  A form
u_a = sum a_i X'_i of M^g is u_(a g) of M, so the rank variety of M^g is
the twist of that of M, generator by generator of the minors; the higher
varieties of (M^g, N^g) are twisted by the d-th exterior power of g, and
Ext and the Betti numbers, invariant under an automorphism of the algebra,
are unchanged.  The oracle's flags at W for (M^g, N^g) are its flags at W g
for (M, N): W's basis rows w give the forms sum over i of w_i X'_i of M^g,
which are the forms of w g on M, and a point u of W lies on V(M^g, N^g)
iff u g lies on V(M, N).
"""

import itertools
import random

import pytest

from grassvar.fp import MatrixFp, PrimeField, _minors
from grassvar.grassmann import (
    _subsets,
    enumerate_subspaces,
    higher_variety_ideal,
    oracle_membership,
    pluecker_ring,
    project_incidence,
    subspace_from_rows,
)
from grassvar.homology import betti_numbers, ext_dims
from grassvar.modules import KEModule
from grassvar.poly import buchberger_reduced, ideal
from grassvar.rankvariety import VarietyIdeal1, coordinate_ring, pair_variety_ideal, rank_variety_ideal

from test_grassmann import CONE_SHAPES, _subspace_times_m, _union_of_subspaces

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


def test_twisted_invertible_maps_compose(catalog):
    # (f(a g))(a h) = f(a h g), the exterior powers compose the same way
    # and (M^g)^h = M^(h g), so the helpers act as a group: a check on the
    # helpers themselves
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
    # the identity fixes each
    one = [[int(i == j) for j in range(4)] for i in range(4)]
    assert _twisted_cone(gb, one).gens == gb.gens
    assert _twisted_variety(V, one, 2).gens == V.gens
    for (p, c), modules in catalog.items():
        field = PrimeField(p)
        g, h = _invertible(rng, field, c), _invertible(rng, field, c)
        hg = (MatrixFp(field, h) @ MatrixFp(field, g)).tolist()
        one = [[int(i == j) for j in range(c)] for i in range(c)]
        for M in modules.values():
            assert _twisted_module(_twisted_module(M, g), h) == _twisted_module(M, hg)
            assert _twisted_module(M, one) == M


@pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
def test_projection_of_cones_is_equivariant(field):
    # every CONE_SHAPES union of subspaces of k^4, and I(L) m for seeded
    # lines, planes and hyperplanes L, whose Schubert answer reads L from
    # the saturation, two seeded g each, at every d: each route of
    # project_incidence is reached
    rng = random.Random(f"equivariance cones {field.p}")
    checked = sum(_check(_union_of_subspaces(rng, field, 4, dims).gb, rng, 2) for dims in CONE_SHAPES)
    checked += sum(_check(_subspace_times_m(rng, field, 4, r).gb, rng, 2) for r in (1, 2, 2, 3))
    assert checked == (len(CONE_SHAPES) + 4) * 2 * 4


def test_projection_of_catalog_pairs_is_equivariant(catalog):
    # the variety of every ordered catalog pair over (2,2), (3,2) and (2,3),
    # each distinct basis once, two seeded g each, at every d
    rng = random.Random("equivariance catalog")
    bases = {pair_variety_ideal(M, N).gb for cat in catalog.values()
             for M, N in itertools.product(cat.values(), repeat=2)}
    checked = sum(_check(gb, rng, 2) for gb in sorted(bases, key=str))
    assert checked == 2 * sum(gb.ring.nvars for gb in bases)


# --- twisted modules ----------------------------------------------------------


def _twisted_module(M, g):
    """M^g, whose i-th action is X'_i = sum over j of g_ij X_j."""
    arrays = [a.array for a in M.actions]
    actions = [sum(g[i][j] * arrays[j] for j in range(M.c)) % M.p for i in range(M.c)]
    return KEModule(M.field, M.c, M.n, tuple(MatrixFp(M.field, a) for a in actions))


@pytest.fixture(scope="module")
def twisted_catalog(catalog):
    """For each catalog context, two seeded g, each with the catalog
    twisted by it, module by module under the same names."""
    rng = random.Random("equivariance modules")
    out = {}
    for (p, c), modules in catalog.items():
        gs = [_invertible(rng, PrimeField(p), c) for _ in range(2)]
        out[p, c] = [(g, {name: _twisted_module(M, g) for name, M in modules.items()}) for g in gs]
    return out


def test_rank_varieties_of_twisted_modules_are_twisted(catalog, twisted_catalog):
    # I(V(M^g)) = {f(a g) : f in I(V(M))}, with identical reduced bases
    checked = 0
    for key, modules in catalog.items():
        for g, twisted in twisted_catalog[key]:
            for name, M in modules.items():
                want = _twisted_cone(rank_variety_ideal(M).gb, g)
                assert rank_variety_ideal(twisted[name]).gb.gens == want.gens, (key, name, g)
                checked += 1
    assert checked == 3 * 2 * 8


def test_higher_varieties_of_twisted_pairs_are_twisted(catalog, twisted_catalog):
    # V^d(M^g, N^g) is the twist of V^d(M, N) by the d-th exterior power of
    # g, at every d, for every ordered catalog pair
    checked = 0
    for (p, c), modules in catalog.items():
        for g, twisted in twisted_catalog[p, c]:
            for (m, M), (n, N) in itertools.product(modules.items(), repeat=2):
                for d in range(1, c + 1):
                    want = _twisted_variety(higher_variety_ideal(M, N, d).gb, g, d)
                    got = higher_variety_ideal(twisted[m], twisted[n], d).gb
                    assert got.gens == want.gens, ((p, c), m, n, g, d)
                    checked += 1
    assert checked == 2 * 64 * (2 + 2 + 3)


def test_ext_and_betti_numbers_of_twisted_modules_are_unchanged(catalog, twisted_catalog):
    # to degree 4, for every catalog module and ordered pair
    for key, modules in catalog.items():
        for g, twisted in twisted_catalog[key]:
            for name, M in modules.items():
                assert betti_numbers(twisted[name], 4) == betti_numbers(M, 4), (key, name, g)
            for (m, M), (n, N) in itertools.product(modules.items(), repeat=2):
                assert ext_dims(twisted[m], twisted[n], 4).dims == ext_dims(M, N, 4).dims, (key, m, n, g)


def test_oracle_flags_of_twisted_pairs_are_the_flags_at_the_moved_subspace(catalog, twisted_catalog):
    # both flags of (M^g, N^g, d, W) equal those of (M, N, d, W g), for
    # every ordered catalog pair, every W at every d and two seeded g per
    # context: the geometric flag's scan of scaled points and the
    # homological flag's restriction each read W's echelon basis
    checked, seen = 0, set()
    for (p, c), modules in catalog.items():
        field = PrimeField(p)
        for g, twisted in twisted_catalog[p, c]:
            G = MatrixFp(field, g)
            moved = {W: subspace_from_rows(field, (W.basis @ G).tolist())
                     for d in range(1, c + 1) for W in enumerate_subspaces(field, c, d)}
            for (m, M), (n, N) in itertools.product(modules.items(), repeat=2):
                pair, twisted_pair = pair_variety_ideal(M, N), pair_variety_ideal(twisted[m], twisted[n])
                for W, Wg in moved.items():
                    want = oracle_membership(M, N, W.d, Wg, pair_ideal=pair)
                    got = oracle_membership(twisted[m], twisted[n], W.d, W, pair_ideal=twisted_pair)
                    assert got == want, ((p, c), m, n, g, W.rows())
                    checked += 1
                    seen.add(got)
    assert checked == 2 * 64 * (4 + 5 + 15)
    assert {(True, True), (False, False)} <= seen
