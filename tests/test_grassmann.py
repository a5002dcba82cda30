import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grassvar import grassmann, homology, poly
from grassvar.cli import parse_polynomial
from grassvar.errors import GroebnerBudgetError, SubspaceLimitError, SyzygyLimitError
from grassvar.fp import MatrixFp, PrimeField, _maximal_minors, _minors, _rref
from grassvar.grassmann import (
    PlueckerPoint,
    Subspace,
    VarietyIdealD,
    enumerate_subspaces,
    gaussian_binomial,
    higher_variety_ideal,
    incidence_ideal,
    incidence_ring,
    oracle_membership,
    pluecker_embed,
    pluecker_relations,
    pluecker_ring,
    point_on_variety,
    project_incidence,
    subspace_from_rows,
    subspaces_on_variety,
    variety_dim_projective,
)
from grassvar.homology import _product_cover, ext_eventually_zero
from grassvar.modules import KEModule, restrict_to_subspace
from grassvar.poly import (
    Ideal,
    MonomialOrder,
    PolyRing,
    buchberger_reduced,
    eliminate,
    groebner_budget,
    ideal,
    ideal_intersect,
    radical_equal,
)
from grassvar.rankvariety import (
    VarietyIdeal1,
    coordinate_ring,
    pair_variety_ideal,
    rank_variety_ideal,
)

F2 = PrimeField(2)
F3 = PrimeField(3)

PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)


def _lines(ring, gens):
    raw = ideal(ring, gens)
    return VarietyIdeal1(ring, raw, buchberger_reduced(raw))


def test_gaussian_binomial_counts():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(3, 2, 2) == 7
    assert gaussian_binomial(3, 2, 3) == 13
    assert gaussian_binomial(2, 2, 5) == 1


def test_gaussian_binomial_is_zero_outside_0_to_c():
    # no subspace has negative dimension or one above c; dimension 0 has one
    for c, p in [(0, 2), (3, 2), (4, 3)]:
        assert gaussian_binomial(c, -1, p) == gaussian_binomial(c, -3, p) == 0
        assert gaussian_binomial(c, c + 1, p) == 0
        assert gaussian_binomial(c, 0, p) == gaussian_binomial(c, c, p) == 1


def test_enumerate_subspaces_counts_and_cap(monkeypatch):
    for (c, d, p) in [(3, 1, 2), (3, 2, 2), (4, 2, 2), (3, 1, 3)]:
        field = PrimeField(p)
        subs = enumerate_subspaces(field, c, d)
        assert len(subs) == gaussian_binomial(c, d, p)
        assert len(set(subs)) == len(subs)
    monkeypatch.setattr(grassmann, "DEFAULT_SUBSPACE_CAP", 10)
    with pytest.raises(SubspaceLimitError):
        enumerate_subspaces(F2, 4, 2)


def test_subspace_canonical_form():
    W1 = subspace_from_rows(F2, [(1, 0, 1), (0, 1, 1)])
    W2 = subspace_from_rows(F2, [(1, 1, 0), (0, 1, 1)])
    assert W1 == W2
    assert W1.rows() == [(1, 0, 1), (0, 1, 1)]
    with pytest.raises(ValueError):
        subspace_from_rows(F2, [(1, 0, 1), (1, 0, 1)])
    with pytest.raises(ValueError):
        subspace_from_rows(F2, [(0, 0, 0)])


def test_subspace_from_rows_refuses_non_integer_entries():
    with pytest.raises(ValueError, match="integer"):
        subspace_from_rows(F3, [(1.7, 0, 0)])
    assert subspace_from_rows(F3, [(np.int64(4), True, 10**26)]).rows() == [(1, 1, 1)]


def test_subspace_rejects_non_canonical_basis():
    from grassvar.fp import MatrixFp

    with pytest.raises(ValueError):
        Subspace(F2, 3, 2, MatrixFp(F2, [[1, 1, 0], [0, 1, 1]]))


def test_pluecker_embed_hand_checked():
    W = subspace_from_rows(F2, [(1, 0, 0, 1), (0, 1, 0, 1)])
    pt = pluecker_embed(W)
    assert pt.coords == (1, 0, 1, 0, 1, 0)
    assert str(pt) == "(1 : 0 : 1 : 0 : 1 : 0)"


@st.composite
def wide_matrices(draw):
    """(p, d x c matrix) for d <= c <= 7, with entries that need not be
    reduced mod p, and never a reduced echelon matrix."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    c = draw(st.integers(1, 7))
    d = draw(st.integers(1, c))
    rows = draw(st.lists(
        st.lists(st.integers(-p, 2 * p), min_size=c, max_size=c), min_size=d, max_size=d))
    a = np.array(rows, dtype=np.int64)
    assume(not np.array_equal(_rref(a, p)[0], a % p))
    return p, rows


@PROPERTY
@given(wide_matrices())
def test_maximal_minors_match_determinants(drawn):
    # the maximal minors as pluecker_embed takes them, on constant entries
    p, rows = drawn
    field = PrimeField(p)
    a = np.array(rows, dtype=np.int64)
    d, c = a.shape
    expected = [
        MatrixFp(field, a[:, list(S)]).det() for S in itertools.combinations(range(c), d)
    ]
    minor = _minors([[{0: x % p} if x % p else {} for x in row] for row in rows], p)
    got = [minor(tuple(range(d)), S).get(0, 0) for S in itertools.combinations(range(c), d)]
    assert got == expected
    # and bottom up over the column subsets, on a stack of one matrix
    assert _maximal_minors(a[None] % p, p).tolist() == [expected]
    # independent rows span a d-plane, whose point is those minors up to
    # the scale that its echelon basis divides out
    if any(expected):
        W = subspace_from_rows(field, rows)
        assert pluecker_embed(W) == PlueckerPoint(field, c, d, tuple(expected))


# every Grassmannian with p <= 7, c <= 6 and at most 2,000 subspaces: 64 of
# them, 10,601 subspaces, c = 1 and d = c among them
SMALL_GRASSMANNIANS = [
    (p, c, d) for p in (2, 3, 5, 7) for c in range(1, 7) for d in range(1, c + 1)
    if gaussian_binomial(c, d, p) <= 2000
]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_enumeration_matches_a_plain_reenumeration(p):
    # pivot pattern, then the free entries in product order, one matrix at
    # a time; each basis is fixed by _rref, and each point is the
    # determinants of its column submatrices, by elimination
    field = PrimeField(p)
    grids = [(c, d) for q, c, d in SMALL_GRASSMANNIANS if q == p]
    assert (1, 1) in grids and (4, 4) in grids
    for c, d in grids:
        want = []
        for piv in itertools.combinations(range(c), d):
            free = [(r, j) for r in range(d) for j in range(piv[r] + 1, c) if j not in piv]
            for values in itertools.product(range(p), repeat=len(free)):
                a = [[int(j == piv[r]) for j in range(c)] for r in range(d)]
                for (r, j), v in zip(free, values):
                    a[r][j] = v
                want.append(a)
        subspaces = enumerate_subspaces(field, c, d)
        assert [W.basis.tolist() for W in subspaces] == want
        for W in subspaces:
            a = W.basis.array
            assert np.array_equal(_rref(a, p)[0], a)
            dets = [MatrixFp(field, a[:, list(S)]).det() for S in itertools.combinations(range(c), d)]
            assert pluecker_embed(W) == PlueckerPoint(field, c, d, tuple(dets))


@st.composite
def near_echelon_matrices(draw):
    """(p, d x c matrix of reduced entries) for d <= c <= 6: any matrix, or
    a full-rank reduced echelon matrix, or one with a single defect: a lead
    that is not 1, a nonzero entry above a lead, a zero row or two rows
    whose leads decrease."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    c = draw(st.integers(1, 6))
    d = draw(st.integers(1, c))
    kind = draw(st.sampled_from(["any", "echelon", "lead", "above", "zero row", "decreasing"]))
    if kind == "any":
        rows = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=c, max_size=c), min_size=d, max_size=d))
        return p, np.array(rows, dtype=np.int64)
    leads = sorted(draw(st.sets(st.integers(0, c - 1), min_size=d, max_size=d)))
    a = np.zeros((d, c), dtype=np.int64)
    for r, j in enumerate(leads):
        a[r, j] = 1
        for k in range(j + 1, c):
            if k not in leads:
                a[r, k] = draw(st.integers(0, p - 1))
    r = draw(st.integers(0, d - 1))
    if kind == "lead":
        assume(p > 2)
        a[r, leads[r]] = draw(st.integers(2, p - 1))
    elif kind == "above":
        assume(r > 0)
        a[draw(st.integers(0, r - 1)), leads[r]] = draw(st.integers(1, p - 1))
    elif kind == "zero row":
        a[r] = 0
    elif kind == "decreasing":
        assume(r > 0)
        a[[r - 1, r]] = a[[r, r - 1]]
    return p, a


@PROPERTY
@given(near_echelon_matrices())
def test_subspace_refuses_exactly_what_rref_refuses(drawn):
    # the stacked check behind every Subspace against _rref
    p, a = drawn
    field = PrimeField(p)
    d, c = a.shape
    red, piv = _rref(a, p)
    if np.array_equal(red, a) and len(piv) == d:
        assert Subspace(field, c, d, MatrixFp(field, a)).basis.tolist() == a.tolist()
    else:
        with pytest.raises(ValueError, match="full-rank reduced echelon matrix"):
            Subspace(field, c, d, MatrixFp(field, a))


def test_pluecker_embed_of_an_equal_subspace_is_an_equal_point():
    for W in enumerate_subspaces(F3, 4, 2):
        pt = pluecker_embed(W)
        # the same plane from another basis: the rows summed and scaled
        r1, r2 = W.rows()
        twin = subspace_from_rows(F3, [
            [(x + y) % 3 for x, y in zip(r1, r2)],
            [2 * y % 3 for y in r2],
        ])
        assert twin == W and twin is not W
        assert pluecker_embed(twin) == pt


def test_enumerated_lists_are_the_callers_own():
    first = enumerate_subspaces(F2, 3, 2)
    kept = list(first)
    first.clear()
    second = enumerate_subspaces(F2, 3, 2)
    assert second == kept and len(second) == 7
    second.append(None)
    assert enumerate_subspaces(F2, 3, 2) == kept


def test_cap_is_checked_after_a_cached_enumeration(monkeypatch):
    assert len(enumerate_subspaces(F2, 4, 2)) == 35
    monkeypatch.setattr(grassmann, "DEFAULT_SUBSPACE_CAP", 34)
    with pytest.raises(SubspaceLimitError, match="35 subspaces"):
        enumerate_subspaces(F2, 4, 2)
    monkeypatch.setattr(grassmann, "DEFAULT_SUBSPACE_CAP", 35)
    assert len(enumerate_subspaces(F2, 4, 2)) == 35


def test_pluecker_embed_injective_on_grassmannian():
    subs = enumerate_subspaces(F2, 4, 2)
    images = {pluecker_embed(W).coords for W in subs}
    assert len(images) == len(subs) == 35


def test_pluecker_point_normalization():
    pt = PlueckerPoint(F3, 3, 1, (0, 2, 1))
    assert pt.coords == (0, 1, 2)
    with pytest.raises(ValueError):
        PlueckerPoint(F3, 3, 1, (0, 0, 0))
    with pytest.raises(ValueError):
        PlueckerPoint(F3, 3, 1, (1, 0))


def test_pluecker_point_refuses_non_integer_coordinates():
    with pytest.raises(ValueError, match="integer"):
        PlueckerPoint(F3, 3, 1, (1.5, 0, 0))
    assert PlueckerPoint(F3, 3, 1, (np.int64(2), True, 10**26)).coords == (1, 2, 2)


def test_pluecker_relations_shapes():
    r24 = pluecker_ring(F2, 4, 2)
    rels = pluecker_relations(r24, 4, 2)
    assert [str(g) for g in rels] == ["p_14*p_23 + p_13*p_24 + p_12*p_34"]
    r25 = pluecker_ring(F2, 5, 2)
    assert len(pluecker_relations(r25, 5, 2)) == 5
    # projective spaces have no relations
    assert pluecker_relations(pluecker_ring(F3, 3, 1), 3, 1) == []
    assert pluecker_relations(pluecker_ring(F3, 3, 3), 3, 3) == []


def test_pluecker_relations_vanish_on_embedded_points():
    ring = pluecker_ring(F2, 4, 2)
    rels = pluecker_relations(ring, 4, 2)
    for W in enumerate_subspaces(F2, 4, 2):
        pt = pluecker_embed(W)
        for g in rels:
            assert g.evaluate(pt.coords) == 0


def test_incidence_ring_layout():
    ring = incidence_ring(F2, 3, 2)
    assert ring.names == ("p_12", "p_13", "p_23", "x1", "x2", "x3")
    # the incidence ideal is born in the order that eliminates the points
    assert ring.order == MonomialOrder.block(["x1", "x2", "x3"])
    # each chart's memoised relations are the wedge relations with x_i = 1;
    # the Pluecker relations are free of the points, so every chart shares
    # them (G_2(k^4) has one, G_2(k^3) none)
    for field, c, d, relations in [(F2, 3, 2, 0), (F3, 4, 2, 1), (F2, 4, 1, 0)]:
        ring, pluecker, wedge, charts = grassmann._incidence_relations(field, c, d)
        npl = len(pluecker_ring(field, c, d).names)
        assert ring == incidence_ring(field, c, d)
        assert grassmann._incidence_relations(field, c, d)[0] is incidence_ring(field, c, d)
        assert len(pluecker) == relations and len(charts) == c
        for i, chart in enumerate(charts):
            assert chart == tuple(grassmann._set_to_one(g, npl + i) for g in wedge)
            assert all(grassmann._set_to_one(g, npl + i) == g for g in pluecker)


def test_chart_relabelling_matches_the_incidence_copy_with_xi_one(catalog):
    # each chart takes Z's generators straight from Z's ring, with a_(i+1)
    # = 1, to the same polynomials as copying them into the incidence ring
    # and then setting x_(i+1) = 1
    cat = catalog[(2, 3)]
    for M, N in itertools.product(cat.values(), repeat=2):
        gens = pair_variety_ideal(M, N).gb.gens
        for d in (1, 2, 3):
            ring = incidence_ring(F2, 3, d)
            npl = len(pluecker_ring(F2, 3, d).names)
            copies = [g.map_to(ring, range(npl, npl + 3)) for g in gens]
            for i in range(3):
                index_map = [None if j == i else npl + j for j in range(3)]
                assert [g._relabelled(ring, index_map) for g in gens] == [
                    grassmann._set_to_one(g, npl + i) for g in copies]


def test_incidence_ideal_vanishes_on_true_pairs():
    # Z = the line through e1; pairs (W, u) with u in both W and Z satisfy
    # every generator of the incidence ideal
    ring = coordinate_ring(F2, 3)
    Z = _lines(ring, [ring.var(1), ring.var(2)])
    inc = incidence_ideal(Z, 2)
    u = (1, 0, 0)
    for W in enumerate_subspaces(F2, 3, 2):
        pt = pluecker_embed(W)
        point = pt.coords + u
        values = [g.evaluate(point) for g in inc.gens]
        contains_e1 = W.rows()[0] == (1, 0, 0) or any(
            r == (1, 0, 0) for r in W.rows()
        )
        # u lies in W exactly when reducing u against the basis leaves zero
        stacked = MatrixFp(F2, list(W.rows()) + [list(u)])
        in_W = stacked.rank() == 2
        if in_W:
            assert all(v == 0 for v in values)
        else:
            assert any(v != 0 for v in values)


def test_project_incidence_line_case():
    ring = coordinate_ring(F2, 3)
    Z = _lines(ring, [ring.var(1), ring.var(2)])
    V1 = project_incidence(Z, 1)
    assert str(V1.gb) == "ideal(p_2, p_3)"
    assert variety_dim_projective(V1) == 0
    assert len(subspaces_on_variety(V1)) == 1
    V2 = project_incidence(Z, 2)
    assert str(V2.gb) == "ideal(p_23)"
    assert variety_dim_projective(V2) == 1
    assert len(subspaces_on_variety(V2)) == 3


def test_project_incidence_extreme_inputs():
    ring = coordinate_ring(F2, 3)
    full = project_incidence(_lines(ring, []), 2)
    assert full.is_full()
    assert variety_dim_projective(full) == 2
    empty = project_incidence(_lines(ring, [ring.one]), 1)
    assert empty.is_empty()
    assert variety_dim_projective(empty) == -1


def test_project_incidence_union_case():
    # two coordinate axes: a plane meets the union iff it contains e1 or e2
    ring = coordinate_ring(F2, 3)
    Z = _lines(ring, [ring.var(0) * ring.var(1), ring.var(2)])
    V = project_incidence(Z, 2)
    assert str(V.gb) == "ideal(p_13*p_23)"
    assert len(subspaces_on_variety(V)) == 5


# (p, generators of Z, d, reduced basis of the projection, rational W on it)
PROJECTION_CASES = [
    (2, "a2,a3", 1, "ideal(p_2, p_3)", 1),
    (2, "a2,a3", 2, "ideal(p_23)", 3),
    (2, "a1*a2,a3", 1, "ideal(p_1*p_2, p_3)", 2),
    (2, "a1*a2,a3", 2, "ideal(p_13*p_23)", 5),
    (3, "a1+a2", 1, "ideal(p_1 + p_2)", 4),
    (3, "a1+a2", 2, "ideal(0)", 13),
    (3, "", 1, "ideal(0)", 13),
    (3, "", 2, "ideal(0)", 13),
]


@pytest.mark.parametrize(
    "p, gens, d, basis, count",
    PROJECTION_CASES,
    ids=[f"F{p}-({gens})-d{d}" for p, gens, d, _, _ in PROJECTION_CASES],
)
def test_projection_matches_brute_force(p, gens, d, basis, count):
    field = PrimeField(p)
    ring = coordinate_ring(field, 3)
    a1, a2, a3 = ring.gens()
    named = {"a2,a3": [a2, a3], "a1*a2,a3": [a1 * a2, a3], "a1+a2": [a1 + a2], "": []}
    Z = _lines(ring, named[gens])
    V = project_incidence(Z, d)
    assert str(V.gb) == basis
    # brute force: the rational W that contain a nonzero rational point of Z
    points = [
        u
        for u in itertools.product(range(p), repeat=3)
        if any(u) and all(g.evaluate(list(u)) == 0 for g in Z.gb.gens)
    ]
    expected = {
        W
        for W in enumerate_subspaces(field, 3, d)
        if any(MatrixFp(field, W.rows() + [u]).rank() == d for u in points)
    }
    found = subspaces_on_variety(V)
    assert set(found) == expected
    assert len(found) == count


def test_project_incidence_rejects_bad_dimension():
    ring = coordinate_ring(F2, 3)
    Z = _lines(ring, [ring.var(1)])
    with pytest.raises(ValueError):
        project_incidence(Z, 0)
    with pytest.raises(ValueError):
        project_incidence(Z, 4)


def test_project_incidence_rejects_non_cones(cold_memos):
    # the chart identity behind the projection holds only for cones
    ring = coordinate_ring(F2, 3)
    a1, a2, a3 = ring.gens()
    Z = _lines(ring, [a1 * a2 + a3, a1 + a2 + 1])
    for d in (1, 2, 3):
        with pytest.raises(ValueError, match="must define a cone"):
            project_incidence(Z, d)
    assert grassmann._project_incidence.cache_info().currsize == 0
    # constants are homogeneous: the zero and unit ideals stay accepted
    assert project_incidence(_lines(ring, []), 2).is_full()
    assert project_incidence(_lines(ring, [ring.one]), 2).is_empty()


def test_projection_memo_is_shared_by_equal_bases(cold_memos):
    ring = coordinate_ring(F2, 3)
    a1, a2, a3 = ring.gens()
    Z = _lines(ring, [a2, a3])
    twin = VarietyIdeal1(ring, ideal(ring, [a2, a3, a2 + a3]), Z.gb)
    assert twin.raw != Z.raw and twin.gb == Z.gb
    assert project_incidence(twin, 2) is project_incidence(Z, 2)


def test_projection_memo_keeps_bases_byte_identical(cold_memos):
    cones = []
    for field in (F2, F3):
        ring = coordinate_ring(field, 3)
        a1, a2, a3 = ring.gens()
        cones += [_lines(ring, [a1 * a2, a3]), _lines(ring, [a1 + a2]), _lines(ring, [])]
    inputs = [(Z, d) for Z in cones for d in (1, 2, 3)]
    warm = [project_incidence(Z, d) for Z, d in inputs]
    assert all(project_incidence(Z, d) is V for (Z, d), V in zip(inputs, warm))
    # the unmemoised route, so a memo that mixes up keys cannot agree with it
    cold = [grassmann._project_incidence.__wrapped__(Z.gb, d) for Z, d in inputs]
    assert [str(V.gb) for V in warm] == [str(V.gb) for V in cold]


def test_projection_memo_keeps_no_failures(cold_memos):
    ring = coordinate_ring(F2, 4)
    a1, a2, a3, a4 = ring.gens()
    Z = _lines(ring, [a1 * a2, a3])
    with groebner_budget(1), pytest.raises(GroebnerBudgetError):
        project_incidence(Z, 2)
    # the failed call keeps only the d = 1 answer it completed on the way,
    # which a later call reads with no Groebner work
    assert grassmann._project_incidence.cache_info().currsize == 1
    with groebner_budget(0):
        project_incidence(Z, 1)
    assert grassmann._project_incidence.cache_info().currsize == 1
    V = project_incidence(Z, 2)
    # a hit does no Groebner work, so it fits in any budget
    with groebner_budget(1):
        assert project_incidence(Z, 2) is V


def test_rank_pair_and_projection_memos_hold_256_entries():
    for memo in (poly._reduced_groebner, rank_variety_ideal, grassmann._project_incidence,
                 grassmann._union_components):
        assert memo.cache_info().maxsize == 256
    # the memos of the membership scans: the rational points of each
    # reduced basis, one entry per Grassmannian and per prime
    assert grassmann._rational_lines.cache_info().maxsize == 64
    assert grassmann._subspaces.cache_info().maxsize == 16
    assert poly._logs.cache_info().maxsize == 32


def test_cold_memos_empties_the_scan_memos(cold_memos):
    for memo in (grassmann._rational_lines, poly._logs):
        assert memo.cache_info().currsize == 0


def test_each_groebner_call_has_its_own_default_budget(monkeypatch, cold_memos):
    # the projection spends 10 reductions in all and at most 8 in any one
    # Groebner call, so one pool of 8 shared by every call would run out
    monkeypatch.setattr(poly, "DEFAULT_PAIR_BUDGET", 8)
    ring = coordinate_ring(F2, 4)
    a1, a2, a3, a4 = ring.gens()
    V = project_incidence(_lines(ring, [a1 * a2, a3]), 2)
    assert str(V.gb) == (
        "ideal(p_13^2*p_24 + p_12*p_13*p_34, p_13*p_23, p_14*p_23 + p_13*p_24 + p_12*p_34)"
    )


def test_grassmannian_dimension_from_full_ideal():
    ring = coordinate_ring(F2, 4)
    V = project_incidence(_lines(ring, []), 2)
    # G(2, 4) is the Pluecker quadric, projective dimension 4
    assert radical_equal(
        V.gb, ideal(V.ring, pluecker_relations(V.ring, 4, 2))
    )
    assert variety_dim_projective(V) == 4


def _dimension_by_subsets(G):
    """The dimension read off G's leading monomials by trying every variable
    subset, largest first, for one that contains no leading support."""
    if G.is_unit_ideal():
        return -1
    n = G.ring.nvars
    supports = [{i for i, e in enumerate(g.lm()) if e} for g in G.gens]
    return next(size for size in range(n, -1, -1) for S in itertools.combinations(range(n), size)
                if not any(s <= set(S) for s in supports))


@PROPERTY
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=12))))
def test_basis_dimension_matches_the_subset_loop(drawn):
    # any set of monomials is a Groebner basis of the ideal they generate
    n, supports = drawn
    ring = PolyRing(F2, [f"y{i}" for i in range(n)])
    G = ideal(ring, [ring.from_dict({tuple(int(i in s) for i in range(n)): 1}) for s in supports])
    assert poly._basis_dimension(G) == _dimension_by_subsets(G)


def _subspace_equations(ring, W):
    """The linear forms vanishing on W, one per non-pivot column of its
    reduced echelon basis."""
    x, p = ring.gens(), W.field.p
    piv = [row.index(next(a for a in row if a)) for row in W.rows()]
    forms = []
    for f in (j for j in range(W.c) if j not in piv):
        v = {f: 1, **{pj: -row[f] % p for row, pj in zip(W.rows(), piv)}}
        forms.append(sum((x[j] * a for j, a in v.items()), ring.zero))
    return forms


def test_basis_dimension_matches_the_subset_loop_on_catalog_and_cones(catalog):
    # every catalog pair's rank and higher ideals, and seeded unions of
    # subspaces of k^4 over F_2 and F_3 with their projections, as the
    # benchmark's projection workload draws them
    bases = []
    for (p, c), cat in catalog.items():
        for M, N in itertools.product(cat.values(), repeat=2):
            bases.append(pair_variety_ideal(M, N).gb)
            bases += [higher_variety_ideal(M, N, d).gb for d in range(1, c + 1)]
    rng = random.Random(11)
    for field in (F2, F3):
        ring = coordinate_ring(field, 4)
        for shape in [(1,), (2,), (3,), (1, 1), (1, 2), (1, 3), (2, 3), (2, 2), (1, 1, 1)]:
            products = [ring.one]
            for r in shape:
                eqs = _subspace_equations(ring, rng.choice(enumerate_subspaces(field, 4, r)))
                products = [f * g for f in products for g in eqs]
            Z = _lines(ring, products)
            bases.append(Z.gb)
            bases += [project_incidence(Z, d).gb for d in range(1, 5)]
    assert len(bases) == 64 * (3 + 3 + 4) + 2 * 9 * 5
    for G in bases:
        assert poly._basis_dimension(G) == _dimension_by_subsets(G)


def test_higher_variety_ideal_and_membership(catalog):
    cat = catalog[(2, 3)]
    M = cat["R/x1"]
    V = higher_variety_ideal(M, M, 2)
    members = subspaces_on_variety(V)
    # planes meeting the line through e1, i.e. planes containing e1
    assert len(members) == 3
    for W in enumerate_subspaces(F2, 3, 2):
        expected = W in members
        assert point_on_variety(V, pluecker_embed(W)) is expected


def test_oracle_membership_agreement(catalog):
    cat = catalog[(2, 3)]
    M, N = cat["R/x1"], cat["R/x1+R/x2"]
    pair = pair_variety_ideal(M, N)
    for d in (1, 2):
        V = higher_variety_ideal(M, N, d)
        for W in enumerate_subspaces(F2, 3, d):
            geo, hom = oracle_membership(M, N, d, W, pair_ideal=pair)
            member = point_on_variety(V, pluecker_embed(W))
            assert geo == hom == member, (d, W.rows())


def test_oracle_homological_flag_matches_restriction_and_the_cover_memo(catalog):
    # every catalog pair over each context, every proper subspace: each
    # (module, W) cover is built once, on its first lookup, and every later
    # lookup hits; then the oracle's flag, from memoised covers, equals
    # Ext's eventual vanishing on the restricted KEModules
    memo = homology._restricted_cover
    for (p, c), cat in catalog.items():
        memo.cache_clear()
        field = PrimeField(p)
        flags, lookups = {}, []
        for d in range(1, c):
            for W in enumerate_subspaces(field, c, d):
                for M, N in itertools.product(cat.values(), repeat=2):
                    flags[M, N, W] = oracle_membership(M, N, d, W)[1]
                    # no cover is asked for when p^d does not divide h
                    if M.n * N.n % p**d == 0:
                        lookups += [(M, W), (N, W)]
        info = memo.cache_info()
        assert info.misses == info.currsize == len(set(lookups)) > 0, (p, c)
        assert info.hits == len(lookups) - info.misses > 0, (p, c)
        for (M, N, W), homological in flags.items():
            MW, NW = (restrict_to_subspace(X, W.rows()) for X in (M, N))
            assert homological == (not ext_eventually_zero(MW, NW)), (p, c, W.rows())


def test_oracle_on_the_whole_space_is_ext_eventually_zero_and_shares_its_covers(catalog):
    # at d = c the one subspace is k^c, whose echelon basis is the identity
    # ext_eventually_zero restricts to, so both read the same memo entries:
    # one miss per module, on its first lookup, and hits after that
    memo = homology._restricted_cover
    for (p, c), cat in catalog.items():
        memo.cache_clear()
        (W,) = enumerate_subspaces(PrimeField(p), c, c)
        seen = set()
        for M, N in itertools.product(cat.values(), repeat=2):
            if M.n * N.n % p**c:
                assert oracle_membership(M, N, c, W)[1] == (not ext_eventually_zero(M, N))
                continue
            before = memo.cache_info()
            homological = oracle_membership(M, N, c, W)[1]
            middle = memo.cache_info()
            assert homological == (not ext_eventually_zero(M, N)), (p, c)
            after = memo.cache_info()
            new = {M, N} - seen
            seen |= new
            assert middle.misses - before.misses == len(new), (p, c)
            assert after.misses == middle.misses and after.hits - middle.hits == 2, (p, c)
        assert memo.cache_info().currsize == len(seen) > 0, (p, c)


def test_restricted_cover_is_shared_read_only(catalog):
    M = catalog[(2, 3)]["R/x1+R/x2"]
    W = subspace_from_rows(F2, [(1, 1, 0), (0, 0, 1)])
    cover = homology._restricted_cover(M, W.basis)
    assert homology._restricted_cover(M, W.basis) is cover
    MW = restrict_to_subspace(M, W.rows())
    expected = _product_cover([a.array for a in MW.actions], range(M.n), 2)
    assert np.array_equal(cover, expected)
    with pytest.raises(ValueError):
        cover[0, 0] = 1


def test_oracle_refuses_or_decides_before_any_cover(monkeypatch, catalog):
    # trivial actions on k^64 over (2,3): restricted to a line, the PHom
    # matrix of the 4096-dimensional Hom space has 4096^2 cells, over the cap,
    # and the refusal reads as ext_eventually_zero's
    k = catalog[(2, 3)]["k"]
    memo = homology._restricted_cover
    memo.cache_clear()
    line = subspace_from_rows(F2, [(1, 0, 0)])
    big = KEModule(F2, 3, 64, (MatrixFp.zeros(F2, 64, 64),) * 3)
    with pytest.raises(SyzygyLimitError) as refused:
        oracle_membership(big, big, 1, line, pair_ideal=pair_variety_ideal(k, k))
    assert str(refused.value) == (
        "PHom matrix of a dimension-4096 Hom space and its covers need 16777216 "
        "cells, over the cap of 10000000"
    )
    assert memo.cache_info().currsize == 0
    # on k^55 the odd h = 3025 decides the answer with no cover, whatever
    # the cap
    odd = KEModule(F2, 3, 55, (MatrixFp.zeros(F2, 55, 55),) * 3)
    monkeypatch.setattr(homology, "DEFAULT_CELL_CAP", 0)
    assert oracle_membership(odd, odd, 1, line, pair_ideal=pair_variety_ideal(k, k)) == (True, True)
    assert memo.cache_info().currsize == 0


def test_oracle_geometric_route_is_sound(catalog):
    # a rational point of the order-one variety inside W forces the
    # Pluecker point of W onto the order-d ideal
    for (p, c), cat in catalog.items():
        field = PrimeField(p)
        for name in ("R/x1", "R/(x1+x2)"):
            M, N = cat[name], cat["k"]
            for d in range(1, c + 1):
                V = higher_variety_ideal(M, N, d)
                for W in enumerate_subspaces(field, c, d):
                    geo, _ = oracle_membership(M, N, d, W)
                    if geo:
                        assert point_on_variety(V, pluecker_embed(W))


def test_oracle_membership_known_answers(catalog):
    cat = catalog[(2, 3)]
    M = cat["R/x1"]
    k = cat["k"]
    on = subspace_from_rows(F2, [(1, 0, 0)])
    off = subspace_from_rows(F2, [(0, 1, 0)])
    assert oracle_membership(M, k, 1, on) == (True, True)
    assert oracle_membership(M, k, 1, off) == (False, False)
    # restricting kE/(x1) to span(x2, x3) leaves a free module
    plane = subspace_from_rows(F2, [(0, 1, 0), (0, 0, 1)])
    assert oracle_membership(M, k, 2, plane) == (False, False)
    through = subspace_from_rows(F2, [(1, 0, 0), (0, 1, 0)])
    assert oracle_membership(M, k, 2, through) == (True, True)
    with pytest.raises(ValueError):
        oracle_membership(M, M, 2, on)


def test_oracle_membership_rejects_a_mismatched_target(catalog):
    # a given pair ideal does not excuse a target over another p or c
    M, k = catalog[(2, 3)]["R/x1"], catalog[(2, 3)]["k"]
    on = subspace_from_rows(F2, [(1, 0, 0)])
    pair = pair_variety_ideal(M, k)
    for other in (catalog[(3, 2)]["k"], catalog[(2, 2)]["k"]):
        with pytest.raises(ValueError, match="same p and c"):
            oracle_membership(M, other, 1, on, pair_ideal=pair)


def test_oracle_membership_rejects_another_prime_field(catalog):
    # the F_3 line through (1, 2) read mod 2 is the F_2 line through (1, 0),
    # which lies on the variety of kE/(x1): the answer would be for that line
    cat = catalog[(2, 2)]
    M, k = cat["R/x1"], cat["k"]
    W = subspace_from_rows(F3, [[1, 2]])
    with pytest.raises(ValueError, match="subspace over F_3, modules over F_2"):
        oracle_membership(M, k, 1, W)


def test_point_on_variety_rejects_another_prime_field(catalog):
    cat = catalog[(2, 2)]
    V = higher_variety_ideal(cat["R/x1"], cat["k"], 1)
    pt = pluecker_embed(subspace_from_rows(F3, [[1, 2]]))
    with pytest.raises(ValueError, match="point over F_3, variety over F_2"):
        point_on_variety(V, pt)


def test_point_on_variety_rejects_another_grassmannian():
    # G_1(k^4) and G_3(k^4) both have four Pluecker coordinates, so the
    # count alone cannot tell their points apart
    ring = coordinate_ring(F2, 4)
    a1, a2, a3, a4 = ring.gens()
    V = project_incidence(_lines(ring, [a1, a3, a4]), 3)
    with pytest.raises(ValueError, match=r"point of G_1\(k\^4\), variety in G_3\(k\^4\)"):
        point_on_variety(V, PlueckerPoint(F2, 4, 1, (1, 0, 0, 0)))
    # p_123 = 1 is span(e1, e2, e3), which contains the line through e2
    assert point_on_variety(V, PlueckerPoint(F2, 4, 3, (1, 0, 0, 0))) is True
    with pytest.raises(ValueError, match="variety in G_3"):
        point_on_variety(V, pluecker_embed(subspace_from_rows(F2, [(0, 1, 0, 0, 0)])))


# --- the chart route by adjoining x_i - 1 ------------------------------------


def _project_by_adjoining(gb, d):
    """Reference projection: each chart adjoins x_i - 1 to the incidence
    ideal, and every non-unit chart enters an unconditional chain of
    intersections."""
    c = gb.ring.nvars
    inc = incidence_ideal(VarietyIdeal1(gb.ring, gb, gb), d)
    ring = inc.ring
    x_names = [f"x{i + 1}" for i in range(c)]
    small = pluecker_ring(gb.ring.field, c, d)
    factors = []
    for name in x_names:
        part = eliminate(ideal(ring, inc.gens + (ring.var(name) - 1,)), x_names)
        if not part.is_unit_ideal():
            factors.append(part)
    if not factors:
        return Ideal(small, (small.one,))
    result = factors[0]
    for part in factors[1:]:
        result = ideal_intersect(result, part)
    return result


def _random_equations(rng, field, c, r):
    """c - r independent random linear forms over field, as coefficient
    rows: the equations of a random r-dimensional subspace of k^c."""
    while True:
        forms = [[rng.randrange(field.p) for _ in range(c)] for _ in range(c - r)]
        if MatrixFp(field, forms).rank() == c - r:
            return forms


def _cone_of_components(field, c, components):
    """Reduced basis of the cone of a union of subspaces, each given by its
    equations: the product of their ideals."""
    ring = coordinate_ring(field, c)
    gens = ring.gens()
    products = [ring.one]
    for forms in components:
        eqs = [sum((gens[i] * a for i, a in enumerate(f) if a), ring.zero) for f in forms]
        products = [f * g for f in products for g in eqs]
    return _lines(ring, products)


def _union_of_subspaces(rng, field, c, dims):
    """Reduced basis of the cone of a union of random rational subspaces of
    the given dimensions: the product of their ideals of linear equations."""
    return _cone_of_components(field, c, [_random_equations(rng, field, c, r) for r in dims])


def _subspace_times_m(rng, field, c, r):
    """Reduced basis of I(L) m for a random r-dimensional rational subspace L
    of k^c and m = (a1, .., ac): the cone L, given by quadrics, whose
    saturation Z : m^oo is I(L)."""
    origin = [[int(i == j) for j in range(c)] for i in range(c)]
    return _cone_of_components(field, c, [_random_equations(rng, field, c, r), origin])


THREE_LINES = (
    "a1^3; a1^2*a2; a1*a2^2; a1^2*a3; a1*a2*a3; a2^2*a3 + 2*a3^3; a1*a3^2; "
    "a2*a3^2 + 2*a3^3; a1^2*a4; a1*a2*a4; a2^2*a4; a1*a3*a4; a2*a3*a4; a3^2*a4; "
    "a1*a4^2; a2*a4^2; a3*a4^2"
)


def _counting_intersections(monkeypatch):
    calls = []

    def counted(I, J):
        calls.append((I, J))
        return ideal_intersect(I, J)

    monkeypatch.setattr(grassmann, "ideal_intersect", counted)
    return calls


def test_projection_matches_the_adjoining_route(monkeypatch):
    rng = random.Random("projection reference")
    cones = []
    for field in (F2, F3):
        for dims in [(1,), (2,), (3,), (1, 1), (1, 2), (2, 2)]:
            cones.append(_union_of_subspaces(rng, field, 4, dims))
    for Z in cones:
        for d in (1, 2, 3):
            V = grassmann._project_incidence.__wrapped__(Z.gb, d)
            ref = _project_by_adjoining(Z.gb, d)
            assert V.gb.ring == ref.ring
            assert V.gb.gens == ref.gens, (str(Z.gb), d)
            assert str(V.gb) == str(ref)
    # with the unions, linear ones among them, sent to the charts as well,
    # the containment test settles every chain of chart projections, and
    # the saturation at d = 1 (which never proposes a union) every chain of
    # its parts
    calls = _counting_intersections(monkeypatch)
    monkeypatch.setattr(grassmann, "_union_components", lambda gb: None)
    for Z in cones:
        for d in (1, 2, 3):
            V = grassmann._project_incidence.__wrapped__(Z.gb, d)
            assert V.gb.gens == _project_by_adjoining(Z.gb, d).gens, (str(Z.gb), d)
    assert calls == []


def test_three_lines_keep_one_proper_intersection(monkeypatch, cold_memos):
    ring = coordinate_ring(F3, 4)
    Z = _lines(ring, [parse_polynomial(ring, g) for g in THREE_LINES.split(";")])
    # the lines through e2, e2 + e3 and e4, given by their reduced basis
    assert str(Z.gb) == f"ideal({THREE_LINES.replace(';', ',')})"
    calls = _counting_intersections(monkeypatch)
    spans = []
    proposed = grassmann._rational_spans
    monkeypatch.setattr(grassmann, "_rational_spans", lambda V: spans.append(V) or proposed(V))
    counts, proposals = [], []
    for d in (1, 2, 3):
        del calls[:], spans[:]
        V = project_incidence(Z, d)
        counts.append(len(calls))
        proposals.append(len(spans))
        ref = _project_by_adjoining(Z.gb, d)
        assert V.gb.gens == ref.gens and str(V.gb) == str(ref)
        if d == 1:
            assert str(V.gb) == "ideal(p_2*p_3 + 2*p_3^2, p_2*p_4, p_3*p_4, p_1)"
            # the dimension is read off the reduced basis V holds
            with groebner_budget(0):
                assert variety_dim_projective(V) == 0
    # one proper intersection of the saturation's parts at d = 1; at d = 2
    # the saturation is memoised and is the lines' intersection, so two
    # fold the lines' ideals and two their Schubert ideals; at d = 3 the
    # lines are memoised as well, and only the Schubert ideals are folded
    assert counts == [1, 4, 2]
    assert proposals == [0, 1, 0]
    # the charts, with the union answer out of the way, keep one proper
    # intersection at d = 2 and 3 as well
    monkeypatch.setattr(grassmann, "_union_components", lambda gb: None)
    for d in (2, 3):
        del calls[:]
        V = grassmann._project_incidence.__wrapped__(Z.gb, d)
        assert len(calls) == 1
        assert V.gb.gens == _project_by_adjoining(Z.gb, d).gens


def test_projection_with_unit_charts_matches_the_adjoining_route():
    # the line through e1: every chart but x1 = 1 is the unit ideal; the
    # origin alone and the unit ideal, where every chart would be, are
    # answered from dim Z
    ring = coordinate_ring(F3, 4)
    a1, a2, a3, a4 = ring.gens()
    for gens in ([a2, a3, a4], [a1, a2, a3, a4], [ring.one], [a2 * a3, a4]):
        Z = _lines(ring, gens)
        for d in (1, 2, 3, 4):
            V = grassmann._project_incidence.__wrapped__(Z.gb, d)
            ref = _project_by_adjoining(Z.gb, d)
            assert V.gb.gens == ref.gens and str(V.gb) == str(ref)


# --- answers decided by dim Z -------------------------------------------------

# the component dimensions of the benchmark's projection cones
CONE_SHAPES = ((1,), (2,), (3,), (1, 1), (1, 2), (1, 3), (2, 3)) * 2 + ((2, 2), (1, 1, 1))
FIVE_SHAPES = {F2: [(1,), (2,), (3,), (4,), (1, 1), (1, 3), (2, 2), (2, 3)], F3: [(2,), (3,), (1, 2)]}


@pytest.fixture(scope="module")
def cones_at_every_d(catalog):
    """(Z's reduced basis, d) at every d, for the variety of every catalog
    pair, a cone of each CONE_SHAPES shape over F_2 and F_3 at c = 4, and
    unions of subspaces at c = 5."""
    bases = {pair_variety_ideal(M, N).gb for cat in catalog.values()
             for M, N in itertools.product(cat.values(), repeat=2)}
    rng = random.Random("early answers")
    for field in (F2, F3):
        bases |= {_union_of_subspaces(rng, field, 4, dims).gb for dims in CONE_SHAPES}
        bases |= {_union_of_subspaces(rng, field, 5, dims).gb for dims in FIVE_SHAPES[field]}
    return [(gb, d) for gb in sorted(bases, key=str) for d in range(1, gb.ring.nvars + 1)]


def _counting_eliminations(monkeypatch):
    eliminations = []
    chart = grassmann.eliminate
    monkeypatch.setattr(grassmann, "eliminate", lambda I, drop: eliminations.append(I) or chart(I, drop))
    return eliminations


def _maximal_subspaces_on(S):
    """The rational subspaces of k^c of dimension 1 to c - 1 whose rational
    points all lie on V(S), for S an ideal of k[p_1..p_c], that no other
    such subspace contains: a scan of every subspace, sharing nothing with
    grassmann._rational_spans."""
    field, c = S.ring.field, S.ring.nvars
    on = {}
    for k in range(1, c):
        for W in enumerate_subspaces(field, c, k):
            rows = W.rows()
            coefficients = (ts for ts in itertools.product(range(field.p), repeat=k) if any(ts))
            vectors = [[sum(t * r[i] for t, r in zip(ts, rows)) for i in range(c)] for ts in coefficients]
            points = {PlueckerPoint(field, c, 1, v).coords for v in vectors}
            if all(g.evaluate(v) == 0 for v in points for g in S.gens):
                on[W] = points
    return [W for W, points in on.items() if not any(points < other for other in on.values())]


def _is_reduced_union(gb):
    """Whether I(Z) : m^oo, the d = 1 answer, is the intersection of the
    ideals of the maximal rational subspaces on its zero set, at least one
    of them: the theorem behind project_incidence's fourth answer."""
    S = grassmann._project_incidence(gb, 1).gb
    components = _maximal_subspaces_on(S)
    if not components:
        return False
    union = buchberger_reduced(ideal(S.ring, _subspace_equations(S.ring, components[0])))
    for W in components[1:]:
        union = ideal_intersect(union, buchberger_reduced(ideal(S.ring, _subspace_equations(S.ring, W))))
    return union.gens == S.gens


def test_projection_decided_by_dim_z_matches_the_adjoining_route(monkeypatch, cones_at_every_d):
    # z <= 0, z + d > c, at d = 1 any Z (by the saturation Z : m^oo) and
    # at d >= 2 a Z whose saturation is linear or the intersection of the
    # ideals of several rational subspaces are answered with no
    # elimination, and each gives the basis the charts give; every other Z
    # goes through the charts, z + d = c among them
    eliminations = _counting_eliminations(monkeypatch)
    regimes = set()
    for gb, d in cones_at_every_d:
        c, z = gb.ring.nvars, poly._basis_dimension(gb)
        del eliminations[:]
        V = grassmann._project_incidence.__wrapped__(gb, d)
        ref = _project_by_adjoining(gb, d)
        assert V.gb.gens == ref.gens and str(V.gb) == str(ref), (str(gb), d)
        S = grassmann._project_incidence(gb, 1).gb
        regime = ("empty" if z <= 0 else "all" if z + d > c else "saturation" if d == 1
                  else "linear" if _linear_equations(S) is not None else "union" if _is_reduced_union(gb)
                  else "boundary" if z + d == c else "charts")
        early = regime in ("empty", "all", "linear", "saturation", "union")
        assert early == (not eliminations), (str(gb), d)
        if regime == "all":
            assert V.gb.gens == grassmann._grassmannian(gb.ring.field, c, d).gens
        regimes.add(regime)
    assert set(regimes) == {"empty", "all", "linear", "saturation", "union", "boundary", "charts"}


def test_planes_meeting_a_plane_of_k4_go_through_the_charts(monkeypatch):
    # z + d = c: not every plane meets span(e1, e2), and the Pluecker
    # quadric alone would say they do; a plane is linear, so its Schubert
    # ideal answers with no chart
    ring = coordinate_ring(F2, 4)
    a1, a2, a3, a4 = ring.gens()
    eliminations = _counting_eliminations(monkeypatch)
    V = grassmann._project_incidence.__wrapped__(_lines(ring, [a3, a4]).gb, 2)
    assert str(V.gb) == "ideal(p_14*p_23 + p_13*p_24, p_34)"
    assert variety_dim_projective(V) == 3
    assert eliminations == []
    # the union of span(e1, e2) and span(e3, e4) is not linear, but its
    # ideal is the intersection of the planes' ideals, so the folded
    # Schubert ideals answer with no chart: the planes meeting either
    Z = _lines(ring, [a1 * a3, a1 * a4, a2 * a3, a2 * a4])
    V = grassmann._project_incidence.__wrapped__(Z.gb, 2)
    assert eliminations == []
    assert V.gb.gens == _project_by_adjoining(Z.gb, 2).gens
    assert str(V.gb) == "ideal(p_14*p_23 + p_13*p_24, p_12*p_34)"
    assert variety_dim_projective(V) == 3
    # a cone that is not a reduced union of rational subspaces goes through
    # the charts: the F_3 conic a1^2 + a2 a3 = 0 in the plane a4 = 0, whose
    # four rational points span no line on it, and the doubled line through
    # e4, one subspace
    conic = coordinate_ring(F3, 4)
    b1, b2, b3, b4 = conic.gens()
    for Z, want, dim in [
        (_lines(conic, [b1 * b1 + b2 * b3, b4]),
         "ideal(p_13^2*p_24^2 + p_12*p_13*p_24*p_34 + p_23^2*p_24*p_34 + p_12^2*p_34^2, "
         "p_13*p_14*p_24 + 2*p_12*p_14*p_34 + p_23*p_24*p_34, p_14^2 + p_24*p_34, "
         "p_14*p_23 + 2*p_13*p_24 + p_12*p_34)", 3),
        (_lines(ring, [a1 * a1, a2, a3]), "ideal(p_12^2, p_12*p_13, p_13^2, p_13*p_24 + p_12*p_34, p_23)", 2),
    ]:
        del eliminations[:]
        V = grassmann._project_incidence.__wrapped__(Z.gb, 2)
        assert len(eliminations) == 4
        assert V.gb.gens == _project_by_adjoining(Z.gb, 2).gens
        assert str(V.gb) == want
        assert variety_dim_projective(V) == dim


def test_a_doubled_line_keeps_the_charts_answer(monkeypatch):
    # Z = I(L1)^2 I(L2) for the lines L1, L2 through e1 and e2: the union
    # answer proposes the two lines, of dimension dim Z, but Z : m^oo is not
    # radical, so it is not the intersection of the lines' ideals and the
    # answer is the charts'; that differs from the folded closed form, which
    # a union answer without the equality check would return
    L1 = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    L2 = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    eliminations = _counting_eliminations(monkeypatch)
    for field in (F2, F3):
        Z = _cone_of_components(field, 4, [L1, L1, L2])
        V1 = grassmann._project_incidence(Z.gb, 1)
        assert grassmann._rational_spans(V1) == [[(1, 0, 0, 0)], [(0, 1, 0, 0)]]
        assert poly._basis_dimension(V1.gb) == 1
        for d in (2, 3):
            del eliminations[:]
            V = grassmann._project_incidence.__wrapped__(Z.gb, d)
            assert len(eliminations) == 4
            assert V.gb.gens == _project_by_adjoining(Z.gb, d).gens, (field.p, d)
            closed = ideal_intersect(_schubert_ideal(field, L1, 4, d), _schubert_ideal(field, L2, 4, d))
            assert radical_equal(V.gb, closed) and V.gb.gens != closed.gens
        assert str(V.gb) == "ideal(p_134*p_234^2)"


# --- lines: the saturation Z : m^oo -------------------------------------------


def test_a_cone_that_is_not_saturated_gives_its_saturation(monkeypatch):
    # Z = (a2, a3)(a1, a3), the lines through e1 and e2, holds a3^2: so
    # Z : a3^oo is the unit ideal, and Z itself is not the answer either
    eliminations = _counting_eliminations(monkeypatch)
    for field in (F2, F3):
        ring = coordinate_ring(field, 3)
        a1, a2, a3 = ring.gens()
        Z = _lines(ring, [a2 * a1, a2 * a3, a3 * a1, a3 * a3])
        assert str(Z.gb) == "ideal(a1*a2, a1*a3, a2*a3, a3^2)"
        V = grassmann._project_incidence.__wrapped__(Z.gb, 1)
        assert str(V.gb) == "ideal(p_1*p_2, p_3)"
        assert eliminations == []
        assert V.gb.gens == _project_by_adjoining(Z.gb, 1).gens


def test_unions_of_lines_in_k4_take_the_saturation_with_no_chart(monkeypatch):
    # the product of the ideals of two or three lines is in general not
    # saturated
    eliminations = _counting_eliminations(monkeypatch)
    for field in (F2, F3):
        rng = random.Random(f"saturation {field.p}")
        for dims in [(1, 1), (1, 1, 1)] * 3:
            Z = _union_of_subspaces(rng, field, 4, dims)
            del eliminations[:]
            V = grassmann._project_incidence.__wrapped__(Z.gb, 1)
            assert eliminations == []
            ref = _project_by_adjoining(Z.gb, 1)
            assert V.gb.gens == ref.gens and str(V.gb) == str(ref), str(Z.gb)


@st.composite
def products_of_forms(draw):
    """A reduced basis in k[a1..ac] for c = 3 or 4 over F_2 or F_3 of one to
    three generators, each a product of one to three nonzero drawn linear
    forms."""
    p = draw(st.sampled_from([2, 3]))
    c = draw(st.sampled_from([3, 4]))
    ring = coordinate_ring(PrimeField(p), c)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        g = ring.one
        # a nonzero form is a nonzero integer below p^c, read in base p
        for code in draw(st.lists(st.integers(1, p**c - 1), min_size=1, max_size=3)):
            g = g * sum((v * (code // p**i % p) for i, v in enumerate(ring.gens())), ring.zero)
        gens.append(g)
    return _lines(ring, gens).gb


@PROPERTY
@given(products_of_forms())
def test_drawn_products_of_forms_match_the_adjoining_route_at_d1(gb):
    V = grassmann._project_incidence.__wrapped__(gb, 1)
    ref = _project_by_adjoining(gb, 1)
    assert V.gb.gens == ref.gens and str(V.gb) == str(ref), str(gb)


def test_a_lex_cone_gives_the_grevlex_cones_basis():
    # the d = 1 answer is I : m^oo in the grevlex Pluecker ring, so a lex
    # basis of Z is taken to grevlex first; at d >= 2 the Schubert answer
    # reads that saturation, linear or not, and the charts read only Z's
    # generators
    cases = []
    for field in (F2, F3):
        ring = coordinate_ring(field, 3)
        a1, a2, a3 = ring.gens()
        cases.append(_lines(ring, [a1 * a2, a1 * a3, a2 * a3, a3 * a3]))
        rng = random.Random(f"lex cones {field.p}")
        cases += [_union_of_subspaces(rng, field, 4, dims) for dims in [(1,), (1, 1), (1, 2), (2, 2), (1, 1, 1)]]
        cases += [_union_of_subspaces(rng, field, 4, (2,)), _subspace_times_m(rng, field, 4, 2)]
    other_bases = 0
    for Z in cases:
        lex = PolyRing(Z.ring.field, Z.ring.names, MonomialOrder.lex())
        raw = ideal(lex, [g.map_to(lex, range(Z.c)) for g in Z.gb.gens])
        Z_lex = VarietyIdeal1(lex, raw, buchberger_reduced(raw))
        other_bases += str(Z_lex.gb) != str(Z.gb)
        for d in range(1, Z.c + 1):
            want = grassmann._project_incidence.__wrapped__(Z.gb, d).gb
            got = grassmann._project_incidence.__wrapped__(Z_lex.gb, d).gb
            assert got.gens == want.gens and str(got) == str(want), (str(Z_lex.gb), d)
    # most of these cones have another reduced basis under lex
    assert other_bases == 10


def test_projection_dimension_is_the_incidence_count(cones_at_every_d):
    # Kleiman's count: for z >= 1 the d-planes meeting Z have dimension
    # min(d(c - d), z - 1 + (d - 1)(c - d)); for z <= 0 there are none
    for gb, d in cones_at_every_d:
        c, z = gb.ring.nvars, poly._basis_dimension(gb)
        V = project_incidence(VarietyIdeal1(gb.ring, gb, gb), d)
        want = -1 if z <= 0 else min(d * (c - d), z - 1 + (d - 1) * (c - d))
        assert variety_dim_projective(V) == want, (str(gb), d)


def test_grassmannian_basis_is_built_once_per_field_c_and_d():
    assert grassmann._grassmannian.cache_info().maxsize == 16
    G = grassmann._grassmannian(F3, 5, 2)
    assert grassmann._grassmannian(F3, 5, 2) is G
    small = pluecker_ring(F3, 5, 2)
    assert G.gens == buchberger_reduced(ideal(small, pluecker_relations(small, 5, 2))).gens
    # d = 1, c - 1 and c have no Pluecker relations
    assert all(grassmann._grassmannian(F2, 4, d).is_zero_ideal() for d in (1, 3, 4))


# --- Schubert ideals in closed form -------------------------------------------


def _schubert_ideal(field, forms, c, d):
    """Reduced basis of the d-planes of k^c meeting V(forms) away from 0, for
    independent linear forms l_1..l_s given as coefficient rows (Hodge).

    W meets V(forms) away from 0 iff the d x s matrix (l_j(w_i)) has rank
    below d.  By Cauchy-Binet its minor on the forms T is the linear form
    q_T = sum_S det(l_T[:, S]) p_S, so the q_T and the Pluecker relations cut
    the locus out: s < d leaves no q_T and gives G_d.  s = c leaves only the
    origin, which no plane meets away from 0: the unit ideal, where the q_T
    would give the irrelevant ideal.  Shares only buchberger_reduced and
    pluecker_relations with project_incidence.
    """
    small = pluecker_ring(field, c, d)
    if len(forms) == c:
        return Ideal(small, (small.one,))
    subsets = list(itertools.combinations(range(c), d))
    q = [
        sum((p_S * MatrixFp(field, [[forms[t][j] for j in S] for t in T]).det()
             for p_S, S in zip(small.gens(), subsets)), small.zero)
        for T in itertools.combinations(range(len(forms)), d)
    ]
    return buchberger_reduced(ideal(small, [*q, *pluecker_relations(small, c, d)]))


def _linear_equations(gb):
    """The coefficient rows of a reduced basis of linear forms, or None when
    some element is not a linear form."""
    if any(g.total_degree() != 1 or not g.is_homogeneous() for g in gb.gens):
        return None
    rows = []
    for g in gb.gens:
        row = [0] * gb.ring.nvars
        for e, a in g.terms:
            row[e.index(1)] = a
        rows.append(row)
    return rows


def test_linear_catalog_varieties_match_the_closed_form(catalog):
    # every catalog pair whose variety is a subspace, at every d: the
    # projection's reduced basis is the closed form's
    cases = 0
    for (p, c), cat in catalog.items():
        for M, N in itertools.product(cat.values(), repeat=2):
            Z = pair_variety_ideal(M, N)
            forms = _linear_equations(Z.gb)
            if forms is None:
                continue
            for d in range(1, c + 1):
                V = project_incidence(Z, d)
                assert V.gb.gens == _schubert_ideal(Z.ring.field, forms, c, d).gens, (str(Z.gb), d)
                cases += 1
    assert cases == 104


@pytest.mark.parametrize("p, c, d", [(2, 5, 2), (3, 5, 2), (2, 5, 3), (2, 6, 3)])
def test_seeded_subspaces_match_the_closed_form(p, c, d):
    # every number of equations, from all of k^c (none) to the origin (c),
    # across s < d (G_d), d <= s < c (the charts) and s = c (empty)
    field = PrimeField(p)
    rng = random.Random(f"schubert {p} {c} {d}")
    for r in range(c, -1, -1):
        forms = _random_equations(rng, field, c, r) if r < c else []
        Z = _cone_of_components(field, c, [forms])
        assert len(_linear_equations(Z.gb)) == c - r
        V = project_incidence(Z, d)
        assert V.gb.gens == _schubert_ideal(field, forms, c, d).gens, (str(Z.gb), d)


@pytest.mark.parametrize("p, c, d", [(2, 5, 2), (3, 5, 2), (2, 5, 3), (2, 6, 3)])
def test_seeded_subspaces_take_the_schubert_ideal_with_no_chart(monkeypatch, p, c, d):
    # every number of equations that dim Z leaves to the charts, d <= s < c:
    # the Schubert ideal runs no elimination and gives the charts' basis
    field = PrimeField(p)
    rng = random.Random(f"schubert fast path {p} {c} {d}")
    eliminations = _counting_eliminations(monkeypatch)
    for s in range(d, c):
        Z = _cone_of_components(field, c, [_random_equations(rng, field, c, c - s)])
        assert len(_linear_equations(Z.gb)) == s
        V = grassmann._project_incidence.__wrapped__(Z.gb, d)
        assert eliminations == []
        ref = _project_by_adjoining(Z.gb, d)
        assert V.gb.gens == ref.gens and str(V.gb) == str(ref), (str(Z.gb), d)


@pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
def test_a_linear_saturation_takes_the_schubert_ideal_with_no_chart(monkeypatch, field):
    # Z = I(L) m for seeded planes L of k^4 is not linear, but its
    # saturation is I(L), one component: at d = 2 and 3 the Schubert ideal
    # of L runs no elimination and gives the charts' basis
    rng = random.Random(f"linear saturations {field.p}")
    eliminations = _counting_eliminations(monkeypatch)
    for _ in range(3):
        Z = _subspace_times_m(rng, field, 4, 2)
        assert _linear_equations(Z.gb) is None
        for d in (2, 3):
            del eliminations[:]
            V = grassmann._project_incidence.__wrapped__(Z.gb, d)
            assert eliminations == []
            ref = _project_by_adjoining(Z.gb, d)
            assert V.gb.gens == ref.gens and str(V.gb) == str(ref), (str(Z.gb), d)


def test_the_cap_sends_a_union_but_no_linear_saturation_to_the_charts(monkeypatch, cold_memos):
    # below the 15 lines of F_2^4 the union answer cannot scan them: two
    # lines take the charts and give the same basis, while I(L) m needs no
    # scan, as its saturation is linear, and answers with no chart
    rng = random.Random("union cap")
    lines, plane = _union_of_subspaces(rng, F2, 4, (1, 1)), _subspace_times_m(rng, F2, 4, 2)
    want = {(Z, d): _project_by_adjoining(Z.gb, d).gens for Z in (lines, plane) for d in (2, 3)}
    eliminations = _counting_eliminations(monkeypatch)
    spans = []
    proposed = grassmann._rational_spans
    monkeypatch.setattr(grassmann, "_rational_spans", lambda V: spans.append(V) or proposed(V))
    monkeypatch.setattr(grassmann, "DEFAULT_SUBSPACE_CAP", gaussian_binomial(4, 1, 2) - 1)
    for (Z, d), gens in want.items():
        del eliminations[:]
        assert grassmann._project_incidence.__wrapped__(Z.gb, d).gb.gens == gens, (str(Z.gb), d)
        assert len(eliminations) == (4 if Z is lines else 0), (str(Z.gb), d)
    assert spans == []
    # the cap is read when the decomposition is memoised: at the default,
    # the lines are a union, scanned once, with no chart either
    grassmann._union_components.cache_clear()
    monkeypatch.setattr(grassmann, "DEFAULT_SUBSPACE_CAP", 10_000)
    for d in (2, 3):
        del eliminations[:]
        assert grassmann._project_incidence.__wrapped__(lines.gb, d).gb.gens == want[lines, d]
        assert eliminations == []
    assert len(spans) == 1


def test_unions_of_subspaces_are_radical_equal_to_the_closed_forms():
    # a union of subspaces meets W iff a component does, so the closed
    # forms' intersection has the projection's radical; equality of the
    # bases fails only where the product ideal is not radical
    identical = 0
    for field in (F2, F3):
        rng = random.Random(f"schubert unions {field.p}")
        for dims in CONE_SHAPES:
            components = [_random_equations(rng, field, 4, r) for r in dims]
            Z = _cone_of_components(field, 4, components)
            for d in range(1, 5):
                V = project_incidence(Z, d)
                closed = [_schubert_ideal(field, forms, 4, d) for forms in components]
                union = closed[0]
                for J in closed[1:]:
                    union = ideal_intersect(union, J)
                assert radical_equal(V.gb, union), (str(Z.gb), d)
                identical += V.gb.gens == union.gens
    # and the bases are identical in 122 of the 128 cases
    assert identical == 122


@st.composite
def unions_in_k3(draw):
    """(field, components) over F_2 or F_3: one to three rational subspaces
    of k^3, each given by 0 to 3 independent linear equations."""
    p = draw(st.sampled_from([2, 3]))
    field = PrimeField(p)
    components = []
    for _ in range(draw(st.integers(1, 3))):
        # a nonzero form is a nonzero integer below p^3, read in base p
        codes = draw(st.lists(st.integers(1, p**3 - 1), max_size=3))
        forms = [[code // p**i % p for i in range(3)] for code in codes]
        assume(not forms or MatrixFp(field, forms).rank() == len(forms))
        components.append(forms)
    return field, components


@PROPERTY
@given(unions_in_k3())
def test_drawn_unions_in_k3_are_radical_equal_to_the_closed_forms(drawn):
    # at every d, with the origin (3 equations) and all of k^3 (none) among
    # the components
    field, components = drawn
    Z = _cone_of_components(field, 3, components)
    for d in (1, 2, 3):
        V = project_incidence(Z, d)
        closed = [_schubert_ideal(field, forms, 3, d) for forms in components]
        union = closed[0]
        for J in closed[1:]:
            union = ideal_intersect(union, J)
        assert radical_equal(V.gb, union), (str(Z.gb), d)


# --- membership read from one scan of the Grassmannian ------------------------


def _pointwise(V, pt):
    """Whether every basis element of V vanishes at pt, one evaluation each."""
    return all(g.evaluate(pt.coords) == 0 for g in V.gb.gens)


def _scanned(V):
    """A copy of V with no scan kept on it, so the next query scans."""
    return VarietyIdealD(V.ring, V.c, V.d, V.gb)


def test_scanned_membership_is_pointwise_evaluation(cones_at_every_d):
    # every rational point at every d, for the variety of every catalog
    # pair and of every CONE_SHAPES cone over F_2 and F_3 at c = 4 (and the
    # fixture's unions at c = 5); subspaces_on_variety reads the same mask
    scanned = 0
    for gb, d in cones_at_every_d:
        V = _scanned(project_incidence(VarietyIdeal1(gb.ring, gb, gb), d))
        subs = enumerate_subspaces(gb.ring.field, V.c, d)
        want = [_pointwise(V, pluecker_embed(W)) for W in subs]
        assert [point_on_variety(V, pluecker_embed(W)) for W in subs] == want, (str(gb), d)
        assert V._scan is not None
        assert subspaces_on_variety(V) == list(itertools.compress(subs, want))
        scanned += len(subs)
    assert scanned > 10_000


def test_scanned_membership_off_the_grassmannian_and_of_the_full_and_empty_varieties():
    ring = pluecker_ring(F2, 4, 2)
    p12, p13, p14, p23, p24, p34 = ring.gens()
    # p12 p34 + p13 p24 + p14 p23 = 1 here, so no plane has this point
    off = PlueckerPoint(F2, 4, 2, (1, 0, 0, 0, 0, 1))
    assert off.coords not in grassmann._subspaces(F2, 4, 2).row
    a1, a2, a3, a4 = coordinate_ring(F2, 4).gens()
    varieties = {
        "full": VarietyIdealD(ring, 4, 2, Ideal(ring, ())),
        "empty": VarietyIdealD(ring, 4, 2, Ideal(ring, (ring.one,))),
        "G_2(k^4)": project_incidence(_lines(a1.ring, []), 2),
        "Schubert": project_incidence(_lines(a1.ring, [a1, a2]), 2),
        # not cut by the Pluecker quadric, so it holds the point off G_2
        "no quadric": VarietyIdealD(ring, 4, 2, buchberger_reduced(ideal(ring, [p13, p24 + p14]))),
    }
    points = [pluecker_embed(W) for W in enumerate_subspaces(F2, 4, 2)] + [off]
    for name, V in varieties.items():
        V = _scanned(V)
        assert [point_on_variety(V, pt) for pt in points] == [_pointwise(V, pt) for pt in points], name
    answers = {name: point_on_variety(V, off) for name, V in varieties.items()}
    assert answers == {"full": True, "empty": False, "G_2(k^4)": False, "Schubert": False,
                       "no quadric": True}
    assert varieties["full"].is_full() and varieties["empty"].is_empty()
    assert subspaces_on_variety(_scanned(varieties["full"])) == enumerate_subspaces(F2, 4, 2)
    assert subspaces_on_variety(_scanned(varieties["empty"])) == []


def test_scanned_membership_evaluates_each_point_alone_above_the_cap(monkeypatch):
    # with the cap below the Grassmannian's size no mask is built: each
    # query is one kernel call on a stack of one row, with the same answers
    rng = random.Random("one-row membership")
    rows = []
    vanishing = grassmann._vanishing
    for field in (F2, F3):
        Z = _union_of_subspaces(rng, field, 4, (1, 2))
        for d in (1, 2, 3):
            V = project_incidence(Z, d)
            subs = enumerate_subspaces(field, 4, d)
            want = [_pointwise(V, pluecker_embed(W)) for W in subs]
            monkeypatch.setattr(grassmann, "DEFAULT_SUBSPACE_CAP", len(subs) - 1)
            monkeypatch.setattr(grassmann, "_vanishing", lambda gens, pts: rows.append(len(pts)) or vanishing(gens, pts))
            V = _scanned(V)
            assert [point_on_variety(V, pluecker_embed(W)) for W in subs] == want, (field.p, d)
            assert V._scan is None and rows == [1] * len(subs)
            with pytest.raises(SubspaceLimitError):
                subspaces_on_variety(V)
            monkeypatch.undo()
            rows.clear()


def test_oracle_membership_refuses_a_pair_ideal_that_does_not_fit(monkeypatch, catalog):
    # a given pair ideal over another field, in another number of variables
    # or that is not a cone is refused before any answer, by the line scan
    # or, with the cap below the three lines of F_2^2, on W's points
    M, k = catalog[(2, 2)]["R/x2"], catalog[(2, 2)]["k"]
    W = subspace_from_rows(F2, [(1, 0)])
    assert oracle_membership(M, k, 1, W) == (False, False)
    over_f3 = pair_variety_ideal(catalog[(3, 2)]["R/x2"], catalog[(3, 2)]["k"])
    with pytest.raises(ValueError, match="pair ideal over F_3, modules over F_2"):
        oracle_membership(M, k, 1, W, pair_ideal=over_f3)
    in_three = pair_variety_ideal(catalog[(2, 3)]["R/x2"], catalog[(2, 3)]["k"])
    with pytest.raises(ValueError, match="pair ideal in 3 variables, modules over c = 2"):
        oracle_membership(M, k, 1, W, pair_ideal=in_three)
    ring = coordinate_ring(F2, 2)
    a1, a2 = ring.gens()
    # neither basis is homogeneous, so neither zero set is a cone
    for cap in (grassmann.DEFAULT_SUBSPACE_CAP, 2):
        monkeypatch.setattr(grassmann, "DEFAULT_SUBSPACE_CAP", cap)
        for Z in (_lines(ring, [a1 + a2 * a2]), _lines(ring, [a1 * a2 + a1 + 1])):
            with pytest.raises(ValueError, match="must define a cone"):
                oracle_membership(M, k, 1, W, pair_ideal=Z)


def test_pairs_with_one_variety_share_one_line_scan(catalog, cold_memos):
    # (R/x1, k) and (k, R/x1) are two pair ideals with one reduced basis,
    # the line through e1: the second oracle query reads the first's scan
    M, k = catalog[(2, 3)]["R/x1"], catalog[(2, 3)]["k"]
    A, B = pair_variety_ideal(M, k), pair_variety_ideal(k, M)
    assert A is not B and A.gb == B.gb
    W = subspace_from_rows(F2, [(1, 0, 0)])
    assert oracle_membership(M, k, 1, W) == oracle_membership(k, M, 1, W) == (True, True)
    info = grassmann._rational_lines.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert grassmann._rational_lines(A.gb) == {(1, 0, 0)}


def test_oracle_geometric_flag_is_pointwise_evaluation_on_w(monkeypatch, catalog, cold_memos):
    # the flag against one evaluate per basis element at every nonzero
    # point of W, scaled or not: W meets the two lines of R/x1 + R/x2 or
    # does not.  With the cap, the flag reads the pair ideal's line scan;
    # with the cap just below the lines of k^c, no scan is made and the
    # kernel evaluates W's scaled points, for every W of smaller
    # dimension, and W = k^c is refused
    seen = set()
    for (p, c), cat in catalog.items():
        field = PrimeField(p)
        M, N = cat["R/x1+R/x2"], cat["k"]
        pair = pair_variety_ideal(M, N)
        subs = [W for d in range(1, c) for W in enumerate_subspaces(field, c, d)]
        want = []
        for W in subs:
            points = [[sum(t * r[i] for t, r in zip(coeffs, W.rows())) % p for i in range(c)]
                      for coeffs in itertools.product(range(p), repeat=W.d) if any(coeffs)]
            want.append(any(all(g.evaluate(u) == 0 for g in pair.gb.gens) for u in points))
        seen |= set(want)
        kc = enumerate_subspaces(field, c, c)[0]
        for cap in (grassmann.DEFAULT_SUBSPACE_CAP, gaussian_binomial(c, 1, p) - 1):
            grassmann._rational_lines.cache_clear()
            monkeypatch.setattr(grassmann, "DEFAULT_SUBSPACE_CAP", cap)
            assert [oracle_membership(M, N, W.d, W, pair_ideal=pair)[0] for W in subs] == want, (p, c, cap)
            scans = grassmann._rational_lines.cache_info().currsize
            if cap < gaussian_binomial(c, 1, p):
                assert scans == 0
                with pytest.raises(SubspaceLimitError, match=f"subspaces of dimension 1 in F_{p}\\^{c}, over the cap"):
                    oracle_membership(M, N, c, kc, pair_ideal=pair)
            else:
                assert scans == 1
            monkeypatch.undo()
    assert seen == {True, False}
