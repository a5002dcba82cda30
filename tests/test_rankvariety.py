import itertools
from functools import reduce
from math import comb

import pytest

from grassvar import grassmann, poly, rankvariety
from grassvar.errors import GroebnerBudgetError, MinorLimitError, SubspaceLimitError
from grassvar.fp import PrimeField
from grassvar.modules import (
    direct_sum,
    dual,
    is_free_over_line,
    quotient_by_linear_forms,
    regular_module,
    zero_module,
)
from grassvar.homology import syzygy_step
from grassvar.poly import groebner_budget, ideal, ideal_intersect, radical_contains, radical_equal
from grassvar.rankvariety import (
    MAX_MINORS,
    VarietyIdeal1,
    coordinate_ring,
    pair_variety_ideal,
    point_in_rank_variety,
    rank_variety_ideal,
    rational_points,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F7 = PrimeField(7)


def test_frozen_ideals_p2_c2(catalog):
    cat = catalog[(2, 2)]
    expect = {
        "k": "ideal(0)",
        "kE": "ideal(a1^2, a1*a2, a2^2)",
        "R/x1": "ideal(a2)",
        "R/x2": "ideal(a1)",
        "R/(x1+x2)": "ideal(a1 + a2)",
        "R/x1+R/x2": "ideal(a1*a2)",
        "Om(k)": "ideal(0)",
        "dual(R/x1)": "ideal(a2)",
    }
    for name, M in cat.items():
        assert str(rank_variety_ideal(M).gb) == expect[name], name


def test_frozen_ideals_p3_c2(catalog):
    cat = catalog[(3, 2)]
    assert str(rank_variety_ideal(cat["R/x1"]).gb) == "ideal(a2^2)"
    assert str(rank_variety_ideal(cat["R/(x1+x2)"]).gb) == "ideal(a1^2 + a1*a2 + a2^2)"
    assert str(rank_variety_ideal(cat["R/x1+R/x2"]).gb) == "ideal(a1^2*a2^2)"
    kE = rank_variety_ideal(cat["kE"])
    # the nilpotent origin, cut out by all degree-6 monomials
    assert str(kE.gb) == (
        "ideal(a1^6, a1^5*a2, a1^4*a2^2, a1^3*a2^3, a1^2*a2^4, a1*a2^5, a2^6)"
    )


def test_rational_points_match_freeness_test(catalog):
    # a point lies in the variety exactly when the module fails to be free
    # over the corresponding cyclic shifted subalgebra
    for (p, c), cat in catalog.items():
        field = PrimeField(p)
        for name, M in cat.items():
            V = rank_variety_ideal(M)
            expected = []
            for a in itertools.product(range(p), repeat=c):
                if all(v == 0 for v in a):
                    continue
                lead = next(i for i, v in enumerate(a) if v)
                if a[lead] != 1:
                    continue
                if not is_free_over_line(M, a):
                    expected.append(a)
            assert rational_points(V) == sorted(expected), (p, c, name)


def test_rank_variety_memo_is_shared_by_equal_modules():
    M = quotient_by_linear_forms(F3, 2, [(1, 2)])
    twin = quotient_by_linear_forms(F3, 2, [(1, 2)])
    assert M == twin and M is not twin
    assert rank_variety_ideal(twin) is rank_variety_ideal(M)


def test_rank_variety_memo_keeps_no_failures(cold_memos):
    M = quotient_by_linear_forms(F2, 3, [(1, 1, 0)])
    with groebner_budget(1), pytest.raises(GroebnerBudgetError):
        rank_variety_ideal(M)
    assert rank_variety_ideal.cache_info().currsize == 0
    V = rank_variety_ideal(M)
    assert str(V.gb) == "ideal(a1^2 + a2^2, a1*a3 + a2*a3, a3^2)"
    # a hit does no Groebner work, so it fits in any budget
    with groebner_budget(1):
        assert rank_variety_ideal(M) is V


def test_pair_memo_is_shared_by_equal_pairs_in_order(cold_memos):
    M = quotient_by_linear_forms(F2, 2, [(1, 0)])
    twin = quotient_by_linear_forms(F2, 2, [(1, 0)])
    N = quotient_by_linear_forms(F2, 2, [(0, 1)])
    assert pair_variety_ideal(twin, N).gb is pair_variety_ideal(M, N).gb
    # the reduced-basis memo does not see the order of the generators
    assert pair_variety_ideal(N, M).gb is pair_variety_ideal(M, N).gb
    vm, vn = rank_variety_ideal(M), rank_variety_ideal(N)
    assert vm.raw.gens != vn.raw.gens
    assert pair_variety_ideal(M, N).raw.gens == vm.raw.gens + vn.raw.gens
    assert pair_variety_ideal(N, M).raw.gens == vn.raw.gens + vm.raw.gens


def test_pair_memo_keeps_no_failures(cold_memos):
    M = quotient_by_linear_forms(F3, 2, [(0, 1)])
    N = quotient_by_linear_forms(F3, 2, [(1, 1)])
    rank_variety_ideal(M)
    rank_variety_ideal(N)
    stored = poly._reduced_groebner.cache_info().currsize
    # the rank varieties are stored, so only the pair's own basis runs out
    with groebner_budget(1), pytest.raises(GroebnerBudgetError):
        pair_variety_ideal(M, N)
    assert poly._reduced_groebner.cache_info().currsize == stored
    V = pair_variety_ideal(M, N)
    assert str(V.gb) == "ideal(a2^3, a1^2, a1*a2 + a2^2)"
    with groebner_budget(1):
        assert pair_variety_ideal(M, N).gb is V.gb


def test_point_membership_respects_scaling(catalog):
    M = catalog[(3, 2)]["R/(x1+x2)"]
    V = rank_variety_ideal(M)
    assert point_in_rank_variety(V, (1, 1))
    assert point_in_rank_variety(V, (2, 2))
    assert point_in_rank_variety(V, (0, 0))
    assert not point_in_rank_variety(V, (1, 0))
    with pytest.raises(ValueError):
        point_in_rank_variety(V, (1, 1, 1))


def test_point_membership_refuses_non_integer_coordinates(catalog):
    # (0.5, 1) once read as (0, 1), off the line of R/(x1+x2)
    V = rank_variety_ideal(catalog[(3, 2)]["R/(x1+x2)"])
    with pytest.raises(ValueError, match="integer"):
        point_in_rank_variety(V, (0.5, 1))
    assert point_in_rank_variety(V, (True, 10**26))


def test_rational_points_read_the_line_scan_under_the_subspace_cap(monkeypatch, catalog):
    # the four lines of F_3^2 are one scan, refused when the cap is below
    # four, as enumerate_subspaces refuses them, and the sorted points
    # otherwise
    V = rank_variety_ideal(catalog[(3, 2)]["R/x1+R/x2"])
    assert rational_points(V) == [(0, 1), (1, 0)]
    monkeypatch.setattr(grassmann, "DEFAULT_SUBSPACE_CAP", 3)
    with pytest.raises(SubspaceLimitError, match=r"^4 subspaces of dimension 1 in F_3\^2, over the cap 3$"):
        rational_points(V)
    monkeypatch.setattr(grassmann, "DEFAULT_SUBSPACE_CAP", 4)
    assert rational_points(VarietyIdeal1(V.ring, V.raw, V.gb)) == [(0, 1), (1, 0)]


def test_rational_points_refuse_a_variety_that_is_not_a_cone(f3):
    # (1, 1) lies on a1 = a2^2 but (1, 1) scaled by 2 does not: no line
    ring = coordinate_ring(f3, 2)
    a1, a2 = ring.gens()
    raw = ideal(ring, [a1 - a2 * a2])
    with pytest.raises(ValueError, match="must define a cone"):
        rational_points(VarietyIdeal1(ring, raw, raw))


def test_variety_of_free_module_is_origin():
    for field in (F2, F3):
        V = rank_variety_ideal(regular_module(field, 2))
        assert V.is_empty() is False
        assert rational_points(V) == []
        vars_ideal = ideal(V.ring, [V.ring.var(i) for i in range(2)])
        assert radical_equal(V.gb, vars_ideal)


def test_variety_of_zero_module_is_empty():
    V = rank_variety_ideal(zero_module(F2, 2))
    assert V.is_empty()
    assert rational_points(V) == []


def test_zero_module_ideal_is_its_own_reduced_basis(monkeypatch, cold_memos):
    # (1) is already reduced, so no Buchberger run is made for it
    monkeypatch.setattr(rankvariety, "buchberger_reduced", None)
    V = rank_variety_ideal(zero_module(F3, 3))
    assert V.gb is V.raw and V.gb.is_unit_ideal() and str(V.gb) == "ideal(1)"


def test_dimension_not_divisible_by_p_gives_whole_space():
    # a module of k-dimension coprime to p can never be free on a line, so
    # every nonzero point is in the variety and the ideal is zero
    M = quotient_by_linear_forms(F2, 2, [(1, 0)])
    N = direct_sum(M, quotient_by_linear_forms(F2, 2, [(1, 0), (0, 1)]))
    assert N.n == 3
    V = rank_variety_ideal(N)
    assert V.is_full()
    assert str(V.gb) == "ideal(0)"


def test_pair_variety_is_intersection(catalog):
    for (p, c) in [(2, 2), (3, 2)]:
        cat = catalog[(p, c)]
        names = ["R/x1", "R/x2", "R/(x1+x2)", "R/x1+R/x2", "k"]
        for a, b in itertools.combinations(names, 2):
            M, N = cat[a], cat[b]
            V = pair_variety_ideal(M, N)
            pm = set(rational_points(rank_variety_ideal(M)))
            pn = set(rational_points(rank_variety_ideal(N)))
            assert set(rational_points(V)) == pm & pn, (p, c, a, b)


def test_pair_variety_with_self_and_symmetry(catalog):
    cat = catalog[(2, 2)]
    M, N = cat["R/x1"], cat["R/x1+R/x2"]
    assert str(pair_variety_ideal(M, M).gb) == str(rank_variety_ideal(M).gb)
    assert str(pair_variety_ideal(M, N).gb) == str(pair_variety_ideal(N, M).gb)
    # pairing against k imposes no extra condition
    assert radical_equal(pair_variety_ideal(M, cat["k"]).gb, rank_variety_ideal(M).gb)


def _product(ideals):
    ring = ideals[0].ring
    return reduce(lambda I, J: ideal(ring, [f * g for f in I.gens for g in J.gens]), ideals)


def test_direct_sum_is_union(catalog):
    for (p, c) in [(2, 2), (3, 2)]:
        cat = catalog[(p, c)]
        M, N = cat["R/x1"], cat["R/x2"]
        V_sum = rank_variety_ideal(direct_sum(M, N))
        both = ideal_intersect(rank_variety_ideal(M).gb, rank_variety_ideal(N).gb)
        assert radical_equal(V_sum.gb, both)
    # three dimension-12 sums, where every module is under the cap:
    # V(M + N) = V(M) u V(N) is cut out by the product of the factor ideals
    q = quotient_by_linear_forms
    sums = [
        [q(F2, 3, [(1, 0, 0)]), q(F2, 3, [(0, 1, 0)]), q(F2, 3, [(1, 1, 0)])],
        [regular_module(F2, 2), regular_module(F2, 2), q(F2, 2, [(1, 0)]), q(F2, 2, [(0, 1)])],
        [q(F3, 2, [(1, 0)]), q(F3, 2, [(0, 1)]), q(F3, 2, [(1, 1)]), q(F3, 2, [(1, 2)])],
    ]
    for parts in sums:
        S = reduce(direct_sum, parts)
        assert S.n == 12
        factors = [rank_variety_ideal(P).gb for P in parts]
        assert radical_equal(rank_variety_ideal(S).gb, _product(factors)), S.p
    # kE + R/x1 over (2,3), the largest of these: 44,100 six-minors of a
    # 10 x 10 matrix, 324 of them nonzero
    parts = [catalog[(2, 3)]["kE"], catalog[(2, 3)]["R/x1"]]
    V = rank_variety_ideal(direct_sum(*parts))
    assert len(V.raw.gens) == 324
    assert radical_equal(V.gb, _product([rank_variety_ideal(P).gb for P in parts]))


def test_dimension_14_sum_takes_one_minor():
    # U(a)^6 has two independent rows, rad^6 of each summand, and two
    # independent columns, so one 2-minor
    M = direct_sum(quotient_by_linear_forms(F7, 2, [(1, 0)]), quotient_by_linear_forms(F7, 2, [(0, 1)]))
    assert M.n == 14
    V = rank_variety_ideal(M)
    assert len(V.raw.gens) == 1
    assert str(V.gb) == "ideal(a1^6*a2^6)"


def test_syzygy_invariance(catalog):
    for (p, c) in [(2, 2), (3, 2)]:
        cat = catalog[(p, c)]
        for name in ("R/x1", "R/(x1+x2)"):
            M = cat[name]
            omega = syzygy_step(M)[1]
            assert radical_equal(
                rank_variety_ideal(M).gb, rank_variety_ideal(omega).gb
            ), (p, c, name)


def test_dual_invariance(catalog):
    for (p, c), cat in catalog.items():
        for name in ("R/x1", "R/x1+R/x2", "kE"):
            M = cat[name]
            assert radical_equal(
                rank_variety_ideal(M).gb, rank_variety_ideal(dual(M)).gb
            ), (p, c, name)


def test_three_variable_line_quotient(catalog):
    M = catalog[(2, 3)]["R/(x1+x2)"]
    V = rank_variety_ideal(M)
    ring = V.ring
    plane = ideal(ring, [ring.var(0) + ring.var(1), ring.var(2)])
    assert radical_equal(V.gb, plane)
    assert rational_points(V) == [(1, 1, 0)]


def test_coordinate_ring_shape():
    ring = coordinate_ring(F3, 4)
    assert ring.names == ("a1", "a2", "a3", "a4")
    assert ring.field.p == 3


def test_rank_ideals_of_different_modules_share_one_ring(cold_memos):
    # one ring object per (p, c), so ideals that meet compare rings by identity
    M = quotient_by_linear_forms(F3, 2, [(1, 0)])
    N = quotient_by_linear_forms(F3, 2, [(1, 1)])
    assert M != N
    ring = rank_variety_ideal(M).ring
    assert rank_variety_ideal(N).ring is ring
    assert pair_variety_ideal(M, N).ring is ring
    assert coordinate_ring(PrimeField(3), 2) is ring
    assert coordinate_ring(F3, 3) is not ring


def test_pair_variety_rejects_mismatched_contexts():
    M2 = quotient_by_linear_forms(F2, 2, [(1, 0)])
    M3 = quotient_by_linear_forms(F3, 2, [(1, 0)])
    Mc = quotient_by_linear_forms(F2, 3, [(1, 0, 0)])
    with pytest.raises(ValueError):
        pair_variety_ideal(M2, M3)
    with pytest.raises(ValueError):
        pair_variety_ideal(M2, Mc)


def test_minor_limits_enforced():
    # kE over (2,4) has 15 independent rows (its radical) and 15 independent
    # columns (all but its socle): C(15, 8)^2 8-minors, over the cap
    with pytest.raises(MinorLimitError, match="41409225 8-minors of a 15x15 matrix"):
        rank_variety_ideal(regular_module(F2, 4))


def test_minor_cap_admits_every_module_the_former_caps_did():
    # the former caps took n <= 12 and minors of size n/p <= 6; a nonzero
    # module has at most dim rad^(p-1) M <= n - 1 independent rows and
    # n - dim soc M <= n - 1 independent columns, so it needs at most
    # C(n - 1, n/p)^2 minors
    admitted = [(n, p) for p in (2, 3, 5, 7, 11) for n in range(p, 13, p) if n // p <= 6]
    assert (12, 2) in admitted and (11, 11) in admitted
    assert max(comb(n - 1, n // p) ** 2 for n, p in admitted) == comb(11, 6) ** 2 == 213_444
    assert all(comb(n - 1, n // p) ** 2 <= MAX_MINORS for n, p in admitted)


def test_ideal_radical_containment_order_one(catalog):
    # V(M ⊕ N) contains both factors, so its ideal sits inside each factor ideal
    cat = catalog[(2, 3)]
    V_sum = rank_variety_ideal(cat["R/x1+R/x2"])
    for name in ("R/x1", "R/x2"):
        V = rank_variety_ideal(cat[name])
        assert radical_contains(V.gb, V_sum.gb)
