"""End-to-end acceptance checks for the whole package.

Each test covers one acceptance criterion, prints a single pass/fail line
(visible under ``pytest -s``), and enforces a wall-clock limit.  Expected
values are exact; ideal comparisons go through radical equality so that
different but equivalent generating sets compare as equal.
"""

import itertools
import json
import random
import time

import pytest

from grassvar.cli import parse_polynomial, run_command
from grassvar.fp import PrimeField
from grassvar.grassmann import (
    enumerate_subspaces,
    gaussian_binomial,
    higher_variety_ideal,
    oracle_membership,
    pluecker_embed,
    pluecker_relations,
    pluecker_ring,
    point_on_variety,
    variety_dim_projective,
)
from grassvar.homology import (
    betti_numbers,
    ext_dims,
    ext_eventually_zero,
    syzygy_step,
)
from grassvar.modules import (
    direct_sum,
    dual,
    quotient_by_linear_forms,
)
from grassvar.poly import (
    PolyRing,
    buchberger_reduced,
    eliminate,
    ideal,
    ideal_dimension,
    ideal_intersect,
    normal_form,
    radical_contains,
    radical_equal,
)
from grassvar.rankvariety import (
    pair_variety_ideal,
    rank_variety_ideal,
    rational_points,
)

F2 = PrimeField(2)


def _criterion(number, limit_seconds, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number}: FAIL ({elapsed:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= limit_seconds:
        print(f"criterion {number}: FAIL (took {elapsed:.1f}s, limit {limit_seconds}s)")
        pytest.fail(f"criterion {number} exceeded its {limit_seconds}s budget")
    print(f"criterion {number}: PASS ({elapsed:.1f}s)")


def _unit_forms(c):
    return [tuple(1 if i == j else 0 for i in range(c)) for j in range(c)]


def test_criterion_1_line_module_support():
    def body():
        for c in (2, 3):
            M = quotient_by_linear_forms(F2, c, [(1,) + (0,) * (c - 1)])
            V = rank_variety_ideal(M)
            expected = ideal(V.ring, [V.ring.var(i) for i in range(1, c)])
            assert radical_equal(V.gb, expected)
            assert rational_points(V) == [(1,) + (0,) * (c - 1)]

    _criterion(1, 5, body)


def test_criterion_2_dimension_formula():
    def body():
        for c in (2, 3, 4):
            M = quotient_by_linear_forms(F2, c, [(1,) + (0,) * (c - 1)])
            k = quotient_by_linear_forms(F2, c, _unit_forms(c))
            for d in range(1, c):
                V = higher_variety_ideal(M, k, d)
                assert variety_dim_projective(V) == (d - 1) * (c - d), (c, d)

    _criterion(2, 300, body)


def _catalog_items(catalog):
    for (p, c), cat in sorted(catalog.items()):
        yield p, c, cat


def test_criterion_3_variety_calculus(catalog):
    def body():
        for p, c, cat in _catalog_items(catalog):
            assert len(cat) >= 8
            ideals = {name: rank_variety_ideal(M) for name, M in cat.items()}
            points = {name: set(rational_points(V)) for name, V in ideals.items()}

            # (1) the trivial module sees the whole space
            assert ideals["k"].is_full()

            # (2) pairs cut out the intersection of the two varieties
            for a, b in itertools.combinations(sorted(cat), 2):
                pair = pair_variety_ideal(cat[a], cat[b])
                assert set(rational_points(pair)) == points[a] & points[b], (p, c, a, b)
            ring = ideals["R/x1"].ring
            by_hand = buchberger_reduced(
                ideal(
                    ring,
                    list(ideals["R/x1"].raw.gens) + list(ideals["R/(x1+x2)"].raw.gens),
                )
            )
            assert radical_equal(
                pair_variety_ideal(cat["R/x1"], cat["R/(x1+x2)"]).gb, by_hand
            )

            # (3) pairing with the trivial module or with itself changes nothing
            for name, M in cat.items():
                self_pair = pair_variety_ideal(M, M)
                with_k = pair_variety_ideal(cat["k"], M)
                assert set(rational_points(self_pair)) == points[name], (p, c, name)
                assert set(rational_points(with_k)) == points[name], (p, c, name)
            for name in ("R/x1", "R/x1+R/x2"):
                assert radical_equal(
                    pair_variety_ideal(cat[name], cat[name]).gb, ideals[name].gb
                )
                assert radical_equal(
                    pair_variety_ideal(cat["k"], cat[name]).gb, ideals[name].gb
                )

            # (4) taking a syzygy does not move the variety
            assert radical_equal(ideals["Om(k)"].gb, ideals["k"].gb)
            for name in ("R/x1", "R/(x1+x2)"):
                omega = syzygy_step(cat[name])[1]
                assert radical_equal(
                    rank_variety_ideal(omega).gb, ideals[name].gb
                ), (p, c, name)

            # (5) split sequences are subadditive: the middle term's variety
            # lies in the union of the ends (and contains each end)
            union = ideal_intersect(ideals["R/x1"].gb, ideals["R/x2"].gb)
            V_sum = ideals["R/x1+R/x2"]
            assert radical_contains(V_sum.gb, union)
            for name in ("R/x1", "R/x2"):
                assert radical_contains(ideals[name].gb, V_sum.gb)
            assert radical_equal(V_sum.gb, union)

            # (6) duality does not move the variety
            assert radical_equal(ideals["dual(R/x1)"].gb, ideals["R/x1"].gb)
            for name in ("kE", "R/(x1+x2)", "R/x1+R/x2"):
                assert radical_equal(
                    rank_variety_ideal(dual(cat[name])).gb, ideals[name].gb
                ), (p, c, name)

    _criterion(3, 120, body)


def test_criterion_4_emptiness_matches_ext(catalog):
    def body():
        for p, c, cat in _catalog_items(catalog):
            window = 2 * p**c + 4
            for (an, M), (bn, N) in itertools.product(cat.items(), repeat=2):
                # an independent check of the exact test: the top half of
                # an explicit Ext window, from the minimal resolution of M,
                # which resolve's memo builds once for all eight targets
                table = ext_dims(M, N, window)
                window_vanishes = not any(table.dims[(window + 1) // 2 :])
                vanishes = ext_eventually_zero(M, N)
                assert window_vanishes == vanishes, (p, c, an, bn)
                for d in range(1, c + 1):
                    V = higher_variety_ideal(M, N, d)
                    assert V.is_empty() == vanishes, (p, c, an, bn, d)

    _criterion(4, 300, body)


def test_criterion_5_three_way_agreement(catalog):
    def body():
        cat = catalog[(2, 3)]
        order_one = {
            (a, b): pair_variety_ideal(M, N)
            for (a, M), (b, N) in itertools.product(cat.items(), repeat=2)
        }
        for d in (1, 2):
            subspaces = enumerate_subspaces(F2, 3, d)
            assert len(subspaces) == 7
            for (a, M), (b, N) in itertools.product(cat.items(), repeat=2):
                V = higher_variety_ideal(M, N, d)
                V1 = order_one[(a, b)]
                for W in subspaces:
                    # geometric scans W for rational points of the order-one
                    # variety; that decides membership over the closure too,
                    # because every catalog pair variety is a finite union of
                    # subspaces defined over F2.  homological restricts both
                    # modules to W and tests Hom_k(M, N) for projectivity.
                    geometric, homological = oracle_membership(
                        M, N, d, W, pair_ideal=V1
                    )
                    membership = point_on_variety(V, pluecker_embed(W))
                    assert geometric == homological == membership, (a, b, d, W.rows())

    _criterion(5, 300, body)


def test_criterion_6_projection_explorer(capsys):
    def body():
        ring = pluecker_ring(F2, 4, 2)

        def run_gamma(zgens):
            argv = [
                "project-gamma", "-p", "2", "-c", "4", "-d", "2", "--json",
                "-z", zgens,
            ]
            assert run_command(argv) == 0
            payload = json.loads(capsys.readouterr().out)
            gens = [parse_polynomial(ring, g) for g in payload["generators"]]
            return payload, buchberger_reduced(ideal(ring, gens))

        payload, gb = run_gamma("a2; a3; a4")
        schubert = ideal(ring, [ring.var(i) for i in (3, 4, 5)])
        assert not payload["empty"]
        assert payload["dim"] == 2
        assert radical_equal(gb, schubert)
        assert ideal_dimension(gb) - 1 == 2
        members = [
            W
            for W in enumerate_subspaces(F2, 4, 2)
            if all(g.evaluate(pluecker_embed(W).coords) == 0 for g in gb.gens)
        ]
        assert len(members) == 7
        assert len(enumerate_subspaces(F2, 4, 2)) == 35

        payload, gb = run_gamma("0")
        quadric = ideal(ring, pluecker_relations(ring, 4, 2))
        assert not payload["empty"]
        assert radical_equal(gb, quadric)
        assert payload["dim"] == 4

        payload, gb = run_gamma("1")
        assert payload["empty"]
        assert payload["dim"] == -1
        assert gb.is_unit_ideal()

    _criterion(6, 120, body)


def test_criterion_7_infrastructure_properties():
    def body():
        assert gaussian_binomial(4, 2, 2) == 35
        assert gaussian_binomial(3, 1, 2) == 7

        ring = pluecker_ring(F2, 4, 2)
        rels = pluecker_relations(ring, 4, 2)
        for W in enumerate_subspaces(F2, 4, 2):
            coords = pluecker_embed(W).coords
            assert all(g.evaluate(coords) == 0 for g in rels)

        rng = random.Random(20260816)
        F5 = PrimeField(5)
        poly_ring = PolyRing(F5, ["x", "y", "z"])

        def random_poly():
            terms = poly_ring.zero
            for _ in range(rng.randint(1, 4)):
                coeff = poly_ring.const(rng.randint(1, 4))
                mono = poly_ring.one
                for v in range(3):
                    mono = mono * poly_ring.var(v) ** rng.randint(0, 2)
                terms = terms + coeff * mono
            return terms

        for _ in range(12):
            gens = [random_poly() for _ in range(rng.randint(1, 3))]
            I = ideal(poly_ring, gens)
            gb = buchberger_reduced(I)
            again = buchberger_reduced(gb)
            assert str(again) == str(gb)
            for g in gens:
                assert normal_form(g, gb).is_zero()

            # elimination soundness: survivors avoid x and still lie in I
            elim = eliminate(gb, {"x"})
            for g in elim.gens:
                lifted = g.map_to(poly_ring, [1, 2])
                assert 0 not in lifted.support()
                assert normal_form(lifted, gb).is_zero()

    _criterion(7, 120, body)


def test_criterion_8_homology_golden_values():
    def body():
        k = quotient_by_linear_forms(F2, 2, _unit_forms(2))
        assert betti_numbers(k, 4) == [1, 2, 3, 4, 5]
        Rx = quotient_by_linear_forms(F2, 2, [(1, 0)])
        Ry = quotient_by_linear_forms(F2, 2, [(0, 1)])
        assert list(ext_dims(Rx, Ry, 8)) == [1, 0, 0, 0, 0, 0, 0, 0, 0]

    _criterion(8, 30, body)
