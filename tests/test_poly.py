import copy
import gc
import itertools
import pickle
import random
import re
import sys
import threading
import weakref
from math import prod
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassvar import poly
from grassvar.errors import GroebnerBudgetError
from grassvar.fp import PrimeField
from grassvar.poly import (
    _DEGREE_BOUND,
    Ideal,
    MonomialOrder,
    Polynomial,
    PolyRing,
    _autoreduce,
    _interreduce,
    _lcm,
    _reduce,
    _sorted_monic,
    buchberger_reduced,
    eliminate,
    groebner_budget,
    ideal,
    ideal_dimension,
    ideal_intersect,
    normal_form,
    radical_contains,
    radical_equal,
    radical_member,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def ring(field=F5, names=("x", "y", "z"), order=None):
    return PolyRing(field, names, order)


def parse_free(r, expr):
    """Build a polynomial from generators without any text parsing."""
    return expr(*r.gens())


# --- rings and orders -------------------------------------------------------------


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        PolyRing(F2, ["a", "a"])


def test_grevlex_order_on_classic_sequence():
    r = ring()
    x, y, z = r.gens()
    # grevlex sorts by total degree, then smaller last-variable weight first
    f = x**2 + x * y + y**2 + x * z + y * z + z**2 + x + 1
    monos = [e for e, _ in f.terms]
    assert monos == [
        (2, 0, 0),
        (1, 1, 0),
        (0, 2, 0),
        (1, 0, 1),
        (0, 1, 1),
        (0, 0, 2),
        (1, 0, 0),
        (0, 0, 0),
    ]


def test_lex_order():
    r = ring(order=MonomialOrder.lex())
    x, y, z = r.gens()
    f = x + y**5 + z**9
    assert [e for e, _ in f.terms] == [(1, 0, 0), (0, 5, 0), (0, 0, 9)]


def test_block_order_drop_variables_dominate():
    r = PolyRing(F5, ["t", "x"], MonomialOrder.block({"t"}))
    t, x = r.gens()
    f = t + x**7
    assert f.lm() == (1, 0)


# The tuple keys the orders were first defined by, kept here as the oracle of
# the integer weight keys.
def _grevlex_tuple(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def _tuple_key(r, e):
    if r.order.kind == "lex":
        return e
    if r.order.kind == "grevlex":
        return _grevlex_tuple(e)
    drop = [x for n, x in zip(r.names, e) if n in r.order.drop]
    kept = [x for n, x in zip(r.names, e) if n not in r.order.drop]
    return (_grevlex_tuple(tuple(drop)), _grevlex_tuple(tuple(kept)))


# The integer keys as the poly module docstring defines them, sum(w_i * e_i)
# with the order's digits in base B = 2^20, kept as the oracle of the keys
# that the engine reads off packed monomials.
def _weight_key(r, e):
    B = 1 << 20

    def grevlex(e):
        return sum(e) * B ** len(e) - sum(x * B**i for i, x in enumerate(e))

    if r.order.kind == "lex":
        return sum(x * B ** (len(e) - 1 - i) for i, x in enumerate(e))
    if r.order.kind == "grevlex":
        return grevlex(e)
    drop = [x for n, x in zip(r.names, e) if n in r.order.drop]
    kept = [x for n, x in zip(r.names, e) if n not in r.order.drop]
    return grevlex(drop) * B ** (len(kept) + 1) + grevlex(kept)


PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def rings_and_monomials(draw, field=F2):
    """A lex, grevlex or block ring over `field` in up to 12 variables and a
    few of its monomials, each below the degree bound, some of them near it."""
    n = draw(st.integers(1, 12))
    names = [f"x{i}" for i in range(n)]
    kind = draw(st.sampled_from(["lex", "grevlex", "block"]))
    if kind == "block":
        order = MonomialOrder.block(draw(st.sets(st.sampled_from(names), min_size=1)))
    else:
        order = MonomialOrder(kind)
    top = (_DEGREE_BOUND - 1) // n
    exponent = st.one_of(st.integers(0, 3), st.integers(0, top), st.just(top))
    monos = draw(st.lists(st.tuples(*[exponent] * n), min_size=2, max_size=8))
    return PolyRing(field, names, order), monos


@PROPERTY
@given(rings_and_monomials())
def test_integer_keys_order_as_tuple_keys(drawn):
    r, monos = drawn
    for a in monos:
        for b in monos:
            assert (r._mkey(r._pack(a)) < r._mkey(r._pack(b))) == (_tuple_key(r, a) < _tuple_key(r, b))
            assert (r._mkey(r._pack(a)) == r._mkey(r._pack(b))) == (a == b)


@PROPERTY
@given(rings_and_monomials())
def test_integer_keys_are_linear(drawn):
    r, monos = drawn
    a, b = monos[0], monos[1]
    half_a = tuple(x // 2 for x in a)
    half_b = tuple(x // 2 for x in b)
    total = tuple(x + y for x, y in zip(half_a, half_b))
    assert r._mkey(r._pack(total)) == r._mkey(r._pack(half_a)) + r._mkey(r._pack(half_b))


@PROPERTY
@given(rings_and_monomials())
def test_packed_monomials_agree_with_exponent_tuples(drawn):
    # every drawn monomial, and every lcm of two, has degree below the bound
    r, monos = drawn
    guard = r._guard
    kept = [n not in r.order.drop for n in r.names]
    for a in monos:
        pa = r._pack(a)
        assert r._unpack(pa) == a
        assert r._mkey(pa) == _weight_key(r, a)
        assert r._degree(pa) == sum(a)
        assert r._kept_degree(pa) == sum(x for x, k in zip(a, kept) if k)
        half = tuple(x // 2 for x in a)
        for b in monos:
            pb = r._pack(b)
            # the divisibility test that _reduce and the chain criterion inline
            assert (((pb | guard) - pa) & guard == guard) == all(x <= y for x, y in zip(a, b))
            lcm = tuple(map(max, a, b))
            pl = _lcm(pa, pb, guard)
            assert pl == r._pack(lcm)
            assert r._degree(pl) == sum(lcm)
            assert r._mkey(pl) == _weight_key(r, lcm)
            assert (pl == pa + pb) == all(min(x, y) == 0 for x, y in zip(a, b))
            # multiplying adds, and dividing by a divisor subtracts
            assert pl - pa == r._pack(tuple(x - y for x, y in zip(lcm, a)))
            product = tuple(x + y // 2 for x, y in zip(half, b))
            assert r._pack(half) + r._pack(tuple(y // 2 for y in b)) == r._pack(product)


def _other_order(r):
    """r's variables in reverse, under another order kind."""
    names = r.names[::-1]
    if r.order.kind == "lex":
        return PolyRing(r.field, names, MonomialOrder.grevlex())
    if r.order.kind == "grevlex":
        return PolyRing(r.field, names, MonomialOrder.block(names[:1]))
    return PolyRing(r.field, names, MonomialOrder.lex())


@PROPERTY
@given(rings_and_monomials(F5), st.data())
def test_packed_polynomials_agree_with_exponent_tuples(drawn, data):
    r, monos = drawn
    n = r.nvars
    d = {e: data.draw(st.integers(1, 4)) for e in monos}
    f = r.from_dict(d)
    by_order = sorted(d.items(), key=lambda t: _tuple_key(r, t[0]), reverse=True)
    assert f.terms == tuple(by_order)
    assert r.from_dict(dict(f.terms)) == f
    assert f.lm() == by_order[0][0] and f.lc() == by_order[0][1]
    assert f.support() == {i for e in d for i in range(n) if e[i]}
    assert f.total_degree() == max(map(sum, d))
    assert f.is_homogeneous() == (len(set(map(sum, d))) == 1)
    assert f.is_constant() == (set(d) == {(0,) * n})
    point = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    want = sum(c * prod(pow(v, x, 5) for v, x in zip(point, e)) for e, c in d.items()) % 5
    assert f.evaluate(point) == want
    # into the reversed variables under another order, and back
    other = _other_order(r)
    g = f.map_to(other, range(n - 1, -1, -1))
    assert dict(g.terms) == {e[::-1]: c for e, c in d.items()}
    assert g.map_to(r, range(n - 1, -1, -1)) == f
    with pytest.raises(ValueError, match="index map"):
        f.map_to(other, range(n - 1))


@PROPERTY
@given(rings_and_monomials())
def test_products_and_powers_check_the_degree_bound(drawn):
    r, monos = drawn
    a, b = monos[0], monos[1]
    f, g = r.from_dict({a: 1}), r.from_dict({b: 1})
    if sum(a) + sum(b) >= _DEGREE_BOUND:
        with pytest.raises(ValueError, match=str(sum(a) + sum(b))):
            f * g
    else:
        assert (f * g).terms == ((tuple(map(add, a, b)), 1),)
    # the first power whose degree reaches the bound raises, the one before
    # it does not
    s = sum(a) or 1
    f = r.from_dict({a if sum(a) else (1,) + a[1:]: 1})
    k = -(-_DEGREE_BOUND // s)
    assert (f ** (k - 1)).total_degree() == (k - 1) * s
    with pytest.raises(ValueError, match=str(_DEGREE_BOUND)):
        f**k


def test_from_dict_rejects_bad_exponent_vectors():
    r = PolyRing(F2, ["x", "y"])
    for bad in [(-1, 2), (1, 0, 5), (1,), ()]:
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            r.from_dict({bad: 1, (1, 0): 1})
    # a bad monomial is refused even when its coefficient vanishes
    with pytest.raises(ValueError, match=re.escape("(0, -2)")):
        r.from_dict({(0, -2): 2})
    assert str(r.from_dict({(1, 0): 1, (0, 2): 3})) == "y^2 + x"


def test_degree_bound_raises():
    r = ring(order=MonomialOrder.lex())
    below = r.from_dict({(_DEGREE_BOUND - 1, 0, 0): 1})
    assert below.lm() == (_DEGREE_BOUND - 1, 0, 0)
    with pytest.raises(ValueError, match=str(_DEGREE_BOUND)):
        r.from_dict({(_DEGREE_BOUND - 2, 1, 1): 1})
    # under lex, reducing x*y by x - y^(bound - 1) reaches y^bound
    x, y, z = r.gens()
    g = x - r.from_dict({(0, _DEGREE_BOUND - 1, 0): 1})
    with pytest.raises(ValueError, match=str(_DEGREE_BOUND)):
        normal_form(x * y, [g])
    # so does the S-polynomial y*(x*z - y^(bound - 1)) - z*(x*y) of two
    # interreduced generators
    h = x * z - r.from_dict({(0, _DEGREE_BOUND - 1, 0): 1})
    with pytest.raises(ValueError, match=str(_DEGREE_BOUND)):
        buchberger_reduced(ideal(r, [h, x * y]))


def test_ring_equality_is_structural():
    assert ring() == ring()
    assert ring() != ring(names=("x", "y", "w"))
    assert ring() != ring(order=MonomialOrder.lex())
    assert ring(F5) != ring(F3)


def test_rings_are_interned():
    r = PolyRing(F2, ["x", "y"])
    assert r is PolyRing(F2, ("x", "y"), MonomialOrder.grevlex())
    assert r is PolyRing(PrimeField(2), iter("xy"))
    for other in [
        PolyRing(F3, ["x", "y"]),
        PolyRing(F2, ["x", "z"]),
        PolyRing(F2, ["y", "x"]),
        PolyRing(F2, ["x", "y"], MonomialOrder.lex()),
        PolyRing(F2, ["x", "y"], MonomialOrder.block(["x"])),
    ]:
        assert other is not r and other != r
    with pytest.raises(ValueError, match="duplicate"):
        PolyRing(F2, ["x", "x"])
    with pytest.raises(ValueError, match="unknown"):
        PolyRing(F2, ["x", "y"], MonomialOrder.block(["w"]))


def test_pickle_and_deepcopy_keep_the_interned_ring():
    r = ring(F3, order=MonomialOrder.block(["y"]))
    x, y, z = r.gens()
    f = 2 * x**2 * y + y * z + 1
    for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert g == f and g.ring is r
    I = ideal(r, [f, x - z])
    assert pickle.loads(pickle.dumps(I)) == I
    assert copy.copy(r) is r


def test_ring_registry_lets_go_of_unused_rings():
    names = ("registry_probe_u", "registry_probe_v")
    key = (F5, names, MonomialOrder.grevlex())
    r = PolyRing(F5, names)
    assert poly._rings[key] is r
    ref = weakref.ref(r)
    del r
    gc.collect()
    assert ref() is None and key not in poly._rings


def test_threads_building_one_ring_get_one_object():
    # eight threads race to build each of 20 new rings, with the interpreter
    # switching threads as often as it can
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for k in range(20):
            names = tuple(f"race{k}_{i}" for i in range(12))
            start, out = threading.Barrier(8), []

            def build():
                start.wait(timeout=10)
                out.append(PolyRing(F5, names, MonomialOrder.block(names[:5])))

            threads = [threading.Thread(target=build) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert len(out) == 8 and all(r is out[0] for r in out)
    finally:
        sys.setswitchinterval(switch)


# --- polynomial arithmetic ---------------------------------------------------------


def test_constant_and_variable_construction():
    r = ring()
    assert r.const(7).lc() == 2
    assert r.const(5).is_zero()
    assert str(r.var("y")) == "y"
    assert r.var(2) == r.var("z")


def test_arithmetic_identities_random():
    rng = random.Random(42)
    r = ring(F3, ("a", "b"))

    def rand_poly():
        d = {}
        for _ in range(rng.randrange(1, 5)):
            e = (rng.randrange(3), rng.randrange(3))
            d[e] = rng.randrange(1, 3)
        return r.from_dict(d)

    for _ in range(60):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert f - f == r.zero
        assert f * r.one == f
        assert (f * g) * h == f * (g * h)


def test_leading_data_multiplicative():
    rng = random.Random(9)
    r = ring(F5, ("a", "b", "c"))
    for _ in range(40):
        d1 = {tuple(rng.randrange(4) for _ in range(3)): rng.randrange(1, 5)}
        d2 = {tuple(rng.randrange(4) for _ in range(3)): rng.randrange(1, 5)}
        f, g = r.from_dict(d1), r.from_dict(d2)
        prod = f * g
        assert prod.lm() == tuple(a + b for a, b in zip(f.lm(), g.lm()))
        assert prod.lc() == (f.lc() * g.lc()) % 5


def test_pow_and_frobenius():
    r = ring(F2, ("a", "b"))
    a, b = r.gens()
    assert (a + b) ** 2 == a**2 + b**2
    r3 = ring(F3, ("a", "b"))
    a, b = r3.gens()
    assert (a + b) ** 3 == a**3 + b**3


def test_str_rendering():
    r = ring(F3, ("a1", "a2"))
    a1, a2 = r.gens()
    assert str(a1**2 + 2 * a1 * a2 + a2) == "a1^2 + 2*a1*a2 + a2"
    assert str(r.zero) == "0"
    assert str(r.const(2)) == "2"


def test_evaluate():
    r = ring(F5, ("x", "y"))
    x, y = r.gens()
    f = x**2 * y + 3 * y + 1
    assert f.evaluate([2, 3]) == (4 * 3 + 9 + 1) % 5
    with pytest.raises(ValueError):
        f.evaluate([1])


@PROPERTY
@given(st.sampled_from([2, 3, 5, 7, 97]), st.integers(1, 4), st.data())
def test_vanishing_mask_is_pointwise_evaluation(p, n, data):
    # the stacked kernel against one evaluate per (polynomial, point), with
    # exponents far past p - 1 and points with zero coordinates
    r = ring(PrimeField(p), tuple(f"x{i}" for i in range(n)))
    exponent = st.integers(0, 3) | st.integers(p - 1, 3 * p)
    gens = [r.from_dict({tuple(data.draw(st.lists(exponent, min_size=n, max_size=n))): data.draw(st.integers(0, p - 1))
                         for _ in range(data.draw(st.integers(0, 4)))})
            for _ in range(data.draw(st.integers(0, 3)))]
    points = data.draw(st.lists(st.lists(st.integers(0, p - 1) | st.just(0), min_size=n, max_size=n), max_size=12))
    stack = np.array(points, dtype=np.int64).reshape(len(points), n)
    want = [all(g.evaluate(pt) == 0 for g in gens) for pt in points]
    assert poly._vanishing(gens, stack).tolist() == want
    # a nonzero constant vanishes nowhere, the zero polynomial everywhere
    assert poly._vanishing([*gens, r.const(1)], stack).tolist() == [False] * len(points)
    assert poly._vanishing([*gens, r.zero], stack).tolist() == want


def test_homogeneous_flag():
    r = ring()
    x, y, _ = r.gens()
    assert (x * y + y**2).is_homogeneous()
    assert not (x * y + y).is_homogeneous()
    assert r.zero.is_homogeneous()


# --- normal form and Buchberger ----------------------------------------------------


def test_normal_form_drops_divisible_leads():
    r = ring(F5, ("x", "y"))
    x, y = r.gens()
    G = [x**2 - y, y**2 - 1]
    f = x**4
    nf = normal_form(f, G)
    # x^4 = (x^2)^2 -> y^2 -> 1
    assert nf == r.one
    # a non-monic basis gives the same remainders
    scaled = [2 * x**2 - 2 * y, 3 * y**2 - 3]
    assert normal_form(f, scaled) == nf
    g = x**3 + 2 * x * y + y**3
    assert normal_form(g, scaled) == normal_form(g, G) == 3 * x * y + y


def test_normal_form_rejects_a_basis_from_another_ring():
    r = ring(F3, ("x", "y"))
    x, y = r.gens()
    other = ring(F3, ("u", "v", "w"))
    G = buchberger_reduced(ideal(other, [other.var(0) * other.var(1) - other.var(2)]))
    with pytest.raises(ValueError, match="ring"):
        normal_form(x * y, G)
    lex = ring(F3, ("x", "y"), MonomialOrder.lex())
    with pytest.raises(ValueError, match="ring"):
        normal_form(x * y, [lex.var(0)])
    # an equal ring built apart is the same ring
    assert normal_form(x * y, [ring(F3, ("x", "y")).var(0)]).is_zero()


def test_buchberger_hand_checked_f3():
    # x^2 + y^2 and x*y: the s-pair reduces to y^3 and everything then closes
    r = ring(F3, ("x", "y"))
    x, y = r.gens()
    G = buchberger_reduced(ideal(r, [x**2 + y**2, x * y]))
    assert {str(g) for g in G.gens} == {"x^2 + y^2", "x*y", "y^3"}


def test_buchberger_linear_ideal():
    r = ring(F2, ("x", "y"))
    x, y = r.gens()
    G = buchberger_reduced(ideal(r, [x + y, y]))
    assert {str(g) for g in G.gens} == {"x", "y"}


def test_buchberger_unit_shortcut():
    r = ring(F3, ("x", "y"))
    x, y = r.gens()
    G = buchberger_reduced(ideal(r, [x, x + 1]))
    assert G.is_unit_ideal()
    assert [str(g) for g in G.gens] == ["1"]


def test_buchberger_idempotent_and_membership():
    rng = random.Random(31)
    r = ring(F2, ("x", "y", "z"))

    def rand_poly():
        d = {}
        for _ in range(rng.randrange(1, 4)):
            d[tuple(rng.randrange(3) for _ in range(3))] = 1
        return r.from_dict(d)

    for _ in range(15):
        gens = [rand_poly() for _ in range(3)]
        I = ideal(r, gens)
        G = buchberger_reduced(I)
        again = buchberger_reduced(G)
        assert again.gens == G.gens
        for g in gens:
            assert normal_form(g, G).is_zero()


def test_buchberger_deterministic_under_generator_order():
    rng = random.Random(77)
    r = ring(F3, ("x", "y", "z"))
    x, y, z = r.gens()
    gens = [x * y - z**2, y * z - x, x**2 + 2 * y]
    G = buchberger_reduced(ideal(r, gens))
    for _ in range(6):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger_reduced(ideal(r, shuffled)).gens == G.gens


def test_autoreduce_of_a_groebner_basis_is_the_reduced_basis():
    rng = random.Random(13)
    for field, order in [(F2, None), (F3, MonomialOrder.lex()), (F5, MonomialOrder.block(["x"]))]:
        r = ring(field, order=order)

        def key(e):
            return r._mkey(r._pack(e))

        def rand_poly(terms, degree):
            return r.from_dict({
                tuple(rng.randrange(degree + 1) for _ in range(3)): rng.randrange(1, field.p)
                for _ in range(terms)})

        for _ in range(4):
            G = buchberger_reduced(ideal(r, [rand_poly(3, 2) for _ in range(3)]))
            polys = list(G.gens)
            for g in G.gens:
                # non-monic multiples of g
                polys.append(rand_poly(2, 1) * g * rng.randrange(1, field.p))
                # g plus an element with a smaller lead: same lead, and a tail
                # term divisible by that smaller lead
                smaller = [h for h in G.gens if key(h.lm()) < key(g.lm())]
                if smaller:
                    polys.append(g + rng.choice(smaller) * rng.randrange(1, field.p))
            rng.shuffle(polys)
            out = _autoreduce(r, _sorted_monic(polys))
            assert [Polynomial(r, tuple(g)) for g in reversed(out)] == list(G.gens)


def test_final_pass_drops_divisible_leads_before_reducing(monkeypatch):
    # an element whose lead another lead divides would reduce to 0, so the
    # pass reduces only the minimal ones and still gives the reduced basis
    r = ring(F3)
    x, y, z = r.gens()
    I = ideal(r, [x * y - z**2, y * z - x**2, x * z - y**2])
    G = poly._groebner_basis(r, _sorted_monic(I.gens))
    redundant = [_sorted_monic([g * x + g])[0] for g in (Polynomial(r, tuple(t)) for t in G)]
    want = buchberger_reduced(I)
    reduced = []
    monkeypatch.setattr(poly, "_reduce", lambda *args: reduced.append(1) or _reduce(*args))
    out = poly._reduced_basis(r, G + redundant)
    assert out.gens == want.gens
    assert len(reduced) == len(out.gens) < len(G + redundant)


def test_interreduce_repeats_the_pass_until_leads_ascend():
    r = ring(F3)
    x, y, z = r.gens()
    gens = [x * y + z, x * y + y**2 + 1, y**2]
    # one pass lowers the last lead below the others
    once = _autoreduce(r, _sorted_monic(gens))
    assert [str(Polynomial(r, tuple(g))) for g in once] == ["y^2", "x*y + z", "z + 2"]
    out = [Polynomial(r, tuple(g)) for g in _interreduce(r, _sorted_monic(gens))]
    assert [str(g) for g in out] == ["z + 2", "y^2", "x*y + 1"]
    for g in out:
        for h in out:
            if h is not g:
                assert not any(all(a <= b for a, b in zip(g.lm(), e)) for e, _ in h.terms)


def test_budget_raises():
    r = ring(F5, ("x", "y", "z"))
    x, y, z = r.gens()
    I = ideal(r, [x * y - z**2, y * z - x**2, x * z - y**2])
    with groebner_budget(1), pytest.raises(GroebnerBudgetError):
        buchberger_reduced(I)


CHART_NAMES = ("p_12", "p_13", "p_14", "p_23", "p_24", "p_34", "x1", "x2", "x3", "x4")


def _slow_chart(gens):
    """The chart x2 = 1 of the incidence ideal of a (3,4) cone of shape (2, 2)
    at d = 2, written in any variables ordered as CHART_NAMES."""
    p12, p13, p14, p23, p24, p34, x1, x2, x3, x4 = gens
    return [
        p14 * p23 + 2 * p13 * p24 + p12 * p34,
        x1**2 + 2 * x2**2 + x3**2 + x2 * x4 + 2 * x3 * x4 + 2 * x4**2,
        x1 * x2 + 2 * x2**2 + x3**2 + 2 * x1 * x4 + 2 * x3 * x4 + x4**2,
        x1 * x3 + 2 * x3 * x4,
        x2 * x3 + x3**2 + 2 * x3 * x4,
        p23 * x1 + 2 * p13 * x2 + p12 * x3,
        p24 * x1 + 2 * p14 * x2 + p12 * x4,
        p34 * x1 + 2 * p14 * x3 + p13 * x4,
        p34 * x2 + 2 * p24 * x3 + p23 * x4,
        x2 + 2,
    ]


def test_sugar_strategy_on_inhomogeneous_elimination():
    # smallest-lcm pair selection needs 579 S-pair reductions on this chart;
    # selection by sugar degree needs 101
    r = PolyRing(F3, CHART_NAMES, MonomialOrder.block(CHART_NAMES[6:]))
    I = ideal(r, _slow_chart(r.gens()))
    with groebner_budget(150):
        assert len(buchberger_reduced(I).gens) == 23


def test_inhomogeneous_lex_input_keeps_smallest_lcm_selection():
    # by smallest lcm this basis takes 14 S-pair reductions; by sugar its
    # elements climb past degree 100 and it takes minutes
    r = ring(F2, order=MonomialOrder.lex())
    x, y, z = r.gens()
    I = ideal(r, [y**2 + x * z**2 + x * y * z + x**2 * y * z**2, y + x**2 + x**2 * y * z**2])
    with groebner_budget(14):
        G = buchberger_reduced(I)
    assert str(G.gens[-1]) == "y^6*z^4 + y^4 + y^3*z^2 + y^2*z^6 + y*z^4"
    assert len(G.gens) == 5


def test_slow_chart_elimination_matches_sympy():
    sympy = pytest.importorskip("sympy")
    r = PolyRing(F3, CHART_NAMES, MonomialOrder.block(CHART_NAMES[6:]))
    E = eliminate(ideal(r, _slow_chart(r.gens())), CHART_NAMES[6:])
    assert E.ring.names == CHART_NAMES[:6]
    assert E.ring.order.kind == "grevlex"

    symbols = sympy.symbols(CHART_NAMES)
    pvars, xvars = symbols[:6], symbols[6:]
    lex = sympy.groebner(_slow_chart(symbols), *xvars, *pvars, order="lex", modulus=3)
    kept = [g for g in lex.exprs if not g.free_symbols & set(xvars)]
    theirs = sympy.groebner(kept, *pvars, order="grevlex", modulus=3)
    # sympy reports coefficients mod p in the symmetric range
    want = {frozenset((e, int(c) % 3) for e, c in g.terms()) for g in theirs.polys}
    assert {frozenset(g.terms) for g in E.gens} == want
    assert len(E.gens) == 2


# --- elimination and intersection ----------------------------------------


def test_eliminate_twisted_cubic():
    r = ring(F5, ("x", "y", "z"))
    x, y, z = r.gens()
    I = ideal(r, [y - x**2, z - x**3])
    E = eliminate(I, {"x"})
    assert E.ring.names == ("y", "z")
    assert [str(g) for g in E.gens] == ["y^3 + 4*z^2"]
    # the same ideal in a ring that already has the block order dropping x
    # is eliminated as it is, to the same basis
    b = ring(F5, ("x", "y", "z"), MonomialOrder.block({"x"}))
    x, y, z = b.gens()
    B = eliminate(ideal(b, [y - x**2, z - x**3]), {"x"})
    assert B.ring == E.ring and B.gens == E.gens


def test_eliminate_keeps_induced_order_and_validates():
    r = ring(F5, ("x", "y", "z"))
    x, y, z = r.gens()
    I = ideal(r, [x])
    E = eliminate(I, {"x"})
    assert E.ring.order.kind == "grevlex"
    assert E.is_zero_ideal()
    with pytest.raises(ValueError):
        eliminate(I, {"w"})
    # under lex the block basis's kept elements, a grevlex basis, need
    # reducing again
    r = ring(F5, ("x", "y", "z"), MonomialOrder.lex())
    x, y, z = r.gens()
    E = eliminate(ideal(r, [x - z**2, y**3 - z**3 + x * y, x**2 * y + z]), ["z"])
    assert E.ring.order.kind == "lex"
    assert str(E) == "ideal(x + 3*y^14 + 3*y^10 + 4*y^6, y^15 + 3*y^11 + 4*y^7 + y^3)"


def test_eliminate_output_is_contained_in_source():
    rng = random.Random(4)
    r = ring(F2, ("x", "y", "z"))
    for _ in range(10):
        d = [
            {tuple(rng.randrange(3) for _ in range(3)): 1 for _ in range(2)}
            for _ in range(2)
        ]
        I = ideal(r, [r.from_dict(t) for t in d])
        G = buchberger_reduced(I)
        E = eliminate(I, {"z"})
        for g in E.gens:
            lifted = g.map_to(r, [0, 1])
            assert normal_form(lifted, G).is_zero()
            assert 2 not in lifted.support()


def _eliminate_by_the_whole_basis(I, drop):
    """The reduced block basis of I, all of it, with the elements free of
    the dropped variables moved to the grevlex ring of the others."""
    r = I.ring
    b = PolyRing(r.field, r.names, MonomialOrder.block(drop))
    G = buchberger_reduced(Ideal(b, tuple(g.map_to(b, range(r.nvars)) for g in I.gens)))
    kept = [n for n in r.names if n not in drop]
    small = PolyRing(r.field, kept)
    dropped = {r.names.index(n) for n in drop}
    index_map = [kept.index(n) if n in kept else None for n in r.names]
    return tuple(g.map_to(small, index_map) for g in G.gens if not g.support() & dropped)


def test_eliminate_reduces_only_what_it_keeps(cold_memos):
    # the same basis and the same S-pair reductions as reducing the whole
    # block basis and keeping the elements free of the dropped block, on
    # seeded quadrics and on a projection chart
    rng = random.Random(32)
    r = ring(F3, ("x", "y", "z", "w"))
    quadrics = [e for e in itertools.product(range(3), repeat=4) if sum(e) == 2]
    cases = [(ideal(r, [r.from_dict({rng.choice(quadrics): rng.randrange(1, 3) for _ in range(3)})
                        for _ in range(3)]), drop)
             for drop in ({"x"}, {"x", "z"}, {"w"}) for _ in range(8)]
    chart = PolyRing(F3, CHART_NAMES)
    cases.append((ideal(chart, _slow_chart(chart.gens())), set(CHART_NAMES[6:])))
    for I, drop in cases:
        with groebner_budget(10**6):
            E = eliminate(I, drop)
            ours = poly._pool.get()[1]
        with groebner_budget(10**6):
            want = _eliminate_by_the_whole_basis(I, drop)
            theirs = poly._pool.get()[1]
        assert E.gens == want and ours == theirs


def test_intersection():
    r = ring(F5, ("x", "y"))
    x, y = r.gens()
    assert [str(g) for g in ideal_intersect(ideal(r, [x]), ideal(r, [y])).gens] == ["x*y"]
    assert [str(g) for g in ideal_intersect(ideal(r, [x**2]), ideal(r, [y])).gens] == [
        "x^2*y"
    ]
    assert ideal_intersect(ideal(r, []), ideal(r, [x])).is_zero_ideal()
    # the auxiliary variable is named past the ring's own t and t0
    r = ring(F5, ("t", "t0", "x"))
    t, t0, x = r.gens()
    assert [str(g) for g in ideal_intersect(ideal(r, [t, x]), ideal(r, [t0])).gens] == ["t*t0", "t0*x"]


def test_radical_membership():
    r = ring(F5, ("x", "y"))
    x, y = r.gens()
    I = ideal(r, [x**2])
    assert radical_member(x, I)
    assert not radical_member(y, I)
    assert radical_member(r.zero, I)
    assert radical_equal(ideal(r, [x**2, y**3]), ideal(r, [x, y]))
    assert not radical_equal(ideal(r, [x]), ideal(r, [y]))
    assert radical_contains(ideal(r, [x]), ideal(r, [x**4]))
    # with the ring's own t and t0, the auxiliary variable is t1
    r = ring(F5, ("t", "t0", "x"))
    t, t0, x = r.gens()
    assert radical_member(t * t0, ideal(r, [t**2]))
    assert not radical_member(t0 + x, ideal(r, [t**2, x**3]))
    assert radical_member(t0 + x, ideal(r, [t0**2, x**3]))


def test_ideal_dimension():
    r = ring(F5, ("x", "y", "z"))
    x, y, z = r.gens()
    assert ideal_dimension(ideal(r, [])) == 3
    assert ideal_dimension(ideal(r, [r.one])) == -1
    assert ideal_dimension(ideal(r, [x])) == 2
    assert ideal_dimension(ideal(r, [x, y])) == 1
    assert ideal_dimension(ideal(r, [x * y])) == 2
    assert ideal_dimension(ideal(r, [x**2, x * y, y**2])) == 1
    assert ideal_dimension(ideal(r, [x, y, z])) == 0


def test_ideal_dimension_reads_leading_monomials():
    # the leading monomials x^2 and y^2 leave only z free, although every
    # variable occurs in the basis
    r = ring(F2, ("x", "y", "z"))
    x, y, z = r.gens()
    assert ideal_dimension(ideal(r, [x**2 + y, y**2 + z])) == 1


def test_ideal_str():
    r = ring(F2, ("x", "y"))
    x, y = r.gens()
    assert str(ideal(r, [])) == "ideal(0)"
    assert str(ideal(r, [x + y])) == "ideal(x + y)"


def test_coefficients_and_points_refuse_non_integers():
    # read as operator.index reads them, as matrix entries are: a float is
    # refused, not kept or truncated, while ints, bools and numpy integers pass
    r = ring(F3, ("a", "b"))
    a, b = r.gens()
    for op in (lambda: r.const(1.5), lambda: r.const(2.0), lambda: r.from_dict({(1, 0): 1.5}),
               lambda: (a + b).evaluate([0.5, 1]), lambda: a.evaluate([1, 2.0])):
        with pytest.raises(ValueError, match="must be an integer"):
            op()
    assert r.const(np.int64(4)) == r.one and r.const(10**30) == r.one
    assert r.from_dict({(1, 0): True, (0, 1): np.int8(-1)}) == a - b
    assert (a * b + 2).evaluate([np.int64(5), True]) == 1


def test_numpy_integers_are_scalars_on_either_side():
    # read by operator.index, as PolyRing.const reads them
    r = ring(F3, ("x", "y"))
    x, y = r.gens()
    for a in (np.int64(2), np.int8(-1), np.uint16(5), True):
        assert x * a == a * x == x * int(a)
        assert x + a == a + x == x + int(a)
        assert x - a == x - int(a) and a - x == int(a) - x
    assert x * np.int64(3) == x * 0 == 0 * x == r.zero
    assert (x + y) * r.const(2) == 2 * x + 2 * y
    with pytest.raises(TypeError):
        x + 1.5


def test_variables_by_name_or_index_in_range():
    r = ring(F3, ("x", "y"))
    assert r.var(np.int64(1)) == r.var(1) == r.var("y")
    for i in (-1, 2, 5):
        with pytest.raises(ValueError, match="outside 0..1"):
            r.var(i)
    with pytest.raises(ValueError, match="must be an integer"):
        r.var(1.0)
    with pytest.raises(KeyError):
        r.var("z")


def test_empty_reducers_and_the_zero_polynomial_need_no_case():
    # a normal form by no reducers is f itself, and 0 lies in every radical:
    # (I, 1 - t*0) holds 1, which interreduction finds before any S-pair
    r = ring(F3, ("x", "y"))
    x, y = r.gens()
    f = x**2 * y + 2 * y + 1
    assert normal_form(f, []) == f and normal_form(f, ideal(r, [])) == f
    assert normal_form(r.zero, [x]) == r.zero
    with groebner_budget(0):
        assert radical_member(r.zero, ideal(r, [x**2, x * y - 1]))
        assert radical_member(r.zero, ideal(r, []))


def test_mixed_ring_operations_rejected():
    r1 = ring(F2, ("x", "y"))
    r2 = ring(F3, ("x", "y"))
    with pytest.raises(ValueError):
        r1.var("x") + r2.var("x")
    with pytest.raises(ValueError):
        Ideal(r1, (r2.var("x"),))
    with pytest.raises(ValueError):
        ideal_intersect(ideal(r1, [r1.var("x")]), ideal(r2, [r2.var("x")]))
    # operands that are neither polynomials nor ints
    x = r1.var("x")
    for op in (lambda: x + 1.5, lambda: 1.5 + x, lambda: x - 1.5, lambda: 1.5 - x,
               lambda: x * "a", lambda: "a" * x, lambda: x * 1.5):
        with pytest.raises(TypeError):
            op()
