"""Property tests of resolutions, Ext and its eventual vanishing on modules
drawn from quotients, direct sums, duals and syzygies over (p, c) = (2, 2),
(3, 2) and (2, 3).

The examples are derandomized and bounded, so every run draws the same
modules and the suite stays deterministic.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grassvar.fp import PrimeField, _rref
from grassvar.homology import betti_numbers, ext_dims, ext_eventually_zero, syzygy_step
from grassvar.modules import direct_sum, dual, quotient_by_linear_forms, regular_module

CONTEXTS = [(2, 2), (3, 2), (2, 3)]
BOUND = 4

PROPERTY = settings(derandomize=True, database=None, max_examples=100, deadline=None)


@st.composite
def quotients(draw, p, c):
    """kE / (u_1, .., u_s) for s <= 2 independent linear forms."""
    # a nonzero form is a nonzero integer below p^c, read in base p
    codes = draw(st.lists(st.integers(1, p**c - 1), max_size=min(c, 2)))
    forms = [[code // p**i % p for i in range(c)] for code in codes]
    try:
        return quotient_by_linear_forms(PrimeField(p), c, forms)
    except ValueError:  # dependent forms
        assume(False)


@st.composite
def modules(draw, p, c):
    """A quotient, then up to two of: a sum with another quotient, the
    dual, the first syzygy."""
    M = draw(quotients(p, c))
    for op in draw(st.lists(st.sampled_from(["sum", "dual", "syzygy"]), max_size=2)):
        if op == "sum":
            M = direct_sum(M, draw(quotients(p, c)))
        elif op == "dual":
            M = dual(M)
        else:
            M = syzygy_step(M)[1]
    return M


@st.composite
def module_triples(draw):
    p, c = draw(st.sampled_from(CONTEXTS))
    return tuple(draw(modules(p, c)) for _ in range(3))


@PROPERTY
@given(module_triples())
def test_ext_is_additive_in_the_target(triple):
    M, N1, N2 = triple
    whole = ext_dims(M, direct_sum(N1, N2), BOUND).dims
    parts = [a + b for a, b in zip(ext_dims(M, N1, BOUND), ext_dims(M, N2, BOUND))]
    assert list(whole) == parts


@PROPERTY
@given(module_triples())
def test_ext0_is_the_dimension_of_hom(triple):
    # Hom_kE(M, N) is the solution space of Y_j F = F X_j on column-major
    # vec(F), built here without any resolution; syzygies and duals make
    # targets that are not self-dual, so an action read the wrong way
    # round changes the answer
    M, N, _ = triple
    p = M.p
    system = [
        np.kron(np.eye(M.n, dtype=np.int64), Y.array) - np.kron(X.array.T, np.eye(N.n, dtype=np.int64))
        for X, Y in zip(M.actions, N.actions)
    ]
    rank = len(_rref(np.concatenate(system) % p, p)[1]) if M.n * N.n else 0
    assert ext_dims(M, N, 0)[0] == M.n * N.n - rank


@PROPERTY
@given(st.sampled_from(CONTEXTS).flatmap(lambda pc: modules(*pc)))
def test_betti_numbers_shift_under_syzygy(M):
    # the minimal resolution of M from degree 1 on resolves Omega M minimally
    assert betti_numbers(syzygy_step(M)[1], BOUND) == betti_numbers(M, BOUND + 1)[1:]


# Eventual vanishing of Ext(M, N) is projectivity of Hom_k(M, N) = M* (x) N,
# so these hold with no variety theory: the dual of a projective is
# projective, kE (x) X is free, and a sum is projective exactly when each
# summand is.


@PROPERTY
@given(module_triples())
def test_ext_eventually_zero_is_symmetric_and_dual(triple):
    M, N, _ = triple
    vanishes = ext_eventually_zero(M, N)
    assert ext_eventually_zero(N, M) == vanishes
    assert ext_eventually_zero(dual(N), dual(M)) == vanishes


@PROPERTY
@given(st.sampled_from(CONTEXTS).flatmap(lambda pc: modules(*pc)))
def test_ext_eventually_zero_against_the_regular_module(M):
    kE = regular_module(M.field, M.c)
    assert ext_eventually_zero(M, kE)
    assert ext_eventually_zero(kE, M)


@PROPERTY
@given(module_triples())
def test_ext_eventually_zero_is_additive(triple):
    M, M2, N = triple
    both = ext_eventually_zero(M, N) and ext_eventually_zero(M2, N)
    assert ext_eventually_zero(direct_sum(M, M2), N) == both
    both = ext_eventually_zero(N, M) and ext_eventually_zero(N, M2)
    assert ext_eventually_zero(N, direct_sum(M, M2)) == both
