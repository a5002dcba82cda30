import copy

import numpy as np
import pytest

from grassvar.errors import ModuleAxiomError, ResourceLimitError
from grassvar.fp import MatrixFp, PrimeField, _matmul, _rank, _rref
from grassvar.modules import (
    KEModule,
    LinearForm,
    action_of,
    direct_sum,
    dual,
    is_free_over_line,
    jordan_type,
    module_from_dict,
    module_to_dict,
    quotient_by_linear_forms,
    regular_module,
    restrict_to_subspace,
    zero_module,
)

F2 = PrimeField(2)
F3 = PrimeField(3)


def test_linear_form_normalizes_and_rejects_zero():
    f = LinearForm(F3, (4, -1))
    assert f.coeffs == (1, 2)
    assert str(f) == "x1 + 2*x2"
    with pytest.raises(ValueError):
        LinearForm(F3, (0, 0))
    with pytest.raises(ValueError):
        LinearForm(F3, (3, 6))


def test_regular_module_p2_c2_matrices():
    # basis 1, x1, x2, x1*x2: multiplication by x1 sends 1 to x1 and x2 to x1*x2
    kE = regular_module(F2, 2)
    assert kE.n == 4
    assert kE.actions[0].tolist() == [
        [0, 0, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 1, 0],
    ]
    assert kE.actions[1].tolist() == [
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ]
    # built once per (field, c): the module is immutable
    assert regular_module(F2, 2) is kE


def test_regular_module_shifts_basis_exponents():
    for field, c in [(F2, 3), (F3, 2)]:
        p = field.p
        kE = regular_module(field, c)
        assert kE.n == p**c
        for i in range(c):
            X = kE.actions[i].array
            col0 = np.nonzero(X[:, 0])[0]
            assert list(col0) == [p**i]


def test_regular_module_matches_a_loop_over_exponents():
    # every kE the dimension cap admits, against x_i x^e = x^(e + e_i) taken
    # one basis monomial at a time
    for p in (2, 3, 5, 7, 11, 13):
        for c in range(1, 9):
            n = p**c
            if n > 256:
                break
            want = np.zeros((c, n, n), dtype=np.int64)
            for j in range(n):
                rest = j
                for i in range(c):
                    rest, digit = divmod(rest, p)
                    if digit < p - 1:
                        want[i, j + p**i, j] = 1
            kE = regular_module(PrimeField(p), c)
            assert [X.tolist() for X in kE.actions] == want.tolist(), (p, c)


def test_regular_module_dim_cap():
    with pytest.raises(ResourceLimitError):
        regular_module(F2, 9)


def test_quotient_single_form_p2_c2():
    M = quotient_by_linear_forms(F2, 2, [(1, 0)])
    assert M.n == 2
    assert M.actions[0].tolist() == [[0, 0], [0, 0]]
    assert M.actions[1].tolist() == [[0, 0], [1, 0]]


def test_quotient_dims():
    for field, c in [(F2, 2), (F3, 2), (F2, 3)]:
        p = field.p
        forms = []
        for j in range(c):
            forms.append(tuple(1 if i == j else 0 for i in range(c)))
            M = quotient_by_linear_forms(field, c, forms)
            assert M.n == p ** (c - len(forms))
    k = quotient_by_linear_forms(F3, 2, [(1, 0), (0, 1)])
    assert k.n == 1 and all(a.is_zero() for a in k.actions)


def test_quotient_of_skew_form_is_conjugate_size():
    M = quotient_by_linear_forms(F3, 2, [(1, 2)])
    assert M.n == 3


def test_quotient_rejects_dependent_forms():
    with pytest.raises(ValueError):
        quotient_by_linear_forms(F2, 2, [(1, 1), (1, 1)])
    with pytest.raises(ValueError):
        quotient_by_linear_forms(F3, 2, [(1, 0), (2, 0)])


def _closure_quotient_arrays(field, c, forms):
    """The action arrays of kE / (forms) by closing the span of the forms
    in the regular module under every x_i and reducing each product to the
    standard monomials, the non-pivot columns of that span's reduced form:
    a route that knows nothing of the closed form."""
    p = field.p
    R = regular_module(field, c)
    n = R.n
    seed = np.zeros((len(forms), n), dtype=np.int64)
    for r, f in enumerate(forms):
        for i, a in enumerate(f):
            seed[r, p**i] = a % p
    span, rank = seed, -1
    while True:
        red, piv = _rref(span, p)
        if len(piv) == rank:
            break
        rank = len(piv)
        basis = red[:rank]
        images = [_matmul(X.array, basis.T, p).T for X in R.actions]
        span = np.concatenate([basis] + images, axis=0)
    sub = red[: len(piv)]
    quot = [j for j in range(n) if j not in set(piv)]
    arrays = []
    for X in R.actions:
        w = X.array[:, quot]
        arrays.append(((w - sub.T @ w[piv, :]) % p)[quot, :])
    return arrays


def test_quotient_matches_the_span_closure():
    rng = np.random.default_rng(41)
    contexts = [(2, c) for c in range(1, 6)] + [(3, c) for c in range(1, 5)] + [(5, c) for c in range(1, 4)]
    for p, c in contexts:
        field = PrimeField(p)
        for s in range(c + 1):
            done = 0
            while done < 4:
                # entries below 0 and past p, which the forms read mod p
                a = rng.integers(-p, 2 * p, (s, c))
                if _rank(a, p) != s:
                    continue
                forms = [tuple(int(v) for v in row) for row in a]
                M = quotient_by_linear_forms(field, c, forms)
                want = _closure_quotient_arrays(field, c, forms)
                assert M.n == p ** (c - s)
                for X, w in zip(M.actions, want):
                    assert X.array.dtype == w.dtype and X.array.tobytes() == w.tobytes()
                done += 1


def test_validate_reports_problems():
    # construction checks the axioms: X_i^p = 0 and pairwise commutation
    with pytest.raises(ValueError, match=r"^not a kE-module: X1\^2 != 0$"):
        KEModule(F2, 1, 1, (MatrixFp(F2, [[1]]),))
    # a 4x4 Jordan block has X^3 != 0
    jordan4 = MatrixFp(F3, np.eye(4, k=-1, dtype=np.int64))
    with pytest.raises(ValueError, match=r"^not a kE-module: X2\^3 != 0$"):
        KEModule(F3, 2, 4, (MatrixFp.zeros(F3, 4, 4), jordan4))
    a = [[0, 0], [1, 0]]
    b = [[0, 1], [0, 0]]
    for field in (F2, F3):
        with pytest.raises(
            ValueError, match=r"^not a kE-module: X1 and X2 do not commute$"
        ):
            KEModule(field, 2, 2, (MatrixFp(field, a), MatrixFp(field, b)))
    # every violation is listed: powers first, then pairs, in index order
    with pytest.raises(ModuleAxiomError) as info:
        KEModule(F2, 2, 2, (MatrixFp(F2, [[1, 0], [0, 0]]), MatrixFp(F2, b)))
    assert info.value.problems == ["X1^2 != 0", "X1 and X2 do not commute"]
    assert str(info.value) == "not a kE-module: X1^2 != 0; X1 and X2 do not commute"


def test_action_of_mixes_generators():
    kE = regular_module(F2, 2)
    U = action_of(kE, (1, 1))
    assert U == kE.actions[0] + kE.actions[1]
    with pytest.raises(ValueError):
        action_of(kE, (0, 0))
    # a form with the wrong number of coefficients is refused, not truncated
    for bad in [(1, 0, 1), (1,)]:
        with pytest.raises(ValueError, match="arity"):
            action_of(kE, bad)
        with pytest.raises(ValueError, match="arity"):
            restrict_to_subspace(kE, [bad])


def test_direct_sum_blocks():
    A = quotient_by_linear_forms(F2, 2, [(1, 0)])
    B = quotient_by_linear_forms(F2, 2, [(0, 1)])
    S = direct_sum(A, B)
    assert S.n == 4
    assert S.actions[1].tolist()[0:2] == [[0, 0, 0, 0], [1, 0, 0, 0]]
    with pytest.raises(ValueError):
        direct_sum(A, quotient_by_linear_forms(F3, 2, [(1, 0)]))


def test_dual_is_involutive_and_valid():
    for M in (regular_module(F2, 2), quotient_by_linear_forms(F3, 2, [(1, 2)])):
        D = dual(M)
        assert dual(D) == M


def test_jordan_types():
    kE = regular_module(F2, 2)
    assert jordan_type(kE, (1, 0)) == (2, 2)
    assert jordan_type(kE, (1, 1)) == (2, 2)
    k = quotient_by_linear_forms(F2, 2, [(1, 0), (0, 1)])
    assert jordan_type(k, (1, 0)) == (1,)
    M = quotient_by_linear_forms(F3, 2, [(1, 2)])
    assert jordan_type(M, (1, 2)) == (1, 1, 1)
    assert jordan_type(M, (1, 0)) == (3,)


def test_freeness_matches_jordan_type():
    mods = [
        regular_module(F2, 2),
        quotient_by_linear_forms(F2, 2, [(1, 0)]),
        quotient_by_linear_forms(F3, 2, [(1, 2)]),
        quotient_by_linear_forms(F2, 3, [(1, 1, 0)]),
    ]
    for M in mods:
        p = M.p
        for u in _nonzero_vectors(M.field, M.c):
            jt = jordan_type(M, u)
            assert is_free_over_line(M, u) == all(part == p for part in jt)


def _nonzero_vectors(field, c):
    from itertools import product

    for v in product(range(field.p), repeat=c):
        if any(v):
            yield v


def test_restrict_to_subspace():
    kE = regular_module(F2, 3)
    R = restrict_to_subspace(kE, [(1, 0, 0), (0, 1, 1)])
    assert R.c == 2 and R.n == 8
    assert R.actions[1] == action_of(kE, (0, 1, 1))
    with pytest.raises(ValueError):
        restrict_to_subspace(kE, [(1, 0, 0), (1, 0, 0)])
    with pytest.raises(ValueError):
        restrict_to_subspace(kE, [])


def test_zero_module():
    Z = zero_module(F2, 2)
    assert Z.n == 0


def test_linear_form_refuses_non_integer_coefficients():
    with pytest.raises(ValueError, match="integer"):
        LinearForm(F3, (1.5, 0))
    assert LinearForm(F3, (np.int64(4), True, 10**26)).coeffs == (1, 1, 1)


def test_dict_round_trip():
    # the zero module's actions are [] in JSON, each read back as 0 x 0
    for c in (1, 2, 3):
        Z = zero_module(F2, c)
        assert module_from_dict(module_to_dict(Z)) == Z
    for M in (regular_module(F2, 2), quotient_by_linear_forms(F3, 2, [(1, 2)])):
        d = module_to_dict(M)
        M2 = module_from_dict(d)
        assert M2 == M
        assert d["dim"] == M.n and d["p"] == M.p and d["c"] == M.c


def test_from_dict_rejects_garbage():
    good = module_to_dict(regular_module(F2, 2))
    for mutate in [
        lambda d: d.pop("p"),
        lambda d: d.update(p=6),
        lambda d: d.update(dim=3),
        lambda d: d.update(actions=d["actions"][:1]),
        lambda d: d["actions"][0].append([0, 0, 0, 0]),
        lambda d: d["actions"][0][0].append(1),
        lambda d: d["actions"][0][0].__setitem__(0, "x"),
        lambda d: d.update(c=0),
    ]:
        bad = module_to_dict(regular_module(F2, 2))
        mutate(bad)
        with pytest.raises(ValueError):
            module_from_dict(bad)
    assert module_from_dict(good) == regular_module(F2, 2)


def test_from_dict_rejects_booleans():
    # JSON's true and false load as bool, a subclass of int
    for doc in [
        {"p": True, "c": 1, "dim": 1, "actions": [[[0]]]},
        {"p": 2, "c": True, "dim": 1, "actions": [[[0]]]},
        {"p": 2, "c": 1, "dim": True, "actions": [[[0]]]},
        {"p": 2, "c": 1, "dim": 1, "actions": [[[False]]]},
    ]:
        with pytest.raises(ValueError, match="integer"):
            module_from_dict(doc)


def test_module_equality():
    assert regular_module(F2, 2) == regular_module(F2, 2)
    assert regular_module(F2, 2) != regular_module(F3, 2)


def test_module_deep_copies():
    M = quotient_by_linear_forms(F3, 2, [(1, 2)])
    twin = copy.deepcopy(M)
    assert twin == M and twin.actions[0] is not M.actions[0]
