import itertools
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from grassvar import fp, homology
from grassvar.errors import MinorLimitError, SyzygyLimitError
from grassvar.fp import MatrixFp, PrimeField, _kernel_free, _rref
from grassvar.grassmann import enumerate_subspaces, oracle_membership
from grassvar.homology import (
    ExtTable,
    ResolutionData,
    betti_numbers,
    ext_dims,
    ext_eventually_zero,
    resolve,
    syzygy_step,
)
from grassvar.modules import (
    KEModule,
    direct_sum,
    dual,
    quotient_by_linear_forms,
    regular_module,
    restrict_to_subspace,
    zero_module,
)
from grassvar.rankvariety import pair_variety_ideal

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def _mod(field, c, forms):
    return quotient_by_linear_forms(field, c, forms)


def test_betti_of_residue_field():
    k22 = _mod(F2, 2, [(1, 0), (0, 1)])
    assert betti_numbers(k22, 4) == [1, 2, 3, 4, 5]
    k32 = _mod(F3, 2, [(1, 0), (0, 1)])
    assert betti_numbers(k32, 5) == [1, 2, 3, 4, 5, 6]
    k23 = _mod(F2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert betti_numbers(k23, 5) == [1, 3, 6, 10, 15, 21]


def test_betti_of_free_and_periodic_modules():
    assert betti_numbers(regular_module(F2, 2), 6) == [1, 0, 0, 0, 0, 0, 0]
    assert betti_numbers(regular_module(F3, 2), 4) == [1, 0, 0, 0, 0]
    # kE/(x1) has a periodic resolution: multiply by x1, then by x1^(p-1)
    assert betti_numbers(_mod(F2, 2, [(1, 0)]), 6) == [1] * 7
    assert betti_numbers(_mod(F3, 2, [(1, 0)]), 6) == [1] * 7


def test_betti_shift_under_syzygy():
    k = _mod(F2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    b, omega = syzygy_step(k)
    assert b == 1
    assert betti_numbers(omega, 4) == betti_numbers(k, 5)[1:]


def test_syzygy_step_dimension_count():
    # dim of the syzygy is always b * p^c - dim M
    for field, c, forms in [
        (F2, 2, [(1, 0)]),
        (F3, 2, [(1, 0), (0, 1)]),
        (F2, 3, [(1, 1, 0)]),
    ]:
        M = _mod(field, c, forms)
        b, omega = syzygy_step(M)
        assert omega.n == b * field.p**c - M.n


def _dense_columns(res, i):
    """The generator columns of d_i as a dense array of shape
    (betti[i-1] * p^c, betti[i]): coefficient e of the kE-entry (t, s) at row
    t * p^c + e of column s.  Checks on the way that the entries are sorted
    by (t, s), distinct and nonzero."""
    m_alg = res.module.p**res.module.c
    t, s, coef = res.gen_columns[i - 1]
    assert (t.dtype, s.dtype, coef.dtype) == (np.intp, np.intp, np.int64)
    assert coef.shape == (t.size, m_alg) and s.shape == t.shape
    pairs = list(zip(t.tolist(), s.tolist()))
    assert pairs == sorted(set(pairs))
    assert coef.any(axis=1).all()
    out = np.zeros((res.betti[i - 1] * m_alg, res.betti[i]), dtype=np.int64)
    for (row, col), vec in zip(pairs, coef):
        out[row * m_alg : (row + 1) * m_alg, col] = vec
    return out


def test_gathered_covers_match_product_covers(catalog):
    # resolve(M, n + 1) covers every syzygy by a gather from the previous
    # kernel; resolve(omega, n) covers omega = syzygy_step(M) by products of
    # its action arrays.  The two must build the same resolution of omega.
    modules = [M for mods in catalog.values() for M in mods.values()]
    modules.append(_mod(F5, 2, [(1, 3)]))
    n = 4
    for M in modules:
        deep = resolve(M, n + 1)
        shallow = resolve(syzygy_step(M)[1], n)
        assert deep.betti[1:] == shallow.betti
        assert len(deep.gen_columns[1:]) == len(shallow.gen_columns)
        for a, b in zip(deep.gen_columns[1:], shallow.gen_columns):
            for x, y in zip(a, b):
                assert x.dtype == y.dtype and np.array_equal(x, y)


def _generator_indices(arrays, p):
    """homology._generators on a module given by dense action arrays."""
    return homology._generators(homology._side_by_side(arrays), arrays[0].shape[0], len(arrays), p)


def _product_actions(M):
    """The syzygy's action arrays by products: x_j acts on each generator
    block of the kernel by regular_module's matrix, and the kernel's free
    rows, where it is the identity, read the result off."""
    p, m_alg = M.p, M.p**M.c
    cur = [a.array for a in M.actions]
    gens = _generator_indices(cur, p)
    kernel, free = _kernel_free(homology._product_cover(cur, gens, p), p)
    blocks = kernel.reshape(len(gens), m_alg, kernel.shape[1])
    out = []
    for A in regular_module(M.field, M.c).actions:
        moved = np.zeros_like(kernel)
        for t, block in enumerate(blocks):
            moved[t * m_alg : (t + 1) * m_alg] = (A.array @ block) % p
        out.append(moved[free])
    return out


def test_syzygy_actions_match_regular_products():
    for field, c, forms in [
        (F2, 2, [(1, 0), (0, 1)]),
        (F2, 3, [(1, 1, 0)]),
        (F3, 2, [(1, 2)]),
        (F3, 2, [(1, 0), (0, 1)]),
        (F5, 2, [(1, 3)]),
        (F5, 2, [(1, 0), (0, 1)]),
    ]:
        M = _mod(field, c, forms)
        # the second and third syzygies cover kernels of several blocks
        for _ in range(3):
            omega = syzygy_step(M)[1]
            for a, w in zip(omega.actions, _product_actions(M)):
                assert np.array_equal(a.array, w)
            M = omega


def test_empty_syzygies():
    # a free module's syzygy is zero: its kernel has no columns, so the
    # gathers see no free rows
    for field in (F2, F3, F5):
        kE = regular_module(field, 2)
        b, omega = syzygy_step(kE)
        assert (b, omega.n) == (1, 0)
        assert [a.array.shape for a in omega.actions] == [(0, 0), (0, 0)]
        assert resolve(kE, 3).betti == (1, 0, 0, 0)
        k = _mod(field, 2, [(1, 0), (0, 1)])
        res = resolve(direct_sum(k, kE), 3)
        assert res.betti == (2, 2, 3, 4)
        for i in range(1, res.depth):
            d1, d2 = res.differential(i), res.differential(i + 1)
            assert not ((d1 @ d2) % field.p).any()


def test_resolution_differentials_compose_to_zero():
    for M in (
        _mod(F2, 2, [(1, 0), (0, 1)]),
        _mod(F3, 2, [(1, 2)]),
        _mod(F2, 3, [(1, 0, 0)]),
    ):
        p, m_alg = M.p, M.p**M.c
        res = resolve(M, 4)
        for i in range(1, res.depth + 1):
            d = res.differential(i)
            assert d.shape == (res.betti[i - 1] * m_alg, res.betti[i] * m_alg)
        for i in range(1, res.depth):
            d1, d2 = res.differential(i), res.differential(i + 1)
            assert np.all((d1 @ d2) % p == 0)


def test_resolution_is_minimal_and_exact():
    M = _mod(F2, 2, [(1, 0), (0, 1)])
    res = resolve(M, 4)
    m_alg = M.p**M.c
    # minimality: generator images live in the radical, so no entry of any
    # differential has a constant term
    for i, (_, _, coef) in enumerate(res.gen_columns, start=1):
        assert np.all(coef[:, 0] == 0)
        assert np.all(_dense_columns(res, i)[0::m_alg, :] == 0)
    # exactness: ker d_i = im d_(i+1) in the free tower
    from grassvar.fp import _rref

    for i in range(1, res.depth):
        d_i = res.differential(i)
        d_next = res.differential(i + 1)
        rank_i = len(_rref(d_i, M.p)[1])
        rank_next = len(_rref(d_next, M.p)[1])
        assert d_i.shape[1] == rank_i + rank_next


def test_resolution_metadata():
    M = _mod(F3, 2, [(1, 0)])
    res = resolve(M, 3)
    assert res.module == M
    assert res.depth == 3
    assert len(res.betti) == 4
    assert len(res.gen_columns) == 3
    # the generator columns are the whole record: d_i is read off them
    assert [f.name for f in fields(res)] == ["module", "betti", "gen_columns"]
    for i in (0, 4):
        with pytest.raises(ValueError):
            res.differential(i)


def test_resolution_data_compares_and_hashes_by_identity(cold_memos):
    res = resolve(_mod(F2, 2, [(1, 0), (0, 1)]), 3)
    copy = ResolutionData(
        res.module, res.betti, tuple(tuple(a.copy() for a in H) for H in res.gen_columns)
    )
    assert res == res and res != copy
    assert hash(res) == hash(res)
    assert len({res, copy}) == 2


def test_resolve_rejects_bad_input():
    with pytest.raises(ValueError):
        resolve(_mod(F2, 2, [(1, 0)]), -1)
    # a non-module never reaches resolve: its construction fails
    with pytest.raises(ValueError, match="not a kE-module: X1\\^2 != 0"):
        KEModule(F2, 1, 1, (MatrixFp(F2, [[1]]),))


def test_resolve_cover_cap(monkeypatch, cold_memos):
    monkeypatch.setattr(homology, "DEFAULT_CELL_CAP", 50)
    k = _mod(F2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(SyzygyLimitError):
        resolve(k, 10)
    # a call that raises stores nothing in the memo
    assert resolve.cache_info().currsize == 0


def test_resolve_caps_cells_not_columns(monkeypatch, cold_memos):
    # trivial action on k^40 over c = 1: the cover has only 80 columns, but
    # it and its kernel are 40 x 80 and 80 x 40, 3200 cells each
    n = 40
    M = KEModule(F2, 1, n, (MatrixFp.zeros(F2, n, n),))
    monkeypatch.setattr(homology, "DEFAULT_CELL_CAP", 1000)
    with pytest.raises(SyzygyLimitError) as refused:
        resolve(M, 1)
    assert str(refused.value) == (
        "free cover of a dimension-40 module by 80 columns at degree 0 counts as a "
        "dense matrix of 3200 cells, over the cap of 1000"
    )
    monkeypatch.setattr(homology, "DEFAULT_CELL_CAP", 3200)
    assert resolve(M, 1).betti == (n, n)


def test_ext_of_residue_field_equals_betti():
    # dim Ext^i(M, k) counts minimal generators in homological degree i
    for field, c, forms in [
        (F2, 2, [(1, 0)]),
        (F2, 2, [(1, 1)]),
        (F3, 2, [(1, 0), (0, 1)]),
        (F2, 3, [(0, 1, 0)]),
    ]:
        M = _mod(field, c, forms)
        k = _mod(field, c, [tuple(1 if i == j else 0 for i in range(c)) for j in range(c)])
        bound = 6
        assert list(ext_dims(M, k, bound)) == betti_numbers(M, bound)


def test_ext_hand_checked_values():
    Rx = _mod(F2, 2, [(1, 0)])
    Ry = _mod(F2, 2, [(0, 1)])
    # Hom is one dimensional (send 1 to the socle direction), higher Ext dies
    assert list(ext_dims(Rx, Ry, 8)) == [1, 0, 0, 0, 0, 0, 0, 0, 0]
    k = _mod(F2, 2, [(1, 0), (0, 1)])
    assert list(ext_dims(k, k, 6)) == [1, 2, 3, 4, 5, 6, 7]
    # Omega k = rad kE is not self-dual: Hom(k, Omega k) is its socle, and
    # by dimension shifting Ext^i(k, Omega k) is the stable End(k) at i = 1
    # and Ext^(i-1)(k, k) beyond
    assert list(ext_dims(k, syzygy_step(k)[1], 4)) == [1, 1, 2, 3, 4]
    kE = regular_module(F2, 2)
    # Ext against a free target vanishes above degree zero; Hom(M, kE) has
    # dim M by self-duality of the regular module
    assert list(ext_dims(Rx, kE, 5)) == [2, 0, 0, 0, 0, 0]
    assert list(ext_dims(kE, Ry, 5)) == [2, 0, 0, 0, 0, 0]


def _ext_from_k_by_the_tensor_resolution(N, bound):
    """dim Ext^n(k, N) for n <= bound by a route that shares no code with
    resolve: the tensor product over i of the periodic resolutions
    .. -> A --x^(p-1)--> A --x--> A -> k of k over each factor
    A = k[x_i]/(x_i^p) of kE.  Its F_n has a basis e_b, b in N^c with
    |b| = n, and d(e_b) = sum_i (-1)^(b_1 + .. + b_(i-1)) theta_i(b_i)
    e_(b - eps_i), theta_i = x_i for odd b_i and x_i^(p-1) for even b_i > 0.
    So Ext^n(k, N) = b_n dim N - rank delta_n - rank delta_(n-1) for the
    cochain maps delta_n of Hom(F_*, N); only fp._matmul and fp._rank are
    used."""
    p, c, n = N.p, N.c, N.n
    X = [a.array for a in N.actions]
    top = []
    for a in X:
        power = np.eye(n, dtype=np.int64)
        for _ in range(p - 1):
            power = fp._matmul(power, a, p)
        top.append(power)
    bases = [[b for b in itertools.product(range(m + 1), repeat=c) if sum(b) == m] for m in range(bound + 2)]
    ranks = []
    for m in range(bound + 1):
        col = {b: j for j, b in enumerate(bases[m])}
        delta = np.zeros((len(bases[m + 1]) * n, len(col) * n), dtype=np.int64)
        for r, g in enumerate(bases[m + 1]):
            for i in range(c):
                if g[i]:
                    j = col[g[:i] + (g[i] - 1,) + g[i + 1:]]
                    theta = X[i] if g[i] % 2 else top[i]
                    delta[r * n : (r + 1) * n, j * n : (j + 1) * n] = (-1) ** sum(g[:i]) * theta % p
        ranks.append(fp._rank(delta, p))
    return tuple(len(bases[m]) * n - ranks[m] - (ranks[m - 1] if m else 0) for m in range(bound + 1))


@pytest.mark.parametrize(("p", "c", "bound"), [(2, 2, 8), (3, 2, 8), (5, 2, 8), (2, 3, 6), (3, 3, 6)])
def test_ext_from_k_matches_the_tensor_resolution_of_k(hom_catalog, p, c, bound):
    cat = hom_catalog[(p, c)]
    for name, N in cat.items():
        assert ext_dims(cat["k"], N, bound).dims == _ext_from_k_by_the_tensor_resolution(N, bound), name


def test_ext_contravariant_duality():
    # Ext^i(M, N) and Ext^i(dual N, dual M) have the same dimensions
    mods = [
        _mod(F2, 2, [(1, 0)]),
        _mod(F2, 2, [(0, 1)]),
        _mod(F2, 2, [(1, 1)]),
        regular_module(F2, 2),
        _mod(F2, 2, [(1, 0), (0, 1)]),
    ]
    for M in mods:
        for N in mods:
            a = list(ext_dims(M, N, 5))
            b = list(ext_dims(dual(N), dual(M), 5))
            assert a == b, (M.n, N.n)


def test_ext_table_interface():
    M = _mod(F2, 2, [(1, 0)])
    t = ext_dims(M, M, 3)
    assert isinstance(t, ExtTable)
    assert len(t) == 4
    # End(kE/(x1)) contains the identity and multiplication by x2
    assert t[0] == 2
    assert list(t) == list(t.dims)
    assert t.bound == 3


def test_ext_zero_module_edges():
    Z = zero_module(F2, 2)
    M = _mod(F2, 2, [(1, 0)])
    assert list(ext_dims(Z, M, 3)) == [0, 0, 0, 0]
    assert list(ext_dims(M, Z, 3)) == [0, 0, 0, 0]
    assert ext_eventually_zero(Z, M)
    assert ext_eventually_zero(M, Z)
    assert ext_eventually_zero(Z, Z)
    assert betti_numbers(Z, 3) == [0, 0, 0, 0]


def test_zero_hom_space_is_projective_through_the_covers(cold_memos):
    # h = 0 has no case of its own: the zero module's restricted covers are
    # empty, and the 0 x 0 PHom matrix has rank 0, which is h / p^d
    Z = zero_module(F2, 3)
    M = _mod(F2, 3, [(1, 0, 0)])
    for rows in ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0]], [[0, 1, 1], [0, 0, 1]]):
        forms = MatrixFp(F2, rows)
        assert homology._hom_projective(Z, M, forms) and homology._hom_projective(M, Z, forms)
        assert homology._hom_projective(Z, Z, forms)
        assert homology._restricted_cover(Z, forms).size == 0


def test_ext_resolution_reuse(cold_memos):
    # Ext tables of one source against three targets resolve it once
    M = _mod(F3, 2, [(1, 0)])
    targets = [_mod(F3, 2, [(0, 1)]), _mod(F3, 2, [(1, 0), (0, 1)]), regular_module(F3, 2)]
    cold = []
    for N in targets:
        resolve.cache_clear()
        cold.append(ext_dims(M, N, 6).dims)
    resolve.cache_clear()
    warm = [ext_dims(M, N, 6).dims for N in targets]
    info = resolve.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert warm == cold
    assert resolve(M, 7) is resolve(M, 7)


def test_cached_gen_columns_are_read_only(cold_memos):
    res = resolve(_mod(F2, 2, [(1, 0), (0, 1)]), 3)
    for H in res.gen_columns:
        assert len(H) == 3
        for a in H:
            assert a.size
            with pytest.raises(ValueError):
                a.flat[0] = 1


def _regular_power(field, c, e):
    """The matrix of x^e on kE, e in base-p index order, by plain powers of
    the monomial-basis shift matrices."""
    p = field.p
    R = np.eye(p**c, dtype=np.int64)
    for A in regular_module(field, c).actions:
        R = (R @ np.linalg.matrix_power(A.array, e % p)) % p
        e //= p
    return R


def test_differential_matches_regular_block_products():
    # column t * p^c + e of d_i is x^e times generator column t: the
    # block-diagonal action of x^e on F_(i-1) applied to that column
    for field, c, forms in [
        (F2, 2, [(1, 0), (0, 1)]),
        (F2, 3, [(1, 1, 0)]),
        (F3, 2, [(1, 2)]),
        (F3, 2, [(1, 0), (0, 1)]),
        (F5, 2, [(1, 3)]),
    ]:
        M = _mod(field, c, forms)
        p, m_alg = field.p, field.p**c
        res = resolve(direct_sum(M, _mod(field, c, [(1,) + (0,) * (c - 1)])), 4)
        for i in range(1, res.depth + 1):
            H = _dense_columns(res, i)
            want = np.zeros((H.shape[0], H.shape[1] * m_alg), dtype=np.int64)
            for e in range(m_alg):
                block = np.kron(np.eye(res.betti[i - 1], dtype=np.int64), _regular_power(field, c, e))
                want[:, e::m_alg] = (block @ H) % p
            got = res.differential(i)
            assert got.dtype == want.dtype and np.array_equal(got, want), (p, c, forms, i)


def _conjugate(M, seed):
    """M in a random dense basis: each action X becomes g X g^-1 for a
    random invertible g, the inverse read off the rref of [g | 1]."""
    p, n = M.p, M.n
    rng = np.random.default_rng(seed)
    while True:
        g = rng.integers(0, p, (n, n))
        red, piv = _rref(np.hstack([g, np.eye(n, dtype=np.int64)]), p)
        if piv[:n] == list(range(n)):
            break
    g_inv = red[:, n:]
    actions = tuple(MatrixFp(M.field, g @ X.array @ g_inv) for X in M.actions)
    return KEModule(M.field, M.c, n, actions)


def test_generators_of_a_dense_basis_match_the_stacked_rref(catalog, monkeypatch, cold_memos):
    # dense actions leave few singleton rows, so the generator search runs
    # through the dense remainder; the complement of the pivots of the
    # stacked transposes is the reference
    calls = []
    monkeypatch.setattr(fp, "_rref", lambda b, q: calls.append(b.shape) or _rref(b, q))
    through_remainder = 0
    for p, c in [(2, 3), (3, 2)]:
        for seed, M in enumerate(catalog[p, c].values()):
            C = _conjugate(M, seed)
            arrays = [X.array for X in C.actions]
            piv = set(_rref(np.concatenate([a.T for a in arrays]), p)[1])
            calls.clear()
            assert _generator_indices(arrays, p) == [j for j in range(C.n) if j not in piv]
            through_remainder += bool(calls)
            assert betti_numbers(C, 4) == betti_numbers(M, 4)
    assert through_remainder >= 8


# The dense route resolve took before covers, kernels and actions were held
# by their nonzeros: every cover after the first a dense gather from the
# previous kernel, every kernel a dense _kernel_free.  It is the reference
# for the sparse route.


def _dense_gather_cover(kernel, free, gens, p, c):
    """Column t * p^c + e is x^e applied to basis vector gens[t]: row r is
    kernel[free[r] - e, gens[t]] where x^e divides the monomial of
    free[r], and 0 elsewhere."""
    m_alg = p**c
    rows = kernel.shape[0]
    b = len(gens)
    digits = (np.arange(m_alg)[:, None] // p ** np.arange(c)) % p
    # divides[f, e]: x^e divides x^f, i.e. no digit of e exceeds that of f
    divides = (digits[:, None, :] >= digits[None, :, :]).all(axis=2)
    src = free[:, None] - np.arange(m_alg)
    # a row that x^e does not reach reads the zero column appended below
    src[~divides[free % m_alg]] = rows
    cols = np.zeros((b, rows + 1), dtype=np.int64)
    cols[:, :rows] = kernel[:, gens].T
    cover = cols[np.arange(b)[None, :, None], src[:, None, :]]
    return cover.reshape(len(free), b * m_alg)


def _dense_syzygy(cover, p, c):
    """The dense kernel of a cover, its free rows, and the kernel's action
    arrays: row r of x_j's array is row free[r] - p^j of the kernel, or 0
    where digit j of free[r] is 0."""
    kernel, free_list = _kernel_free(cover, p)
    free = np.asarray(free_list, dtype=np.intp)
    actions = []
    for j in range(c):
        step = p**j
        unreached = (free // step) % p == 0
        a = kernel[np.where(unreached, 0, free - step)]
        a[unreached] = 0
        actions.append(a)
    return kernel, free, actions


def _dense_resolve(M, bound):
    """(betti, gen_columns) of M's minimal resolution by the dense route."""
    p, c = M.p, M.c
    betti, gen_columns = [], []
    cur = [a.array for a in M.actions]
    kernel = free = None
    for i in range(bound + 1):
        gens = _generator_indices(cur, p)
        betti.append(len(gens))
        if kernel is not None:
            columns = kernel[:, gens]
            columns.setflags(write=False)
            gen_columns.append(columns)
        if i == bound:
            break
        if kernel is None:
            cover = homology._product_cover(cur, gens, p)
        else:
            cover = _dense_gather_cover(kernel, free, gens, p, c)
        kernel, free, cur = _dense_syzygy(cover, p, c)
    return tuple(betti), gen_columns


def _assert_matches_dense_route(M, bound):
    res = resolve(M, bound)
    betti, gen_columns = _dense_resolve(M, bound)
    assert res.betti == betti
    assert len(res.gen_columns) == len(gen_columns)
    for i, want in enumerate(gen_columns, start=1):
        got = _dense_columns(res, i)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not want.flags.writeable
        assert not any(a.flags.writeable for a in res.gen_columns[i - 1])
    p, c = M.p, M.c
    for i in range(1, res.depth + 1):
        H = gen_columns[i - 1]
        want = _dense_gather_cover(H, np.arange(H.shape[0]), list(range(H.shape[1])), p, c)
        got = res.differential(i)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_sparse_resolution_matches_the_dense_route(hom_catalog, cold_memos):
    for p, c in [(2, 2), (3, 2), (2, 3), (5, 2)]:
        for M in hom_catalog[p, c].values():
            _assert_matches_dense_route(M, 5)
    k23 = _mod(F2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    _assert_matches_dense_route(k23, 12)
    k33 = _mod(F3, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    _assert_matches_dense_route(k33, 6)


def test_sparse_resolution_of_a_dense_basis_matches_the_dense_route(catalog, cold_memos):
    # a dense change of basis leaves the cover of M dense; every later step
    # runs on nonzeros whatever the basis of M
    for p, c in [(2, 2), (3, 2), (2, 3)]:
        for seed, M in enumerate(catalog[p, c].values()):
            _assert_matches_dense_route(_conjugate(M, seed), 4)
    for seed, forms in enumerate([[(1, 3)], [(1, 0), (0, 1)], [(2, 1)]]):
        _assert_matches_dense_route(_conjugate(direct_sum(_mod(F5, 2, forms), _mod(F5, 2, [(1, 1)])), seed), 4)


def _dense_cochains(res, N, bound):
    """The Ext cochain matrices of degrees 0..bound by the dense route
    ext_dims took before the differentials were held as kE-entries: a
    tensordot of the dense generator columns with the matrices rho[e] of
    x^e on N, here plain products of powers of N's actions.  None where a
    Betti number is 0, since ext_dims ranks no matrix there."""
    p, c, n = N.p, N.c, N.n
    m_alg = p**c
    rho = np.empty((m_alg, n, n), dtype=np.int64)
    for e in range(m_alg):
        R = np.eye(n, dtype=np.int64)
        for j, X in enumerate(N.actions):
            R = (R @ np.linalg.matrix_power(X.array, (e // p**j) % p)) % p
        rho[e] = R
    out = []
    for i in range(bound + 1):
        b_i, b_next = res.betti[i], res.betti[i + 1]
        if b_i == 0 or b_next == 0:
            out.append(None)
            continue
        gen_cols = _dense_columns(res, i + 1).reshape(b_i, m_alg, b_next)
        cochain = np.tensordot(gen_cols, rho, axes=([1], [0]))
        out.append(cochain.transpose(1, 2, 0, 3).reshape(b_next * n, b_i * n) % p)
    return out


def test_sparse_cochains_match_the_dense_tensordot(hom_catalog, monkeypatch):
    # every matrix ext_dims ranks, entry for entry, against the dense route
    ranked = []
    monkeypatch.setattr(homology, "_rank", lambda a, p: ranked.append(a.copy()) or fp._rank(a, p))
    bound = 5
    compared = 0
    for p, c in [(2, 2), (3, 2), (2, 3), (5, 2)]:
        for M, N in itertools.product(hom_catalog[p, c].values(), repeat=2):
            ranked.clear()
            ext_dims(M, N, bound)
            want = [w for w in _dense_cochains(resolve(M, bound + 1), N, bound) if w is not None]
            assert len(ranked) == len(want)
            for got, w in zip(ranked, want):
                assert got.dtype == w.dtype and np.array_equal(got, w), (p, c)
                compared += got.any()
    assert compared > 500


def test_deep_resolution_keeps_little_memory(cold_memos):
    # resolve(k, 21) over (2,3) held 18.4 MB as dense generator columns, for
    # 5,313 nonzeros; as kE-entries it keeps under half a megabyte
    k = _mod(F2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    tracemalloc.start()
    try:
        res = resolve(k, 21)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.betti[-1] == 253
    assert kept < 2 * 2**20


def test_ext_mismatched_modules_rejected():
    with pytest.raises(ValueError):
        ext_dims(_mod(F2, 2, [(1, 0)]), _mod(F3, 2, [(1, 0)]), 3)
    with pytest.raises(ValueError):
        ext_dims(_mod(F2, 2, [(1, 0)]), _mod(F2, 3, [(1, 0, 0)]), 3)
    with pytest.raises(ValueError):
        ext_eventually_zero(_mod(F2, 2, [(1, 0)]), _mod(F3, 2, [(1, 0)]))
    with pytest.raises(ValueError):
        ext_eventually_zero(_mod(F2, 2, [(1, 0)]), _mod(F2, 3, [(1, 0, 0)]))
    with pytest.raises(ValueError):
        ext_dims(_mod(F2, 2, [(1, 0)]), _mod(F2, 2, [(1, 0)]), -1)


def test_ext_eventually_zero_decisions():
    Rx = _mod(F2, 2, [(1, 0)])
    Ry = _mod(F2, 2, [(0, 1)])
    k = _mod(F2, 2, [(1, 0), (0, 1)])
    kE = regular_module(F2, 2)
    assert ext_eventually_zero(Rx, Ry)
    assert not ext_eventually_zero(Rx, Rx)
    assert not ext_eventually_zero(k, Rx)
    assert ext_eventually_zero(k, kE)
    assert ext_eventually_zero(kE, k)


def test_ext_eventually_zero_rejects_non_modules():
    # neither argument can be a non-module: its construction fails
    # a 3x3 Jordan block has X^2 != 0 over F_2
    X = MatrixFp(F2, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError, match="not a kE-module: X1\\^2 != 0"):
        KEModule(F2, 2, 3, (X, MatrixFp.zeros(F2, 3, 3)))
    a = MatrixFp(F3, [[0, 0], [1, 0]])
    b = MatrixFp(F3, [[0, 1], [0, 0]])
    with pytest.raises(ValueError, match="not a kE-module: X1 and X2 do not commute"):
        KEModule(F3, 2, 2, (a, b))


def test_ext_eventually_zero_caps_the_hom_space():
    # trivial action on k^300: the PHom matrix of the 90000-dimensional Hom
    # space has 90000^2 cells, over the cap
    n = 300
    big = KEModule(F2, 2, n, (MatrixFp.zeros(F2, n, n),) * 2)
    with pytest.raises(SyzygyLimitError):
        ext_eventually_zero(big, big)


def test_ext_eventually_zero_caps_the_hom_space_cells(monkeypatch):
    # trivial actions over c = 3: on k^64 the PHom matrix has only 64^2 = 4096
    # rows, but 4096^2 = 16.8 M cells
    n = 64
    M = KEModule(F2, 3, n, (MatrixFp.zeros(F2, n, n),) * 3)
    with pytest.raises(SyzygyLimitError) as refused:
        ext_eventually_zero(M, M)
    assert str(refused.value) == (
        "PHom matrix of a dimension-4096 Hom space and its covers need 16777216 "
        "cells, over the cap of 10000000"
    )
    # on k^55, 8 does not divide 55^2, so Hom is not free and no matrix is
    # built: the answer needs no cells at all
    n = 55
    M = KEModule(F2, 3, n, (MatrixFp.zeros(F2, n, n),) * 3)
    monkeypatch.setattr(homology, "DEFAULT_CELL_CAP", 0)
    assert not ext_eventually_zero(M, M)


def test_ext_eventually_zero_reaches_dimension_54_over_3_3():
    # M = kE + 3 kE/(x1) has dimension 27 + 3 * 9 = 54 over (3,3); a c * h x h
    # radical matrix of Hom(M, M) would need 3 * 2916^2 = 25.5 M cells, the
    # h x h PHom matrix needs 8.5 M.  V(M) is the line of x1, which meets
    # V(kE/(x2) + kE/(x3)) only at 0.
    q = [_mod(F3, 3, [f]) for f in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]
    kE = regular_module(F3, 3)
    M = direct_sum(direct_sum(direct_sum(kE, q[0]), q[0]), q[0])
    N = direct_sum(direct_sum(direct_sum(kE, q[1]), q[2]), q[1])
    assert M.n == N.n == 54
    assert not ext_eventually_zero(M, M)
    assert ext_eventually_zero(M, N)


def _rank_mod_p(a, p):
    """Rank over F_p by forward elimination, sharing no code with fp."""
    a = a % p
    rank = 0
    for j in range(a.shape[1]):
        nz = np.flatnonzero(a[rank:, j])
        if nz.size == 0:
            continue
        a[[rank, rank + nz[0]]] = a[[rank + nz[0], rank]]
        row = a[rank, j:] * pow(int(a[rank, j]), p - 2, p) % p
        hit = rank + 1 + np.flatnonzero(a[rank + 1 :, j])
        a[hit, j:] = (a[hit, j:] - np.outer(a[hit, j], row)) % p
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


def _radical_rank_free(M, N):
    """Reference for ext_eventually_zero by a route it does not share: whether
    H = Hom_k(M, N) is free, as dim H = p^c dim H / rad H.

    With G = 1 + X, x_i acts on column-major vec(f) by
    A_i = (G_M^-T kron G_N) - I, and rad H is the span of the images of
    those c matrices, so the test is one rank of the dense h x c * h matrix
    [A_1 .. A_c].
    """
    p = M.p
    h = M.n * N.n
    if h == 0:
        return True
    blocks = []
    for X, Y in zip(M.actions, N.actions):
        # (1 + X)^-1 = sum_{k < p} (-X)^k, since X^p = 0
        neg = (-X.array) % p
        inv = term = np.eye(M.n, dtype=np.int64)
        for _ in range(p - 1):
            term = (term @ neg) % p
            inv = (inv + term) % p
        g_n = (np.eye(N.n, dtype=np.int64) + Y.array) % p
        blocks.append(np.kron(inv.T, g_n) - np.eye(h, dtype=np.int64))
    return h == p**M.c * (h - _rank_mod_p(np.concatenate(blocks, axis=1), p))


def test_hom_projectivity_agrees_with_the_radical_rank(hom_catalog):
    # every pair of the catalog, and of its restrictions to every rational
    # W, over (2,2), (3,2), (2,3), (3,3) and (5,2); the oracle's homological
    # flag reads the restricted arrays straight off W, so it is checked
    # against restrict_to_subspace wherever the pair's order-one ideal is
    # within the minor caps
    answers = set()
    oracle_checks = 0
    for (p, c), cat in hom_catalog.items():
        field = PrimeField(p)
        pairs = list(itertools.product(cat.values(), repeat=2))
        for M, N in pairs:
            assert ext_eventually_zero(M, N) == _radical_rank_free(M, N), (p, c)
        ideals = {}
        for M, N in pairs:
            try:
                ideals[M, N] = pair_variety_ideal(M, N)
            except MinorLimitError:
                pass
        for d in range(1, c + 1):
            for W in enumerate_subspaces(field, c, d):
                rows = W.rows()
                for M, N in pairs:
                    MW = restrict_to_subspace(M, rows)
                    NW = restrict_to_subspace(N, rows)
                    vanishes = ext_eventually_zero(MW, NW)
                    assert vanishes == _radical_rank_free(MW, NW), (p, c, rows)
                    answers.add(vanishes)
                    if (M, N) in ideals:
                        _, homological = oracle_membership(M, N, d, W, ideals[M, N])
                        assert homological == (not vanishes), (p, c, rows)
                        oracle_checks += 1
    assert answers == {False, True}
    assert oracle_checks > 2000


def test_ext_dims_caps_the_cochain_cells(monkeypatch, cold_memos):
    # k over (2,2) has Betti numbers 1, 2, 3, 4, so into the trivial module
    # k^30 the cochain matrices of degrees 0, 1, 2 have 2, 6 and 12 times
    # 30^2 cells, while no cover or kernel of the resolution exceeds 84
    k = _mod(F2, 2, [(1, 0), (0, 1)])
    n = 30
    N = KEModule(F2, 2, n, (MatrixFp.zeros(F2, n, n),) * 2)
    monkeypatch.setattr(homology, "DEFAULT_CELL_CAP", 12 * n * n - 1)
    with pytest.raises(SyzygyLimitError) as refused:
        ext_dims(k, N, 2)
    assert str(refused.value) == "Ext^2 cochain matrix is 120x90, 10800 cells, over the cap of 10799"
    monkeypatch.setattr(homology, "DEFAULT_CELL_CAP", 12 * n * n)
    assert ext_dims(k, N, 2).dims == (n, 2 * n, 3 * n)


def test_ext_dims_caps_the_target_cover(monkeypatch, cold_memos):
    # k over (2,3) into the trivial module k^30: the degree-0 cochain matrix
    # has 3 * 30^2 = 2700 cells, but the monomial cover of the target that
    # it is built from has 8 * 30^2 = 7200
    k = _mod(F2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    n = 30
    N = KEModule(F2, 3, n, (MatrixFp.zeros(F2, n, n),) * 3)
    monkeypatch.setattr(homology, "DEFAULT_CELL_CAP", 3 * n * n)
    with pytest.raises(SyzygyLimitError) as refused:
        ext_dims(k, N, 0)
    assert str(refused.value) == (
        "monomial cover of the dimension-30 target needs 7200 cells, over the cap of 2700"
    )
    monkeypatch.setattr(homology, "DEFAULT_CELL_CAP", 8 * n * n)
    assert ext_dims(k, N, 0).dims == (n,)
