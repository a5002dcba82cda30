import copy
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from grassvar import fp
from grassvar.fp import (
    MatrixFp,
    PrimeField,
    _kernel_free,
    _kernel_sparse,
    _matmul,
    _packed_fields,
    _pivot_columns,
    _rank,
    _rref,
)
from test_homology import _rank_mod_p

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)
F3 = PrimeField(3)


def test_prime_field_accepts_primes():
    for p in (2, 3, 5, 7, 11, 97):
        assert PrimeField(p).p == p


def test_prime_field_rejects_nonprimes():
    for p in (0, 1, 4, 6, 9, 91, 98, 101):
        with pytest.raises(ValueError):
            PrimeField(p)


def test_prime_field_reads_p_as_an_int():
    # a numpy integer is read as the int it holds, end to end; a float is
    # refused at the boundary, before any module is built
    from grassvar import ext_dims, quotient_by_linear_forms, rank_variety_ideal

    F = PrimeField(np.int64(3))
    assert type(F.p) is int and F == PrimeField(3)
    for field in (F, PrimeField(3)):
        M = quotient_by_linear_forms(field, 2, [(1, 0)])
        assert str(rank_variety_ideal(M).gb) == "ideal(a2^2)"
        assert ext_dims(M, M, 4).dims == (3, 3, 3, 3, 3)
    for p in (3.0, 2.5, "3", None):
        with pytest.raises(ValueError, match="integer"):
            PrimeField(p)


def test_inverse():
    for p in (2, 3, 5, 13):
        F = PrimeField(p)
        for a in range(1, p):
            assert (a * F.inv(a)) % p == 1
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).inv(0)


def _random_matrix(rng, rows, cols, p):
    return np.array(
        [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
        dtype=np.int64,
    )


def test_matmul_matches_python_reference():
    rng = random.Random(11)
    for p in (2, 3, 97):
        for _ in range(5):
            n, m, k = rng.randrange(1, 6), rng.randrange(1, 6), rng.randrange(1, 6)
            a = _random_matrix(rng, n, m, p)
            b = _random_matrix(rng, m, k, p)
            got = _matmul(a, b, p)
            for i in range(n):
                for j in range(k):
                    want = sum(int(a[i, t]) * int(b[t, j]) for t in range(m)) % p
                    assert got[i, j] == want


def test_rref_shape_and_idempotence():
    rng = random.Random(5)
    for p in (2, 3, 5):
        for _ in range(20):
            a = _random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7), p)
            red, piv = _rref(a, p)
            assert list(piv) == sorted(piv)
            for r, j in enumerate(piv):
                col = red[:, j]
                assert col[r] == 1 and np.count_nonzero(col) == 1
            again, piv2 = _rref(red, p)
            assert np.array_equal(again, red) and list(piv2) == list(piv)


def test_kernel_annihilates_and_has_identity_block():
    rng = random.Random(13)
    for p in (2, 3):
        for _ in range(20):
            a = _random_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 7), p)
            k, free = _kernel_free(a, p)
            assert np.all(_matmul(a, k, p) == 0)
            assert k.shape[1] == len(free)
            assert np.array_equal(k[free, :], np.eye(len(free), dtype=np.int64))
            assert len(free) + len(_rref(a, p)[1]) == a.shape[1]


# Widths on both sides of 64-bit word boundaries.
WORD_WIDTHS = (63, 64, 65, 127, 128, 129, 200)
WIDE_ROWS = (0, 1, 40, 64, 150)


def _wide_matrices(p):
    """Seeded matrices over F_p of every (rows, width) pair: a full-rank-ish
    dense one, a sparse one and one of rank at most 30, so that pivot and
    free columns interleave across word boundaries."""
    rng = np.random.default_rng(17 + p)
    for n in WORD_WIDTHS:
        for m in WIDE_ROWS:
            yield rng.integers(0, p, (m, n))
            yield rng.integers(0, p, (m, n)) * (rng.random((m, n)) < 0.05)
            r = min(30, m)
            yield (rng.integers(0, p, (m, r)) @ rng.integers(0, p, (r, n))) % p


def _sympy_rref_dm(a, p):
    """sympy's reduced row echelon form of a over F_p, as a DomainMatrix
    over GF(p), and its pivot columns; sympy shares no code with grassvar."""
    K = GF(p)
    m, n = a.shape
    red, pivots = DomainMatrix([[K(int(v)) for v in row] for row in a.tolist()], (m, n), K).rref()
    return red, list(pivots)


def _sympy_rref(a, p):
    """The reduced row echelon form of a over F_p and its pivot columns."""
    red, pivots = _sympy_rref_dm(a, p)
    out = np.zeros(a.shape, dtype=np.int64)
    for i, row in enumerate(red.to_list()):
        out[i] = [int(v) % p for v in row]
    return out, pivots


def test_rref_matches_sympy_domain_matrix():
    # _wide_matrices up to 40 rows: sympy's GF(p) arithmetic costs about a
    # microsecond an operation, so its 64- and 150-row matrices would take
    # about 100 s; the ranks of those are checked against _rank_mod_p
    rng = np.random.default_rng(29)
    for p in (2, 3, 5, 7, 97):
        drawn = [a for a in _wide_matrices(p) if a.shape[0] <= 40]
        # entries below 0 and past p, read mod p
        drawn += [rng.integers(-3 * p, 3 * p, shape) for shape in [(1, 1), (2, 3), (5, 4), (9, 17), (16, 33)]]
        for a in drawn:
            red, pivots = _rref(a, p)
            want, want_pivots = _sympy_rref(a, p)
            assert pivots == want_pivots
            assert red.dtype == np.int64 and np.array_equal(red, want)


def test_rref_and_kernel_read_entries_mod_p():
    # 3 is 0 over F_3, so column 1 is the pivot and e_0 spans the kernel
    a = np.array([[3, 1]])
    red, pivots = _rref(a, 3)
    assert red.tolist() == [[0, 1]] and pivots == [1]
    k, free = _kernel_free(a, 3)
    assert k.tolist() == [[1], [0]] and free == [0]


def _sympy_nullspace(a, p):
    """A basis of the kernel of a over F_p, as columns, and the pivot
    columns: the nullspace that sympy's DomainMatrix.nullspace builds from
    its rref."""
    red, pivots = _sympy_rref_dm(a, p)
    basis = red.nullspace_from_rref(pivots).to_list()
    return np.array([[int(v) % p for v in row] for row in basis], dtype=np.int64).reshape(-1, a.shape[1]).T, pivots


def test_kernel_matches_entrywise_reference_across_words():
    # A kernel basis with an identity block on given columns is unique, so
    # spanning sympy's nullspace, with the identity block on the non-pivot
    # columns of sympy's rref, makes k the canonical kernel entry by entry.
    # Matrices up to 40 rows, as for the rref; the larger ones are checked
    # against _rank_mod_p, which shares no code with fp either.
    for p in (2, 3, 5):
        for a in _wide_matrices(p):
            n = a.shape[1]
            k, free = _kernel_free(a, p)
            assert k.dtype == np.int64 and k.shape == (n, len(free))
            assert np.array_equal(k[free], np.eye(len(free), dtype=np.int64))
            assert not np.any(a @ k % p)
            if a.shape[0] > 40:
                assert len(free) == n - _rank_mod_p(a, p)
                continue
            want, pivots = _sympy_nullspace(a, p)
            assert free == [j for j in range(n) if j not in pivots]
            assert want.shape == k.shape
            assert _rank_mod_p(np.hstack([k, want]), p) == len(free)


def test_rank_matches_rref_and_an_independent_elimination():
    # every word width of the packed F_2 rows, the 8-, 16- and 32-bit fields
    # of odd p, and matrices with no rows
    for p in (2, 3, 5, 7, 97):
        for a in _wide_matrices(p):
            assert _rank(a, p) == len(_rref(a, p)[1]) == _rank_mod_p(a, p)


def test_rank_of_empty_and_unreduced_matrices():
    for p in (2, 3, 5, 7, 97):
        assert _rank(np.zeros((4, 0), dtype=np.int64), p) == 0
        assert _rank(np.zeros((0, 4), dtype=np.int64), p) == 0
    # multiples of p are zero and negative entries count by their residue:
    # mod 2 the rows are 0 and (1, 1, 1), mod 3 they are 0, v and 2v
    assert _rank(np.array([[2, 4, -2], [1, -1, 3]]), 2) == 1
    assert _rank(np.array([[3, 6, -3], [1, -2, 4], [2, 2, -1]]), 3) == 1
    rng = np.random.default_rng(23)
    for p in (2, 3, 5, 7, 97):
        for m, n in [(1, 1), (5, 7), (40, 65), (70, 129)]:
            a = rng.integers(-3 * p, 3 * p, (m, n))
            assert _rank(a, p) == _rank(a % p, p) == _rank_mod_p(a, p)


@PROPERTY
@given(st.sampled_from([2, 3, 5, 7, 97]).flatmap(lambda p: st.tuples(sparse_matrices(p), sparse_matrices(p))))
def test_rank_is_transpose_invariant_and_adds_over_blocks(drawn):
    (p, a), (_, b) = drawn
    ra, rb = _rank(a, p), _rank(b, p)
    assert _rank(a.T, p) == ra
    (m, n), (r, s) = a.shape, b.shape
    block = np.zeros((m + r, n + s), dtype=np.int64)
    block[:m, :n] = a
    block[m:, n:] = b
    assert _rank(block, p) == ra + rb


@st.composite
def rank_inputs(draw):
    """A function of p giving a matrix over F_p of one of the shapes _rank
    must survive: no rows or no columns, all zero, a product of rank at
    most 4, or entries anywhere in [-3p, 3p), so unreduced and negative.
    Tall and wide shapes both occur, and the widths put the packed rows of
    every field width, 1 bit over F_2 and 8, 16 or 32 over odd p, on both
    sides of one and of two 64-bit words."""
    kind = draw(st.sampled_from(["empty", "zero", "low", "unreduced"]))
    m = draw(st.integers(0, 70))
    n = draw(st.sampled_from([0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 70]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "empty":
        shape = draw(st.sampled_from([(0, n), (m, 0)]))
        return lambda p: np.zeros(shape, dtype=np.int64)
    if kind == "zero":
        return lambda p: np.zeros((m, n), dtype=np.int64)
    rng = np.random.default_rng(seed)
    if kind == "low":
        r = draw(st.integers(0, 4))
        return lambda p: rng.integers(0, p, (m, r)) @ rng.integers(0, p, (r, n))
    return lambda p: rng.integers(-3 * p, 3 * p, (m, n))


@PROPERTY
@given(rank_inputs())
def test_rank_matches_an_independent_elimination_for_every_prime(matrix):
    for p in sorted(fp._PRIMES_TO_97):
        a = matrix(p)
        assert _rank(a, p) == _rank_mod_p(a, p)


def test_packed_fields_are_exact_and_never_spill():
    for p in sorted(fp._PRIMES_TO_97 - {2}):
        w, s, m = _packed_fields(p)
        top = p * p - p
        assert w in (8, 16, 32) and m == -(-(1 << s) // p)
        assert all((v * m) >> s == v // p for v in range(top + 1))
        assert top * m < 1 << w
        # one packed row holding every value 0..p^2 - p, one per field, is
        # reduced mod p field by field, as _rank reduces its rows
        row = sum(v << (j * w) for j, v in enumerate(range(top + 1)))
        low = sum(((1 << (w - s)) - 1) << (j * w) for j in range(top + 1))
        row -= p * (((row * m) >> s) & low)
        fields = [(row >> (j * w)) & ((1 << w) - 1) for j in range(top + 1)]
        assert fields == [v % p for v in range(top + 1)]
        assert row >> ((top + 1) * w) == 0
    assert [_packed_fields(p) for p in (3, 5, 7, 97)] == [
        (8, 3, 3), (16, 6, 13), (16, 8, 37), (32, 20, 10811)
    ]


def _nonzeros(a):
    rows, cols = np.nonzero(a)
    return rows, cols, a[rows, cols]


@st.composite
def sparse_matrices(draw, p=None):
    """A matrix over F_p, for p drawn from 2, 3 and 5 unless given, whose
    rows each have their own density, from empty to full, so singleton rows
    and rows that only the dense remainder settles mix; widths cross a
    64-bit word of the packed F_2 rows."""
    if p is None:
        p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(0, 24))
    n = draw(st.integers(0, 70))
    densities = draw(st.lists(st.sampled_from([0, 0.02, 0.05, 0.1, 0.3, 0.6, 1]), min_size=m, max_size=m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((m, n)) < np.array(densities, dtype=float).reshape(m, 1)
    return p, mask * rng.integers(1, p, (m, n))


@PROPERTY
@given(sparse_matrices())
def test_pivot_columns_match_rref(drawn):
    p, a = drawn
    assert _pivot_columns(*_nonzeros(a), a.shape, p) == _rref(a, p)[1]


@st.composite
def kernel_inputs(draw):
    """A matrix over F_p, p in 2, 3, 5, 7, of one of the shapes a kernel
    must survive: no rows or no columns, all zero, one nonzero per row,
    dense, square of full rank (no kernel columns), or sparse_matrices'
    mixed densities."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    kind = draw(st.sampled_from(["empty", "zero", "single", "dense", "full", "mixed"]))
    m = draw(st.integers(0, 14))
    n = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "empty":
        shape = draw(st.sampled_from([(0, n), (m, 0)]))
        return p, np.zeros(shape, dtype=np.int64)
    if kind == "zero":
        return p, np.zeros((m, n), dtype=np.int64)
    if kind == "single":
        a = np.zeros((m, n + 1), dtype=np.int64)
        a[np.arange(m), rng.integers(0, n + 1, m)] = rng.integers(1, p, m)
        return p, a
    if kind == "dense":
        return p, rng.integers(0, p, (m, n))
    if kind == "full":
        # unit lower times unit upper triangular, columns permuted
        lower = np.tril(rng.integers(0, p, (m, m)), -1) + np.eye(m, dtype=np.int64)
        upper = np.triu(rng.integers(0, p, (m, m)), 1) + np.eye(m, dtype=np.int64)
        return p, ((lower @ upper) % p)[:, rng.permutation(m)]
    return draw(sparse_matrices(p))


@PROPERTY
@given(kernel_inputs())
def test_sparse_kernel_matches_kernel_free(drawn):
    p, a = drawn
    (rows, cols, vals), free = _kernel_sparse(*_nonzeros(a), a.shape, p)
    want, want_free = _kernel_free(a, p)
    assert free == want_free
    # integer dtypes even when empty, so the arrays can index
    assert rows.dtype == cols.dtype == np.intp and vals.dtype == np.int64
    assert np.all((vals > 0) & (vals < p))
    assert len(set(zip(rows.tolist(), cols.tolist()))) == rows.size
    got = np.zeros_like(want)
    got[rows, cols] = vals
    assert np.array_equal(got, want)


def test_pivot_columns_reduce_only_the_remainder(monkeypatch):
    # over F_3: row 0 makes column 3 a pivot, which leaves row 1 a singleton
    # in column 4 on the second round; rows 2-4 keep two live entries each
    # and go to _rref on columns 0-2, where column 2 = column 0 + column 1
    a = np.array([
        [0, 0, 0, 2, 0],
        [0, 0, 0, 1, 1],
        [1, 2, 0, 0, 0],
        [2, 1, 0, 0, 0],
        [0, 1, 1, 0, 1],
    ])
    seen = []
    rref = fp._rref
    monkeypatch.setattr(fp, "_rref", lambda b, p: seen.append(b.copy()) or rref(b, p))
    assert _pivot_columns(*_nonzeros(a), a.shape, 3) == [0, 1, 3, 4] == rref(a, 3)[1]
    assert len(seen) == 1
    assert seen[0].tolist() == [[1, 2, 0], [2, 1, 0], [0, 1, 1]]
    # a permutation matrix with zero rows and columns needs no remainder
    seen.clear()
    b = np.zeros((6, 5), dtype=np.int64)
    b[[0, 2, 5], [4, 1, 2]] = 1
    assert _pivot_columns(*_nonzeros(b), b.shape, 2) == [1, 2, 4]
    assert seen == []


def test_matrix_constructor_and_entry_reduction():
    F = PrimeField(3)
    m = MatrixFp(F, [[4, -1], [0, 2]])
    assert m.tolist() == [[1, 2], [0, 2]]
    # entries beyond int64 are read mod p as well
    big = 10**26 + 1
    assert MatrixFp(F, [[big, -big], [2**64, 0]]).tolist() == [[big % 3, -big % 3], [1, 0]]
    with pytest.raises(ValueError):
        MatrixFp(F, [[big, 1], [1]])
    with pytest.raises(ValueError):
        MatrixFp(F, [1, 2, 3])


def test_matrix_refuses_non_integer_entries():
    # entries are read as operator.index reads them: a float is refused,
    # not truncated, while ints, bools, numpy integers and big ints pass
    with pytest.raises(ValueError, match="integer"):
        MatrixFp(F3, [[1.5, 0], [0, 2]])
    for entries in ([[1.0, 0], [0, 2]], np.eye(2), [[10**26, 0.5], [0, 1]], [["1", 0], [0, 1]]):
        with pytest.raises(ValueError, match="integer"):
            MatrixFp(F3, entries)
    for entries in ([[True, False], [np.int8(-1), 4]], np.array([[1, 0], [2, 4]], dtype=np.uint64),
                    np.array([[4, 3], [5, 1]], dtype=np.int32)):
        assert MatrixFp(F3, entries).tolist() == [[1, 0], [2, 1]]
    assert MatrixFp(F3, [[]]).array.shape == (1, 0)


def test_matrix_is_immutable():
    F = PrimeField(2)
    m = MatrixFp(F, [[1, 0], [0, 1]])
    with pytest.raises(AttributeError):
        m.field = F
    with pytest.raises(ValueError):
        m.array[0, 0] = 0


def test_matrix_round_trips_through_pickle_and_copy():
    F = PrimeField(3)
    m = MatrixFp(F, [[1, 2], [0, 1]])
    for twin in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m), copy.copy(m)):
        assert twin == m and hash(twin) == hash(m)
        with pytest.raises(ValueError):
            twin.array[0, 0] = 0


def test_hashed_matrix_round_trips_through_pickle_and_copy():
    # the hash is kept on first use, but a copy is rebuilt through __init__
    # and hashes its own array again, so it never carries a hash made under
    # another process's string-hash seed
    F = PrimeField(3)
    m = MatrixFp(F, [[1, 2, 0], [0, 1, 2]])
    h = hash(m)
    assert hash(m) == h
    for twin in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
        assert not hasattr(twin, "_hash")
        assert twin == m and hash(twin) == h


def test_matrix_arithmetic():
    F = PrimeField(5)
    a = MatrixFp(F, [[1, 2], [3, 4]])
    b = MatrixFp(F, [[2, 0], [1, 1]])
    assert (a + b).tolist() == [[3, 2], [4, 0]]
    assert (a - b).tolist() == [[4, 2], [2, 3]]
    assert (-a).tolist() == [[4, 3], [2, 1]]
    assert (a @ b).tolist() == [[4, 2], [0, 4]]
    assert a.transpose().tolist() == [[1, 3], [2, 4]]


def test_matrix_pow_and_det():
    F = PrimeField(7)
    a = MatrixFp(F, [[1, 1], [0, 1]])
    assert a.pow(5).tolist() == [[1, 5], [0, 1]]
    assert a.pow(0).tolist() == [[1, 0], [0, 1]]
    assert a.det() == 1
    b = MatrixFp(F, [[2, 3], [1, 4]])
    assert b.det() == (2 * 4 - 3 * 1) % 7


def test_det_matches_permanent_expansion():
    import itertools

    rng = random.Random(3)
    for p in (2, 5):
        F = PrimeField(p)
        for _ in range(10):
            n = rng.randrange(1, 5)
            arr = _random_matrix(rng, n, n, p)
            want = 0
            for perm in itertools.permutations(range(n)):
                sign = 1
                for i in range(n):
                    for j in range(i + 1, n):
                        if perm[i] > perm[j]:
                            sign = -sign
                prod = sign
                for i in range(n):
                    prod *= int(arr[i, perm[i]])
                want += prod
            assert MatrixFp(F, arr).det() == want % p


def test_rank_and_kernel_methods():
    F = PrimeField(2)
    a = MatrixFp(F, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    assert a.rank() == 2
    cols = a.kernel_columns()
    assert cols == [(1, 1, 0)]
    k = MatrixFp(F, np.array(cols, dtype=np.int64).T)
    assert (a @ k).is_zero()


def test_block_diag_and_identity():
    F = PrimeField(3)
    a = MatrixFp(F, [[1, 2]])
    b = MatrixFp(F, [[2]])
    blk = MatrixFp.block_diag(F, [a, b])
    assert blk.tolist() == [[1, 2, 0], [0, 0, 2]]
    assert MatrixFp.identity(F, 2).tolist() == [[1, 0], [0, 1]]
    assert MatrixFp.zeros(F, 2, 3).tolist() == [[0, 0, 0], [0, 0, 0]]


def test_eq_and_hash():
    F = PrimeField(2)
    a = MatrixFp(F, [[1, 0], [0, 1]])
    b = MatrixFp.identity(F, 2)
    assert a == b and hash(a) == hash(b)
    assert a != MatrixFp(F, [[1, 1], [0, 1]])
    assert a != MatrixFp(PrimeField(3), [[1, 0], [0, 1]])


def test_field_mismatch_rejected():
    a = MatrixFp(PrimeField(2), [[1]])
    b = MatrixFp(PrimeField(3), [[1]])
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a @ b
