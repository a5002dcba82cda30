"""Exact linear algebra over prime fields F_p, dense and on nonzeros.

Matrices are immutable wrappers around integer numpy arrays with all entries
reduced mod p.  Every operation is exact: products route through float64 BLAS,
whose sums fit in the 53-bit mantissa at every size that fits in memory.  Dense
row reduction is one packed Gauss-Jordan elimination for every p: _echelon
packs each row into one Python int of w-bit fields, one per column with the
first column on top (w = 1 over F_2; 8, 16 or 32 over odd p), and reduces it
against pivots keyed by their top field, by XOR over F_2, and over odd p by
a multiply-add followed by a multiply, a shift and a mask that take every
field mod p at once, with no carry between fields (Granlund-Montgomery
1994).  _rank counts those pivots; _rref back-substitutes them into the
(unique) reduced row echelon form and unpacks it.  Their Python work follows
the rows and the rank, not the columns.  The kernel basis is read off that
form by two scatters: one writes its identity block on the free columns, one
its pivot rows.  A matrix held by its nonzeros, as the covers of a
resolution are, gets the same kernel as nonzeros from _kernel_sparse,
Gauss-Jordan elimination over rows held as dicts.  When only the pivot
columns are needed, _pivot_columns finds them from a matrix's nonzeros,
reducing densely only what singleton pruning leaves.  _minors expands
determinants of matrices whose entries are polynomials held as dicts of
packed monomials, the minors of a rank variety; _maximal_minors takes every
maximal minor of a whole stack of constant matrices at once, the Pluecker
coordinates of subspaces and the coefficients of Schubert forms.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

_PRIMES_TO_97 = frozenset(
    (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
     71, 73, 79, 83, 89, 97)
)


def _integer(v, what: str) -> int:
    """v by operator.index: a float, even an integral one, raises ValueError
    rather than being truncated."""
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {v!r}") from None


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for a prime 2 <= p <= 97, held as an int (a float is refused)."""

    p: int

    def __post_init__(self) -> None:
        p = _integer(self.p, "p")
        if p not in _PRIMES_TO_97:
            raise ValueError(f"p must be a prime in [2, 97], got {p}")
        object.__setattr__(self, "p", p)

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)


def _as_array(entries, p: int) -> np.ndarray:
    """entries as a 2-dimensional int64 array reduced mod p, each read as
    _integer reads it (beyond int64, mod p); an array with no entries
    passes whatever its dtype."""
    a = np.asarray(entries)
    if a.ndim != 2:
        raise ValueError(f"matrix entries must be 2-dimensional, got shape {a.shape}")
    if a.dtype.kind in "Ou":
        a = np.frompyfunc(lambda v: _integer(v, "matrix entry") % p, 1, 1)(a)
    elif a.dtype.kind not in "ib" and a.size:
        raise ValueError(f"matrix entries must be integers, got dtype {a.dtype}")
    return a.astype(np.int64, copy=False) % p


def _matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact modular product of reduced operands by float64 BLAS: for p <= 97
    every sum, at most (p - 1)^2 * inner, is below 2^53 while inner < 9.7e11."""
    c = a.astype(np.float64) @ b.astype(np.float64)
    return np.rint(c).astype(np.int64) % p


# --- packed Gauss-Jordan elimination, for every p --------------------------

@lru_cache(maxsize=None)
def _packed_fields(p: int) -> tuple[int, int, int]:
    """The field width w, shift s and multiplier m of the packed rows over
    an odd prime p.

    m = ceil(2^s / p) for the smallest s with (v * m) >> s == v // p on
    every 0 <= v <= p^2 - p, so a quotient by p is a multiply and a shift
    (Granlund-Montgomery 1994), and w is the smallest of 8, 16 and 32 with
    (p^2 - p) * m < 2^w, so no product of a field by m reaches the next.
    """
    top = p * p - p
    s = 0
    while True:
        m = -(-(1 << s) // p)
        if all((v * m) >> s == v // p for v in range(top + 1)):
            break
        s += 1
    return next(w for w in (8, 16, 32) if top * m < 1 << w), s, m


def _echelon(a: np.ndarray, p: int) -> tuple[dict[int, int], int, int, int, int]:
    """The forward pass of _rank and _rref: pivot rows of a nonempty a over
    F_p, keyed by their top field, with the field width w, shift, multiplier
    and mask `low` of their packing.

    Each row is one little-endian Python int of w-bit fields with the
    columns reversed, field n - 1 - j for column j, so that the top field
    is the first nonzero column: over F_2 the bits of np.packbits(a & 1),
    over odd p the bytes of a.astype(<u1|u2|u4>) with (w, shift, mul) from
    _packed_fields.  Entries are read mod p.  A row is reduced against the
    pivot rows kept so far, keyed by their top field
    (row.bit_length() - 1) // w and stored with leading coefficient 1: a
    row whose top field has a pivot is reduced by it, and one whose top
    field has none is a new pivot.  Over F_2 the reduction is row ^= pivot.
    Over odd p a row with leading coefficient c becomes row + (p - c) *
    pivot, whose top field is p, and then every field v is replaced by
    v mod p at once, as row - p * (((row * mul) >> shift) & low), where low
    keeps the low w - shift bits of each field.

    Why that is exact: between steps every field is below p.  The update
    adds at most (p - 1)^2 to it, and scaling a new pivot by the inverse of
    its leading coefficient makes it at most (p - 1)^2, so every field is at
    most p^2 - p.  Then each field times mul is below 2^w, so row * mul
    multiplies field by field with no carry.  The shift brings the low
    shift bits of each field into the top of the one below, and low masks
    them off, leaving (v * mul) >> shift = v // p in each field.
    Subtracting p times it leaves v mod p >= 0 in each field, so nothing
    borrows either.

    Pivots have distinct top fields, so they are independent and in row
    echelon form, and each row is reduced by pivots until it is zero or a
    new pivot, so they span the rows.  The Python work grows with the rows
    and the rank, never with the columns, and it stops once every column
    has a pivot.
    """
    m, n = a.shape
    if p == 2:
        bits = np.packbits((a[:, ::-1] & 1).astype(np.uint8), axis=1, bitorder="little")
        w, shift, mul, low = 1, 0, 0, 0
        width, packed = bits.shape[1], bits.tobytes()
    else:
        # a % p costs ten times the range check, and the library's own
        # callers pass reduced arrays
        if a.min() < 0 or a.max() >= p:
            a = a % p
        w, shift, mul = _packed_fields(p)
        width, packed = n * w // 8, a[:, ::-1].astype(f"<u{w // 8}").tobytes()
        # the low w - shift bits of each of the n fields
        low = ((1 << (w - shift)) - 1) * (((1 << (n * w)) - 1) // ((1 << w) - 1))
    pivots: dict[int, int] = {}
    for start in range(0, m * width, width):
        row = int.from_bytes(packed[start : start + width], "little")
        while row:
            top = (row.bit_length() - 1) // w
            pivot = pivots.get(top)
            if pivot is None:
                if p != 2 and (lead := row >> (top * w)) != 1:
                    row *= pow(lead, p - 2, p)
                    row -= p * (((row * mul) >> shift) & low)
                pivots[top] = row
                break
            if p == 2:
                row ^= pivot
            else:
                row += (p - (row >> (top * w))) * pivot
                row -= p * (((row * mul) >> shift) & low)
        if len(pivots) == n:
            break
    return pivots, w, shift, mul, low


def _rank(a: np.ndarray, p: int) -> int:
    """The rank of a over F_p, the number of pivots _rref finds; the entries
    need not be reduced mod p.

    It shares _rref's packing and reduction loop: it counts the pivot rows
    of _echelon's forward pass, whose packed rows hold the columns reversed
    so that a pivot's top field is its first nonzero column, and does no
    back-substitution.
    """
    if a.shape[0] == 0 or a.shape[1] == 0:
        return 0
    return len(_echelon(a, p)[0])


def _rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """The reduced row echelon form of a over F_p, as an int64 array of a's
    shape whose rows past the rank are zero, and its pivot columns in
    increasing order; the entries need not be reduced mod p.

    _echelon's pivot rows are in echelon form with leading coefficient 1.
    Back-substitution takes them in increasing pivot column k and clears
    field k of every row before it by one more update of the same kind, so
    each pivot column is zero outside its own row at the end, and the rows
    are unpacked.  The form is unique, so it does not depend on the order
    in which _echelon met the rows.
    """
    m, n = a.shape
    out = np.zeros((m, n), dtype=np.int64)
    if m == 0 or n == 0:
        return out, []
    pivots, w, shift, mul, low = _echelon(a, p)
    tops = sorted(pivots, reverse=True)
    field = (1 << w) - 1
    rows: list[int] = []
    for top in tops:
        pivot = pivots[top]
        at = top * w
        for i, row in enumerate(rows):
            lead = (row >> at) & field
            if lead:
                if p == 2:
                    rows[i] = row ^ pivot
                else:
                    row += (p - lead) * pivot
                    rows[i] = row - p * (((row * mul) >> shift) & low)
        rows.append(pivot)
    if p == 2:
        size = (n + 7) // 8
        bits = np.frombuffer(b"".join(r.to_bytes(size, "little") for r in rows), np.uint8)
        fields = np.unpackbits(bits.reshape(len(rows), size), axis=1, count=n, bitorder="little")
    else:
        size = n * w // 8
        fields = np.frombuffer(
            b"".join(r.to_bytes(size, "little") for r in rows), f"<u{w // 8}"
        ).reshape(len(rows), n)
    out[: len(rows)] = fields[:, ::-1]
    return out, [n - 1 - top for top in tops]


def _pivot_columns(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: tuple[int, int], p: int
) -> list[int]:
    """The pivot columns of the reduced row echelon form of the matrix of
    `shape` whose nonzeros are vals at (rows, cols), the list _rref returns.

    The coordinates must be distinct and the values nonzero mod p.  A live
    column is one not yet found to be a pivot.  Round after round, until a
    round finds none, every row with exactly one nonzero in a live column
    marks that column as a pivot, and the column is dropped (the singleton
    pruning of structured Gaussian elimination, LaMacchia-Odlyzko 1990).
    The rows left with two or more live entries, restricted to the live
    columns they touch in their original order, are reduced densely by
    _rref for the remaining pivots.

    Why the pivots are the same: column j is a pivot exactly when it is not
    a combination of the columns before it.  Let row r have its only
    nonzero in column j.  The columns before j are zero in row r, so j is a
    pivot.  For k != j, a relation col_k = sum_{i<k} a_i col_i read in row r
    gives 0 = a_j A[r, j], so a_j = 0: no dependency among the other
    columns uses column j, and deleting it changes no other column's pivot
    status.  Each round applies this to the matrix with the pivots found so
    far deleted, which is what "live" means.  At the end every row has zero
    or at least two live entries; zero rows change no pivot, and a live
    column with no entry in the remaining rows is zero, hence no pivot.
    """
    m, n = shape
    pivot = np.zeros(n, dtype=bool)
    while True:
        single = np.bincount(rows, minlength=m)[rows] == 1
        if not single.any():
            break
        pivot[cols[single]] = True
        live = ~pivot[cols]
        rows, cols, vals = rows[live], cols[live], vals[live]
    if rows.size:
        kept_rows, r = np.unique(rows, return_inverse=True)
        kept_cols, c = np.unique(cols, return_inverse=True)
        remainder = np.zeros((kept_rows.size, kept_cols.size), dtype=np.int64)
        remainder[r, c] = vals
        pivot[kept_cols[_rref(remainder, p)[1]]] = True
    return np.flatnonzero(pivot).tolist()


def _kernel_free(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Canonical right-null-space basis (as columns) plus the free column list.

    The rows of the basis restricted to the free columns form an identity
    matrix, which downstream code relies on to express induced maps.
    """
    n = a.shape[1]
    red, pivots = _rref(a, p)
    pivset = set(pivots)
    free = [j for j in range(n) if j not in pivset]
    k = np.zeros((n, len(free)), dtype=np.int64)
    # column t of k belongs to the free column free[t] of a
    k[free, np.arange(len(free))] = 1
    k[pivots] = (-red[: len(pivots)][:, free]) % p
    return k, free


def _kernel_sparse(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: tuple[int, int], p: int
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], list[int]]:
    """The kernel of _kernel_free, for the matrix of `shape` whose nonzeros
    are vals at (rows, cols), as the nonzeros (rows, cols, vals) of the
    basis, with the free column list.

    The coordinates must be distinct and the values nonzero mod p.
    Gauss-Jordan elimination over rows held as dicts {column: value}:
    column by column in order, the shortest row not yet a pivot row with a
    nonzero in the column becomes its pivot, is scaled to 1, and is
    subtracted from every other row, pivot rows included, that has a
    nonzero there; each column keeps the set of rows that touch it.  The
    result is the reduced row echelon form, which is unique, so the pivots
    and the kernel are those of _kernel_free whatever row is chosen;
    choosing short rows keeps the fill-in small on sparse matrices.  The
    index arrays are intp and the values int64, also when empty.
    """
    m, n = shape
    table: list[dict[int, int]] = [{} for _ in range(m)]
    touching: list[set[int]] = [set() for _ in range(n)]
    for r, j, v in zip(rows.tolist(), cols.tolist(), (vals % p).tolist()):
        table[r][j] = v
        touching[j].add(r)
    used = [False] * m
    pivot_rows: list[tuple[int, int]] = []
    for j in range(n):
        rows_j = touching[j]
        candidates = [r for r in rows_j if not used[r]]
        if not candidates:
            continue
        r = min(candidates, key=lambda s: (len(table[s]), s))
        row = table[r]
        inv = pow(row[j], p - 2, p)
        if inv != 1:
            for k in row:
                row[k] = row[k] * inv % p
        for s in rows_j:
            if s == r:
                continue
            other = table[s]
            f = other[j]
            for k, x in row.items():
                y = (other.get(k, 0) - f * x) % p
                if y:
                    if k not in other:
                        touching[k].add(s)
                    other[k] = y
                else:
                    del other[k]
                    if k != j:
                        touching[k].discard(s)
        touching[j] = {r}
        used[r] = True
        pivot_rows.append((j, r))
    pivots = {j for j, _ in pivot_rows}
    free = [j for j in range(n) if j not in pivots]
    index = {f: t for t, f in enumerate(free)}
    # the identity on the free rows, then -red[i, free] on pivot row j_i
    out_rows, out_cols, out_vals = list(free), list(range(len(free))), [1] * len(free)
    for j, r in pivot_rows:
        for k, x in table[r].items():
            if k != j:
                out_rows.append(j)
                out_cols.append(index[k])
                out_vals.append(p - x)
    return (
        np.array(out_rows, dtype=np.intp),
        np.array(out_cols, dtype=np.intp),
        np.array(out_vals, dtype=np.int64),
    ), free


@lru_cache(maxsize=None)
def _expansion(c: int, k: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """For the k-subsets S of range(c) in lexicographic order, one pair per
    position j < k: the columns S[j], and the index of S - S[j] among the
    (k - 1)-subsets in lexicographic order."""
    smaller = {S: i for i, S in enumerate(combinations(range(c), k - 1))}
    subsets = list(combinations(range(c), k))
    return tuple(
        (np.array([S[j] for S in subsets], dtype=np.intp),
         np.array([smaller[S[:j] + S[j + 1 :]] for S in subsets], dtype=np.intp))
        for j in range(k)
    )


def _maximal_minors(stack: np.ndarray, p: int) -> np.ndarray:
    """The d x d minors over F_p of every d x c matrix of an (n, d, c) int64
    stack of reduced entries, as an (n, C(c, d)) array whose columns follow
    the column subsets in lexicographic order.

    Laplace expansion from the bottom row up: the minors of rows r..d-1 on
    a (d - r)-subset S of the columns are the alternating sum over the j-th
    s in S of entry (r, s) times the minor of rows r+1..d-1 on S - s, and
    the minor of no rows is 1.  Each level takes one array operation per
    position j for every subset and matrix of the stack at once, and is
    reduced mod p, so no sum exceeds c (p - 1)^2.
    """
    n, d, c = stack.shape
    minors = np.ones((n, 1), dtype=np.int64)
    for r in range(d - 1, -1, -1):
        row, level = stack[:, r, :], 0
        for j, (cols, rest) in enumerate(_expansion(c, d - r)):
            term = row[:, cols] * minors[:, rest]
            level = level - term if j & 1 else level + term
        minors = level % p
    return minors


def _minors(rows: list[list[dict[int, int]]], p: int) -> Callable[[tuple, tuple], dict[int, int]]:
    """minor(R, S), the determinant over F_p of the submatrix of `rows` on
    nonempty increasing row and column tuples R and S of equal length,
    memoised across every minor asked for.

    An entry is a dict {monomial: coefficient in 1..p-1}, {} for zero, whose
    monomials multiply by adding: packed exponent vectors, or 0 alone for a
    constant.  So is a minor; a 1 x 1 minor is the entry itself, and none is
    to be mutated.  Laplace expansion along the first row of R: minor(R, S)
    is the alternating sum over the j-th s in S of entry (R[0], s) times
    minor(R[1:], S - s), skipping zero entries, summed into one dict.
    """
    memo: dict[tuple, dict[int, int]] = {}

    def minor(R: tuple, S: tuple) -> dict[int, int]:
        if len(R) == 1:
            return rows[R[0]][S[0]]
        key = (R, S)
        total = memo.get(key)
        if total is None:
            row, rest = rows[R[0]], R[1:]
            acc: dict[int, int] = {}
            for j, s in enumerate(S):
                entry = row[s]
                if not entry:
                    continue
                sub = minor(rest, S[:j] + S[j + 1 :])
                for m, a in entry.items():
                    if j & 1:
                        a = -a
                    for n, b in sub.items():
                        acc[m + n] = acc.get(m + n, 0) + a * b
            total = memo[key] = {m: r for m, v in acc.items() if (r := v % p)}
        return total

    return minor


class MatrixFp:
    """Immutable dense matrix over F_p."""

    # _hash is set on first use of __hash__
    __slots__ = ("field", "_a", "_hash")

    def __init__(self, field: PrimeField, entries) -> None:
        object.__setattr__(self, "field", field)
        a = _as_array(entries, field.p)
        a.setflags(write=False)
        object.__setattr__(self, "_a", a)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixFp is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, which __setattr__ allows,
        # so a copy never carries a hash made under another process's
        # string-hash seed
        return (MatrixFp, (self.field, self._a))

    # construction helpers
    @classmethod
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> "MatrixFp":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "MatrixFp":
        return cls(field, np.eye(n, dtype=np.int64))

    @classmethod
    def block_diag(cls, field: PrimeField, blocks: Sequence["MatrixFp"]) -> "MatrixFp":
        rows = sum(b.rows for b in blocks)
        cols = sum(b.cols for b in blocks)
        out = np.zeros((rows, cols), dtype=np.int64)
        i = j = 0
        for b in blocks:
            out[i : i + b.rows, j : j + b.cols] = b.array
            i += b.rows
            j += b.cols
        return cls(field, out)

    # views
    @property
    def array(self) -> np.ndarray:
        return self._a

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def p(self) -> int:
        return self.field.p

    def tolist(self) -> list[list[int]]:
        return self._a.tolist()

    def __repr__(self) -> str:
        return f"MatrixFp(p={self.p}, {self.tolist()})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixFp)
            and self.p == other.p
            and self._a.shape == other._a.shape
            and bool(np.array_equal(self._a, other._a))
        )

    def __hash__(self) -> int:
        # kept after the first call: memo lookups hash the same matrix often
        try:
            return self._hash
        except AttributeError:
            h = hash((self.p, self._a.shape, self._a.tobytes()))
            object.__setattr__(self, "_hash", h)
            return h

    # arithmetic
    def _check(self, other: "MatrixFp") -> None:
        if self.p != other.p:
            raise ValueError("mixed characteristics")

    def __add__(self, other: "MatrixFp") -> "MatrixFp":
        self._check(other)
        return MatrixFp(self.field, (self._a + other._a) % self.p)

    def __sub__(self, other: "MatrixFp") -> "MatrixFp":
        self._check(other)
        return MatrixFp(self.field, (self._a - other._a) % self.p)

    def __neg__(self) -> "MatrixFp":
        return MatrixFp(self.field, (-self._a) % self.p)

    def __matmul__(self, other: "MatrixFp") -> "MatrixFp":
        self._check(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self._a.shape} @ {other._a.shape}")
        return MatrixFp(self.field, _matmul(self._a, other._a, self.p))

    def transpose(self) -> "MatrixFp":
        return MatrixFp(self.field, self._a.T.copy())

    def is_zero(self) -> bool:
        return not self._a.any()

    # reductions
    def rank(self) -> int:
        return _rank(self._a, self.p)

    def kernel_columns(self) -> list[tuple[int, ...]]:
        k = _kernel_free(self._a, self.p)[0]
        return [tuple(int(v) for v in k[:, j]) for j in range(k.shape[1])]

    def pow(self, e: int) -> "MatrixFp":
        if self.rows != self.cols:
            raise ValueError("matrix power requires a square matrix")
        if e < 0:
            raise ValueError("exponent must be >= 0")
        out = np.eye(self.rows, dtype=np.int64)
        base = self._a
        while e:
            if e & 1:
                out = _matmul(out, base, self.p)
            e >>= 1
            if e:
                base = _matmul(base, base, self.p)
        return MatrixFp(self.field, out)

    def det(self) -> int:
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        # elimination on Python ints: on the small matrices this is asked
        # for, numpy row operations cost more than the arithmetic
        p = self.p
        a = self._a.tolist()
        n = self.rows
        det = 1
        for j in range(n):
            piv = next((i for i in range(j, n) if a[i][j]), None)
            if piv is None:
                return 0
            if piv != j:
                a[j], a[piv] = a[piv], a[j]
                det = -det
            top = a[j]
            det = det * top[j] % p
            inv = pow(top[j], p - 2, p)
            for i in range(j + 1, n):
                factor = a[i][j] * inv % p
                if factor:
                    a[i] = [(x - factor * y) % p for x, y in zip(a[i], top)]
        return det

