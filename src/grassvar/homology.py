"""Minimal free resolutions and Ext dimensions over k[x1..xc]/(xi^p).

The algebra kE is local with radical generated by the images of the xi, so
minimal covers are read off from a basis of M / rad M.  A free cover F -> M
sends the generator t to a chosen basis vector, and the column of F recording
x^e . (generator t) is built by repeated application of the action matrices.
The kernel of the cover, in the monomial coordinates of F, is the first
syzygy; iterating yields the minimal resolution, whose ranks are the Betti
numbers.

Past M itself no product and no dense matrix is needed, because kE acts on
a free module by monomial shifts.  On F = kE^b with m = p^c monomials per
generator, x^e sends basis vector t*m + f to t*m + f + e when x^e x^f is
not zero (no base-p digit of f + e carries) and to 0 otherwise.  The kernel
basis K is the identity on its free rows, so a vector of its span is read
off those rows, and x^e acts on the syzygy by a gather of K's nonzeros: a
nonzero at row q goes to the free row q + e when f + e does not carry.  The
syzygy's actions (e = x_j) and its next cover (e running over all
monomials) are both this gather (_gather), and each later kernel is taken
from the cover's nonzeros by sparse Gauss-Jordan elimination
(fp._kernel_sparse).  Deep in a resolution these matrices have about two
nonzeros per row, so only the cover of M, which is a product of arbitrary
action arrays, and its kernel are built dense.

resolve is memoised on (M, bound), so Ext tables of one source against many
targets share one resolution.  It keeps each differential d_i as a
b_(i-1) x b_i matrix over kE (Eisenbud 1980), by its nonzero entries, each
a coefficient vector of length p^c; deep in a resolution nearly every entry
is zero.  That is the whole record: the full matrix of d_i over k, which the
library itself never needs, is the same gather run on the entries'
nonzeros with every row free.

Ext^i(M, N) is computed as cohomology of Hom(F_*, N): an entry
sum_e a_e x^e of d_(i+1) at (t, s) adds sum_e a_e rho(x^e) times component t
of a cochain to component s of its image, rho the action on N.  Eventual
vanishing of Ext needs no resolution: it is decided by Higman's criterion,
Hom_k(M, N) being free exactly when p^c times the dimension of PHom(M, N),
the maps that factor through a projective, is dim M * dim N.  PHom is
spanned by the columns of one h x h product of monomial covers,
h = dim M * dim N, so the test is one product and one rank on h^2 cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import SyzygyLimitError
from .fp import MatrixFp, _kernel_free, _kernel_sparse, _matmul, _pivot_columns, _rank
from .modules import KEModule, _restricted_arrays

# The cover of a module by its generators and the kernel of that cover (as
# dense matrices), Ext cochain matrices, the h x h PHom matrix of
# ext_eventually_zero (h^2 cells for h = dim M * dim N) and the monomial
# covers of a module by all its basis vectors, which both PHom and the Ext
# cochains are built from (p^c * dim^2 cells), are each refused past this
# many cells (80 MB as dense int64).  Past the cover of M itself a
# resolution holds its covers, kernels and differentials by their nonzeros,
# but the cap still counts the cells the covers and kernels would have
# dense, so where a resolution is refused does not depend on the route.
# tracemalloc over resolve(k, 26) on (p, c) = (2, 3) peaks at 2.7 MB and
# the result keeps 0.8 MB.
DEFAULT_CELL_CAP = 10_000_000


def _lowest_digit(e: int, p: int) -> int:
    i = 0
    while e % p == 0:
        e //= p
        i += 1
    return i


Nonzeros = tuple[np.ndarray, np.ndarray, np.ndarray]
# The nonzero entries (t, s, coef) of a matrix over kE: entry (t[k], s[k]) is
# sum_e coef[k, e] x^e, the pairs (t, s) distinct and no coef row zero.
KEEntries = tuple[np.ndarray, np.ndarray, np.ndarray]


def _nonzeros(a: np.ndarray) -> Nonzeros:
    rows, cols = np.nonzero(a)
    return rows, cols, a[rows, cols]


def _densify(entries: Nonzeros, shape: tuple[int, int]) -> np.ndarray:
    rows, cols, vals = entries
    out = np.zeros(shape, dtype=np.int64)
    out[rows, cols] = vals
    return out


def _side_by_side(arrays: list[np.ndarray]) -> Nonzeros:
    """The nonzeros of the c action arrays of a module side by side, the
    form _syzygy returns: column g * c + j is column g of the array of
    x_j."""
    n, c = arrays[0].shape[0], len(arrays)
    return _nonzeros(np.stack(arrays, axis=2).reshape(n, n * c))


def _generators(actions: Nonzeros, n: int, c: int, p: int) -> list[int]:
    """Coordinate indices whose basis vectors span a complement of rad M,
    for the dimension-n module M whose c action arrays, side by side, have
    the nonzeros `actions`.

    rad M is the row space of the transposed action arrays stacked, and
    the non-pivot columns of its echelon form index a complement.  Pivot
    columns depend only on the row space, so the stack may take its rows in
    any order: row g * c + j, column g of the array of x_j, is column
    g * c + j of the arrays side by side, and the stack is their transpose.
    It is never built: _pivot_columns reads its nonzeros, as these matrices
    have about one nonzero per row deep in a resolution.
    """
    rows, cols, vals = actions
    pivset = set(_pivot_columns(cols, rows, vals, (c * n, n), p))
    return [j for j in range(n) if j not in pivset]


@dataclass(frozen=True, eq=False)
class ResolutionData:
    """A minimal free resolution of `module`, truncated at homological degree
    len(betti) - 1.

    Equality and hashing are by identity: generated ones would compare and
    hash the arrays of gen_columns, which raises.

    betti[i] is the rank of the i-th free module.  gen_columns[i - 1] is the
    differential d_i as a betti[i-1] x betti[i] matrix over kE, by its
    nonzero entries (t, s, coef): the image of generator s of F_i has
    sum_e coef[k, e] x^e times generator t of F_{i-1} for each k with
    s[k] = s.  t and s are intp and coef int64 of shape (len(t), p**c), all
    read-only because resolve's memo shares them.
    """

    module: KEModule
    betti: tuple[int, ...]
    gen_columns: tuple[np.ndarray, ...]

    @property
    def depth(self) -> int:
        return len(self.betti) - 1

    def differential(self, i: int) -> np.ndarray:
        """The matrix of d_i: F_i -> F_{i-1} in monomial coordinates on both
        sides, for 1 <= i <= depth, dense int64.  Column s * p^c + e is x^e
        times the image of generator s: the gather of resolve's covers, run
        with every row free on the entries' nonzeros, coefficient e of entry
        (t, s) sitting at row t * p^c + e."""
        if not 1 <= i <= self.depth:
            raise ValueError(f"need 1 <= i <= {self.depth}, got {i}")
        t, s, coef = self.gen_columns[i - 1]
        p, c = self.module.p, self.module.c
        m_alg = p**c
        rows = self.betti[i - 1] * m_alg
        k, e = np.nonzero(coef)
        nonzeros = t[k] * m_alg + e, s[k], coef[k, e]
        entries = _gather(nonzeros, np.arange(rows), range(m_alg), p, c)
        return _densify(entries, (rows, self.betti[i] * m_alg))


def _check_cells(cells: int, what: str) -> None:
    """Refuse `what`, before it is built, if it has more than
    DEFAULT_CELL_CAP cells."""
    if cells > DEFAULT_CELL_CAP:
        raise SyzygyLimitError(f"{what} {cells} cells, over the cap of {DEFAULT_CELL_CAP}")


def _check_cover_cells(n: int, ncols: int, degree: int) -> None:
    """Refuse a cover of a dimension-n module by ncols columns, before it is
    built, if it or its kernel would have more than DEFAULT_CELL_CAP cells
    as a dense matrix.

    The cover is surjective, so it is n x ncols and its kernel is
    ncols x (ncols - n).  Only the cover of M itself and its kernel are
    built dense; every later cover and kernel is held by its nonzeros, but
    the cap still counts the cells a dense one would have, so the deepest
    resolution a module allows does not depend on the route.
    """
    _check_cells(ncols * max(n, ncols - n), f"free cover of a dimension-{n} module by {ncols} "
                 f"columns at degree {degree} counts as a dense matrix of")


def _product_cover(actions: list[np.ndarray], gens: Sequence[int], p: int) -> np.ndarray:
    """Cover a module given by its action arrays by the free module on `gens`:
    column t * p^c + e is x^e applied to basis vector gens[t], one product
    per monomial."""
    m_alg = p ** len(actions)
    n = actions[0].shape[0]
    cover = np.zeros((n, len(gens) * m_alg), dtype=np.int64)
    for t, g in enumerate(gens):
        cover[g, t * m_alg] = 1
    for e in range(1, m_alg):
        j = _lowest_digit(e, p)
        cover[:, e::m_alg] = _matmul(actions[j], cover[:, e - p**j :: m_alg], p)
    return cover


@lru_cache(maxsize=16)
def _reach(p: int, c: int) -> np.ndarray:
    """reach[f, e]: x^e x^f is not zero in kE, i.e. no base-p digit of
    f + e carries; read-only, as the memo shares it."""
    digits = (np.arange(p**c)[:, None] // p ** np.arange(c)) % p
    reach = (digits[:, None, :] + digits[None, :, :] < p).all(axis=2)
    reach.setflags(write=False)
    return reach


def _gather(
    kernel: Nonzeros, pos: np.ndarray, exponents, p: int, c: int
) -> Nonzeros:
    """The nonzeros of x^e applied to the columns of a kernel basis K, read
    in the basis K itself, for each e in `exponents`.

    K is given by its nonzeros (q, g, v), in the monomial coordinates of a
    free module kE^b, and by pos: pos[q] is the index of row q among the
    free rows of K, where K is the identity, or -1 on any other row.  A
    vector of the span of K is read off its free rows.  x^e sends basis
    vector q of kE^b to q + e when no base-p digit of (q mod p^c) + e
    carries, and to 0 otherwise.  So for the k-th exponent e, nonzero
    (q, g, v) goes to (pos[q + e], g * len(exponents) + k, v) when there is
    no carry and q + e is a free row; a pivot row of K is determined by the
    free rows and read nowhere.  With e running over every monomial this is
    the cover of the span by the free module on K's columns; with the
    exponents p^0 .. p^(c-1) it is the span's c action arrays side by side.
    """
    q, g, v = kernel
    exps = np.asarray(exponents, dtype=np.intp)
    # every (nonzero, exponent) pair with no carry
    src, k = np.nonzero(_reach(p, c)[:, exps][q % p**c])
    rows = pos[q[src] + exps[k]]
    free = rows >= 0
    return rows[free], (g[src] * exps.size + k)[free], v[src][free]


def _syzygy(
    kernel: Nonzeros, free: list[int], nrows: int, p: int, c: int
) -> tuple[np.ndarray, Nonzeros]:
    """For the syzygy spanned by a kernel basis K of nrows rows, given by
    its nonzeros and its free rows, on which K is the identity: the map pos
    of _gather, and the nonzeros of the syzygy's c action arrays on the
    basis K, side by side (one gather, column g * c + j for column g of
    x_j's array).  Row r of x_j's array is row free[r] - p^j of K, or 0
    where digit j of free[r] is 0: x_j shifts the basis of kE^b, and the
    free rows read the result off."""
    pos = np.full(nrows, -1, dtype=np.intp)
    pos[free] = np.arange(len(free))
    return pos, _gather(kernel, pos, [p**j for j in range(c)], p, c)


def _ke_entries(nonzeros: Nonzeros, ncols: int, m_alg: int) -> KEEntries:
    """The matrix over kE, by its nonzero entries, of the matrix with ncols
    columns whose nonzeros (q, s, v) are in the monomial coordinates of a
    free module: q = t * m_alg + e is coefficient e of row t.  The entries
    are sorted by (t, s) and made read-only; (q, s) must not repeat."""
    q, s, v = nonzeros
    t, e = np.divmod(q, m_alg)
    key = t * ncols + s
    # most degrees have a handful of nonzeros, where np.unique's overhead
    # costs more than a Python set
    pairs = np.array(sorted(set(key.tolist())), dtype=np.intp)
    coef = np.zeros((pairs.size, m_alg), dtype=np.int64)
    coef[np.searchsorted(pairs, key), e] = v
    entries = (*np.divmod(pairs, ncols), coef)
    for a in entries:
        a.setflags(write=False)
    return entries


def _first_syzygy(M: KEModule) -> tuple[list[int], Nonzeros, list[int], np.ndarray, Nonzeros]:
    """The first step of M's minimal resolution: M's generators, then the
    kernel of M's cover by the free module on them, by its nonzeros and its
    free rows, then _syzygy's map pos and action nonzeros of that kernel.
    M's actions may be dense, so its cover is a product and its kernel's
    nonzeros are read once off _kernel_free."""
    p, c = M.p, M.c
    arrays = [a.array for a in M.actions]
    gens = _generators(_side_by_side(arrays), M.n, c, p)
    ncols = len(gens) * p**c
    _check_cover_cells(M.n, ncols, 0)
    dense, free = _kernel_free(_product_cover(arrays, gens, p), p)
    kernel = _nonzeros(dense)
    del dense
    return gens, kernel, free, *_syzygy(kernel, free, ncols, p, c)


# Each entry holds the nonzero entries of its differentials; resolve(k, 21)
# over (2, 3) holds 0.45 MB of them, so a few dozen resolutions are little
# memory.  An ext-deep round asks for 19 distinct (module, depth) keys.
@lru_cache(maxsize=32)
def resolve(M: KEModule, bound: int) -> ResolutionData:
    """Minimal free resolution of M with Betti numbers through degree `bound`.

    Performs full syzygy steps up to degree bound - 1 and a final generator
    count at degree bound, so betti has bound + 1 entries and gen_columns has
    bound entries (the differentials d_1 .. d_bound over kE).  The cover of
    M is built dense from its action arrays, and its kernel is read off by
    _kernel_free.  From then on no dense matrix is made: each kernel, each
    syzygy's action arrays, each later cover and each differential are
    nonzero arrays, the covers and actions gathered from the previous
    kernel (_gather) and each kernel taken by sparse Gauss-Jordan
    elimination (fp._kernel_sparse), whose reduced echelon form is the one
    _kernel_free reads.  SyzygyLimitError is raised at the first degree
    whose free cover or its kernel would have more than DEFAULT_CELL_CAP
    cells as dense matrices.  Memoised on (M, bound): a repeated call
    returns the same object, whose arrays are read-only, and a call that
    raises stores nothing.
    """
    if bound < 0:
        raise ValueError("resolution bound must be nonnegative")
    p, c = M.p, M.c
    m_alg = p**c

    if bound == 0:
        gens = _generators(_side_by_side([a.array for a in M.actions]), M.n, c, p)
        return ResolutionData(M, (len(gens),), ())
    gens, kernel, free, pos, actions = _first_syzygy(M)
    betti = [len(gens)]
    gen_columns: list[KEEntries] = []

    for i in range(1, bound + 1):
        n = len(free)
        gens = _generators(actions, n, c, p)
        betti.append(len(gens))
        # the kernel's nonzeros in the columns gens, renumbered 0..
        col_of = np.full(n, -1, dtype=np.intp)
        col_of[gens] = np.arange(len(gens))
        q, g, v = kernel
        hit = col_of[g] >= 0
        chosen = q[hit], col_of[g[hit]], v[hit]
        gen_columns.append(_ke_entries(chosen, len(gens), m_alg))
        if i == bound:
            break
        ncols = len(gens) * m_alg
        _check_cover_cells(n, ncols, i)
        cover = _gather(chosen, pos, range(m_alg), p, c)
        kernel, free = _kernel_sparse(*cover, (n, ncols), p)
        pos, actions = _syzygy(kernel, free, ncols, p, c)

    return ResolutionData(M, tuple(betti), tuple(gen_columns))


def syzygy_step(M: KEModule) -> tuple[int, KEModule]:
    """One step of the minimal resolution: (number of generators, syzygy module)."""
    gens, _, free, _, stacked = _first_syzygy(M)
    n = len(free)
    arrays = _densify(stacked, (n, n * M.c)).reshape(n, n, M.c)
    actions = tuple(MatrixFp(M.field, arrays[:, :, j]) for j in range(M.c))
    return len(gens), KEModule(M.field, M.c, n, actions)


def betti_numbers(M: KEModule, bound: int) -> list[int]:
    """Ranks of the free modules in the minimal resolution, degrees 0..bound."""
    return list(resolve(M, bound).betti)


@dataclass(frozen=True)
class ExtTable:
    """Dimensions of Ext^i(source, target) for i = 0..bound."""

    source: KEModule
    target: KEModule
    dims: tuple[int, ...]

    @property
    def bound(self) -> int:
        return len(self.dims) - 1

    def __iter__(self):
        return iter(self.dims)

    def __len__(self) -> int:
        return len(self.dims)

    def __getitem__(self, i):
        return self.dims[i]


def ext_dims(M: KEModule, N: KEModule, bound: int) -> ExtTable:
    """dim_k Ext^i(M, N) for i = 0..bound, via the minimal resolution
    resolve(M, bound + 1), which the memo shares between targets.

    SyzygyLimitError is raised before the target's monomial cover (p^c *
    dim N^2 cells) or a cochain matrix of more than DEFAULT_CELL_CAP cells is
    built.
    """
    if bound < 0:
        raise ValueError("ext bound must be nonnegative")
    if M.field.p != N.field.p or M.c != N.c:
        raise ValueError("modules must share the same p and c")
    p, c = M.p, M.c
    m_alg = p**c

    if M.n == 0 or N.n == 0:
        return ExtTable(M, N, tuple([0] * (bound + 1)))

    n_t = N.n
    _check_cells(m_alg * n_t * n_t, f"monomial cover of the dimension-{n_t} target needs")
    resolution = resolve(M, bound + 1)
    # row e of rho_flat is the matrix of x^e on N, flattened: its cover by
    # all of its basis vectors
    cover = _product_cover([a.array for a in N.actions], list(range(n_t)), p)
    rho_flat = cover.reshape(n_t * n_t, m_alg).T

    ranks: list[int] = []
    for i in range(bound + 1):
        b_i = resolution.betti[i]
        b_next = resolution.betti[i + 1]
        if b_i == 0 or b_next == 0:
            ranks.append(0)
            continue
        _check_cells(b_next * n_t * b_i * n_t, f"Ext^{i} cochain matrix is {b_next * n_t}x{b_i * n_t},")
        # Hom(F_i, N) -> Hom(F_{i+1}, N) sends (v_t) to the tuple whose s-th
        # entry is sum_t (sum_e coef[(t, s), e] rho[e]) v_t; each (t, s)
        # occurs once, so its block is written, not added.
        t, s, coef = resolution.gen_columns[i]
        cochain = np.zeros((b_next, b_i, n_t, n_t), dtype=np.int64)
        cochain[s, t] = (coef @ rho_flat).reshape(-1, n_t, n_t)
        mat = cochain.transpose(0, 2, 1, 3).reshape(b_next * n_t, b_i * n_t) % p
        ranks.append(_rank(mat, p))

    dims = []
    for i in range(bound + 1):
        d = resolution.betti[i] * n_t - ranks[i] - (ranks[i - 1] if i > 0 else 0)
        dims.append(d)
    return ExtTable(M, N, tuple(dims))


def _hom_projective(M: KEModule, N: KEModule, forms: MatrixFp) -> bool:
    """Whether Hom_k(M, N) is projective over the subalgebra of kE spanned
    by the d independent linear forms that are the rows of `forms` (all of
    kE for the c x c identity), a polynomial algebra F_p[y1..yd]/(yi^p).

    H = Hom_k(M, N) is free exactly when p^d * dim PHom(M, N) = dim H
    (Higman's criterion): PHom is the image of the norm element
    prod_i y_i^(p-1) on H, whose rank counts the free summands of H.  So the
    answer is False at once when p^d does not divide h = dim H (h = 0 needs
    no case: PHom is 0 x 0, of rank 0).  Otherwise PHom is spanned by the
    maps that factor through the cover F -> N, F free of rank n = dim N,
    sending e_t to n_t.  The subalgebra is a Frobenius algebra, so every map
    M -> F is m -> sum_e lambda(y^(e^ - e) m) y^e for a functional lambda,
    with e^ the top monomial; one spanning map per (n_t, basis functional
    lambda) has entry (i, j) equal to sum_e (y^e n_t)_i (y^(e^ - e))_{lambda j}.
    Digit-wise subtraction from e^ never borrows, so y^(e^ - e) is monomial
    index q - 1 - e for q = p^d, and the h x h spanning matrix is one
    product of the two modules' restricted monomial covers
    (_restricted_cover).  SyzygyLimitError is raised if it, or either
    cover, has more than DEFAULT_CELL_CAP cells.  The early answer and the
    refusal come before any cover is built or fetched from the memo.
    """
    m, n = M.n, N.n
    q = M.p**forms.rows
    h = m * n
    if h % q:
        return False
    _check_cells(max(h * h, q * m * m, q * n * n), f"PHom matrix of a dimension-{h} Hom space and its covers need")
    cover_m, cover_n = _restricted_cover(M, forms), _restricted_cover(N, forms)
    # left[(i, t), e] = (y^e n_t)_i and right[e, (j, lam)] = (y^(q-1-e))_{lam j}
    left = cover_n.reshape(n * n, q)
    right = cover_m.reshape(m, m, q)[:, :, ::-1].transpose(2, 1, 0).reshape(q, m * m)
    phom = _matmul(left, right, M.p).reshape(n, n, m, m).transpose(0, 2, 1, 3)
    return q * _rank(phom.reshape(h, h), M.p) == h


# One avrunin-scott round asks 168 distinct (module, forms) keys: 8 modules
# times the 3, 4 and 14 proper subspaces over (2,2), (3,2) and (2,3);
# ext_eventually_zero adds one identity key per module, which the oracle
# shares at d = c.  An entry holds p^d * dim M^2 cells, at most the cell
# cap, which _hom_projective checks before it asks for a cover.
@lru_cache(maxsize=256)
def _restricted_cover(M: KEModule, forms: MatrixFp) -> np.ndarray:
    """The monomial cover of M, restricted to the subalgebra spanned by the
    rows of `forms`, by all of M's basis vectors; read-only, as the memo
    shares it."""
    cover = _product_cover(_restricted_arrays(M, forms.array), range(M.n), M.p)
    cover.setflags(write=False)
    return cover


def ext_eventually_zero(M: KEModule, N: KEModule) -> bool:
    """Whether Ext^i(M, N) vanishes for all large i, decided exactly.

    With g_i = 1 + x_i the algebra kE is the group algebra of (Z/p)^c, so
    Ext^i(M, N) = Ext^i(k, H) for H = Hom_k(M, N) with g acting by
    f -> g f g^-1.  By the Avrunin-Scott/Carlson tensor-product theorem
    (Benson, Representations and Cohomology II) Ext^i(k, H) vanishes for all
    large i exactly when H is projective.  That is decided by the rank of
    PHom(M, N), the maps that factor through a projective (_hom_projective;
    Benson, Representations and Cohomology I, 3.6): one h x h matrix of h^2
    cells for h = dim M * dim N, none at all when p^c does not divide h.
    Its covers are the oracle's at d = c, from the same memo.
    SyzygyLimitError is raised before a matrix of more than DEFAULT_CELL_CAP
    cells is built.
    """
    if M.field.p != N.field.p or M.c != N.c:
        raise ValueError("modules must share the same p and c")
    return _hom_projective(M, N, MatrixFp.identity(M.field, M.c))
