"""Minimal free resolutions and Ext dimensions over k[x1..xc]/(xi^p).

The algebra kE is local with radical generated by the images of the xi, so
minimal covers are read off from a basis of M / rad M.  A free cover F -> M
sends the generator t to a chosen basis vector, and the column of F recording
x^e . (generator t) is built by repeated application of the action matrices.
The kernel of the cover, in the monomial coordinates of F, is the first
syzygy; iterating yields the minimal resolution, whose ranks are the Betti
numbers.

Past M itself no product is needed, because kE acts on a free module by
monomial shifts.  On F = kE^b with m = p^c monomials per generator, x^e sends
basis vector t*m + f to t*m + f + e when x^e x^f is not zero (no base-p digit
of f + e exceeds p - 1) and to 0 otherwise.  The kernel basis K is the
identity on its free rows, so on the syzygy x^e acts by a row gather: row r
of its matrix is row free[r] - e of K where x^e divides x^(free[r] mod m),
and zero elsewhere.  The syzygy's actions (e = x_j) and its next cover (e
running over all monomials) are both read off K this way.

resolve is memoised on (M, bound), so Ext tables of one source against many
targets share one resolution.  Its generator columns are the whole record:
the full differential d_i, which the library itself never needs, is the
same gather run over every row of the columns of d_i.

Ext^i(M, N) is computed as cohomology of Hom(F_*, N), assembled from the
generator columns of each differential.  Eventual vanishing of Ext needs no
resolution: it is decided by Higman's criterion, Hom_k(M, N) being free
exactly when p^c times the dimension of PHom(M, N), the maps that factor
through a projective, is dim M * dim N.  PHom is spanned by the columns of
one h x h product of monomial covers, h = dim M * dim N, so the test is one
product and one rank on h^2 cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SyzygyLimitError
from .fp import MatrixFp, _kernel_free, _matmul, _pivot_columns, _rank
from .modules import KEModule

# Free covers, their kernels, Ext cochain matrices, the h x h PHom matrix of
# ext_eventually_zero (h^2 cells for h = dim M * dim N) and the monomial
# covers of a module by all its basis vectors, which both PHom and the Ext
# cochains are built from (p^c * dim^2 cells), are dense int64 matrices;
# each is refused past this many cells (80 MB).  A syzygy step peaks at about
# eight matrices of its cover's size while the kernel of the cover is found
# (tracemalloc over resolve(k, 26) on (p, c) = (2, 3): 239 MB at a 30 MB
# cover, with the previous kernel and actions still held), so a step at the
# cap peaks near 640 MB.  The generator search reads only nonzeros and adds
# next to nothing.
DEFAULT_CELL_CAP = 10_000_000


def _lowest_digit(e: int, p: int) -> int:
    i = 0
    while e % p == 0:
        e //= p
        i += 1
    return i


def _generator_indices(arrays: list[np.ndarray], p: int) -> list[int]:
    """Coordinate indices whose basis vectors span a complement of rad M.

    rad M is the row space of the stack [a_1^T; ..; a_c^T] of the
    transposed action arrays, and the non-pivot columns of its echelon form
    index a complement.  The stack is never built: row j * n + i of it is
    column i of arrays[j], so its nonzeros are those of the arrays, and
    _pivot_columns reads them, as these matrices have about one nonzero per
    row deep in a resolution.
    """
    n = arrays[0].shape[0]
    rows, cols, vals = [], [], []
    for j, a in enumerate(arrays):
        k, i = np.nonzero(a)
        rows.append(j * n + i)
        cols.append(k)
        vals.append(a[k, i])
    piv = _pivot_columns(
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
        (len(arrays) * n, n), p,
    )
    pivset = set(piv)
    return [j for j in range(n) if j not in pivset]


@dataclass(frozen=True, eq=False)
class ResolutionData:
    """A minimal free resolution of `module`, truncated at homological degree
    len(betti) - 1.

    Equality and hashing are by identity: generated ones would compare and
    hash the arrays of gen_columns, which raises.

    betti[i] is the rank of the i-th free module.  gen_columns[i - 1]
    records the differential d_i on generators: column s holds the image of
    generator s of F_i in the monomial coordinates of F_{i-1}, an array of
    shape (betti[i-1] * p**c, betti[i]), read-only because resolve's memo
    shares it.
    """

    module: KEModule
    betti: tuple[int, ...]
    gen_columns: tuple[np.ndarray, ...]

    @property
    def depth(self) -> int:
        return len(self.betti) - 1

    def differential(self, i: int) -> np.ndarray:
        """The matrix of d_i: F_i -> F_{i-1} in monomial coordinates on both
        sides, for 1 <= i <= depth.  Column t * p^c + e is x^e times
        generator column t, a gather over every row of F_{i-1}."""
        if not 1 <= i <= self.depth:
            raise ValueError(f"need 1 <= i <= {self.depth}, got {i}")
        H = self.gen_columns[i - 1]
        p, c = self.module.p, self.module.c
        return _gather_cover(H, np.arange(H.shape[0]), list(range(H.shape[1])), p, c)


def _check_cover_cells(n: int, ncols: int, degree: int) -> None:
    """Refuse a cover of a dimension-n module by ncols columns, before it is
    built, if it or its kernel would have more than DEFAULT_CELL_CAP cells.

    The cover is surjective, so it is n x ncols and its kernel is
    ncols x (ncols - n); both are dense.
    """
    cells = ncols * max(n, ncols - n)
    if cells > DEFAULT_CELL_CAP:
        raise SyzygyLimitError(
            f"free cover of a dimension-{n} module by {ncols} columns at degree "
            f"{degree} needs a dense matrix of {cells} cells, over the cap of "
            f"{DEFAULT_CELL_CAP}"
        )


def _product_cover(actions: list[np.ndarray], gens: list[int], p: int) -> np.ndarray:
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


def _gather_cover(
    kernel: np.ndarray, free: np.ndarray, gens: list[int], p: int, c: int
) -> np.ndarray:
    """Cover the syzygy spanned by the columns of `kernel` by the free module
    on `gens`, with no products.

    Column t * p^c + e is x^e applied to basis vector gens[t], whose row r is
    kernel[free[r] - e, gens[t]] where x^e divides the monomial of free[r],
    and 0 elsewhere.  Its index arrays die with this frame, before the
    caller's elimination starts.  With every row free (free = arange) and
    `kernel` the generator columns of d_i, the same gather expands them to
    the full matrix of d_i.
    """
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


def _syzygy(
    cover: np.ndarray, p: int, c: int
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The kernel of a cover by a free module of rank b over kE.

    Returns the kernel's basis as columns in the monomial coordinates of
    kE^b, its free rows, on which the basis is the identity, and the action
    arrays of the kernel on that basis.  Row r of x_j's array is row
    free[r] - p^j of the kernel, or 0 where digit j of free[r] is 0: x_j
    shifts the basis of kE^b, and the free rows read the result off.
    """
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


# Each entry holds its generator columns, copies cut from the kernels, not
# views that would keep whole kernels alive; resolve(k, 21) over (2, 3) holds
# 17.5 MB of them, so the memo holds a few dozen resolutions, not hundreds.
# An ext-deep round asks for 19 distinct (module, depth) keys.
@lru_cache(maxsize=32)
def resolve(M: KEModule, bound: int) -> ResolutionData:
    """Minimal free resolution of M with Betti numbers through degree `bound`.

    Performs full syzygy steps up to degree bound - 1 and a final generator
    count at degree bound, so betti has bound + 1 entries and gen_columns has
    bound entries (the differentials d_1 .. d_bound on generators).  Only the
    current syzygy is held while the resolution is built.  The cover of M is
    built from its action arrays, every later cover by a gather from the
    previous kernel.  SyzygyLimitError is raised at the first degree whose
    free cover or its kernel would have more than DEFAULT_CELL_CAP cells.
    Memoised on (M, bound): a repeated call returns the same object, whose
    arrays are read-only, and a call that raises stores nothing.
    """
    if bound < 0:
        raise ValueError("resolution bound must be nonnegative")
    p, c = M.p, M.c
    m_alg = p**c

    betti: list[int] = []
    gen_columns: list[np.ndarray] = []

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

        _check_cover_cells(cur[0].shape[0], len(gens) * m_alg, i)
        if kernel is None:
            cover = _product_cover(cur, gens, p)
        else:
            cover = _gather_cover(kernel, free, gens, p, c)
        kernel, free, cur = _syzygy(cover, p, c)
        # spent: drop it before the next step
        cover = None

    return ResolutionData(M, tuple(betti), tuple(gen_columns))


def syzygy_step(M: KEModule) -> tuple[int, KEModule]:
    """One step of the minimal resolution: (number of generators, syzygy module)."""
    cur = [a.array for a in M.actions]
    gens = _generator_indices(cur, M.p)
    _check_cover_cells(M.n, len(gens) * M.p**M.c, 0)
    kernel, _, arrays = _syzygy(_product_cover(cur, gens, M.p), M.p, M.c)
    actions = tuple(MatrixFp(M.field, a) for a in arrays)
    return len(gens), KEModule(M.field, M.c, kernel.shape[1], actions)


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
    cells = m_alg * n_t * n_t
    if cells > DEFAULT_CELL_CAP:
        raise SyzygyLimitError(
            f"monomial cover of the dimension-{n_t} target needs {cells} cells, "
            f"over the cap of {DEFAULT_CELL_CAP}"
        )
    resolution = resolve(M, bound + 1)
    # rho[e] is the matrix of x^e on N: its cover by all of its basis vectors
    cover = _product_cover([a.array for a in N.actions], list(range(n_t)), p)
    rho = cover.reshape(n_t, n_t, m_alg).transpose(2, 0, 1)

    ranks: list[int] = []
    for i in range(bound + 1):
        b_i = resolution.betti[i]
        b_next = resolution.betti[i + 1]
        if b_i == 0 or b_next == 0:
            ranks.append(0)
            continue
        cells = b_next * n_t * b_i * n_t
        if cells > DEFAULT_CELL_CAP:
            raise SyzygyLimitError(
                f"Ext^{i} cochain matrix is {b_next * n_t}x{b_i * n_t}, {cells} "
                f"cells, over the cap of {DEFAULT_CELL_CAP}"
            )
        gen_cols = resolution.gen_columns[i].reshape(b_i, m_alg, b_next)
        # Hom(F_i, N) -> Hom(F_{i+1}, N) sends (v_t) to the tuple whose s-th
        # entry is sum_t (sum_e alpha[t, e, s] rho[e]) v_t.
        cochain = np.tensordot(gen_cols, rho, axes=([1], [0]))
        mat = cochain.transpose(1, 2, 0, 3).reshape(b_next * n_t, b_i * n_t) % p
        ranks.append(_rank(mat, p))

    dims = []
    for i in range(bound + 1):
        d = resolution.betti[i] * n_t - ranks[i] - (ranks[i - 1] if i > 0 else 0)
        dims.append(d)
    return ExtTable(M, N, tuple(dims))


def _hom_projective(XM: list[np.ndarray], XN: list[np.ndarray], p: int) -> bool:
    """Whether Hom_k(M, N) is projective over kE, for modules M and N given
    by their action arrays XM and XN over the same c generators.

    H = Hom_k(M, N) is free exactly when p^c * dim PHom(M, N) = dim H
    (Higman's criterion): PHom is the image of the norm element
    prod_i x_i^(p-1) on H, whose rank counts the free summands of H.  So the
    answer is False at once when p^c does not divide h = dim H.  Otherwise
    PHom is spanned by the maps that factor through the cover kE^n -> N
    sending e_t to basis vector n_t.  kE is a Frobenius algebra, so every map
    M -> kE is m -> sum_e lambda(x^(e^ - e) m) x^e for a functional lambda,
    with e^ the top monomial; one spanning map per (n_t, basis functional
    lambda) has entry (i, j) equal to sum_e (x^e n_t)_i (x^(e^ - e))_{lambda j}.
    Digit-wise subtraction from e^ never borrows, so x^(e^ - e) is monomial
    index q - 1 - e for q = p^c, and the h x h spanning matrix is one product
    of the two modules' monomial covers.  SyzygyLimitError is raised before
    it is built if it, or either cover, has more than DEFAULT_CELL_CAP cells.
    """
    q = p ** len(XM)
    m, n = XM[0].shape[0], XN[0].shape[0]
    h = m * n
    if h % q:
        return False
    if h == 0:
        return True
    cells = max(h * h, q * m * m, q * n * n)
    if cells > DEFAULT_CELL_CAP:
        raise SyzygyLimitError(
            f"PHom matrix of a dimension-{h} Hom space and its covers need "
            f"{cells} cells, over the cap of {DEFAULT_CELL_CAP}"
        )
    # left[(i, t), e] = (x^e n_t)_i and right[e, (j, lam)] = (x^(q-1-e))_{lam j}
    left = _product_cover(XN, list(range(n)), p).reshape(n * n, q)
    right = _product_cover(XM, list(range(m)), p).reshape(m, m, q)[:, :, ::-1]
    right = right.transpose(2, 1, 0).reshape(q, m * m)
    phom = _matmul(left, right, p).reshape(n, n, m, m).transpose(0, 2, 1, 3)
    return q * _rank(phom.reshape(h, h), p) == h


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
    SyzygyLimitError is raised before a matrix of more than DEFAULT_CELL_CAP
    cells is built.
    """
    if M.field.p != N.field.p or M.c != N.c:
        raise ValueError("modules must share the same p and c")
    return _hom_projective(
        [a.array for a in M.actions], [a.array for a in N.actions], M.p
    )
