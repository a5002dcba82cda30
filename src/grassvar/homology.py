"""Minimal free resolutions and Ext dimensions over k[x1..xc]/(xi^p).

The algebra kE is local with radical generated by the images of the xi, so
minimal covers are read off from a basis of M / rad M.  A free cover F -> M
sends the generator t to a chosen basis vector, and the column of F recording
x^e . (generator t) is built by repeated application of the action matrices.
The kernel of the cover, in the monomial coordinates of F, is the first
syzygy; iterating yields the minimal resolution, whose ranks are the Betti
numbers.  Ext^i(M, N) is computed as cohomology of Hom(F_*, N), assembled
from the generator columns of each differential.  Eventual vanishing of Ext
needs no resolution: it is decided by one rank on Hom_k(M, N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SyzygyLimitError
from .fp import MatrixFp, _kernel_free, _matmul, _rref
from .modules import KEModule, regular_module

# Free covers, their kernels, Ext cochain matrices and the Hom radical matrix
# of ext_eventually_zero are dense int64 matrices; each is refused past this
# many cells (80 MB).  A syzygy step holds about eleven matrices of its
# cover's size at once, so a step at the cap peaks near 1 GB.
DEFAULT_CELL_CAP = 10_000_000


def _lowest_digit(e: int, p: int) -> int:
    i = 0
    while e % p == 0:
        e //= p
        i += 1
    return i


def _monomial_actions(actions: list[np.ndarray], p: int, c: int) -> np.ndarray:
    """Stack rho[e] = matrix of x^e acting on the module, e in base-p index order."""
    m = p**c
    n = actions[0].shape[0] if actions else 0
    rho = np.zeros((m, n, n), dtype=np.int64)
    rho[0] = np.eye(n, dtype=np.int64)
    for e in range(1, m):
        i = _lowest_digit(e, p)
        rho[e] = _matmul(actions[i], rho[e - p**i], p)
    return rho


def _generator_indices(arrays: list[np.ndarray], p: int) -> list[int]:
    """Coordinate indices whose basis vectors span a complement of rad M."""
    n = arrays[0].shape[0]
    if n == 0:
        return []
    radical_rows = np.concatenate([a.T for a in arrays], axis=0)
    _, piv = _rref(radical_rows, p)
    pivset = set(piv)
    return [j for j in range(n) if j not in pivset]


@dataclass(frozen=True)
class ResolutionData:
    """A minimal free resolution of `module`, truncated at homological degree
    len(betti) - 1.

    betti[i] is the rank of the i-th free module.  gen_columns[i - 1]
    records the differential d_i on generators: column s holds the image of
    generator s of F_i in the monomial coordinates of F_{i-1}, an array of
    shape (betti[i-1] * p**c, betti[i]).  differentials, when kept, holds the
    full matrices of d_i in monomial coordinates on both sides.
    """

    module: KEModule
    betti: tuple[int, ...]
    gen_columns: tuple[np.ndarray, ...]
    differentials: tuple[np.ndarray, ...] | None = None

    @property
    def depth(self) -> int:
        return len(self.betti) - 1


def _syzygy(
    actions: list[np.ndarray],
    gens: list[int],
    reg: list[np.ndarray],
    p: int,
    degree: int,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Cover a module by the free module on `gens` and take the kernel.

    `actions` are the module's action arrays and `reg` those of kE on its
    monomial basis.  Returns the cover (module coordinates by monomial
    coordinates of the free module), the kernel's basis as columns in the
    monomial coordinates, and the action arrays of the kernel on that basis.

    The cover is surjective, so it is n x (b * p^c) for a module of
    dimension n and its kernel is (b * p^c) x (b * p^c - n); both are dense,
    and SyzygyLimitError is raised before either is built if one of them
    has more than DEFAULT_CELL_CAP cells.
    """
    m_alg = p ** len(reg)
    b = len(gens)
    n = actions[0].shape[0]
    ncols = b * m_alg
    cells = ncols * max(n, ncols - n)
    if cells > DEFAULT_CELL_CAP:
        raise SyzygyLimitError(
            f"free cover of a dimension-{n} module by {ncols} columns at degree "
            f"{degree} needs a dense matrix of {cells} cells, over the cap of "
            f"{DEFAULT_CELL_CAP}"
        )
    cover = np.zeros((n, ncols), dtype=np.int64)
    for t, g in enumerate(gens):
        cover[g, t * m_alg] = 1
    for e in range(1, m_alg):
        j = _lowest_digit(e, p)
        cover[:, e::m_alg] = _matmul(actions[j], cover[:, e - p**j :: m_alg], p)

    kernel, free = _kernel_free(cover, p)
    next_actions = []
    for a in reg:
        # kernel[free, :] is the identity, so the induced action on the
        # syzygy is just the free-row block of (x_j . kernel).
        moved = _matmul_stacked(a, kernel, b, m_alg, p)
        next_actions.append(moved[free, :])
    return cover, kernel, next_actions


def resolve(M: KEModule, bound: int, keep_differentials: bool = False) -> ResolutionData:
    """Minimal free resolution of M with Betti numbers through degree `bound`.

    Performs full syzygy steps up to degree bound - 1 and a final generator
    count at degree bound, so betti has bound + 1 entries and gen_columns has
    bound entries (the differentials d_1 .. d_bound on generators).  Only the
    current syzygy is held while the resolution is built.  SyzygyLimitError
    is raised at the first degree whose free cover or its kernel would have
    more than DEFAULT_CELL_CAP cells.
    """
    if bound < 0:
        raise ValueError("resolution bound must be nonnegative")
    p = M.p
    reg = [a.array for a in regular_module(M.field, M.c).actions]

    betti: list[int] = []
    gen_columns: list[np.ndarray] = []
    differentials: list[np.ndarray] = []

    cur = [a.array for a in M.actions]
    prev_kernel: np.ndarray | None = None

    for i in range(bound + 1):
        gens = _generator_indices(cur, p)
        betti.append(len(gens))
        if prev_kernel is not None:
            gen_columns.append(prev_kernel[:, gens])
        if i == bound:
            break

        cover, kernel, cur = _syzygy(cur, gens, reg, p, i)
        if keep_differentials and prev_kernel is not None:
            differentials.append(_matmul(prev_kernel, cover, p))
        prev_kernel = kernel

    return ResolutionData(
        module=M,
        betti=tuple(betti),
        gen_columns=tuple(gen_columns),
        differentials=tuple(differentials) if keep_differentials else None,
    )


def _matmul_stacked(
    action: np.ndarray, kernel: np.ndarray, blocks: int, m_alg: int, p: int
) -> np.ndarray:
    """Apply a regular-representation action to every generator block of a
    kernel matrix of shape (blocks * m_alg, w)."""
    w = kernel.shape[1]
    if blocks == 0 or w == 0:
        return np.zeros_like(kernel)
    stacked = kernel.reshape(blocks, m_alg, w)
    out = (action[None, :, :] @ stacked) % p
    return out.reshape(blocks * m_alg, w)


def syzygy_step(M: KEModule) -> tuple[int, KEModule]:
    """One step of the minimal resolution: (number of generators, syzygy module)."""
    cur = [a.array for a in M.actions]
    gens = _generator_indices(cur, M.p)
    reg = [a.array for a in regular_module(M.field, M.c).actions]
    _, kernel, arrays = _syzygy(cur, gens, reg, M.p, 0)
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


def ext_dims(
    M: KEModule,
    N: KEModule,
    bound: int,
    resolution: ResolutionData | None = None,
) -> ExtTable:
    """dim_k Ext^i(M, N) for i = 0..bound, via a minimal resolution of M.

    A precomputed resolution of M may be passed in; it must have been built
    with resolve(M, bound + 1) or deeper.  SyzygyLimitError is raised before
    a cochain matrix of more than DEFAULT_CELL_CAP cells is built.
    """
    if bound < 0:
        raise ValueError("ext bound must be nonnegative")
    if M.field.p != N.field.p or M.c != N.c:
        raise ValueError("modules must share the same p and c")
    p, c = M.p, M.c
    m_alg = p**c

    if M.n == 0 or N.n == 0:
        return ExtTable(M, N, tuple([0] * (bound + 1)))

    if resolution is None:
        resolution = resolve(M, bound + 1)
    else:
        if resolution.module != M:
            raise ValueError("resolution was built for a different module")
        if resolution.depth < bound + 1:
            raise ValueError(
                f"resolution depth {resolution.depth} is too shallow for "
                f"ext bound {bound}"
            )

    rho = _monomial_actions([a.array for a in N.actions], p, c)
    n_t = N.n

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
        ranks.append(len(_rref(mat, p)[1]))

    dims = []
    for i in range(bound + 1):
        d = resolution.betti[i] * n_t - ranks[i] - (ranks[i - 1] if i > 0 else 0)
        dims.append(d)
    return ExtTable(M, N, tuple(dims))


def ext_eventually_zero(M: KEModule, N: KEModule) -> bool:
    """Whether Ext^i(M, N) vanishes for all large i, decided exactly.

    With g_i = 1 + x_i the algebra kE is the group algebra of (Z/p)^c, so
    Ext^i(M, N) = Ext^i(k, H) for H = Hom_k(M, N) with g acting by
    f -> g f g^-1.  By the Avrunin-Scott/Carlson tensor-product theorem
    (Benson, Representations and Cohomology II) Ext^i(k, H) vanishes for all
    large i exactly when H is projective, that is free: dim H equals p^c
    times dim H / rad H.  On column-major vec(f), x_i acts on H by
    (G_M^-T kron G_N) - I with G = 1 + X, and rad H is the span of the
    images of those c matrices, so the test is one rank computation.  The
    radical matrix is dense with c * h^2 cells for h = dim M * dim N, and
    SyzygyLimitError is raised before it is built if that exceeds
    DEFAULT_CELL_CAP.
    """
    if M.field.p != N.field.p or M.c != N.c:
        raise ValueError("modules must share the same p and c")
    p, c = M.p, M.c
    h = M.n * N.n
    if h == 0:
        return True
    if c * h * h > DEFAULT_CELL_CAP:
        raise SyzygyLimitError(
            f"Hom space needs a {c * h}x{h} radical matrix of {c * h * h} cells, "
            f"over the cap of {DEFAULT_CELL_CAP}"
        )
    eye = np.eye(h, dtype=np.int64)
    blocks = []
    for X, Y in zip(M.actions, N.actions):
        # (1 + X)^-1 = sum_{k < p} (-X)^k, since X^p = 0
        neg = (-X.array) % p
        inv = term = np.eye(M.n, dtype=np.int64)
        for _ in range(p - 1):
            term = _matmul(term, neg, p)
            inv = (inv + term) % p
        g_n = (np.eye(N.n, dtype=np.int64) + Y.array) % p
        # rows of A_i^T, so the rank loop runs over h columns, not c * h
        blocks.append((np.kron(inv.T, g_n) - eye).T % p)
    rank = len(_rref(np.concatenate(blocks, axis=0), p)[1])
    return h == p**c * (h - rank)
