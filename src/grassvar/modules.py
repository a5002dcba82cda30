"""Finite-dimensional modules over kE = F_p[x_1..x_c]/(x_1^p..x_c^p).

A module is c commuting n x n matrices X_i with X_i^p = 0, in column
convention: entry (i, j) of an action matrix is the coefficient of basis
vector i in the image of basis vector j.

The regular module uses the monomial basis x^e ordered by the base-p integer
sum(e_i * p^(i-1)), so for p=2, c=2 the basis reads (1, x1, x2, x1*x2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import ModuleAxiomError, ResourceLimitError
from .fp import MatrixFp, PrimeField, _integer, _kernel_free, _matmul, _rank

DEFAULT_DIM_CAP = 256


@dataclass(frozen=True)
class LinearForm:
    """A nonzero linear combination sum(coeffs[i] * x_{i+1}) of the generators."""

    field: PrimeField
    coeffs: tuple

    def __post_init__(self) -> None:
        norm = tuple(_integer(a, "form coefficient") % self.field.p for a in self.coeffs)
        object.__setattr__(self, "coeffs", norm)
        if not norm or not any(norm):
            raise ValueError("linear form must be nonzero")

    @property
    def c(self) -> int:
        return len(self.coeffs)

    def __str__(self) -> str:
        bits = []
        for i, a in enumerate(self.coeffs):
            if a == 1:
                bits.append(f"x{i + 1}")
            elif a:
                bits.append(f"{a}*x{i + 1}")
        return " + ".join(bits)


@dataclass(frozen=True)
class KEModule:
    """c commuting nilpotent actions of bounded order p on an n-dimensional space.

    Construction raises ModuleAxiomError, listing every violation, unless
    X_i^p = 0 and X_i X_j = X_j X_i for all i and j.
    """

    field: PrimeField
    c: int
    n: int
    actions: tuple

    def __post_init__(self) -> None:
        if self.c < 1:
            raise ValueError("need at least one algebra generator")
        if self.n < 0:
            raise ValueError("negative dimension")
        if len(self.actions) != self.c:
            raise ValueError(f"expected {self.c} action matrices, got {len(self.actions)}")
        for a in self.actions:
            if not isinstance(a, MatrixFp) or a.p != self.field.p:
                raise ValueError("action matrices must share the module's prime field")
            if a.rows != self.n or a.cols != self.n:
                raise ValueError(f"action matrices must be {self.n}x{self.n}")
        p, arrays = self.field.p, [a.array for a in self.actions]
        problems = []
        for i, a in enumerate(arrays):
            power = a
            for _ in range(p - 1):
                power = _matmul(power, a, p)
            if power.any():
                problems.append(f"X{i + 1}^{p} != 0")
        for (i, a), (j, b) in combinations(enumerate(arrays), 2):
            if not np.array_equal(_matmul(a, b, p), _matmul(b, a, p)):
                problems.append(f"X{i + 1} and X{j + 1} do not commute")
        if problems:
            raise ModuleAxiomError(problems)

    @property
    def p(self) -> int:
        return self.field.p


def zero_module(field: PrimeField, c: int) -> KEModule:
    z = MatrixFp.zeros(field, 0, 0)
    return KEModule(field, c, 0, tuple(z for _ in range(c)))


@lru_cache(maxsize=None)
def regular_module(field: PrimeField, c: int) -> KEModule:
    """kE as a module over itself, on the monomial basis; immutable, so built
    once per (field, c), of which the dimension cap admits a few dozen."""
    p = field.p
    n = p**c
    if n > DEFAULT_DIM_CAP:
        raise ResourceLimitError(
            f"regular module dimension {n} exceeds cap {DEFAULT_DIM_CAP}"
        )
    # x_i sends x^e to x^(e + e_i), index j to j + p^i, unless digit i of j
    # is already p - 1
    digits = np.arange(n)[:, None] // p ** np.arange(c) % p
    acts = []
    for i in range(c):
        j = np.flatnonzero(digits[:, i] < p - 1)
        a = np.zeros((n, n), dtype=np.int64)
        a[j + p**i, j] = 1
        acts.append(MatrixFp(field, a))
    return KEModule(field, c, n, tuple(acts))


def _coerce_form(field: PrimeField, c: int, form) -> LinearForm:
    if not isinstance(form, LinearForm):
        form = LinearForm(field, tuple(form))
    if form.field != field or form.c != c:
        raise ValueError("linear form has wrong field or arity")
    return form


def action_of(M: KEModule, u) -> MatrixFp:
    """The matrix of sum(u_i * X_i) acting on M."""
    u = _coerce_form(M.field, M.c, u)
    return MatrixFp(M.field, _restricted_arrays(M, np.array([u.coeffs], dtype=np.int64))[0])


def quotient_by_linear_forms(field: PrimeField, c: int, forms: Sequence) -> KEModule:
    """The cyclic module kE / (u_1, .., u_s) for independent linear forms u_j,
    on its standard monomials, in closed form.

    Row-reduce the forms.  The free variables are the c - s variables that
    are not pivots, free[0] < free[1] < ...; K is the c x (c - s) kernel
    basis _kernel_free reads off the reduced form: row free[t] is the unit
    vector e_t, and the row of the pivot variable of reduced form r is
    -red[r, free] mod p.  Then x_i acts as sum_t K[i, t] Y_t, where the Y_t
    are the actions of regular_module(field, c - s).  For s = c the
    quotient is k, with 1 x 1 zero actions.

    Why these are the actions of x_i on kE / I, I = (u_1, .., u_s), in the
    basis of its standard monomials (the monomials that are no element's
    leading term, its lowest-index term), in kE's base-p index order:
    - The leading terms of the reduced forms are the pivot variables: form
      r is its pivot variable x_j plus multiples of free x_k with k > j.
      Index order is compatible with products of monomials, whose indices
      add with no carry, so every monomial x^f divisible by x_j is the
      leading term of (x^f / x_j) * form r in I.  So the standard monomials
      are among the p^(c - s) monomials in the free variables.
    - x_i -> sum_t K[i, t] Y_t is an algebra map from kE onto
      A = kE over c - s variables: the image of x_i has p-th power 0 in
      characteristic p, x_free[t] goes to Y_t, and every form goes to 0,
      since the columns of K lie in the kernel of the form matrix.  So
      dim kE / I >= p^(c - s), the standard monomials are the monomials in
      the free variables, and the map is an isomorphism kE / I -> A that
      takes x^f to the monomial Y^f, in the same base-p index order, which
      is the basis order of regular_module(field, c - s).
    - So in that basis x_i acts as multiplication by sum_t K[i, t] Y_t in
      A, and an action matrix in a fixed basis is unique.
    """
    forms = [_coerce_form(field, c, f) for f in forms]
    if not forms:
        return regular_module(field, c)
    coeff_rows = np.array([f.coeffs for f in forms], dtype=np.int64)
    K, free = _kernel_free(coeff_rows, field.p)
    if len(free) != c - len(forms):
        raise ValueError("linear forms are not independent")
    if not free:
        zero = MatrixFp.zeros(field, 1, 1)
        return KEModule(field, c, 1, tuple(zero for _ in range(c)))
    Y = regular_module(field, len(free))
    acts = tuple(MatrixFp(field, a) for a in _restricted_arrays(Y, K))
    return KEModule(field, c, Y.n, acts)


def direct_sum(M: KEModule, N: KEModule) -> KEModule:
    if M.field != N.field or M.c != N.c:
        raise ValueError("direct sum needs matching field and arity")
    acts = tuple(
        MatrixFp.block_diag(M.field, [a, b]) for a, b in zip(M.actions, N.actions)
    )
    return KEModule(M.field, M.c, M.n + N.n, acts)


def dual(M: KEModule) -> KEModule:
    """The linear dual with transposed actions.

    The algebra is symmetric, so this transpose model also computes the
    algebra-linear dual Hom(M, kE) up to isomorphism.
    """
    return KEModule(M.field, M.c, M.n, tuple(a.transpose() for a in M.actions))


def restrict_to_subspace(M: KEModule, basis: Sequence) -> KEModule:
    """View M over the rank-d subalgebra generated by the given independent forms."""
    forms = [_coerce_form(M.field, M.c, f) for f in basis]
    if not forms:
        raise ValueError("restriction needs at least one form")
    rows = np.array([f.coeffs for f in forms], dtype=np.int64)
    if _rank(rows, M.p) != len(forms):
        raise ValueError("restriction basis is not independent")
    acts = tuple(MatrixFp(M.field, a) for a in _restricted_arrays(M, rows))
    return KEModule(M.field, len(forms), M.n, acts)


def _restricted_arrays(M: KEModule, forms: np.ndarray) -> list[np.ndarray]:
    """The arrays of sum_i forms[r, i] * X_i on M, one per row r of the
    d x c array `forms`, reduced mod p.

    For independent rows they are the actions of M restricted to the
    subalgebra the forms generate, and they need no check: combinations of
    commuting X_i commute, and u^p = sum_i a_i^p X_i^p = 0 in characteristic p.
    """
    stacked = np.stack([a.array for a in M.actions]).reshape(M.c, M.n * M.n)
    return list((forms @ stacked % M.p).reshape(len(forms), M.n, M.n))


def jordan_type(M: KEModule, u) -> tuple:
    """Jordan block sizes (descending) of the action of the linear form u."""
    U = action_of(M, u)
    p = M.p
    ranks = [M.n]
    power = MatrixFp.identity(M.field, M.n)
    for _ in range(p):
        power = power @ U
        ranks.append(power.rank())
    ranks.append(ranks[-1])
    parts: list[int] = []
    for size in range(p, 0, -1):
        mult = ranks[size - 1] - 2 * ranks[size] + ranks[size + 1]
        parts.extend([size] * mult)
    assert sum(parts) == M.n, "Jordan type bookkeeping failed (invalid module?)"
    return tuple(parts)


def is_free_over_line(M: KEModule, u) -> bool:
    """Whether M restricted to the subalgebra k[u] is free (all blocks of size p)."""
    if M.n % M.p:
        return False
    U = action_of(M, u)
    return U.pow(M.p - 1).rank() == M.n // M.p


# --- JSON-facing dict form ------------------------------------------------------

def module_to_dict(M: KEModule) -> dict:
    return {
        "p": M.p,
        "c": M.c,
        "dim": M.n,
        "actions": [a.tolist() for a in M.actions],
    }


def _is_int(v) -> bool:
    # JSON's true and false load as bool, which is a subclass of int
    return isinstance(v, int) and not isinstance(v, bool)


def module_from_dict(d: dict) -> KEModule:
    if not isinstance(d, dict):
        raise ValueError("module document must be a JSON object")
    missing = {"p", "c", "dim", "actions"} - set(d)
    if missing:
        raise ValueError(f"module document missing keys: {sorted(missing)}")
    p, c, n = d["p"], d["c"], d["dim"]
    if not (_is_int(p) and _is_int(c) and _is_int(n)):
        raise ValueError("p, c and dim must be integers")
    field = PrimeField(p)
    acts = d["actions"]
    if not isinstance(acts, list) or len(acts) != c:
        raise ValueError(f"expected {c} action matrices")
    mats = []
    for a in acts:
        if (
            not isinstance(a, list)
            or len(a) != n
            or any(not isinstance(row, list) or len(row) != n for row in a)
            or any(not _is_int(v) for row in a for v in row)
        ):
            raise ValueError(f"action matrices must be {n}x{n} integer arrays")
        # shaped n x n, so that dim 0's actions [] are 0 x 0
        mats.append(MatrixFp(field, np.reshape(a, (n, n))))
    return KEModule(field, c, n, tuple(mats))
