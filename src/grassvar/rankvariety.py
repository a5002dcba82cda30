"""Rank varieties of kE-modules, as ideals in F_p[a1..ac].

A nonzero point u of k^c determines the element u1*x1 + .. + uc*xc of the
algebra, and the module is free over the subalgebra it generates exactly when
U(u)^(p-1) has rank r = n/p, the largest value its nilpotency allows.  The
rank variety is the locus where that rank drops, cut out by the r-minors of
the generic matrix A = U(a)^(p-1).  When p does not divide n no point is free
and the variety is all of k^c (the zero ideal); the zero module has empty
variety (the unit ideal).

The X_i commute, so A = sum over |alpha| = p - 1 of a^alpha A_alpha with
constant A_alpha = ((p-1)!/alpha!) X^alpha, a unit times X^alpha (for p = 2,
the actions).  Let I be the rows whose coefficient rows, the A_alpha side by
side, are independent over F_p.  Then A = C A[I, :] for a constant C with the
identity in rows I, so by Cauchy-Binet each r-minor of A is a combination of
those of A[I, :], which are r-minors of A.  The same holds on the right for
the columns J of A[I, :] whose stacked coefficient columns are independent.
So I_r(A) = I_r(A[I, J]), and its reduced Groebner basis, being unique, is
unchanged.  The rows of A lie in rad^(p-1) M and its kernel holds the socle,
so |I|, |J| <= n - 1; the one cap, MAX_MINORS, counts the C(|I|, r) C(|J|, r)
minors before any is expanded.  fp._minors, a memoised Laplace expansion,
expands them on entries held as dicts of packed monomials.  A minor has
degree r(p - 1) < n, far below the packed fields' bound 2^19, so adding
packed monomials multiplies them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, combinations, combinations_with_replacement
from math import comb, factorial, prod

import numpy as np

from .errors import MinorLimitError
from .fp import _integer, _matmul, _minors, _rref
from .modules import KEModule
from .poly import Ideal, PolyRing, _vanishing, buchberger_reduced, ideal

MAX_MINORS = 250_000


def coordinate_ring(field, c: int) -> PolyRing:
    """F_p[a1..ac] with the graded reverse lexicographic order; a PolyRing
    is one object per (field, names, order), so ideals of different modules
    share it."""
    return PolyRing(field, [f"a{i + 1}" for i in range(c)])


@dataclass(frozen=True)
class VarietyIdeal1:
    """A rank variety inside k^c: raw generators and their reduced
    Groebner basis in F_p[a1..ac]."""

    ring: PolyRing
    raw: Ideal
    gb: Ideal

    @property
    def c(self) -> int:
        return len(self.ring.names)

    def is_empty(self) -> bool:
        return self.gb.is_unit_ideal()

    def is_full(self) -> bool:
        return self.gb.is_zero_ideal()


def _power_coefficients(M: KEModule) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The alpha with |alpha| = p - 1, and the A_alpha = ((p-1)!/alpha!) X^alpha
    stacked on a last axis, so that U(a)^(p-1) = sum a^alpha A_alpha."""
    p, c = M.p, M.c
    mul = lambda x, y: _matmul(x, y, p)
    # powers[i][k - 1] = X_i^k for 0 < k < p
    powers = [list(accumulate([X.array] * (p - 1), mul)) for X in M.actions]
    exps, mats = [], []
    for combo in combinations_with_replacement(range(c), p - 1):
        alpha = tuple(combo.count(i) for i in range(c))
        A = reduce(mul, [powers[i][k - 1] for i, k in enumerate(alpha) if k])
        coef = factorial(p - 1) // prod(map(factorial, alpha)) % p
        exps.append(alpha)
        mats.append(A if coef == 1 else A * coef % p)
    return exps, np.stack(mats, axis=-1)


@lru_cache(maxsize=256)
def rank_variety_ideal(M: KEModule) -> VarietyIdeal1:
    """The ideal of the rank variety of M in F_p[a1..ac].

    Results are memoised on the (frozen) module in a 256-entry
    least-recently-used cache.  A hit does no Groebner work, so it spends
    none of the enclosing groebner_budget; a call that raises stores nothing.
    """
    ring = coordinate_ring(M.field, M.c)
    p = M.p
    if M.n % p or not M.n:
        # all of k^c for a dimension prime to p, and none for the zero module
        raw = ideal(ring, [] if M.n else [ring.one])
        return VarietyIdeal1(ring, raw, raw)
    size = M.n // p
    exps, A = _power_coefficients(M)
    # the module docstring's I and J, the pivots of one row reduction each:
    # rows with independent coefficients A[r], then columns with A[I][:, s]
    I = _rref(A.reshape(M.n, -1).T, p)[1]
    J = _rref(A[I].transpose(0, 2, 1).reshape(-1, M.n), p)[1]
    count = comb(len(I), size) * comb(len(J), size)
    if count > MAX_MINORS:
        raise MinorLimitError(
            f"rank variety of a dimension-{M.n} module needs {count} {size}-minors "
            f"of a {len(I)}x{len(J)} matrix, over the cap {MAX_MINORS}"
        )
    # entry (i, j) of A[I, J] as {packed a^alpha: coefficient}, the ring's
    # own monomials; only the nonzero minors, in row-then-column order,
    # become Polynomials
    monos = [ring._pack(alpha) for alpha in exps]
    minor = _minors([[{m: a for m, a in zip(monos, e) if a} for e in row] for row in A[I][:, J].tolist()], p)
    gens = []
    for R in combinations(range(len(I)), size):
        for S in combinations(range(len(J)), size):
            if g := minor(R, S):
                gens.append(ring._from_packed(g))
    raw = ideal(ring, gens)
    return VarietyIdeal1(ring, raw, buchberger_reduced(raw))


def pair_variety_ideal(M: KEModule, N: KEModule) -> VarietyIdeal1:
    """Ideal of the intersection of the rank varieties of M and N."""
    if M.field.p != N.field.p or M.c != N.c:
        raise ValueError("modules must share the same p and c")
    vm = rank_variety_ideal(M)
    vn = rank_variety_ideal(N)
    ring = vm.ring
    raw = ideal(ring, vm.raw.gens + vn.raw.gens)
    combined = ideal(ring, vm.gb.gens + vn.gb.gens)
    return VarietyIdeal1(ring, raw, buchberger_reduced(combined))


def point_in_rank_variety(V: VarietyIdeal1, point) -> bool:
    """Whether a point of k^c satisfies every equation of the variety: the
    point alone, as a stack of one, through poly._vanishing."""
    values = [_integer(v, "coordinate") % V.ring.p for v in point]
    if len(values) != V.c:
        raise ValueError(f"expected {V.c} coordinates, got {len(values)}")
    return bool(_vanishing(V.gb.gens, np.array([values], dtype=np.int64))[0])


def _check_cone(gb: Ideal) -> None:
    """ValueError unless every element of the basis gb is homogeneous: a
    point scaled so its first nonzero coordinate is 1 stands for its line,
    and a projection chart's identity holds, only on a cone."""
    bad = next((g for g in gb.gens if not g.is_homogeneous()), None)
    if bad is not None:
        raise ValueError(f"Z must define a cone, but its basis element {bad} is not homogeneous")


def rational_points(V: VarietyIdeal1) -> list[tuple[int, ...]]:
    """Normalized representatives of the projective F_p-points of the variety.

    Each line through the origin is reported once, scaled so its first
    nonzero coordinate is 1; points are sorted lexicographically.  They are
    read from one scan of the rational points of G_1(k^c) per reduced
    basis, the scan the oracle reads (grassmann._rational_lines).  Above
    grassmann.DEFAULT_SUBSPACE_CAP lines it raises SubspaceLimitError, as
    enumerate_subspaces does, and on a V that is not a cone, whose scaled
    points do not stand for lines, ValueError.
    """
    # grassmann imports this module, so its scan is imported on first use
    from .grassmann import _check_cap, _rational_lines

    _check_cap(V.ring.field, V.c, 1)
    return sorted(_rational_lines(V.gb))
