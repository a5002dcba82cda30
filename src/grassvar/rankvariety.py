"""Rank varieties of kE-modules, as ideals in F_p[a1..ac].

A nonzero point u of k^c determines the element u1*x1 + .. + uc*xc of the
algebra, and the module is free over the subalgebra it generates exactly when
U(u)^(p-1) has rank n/p, the largest value its nilpotency allows.  The rank
variety is the locus where that rank drops, cut out by the (n/p)-minors of
the generic matrix U(a)^(p-1) with polynomial entries.  When p does not
divide n no point is free and the variety is all of k^c (the zero ideal);
the zero module has empty variety (the unit ideal).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from .errors import MinorLimitError
from .modules import KEModule
from .poly import Ideal, Polynomial, PolyRing, buchberger_reduced, ideal

MAX_MINOR_MATRIX = 12
MAX_MINOR_SIZE = 6


def coordinate_ring(field, c: int) -> PolyRing:
    """F_p[a1..ac] with the graded reverse lexicographic order."""
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


def _generic_action(M: KEModule, ring: PolyRing) -> list[list[Polynomial]]:
    """The matrix of a1*X1 + .. + ac*Xc with entries in F_p[a1..ac]."""
    gens = ring.gens()
    arrays = [a.array for a in M.actions]
    rows = []
    for r in range(M.n):
        row = []
        for s in range(M.n):
            f = ring.zero
            for i in range(M.c):
                coef = int(arrays[i][r, s])
                if coef:
                    f = f + gens[i] * coef
            row.append(f)
        rows.append(row)
    return rows


def _poly_matmul(
    a: list[list[Polynomial]], b: list[list[Polynomial]], ring: PolyRing
) -> list[list[Polynomial]]:
    n = len(a)
    out = []
    for r in range(n):
        row = []
        for s in range(n):
            f = ring.zero
            for t in range(n):
                if not (a[r][t].is_zero() or b[t][s].is_zero()):
                    f = f + a[r][t] * b[t][s]
            row.append(f)
        out.append(row)
    return out


def _matrix_power(rows: list[list[Polynomial]], e: int, ring: PolyRing):
    n = len(rows)
    out = [[ring.one if r == s else ring.zero for s in range(n)] for r in range(n)]
    for _ in range(e):
        out = _poly_matmul(out, rows, ring)
    return out


def _minor(
    rows: list[list[Polynomial]],
    row_idx: tuple[int, ...],
    col_idx: tuple[int, ...],
    ring: PolyRing,
    memo: dict,
) -> Polynomial:
    """Determinant of the indexed submatrix, memoized across overlapping
    minors by Laplace expansion along the first row."""
    if not row_idx:
        return ring.one
    key = (row_idx, col_idx)
    cached = memo.get(key)
    if cached is not None:
        return cached
    r0 = row_idx[0]
    rest = row_idx[1:]
    total = ring.zero
    for j, cj in enumerate(col_idx):
        entry = rows[r0][cj]
        if entry.is_zero():
            continue
        sub = _minor(rows, rest, col_idx[:j] + col_idx[j + 1 :], ring, memo)
        term = entry * sub
        total = total + term if j % 2 == 0 else total - term
    memo[key] = total
    return total


def _minor_generators(rows: list[list[Polynomial]], size: int, ring: PolyRing):
    n = len(rows)
    memo: dict = {}
    gens = []
    for row_idx in combinations(range(n), size):
        for col_idx in combinations(range(n), size):
            g = _minor(rows, row_idx, col_idx, ring, memo)
            if not g.is_zero():
                gens.append(g)
    return gens


@lru_cache(maxsize=256)
def rank_variety_ideal(M: KEModule) -> VarietyIdeal1:
    """The ideal of the rank variety of M in F_p[a1..ac].

    Results are memoised on the (frozen) module in a 256-entry
    least-recently-used cache.  A hit does no Groebner work, so it spends
    none of the enclosing groebner_budget; a call that raises stores nothing.
    """
    ring = coordinate_ring(M.field, M.c)
    p = M.p
    if M.n == 0:
        raw = ideal(ring, [ring.one])
        return VarietyIdeal1(ring, raw, buchberger_reduced(raw))
    if M.n % p != 0:
        raw = ideal(ring, [])
        return VarietyIdeal1(ring, raw, raw)
    size = M.n // p
    if M.n > MAX_MINOR_MATRIX or size > MAX_MINOR_SIZE:
        raise MinorLimitError(
            f"rank variety of a dimension-{M.n} module needs {size}-minors of a "
            f"{M.n}x{M.n} matrix, over the caps {MAX_MINOR_SIZE} and "
            f"{MAX_MINOR_MATRIX}"
        )
    generic = _generic_action(M, ring)
    power = _matrix_power(generic, p - 1, ring)
    raw = ideal(ring, _minor_generators(power, size, ring))
    return VarietyIdeal1(ring, raw, buchberger_reduced(raw))


@lru_cache(maxsize=256)
def pair_variety_ideal(M: KEModule, N: KEModule) -> VarietyIdeal1:
    """Ideal of the intersection of the rank varieties of M and N.

    Results are memoised on the ordered pair (M, N) in a 256-entry
    least-recently-used cache, like rank_variety_ideal: a hit does no
    Groebner work, so it spends none of the enclosing groebner_budget; a call
    that raises stores nothing.
    """
    if M.field.p != N.field.p or M.c != N.c:
        raise ValueError("modules must share the same p and c")
    vm = rank_variety_ideal(M)
    vn = rank_variety_ideal(N)
    ring = vm.ring
    raw = ideal(ring, vm.raw.gens + vn.raw.gens)
    combined = ideal(ring, vm.gb.gens + vn.gb.gens)
    return VarietyIdeal1(ring, raw, buchberger_reduced(combined))


def point_in_rank_variety(V: VarietyIdeal1, point) -> bool:
    """Whether a point of k^c satisfies every equation of the variety."""
    values = [int(v) for v in point]
    if len(values) != V.c:
        raise ValueError(f"expected {V.c} coordinates, got {len(values)}")
    return all(g.evaluate(values) == 0 for g in V.gb.gens)


def rational_points(V: VarietyIdeal1) -> list[tuple[int, ...]]:
    """Normalized representatives of the projective F_p-points of the variety.

    Each line through the origin is reported once, scaled so its first
    nonzero coordinate is 1; points are sorted lexicographically.
    """
    p = V.ring.p
    c = V.c
    points = []
    for lead in range(c):
        for tail in product(range(p), repeat=c - lead - 1):
            u = (0,) * lead + (1,) + tail
            if point_in_rank_variety(V, u):
                points.append(u)
    return sorted(points)
