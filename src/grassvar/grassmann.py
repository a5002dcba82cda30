"""Grassmannians over F_p and higher support varieties in Pluecker coordinates.

A d-subspace of k^c is stored by its reduced-row-echelon basis, embedded in
projective space by its d x d minors, and the Grassmannian itself is cut out
by the quadratic shuffle relations among those minors.  Given the ideal Z of
a rank variety in k^c, the locus of d-planes meeting Z away from the origin
is the image of the incidence correspondence

    { (u, W) : u in Z, u in W, u != 0 }

under the second projection.  Its ideal is computed exactly, one affine
chart at a time.  The locus u != 0 is covered by the charts xi != 0, so the
projection is the intersection over i of the projections of the
saturations (I : xi^oo) of the incidence ideal I.  When Z is a cone, I is
homogeneous in the u-coordinates, and then

    (I : xi^oo) n k[p] = (I + (xi - 1)) n k[p]:

if f in k[p] equals g + h (xi - 1) with g in I, put xi = 1 in each
u-homogeneous part of g (each lies in I) and homogenise again; that shows
xi^N f in I for large N.  On a Z that is not a cone the identity fails,
which is why project_incidence accepts only homogeneous Z.  Setting xi = 1
identifies k[p, x]/(xi - 1) with the subring without xi, so

    (I + (xi - 1)) n k[p] = phi_i(I) n k[p],

where phi_i substitutes xi = 1.  The incidence ring carries the block order
that eliminates x1..xc, which on monomials free of xi is the block order of
the ring without xi.  So each chart substitutes xi = 1 in the generators of
I and eliminates the point coordinates in the incidence ring itself, doing
the Groebner work of the ring without xi.  The charts' projections are
reduced bases in one grevlex ring, and I n J = I whenever I lies in J, so
two of them are intersected only when neither contains the other, which
normal forms decide.  Reduced bases are unique, so neither step changes the
answer.

Before any chart, the dimension z of Z, read off its reduced basis, often
decides the answer.  For z <= 0, Z holds at most the origin, and no d-plane
meets it away from 0: the unit ideal.  For z + d > c every d-plane meets
Z, and the charts' intersection is the ideal of the Pluecker relations,
which is prime (Hodge); project_incidence's docstring gives the proof.
A third answer is the case d = 1, where a line meets Z away from 0
exactly when it lies in Z: the charts' intersection is the saturation
S = Z : m^oo of Z's ideal by the irrelevant ideal m, renamed into the
Pluecker ring, which takes Groebner work in the c point variables alone
(Bayer and Stillman, "A criterion for detecting m-regularity"; Cox,
Little and O'Shea, Ideals, Varieties, and Algorithms, ch. 8, section 4).
A fourth answer, at d >= 2, reads S, memoised: when S is the
intersection of the ideals of rational subspaces L_j, the charts'
intersection is that of the L_j's Schubert ideals (Hodge; Hartshorne
II, Ex. 3.11), each the Pluecker relations and one linear form per
d-subset of L_j's equations, reduced by one Buchberger run in the
Pluecker ring, as project_incidence's docstring proves.  A linear S is
one component, found with no scan; otherwise the L_j are proposed as the
maximal spans of S's rational points and checked.  A cone with a
repeated component, and in general one given by the product of the
ideals of components that meet, has a saturation that is not radical,
and takes the charts, as does a cone that is not a union of rational
subspaces.  The four answers take no elimination.  The saturation and
the union are intersections of one part per coordinate or per component,
folded by the charts' own contain-or-intersect step.

Checking a variety at its rational points and projecting one repeat work
that depends on less than the whole question, so two memos hold it.
enumerate_subspaces builds the subspaces of a Grassmannian once and shares
them, for the last 16 (field, c, d): no workload or command scans more than
six.  Each Subspace takes its Pluecker point when it is built, so a shared
subspace carries its point to every later scan.  The subspaces of one
pivot pattern are built in one pass over an int64 stack of all its echelon
matrices: one vectorised check that each is a full-rank reduced echelon
basis, and every point from fp._maximal_minors of the whole stack; a
Subspace built on its own passes the same check and takes its point from
the same helper on a stack of one.  The memo also keeps the points as one
(n, C(c,d)) array, with the row of each, so a variety is evaluated once on
all of them, by poly._vanishing, at its first membership query, and keeps
the mask; the rational points of an order-one variety, which the oracle
and rational_points read, are one such scan of G_1 per reduced basis.
The union answer's components are memoised on Z's reduced basis, so a
cone asked at several d is decomposed once.  The reduced basis of the
Pluecker relations, the Pluecker and wedge relations of the incidence
ideal, and each chart's wedge relations with xi = 1, are built once per
(field, c, d) as well, so each chart relabels only Z's generators, in one
step from Z's ring into the incidence ring with xi = 1, the one ring
object that every chart over (field, c, d) shares.  The oracle's
homological route reads its restricted covers from homology's memo, keyed
on (module, W's basis).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import SubspaceLimitError
from .fp import MatrixFp, PrimeField, _as_array, _integer, _kernel_free, _maximal_minors, _rref
from .homology import _hom_projective
from .modules import KEModule
from .poly import (
    _FIELD_MASK,
    Ideal,
    MonomialOrder,
    Polynomial,
    PolyRing,
    _basis_dimension,
    _normal_forms,
    _vanishing,
    buchberger_reduced,
    eliminate,
    ideal,
    ideal_intersect,
)
from .rankvariety import VarietyIdeal1, _check_cone, pair_variety_ideal

DEFAULT_SUBSPACE_CAP = 10_000


def _subsets(c: int, d: int) -> list[tuple[int, ...]]:
    return list(combinations(range(c), d))


def _subset_name(S: tuple[int, ...]) -> str:
    return "p_" + "".join(str(i + 1) for i in S)


def pluecker_ring(field: PrimeField, c: int, d: int) -> PolyRing:
    """F_p[p_S : S a d-subset of {1..c}], subsets in lexicographic order."""
    if not 1 <= d <= c:
        raise ValueError(f"need 1 <= d <= c, got d={d}, c={c}")
    if c > 9:
        raise ValueError("coordinate names use single digits; c must be at most 9")
    return PolyRing(field, [_subset_name(S) for S in _subsets(c, d)])


def gaussian_binomial(c: int, d: int, p: int) -> int:
    """Number of d-subspaces of F_p^c: 0 for d < 0 or d > c."""
    num = int(d >= 0)
    den = 1
    for i in range(d):
        num *= p ** (c - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


@dataclass(frozen=True)
class Subspace:
    """A d-dimensional subspace of k^c with its canonical echelon basis and
    its Pluecker point, computed once on construction.

    Construction checks that the basis is a full-rank reduced echelon
    matrix and takes the point by _points on a stack of one basis, the
    check and minors that enumerate_subspaces runs once per pivot pattern
    on the stack of all its bases.  The basis rows are kept as tuples, read
    once, since every scan reads them."""

    field: PrimeField
    c: int
    d: int
    basis: MatrixFp
    _point: PlueckerPoint = dataclasses.field(init=False, compare=False, repr=False)
    _rows: tuple[tuple[int, ...], ...] = dataclasses.field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.basis.rows != self.d or self.basis.cols != self.c:
            raise ValueError("basis must be a d x c matrix")
        if self.basis.field != self.field:
            raise ValueError("basis field mismatch")
        _, (point,) = _points(self.field, self.basis.array[None])
        object.__setattr__(self, "_point", point)
        object.__setattr__(self, "_rows", tuple(map(tuple, self.basis.tolist())))

    def rows(self) -> list[tuple[int, ...]]:
        return list(self._rows)

    def __str__(self) -> str:
        return "span" + str(tuple(self.rows()))


def subspace_from_rows(field: PrimeField, rows) -> Subspace:
    """The subspace spanned by the given independent row vectors."""
    arr = _as_array([list(row) for row in rows], field.p)
    d, c = arr.shape
    red, piv = _rref(arr, field.p)
    if len(piv) != d:
        raise ValueError("rows are not linearly independent")
    return Subspace(field, c, d, MatrixFp(field, red[: len(piv)]))


def enumerate_subspaces(field: PrimeField, c: int, d: int) -> list[Subspace]:
    """All d-subspaces of F_p^c, by pivot pattern then free entries.

    The cap DEFAULT_SUBSPACE_CAP is read and checked on every call; the
    subspaces themselves are built once per (field, c, d) and shared, which
    is safe because a Subspace is frozen and its basis array is read-only.
    The caller gets a fresh list.
    """
    if not 1 <= d <= c:
        raise ValueError(f"need 1 <= d <= c, got d={d}, c={c}")
    _check_cap(field, c, d)
    return list(_subspaces(field, c, d).subspaces)


def _check_cap(field: PrimeField, c: int, d: int) -> None:
    """SubspaceLimitError when G_d(F_p^c) has more rational points than
    DEFAULT_SUBSPACE_CAP, read on every call."""
    count, cap = gaussian_binomial(c, d, field.p), DEFAULT_SUBSPACE_CAP
    if count > cap:
        raise SubspaceLimitError(
            f"{count} subspaces of dimension {d} in F_{field.p}^{c}, over the cap {cap}"
        )


class _Rational(NamedTuple):
    """The rational points of one Grassmannian G_d(F_p^c), in enumeration
    order: the subspaces, their Pluecker points stacked as one read-only
    (n, C(c,d)) int64 array, and the row of each point's coordinates."""

    subspaces: tuple[Subspace, ...]
    coords: np.ndarray
    row: dict[tuple[int, ...], int]


# 16 Grassmannians: each workload and CLI command scans at most six distinct
# (field, c, d).  An entry holds every subspace of its Grassmannian, at most
# the cap at its first call: 10,000, the default, take about 9 MB (900
# bytes each on G_2(F_7^4), by tracemalloc, with the stacked points and the
# index).
@lru_cache(maxsize=16)
def _subspaces(field: PrimeField, c: int, d: int) -> _Rational:
    p = field.p
    out = []
    coords = np.empty((gaussian_binomial(c, d, p), comb(c, d)), dtype=np.int64)
    for piv in combinations(range(c), d):
        pivset = set(piv)
        free_pos = [
            (r, j) for r in range(d) for j in range(piv[r] + 1, c) if j not in pivset
        ]
        # every echelon matrix of the pattern at once, the t-th free entry
        # the t-th base-p digit of its index, most significant first, in
        # the order of product(range(p), repeat=len(free_pos))
        n = p ** len(free_pos)
        stack = np.zeros((n, d, c), dtype=np.int64)
        stack[:, range(d), piv] = 1
        if free_pos:
            rows, cols = zip(*free_pos)
            digits = p ** np.arange(len(free_pos) - 1, -1, -1)
            stack[:, rows, cols] = np.arange(n)[:, None] // digits % p
        coords[len(out): len(out) + n], points = _points(field, stack)
        out += (_frozen(Subspace, field=field, c=c, d=d, basis=MatrixFp(field, a), _point=point,
                        _rows=tuple(map(tuple, entries)))
                for a, entries, point in zip(stack, stack.tolist(), points))
    assert len(out) == len(coords)
    coords.setflags(write=False)
    return _Rational(tuple(out), coords, {W._point.coords: i for i, W in enumerate(out)})


def _frozen(cls, **fields):
    """An instance of the frozen dataclass cls holding `fields`, built with no
    __post_init__: for values that _points has checked for a whole stack."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _points(field: PrimeField, stack: np.ndarray) -> tuple[np.ndarray, list[PlueckerPoint]]:
    """The Pluecker points of the d x c matrices of an (n, d, c) stack of
    reduced entries, as one (n, C(c,d)) array and as PlueckerPoints, after
    one check that each is a full-rank reduced echelon matrix, the basis a
    Subspace holds.

    A matrix passes when the lead of each row, its first nonzero column,
    lies right of the lead of the row above, and the columns of the leads
    hold the d x d identity: then each lead is 1, the rest of its column is
    0, and no row is zero.  The points are the fp._maximal_minors of the
    whole stack, read by one tolist().  Each is scaled already: the minor on
    the leads L is 1, and a minor on columns S with some s_i < l_i is 0,
    since rows i..d vanish on s_1..s_i, so every nonzero minor comes at or
    after L in lexicographic order."""
    n, d, c = stack.shape
    if d <= c:
        leads = (stack != 0).argmax(axis=2)
        pivots = np.take_along_axis(stack, np.broadcast_to(leads[:, None, :], (n, d, d)), axis=2)
        if (np.diff(leads, axis=1) > 0).all() and (pivots == np.eye(d, dtype=np.int64)).all():
            minors = _maximal_minors(stack, field.p)
            return minors, [_frozen(PlueckerPoint, field=field, c=c, d=d, coords=tuple(x))
                            for x in minors.tolist()]
    raise ValueError("basis must be a full-rank reduced echelon matrix")


@dataclass(frozen=True)
class PlueckerPoint:
    """A projective point of the Pluecker embedding of G_d(k^c), scaled so the
    first nonzero coordinate is 1."""

    field: PrimeField
    c: int
    d: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        expected = comb(self.c, self.d)
        coords = tuple(_integer(x, "Pluecker coordinate") % self.field.p for x in self.coords)
        if len(coords) != expected:
            raise ValueError(f"expected {expected} coordinates, got {len(coords)}")
        lead = next((x for x in coords if x), None)
        if lead is None:
            raise ValueError("projective point needs a nonzero coordinate")
        if lead != 1:
            inv = self.field.inv(lead)
            coords = tuple(x * inv % self.field.p for x in coords)
        object.__setattr__(self, "coords", coords)

    def __str__(self) -> str:
        return "(" + " : ".join(str(x) for x in self.coords) + ")"


def pluecker_embed(W: Subspace) -> PlueckerPoint:
    """The point of P^(C(c,d)-1) whose coordinates are the d-minors of a
    basis, taken when W was built."""
    return W._point


def pluecker_relations(ring: PolyRing, c: int, d: int) -> list[Polynomial]:
    """The quadratic shuffle relations cutting out G_d(k^c) in P^(C(c,d)-1).

    For each (d-1)-subset S and (d+1)-subset T the alternating sum of
    p_(S+t) * p_(T-t) over t in T vanishes on every embedded subspace.
    Degenerate parameters (d = 1 or d >= c - 1) yield no relations.
    """
    pos = {S: i for i, S in enumerate(_subsets(c, d))}
    gens_list = ring.gens()
    seen = {}
    for S in combinations(range(c), d - 1):
        for T in combinations(range(c), d + 1):
            rel = ring.zero
            for k, t in enumerate(T):
                if t in S:
                    continue
                insert_at = sum(1 for s in S if s < t)
                sign = (-1) ** (k + len(S) - insert_at)
                A = tuple(sorted(S + (t,)))
                B = tuple(x for x in T if x != t)
                term = gens_list[pos[A]] * gens_list[pos[B]]
                rel = rel + term * sign
            if not rel.is_zero():
                canon = rel.monic()
                seen.setdefault(canon._terms, canon)
    return sorted(seen.values(), key=lambda f: f.terms)


def incidence_ring(field: PrimeField, c: int, d: int) -> PolyRing:
    """Pluecker coordinates followed by the point coordinates x1..xc, under
    the block order that eliminates x1..xc."""
    points = [f"x{i + 1}" for i in range(c)]
    return PolyRing(field, pluecker_ring(field, c, d).names + tuple(points), MonomialOrder.block(points))


@lru_cache(maxsize=16)
def _incidence_relations(field: PrimeField, c: int, d: int) -> tuple[
    PolyRing, tuple[Polynomial, ...], tuple[Polynomial, ...], tuple[tuple[Polynomial, ...], ...]
]:
    """The incidence ring and the two parts of the incidence ideal that
    depend only on (p, c, d): the Pluecker relations, and the wedge
    relations, one per (d+1)-subset J, the alternating sum of
    x_j * p_(J-j) over j in J; then, for each chart i, the wedge relations
    with x_(i+1) = 1 (the Pluecker relations are free of the points, so
    they are the same in every chart).  Built once per (field, c, d), the
    last 16 kept, as for _subspaces."""
    ring = incidence_ring(field, c, d)
    pos = {S: i for i, S in enumerate(_subsets(c, d))}
    wedge = []
    for J in combinations(range(c), d + 1):
        rel = ring.zero
        for k, j in enumerate(J):
            x_j = ring.var(f"x{j + 1}")
            p_rest = ring.var(pos[tuple(s for s in J if s != j)])
            term = x_j * p_rest
            rel = rel + term * ((-1) ** k)
        wedge.append(rel)
    npl = comb(c, d)
    charts = tuple(tuple(_set_to_one(g, npl + i) for g in wedge) for i in range(c))
    return ring, tuple(pluecker_relations(ring, c, d)), tuple(wedge), charts


def incidence_ideal(Z: VarietyIdeal1, d: int) -> Ideal:
    """Ideal of { (u, W) : u in Z, u in W } inside Pluecker-by-point space.

    Membership of u in W is the vanishing of the wedge of u with a basis of
    W: for every (d+1)-subset J, the alternating sum of x_j * p_(J-j) over
    j in J.  The generators are the Pluecker relations, then Z's, then the
    wedge relations; only Z's are mapped here, the rest are memoised on
    (field, c, d) by _incidence_relations.
    """
    ring, pluecker, wedge, _ = _incidence_relations(Z.ring.field, Z.c, d)
    points = range(ring.nvars - Z.c, ring.nvars)
    return ideal(ring, [*pluecker, *(g.map_to(ring, points) for g in Z.gb.gens), *wedge])


@dataclass(frozen=True)
class VarietyIdealD:
    """The ideal of a higher support variety inside the Pluecker space of
    G_d(k^c), held as a reduced Groebner basis, and, once point_on_variety
    has scanned it, the index of the Grassmannian's rational points with the
    mask, as bytes, of those on the variety."""

    ring: PolyRing
    c: int
    d: int
    gb: Ideal
    _scan: tuple[dict, bytes] | None = dataclasses.field(default=None, init=False, compare=False, repr=False)

    def is_empty(self) -> bool:
        return self.gb.is_unit_ideal()

    def is_full(self) -> bool:
        return self.gb.is_zero_ideal()


def project_incidence(Z: VarietyIdeal1, d: int) -> VarietyIdealD:
    """Ideal of the d-planes meeting the punctured cone of Z.

    For each coordinate xi the point variables are eliminated from the
    incidence ideal in the affine chart xi = 1; the variety is the
    intersection of those projections.  When Z is a cone the incidence
    ideal is homogeneous in the point variables; then each chart's
    projection equals the projection of its saturation at xi, and their
    intersection equals the projection of the saturation with respect to
    the whole irrelevant ideal (x1, .., xc).  So a Z whose reduced basis
    has an inhomogeneous element raises ValueError.  Each chart substitutes
    xi = 1 in the incidence generators, the same ideal as adjoining xi - 1,
    and is eliminated in the incidence ring, whose block order is that of
    the ring without xi on the chart's monomials.  The projections are
    folded by _fold, which intersects two only when neither contains the
    other, so unit charts need no case of their own.

    Four early answers take no chart at all.  Two ranges of z = dim Z, read
    off Z's reduced basis with no Groebner work, decide the answer:
    - z <= 0: the unit ideal.  Z contains (a)^N, so every chart contains 1.
    - z + d >= c + 1: the reduced basis of the Pluecker relations, whose
      ideal Pl is that of G_d itself (the zero ideal for d = 1, c - 1, c).
      P(W) and P(Z) have dimensions d - 1 and z - 1 in P^(c-1), so every
      W meets Z.  Let Z_0 be a component of Z of top dimension.  The
      incidence variety over P(Z_0) is a G_(d-1)(k^(c-1))-bundle, so it is
      irreducible, and in a chart xi = 1 with ai not identically 0 on Z_0
      the image is dense in G_d: that chart's projection P_i has radical
      Pl.  Pl lies in every chart's generators, so Pl lies in every P_j,
      and Pl is prime (Hodge; standard monomial theory proves it over any
      field).  Hence P_i = Pl, and the intersection over all charts is Pl.
    And so does d = 1, for every Z:
    - the answer is the reduced basis of I : m^oo, where I is Z's ideal
      with each aj renamed p_j and m = (p_1, .., p_c) (_saturation).
      1. At d = 1 the wedge relations are xj p_k - xk p_j.  In the chart
         xi = 1 they hold p_k - xk p_i, from which the rest follow, so the
         chart's ring is B[p_i], B = k[x]/(I(x) + (xi - 1)), with p_k
         sent to xk p_i.  Graded by the degree in p_i, the map from k[p]
         is graded, so its kernel, the chart's projection, is spanned by
         forms, and a form f of degree e goes to p_i^e f(x) with xi = 1.
         p_i is a nonzerodivisor on B[p_i], so f lies in the kernel iff
         f with p_i = 1 lies in I with ai = 1, that is iff p_i^N f lies
         in I(p) for some N, as f and I are homogeneous.  So chart i's
         projection is I(p) : p_i^oo.
      2. m^(c(N-1)+1) lies in (p_1^N, .., p_c^N), so f m^M lies in I for
         some M iff every p_i^N f does for some N: the charts' intersection
         is I : m^oo.
      3. Let G be I's reduced basis under grevlex, the Pluecker ring's
         order, and let p_j divide no lead of G.  Then I : p_j = I: were
         p_j f in I for an f in normal form with respect to G, f != 0,
         then p_j in(f) would lie in in(I), and so would in(f), as no
         generator of in(I) holds p_j.  So I : p_j^oo = I, and I lies in
         I : m^oo, which lies in I : p_j^oo = I: G is the answer with no
         Groebner work.  For p_c, grevlex's last variable, the test is
         exact: in(I : p_c^oo) = in(I) : p_c^oo for homogeneous I (Bayer
         and Stillman 1987, "A criterion for detecting m-regularity"), so
         I : p_c^oo = I only when p_c divides no lead.
      4. Otherwise each I : p_i^oo is computed.  Let J be I with p_i = 1,
         an ideal of the ring without p_i, and H its reduced basis under
         grevlex there, which is graded.  The homogenisations of H by p_i
         generate the homogenisation J^h of J (Cox, Little and O'Shea,
         Ideals, Varieties, and Algorithms, ch. 8, section 4), and
         J^h = I : p_i^oo: g in J is a combination of I's generators with
         p_i = 1, so some p_i^k g^h lies in I; and a form f with p_i^N f in
         I has f with p_i = 1 in J, and f = p_i^k (f with p_i = 1)^h.  The
         homogenisations are reduced once more under grevlex.
      The parts are folded as the charts are, and a Z whose ring has
      another order is first taken to grevlex by one Buchberger run.
    And so, at d >= 2, does a union of rational subspaces:
    - let S = I(Z) : m^oo in k[p_1..p_c], the d = 1 answer, memoised.  A
      linear S is I(L_1) for the one subspace L_1 = V(S).  Otherwise the
      maximal spans L_1, .., L_r of rational points on V(S) are proposed
      (_rational_spans); if r >= 1, the largest L_j has dimension dim S,
      and S's reduced basis is the _fold of those of the I(L_j), S is
      their intersection.  Then the answer is the _fold of the Schubert
      ideals H(L_j) (_union_components memoises the I(L_j), or their
      absence, on Z's reduced basis, for every d); else the charts
      answer.  So a Z that is not a union of rational subspaces, or whose
      S is not radical, as when a component repeats and in general when Z
      is the product of the ideals of components that meet, takes the
      charts.  For L = V(l_1, .., l_s), H(L) = Pl + (q_T), one linear
      form q_T = sum over U of det(l_T[:, U]) p_U per d-subset T of the
      forms (_schubert).  W meets L away from 0 iff the d x s matrix
      (l_j(w_i)) has rank below d, and q_T is its minor on T by
      Cauchy-Binet, so H(L) cuts out the d-planes meeting L; H(L) is
      prime (Hodge 1943, "Some enumerative results in the theory of
      forms"; over any field by standard monomial theory, Lakshmibai,
      Musili and Seshadri 1979, "Geometry of G/P IV").  Once
      S = I(L_1) n .. n I(L_r) for any r >= 1 rational subspaces, the
      charts give the H(L_j)'s intersection:
      1. Let I be the incidence ideal.  Over B = k[x] with xi inverted,
         let h be the identity with its row i replaced by x, so e_i h = x
         and det h = xi, a unit.  p -> (wedge^d h) p is a B-automorphism of
         B[p]; it keeps the Pluecker ideal and takes the wedge relations
         of e_i to those of x (wedge^(d+1) h is invertible).  So
         B[p] / (Pl + wedge) is B (x) R, R = k[p] / (Pl + (p_T : i not in
         T)), the cone over the Schubert variety of the W through e_i,
         which is reduced by standard monomial theory.
      2. xi is a unit of B and S / I(Z) is killed by a power of m, so
         B / I(Z) = B / S, which is reduced as S is radical.  Hence
         k[p, x]_xi / I = (B / S) (x) R is reduced, a tensor product over
         the perfect field F_p of two reduced algebras: I : xi^oo, the
         contraction of I_xi, is radical, and so is its contraction
         P_i = (I : xi^oo) n k[p], the chart's projection, and so is the
         charts' intersection J.
      3. Over the algebraic closure, V(P_i) is the closure of the image
         of V(I) off xi = 0: the cone points of the W meeting V(S) = L_1
         u .. u L_r at a u with ui != 0, and p = 0.  So V(J) is the cone
         over the W meeting some L_j, which holds p = 0: it is the union
         of the V(H(L_j)), and J has no component at p = 0 of its own.
      4. J is radical, so it is the ideal of V(J), the intersection of the
         ideals H(L_j) of its parts, each prime (Hodge, as above).  F_p
         is perfect, so radicality and reduced bases are the same over the
         algebraic closure, and J is the H(L_j)'s intersection, whose
         reduced basis the folds give.
      How the L_j are proposed does not matter: the equality S = n I(L_j)
      is checked on reduced bases, and the rest only rejects early, since
      n I(L_j) has dimension max dim L_j.  The scan lists the
      (p^c - 1) / (p - 1) rational points, so above DEFAULT_SUBSPACE_CAP
      of them a non-linear S takes the charts.
    Otherwise, at d >= 2, the charts are eliminated, so a Z whose S is no
    intersection of rational subspace ideals takes the same chart bases
    and S-pairs as without these answers.
    Reduced bases are unique, so the early answers are the bases the
    charts would give.

    The answer depends only on the reduced basis of Z and on d, so results
    are memoised on (Z.gb, d) in a 256-entry least-recently-used cache.  A
    hit does no Groebner work, so it spends none of the enclosing
    groebner_budget; a call that raises stores nothing.
    """
    c = Z.c
    if not 1 <= d <= c:
        raise ValueError(f"need 1 <= d <= c, got d={d}, c={c}")
    _check_cone(Z.gb)
    return _project_incidence(Z.gb, d)


def _set_to_one(f: Polynomial, i: int) -> Polynomial:
    """f with its variable i set to 1, in f's ring: the variable's packed
    field is masked to 0 in every term."""
    ring = f.ring
    keep = ~(_FIELD_MASK << ring._shifts[i])
    d: dict[int, int] = {}
    for _, m, a in f._terms:
        m &= keep
        d[m] = d.get(m, 0) + a
    return ring._from_packed(d)


def _contains(I: Ideal, J: Ideal) -> bool:
    """Whether J lies in I, for I a Groebner basis: J's generators are
    reduced against one set of I's reducers, up to the first that leaves a
    remainder."""
    return all(r.is_zero() for r in _normal_forms(I.ring, I.gens, J.gens))


def _fold(result: Ideal | None, part: Ideal) -> Ideal:
    """result n part, for reduced bases in one grevlex ring, with None for
    no part yet.  Two are intersected only when neither contains the other
    (I n J = I when I lies in J), so a unit part is skipped and a unit
    first part gives way to the first proper one; reduced bases are
    unique, so the basis is ideal_intersect's."""
    if result is None:
        return part
    if _contains(part, result):
        return result
    return part if _contains(result, part) else ideal_intersect(result, part)


def _homogenised(f: Polynomial, i: int) -> Polynomial:
    """f, free of its ring's variable i, made homogeneous by that variable:
    each term is multiplied by x_i to the power its degree falls short of
    f's."""
    ring = f.ring
    deg, shift, top = ring._degree, ring._shifts[i], f.total_degree()
    return ring._from_packed({m + ((top - deg(m)) << shift): a for _, m, a in f._terms})


def _saturation(gb: Ideal, small: PolyRing) -> Ideal:
    """The reduced basis of I : m^oo in the d = 1 Pluecker ring `small`, for
    gb a reduced basis of a homogeneous ideal of k[a1..ac], I that ideal
    with each aj renamed p_j, and m = (p_1, .., p_c); project_incidence
    proves each step.  I : m^oo is I when some variable divides no grevlex
    lead, and otherwise the intersection over i of I : p_i^oo, the
    homogenisation by p_i of the reduced basis of I with p_i = 1."""
    c = small.nvars
    I = ideal(small, [g._relabelled(small, range(c)) for g in gb.gens])
    if gb.ring.order.kind != "grevlex":
        I = buchberger_reduced(I)
    if not all(map(any, zip(*(g.lm() for g in I.gens)))):
        return I
    result = None
    for i in range(c):
        affine = buchberger_reduced(ideal(small, [_set_to_one(g, i) for g in I.gens]))
        part = buchberger_reduced(ideal(small, [_homogenised(g, i) for g in affine.gens]))
        result = _fold(result, part)
    return result


@lru_cache(maxsize=16)
def _grassmannian(field: PrimeField, c: int, d: int) -> Ideal:
    """The reduced basis of the Pluecker relations of G_d(k^c), built once
    per (field, c, d), the last 16 kept, as for _subspaces."""
    small = pluecker_ring(field, c, d)
    return buchberger_reduced(ideal(small, pluecker_relations(small, c, d)))


def _schubert(gb: Ideal, small: PolyRing, d: int) -> Ideal:
    """The reduced basis, in the Pluecker ring `small`, of the d-planes
    meeting L = V(l_1, .., l_s), for gb a reduced basis of s linear forms.

    For each d-subset T of the forms, q_T = sum over S of det(l_T[:, S]) p_S,
    the minor on T of (l_j(w_i)) by Cauchy-Binet; its coefficients are the
    fp._maximal_minors of the stack of the forms' coefficient rows on each
    T, as Subspace takes its Pluecker point.  The q_T and the Pluecker
    relations are reduced by one Buchberger run."""
    c = gb.ring.nvars
    rows = np.zeros((len(gb.gens), c), dtype=np.int64)
    for row, g in zip(rows, gb.gens):
        for e, a in g.terms:
            row[e.index(1)] = a
    subsets = np.array(list(combinations(range(len(rows)), d)), dtype=np.intp).reshape(-1, d)
    minors = _maximal_minors(rows[subsets], small.p)
    q = [small._from_packed(dict(zip((1 << s for s in small._shifts), coefficients)))
         for coefficients in minors.tolist()]
    return buchberger_reduced(ideal(small, [*q, *_grassmannian(small.field, c, d).gens]))


def _rational_spans(V: VarietyIdealD) -> list[list[tuple[int, ...]]]:
    """A basis of each maximal span of rational points that V, a variety
    in P^(c-1), seems to hold: a proposal, which the caller checks exactly.

    V's rational points are listed by subspaces_on_variety, each scaled so
    its first nonzero coordinate is 1.  From each listed point that no span
    found so far holds, a span grows by each listed point v in turn whose
    span with it has all its p^k new points on V as well: v and u + a v,
    for u in the span and a in F_p^*.
    """
    p = V.ring.p
    inv = [0] + [pow(a, p - 2, p) for a in range(1, p)]

    def scaled(v):
        s = inv[next(x for x in v if x)]
        return tuple(x * s % p for x in v)

    on = [pluecker_embed(W).coords for W in subspaces_on_variety(V)]
    onset, covered, spans = set(on), set(), []
    for start in on:
        if start in covered:
            continue
        basis, span = [start], {start}
        for v in on:
            if v in span:
                continue
            new = {v, *(scaled([(x + a * y) % p for x, y in zip(u, v)]) for u in span for a in range(1, p))}
            if new <= onset:
                basis.append(v)
                span |= new
        spans.append(basis)
        covered |= span
    return spans


# As for _project_incidence: the decomposition depends only on gb, and a
# call that raises stores nothing.  The cap is read when an entry is made,
# so an entry made above it stays until the memo is cleared.
@lru_cache(maxsize=256)
def _union_components(gb: Ideal) -> tuple[Ideal, ...] | None:
    """The reduced bases of the ideals I(L_j) of the rational subspaces whose
    intersection S = I(Z) : m^oo is, for gb Z's reduced basis, in the d = 1
    Pluecker ring; None when S is not shown to be one.

    S is the d = 1 answer, memoised.  A linear S is its own one component,
    found before any scan.  Otherwise it is None above DEFAULT_SUBSPACE_CAP
    lines in k^c, and else the L_j are S's _rational_spans: with none, with
    a largest L_j whose dimension is not dim S, or with S's reduced basis
    other than the _fold of the I(L_j), it is None."""
    p = gb.ring.p
    V = _project_incidence(gb, 1)
    S = V.gb
    if all(g.total_degree() == 1 for g in S.gens):
        return (S,)
    if gaussian_binomial(gb.ring.nvars, 1, p) > DEFAULT_SUBSPACE_CAP:
        return None
    spans = _rational_spans(V)
    if not spans or max(map(len, spans)) != _basis_dimension(S):
        return None
    line = S.ring
    parts = []
    for basis in spans:
        # L's equations in reduced echelon form: monic, each led by its
        # pivot p_j (p_1 > .. > p_c in grevlex) and free of the others'
        # pivots, by descending lead, which is L's reduced basis
        forms, piv = _rref(_kernel_free(np.array(basis, dtype=np.int64), p)[0].T, p)
        terms = [{1 << s: int(a) for s, a in zip(line._shifts, f) if a} for f in forms[: len(piv)]]
        parts.append(Ideal(line, tuple(map(line._from_packed, terms))))
    if reduce(_fold, parts, None).gens != S.gens:
        return None
    return tuple(parts)


@lru_cache(maxsize=256)
def _project_incidence(gb: Ideal, d: int) -> VarietyIdealD:
    c = gb.ring.nvars
    field = gb.ring.field
    small = pluecker_ring(field, c, d)
    z = _basis_dimension(gb)
    if z <= 0:
        return VarietyIdealD(small, c, d, Ideal(small, (small.one,)))
    if z + d > c:
        return VarietyIdealD(small, c, d, _grassmannian(field, c, d))
    if d == 1:
        return VarietyIdealD(small, c, d, _saturation(gb, small))
    parts = _union_components(gb)
    if parts is not None:
        return VarietyIdealD(small, c, d, reduce(_fold, (_schubert(L, small, d) for L in parts), None))
    ring, pluecker, _, charts = _incidence_relations(field, c, d)
    npl = comb(c, d)
    points = ring.names[npl:]
    result = None
    for i, wedge in enumerate(charts):
        # Z's generators with a_(i+1) = 1, each a_j moved to x_j
        index_map = [None if j == i else npl + j for j in range(c)]
        chart = ideal(ring, [*pluecker, *(g._relabelled(ring, index_map) for g in gb.gens), *wedge])
        result = _fold(result, eliminate(chart, points))
    return VarietyIdealD(small, c, d, result)


def higher_variety_ideal(M: KEModule, N: KEModule, d: int) -> VarietyIdealD:
    """Ideal of the d-th support variety of the pair (M, N) in G_d(k^c)."""
    return project_incidence(pair_variety_ideal(M, N), d)


def point_on_variety(V: VarietyIdealD, pt: PlueckerPoint) -> bool:
    """Whether a Pluecker point satisfies every equation of the variety.

    The first query of V evaluates V's basis once, by poly._vanishing, on
    the stacked points of its Grassmannian, and keeps the mask on V; every
    query then reads the point's row.  Above DEFAULT_SUBSPACE_CAP, read
    when the mask would be built, and at a point off the Grassmannian, the
    same kernel evaluates the point alone, as a stack of one."""
    # a field is its prime, so comparing primes compares fields
    if pt.field.p != V.ring.field.p:
        raise ValueError(f"point over F_{pt.field.p}, variety over F_{V.ring.field.p}")
    if pt.c != V.c or pt.d != V.d:
        raise ValueError(
            f"point of G_{pt.d}(k^{pt.c}), variety in G_{V.d}(k^{V.c})"
        )
    scan = V._scan
    if scan is None and gaussian_binomial(V.c, V.d, V.ring.p) <= DEFAULT_SUBSPACE_CAP:
        grid = _subspaces(V.ring.field, V.c, V.d)
        scan = grid.row, _vanishing(V.gb.gens, grid.coords).tobytes()
        object.__setattr__(V, "_scan", scan)
    if scan is not None:
        row = scan[0].get(pt.coords)
        if row is not None:
            return bool(scan[1][row])
    # the coordinates were checked and reduced when the point was built
    return bool(_vanishing(V.gb.gens, np.array([pt.coords], dtype=np.int64))[0])


def variety_dim_projective(V: VarietyIdealD) -> int:
    """Projective dimension of the variety; -1 when it is empty."""
    dim = _basis_dimension(V.gb)
    return dim - 1 if dim > 0 else -1


def subspaces_on_variety(V: VarietyIdealD) -> list[Subspace]:
    """All rational d-subspaces whose Pluecker point lies on the variety,
    each read from the mask that point_on_variety keeps on V."""
    return [
        W
        for W in enumerate_subspaces(V.ring.field, V.c, V.d)
        if point_on_variety(V, pluecker_embed(W))
    ]


# The set depends only on the reduced basis, so the pairs of different
# modules with one variety share one scan: an avrunin-scott round asks for
# 35 distinct bases over 192 pairs.  64 entries, each at most the cap's
# lines.
@lru_cache(maxsize=64)
def _rational_lines(gb: Ideal) -> frozenset[tuple[int, ...]]:
    """The rational points of the cone gb cuts out in k^c, as the vectors
    of G_1(F_p^c)'s stacked points, scaled so the first nonzero coordinate
    is 1, at which every element of gb vanishes: one poly._vanishing of the
    whole stack.  A basis that is not homogeneous raises ValueError, and
    is not kept; the caller checks the cap."""
    _check_cone(gb)
    lines = _subspaces(gb.ring.field, gb.ring.nvars, 1).coords
    return frozenset(map(tuple, lines[_vanishing(gb.gens, lines)].tolist()))


def oracle_membership(
    M: KEModule,
    N: KEModule,
    d: int,
    W: Subspace,
    pair_ideal: VarietyIdeal1 | None = None,
) -> tuple[bool, bool]:
    """Test membership of W in the d-th support variety of (M, N) two ways.

    Returns (geometric, homological).  The geometric answer asks whether
    one of W's (p^d - 1)/(p - 1) rational lines lies on the order-one
    variety of the pair: W's points u = t B, for B its echelon basis and t
    each nonzero vector of F_p^d whose first nonzero entry is 1, are
    themselves scaled so, and are looked up in the pair ideal's rational
    points, one scan of G_1's stacked points per reduced basis
    (_rational_lines).  Above DEFAULT_SUBSPACE_CAP lines in k^c the pair
    ideal is evaluated on W's points alone, by the same kernel, and a W
    with more lines than the cap raises SubspaceLimitError.  A pair_ideal
    over another field or in another number of variables raises
    ValueError, and so, as a point u stands for its line only on a cone,
    does one with a basis element that is not homogeneous.  The
    homological answer restricts both modules to the subalgebra on the
    echelon basis of W and asks whether Ext fails to vanish eventually,
    decided exactly, as ext_eventually_zero decides it, by Higman's
    criterion (homology._hom_projective) with W's basis as the forms.  The
    homological answer is exact; a geometric hit is always definitive, but
    a miss can be a field-size artifact when the order-one variety has no
    rational points on W, so equality of the two flags is guaranteed only
    when that variety is a union of subspaces defined over the base field.
    """
    if W.field != M.field:
        raise ValueError(f"subspace over F_{W.field.p}, modules over F_{M.p}")
    if W.c != M.c or W.d != d:
        raise ValueError("subspace does not match the modules or dimension")
    if N.field != M.field or N.c != M.c:
        raise ValueError("modules must share the same p and c")
    if pair_ideal is None:
        pair_ideal = pair_variety_ideal(M, N)
    elif pair_ideal.ring.field != M.field:
        raise ValueError(f"pair ideal over F_{pair_ideal.ring.p}, modules over F_{M.p}")
    elif pair_ideal.c != M.c:
        raise ValueError(f"pair ideal in {pair_ideal.c} variables, modules over c = {M.c}")
    # W's lines are those of F_p^d, each the echelon row of its Pluecker
    # point, carried by W's basis
    _check_cap(M.field, d, 1)
    points = _subspaces(M.field, d, 1).coords @ W.basis.array % M.p
    if gaussian_binomial(M.c, 1, M.p) <= DEFAULT_SUBSPACE_CAP:
        # the scan refuses a pair ideal that is not a cone
        zeros = _rational_lines(pair_ideal.gb)
        geometric = any(u in zeros for u in map(tuple, points.tolist()))
    else:
        _check_cone(pair_ideal.gb)
        geometric = bool(_vanishing(pair_ideal.gb.gens, points).any())
    homological = not _hom_projective(M, N, W.basis)
    return geometric, homological
