"""The benchmark's three workloads: seeded inputs, timed operations, checks.

`build(name, seed)` returns the operations of one round.  Each operation has
a `run` callable, which makes the timed calls into grassvar, and a `check`
callable, which compares its result with `reference` (no grassvar
arithmetic) or with a stated property and returns a list of problems.

grassvar is reached through the package namespace (`gv.name(...)`) at call
time, so the traced run's patched bindings see the benchmark's own calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product
from typing import Callable

import numpy as np

import grassvar as gv
import reference as ref


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]] = field(repr=False)


def _unit(c: int, j: int) -> tuple[int, ...]:
    return tuple(1 if i == j else 0 for i in range(c))


def _actions(M) -> list[np.ndarray]:
    return [np.array(a.tolist(), dtype=np.int64) for a in M.actions]


def _module(F, c: int, arrays) -> "gv.KEModule":
    n = arrays[0].shape[0]
    return gv.KEModule(F, c, n, tuple(gv.MatrixFp(F, a) for a in arrays))


def _random_form(rng: random.Random, p: int, c: int) -> tuple[int, ...]:
    while True:
        u = tuple(rng.randrange(p) for _ in range(c))
        if any(u):
            return u


def _random_basis(rng: random.Random, p: int, c: int, r: int) -> list[tuple[int, ...]]:
    while True:
        rows = [tuple(rng.randrange(p) for _ in range(c)) for _ in range(r)]
        if ref.rank(rows, p) == r:
            return rows


# --- avrunin-scott ----------------------------------------------------------

CATALOG_CONTEXTS = ((2, 2), (3, 2), (2, 3))


def catalog(p: int, c: int) -> dict:
    """The eight standard modules of the test suite's catalog."""
    F = gv.PrimeField(p)
    k = gv.quotient_by_linear_forms(F, c, [_unit(c, j) for j in range(c)])
    Rx1 = gv.quotient_by_linear_forms(F, c, [_unit(c, 0)])
    Rx2 = gv.quotient_by_linear_forms(F, c, [_unit(c, 1)])
    plus = tuple(1 if i < 2 else 0 for i in range(c))
    return {
        "k": k,
        "kE": gv.regular_module(F, c),
        "R/x1": Rx1,
        "R/x2": Rx2,
        "R/(x1+x2)": gv.quotient_by_linear_forms(F, c, [plus]),
        "R/x1+R/x2": gv.direct_sum(Rx1, Rx2),
        "Om(k)": gv.syzygy_step(k)[1],
        "dual(R/x1)": gv.dual(Rx1),
    }


def _monomial_change(rng: random.Random, M, stream: str):
    """M in a seeded basis: conjugate by a permutation times a diagonal of
    nonzero scalars, which keeps the action matrices as sparse as before.
    The permutation is drawn from the fixed stream `stream` and the scalars
    from `rng`.  A scaling leaves the rank-variety ideal as it is and the
    eliminations' pivots where they were, so every seed does the same work;
    a seeded permutation changed the work of a round by up to a fifth from
    seed to seed.  Over F_2 the only scaling is the identity."""
    p, n = M.p, M.n
    perm = list(range(n))
    random.Random(stream).shuffle(perm)
    P = np.zeros((n, n), dtype=np.int64)
    Pinv = np.zeros((n, n), dtype=np.int64)
    for j, i in enumerate(perm):
        s = rng.randrange(1, p)
        P[i, j] = s
        Pinv[j, i] = pow(s, p - 2, p)
    arrays = [ref.matmul(ref.matmul(P, X, p), Pinv, p) for X in _actions(M)]
    return _module(M.field, M.c, arrays)


class _Avrunin:
    """Reference answers for one catalog context, computed on demand."""

    def __init__(self, p: int, c: int):
        self.p, self.c = p, c
        self._points: dict[int, frozenset] = {}
        self.subspaces = {d: ref.subspaces(p, c, d) for d in range(1, c + 1)}

    def points(self, M) -> frozenset:
        if id(M) not in self._points:
            self._points[id(M)] = ref.rank_variety_points(_actions(M), M.n, self.p, self.c)
        return self._points[id(M)]

    def check(self, M, N, d: int, out) -> list[str]:
        p, c = self.p, self.c
        pts = self.points(M) & self.points(N)
        r = ref.largest_linear_component(pts, p, c)
        problems = []
        if out["empty"] != (not pts):
            problems.append(f"empty={out['empty']}, reference {not pts}")
        if out["dim"] != ref.schubert_dim(c, d, r):
            problems.append(f"dim={out['dim']}, reference {ref.schubert_dim(c, d, r)}")
        if d < c:
            if sorted(out["subspaces"]) != sorted(self.subspaces[d]):
                problems.append("rational subspace list differs from the reference")
                return problems
            for W, ideal_route, (geo, hom) in zip(
                out["subspaces"], out["ideal_route"], out["oracle"]
            ):
                want = bool(ref.span_points(W, p) & pts)
                if not ideal_route == geo == hom == want:
                    problems.append(
                        f"W={W}: ideal {ideal_route}, geometric {geo}, "
                        f"homological {hom}, reference {want}"
                    )
        return problems


def _avrunin_query(M, N, d: int) -> dict:
    # higher_variety_ideal(M, N, d) in its two steps, so that the oracle
    # shares the pair ideal as a user checking the theorem would
    Z = gv.pair_variety_ideal(M, N)
    V = gv.project_incidence(Z, d)
    out = {"empty": V.is_empty(), "dim": gv.variety_dim_projective(V)}
    if d < M.c:
        subs = gv.enumerate_subspaces(M.field, M.c, d)
        out["subspaces"] = [tuple(W.rows()) for W in subs]
        out["ideal_route"] = [gv.point_on_variety(V, gv.pluecker_embed(W)) for W in subs]
        out["oracle"] = [gv.oracle_membership(M, N, d, W, pair_ideal=Z) for W in subs]
    return out


def build_avrunin_scott(seed: int) -> list[Op]:
    rng = random.Random(f"avrunin-scott/{seed}")
    ops = []
    for p, c in CATALOG_CONTEXTS:
        cat = {
            name: _monomial_change(rng, M, f"avrunin-scott/basis/{p},{c}/{name}")
            for name, M in catalog(p, c).items()
        }
        refs = _Avrunin(p, c)
        for (a, M), (b, N) in product(cat.items(), repeat=2):
            for d in range(1, c + 1):
                ops.append(Op(
                    f"({p},{c}) {a} x {b} d={d}",
                    lambda M=M, N=N, d=d: _avrunin_query(M, N, d),
                    lambda out, M=M, N=N, d=d, refs=refs: refs.check(M, N, d, out),
                ))
    rng.shuffle(ops)
    return ops


# --- projection -------------------------------------------------------------

PROJECTION_CONTEXTS = ((2, 4), (3, 4))
# Component dimensions of the cones of each context, one tuple per cone.  The
# subspaces are drawn once from a fixed stream; the seed scales the
# coordinates of each cone by nonzero constants and orders the operations.
# A scaling maps the whole computation (Groebner bases, incidence ideal,
# saturation) to an isomorphic one with the same monomials, so every seed
# does the same work.  A seeded permutation or a fresh draw of subspaces
# changes the cost of a cone up to twofold and the total of a round by a
# quarter, which would swamp the run-to-run comparison.  Over F_2 the only
# scaling is the identity, so there the seed only orders the operations.
# Shapes with three components of dimension two take seconds each and are
# left out for the same reason; the cheaper shapes are drawn twice so that
# the percentiles rest on more operations.
CONE_SHAPES = ((1,), (2,), (3,), (1, 1), (1, 2), (1, 3), (2, 3)) * 2 + ((2, 2), (1, 1, 1))


def _linear_equations(basis, p: int, c: int) -> list[tuple[int, ...]]:
    """A basis of the linear forms vanishing on the span of `basis`."""
    red, piv = ref.echelon(basis, p)
    free = [j for j in range(c) if j not in piv]
    eqs = []
    for f in free:
        v = [0] * c
        v[f] = 1
        for row, pj in zip(red, piv):
            v[pj] = int(-row[f]) % p
        eqs.append(tuple(v))
    return eqs


def _cone_ideal(ring, components, p: int, c: int):
    """Product of the components' ideals of linear equations."""
    gens = ring.gens()
    forms = [
        [sum((gens[i] * a for i, a in enumerate(e) if a), ring.zero) for e in _linear_equations(B, p, c)]
        for B in components
    ]
    products = [ring.one]
    for eqs in forms:
        products = [f * g for f in products for g in eqs]
    return gv.ideal(ring, products)


def _projection_query(raw, d: int) -> dict:
    gb = gv.buchberger_reduced(raw)
    Z = gv.VarietyIdeal1(raw.ring, raw, gb)
    V = gv.project_incidence(Z, d)
    subs = gv.enumerate_subspaces(raw.ring.field, Z.c, d)
    return {
        "subspaces": [tuple(W.rows()) for W in subs],
        "member": [gv.point_on_variety(V, gv.pluecker_embed(W)) for W in subs],
    }


def _projection_check(components, p: int, c: int, d: int, out) -> list[str]:
    if sorted(out["subspaces"]) != sorted(ref.subspaces(p, c, d)):
        return ["rational subspace list differs from the reference"]
    problems = []
    for W, member in zip(out["subspaces"], out["member"]):
        want = any(ref.meets(W, B, p) for B in components)
        if member != want:
            problems.append(f"W={W}: ideal route {member}, reference {want}")
    return problems


def _scale(rng: random.Random, components, p: int, c: int) -> list[list[tuple[int, ...]]]:
    """The components with each coordinate scaled by a seeded nonzero constant."""
    scale = [rng.randrange(1, p) for _ in range(c)]
    return [[tuple(x * s % p for x, s in zip(row, scale)) for row in B] for B in components]


def build_projection(seed: int) -> list[Op]:
    base = random.Random("projection/base")
    rng = random.Random(f"projection/{seed}")
    ops = []
    for p, c in PROJECTION_CONTEXTS:
        ring = gv.coordinate_ring(gv.PrimeField(p), c)
        for shape in CONE_SHAPES:
            components = _scale(rng, [_random_basis(base, p, c, r) for r in shape], p, c)
            raw = _cone_ideal(ring, components, p, c)
            for d in range(1, c):
                ops.append(Op(
                    f"({p},{c}) cone {shape} d={d}",
                    lambda raw=raw, d=d: _projection_query(raw, d),
                    lambda out, comps=components, p=p, c=c, d=d: _projection_check(comps, p, c, d, out),
                ))
    rng.shuffle(ops)
    return ops


# --- ext-deep ---------------------------------------------------------------

# (p, c, n) for the trivial module's Ext^i(k, k), i = 0..n.
TRIVIAL_TABLES = ((2, 3, 20), (3, 3, 8))
EXT_CONTEXTS = ((2, 3), (3, 3))
SLOTS_PER_CONTEXT = 24
FAMILY_BOUND = 6


def _random_target(rng: random.Random, F, c: int, recipe: str):
    """A seeded module made from quotients, sums, duals and syzygies; the
    recipe fixes its dimension, the seed picks the linear forms."""
    p = F.p

    def quotient(s: int):
        return gv.quotient_by_linear_forms(F, c, _random_basis(rng, p, c, s))

    if recipe == "quotient":
        return quotient(1)
    if recipe == "sum":
        return gv.direct_sum(quotient(2), quotient(2))
    if recipe == "dual":
        return gv.dual(gv.direct_sum(quotient(1), quotient(2)))
    if recipe == "syzygy":
        return gv.syzygy_step(quotient(2))[1]
    raise ValueError(recipe)


RECIPES = ("quotient", "sum", "dual", "syzygy")


def _trivial_check(c: int, out) -> list[str]:
    want = [ref.betti_trivial(c, i) for i in range(len(out))]
    return [] if list(out) == want else [f"Ext(k, k) = {list(out)}, b_i(k) = {want}"]


def _cyclic_check(u, M, N, bound: int, out) -> list[str]:
    acts = _actions(N)
    p = N.p
    want = ref.ext_cyclic_quotient(u, acts, N.n, p, bound)
    problems = [] if list(out) == want else [f"Ext = {list(out)}, closed form {want}"]
    hom = ref.hom_dim(_actions(M), M.n, acts, N.n, p)
    if out[0] != hom:
        problems.append(f"Ext^0 = {out[0]}, dim Hom = {hom}")
    return problems


def _injective_check(M, out) -> list[str]:
    problems = [] if not any(out[1:]) else [f"Ext^>=1(M, kE) = {list(out[1:])}, expected 0"]
    if out[0] != M.n:
        problems.append(f"Hom(M, kE) = {out[0]}, dim M = {M.n}")
    return problems


def build_ext_deep(seed: int) -> list[Op]:
    rng = random.Random(f"ext-deep/{seed}")
    ops = []
    for p, c, n in TRIVIAL_TABLES:
        F = gv.PrimeField(p)
        k = gv.quotient_by_linear_forms(F, c, [_unit(c, j) for j in range(c)])
        ops.append(Op(
            f"Ext(k, k) ({p},{c}) n={n}",
            lambda k=k, n=n: gv.ext_dims(k, k, n).dims,
            lambda out, c=c: _trivial_check(c, out),
        ))
    bound = FAMILY_BOUND
    for p, c in EXT_CONTEXTS:
        F = gv.PrimeField(p)
        kE = gv.regular_module(F, c)
        for slot in range(SLOTS_PER_CONTEXT):
            u = _random_form(rng, p, c)
            M = gv.quotient_by_linear_forms(F, c, [u])
            N1 = _random_target(rng, F, c, RECIPES[slot % len(RECIPES)])
            N2 = _random_target(rng, F, c, RECIPES[(slot + 1) % len(RECIPES)])
            N12 = gv.direct_sum(N1, N2)
            tag = f"({p},{c}) slot {slot}"
            results: dict = {}

            def run(N, key, M=M, results=results):
                results[key] = gv.ext_dims(M, N, bound).dims
                return results[key]

            def additive(out, results=results):
                if "N1" not in results or "N2" not in results:
                    return ["Ext(M, N1) or Ext(M, N2) is missing"]
                s = [a + b for a, b in zip(results["N1"], results["N2"])]
                return [] if list(out) == s else [f"Ext(M, N1+N2) = {list(out)}, sum {s}"]

            ops.append(Op(f"{tag} Ext(kE/(u), N1)", lambda N=N1, run=run: run(N, "N1"),
                          lambda out, u=u, M=M, N=N1: _cyclic_check(u, M, N, bound, out)))
            ops.append(Op(f"{tag} Ext(kE/(u), N2)", lambda N=N2, run=run: run(N, "N2"),
                          lambda out, u=u, M=M, N=N2: _cyclic_check(u, M, N, bound, out)))
            ops.append(Op(f"{tag} Ext(kE/(u), N1+N2)", lambda N=N12, run=run: run(N, "N12"),
                          lambda out, u=u, M=M, N=N12, add=additive: _cyclic_check(u, M, N, bound, out) + add(out)))
            ops.append(Op(f"{tag} Ext(kE/(u), kE)", lambda M=M, kE=kE: gv.ext_dims(M, kE, bound).dims,
                          lambda out, M=M: _injective_check(M, out)))
    # The two fixed tables run first and the seeded ones in seeded order:
    # Ext(k, k) to degree 20 sets the round's peak memory, which varied by a
    # tenth from seed to seed with what had run before it.
    seeded = ops[len(TRIVIAL_TABLES):]
    rng.shuffle(seeded)
    return ops[: len(TRIVIAL_TABLES)] + seeded


BUILDERS = {
    "avrunin-scott": build_avrunin_scott,
    "projection": build_projection,
    "ext-deep": build_ext_deep,
}


def build(name: str, seed: int) -> list[Op]:
    return BUILDERS[name](seed)
