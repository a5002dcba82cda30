"""Exact multivariate polynomial arithmetic and Groebner bases over F_p.

A polynomial is a tuple of terms over its ring, each term held as
(order key, packed monomial, coefficient) and strictly descending by key,
the one form every routine reads, from construction to the reduced basis.
A ring is one object per (field, names, order), so two rings are equal
exactly when they are the same object, and every ring test is one of identity.
All Groebner computation is Buchberger's algorithm with the coprime and
chain criteria.  Pairs are selected by sugar degree, ties by
smallest lcm, when the input is homogeneous in all variables or in those a
block order keeps; on other inhomogeneous input, by smallest lcm alone.
Elimination runs under a block order; ideal intersection and radical
membership are built on elimination with a fresh auxiliary variable.

Every monomial order is defined by one integer weight vector: a monomial's
key is sum(w_i * e_i), the order's digits read in base B = 2^20.  Grevlex
digits are (deg, -e_n, ..., -e_1), lex digits are e_1, ..., e_n, and a block
order stacks the grevlex digits of the dropped variables above those of the
kept ones.  The weights are never multiplied out: the key is read off the
packed monomial's fields (below), the one route by which a key is formed.
Comparing monomials is comparing ints, and the key is linear, so a shifted
term's key is key(shift) + key(term).  The key is exact while every digit
lies strictly between -B/2 and B/2, which holds while a monomial's total
degree stays below B/2 = 524288.  The degree is checked wherever a key is
formed or extended, and a monomial that reaches the bound raises ValueError.
The same bound keeps every field of a packed monomial below its guard bit.

`Polynomial.terms` is a read-only view of (exponent tuple, coefficient)
pairs; no arithmetic reads it, only printing, tests and the sort that lists
the Pluecker relations in exponent order.  A packed monomial is one int
with a field of 20 bits per variable, at bit 20 * f(i) for variable i: 19
value bits and a guard bit above them (Monagan and Pearce 2011 pack
exponents the same way).
The fields sit on the key's own base-B digits, so the key is a cheap function
of the packed int m:
- lex: f(i) = n - 1 - i.  Digit n - 1 - i of the key is e_i, so key == m.
- grevlex: f(i) = i.  w_i = B^n - B^i, so key = deg * B^n - m.
- block, with the kept variables K and the dropped ones D each in index
  order: the t-th kept variable has field t, the t-th dropped one field
  |K| + 1 + t, and field |K| stays empty.  The kept weights are
  B^|K| - B^t and the dropped ones (B^|D| - B^t) * B^(|K|+1), so
  key = deg_D * B^(n+1) + deg_K * B^|K| - m.
Every exponent is below the degree bound 2^19, so each field holds its
exponent with the guard bit clear, and with G the guard bits:
- multiplying by a monomial adds packed ints and dividing by a divisor
  subtracts them; the product of two stored monomials has degree below
  2^20 = B, so no field carries into the next, its degree is read exactly
  (below) and checked before its key is formed, and once it is below the
  bound every field is below its guard bit again;
- renaming variables (map_to) moves each field to its image's, and an
  image's degree is its preimage's, so it stays below the bound;
- a divides m iff ((m | G) - a) & G == G: field i of the difference is
  2^19 + m_i - a_i, which lies in [1, 2^20), so no field borrows from the
  next and its guard bit is set exactly when a_i <= m_i;
- in (a | G) - b likewise field i keeps its guard bit exactly when
  a_i >= b_i; with S those guard bits, S - (S >> 19) covers the value bits
  of the selected fields, and lcm(a, b) = b ^ ((a ^ b) & (S - (S >> 19)));
- a and b are coprime iff lcm(a, b) == a + b, as max(x, y) = x + y iff
  min(x, y) = 0;
- with W fields (n, or n + 1 for a block order) the degree is field W - 1
  of m * (1 + B + ... + B^(W-1)): each field of the product is a sum of
  fields of m, below B for any monomial of degree below B, so nothing
  carries and one multiply, shift and mask reads it.  An lcm of two
  monomials below the bound has degree below B, so its degree is read
  exactly and checked before its key is formed.

Normal forms are heap-driven (Monagan and Pearce, "Sparse polynomial
division using a heap", 2011): pending terms sit in a max-heap of keys, the
largest is popped and either kept or replaced by the shifted tail of the
first reducer, by ascending lead, whose lead divides it.  Terms come out in
descending order, so a remainder needs no sort, and S-polynomials are built
straight into the pending terms.

Interreduction is one pass: each polynomial, taken by ascending lead, is fully
reduced by the monic ones kept before it.  A term is divisible only by leads
no larger than itself, so a pass whose leads stay ascending leaves every
element reduced by all the others.  Buchberger's input repeats the pass until
that holds; its output, a Groebner basis, needs one pass, once the elements
whose lead another lead divides, which would reduce to 0, are dropped.
Elimination runs that pass only on the elements it keeps.  The passes, the
reducers and the returned basis all hold the Polynomials' own terms, so
nothing is converted on the way.

Groebner work is bounded by a pool of S-pair reductions.  Inside a
`with groebner_budget(n):` block every Buchberger run draws on one pool of n,
so the bound covers a whole computation however many bases it takes; outside
any block each run has its own DEFAULT_PAIR_BUDGET.

Reduced bases are memoised: `buchberger_reduced` keeps the last 256 in a
least-recently-used cache keyed on the ring and the sorted, de-duplicated
monic generator terms, so an ideal asked again, in any order or scaling of
its generators, is reduced once and returns the same Ideal.  A hit runs no
Buchberger loop and spends nothing from the pool; a run that raises stores
nothing.

Every routine is deterministic: reduced Groebner bases are unique for a given
ideal and order, term orders break ties by fixed index order, and nothing
depends on hash iteration order.
"""

from __future__ import annotations

import bisect
import heapq
import threading
import weakref
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import index, itemgetter, lshift
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import GroebnerBudgetError
from .fp import PrimeField, _integer

DEFAULT_PAIR_BUDGET = 200_000

# [limit, reductions spent] of the enclosing groebner_budget block, if any
_pool: ContextVar[list[int] | None] = ContextVar("groebner_pool", default=None)


@contextmanager
def groebner_budget(limit: int) -> Iterator[None]:
    """Let every Groebner computation inside the block draw on one pool of
    `limit` S-pair reductions; the first reduction past it raises
    GroebnerBudgetError."""
    token = _pool.set([limit, 0])
    try:
        yield
    finally:
        _pool.reset(token)

Mono = tuple[int, ...]


@dataclass(frozen=True)
class MonomialOrder:
    """lex, grevlex, or a two-block elimination order (drop block greatest)."""

    kind: str = "grevlex"
    drop: frozenset = frozenset()

    def __post_init__(self) -> None:
        if self.kind not in ("lex", "grevlex", "block"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind == "block" and not self.drop:
            raise ValueError("block order needs a nonempty drop set")

    @staticmethod
    def lex() -> "MonomialOrder":
        return MonomialOrder("lex")

    @staticmethod
    def grevlex() -> "MonomialOrder":
        return MonomialOrder("grevlex")

    @staticmethod
    def block(drop: Iterable[str]) -> "MonomialOrder":
        return MonomialOrder("block", frozenset(drop))

    def restrict(self, kept: Sequence[str]) -> "MonomialOrder":
        """The order induced on the subring spanned by `kept`."""
        if self.kind == "block":
            rem = self.drop & set(kept)
            return MonomialOrder.block(rem) if rem else MonomialOrder.grevlex()
        return MonomialOrder(self.kind)


# the width of a packed monomial's fields, the digit base of the order keys,
# and the total degree below which every digit lies strictly between
# -_BASE/2 and _BASE/2 and every field below its guard bit
_FIELD = 20
_BASE = 1 << _FIELD
_FIELD_MASK = _BASE - 1
_DEGREE_BOUND = _BASE // 2


def _degree_error(degree: int) -> ValueError:
    return ValueError(
        f"monomial of total degree {degree} reaches the order key's bound {_DEGREE_BOUND}")


# the live ring of each (field, names, order); weak, so that a ring nothing
# holds is freed, and an equal one built later is again the only one; the
# lock keeps two threads from building two rings for one key
_rings: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_rings_lock = threading.Lock()


class PolyRing:
    """F_p[names] with a fixed monomial order; one object per (field, names, order)."""

    __slots__ = ("field", "names", "order", "_pos", "_shifts", "_ones", "_top", "_kept", "_guard",
                 "__weakref__")

    def __new__(cls, field: PrimeField, names: Sequence[str], order: MonomialOrder | None = None) -> "PolyRing":
        names = tuple(names)
        order = order or MonomialOrder.grevlex()
        key = (field, names, order)
        with _rings_lock:
            ring = _rings.get(key)
            if ring is None:
                if len(set(names)) != len(names):
                    raise ValueError("duplicate variable names")
                ring = super().__new__(cls)
                ring.field, ring.names, ring.order = field, names, order
                ring._pos = {n: i for i, n in enumerate(names)}
                ring._build_layout()
                _rings[key] = ring
        return ring

    def __reduce__(self):
        return PolyRing, (self.field, self.names, self.order)

    def _build_layout(self) -> None:
        """Each variable's packed field f(i), as the module docstring lays
        them out; a block order's kept degree is the sum of its first |K|
        fields."""
        n = len(self.names)
        kind = self.order.kind
        if kind == "lex":
            fields = [n - 1 - i for i in range(n)]
            width = nk = n
        elif kind == "grevlex":
            fields = list(range(n))
            width = nk = n
        else:
            missing = self.order.drop - set(self.names)
            if missing:
                raise ValueError(f"block order drops unknown variables {sorted(missing)}")
            dropped = [v in self.order.drop for v in self.names]
            nk = dropped.count(False)
            kept_fields, drop_fields = iter(range(nk)), iter(range(nk + 1, n + 1))
            fields = [next(drop_fields) if d else next(kept_fields) for d in dropped]
            width = n + 1
        self._shifts = tuple(_FIELD * f for f in fields)
        ones = sum(1 << _FIELD * f for f in range(width))
        self._guard = ones << (_FIELD - 1)
        # field j + 1 of m * _ones is the sum of m's fields 0..j
        self._ones = ones << _FIELD
        self._top = _FIELD * width
        self._kept = _FIELD * nk

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def nvars(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:
        return f"PolyRing(F_{self.p}[{', '.join(self.names)}], {self.order.kind})"

    # packed monomials, laid out and proved exact in the module docstring
    def _pack(self, e: Mono) -> int:
        return sum(map(lshift, e, self._shifts))

    def _unpack(self, m: int) -> Mono:
        return tuple([m >> s & _FIELD_MASK for s in self._shifts])

    def _degree(self, m: int) -> int:
        """Total degree of a packed monomial of degree below _BASE."""
        return m * self._ones >> self._top & _FIELD_MASK

    def _kept_degree(self, m: int) -> int:
        """Degree in the variables a block order keeps, or in all of them."""
        return m * self._ones >> self._kept & _FIELD_MASK

    def _mkey(self, m: int) -> int:
        """The order key of a packed monomial of degree below _BASE; the
        caller checks the degree bound."""
        kind = self.order.kind
        if kind == "lex":
            return m
        s = m * self._ones
        deg = s >> self._top & _FIELD_MASK
        if kind == "grevlex":
            return (deg << self._top) - m
        kept = s >> self._kept & _FIELD_MASK
        return ((deg - kept) << self._top) + (kept << self._kept) - m

    def _point(self, values: Sequence[int]) -> tuple[int, list]:
        """A point of F_p^nvars, given by its coordinates in 0..p-1, as
        Polynomial._value reads it.  A term with a variable that is 0 at the
        point vanishes, and a variable that is 1 leaves it unchanged, so the
        point is the mask of the fields of its zero coordinates and the
        (shift, value) of the others that are not 1."""
        zeros, fields = 0, []
        for s, v in zip(self._shifts, values):
            if v == 0:
                zeros |= _FIELD_MASK << s
            elif v != 1:
                fields.append((s, v))
        return zeros, fields

    # construction
    def from_dict(self, d: dict[Mono, int]) -> "Polynomial":
        """The polynomial sum(c * x^e); ValueError on an exponent vector of
        the wrong length or with a negative entry, on a coefficient that is
        not an integer, or on a term with a nonzero coefficient whose degree
        reaches the bound."""
        n, p = len(self.names), self.p
        for e in d:
            if len(e) != n or (e and min(e) < 0):
                raise ValueError(f"monomial {e} of {self} needs {n} nonnegative exponents")
        packed = {}
        for e, c in d.items():
            c = _integer(c, "coefficient")
            if c % p:
                if sum(e) >= _DEGREE_BOUND:
                    raise _degree_error(sum(e))
                packed[self._pack(e)] = c
        return self._from_packed(packed)

    def _from_packed(self, d: dict[int, int]) -> "Polynomial":
        """The polynomial sum(c * x^m) over packed monomials m of degree
        below _BASE, such as the sum of two stored ones; ValueError once a
        term with a nonzero coefficient reaches the degree bound."""
        p, deg, mkey = self.p, self._degree, self._mkey
        terms = []
        for m, c in d.items():
            c %= p
            if c:
                dm = deg(m)
                if dm >= _DEGREE_BOUND:
                    raise _degree_error(dm)
                terms.append((mkey(m), m, c))
        terms.sort(key=itemgetter(0), reverse=True)
        return Polynomial(self, tuple(terms))

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    @property
    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, a: int) -> "Polynomial":
        a = _integer(a, "coefficient") % self.p
        if a == 0:
            return self.zero
        # the monomial 1 packs to 0, whose key is 0 under every order
        return Polynomial(self, ((0, 0, a),))

    def var(self, name_or_index) -> "Polynomial":
        """The variable of that name (KeyError if none) or index in 0..nvars-1."""
        i = self._pos[name_or_index] if isinstance(name_or_index, str) else _integer(name_or_index, "variable index")
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} outside 0..{self.nvars - 1}")
        m = 1 << self._shifts[i]
        return Polynomial(self, ((self._mkey(m), m, 1),))

    def gens(self) -> list["Polynomial"]:
        return [self.var(i) for i in range(self.nvars)]

    def fresh_name(self) -> str:
        """t, or else the first of t0, t1, .. that is not a variable name."""
        if "t" not in self._pos:
            return "t"
        i = 0
        while f"t{i}" in self._pos:
            i += 1
        return f"t{i}"


class Polynomial:
    """Immutable polynomial: (key, packed monomial, coefficient) terms,
    strictly descending by key, with coefficients in 1..p-1."""

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: PolyRing, terms: tuple) -> None:
        self.ring = ring
        self._terms = terms

    # predicates and views
    @property
    def terms(self) -> tuple:
        """(exponent tuple, coefficient) of each term, in descending order."""
        unpack = self.ring._unpack
        return tuple((unpack(m), c) for _, m, c in self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        # 1 is the least monomial, so only a constant has it as its lead
        return not self._terms or self._terms[0][1] == 0

    def lm(self) -> Mono:
        if not self._terms:
            raise ValueError("zero polynomial has no leading monomial")
        return self.ring._unpack(self._terms[0][1])

    def lc(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._terms[0][2]

    def total_degree(self) -> int:
        deg = self.ring._degree
        return max((deg(m) for _, m, _ in self._terms), default=-1)

    def is_homogeneous(self) -> bool:
        deg = self.ring._degree
        return len({deg(m) for _, m, _ in self._terms}) <= 1

    def support(self) -> frozenset:
        """Indices of variables that occur in some term."""
        # fields never carry, so a field of the OR is nonzero exactly when
        # it is nonzero in some term
        union = 0
        for _, m, _ in self._terms:
            union |= m
        return frozenset(i for i, s in enumerate(self.ring._shifts) if union >> s & _FIELD_MASK)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.ring is other.ring and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.ring, self._terms))

    # arithmetic
    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.ring is not self.ring:
                raise ValueError("mixed polynomial rings")
            return other
        try:
            return self.ring.const(index(other))
        except TypeError:
            raise TypeError(f"unsupported operand for a Polynomial: {type(other).__name__}") from None

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        p = self.ring.p
        d = {k: (m, c) for k, m, c in self._terms}
        for k, m, c in other._terms:
            if k in d:
                c = (d.pop(k)[1] + c) % p
                if not c:
                    continue
            d[k] = (m, c)
        return Polynomial(self.ring, tuple((k, m, c) for k, (m, c) in sorted(d.items(), reverse=True)))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        p = self.ring.p
        return Polynomial(self.ring, tuple((k, m, (-c) % p) for k, m, c in self._terms))

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other._terms and other.is_constant():
            # a nonzero scalar: scale the coefficients
            p, c0 = self.ring.p, other._terms[0][2]
            return Polynomial(self.ring, tuple((k, m, (c * c0) % p) for k, m, c in self._terms))
        # packed monomials multiply by adding; the keys are formed, and the
        # degrees checked, only for the terms that do not cancel
        d: dict[int, int] = {}
        for _, m1, c1 in self._terms:
            for _, m2, c2 in other._terms:
                m = m1 + m2
                d[m] = d.get(m, 0) + c1 * c2
        return self.ring._from_packed(d)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = self.ring.one
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def monic(self) -> "Polynomial":
        return Polynomial(self.ring, tuple(_monic(self._terms, self.ring.field))) if self._terms else self

    def evaluate(self, values: Sequence[int]) -> int:
        """Value at a point of F_p^nvars; ValueError on a coordinate that
        is not an integer."""
        if len(values) != self.ring.nvars:
            raise ValueError("wrong number of coordinates")
        p = self.ring.p
        return self._value(self.ring._point([_integer(v, "coordinate") % p for v in values]))

    def _value(self, point: tuple[int, list]) -> int:
        """Value at a point made by PolyRing._point."""
        zeros, fields = point
        p = self.ring.p
        total = 0
        for _, m, c in self._terms:
            if m & zeros:
                continue
            for s, v in fields:
                x = m >> s & _FIELD_MASK
                if x:
                    c = c * pow(v, x, p) % p
            total += c
        return total % p

    def map_to(self, ring: PolyRing, index_map: Sequence[int | None]) -> "Polynomial":
        """Reinterpret in `ring`; index_map[i] is the target slot of variable i
        (None requires exponent 0)."""
        if len(index_map) != self.ring.nvars:
            raise ValueError(f"index map of length {len(index_map)} for {self.ring.nvars} variables")
        if None in index_map:
            support = self.support()
            for i, j in enumerate(index_map):
                if j is None and i in support:
                    raise ValueError(f"variable {self.ring.names[i]} has no image")
        return self._relabelled(ring, index_map)

    def _relabelled(self, ring: PolyRing, index_map: Sequence[int | None]) -> "Polynomial":
        """map_to with every variable whose index_map entry is None set to 1."""
        moves = [(s, ring._shifts[j]) for s, j in zip(self.ring._shifts, index_map) if j is not None]
        d: dict[int, int] = {}
        for _, m, c in self._terms:
            out = 0
            for s, t in moves:
                out += (m >> s & _FIELD_MASK) << t
            d[out] = d.get(out, 0) + c
        return ring._from_packed(d)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        names = self.ring.names
        bits = []
        for e, c in self.terms:
            factors = []
            for i, x in enumerate(e):
                if x == 1:
                    factors.append(names[i])
                elif x > 1:
                    factors.append(f"{names[i]}^{x}")
            mono = "*".join(factors)
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            else:
                bits.append(f"{c}*{mono}")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


# the logarithm _logs gives 0: a monomial of degree deg below the bound has
# logarithm at most deg * (p - 2) < 2^19 * 96 at a point with no zero factor,
# so a sum of logarithms reaches this exactly when a factor is 0, and stays
# at most deg * 2^32 < 2^51, inside int64
_LOG_ZERO = 1 << 32


@lru_cache(maxsize=32)
def _logs(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Discrete logarithms in F_p to the least primitive root g: log[x] for x
    in 0..p-1, with log[0] = _LOG_ZERO, and exp[k] = g^k for k in 0..p-2.
    Built once per prime; there are 25 primes up to 97."""
    g = next(g for g in range(1, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
    exp = np.array([pow(g, k, p) for k in range(p - 1)], dtype=np.int64)
    log = np.full(p, _LOG_ZERO, dtype=np.int64)
    log[exp] = np.arange(p - 1)
    return log, exp


def _vanishing(gens: Sequence[Polynomial], points: np.ndarray) -> np.ndarray:
    """The mask of the rows of `points`, an (n, nvars) int64 stack of points
    of F_p^nvars with entries in 0..p-1, at which every polynomial of gens,
    all in one ring, vanishes.

    The zero polynomial, and so no polynomial, vanishes everywhere, and a
    nonzero constant nowhere, with no evaluation.  Otherwise every term's
    column, its monomial's value at each point, comes from one product of
    the (terms x nvars) exponent matrix E with the points' logarithms
    (_logs): E @ log(x) is the discrete logarithm of x^e, taken mod p - 1,
    where no coordinate of its support is 0, and reaches _LOG_ZERO where
    one is.  The columns, times the coefficients, are summed per polynomial
    mod p.  So the work is a fixed number of array operations, whatever the
    number of variables."""
    n = len(points)
    gens = [g for g in gens if g._terms]
    if not gens:
        return np.ones(n, dtype=bool)
    if any(g.is_constant() for g in gens):
        return np.zeros(n, dtype=bool)
    ring = gens[0].ring
    p = ring.p
    log, exp = _logs(p)
    terms = [t for g in gens for t in g._terms]
    exps = np.array([ring._unpack(m) for _, m, _ in terms], dtype=np.int64)
    power = exps @ log[points].T
    columns = np.where(power < _LOG_ZERO, exp[power % (p - 1)], 0)
    columns *= np.array([c for _, _, c in terms], dtype=np.int64)[:, None]
    starts = [0, *accumulate(len(g._terms) for g in gens[:-1])]
    return ~(np.add.reduceat(columns, starts, axis=0) % p).any(axis=0)


@dataclass(frozen=True)
class Ideal:
    """Finite generator list over a ring."""

    ring: PolyRing
    gens: tuple

    def __post_init__(self) -> None:
        for g in self.gens:
            if g.ring is not self.ring:
                raise ValueError("generator ring mismatch")

    def is_zero_ideal(self) -> bool:
        return all(g.is_zero() for g in self.gens)

    def is_unit_ideal(self) -> bool:
        """Only reliable on a Groebner basis."""
        return any(g.is_constant() and not g.is_zero() for g in self.gens)

    def __str__(self) -> str:
        if self.is_zero_ideal():
            return "ideal(0)"
        return "ideal(" + ", ".join(str(g) for g in self.gens) + ")"


def ideal(ring: PolyRing, gens: Iterable[Polynomial]) -> Ideal:
    """Normalize a generator list: drop zeros, keep order."""
    return Ideal(ring, tuple(g for g in gens if not g.is_zero()))


# --- division ----------------------------------------------------------------

def _monic(keyed, field: PrimeField) -> list:
    c0 = keyed[0][2]
    if c0 == 1:
        return keyed
    inv, p = field.inv(c0), field.p
    return [(k, m, c * inv % p) for k, m, c in keyed]


def _reducer(ring: PolyRing, keyed):
    """Reducer entry (lead key, lead, excess, tail) of a monic polynomial
    given as keyed terms by descending key.

    The excess is the tail's largest degree minus the lead's, so reducing a
    term of degree d forms monomials of degree at most d + excess.  It is
    never positive under grevlex.
    """
    lk, lm, _ = keyed[0]
    tail = tuple(keyed[1:])
    deg = ring._degree
    excess = max((deg(m) for _, m, _ in tail), default=0) - deg(lm)
    return (lk, lm, excess, tail)


def _subtract_shifted(pending: dict, heap: list, reducer, shift_key: int, shift: int, c: int) -> None:
    """Subtract c * shift * (reducer's tail) from the pending terms, a dict
    key -> [coefficient, packed monomial] whose keys the heap holds negated,
    once each.  Coefficients are reduced mod p when the term is popped."""
    for gk, gm, gc in reducer[3]:
        k = shift_key + gk
        t = pending.get(k)
        if t is None:
            pending[k] = [-c * gc, shift + gm]
            heapq.heappush(heap, -k)
        else:
            t[0] -= c * gc


def _reduce(ring: PolyRing, pending: dict, heap: list, reducers) -> list:
    """Full normal form of the pending terms against monic reducer entries
    sorted by ascending lead key, as keyed terms by descending key.

    The heap pops the largest pending term; it is kept when no lead divides
    it, and otherwise replaced by the shifted reducer tail, whose terms are
    all smaller.  So the output comes out sorted.
    """
    p, guard = ring.p, ring._guard
    out = []
    while heap:
        k = -heapq.heappop(heap)
        c, m = pending.pop(k)
        c %= p
        if not c:
            continue
        # a lead larger than m cannot divide it
        hit = None
        mg = m | guard
        for r in reducers:
            if r[0] > k:
                break
            if (mg - r[1]) & guard == guard:
                hit = r
                break
        if hit is None:
            out.append((k, m, c))
            continue
        lk, lm, excess, _ = hit
        if excess > 0:
            degree = ring._degree(m) + excess
            if degree >= _DEGREE_BOUND:
                raise _degree_error(degree)
        _subtract_shifted(pending, heap, hit, k - lk, m - lm, c)
    return out


def _pending(keyed) -> tuple[dict, list]:
    """Pending terms and their heap for _reduce, from distinct keyed terms."""
    pending = {k: [c, m] for k, m, c in keyed}
    heap = [-k for k in pending]
    heapq.heapify(heap)
    return pending, heap


def normal_form(f: Polynomial, basis: Ideal | Sequence[Polynomial]) -> Polynomial:
    """Remainder of f under full reduction by the given (Groebner) basis;
    ValueError when a basis element lies in another ring than f."""
    polys = basis.gens if isinstance(basis, Ideal) else tuple(basis)
    return next(_normal_forms(f.ring, polys, (f,)))


def _normal_forms(
    ring: PolyRing, basis: Sequence[Polynomial], fs: Iterable[Polynomial]
) -> Iterator[Polynomial]:
    """normal_form of each of fs by the basis, one at a time, against one
    set of reducers, built when the first is asked for; ValueError when a
    basis element or one of fs lies in another ring than `ring`."""
    if any(g.ring is not ring for g in basis):
        raise ValueError("normal form needs a basis over the polynomial's ring")
    reducers = sorted((_reducer(ring, g.monic()._terms) for g in basis if g._terms), key=itemgetter(0))
    for f in fs:
        if f.ring is not ring:
            raise ValueError("normal form needs a basis over the polynomial's ring")
        yield Polynomial(ring, tuple(_reduce(ring, *_pending(f._terms), reducers)))


# --- Buchberger ----------------------------------------------------------------

def _lcm(a: int, b: int, guard: int) -> int:
    """lcm of two packed monomials; guard holds the ring's guard bits."""
    # the guard bits of the fields where a's exponent is at least b's
    s = ((a | guard) - b) & guard
    return b ^ ((a ^ b) & (s - (s >> _FIELD - 1)))


def _lead_key(keyed) -> int:
    return keyed[0][0]


def _sorted_monic(polys: Sequence[Polynomial]) -> tuple:
    """The terms of the distinct nonzero polys, made monic, by ascending
    lead; equal leads are taken in the order of their term tuples, so the
    first pass does not depend on the order of the input.  It is the key of
    the reduced-basis memo: an ideal given in any order, scaling or
    repetition of its generators has one key."""
    return tuple(sorted({g.monic()._terms for g in polys if g._terms}))


def _autoreduce(ring: PolyRing, items: list) -> list:
    """One reduction pass: monic keyed polynomials, by ascending lead, are
    each fully reduced by those kept before it and kept, monic, if nonzero.

    A term is divisible only by leads no larger than itself.  So on a
    Groebner basis the pass gives the reduced basis, by ascending lead: a
    redundant element reduces to 0.  On other input a reduction may lower a
    lead below those kept before it.  Every kept lead is new, so the output
    has distinct leads.
    """
    kept: list = []
    reducers: list = []
    for terms in items:
        r = _reduce(ring, *_pending(terms), reducers)
        if not r:
            continue
        r = _monic(r, ring.field)
        kept.append(r)
        # r is reduced by every kept lead, so its lead is new
        bisect.insort(reducers, _reducer(ring, r), key=itemgetter(0))
    return kept


def _interreduce(ring: PolyRing, monic: Sequence) -> list:
    """Monic keyed basis with every element fully reduced against the
    others, by ascending lead, from the _sorted_monic terms of the input.

    _autoreduce is repeated until its leads come out in ascending order.
    Then each element has been reduced by every smaller lead, and no larger
    lead can divide any of its terms.  Each repeat lowers or drops a lead,
    so the loop ends.
    """
    basis = _autoreduce(ring, monic)
    while any(a[0][0] > b[0][0] for a, b in zip(basis, basis[1:])):
        basis = _autoreduce(ring, sorted(basis, key=_lead_key))
    return basis


def buchberger_reduced(I: Ideal) -> Ideal:
    """The reduced Groebner basis of I under its ring order.

    S-pairs are taken by the sugar strategy (Giovini, Mora, Niesi, Robbiano
    and Traverso 1991) when the input is homogeneous in all variables or in
    the variables the order keeps, and by smallest lcm otherwise.  The
    reduced basis is unique, so the strategy changes only the work done.

    Each S-pair reduction takes one unit from the enclosing groebner_budget
    pool, or outside any block from a pool of DEFAULT_PAIR_BUDGET for this
    call alone; GroebnerBudgetError is raised when the pool runs out, and
    partial output is never returned.  The final pass spends nothing.

    Results are memoised in a 256-entry least-recently-used cache keyed on
    the ring and the _sorted_monic terms of I's generators, so the same
    ideal, given in any order or scaling of its generators, is reduced once
    and every later call returns the same Ideal.  A hit does no Groebner
    work, so it spends none of the enclosing groebner_budget; a call that
    raises stores nothing.
    """
    return _reduced_groebner(I.ring, _sorted_monic(I.gens))


@lru_cache(maxsize=256)
def _reduced_groebner(ring: PolyRing, monic: tuple) -> Ideal:
    """buchberger_reduced of the ideal of the _sorted_monic terms `monic`."""
    return _reduced_basis(ring, _groebner_basis(ring, monic))


def _groebner_basis(ring: PolyRing, monic: Sequence) -> list:
    """A Groebner basis of the ideal of the _sorted_monic terms `monic` as
    monic keyed polynomials with distinct leads, by Buchberger's pair loop,
    not yet reduced; [1] for the unit ideal."""
    pool = _pool.get() or [DEFAULT_PAIR_BUDGET, 0]
    G = _interreduce(ring, monic)
    if any(g[0][1] == 0 for g in G):
        return [[(0, 0, 1)]]

    # Sugar is the degree a pair would have in the homogenised input.  On
    # input that is homogeneous neither in all variables nor in the kept ones
    # it can drive lex and block runs to degrees far above the answer's, so
    # there every pair's sugar is 0.  Under grevlex, degree leads the order,
    # so on homogeneous input sugar ranks pairs as their lcms already do.
    deg, guard, mkey = ring._degree, ring._guard, ring._mkey
    lms = [g[0][1] for g in G]
    by_sugar = ring.order.kind != "grevlex" and (
        all(len({deg(m) for _, m, _ in g}) == 1 for g in G)
        or all(len({ring._kept_degree(m) for _, m, _ in g}) == 1 for g in G))
    # each element's sugar minus the degree of its leading monomial
    ecart = [max(deg(m) for _, m, _ in g) - deg(g[0][1]) if by_sugar else 0 for g in G]
    heap: list = []
    active: set[tuple[int, int]] = set()

    def push_pairs(j: int) -> None:
        for i in range(j):
            l = _lcm(lms[i], lms[j], guard)
            dl = deg(l)
            if dl >= _DEGREE_BOUND:
                raise _degree_error(dl)
            sugar = max(ecart[i], ecart[j]) + dl if by_sugar else 0
            heapq.heappush(heap, (sugar, mkey(l), i, j, l))
            active.add((i, j))

    for j in range(len(G)):
        push_pairs(j)

    # reducer entries by basis index; G is interreduced, so its leads are
    # distinct and ascending
    entries = [_reducer(ring, g) for g in G]
    reducers = list(entries)
    while heap:
        sugar, kl, i, j, l = heapq.heappop(heap)
        if (i, j) not in active:
            continue
        active.discard((i, j))
        # coprime criterion
        li, lj = lms[i], lms[j]
        if l == li + lj:
            continue
        # chain criterion
        skip = False
        lg = l | guard
        for h, lh in enumerate(lms):
            if h == i or h == j:
                continue
            if (lg - lh) & guard == guard:
                ph = (min(h, i), max(h, i))
                qh = (min(h, j), max(h, j))
                if ph not in active and qh not in active:
                    skip = True
                    break
        if skip:
            continue
        pool[1] += 1
        if pool[1] > pool[0]:
            raise GroebnerBudgetError(
                f"Groebner pair budget exceeded ({pool[0]} reductions)")
        # S-polynomial of the monic pair, built as pending terms: the leads
        # cancel, and the tails shifted to l are added and subtracted;
        # under grevlex no shifted term outgrows l's degree
        a, b = entries[i], entries[j]
        excess = max(a[2], b[2])
        if excess > 0 and deg(l) + excess >= _DEGREE_BOUND:
            raise _degree_error(deg(l) + excess)
        pending: dict = {}
        pending_heap: list = []
        _subtract_shifted(pending, pending_heap, a, kl - a[0], l - li, -1)
        _subtract_shifted(pending, pending_heap, b, kl - b[0], l - lj, 1)
        r = _reduce(ring, pending, pending_heap, reducers)
        if not r:
            continue
        r = _monic(r, ring.field)
        if r[0][1] == 0:
            return [r]
        G.append(r)
        lms.append(r[0][1])
        if by_sugar:
            ecart.append(max(sugar, max(deg(m) for _, m, _ in r)) - deg(r[0][1]))
        entries.append(_reducer(ring, r))
        # r is reduced by every lead in G, so its lead is new
        bisect.insort(reducers, entries[-1], key=itemgetter(0))
        push_pairs(len(G) - 1)
    return G


def _reduced_basis(ring: PolyRing, G: list) -> Ideal:
    """The reduced basis of the ideal of G, a Groebner basis as monic keyed
    polynomials with distinct leads.

    An element whose lead another lead divides reduces to 0, so it is
    dropped before the pass; the rest keep a Groebner basis, since every
    lead is divisible by a minimal one.  A divisor's key is smaller, so by
    ascending lead each element is checked against the minimal leads kept
    before it.  Then one ascending-lead pass reduces them.
    """
    guard = ring._guard
    minimal, leads = [], []
    for g in sorted(G, key=_lead_key):
        mg = g[0][1] | guard
        if not any((mg - h) & guard == guard for h in leads):
            minimal.append(g)
            leads.append(g[0][1])
    out = _autoreduce(ring, minimal)
    return Ideal(ring, tuple(Polynomial(ring, tuple(g)) for g in reversed(out)))


# --- elimination-based operations ---------------------------------------------

def eliminate(I: Ideal, drop: Iterable[str]) -> Ideal:
    """Intersection of I with the subring that omits the `drop` variables.

    Returns the reduced Groebner basis of that intersection, as an ideal over
    the smaller ring carrying the induced order.  It is read off a Groebner
    basis under the block order that drops them: an I whose ring has that
    order is used as it is, any other is first copied into a ring with it.
    Its elements free of the dropped variables are a Groebner basis of the
    intersection, and no lead holding a dropped variable divides any of
    their terms, so the final pass reduces only them.  That gives the
    reduced basis under grevlex; under any other induced order it is
    reduced once more.
    """
    ring = I.ring
    drop_set = frozenset(drop)
    unknown = drop_set - set(ring.names)
    if unknown:
        raise ValueError(f"cannot eliminate unknown variables {sorted(unknown)}")
    if not drop_set:
        return buchberger_reduced(I)
    elim_ring = PolyRing(ring.field, ring.names, MonomialOrder.block(drop_set))
    if elim_ring is not ring:
        I = Ideal(elim_ring, tuple(g.map_to(elim_ring, range(ring.nvars)) for g in I.gens))
    kept_names = tuple(n for n in ring.names if n not in drop_set)
    small = PolyRing(ring.field, kept_names, ring.order.restrict(kept_names))
    pos = {n: k for k, n in enumerate(kept_names)}
    index_map = [pos.get(n) for n in ring.names]
    # the dropped block leads the order, so an element whose leading
    # monomial is free of it is free of it altogether
    dropped = sum(_FIELD_MASK << s for s, j in zip(elim_ring._shifts, index_map) if j is None)
    kept = [g for g in _groebner_basis(elim_ring, _sorted_monic(I.gens)) if not g[0][1] & dropped]
    G = _reduced_basis(elim_ring, kept)
    out = Ideal(small, tuple(g._relabelled(small, index_map) for g in G.gens))
    return out if small.order.kind == "grevlex" else buchberger_reduced(out)


def _extend_with_aux(ring: PolyRing, eliminating: bool) -> tuple[PolyRing, Polynomial, Callable[[Polynomial], Polynomial]]:
    """ring with a fresh variable t appended, t, and the copy of ring's
    polynomials into it.  The new ring keeps ring's order, except that for
    `eliminating` t a grevlex ring's takes the block order that drops t,
    which eliminate then reduces in with no copy."""
    if ring.order.kind == "block":
        raise ValueError("auxiliary-variable constructions need lex or grevlex rings")
    t = ring.fresh_name()
    order = MonomialOrder.block({t}) if eliminating and ring.order.kind == "grevlex" else ring.order
    big = PolyRing(ring.field, ring.names + (t,), order)
    ident = list(range(ring.nvars))
    return big, big.var(ring.nvars), lambda g: g.map_to(big, ident)


def ideal_intersect(I: Ideal, J: Ideal) -> Ideal:
    """I n J via t*I + (1-t)*J and elimination of t."""
    if I.ring is not J.ring:
        raise ValueError("ideal intersection needs a common ring")
    if I.is_zero_ideal() or J.is_zero_ideal():
        return Ideal(I.ring, ())
    big, t, lift = _extend_with_aux(I.ring, True)
    gens = [t * lift(g) for g in I.gens] + [(1 - t) * lift(h) for h in J.gens]
    return eliminate(Ideal(big, tuple(gens)), {big.names[-1]})


def radical_member(f: Polynomial, I: Ideal) -> bool:
    """Rabinowitsch test: f lies in the radical of I."""
    if f.ring is not I.ring:
        raise ValueError("radical membership needs a common ring")
    big, t, lift = _extend_with_aux(I.ring, False)
    gens = tuple(map(lift, I.gens)) + (1 - t * lift(f),)
    return buchberger_reduced(Ideal(big, gens)).is_unit_ideal()


def radical_contains(I: Ideal, J: Ideal) -> bool:
    """Every generator of J lies in the radical of I."""
    return all(radical_member(g, I) for g in J.gens)


def radical_equal(I: Ideal, J: Ideal) -> bool:
    """The two ideals cut out the same variety (mutual radical membership)."""
    return radical_contains(I, J) and radical_contains(J, I)


def ideal_dimension(I: Ideal) -> int:
    """Krull dimension of R/I; -1 for the unit ideal.

    Computed combinatorially from the leading-monomial ideal of a reduced
    Groebner basis: the dimension is the largest size of a variable subset S
    such that no leading monomial is supported inside S.
    """
    return _basis_dimension(buchberger_reduced(I))


def _basis_dimension(G: Ideal) -> int:
    """ideal_dimension of the ideal generated by G, a Groebner basis, read
    off G's leading monomials with no Groebner work.

    Sets of variables, leading supports among them, are int bitmasks.  A
    set with no support inside leaves out a variable of each, so the largest
    such set in `free` branches over the variables of the first support in
    `free`, smallest first and of those the ones meeting the most supports;
    each set is solved once.
    """
    if G.is_unit_ideal():
        return -1
    supports = {sum(1 << i for i, e in enumerate(g.lm()) if e) for g in G.gens}
    supports = sorted(supports, key=lambda s: (s.bit_count(), -sum(s & t != 0 for t in supports), s))

    memo: dict[int, int] = {}

    def largest(free: int) -> int:
        if free not in memo:
            s = next((s for s in supports if s & free == s), None)
            memo[free] = free.bit_count() if s is None else max(
                largest(free & ~(1 << i)) for i in range(s.bit_length()) if s >> i & 1)
        return memo[free]

    return largest((1 << G.ring.nvars) - 1)
