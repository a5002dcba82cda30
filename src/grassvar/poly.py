"""Exact multivariate polynomial arithmetic and Groebner bases over F_p.

Monomials are exponent tuples, polynomials are sorted term tuples over a ring
descriptor, and all Groebner computation is Buchberger's algorithm with the
coprime and chain criteria.  Pairs are selected by sugar degree, ties by
smallest lcm, when the input is homogeneous in all variables or in those a
block order keeps; on other inhomogeneous input, by smallest lcm alone.
Elimination runs under a block order; ideal intersection and radical
membership are built on elimination with a fresh auxiliary variable.

Every monomial order is one integer weight vector: a monomial's key is
sum(w_i * e_i), the order's digits read in base B = 2^20.  Grevlex digits are
(deg, -e_n, ..., -e_1), lex digits are e_1, ..., e_n, and a block order stacks
the grevlex digits of the dropped variables above those of the kept ones.
Comparing monomials is comparing ints, and the key is linear, so a shifted
term's key is key(shift) + key(term).  The key is exact while every digit
lies strictly between -B/2 and B/2, which holds while a monomial's total
degree stays below B/2 = 524288.  The degree is checked wherever a key is
formed or extended, and a monomial that reaches the bound raises ValueError.
The same bound keeps every field of a packed monomial below its guard bit.

`Polynomial.terms` hold exponent tuples, but division and Buchberger's
algorithm hold each term as (key, packed monomial, coefficient), from the
first key to the reduced basis.  A packed monomial is one int with a field of
20 bits per variable, at bit 20 * f(i) for variable i: 19 value bits and a
guard bit above them (Monagan and Pearce 2011 pack exponents the same way).
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
  subtracts them; no field passes 2^19 - 1 while the result's degree is
  below the bound, which is checked as for keys;
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
that holds; its output, a Groebner basis, needs one pass, in which redundant
elements reduce to 0.  The passes, the reducers and the basis all stay in
keyed form; only the returned basis is unpacked into Polynomials.

Groebner work is bounded by a pool of S-pair reductions.  Inside a
`with groebner_budget(n):` block every Buchberger run draws on one pool of n,
so the bound covers a whole computation however many bases it takes; outside
any block each run has its own DEFAULT_PAIR_BUDGET.

Every routine is deterministic: reduced Groebner bases are unique for a given
ideal and order, term orders break ties by fixed index order, and nothing
depends on hash iteration order.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from operator import itemgetter, lshift, mul
from typing import Iterable, Iterator, Sequence

from .errors import GroebnerBudgetError
from .fp import PrimeField

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


class PolyRing:
    """F_p[names] with a fixed monomial order."""

    __slots__ = ("field", "names", "order", "_pos", "_weights", "_shifts", "_ones", "_top", "_kept",
                 "_guard")

    def __init__(self, field: PrimeField, names: Sequence[str], order: MonomialOrder | None = None) -> None:
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        order = order or MonomialOrder.grevlex()
        self.field = field
        self.names = names
        self.order = order
        self._pos = {n: i for i, n in enumerate(names)}
        self._build_layout()

    def _build_layout(self) -> None:
        """Each variable's packed field f(i) and the order's weights, which
        the module docstring derives from the fields; a block order's kept
        degree is the sum of its first |K| fields."""
        n = len(self.names)
        kind = self.order.kind
        if kind == "lex":
            fields = [n - 1 - i for i in range(n)]
            weights = [_BASE**f for f in fields]
            width = nk = n
        elif kind == "grevlex":
            fields = list(range(n))
            weights = [_BASE**n - _BASE**f for f in fields]
            width = nk = n
        else:
            missing = self.order.drop - set(self.names)
            if missing:
                raise ValueError(f"block order drops unknown variables {sorted(missing)}")
            dropped = [v in self.order.drop for v in self.names]
            nk = dropped.count(False)
            kept_fields, drop_fields = iter(range(nk)), iter(range(nk + 1, n + 1))
            fields = [next(drop_fields) if d else next(kept_fields) for d in dropped]
            weights = [(_BASE ** (n + 1) if d else _BASE**nk) - _BASE**f for d, f in zip(dropped, fields)]
            width = n + 1
        self._weights = tuple(weights)
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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyRing)
            and self.p == other.p
            and self.names == other.names
            and self.order == other.order
        )

    def __hash__(self) -> int:
        return hash((self.p, self.names, self.order))

    def __repr__(self) -> str:
        return f"PolyRing(F_{self.p}[{', '.join(self.names)}], {self.order.kind})"

    def key(self, e: Mono) -> int:
        """The order's integer key of e; ValueError once its degree reaches
        the key's bound."""
        if sum(e) >= _DEGREE_BOUND:
            raise _degree_error(sum(e))
        return sum(map(mul, self._weights, e))

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

    # construction
    def from_dict(self, d: dict[Mono, int]) -> "Polynomial":
        """The polynomial sum(c * x^e); ValueError on an exponent vector of
        the wrong length or with a negative entry."""
        n = len(self.names)
        for e in d:
            if len(e) != n or (e and min(e) < 0):
                raise ValueError(f"monomial {e} of {self} needs {n} nonnegative exponents")
        return self._from_valid_dict(d)

    def _from_valid_dict(self, d: dict[Mono, int]) -> "Polynomial":
        """from_dict for exponent vectors built from a ring's own by
        arithmetic, substitution or renaming, which cannot be malformed.
        Nearly every polynomial a projection builds is one of these, so
        they skip from_dict's check."""
        p = self.p
        clean = {}
        for e, c in d.items():
            c %= p
            if c:
                clean[e] = c
        terms = tuple(sorted(clean.items(), key=lambda t: self.key(t[0]), reverse=True))
        return Polynomial(self, terms)

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    @property
    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, a: int) -> "Polynomial":
        a %= self.p
        if a == 0:
            return self.zero
        return Polynomial(self, (((0,) * self.nvars, a),))

    def var(self, name_or_index) -> "Polynomial":
        i = name_or_index if isinstance(name_or_index, int) else self._pos[name_or_index]
        e = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, ((e, 1),))

    def gens(self) -> list["Polynomial"]:
        return [self.var(i) for i in range(self.nvars)]

    def index(self, name: str) -> int:
        return self._pos[name]

    def fresh_name(self, base: str = "t") -> str:
        if base not in self._pos:
            return base
        i = 0
        while f"{base}{i}" in self._pos:
            i += 1
        return f"{base}{i}"

    def extend(self, new_names: Sequence[str]) -> "PolyRing":
        """Append variables; keeps the order kind (and block drop set)."""
        return PolyRing(self.field, self.names + tuple(new_names), self.order)


class Polynomial:
    """Immutable polynomial: term tuple strictly descending in the ring order."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: tuple) -> None:
        self.ring = ring
        self.terms = terms

    # predicates and views
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or not any(self.terms[0][0])

    def lm(self) -> Mono:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    def lc(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e, _ in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {sum(e) for e, _ in self.terms}
        return len(degs) == 1

    def support(self) -> frozenset:
        """Indices of variables that occur in some term."""
        s = set()
        for e, _ in self.terms:
            for i, x in enumerate(e):
                if x:
                    s.add(i)
        return frozenset(s)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms and (
            self.ring is other.ring or self.ring == other.ring)

    def __hash__(self) -> int:
        return hash((self.ring, self.terms))

    # arithmetic
    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("mixed polynomial rings")
            return other
        if isinstance(other, int):
            return self.ring.const(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        d = dict(self.terms)
        p = self.ring.p
        for e, c in other.terms:
            v = (d.get(e, 0) + c) % p
            if v:
                d[e] = v
            elif e in d:
                del d[e]
        return self.ring._from_valid_dict(d)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        p = self.ring.p
        return Polynomial(self.ring, tuple((e, (-c) % p) for e, c in self.terms))

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            p = self.ring.p
            c0 = other % p
            if c0 == 0:
                return self.ring.zero
            return Polynomial(self.ring, tuple((e, (c * c0) % p) for e, c in self.terms))
        other = self._coerce(other)
        p = self.ring.p
        d: dict[Mono, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                v = (d.get(e, 0) + c1 * c2) % p
                if v:
                    d[e] = v
                elif e in d:
                    del d[e]
        return self.ring._from_valid_dict(d)

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
        if not self.terms:
            return self
        c = self.terms[0][1]
        if c == 1:
            return self
        inv = self.ring.field.inv(c)
        return self * inv

    def evaluate(self, values: Sequence[int]) -> int:
        """Value at a point of F_p^nvars."""
        if len(values) != self.ring.nvars:
            raise ValueError("wrong number of coordinates")
        p = self.ring.p
        vals = [v % p for v in values]
        total = 0
        for e, c in self.terms:
            t = c
            for i, x in enumerate(e):
                if x:
                    t = (t * pow(vals[i], x, p)) % p
            total = (total + t) % p
        return total

    def map_to(self, ring: PolyRing, index_map: Sequence[int | None]) -> "Polynomial":
        """Reinterpret in `ring`; index_map[i] is the target slot of variable i
        (None requires exponent 0)."""
        d: dict[Mono, int] = {}
        n = ring.nvars
        for e, c in self.terms:
            out = [0] * n
            for i, x in enumerate(e):
                if not x:
                    continue
                j = index_map[i]
                if j is None:
                    raise ValueError(f"variable {self.ring.names[i]} has no image")
                out[j] += x
            key = tuple(out)
            d[key] = (d.get(key, 0) + c) % ring.p
        return ring._from_valid_dict(d)

    def __str__(self) -> str:
        if not self.terms:
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


@dataclass(frozen=True)
class Ideal:
    """Finite generator list over a ring descriptor."""

    ring: PolyRing
    gens: tuple

    def __post_init__(self) -> None:
        for g in self.gens:
            # generators nearly always share the ideal's ring object, and
            # identity is cheaper to test than PolyRing's structural ==
            if g.ring is not self.ring and g.ring != self.ring:
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

def _keyed(ring: PolyRing, terms) -> list:
    """(key, packed monomial, coefficient) of each term."""
    key, pack = ring.key, ring._pack
    return [(key(e), pack(e), c) for e, c in terms]


def _as_polynomial(ring: PolyRing, keyed) -> Polynomial:
    """The polynomial of keyed terms given by descending key."""
    unpack = ring._unpack
    return Polynomial(ring, tuple((unpack(m), c) for _, m, c in keyed))


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
    ring = f.ring
    # identity first, as in Ideal.__post_init__; separate eliminations build equal rings
    if any(g.ring is not ring and g.ring != ring for g in polys):
        raise ValueError("normal form needs a basis over the polynomial's ring")
    reducers = sorted((_reducer(ring, _keyed(ring, g.monic().terms)) for g in polys if not g.is_zero()),
                      key=itemgetter(0))
    if not reducers:
        return f
    return _as_polynomial(ring, _reduce(ring, *_pending(_keyed(ring, f.terms)), reducers))


# --- Buchberger ----------------------------------------------------------------

def _lcm(a: int, b: int, guard: int) -> int:
    """lcm of two packed monomials; guard holds the ring's guard bits."""
    # the guard bits of the fields where a's exponent is at least b's
    s = ((a | guard) - b) & guard
    return b ^ ((a ^ b) & (s - (s >> _FIELD - 1)))


def _lead_key(keyed) -> int:
    return keyed[0][0]


def _sorted_monic(ring: PolyRing, polys: Sequence[Polynomial]) -> list:
    """The distinct nonzero polys, made monic, as keyed terms by ascending
    lead; equal leads are taken in the order of their term tuples, so the
    first pass does not depend on the order of the input."""
    key = ring.key
    items = sorted({g.monic().terms for g in polys if not g.is_zero()},
                   key=lambda t: (key(t[0][0]), t))
    return [_keyed(ring, t) for t in items]


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


def _interreduce(ring: PolyRing, polys: Sequence[Polynomial]) -> list:
    """Monic keyed basis with every element fully reduced against the
    others, by ascending lead.

    _autoreduce is repeated until its leads come out in ascending order.
    Then each element has been reduced by every smaller lead, and no larger
    lead can divide any of its terms.  Each repeat lowers or drops a lead,
    so the loop ends.
    """
    basis = _autoreduce(ring, _sorted_monic(ring, polys))
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
    partial output is never returned.
    """
    ring = I.ring
    pool = _pool.get() or [DEFAULT_PAIR_BUDGET, 0]
    G = _interreduce(ring, I.gens)
    if not G:
        return Ideal(ring, ())
    if any(g[0][1] == 0 for g in G):
        return Ideal(ring, (ring.one,))

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
            return Ideal(ring, (ring.one,))
        G.append(r)
        lms.append(r[0][1])
        if by_sugar:
            ecart.append(max(sugar, max(deg(m) for _, m, _ in r)) - deg(r[0][1]))
        entries.append(_reducer(ring, r))
        # r is reduced by every lead in G, so its lead is new
        bisect.insort(reducers, entries[-1], key=itemgetter(0))
        push_pairs(len(G) - 1)

    # G is a Groebner basis, so one ascending-lead pass reduces it
    out = _autoreduce(ring, sorted(G, key=_lead_key))
    return Ideal(ring, tuple(_as_polynomial(ring, g) for g in reversed(out)))


# --- elimination-based operations ---------------------------------------------

def eliminate(I: Ideal, drop: Iterable[str]) -> Ideal:
    """Intersection of I with the subring that omits the `drop` variables.

    Returns the reduced Groebner basis of that intersection, as an ideal over
    the smaller ring carrying the induced order.  The block basis's elements
    free of the dropped variables are that basis under grevlex, so under
    any other induced order they are reduced once more.
    """
    ring = I.ring
    drop_set = frozenset(drop)
    unknown = drop_set - set(ring.names)
    if unknown:
        raise ValueError(f"cannot eliminate unknown variables {sorted(unknown)}")
    if not drop_set:
        return buchberger_reduced(I)
    elim_ring = PolyRing(ring.field, ring.names, MonomialOrder.block(drop_set))
    ident = list(range(ring.nvars))
    gens = [g.map_to(elim_ring, ident) for g in I.gens]
    G = buchberger_reduced(Ideal(elim_ring, tuple(gens)))
    drop_idx = {i for i, n in enumerate(ring.names) if n in drop_set}
    kept_names = tuple(n for n in ring.names if n not in drop_set)
    small = PolyRing(ring.field, kept_names, ring.order.restrict(kept_names))
    index_map: list[int | None] = []
    k = 0
    for i, n in enumerate(ring.names):
        if n in drop_set:
            index_map.append(None)
        else:
            index_map.append(k)
            k += 1
    out = Ideal(small, tuple(g.map_to(small, index_map) for g in G.gens if not (g.support() & drop_idx)))
    return out if small.order.kind == "grevlex" else buchberger_reduced(out)


def _extend_with_aux(I: Ideal, base: str = "t") -> tuple[Ideal, Polynomial, str]:
    ring = I.ring
    if ring.order.kind == "block":
        raise ValueError("auxiliary-variable constructions need lex or grevlex rings")
    t = ring.fresh_name(base)
    big = ring.extend((t,))
    ident = list(range(ring.nvars))
    gens = tuple(g.map_to(big, ident) for g in I.gens)
    return Ideal(big, gens), big.var(t), t


def ideal_intersect(I: Ideal, J: Ideal) -> Ideal:
    """I n J via t*I + (1-t)*J and elimination of t."""
    if I.ring != J.ring:
        raise ValueError("ideal intersection needs a common ring")
    ring = I.ring
    if I.is_zero_ideal() or J.is_zero_ideal():
        return Ideal(ring, ())
    big_I, t, tname = _extend_with_aux(I)
    ident = list(range(ring.nvars))
    gens = [t * g for g in big_I.gens]
    one_minus_t = big_I.ring.one - t
    for h in J.gens:
        gens.append(one_minus_t * h.map_to(big_I.ring, ident))
    return eliminate(Ideal(big_I.ring, tuple(gens)), {tname})


def radical_member(f: Polynomial, I: Ideal) -> bool:
    """Rabinowitsch test: f lies in the radical of I."""
    ring = I.ring
    if f.ring != ring:
        raise ValueError("radical membership needs a common ring")
    if f.is_zero():
        return True
    big_I, t, tname = _extend_with_aux(I)
    ident = list(range(ring.nvars))
    f_big = f.map_to(big_I.ring, ident)
    gens = big_I.gens + (big_I.ring.one - t * f_big,)
    G = buchberger_reduced(Ideal(big_I.ring, gens))
    return G.is_unit_ideal()


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
    G = buchberger_reduced(I)
    if G.is_unit_ideal():
        return -1
    n = I.ring.nvars
    if not G.gens:
        return n
    supports = [frozenset(i for i, e in enumerate(g.lm()) if e) for g in G.gens]
    for size in range(n, -1, -1):
        for S in itertools.combinations(range(n), size):
            sset = frozenset(S)
            if not any(supp <= sset for supp in supports):
                return size
    return -1
