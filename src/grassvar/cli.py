"""Command-line interface.

Subcommands operate on module files in JSON form

    {"p": 2, "c": 2, "dim": 4, "actions": [[[...]], [[...]]]}

with each action an n x n row-major matrix, and print ideals as text like
"ideal(a1*a2 + a2^2)" (the unit ideal is flagged as an empty variety).
rank-ideal and pair-ideal append a "projectively empty" line when the
variety is at most the origin; higher-ideal and project-gamma append the
projective dimension as "dim = n".  The oracle subcommand prints one row
per subspace (Pluecker point plus the geometric, homological, and
ideal-membership flags) and a final agreement line.

Polynomial arguments use integer coefficients, + - * ^ and parentheses;
chained ^ applies left to right.  Several generators may share one -z
argument separated by semicolons.

Exit status: 0 on success, 1 for input errors, 2 when a computation hits a
resource cap.  Every ValueError, the library's signal of invalid input, is
reported at one place, run_command, as an "error:" line.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ModuleAxiomError, ResourceLimitError
from .fp import PrimeField
from .grassmann import (
    enumerate_subspaces,
    higher_variety_ideal,
    oracle_membership,
    pluecker_embed,
    pluecker_ring,
    point_on_variety,
    project_incidence,
    subspace_from_rows,
    variety_dim_projective,
)
from .homology import betti_numbers, ext_dims
from .modules import KEModule, module_from_dict
from .poly import (
    DEFAULT_PAIR_BUDGET,
    Ideal,
    Polynomial,
    PolyRing,
    _basis_dimension,
    buchberger_reduced,
    groebner_budget,
    ideal,
)
from .rankvariety import (
    VarietyIdeal1,
    coordinate_ring,
    pair_variety_ideal,
    rank_variety_ideal,
)

MAX_PARSED_EXPONENT = 1024


class CliInputError(ValueError):
    """Bad user input found by the CLI itself: malformed files, unparsable
    arguments."""


# --- polynomial parsing -----------------------------------------------------------

_SYMBOLS = "+-*^()"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":  # str.isdigit also takes non-ASCII digits
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise CliInputError(f"unexpected character {ch!r} at position {i}")
    tokens.append(("end", "", len(text)))
    return tokens


def _int_value(tok: tuple[str, str, int]) -> int:
    try:
        return int(tok[1])
    except ValueError:  # past the interpreter's digit limit
        raise CliInputError(
            f"integer of {len(tok[1])} digits at position {tok[2]} is too long"
        ) from None


class _PolyParser:
    """Recursive descent over: expr = [+-] term ((+|-) term)*,
    term = power (* power)*, power = atom (^ int)*, atom = int | var | (expr)."""

    def __init__(self, ring: PolyRing, text: str) -> None:
        self.ring = ring
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.k]

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.k]
        if tok[0] != kind:
            raise CliInputError(
                f"expected {kind} at position {tok[2]}, found {tok[1] or 'end of input'!r}"
            )
        self.k += 1
        return tok

    def parse(self) -> Polynomial:
        f = self.expr()
        self.take("end")
        return f

    def expr(self) -> Polynomial:
        sign = 1
        if self.peek()[0] in "+-":
            if self.take(self.peek()[0])[0] == "-":
                sign = -1
        f = self.term() * sign
        while self.peek()[0] in "+-":
            op = self.take(self.peek()[0])[0]
            g = self.term()
            f = f + g if op == "+" else f - g
        return f

    def term(self) -> Polynomial:
        f = self.power()
        while self.peek()[0] == "*":
            self.take("*")
            f = f * self.power()
        return f

    def power(self) -> Polynomial:
        f = self.atom()
        while self.peek()[0] == "^":
            self.take("^")
            tok = self.take("int")
            # an exponent longer than the cap is over it: name its length,
            # not its digits, which may run to thousands
            if len(tok[1].lstrip("0")) > len(str(MAX_PARSED_EXPONENT)):
                raise CliInputError(
                    f"exponent of {len(tok[1])} digits at position {tok[2]} "
                    f"exceeds the cap {MAX_PARSED_EXPONENT}"
                )
            e = _int_value(tok)
            if e > MAX_PARSED_EXPONENT:
                raise CliInputError(
                    f"exponent {e} at position {tok[2]} exceeds the cap "
                    f"{MAX_PARSED_EXPONENT}"
                )
            f = f**e
        return f

    def atom(self) -> Polynomial:
        kind, text, pos = self.peek()
        if kind == "int":
            return self.ring.const(_int_value(self.take("int")))
        if kind == "name":
            self.take("name")
            try:
                return self.ring.var(text)
            except KeyError:
                raise CliInputError(
                    f"unknown variable {text!r} at position {pos}; "
                    f"expected one of {', '.join(self.ring.names)}"
                ) from None
        if kind == "(":
            self.take("(")
            f = self.expr()
            self.take(")")
            return f
        raise CliInputError(
            f"expected a number, variable or '(' at position {pos}, "
            f"found {text or 'end of input'!r}"
        )


def parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    return _PolyParser(ring, text).parse()


# --- shared helpers ---------------------------------------------------------------


def render_ideal(I: Ideal) -> str:
    text = str(I)
    if I.is_unit_ideal():
        return text + "  [empty variety]"
    return text


def _ideal_payload(I: Ideal) -> dict:
    return {
        "variables": list(I.ring.names),
        "generators": [str(g) for g in I.gens],
        "empty": I.is_unit_ideal(),
    }


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path} is not valid JSON: {exc}") from None


def _load_module(path: str) -> KEModule:
    data = _read_json(path)
    try:
        return module_from_dict(data)
    except ValueError as exc:
        raise CliInputError(f"{path}: {exc}") from None


def _parse_rows(text: str) -> list[list[int]]:
    try:
        rows = [
            [int(x) for x in row.split(",")] for row in text.split(";") if row.strip()
        ]
    except ValueError:
        raise CliInputError(
            f"bad subspace {text!r}: rows are ';'-separated, entries ','-separated "
            "integers"
        ) from None
    if not rows or len({len(r) for r in rows}) != 1:
        raise CliInputError(f"bad subspace {text!r}: rows must be nonempty and equal length")
    return rows


def _subspace_arg(field: PrimeField, text: str, c: int, d: int):
    rows = _parse_rows(text)
    if len(rows) != d or len(rows[0]) != c:
        raise CliInputError(
            f"subspace must have {d} rows of length {c}, got "
            f"{len(rows)} of length {len(rows[0])}"
        )
    return subspace_from_rows(field, rows)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


# --- subcommands ------------------------------------------------------------------


def _cmd_validate(args) -> int:
    data = _read_json(args.module)
    try:
        module_from_dict(data)
        problems = []
    except ModuleAxiomError as exc:  # only raised after every shape check
        problems = exc.problems
    except ValueError as exc:
        raise CliInputError(f"{args.module}: {exc}") from None
    p, c, n = data["p"], data["c"], data["dim"]
    text = "\n".join(f"problem: {line}" for line in problems) or f"ok: p={p} c={c} dim={n}"
    _emit(args, {"ok": not problems, "p": p, "c": c, "dim": n, "problems": problems}, text)
    return 1 if problems else 0


def _emit_cone_ideal(args, gb: Ideal) -> None:
    # the cone ideals here are homogeneous reduced bases, so affine
    # dimension 0 means the origin is the only point and the projective
    # variety is empty, as it is for the unit ideal, of dimension -1
    empty = _basis_dimension(gb) <= 0
    payload = _ideal_payload(gb)
    payload["projectively_empty"] = empty
    text = render_ideal(gb)
    if empty:
        text += "\nprojectively empty"
    _emit(args, payload, text)


def _cmd_rank_ideal(args) -> int:
    M = _load_module(args.module)
    V = rank_variety_ideal(M)
    _emit_cone_ideal(args, V.gb)
    return 0


def _cmd_pair_ideal(args) -> int:
    M = _load_module(args.module)
    N = _load_module(args.other)
    V = pair_variety_ideal(M, N)
    _emit_cone_ideal(args, V.gb)
    return 0


def _emit_projective_ideal(args, V) -> None:
    dim = variety_dim_projective(V)
    payload = _ideal_payload(V.gb)
    payload["dim"] = dim
    _emit(args, payload, render_ideal(V.gb) + f"\ndim = {dim}")


def _cmd_higher_ideal(args) -> int:
    M = _load_module(args.module)
    N = _load_module(args.other)
    V = higher_variety_ideal(M, N, args.dim)
    _emit_projective_ideal(args, V)
    return 0


def _cmd_project_gamma(args) -> int:
    _check_dims(args)
    ring = coordinate_ring(PrimeField(args.prime), args.c)
    gens = [
        parse_polynomial(ring, piece)
        for z in args.z or []
        for piece in z.split(";")
        if piece.strip()
    ]
    raw = ideal(ring, gens)
    gb = buchberger_reduced(raw)
    V = project_incidence(VarietyIdeal1(ring, raw, gb), args.dim)
    _emit_projective_ideal(args, V)
    return 0


def _cmd_betti(args) -> int:
    M = _load_module(args.module)
    bs = betti_numbers(M, args.bound)
    _emit(args, {"betti": bs}, " ".join(str(b) for b in bs))
    return 0


def _cmd_ext(args) -> int:
    M = _load_module(args.module)
    N = _load_module(args.other)
    table = ext_dims(M, N, args.bound)
    _emit(args, {"ext": list(table.dims)}, " ".join(str(d) for d in table.dims))
    return 0


def _cmd_oracle(args) -> int:
    M = _load_module(args.module)
    N = _load_module(args.other)
    if args.subspace is not None:
        targets = [_subspace_arg(M.field, args.subspace, M.c, args.dim)]
    else:
        targets = enumerate_subspaces(M.field, M.c, args.dim)
    pair = pair_variety_ideal(M, N)
    variety = higher_variety_ideal(M, N, args.dim)
    rows = []
    for W in targets:
        geometric, homological = oracle_membership(M, N, args.dim, W, pair_ideal=pair)
        member = point_on_variety(variety, pluecker_embed(W))
        rows.append((W, geometric, homological, member))

    def flag(v):
        return "yes" if v else "no"

    agree = all(g == h == m for _, g, h, m in rows)
    lines = [
        f"{str(pluecker_embed(W))}  geometric={flag(g)} homological={flag(h)} ideal={flag(m)}"
        for W, g, h, m in rows
    ]
    lines.append(f"agree: {flag(agree)}")
    payload = {
        "rows": [
            {
                "subspace": [list(r) for r in W.rows()],
                "pluecker": list(pluecker_embed(W).coords),
                "geometric": g,
                "homological": h,
                "ideal": m,
            }
            for W, g, h, m in rows
        ],
        "agree": agree,
    }
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_embed(args) -> int:
    _check_dims(args)
    field = PrimeField(args.prime)
    pt = pluecker_embed(_subspace_arg(field, args.rows, args.c, args.dim))
    names = pluecker_ring(field, args.c, args.dim).names
    payload = {"names": list(names), "coords": list(pt.coords)}
    _emit(args, payload, str(pt))
    return 0


def _check_dims(args) -> None:
    """Reject bad -c and -d values before anything is built from them."""
    if args.c < 1:
        raise CliInputError(f"need c >= 1, got c={args.c}")
    if not 1 <= args.dim <= args.c:
        raise CliInputError(f"need 1 <= d <= c, got d={args.dim}, c={args.c}")


# --- parser -----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliInputError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    common.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_PAIR_BUDGET,
        help="Groebner S-pair reductions allowed for the whole command "
        f"(default {DEFAULT_PAIR_BUDGET})",
    )

    parser = _Parser(prog="grassvar", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, parents=(common,)):
        p = sub.add_parser(name, parents=list(parents), help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("validate", _cmd_validate, "check a module file")
    p.add_argument("module")

    p = add("rank-ideal", _cmd_rank_ideal, "ideal of the rank variety of a module")
    p.add_argument("module")

    p = add("pair-ideal", _cmd_pair_ideal, "ideal of the rank variety of a pair")
    p.add_argument("module")
    p.add_argument("other")

    p = add(
        "higher-ideal",
        _cmd_higher_ideal,
        "ideal of the dimension-d support variety of a pair, in Pluecker coordinates",
    )
    p.add_argument("module")
    p.add_argument("other")
    p.add_argument("-d", "--dim", type=int, required=True, help="subspace dimension")

    p = add(
        "project-gamma",
        _cmd_project_gamma,
        "project an explicit cone ideal in a1..ac to Pluecker coordinates",
    )
    p.add_argument("-p", "--prime", type=int, default=2, help="field characteristic")
    p.add_argument("-c", type=int, required=True, help="ambient dimension")
    p.add_argument("-d", "--dim", type=int, required=True, help="subspace dimension")
    p.add_argument(
        "-z",
        action="append",
        metavar="POLYS",
        help="cone equations in a1..ac, ';'-separated (repeatable; none means "
        "the full space)",
    )

    p = add("betti", _cmd_betti, "Betti numbers of a minimal free resolution")
    p.add_argument("module")
    p.add_argument("-n", "--bound", type=int, required=True, help="top degree")

    p = add("ext", _cmd_ext, "dimensions of Ext^i(M, N) for i = 0..n")
    p.add_argument("module")
    p.add_argument("other")
    p.add_argument("-n", "--bound", type=int, required=True, help="top degree")

    p = add(
        "oracle",
        _cmd_oracle,
        "membership table: geometric, homological, and ideal routes per subspace",
    )
    p.add_argument("module")
    p.add_argument("other")
    p.add_argument("-d", "--dim", type=int, required=True, help="subspace dimension")
    p.add_argument(
        "-q",
        "--subspace",
        default=None,
        help="basis rows, ';'-separated rows of ','-separated entries "
        "(default: sweep every subspace)",
    )

    p = add("embed", _cmd_embed, "Pluecker point of a subspace")
    p.add_argument("-p", "--prime", type=int, default=2, help="field characteristic")
    p.add_argument("-c", type=int, required=True, help="ambient dimension")
    p.add_argument("-d", "--dim", type=int, required=True, help="subspace dimension")
    p.add_argument(
        "rows",
        help="basis rows, ';'-separated rows of ','-separated entries",
    )

    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.budget < 0:
            raise CliInputError(f"need --budget >= 0, got {args.budget}")
        with groebner_budget(args.budget):
            return args.func(args)
    except ValueError as exc:  # a CliInputError, or invalid input found by the library
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
