"""Reader and writer for the `.lops` system-spec text format.

One declaration per line; `#` starts a comment.  Statements:

    unknown <name> multiplicity <k> index <m>
    equation <name> multiplicity <k> index <n>
    param <name> [constraint: positive | nonzero]
    assign <name> := <rational>
    entry <eq>[i] <unk>[j] := <polynomial>
    depends <eq> on <unk> order <d>
    prefactor := <polynomial in parameters>
    factor <multiplicity> := <polynomial>

Polynomial expressions use `+ - * ^` with parentheses; coefficients are
exact rationals written `a` or `a/b`.  A number `a/b` is read whole before
an exponent, so `a/b^k` is `(a/b)^k`: `3/2^2` is 9/4.  A unary minus
negates the whole factor after it, `^k` included.  A sum is read by
character position: a plain term (an optional unary minus, `a` or `a/b`,
and a `*`-run of atoms, each with an optional `^k`) is one pattern match,
its monomial the sum of its factors' packed monomials, memoized per parse
by their text.  Any other term is read by a recursive descent from the same
position, as a product of Polys, so every fault keeps its message and
column.  An exponent is at most MAX_DEGREE, a number has at most MAX_DIGITS
digits, a power of a number at most MAX_POWER_BITS bits, a power of a
parenthesized sum at most MAX_POWER_SIZE coefficient bits (estimated before
expanding), and parentheses nest at most MAX_NESTING deep.  The covector
atoms are spelled `xi0..xi3`; every other atom must have been
declared with `param`.  Any trailing text after a complete statement is an
error, and so is a spec with no unknown or no equation block (reported at
the end of the input), one whose equation and unknown totals differ, an
entry index beyond its block's multiplicity, a claimed factor that is zero,
free of xi or not xi-homogeneous, a factor multiplicity below 1, or a
prefactor with no factor.  The unknown blocks, and the equation blocks,
total at most MAX_ROWS rows, and a claimed factor's multiplicity times its
xi-degree is at most MAX_DEGREE, the highest degree a determinant can have.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .poly import MAX_DEGREE, XI, DegreeOverflowError, Poly, pack, slot
from .system import (DependencyDecl, EquationBlock, FactorClaim, LeraySystem,
                     ParamDecl, SymbolEntry, UnknownBlock)

# one token after any whitespace; any other character no token starts with is
# a token of its own, refused as unexpected
_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                       r"|(?P<op>:=|[-+*^()\[\]:/])|(?P<bad>\S))")
# the tokens of `<eq>[i] <unk>[j] :=` after `entry`
_ENTRY_HEAD = (("name",), ("op", "["), ("num",), ("op", "]"),
               ("name",), ("op", "["), ("num",), ("op", "]"), ("op", ":="))


# the deepest parenthesis nesting read: each level takes three frames of the
# recursive descent, so this stays well inside the interpreter's recursion limit
MAX_NESTING = 100
# the longest number read: int() may be configured to refuse any longer
# decimal string (sys.set_int_max_str_digits takes no limit below 640)
MAX_DIGITS = 640
# the largest bit length of a number's power: 2^MAX_DEGREE fits, and so does
# any power a real spec writes, while no power takes long to compute
MAX_POWER_BITS = 2 * MAX_DEGREE + 2
# the most coefficient bits a power of a parenthesized sum may expand to,
# estimated before expanding: a base of t terms whose widest coefficient has
# `bits` bits, to the power k, has at most C(k + t - 1, t - 1) terms of about
# k * (bits + log2 t) bits.  Powers at the bound, such as (xi0+xi1+xi2+xi3)^33,
# (xi0+xi1+xi2)^86 or (xi0+xi1)^576, each expand in under 0.3 s (2-vCPU Xeon)
MAX_POWER_SIZE = 1_000_000
# the most rows the unknown blocks, or the equation blocks, may total: the
# symbol matrix is n x n, so its grid alone grows as n^2.  An all-zero spec of
# 2,000 rows analyzes in 0.54 s and 48 MB in a fresh process (2-vCPU Xeon;
# 4,000 rows take 2.1 s and 140 MB); the largest shipped, sweep or digest
# spec has 25 rows
MAX_ROWS = 2_000

# a plain term at the cursor: an optional unary minus, an optional `a` or
# `a/b` and a `*`-run of atoms, each with an optional `^k` of at most five
# digits, then the next term's sign, a `)` or the end; compiled when a parser
# is first made, so that a process that parses no sum does not compile it
_FACTOR = r"[A-Za-z_][A-Za-z0-9_]*(?:\s*\^\s*\d{1,5})?"
_PLAIN = (r"\s*(-?)\s*(?:(\d{1,%d})(?:\s*/\s*(\d{1,%d}))?"
          r"(?:\s*\*\s*(?=[A-Za-z_])|(?=\s*[-+)]|\s*\Z)))?(%s(?:\s*\*\s*%s)*)?"
          r"\s*(?:([-+])|(?=\))|\Z)" % (MAX_DIGITS, MAX_DIGITS, _FACTOR, _FACTOR))
# a factor's memo value is its packed monomial shifted past a low counter of
# its exponent, wide enough that no line's exponents carry out of it
_COUNT_BITS = 64
_COUNT = (1 << _COUNT_BITS) - 1


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


class DuplicateEntryError(ParseError):
    pass


class UnknownAtomError(ParseError):
    pass


class _Line:
    """One line, read token by token from the character position `pos`."""

    def __init__(self, text: str, line_no: int):
        self.text = text
        self.line_no = line_no
        self.pos = self.end = 0
        self.at = -1  # where `tok`, the last token matched, starts

    def peek(self) -> Tuple[str, str, int]:
        """The kind, text and column of the token at `pos`, with `end` set
        past it; past the last token, ("end", "", the column after the line).
        An unexpected character or an overlong number is refused here."""
        if self.pos == self.at:
            return self.tok
        mo = _TOKEN_RE.match(self.text, self.pos)
        if mo is None:
            return "end", "", len(self.text) + 1
        kind = mo.lastgroup
        t, col = mo[kind], mo.start(kind) + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {t!r}", self.line_no, col)
        if kind == "num" and len(t) > MAX_DIGITS:
            raise ParseError(f"number of {len(t)} digits, more than {MAX_DIGITS}",
                             self.line_no, col)
        self.at, self.end, self.tok = self.pos, mo.end(), (kind, t, col)
        return self.tok

    def expect(self, kind: str, value: Optional[str] = None) -> Tuple[str, str, int]:
        """The token at `pos`, which must be of `kind`, and `value` if one is
        given; `pos` moves past it."""
        k, t, col = self.peek()
        if k == "end":
            raise ParseError("unexpected end of line", self.line_no, col)
        if k != kind or value not in (None, t):
            raise ParseError(f"expected {value or kind!r}, found {t!r}", self.line_no, col)
        self.pos = self.end
        return k, t, col

    def number(self) -> Tuple[int, int]:
        """The a and b of a number `a` or `a/b` at `pos`, which moves past it."""
        n = int(self.expect("num")[1])
        if self.peek()[1] != "/":
            return n, 1
        self.pos = self.end
        _, d, col = self.expect("num")
        if not int(d):
            raise ParseError("zero denominator", self.line_no, col)
        return n, int(d)

    def done(self):
        kind, t, col = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {t!r}", self.line_no, col)

    def __enter__(self) -> "_Line":
        return self

    def __exit__(self, kind, err, tb):
        # the line's first unexpected character or overlong number goes before
        # any other fault on it: peek raises it as the line is read again
        self.pos = 0
        while isinstance(err, ParseError) and self.peek()[0] != "end":
            self.pos = self.end


class _FactorMemo(dict):
    """The memo values (see _COUNT_BITS) of a parse's plain factors, keyed by
    their text (`xi0^2`, `inv_thr`).  An undeclared atom or an exponent past
    MAX_DEGREE counts past MAX_DEGREE, so its term goes to the descent."""

    def __init__(self, atoms: Set[str]):
        super().__init__()
        self.atoms = atoms

    def __missing__(self, key: str) -> int:
        atom, _, k = key.partition("^")
        atom, k = atom.strip(), int(k) if k else 1
        v = ((pack([(atom, k)]) << _COUNT_BITS) + k if atom in self.atoms and k <= MAX_DEGREE
             else MAX_DEGREE + 1)
        self[key] = v
        return v


class _PolyParser:
    """Reader of polynomial expressions: a plain term is one match of
    _PLAIN, and everything else goes to the recursive descent at the same
    position."""

    def __init__(self, atoms: Set[str]):
        self.atoms = atoms
        self.memo = _FactorMemo(atoms)
        self.plain = re.compile(_PLAIN).match
        self.depth = 0  # parentheses open around the current token

    def parse(self, line: _Line) -> Poly:
        self.line = line
        start = line.pos
        try:
            return self.expr()
        except DegreeOverflowError as err:
            line.pos = start
            raise ParseError(str(err), line.line_no, line.peek()[2]) from None

    def expr(self) -> Poly:
        """A sum, read in one pass as the module docstring says."""
        line, get = self.line, self.memo.__getitem__
        acc, run, sign = Poly.zero(), [], 1
        while True:
            mo = self.plain(line.text, line.pos)
            if mo and (mo[2] or mo[4]):  # not an empty match before a sign, `)` or the end
                v = sum(map(get, mo[4].split("*"))) if mo[4] else 0
                den = int(mo[3]) if mo[3] else 1
                if v & _COUNT <= MAX_DEGREE and den:
                    num = int(mo[2]) if mo[2] else 1
                    run.append((-sign * num if mo[1] else sign * num, den, v >> _COUNT_BITS))
                    line.pos = mo.end()
                    if not mo[5]:
                        return acc + Poly.from_packed(run)
                    sign = 1 if mo[5] == "+" else -1
                    continue
            acc, run = acc + Poly.from_packed(run) + self.term(sign), []
            t = line.peek()[1]
            if t != "+" and t != "-":
                return acc
            sign = 1 if t == "+" else -1
            line.pos = line.end

    def term(self, sign: int) -> Poly:
        """A product of factors times `sign`, multiplied factor by factor, so
        a DegreeOverflowError names the running degree.  A unary minus negates
        the factor after it, ^k included: 2*-xi1^2 is -2*xi1^2."""
        line, acc = self.line, None
        while True:
            kind, t, col = line.peek()
            if t == "-":
                sign, line.pos = -sign, line.end
                continue
            if kind == "num":
                n, d = line.number()
                k = self.exponent(max(n.bit_length(), d.bit_length()))
                factor = Poly.constant(Fraction(n ** k, d ** k))
            elif kind == "name":
                if t not in self.atoms:
                    raise UnknownAtomError(f"undeclared atom {t!r}", line.line_no, col)
                line.pos = line.end
                factor = Poly.atom(t) ** self.exponent()
            else:
                factor = self.power()
            acc = factor if acc is None else acc * factor
            if line.peek()[1] != "*":
                return acc if sign == 1 else -acc
            line.pos = line.end

    def exponent(self, bits: int = 0) -> int:
        """The k of a `^k` at `pos`, 1 if there is none.  No base may be
        raised past MAX_DEGREE: a constant would be a huge integer and a
        polynomial would overflow its degree.  A number whose numerator or
        denominator has `bits` bits may be raised only while k * bits stays
        within MAX_POWER_BITS."""
        line = self.line
        if line.peek()[1] != "^":
            return 1
        line.pos = line.end
        _, k, col = line.expect("num")
        k = int(k)
        if k > MAX_DEGREE:
            raise ParseError(f"exponent {k} exceeds the supported maximum degree "
                             f"{MAX_DEGREE}", line.line_no, col)
        if k * bits > MAX_POWER_BITS:
            raise ParseError(f"a number of {bits} bits to the power {k} would have "
                             f"about {k * bits} bits, more than {MAX_POWER_BITS}",
                             line.line_no, col)
        return k

    def power(self) -> Poly:
        """A parenthesized sum with an optional ^k."""
        line = self.line
        kind, t, col = line.peek()
        # term leaves only an operator or the end of the line to this point
        if kind != "end" and t != "(":
            raise ParseError(f"expected a term, found {t!r}", line.line_no, col)
        line.expect("op", "(")
        if self.depth == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", line.line_no, col)
        self.depth += 1
        base = self.expr()
        line.expect("op", ")")
        self.depth -= 1
        bits = base.coefficient_bits()
        k = self.exponent(bits if base.is_constant() else 0)
        t = len(base)
        # past MAX_DEGREE, ** raises the DegreeOverflowError that parse reports;
        # line.tok is the exponent just read
        if (t and k > 1 and base.degree() * k <= MAX_DEGREE
                and comb(k + t - 1, t - 1) * k * (bits + t.bit_length()) > MAX_POWER_SIZE):
            raise ParseError(f"a {t}-term base to the power {k} could expand to more "
                             f"than {MAX_POWER_SIZE} coefficient bits", line.line_no, line.tok[2])
        return base if k == 1 else base ** k


def _parse_rational(line: _Line) -> Fraction:
    neg = line.peek()[1] == "-"
    if neg:
        line.pos = line.end
    num, den = line.number()
    return Fraction(-num if neg else num, den)


def parse_system(text: str) -> LeraySystem:
    """Parse a complete system spec; raises ParseError with line/column."""
    unknowns: List[UnknownBlock] = []
    equations: List[EquationBlock] = []
    entries: List[SymbolEntry] = []
    deps: List[DependencyDecl] = []
    params: List[ParamDecl] = []
    assigns: Dict[str, Fraction] = {}
    factors: List[Tuple[Poly, int]] = []
    prefactor: Optional[Poly] = None
    prefactor_at = last_block_at = None  # (line, column) of the statement

    atoms = set(XI)  # the declared atoms
    reader = _PolyParser(atoms)
    entry_keys = set()
    # (statement, equation token, unknown token, index tokens, line) of every
    # reference to a block, checked once all blocks are declared
    block_refs: List[tuple] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        with _Line(line, line_no) as toks:
            head = toks.expect("name")

            if head[1] == "unknown" or head[1] == "equation":
                name = toks.expect("name")[1]
                toks.expect("name", "multiplicity")
                mult_tok = toks.expect("num")
                toks.expect("name", "index")
                idx = int(toks.expect("num")[1])
                toks.done()
                last_block_at = (line_no, head[2])
                blocks, block = ((unknowns, UnknownBlock) if head[1] == "unknown"
                                 else (equations, EquationBlock))
                if any(b.name == name for b in blocks):
                    raise ParseError(f"duplicate {head[1]} block {name!r}", line_no, head[2])
                mult = int(mult_tok[1])
                rows = mult + sum(b.multiplicity for b in blocks)
                if rows > MAX_ROWS:
                    raise ParseError(f"{head[1]} blocks total {rows} rows, more than {MAX_ROWS}",
                                     line_no, mult_tok[2])
                blocks.append(block(name, mult, idx))

            elif head[1] == "param":
                name = toks.expect("name")[1]
                if name in atoms:
                    raise ParseError(f"atom {name!r} already declared", line_no, head[2])
                constraint = None
                if toks.peek()[0] != "end":
                    toks.expect("name", "constraint")
                    toks.expect("op", ":")
                    c = toks.expect("name")
                    if c[1] not in ("positive", "nonzero"):
                        raise ParseError("constraint must be positive or nonzero", line_no, c[2])
                    constraint = c[1]
                toks.done()
                atoms.add(name)
                slot(name)  # packed in declaration order; see lops.poly
                params.append(ParamDecl(name, constraint))

            elif head[1] == "assign":
                name = toks.expect("name")
                if name[1] not in atoms or name[1] in XI:
                    raise UnknownAtomError(f"undeclared parameter {name[1]!r}", line_no, name[2])
                toks.expect("op", ":=")
                assigns[name[1]] = _parse_rational(toks)
                toks.done()

            elif head[1] == "entry":
                eq_tok, _, eq_idx_tok, _, unk_tok, _, unk_idx_tok, _, _ = (
                    toks.expect(*want) for want in _ENTRY_HEAD)
                eq_name, eq_idx = eq_tok[1], int(eq_idx_tok[1])
                unk_name, unk_idx = unk_tok[1], int(unk_idx_tok[1])
                symbol = reader.parse(toks)
                toks.done()
                key = (eq_name, eq_idx, unk_name, unk_idx)
                if key in entry_keys:
                    raise DuplicateEntryError(
                        f"duplicate entry {eq_name}[{eq_idx}] {unk_name}[{unk_idx}]",
                        line_no, head[2])
                entry_keys.add(key)
                block_refs.append(("entry", eq_tok, unk_tok, (eq_idx_tok, unk_idx_tok), line_no))
                if not symbol.is_zero():
                    entries.append(SymbolEntry(eq_name, eq_idx, unk_name, unk_idx, symbol))

            elif head[1] == "depends":
                eq_tok = toks.expect("name")
                toks.expect("name", "on")
                unk_tok = toks.expect("name")
                toks.expect("name", "order")
                order = int(toks.expect("num")[1])
                toks.done()
                block_refs.append(("dependency", eq_tok, unk_tok, (), line_no))
                deps.append(DependencyDecl(eq_tok[1], unk_tok[1], order))

            elif head[1] == "factor":
                mult_tok = toks.expect("num")
                mult = int(mult_tok[1])
                if mult < 1:
                    raise ParseError("factor multiplicity must be at least 1", line_no,
                                     mult_tok[2])
                toks.expect("op", ":=")
                start = toks.peek()[2]
                p = reader.parse(toks)
                toks.done()
                # each claimed factor is tested for hyperbolicity in xi0..xi3
                d = p.homogeneous_degree_in(XI)
                problem = ("is zero" if p.is_zero()
                           else "is not homogeneous in xi0..xi3" if d is None
                           else "does not involve xi0..xi3" if d == 0 else None)
                if problem is not None:
                    raise ParseError(f"claimed factor {len(factors) + 1} ({p.render()}) {problem}",
                                     line_no, start)
                if mult * d > MAX_DEGREE:  # no determinant's degree is past it (lops.poly)
                    raise ParseError(f"factor multiplicity {mult} times degree {d} exceeds the "
                                     f"supported maximum degree {MAX_DEGREE}", line_no, mult_tok[2])
                factors.append((p, mult))

            elif head[1] == "prefactor":
                toks.expect("op", ":=")
                prefactor = reader.parse(toks)
                toks.done()
                prefactor_at = (line_no, head[2])

            else:
                raise ParseError(f"unknown statement {head[1]!r}", line_no, head[2])

    eq_mult = {b.name: b.multiplicity for b in equations}
    unk_mult = {b.name: b.multiplicity for b in unknowns}
    for what, (_, eq, eq_col), (_, unk, unk_col), indices, line_no in block_refs:
        if what == "dependency":
            if eq not in eq_mult or unk not in unk_mult:
                raise ParseError(f"dependency references undeclared block {eq!r}/{unk!r}",
                                 line_no, eq_col if eq not in eq_mult else unk_col)
            continue
        if eq not in eq_mult:
            raise ParseError(f"entry references undeclared equation {eq!r}", line_no, eq_col)
        if unk not in unk_mult:
            raise ParseError(f"entry references undeclared unknown {unk!r}", line_no, unk_col)
        for (_, index, col), block, mult in zip(indices, (eq, unk), (eq_mult[eq], unk_mult[unk])):
            if int(index) >= mult:
                raise ParseError(f"index {index} out of range for block {block!r} of "
                                 f"multiplicity {mult}", line_no, col)
    for kind, blocks in (("unknown", unknowns), ("equation", equations)):
        if not blocks:
            raise ParseError(f"no {kind} block: a system needs at least one unknown "
                             "and one equation block", len(text.splitlines()) + 1, 1)
    n_eq, n_unk = sum(eq_mult.values()), sum(unk_mult.values())
    if n_eq != n_unk:
        raise ParseError(f"system is not square: equations total {n_eq}, unknowns total {n_unk}",
                         *last_block_at)
    if prefactor is not None and not factors:
        raise ParseError("prefactor without a factor line: the claim has no factors",
                         *prefactor_at)

    claim = FactorClaim(prefactor if prefactor is not None else Poly.one(),
                        tuple(factors)) if factors else None

    return LeraySystem(unknowns, equations, entries, deps, params, assigns, claim)


def print_system(s: LeraySystem) -> str:
    """Serialize a system; parse_system(print_system(s)) is structurally equal."""
    out: List[str] = []
    for b in s.unknowns:
        out.append(f"unknown {b.name} multiplicity {b.multiplicity} index {b.m}")
    for b in s.equations:
        out.append(f"equation {b.name} multiplicity {b.multiplicity} index {b.n}")
    for p in s.params:
        suffix = f" constraint: {p.constraint}" if p.constraint else ""
        out.append(f"param {p.name}{suffix}")
    for name, val in s.assigns.items():
        out.append(f"assign {name} := {val}")
    for e in s.entries:
        out.append(f"entry {e.eq_block}[{e.eq_index}] {e.unk_block}[{e.unk_index}] := {e.symbol.render()}")
    for d in s.deps:
        out.append(f"depends {d.eq_block} on {d.unk_block} order {d.order}")
    if s.factor_claim is not None:
        out.append(f"prefactor := {s.factor_claim.prefactor.render()}")
        for p, mult in s.factor_claim.factors:
            out.append(f"factor {mult} := {p.render()}")
    return "\n".join(out) + "\n"


def parse_poly(text: str, params: Iterable[str]) -> Poly:
    """Parse a standalone polynomial expression in xi0..xi3 and the named
    parameter atoms."""
    with _Line(text, 1) as line:
        p = _PolyParser({*XI, *params}).parse(line)
        line.done()
    return p
