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
negates the whole factor after it, `^k` included.  A sum is read in one
pass: a term of numbers and atoms, each with an optional `^k`, stays a
numerator, a denominator and a list of atom powers, and `Poly.from_monomials`
packs a run of such terms into one Poly at once; only a parenthesized factor
is multiplied, and added, as a Poly.  An exponent is at most MAX_DEGREE, a
number has at most MAX_DIGITS digits, a power of a number at most
MAX_POWER_BITS bits, a power of a parenthesized sum at most MAX_POWER_SIZE
coefficient bits (estimated before expanding), and parentheses nest at most
MAX_NESTING deep.  The
covector atoms are spelled `xi0..xi3`; every other atom must have been
declared with `param`.  Any trailing text after a complete statement is an
error, and so is a spec with no unknown or no equation block (reported at
the end of the input), one whose equation and unknown totals differ, an
entry index beyond its block's multiplicity, a claimed factor that is zero,
free of xi or not xi-homogeneous, a factor multiplicity below 1, or a
prefactor with no factor.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from typing import Dict, List, Optional, Tuple

from .poly import MAX_DEGREE, XI, Atom, DegreeOverflowError, Poly, param, slot, xi
from .system import (DependencyDecl, EquationBlock, FactorClaim, LeraySystem,
                     ParamDecl, SymbolEntry, UnknownBlock)

XI_NAMES = {a.name: a for a in XI}

# whitespace separates tokens; any other character no token starts with is a
# token of its own, refused as unexpected
_TOKEN_RE = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_]*|:=|[-+*^()\[\]:/]|\S")
_OPS = frozenset([":=", "-", "+", "*", "^", "(", ")", "[", "]", ":", "/"])
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
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

# a character no token starts with (an = not after a :), or a digit run too
# long to be a number
_SUSPECT_RE = re.compile(r"[^\s\dA-Za-z_\-+*^()\[\]:/=]|(?<!:)=|\d{%d}" % (MAX_DIGITS + 1))


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


class DuplicateEntryError(ParseError):
    pass


class UnknownAtomError(ParseError):
    pass


def _kind(t: str) -> str:
    return ("op" if t in _OPS else "num" if t.isdecimal()
            else "name" if t[0] in _NAME_START else "bad")


class _Tokens:
    """The tokens of one line as strings, read by index from `i`.  A
    token's column is found only when a message or a statement needs it."""

    def __init__(self, text: str, line_no: int):
        self.text = text
        self.line_no = line_no
        self.toks: List[str] = _TOKEN_RE.findall(text)
        self.i = 0
        self._starts: List[int] = []
        self._matches = _TOKEN_RE.finditer(text)
        if _SUSPECT_RE.search(text):
            for i, t in enumerate(self.toks):
                if _kind(t) == "bad":
                    raise ParseError(f"unexpected character {t!r}", line_no, self.col(i))
                if len(t) > MAX_DIGITS and t.isdecimal():
                    raise ParseError(f"number of {len(t)} digits, more than {MAX_DIGITS}",
                                     line_no, self.col(i))

    def col(self, i: int) -> int:
        """The column of token i; past the last token, that of the line's end."""
        if i >= len(self.toks):
            return len(self.text) + 1
        starts = self._starts
        while len(starts) <= i:
            starts.append(next(self._matches).start() + 1)
        return starts[i]

    def check(self, i: int, kind: str, value: Optional[str] = None) -> str:
        """Token i, which must be of `kind`, and `value` if one is given."""
        if i >= len(self.toks):
            raise ParseError("unexpected end of line", self.line_no, self.col(i))
        t = self.toks[i]
        if _kind(t) != kind or value not in (None, t):
            raise ParseError(f"expected {value or kind!r}, found {t!r}", self.line_no, self.col(i))
        return t

    def number(self, i: int) -> Tuple[int, int, int]:
        """The a and b of a number `a` or `a/b` at token i, and the index after it."""
        n = int(self.check(i, "num"))
        if i + 1 < len(self.toks) and self.toks[i + 1] == "/":
            d = int(self.check(i + 2, "num"))
            if not d:
                raise ParseError("zero denominator", self.line_no, self.col(i + 2))
            return n, d, i + 3
        return n, 1, i + 1

    def expect(self, kind: str, value: Optional[str] = None) -> Tuple[str, str, int]:
        i = self.i
        self.i += 1
        return kind, self.check(i, kind, value), self.col(i)

    def done(self):
        if self.i < len(self.toks):
            raise ParseError(f"trailing input {self.toks[self.i]!r}", self.line_no,
                             self.col(self.i))


class _PolyParser:
    """Recursive-descent parser for polynomial expressions."""

    def __init__(self, toks: _Tokens, atoms: Dict[str, Atom]):
        self.toks = toks
        self.atoms = atoms
        self.depth = 0  # parentheses open around the current token

    def parse(self) -> Poly:
        start = self.toks.i
        try:
            return self.expr()
        except DegreeOverflowError as err:
            raise ParseError(str(err), self.toks.line_no, self.toks.col(start)) from None

    def expr(self) -> Poly:
        """A sum, read in one pass as the module docstring says."""
        toks, t = self.toks, self.toks.toks
        acc, run, sign = Poly.zero(), [], 1
        while True:
            term = self.term(sign)
            if type(term) is tuple:
                run.append(term)
            else:
                acc, run = acc + Poly.from_monomials(run) + term, []
            i = toks.i
            if i < len(t) and (t[i] == "+" or t[i] == "-"):
                sign = 1 if t[i] == "+" else -1
                toks.i = i + 1
            else:
                return acc + Poly.from_monomials(run)

    def term(self, sign: int):
        """A product of powers, times `sign`.  A run of plain factors (a
        number or a/b, an atom, either with an optional ^k) folds into one
        numerator, denominator and list of atom powers; a term of nothing
        else comes back as that (num, den, powers) triple.  Any other factor
        is a Poly product, and so is an atom power that would lift the total
        degree past MAX_DEGREE, which then raises the DegreeOverflowError of
        a factor-by-factor product.  A unary minus before a factor negates
        the run, so the whole factor, ^k included: 2*-xi1^2 is -2*xi1^2."""
        toks, t, atoms = self.toks, self.toks.toks, self.atoms
        end = len(t)
        acc = None                               # the factors before the run
        num, den, powers, deg = sign, 1, [], 0   # the run
        i = toks.i
        while True:
            s = t[i] if i < end else ""
            factor = None
            if s.isdecimal():
                n, d, i = toks.number(i)
                if i < end and t[i] == "^":
                    k = self.exponent(i + 1, max(n.bit_length(), d.bit_length()))
                    n, d = n ** k, d ** k
                    i += 2
                num *= n
                den *= d
            elif s in atoms:
                a, k = atoms[s], 1
                i += 1
                if i < end and t[i] == "^":
                    k = self.exponent(i + 1)
                    i += 2
                before = deg + (max(acc.degree(), 0) if acc is not None else 0)
                if before + k <= MAX_DEGREE:
                    powers.append((a, k))
                    deg += k
                else:
                    factor = Poly.atom(a) ** k
            elif s == "-":
                num = -num
                i += 1
                continue
            elif s and _kind(s) == "name":
                raise UnknownAtomError(f"undeclared atom {s!r}", toks.line_no, toks.col(i))
            else:
                toks.i = i
                factor = self.power()
                i = toks.i
            if factor is not None:
                if num != den or powers:
                    mono = Poly.from_monomials([(num, den, powers)])
                    acc = mono if acc is None else acc * mono
                    num, den, powers, deg = 1, 1, [], 0
                acc = factor if acc is None else acc * factor
            if i < end and t[i] == "*":
                i += 1
            else:
                toks.i = i
                if acc is not None and (num != den or powers):
                    acc = acc * Poly.from_monomials([(num, den, powers)])
                return (num, den, powers) if acc is None else acc

    def exponent(self, i: int, bits: int = 0) -> int:
        """The k of a `^k` whose number is token i.  No base may be raised
        past MAX_DEGREE: a constant would be a huge integer and a
        polynomial would overflow its degree.  A number whose numerator or
        denominator has `bits` bits may be raised only while k * bits stays
        within MAX_POWER_BITS."""
        toks = self.toks
        k = int(toks.check(i, "num"))
        if k > MAX_DEGREE:
            raise ParseError(f"exponent {k} exceeds the supported maximum degree "
                             f"{MAX_DEGREE}", toks.line_no, toks.col(i))
        if k * bits > MAX_POWER_BITS:
            raise ParseError(f"a number of {bits} bits to the power {k} would have "
                             f"about {k * bits} bits, more than {MAX_POWER_BITS}",
                             toks.line_no, toks.col(i))
        return k

    def power(self) -> Poly:
        """A parenthesized sum with an optional ^k."""
        toks = self.toks
        i = toks.i
        # term leaves only an operator or the end of the line to this point
        if toks.check(i, "op") != "(":
            raise ParseError(f"expected a term, found {toks.toks[i]!r}", toks.line_no,
                             toks.col(i))
        if self.depth == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}",
                             toks.line_no, toks.col(i))
        self.depth += 1
        toks.i = i + 1
        base = self.expr()
        toks.check(toks.i, "op", ")")
        self.depth -= 1
        i = toks.i = toks.i + 1
        if i < len(toks.toks) and toks.toks[i] == "^":
            bits = base.coefficient_bits()
            k = self.exponent(i + 1, bits if base.is_constant() else 0)
            t = len(base)
            # past MAX_DEGREE, ** raises the DegreeOverflowError that parse reports
            if (t and k > 1 and base.degree() * k <= MAX_DEGREE
                    and comb(k + t - 1, t - 1) * k * (bits + t.bit_length()) > MAX_POWER_SIZE):
                raise ParseError(f"a {t}-term base to the power {k} could expand to more "
                                 f"than {MAX_POWER_SIZE} coefficient bits", toks.line_no,
                                 toks.col(i + 1))
            toks.i = i + 2
            return base ** k
        return base


def _parse_rational(toks: _Tokens) -> Fraction:
    neg = toks.toks[toks.i:toks.i + 1] == ["-"]
    num, den, toks.i = toks.number(toks.i + neg)
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

    atoms: Dict[str, Atom] = dict(XI_NAMES)
    entry_keys = set()
    # (statement, equation token, unknown token, index tokens, line) of every
    # reference to a block, checked once all blocks are declared
    block_refs: List[tuple] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        toks = _Tokens(line, line_no)
        head = toks.expect("name")

        if head[1] == "unknown" or head[1] == "equation":
            name = toks.expect("name")[1]
            toks.expect("name", "multiplicity")
            mult = int(toks.expect("num")[1])
            toks.expect("name", "index")
            idx = int(toks.expect("num")[1])
            toks.done()
            last_block_at = (line_no, head[2])
            blocks, block = ((unknowns, UnknownBlock) if head[1] == "unknown"
                             else (equations, EquationBlock))
            if any(b.name == name for b in blocks):
                raise ParseError(f"duplicate {head[1]} block {name!r}", line_no, head[2])
            blocks.append(block(name, mult, idx))

        elif head[1] == "param":
            name = toks.expect("name")[1]
            if name in atoms:
                raise ParseError(f"atom {name!r} already declared", line_no, head[2])
            constraint = None
            if toks.i < len(toks.toks):
                toks.expect("name", "constraint")
                toks.expect("op", ":")
                c = toks.expect("name")
                if c[1] not in ("positive", "nonzero"):
                    raise ParseError("constraint must be positive or nonzero", line_no, c[2])
                constraint = c[1]
            toks.done()
            atoms[name] = param(name)
            slot(atoms[name])  # packed in declaration order; see lops.poly
            params.append(ParamDecl(name, constraint))

        elif head[1] == "assign":
            name = toks.expect("name")
            if name[1] not in atoms or name[1] in XI_NAMES:
                raise UnknownAtomError(f"undeclared parameter {name[1]!r}", line_no, name[2])
            toks.expect("op", ":=")
            assigns[name[1]] = _parse_rational(toks)
            toks.done()

        elif head[1] == "entry":
            eq_tok, _, eq_idx_tok, _, unk_tok, _, unk_idx_tok, _, _ = (
                toks.expect(*want) for want in _ENTRY_HEAD)
            eq_name, eq_idx = eq_tok[1], int(eq_idx_tok[1])
            unk_name, unk_idx = unk_tok[1], int(unk_idx_tok[1])
            symbol = _PolyParser(toks, atoms).parse()
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
                raise ParseError("factor multiplicity must be at least 1", line_no, mult_tok[2])
            toks.expect("op", ":=")
            start = toks.col(toks.i)
            p = _PolyParser(toks, atoms).parse()
            toks.done()
            # each claimed factor is tested for hyperbolicity in xi0..xi3
            d = p.homogeneous_degree_in(XI)
            problem = ("is zero" if p.is_zero()
                       else "is not homogeneous in xi0..xi3" if d is None
                       else "does not involve xi0..xi3" if d == 0 else None)
            if problem is not None:
                raise ParseError(f"claimed factor {len(factors) + 1} ({p.render()}) {problem}",
                                 line_no, start)
            factors.append((p, mult))

        elif head[1] == "prefactor":
            toks.expect("op", ":=")
            prefactor = _PolyParser(toks, atoms).parse()
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


def parse_poly(text: str, atom_names: Dict[str, Atom]) -> Poly:
    """Parse a standalone polynomial expression using the given atom table."""
    toks = _Tokens(text, 1)
    p = _PolyParser(toks, {**XI_NAMES, **atom_names}).parse()
    toks.done()
    return p
