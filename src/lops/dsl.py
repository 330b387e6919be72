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
an exponent, so `a/b^k` is `(a/b)^k`: `3/2^2` is 9/4.  An exponent is at
most MAX_DEGREE, a number has at most MAX_DIGITS digits, a power of a
number at most MAX_POWER_BITS bits, and parentheses nest at most
MAX_NESTING deep.  The covector atoms are spelled
`xi0..xi3`; every other atom must have been declared with `param`.  Any
trailing text after a complete statement is an error, and so is a spec with
no unknown or no equation block (reported at the end of the input), one
whose equation and unknown totals differ, an entry index beyond its block's
multiplicity, a claimed factor that is zero, free of xi or not xi-homogeneous,
a factor multiplicity below 1, or a prefactor with no factor.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .poly import MAX_DEGREE, XI, Atom, DegreeOverflowError, Poly, param, slot, xi
from .system import (DependencyDecl, EquationBlock, FactorClaim, LeraySystem,
                     ParamDecl, SymbolEntry, UnknownBlock)

XI_NAMES = {a.name: a for a in XI}

# whitespace separates tokens; any other character no token starts with is `bad`
_TOKEN_RE = re.compile(
    r"(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>:=|[-+*^()\[\]:/])|(?P<bad>\S)"
)


# the deepest parenthesis nesting read: each level takes four frames of the
# recursive descent, so this stays well inside the interpreter's recursion limit
MAX_NESTING = 100
# the longest number read: int() may be configured to refuse any longer
# decimal string (sys.set_int_max_str_digits takes no limit below 640)
MAX_DIGITS = 640
# the largest bit length of a number's power: 2^MAX_DEGREE fits, and so does
# any power a real spec writes, while no power takes long to compute
MAX_POWER_BITS = 2 * MAX_DEGREE + 2


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


class DuplicateEntryError(ParseError):
    pass


class UnknownAtomError(ParseError):
    pass


class _Tokens:
    def __init__(self, text: str, line_no: int):
        self.text = text
        self.line_no = line_no
        self.toks: List[Tuple[str, str, int]] = []
        for mo in _TOKEN_RE.finditer(text):
            kind = mo.lastgroup
            if kind == "bad":
                raise ParseError(f"unexpected character {mo.group()!r}", line_no,
                                 mo.start() + 1)
            if kind == "num" and len(mo.group()) > MAX_DIGITS:
                raise ParseError(f"number of {len(mo.group())} digits, more than {MAX_DIGITS}",
                                 line_no, mo.start() + 1)
            self.toks.append((kind, mo.group(), mo.start() + 1))
        self.i = 0

    def peek(self) -> Optional[Tuple[str, str, int]]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> Tuple[str, str, int]:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of line", self.line_no, len(self.text) + 1)
        self.i += 1
        return t

    def expect(self, kind: str, value: Optional[str] = None) -> Tuple[str, str, int]:
        t = self.next()
        if t[0] != kind or (value is not None and t[1] != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {t[1]!r}", self.line_no, t[2])
        return t

    def done(self):
        t = self.peek()
        if t is not None:
            raise ParseError(f"trailing input {t[1]!r}", self.line_no, t[2])


class _PolyParser:
    """Recursive-descent parser for polynomial expressions."""

    def __init__(self, toks: _Tokens, atoms: Dict[str, Atom]):
        self.toks = toks
        self.atoms = atoms
        self.depth = 0  # parentheses open around the current token

    def parse(self) -> Poly:
        t = self.toks.peek()
        try:
            return self.expr()
        except DegreeOverflowError as err:
            col = t[2] if t else len(self.toks.text) + 1
            raise ParseError(str(err), self.toks.line_no, col) from None

    def expr(self) -> Poly:
        acc = self.term()
        while True:
            t = self.toks.peek()
            if t and t[0] == "op" and t[1] in "+-":
                self.toks.next()
                rhs = self.term()
                acc = acc + rhs if t[1] == "+" else acc - rhs
            else:
                return acc

    def term(self) -> Poly:
        """A product of powers.  A run of plain factors (a number or a/b, an
        atom, either with an optional ^k) folds into one coefficient and one
        list of atom powers, packed once; any other factor is a Poly
        product.  So is an atom power that would lift the total degree past
        MAX_DEGREE, which then raises the DegreeOverflowError of a
        factor-by-factor product.  A unary minus before a factor negates the
        run, so the whole factor, ^k included: 2*-xi1^2 is -2*xi1^2."""
        toks = self.toks
        acc = None                            # the factors before the run
        num, den, powers, deg = 1, 1, [], 0   # the run
        while True:
            factor = None
            plain = self.plain()
            if plain is None:
                t = toks.peek()
                if t and t[0] == "op" and t[1] == "-":
                    toks.next()
                    num = -num
                    continue
                factor = self.power()
            else:
                n, d, a = plain
                k = self.exponent(_bits(n, d) if a is None else 0)
                if a is None:
                    if k is not None:
                        n, d = n ** k, d ** k
                    num *= n
                    den *= d
                else:
                    k = 1 if k is None else k
                    before = deg + (max(acc.degree(), 0) if acc is not None else 0)
                    if before + k <= MAX_DEGREE:
                        powers.append((a, k))
                        deg += k
                    else:
                        factor = Poly.atom(a) ** k
            if factor is not None:
                if num != den or powers:
                    acc = _times(acc, Poly.monomial(Fraction(num, den), powers))
                    num, den, powers, deg = 1, 1, [], 0
                acc = _times(acc, factor)
            t = toks.peek()
            if not (t and t[0] == "op" and t[1] == "*"):
                break
            toks.next()
        if acc is None or num != den or powers:
            acc = _times(acc, Poly.monomial(Fraction(num, den), powers))
        return acc

    def exponent(self, bits: int = 0) -> Optional[int]:
        """The k of a `^k` suffix, if one follows.  No base may be raised
        past MAX_DEGREE: a constant would be a huge integer and a
        polynomial would overflow its degree.  A number whose numerator or
        denominator has `bits` bits may be raised only while k * bits stays
        within MAX_POWER_BITS."""
        t = self.toks.peek()
        if t and t[0] == "op" and t[1] == "^":
            self.toks.next()
            t = self.toks.expect("num")
            k = int(t[1])
            if k > MAX_DEGREE:
                raise ParseError(f"exponent {k} exceeds the supported maximum degree "
                                 f"{MAX_DEGREE}", self.toks.line_no, t[2])
            if k * bits > MAX_POWER_BITS:
                raise ParseError(f"a number of {bits} bits to the power {k} would have "
                                 f"about {k * bits} bits, more than {MAX_POWER_BITS}",
                                 self.toks.line_no, t[2])
            return k
        return None

    def power(self) -> Poly:
        base = self.base()
        bits = 0
        if base.is_constant():
            c = base.as_constant()
            bits = _bits(c.numerator, c.denominator)
        k = self.exponent(bits)
        return base if k is None else base ** k

    def plain(self) -> Optional[Tuple[int, int, Optional[Atom]]]:
        """The next plain factor without its exponent, read: a number or
        a/b as (a, b, None), a declared atom as (1, 1, atom).  None, with
        nothing read, before any other token."""
        t = self.toks.peek()
        if t is None or t[0] not in ("num", "name"):
            return None
        self.toks.next()
        if t[0] == "num":
            return int(t[1]), _denominator(self.toks), None
        a = self.atoms.get(t[1])
        if a is None:
            raise UnknownAtomError(f"undeclared atom {t[1]!r}", self.toks.line_no, t[2])
        return 1, 1, a

    def base(self) -> Poly:
        plain = self.plain()
        if plain is not None:
            n, d, a = plain
            return Poly.constant(Fraction(n, d)) if a is None else Poly.atom(a)
        t = self.toks.next()
        if t[0] == "op" and t[1] == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}",
                                 self.toks.line_no, t[2])
            self.depth += 1
            p = self.expr()
            self.toks.expect("op", ")")
            self.depth -= 1
            return p
        raise ParseError(f"expected a term, found {t[1]!r}", self.toks.line_no, t[2])


def _bits(num: int, den: int) -> int:
    """The bit length of the larger of a number's numerator and denominator."""
    return max(abs(num).bit_length(), den.bit_length())


def _times(acc: Optional[Poly], p: Poly) -> Poly:
    return p if acc is None else acc * p


def _denominator(toks: _Tokens) -> int:
    """The b of a `/b` suffix of a number, or 1."""
    t = toks.peek()
    if t and t[0] == "op" and t[1] == "/":
        toks.next()
        den = toks.expect("num")
        if int(den[1]) == 0:
            raise ParseError("zero denominator", toks.line_no, den[2])
        return int(den[1])
    return 1


def _parse_rational(toks: _Tokens) -> Fraction:
    neg = False
    t = toks.peek()
    if t and t[0] == "op" and t[1] == "-":
        toks.next()
        neg = True
    num = toks.expect("num")
    val = Fraction(int(num[1]), _denominator(toks))
    return -val if neg else val


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
            if head[1] == "unknown":
                if any(b.name == name for b in unknowns):
                    raise ParseError(f"duplicate unknown block {name!r}", line_no, head[2])
                unknowns.append(UnknownBlock(name, mult, idx))
            else:
                if any(b.name == name for b in equations):
                    raise ParseError(f"duplicate equation block {name!r}", line_no, head[2])
                equations.append(EquationBlock(name, mult, idx))

        elif head[1] == "param":
            name = toks.expect("name")[1]
            if name in atoms:
                raise ParseError(f"atom {name!r} already declared", line_no, head[2])
            constraint = None
            t = toks.peek()
            if t is not None:
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
            eq_tok = toks.expect("name")
            eq_name = eq_tok[1]
            toks.expect("op", "[")
            eq_idx_tok = toks.expect("num")
            eq_idx = int(eq_idx_tok[1])
            toks.expect("op", "]")
            unk_tok = toks.expect("name")
            unk_name = unk_tok[1]
            toks.expect("op", "[")
            unk_idx_tok = toks.expect("num")
            unk_idx = int(unk_idx_tok[1])
            toks.expect("op", "]")
            toks.expect("op", ":=")
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
            start = toks.peek()
            p = _PolyParser(toks, atoms).parse()
            toks.done()
            # each claimed factor is tested for hyperbolicity in xi0..xi3
            d = p.homogeneous_degree_in(XI)
            problem = ("is zero" if p.is_zero()
                       else "is not homogeneous in xi0..xi3" if d is None
                       else "does not involve xi0..xi3" if d == 0 else None)
            if problem is not None:
                raise ParseError(f"claimed factor {len(factors) + 1} ({p.render()}) {problem}",
                                 line_no, start[2])
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

    claim = None
    if factors:
        claim = FactorClaim(prefactor if prefactor is not None else Poly.one(),
                            tuple(factors))

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
    merged = dict(XI_NAMES)
    merged.update(atom_names)
    toks = _Tokens(text, 1)
    p = _PolyParser(toks, merged).parse()
    toks.done()
    return p
