"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials live in Q[xi0..xi3, p1, p2, ...]: four distinguished covector
atoms plus an open-ended set of named parameter atoms.  An atom is its name,
a str; the covector atoms are the names in `XI`.  No floating point enters
any operation here.  Values are immutable after construction, so
they are safe to share freely.

Representation: one positive rational content times a primitive integer
polynomial (integer coefficients with gcd 1), stored as a map from packed
monomials to ints.  A packed monomial is one Python int: the lowest
`_BITS`-wide field holds the total degree and every atom owns the field at
the slot a process-wide registry gave it, so a monomial product is one
integer addition and a term lookup hashes a plain int.  The top bit of each
field is a guard that stays clear; a monomial quotient that borrows sets it.
Slots are given out in the order atoms are first used or reserved with
`slot`, xi0..xi3 first; a monomial is as wide as its highest slot, so the
integer work of a product grows with the slots of its atoms.
`dsl.parse_system` reserves a spec's parameters on their `param` lines, in
declaration order, so a fresh `lops analyze` process lays a spec out in
the spec's own order; it packs each distinct factor of a spec once (`pack`)
and builds each sum from packed terms (`Poly.from_packed`).
By Gauss's lemma a product of primitive polynomials is primitive and an
exact quotient of primitive polynomials is integral, so multiplication never
reduces coefficients and exact division runs on integers only (Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007).  Ordering packed ints as integers is a
monomial order; `leading()` and `render()` use graded-lex order with xi0..xi3
first, by index, and the parameters after them by name.
"""

from __future__ import annotations

import heapq
import math
import threading
from fractions import Fraction
from functools import reduce
from itertools import chain, islice, repeat
from operator import add, floordiv, mul, or_
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
                    Union)

Scalar = Union[int, Fraction]

# width of every exponent field, degree field included; the top bit of a
# field is the guard, so exponents and total degrees stay below 2**(_BITS-1)
_BITS = 16
_MASK = (1 << _BITS) - 1
_GUARD = 1 << (_BITS - 1)
MAX_DEGREE = _GUARD - 1


class PolyError(Exception):
    pass


class DegreeOverflowError(PolyError):
    """A total degree beyond MAX_DEGREE, which the exponent fields cannot hold."""


class MissingAtomError(PolyError):
    """An evaluation assignment does not cover every atom of the polynomial."""


class NotDivisibleError(PolyError):
    """Exact division failed; `remainder` holds the nonzero reduction residue."""

    def __init__(self, remainder: "Poly"):
        self.remainder = remainder
        super().__init__()

    def __str__(self):
        # rendered on demand: failed divisions are common and rarely printed
        return f"not exactly divisible, remainder {self.remainder}"


class NotPerfectPowerError(PolyError):
    """k-th root extraction failed; `remainder` witnesses the obstruction."""

    def __init__(self, remainder: "Poly", k: int):
        self.remainder = remainder
        self.k = k
        super().__init__()

    def __str__(self):
        return f"not a perfect power of order {self.k}, obstruction {self.remainder}"


class NotPerfectSquareError(NotPerfectPowerError):
    """Square-root extraction failed; `remainder` witnesses the obstruction."""

    def __str__(self):
        return f"not a perfect square, obstruction {self.remainder}"


# -- atom registry -------------------------------------------------------------

_ATOMS: List[str] = []           # slot -> atom; slot s owns field s + 1
_OFFSETS: Dict[str, int] = {}    # atom -> bit offset of its field
_GUARDS = _GUARD                 # guard bits of every field in use
_LOCK = threading.Lock()


def _offset(atom: str) -> int:
    """Bit offset of the atom's exponent field, registering it on first use."""
    off = _OFFSETS.get(atom)
    if off is None:
        global _GUARDS
        with _LOCK:
            off = _OFFSETS.get(atom)
            if off is None:
                off = (len(_ATOMS) + 1) * _BITS
                _ATOMS.append(atom)
                _GUARDS |= _GUARD << off
                _OFFSETS[atom] = off
    return off


def slot(atom: str) -> int:
    """The atom's slot in the packed-monomial registry, reserving the next
    free one on first use.  Slot s owns exponent field s + 1; xi0..xi3 hold
    slots 0..3."""
    return _offset(atom) // _BITS - 1


XI = ("xi0", "xi1", "xi2", "xi3")
for _a in XI:
    _offset(_a)  # the covector atoms own the lowest slots


# -- packed monomials ----------------------------------------------------------

# the public monomial form: (atom, exponent) pairs with exponent > 0, xi0..xi3
# first by index, then the parameters by name; the empty tuple is the
# constant monomial
Monomial = tuple


def _unpack(m: int) -> Monomial:
    xis, params = [], []
    m >>= _BITS
    while m:
        s = ((m & -m).bit_length() - 1) // _BITS
        off = s * _BITS
        (xis if s < 4 else params).append((_ATOMS[s], (m >> off) & _MASK))
        m &= ~(_MASK << off)
    # xi0..xi3 own slots 0..3, so only the parameters need sorting
    params.sort()
    return tuple(xis + params)


def _glex_key(m: int):
    """Sort key under which the graded-lex LARGEST monomial has the SMALLEST
    key (atom names are strings, so descending order is encoded by negating
    degrees and exponents instead); a covector atom ranks before any
    parameter."""
    return (-(m & _MASK), tuple((a not in XI, a, -e) for a, e in _unpack(m)))


def _divides(num: int, den: int) -> bool:
    """Whether monomial `den` divides monomial `num` (no field borrows)."""
    d = num - den
    return d >= 0 and not d & _GUARDS


def _check_degree(deg: int) -> None:
    if deg > MAX_DEGREE:
        raise DegreeOverflowError(
            f"total degree {deg} exceeds the supported maximum {MAX_DEGREE}")


def pack(powers: Iterable[Tuple[str, int]]) -> int:
    """The packed monomial of the product of atom**exponent over the (atom,
    exponent) pairs of `powers`; an atom may repeat."""
    m = deg = 0
    for a, e in powers:
        if e < 0:
            raise ValueError("monomial exponents are non-negative integers")
        if e:
            m += e << (_OFFSETS.get(a) or _offset(a))
            deg += e
    _check_degree(deg)
    return m + deg


def _field_sum(atoms: Iterable[str]):
    """Function of a packed monomial: its combined exponent of `atoms`.

    Masks the atoms' fields and adds them with one multiplication: the
    field at the highest selected offset of (fields * 0b..0001..0001)
    collects every selected field, and no partial sum carries because all
    of them are bounded by the total degree.
    """
    sel = top = 0
    for a in atoms:
        off = _OFFSETS.get(a)
        if off is not None:
            sel |= _MASK << off
            top = max(top, off)
    if not sel:
        return lambda m: 0
    ones = sum(1 << k for k in range(0, top + 1, _BITS))
    return lambda m: ((m & sel) * ones >> top) & _MASK


# -- polynomials ---------------------------------------------------------------

# the content of every primitive polynomial the constructors build; products
# test for it by identity to skip a Fraction multiplication
_F1 = Fraction(1)


def _new(content: Fraction, terms: Dict[int, int], deg: Optional[int] = None) -> "Poly":
    """Wrap a canonical (positive content, primitive terms) pair."""
    p = object.__new__(Poly)
    p._c = content
    p._t = terms
    p._deg = deg
    p._hash = None
    return p


def _normal(content: Fraction, terms: Dict[int, int]) -> "Poly":
    """Canonical form of content * terms; `terms` holds no zero values."""
    if not terms:
        return _ZERO
    g = math.gcd(*terms.values())
    if content < 0:
        g = -g
    if g != 1:
        terms = {m: c // g for m, c in terms.items()}
        content = content * g
    return _new(_F1 if content == 1 else content, terms)


def _drop_zeros(terms: Dict[int, int]) -> Dict[int, int]:
    if 0 in terms.values():
        return {m: c for m, c in terms.items() if c}
    return terms


class Poly:
    """Immutable sparse polynomial: rational content times a primitive
    integer polynomial over packed monomials."""

    __slots__ = ("_c", "_t", "_deg", "_hash")

    def __init__(self):
        """The zero polynomial; `constant` and `atom` build the rest."""
        self._c, self._t, self._deg, self._hash = _F1, {}, -1, None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    @staticmethod
    def one() -> "Poly":
        return _ONE

    @staticmethod
    def constant(c: Scalar) -> "Poly":
        return Poly.monomial(c, ())

    @staticmethod
    def atom(a: str) -> "Poly":
        return _new(_F1, {(1 << _offset(a)) + 1: 1}, 1)

    @staticmethod
    def monomial(c: Scalar, powers: Iterable[Tuple[str, int]]) -> "Poly":
        """c times the product of atom**exponent over the (atom, exponent)
        pairs of `powers`; an atom may repeat."""
        c = Fraction(c)
        return Poly.from_packed([(c.numerator, c.denominator, pack(powers))]) if c else _ZERO

    @staticmethod
    def from_packed(terms: Iterable[Tuple[int, int, int]]) -> "Poly":
        """The sum of num/den times the monomial m over the (num, den, m)
        triples of `terms`, den > 0 and m packed as `pack` packs it: one
        common denominator, no monomial unpacked."""
        terms = [t for t in terms if t[0]]
        lcm = math.lcm(*[d for _, d, _ in terms])
        out: Dict[int, int] = {}
        for num, den, m in terms:
            out[m] = out.get(m, 0) + num * (lcm // den)
        return _normal(Fraction(1, lcm), _drop_zeros(out))

    # -- inspection --------------------------------------------------------

    def terms(self) -> List[Tuple[Monomial, Fraction]]:
        """(monomial, coefficient) pairs; monomials as sorted (atom, exp) tuples."""
        c = self._c
        return [(_unpack(m), c * v) for m, v in self._t.items()]

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self):
        return bool(self._t)

    def __len__(self):
        return len(self._t)

    def atoms(self) -> set:
        return {a for a, _ in _unpack(reduce(or_, self._t, 0))}

    def as_constant(self) -> Fraction:
        """The value of a constant polynomial (zero or a single empty monomial)."""
        if not self._t:
            return Fraction(0)
        if self.is_constant():
            return self._c * self._t[0]
        raise PolyError(f"not a constant polynomial: {self}")

    def coefficient_bits(self) -> int:
        """The widest numerator or denominator bit length of a coefficient:
        exact for a constant, an upper bound otherwise."""
        top = max(map(abs, self._t.values()), default=0)
        return max((top * self._c.numerator).bit_length(), self._c.denominator.bit_length())

    def is_constant(self) -> bool:
        return not self._t or (len(self._t) == 1 and 0 in self._t)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if self._deg is None:
            self._deg = max((m & _MASK for m in self._t), default=-1)
        return self._deg

    def degree_in(self, atoms: Iterable[str]) -> int:
        """Largest combined exponent of the given atoms; -1 for zero."""
        if not self._t:
            return -1
        f = _field_sum(atoms)
        return max(f(m) for m in self._t)

    def homogeneous_degree_in(self, atoms: Iterable[str]) -> Optional[int]:
        """Common degree in `atoms` of every term, or None when inhomogeneous.

        The zero polynomial is homogeneous of every degree; it reports 0.
        """
        if not self._t:
            return 0
        f = _field_sum(atoms)
        degs = {f(m) for m in self._t}
        if len(degs) == 1:
            return degs.pop()
        return None

    def leading(self) -> tuple:
        """(monomial, coefficient) of the graded-lex leading term."""
        if not self._t:
            raise PolyError("zero polynomial has no leading term")
        m = min(self._t, key=_glex_key)
        return _unpack(m), self._c * self._t[m]

    def monomial_gcd(self) -> "Poly":
        """The greatest common divisor of the monomials, coefficient 1; 1 for zero."""
        m = deg = 0
        for a in self.atoms():
            off = _OFFSETS[a]
            e = min((n >> off) & _MASK for n in self._t)
            m += e << off
            deg += e
        return _new(_F1, {m + deg: 1}, deg)

    def coefficient_of(self, atom: str, power: int) -> "Poly":
        """Collect the coefficient of atom**power (a polynomial in the rest)."""
        off = _OFFSETS.get(atom)
        if off is None:
            return self if power == 0 else _ZERO
        drop = (power << off) + power
        return _normal(self._c, {m - drop: c for m, c in self._t.items()
                                 if (m >> off) & _MASK == power})

    # -- ring operations ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._t == other._t and self._c == other._c

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._c, frozenset(self._t.items())))
        return self._hash

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other."""
        a, b = self._t, other._t
        if not b:
            return self
        if not a:
            return other if sign > 0 else -other
        ca, cb = self._c, other._c
        if ca is cb or ca == cb:
            g, ka, kb = ca, 1, sign
        else:
            na, da, nb, db = ca.numerator, ca.denominator, cb.numerator, cb.denominator
            gn, gd = math.gcd(na, nb), math.lcm(da, db)
            g = Fraction(gn, gd)
            ka = na // gn * (gd // da)
            kb = sign * (nb // gn) * (gd // db)
        out = dict(a) if ka == 1 else {m: ka * c for m, c in a.items()}
        get = out.get
        for m, c in b.items():
            out[m] = get(m, 0) + kb * c
        return _normal(g, _drop_zeros(out))

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _new(self._c, {m: -c for m, c in self._t.items()}, self._deg)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._t, other._t
        if not a or not b:
            return _ZERO
        # Z[x] is a domain, so leading forms never cancel: degrees add
        deg = self.degree() + other.degree()
        _check_degree(deg)
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            (ma, ca), = a.items()
            out = {ma + mb: ca * cb for mb, cb in b.items()}
        else:
            out = {}
            get = out.get
            for ma, ca in a.items():
                for mb, cb in b.items():
                    m = ma + mb
                    out[m] = get(m, 0) + ca * cb
            out = _drop_zeros(out)
        # Gauss's lemma: the product of primitive parts is primitive
        ca, cb = self._c, other._c
        return _new(cb if ca is _F1 else ca if cb is _F1 else ca * cb, out, deg)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers are non-negative integers")
        _check_degree(self.degree() * n)  # before any multiplication
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- evaluation and substitution ----------------------------------------

    def eval(self, assignment: Mapping[str, Scalar]) -> Fraction:
        """Exact value under a total assignment of the polynomial's atoms;
        the one-point, one-polynomial case of `eval_columns`."""
        if not self._t:
            return Fraction(0)
        atoms = list(self.atoms())
        point = []
        for a in atoms:
            try:
                v = assignment[a]
            except KeyError:
                raise MissingAtomError(f"no value for atom {a}") from None
            if not isinstance(v, (int, Fraction)):
                v = Fraction(v)
            point.append((v.numerator, v.denominator))
        ((num,), (den,)), = _column_values(*_plan((self,), atoms), (point,))
        return Fraction(num, den)

    def substitute(self, bindings: Mapping[str, "Poly"]) -> "Poly":
        """Exact composition; atoms without a binding are left in place."""
        present = reduce(or_, self._t, 0)
        bound = []
        for a, b in bindings.items():
            off = _OFFSETS.get(a)
            if off is not None and (present >> off) & _MASK:
                bound.append((off, b))
        if not bound:
            return self
        # group the terms by their exponents of the bound atoms
        groups: Dict[tuple, Dict[int, int]] = {}
        for m, c in self._t.items():
            exps = tuple((m >> off) & _MASK for off, _ in bound)
            free = m - sum(e << off for e, (off, _) in zip(exps, bound)) - sum(exps)
            groups.setdefault(exps, {})[free] = c
        powers: Dict[tuple, Poly] = {}
        out = _ZERO
        for exps, terms in groups.items():
            term = _normal(self._c, terms)
            for k, e in enumerate(exps):
                if e:
                    p = powers.get((k, e))
                    if p is None:
                        p = powers[(k, e)] = _coerce(bound[k][1]) ** e
                    term = term * p
            out = out + term
        return out

    # -- division and roots --------------------------------------------------

    def exact_div(self, den: "Poly") -> "Poly":
        """Quotient when `den` divides exactly; NotDivisibleError otherwise.

        Divides the primitive parts on integers.  A product's leading and
        trailing terms (in packed order) are the products of its factors'
        leading and trailing terms, which rules most non-divisors out in
        linear time.  Otherwise the remainder's largest term is reduced
        repeatedly, taken from a heap of packed monomials; the first such
        term that `den`'s leading term fails to divide, or that leaves a
        non-integral quotient coefficient (an exact quotient of primitive
        polynomials is integral), proves non-divisibility, and the
        remainder at that point is the diagnostic witness.
        """
        den = _coerce(den)
        d = den._t
        if not d:
            raise ZeroDivisionError("division by zero polynomial")
        n = self._t
        if not n:
            return _ZERO
        content = self._c / den._c
        if den.is_constant():
            return _new(content, n if d[0] > 0 else {m: -c for m, c in n.items()}, self._deg)
        for pick in (max, min):
            nm, dm = pick(n), pick(d)
            if not _divides(nm, dm) or n[nm] % d[dm]:
                raise NotDivisibleError(self)

        lm = max(d)
        lc = d[lm]
        rest = [(m, c) for m, c in d.items() if m != lm]
        r = dict(n)
        heap = [-m for m in r]
        heapq.heapify(heap)
        q = {}
        while heap:
            m = -heapq.heappop(heap)
            c = r.pop(m, 0)
            if not c:
                continue  # stale entry, already cancelled
            qc, rem = divmod(c, lc)
            if rem or not _divides(m, lm):
                r[m] = c
                raise NotDivisibleError(_normal(self._c, r))
            qm = m - lm
            q[qm] = qc
            for mr, cr in rest:
                mm = qm + mr
                old = r.get(mm)
                if old is None:
                    r[mm] = -qc * cr
                    heapq.heappush(heap, -mm)
                elif old == qc * cr:
                    del r[mm]
                else:
                    r[mm] = old - qc * cr
        return _new(content, q, self.degree() - den.degree())

    def sqrt(self) -> "Poly":
        """`root(2)`: the exact square root with positive graded-lex leading
        coefficient; raises NotPerfectSquareError."""
        return self.root(2)

    def root(self, k: int) -> "Poly":
        """Exact k-th root, k >= 1; for even k the one with positive
        graded-lex leading coefficient.

        The content of a k-th power is a rational k-th power and its
        primitive part the k-th power of an integer polynomial (Gauss's
        lemma).  Root terms are solved largest first in packed order: the
        largest term of the residue self - R**k, with R the root so far, is
        k * lead(R)**(k-1) times the next root term.  Each root term is
        bounded by the largest exponents divided by k, which ends the search;
        raises NotPerfectPowerError (NotPerfectSquareError for k = 2) with
        the residue when no root exists.  The powers R**1 .. R**(k-1) are
        kept and updated by the binomial theorem, so a step costs about
        k**2 / 2 monomial-times-polynomial products.
        """
        if not isinstance(k, int) or k < 1:
            raise ValueError("roots are taken of positive integer order")
        t = self._t
        if not t or k == 1:
            return self
        c = self._c
        fail = NotPerfectSquareError if k == 2 else NotPerfectPowerError
        rn, rd = _iroot_exact(c.numerator, k), _iroot_exact(c.denominator, k)
        if rn is None or rd is None:
            raise fail(self, k)
        # every root exponent is at most the matching largest exponent over k
        bound = 0
        for a in self.atoms():
            off = _OFFSETS[a]
            bound += max((m >> off) & _MASK for m in t) // k << off
        bound += self.degree() // k
        lm = max(t)
        root_m, rem = divmod(lm, k)
        lc = t[lm]
        root_c = _iroot_exact(abs(lc), k)
        if rem or not _divides(bound, root_m) or root_c is None or (lc < 0 and not k & 1):
            raise fail(self, k)
        if lc < 0:
            root_c = -root_c
        step = k * root_c ** (k - 1)           # k * lead(R)**(k-1)
        shift = (k - 1) * root_m                # its monomial
        binom = [[math.comb(i, j) for j in range(i + 1)] for i in range(k + 1)]
        powers = [{0: 1}, {root_m: root_c}]     # R**0 .. R**(k-1)
        for _ in range(k - 2):
            powers.append({m * len(powers): v ** len(powers) for m, v in powers[1].items()})
        res = dict(t)
        del res[lm]
        while res:
            m = max(res)
            v = res[m]
            new_m = m - shift
            if not _divides(m, shift) or not _divides(bound, new_m) or v % step:
                raise fail(_normal(c, res), k)
            new_c = v // step
            # R**i + new term -> sum over j of C(i, j) R**(i-j) new**j; the
            # j = 1 term of R**k cancels m in the residue
            tj = [(j * new_m, new_c ** j) for j in range(k + 1)]
            for i in range(k, 0, -1):
                out = res if i == k else powers[i]
                sign = -1 if i == k else 1
                for j in range(1, i + 1):
                    mj, cj = tj[j]
                    cj *= sign * binom[i][j]
                    for mr, cr in powers[i - j].items():
                        mm = mr + mj
                        left = out.get(mm, 0) + cj * cr
                        if left:
                            out[mm] = left
                        else:
                            del out[mm]
        root = powers[1]
        if not k & 1 and root[min(root, key=_glex_key)] < 0:
            root = {m: -v for m, v in root.items()}
        content = Fraction(rn, rd)
        return _new(_F1 if content == 1 else content, root, self.degree() // k)

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Deterministic text form; parseable back by the system-spec reader."""
        if not self._t:
            return "0"
        parts = []
        for m in sorted(self._t, key=_glex_key):
            c = self._c * self._t[m]
            body = "*".join(a if e == 1 else f"{a}^{e}" for a, e in _unpack(m))
            mag = abs(c)
            if not body:
                chunk = str(mag)
            elif mag == 1:
                chunk = body
            else:
                chunk = f"{mag}*{body}"
            parts.append(("- " if c < 0 else "+ ") + chunk)
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else ("-" + out[2:])

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Poly({self.render()})"


# points per chunk of `eval_columns`: bounds the integer columns held at once
COLUMN_CHUNK = 100


def eval_columns(polys: Sequence["Poly"], atoms: Sequence[str],
                 points: Iterable[Sequence[Tuple[int, int]]]
                 ) -> Iterator[List[Tuple[List[int], List[int]]]]:
    """Exact values of several polynomials at many points, on integers.

    Each point gives its coordinates as (numerator, denominator) pairs in
    the order of `atoms`, denominators positive.  Yields, lazily, per chunk
    of up to COLUMN_CHUNK consecutive points, one (numerators, denominators)
    pair of lists per polynomial: its values at the chunk's points in
    order.  A value's denominator is positive and the pair is not reduced,
    so test it for zero by its numerator and take its float as numerator /
    denominator (correctly rounded, like `float(Fraction)`).  Raises
    MissingAtomError, at the call, for an atom of a polynomial that `atoms`
    lacks.

    All terms of all the polynomials go into one trie per call (`_plan`),
    so a product of powers that several terms begin with is taken once per
    chunk; every integer operation runs over a whole column through `map`
    (see `_column_values`), so the interpreter's cost per operation is paid
    once per chunk instead of once per point, and the chunk bounds the
    integer columns held at once.  Every exact evaluation goes through
    here: the line restrictions of the sampled hyperbolicity screen and
    `cones`, `ens verify`'s state samples, the sampled root check of the
    claimed quartic table, and `Poly.eval` as the one-point case.  The
    lists are shared between outputs; read them, do not change them.
    """
    plan = _plan(polys, atoms)
    rest = iter(points)
    chunks = iter(lambda: list(islice(rest, COLUMN_CHUNK)), [])
    return (_column_values(*plan, chunk) for chunk in chunks)


def _plan(polys: Sequence["Poly"], atoms: Sequence[str]):
    """(plans, root, used, tops, top_degree) of `eval_columns`, read
    straight off the packed terms.

    Every term of every polynomial goes into one trie over its nonzero
    exponent fields, atom k of `atoms` to the power e, in packed-slot order
    (as the loop visits them; nothing is sorted): a node is the product of
    the powers on its path, shared by every term through it (Carnicer and
    Gasca's tree scheme, Math. Comp. 54, 1990), and holds (depth, k, e,
    children, ends), `ends` the (group, coefficient) of each term ending
    there; a group is one total degree of one polynomial.  Each plan is
    (content, ((degree, group), ...)) in ascending total degree (the packed
    monomial's lowest field).  `tops` holds each atom's largest exponent
    and `used` the atoms with one.  Raises MissingAtomError for an atom of
    a polynomial that `atoms` lacks.
    """
    number = {off: k for k, off in enumerate(map(_OFFSETS.get, atoms)) if off is not None}
    tops = [0] * len(atoms)
    root: tuple = (0, 0, 0, {}, [])  # (depth, k, e, children by offset << _BITS | e, ends)
    plans = []
    count = 0  # groups numbered so far
    for p in polys:
        groups: Dict[int, int] = {}
        for m, c in p._t.items():
            g = groups.setdefault(m & _MASK, count + len(groups))
            node, depth = root, 0
            rest, off = m >> _BITS, _BITS
            while rest:  # visit the nonzero exponent fields only
                skip = ((rest & -rest).bit_length() - 1) // _BITS * _BITS
                rest >>= skip
                off += skip
                depth += 1
                key = off << _BITS | rest & _MASK
                children = node[3]
                node = children.get(key)
                if node is None:  # the first term with this prefix
                    k = number.get(off)
                    if k is None:
                        raise MissingAtomError(f"no value for atom {_ATOMS[off // _BITS - 1]}")
                    e = rest & _MASK
                    if e > tops[k]:
                        tops[k] = e
                    node = children[key] = (depth, k, e, {}, [])
                rest >>= _BITS
                off += _BITS
            node[4].append((g, c))
        count += len(groups)
        plans.append((p._c, sorted(groups.items())))
    used = [k for k, top in enumerate(tops) if top]
    top_degree = max((groups[-1][0] for _, groups in plans if groups), default=0)
    return plans, root, used, tops, top_degree


def _column_values(plans, root, used: Sequence[int], tops: Sequence[int], top_degree: int,
                   chunk: Sequence[Sequence[Tuple[int, int]]]
                   ) -> List[Tuple[List[int], List[int]]]:
    """(numerators, denominators) of each planned polynomial at a chunk of
    points, one integer list per quantity with one entry per point.

    The coordinates in use at a point go over their common denominator L,
    the lcm of their denominators: a = n_a/d_a = N_a/L with N_a = n_a *
    (L/d_a).  A term of total degree k is then c * prod N_a**e over L**k,
    so each degree group of a polynomial sums to an integer S_k with
    multiplications only, and a polynomial of top degree K has the value
    sum_k S_k * L**(K-k) over L**K (accumulated by Horner's rule in L),
    times its content.  L, each power N**e and each S_k are columns over
    the chunk, built by `map` over whole columns.  The trie is walked depth
    first on a stack, not by recursion, keeping one product column per
    depth, its parent's times N_k**e: one column product per node below
    depth 1 however many terms share it, and the columns of one path held
    at once.  Each term that ends at a node is added into its S_k there.
    """
    m = len(chunk)
    cols = list(zip(*map(chain.from_iterable, chunk)))  # atom k: n at 2k, d at 2k + 1
    L = list(map(math.lcm, *[cols[2 * k + 1] for k in used])) if used else [1] * m
    table: List[Optional[list]] = [None] * len(tops)  # table[k][e]: N_k**e
    for k in used:
        v = x = list(map(mul, cols[2 * k], map(floordiv, L, cols[2 * k + 1])))
        table[k] = powers = [None, x]
        for _ in range(tops[k] - 1):
            x = list(map(mul, x, v))
            powers.append(x)
    lpow = [[1] * m, L]
    for _ in range(top_degree - 1):
        lpow.append(list(map(mul, lpow[-1], L)))
    path = [None] * (top_degree + 1)  # path[d]: the current node's column at depth d
    sums = {g: [c] * m for g, c in root[4]}  # a constant term ends at the root
    stack = list(root[3].values())
    while stack:
        depth, k, e, children, ends = stack.pop()
        col = table[k][e]
        if depth > 1:
            col = map(mul, path[depth - 1], col)
            if children or len(ends) > 1:  # a lazy column is read once
                col = list(col)
        if children:
            path[depth] = col
            stack.extend(children.values())
        for g, c in ends:
            term = col if c == 1 else map(mul, col, repeat(c))
            s = sums.get(g)
            sums[g] = list(term) if s is None else list(map(add, s, term))
    out = []
    for content, groups in plans:
        total = None
        prev = 0
        for deg, g in groups:
            s = sums.pop(g)
            total = s if total is None else list(map(add, map(mul, total, lpow[deg - prev]), s))
            prev = deg
        cn, cd = content.numerator, content.denominator
        if total is None:
            total = [0] * m
        elif cn != 1:
            total = list(map(mul, total, repeat(cn)))
        den = lpow[prev] if cd == 1 else list(map(mul, lpow[prev], repeat(cd)))
        out.append((total, den))
    return out


def _coerce(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.constant(x)
    return NotImplemented


def _iroot_exact(n: int, k: int) -> Optional[int]:
    """The integer r >= 0 with r**k == n, or None."""
    if n < 2:
        return n if n >= 0 else None
    if k == 2:
        r = math.isqrt(n)
    else:  # Newton's iteration from above on integers
        r = 1 << -(-n.bit_length() // k)
        while True:
            s = ((k - 1) * r + n // r ** (k - 1)) // k
            if s >= r:
                break
            r = s
    return r if r ** k == n else None


_ZERO = _new(_F1, {}, -1)
_ONE = _new(_F1, {0: 1}, 0)
