"""Principal symbol matrices and exact determinants.

The determinant pipeline permutes a matrix to block upper-triangular form
(strongly connected components of its sparsity digraph, from one Tarjan pass
over the reversed digraph) and expands each diagonal block of more than one
row by one memoized Laplace expansion, the numeric cofactor oracle too.  The
blocks come in the order of one rule: rows are taken in ascending order, and
each row's block is placed right after the not-yet-placed blocks it depends
on, lowest row first.  A block with a scalar set of k >= 2 rows (one
nonzero diagonal entry a, zeros between them) and m <= k other rows expands
only a*D - C*B: det[[a*I_k, B], [C, D]] = a^(k-m) * det(a*D - C*B) for
k >= m (Silvester, "Determinants of block matrices", Math. Gazette 84, 2000),
a^(k-m) kept as separate factors, and takes a's non-monomial part g out of
the complement too when g divides every entry of B or of C.  A factorization
claim is checked by one product-form verifier that cancels the claimed
factors against them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import List, Optional, Sequence

from .poly import NotDivisibleError, Poly, XI
from .system import FactorClaim, LeraySystem


@dataclass
class SymbolMatrix:
    dimension: int
    entries: List[List[Poly]]

    def __post_init__(self):
        if len(self.entries) != self.dimension or any(len(r) != self.dimension for r in self.entries):
            raise ValueError("entries must form a square dimension x dimension grid")

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "SymbolMatrix":
        return SymbolMatrix(len(rows), [[self.entries[i][j] for j in cols] for i in rows])


def build_symbol_matrix(s: LeraySystem) -> SymbolMatrix:
    """Expand block entries of a validated system to the scalar N x N symbol."""
    row_of = {}
    col_of = {}
    for b in s.equations:
        for i in range(b.multiplicity):
            row_of[(b.name, i)] = len(row_of)
    for b in s.unknowns:
        for j in range(b.multiplicity):
            col_of[(b.name, j)] = len(col_of)
    n = len(row_of)
    if n != len(col_of):
        raise ValueError("system is not square")
    grid = [[Poly.zero()] * n for _ in range(n)]
    for e in s.entries:
        grid[row_of[(e.eq_block, e.eq_index)]][col_of[(e.unk_block, e.unk_index)]] = e.symbol
    return SymbolMatrix(n, grid)


# -- block decomposition -----------------------------------------------------


def block_order(m: SymbolMatrix) -> List[List[int]]:
    """Diagonal blocks (index groups) of the block upper-triangular form.

    The strongly connected components of the digraph i -> j for nonzero
    (i, j), from one iterative Tarjan pass over predecessor lists (Tarjan,
    SIAM J. Comput. 1, 1972).  Tarjan finishes a component after every
    component it reaches, so on the reversed digraph each block comes after
    the blocks it depends on, in the order of this rule: rows are taken in
    ascending order, and each row's block is placed right after the
    not-yet-placed blocks it depends on, lowest row first.  The determinant
    is the product of the block determinants.
    """
    n = m.dimension
    preds = [[i for i in range(n) if i != j and not m.entries[i][j].is_zero()] for j in range(n)]
    index = {}  # visit number, from 0; n once the row's block is placed
    low = [0] * n
    stack: List[int] = []
    blocks: List[List[int]] = []
    for root in range(n):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(preds[root]))]
        while work:
            v, rest = work[-1]
            for w in rest:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(preds[w])))
                    break
                low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    block = [stack.pop()]
                    while block[-1] != v:
                        block.append(stack.pop())
                    for w in block:
                        index[w] = n
                    blocks.append(sorted(block))
    return blocks


# -- determinant -----------------------------------------------------------


class ExpansionDepthError(ValueError):
    """A block has more rows than the recursion limit leaves frames for."""


def laplace_determinant(rows: Sequence[Sequence]):
    """Memoized Laplace expansion over any ring whose zero is falsy.

    Expands along rows in frontal order, memoizes each minor on its column
    set and applies the sign of that row permutation.  The next row keeps
    the union of the columns touched so far smallest (ties: fewer nonzeros,
    then the lower row; Sloan, IJNME 23, 1986), since a minor memoized at
    depth d drops d of the columns the first d rows touch.  A minor over the
    column mask visits only `mask & support`, a row's support mask having
    bit j set when its column j is nonzero; a column's sign is the parity of
    the mask bits below it.  No pivoting and no division, so it works for
    `Poly`, `Fraction` and `int` entries alike: every block and Schur
    complement expanded, and the numeric oracle.
    The empty matrix has determinant 1.  Exponential in the worst case.  It
    nests one frame per row, and raises `ExpansionDepthError` up front if
    the recursion limit leaves too few.
    """
    n = len(rows)
    if not n:
        return 1
    # frames left for one per row, after the stack and the ring's arithmetic
    frame, room = sys._getframe(), sys.getrecursionlimit() - 16
    while frame is not None:
        frame, room = frame.f_back, room - 1
    if n > room:
        raise ExpansionDepthError(f"a {n}x{n} block is too deep to expand: the recursion limit "
                                  f"{sys.getrecursionlimit()} leaves room for {max(room, 0)} rows")
    supports = [sum(1 << j for j, e in enumerate(row) if e) for row in rows]
    order, seen, left = [], 0, list(range(n))
    while left:  # min keeps the first of equal keys: ties go to the lower row
        i = min(left, key=lambda i: ((seen | supports[i]).bit_count(), supports[i].bit_count()))
        left.remove(i)
        order.append(i)
        seen |= supports[i]
    ordered = [(rows[i], supports[i]) for i in order]
    last = rows[order[-1]]
    zero = type(last[0])()  # Poly(), Fraction() and int() are each their ring's zero
    memo = {}

    def rec(depth: int, mask: int):
        if depth == n - 1:
            return last[mask.bit_length() - 1]
        cached = memo.get(mask)
        if cached is not None:
            return cached
        row, support = ordered[depth]
        total = zero
        rem = mask & support
        while rem:
            bit = rem & -rem
            rem ^= bit
            minor = rec(depth + 1, mask ^ bit)
            if minor:
                term = row[bit.bit_length() - 1] * minor
                total = total - term if (mask & (bit - 1)).bit_count() & 1 else total + term
        memo[mask] = total
        return total

    det = rec(0, (1 << n) - 1)
    inversions = sum(1 for a in range(n) for b in range(a + 1, n) if order[a] > order[b])
    return -det if inversions % 2 else det


# the oracle's name in the acceptance gate (tests/test_acceptance.py)
cofactor_determinant_rational = laplace_determinant


def _schur_factors(rows: Sequence[Sequence[Poly]]) -> Optional[List[Poly]]:
    """a^(k-m) and det(a*D - C*B) for the largest greedy scalar set when
    k >= 2 and k >= m, else None (plain Laplace).

    Let g be a over the gcd of its monomials.  When g is not constant and
    divides every entry of B (or of C), a*D - C*B = g*((a/g)*D - C*(B/g)),
    so the factors are a^(k-m), g repeated m times and the smaller
    det((a/g)*D - C*(B/g)), the determinant always last.
    """
    n = len(rows)
    sets = {}  # one greedy scalar set per distinct diagonal entry
    for i in range(n):
        members = sets.setdefault(rows[i][i], [])
        if rows[i][i] and all(not rows[i][j] and not rows[j][i] for j in members):
            members.append(i)
    a, best = max(sets.items(), key=lambda item: len(item[1]))
    k, m = len(best), n - len(best)
    if k < 2 or k < m:
        return None
    rest = sorted(set(range(n)) - set(best))
    # the nonzero C[i][s] and B[s][j] per s, so that C*B is built sparsely
    cs = {s: [(p, rows[i][s]) for p, i in enumerate(rest) if rows[i][s]] for s in best}
    bs = {s: [(q, rows[s][j]) for q, j in enumerate(rest) if rows[s][j]] for s in best}
    out = [a] * (k - m)
    mono = a.monomial_gcd()
    g = a.exact_div(mono)
    if not g.is_constant() and (_divide_all(bs, g) or _divide_all(cs, g)):
        a = mono
        out += [g] * m
    comp = [[a * rows[i][j] for j in rest] for i in rest]
    for s in best:
        for (p, c), (q, b) in product(cs[s], bs[s]):
            comp[p][q] -= c * b
    return out + [laplace_determinant(comp)]


def _divide_all(side: dict, g: Poly) -> bool:
    """Divide every entry of `side` by g in place when g divides them all."""
    try:
        quotients = {s: [(p, e.exact_div(g)) for p, e in es] for s, es in side.items()}
    except NotDivisibleError:
        return False
    side.update(quotients)
    return True


def determinant_factors(m: SymbolMatrix) -> List[Poly]:
    """Exact determinant as an unexpanded list of diagonal-block factors.

    The product of the returned polynomials is det(m) ([0] when it is zero);
    keeping the factored form avoids materializing determinants whose
    expansion is enormous while every factor stays exact.
    """
    if m.dimension == 1:
        return [m.entries[0][0]]
    out: List[Poly] = []
    for blk in block_order(m):
        rows = m.submatrix(blk, blk).entries
        d = [rows[0][0]] if len(blk) == 1 else _schur_factors(rows) or [laplace_determinant(rows)]
        if d[-1].is_zero():
            return [Poly.zero()]
        out.extend(d)
    return out


def block_factors(m: SymbolMatrix) -> List[List[Poly]]:
    """`determinant_factors` per diagonal block; [[0]] when det(m) is zero."""
    groups = [determinant_factors(m.submatrix(b, b)) for b in block_order(m)]
    return [[Poly.zero()]] if any(g[-1].is_zero() for g in groups) else groups


def determinant(m: SymbolMatrix) -> Poly:
    """Exact expanded determinant: the product of `determinant_factors`."""
    det = Poly.one()
    for d in determinant_factors(m):
        det = det * d
    return det


# -- factorization verification ------------------------------------------------


# the claim's name in the acceptance gate (tests/test_acceptance.py)
Factorization = FactorClaim


@dataclass
class VerifyReport:
    ok: bool
    detail: str
    witness_monomial: Optional[str] = None
    lhs_coefficient: Optional[Fraction] = None
    rhs_coefficient: Optional[Fraction] = None

    def to_json(self) -> dict:
        out = {"ok": self.ok, "detail": self.detail}
        if self.witness_monomial is not None:
            out["witness_monomial"] = self.witness_monomial
            out["determinant_coefficient"] = str(self.lhs_coefficient)
            out["claimed_coefficient"] = str(self.rhs_coefficient)
        return out


def factored_xi_degree(factors: Sequence[Poly]) -> Optional[int]:
    """xi-degree of a product of xi-homogeneous factors, without expanding.

    A product of homogeneous polynomials is homogeneous of the summed
    degree; returns None when any factor is inhomogeneous.
    """
    total = 0
    for p in factors:
        d = p.homogeneous_degree_in(XI)
        if d is None:
            return None
        total += d
    return total


def verify_factorization_product(det_factors: Sequence[Poly],
                                 claim: FactorClaim) -> VerifyReport:
    """Check product(det_factors) == claim without a full expansion.

    Claimed factors are cancelled against the determinant factors by exact
    division (a completed cancellation is an exact proof of equality); a
    claimed factor that divides no single one, such as u.xi * light against
    the reference block's u.xi and its complement's determinant, has whole
    factors divided out of it first (`_cancel`).  If the greedy cancellation
    gets stuck the comparison falls back to full expansion when small
    enough, otherwise to an exact rational evaluation witness: a single
    differing point proves the products unequal.
    """
    if claim.prefactor.degree_in(XI) > 0:
        return VerifyReport(False, "scalar prefactor contains covector atoms")
    num = [p for p in det_factors if not (p.is_constant() and p.as_constant() == 1)]
    leftover_constant = claim.prefactor
    claim_units: List[Poly] = []
    for p, mult in claim.factors:
        if p.is_constant():
            leftover_constant = leftover_constant * p ** mult
        else:
            claim_units.extend([p] * mult)
    claim_units.sort(key=lambda p: (-p.degree(), -len(p)))

    remaining_units: List[Poly] = []
    for k, unit in enumerate(claim_units):
        rest = _cancel(num, unit)
        if not rest.is_constant():
            remaining_units = [rest] + claim_units[k + 1:]
            break
        leftover_constant = leftover_constant * rest

    # with every claimed factor cancelled, the determinant's cofactor must
    # equal the prefactor; a stuck cancellation (the claim is wrong, or a
    # claimed factor takes part of several determinant factors but none of
    # them whole) compares the partially reduced sides, which are much
    # smaller than the original product
    if not remaining_units or (_size_estimate(num) <= 200_000
                               and _size_estimate(remaining_units) <= 200_000):
        lhs = Poly.one()
        for d in num:
            lhs = lhs * d
        rhs = leftover_constant
        for u in remaining_units:
            rhs = rhs * u
        if (lhs - rhs).is_zero():
            return VerifyReport(True, "claimed factorization matches the determinant exactly")
        return _diff_report(lhs, rhs)
    return _evaluation_witness(num, FactorClaim(
        leftover_constant, tuple((u, 1) for u in remaining_units)))


def _cancel(num: List[Poly], unit: Poly) -> Poly:
    """Divide `unit` out of the factors `num` in place; returns what is left
    of it, a constant when it cancelled.

    A unit that divides no single factor straddles several: whole factors
    are divided out of it until the rest divides one or is constant.  Each
    step divides both sides of det == claim by one polynomial, so it is exact.
    """
    while not unit.is_constant():
        for i, d in enumerate(num):
            if d.is_constant():  # cancelled already: no non-constant unit divides it
                continue
            try:
                num[i] = d.exact_div(unit)
                return Poly.one()
            except NotDivisibleError:
                continue
        for i, d in enumerate(num):
            if d.is_constant():  # divides every unit and cancels nothing
                continue
            try:
                unit = unit.exact_div(d)
            except NotDivisibleError:
                continue
            num[i] = Poly.one()
            break
        else:
            break
    return unit


def _size_estimate(polys: Sequence[Poly]) -> int:
    est = 1
    for p in polys:
        est *= max(len(p), 1)
        if est > 200_000:
            break
    return est


def _diff_report(lhs: Poly, rhs: Poly) -> VerifyReport:
    diff = lhs - rhs
    mono, _ = diff.leading()
    lc = dict(lhs.terms()).get(mono, Fraction(0))
    rc = dict(rhs.terms()).get(mono, Fraction(0))
    return VerifyReport(False, "difference is nonzero", Poly.monomial(1, mono).render(), lc, rc)


def _evaluation_witness(det_factors: Sequence[Poly], claim: FactorClaim) -> VerifyReport:
    """Exact point evaluations; one differing value certifies inequality."""
    atoms = set()
    for p in det_factors:
        atoms |= p.atoms()
    atoms |= claim.prefactor.atoms()
    for p, _ in claim.factors:
        atoms |= p.atoms()
    ordered = sorted(atoms, key=lambda a: (a not in XI, a))  # xi0..xi3 first
    for trial in range(64):
        assign = {a: Fraction(((trial + 3) * (i + 2) * 7919) % 97 + 1, (i % 5) + 2)
                  for i, a in enumerate(ordered)}
        lhs = Fraction(1)
        for p in det_factors:
            lhs *= p.eval(assign)
        rhs = claim.prefactor.eval(assign)
        for p, mult in claim.factors:
            rhs *= p.eval(assign) ** mult
        if lhs != rhs:
            point = ", ".join(f"{a}={v}" for a, v in list(assign.items())[:8])
            return VerifyReport(
                False,
                f"products differ at exact rational point ({point}, ...): "
                f"determinant={lhs}, claim={rhs}")
    return VerifyReport(False, "unverified: cancellation stuck with no "
                               "counterexample point; split the claimed factors "
                               "so each divides a single block determinant")
