"""Hyperbolicity tests, biquadratic splitting, and the Gevrey exponent.

Degree-1 and degree-2 factors get exact verdicts (nonvanishing at tau,
rational signature of the coefficient form).  A factor of degree 3 or more
that does not vanish at tau is split exactly and certified from its parts,
by Garding's product rule (Acta Math. 85, 1951): a product is hyperbolic at
tau exactly when every factor is.  `hyperbolicity_auto` tries, in order, a
perfect power (`Poly.root`, method `power`) and a rational linear factor
(method `product`), and recurses on the parts.  The linear factor is
proposed from the rational roots of the factor's restrictions to the lines
s*tau + e through tau's orthogonal frame, exact integer polynomials whose
real roots are bracketed by bisection between critical points on exact
signs; a candidate is kept only when `Poly.exact_div` accepts it, so the
proposer never decides a verdict and uses no floating point.  A factor that
splits no further falls back to the sampled falsification screen:
companion-matrix roots of the restriction to lines eta + s*tau over a
deterministic sphere of directions.  Every verdict function returns a
`HyperbolicityVerdict`, degenerate cases included (a quadratic form
singular on its support is split the same way first, and is `inconclusive`
only when it does not split; a factor of degree 3 or more that vanishes at
tau is `not-hyperbolic` by its own exact method, `vanishes-at-tau`, with no
sample drawn), and a `power` or `product` verdict lists each part with its
own verdict.

The sampled screen and `cone_sample` share one batched path.
`rational_directions` gives a memoized table of sphere directions with
exact rational coordinates.  One symbolic substitution turns a factor into
its line coefficients, polynomials in the direction coordinates;
`poly.eval_columns` evaluates them on integers direction-major, one
integer column per coefficient over a chunk of directions, and each exact
value is rounded once into the coefficient matrix.  The roots of all lines
then come from one `np.linalg.eigvals` call per companion size, equal bit
for bit to per-line `np.roots`.  `ens.sampled_root_nonnegativity` shares
only the direction table and the evaluator.  numpy is imported by the float
helpers on first use, so no exact verdict loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import truediv
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .poly import NotDivisibleError, NotPerfectPowerError, Poly, XI, eval_columns
from .system import FactorClaim

Fr = Fraction


class DegreeMismatchError(Exception):
    pass


class LeadingCoefficientZeroError(Exception):
    pass


@dataclass
class HyperbolicityVerdict:
    factor_id: str
    # linear-exact | quadratic-signature | power | product | vanishes-at-tau | sampled
    # | unassigned
    method: str
    verdict: str                 # hyperbolic | not-hyperbolic | inconclusive
    witness: Optional[str] = None
    sample_count: int = 0
    tolerance: float = 0.0
    worst_imag_ratio: float = 0.0
    # power: the factor is a constant times parts[0] ** exponent;
    # product: the factor is the product of the parts
    exponent: int = 0
    parts: Tuple["HyperbolicityVerdict", ...] = ()

    @property
    def hyperbolic(self) -> bool:
        return self.verdict == "hyperbolic"

    def to_json(self) -> dict:
        out = {"factor": self.factor_id, "method": self.method, "verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.method == "sampled":
            out["samples"] = self.sample_count
            out["tolerance"] = self.tolerance
            out["worst_imag_ratio"] = self.worst_imag_ratio
        if self.method == "power":
            out["exponent"] = self.exponent
        if self.parts:
            out["parts"] = [part.to_json() for part in self.parts]
        return out


def _specialize(p: Poly, params) -> Poly:
    q = p.substitute(params or {})
    extra = [a for a in q.atoms() if a not in XI]
    if extra:
        names = ", ".join(sorted(extra))
        raise ValueError(f"parameter assignment leaves atoms unbound: {names}")
    return q


def _eval_at_cov(p: Poly, tau: Sequence[Fraction]) -> Fraction:
    return p.eval(dict(zip(XI, map(Fr, tau))))


def hyperbolicity_linear(p: Poly, tau: Sequence[Fraction],
                         params: Optional[Mapping[str, Fraction]] = None,
                         factor_id: str = "") -> HyperbolicityVerdict:
    """A homogeneous linear form is hyperbolic iff it does not vanish at tau."""
    q = _specialize(p, params)
    if q.homogeneous_degree_in(XI) != 1:
        raise DegreeMismatchError(f"expected xi-degree 1, got {q.homogeneous_degree_in(XI)}")
    value = _eval_at_cov(q, tau)
    if value != 0:
        return HyperbolicityVerdict(factor_id, "linear-exact", "hyperbolic")
    return HyperbolicityVerdict(factor_id, "linear-exact", "not-hyperbolic",
                                witness=f"vanishes at tau={_fmt_cov(tau)}")


def quadratic_form_matrix(p: Poly) -> List[List[Fraction]]:
    """Symmetric 4x4 coefficient matrix of a xi-quadratic with no parameters."""
    m = [[Fr(0)] * 4 for _ in range(4)]
    for mono, c in p.terms():
        idx = []
        for a, e in mono:
            if a not in XI:
                raise ValueError("quadratic form extraction needs a parameter-free polynomial")
            idx.extend([XI.index(a)] * e)
        if len(idx) != 2:
            raise DegreeMismatchError("polynomial is not xi-quadratic")
        i, j = idx
        if i == j:
            m[i][i] += c
        else:
            m[i][j] += c / 2
            m[j][i] += c / 2
    return m


def rational_signature(sym: List[List[Fraction]]) -> Tuple[int, int, int]:
    """(positive, negative, zero) inertia by exact symmetric congruence."""
    a = [row[:] for row in sym]
    n = len(a)
    pos = neg = 0
    k = 0
    while k < n:
        piv = next((i for i in range(k, n) if a[i][i] != 0), None)
        if piv is None:
            off = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                        if a[i][j] != 0), None)
            if off is None:
                break  # remaining block is zero
            i, j = off
            # congruence e_i <- e_i + e_j makes the diagonal nonzero
            for col in range(n):
                a[i][col] += a[j][col]
            for row in range(n):
                a[row][i] += a[row][j]
            piv = i
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for row in a:
                row[k], row[piv] = row[piv], row[k]
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = a[i][k] / d
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
                for j in range(k, n):
                    a[j][i] = a[i][j]
        k += 1
    zero = n - pos - neg
    return pos, neg, zero


def hyperbolicity_quadratic(p: Poly, tau: Sequence[Fraction],
                            params: Optional[Mapping[str, Fraction]] = None,
                            factor_id: str = "") -> HyperbolicityVerdict:
    """Exact signature test: hyperbolic iff the form is nonzero at tau and,
    signed to be positive there, has inertia (1, dim-1) on its support.
    p and -p are hyperbolic together (Garding 1951), so the mostly-plus
    convention -xi0^2 + xi1^2 + ... passes as well.  A form that is
    singular on its support is inconclusive."""
    q = _specialize(p, params)
    if q.homogeneous_degree_in(XI) != 2:
        raise DegreeMismatchError(f"expected xi-degree 2, got {q.homogeneous_degree_in(XI)}")
    m = quadratic_form_matrix(q)
    support = [i for i in range(4) if any(m[i][j] != 0 for j in range(4))]
    sub = [[m[i][j] for j in support] for i in support]
    pos, neg, zero = rational_signature(sub)
    if zero > 0:
        return HyperbolicityVerdict(
            factor_id, "quadratic-signature", "inconclusive",
            witness=f"form is singular on its support (inertia {pos},{neg},{zero})")
    value = _eval_at_cov(q, tau)
    if value != 0 and ((pos, neg) if value > 0 else (neg, pos)) == (1, len(support) - 1):
        return HyperbolicityVerdict(factor_id, "quadratic-signature", "hyperbolic")
    reason = (f"inertia ({pos},{neg})" if (pos, neg) != (1, len(support) - 1)
              else f"value at tau is {value}")
    return HyperbolicityVerdict(factor_id, "quadratic-signature", "not-hyperbolic",
                                witness=reason)


# -- sampled screen -------------------------------------------------------------


def sphere_directions(n: int, seed: int = 0) -> List[Tuple[float, float, float]]:
    """Deterministic low-discrepancy points on the unit 2-sphere (spiral
    lattice); the seed rotates the azimuth so reruns are reproducible and
    distinct seeds decorrelate."""
    golden = math.pi * (3.0 - math.sqrt(5.0))
    offset = (seed * 0.61803398874989) % (2.0 * math.pi)
    out = []
    for k in range(n):
        z = 1.0 - 2.0 * (k + 0.5) / n
        r = math.sqrt(max(0.0, 1.0 - z * z))
        phi = k * golden + offset
        out.append((r * math.cos(phi), r * math.sin(phi), z))
    return out


# a direction table: per direction, its three coordinates as exact
# (numerator, denominator) pairs in lowest terms, denominators positive
DirectionTable = Tuple[Tuple[Tuple[int, int], ...], ...]

# the largest denominator of a direction coordinate
DIRECTION_MAX_DEN = 4096

_DIRECTION_TABLES: Dict[Tuple[int, int], DirectionTable] = {}


def rational_directions(n: int, seed: int = 0) -> DirectionTable:
    """sphere_directions(n, seed) with every coordinate replaced by
    Fraction(x).limit_denominator(DIRECTION_MAX_DEN), as integer pairs.

    Memoized per (n, seed): the sampled verdicts and `cone_sample` of one
    process share each table.  Raises ValueError for n < 1, on which every
    sampled check would pass.
    """
    if n < 1:
        raise ValueError(f"need at least one direction, got {n}")
    key = (n, seed)
    table = _DIRECTION_TABLES.get(key)
    if table is None:
        table = tuple(tuple(_limit_denominator(c, DIRECTION_MAX_DEN) for c in d)
                      for d in sphere_directions(n, seed))
        table = _DIRECTION_TABLES.setdefault(key, table)
    return table


def _limit_denominator(x: float, max_den: int) -> Tuple[int, int]:
    """(numerator, denominator) of Fraction(x).limit_denominator(max_den),
    on ints: the continued-fraction convergents of x's exact binary value,
    then whichever of the last convergent and the best semiconvergent lies
    closer to x, the convergent on a tie."""
    if max_den < 1:
        raise ValueError("max_den should be at least 1")
    n, d = x.as_integer_ratio()
    if d <= max_den:
        return n, d
    p0, q0, p1, q1 = 0, 1, 1, 0
    num, den = n, d
    while True:
        a = num // den
        q2 = q0 + a * q1
        if q2 > max_den:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        num, den = den, num - a * den
    k = (max_den - q0) // q1
    p2, q2 = p0 + k * p1, q0 + k * q1
    # |p1/q1 - n/d| <= |p2/q2 - n/d|, multiplied through by q1 * q2 * d > 0
    if abs(p1 * d - n * q1) * q2 <= abs(p2 * d - n * q2) * q1:
        return p1, q1
    return p2, q2


Frame = Tuple[Tuple[Fraction, ...], ...]

_FRAMES: Dict[Tuple[Fraction, ...], Frame] = {}


def _orthogonal_frame(tau: Sequence[Fraction]) -> Frame:
    """Three exact, mutually orthogonal vectors spanning the Euclidean
    complement of tau, by Gram-Schmidt on the unit vectors.  Memoized per
    tau, like `rational_directions`: every factor of a report shares one
    frame."""
    t = tuple(Fr(x) for x in tau)
    frame = _FRAMES.get(t)
    if frame is None:
        frame = _FRAMES.setdefault(t, _gram_schmidt(t))
    return frame


def _gram_schmidt(t: Tuple[Fraction, ...]) -> Tuple[Tuple[Fraction, ...], ...]:
    basis: List[Tuple[Fraction, ...]] = []
    for k in range(4):
        v = tuple(Fr(1) if i == k else Fr(0) for i in range(4))
        for b in [t] + basis:
            nn = sum(x * x for x in b)
            if nn == 0:
                continue
            proj = sum(x * y for x, y in zip(v, b)) / nn
            v = tuple(x - proj * y for x, y in zip(v, b))
        if any(x != 0 for x in v):
            basis.append(v)
        if len(basis) == 3:
            break
    return tuple(basis)


_LINE_XYZ = ("_line_x", "_line_y", "_line_z")
_LINE_S = "_line_s"


def _line_restriction(q: Poly, tau: Sequence[Fraction], frame: Frame) -> List[Poly]:
    """Coefficients (descending in s) of q(x*f0 + y*f1 + z*f2 + s*tau) as
    polynomials in the direction atoms x, y, z: one substitution serves
    every direction of a sample."""
    x, y, z = (Poly.atom(a) for a in _LINE_XYZ)
    s = Poly.atom(_LINE_S)
    bind = {a: x * frame[0][i] + y * frame[1][i] + z * frame[2][i] + s * Fr(tau[i])
            for i, a in enumerate(XI)}
    uni = q.substitute(bind)
    return [uni.coefficient_of(_LINE_S, k)
            for k in range(uni.degree_in([_LINE_S]), -1, -1)]


def _line_coefficients(restrictions: Sequence[List[Poly]],
                       table: DirectionTable) -> List[np.ndarray]:
    """Per restriction, a matrix with one row per direction: the float
    coefficients (descending) of s -> q(eta + s*tau), each rounded once
    from its exact value, written a column chunk at a time."""
    import numpy as np
    flat = [c for r in restrictions for c in r]
    values = np.empty((len(table), len(flat)))
    start = 0
    for columns in eval_columns(flat, _LINE_XYZ, table):
        stop = start + len(columns[0][0])
        for j, (nums, dens) in enumerate(columns):
            values[start:stop, j] = list(map(truediv, nums, dens))
        start = stop
    return np.split(values, np.cumsum([len(r) for r in restrictions[:-1]]), axis=1)


def _line_roots(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """`np.roots` of every coefficient row, batched: row k's roots are
    roots[k, :count[k]], equal to np.roots(rows[k]) bit for bit, and the
    rest of the row is 0j.

    Like `np.roots`, strips a row's leading and trailing zeros, takes the
    eigenvalues of the companion matrix of what is left and appends one
    zero root per trailing zero.  Rows are grouped by stripped length and
    each group's companion matrices go to one `np.linalg.eigvals` call,
    which runs LAPACK on each stacked matrix as on a single one.
    """
    import numpy as np
    width = rows.shape[1]
    nonzero = rows != 0
    some = nonzero.any(axis=1)
    lo = nonzero.argmax(axis=1)
    size = np.where(some, width - lo - nonzero[:, ::-1].argmax(axis=1), 0)
    roots = np.zeros((len(rows), width - 1), dtype=complex)
    for n in sorted(set(size[size > 1].tolist())):
        numbers = np.flatnonzero(size == n)
        p = rows[numbers[:, None], lo[numbers, None] + np.arange(n)]
        companion = np.zeros((len(numbers), n - 1, n - 1))
        companion[:, 0, :] = -p[:, 1:] / p[:, :1]
        below = np.arange(n - 2)
        companion[:, below + 1, below] = 1.0
        roots[numbers, :n - 1] = np.linalg.eigvals(companion)
    return roots, np.where(some, width - 1 - lo, 0)


def hyperbolicity_sampled(p: Poly, tau: Sequence[Fraction],
                          params: Optional[Mapping[str, Fraction]] = None,
                          n_samples: int = 1000, tol: float = 1e-9,
                          seed: int = 0, factor_id: str = "") -> HyperbolicityVerdict:
    """Companion-matrix roots along eta + s*tau for sampled directions eta;
    hyperbolic when every root is real within tol*(1+|Re|).  A falsification
    screen, not a certificate.  A polynomial that vanishes at tau, the zero
    polynomial included, gets the exact `vanishes-at-tau` verdict, with no
    sample drawn."""
    q = _specialize(p, params)
    d = q.homogeneous_degree_in(XI)
    if q and (d is None or d < 1):
        raise DegreeMismatchError("sampled test needs a homogeneous xi-polynomial")
    if _eval_at_cov(q, tau) == 0:
        return _vanishing(tau, factor_id)
    import numpy as np
    frame = _orthogonal_frame(tau)
    table = rational_directions(n_samples, seed)
    rows, = _line_coefficients([_line_restriction(q, tau, frame)], table)
    roots, _ = _line_roots(rows)
    # entries past a row's roots are 0j, whose ratio 0 never raises the worst
    ratios = np.abs(roots.imag) / (1.0 + np.abs(roots.real))
    worst = float(ratios.max(initial=0.0))
    witness = None
    if worst > max(tol, 0.0):
        # the witness is the first root, in direction order, that has the
        # worst ratio; an all-real sample (worst ratio 0) has none
        k, j = np.unravel_index(np.argmax(ratios), ratios.shape)
        root = roots[k, j]
        x, y, z = (Fr(num, den) for num, den in table[k])
        eta = [x * frame[0][i] + y * frame[1][i] + z * frame[2][i] for i in range(4)]
        witness = (f"direction #{k} eta=({float(eta[0]):.6g},{float(eta[1]):.6g},"
                   f"{float(eta[2]):.6g},{float(eta[3]):.6g}) root {root:.6g}")
    verdict = "hyperbolic" if worst <= tol else "not-hyperbolic"
    return HyperbolicityVerdict(factor_id, "sampled", verdict, witness=witness,
                                sample_count=n_samples, tolerance=tol,
                                worst_imag_ratio=worst)


def hyperbolicity_auto(p: Poly, tau, params=None, n_samples: int = 1000,
                       tol: float = 1e-9, seed: int = 0,
                       factor_id: str = "") -> HyperbolicityVerdict:
    """Exact verdicts: `hyperbolicity_linear` and `hyperbolicity_quadratic`
    for degree 1 and 2.  A factor of degree 3 or more that does not vanish
    at tau, or a quadratic form singular on its support that does not, is
    split exactly, as a perfect power (`power`) or by a rational linear
    factor (`product`), and the parts get their own verdicts: the factor is
    hyperbolic exactly when every part is (Garding 1951).  A singular form
    that splits no further keeps its `inconclusive` quadratic-signature
    verdict; only a factor of degree 3 or more gets the sampled screen.  A
    factor of degree 3 or more that vanishes at tau, or that the assignment
    makes the zero polynomial, reaches `hyperbolicity_sampled`, which finds
    that it vanishes at tau before it draws a sample or loads numpy."""

    def verdict(q: Poly, fid: str) -> HyperbolicityVerdict:
        d = q.homogeneous_degree_in(XI)
        if d == 1:
            return hyperbolicity_linear(q, tau, None, fid)
        quadratic = hyperbolicity_quadratic(q, tau, None, fid) if d == 2 else None
        if quadratic is not None and quadratic.verdict != "inconclusive":
            return quadratic
        if d is not None and d > 1:
            value = _eval_at_cov(q, tau)
            split = _split(q, tau, d, value) if value else None
            if split is not None:
                method, exponent, polys = split
                parts = tuple(verdict(part, part.render()) for part in polys)
                return HyperbolicityVerdict(fid, method, _conjunction(parts),
                                            exponent=exponent, parts=parts)
        return quadratic or hyperbolicity_sampled(q, tau, None, n_samples, tol, seed, fid)

    return verdict(_specialize(p, params), factor_id)


def _vanishing(tau: Sequence[Fraction], factor_id: str) -> HyperbolicityVerdict:
    """Hyperbolicity with respect to tau needs p(tau) != 0, so a form that
    vanishes at tau is not hyperbolic: exact, with no sample drawn."""
    return HyperbolicityVerdict(factor_id, "vanishes-at-tau", "not-hyperbolic",
                                witness=f"vanishes at tau={_fmt_cov(tau)}")


def _conjunction(parts: Sequence[HyperbolicityVerdict]) -> str:
    """The verdict of a product from its parts' verdicts."""
    if any(v.verdict == "not-hyperbolic" for v in parts):
        return "not-hyperbolic"
    return "hyperbolic" if all(v.hyperbolic for v in parts) else "inconclusive"


# -- exact splitting -------------------------------------------------------------


def _split(q: Poly, tau: Sequence[Fraction], d: int,
           value: Fraction) -> Optional[Tuple[str, int, List[Poly]]]:
    """(method, exponent, parts) of an exact split of a xi-form q of degree
    d >= 3 with q(tau) = value != 0, or None.

    `power`: q / value is the k-th power of its `Poly.root(k)`, for the
    least k > 1 dividing d that works.  `product`: q = l * (q / l) for a
    rational linear form l that `_linear_factor` finds.  Both are verified
    exactly, by the root's own residue and by `Poly.exact_div`.
    """
    base = q * (1 / value)
    for k in range(2, d + 1):
        if d % k == 0:
            try:
                return "power", k, [base.root(k)]
            except NotPerfectPowerError:
                pass
    split = _linear_factor(q, tau)
    return None if split is None else ("product", 0, list(split))


# the lines of `_linear_factor`: through e0, e1, e2, e0 + e1 and e0 + e2 of
# the orthogonal frame, as a direction table
_SPLIT_LINES = tuple(tuple((c, 1) for c in v)
                     for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1)))


def _linear_factor(q: Poly, tau: Sequence[Fraction]) -> Optional[Tuple[Poly, Poly]]:
    """(l, q / l) for a rational linear form l dividing q, or None.

    A linear factor l of q with l(tau) = 1 vanishes on the line s*tau + e
    at s = -l(e), a rational root of the restriction of q to that line.  So
    l is found from one rational root s_k per line through each vector e_k
    of `_orthogonal_frame(tau)`: l(xi) = w.xi with w = tau/|tau|^2 -
    sum_k s_k e_k/|e_k|^2.  The same l vanishes at s_0 + s_1 on the line
    through e_0 + e_1 and at s_0 + s_2 on the line through e_0 + e_2, which
    prunes the choices of roots to about one per linear factor.  The roots
    only propose; each candidate, made primitive with l(tau) > 0, is kept
    only if `Poly.exact_div` accepts it.
    """
    t = [Fr(x) for x in tau]
    frame = _orthogonal_frame(t)
    columns, = eval_columns(_line_restriction(q, t, frame), _LINE_XYZ, _SPLIT_LINES)
    *lines, g01, g02 = ([_primitive([Fr(nums[j], dens[j]) for nums, dens in columns])
                         for j in range(len(_SPLIT_LINES))])
    roots = []
    for line in lines:
        found = _rational_roots(line)
        if not found:
            return None
        roots.append(found)
    r0, r1, r2 = roots
    base, *dual = ([x / sum(y * y for y in v) for x in v] for v in [t, *frame])
    for combo in ((s0, s1, s2) for s0 in r0 for s1 in r1 if _vanishes(g01, s0 + s1)
                  for s2 in r2 if _vanishes(g02, s0 + s2)):
        w = list(base)
        for s, u in zip(combo, dual):
            if s:
                w = [x - s * y if y else x for x, y in zip(w, u)]
        ell = sum((Poly.atom(a) * c for a, c in zip(XI, _primitive(w)) if c),
                  Poly.zero())
        try:
            return ell, q.exact_div(ell)
        except NotDivisibleError:
            continue
    return None


def _primitive(coeffs: Sequence[Fraction]) -> List[int]:
    """The integers proportional to `coeffs` with gcd 1 and the same signs."""
    scale = math.lcm(*(Fr(c).denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    g = math.gcd(*ints) or 1
    return [c // g for c in ints]


def _rational_roots(c: List[int]) -> List[Fraction]:
    """The distinct rational roots, ascending, of the integer polynomial c
    (descending coefficients, c[0] != 0).

    A rational root of the primitive part of c, with leading coefficient a,
    has a denominator dividing a, so two of them lie at least 1/a^2 apart.
    Each real root of c and of its derivatives (where the repeated roots of
    c lie) is bracketed to a width below 1/(2 a^2) by `_root_brackets`; the
    fraction of denominator at most |a| closest to the bracket's midpoint
    is then the only candidate, and it is kept when c vanishes there.
    """
    lead = abs(c[0])
    K = 2 * lead.bit_length() + 1
    out = set()
    for lo, hi in _root_brackets(c, K):
        r = Fr(lo + hi, 2 << K).limit_denominator(lead)
        if _vanishes(c, r):
            out.add(r)
    return sorted(out)


def _vanishes(c: Sequence[int], r: Fraction) -> bool:
    """Whether the integer polynomial c (descending) vanishes at r."""
    h, scale = c[0], 1
    for x in c[1:]:
        scale *= r.denominator
        h = h * r.numerator + x * scale
    return h == 0


def _root_brackets(c: List[int], K: int) -> List[Tuple[int, int]]:
    """Brackets (lo, hi), integers with hi - lo <= 1, each holding a real
    root of the integer polynomial c or of one of its derivatives in
    [lo, hi] / 2**K.

    The derivatives are bracketed from the linear one up: each one's roots
    are found by bisection, on exact signs, between the brackets of its
    derivative's roots (its critical points) and the Cauchy bound.  A root
    within one grid step of a critical point may be missed, so the brackets
    only propose roots.
    """
    chain = [c]
    while len(chain[-1]) > 2:
        p = chain[-1]
        chain.append([x * (len(p) - 1 - j) for j, x in enumerate(p[:-1])])
    if len(chain[-1]) < 2:
        return []
    D = 1 << K
    lo, rem = divmod(-chain[-1][1] * D, chain[-1][0])
    level = [(lo, lo + (rem != 0))]
    out = list(level)
    for p in reversed(chain[:-1]):
        level = _bisect(p, D, [lo for lo, _ in level])
        out += level
    return out


def _bisect(c: List[int], D: int, cuts: List[int]) -> List[Tuple[int, int]]:
    """The brackets of the roots of c between consecutive `cuts` (ascending
    grid points, the critical points of c) and the Cauchy bound."""
    head, rest = c[0], list(zip(c[1:], [D ** j for j in range(1, len(c))]))

    def sign(a: int) -> int:  # of D**deg * c(a / D)
        h = head
        for x, scale in rest:
            h = h * a + x * scale
        return (h > 0) - (h < 0)

    bound = (max(map(abs, c[1:])) // abs(head) + 2) * D
    cuts = [-bound] + cuts + [bound]
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        s_lo, s_hi = sign(lo), sign(hi)
        if s_lo == 0:
            out.append((lo, lo))
            continue
        if s_lo * s_hi >= 0:
            continue
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            s = sign(mid)
            if s == 0:
                lo = hi = mid
            elif s == s_lo:
                lo = mid
            else:
                hi = mid
        out.append((lo, hi))
    return out


# -- biquadratic split ----------------------------------------------------------


def biquadratic_split(A: Poly, B: Poly, C: Poly,
                      params: Optional[Mapping[str, Fraction]] = None
                      ) -> Tuple[Poly, Poly]:
    """Split P = A*xi0^4 + B*xi0^2 + C into two quadratics.

    Requires B^2 - 4AC to be a perfect square D^2 in the ring; then
    4A*P = (2A*xi0^2 + B - D)(2A*xi0^2 + B + D) and the two factors are
    returned.  Callers verify P1*P2 = 4A*P by exact division.  Raises
    NotPerfectSquareError (with the obstruction) or
    LeadingCoefficientZeroError.
    """
    if A.is_zero():
        raise LeadingCoefficientZeroError("leading coefficient A is the zero polynomial")
    if params:
        if A.eval({a: Fr(v) for a, v in params.items()}) == 0:
            raise LeadingCoefficientZeroError("leading coefficient A vanishes at the assignment")
    disc = B * B - 4 * A * C
    d = disc.sqrt()  # NotPerfectSquareError carries the obstruction
    x0sq = Poly.atom(XI[0]) ** 2
    two_a = Poly.constant(2) * A
    p1 = two_a * x0sq + B - d
    p2 = two_a * x0sq + B + d
    return p1, p2


def quartic_from_coefficients(A: Poly, B: Poly, C: Poly) -> Poly:
    x0 = Poly.atom(XI[0])
    return A * x0 ** 4 + B * x0 ** 2 + C


# -- Gevrey exponent ------------------------------------------------------------


def gevrey_sigma(claim: FactorClaim) -> Optional[Fraction]:
    """sigma0 = q/(q-1) for q hyperbolic factors counted with multiplicity;
    None encodes the infinite (Sobolev) case q = 1.  The caller has checked
    that every factor is hyperbolic."""
    count = claim.factor_count()
    if count < 1:
        raise ValueError("factorization has no factors")
    if count == 1:
        return None
    return Fr(count, count - 1)


def sigma_json(sigma: Optional[Fraction]) -> str:
    if sigma is None:
        return "sobolev"
    return f"{sigma.numerator}/{sigma.denominator}"


# -- cone sampling ---------------------------------------------------------------


@dataclass
class ConeSamples:
    factor_id: str
    tau: Tuple[float, ...]
    directions: List[Tuple[float, float, float]]
    roots: List[List[float]]                       # sorted real parts per direction
    reference_roots: List[List[float]]
    within_reference: List[bool]

    @property
    def all_within_reference(self) -> bool:
        return all(self.within_reference)

    def csv_lines(self) -> List[str]:
        header = "dir_x,dir_y,dir_z,roots"
        lines = [header]
        for d, rs in zip(self.directions, self.roots):
            roots = ";".join(f"{r:.12g}" for r in rs)
            lines.append(f"{d[0]:.12g},{d[1]:.12g},{d[2]:.12g},{roots}")
        return lines


def cone_sample(p: Poly, tau: Sequence[Fraction],
                params: Optional[Mapping[str, Fraction]] = None,
                n: int = 100, seed: int = 0, tol: float = 1e-9,
                factor_id: str = "", *, reference: Poly) -> ConeSamples:
    """Real root sheets of p(eta + s*tau) and of the reference polynomial
    (the wave cone) per sphere direction.

    Each direction is flagged by whether the factor's outermost sheet stays
    inside the reference's outermost sheet (propagation no faster than the
    reference).
    """
    import numpy as np
    frame = _orthogonal_frame(tau)
    restrictions = [_line_restriction(_specialize(poly, params), tau, frame)
                    for poly in (p, reference)]
    table = rational_directions(n, seed)
    all_roots, ref_roots = (_real_sheets(rows, tol)
                            for rows in _line_coefficients(restrictions, table))
    within = [max(map(abs, roots), default=0.0) <= max(map(abs, rr), default=0.0) + 1e-7
              for roots, rr in zip(all_roots, ref_roots)]
    dirs_f = [tuple(num / den for num, den in row) for row in table]
    return ConeSamples(factor_id, tuple(float(t) for t in tau), dirs_f, all_roots,
                       ref_roots, within)


def _real_sheets(rows: np.ndarray, tol: float) -> List[List[float]]:
    """Per coefficient row, the sorted real parts of the roots that are
    real within tol*(1+|Re|)."""
    import numpy as np
    roots, count = _line_roots(rows)
    keep = np.abs(roots.imag) <= tol * (1.0 + np.abs(roots.real))
    return [sorted(roots.real[k, :c][keep[k, :c]].tolist()) for k, c in enumerate(count)]


def _fmt_cov(tau) -> str:
    return "(" + ",".join(str(t) for t in tau) + ")"
