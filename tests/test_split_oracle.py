"""sympy as an independent oracle for the exact split of factors of degree
>= 3 (`hyperbolicity_auto`), for `Poly.root` and for the rational roots of
the line restrictions.

The inputs are drawn from seeded generators: rational linear forms times
light cones under random rational frames, times positive-definite sums of
squares (the sweep's `ctrl-flow-sq` controls), and light cones to the power
2 and 3, at tau = (1, 0, 0, 0), at random rational tau, and at tau with
components of 40 to 45 digits.
"""

import random
from fractions import Fraction as Fr

import pytest

from lops.hyperbolic import _rational_roots, hyperbolicity_auto
from lops.poly import NotPerfectPowerError, Poly, XI

sp = pytest.importorskip("sympy")

X = [Poly.atom(a) for a in XI]
SX = sp.symbols("xi0:4")
DT = (Fr(1), Fr(0), Fr(0), Fr(0))


def to_sympy(text: str):
    return sp.expand(sp.sympify(text.replace("^", "**"), locals=dict(zip(map(str, SX), SX))))


def rat(rng, lo, hi, den):
    return Fr(rng.randint(lo, hi), den)


def linear(rng, tau):
    """A rational linear form that does not vanish at tau."""
    while True:
        w = [rat(rng, -6, 6, rng.choice((1, 2, 3, 8))) for _ in range(4)]
        if sum(a * b for a, b in zip(w, tau)):
            return sum((X[i] * w[i] for i in range(4)), Poly.zero())


def light(rng):
    """y0^2 - y1^2 - y2^2 - y3^2 for y = L xi with a nonsingular rational L
    whose column 0 keeps (1, 0, 0, 0) timelike."""
    while True:
        L = [[rat(rng, -4, 4, 8) for _ in range(4)] for _ in range(4)]
        L[0][0] = rat(rng, 4, 8, 4)
        if sp.Matrix(L).det() == 0:
            continue
        ys = [sum((X[j] * L[i][j] for j in range(4)), Poly.zero()) for i in range(4)]
        return ys[0] ** 2 - ys[1] ** 2 - ys[2] ** 2 - ys[3] ** 2


def sum_of_squares(rng):
    """Positive definite on xi0 and two other coordinates: not hyperbolic."""
    coords = [0] + sorted(rng.sample(range(1, 4), 2))
    return sum((X[j] ** 2 * rat(rng, 1, 5, rng.choice((1, 2))) for j in coords), Poly.zero())


def value(p, tau):
    return p.eval(dict(zip(XI, tau)))


def long_tau(rng, nonzero):
    """tau with `nonzero` leading components of 40 to 45 digits over a small
    denominator, the rest 0."""
    return tuple(Fr(rng.choice((1, -1)) * rng.randrange(10 ** 40, 10 ** 45),
                    rng.choice((1, 3, 7))) if i < nonzero else Fr(0) for i in range(4))


def case(seed, nonzero=0):
    """(factor, tau, whether it is hyperbolic at tau) for one seed; tau has
    `nonzero` long components when `nonzero` is not 0."""
    rng = random.Random(seed)
    tau = DT
    if nonzero:
        tau = long_tau(rng, nonzero)
    elif seed % 2:
        tau = tuple(rat(rng, -3, 3, 2) for _ in range(4))
    kind = ("flow-light", "flow-sq", "light2", "light3")[seed % 4]
    if kind == "flow-sq":
        while True:
            sq = sum_of_squares(rng)
            if value(sq, tau):
                return linear(rng, tau) * sq, tau, False
    while True:
        cone = light(rng)
        if value(cone, tau):
            break
    hyperbolic = value(cone, tau) > 0
    if kind == "flow-light":
        return linear(rng, tau) * cone, tau, hyperbolic
    return Poly.constant(rat(rng, 1, 9, 4)) * cone ** int(kind[-1]), tau, hyperbolic


def leaves(verdict):
    """(degree, verdict) of every unsplit part, once per multiplicity."""
    if verdict["method"] == "power":
        return leaves(verdict["parts"][0]) * verdict["exponent"]
    if verdict["method"] == "product":
        return [leaf for part in verdict["parts"] for leaf in leaves(part)]
    poly = sp.Poly(to_sympy(verdict["factor"]), *SX)
    return [(poly.total_degree(), verdict["verdict"])]


def check_parts(verdict, expr, tau):
    """Each split's rendered parts multiply back to its polynomial: exactly
    for a product, up to the value at tau for a power."""
    parts = [to_sympy(p["factor"]) for p in verdict.get("parts", ())]
    if verdict["method"] == "product":
        assert sp.expand(sp.Mul(*parts) - expr) == 0
    elif verdict["method"] == "power":
        part, = parts
        at_tau = expr.subs(dict(zip(SX, map(sp.Rational, tau))))
        assert sp.expand(part ** verdict["exponent"] * at_tau - expr) == 0
    for p, e in zip(verdict.get("parts", ()), parts):
        check_parts(p, e, tau)


@pytest.mark.parametrize("seed", range(24))
def test_split_against_factor_list(seed):
    check_against_factor_list(*case(seed))


# flow-light and flow-sq at tau with one long component, and flow-light at
# tau with two
@pytest.mark.parametrize("seed, nonzero", [(300, 1), (301, 1), (304, 2)])
def test_split_at_long_tau_against_factor_list(seed, nonzero):
    f, tau, hyperbolic = case(seed, nonzero)
    assert min(len(str(abs(t.numerator))) for t in tau if t) >= 40
    check_against_factor_list(f, tau, hyperbolic)


def check_against_factor_list(f, tau, hyperbolic):
    verdict = hyperbolicity_auto(f, tau).to_json()
    assert verdict["method"] in ("product", "power")
    expr = to_sympy(f.render())
    check_parts(verdict, expr, tau)
    _, factors = sp.factor_list(expr, *SX)
    found = leaves(verdict)
    assert sorted(d for d, _ in found) == sorted(
        sp.Poly(g, *SX).total_degree() for g, k in factors for _ in range(k))
    parts = [v for _, v in found]
    want = ("not-hyperbolic" if "not-hyperbolic" in parts
            else "hyperbolic" if set(parts) == {"hyperbolic"} else "inconclusive")
    assert verdict["verdict"] == want
    assert verdict["verdict"] == ("hyperbolic" if hyperbolic else "not-hyperbolic")


@pytest.mark.parametrize("seed", range(8))
def test_root_round_trips_and_refuses_a_non_power(seed):
    rng = random.Random(100 + seed)
    square = X[rng.randrange(4)] ** 2 * rat(rng, 1, 5, 3)
    g = linear(rng, DT) * linear(rng, DT) + square
    for k in (2, 3):
        root = (g ** k).root(k)
        assert sp.expand(to_sympy(root.render()) ** k - to_sympy((g ** k).render())) == 0
        assert root == g or (k == 2 and root == -g)
        with pytest.raises(NotPerfectPowerError) as err:
            (g ** k * linear(rng, DT)).root(k)
        assert err.value.k == k and not err.value.remainder.is_zero()


@pytest.mark.parametrize("seed", range(20))
def test_rational_roots_of_a_line(seed):
    # rational linear factors, some repeated, times a quadratic whose roots
    # are mostly irrational
    rng = random.Random(200 + seed)
    s = sp.Symbol("s")
    expr = sp.Integer(rng.choice((1, -2, 3)))
    for _ in range(rng.randint(1, 4)):
        expr *= (rng.randint(1, 9) * s - rng.randint(-9, 9)) ** rng.randint(1, 2)
    expr *= s ** 2 + rng.randint(-3, 3) * s - rng.choice((2, 3, 5, 7))
    coeffs = [int(c) for c in sp.Poly(expr, s).all_coeffs()]
    want = sorted(Fr(int(r.p), int(r.q)) for r in sp.roots(sp.Poly(expr, s), filter="Q"))
    assert _rational_roots(coeffs) == want
