import math
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from lops.poly import (MAX_DEGREE, DegreeOverflowError, MissingAtomError,
                       NotDivisibleError, NotPerfectPowerError, NotPerfectSquareError, Poly,
                       PolyError, XI, COLUMN_CHUNK, eval_columns, slot)
from lops.dsl import parse_poly, parse_system

X0, X1, X2, X3 = (Poly.atom(a) for a in XI)
F = Poly.atom("F")
Q = Poly.atom("q")

ATOM_POOL = list(XI) + ["F", "q", "u0", "gm1"]


@st.composite
def polys(draw, max_terms=5, max_exp=3):
    n = draw(st.integers(0, max_terms))
    p = Poly.zero()
    for _ in range(n):
        coeff = Fr(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        term = Poly.constant(coeff)
        for a in draw(st.lists(st.sampled_from(ATOM_POOL), max_size=3)):
            term = term * Poly.atom(a) ** draw(st.integers(1, max_exp))
        p = p + term
    return p


def assignments(rng, atoms):
    return {a: Fr(rng.randint(-9, 9), rng.randint(1, 5)) for a in atoms}


class TestRingBasics:
    def test_difference_of_squares(self):
        assert (X0 + X1) * (X0 - X1) == X0 ** 2 - X1 ** 2

    def test_additive_identity(self):
        p = 3 * X0 * X1 - Poly.constant(Fr(1, 2))
        assert p + Poly.zero() == p

    def test_parameter_cube(self):
        # expand (F+q)*(F+q)^2 and compare term maps against the cube
        lhs = (F + Q) * (F + Q) ** 2
        expected = (F ** 3 + 3 * F ** 2 * Q + 3 * F * Q ** 2 + Q ** 3)
        assert lhs == expected
        assert dict(lhs.terms()) == dict(expected.terms())

    @given(polys(), polys(), polys())
    @settings(max_examples=150, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(polys(), polys())
    @settings(max_examples=150, deadline=None)
    def test_exact_div_roundtrip(self, a, b):
        if b.is_zero():
            return
        assert (a * b).exact_div(b) == a

    @given(polys())
    @settings(max_examples=50, deadline=None)
    def test_square_root_roundtrip(self, a):
        sq = a * a
        root = sq.sqrt()
        assert root * root == sq


class TestEval:
    def test_simple_point(self):
        p = X0 ** 2 - X1 ** 2
        assert p.eval({"xi0": Fr(3), "xi1": Fr(2)}) == 5

    def test_constant_ignores_assignment(self):
        assert Poly.constant(Fr(7, 3)).eval({}) == Fr(7, 3)

    def test_missing_atom(self):
        with pytest.raises(MissingAtomError):
            (X0 + F).eval({"xi0": Fr(1)})

    def test_eval_is_ring_homomorphism(self):
        rng = random.Random(42)
        a = X0 * F - 2 * X1 ** 2 + Poly.constant(Fr(1, 3))
        b = Q * X2 + X0 * X1 - F ** 2
        atoms = a.atoms() | b.atoms()
        for _ in range(1000):
            sigma = assignments(rng, atoms)
            assert (a * b).eval(sigma) == a.eval(sigma) * b.eval(sigma)
            assert (a + b).eval(sigma) == a.eval(sigma) + b.eval(sigma)


    @given(st.lists(polys(max_exp=4), max_size=3),
           st.permutations([1, 2, 3, 5, 7, 11, 13, 17]),
           st.lists(st.integers(-9, 9), min_size=len(ATOM_POOL), max_size=len(ATOM_POOL)))
    @settings(max_examples=100, deadline=None)
    def test_common_denominator_values(self, ps, dens, nums):
        # pairwise-coprime denominators make the common denominator their
        # product; numerators include zero, negatives and shared factors
        ps = ps + [Poly.zero(), Poly.constant(Fr(-5, 3)) + X0 * X1 ** 2 - F + Q ** 4 * X2]
        point = {a: Fr(n, d) for a, n, d in zip(ATOM_POOL, nums, dens)}
        expected = [sum((c * math.prod(point[a] ** e for a, e in mono) for mono, c in p.terms()),
                        Fr(0))
                    for p in ps]
        (columns,) = eval_columns(ps, ATOM_POOL, [list(zip(nums, dens))])
        row = [(num, den) for (num,), (den,) in columns]
        assert all(den > 0 for _, den in row)
        assert [Fr(num, den) for num, den in row] == expected
        assert [num / den for num, den in row] == [float(v) for v in expected]
        assert [p.eval(point) for p in ps] == expected

    @given(st.lists(polys(), max_size=4),
           st.sampled_from([1, 7, COLUMN_CHUNK - 1, COLUMN_CHUNK, COLUMN_CHUNK + 1,
                            2 * COLUMN_CHUNK + 13]),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_eval_columns_matches_substitution(self, ps, count, rng):
        # zero, constant and inhomogeneous polynomials (several degree
        # groups) beside random ones, each with only some of the atoms; one
        # object listed twice, and the same list again under another atom
        # order, since every call plans its polynomials afresh
        twice = X0 ** 3 * F - Fr(2, 5) * X1 + Poly.constant(4)
        ps = ps + [Poly.zero(), Poly.constant(Fr(-7, 3)), twice, Q ** 2 * X2 + X3, twice]
        for _ in range(2):
            atoms = list(ATOM_POOL)
            rng.shuffle(atoms)
            points = [[(rng.randint(-9, 9), rng.randint(1, 12)) for _ in atoms]
                      for _ in range(count)]
            chunks = list(eval_columns(ps, atoms, points))
            sizes = [len(chunk[0][0]) for chunk in chunks]
            assert sum(sizes) == count and all(size == COLUMN_CHUNK for size in sizes[:-1])
            rows = [list(row) for chunk in chunks
                    for row in zip(*(zip(nums, dens) for nums, dens in chunk))]
            for point, row in zip(points, rows):
                consts = {a: Poly.constant(Fr(n, d)) for a, (n, d) in zip(atoms, point)}
                assert ([Fr(n, d) for n, d in row]
                        == [p.substitute(consts).as_constant() for p in ps])
                assert all(d > 0 for _, d in row)

    @pytest.mark.parametrize("points", [[], [[(1, 2)]] * (COLUMN_CHUNK + 1)])
    def test_eval_columns_missing_atom(self, points):
        # raised at the call, before any chunk is drawn
        with pytest.raises(MissingAtomError, match="no value for atom F"):
            eval_columns([X0, X0 + F], ["xi0"], points)

    def test_eval_columns_without_points(self):
        assert list(eval_columns([X0, Poly.zero()], ["xi0"], [])) == []

    @given(polys(max_terms=4), st.lists(polys(max_terms=4), min_size=1, max_size=4),
           st.lists(st.integers(-5, 5), min_size=3, max_size=3),
           st.sampled_from([1, 3, COLUMN_CHUNK - 1, COLUMN_CHUNK, COLUMN_CHUNK + 1]),
           st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_eval_columns_shared_products(self, factor, ps, coeffs, count, rng):
        # every term of a call goes into one trie of products: a common
        # factor times each polynomial shares prefixes across polynomials,
        # x0*x1 ends at an inner node below x0*x1*x2 and x0*x1*x2*F, one
        # monomial sits in several polynomials with different coefficients,
        # and constants and zero end at the root or nowhere
        a, b, c = coeffs
        x01 = X0 * X1
        ps = [factor * p for p in ps] + [
            a * x01 + b * x01 * X2 + c * x01 * X2 * F, b * x01 * X2 - a, c * x01 * X2 + x01,
            Poly.constant(Fr(a, 7)), Poly.zero()]
        points = [[(rng.randint(-9, 9), rng.randint(1, 12)) for _ in ATOM_POOL]
                  for _ in range(count)]
        rows = [row for chunk in eval_columns(ps, ATOM_POOL, points)
                for row in zip(*(zip(nums, dens) for nums, dens in chunk))]
        assert len(rows) == count
        for point, row in zip(points, rows):
            value = {atom: Fr(n, d) for atom, (n, d) in zip(ATOM_POOL, point)}
            assert [Fr(n, d) for n, d in row] == [
                sum((k * math.prod(value[atom] ** e for atom, e in mono) for mono, k in p.terms()),
                    Fr(0))
                for p in ps]

    def test_eval_deep_monomial(self):
        # a monomial of 300 atoms is a trie path 300 nodes deep, walked
        # without recursion; a second path differs from it in its first
        # field only, a third term ends at depth 1
        atoms = [f"deep{i}" for i in range(300)]
        mono = Poly.monomial(3, [(atom, 1) for atom in atoms])
        ps = [mono, mono * Poly.atom(atoms[0]) + Poly.atom(atoms[-1]) ** 2]
        value = {atom: Fr(i % 7 - 3 or 5, i % 4 + 1) for i, atom in enumerate(atoms)}
        prod = 3 * math.prod(value.values())
        expected = [prod, prod * value[atoms[0]] + value[atoms[-1]] ** 2]
        assert [p.eval(value) for p in ps] == expected
        point = [(v.numerator, v.denominator) for v in value.values()]
        (columns,) = eval_columns(ps, atoms, [point] * 3)
        assert [[Fr(n, d) for n, d in zip(nums, dens)] for nums, dens in columns] == [
            [v] * 3 for v in expected]


class TestDivision:
    def test_exact_quotient(self):
        assert (X0 ** 2 - X1 ** 2).exact_div(X0 - X1) == X0 + X1

    def test_not_divisible_with_witness(self):
        with pytest.raises(NotDivisibleError) as err:
            (X0 ** 2).exact_div(X1)
        assert not err.value.remainder.is_zero()

    def test_constant_divisor(self):
        assert (2 * X0).exact_div(Poly.constant(2)) == X0

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            X0.exact_div(Poly.zero())


class TestSqrt:
    def test_zero(self):
        assert Poly.zero().sqrt() == Poly.zero()

    def test_perfect_square(self):
        p = (2 * X0 * F - 3 * X1 + Q) ** 2
        root = p.sqrt()
        assert root * root == p

    def test_negative_constant(self):
        with pytest.raises(NotPerfectSquareError):
            Poly.constant(-4).sqrt()

    def test_obstruction_reported(self):
        with pytest.raises(NotPerfectSquareError) as err:
            (X0 ** 2 + X1).sqrt()
        assert not err.value.remainder.is_zero()


class TestRoot:
    @given(polys(max_terms=4, max_exp=2), st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, a, k):
        root = (a ** k).root(k)
        assert root ** k == a ** k
        assert root == a or (k % 2 == 0 and root == -a)

    @given(polys(max_terms=3, max_exp=2), st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_non_power_refused(self, a, k):
        # a^k * (xi0 + 2 xi1) is a k-th power only if xi0 + 2 xi1 were one
        if a.is_zero():
            return
        with pytest.raises(NotPerfectPowerError) as err:
            (a ** k * (X0 + 2 * X1)).root(k)
        assert err.value.k == k
        assert isinstance(err.value, NotPerfectSquareError) == (k == 2)

    def test_odd_root_keeps_the_sign(self):
        assert (-8 * X0 ** 3 * F ** 6).root(3) == -2 * X0 * F ** 2
        assert Poly.constant(Fr(-27, 64)).root(3) == Poly.constant(Fr(-3, 4))
        with pytest.raises(NotPerfectPowerError):
            Poly.constant(-16).root(4)

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            X0.root(0)


class TestDegrees:
    def test_homogeneous_quadratic(self):
        p = X0 * X1 + X2 ** 2
        assert p.homogeneous_degree_in(XI) == 2

    def test_quartic_with_parameters(self):
        p = F * X0 ** 4 + (F + Q) * X0 ** 2 * X1 ** 2 + Q * X1 ** 4
        assert p.homogeneous_degree_in(XI) == 4

    def test_inhomogeneous_verdict(self):
        assert (X0 + X1 ** 2).homogeneous_degree_in(XI) is None

    @given(polys(), polys())
    @settings(max_examples=100, deadline=None)
    def test_homogeneity_adds_under_product(self, a, b):
        da, db = a.homogeneous_degree_in(XI), b.homogeneous_degree_in(XI)
        if da is None or db is None or a.is_zero() or b.is_zero():
            return
        assert (a * b).homogeneous_degree_in(XI) == da + db

    def test_substitute_composes(self):
        p = X0 ** 2 + F * X1
        q = p.substitute({"xi0": X1 + X2, "F": Poly.constant(2)})
        assert q == (X1 + X2) ** 2 + 2 * X1


class TestRenderParse:
    @given(polys())
    @settings(max_examples=150, deadline=None)
    def test_roundtrip(self, p):
        assert parse_poly(p.render(), p.atoms()) == p

    def test_canonical_text_is_deterministic(self):
        a = X0 * X1 + 2 * X2 - Poly.constant(Fr(1, 2))
        b = -Poly.constant(Fr(1, 2)) + X0 * X1 + 2 * X2
        assert a.render() == b.render()


def test_atom_order_is_canonical():
    # xi0..xi3 by index, then the parameters by name (uppercase first), not
    # in declaration or slot order; xi and xi10 are parameters
    text = "z*xi0 + F*xi1 + _a*xi10*xi2 + Zeta*xi3 + xi*xi0^2 + xi10 + F*z"
    p = parse_system("unknown w multiplicity 1 index 0\n"
                     "equation e multiplicity 1 index 0\n"
                     + "".join(f"param {n}\n" for n in ("z", "xi10", "Zeta", "_a", "xi", "F"))
                     + f"entry e[0] w[0] := {text}\n").entries[0].symbol
    assert p.render() == "xi0^2*xi + xi2*_a*xi10 + xi0*z + xi1*F + xi3*Zeta + F*z + xi10"
    assert dict(p.terms()) == {
        (("xi0", 2), ("xi", 1)): 1, (("xi2", 1), ("_a", 1), ("xi10", 1)): 1,
        (("xi0", 1), ("z", 1)): 1, (("xi1", 1), ("F", 1)): 1, (("xi3", 1), ("Zeta", 1)): 1,
        (("F", 1), ("z", 1)): 1, (("xi10", 1),): 1}
    assert p.leading() == ((("xi0", 2), ("xi", 1)), 1)


class TestContent:
    """The integer kernel keeps one rational content per polynomial."""

    def test_quotient_carries_rational_content(self):
        assert (X0 ** 2 - X1 ** 2).exact_div(2 * X0 - 2 * X1) == (X0 + X1) * Fr(1, 2)

    def test_non_integral_quotient_is_not_divisible(self):
        with pytest.raises(NotDivisibleError) as err:
            (X0 ** 2 + X1).exact_div(2 * X0)
        assert not err.value.remainder.is_zero()

    def test_terms_report_rational_coefficients(self):
        p = Fr(2, 3) * X0 * F - Fr(4, 9) * X1
        assert dict(p.terms()) == {((XI[0], 1), ("F", 1)): Fr(2, 3),
                                   ((XI[1], 1),): Fr(-4, 9)}

    def test_exponent_field_overflow_raises(self):
        half = X0 ** (MAX_DEGREE // 2 + 1)
        with pytest.raises(PolyError):
            half * half
        with pytest.raises(PolyError):
            X1 ** (MAX_DEGREE + 1)
        assert (X2 ** MAX_DEGREE).degree() == MAX_DEGREE

    def test_power_degree_checked_before_multiplying(self):
        # a 20001-term expansion would take minutes; the check takes none
        with pytest.raises(DegreeOverflowError, match="total degree 40000 exceeds"):
            (X0 ** 2 + X1) ** 20000
        assert Poly.zero() ** (MAX_DEGREE + 1) == Poly.zero()
        assert Poly.constant(2) ** (MAX_DEGREE + 1) == Poly.constant(2 ** (MAX_DEGREE + 1))


class TestSympyOracle:
    """sympy as an independent implementation of the same ring."""

    @staticmethod
    def to_sympy(p):
        sp = pytest.importorskip("sympy")
        return sp.Add(*(c * sp.Mul(*(sp.Symbol(a) ** e for a, e in mono))
                        for mono, c in p.terms()))

    @given(polys(), polys())
    @settings(max_examples=100, deadline=None)
    def test_product(self, a, b):
        sp = pytest.importorskip("sympy")
        assert sp.expand(self.to_sympy(a) * self.to_sympy(b) - self.to_sympy(a * b)) == 0

    @given(polys(max_terms=4, max_exp=2), polys(max_terms=3, max_exp=2))
    @settings(max_examples=100, deadline=None)
    def test_exact_division(self, a, b):
        sp = pytest.importorskip("sympy")
        if b.is_zero():
            return
        quotient = sp.cancel(self.to_sympy(a) / self.to_sympy(b))
        divisible = sp.fraction(quotient)[1].is_number
        try:
            q = a.exact_div(b)
        except NotDivisibleError:
            assert not divisible
        else:
            assert divisible and sp.expand(quotient - self.to_sympy(q)) == 0
        # and a multiple always divides back
        assert sp.expand(self.to_sympy((a * b).exact_div(b)) - self.to_sympy(a)) == 0

    @given(polys())
    @settings(max_examples=100, deadline=None)
    def test_render_parse_roundtrip(self, p):
        sp = pytest.importorskip("sympy")
        text = p.render()
        assert parse_poly(text, p.atoms()) == p
        parsed = sp.sympify(text.replace("^", "**"),
                            locals={a: sp.Symbol(a) for a in ATOM_POOL})
        assert sp.expand(parsed - self.to_sympy(p)) == 0


def test_atom_registry_is_thread_safe():
    """Concurrent first uses of atoms never give two atoms one exponent field."""
    import sys
    import threading

    from lops import poly

    own = [[f"_stress{t}_{k}" for k in range(500)] for t in range(8)]
    shared = [f"_stress_shared{k}" for k in range(500)]
    seen = {}

    def work(t):
        seen[t] = [Poly.atom(a) for a in own[t] + shared]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(old)
    atoms = [a for batch in own for a in batch] + shared
    offsets = [poly._OFFSETS[a] for a in atoms]
    assert len(set(offsets)) == len(atoms)
    assert all(poly._ATOMS[off // poly._BITS - 1] == a for a, off in zip(atoms, offsets))
    assert all(seen[t][500:] == seen[0][500:] for t in range(8))


def test_monomial_packs_one_term():
    m = Poly.monomial(Fr(-3, 2), [("xi0", 2), ("xi1", 1), ("xi0", 1), ("xi2", 0)])
    assert m == Fr(-3, 2) * X0 ** 3 * X1
    assert m.degree() == 4 and len(m) == 1
    assert Poly.monomial(0, [("xi0", 5)]).is_zero()
    assert Poly.monomial(7, []) == Poly.constant(7)
    with pytest.raises(DegreeOverflowError):
        Poly.monomial(1, [("xi0", 20000), ("xi1", 20000)])
    with pytest.raises(ValueError):
        Poly.monomial(1, [("xi0", -1)])


def test_slot_reserves_once():
    assert [slot(a) for a in XI] == [0, 1, 2, 3]
    first = slot("_slot_probe")
    assert first > 3 and slot("_slot_probe") == first
    assert slot("_slot_probe_next") == first + 1
