import random
import sys
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from lops import ens
from lops.hyperbolic import (DegreeMismatchError, FloatRangeError, LeadingCoefficientZeroError,
                             _limit_denominator, _line_coefficients,
                             _line_restriction, _line_roots,
                             _orthogonal_frame, _rational_roots, biquadratic_split, cone_sample,
                             gevrey_sigma, hyperbolicity_auto, hyperbolicity_linear,
                             hyperbolicity_quadratic, hyperbolicity_sampled,
                             quartic_from_coefficients, rational_directions,
                             rational_signature, sigma_json, sphere_directions)
from lops.poly import NotPerfectSquareError, Poly, XI
from lops.system import FactorClaim

X = [Poly.atom(a) for a in XI]
DT = [Fr(1), Fr(0), Fr(0), Fr(0)]
MINK = X[0] ** 2 - X[1] ** 2 - X[2] ** 2 - X[3] ** 2
FLOW_REST = X[0]


class TestLinear:
    def test_rest_flow_hyperbolic(self):
        v = hyperbolicity_linear(FLOW_REST, DT)
        assert v.hyperbolic and v.method == "linear-exact"

    def test_spatial_direction_not_hyperbolic(self):
        v = hyperbolicity_linear(X[1], DT)
        assert v.verdict == "not-hyperbolic"

    def test_random_boosts_always_hyperbolic(self):
        rng = random.Random(0)
        for _ in range(100):
            u = ens.random_boost(rng)
            p = sum((Poly.constant(u[i]) * X[i] for i in range(4)), Poly.zero())
            assert hyperbolicity_linear(p, DT).hyperbolic  # u0 >= 1 forces p(dt) != 0

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            hyperbolicity_linear(MINK, DT)


class TestQuadratic:
    def test_minkowski_cone(self):
        v = hyperbolicity_quadratic(MINK, DT)
        assert v.hyperbolic and v.method == "quadratic-signature"

    def test_definite_form_rejected(self):
        v = hyperbolicity_quadratic(X[0] ** 2 + X[1] ** 2, DT)
        assert v.verdict == "not-hyperbolic" and "inertia" in v.witness

    def test_wrong_time_direction(self):
        v = hyperbolicity_quadratic(MINK, [Fr(0), Fr(1), Fr(0), Fr(0)])
        assert v.verdict == "not-hyperbolic"

    def test_negated_cone_is_hyperbolic(self):
        # p and -p are hyperbolic together: the mostly-plus signature
        assert hyperbolicity_quadratic(-MINK, DT).verdict == "hyperbolic"
        v = hyperbolicity_quadratic(-MINK, [Fr(0), Fr(1), Fr(0), Fr(0)])
        assert v.verdict == "not-hyperbolic" and v.witness == "inertia (3,1)"
        # tau on the cone: neither sign of the form is positive there
        v = hyperbolicity_quadratic(-MINK, [Fr(1), Fr(1), Fr(0), Fr(0)])
        assert v.verdict == "not-hyperbolic"

    def test_singular_form_is_inconclusive(self):
        v = hyperbolicity_quadratic((X[0] - X[1]) ** 2, DT)
        assert v.method == "quadratic-signature" and v.verdict == "inconclusive"
        assert v.witness == "form is singular on its support (inertia 1,0,1)"

    def test_signature_function(self):
        assert rational_signature([[Fr(1), Fr(0)], [Fr(0), Fr(-1)]]) == (1, 1, 0)
        assert rational_signature([[Fr(0), Fr(1)], [Fr(1), Fr(0)]]) == (1, 1, 0)
        assert rational_signature([[Fr(2)]]) == (1, 0, 0)
        assert rational_signature([[Fr(0), Fr(0)], [Fr(0), Fr(0)]]) == (0, 0, 2)

    def test_parameterized_light_cone_at_random_states(self):
        rng = random.Random(1)
        from lops.ens import random_state, GI
        light = Poly.zero()
        for a in range(4):
            for b in range(4):
                light = light + Poly.atom(GI[a][b]) * X[a] * X[b]
        for _ in range(100):
            state = random_state(rng, max_entry=6)
            assign = {GI[a][b]: state.gi[a][b] for a in range(4) for b in range(4)}
            tau = state.u_lo  # timelike for this metric by construction
            assert hyperbolicity_quadratic(light, tau, assign).hyperbolic

    def test_split_factors_at_reference_values(self):
        A, B, C = ens.quartic_coefficients()
        mink = {ens.GM[i]: Fr(-1) for i in range(3)}
        consts = {ens.F_ATOM: Fr(1), ens.Q_ATOM: Fr(1, 2)}
        consts.update(mink)
        p1, p2 = biquadratic_split(A, B, C, consts)
        for p in (p1, p2):
            assert hyperbolicity_quadratic(p, DT, consts).hyperbolic


class TestSampled:
    def test_cubic_factor_manifestly_real(self):
        cubic = FLOW_REST * MINK
        v = hyperbolicity_sampled(cubic, DT, n_samples=10_000, tol=1e-9, seed=0)
        assert v.hyperbolic and v.worst_imag_ratio <= 1e-9

    def test_elliptic_quartic_rejected_with_witness(self):
        p = X[0] ** 2 + X[1] ** 2 + X[2] ** 2 + X[3] ** 2
        v = hyperbolicity_sampled(p, DT, n_samples=50)
        assert v.verdict == "not-hyperbolic" and v.witness

    def test_vanishing_leading_coefficient(self):
        v = hyperbolicity_sampled(X[1] * MINK, DT, n_samples=10, tol=1e-7, factor_id="f")
        assert v.factor_id == "f" and v.method == "vanishes-at-tau"
        assert v.verdict == "not-hyperbolic" and v.witness == "vanishes at tau=(1,0,0,0)"
        # no sample is drawn, so the JSON carries no sampling fields
        assert v.to_json() == {"factor": "f", "method": "vanishes-at-tau",
                               "verdict": "not-hyperbolic",
                               "witness": "vanishes at tau=(1,0,0,0)"}

    def test_auto_reports_vanishing_leading_coefficient(self):
        v = hyperbolicity_auto(X[1] * MINK, DT, n_samples=10)
        assert v.verdict == "not-hyperbolic" and v.method == "vanishes-at-tau"
        assert v.witness == "vanishes at tau=(1,0,0,0)"
        assert set(v.to_json()) == {"factor", "method", "verdict", "witness"}

    @pytest.mark.parametrize("check", [hyperbolicity_auto, hyperbolicity_sampled],
                             ids=["auto", "sampled"])
    @pytest.mark.parametrize("power", [1, 3])
    def test_factor_zero_at_the_assignment_vanishes(self, check, power):
        # a * xi0^power is the zero polynomial at a = 0, which vanishes at tau
        v = check(Poly.atom("a") * X[0] ** power, DT, {"a": Fr(0)}, n_samples=10,
                  factor_id="f")
        assert v.to_json() == {"factor": "f", "method": "vanishes-at-tau",
                               "verdict": "not-hyperbolic",
                               "witness": "vanishes at tau=(1,0,0,0)"}

    def test_agreement_with_closed_form_on_thousand_directions(self):
        # degree-2 factors certified by signature must also pass sampling
        for p in (MINK, Poly.constant(3) * MINK):
            exact = hyperbolicity_quadratic(p, DT)
            sampled = hyperbolicity_sampled(p, DT, n_samples=1000, tol=1e-9, seed=3)
            assert exact.hyperbolic and sampled.hyperbolic

    def test_deterministic_directions(self):
        assert sphere_directions(64, seed=5) == sphere_directions(64, seed=5)
        assert sphere_directions(64, seed=5) != sphere_directions(64, seed=6)


def _leaves(v):
    """The (method, verdict) pairs of a verdict tree's unsplit parts."""
    if not v.parts:
        return {(v.method, v.verdict)}
    return set().union(*(_leaves(p) for p in v.parts))


class TestExactSplit:
    """hyperbolicity_auto splits a factor of degree >= 3 exactly and
    certifies it from its parts' verdicts, with no sample drawn."""

    def test_flow_times_cone_is_a_product(self):
        v = hyperbolicity_auto(FLOW_REST * MINK, DT, factor_id="f")
        assert (v.factor_id, v.method, v.verdict) == ("f", "product", "hyperbolic")
        assert [(p.factor_id, p.method, p.verdict) for p in v.parts] == [
            ("xi0", "linear-exact", "hyperbolic"),
            ("xi0^2 - xi1^2 - xi2^2 - xi3^2", "quadratic-signature", "hyperbolic")]
        assert v.sample_count == 0
        assert v.to_json()["parts"][0] == {"factor": "xi0", "method": "linear-exact",
                                           "verdict": "hyperbolic"}

    @pytest.mark.parametrize("k", [2, 3])
    def test_repeated_cone_is_a_power(self, k):
        # the float screen split these double and triple roots into complex pairs
        v = hyperbolicity_auto(Poly.constant(Fr(-3, 2)) * MINK ** k, DT)
        assert (v.method, v.exponent, v.verdict) == ("power", k, "hyperbolic")
        part, = v.parts
        assert (part.method, part.verdict) == ("quadratic-signature", "hyperbolic")
        assert v.to_json()["exponent"] == k

    def test_boosted_product_under_a_boosted_tau(self):
        v = hyperbolicity_auto(FLOW_BOOSTED * MINK, BOOST)
        assert v.method == "product" and v.hyperbolic
        assert [p.method for p in v.parts] == ["linear-exact", "quadratic-signature"]

    def test_repeated_linear_factor_recurses(self):
        v = hyperbolicity_auto(FLOW_BOOSTED ** 2 * MINK, DT)
        assert v.method == "product" and v.hyperbolic
        assert [p.method for p in v.parts] == ["linear-exact", "product"]

    def test_product_with_a_definite_part_is_not_hyperbolic(self):
        sq = X[0] ** 2 + 2 * X[1] ** 2 + Poly.constant(Fr(1, 2)) * X[3] ** 2
        v = hyperbolicity_auto((X[0] - 3 * X[2]) * sq, DT)
        assert v.method == "product" and v.verdict == "not-hyperbolic"
        lin, quad = v.parts
        assert lin.hyperbolic
        assert quad.verdict == "not-hyperbolic" and quad.witness == "inertia (3,0)"

    def test_product_with_an_inconclusive_part_is_inconclusive(self):
        # (xi0 - xi1)^2 + xi2^2 has no rational linear factor and is singular
        v = hyperbolicity_auto(X[0] * ((X[0] - X[1]) ** 2 + X[2] ** 2), DT)
        assert v.method == "product" and v.verdict == "inconclusive"
        assert [p.verdict for p in v.parts] == ["hyperbolic", "inconclusive"]

    @pytest.mark.parametrize("form, method", [
        pytest.param((X[0] - X[1]) ** 2, "power", id="square"),
        pytest.param((X[0] - X[1]) * (X[0] - X[2]), "product", id="two-forms"),
        pytest.param(X[0] * (X[0] - X[1]) ** 2, "product", id="form-times-square"),
    ])
    def test_singular_quadratic_is_split(self, form, method):
        # each quadratic here is singular on its support, which the signature
        # test alone reads as inconclusive
        v = hyperbolicity_auto(form, DT)
        assert (v.method, v.verdict) == (method, "hyperbolic")
        assert _leaves(v) == {("linear-exact", "hyperbolic")}

    def test_product_of_twelve_rational_forms_is_hyperbolic(self):
        # the last quotient is a product of two linear forms, singular on its
        # four-dimensional support
        p = Poly.one()
        for k in range(1, 13):
            p = p * (X[0] + k * X[1] - Fr(k * k % 7, k + 1) * X[2] + (k % 3) * X[3])
        v = hyperbolicity_auto(p, DT)
        assert (v.method, v.verdict) == ("product", "hyperbolic")
        assert _leaves(v) == {("linear-exact", "hyperbolic")}

    def test_product_read_over_more_than_one_column_chunk(self):
        # degree 21: the five lines' 22 points each fill more than one
        # COLUMN_CHUNK of eval_columns
        flow = 3 * X[0] - Fr(1, 2) * X[1] + Fr(2, 3) * X[3]
        v = hyperbolicity_auto(flow * MINK ** 10, DT)
        assert (v.method, v.verdict) == ("product", "hyperbolic")
        lin, power = v.parts
        assert (lin.factor_id, lin.method) == ("18*xi0 - 3*xi1 + 4*xi3", "linear-exact")
        # the least exponent first: light^10 = (light^5)^2
        assert (power.method, power.exponent, power.verdict) == ("power", 2, "hyperbolic")
        assert [(p.method, p.exponent) for p in power.parts] == [("power", 5)]

    def test_singular_quadratic_without_a_rational_split_stays_inconclusive(self):
        # (xi0 - xi2)^2 - 2*(xi1 - xi2)^2 splits only over Q(sqrt 2)
        v = hyperbolicity_auto((X[0] - X[2]) ** 2 - 2 * (X[1] - X[2]) ** 2, DT)
        assert (v.method, v.verdict) == ("quadratic-signature", "inconclusive")
        assert v.witness == "form is singular on its support (inertia 1,1,1)"
        assert v.parts == ()

    def test_unsplittable_factor_falls_back_to_the_screen(self):
        # t^3 - 3t - 1 is irreducible with three real roots: no power and no
        # rational linear factor, but hyperbolic
        p = X[0] ** 3 - 3 * X[0] * X[1] ** 2 - X[1] ** 3
        v = hyperbolicity_auto(p, DT, n_samples=200)
        assert v.method == "sampled" and v.hyperbolic and v.sample_count == 200
        v = hyperbolicity_auto(LINE_CASES["non-hyperbolic-cubic"], DT, n_samples=200)
        assert v.method == "sampled" and v.verdict == "not-hyperbolic"

    def test_rational_roots_are_exact_and_distinct(self):
        # (2s - 1)^2 (3s + 4) (s^2 - 2): a double root, a simple one and two irrational
        c = [1]
        for factor in ([2, -1], [2, -1], [3, 4], [1, 0, -2]):
            c = [sum(c[i] * factor[j - i] for i in range(len(c)) if 0 <= j - i < len(factor))
                 for j in range(len(c) + len(factor) - 1)]
        assert _rational_roots(c) == [Fr(-4, 3), Fr(1, 2)]
        assert _rational_roots([1, 0, 1]) == []
        assert _rational_roots([5, 0]) == [Fr(0)]


class TestBiquadraticSplit:
    def test_repaired_table_splits_exactly(self):
        A, B, C = ens.CLAIMED_QUARTIC_REPAIRED
        p1, p2 = biquadratic_split(A, B, C)
        quartic = quartic_from_coefficients(A, B, C)
        # P1*P2 = 4A*P, checked by exact division
        assert (p1 * p2).exact_div(4 * A) == quartic

    def test_derived_table_degenerates_to_double_cone(self):
        A, B, C = ens.quartic_coefficients()
        p1, p2 = biquadratic_split(A, B, C)
        assert p1 == p2
        assert (p1 * p2).exact_div(4 * A) == quartic_from_coefficients(A, B, C)

    def test_verbatim_table_obstruction(self):
        A, B, C = ens.CLAIMED_QUARTIC
        with pytest.raises(NotPerfectSquareError) as err:
            biquadratic_split(A, B, C)
        assert not err.value.remainder.is_zero()

    def test_toy_negative_discriminant(self):
        with pytest.raises(NotPerfectSquareError):
            biquadratic_split(Poly.one(), Poly.zero(), Poly.one())

    def test_zero_leading_coefficient(self):
        with pytest.raises(LeadingCoefficientZeroError):
            biquadratic_split(Poly.zero(), X[1], X[2] ** 2)


class TestGevrey:
    def _claim(self, count):
        return FactorClaim(Poly.one(), ((MINK, count),))

    def test_reference_count(self):
        claim = ens.reference_factor_claim()
        assert claim.factor_count() == 24
        assert gevrey_sigma(claim) == Fr(24, 23)

    def test_single_factor_is_sobolev(self):
        assert gevrey_sigma(self._claim(1)) is None
        assert sigma_json(None) == "sobolev"

    def test_two_factors(self):
        assert gevrey_sigma(self._claim(2)) == 2

    def test_invariant_under_reordering(self):
        rng = random.Random(9)
        base = [(MINK, 14), (FLOW_REST, 6), (FLOW_REST * MINK, 2), (MINK, 2)]
        for _ in range(10):
            rng.shuffle(base)
            assert gevrey_sigma(FactorClaim(Poly.one(), tuple(base))) == Fr(24, 23)


class TestConeSamples:
    def test_light_cone_roots_unit(self):
        samples = cone_sample(MINK, DT, n=100, seed=0, reference=MINK)
        assert len(samples.roots) == 100
        for roots in samples.roots:
            assert len(roots) == 2
            assert abs(roots[0] + 1) < 1e-6 and abs(roots[1] - 1) < 1e-6

    def test_flow_factor_single_zero_root(self):
        samples = cone_sample(FLOW_REST, DT, n=50, seed=0, reference=MINK)
        for roots in samples.roots:
            assert len(roots) == 1 and abs(roots[0]) < 1e-12

    def test_reference_containment_flag(self):
        samples = cone_sample(FLOW_REST, DT, n=50, seed=0, reference=MINK)
        assert samples.all_within_reference is True

    def test_csv_shape(self):
        samples = cone_sample(MINK, DT, n=7, seed=0, reference=MINK)
        lines = samples.csv_lines()
        assert lines[0] == "dir_x,dir_y,dir_z,roots"
        assert len(lines) == 8

    def test_values_past_the_float_range_are_named(self):
        # each exact value is rounded as float(Fraction) rounds it, up to the
        # largest float; past it, FloatRangeError names what overflowed
        big = Fr(10) ** 400
        with pytest.raises(FloatRangeError, match="^a line coefficient of m is beyond"):
            cone_sample(MINK, [big, 0, 0, 0], n=3, reference=MINK, factor_id="m")
        with pytest.raises(FloatRangeError, match="^a line coefficient of c is beyond"):
            hyperbolicity_sampled(X[1] ** 3 - X[0] ** 3, [big, 0, 0, 0], n_samples=3,
                                  factor_id="c")
        # xi2 along eta + s*tau has the coefficients tau2 and eta2; at this tau
        # the frame is e1, e2, e3 and the only coefficient is eta2: only tau is past
        with pytest.raises(FloatRangeError, match="^tau is beyond the float range$"):
            cone_sample(X[2], [big, 0, 0, 0], n=3, reference=X[2])
        top = Fr(sys.float_info.max)
        assert cone_sample(X[2], [top, 0, 1, 0], n=3, reference=X[2]).tau == (
            sys.float_info.max, 0.0, 1.0, 0.0)
        # a nonzero value that rounds to 0.0 is below the range: MINK(tau) is
        # the s^2 coefficient, and without it each line would lose its roots
        tiny = 1 / big
        with pytest.raises(FloatRangeError, match="^a line coefficient of m is below"):
            cone_sample(MINK, [tiny, 0, 0, 0], n=3, reference=MINK, factor_id="m")
        with pytest.raises(FloatRangeError, match="^tau is below the float range$"):
            cone_sample(X[2], [tiny, 0, 0, 0], n=3, reference=X[2])
        least = Fr(5e-324)
        assert cone_sample(X[2], [least, 0, 0, 0], n=3, reference=X[2]).tau == (
            5e-324, 0.0, 0.0, 0.0)
        # the frame is not normalized: against tau = (10^400, 0, 1, 0) its first
        # vector has the xi2 entry -10^400/(10^800 + 1), and on a direction
        # whose third coordinate is 0, eta2 is that small
        with pytest.raises(FloatRangeError, match="^a line coefficient of the factor is below"):
            cone_sample(X[2], [big, 0, 1, 0], n=3, reference=X[2])


# -- the batched direction path against per-direction references ----------------

BOOST = [Fr(5, 4), Fr(3, 4), Fr(0), Fr(0)]   # unit timelike for MINK
FLOW_BOOSTED = Poly.constant(Fr(5, 4)) * X[0] - Poly.constant(Fr(3, 4)) * X[1]
LINE_CASES = {
    "flow-light": FLOW_BOOSTED * MINK,
    "light2": MINK ** 2,
    "light3": MINK ** 3,
    "non-hyperbolic-cubic": X[0] ** 3 + X[0] * X[1] ** 2 - X[2] ** 3,
    "xi0-light": X[0] * MINK,   # at DT every line has the root s = 0
}


def exact_line(q, tau, eta):
    """Exact coefficients (descending) of s -> q(eta + s*tau), by univariate
    convolution over the terms of q."""
    total = [Fr(0)] * (q.degree() + 1)
    for mono, c in q.terms():
        line = [c]  # ascending in s
        for atom, e in mono:
            a, b = eta[XI.index(atom)], Fr(tau[XI.index(atom)])
            for _ in range(e):
                line = [(line[k] * a if k < len(line) else 0) + (line[k - 1] * b if k else 0)
                        for k in range(len(line) + 1)]
        for k, v in enumerate(line):
            total[k] += v
    return total[::-1]


def reference_lines(q, tau, n, seed):
    """Per direction of the table: (exact coefficient floats, np.roots)."""
    frame = _orthogonal_frame(tau)
    out = []
    for row in rational_directions(n, seed):
        x, y, z = (Fr(a, b) for a, b in row)
        eta = [x * frame[0][i] + y * frame[1][i] + z * frame[2][i] for i in range(4)]
        floats = [float(c) for c in exact_line(q, tau, eta)]
        out.append((floats, np.roots(floats)))
    return out


def assert_same_roots(ours, ref):
    ours, ref = np.asarray(ours, dtype=complex), np.asarray(ref, dtype=complex)
    assert ours.tobytes() == ref.tobytes(), (ours, ref)


class TestDirectionTable:
    @given(st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 10 ** 7))
    @example(0.5, 1)    # a tie between the bounds, which only max_den 1 allows
    @example(-2.5, 1)
    def test_limit_denominator_matches_fraction(self, x, max_den):
        f = Fr(x).limit_denominator(max_den)
        assert _limit_denominator(x, max_den) == (f.numerator, f.denominator)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_table_matches_definition(self, seed):
        table = rational_directions(10_000, seed)
        expected = [tuple((f.numerator, f.denominator)
                          for f in (Fr(c).limit_denominator(4096) for c in d))
                    for d in sphere_directions(10_000, seed)]
        assert list(table) == expected
        assert rational_directions(10_000, seed) is table

    def test_no_direction_is_an_error(self):
        for n in (0, -5):
            with pytest.raises(ValueError):
                rational_directions(n)
        with pytest.raises(ValueError):
            hyperbolicity_sampled(LINE_CASES["non-hyperbolic-cubic"], DT, n_samples=0)


class TestBatchedRoots:
    @pytest.mark.parametrize("tau", [DT, BOOST], ids=["dt", "boost"])
    @pytest.mark.parametrize("name", sorted(LINE_CASES))
    def test_roots_equal_per_direction_np_roots(self, name, tau):
        q = LINE_CASES[name]
        table = rational_directions(60, 4)
        rows, = _line_coefficients([_line_restriction(q, tau, _orthogonal_frame(tau))], table)
        roots, count = _line_roots(rows)
        for k, (floats, ref) in enumerate(reference_lines(q, tau, 60, 4)):
            assert rows[k].tolist() == floats[len(floats) - len(rows[k]):]
            assert_same_roots(roots[k, :count[k]], ref)
            if name == "xi0-light" and tau is DT:
                assert rows[k][-1] == 0 and ref[-1] == 0  # a trailing zero root

    @pytest.mark.parametrize("tau", [DT, BOOST], ids=["dt", "boost"])
    @pytest.mark.parametrize("name", sorted(LINE_CASES))
    def test_verdict_equals_per_direction_loop(self, name, tau):
        q = LINE_CASES[name]
        lines = reference_lines(q, tau, 150, 2)
        for tol in (1e-9, -1.0):
            worst, hit = 0.0, None
            for k, (_, roots) in enumerate(lines):
                for r in roots:
                    ratio = abs(r.imag) / (1.0 + abs(r.real))
                    if ratio > worst:
                        worst = ratio
                        if ratio > tol:
                            hit = (k, r)
            v = hyperbolicity_sampled(q, tau, n_samples=150, tol=tol, seed=2)
            assert v.worst_imag_ratio == worst
            assert v.verdict == ("hyperbolic" if worst <= tol else "not-hyperbolic")
            if hit is None:
                assert v.witness is None
            else:
                assert v.witness.startswith(f"direction #{hit[0]} eta=")
                assert v.witness.endswith(f" root {hit[1]:.6g}")
            if name == "non-hyperbolic-cubic":
                assert hit is not None

    @pytest.mark.parametrize("tau", [DT, BOOST], ids=["dt", "boost"])
    def test_cone_rows_for_every_reference_factor(self, tau):
        tol = 1e-9
        state = ens.FluidState.minkowski(F=Fr(1), q=Fr(1, 2))
        assign = state.assignment()
        bind = {a: Poly.constant(v) for a, v in assign.items()}
        claim = ens.reference_factor_claim("specialized")
        polys = {name: p for name, (p, _) in zip(ens.FACTOR_NAMES, claim.factors)}

        def real_sheets(p):
            out = []
            for floats, roots in reference_lines(p.substitute(bind), tau, 80, 3):
                if len(np.trim_zeros(floats, "f")) <= 1:
                    out.append([])
                    continue
                out.append(sorted(float(r.real) for r in roots
                                  if abs(r.imag) <= tol * (1.0 + abs(r.real))))
            return out

        light = real_sheets(polys["light"])
        for name in ens.FACTOR_NAMES:
            samples = cone_sample(polys[name], tau, assign, n=80, seed=3, tol=tol,
                                  factor_id=name, reference=polys["light"])
            expected = real_sheets(polys[name])
            assert samples.roots == expected, name
            assert samples.reference_roots == light, name
            assert samples.within_reference == [
                max(map(abs, r), default=0.0) <= max(map(abs, rr), default=0.0) + 1e-7
                for r, rr in zip(expected, light)], name
            assert samples.directions == [tuple(a / b for a, b in row)
                                          for row in rational_directions(80, 3)]
