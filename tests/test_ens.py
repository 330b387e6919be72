import itertools
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction as Fr

import pytest

from lops import ens
from lops.matrix import build_symbol_matrix, determinant, laplace_determinant
from lops.poly import COLUMN_CHUNK, Poly, XI, eval_columns
from lops.system import validate_structure, total_order

X = [Poly.atom(a) for a in XI]


def _rational_det(rows):
    """Exact determinant of a rational matrix by `ens._integer_det` on the
    rows `ens._integer_rows` scales to integers."""
    ints, scale = ens._integer_rows([[(x.numerator, x.denominator) for x in row]
                                     for row in rows])
    return Fr(ens._integer_det(ints), scale)


def _fraction_state(rng, max_entry):
    """`ens.random_state` written over `Fraction`s from the same draws:
    E = I + small entries, g = E^T eta E, g^{-1} = E^{-1} eta E^{-T} and
    u = column 0 of E^{-1}, with E^{-1} by Gauss-Jordan elimination."""

    def small():
        return Fr(rng.randint(-max_entry, max_entry), rng.randint(1, max_entry) * 4)

    while True:
        e = [[Fr(int(a == b)) + small() for b in range(4)] for a in range(4)]
        inv = _gauss_jordan_inverse(e)
        if inv is not None:
            break
    eta = (1, -1, -1, -1)
    gl = [[sum(eta[k] * e[k][a] * e[k][b] for k in range(4)) for b in range(4)]
          for a in range(4)]
    gi = [[sum(eta[k] * inv[a][k] * inv[b][k] for k in range(4)) for b in range(4)]
          for a in range(4)]
    F = 1 + abs(small())
    q = abs(small()) + Fr(1, 8)
    s = abs(small())
    vtheta = -(abs(small()) + Fr(1, 4))
    du_up = [[small() for _ in range(4)] for _ in range(4)]
    du_lo = [[small() for _ in range(4)] for _ in range(4)]
    return ens.FluidState(gl=gl, gi=gi, u_up=[inv[a][0] for a in range(4)], F=F, q=q,
                          s=s, vtheta=vtheta, du_up=du_up, du_lo=du_lo)


def _gauss_jordan_inverse(m):
    n = len(m)
    a = [list(row) + [Fr(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return None
        a[k], a[piv] = a[piv], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [row[n:] for row in a]


def _assert_same_state(state, want):
    for name in ("gl", "gi", "u_up", "F", "q", "s", "vtheta", "du_up", "du_lo"):
        assert getattr(state, name) == getattr(want, name), name


def _assert_inverse_pair(gi, gl):
    for a in range(4):
        for b in range(4):
            assert sum(gi[a][k] * gl[k][b] for k in range(4)) == int(a == b)


def _perturb_general_entry(monkeypatch, i, j):
    """Add 1 to entry [i][j] of every general-metric symbol matrix built."""
    from lops import matrix
    build = matrix.build_symbol_matrix

    def perturbed(system):
        mat = build(system)
        if any(p.name == "gi00" for p in system.params):
            mat.entries[i][j] = mat.entries[i][j] + Poly.constant(1)
        return mat

    monkeypatch.setattr(matrix, "build_symbol_matrix", perturbed)


class _Scripted:
    """A `random.Random` stand-in: `randint` returns the scripted values,
    then those of a seeded generator."""

    def __init__(self, script, seed):
        self.script = list(script)
        self.rng = random.Random(seed)

    def randint(self, lo, hi):
        return self.script.pop(0) if self.script else self.rng.randint(lo, hi)


@pytest.fixture(scope="module")
def printed_block_system():
    return ens.build_ens_system("specialized", "independent")


class TestSymbolEntries:
    def test_metric_block_diagonal_is_wave_operator(self):
        s = ens.build_ens_system()
        light = s.entry("eq_g", 0, "g", 0)
        assert light.homogeneous_degree_in(XI) == 2
        for i in range(10):
            assert s.entry("eq_g", i, "g", i) == light
            for j in range(10):
                if i != j:
                    assert s.entry("eq_g", i, "g", j).is_zero()

    def test_entropy_entry_is_squared_flow(self, printed_block_system):
        uxi = sum((Poly.atom(ens.U[i]) * X[i] for i in range(4)), Poly.zero())
        assert printed_block_system.entry("eq_s", 0, "s", 0) == uxi * uxi

    def test_vorticity_row_couplings_match_printed_block(self, printed_block_system):
        # row Omega_{01}: -q u.xi xi_1 against C_0 and +q u.xi xi_0 against C_1
        uxi = sum((Poly.atom(ens.U[i]) * X[i] for i in range(4)), Poly.zero())
        qxi = Poly.atom(ens.Q_ATOM) * uxi
        s = printed_block_system
        assert s.entry("eq_omega", 0, "c", 0) == -qxi * X[1]
        assert s.entry("eq_omega", 0, "c", 1) == qxi * X[0]
        # row Omega_{12}: columns C_1, C_2
        assert s.entry("eq_omega", 3, "c", 1) == -qxi * X[2]
        assert s.entry("eq_omega", 3, "c", 2) == qxi * X[1]
        # transport diagonal uses the dynamic-velocity contraction
        cxi = sum((Poly.atom(ens.CV[i]) * X[i] for i in range(4)), Poly.zero())
        for k in range(6):
            assert s.entry("eq_omega", k, "omega", k) == cxi

    def test_velocity_equation_rows_match_printed_block(self, printed_block_system):
        s = printed_block_system
        xiup = [X[0]] + [Poly.atom(ens.GM[i]) * X[i + 1] for i in range(3)]
        # C_0 row: +xi^1, +xi^2, +xi^3 against Omega_{01}, Omega_{02}, Omega_{03}
        for k, expected in ((0, xiup[1]), (1, xiup[2]), (2, xiup[3])):
            assert s.entry("eq_c", 0, "omega", k) == expected
        # C_1 row: -xi^0 against Omega_{01}, +xi^2, +xi^3 against Omega_{12}, Omega_{13}
        assert s.entry("eq_c", 1, "omega", 0) == -xiup[0]
        assert s.entry("eq_c", 1, "omega", 3) == xiup[2]
        assert s.entry("eq_c", 1, "omega", 4) == xiup[3]
        # C_3 row: -xi^0, -xi^1, -xi^2 against Omega_{03}, Omega_{13}, Omega_{23}
        assert s.entry("eq_c", 3, "omega", 2) == -xiup[0]
        assert s.entry("eq_c", 3, "omega", 4) == -xiup[1]
        assert s.entry("eq_c", 3, "omega", 5) == -xiup[2]

    @pytest.mark.parametrize("metric", ["specialized", "general"])
    def test_velocity_row_vorticity_couplings_are_the_index_sums(self, metric):
        # row g of eq_u against Omega, summed term by term over the indices:
        #   -(1/2F) g^{mu nu} xi_nu Omega_{mu g} - (1/2F) u^mu u.xi Omega_{mu g}
        #   + (1/2F) u_g u^mu g^{nu beta} xi_beta Omega_{nu mu},
        # with Omega_{yx} = -Omega_{xy} and Omega_{xx} = 0
        s = ens.build_ens_system(metric, "on_data")
        xiup, uxi = ens._xi_up(metric), ens._flow(ens.U)
        u = [Poly.atom(a) for a in ens.U]
        half_inv_f = Poly.constant(Fr(1, 2)) * Poly.atom(ens.INV_F)
        for g in range(4):
            coeff = {pair: Poly.zero() for pair in ens.ANTISYM_PAIRS}

            def add(x, y, c):
                if x != y:
                    coeff[min(x, y), max(x, y)] += c if x < y else -c

            for mu in range(4):
                add(mu, g, -half_inv_f * (xiup[mu] + u[mu] * uxi))
                for nu in range(4):
                    add(nu, mu, half_inv_f * Poly.atom(ens.UL[g]) * u[mu] * xiup[nu])
            for k, pair in enumerate(ens.ANTISYM_PAIRS):
                assert s.entry("eq_u", g, "omega", k) == coeff[pair], (g, pair)

    @pytest.mark.parametrize("dynamic_velocity", ["on_data", "independent"])
    def test_general_metric_specializes_entry_for_entry(self, dynamic_velocity):
        # g^00 = g_00 = 1, g^0i = g_0i = 0, g^ij = g_ij = 0 for i != j,
        # g^ii = gm_i and g_ii = glm_i take every general entry and the
        # general reference claim to the specialized ones
        bind = {}
        for names, spatial in ((ens.GI, ens.GM), (ens.GL, ens.GLM)):
            for a in range(4):
                for b in range(a, 4):
                    bind[names[a][b]] = (Poly.zero() if a != b else Poly.one() if a == 0
                                         else Poly.atom(spatial[a - 1]))
        general = ens.build_ens_system("general", dynamic_velocity)
        special = ens.build_ens_system("specialized", dynamic_velocity)
        reduced = [((e.eq_block, e.eq_index, e.unk_block, e.unk_index), e.symbol.substitute(bind))
                   for e in general.entries]
        assert [(key, p) for key, p in reduced if p] == [
            ((e.eq_block, e.eq_index, e.unk_block, e.unk_index), e.symbol)
            for e in special.entries]
        claim, want = ens.reference_factor_claim("general"), ens.reference_factor_claim()
        assert claim.prefactor.substitute(bind) == want.prefactor
        assert [(p.substitute(bind), m) for p, m in claim.factors] == list(want.factors)

    def test_structure_and_order(self):
        s = ens.build_ens_system()
        assert validate_structure(s).ok
        assert total_order(s) == 44

    def test_viscosity_scaling_of_metric_row_coupling(self):
        # principal entries scale linearly in the viscosity parameter
        s = ens.build_ens_system()
        entry = s.entry("eq_g", 0, "u", 1)
        assert not entry.is_zero()
        doubled = entry.substitute({ens.VTHETA: Poly.constant(2) * Poly.atom(ens.VTHETA)})
        assert doubled == Poly.constant(2) * entry


class TestQuartic:
    def test_derived_quartic_closed_form(self):
        A, B, C = ens.quartic_coefficients()
        assert ens.derive_quartic_from_block() == A * X[0] ** 4 + B * X[0] ** 2 + C
        assert (B * B - 4 * A * C).is_zero()

    def test_comparison_report_flags(self):
        rep = ens.quartic_comparison_report()
        assert rep["derived"]["discriminant_is_zero"]
        assert not rep["claimed_verbatim"]["matches_derived"]
        assert not rep["claimed_verbatim"]["discriminant_is_perfect_square"]
        assert rep["claimed_repaired"]["discriminant_matches_claimed_value"]
        assert rep["claimed_B_minus_derived_B_is_claimed_root"]

    def test_quartic_homogeneous_of_degree_four(self):
        A, B, C = ens.quartic_coefficients()
        p = A * X[0] ** 4 + B * X[0] ** 2 + C
        assert p.homogeneous_degree_in(XI) == 4


class TestStates:
    def test_minkowski_state_valid(self):
        report = ens.validate_state(ens.FluidState.minkowski())
        assert report.ok

    def test_broken_normalization_detected(self):
        state = ens.FluidState.minkowski()
        state.u_up = [Fr(1), Fr(1), Fr(0), Fr(0)]
        report = ens.validate_state(state)
        assert not report.ok
        names = {c.name for c in report.items if not c.ok}
        assert "unit-normalization" in names

    def test_report_json_shape(self):
        payload = ens.validate_state(ens.FluidState.minkowski()).to_json()
        assert set(payload) == {"ok", "checks"} and payload["ok"] is True
        assert [c["name"] for c in payload["checks"]] == [
            "unit-normalization", "index-at-least-one", "coupling-positive",
            "viscosity-nonzero", "temperature-positive", "sound-speed-bound"]
        for check in payload["checks"]:
            assert set(check) == {"name", "ok", "detail"}
            assert check["ok"] is True and isinstance(check["detail"], str)

    def test_random_states_exactly_unit(self):
        rng = random.Random(4)
        for _ in range(50):
            state = ens.random_state(rng)
            norm = sum(state.gl[a][b] * state.u_up[a] * state.u_up[b]
                       for a in range(4) for b in range(4))
            assert norm == 1

    @pytest.mark.parametrize("max_entry", [5, 8, 16])
    def test_random_state_matches_fraction_construction(self, max_entry):
        for seed in range(30):
            rng, twin = random.Random(seed), random.Random(seed)
            for _ in range(2):
                state = ens.random_state(rng, max_entry=max_entry)
                _assert_same_state(state, _fraction_state(twin, max_entry))
                _assert_inverse_pair(state.gi, state.gl)

    def test_first_sampled_states_are_pinned(self, monkeypatch):
        # the reports print only counts, so a moved RNG stream or frame
        # inverse would leave every report byte-identical: pin what seed 0
        # draws, gi over SYM_PAIRS
        rng = random.Random(0)
        first, second = (ens.random_state(rng, max_entry=8) for _ in range(2))
        assert [first.gi[a][b] for a, b in ens.SYM_PAIRS] == [
            Fr(305458611211600, 703678068278761), Fr(-399220609726400, 2111034204836283),
            Fr(669108753782000, 2111034204836283), Fr(394016020032600, 703678068278761),
            Fr(-9478245900237056, 6333102614508849), Fr(-7570706617090240, 6333102614508849),
            Fr(-715483375949472, 703678068278761), Fr(-11603216703513200, 6333102614508849),
            Fr(-861528593615880, 703678068278761), Fr(-1523841288580476, 703678068278761)]
        assert first.u_up == [Fr(19988500, 26526931), Fr(-15480080, 79580793),
                              Fr(6185900, 79580793), Fr(6807150, 26526931)]
        assert (first.F, first.q) == (Fr(17, 14), Fr(3, 8))
        assert [second.gi[a][b] for a, b in ens.SYM_PAIRS] == [
            Fr(-491397688832, 104304457445), Fr(-276834181952, 104304457445),
            Fr(-146851689472, 104304457445), Fr(127729030912, 104304457445),
            Fr(-117277610704, 104304457445), Fr(-38206871168, 104304457445),
            Fr(51262409408, 104304457445), Fr(-6323075840, 20860891489),
            Fr(7826771456, 20860891489), Fr(-36587498752, 20860891489)]
        assert second.u_up == [Fr(483168, 722165), Fr(-200256, 722165),
                               Fr(-345744, 722165), Fr(272384, 722165)]
        assert (second.F, second.q) == (Fr(15, 8), Fr(3, 8))
        # verify_ens_determinant draws each state, then its covector
        points = []
        real = ens.eval_columns

        def spy(polys, atoms, pts):
            pts = iter(pts)
            head = next(pts)
            points.append({a: Fr(*v) for a, v in zip(atoms, head)})
            return real(polys, atoms, itertools.chain([head], pts))

        monkeypatch.setattr(ens, "eval_columns", spy)
        assert ens.verify_ens_determinant(state_samples=1, seed=0).ok
        assert [points[0][a] for a in XI] == [Fr(-2), Fr(9), Fr(-9), Fr(-3)]
        assert (points[0][ens.F_ATOM], points[0][ens.GI[0][0]]) == (first.F, first.gi[0][0])

    def test_assignment_of_symmetric_atoms(self):
        state = ens.random_state(random.Random(3), max_entry=8)
        assign = state.assignment()
        for a in range(4):
            for b in range(4):
                assert assign[ens.GI[a][b]] == state.gi[a][b] == state.gi[b][a]
                assert assign[ens.GL[a][b]] == state.gl[a][b] == state.gl[b][a]
                assert assign[ens.PIU[a][b]] == state.gi[a][b] - state.u_up[a] * state.u_up[b]

    def test_singular_frame_drawn_again(self):
        # a first frame whose row 0 is zero (1 - 4/4, then three 0/4 entries)
        script = [-4, 1] + [0, 1] * 15
        rng, twin = _Scripted(script, 3), _Scripted(script, 3)
        state = ens.random_state(rng, max_entry=4)
        assert not rng.script
        _assert_same_state(state, _fraction_state(twin, 4))
        _assert_inverse_pair(state.gi, state.gl)

    def test_stiff_toy_eos_boundary_case(self):
        # dr/dF equals r/F exactly for the stiff closure
        h = Fr(1, 32)
        for Fv, sv in ((Fr(1), Fr(1)), (Fr(3), Fr(2))):
            dr = (ens.r_of_F_s(Fv + h, sv) - ens.r_of_F_s(Fv - h, sv)) / (2 * h)
            assert dr == ens.r_of_F_s(Fv, sv) / Fv


class TestReferenceProduct:
    def test_expanded_degree_is_44(self):
        state = ens.FluidState.minkowski()
        p = ens.reference_product(state)
        assert p.homogeneous_degree_in(XI) == 44

    def test_time_axis_value(self):
        # only the time component survives; every cone factor evaluates to 1
        # and the quartic contributes its leading coefficient
        state = ens.FluidState.minkowski(F=Fr(1), q=Fr(1, 2))
        tau = [Fr(1), Fr(0), Fr(0), Fr(0)]
        value = ens.reference_product_value(state, tau)
        F, q = state.F, state.q
        assert value == F ** 3 * (F + q) ** 2 * (F + q)  # prefactor * P(tau)

    def test_exact_match_with_determinant_at_a_point(self):
        state = ens.FluidState.minkowski(F=Fr(1), q=Fr(1, 2))
        pt = [Fr(2), Fr(1), Fr(1), Fr(1)]
        mat = build_symbol_matrix(ens.build_ens_system("general", "on_data"))
        assign = dict(state.assignment())
        for i in range(4):
            assign[XI[i]] = pt[i]
        num = _rational_det(ens._evaluate_matrix(mat, assign))
        assert num == ens.reference_product_value(state, pt)

    def test_q_zero_limit_contains_sixteenth_cone_power(self):
        state = ens.FluidState.minkowski(F=Fr(2), q=Fr(0, 1))
        # construction bypasses the q > 0 validity gate on purpose
        p = ens.reference_product(state)
        mink = X[0] ** 2 - X[1] ** 2 - X[2] ** 2 - X[3] ** 2
        quotient = p.exact_div(mink ** 16)
        assert quotient.homogeneous_degree_in(XI) == 12


class TestNumericDeterminant:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_integer_elimination_matches_laplace(self, n):
        rng = random.Random(n)
        kinds = set()
        for trial in range(40):
            rows = [[Fr(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.45
                     else Fr(0) for _ in range(n)] for _ in range(n)]
            if trial % 4 == 1:
                rows[0][0] = Fr(0)  # the first pivot needs a row swap
            elif trial % 4 == 2 and n > 1:
                # singular: the last row is a rational combination of two others
                c = Fr(rng.randint(-5, 5), rng.randint(1, 5))
                rows[-1] = [x + c * y for x, y in zip(rows[0], rows[(n - 1) // 2])]
            elif trial % 4 == 3:
                rows[rng.randrange(n)] = [Fr(0)] * n
            det = _rational_det(rows)
            assert det == laplace_determinant(rows)
            nums = [[x.numerator for x in row] for row in rows]
            assert _rational_det(nums) == laplace_determinant(nums)
            kinds.add(det == 0)
        assert kinds == {True, False}

    def test_known_values(self):
        assert _rational_det([[Fr(0), Fr(1)], [Fr(1), Fr(0)]]) == -1
        assert _rational_det([[Fr(1, 2), Fr(1, 3)], [Fr(1, 4), Fr(1, 5)]]) == Fr(1, 60)
        assert _rational_det([[Fr(2), Fr(4)], [Fr(3), Fr(6)]]) == 0


class TestVerification:
    def test_full_report_passes(self):
        rep = ens.verify_ens_determinant(state_samples=25, seed=1)
        assert rep.ok, "\n".join(i.line() for i in rep.items)

    def test_threaded_run_matches(self):
        a = ens.verify_ens_determinant(state_samples=6, seed=2, threads=1)
        b = ens.verify_ens_determinant(state_samples=6, seed=2, threads=4)
        assert a.to_json() == b.to_json()

    def test_numeric_checks_fail_on_a_perturbed_block(self, monkeypatch):
        # negative control: one changed entry of the general matrix inside
        # the vorticity/velocity block must show in both numeric checks at
        # every sample, while the symbolic checks, which read the
        # specialized matrix, still pass
        _perturb_general_entry(monkeypatch, 20, 20)
        items = {i.name: i for i in ens.verify_ens_determinant(state_samples=5, seed=0).items}
        assert items["numeric-full-determinant"].detail == (
            "5 random rational states, 5 mismatches")
        assert items["numeric-block-cofactor-oracle"].detail == (
            "5 states vs independent cofactor expansion, 5 mismatches")
        failed = [name for name, item in items.items() if not item.ok]
        assert failed == ["numeric-full-determinant", "numeric-block-cofactor-oracle"]

    @pytest.mark.parametrize("cell", [0, 10])
    def test_full_determinant_reads_each_1x1_block(self, monkeypatch, cell):
        # the full determinant is the product of the diagonal blocks'
        # determinants: a changed 1 x 1 block (a metric row's wave cone, the
        # entropy row's (u.xi)^2) fails it at every sample, and the 10 x 10
        # block's oracle still passes
        _perturb_general_entry(monkeypatch, cell, cell)
        items = {i.name: i for i in ens.verify_ens_determinant(state_samples=5, seed=0).items}
        assert items["numeric-full-determinant"].detail == (
            "5 random rational states, 5 mismatches")
        assert items["numeric-block-cofactor-oracle"].detail == (
            "5 states vs independent cofactor expansion, 0 mismatches")
        failed = [name for name, item in items.items() if not item.ok]
        assert failed == ["numeric-full-determinant"]

    def test_entry_above_the_block_diagonal_is_not_read(self, monkeypatch):
        # entry [10][11] (560 terms of eq_s) lies above the block diagonal:
        # no term of the determinant reads it, so changing it changes neither
        # numeric check
        general = build_symbol_matrix(ens.build_ens_system("general", "on_data"))
        assert len(general.entries[10][11]) == 560
        _perturb_general_entry(monkeypatch, 10, 11)
        rep = ens.verify_ens_determinant(state_samples=5, seed=0)
        assert rep.ok, "\n".join(i.line() for i in rep.items)

    def test_entry_below_the_block_diagonal_fails_by_name(self, monkeypatch):
        # with the blocks reversed, the entries above the diagonal fall below
        # it: the full-determinant item fails and names the first of them
        from lops import matrix
        order = matrix.block_order
        monkeypatch.setattr(matrix, "block_order", lambda m: order(m)[::-1])
        items = {i.name: i for i in ens.verify_ens_determinant(state_samples=3, seed=0).items}
        assert not items["numeric-full-determinant"].ok
        assert items["numeric-full-determinant"].detail == (
            "entry [0][11] below the block diagonal is nonzero")
        failed = [name for name, item in items.items() if not item.ok]
        assert failed == ["numeric-full-determinant"]

    def test_one_small_evaluation_per_verify(self, monkeypatch):
        # the entries inside the diagonal blocks and the reference
        # polynomials, not the 141 polynomials and 3,596 terms of every
        # nonzero entry
        calls = []
        real = ens.eval_columns

        def counted(polys, atoms, points):
            calls.append((len(polys), sum(len(p) for p in polys)))
            return real(polys, atoms, points)

        monkeypatch.setattr(ens, "eval_columns", counted)
        assert ens.verify_ens_determinant(state_samples=2, seed=0).ok
        assert len(calls) == 1
        polys, terms = calls[0]
        assert polys <= 57 and terms <= 420

    def test_states_are_drawn_one_chunk_at_a_time(self, monkeypatch):
        # chunks of two states: each chunk is evaluated before the next is
        # drawn, and the report equals the one-chunk run's
        from lops import poly
        whole = ens.verify_ens_determinant(state_samples=5, seed=4).to_json()
        drawn = []
        draw, values = ens._state_pairs, poly._column_values

        def counted_draw(*args, **kwargs):
            drawn.append(None)
            return draw(*args, **kwargs)

        seen = []

        def counted_values(*args):
            seen.append(len(drawn))
            return values(*args)

        monkeypatch.setattr(ens, "_state_pairs", counted_draw)
        monkeypatch.setattr(poly, "_column_values", counted_values)
        monkeypatch.setattr(poly, "COLUMN_CHUNK", 2)
        assert ens.verify_ens_determinant(state_samples=5, seed=4).to_json() == whole
        assert seen == [2, 4, 5]

    def test_sampled_points_are_the_drawn_states(self, monkeypatch):
        # the states are drawn and checked as integer pairs: at each of 300
        # states the point evaluated is the Fraction construction's
        # assignment and covector, pair for pair, in lowest terms with a
        # positive denominator
        seen = []
        real = ens.eval_columns

        def spy(polys, atoms, points):
            points = list(points)
            seen.append((atoms, points))
            return real(polys, atoms, points)

        monkeypatch.setattr(ens, "eval_columns", spy)
        assert ens.verify_ens_determinant(state_samples=300, seed=7).ok
        [(atoms, points)] = seen
        assert set(atoms) == ({ens.F_ATOM, ens.Q_ATOM} | set(ens.U) | set(XI)
                              | {ens.GI[a][b] for a, b in ens.SYM_PAIRS})
        twin = random.Random(7)
        for k, point in enumerate(points):
            assign = _fraction_state(twin, 8).assignment()
            assign.update((a, Fr(twin.randint(-9, 9), twin.randint(1, 4))) for a in XI)
            assert point == [(assign[a].numerator, assign[a].denominator) for a in atoms], k

    def test_atom_the_drawer_lacks_fails_loudly(self, monkeypatch):
        draw = ens._state_pairs

        def without_q(rng, max_entry):
            pairs = draw(rng, max_entry)
            del pairs[ens.Q_ATOM]
            return pairs

        monkeypatch.setattr(ens, "_state_pairs", without_q)
        with pytest.raises(KeyError, match="'q'"):
            ens.verify_ens_determinant(state_samples=1)

    def test_block_division_failure_is_reported(self, monkeypatch):
        # a diagonal block that its claimed power does not divide fails its
        # item; the other checks still run
        from lops import matrix
        real = matrix.determinant
        monkeypatch.setattr(matrix, "determinant", lambda sub: real(sub) + Poly.one())
        items = {i.name: i for i in ens.verify_ens_determinant(state_samples=0).items}
        for name in ("metric-block-determinant", "entropy-block-determinant",
                     "velocity-block-determinant"):
            assert not items[name].ok
            assert items[name].detail.startswith("division failed: ")
        assert items["vorticity-block-quartic"].ok

    def test_block_division_bug_is_not_reported_as_a_failed_division(self, monkeypatch):
        from lops import matrix

        class Broken:
            def exact_div(self, other):
                raise RuntimeError("kernel bug")

        monkeypatch.setattr(matrix, "determinant", lambda sub: Broken())
        with pytest.raises(RuntimeError, match="kernel bug"):
            ens.verify_ens_determinant(state_samples=0)

    def test_degeneration(self):
        rep = ens.degeneration_report()
        assert rep.ok, "\n".join(i.line() for i in rep.items)

    def test_quartic_from_own_block_determinant(self):
        rep = ens.verify_ens_determinant(state_samples=0)
        assert rep.quartic == ens.derive_quartic_from_block()
        assert "quartic" not in rep.to_json()
        assert ens.degeneration_report(rep.quartic).to_json() == ens.degeneration_report().to_json()

    def test_block_determinant_expanded_once_per_cli_run(self, monkeypatch, capsys):
        from lops import ens_spec_path, matrix
        from lops.cli import main
        calls = []
        expand = matrix.laplace_determinant

        def counted(rows):
            # the numeric oracle shares the expansion; count symbolic blocks
            det = expand(rows)
            if isinstance(rows[0][0], Poly):
                calls.append((len(rows), len(det)))
            return det

        monkeypatch.setattr(matrix, "laplace_determinant", counted)
        ens.derive_quartic_from_block.cache_clear()  # as in a fresh process
        assert main(["ens", "verify", "--samples", "1"]) == 0
        # the Schur complement of the 10 x 10 block with u.xi taken out:
        # F (F+q)^3 light^4 in 140 terms, not the 4,900 of det(a*D - C*B)
        assert calls == [(4, 140)]
        assert capsys.readouterr().out.endswith("overall: pass\n")
        calls.clear()
        assert main(["analyze", ens_spec_path(), "--json"]) == 0
        assert calls == [(4, 140)]
        report = json.loads(capsys.readouterr().out)
        assert 11760 in report["determinant"]["block_term_counts"]

    def test_minkowski_inequality_identities(self):
        rep = ens.minkowski_inequality_identities()
        assert rep.ok, "\n".join(i.line() for i in rep.items)

    def test_sampled_root_nonnegativity_small(self):
        item = ens.sampled_root_nonnegativity(Fr(2), Fr(3), n_dirs=500, seed=0)
        assert item.ok

    def test_state_sample_columns_stay_small(self):
        # every nonzero entry of the general matrix and the reference
        # polynomials (141, more than ens verify evaluates), one chunk of
        # states: the columns held at once follow the depth of the trie of
        # products, not its number of nodes
        mat = build_symbol_matrix(ens.build_ens_system("general", "on_data"))
        ref = ens.reference_factor_claim("general")
        polys = ([e for row in mat.entries for e in row if e]
                 + [ens._light_cone("general"), ens._flow(ens.U), ref.prefactor]
                 + [p for p, _ in ref.factors])
        assert len(polys) == 141
        atoms = sorted(set().union(*(p.atoms() for p in polys)))
        rng = random.Random(5)
        points = []
        for _ in range(COLUMN_CHUNK):
            assign = ens.random_state(rng, max_entry=8).assignment()
            assign.update(zip(XI, (Fr(rng.randint(-9, 9), rng.randint(1, 4)) for _ in XI)))
            points.append([(assign[a].numerator, assign[a].denominator) for a in atoms])
        tracemalloc.start()
        try:
            chunks = list(eval_columns(polys, atoms, points))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(chunks) == 1 and peak < 8_000_000


# the acceptance (F, q) grid, then points on both sides of q^2 = 4F(F+q)
ROOT_POINTS = [(Fr(F), Fr(q)) for F in (1, 2, 10) for q in (Fr(1, 10), Fr(1, 2), 3)] + [
    (Fr(1), Fr(4)), (Fr(1), Fr(24, 5)), (Fr(1), Fr(49, 10)), (Fr(1), Fr(5)), (Fr(3), Fr(15))]
WITNESS = re.compile(r"witness xi = \((.*)\) gives -B - \|R\| = (\S+)$")


def _claimed_root_value(F, q, xi_point):
    """-B - |R| of the claimed table at Minkowski, from its coefficient
    polynomials by direct evaluation and an integer square root."""
    assign = {ens.GM[i]: Fr(-1) for i in range(3)}
    assign.update({ens.F_ATOM: F, ens.Q_ATOM: q})
    assign.update(zip(XI, xi_point))
    disc = ens.CLAIMED_DISCRIMINANT.eval(assign)
    root = Fr(math.isqrt(disc.numerator), math.isqrt(disc.denominator))
    assert root * root == disc
    return -ens.CLAIMED_QUARTIC[1].eval(assign) - root


class TestRootNonnegativity:
    @pytest.mark.parametrize("F, q", ROOT_POINTS, ids=str)
    def test_exact_decision_is_the_threshold(self, F, q):
        rep = ens.root_nonnegativity(F, q)
        assert rep.ok == (4 * F * F + 4 * F * q - q * q >= 0), rep.to_json()

    @pytest.mark.parametrize("F, q", ROOT_POINTS, ids=str)
    def test_witness_is_negative_and_evaluated(self, F, q):
        for item in ens.root_nonnegativity(F, q).items:
            found = WITNESS.search(item.detail)
            assert (found is not None) == (not item.ok), item.detail
            if found:
                point = [Fr(c) for c in found.group(1).split(", ")]
                value = Fr(found.group(2))
                assert value < 0
                assert value == _claimed_root_value(F, q, point)

    def test_witness_values_past_the_threshold(self):
        for q, value in ((Fr(5), "-1/2"), (Fr(49, 10), "-41/200")):
            failed = [i for i in ens.root_nonnegativity(Fr(1), q).items if not i.ok]
            assert [i.name for i in failed] == ["minus-B-plus-R-positive-semidefinite"]
            assert "inertia (2,1,0)" in failed[0].detail
            assert failed[0].detail.endswith(f"-B - |R| = {value}")

    def test_sampled_violation_implies_exact_failure(self):
        violated = []
        for F, q in ROOT_POINTS:
            if not ens.sampled_root_nonnegativity(F, q, n_dirs=2000).ok:
                violated.append((F, q))
                assert not ens.root_nonnegativity(F, q).ok
        assert (Fr(1), Fr(5)) in violated

    @pytest.mark.parametrize("F, q", [(Fr(1), Fr(1, 2)), (Fr(1), Fr(49, 10)), (Fr(1), Fr(5))],
                             ids=str)
    def test_sampled_check_matches_the_direct_oracle(self, F, q):
        from lops.hyperbolic import rational_directions

        values = [_claimed_root_value(F, q, [Fr(0)] + [Fr(n, d) for n, d in direction])
                  for direction in rational_directions(200, 0)]
        violations = sum(1 for v in values if v < 0)
        item = ens.sampled_root_nonnegativity(F, q, n_dirs=200)
        assert item.detail == (f"200 directions, {violations} violations, "
                               f"min value {min(values)}")
        assert item.ok == (violations == 0)

    def test_symbolic_report_states_the_condition(self):
        rep = ens.minkowski_inequality_identities()
        assert rep.ok, "\n".join(i.line() for i in rep.items)
        assert any("4*F^2 + 4*F*q - q^2" in i.detail for i in rep.items)
        assert not [i.name for i in rep.items if i.name.startswith("case-")]


class TestFactorizationOps:
    def test_expanded_block_factorization_via_poly_verifier(self):
        # the Poly-level verifier on the expanded 10x10 block determinant
        from lops.matrix import verify_factorization_product
        from lops.system import FactorClaim
        det = determinant(ens.vorticity_velocity_block())
        F, q = Poly.atom(ens.F_ATOM), Poly.atom(ens.Q_ATOM)
        light = ens._light_cone("specialized")
        flow = ens._flow(ens.U)
        P = ens.derive_quartic_from_block()
        good = FactorClaim(F ** 3 * (F + q) ** 2, ((flow, 6), (light, 2), (P, 1)))
        assert verify_factorization_product([det], good).ok

    def test_wrong_cone_exponent_rejected_with_witness(self):
        from lops.matrix import determinant_factors, verify_factorization_product
        from lops.system import FactorClaim
        system = ens.build_ens_system()
        dets = determinant_factors(build_symbol_matrix(system))
        claim = system.factor_claim
        # 13 cones instead of 14
        wrong = FactorClaim(claim.prefactor, ((claim.factors[0][0], 13),) + claim.factors[1:])
        rep = verify_factorization_product(dets, wrong)
        assert not rep.ok and rep.detail

    def test_all_cone_sheets_inside_the_wave_cone(self):
        from lops.hyperbolic import cone_sample
        state = ens.FluidState.minkowski()
        assign = state.assignment()
        claim = ens.reference_factor_claim("specialized")
        light = claim.factors[0][0]
        tau = [Fr(1), Fr(0), Fr(0), Fr(0)]
        for name, (p, _) in zip(ens.FACTOR_NAMES, claim.factors):
            samples = cone_sample(p, tau, assign, n=200, seed=0,
                                  factor_id=name, reference=light)
            assert samples.all_within_reference, name

    def test_repaired_discriminant_divides_as_square(self):
        # disc / (q*xi3)^2 is itself a perfect square in the remaining atoms
        Ar, Br, Cr = ens.CLAIMED_QUARTIC_REPAIRED
        disc = Br * Br - 4 * Ar * Cr
        q, x3 = Poly.atom(ens.Q_ATOM), X[3]
        quotient = disc.exact_div((q * x3) ** 2)
        root = quotient.sqrt()
        assert root * root == quotient
        gm2, gm3 = (Poly.atom(a) for a in (ens.GM[1], ens.GM[2]))
        assert quotient == (gm2 * X[2] - gm3 * X[3]) ** 2


class TestHyperbolicityOfAllFactors:
    def test_every_reference_factor_hyperbolic_at_random_states(self):
        from lops.hyperbolic import hyperbolicity_auto
        rng = random.Random(8)
        claim = ens.reference_factor_claim("general")
        for _ in range(10):
            state = ens.random_state(rng, max_entry=5)
            assign = state.assignment()
            tau = state.u_lo
            for idx, (p, _) in enumerate(claim.factors):
                v = hyperbolicity_auto(p, tau, assign, n_samples=60, seed=0,
                                       factor_id=f"f{idx}")
                assert v.hyperbolic, (idx, v.witness)
