import inspect
import itertools
import os
import random
import sys
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from lops import ens, ens_spec_path, matrix
from lops.dsl import parse_system
from lops.matrix import (ExpansionDepthError, SymbolMatrix, _evaluation_witness,
                         _schur_factors, block_factors, block_order, build_symbol_matrix,
                         cofactor_determinant_rational, determinant, determinant_factors,
                         factored_xi_degree, laplace_determinant, verify_factorization_product)
from lops.poly import NotDivisibleError, Poly, XI
from lops.system import FactorClaim

X = [Poly.atom(a) for a in XI]
ATOMS = list(XI) + ["F", "q"]


def random_poly(rng, max_terms=2, max_exp=1):
    # small entries keep the dense-matrix oracle comparison fast while still
    # exercising multi-atom cancellation paths
    p = Poly.zero()
    for _ in range(rng.randint(0, max_terms)):
        term = Poly.constant(Fr(rng.randint(-4, 4), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 1)):
            term = term * Poly.atom(rng.choice(ATOMS)) ** rng.randint(1, max_exp)
        p = p + term
    return p


def leibniz_determinant(rows):
    """Sum over permutations of the signed entry products."""
    n = len(rows)
    det = Poly.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        term = Poly.constant(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        det = det + term
    return det


def cycle_matrix(n):
    """xi0 on the diagonal and xi1 on the cyclic superdiagonal: one block,
    determinant xi0^n - (-xi1)^n."""
    return SymbolMatrix(n, [[X[0] if j == i else X[1] if j == (i + 1) % n else Poly.zero()
                             for j in range(n)] for i in range(n)])


def random_matrix(rng, n, density=1.0):
    grid = [[random_poly(rng) if rng.random() < density else Poly.zero()
             for _ in range(n)] for _ in range(n)]
    return SymbolMatrix(n, grid)


class TestDeterminant:
    def test_diagonal_product(self):
        m = SymbolMatrix(3, [[X[0], Poly.zero(), Poly.zero()],
                             [Poly.zero(), X[1], Poly.zero()],
                             [Poly.zero(), Poly.zero(), X[2] + X[3]]])
        assert determinant(m) == X[0] * X[1] * (X[2] + X[3])

    def test_two_by_two(self):
        m = SymbolMatrix(2, [[X[0], X[1]], [X[2], X[3]]])
        assert determinant(m) == X[0] * X[3] - X[1] * X[2]

    def test_agrees_with_cofactor_oracle_on_random_matrices(self):
        rng = random.Random(11)
        for trial in range(200):
            n = rng.randint(1, 6)
            m = random_matrix(rng, n, density=rng.choice([0.4, 0.7, 1.0]))
            assert determinant(m) == laplace_determinant(m.entries), f"trial {trial}"

    def test_agrees_with_leibniz_sum_on_random_matrices(self):
        # an oracle that shares nothing with the expansion: the signed sum
        # over all permutations, on singular and zero-row matrices too
        rng = random.Random(5)
        for trial in range(120):
            n = rng.randint(1, 6)
            m = random_matrix(rng, n, density=rng.choice([0.3, 0.6, 1.0]))
            if trial % 4 == 1 and n > 1:  # repeated row: singular
                m.entries[rng.randrange(1, n)] = list(m.entries[0])
            elif trial % 4 == 2:
                m.entries[rng.randrange(n)] = [Poly.zero()] * n
            assert determinant(m) == leibniz_determinant(m.entries), f"trial {trial}"

    def test_cycle_block(self):
        # an even cycle: its 20 even rows are a scalar set, so only the
        # 20 x 20 Schur complement is expanded
        assert determinant_factors(cycle_matrix(40)) == [X[0] ** 40 - X[1] ** 40]

    def test_odd_cycle_block(self):
        # 20 scalar rows against 21 others: plain Laplace
        assert determinant_factors(cycle_matrix(41)) == [X[0] ** 41 + X[1] ** 41]

    def test_block_deeper_than_recursion_limit(self):
        # with 31 frames to spare a 31-row expansion would overflow the stack;
        # it is refused before it starts (an odd cycle takes no Schur step)
        m = cycle_matrix(31)
        limit, message = sys.getrecursionlimit(), ""
        sys.setrecursionlimit(len(inspect.stack(0)) + 31)
        try:
            determinant_factors(m)
        except ExpansionDepthError as err:
            message = str(err)
        finally:
            sys.setrecursionlimit(limit)
        assert message.startswith("a 31x31 block is too deep to expand")

    def test_singular_matrix(self):
        m = SymbolMatrix(2, [[X[0], X[0]], [X[0], X[0]]])
        assert determinant(m).is_zero()

    def test_rational_cofactor_oracle(self):
        rng = random.Random(7)
        rows = [[Fr(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(5)]
                for _ in range(5)]
        wrapped = SymbolMatrix(5, [[Poly.constant(v) for v in row] for row in rows])
        assert cofactor_determinant_rational(rows) == determinant(wrapped).as_constant()

    def test_empty_matrix(self):
        assert laplace_determinant([]) == ens._integer_det([]) == 1


def _eliminated_det(rows):
    """Exact determinant of a rational matrix by `ens._integer_det`'s
    fraction-free elimination on the rows `ens._integer_rows` scales."""
    ints, scale = ens._integer_rows([[(Fr(x).numerator, Fr(x).denominator) for x in row]
                                     for row in rows])
    return Fr(ens._integer_det(ints), scale)


class TestLaplaceSupportLoop:
    """The expansion visits only each row's nonzero columns, in the frontal
    row order; checked on sparse matrices against elimination and the
    Leibniz sum, which share none of its code."""

    @staticmethod
    def sparse_rows(rng, n, kind, shape):
        def entry():
            if kind is int:
                return rng.choice([-3, -2, -1, 1, 2, 5])
            if kind is Fr:
                return Fr(rng.choice([-3, -1, 1, 2, 7]), rng.randint(1, 4))
            return random_poly(rng) or Poly.one()

        zero = Poly.zero() if kind is Poly else kind()
        if shape == "equal-counts":  # ties in the frontal order decide the sign
            width = min(n, rng.randint(1, 3))
            support = [set(rng.sample(range(n), width)) for _ in range(n)]
        else:
            support = [{j for j in range(n) if rng.random() < 0.35} for _ in range(n)]
        rows = [[entry() if j in s else zero for j in range(n)] for s in support]
        if shape == "zero-row":
            rows[rng.randrange(n)] = [zero] * n
        return rows

    @pytest.mark.parametrize("kind", [int, Fr, Poly], ids=["int", "Fraction", "Poly"])
    @pytest.mark.parametrize("shape", ["sparse", "equal-counts", "zero-row"])
    def test_agrees_with_elimination(self, kind, shape):
        rng = random.Random(f"{kind.__name__}-{shape}")
        values = set()
        for trial in range(36):
            n = trial % 9 + 1
            rows = self.sparse_rows(rng, n, kind, shape)
            det = laplace_determinant(rows)
            if n <= 6:
                assert leibniz_determinant(rows) == det, f"trial {trial}"
            if kind is Poly:
                assert det == determinant(SymbolMatrix(n, rows)), f"trial {trial}"
                for _ in range(2):  # det commutes with evaluation at a point
                    point = {a: Fr(rng.randint(-5, 5), rng.randint(1, 3)) for a in ATOMS}
                    value = det.eval(point)
                    assert value == _eliminated_det([[e.eval(point) for e in row]
                                                     for row in rows]), f"trial {trial}"
                    values.add(value == 0)
            else:
                assert det == _eliminated_det(rows), f"trial {trial}"
                values.add(det == 0)
        assert values == ({True} if shape == "zero-row" else {True, False})

    def test_frontal_order_on_the_reference_block(self, monkeypatch):
        # the rows of the 10 x 10 vorticity/velocity block, as integers, at
        # a sampled state: taking next the row that keeps the columns
        # touched so far fewest takes 232 products of an entry and a nonzero
        # minor, where sparsest-first took 493
        caught = []
        real = ens.laplace_determinant

        def spy(rows):
            caught.append([list(row) for row in rows])
            return real(rows)

        monkeypatch.setattr(ens, "laplace_determinant", spy)
        assert ens.verify_ens_determinant(state_samples=1, seed=0).ok
        [rows] = caught
        products = []

        class Counted(int):
            def __mul__(self, other):
                products.append(None)
                return int(self) * other

        det = laplace_determinant([[Counted(e) for e in row] for row in rows])
        assert len(rows) == 10 and det == _eliminated_det(rows)
        assert len(products) == 232


F = Poly.atom("F")
# (a, g): g is a over the gcd of its monomials, constant for a monomial a
SCALARS = [(X[0], Poly.one()), (F * X[0], Poly.one()), (X[0] + X[1], X[0] + X[1]),
           (X[0] - 2 * X[2], X[0] - 2 * X[2]),
           (Fr(3, 2) * F * X[2] * (X[0] + X[1]), Fr(3, 2) * (X[0] + X[1]))]
# entries free of xi0, so that no entry outside the scalar set equals a
ENTRIES = st.builds(lambda c, atom, d: c * Poly.atom(atom) + d, st.integers(-3, 3),
                    st.sampled_from([XI[1], XI[2], "F"]), st.integers(-2, 2))


@st.composite
def scalar_set_blocks(draw, k, m, shape):
    """(rows, a, g): [[a*I_k, B], [C, D]] under a random symmetric
    permutation, with D's diagonal entries distinct; B or C zero, every B or
    every C entry a multiple of g ("gB", "gC"), or S broken by one entry."""
    a, g = draw(st.sampled_from(SCALARS))
    n = k + m

    def entry(times=1):
        return times * draw(ENTRIES) if draw(st.booleans()) else Poly.zero()

    grid = [[Poly.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i < k and j < k:
                grid[i][j] = a if i == j else Poly.zero()
            elif i < k:
                grid[i][j] = Poly.zero() if shape == "B=0" else entry(g if shape == "gB" else 1)
            elif j < k:
                grid[i][j] = Poly.zero() if shape == "C=0" else entry(g if shape == "gC" else 1)
            else:
                grid[i][j] = entry() + (j * X[3] if i == j else 0)
    if shape == "broken":
        grid[0][1] = draw(ENTRIES.filter(bool))
    perm = draw(st.permutations(range(n)))
    return [[grid[i][j] for j in perm] for i in perm], a, g


def divides(g, p):
    try:
        p.exact_div(g)
    except NotDivisibleError:
        return False
    return True


class TestSchurComplement:
    @pytest.mark.parametrize("k, m", [(4, 1), (5, 2), (3, 3), (2, 2), (2, 3), (1, 2)],
                             ids=["k>m", "k>m+2", "k=m", "k=m=2", "k<m", "k=1"])
    @pytest.mark.parametrize("shape", ["dense", "B=0", "C=0", "gB", "gC", "broken"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_laplace(self, k, m, shape, data):
        rows, a, g = data.draw(scalar_set_blocks(k, m, shape))
        oracle = laplace_determinant(rows)
        assert determinant(SymbolMatrix(k + m, rows)) == oracle
        assert a.exact_div(a.monomial_gcd()) == g
        # the scalar set, greedily in row order: one of a broken pair drops out
        scalar_set = []
        for i, row in enumerate(rows):
            if row[i] == a and not any(row[j] or rows[j][i] for j in scalar_set):
                scalar_set.append(i)
        rest = [i for i in range(len(rows)) if i not in scalar_set]
        k, m = len(scalar_set), len(rest)
        factors = _schur_factors(rows)
        if k >= 2 and k >= m:
            # g is taken out when it divides every entry of B, or of C
            taken = not g.is_constant() and (
                all(divides(g, rows[s][j]) for s in scalar_set for j in rest)
                or all(divides(g, rows[i][s]) for i in rest for s in scalar_set))
            if shape in ("gB", "gC"):
                assert taken == (not g.is_constant())
            assert len(factors) == k - m + 1 + (m if taken else 0)
            assert factors[:k - m] == [a] * (k - m)
            assert factors[k - m:-1] == [g] * (m if taken else 0)
            product = Poly.one()
            for f in factors:
                product = product * f
            assert product == oracle
        else:
            assert factors is None

    def test_block_factors_group_per_block(self):
        # a 1-row block, then a 3-row block whose two scalar rows leave one
        z, a = Poly.zero(), X[0]
        m = SymbolMatrix(4, [[X[2], X[1], z, z],
                             [z, a, z, X[1]],
                             [z, z, a, X[2]],
                             [z, X[3], X[1], X[0] + X[3]]])
        groups = block_factors(m)
        assert groups[0] == [X[2]] and len(groups[1]) == 2 and groups[1][0] == a
        assert determinant_factors(m) == groups[0] + groups[1]
        assert groups[1][0] * groups[1][1] == laplace_determinant(
            [row[1:] for row in m.entries[1:]])


class TestBlockOrder:
    def test_block_triangular_split(self):
        z = Poly.zero()
        # coupled pair (0,1) feeding 2; 2 isolated diagonal
        m = SymbolMatrix(3, [[X[0], X[1], X[2]],
                             [X[3], X[0], z],
                             [z, z, X[1]]])
        blocks = block_order(m)
        assert sorted(map(sorted, blocks)) == [[0, 1], [2]]
        assert determinant(m) == (X[0] * X[0] - X[1] * X[3]) * X[1]

    def test_full_coupling_single_block(self):
        rng = random.Random(2)
        m = random_matrix(rng, 4, density=1.0)
        assert len(block_order(m)) == 1

    def test_permutation_only_matrix(self):
        z = Poly.zero()
        m = SymbolMatrix(3, [[z, X[0], z], [z, z, X[1]], [X[2], z, z]])
        # single cycle: one block; determinant is the signed product
        assert determinant(m) == X[0] * X[1] * X[2]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 14).flatmap(
        lambda n: st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    def test_blocks_are_the_strong_components_in_triangular_order(self, pattern):
        # oracle: a bitmask transitive closure, i and j share a block when
        # each reaches the other
        n = len(pattern)
        m = SymbolMatrix(n, [[X[0] if nz else Poly.zero() for nz in row] for row in pattern])
        reach = [sum(1 << j for j in range(n) if pattern[i][j]) | 1 << i for i in range(n)]
        for k in range(n):
            for i in range(n):
                if reach[i] >> k & 1:
                    reach[i] |= reach[k]
        strong = {tuple(j for j in range(n) if reach[i] >> j & 1 and reach[j] >> i & 1)
                  for i in range(n)}
        blocks = block_order(m)
        assert sorted(map(tuple, blocks)) == sorted(strong)
        position = {i: p for p, block in enumerate(blocks) for i in block}
        assert all(position[i] <= position[j]
                   for i in range(n) for j in range(n) if pattern[i][j])

    def test_order_rule(self):
        # rows in ascending order, each block right after the unplaced
        # blocks it depends on: row 2 depends on row 0 only, so 1 comes first
        grid = [[X[0] if j == i else Poly.zero() for j in range(4)] for i in range(4)]
        grid[0][2] = X[1]
        assert block_order(SymbolMatrix(4, grid)) == [[0], [1], [2], [3]]

    def test_reference_order(self):
        with open(ens_spec_path()) as fh:
            m = build_symbol_matrix(parse_system(fh.read()))
        assert block_order(m) == [[i] for i in range(15)] + [list(range(15, 25))]

    def test_factor_order_does_not_move_a_verification(self, monkeypatch):
        # the block order decides only the order of the factors, which the
        # greedy cancellation must not depend on
        monkeypatch.syspath_prepend(os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
        import specgen
        with open(ens_spec_path()) as fh:
            texts = [fh.read()] + [text for _, text, _ in specgen.make_batch(7, 50)]
        rng = random.Random(3)
        for text in texts:
            system = parse_system(text)
            dets = determinant_factors(build_symbol_matrix(system))
            claim = system.factor_claim
            want = verify_factorization_product(dets, claim).to_json()
            for _ in range(4):
                rng.shuffle(dets)
                assert verify_factorization_product(dets, claim).to_json() == want

    def test_long_chain_needs_no_recursion(self):
        # each row depends on the next, so one depth-first path holds all of them
        n, z = 3000, Poly.zero()
        m = SymbolMatrix(n, [[X[0] if j == i else X[1] if j == i - 1 else z
                              for j in range(n)] for i in range(n)])
        assert block_order(m) == [[i] for i in reversed(range(n))]


class TestFactorization:
    def test_exact_match(self):
        det = (X[0] + X[1]) ** 3 * (X[2] - X[3])
        f = FactorClaim(Poly.one(), ((X[0] + X[1], 3), (X[2] - X[3], 1)))
        assert verify_factorization_product([det], f).ok

    def test_wrong_exponent_reports_witness(self):
        det = (X[0] + X[1]) ** 3
        f = FactorClaim(Poly.one(), ((X[0] + X[1], 2),))
        rep = verify_factorization_product([det], f)
        assert not rep.ok and rep.witness_monomial

    def test_evaluation_witness_assigns_covector_atoms_first(self):
        # the witness point gives its values to xi0..xi3 first, then to the
        # parameters by name, whatever order the atoms were first used in
        b, a = Poly.atom("b"), Poly.atom("A")
        rep = _evaluation_witness([X[1] + a * X[0] + b * X[3]],
                                  FactorClaim(Poly.one(), ((X[1] + b * X[3], 1),)))
        assert rep.detail == ("products differ at exact rational point (xi0=41, xi1=74/3, "
                              "xi3=33/2, A=58/5, b=25/3, ...): determinant=19133/30, "
                              "claim=973/6")

    def test_prefactor_must_be_parameter_only(self):
        f = FactorClaim(X[0], ((X[1], 1),))
        assert not verify_factorization_product([X[0] * X[1]], f).ok

    def test_product_form_verifier(self):
        factors = [X[0] + X[1], (X[0] - X[1]) ** 2, Poly.constant(3) * X[2]]
        claim = FactorClaim(Poly.constant(3),
                            ((X[0] + X[1], 1), (X[0] - X[1], 2), (X[2], 1)))
        assert verify_factorization_product(factors, claim).ok

    def test_product_form_detects_wrong_multiplicity(self):
        factors = [(X[0] + X[1]) ** 2]
        claim = FactorClaim(Poly.one(), ((X[0] + X[1], 3),))
        assert not verify_factorization_product(factors, claim).ok

    def test_product_form_accepts_straddling_grouping(self, monkeypatch):
        # a correct claim whose factor spans two block determinants: whole
        # factors are divided out of it and the rest cancels, with no
        # fallback (a size too large to expand would leave it unverified)
        monkeypatch.setattr(matrix, "_size_estimate", lambda polys: 10 ** 9)
        factors = [X[0] + X[1], X[2], (X[0] - X[1])]
        claim = FactorClaim(Poly.one(),
                            (((X[0] + X[1]) * (X[0] - X[1]), 1), (X[2], 1)))
        assert verify_factorization_product(factors, claim).ok

    def test_product_form_rejects_straddling_wrong_claim(self):
        factors = [X[0] + X[1], X[2]]
        claim = FactorClaim(Poly.one(), (((X[0] + X[1]) * (X[0] - X[1]), 1),))
        assert not verify_factorization_product(factors, claim).ok

    @pytest.mark.parametrize("factors, claim", [
        # the straddling unit cancels up to a constant the prefactor lacks
        ([X[0] + X[1], X[0] - X[1]],
         FactorClaim(Poly.one(), ((2 * (X[0] + X[1]) * (X[0] - X[1]), 1),))),
        # the straddling unit cancels, and what is left disagrees
        ([X[0] + X[1], X[2] * (X[0] - X[1])],
         FactorClaim(Poly.one(), (((X[0] + X[1]) * (X[0] - X[1]), 1), (X[2], 2)))),
    ], ids=["constant-left", "cofactor-differs"])
    def test_product_form_rejects_cancelled_straddling_unit(self, factors, claim):
        assert not verify_factorization_product(factors, claim).ok

    def test_equal_claimed_factors_take_one_division_each(self, monkeypatch):
        # a cancelled determinant factor stays in the list as the constant 1;
        # no later unit tries to divide it, so the divisions grow linearly
        # in the number of equal units, not as n^2/2
        calls = []
        real = Poly.exact_div

        def counted(p, q):
            calls.append(None)
            return real(p, q)

        monkeypatch.setattr(Poly, "exact_div", counted)
        counts = []
        for n in (50, 100, 200):
            calls.clear()
            claim = FactorClaim(Poly.one(), ((X[0], n),))
            assert verify_factorization_product([X[0]] * n, claim).ok
            counts.append(len(calls))
        assert counts == [50, 100, 200]

    @pytest.mark.parametrize("mutate", ["flow", "cone"])
    def test_reference_claim_with_a_mutated_straddling_unit_fails(self, mutate):
        # flow * light straddles u.xi and the complement's determinant of
        # the vorticity/velocity block; one changed copy must be refused
        from lops import build_ens_system, ens
        dets = determinant_factors(build_symbol_matrix(build_ens_system()))
        claim = ens.reference_factor_claim()
        assert verify_factorization_product(dets, claim).ok
        uxi, light = ens._flow(ens.U), ens._light_cone("specialized")
        wrong = (uxi + X[0]) * light if mutate == "flow" else uxi * (light + X[1] * X[2])
        assert claim.factors[2] == (uxi * light, 2)
        factors = claim.factors[:2] + ((uxi * light, 1), (wrong, 1)) + claim.factors[3:]
        rep = verify_factorization_product(dets, FactorClaim(claim.prefactor, factors))
        assert not rep.ok


class TestEnsMatrixShape:
    def test_scalar_expansion_dimensions(self):
        from lops import build_ens_system
        m = build_symbol_matrix(build_ens_system())
        assert m.dimension == 25

    def test_factored_degree(self):
        from lops import build_ens_system
        m = build_symbol_matrix(build_ens_system())
        dets = determinant_factors(m)
        assert factored_xi_degree(dets) == 44
