import re
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from lops import build_ens_system, dsl, ens_spec_path, wave_spec_path
from lops.dsl import (MAX_DIGITS, MAX_NESTING, MAX_POWER_BITS, MAX_POWER_SIZE, MAX_ROWS,
                      DuplicateEntryError, ParseError, UnknownAtomError, parse_poly,
                      parse_system, print_system)
from lops.poly import MAX_DEGREE, XI, Poly
from lops.system import (DependencyDecl, EquationBlock, LeraySystem, ParamDecl,
                         SymbolEntry, UnknownBlock, validate_structure)

WAVE = """
# one second-order wave operator
unknown w multiplicity 1 index 2
equation weq multiplicity 1 index 0
param a constraint: positive
entry weq[0] w[0] := a*xi0^2 - xi1^2 - xi2^2 - xi3^2
depends weq on w order 1
assign a := 1
"""


def test_wave_roundtrip():
    s = parse_system(WAVE)
    assert s.total_unknowns == 1
    assert validate_structure(s).ok
    again = parse_system(print_system(s))
    assert again == s


def test_shipped_specs_parse_and_match_builders():
    ens_sys = parse_system(open(ens_spec_path()).read())
    assert ens_sys == build_ens_system("specialized", "on_data")
    assert ens_sys.total_unknowns == 25
    wave_sys = parse_system(open(wave_spec_path()).read())
    assert wave_sys.total_unknowns == 1


def test_ens_indices_as_declared():
    s = parse_system(open(ens_spec_path()).read())
    assert [b.m for b in s.unknowns] == [3, 2, 2, 1, 2]
    assert [b.n for b in s.equations] == [1, 0, 0, 0, 0]
    assert [b.multiplicity for b in s.unknowns] == [10, 1, 4, 6, 4]


def test_roundtrip_preserves_factor_claim():
    s = parse_system(open(ens_spec_path()).read())
    again = parse_system(print_system(s))
    assert again.factor_claim == s.factor_claim
    assert again.assigns == s.assigns


@st.composite
def small_systems(draw):
    n_unk = draw(st.integers(1, 3))
    unknowns = [UnknownBlock(f"v{i}", draw(st.integers(1, 3)), draw(st.integers(0, 3)))
                for i in range(n_unk)]
    equations = [EquationBlock(f"e{i}", b.multiplicity, draw(st.integers(0, 2)))
                 for i, b in enumerate(unknowns)]
    param_names = draw(st.lists(st.sampled_from(["a", "b", "cc"]),
                                unique=True, max_size=3))
    params = [ParamDecl(n, draw(st.sampled_from([None, "positive", "nonzero"])))
              for n in param_names]
    atoms = list(XI) + param_names
    entries = []
    for eq in equations:
        for unk in unknowns:
            if not draw(st.booleans()):
                continue
            p = Poly.zero()
            for _ in range(draw(st.integers(1, 2))):
                term = Poly.constant(Fr(draw(st.integers(-5, 5)) or 1,
                                        draw(st.integers(1, 4))))
                for _ in range(draw(st.integers(0, 2))):
                    term = term * Poly.atom(draw(st.sampled_from(atoms)))
                p = p + term
            if p.is_zero():
                continue
            entries.append(SymbolEntry(eq.name, draw(st.integers(0, eq.multiplicity - 1)),
                                       unk.name, draw(st.integers(0, unk.multiplicity - 1)),
                                       p))
    seen = set()
    unique_entries = []
    for e in entries:
        key = (e.eq_block, e.eq_index, e.unk_block, e.unk_index)
        if key not in seen:
            seen.add(key)
            unique_entries.append(e)
    deps = [DependencyDecl(equations[0].name, unknowns[0].name, draw(st.integers(0, 2)))]
    assigns = {n: Fr(draw(st.integers(1, 9)), draw(st.integers(1, 4)))
               for n in param_names}
    return LeraySystem(unknowns, equations, unique_entries, deps, params, assigns)


@given(small_systems())
@settings(max_examples=60, deadline=None)
def test_roundtrip_random_systems(system):
    assert parse_system(print_system(system)) == system


class TestErrors:
    def test_malformed_index_line_names_the_line(self):
        bad = "unknown w multiplicity 1 index 2\nequation weq multiplicity oops index 0\n"
        with pytest.raises(ParseError) as err:
            parse_system(bad)
        assert err.value.line == 2

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_system("unknown w multiplicity 1 index 2 extra\n")
        assert "trailing" in str(err.value)

    def test_duplicate_entry(self):
        text = (WAVE + "\nentry weq[0] w[0] := xi0^2\n")
        with pytest.raises(DuplicateEntryError):
            parse_system(text)

    def test_undeclared_atom(self):
        text = ("unknown w multiplicity 1 index 2\n"
                "equation weq multiplicity 1 index 0\n"
                "entry weq[0] w[0] := mystery*xi0^2\n")
        with pytest.raises(UnknownAtomError) as err:
            parse_system(text)
        assert err.value.line == 3

    def test_bad_constraint(self):
        with pytest.raises(ParseError):
            parse_system("param a constraint: sometimes\n")

    def test_unknown_statement(self):
        with pytest.raises(ParseError):
            parse_system("frobnicate everything\n")

    def test_comments_and_blanks_ignored(self):
        s = parse_system("# hello\n\n   # indented comment\n" + WAVE)
        assert s.total_unknowns == 1

    @pytest.mark.parametrize("statement, line, col, message", [
        ("entry other[0] w[0] := xi0^2", 4, 7, "undeclared equation 'other'"),
        ("entry weq[0] v[0] := xi0^2", 4, 14, "undeclared unknown 'v'"),
        ("depends weq on v order 1", 4, 16, "undeclared block 'weq'/'v'"),
    ])
    def test_undeclared_block_located(self, statement, line, col, message):
        # the offending statement precedes a later, valid declaration
        text = ("unknown w multiplicity 1 index 2\n"
                "equation weq multiplicity 1 index 0\n"
                "entry weq[0] w[0] := xi0^2 - xi1^2\n"
                f"{statement}\n"
                "unknown u multiplicity 1 index 1\n")
        with pytest.raises(ParseError) as err:
            parse_system(text)
        assert (err.value.line, err.value.col) == (line, col)
        assert message in str(err.value)

    def test_exponent_overflow_located(self):
        # at the exponent, before any power is taken
        text = ("unknown w multiplicity 1 index 2\n"
                "equation weq multiplicity 1 index 0\n"
                "entry weq[0] w[0] := xi0^40000\n")
        with pytest.raises(ParseError) as err:
            parse_system(text)
        assert (err.value.line, err.value.col) == (3, 26)
        assert "degree" in str(err.value)

    @pytest.mark.parametrize("symbol, col", [pytest.param("xi0^2$xi1", 27, id="xi0^2$xi1"),
                                             pytest.param("xi0^2 $ xi1", 28, id="xi0^2 $ xi1")])
    def test_unexpected_character_located(self, symbol, col):
        # located at the character itself
        text = ("unknown w multiplicity 1 index 2\n"
                "equation weq multiplicity 1 index 0\n"
                f"entry weq[0] w[0] := {symbol}\n")
        with pytest.raises(ParseError) as err:
            parse_system(text)
        assert (err.value.line, err.value.col) == (3, col)
        assert "unexpected character '$'" in str(err.value)

    def test_undeclared_atom_in_product_located(self):
        text = ("unknown w multiplicity 1 index 2\n"
                "equation weq multiplicity 1 index 0\n"
                "entry weq[0] w[0] := 2*xi0*mystery^2\n")
        with pytest.raises(UnknownAtomError) as err:
            parse_system(text)
        assert (err.value.line, err.value.col) == (3, 28)
        assert "undeclared atom 'mystery'" in str(err.value)

    @pytest.mark.parametrize("i", range(4))
    def test_covector_name_is_no_parameter(self, i):
        # a parameter may not take a covector atom's name
        with pytest.raises(ParseError) as err:
            parse_system(f"param xi{i}\n")
        assert str(err.value) == f"line 1, column 1: atom 'xi{i}' already declared"

    BIG = 10 ** 20

    @pytest.mark.parametrize("text, line, col, message", [
        (f"factor {BIG} := xi0\n", 4, 8,
         f"factor multiplicity {BIG} times degree 1 exceeds the supported maximum degree"),
        (f"factor {MAX_DEGREE // 2 + 1} := xi0^2\n", 4, 8,
         f"times degree 2 exceeds the supported maximum degree {MAX_DEGREE}"),
        (f"unknown v multiplicity {BIG} index 1\nequation f multiplicity {BIG} index 0\n",
         4, 24, f"unknown blocks total {BIG + 1} rows, more than {MAX_ROWS}"),
        ("unknown v multiplicity 20000 index 1\nequation f multiplicity 20000 index 0\n",
         4, 24, f"unknown blocks total 20001 rows, more than {MAX_ROWS}"),
        (f"unknown v multiplicity {MAX_ROWS - 1} index 1\n"
         f"equation f multiplicity {MAX_ROWS} index 0\n",
         5, 25, f"equation blocks total {MAX_ROWS + 1} rows, more than {MAX_ROWS}"),
    ], ids=["factor-multiplicity-huge", "factor-degree-one-past", "rows-huge", "rows-20000",
            "equation-rows-one-past"])
    def test_size_bounds_located(self, text, line, col, message):
        # refused at the statement, before any matrix or factor list is built
        head = ("unknown u multiplicity 1 index 1\n"
                "equation e multiplicity 1 index 0\n"
                "entry e[0] u[0] := xi0\n")
        with pytest.raises(ParseError) as err:
            parse_system(head + text)
        assert (err.value.line, err.value.col) == (line, col)
        assert message in str(err.value)

    def test_size_bounds_admit_their_limits(self):
        s = parse_system(f"unknown u multiplicity {MAX_ROWS // 2} index 1\n"
                         f"unknown v multiplicity {MAX_ROWS // 2} index 1\n"
                         f"equation e multiplicity {MAX_ROWS} index 0\n"
                         "entry e[0] u[0] := xi0\n"
                         f"factor {MAX_DEGREE} := xi0\n"
                         f"factor {MAX_DEGREE // 2} := xi0^2\n")
        assert s.total_unknowns == MAX_ROWS
        assert [m for _, m in s.factor_claim.factors] == [MAX_DEGREE, MAX_DEGREE // 2]

    def test_assign_requires_declared_param(self):
        with pytest.raises(UnknownAtomError):
            parse_system("assign nope := 3\n")

    def test_rational_coefficients_exact(self):
        s = parse_system(
            "unknown w multiplicity 1 index 1\n"
            "equation e multiplicity 1 index 0\n"
            "entry e[0] w[0] := 2/3*xi0 - 5*xi1\n")
        p = s.entries[0].symbol
        assert p.eval({"xi0": Fr(3), "xi1": Fr(0)}) == 2


X0, X1, X2 = (Poly.atom(a) for a in XI[:3])


@pytest.mark.parametrize("text, expected", [
    ("2^3*xi0", 8 * X0),
    ("2*(xi0+xi1)*xi2", 2 * (X0 + X1) * X2),
    ("1/2*xi0^2*xi1*xi0", Fr(1, 2) * X0 ** 3 * X1),
    ("2/3^2*xi0*-xi1", -Fr(4, 9) * X0 * X1),
    ("0*xi0^30000*xi1^30000", Poly.zero()),
    ("xi0^0*3", Poly.constant(3)),
    # a unary minus negates the whole factor after it, ^k included
    ("2*-xi1^2", -2 * X1 ** 2),
    ("3*-2^2", Poly.constant(-12)),
    ("-xi1^2", -X1 ** 2),
    ("2*(-xi1)^2", 2 * X1 ** 2),
    ("--xi0", X0),
    ("--xi0^2", X0 ** 2),
    ("xi0 + -xi1^2", X0 - X1 ** 2),
    ("xi0*-1/2", -Fr(1, 2) * X0),
    ("-(xi0+xi1)*2", -2 * (X0 + X1)),
    # a number a/b is read whole before ^k: (3/2)^2, not 3/(2^2)
    ("3/2^2*xi0", Fr(9, 4) * X0),
])
def test_products(text, expected):
    assert parse_poly(text, {}) == expected


TREE_NAMES = ["xi0", "xi1", "xi2", "xi3", "a", "b"]


@st.composite
def plain_term(draw):
    """(tokens, value) of a plain term: an optional unary minus, an optional
    a or a/b, and a *-run of atoms, each with an optional ^k, drawn from a
    few names so that a factor often repeats (xi0*xi0^2)."""
    tokens, value = [], Poly.one()
    if draw(st.booleans()):
        tokens.append("-")
        value = -value
    coefficient = draw(st.sampled_from(["none", "num", "ratio"]))
    if coefficient != "none":
        n, d = draw(st.integers(0, 12)), draw(st.integers(1, 9))
        tokens += [str(n)] + (["/", str(d)] if coefficient == "ratio" else [])
        value = value * Fr(n, d if coefficient == "ratio" else 1)
    for f, name in enumerate(draw(st.lists(st.sampled_from(["xi0", "xi1", "a"]), max_size=5,
                                           min_size=0 if coefficient != "none" else 1))):
        tokens += ["*"] if f or coefficient != "none" else []
        k = draw(st.none() | st.integers(0, 3))
        tokens += [name] + (["^", str(k)] if k is not None else [])
        value = value * Poly.atom(name) ** (1 if k is None else k)
    return tokens, value


@st.composite
def trees(draw, depth=0):
    """(tokens, value) of a random sum: a tree over xi0..xi3, a and b of
    small rationals, a/b, ^k with k <= 3, unary minus, parentheses and
    + - *, nested at most 3 deep, and its value by Poly arithmetic under
    the module docstring's rules.  About half the terms are plain terms,
    the rest mix plain factors with numbers' powers, inner unary minus
    and parenthesized factors."""
    tokens, value = [], Poly.zero()
    for j in range(draw(st.integers(1, 4))):
        sign = 1
        if j:
            tokens.append(draw(st.sampled_from("+-")))
            sign = -1 if tokens[-1] == "-" else 1
        if draw(st.booleans()):
            inner, term = draw(plain_term())
            tokens += inner
            value = value + sign * term
            continue
        term = Poly.one()
        for f in range(draw(st.integers(1, 3))):
            if f:
                tokens.append("*")
            minus = draw(st.integers(0, 2))
            tokens += ["-"] * minus
            kind = draw(st.sampled_from(["num", "ratio", "atom", "paren"][:4 if depth < 3 else 3]))
            if kind == "num":
                n = draw(st.integers(0, 9))
                tokens.append(str(n))
                v = Poly.constant(n)
            elif kind == "ratio":
                n, d = draw(st.integers(0, 9)), draw(st.integers(1, 9))
                tokens += [str(n), "/", str(d)]
                v = Poly.constant(Fr(n, d))   # a/b^k is (a/b)^k
            elif kind == "atom":
                name = draw(st.sampled_from(TREE_NAMES))
                tokens.append(name)
                v = Poly.atom(name)
            else:
                inner, v = draw(trees(depth + 1))
                tokens += ["(", *inner, ")"]
            # exponents only while the expansion stays small
            k = draw(st.none() | st.integers(0, 3))
            if k is not None and len(v) ** k <= 64:
                tokens += ["^", str(k)]
                v = v ** k
            term = term * (-1) ** minus * v   # a unary minus negates its whole factor
            if len(term) > 64:
                break
        value = value + sign * term
    return tokens, value


@given(trees(), st.data())
@settings(max_examples=200, deadline=None)
def test_parse_equals_the_tree_built_by_poly_arithmetic(tree, data):
    tokens, value = tree
    gaps = data.draw(st.lists(st.sampled_from(["", " ", "  ", "\t"]), min_size=len(tokens),
                              max_size=len(tokens)))
    text = "".join(g + t for g, t in zip(gaps, tokens))
    assert parse_poly(text, ["a", "b"]) == value


# errors around a unary minus keep their messages and columns
@pytest.mark.parametrize("text, col, message", [
    ("-xi0^2^3", 7, "trailing input '^'"),
    ("xi0*-", 6, "unexpected end of line"),
    ("- + xi0", 3, "expected a term, found '+'"),
    ("-*xi0", 2, "expected a term, found '*'"),
])
def test_unary_minus_errors(text, col, message):
    with pytest.raises(ParseError) as err:
        parse_poly(text, {})
    assert str(err.value) == f"line 1, column {col}: {message}"


@pytest.mark.parametrize("text, degree", [
    ("(xi0^2+xi1)^20000", 40000),
    ("xi0^20000*xi1^20000", 40000),
    ("xi0^20000*(xi1+1)*xi1^20000", 40001),
    # exponents summing past 2^16, which a 16-bit degree field would wrap
    ("xi0^30000*xi0^30000*xi0^30000", 60000),
    ("xi1*xi0^30000*xi2^30000*xi3^30000", 60001),
    ("-2/3*xi0^16000*xi1^16000*xi2^16000*xi3^18000", 48000),
])
def test_degree_overflow_names_the_running_degree(text, degree):
    with pytest.raises(ParseError) as err:
        parse_poly(text, {})
    assert f"total degree {degree} exceeds" in str(err.value)
    assert err.value.col == 1


@pytest.mark.parametrize("text, col, k", [
    ("xi0^40000", 5, 40000),
    ("3^40000000*xi0", 3, 40000000),
    ("(xi0+xi1)^33000", 11, 33000),
    ("2/3^32768", 5, 32768),
])
def test_exponent_beyond_max_degree_refused(text, col, k):
    # whatever the base: a number's power would be a huge integer
    with pytest.raises(ParseError) as err:
        parse_poly(text, {})
    assert str(err.value) == (f"line 1, column {col}: exponent {k} "
                              f"exceeds the supported maximum degree {MAX_DEGREE}")


def test_nesting_beyond_bound_refused():
    ok = "(" * MAX_NESTING + "xi0" + ")" * MAX_NESTING
    assert parse_poly(ok, {}) == parse_poly("xi0", {})
    with pytest.raises(ParseError) as err:
        parse_poly("xi1*(" + ok + ")", {})
    assert str(err.value) == (f"line 1, column {MAX_NESTING + 5}: "
                              f"parentheses nested deeper than {MAX_NESTING}")


def test_overlong_number_refused():
    with pytest.raises(ParseError) as err:
        parse_poly("xi0 + 1/" + "7" * (MAX_DIGITS + 1), {})
    assert str(err.value) == (f"line 1, column 9: number of {MAX_DIGITS + 1} digits, "
                              f"more than {MAX_DIGITS}")


def test_power_of_a_sum_bounded_before_expanding():
    # C(36, 3) = 7140 terms of about 33 * (1 + 3) bits fit MAX_POWER_SIZE;
    # the next power does not, and is refused at its exponent
    assert len(parse_poly("(xi0+xi1+xi2+xi3)^33", {})) == 7140
    with pytest.raises(ParseError) as err:
        parse_poly("(xi0+xi1+xi2+xi3)^34", {})
    assert err.value.col == 19
    assert f"more than {MAX_POWER_SIZE} coefficient bits" in str(err.value)


@pytest.mark.parametrize("text, col", [
    ("7" * MAX_DIGITS + "^32767*xi0", MAX_DIGITS + 2),
    ("xi0 + (1/" + "7" * MAX_DIGITS + ")^32767", MAX_DIGITS + 12),
    ("3^20000*7/5^30000", 13),
], ids=["long-number", "parenthesized-fraction", "second-of-a-run"])
def test_power_of_a_long_number_refused(text, col):
    # refused at its exponent, before any multiplication
    with pytest.raises(ParseError) as err:
        parse_poly(text, {})
    assert err.value.col == col
    assert f"bits, more than {MAX_POWER_BITS}" in str(err.value)


def test_power_within_the_bit_bound_read():
    x0 = Poly.atom("xi0")
    assert parse_poly(f"2^{MAX_DEGREE}*xi0", {}) == Poly.constant(2 ** MAX_DEGREE) * x0
    assert parse_poly("(2/3)^3*xi0", {}) == Poly.constant(Fr(8, 27)) * x0


def test_fresh_parse_lays_parameters_out_in_declaration_order():
    import subprocess
    import sys

    code = ("import sys\n"
            "from lops import poly\n"
            "from lops.dsl import parse_system\n"
            "s = parse_system(open(sys.argv[1]).read())\n"
            "assert poly._ATOMS[:4] == list(poly.XI)\n"
            "assert poly._ATOMS[4:] == [p.name for p in s.params]\n"
            "print(len(s.params))\n")
    r = subprocess.run([sys.executable, "-c", code, ens_spec_path()],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "77\n"


ENS_TEXT = open(ens_spec_path()).read()
LONG_SUM_LINE = 217  # entry eq_s[0] u[0], a sum of 224 terms


def _fault_at_term_200(fault):
    """ens.lops with term 200 of its line LONG_SUM_LINE rewritten by `fault`."""
    lines = ENS_TEXT.splitlines()
    head, rhs = lines[LONG_SUM_LINE - 1].split(" := ")
    parts = re.split(r"( [-+] )", rhs)   # terms at even indices, signs between
    assert len(parts) == 2 * 224 - 1
    parts[2 * 199] = fault(parts[2 * 199])
    lines[LONG_SUM_LINE - 1] = head + " := " + "".join(parts)
    return "\n".join(lines)


# term 200 is xi2*xi3*F*duu1_2*inv_thr*piu01*u3*vtheta, from column 8561,
# followed by " - ": a fault in it stops the one-match read of a plain term,
# and the recursive descent reports it at its own column
@pytest.mark.parametrize("fault, message", [
    (lambda t: t.replace("*", "$", 1), "column 8564: unexpected character '$'"),
    (lambda t: t + "*+", "column 8602: expected a term, found '+'"),
    (lambda t: t + "^", "column 8603: expected 'num', found '-'"),
    (lambda t: "3/0*xi0", "column 8563: zero denominator"),
    (lambda t: t.replace("F", "mystery"), "column 8569: undeclared atom 'mystery'"),
    (lambda t: "7" * 641 + "*" + t, "column 8561: number of 641 digits, more than 640"),
    (lambda t: "xi0^40000",
     "column 8565: exponent 40000 exceeds the supported maximum degree 32767"),
    (lambda t: "xi0^20000*xi1^20000*" + t,
     "column 23: total degree 40000 exceeds the supported maximum 32767"),
    (lambda t: "xi0^30000*xi0^30000*xi0^30000",
     "column 23: total degree 60000 exceeds the supported maximum 32767"),
    (lambda t: "+ " + t, "column 8561: expected a term, found '+'"),
    (lambda t: t.replace("*", " ", 1), "column 8565: trailing input 'xi3'"),
], ids=["bad-character", "trailing-star", "caret-without-number", "zero-denominator",
        "undeclared-atom", "641-digits", "xi0^40000", "running-degree", "three-factors",
        "leading-plus", "juxtaposed-atoms"])
def test_faults_in_a_long_sum_located(fault, message):
    with pytest.raises(ParseError) as err:
        parse_system(_fault_at_term_200(fault))
    assert str(err.value) == f"line {LONG_SUM_LINE}, {message}"


@pytest.mark.parametrize("text, message", [
    ("xi0 xi1 $", "column 9: unexpected character '$'"),
    ("3/0*xi0 + " + "7" * 641, "column 11: number of 641 digits, more than 640"),
    ("(xi0 + xi1 $", "column 12: unexpected character '$'"),
])
def test_a_lines_lexical_fault_goes_first(text, message):
    # an unexpected character or an overlong number anywhere on the line is
    # reported before a fault the reader meets earlier on it
    with pytest.raises(ParseError) as err:
        parse_poly(text, {})
    assert str(err.value) == f"line 1, {message}"
    with pytest.raises(ParseError) as err:
        parse_system("unknown w multiplicity x index $\n")
    assert str(err.value) == "line 1, column 32: unexpected character '$'"


def test_parse_packs_once_per_factor_text(monkeypatch):
    # plain factors are packed from a per-parse memo keyed by their text, so
    # each distinct factor text is packed once: packing factor by factor
    # would take about 11,000 calls on ens.lops
    calls = [0]
    pack = dsl.pack

    def counted(powers):
        calls[0] += 1
        return pack(powers)

    monkeypatch.setattr(dsl, "pack", counted)
    parse_system(ENS_TEXT)
    assert 0 < calls[0] <= 1000
