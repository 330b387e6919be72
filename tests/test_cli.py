import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import lops
from lops import ens_spec_path, wave_spec_path
from lops.cli import build_parser, main

# the child interpreter imports the same lops as the tests, installed or not
LOPS_ROOT = os.path.dirname(os.path.dirname(lops.__file__))


def run_python(*args):
    """A fresh interpreter that imports the lops under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (LOPS_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_cli(args):
    return run_python("-m", "lops", *args)


@pytest.fixture
def broken_spec(tmp_path):
    p = tmp_path / "broken.lops"
    p.write_text("unknown w multiplicity 1 index\n")
    return str(p)


class TestExitCodes:
    def test_parse_error_is_exit_two(self, broken_spec):
        r = run_cli(["analyze", broken_spec])
        assert r.returncode == 2
        assert "parse error" in r.stderr and "line 1" in r.stderr

    def test_missing_file_is_exit_two(self):
        r = run_cli(["analyze", "/nonexistent/x.lops"])
        assert r.returncode == 2

    def test_failed_check_is_exit_one(self, tmp_path):
        bad = tmp_path / "bad.lops"
        bad.write_text(
            "unknown w multiplicity 1 index 2\n"
            "equation e multiplicity 1 index 0\n"
            "param a\n"
            "assign a := 1\n"
            "entry e[0] w[0] := a*xi0^2 - xi1^2\n"
            "prefactor := 1\n"
            "factor 2 := a*xi0 - xi1\n")  # wrong claim: (a x0 - x1)^2 != a x0^2 - x1^2
        r = run_cli(["analyze", str(bad), "--json"])
        assert r.returncode == 1
        payload = json.loads(r.stdout)
        assert not payload["factorization"]["ok"]

    def test_wrong_claim_has_no_sigma0(self, tmp_path, capsys):
        # its one factor is hyperbolic, but it is not the determinant, so no
        # Gevrey index follows from it
        spec = tmp_path / "wrong.lops"
        spec.write_text("unknown w multiplicity 1 index 2\n"
                        "equation e multiplicity 1 index 0\n"
                        "entry e[0] w[0] := 2*xi0^2 - xi1^2 - xi2^2 - xi3^2\n"
                        "factor 1 := xi0^2 - xi1^2 - xi2^2 - xi3^2\n")
        assert main(["analyze", str(spec), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert not payload["factorization"]["ok"]
        assert [f["verdict"] for f in payload["factors"]] == ["hyperbolic"]
        assert "sigma0" not in payload and "factor_count" not in payload
        assert main(["analyze", str(spec)]) == 1
        assert "sigma0" not in capsys.readouterr().out

    def test_wave_passes_with_sobolev_sentinel(self):
        r = run_cli(["analyze", wave_spec_path(), "--json"])
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["sigma0"] == "sobolev"
        assert payload["factor_count"] == 1


class TestBadInputExitTwo:
    """Bad input exits 2 with a message naming the file or the factor."""

    HEAD = ("unknown w multiplicity 1 index 3\n"
            "equation e multiplicity 1 index 0\n"
            "entry e[0] w[0] := xi0^3\n"
            "prefactor := 1\n")

    def analyze(self, tmp_path, capsys, content: bytes):
        spec = tmp_path / "bad.lops"
        spec.write_bytes(content)
        code = main(["analyze", str(spec), "--json"])
        return code, capsys.readouterr().err

    def test_non_utf8_spec(self, tmp_path, capsys):
        code, err = self.analyze(tmp_path, capsys,
                                 b"unknown w multiplicity 1 index 1\n\xff\xfe\n")
        assert code == 2
        assert "bad.lops" in err and "UTF-8" in err

    def test_zero_factor(self, tmp_path, capsys):
        code, err = self.analyze(tmp_path, capsys,
                                 (self.HEAD + "factor 1 := xi1 - xi1\n").encode())
        assert code == 2
        assert "claimed factor 1" in err and "is zero" in err

    def test_inhomogeneous_factor(self, tmp_path, capsys):
        code, err = self.analyze(tmp_path, capsys,
                                 (self.HEAD + "factor 1 := xi0^3 + xi1\n").encode())
        assert code == 2
        assert "claimed factor 1 (xi0^3 + xi1)" in err and "not homogeneous" in err

    def test_exponent_overflow(self, tmp_path, capsys):
        code, err = self.analyze(tmp_path, capsys,
                                 (self.HEAD + "factor 1 := xi0^40000\n").encode())
        assert code == 2
        assert "bad.lops" in err and "line 5" in err and "degree" in err

    def test_determinant_degree_overflow(self, tmp_path, capsys):
        entries = "".join(f"entry e[{i}] w[{j}] := xi{2 * i + j}^20000\n"
                          for i in range(2) for j in range(2))
        code, err = self.analyze(tmp_path, capsys, (
            "unknown w multiplicity 2 index 20000\n"
            "equation e multiplicity 2 index 0\n" + entries).encode())
        assert code == 2
        assert "bad.lops" in err and "degree 40000" in err

    @pytest.mark.parametrize("symbol, col", [
        ("(" * 250 + "xi0" + ")" * 250, 120),
        ("3^40000000*xi0", 22),
        ("(xi0+xi1)^33000", 30),
        ("7" * 640 + "^32767*xi0", 661),
        ("(xi0 + xi1 + xi2 + xi3)^3000", 44),
    ], ids=["nested-250", "number-power", "sum-power", "long-number-power",
            "many-term-sum-power"])
    def test_hostile_entry(self, tmp_path, symbol, col):
        # refused while parsing: no RecursionError, no hour-long power
        spec = tmp_path / "hostile.lops"
        spec.write_text("unknown u multiplicity 1 index 1\n"
                        "equation e multiplicity 1 index 0\n"
                        f"entry e[0] u[0] := {symbol}\n")
        r = run_cli(["analyze", str(spec)])
        assert r.returncode == 2
        assert r.stderr.startswith(f"parse error: {spec}: line 3, column {col}: ")
        assert "Traceback" not in r.stderr

    def test_block_too_deep_to_expand(self, tmp_path):
        # one cyclic block with more rows than the recursion limit leaves
        # frames for its Laplace expansion (odd, so it takes no Schur step)
        n = 1201
        spec = tmp_path / "cycle.lops"
        spec.write_text(f"unknown u multiplicity {n} index 1\n"
                        f"equation e multiplicity {n} index 0\n"
                        + "".join(f"entry e[{i}] u[{i}] := xi0\n"
                                  f"entry e[{i}] u[{(i + 1) % n}] := xi1\n" for i in range(n)))
        r = run_cli(["analyze", str(spec)])
        assert r.returncode == 2
        assert r.stderr.startswith(f"input error: {spec}: a 1201x1201 block is too deep")
        assert "Traceback" not in r.stderr


# two valid specs and loose tokens to edit them with; every name is from this
# fixed pool, so however the specs are edited they declare only a few atoms
SOUP_SPECS = [
    ["unknown u multiplicity 1 index 2", "equation e multiplicity 1 index 0",
     "param a constraint: positive", "assign a := 3/2",
     "entry e[0] u[0] := a*xi0^2 - xi1^2 - xi2^2 - xi3^2", "depends e on u order 1",
     "prefactor := 1", "factor 1 := a*xi0^2 - xi1^2 - xi2^2 - xi3^2"],
    ["unknown v multiplicity 2 index 1", "equation f multiplicity 2 index 0",
     "param b constraint: nonzero", "assign b := -1", "entry f[0] v[0] := xi0 - xi1",
     "entry f[1] v[1] := (xi0 + b*xi2)^2", "entry f[0] v[1] := -xi3*(xi0 - xi1)",
     "prefactor := 1", "factor 1 := xi0 - xi1", "factor 2 := xi0 + b*xi2"],
]
SOUP_TOKENS = ["unknown", "equation", "param", "assign", "entry", "depends", "factor",
               "prefactor", "multiplicity", "index", "order", "on", "constraint",
               "positive", "u", "e", "a", "b", "xi0", "xi1", "xi3", "0", "1", "2",
               "3/2", ":=", ":", "[", "]", "+", "-", "*", "^", "/", "(", ")", "#", "$", " "]


@st.composite
def soup_specs(draw):
    """A valid spec after up to three random edits: a loose token inserted
    into a line, a line dropped, or a line of loose tokens added."""
    lines = list(draw(st.sampled_from(SOUP_SPECS)))
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["token", "drop", "line"]))
        if edit == "token":
            at = draw(st.integers(0, len(lines[j])))
            lines[j] = lines[j][:at] + draw(st.sampled_from(SOUP_TOKENS)) + lines[j][at:]
        elif edit == "drop" and len(lines) > 1:
            del lines[j]
        elif edit == "line":
            lines.insert(j, " ".join(draw(st.lists(st.sampled_from(SOUP_TOKENS), max_size=8))))
    return "\n".join(lines) + "\n"


def analyze_in_process(content: bytes):
    """(exit code, stderr) of `lops analyze --json` on a spec of these bytes."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "fuzz.lops")
        with open(path, "wb") as fh:
            fh.write(content)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["analyze", path, "--json"])
    return code, err.getvalue()


class TestNoTraceback:
    """Any input gives exit 0, 1 or 2 and a message, never a traceback."""

    @given(st.binary(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_random_bytes(self, content):
        code, err = analyze_in_process(content)
        assert code in (0, 1, 2) and "Traceback" not in err

    @given(soup_specs())
    @settings(max_examples=500, deadline=None)
    def test_token_soup(self, text):
        code, err = analyze_in_process(text.encode())
        assert code in (0, 1, 2) and "Traceback" not in err


class TestSpecChecks:
    """Each malformed spec exits 2 naming its line, with no traceback; the
    light cone written with the opposite sign is hyperbolic."""

    HEAD = ("unknown u multiplicity 1 index 2\n"
            "equation e multiplicity 1 index 0\n")
    CONE = "xi0^2 - xi1^2 - xi2^2 - xi3^2"

    @pytest.mark.parametrize("body, where, message", [
        ("entry e[0] u[0] := xi0*(xi0 + xi1)\nprefactor := 1\nfactor 1 := xi0\n"
         f"factor 1 := xi0 + xi1\nfactor 0 := {CONE}\n", "line 7, column 8",
         "multiplicity must be at least 1"),
        ("entry e[0] u[0] := xi0^2\nprefactor := 1\n", "line 4, column 1", "no factors"),
        ("entry e[0] u[0] := xi0^2\nprefactor := 1\nfactor 1 := xi1 - xi1\n",
         "line 5, column 13", "claimed factor 1 (0) is zero"),
        ("entry e[0] u[0] := xi0^2\nprefactor := 1\nfactor 2 := 3\n",
         "line 5, column 13", "claimed factor 1 (3) does not involve xi0..xi3"),
        ("entry e[0] u[0] := xi0^2\nprefactor := 1\nfactor 1 := xi0\nfactor 1 := xi0^2 + xi1\n",
         "line 6, column 13", "claimed factor 2 (xi0^2 + xi1) is not homogeneous"),
        ("entry e[3] u[0] := xi0^2\n", "line 3, column 9",
         "index 3 out of range for block 'e' of multiplicity 1"),
        ("entry e[0] u[0] := xi0^2\nunknown v multiplicity 2 index 1\n", "line 4, column 1",
         "equations total 1, unknowns total 3"),
        ("entry e[0] u[0] := xi0^2\nfactor 100000000000000000000 := xi0\n", "line 4, column 8",
         "factor multiplicity 100000000000000000000 times degree 1 exceeds"),
    ], ids=["factor-multiplicity-zero", "prefactor-without-factor", "zero-factor",
            "xi-free-factor", "inhomogeneous-factor", "index-out-of-range", "not-square",
            "factor-multiplicity-past-max-degree"])
    def test_malformed_spec_located(self, tmp_path, body, where, message):
        spec = tmp_path / "bad.lops"
        spec.write_text(self.HEAD + body)
        r = run_cli(["analyze", str(spec)])
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert where in r.stderr and message in r.stderr

    def test_rows_past_the_bound_refused_before_the_matrix(self, tmp_path):
        # a 20,000 x 20,000 symbol grid would need about 3.2 GB; under a
        # 1.5 GB address-space cap the spec must be refused before it is built
        spec = tmp_path / "big.lops"
        spec.write_text("unknown w multiplicity 20000 index 1\n"
                        "equation e multiplicity 20000 index 0\n")
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))\n"
                "from lops.cli import main\n"
                "sys.exit(main(['analyze', sys.argv[1]]))\n")
        r = run_python("-c", code, str(spec))
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert "line 1, column 24: unknown blocks total 20000 rows, more than" in r.stderr

    @pytest.mark.parametrize("text, where, message", [
        ("prefactor := 1\nfactor 1 := xi0\n", "line 3, column 1", "no unknown block"),
        ("", "line 1, column 1", "no unknown block"),
        ("# a comment and nothing else\n", "line 2, column 1", "no unknown block"),
        ("unknown u multiplicity 1 index 1\n", "line 2, column 1", "no equation block"),
    ], ids=["claim-only", "empty", "comment-only", "unknown-only"])
    def test_spec_without_blocks_located(self, tmp_path, text, where, message):
        spec = tmp_path / "bad.lops"
        spec.write_text(text)
        r = run_cli(["analyze", str(spec)])
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert where in r.stderr and message in r.stderr

    def test_negated_cone_is_hyperbolic(self, tmp_path):
        spec = tmp_path / "negated.lops"
        spec.write_text(self.HEAD + f"entry e[0] u[0] := {self.CONE}\nprefactor := -1\n"
                        "factor 1 := -xi0^2 + xi1^2 + xi2^2 + xi3^2\n")
        r = run_cli(["analyze", str(spec)])
        assert r.returncode == 0, r.stdout + r.stderr
        assert "factor0(x1): hyperbolic (quadratic-signature)" in r.stdout


class TestVanishingFactor:
    def test_cubic_factor_vanishing_at_tau_fails_without_traceback(self, tmp_path):
        spec = tmp_path / "cube.lops"
        spec.write_text("unknown w multiplicity 1 index 3\n"
                        "equation e multiplicity 1 index 0\n"
                        "entry e[0] w[0] := xi1^3\n"
                        "prefactor := 1\n"
                        "factor 1 := xi1^3\n")
        r = run_cli(["analyze", str(spec), "--json"])
        assert r.returncode == 1
        assert "Traceback" not in r.stderr
        verdict = json.loads(r.stdout)["factors"][0]
        assert verdict["verdict"] == "not-hyperbolic"
        assert verdict["method"] == "vanishes-at-tau"
        assert verdict["witness"] == "vanishes at tau=(1,0,0,0)"


    @pytest.mark.parametrize("factor", ["a*xi0", "a*xi0^3"], ids=["linear", "cubic"])
    def test_factor_zero_at_the_assignment_fails_without_traceback(self, tmp_path, factor):
        spec = tmp_path / "zero.lops"
        spec.write_text("unknown w multiplicity 1 index 1\n"
                        "equation e multiplicity 1 index 0\n"
                        "param a\n"
                        "assign a := 0\n"
                        "entry e[0] w[0] := xi0\n"
                        "prefactor := 1\n"
                        f"factor 1 := {factor}\n")
        r = run_cli(["analyze", str(spec), "--json"])
        assert r.returncode == 1
        assert "Traceback" not in r.stderr
        assert json.loads(r.stdout)["factors"][0]["method"] == "vanishes-at-tau"

    def test_reference_factors_zero_at_the_override_fail_without_traceback(self):
        # P1 = 2(F + q) * cone is the zero polynomial at F = q = 0
        r = run_cli(["analyze", ens_spec_path(), "--F", "0", "--q", "0", "--json"])
        assert r.returncode == 1
        assert "Traceback" not in r.stderr
        p1 = json.loads(r.stdout)["factors"][3]
        assert (p1["method"], p1["verdict"]) == ("vanishes-at-tau", "not-hyperbolic")


class TestCountFlags:
    """A count below 1 would let a check pass on nothing: exit 2, naming the
    flag.  `ens verify` decides root nonnegativity exactly and takes no
    direction count at all."""

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "WAVE", "--samples", "0"], "argument --samples: must be at least 1"),
        (["analyze", "WAVE", "--samples", "-5"], "argument --samples: must be at least 1"),
        (["ens", "verify", "--samples", "0"], "argument --samples: must be at least 1"),
        (["ens", "verify", "--n", "10"], "unrecognized arguments: --n 10"),
        (["cones", "--factor", "light", "--n", "0"], "argument --n: must be at least 1"),
        (["lab", "run", "--refine", "0"], "argument --refine: must be at least 1"),
        (["lab", "run", "--refine", "-1"], "argument --refine: must be at least 1"),
    ], ids=["analyze-samples-0", "analyze-samples-negative", "ens-verify-samples",
            "ens-verify-n", "cones-n", "lab-refine-0", "lab-refine-negative"])
    def test_rejected(self, argv, message, capsys):
        argv = [wave_spec_path() if a == "WAVE" else a for a in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    # a run of three refinements would not fit in memory, so these tests
    # call the parser alone and never a handler
    @pytest.mark.parametrize("refine", ["3", "40"])
    def test_refine_above_two_rejected(self, refine, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["lab", "run", "--refine", refine])
        assert exit_info.value.code == 2
        assert (f"argument --refine: must be at most 2, got {refine}: 3 refinements "
                "already take a lattice of 17,850,625 nodes") in capsys.readouterr().err

    def test_refine_two_accepted(self):
        assert build_parser().parse_args(["lab", "run", "--refine", "2"]).refine == 2


class TestRealFlags:
    """A negative or non-finite tolerance fails every sampled factor with no
    witness; a spacing that is not finite and positive, or whose entropy bound
    overflows, breaks the lab's checks; a rational with a zero denominator, a
    reference fluid with F <= 0 or q < 0, or a zero tau has no meaning; a flag
    the subcommand does not read would do nothing: exit 2, naming the flag,
    with no traceback."""

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "WAVE", "--tol", "-1"], "argument --tol: must be at least 0"),
        (["analyze", "WAVE", "--tol", "nan"], "argument --tol: must be finite"),
        (["lab", "run", "--h", "0"], "argument --h: must be positive"),
        (["lab", "run", "--h", "nan"], "argument --h: must be finite"),
        (["lab", "run", "--h", "1e200"], "argument --h: its square overflows"),
        (["lab", "run", "--h", "1e154"],
         "argument --h: its square overflows the entropy bound 10*h^2"),
        (["lab", "run", "--tol", "-1"], "unrecognized arguments: --tol -1"),
        (["ens", "verify", "--samples", "1", "--tau", "9,9,9,9"],
         "unrecognized arguments: --tau 9,9,9,9"),
        (["ens", "verify", "--samples", "1", "--tol", "5"], "unrecognized arguments: --tol 5"),
        (["cones", "--factor", "light", "--samples", "7"], "unrecognized arguments: --samples 7"),
        (["analyze", "WAVE", "--F", "1/0"], "argument --F: expected a rational, got '1/0'"),
        (["analyze", "WAVE", "--q", "x"], "argument --q: expected a rational, got 'x'"),
        (["analyze", "WAVE", "--tau", "0,0,0,0"], "argument --tau: must be nonzero"),
        (["cones", "--factor", "light", "--n", "5", "--tau", "1/0,0,0,0"],
         "argument --tau: expected a rational, got '1/0'"),
        (["cones", "--factor", "light", "--n", "5", "--tau", "0,0,0,0"],
         "argument --tau: must be nonzero"),
        (["cones", "--factor", "light", "--n", "5", "--F", "0"],
         "argument --F: must be positive, got 0"),
        (["cones", "--factor", "light", "--n", "5", "--q", "-1"],
         "argument --q: must be at least 0, got -1"),
        (["ens", "verify", "--samples", "1", "--F", "0"],
         "argument --F: must be positive, got 0"),
        (["ens", "verify", "--samples", "1", "--F", "-2"],
         "argument --F: must be positive, got -2"),
        (["ens", "verify", "--samples", "1", "--q", "-1"],
         "argument --q: must be at least 0, got -1"),
        (["ens", "verify", "--samples", "1", "--F", "-3/2"],
         "argument --F: must be positive, got -3/2"),
        (["ens", "verify", "--samples", "1", "--F=-3/2"],
         "argument --F: must be positive, got -3/2"),
        (["cones", "--factor", "light", "--n", "5", "--q", "-1/2"],
         "argument --q: must be at least 0, got -1/2"),
    ], ids=["tol-negative", "tol-nan", "lab-h-0", "lab-h-nan", "lab-h-huge",
            "lab-h-bound-overflows", "lab-tol", "ens-verify-tau", "ens-verify-tol",
            "cones-samples", "analyze-F-zero-denominator", "analyze-q-not-rational",
            "analyze-tau-zero", "cones-tau-zero-denominator", "cones-tau-zero",
            "cones-F-zero", "cones-q-negative", "ens-verify-F-zero",
            "ens-verify-F-negative", "ens-verify-q-negative", "ens-verify-F-negative-rational",
            "ens-verify-F-negative-rational-joined", "cones-q-negative-rational"])
    def test_rejected(self, argv, message, capsys):
        argv = [wave_spec_path() if a == "WAVE" else a for a in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [("--F", "0"), ("--F", "-1"), ("--q", "0")])
    def test_analyze_override_checks_the_declared_constraint(self, flag, value, capsys):
        # the reference spec declares F and q positive, and an override
        # is checked as an `assign` in the file would be
        assert main(["analyze", ens_spec_path(), flag, value, "--json"]) == 1
        items = json.loads(capsys.readouterr().out)["structure"]["items"]
        name = flag[2:]
        checked = [i for i in items if i["kind"] == "assignment-constraint"
                   and i["subject"] == name]
        assert checked == [{"kind": "assignment-constraint", "subject": name,
                            "required": "positive", "found": value, "ok": False}]

    def test_analyze_takes_any_finite_rational(self, capsys):
        # a spec declares its own parameter constraints; the wave spec reads none
        assert main(["analyze", wave_spec_path(), "--F=-3/2", "--q", "-1"]) == 0
        assert "overall: pass" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        ["--F", "-3/2", "--q", "-1/4"],
        ["--q=-1/4", "--tau", "-1,0,0,0"],
        ["--tau=-1,0,0,0", "--F", "-2"],
    ], ids=["F-q", "tau", "tau-joined"])
    def test_analyze_takes_signed_values_as_separate_arguments(self, flags, capsys):
        # the wave spec's light cone is hyperbolic for -tau as for tau
        assert main(["analyze", wave_spec_path(), *flags]) == 0
        assert "overall: pass" in capsys.readouterr().out

    def test_negative_tau_as_separate_value(self, capsys):
        argv = ["cones", "--factor", "light", "--n", "3"]
        assert main(argv + ["--tau", "-1,0,0,0"]) == 0
        separate = capsys.readouterr().out
        assert main(argv + ["--tau=-1,0,0,0"]) == 0
        assert capsys.readouterr().out == separate

    def test_large_spacing_is_a_verdict(self, capsys):
        # a spacing far too coarse for the differences fails the checks
        assert main(["lab", "run", "--h", "5"]) == 1
        assert "overall: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [["--h", "5e-324"], ["--h", "1e-323", "--refine", "2"]],
                             ids=["halved-to-zero", "quartered-to-zero"])
    def test_subnormal_finest_spacing_rejected(self, flags, capsys):
        # the finest level's differences would divide by 0 and read NaN
        assert main(["lab", "run", "--json", *flags]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--h" in err and "not a positive normal float" in err
        assert "Traceback" not in err

    def test_tiny_normal_spacing_is_a_verdict(self, capsys):
        assert main(["lab", "run", "--h", "1e-300"]) == 1
        assert "overall: FAIL" in capsys.readouterr().out

    def test_check_without_a_ratio_fails(self, monkeypatch, capsys):
        from lops import lab
        table = lab.refinement_table

        def one_ratio_lost(**kwargs):
            rows = table(**kwargs)
            assert rows[1].ratio is not None and rows[1].h == 0.05
            rows[1].ratio = None  # as when a finer level's shared residuals are 0 or NaN
            return rows

        monkeypatch.setattr(lab, "refinement_table", one_ratio_lost)
        assert main(["lab", "run"]) == 1
        assert "overall: FAIL" in capsys.readouterr().out


class TestAnalyzeEns:
    def test_json_report_fields(self, tmp_path):
        out = tmp_path / "r.json"
        r = run_cli(["analyze", ens_spec_path(), "--json", "--out", str(out)])
        assert r.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["sigma0"] == "24/23"
        assert payload["factor_count"] == 24
        assert payload["total_order"] == 44
        assert payload["determinant"]["xi_degree"] == 44
        assert payload["leray_condition"]["ok"]
        methods = {f["method"] for f in payload["factors"]}
        assert {"quadratic-signature", "linear-exact", "product"} <= methods
        assert "sampled" not in methods
        # the cubic is u.xi times the light cone, split and certified exactly
        cubic = payload["factors"][2]
        assert cubic["factor"] == "factor2(x2)" and cubic["verdict"] == "hyperbolic"
        assert cubic["method"] == "product"
        assert [(p["method"], p["verdict"]) for p in cubic["parts"]] == [
            ("linear-exact", "hyperbolic"), ("quadratic-signature", "hyperbolic")]

    def test_text_report_lists_the_parts(self, tmp_path, capsys):
        assert main(["analyze", ens_spec_path()]) == 0
        lines = capsys.readouterr().out.splitlines()
        at = lines.index("  factor2(x2): hyperbolic (product)")
        assert lines[at + 1:at + 3] == [
            "    xi0: hyperbolic (linear-exact)",
            "    xi0^2 - xi1^2 - xi2^2 - xi3^2: hyperbolic (quadratic-signature)"]
        cone = "xi0^2 - xi1^2 - xi2^2 - xi3^2"
        spec = tmp_path / "light2.lops"
        spec.write_text("unknown u multiplicity 1 index 4\n"
                        "equation e multiplicity 1 index 0\n"
                        f"entry e[0] u[0] := ({cone})^2\n"
                        f"factor 1 := ({cone})^2\n")
        assert main(["analyze", str(spec)]) == 0
        assert (f"  factor0(x1): hyperbolic (power, exponent 2)\n"
                f"    {cone}: hyperbolic (quadratic-signature)\n") in capsys.readouterr().out

    def test_unassigned_parameters_reported(self, tmp_path):
        spec = tmp_path / "na.lops"
        spec.write_text(
            "unknown w multiplicity 1 index 2\n"
            "equation e multiplicity 1 index 0\n"
            "param a\n"
            "entry e[0] w[0] := a*xi0^2 - xi1^2\n"
            "prefactor := 1\n"
            "factor 1 := a*xi0^2 - xi1^2\n")
        r = run_cli(["analyze", str(spec), "--json"])
        assert r.returncode == 1
        verdict = json.loads(r.stdout)["factors"][0]
        assert verdict["verdict"] == "inconclusive"
        assert verdict["method"] == "unassigned"
        assert verdict["witness"] == "unassigned parameters: a"


class TestDeterminism:
    def test_analyze_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            r = run_cli(["analyze", wave_spec_path(), "--json", "--seed", "3",
                         "--out", str(out)])
            assert r.returncode == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_cones_byte_identical(self, tmp_path):
        outs = []
        for i in range(2):
            out = tmp_path / f"c{i}.csv"
            r = run_cli(["cones", "--factor", "light", "--n", "64", "--seed", "5",
                         "--out", str(out)])
            assert r.returncode == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestLoading:
    """`analyze` runs on the exact pipeline alone; reports never depend on
    what the process imported or ran before."""

    def test_analyze_loads_no_numpy_ens_or_lab(self):
        # ens and lab are entered in sys.modules by `import lops.cli`, so
        # every lops module is reachable there, but stay unexecuted (a
        # LazyLoader module) until an attribute is read
        code = (
            "import sys, types\n"
            "import lops.cli\n"
            "def run():\n"
            "    return sorted(n for n in ('numpy', 'lops.ens', 'lops.lab')\n"
            "                  if type(sys.modules.get(n)) is types.ModuleType)\n"
            "assert {'lops.ens', 'lops.lab'} <= set(sys.modules)\n"
            "print(run())\n"
            "assert lops.cli.main(['analyze', sys.argv[1]]) == 0\n"
            "print(run())\n"
            "from lops import ens\n"
            "assert ens.FACTOR_NAMES == ('light', 'flow', 'cubic', 'P1', 'P2')\n"
            "print(run())\n")
        r = run_python("-c", code, wave_spec_path())
        assert r.returncode == 0, r.stderr
        lines = r.stdout.splitlines()
        assert lines[0] == lines[-2] == "[]"
        assert lines[-1] == "['lops.ens']"

    def test_factors_of_degree_three_and_more_load_no_numpy(self, tmp_path):
        # the reference cubic and a cubed light cone under a rational frame
        # are split exactly, with no float screen
        light = ("(3/2*xi0 + 1/8*xi1)^2 - (-1/8*xi0 + xi1)^2 - (3/2*xi2 + xi3)^2"
                 " - (3/2*xi3)^2")
        spec = tmp_path / "light3.lops"
        spec.write_text("unknown u multiplicity 1 index 6\n"
                        "equation e multiplicity 1 index 0\n"
                        f"entry e[0] u[0] := -2/3*({light})^3\n"
                        "prefactor := -2/3\n"
                        f"factor 1 := ({light})^3\n")
        code = ("import json, sys\n"
                "import lops.cli\n"
                "methods = []\n"
                "for i, spec in enumerate(sys.argv[1:3]):\n"
                "    out = f'{sys.argv[3]}/{i}.json'\n"
                "    assert lops.cli.main(['analyze', spec, '--json', '--out', out]) == 0\n"
                "    with open(out) as fh:\n"
                "        methods += [f['method'] for f in json.load(fh)['factors']]\n"
                "print(methods)\n"
                "print('numpy' in sys.modules)\n")
        r = run_python("-c", code, ens_spec_path(), str(spec), str(tmp_path))
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines() == [
            "['quadratic-signature', 'linear-exact', 'product', 'quadratic-signature', "
            "'quadratic-signature', 'power']", "False"]

    def test_factor_zero_at_the_assignment_loads_no_numpy(self, tmp_path):
        # the exact vanishes-at-tau verdict is reached before any float screen
        spec = tmp_path / "zero.lops"
        spec.write_text("param a\n"
                        "assign a := 0\n"
                        "unknown u multiplicity 1 index 1\n"
                        "equation e multiplicity 1 index 0\n"
                        "entry e[0] u[0] := xi0\n"
                        "factor 1 := a*xi0\n")
        code = ("import json, sys\n"
                "import lops.cli\n"
                "out = sys.argv[2]\n"
                "assert lops.cli.main(['analyze', sys.argv[1], '--json', '--out', out]) == 1\n"
                "with open(out) as fh:\n"
                "    print([f['method'] for f in json.load(fh)['factors']])\n"
                "print('numpy' in sys.modules)\n")
        r = run_python("-c", code, str(spec), str(tmp_path / "zero.json"))
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines() == ["['vanishes-at-tau']", "False"]

    def test_lazy_package_exports(self):
        code = ("import sys, lops\n"
                "assert not any(m.startswith('lops.') for m in sys.modules)\n"
                "from lops import build_ens_system, Poly\n"
                "assert 'lops.ens' in sys.modules and build_ens_system.__module__ == 'lops.ens'\n"
                "assert all(hasattr(lops, name) for name in lops.__all__)\n"
                "print(getattr(lops, 'no_such_name', 'missing'))\n")
        r = run_python("-c", code)
        assert r.returncode == 0, r.stderr
        assert r.stdout == "missing\n"

    def test_ens_report_independent_of_import_order(self):
        # importing ens first gives its atoms the low packed-monomial slots
        code = ("import sys\n"
                "if sys.argv[2] == 'ens-first':\n"
                "    import lops.ens\n"
                "from lops.cli import main\n"
                "sys.exit(main(['analyze', sys.argv[1], '--json']))\n")
        plain, ens_first = (run_python("-c", code, ens_spec_path(), order)
                            for order in ("plain", "ens-first"))
        assert plain.returncode == ens_first.returncode == 0
        assert '"sigma0": "24/23"' in plain.stdout
        assert plain.stdout == ens_first.stdout

    def test_repeated_main_matches_fresh_runs(self, capsys):
        from lops import cli

        runs = [["analyze", wave_spec_path(), "--json"],
                ["cones", "--factor", "light", "--n", "8", "--seed", "2"],
                ["analyze", wave_spec_path(), "--tol", "-1"],
                ["analyze", wave_spec_path(), "--tau", "-1,0,0,0"],
                ["cones", "--factor", "light", "--n", "8", "--seed", "2"]]
        parsers = set()
        for argv in runs:
            fresh = run_cli(argv)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            assert (code, out) == (fresh.returncode, fresh.stdout), argv
            assert err == fresh.stderr
            parsers.add(id(cli._parser()))
        assert len(parsers) == 1


class TestCones:
    def test_light_cone_row_count_and_roots(self):
        r = run_cli(["cones", "--factor", "light", "--n", "100"])
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert len(lines) == 101  # header + rows
        for line in lines[1:]:
            roots = [float(x) for x in line.split(",")[3].split(";")]
            assert len(roots) == 2
            assert abs(roots[0] + 1) < 1e-6 and abs(roots[1] - 1) < 1e-6

    def test_unknown_factor_is_input_error(self):
        r = run_cli(["cones", "--factor", "nope", "--n", "4"])
        assert r.returncode == 2


class TestEnsVerifyCommand:
    def test_degeneration_only_run_at_zero_coupling(self):
        r = run_cli(["ens", "verify", "--q", "0", "--json"])
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["ok"]
        assert set(payload) == {"degeneration", "ok"}

    @pytest.mark.parametrize("flag, value", [
        ("--F", "5"), ("--samples", "3"), ("--seed", "9"),
    ], ids=["F", "samples", "seed"])
    def test_zero_coupling_rejects_full_run_flag(self, flag, value, capsys):
        # the degeneration report reads none of these, so each would do nothing
        assert main(["ens", "verify", "--q", "0", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag} not read with --q 0" in captured.err

    def test_small_sample_run(self):
        r = run_cli(["ens", "verify", "--samples", "3", "--json"])
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["ok"]
        assert payload["determinant"]["ok"]
        assert payload["minkowski_inequalities"]["ok"]
        assert payload["root_nonnegativity"]["ok"]
        assert not payload["quartic"]["claimed_verbatim"]["matches_derived"]

    def test_root_nonnegativity_fails_past_the_threshold(self, capsys):
        # q^2 > 4F(F+q): the claimed table has a negative root at F = 1, q = 5
        assert main(["ens", "verify", "--samples", "1", "--q", "5"]) == 1
        captured = capsys.readouterr()
        assert ("[FAIL] root_nonnegativity.minus-B-plus-R-positive-semidefinite: "
                "F = 1, q = 5: inertia (2,1,0); witness xi = (0, 0, 1, -5/2) gives "
                "-B - |R| = -1/2\n") in captured.out
        assert captured.out.endswith("overall: FAIL\n")
        assert captured.err.startswith(
            "first failure: minus-B-plus-R-positive-semidefinite: F = 1, q = 5")

    def test_root_nonnegativity_holds_at_the_threshold_side(self, capsys):
        # q = 24/5 < (2 + 2*sqrt(2))F
        assert main(["ens", "verify", "--samples", "1", "--q", "24/5"]) == 0
        assert capsys.readouterr().out.endswith("overall: pass\n")

    def test_no_direction_table(self, monkeypatch, capsys):
        # the exact root decision draws no sphere directions
        from lops import hyperbolic

        def refuse(*args, **kwargs):
            raise AssertionError("ens verify drew sphere directions")

        monkeypatch.setattr(hyperbolic, "rational_directions", refuse)
        assert main(["ens", "verify", "--samples", "1"]) == 0
        assert capsys.readouterr().out.endswith("overall: pass\n")


class TestLabCommand:
    def test_json_and_csv_outputs(self, tmp_path):
        out_json = tmp_path / "lab.json"
        r = run_cli(["lab", "run", "--json", "--out", str(out_json)])
        assert r.returncode == 0
        payload = json.loads(out_json.read_text())
        assert payload["ok"]
        out_csv = tmp_path / "lab.csv"
        r2 = run_cli(["lab", "run", "--out", str(out_csv)])
        assert r2.returncode == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "identity,h,residual,ratio"
        assert len(lines) > 10


class TestUnwritableOut:
    """An --out that cannot be written exits 2 naming the path, with no
    traceback: a file in a missing directory, or a directory."""

    @pytest.mark.parametrize("argv, target, reason", [
        (["lab", "run", "--json"], "missing/x.json", "No such file or directory"),
        (["cones", "--factor", "light", "--n", "3"], "missing/x.csv",
         "No such file or directory"),
        (["analyze", "WAVE"], ".", "Is a directory"),
    ], ids=["lab-run", "cones", "analyze-directory"])
    def test_exit_two(self, argv, target, reason, tmp_path, capsys):
        out = tmp_path / target
        argv = [wave_spec_path() if a == "WAVE" else a for a in argv]
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"cannot write {out}: {reason}\n")

    def test_checked_before_the_computation(self, tmp_path, monkeypatch, capsys):
        from lops import cli

        def refuse(**_):
            raise AssertionError("computed before the --out check")

        monkeypatch.setattr(cli.lab, "refinement_table", refuse)
        out = tmp_path / "missing" / "x.json"
        assert main(["lab", "run", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"cannot write {out}: No such file or directory\n")
        assert not out.parent.exists()


def test_main_callable_in_process(capsys):
    code = main(["analyze", wave_spec_path()])
    assert code == 0
    assert "sobolev" in capsys.readouterr().out
