#!/usr/bin/env python3
"""Print one sha256 per report over a fixed set of `lops` runs.

Runs `python -m lops` in a fresh interpreter per report, on every surface,
and prints, per report, its exit code and the sha256 of its bytes.  Each
report gets its own process because that is how the `lops` command runs: a
process's earlier work (which atoms took which packed-monomial slots, what
is cached) must never show in a report, and an in-process run could not
show what a fresh one prints.  Run it against two checkouts and diff the
outputs to see which reports a change moved:

    python scripts/report_digest.py [SRC_DIR] > digests.txt

SRC_DIR is the `src` directory holding the `lops` package to exercise
(default: the one beside this script).  The sweep specs come from this
checkout's `perfbench/specgen.py`: the 50 specs of seed 7.  Three edited
specs follow: the wave spec claiming the Minkowski cone (a wrong claim
compared by expansion), the reference spec with one coefficient of its first
`factor 1` line changed (a wrong claim refuted at an evaluation point), and
the light cone written with the opposite sign.  Five one-entry specs
follow: two quadratics singular on their support, `(xi0 - xi1)^2`, which
splits over Q (`power`, `hyperbolic`), and `(xi0 - xi2)^2 - 2*(xi1 - xi2)^2`,
which does not (`inconclusive`); a cubic that vanishes at tau (1,0,0,0)
(`not-hyperbolic`, method `vanishes-at-tau`); a factor whose parameter has
no value (`inconclusive`); and a negated square inside a product,
`1*-xi2^2`, which is `hyperbolic` only when a unary minus negates its whole
factor, power included.  Five one-block specs close the set: a dense 6x6
symbol with a parameter in every entry, a coupled 2x2 one, so that blocks
of more than one row other than the reference's 10x10 are expanded too, a
6x6 one with three scalar rows (xi0 on the diagonal, zeros between them), a
2-row complement and a fourth xi0 row that couples to nothing, so that a
block other than the reference's takes the Schur step, and a 5x5 one that
takes the common-factor step: three scalar rows c*(xi0 + xi1), every entry
of their rows outside the scalar set a multiple of xi0 + xi1, and a claimed
factor that straddles that common factor and the complement's determinant,
and a 3x3 one, xi0*I + xi1*A + xi2*B + xi3*C with A, B and C symmetric,
whose determinant is a hyperbolic cubic irreducible over Q: no exact split
applies, so its verdict comes from the `sampled` screen.  82 reports in all.
"""

import hashlib
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def digest(src, argv, out_path=None):
    """(exit code, sha256) of one fresh run's report: stdout, or the --out
    file.  `src` is the directory holding the `lops` package."""
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-m", "lops", *argv]
                         + (["--out", out_path] if out_path else []),
                         stdout=subprocess.PIPE, env=env, check=False)
    if out_path:
        with open(out_path, "rb") as fh:
            data = fh.read()
    else:
        data = run.stdout
    return run.returncode, hashlib.sha256(data).hexdigest()


CONE = "xi0^2 - xi1^2 - xi2^2 - xi3^2"


def one_entry(index, symbol, head=""):
    """A 1x1 spec whose entry is `symbol`, claimed as its single factor."""
    return (f"{head}unknown u multiplicity 1 index {index}\n"
            "equation e multiplicity 1 index 0\n"
            f"entry e[0] u[0] := {symbol}\n"
            f"factor 1 := {symbol}\n")


def one_block(rows, factors, head=""):
    """A spec of one unknown and one equation block whose square symbol is
    `rows` (no entry line for a "0"), with the claimed `factors` lines."""
    n = len(rows)
    return (f"{head}unknown u multiplicity {n} index 1\n"
            f"equation e multiplicity {n} index 0\n"
            + "".join(f"entry e[{i}] u[{j}] := {symbol}\n"
                      for i, row in enumerate(rows) for j, symbol in enumerate(row)
                      if symbol != "0")
            + "".join(f"factor {f}\n" for f in factors))


def edited_specs(ens_spec, wave_spec, tmp):
    """(name, path) of the thirteen edited specs, written into `tmp`."""
    with open(wave_spec) as fh:
        wave = [line for line in fh if not line.startswith("factor ")]
    with open(ens_spec) as fh:
        ens = fh.read()
    first = ens.index("\nfactor 1 := ") + 1
    end = ens.index("\n", first)
    specs = {
        "wave-minkowski-claim": "".join(wave) + f"factor 1 := {CONE}\n",
        "ens-wrong-factor": ens[:first] + ens[first:end].replace("2*xi0^2*F", "3*xi0^2*F", 1)
                            + ens[end:],
        "negated-cone": ("unknown u multiplicity 1 index 2\n"
                         "equation e multiplicity 1 index 0\n"
                         f"entry e[0] u[0] := {CONE}\n"
                         "prefactor := -1\n"
                         "factor 1 := -xi0^2 + xi1^2 + xi2^2 + xi3^2\n"),
        "singular-quadratic": one_entry(2, "(xi0 - xi1)^2"),
        "singular-quadratic-unsplit": one_entry(2, "(xi0 - xi2)^2 - 2*(xi1 - xi2)^2"),
        "cubic-vanishing-at-tau": one_entry(3, "xi1^3"),
        "unassigned-parameter": one_entry(1, "xi0 + c*xi1", head="param c\n"),
        "unary-minus-in-product": one_entry(2, "xi0^2 - xi1^2 + 1*-xi2^2"),
        "dense-6x6-block": one_block(
            [[f"{'xi0 + ' if i == j else ''}{(i + 1) * (j + 1)}*c*xi1" for j in range(6)]
             for i in range(6)],
            ["5 := xi0", "1 := xi0 + 91*c*xi1"], head="param c\nassign c := 1/3\n"),
        "coupled-2x2-block": one_block([["xi0", "c*xi1"], ["xi1", "xi0"]],
                                       ["1 := xi0^2 - c*xi1^2"],
                                       head="param c\nassign c := 4\n"),
        "schur-6x6-block": one_block(
            [["xi0", "0", "0", "0", "xi1", "0"],
             ["0", "xi0", "0", "0", "xi2", "0"],
             ["0", "0", "xi0", "0", "xi3", "0"],
             ["0", "0", "0", "xi0", "0", "0"],
             ["xi1", "xi2", "xi3", "0", "2*xi0", "xi1"],
             ["0", "0", "0", "xi2", "xi1", "2*xi0"]],
            ["4 := xi0", "1 := 4*xi0^2 - 3*xi1^2 - 2*xi2^2 - 2*xi3^2"]),
        "schur-common-factor-5x5-block": one_block(
            [["c*(xi0 + xi1)", "0", "0", "xi0 + xi1", "0"],
             ["0", "c*(xi0 + xi1)", "0", "0", "2*(xi0 + xi1)"],
             ["0", "0", "c*(xi0 + xi1)", "xi0 + xi1", "0"],
             ["0", "xi1", "0", "xi0", "xi1"],
             ["xi1", "0", "xi1", "xi1", "xi0"]],
            ["2 := xi0 + xi1", "1 := (xi0 + xi1)*(c^2*xi0^2 - (c - 2)^2*xi1^2)"],
            head="param c\nassign c := 4\nprefactor := c\n"),
        "irreducible-cubic-3x3-block": one_block(
            [["xi0 + xi1 + 2*xi3", "2*xi1 + xi2", "xi2 + xi3"],
             ["2*xi1 + xi2", "xi0 - xi1 + 2*xi2", "xi1 + xi3"],
             ["xi2 + xi3", "xi1 + xi3", "xi0 + 3*xi1 - 2*xi2 + xi3"]],
            ["1 := xi0^3 + 3*xi0^2*xi1 + 3*xi0^2*xi3 - 6*xi0*xi1^2 + 4*xi0*xi1*xi2"
             " + 2*xi0*xi1*xi3 - 6*xi0*xi2^2 - 16*xi1^3 + 8*xi1^2*xi2 - 11*xi1^2*xi3"
             " + 4*xi1*xi2^2 + 22*xi1*xi2*xi3 - 2*xi1*xi3^2 - 11*xi2^2*xi3"
             " + 4*xi2*xi3^2 - 2*xi3^3"]),
    }
    for name, text in specs.items():
        path = os.path.join(tmp, f"{name}.lops")
        with open(path, "w") as fh:
            fh.write(text)
        yield name, path


def runs(ens_spec, wave_spec, tmp):
    yield "analyze-ens.json", ["analyze", ens_spec, "--json"], None
    yield "analyze-ens.txt", ["analyze", ens_spec], None
    yield "ens-verify-20.json", ["ens", "verify", "--samples", "20", "--json"], None
    yield ("ens-verify-100-seed3.json",
           ["ens", "verify", "--samples", "100", "--seed", "3", "--json"], None)
    # more states than one chunk of the streamed draw
    yield ("ens-verify-150-seed5.json",
           ["ens", "verify", "--samples", "150", "--seed", "5", "--json"], None)
    yield "ens-verify-q0.txt", ["ens", "verify", "--q", "0"], None
    yield ("ens-verify-F2-q1_3.txt",
           ["ens", "verify", "--samples", "2", "--F", "2", "--q", "1/3"], None)
    # on both sides of the claimed table's root threshold q^2 = 4F(F+q)
    for q in ("5", "49/10", "24/5"):
        yield (f"ens-verify-q{q.replace('/', '_')}.txt",
               ["ens", "verify", "--samples", "2", "--q", q], None)
    for factor in ("light", "flow", "cubic", "P1", "P2"):
        yield f"cones-{factor}.json", ["cones", "--factor", factor, "--n", "1000", "--json"], None
    yield ("cones-cubic.csv", ["cones", "--factor", "cubic", "--n", "1000"],
           os.path.join(tmp, "cones.csv"))
    yield "lab-run.json", ["lab", "run", "--json"], None
    yield "lab-run-h0.2-refine2.json", ["lab", "run", "--h", "0.2", "--refine", "2", "--json"], None
    yield "lab-run.csv", ["lab", "run"], os.path.join(tmp, "lab.csv")
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from specgen import write_batch
    for path, _ in write_batch(7, 50, os.path.join(tmp, "sweep")):
        yield f"sweep/{os.path.basename(path)}", ["analyze", path, "--json"], None
    for name, path in edited_specs(ens_spec, wave_spec, tmp):
        yield f"{name}.json", ["analyze", path, "--json"], None


def main():
    src = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else os.path.join(ROOT, "src"))
    data = os.path.join(src, "lops", "data")
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, out_path in runs(os.path.join(data, "ens.lops"),
                                         os.path.join(data, "wave.lops"), tmp):
            code, sha = digest(src, argv, out_path)
            print(f"{sha}  exit={code}  {name}", flush=True)


if __name__ == "__main__":
    main()
