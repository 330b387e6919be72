"""Cross-checks of the analyze-sweep generator against sympy, an oracle
independent of lops, plus the benchmark's report classifier.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import specgen  # noqa: E402

sp = pytest.importorskip("sympy")

XI = sp.symbols("xi0:4")
S = sp.Symbol("s")
TAU = (1, 0, 0, 0)


def _sym(text: str):
    return sp.expand(sp.sympify(text.replace("^", "**"),
                                locals={f"xi{i}": XI[i] for i in range(4)}))


def parse(text: str) -> dict:
    spec = {"m": {}, "n": {}, "entries": {}, "factors": [], "prefactor": None}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        head, rest = line.split(" ", 1)
        if head == "unknown":
            name, _, _, _, m = rest.split()
            spec["m"][name] = int(m)
        elif head == "equation":
            name, _, _, _, n = rest.split()
            spec["n"][name] = int(n)
        elif head == "entry":
            lhs, expr = rest.split(":=")
            eq, unk = (t.split("[")[0] for t in lhs.split())
            spec["entries"][(eq, unk)] = _sym(expr)
        elif head == "prefactor":
            spec["prefactor"] = _sym(rest.split(":=")[1])
        elif head == "factor":
            mult, expr = rest.split(":=")
            spec["factors"].append((_sym(expr), int(mult)))
    return spec


def line_restriction(p, eta):
    return sp.Poly(sp.expand(p.subs({XI[i]: eta[i] + S * TAU[i] for i in range(4)},
                                    simultaneous=True)), S)


def directions(rng, count):
    return [[Fraction(0)] + [Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(3)]
            for _ in range(count)]


BATCH = specgen.make_batch(seed=11, count=len(specgen.COMPOSITION))


def test_same_seed_same_batch_and_seeds_differ():
    again = specgen.make_batch(seed=11, count=len(specgen.COMPOSITION))
    assert [(n, t) for n, t, _ in again] == [(n, t) for n, t, _ in BATCH]
    other = specgen.make_batch(seed=12, count=len(specgen.COMPOSITION))
    assert [t for _, t, _ in other] != [t for _, t, _ in BATCH]


@pytest.mark.parametrize("name,text,exp", BATCH, ids=[n for n, _, _ in BATCH])
def test_generated_claims_hold_under_sympy(name, text, exp):
    spec = parse(text)
    blocks = sorted(spec["m"], key=lambda u: int(u[1:]))
    eqs = sorted(spec["n"], key=lambda e: int(e[1:]))

    # entries are xi-homogeneous of degree m - n and the matrix is upper
    # triangular, so the determinant is the diagonal product
    mat = sp.zeros(len(blocks))
    for (eq, unk), p in spec["entries"].items():
        i, j = eqs.index(eq), blocks.index(unk)
        assert j >= i
        poly = sp.Poly(p, *XI)
        assert poly.is_homogeneous
        assert poly.total_degree() == spec["m"][unk] - spec["n"][eq]
        mat[i, j] = p

    # the claimed factorization is exact
    claim = spec["prefactor"]
    for p, mult in spec["factors"]:
        claim *= p ** mult
    assert sp.expand(mat.det() - claim) == 0

    rng = random.Random(name)
    dirs = directions(rng, 6)
    assert len(spec["factors"]) == len(exp.factors)
    for (p, mult), f in zip(spec["factors"], exp.factors):
        assert mult == f.multiplicity
        assert sp.Poly(p, *XI).total_degree() == f.degree
        assert p.subs(dict(zip(XI, TAU))) != 0
        real_counts, repeated = [], []
        for eta in dirs:
            g = line_restriction(p, eta)
            assert g.degree() == f.degree
            real_counts.append(len(sp.real_roots(g)))
            repeated.append(sp.degree(sp.gcd(g, g.diff(S)), S) > 0)
        if f.hyperbolic:
            assert real_counts == [f.degree] * len(dirs)
        else:
            assert min(real_counts) < f.degree
        assert all(repeated) == f.repeated_root

    degrees = [f.degree for f in exp.factors]
    index_ok = max(degrees) >= max(spec["m"].values()) - min(spec["n"].values())
    assert index_ok == exp.index_ok
    all_hyp = all(f.hyperbolic for f in exp.factors)
    assert exp.exit_code == (0 if all_hyp and index_ok else 1)
    count = sum(m for _, m in spec["factors"])
    if all_hyp:
        assert exp.factor_count == count
        r = sp.Rational(count, count - 1) if count > 1 else None
        sigma = "sobolev" if r is None else f"{r.p}/{r.q}"    # lops prints "2/1"
        assert exp.sigma0 == sigma


def test_batch_mixes_every_kind():
    used = {k for kinds in specgen.COMPOSITION for k in kinds}
    assert used == set(specgen.KINDS)
    assert any(e.known_defect for _, _, e in BATCH)
    assert any(not e.known_defect and e.exit_code == 0 for _, _, e in BATCH)


def test_known_defect_classification():
    import run

    name, _, exp = next(b for b in BATCH if b[2].known_defect)
    truth = run.spec_facts(exp, defect=False)
    defect = run.spec_facts(exp, defect=True)

    def op(facts):
        report = {"factorization": {"ok": facts["factorization.ok"]},
                  "factors": [{"verdict": v} for v in facts["verdicts"]],
                  "leray_condition": {"ok": facts["index_ok"]}, "ok": facts["ok"]}
        if facts["sigma0"] is not None:
            report.update(sigma0=facts["sigma0"], factor_count=facts["factor_count"])
        return {"rc": facts["rc"], "stdout": json.dumps(report)}

    assert run.check_spec(exp, op(truth)).ok
    got = run.check_spec(exp, op(defect))
    assert not got.ok and got.known
    wrong = dict(truth, index_ok=not truth["index_ok"])
    got = run.check_spec(exp, op(wrong))
    assert not got.ok and not got.known
