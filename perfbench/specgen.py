"""Seeded generator of small block-triangular `.lops` specs with known answers.

Every spec is upper block-triangular with 1 x 1 diagonal blocks, so its
characteristic determinant is the product of the diagonal entries.  Each
diagonal entry is a rational constant times a product of building blocks
whose hyperbolicity with respect to tau = (1, 0, 0, 0) is known from the
construction:

* a rational linear form with a nonzero xi0 coefficient (hyperbolic);
* a light cone  y0^2 - y1^2 - y2^2 - y3^2  with  y = L xi  for a random
  rational frame L that keeps tau timelike (hyperbolic, signature (1, 3));
* flow * light with the flow covector timelike for the same frame, so its
  root lies strictly between the two cone roots (hyperbolic, simple roots);
* light^2 and light^3, claimed as one factor (hyperbolic, repeated roots)
  or light^2 claimed as `factor 2 := light`;
* controls: a positive-definite sum of squares on xi0 and two other
  coordinates, and a flow times such a sum (not hyperbolic).

The expected verdicts, the index condition, sigma0 and the exit code follow
from the construction alone; nothing here runs lops.  Run as a script to
write a batch:  python3 specgen.py <seed> <count> <out_dir>
"""

from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

Fr = Fraction

# Block kinds with their claimed xi-degree, true verdict, and whether the
# claimed factor has a repeated root.  `light2-split` claims light^2 as
# `factor 2 := light`.
KINDS = {
    "flow": (1, True, False),
    "light": (2, True, False),
    "flow-light": (3, True, False),
    "light2": (4, True, True),
    "light3": (6, True, True),
    "light2-split": (2, True, False),
    "ctrl-sq": (2, False, False),
    "ctrl-flow-sq": (3, False, False),
}

# One batch repeats this 25-spec cycle, so every seed costs about the same
# work: sixteen cheap specs with exact verdicts only, and nine whose claimed
# factors of degree >= 3 go through the float root screen.  The mix puts
# both reported latencies of a 50-spec batch inside one class of specs,
# not on a boundary between classes: the p80, with ten specs beyond it,
# among the eighteen float-screened specs (twelve carry flow * light), and
# the p50 among the sixteen cheap three-block specs.
COMPOSITION = (
    ("flow", "light", "ctrl-sq"),
    ("light", "light2-split"),
    ("flow", "flow-light"),
    ("light", "ctrl-sq"),
    ("flow", "light", "light"),
    ("light2",),
    ("flow", "flow-light"),
    ("flow-light",),
    ("flow", "light2-split"),
    ("ctrl-sq", "flow"),
    ("flow-light", "light"),
    ("light", "light", "flow"),
    ("flow", "flow", "light"),
    ("ctrl-flow-sq",),
    ("light2-split",),
    ("flow", "light"),
    ("light", "flow", "flow"),
    ("light3",),
    ("ctrl-sq",),
    ("light", "light", "light2-split"),
    ("flow", "ctrl-sq", "light"),
    ("flow", "light2-split", "flow"),
    ("flow-light", "flow"),
    ("flow", "flow-light"),
    ("light2-split", "light"),
)


@dataclass
class ClaimedFactor:
    text: str
    multiplicity: int
    degree: int
    hyperbolic: bool
    repeated_root: bool


@dataclass
class Expected:
    name: str
    factors: List[ClaimedFactor]
    index_ok: bool
    exit_code: int
    sigma0: str          # "" when some factor is not hyperbolic
    factor_count: int

    @property
    def known_defect(self) -> bool:
        """A hyperbolic factor with a repeated root that lops sends to its
        float root screen (xi-degree >= 3), where repeated roots split into
        complex pairs of size ~1e-8 and read as not hyperbolic."""
        return any(f.repeated_root and f.degree >= 3 for f in self.factors)


def _rat(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    return Fr(rng.randint(lo, hi), den)


def _nonzero(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    return Fr(rng.choice([k for k in range(lo, hi + 1) if k]), den)


def _linear(coeffs: Sequence[Fraction]) -> str:
    parts = []
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        parts.append(("- " if c < 0 else "+ ") + f"{mag}xi{j}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _frame(rng: random.Random) -> List[List[Fraction]]:
    """Sparse rational frame with one fixed pattern, so every light cone has
    the same terms: a boost-like mix of xi0 and xi1, a shear of xi3 into
    y2, and rational scalings.  Column 0 is (a, b, 0, 0) with a >= 1/2 and
    0 < |b| <= 1/4, so tau stays timelike; the determinant
    (a d1 - L01 b) d2 d3 is nonzero since a d1 >= 1/4 > |L01 b|."""
    L = [[Fr(int(i == j)) for j in range(4)] for i in range(4)]
    L[0][0] = Fr(rng.choice((1, 3, 2)), rng.choice((1, 2)))
    L[1][0] = _nonzero(rng, -2, 2, 8)
    L[0][1] = _nonzero(rng, -3, 3, 8)
    L[2][3] = _nonzero(rng, -4, 4, 4)
    for d in range(1, 4):
        L[d][d] = Fr(rng.randint(2, 6), 4)
    return L


def _light(L) -> str:
    ys = [f"({_linear(row)})^2" for row in L]
    return f"{ys[0]} - {ys[1]} - {ys[2]} - {ys[3]}"


def _timelike_flow(rng: random.Random, L) -> str:
    """w . (L xi) with w = (1, w1, w2, w3), |w_i| <= 1/4: a covector inside
    the dual cone of the frame's light cone."""
    w = [Fr(1)] + [_nonzero(rng, -2, 2, 8) for _ in range(3)]
    return _linear([sum(w[i] * L[i][j] for i in range(4)) for j in range(4)])


def _flow(rng: random.Random) -> str:
    """A linear form with all four coefficients nonzero, so every flow costs
    the same number of terms."""
    c = [_rat(rng, 1, 6, rng.choice((1, 2, 3)))] + [_nonzero(rng, -4, 4, 3) for _ in range(3)]
    return _linear(c)


def _sum_of_squares(rng: random.Random) -> str:
    coords = [0] + sorted(rng.sample(range(1, 4), 2))
    return " + ".join(f"{_rat(rng, 1, 5, rng.choice((1, 2)))}*xi{j}^2" for j in coords)


def _block(rng: random.Random, kind: str) -> Tuple[str, List[ClaimedFactor]]:
    """(diagonal-entry product text, claimed factors) for one block kind."""
    deg, hyp, rep = KINDS[kind]
    if kind == "flow":
        text = _flow(rng)
    elif kind == "ctrl-sq":
        text = _sum_of_squares(rng)
    elif kind == "ctrl-flow-sq":
        text = f"({_flow(rng)})*({_sum_of_squares(rng)})"
    else:
        L = _frame(rng)
        light = _light(L)
        if kind == "light":
            text = light
        elif kind == "flow-light":
            text = f"({_timelike_flow(rng, L)})*({light})"
        elif kind == "light2-split":
            return f"({light})^2", [ClaimedFactor(light, 2, 2, True, False)]
        else:
            text = f"({light})^{deg // 2}"
    return text, [ClaimedFactor(text, 1, deg, hyp, rep)]


def _sigma_text(count: int) -> str:
    if count == 1:
        return "sobolev"
    s = Fr(count, count - 1)
    return f"{s.numerator}/{s.denominator}"


def make_spec(rng: random.Random, kinds: Sequence[str], name: str) -> Tuple[str, Expected]:
    """One spec: diagonal blocks of the given kinds, in a random order, with
    a random coupling in every upper off-diagonal entry whose degree
    m_j - n_i is positive."""
    kinds = list(kinds)
    rng.shuffle(kinds)
    blocks = [_block(rng, k) for k in kinds]
    consts = [Fr(rng.choice((1, 2, 3, 5)), rng.choice((1, 2, 3))) * rng.choice((1, -1))
              for _ in blocks]
    n_idx = [rng.randint(0, 1) for _ in blocks]
    m_idx = [n + sum(f.degree * f.multiplicity for f in fs)
             for n, (_, fs) in zip(n_idx, blocks)]

    lines = [f"# generated by specgen.py: {name}"]
    for k in range(len(blocks)):
        lines.append(f"unknown u{k} multiplicity 1 index {m_idx[k]}")
    for k in range(len(blocks)):
        lines.append(f"equation e{k} multiplicity 1 index {n_idx[k]}")
    for k, ((text, _), c) in enumerate(zip(blocks, consts)):
        lines.append(f"entry e{k}[0] u{k}[0] := {c}*({text})")
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            d = m_idx[j] - n_idx[i]
            if d >= 1:
                lines.append(f"entry e{i}[0] u{j}[0] := {_rat(rng, -5, 5, 2) or 1}"
                             f"*xi{rng.randrange(4)}^{d}")
    prefactor = Fr(1)
    for c in consts:
        prefactor *= c
    lines.append(f"prefactor := {prefactor}")
    factors = [f for _, fs in blocks for f in fs]
    for f in factors:
        lines.append(f"factor {f.multiplicity} := {f.text}")

    all_hyp = all(f.hyperbolic for f in factors)
    index_ok = max(f.degree for f in factors) >= max(m_idx) - min(n_idx)
    count = sum(f.multiplicity for f in factors)
    exp = Expected(name=name, factors=factors, index_ok=index_ok,
                   exit_code=0 if all_hyp and index_ok else 1,
                   sigma0=_sigma_text(count) if all_hyp else "",
                   factor_count=count)
    return "\n".join(lines) + "\n", exp


def make_batch(seed: int, count: int) -> List[Tuple[str, str, Expected]]:
    """`count` specs as (file name, text, expected), the same for a seed."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        kinds = COMPOSITION[i % len(COMPOSITION)]
        name = f"s{i:03d}-{'+'.join(kinds)}.lops"
        text, exp = make_spec(rng, kinds, name)
        out.append((name, text, exp))
    return out


def write_batch(seed: int, count: int, out_dir: str) -> List[Tuple[str, Expected]]:
    """Write the batch into out_dir; returns (path, expected) per spec."""
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for name, text, exp in make_batch(seed, count):
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write(text)
        rows.append((path, exp))
    return rows


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: specgen.py <seed> <count> <out_dir>")
    for path, exp in write_batch(int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]):
        print(path, exp.exit_code, "known-defect" if exp.known_defect else "")
