#!/usr/bin/env python3
"""Regenerate the shipped .lops spec files from the programmatic builders.

The shipped files are committed; this script exists so changes to the
builders propagate deterministically (a test pins file == builder output).
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fractions import Fraction

from lops import build_ens_system, print_system
from lops.dsl import parse_system
from lops.poly import XI, Poly
from lops.system import (DependencyDecl, EquationBlock, FactorClaim,
                         LeraySystem, ParamDecl, SymbolEntry, UnknownBlock)

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "lops", "data")


def wave_system() -> LeraySystem:
    names = [(a, b) for a in range(4) for b in range(a, 4)]
    params = [ParamDecl(f"gi{a}{b}") for a, b in names]
    sym = Poly.zero()
    for a in range(4):
        for b in range(4):
            gi = f"gi{min(a, b)}{max(a, b)}"
            sym = sym + Poly.atom(gi) * Poly.atom(XI[a]) * Poly.atom(XI[b])
    assigns = {f"gi{a}{b}": Fraction(1 if a == b == 0 else (-1 if a == b else 0))
               for a, b in names}
    return LeraySystem(
        unknowns=[UnknownBlock("w", 1, 2)],
        equations=[EquationBlock("weq", 1, 0)],
        entries=[SymbolEntry("weq", 0, "w", 0, sym)],
        deps=[DependencyDecl("weq", "w", 1)],
        params=params,
        assigns=assigns,
        factor_claim=FactorClaim(Poly.one(), ((sym, 1),)),
    )


def main():
    ens_text = print_system(build_ens_system("specialized", "on_data"))
    wave_text = print_system(wave_system())
    for name, text in (("ens.lops", ens_text), ("wave.lops", wave_text)):
        path = os.path.join(DATA, name)
        with open(path, "w") as fh:
            fh.write("# generated by scripts/gen_system_specs.py; do not edit by hand\n")
            fh.write(text)
        parsed = parse_system(open(path).read())
        print(f"wrote {path}: {parsed.total_unknowns} unknowns, "
              f"{len(parsed.entries)} entries")


if __name__ == "__main__":
    main()
