"""Data model for quasi-linear systems with per-block derivative indices.

A system is described by unknown blocks (each carrying a multiplicity and an
index m), equation blocks (multiplicity and index n), principal-symbol
entries for scalar component pairs, and declared coefficient-dependency
orders.  Structural validation checks that every symbol entry is
xi-homogeneous of degree m_I - n_J and that declared dependency orders stay
within m_K - n_J - 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .poly import Poly, XI


@dataclass(frozen=True)
class UnknownBlock:
    name: str
    multiplicity: int
    m: int


@dataclass(frozen=True)
class EquationBlock:
    name: str
    multiplicity: int
    n: int


@dataclass(frozen=True)
class SymbolEntry:
    eq_block: str
    eq_index: int
    unk_block: str
    unk_index: int
    symbol: Poly


@dataclass(frozen=True)
class DependencyDecl:
    eq_block: str
    unk_block: str
    order: int


@dataclass(frozen=True)
class ParamDecl:
    name: str
    constraint: Optional[str] = None  # None | "positive" | "nonzero"


@dataclass(frozen=True)
class FactorClaim:
    """A claimed factorization: prefactor (parameters only) times powers of
    polynomial factors."""

    prefactor: Poly
    factors: Tuple[Tuple[Poly, int], ...]

    @staticmethod
    def from_claim(claim: "FactorClaim") -> "FactorClaim":
        """The claim itself: tests/test_acceptance.py reads a claim through
        `matrix.Factorization.from_claim`."""
        return claim

    def factor_count(self) -> int:
        return sum(mult for _, mult in self.factors)

    def degrees(self) -> List[int]:
        return [p.degree_in(XI) for p, _ in self.factors]


#: the reference fluid's claimed factors in claim order, as
#: `ens.reference_factor_claim` builds them; defined here, beside the claim
#: class, so that the CLI can name them without importing `ens`
FACTOR_NAMES = ("light", "flow", "cubic", "P1", "P2")


@dataclass
class LeraySystem:
    unknowns: List[UnknownBlock]
    equations: List[EquationBlock]
    entries: List[SymbolEntry]
    deps: List[DependencyDecl] = field(default_factory=list)
    params: List[ParamDecl] = field(default_factory=list)
    assigns: Dict[str, Fraction] = field(default_factory=dict)
    factor_claim: Optional[FactorClaim] = None

    def unknown(self, name: str) -> UnknownBlock:
        for b in self.unknowns:
            if b.name == name:
                return b
        raise KeyError(f"unknown block {name!r}")

    def equation(self, name: str) -> EquationBlock:
        for b in self.equations:
            if b.name == name:
                return b
        raise KeyError(f"equation block {name!r}")

    def entry(self, eq: str, i: int, unk: str, j: int) -> Poly:
        for e in self.entries:
            if (e.eq_block, e.eq_index, e.unk_block, e.unk_index) == (eq, i, unk, j):
                return e.symbol
        return Poly.zero()

    @property
    def total_unknowns(self) -> int:
        return sum(b.multiplicity for b in self.unknowns)

    @property
    def total_equations(self) -> int:
        return sum(b.multiplicity for b in self.equations)


@dataclass(frozen=True)
class CheckItem:
    kind: str
    subject: str
    required: str
    found: str
    ok: bool

    def line(self) -> str:
        mark = "pass" if self.ok else "FAIL"
        return f"[{mark}] {self.kind} {self.subject}: required {self.required}, found {self.found}"


@dataclass
class StructureReport:
    items: List[CheckItem]

    @property
    def ok(self) -> bool:
        return all(i.ok for i in self.items)

    def failures(self) -> List[CheckItem]:
        return [i for i in self.items if not i.ok]

    def render(self) -> str:
        return "\n".join(i.line() for i in self.items)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "items": [
                {
                    "kind": i.kind,
                    "subject": i.subject,
                    "required": i.required,
                    "found": i.found,
                    "ok": i.ok,
                }
                for i in self.items
            ],
        }


def validate_structure(s: LeraySystem) -> StructureReport:
    """Check indices, squareness, entry homogeneity and dependency orders."""
    items: List[CheckItem] = []

    for b in s.unknowns:
        items.append(
            CheckItem("unknown-block", b.name, "multiplicity >= 1 and m >= 0",
                      f"multiplicity {b.multiplicity}, m {b.m}",
                      b.multiplicity >= 1 and b.m >= 0)
        )
    for b in s.equations:
        items.append(
            CheckItem("equation-block", b.name, "multiplicity >= 1 and n >= 0",
                      f"multiplicity {b.multiplicity}, n {b.n}",
                      b.multiplicity >= 1 and b.n >= 0)
        )

    items.append(
        CheckItem("square-system", "totals",
                  "sum of equation multiplicities == sum of unknown multiplicities",
                  f"{s.total_equations} equations, {s.total_unknowns} unknowns",
                  s.total_equations == s.total_unknowns)
    )

    seen = set()
    for e in s.entries:
        subject = f"{e.eq_block}[{e.eq_index}] {e.unk_block}[{e.unk_index}]"
        try:
            eq = s.equation(e.eq_block)
            unk = s.unknown(e.unk_block)
        except KeyError as err:
            items.append(CheckItem("entry-block", subject, "declared blocks", str(err), False))
            continue
        in_range = 0 <= e.eq_index < eq.multiplicity and 0 <= e.unk_index < unk.multiplicity
        items.append(
            CheckItem("entry-range", subject,
                      f"indices within [0,{eq.multiplicity}) x [0,{unk.multiplicity})",
                      f"({e.eq_index},{e.unk_index})", in_range)
        )
        key = (e.eq_block, e.eq_index, e.unk_block, e.unk_index)
        if key in seen:
            items.append(CheckItem("entry-unique", subject, "single entry per pair", "duplicate", False))
        seen.add(key)
        if e.symbol.is_zero():
            continue
        required = unk.m - eq.n
        found = e.symbol.homogeneous_degree_in(XI)
        ok = found is not None and required >= 0 and found == required
        items.append(
            CheckItem("entry-degree", subject,
                      f"xi-homogeneous of degree {required}",
                      "inhomogeneous" if found is None else f"degree {found}", ok)
        )

    for d in s.deps:
        subject = f"{d.eq_block} on {d.unk_block}"
        try:
            eq = s.equation(d.eq_block)
            unk = s.unknown(d.unk_block)
        except KeyError as err:
            items.append(CheckItem("dependency-block", subject, "declared blocks", str(err), False))
            continue
        bound = unk.m - eq.n - 1
        items.append(
            CheckItem("dependency-order", subject,
                      f"order <= m - n - 1 = {bound}",
                      f"order {d.order}", 0 <= d.order <= bound)
        )

    constraints = {p.name: p.constraint for p in s.params if p.constraint}
    for name, value in s.assigns.items():
        c = constraints.get(name)
        if c is None:
            continue
        ok = value > 0 if c == "positive" else value != 0
        items.append(
            CheckItem("assignment-constraint", name, c, str(value), ok)
        )

    return StructureReport(items)


def total_order(s: LeraySystem) -> int:
    """Sum of unknown indices minus equation indices, with multiplicities."""
    return (sum(b.multiplicity * b.m for b in s.unknowns)
            - sum(b.multiplicity * b.n for b in s.equations))


@dataclass
class ConditionReport:
    max_factor_degree: int
    max_m: int
    min_n: int
    ok: bool

    def render(self) -> str:
        rel = ">=" if self.ok else "<"
        return (f"max factor degree {self.max_factor_degree} {rel} "
                f"max m - min n = {self.max_m} - {self.min_n} = {self.max_m - self.min_n}")

    def to_json(self) -> dict:
        return {
            "max_factor_degree": self.max_factor_degree,
            "max_m": self.max_m,
            "min_n": self.min_n,
            "ok": self.ok,
            "statement": self.render(),
        }


def leray_condition(s: LeraySystem, factor_degrees: Sequence[int]) -> ConditionReport:
    """Largest factor degree must reach max_I m_I - min_J n_J."""
    if not factor_degrees:
        raise ValueError("factor degree list is empty")
    max_deg = max(factor_degrees)
    max_m = max(b.m for b in s.unknowns)
    min_n = min(b.n for b in s.equations)
    return ConditionReport(max_deg, max_m, min_n, max_deg >= max_m - min_n)
