"""Command-line entry point.

Subcommands:
    analyze <file.lops>   structural validation, exact determinant, claimed
                          factorization, per-factor hyperbolicity, Gevrey
                          exponent and the index condition
    ens verify            full verification of the shipped reference system
    cones                 characteristic root sheets per sphere direction
    lab run               finite-difference identity residual tables

Exit codes: 0 all checks pass, 1 a check failed, 2 bad input.
Identical configuration and seed produce byte-identical output.

`analyze` loads only the exact pipeline: `ens` and `lab` are bound here as
lazy modules, executed on the first attribute access of `ens verify`,
`cones` or `lab run`, and numpy comes in only with the float helpers of
`hyperbolic`: for `cones`, and for the sampled screen of a factor that no
exact split reaches.  `main` builds its argument parser once per process.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib.util
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import Dict, List, Optional

from .dsl import MAX_DIGITS, ParseError, parse_system
from .hyperbolic import (FloatRangeError, HyperbolicityVerdict, cone_sample, gevrey_sigma,
                         hyperbolicity_auto, sigma_json)
from .matrix import (ExpansionDepthError, block_factors, build_symbol_matrix,
                     factored_xi_degree, verify_factorization_product)
from .poly import XI, DegreeOverflowError, Poly
from .system import FACTOR_NAMES, leray_condition, total_order, validate_structure


def _lazy_module(name: str):
    """The module `name`, entered in sys.modules and bound on its package now
    but executed on its first attribute access (importlib.util.LazyLoader)."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    package, _, child = name.rpartition(".")
    setattr(sys.modules[package], child, module)
    return module


ens = _lazy_module("lops.ens")
lab = _lazy_module("lops.lab")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _reader(convert, kind: str, *bounds):
    """An argparse type: the text converted, refused as `expected <kind>`
    when `convert` raises and as `must be <need>` at the first (test, need)
    bound whose test the value fails."""
    def read(text: str):
        try:
            value = convert(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}") from None
        for test, need in bounds:
            if not test(value):
                raise argparse.ArgumentTypeError(f"must be {need}, got {text}")
        return value
    return read


def _fraction(text: str) -> Fraction:
    """Fraction(text), refused when its numerator or denominator would have
    more than MAX_DIGITS digits, as a spec's numbers are.  Fraction checks
    the syntax first, on the text with each run of digits made 1; then the
    digits are counted in the text, leading zeros aside, before Fraction
    builds any power of 10 (`1e10000000` alone takes seconds): a/b has those
    of a and b; m.f times 10^e, of n digits with f after the point, is an
    n-digit integer times 10^(e - f)."""
    Fraction(re.sub(r"\d+", "1", text))
    num, _, den = re.sub(r"[^\d./e+-]", "", text.lower()).partition("/")
    mantissa, _, exp = num.partition("e")
    whole, _, frac = mantissa.lstrip("+-").partition(".")
    n, f, d = len((whole + frac).lstrip("0")), len(frac), len(den.lstrip("0"))
    shift = int(exp or 0) - f
    if max(n + max(shift, 0), 1 - min(shift, 0), d) > MAX_DIGITS:
        raise argparse.ArgumentTypeError(
            f"must have a numerator and denominator of at most {MAX_DIGITS} digits, got {text}")
    return Fraction(text)


_FINITE = (math.isfinite, "finite")
_POSITIVE = (lambda v: v > 0, "positive")
_NONNEGATIVE = (lambda v: v >= 0, "at least 0")
_rational = _reader(_fraction, "a rational")
_integer = _reader(int, "an integer")
#: the largest sample, direction or refinement count: `cones --factor light
#: --n 100000` takes 3.7 s and 170 MB, `ens verify --samples 5000` 5.4 s in
#: 22 MB (2-vCPU Xeon); time, and the directions' memory, grow linearly
MAX_COUNT = 100_000
# a sample, direction or refinement count: below 1 a check would pass on nothing
_count = _reader(int, "an integer", (lambda n: n >= 1, "at least 1"),
                 (lambda n: n <= MAX_COUNT, f"at most {MAX_COUNT}"))


def _parse_tau(text: str) -> List[Fraction]:
    """A time direction: the zero covector leaves no root to find."""
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("tau needs four comma-separated rationals")
    tau = [_rational(p) for p in parts]
    if not any(tau):
        raise argparse.ArgumentTypeError("must be nonzero")
    return tau


def _parse_spacing(text: str) -> float:
    """A lattice spacing: the finite differences divide by it and the
    entropy bound scales with its square, so that bound must be finite."""
    value = _reader(float, "a number", _FINITE, _POSITIVE)(text)
    if not math.isfinite(lab.entropy_bound(value)):
        raise argparse.ArgumentTypeError(
            f"its square overflows the entropy bound {lab.ENTROPY_BOUND_FACTOR:g}*h^2, "
            f"got {text}")
    return value


#: the most refinements `lab run` takes: the finest of K has (8*2^K + 1)^4
#: nodes; run by slabs, K = 2 peaks at 0.70 GB in about 8 s, ~8x more per level
MAX_REFINE = 2


def _parse_refine(text: str) -> int:
    """A refinement count for `lab run`, at most MAX_REFINE."""
    value = _count(text)
    if value > MAX_REFINE:
        nodes = lab.FieldPatch.standard().refined(MAX_REFINE + 1).n ** 4
        raise argparse.ArgumentTypeError(
            f"must be at most {MAX_REFINE}, got {text}: {MAX_REFINE + 1} refinements "
            f"already take a lattice of {nodes:,} nodes")
    return value


class UnwritableOutput(Exception):
    """--out names a file that cannot be written."""


def _emit(payload, args, renderer=None) -> None:
    """Write a report to --out, or to stdout: JSON under --json or without a
    renderer, else the renderer's text."""
    if args.json or renderer is None:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = renderer(payload)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as err:
            raise UnwritableOutput(f"cannot write {args.out}: {err.strerror or err}") from None
    else:
        sys.stdout.write(text)


def _assignment_for(system, factor_polys):
    """Atom values for hyperbolicity, from the system's assigns."""
    needed = set().union(*(p.atoms() for p in factor_polys)).difference(XI)
    missing = sorted(needed.difference(system.assigns))
    return {a: system.assigns[a] for a in needed if a in system.assigns}, missing


def cmd_analyze(args) -> int:
    try:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        print(f"cannot read {args.input}: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except UnicodeDecodeError as err:
        print(f"cannot read {args.input}: not UTF-8 text (byte {err.start})", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        system = parse_system(text)
    except ParseError as err:
        print(f"parse error: {args.input}: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        return _analyze(system, args)
    except (DegreeOverflowError, ExpansionDepthError, FloatRangeError) as err:
        print(f"input error: {args.input}: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def _analyze(system, args) -> int:
    report: Dict = {"input": os.path.basename(args.input)}
    # --F and --q stand in for the file's assigns, so the declared
    # constraints are checked on the values that are used
    overrides = {name: value for name, value in (("F", args.F), ("q", args.q))
                 if value is not None}
    system = dataclasses.replace(system, assigns={**system.assigns, **overrides})
    structure = validate_structure(system)
    report["structure"] = structure.to_json()
    ok = structure.ok

    ell = total_order(system)
    report["total_order"] = ell
    matrix = build_symbol_matrix(system)
    groups = block_factors(matrix)
    dets = [d for g in groups for d in g]
    degree = factored_xi_degree(dets)
    report["determinant"] = {
        "xi_degree": degree,
        "block_count": len(groups),
        # a block of several factors is multiplied out here for its count only
        "block_term_counts": [len(functools.reduce(Poly.__mul__, g)) for g in groups],
        "degree_equals_total_order": degree == ell,
    }
    ok = ok and degree == ell

    claim = system.factor_claim
    if claim is not None:
        ver = verify_factorization_product(dets, claim)
        report["factorization"] = ver.to_json()
        ok = ok and ver.ok

        assign, missing = _assignment_for(system, [p for p, _ in claim.factors])
        verdicts = []
        for idx, (p, mult) in enumerate(claim.factors):
            fid = f"factor{idx}(x{mult})"
            if missing:
                v = HyperbolicityVerdict(
                    fid, "unassigned", "inconclusive",
                    witness=f"unassigned parameters: {', '.join(missing)}")
            else:
                v = hyperbolicity_auto(p, args.tau, assign, n_samples=args.samples,
                                       tol=args.tol, seed=args.seed, factor_id=fid)
            verdicts.append(v)
        report["factors"] = [v.to_json() for v in verdicts]
        all_hyp = all(v.hyperbolic for v in verdicts)
        ok = ok and all_hyp

        if all_hyp and ver.ok:  # a sigma0 only for a verified claim
            report["factor_count"] = claim.factor_count()
            report["sigma0"] = sigma_json(gevrey_sigma(claim))
        cond = leray_condition(system, claim.degrees())
        report["leray_condition"] = cond.to_json()
        ok = ok and cond.ok

    report["ok"] = ok
    _emit(report, args, renderer=_render_analyze)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _render_analyze(report: Dict) -> str:
    lines = [f"system: {report['input']}"]
    lines.append(f"structure: {'pass' if report['structure']['ok'] else 'FAIL'} "
                 f"({len(report['structure']['items'])} checks)")
    det = report["determinant"]
    lines.append(f"total order: {report['total_order']}; determinant degree "
                 f"{det['xi_degree']} over {det['block_count']} blocks")
    if "factorization" in report:
        lines.append(f"factorization: {'pass' if report['factorization']['ok'] else 'FAIL'}"
                     f" ({report['factorization']['detail']})")
        for f in report.get("factors", []):
            lines.extend(_verdict_lines(f, "  "))
        if "sigma0" in report:
            lines.append(f"factor count: {report['factor_count']}; sigma0 = {report['sigma0']}")
        lc = report["leray_condition"]
        lines.append(f"index condition: {'pass' if lc['ok'] else 'FAIL'} ({lc['statement']})")
    lines.append(f"overall: {'pass' if report['ok'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _verdict_lines(verdict: Dict, indent: str) -> List[str]:
    """One line per verdict, then its parts' lines indented below it."""
    w = f" [{verdict.get('witness')}]" if verdict.get("witness") else ""
    how = verdict["method"]
    if "exponent" in verdict:
        how += f", exponent {verdict['exponent']}"
    lines = [f"{indent}{verdict['factor']}: {verdict['verdict']} ({how}){w}"]
    for part in verdict.get("parts", ()):
        lines.extend(_verdict_lines(part, indent + "  "))
    return lines


#: defaults of the flags that only the full `ens verify` run reads; the q = 0
#: degeneration report draws no samples and rejects each of them
FULL_RUN_FLAGS = {"--F": Fraction(1), "--samples": 100, "--seed": 0}


def cmd_ens_verify(args) -> int:
    report: Dict = {}
    given = {flag: getattr(args, flag[2:]) for flag in FULL_RUN_FLAGS}
    if args.q == 0:
        unread = [flag for flag, value in given.items() if value is not None]
        if unread:
            print(f"input error: {', '.join(unread)} not read with --q 0, which runs "
                  "only the degeneration report", file=sys.stderr)
            return EXIT_INPUT_ERROR
        deg = ens.degeneration_report()
        report["degeneration"] = deg.to_json()
        report["ok"] = deg.ok
        _emit(report, args, renderer=_render_checks)
        return EXIT_OK if deg.ok else EXIT_CHECK_FAILED

    F, samples, seed = (default if given[flag] is None else given[flag]
                        for flag, default in FULL_RUN_FLAGS.items())
    main = ens.verify_ens_determinant(state_samples=samples, seed=seed)
    report["determinant"] = main.to_json()
    quartic = ens.quartic_comparison_report()
    report["quartic"] = quartic
    ineq = ens.minkowski_inequality_identities()
    report["minkowski_inequalities"] = ineq.to_json()
    roots = ens.root_nonnegativity(F, args.q if args.q is not None else Fraction(1, 2))
    report["root_nonnegativity"] = roots.to_json()
    deg = ens.degeneration_report(main.quartic)
    report["degeneration"] = deg.to_json()

    # the claimed-table mismatch is a reported finding, not a failure: the
    # analyzer's own derivation is the trusted side
    ok = (main.ok and ineq.ok and roots.ok and deg.ok
          and quartic["derived"]["discriminant_is_perfect_square"]
          and quartic["claimed_repaired"]["discriminant_matches_claimed_value"])
    report["ok"] = ok
    _emit(report, args, renderer=_render_checks)
    if not ok:
        for section in (main, ineq, roots, deg):
            fail = section.first_failure()
            if fail is not None:
                print(f"first failure: {fail.name}: {fail.detail}", file=sys.stderr)
                break
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _render_checks(report: Dict) -> str:
    lines = []

    def walk(prefix: str, node) -> None:
        if isinstance(node, dict):
            if "checks" in node:
                for c in node["checks"]:
                    mark = "pass" if c["ok"] else "FAIL"
                    lines.append(f"[{mark}] {prefix}{c['name']}: {c['detail']}")
            else:
                for key, value in node.items():
                    if isinstance(value, (dict, list)):
                        walk(f"{prefix}{key}.", value)
                    else:
                        lines.append(f"       {prefix}{key} = {value}")
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(f"{prefix}{i}.", value)

    for key, value in report.items():
        if key == "ok":
            continue
        walk(f"{key}.", value)
    lines.append(f"overall: {'pass' if report.get('ok') else 'FAIL'}")
    return "\n".join(lines) + "\n"


def cmd_cones(args) -> int:
    if args.factor not in FACTOR_NAMES:
        print(f"unknown factor {args.factor!r}; choose from {', '.join(FACTOR_NAMES)}",
              file=sys.stderr)
        return EXIT_INPUT_ERROR
    state = ens.FluidState.minkowski(
        F=args.F if args.F is not None else Fraction(1),
        q=args.q if args.q is not None else Fraction(1, 2))
    claim = ens.reference_factor_claim("specialized")
    polys = {name: p for name, (p, _) in zip(FACTOR_NAMES, claim.factors)}
    assign = state.assignment()
    try:
        samples = cone_sample(polys[args.factor], args.tau, assign, n=args.n,
                              seed=args.seed, tol=args.tol, factor_id=args.factor,
                              reference=polys["light"])
    except FloatRangeError as err:
        print(f"input error: --F, --q, --tau: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    payload = {
        "factor": samples.factor_id,
        "tau": list(samples.tau),
        "rows": [{"direction": list(d), "roots": r}
                 for d, r in zip(samples.directions, samples.roots)],
        "all_within_reference_cone": samples.all_within_reference,
    }
    _emit(payload, args, renderer=lambda _: "\n".join(samples.csv_lines()) + "\n")
    ok = samples.all_within_reference
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_lab(args) -> int:
    if not args.h / 2 ** args.refine >= sys.float_info.min:  # else differences read 0/0
        print(f"input error: --h {args.h!r} halved {args.refine} times is not a positive "
              "normal float", file=sys.stderr)
        return EXIT_INPUT_ERROR
    patch = lab.FieldPatch.standard(args.h)
    rows = lab.refinement_table(refine=args.refine, base=patch)
    entropy = lab.check_entropy_sign(patch, vtheta=-1.0)
    algebra = lab.check_projector_algebra(patch)
    sq_range = lab.shear_square_range(patch)
    ok = entropy.ok and all(v < 1e-10 for v in algebra.values())
    for r in rows:
        if r.h != args.h:  # every level but the base needs a ratio
            converges = r.ratio is not None and 3.5 <= r.ratio <= 4.5
            ok = ok and r.ratio is not None and converges != r.name.endswith("-mutated")

    payload = {
        "residuals": [r.to_json() for r in rows],
        "entropy_sign": entropy.to_json(),
        "pointwise_algebra": algebra,
        "shear_square_range": list(sq_range),
        "ok": ok,
    }
    csv_out = args.out is not None and args.out.endswith(".csv")
    _emit(payload, args, renderer=_render_lab_csv if csv_out else _render_lab)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _render_lab_csv(payload: Dict) -> str:
    lines = ["identity,h,residual,ratio"]
    for r in payload["residuals"]:
        ratio = f"{r['ratio']:.6g}" if "ratio" in r else ""
        lines.append(f"{r['identity']},{r['h']:.6g},{r['residual']:.12g},{ratio}")
    return "\n".join(lines) + "\n"


def _render_lab(payload: Dict) -> str:
    lines = [f"{'identity':36s} {'h':>8s} {'residual':>12s} {'ratio':>7s}"]
    for r in payload["residuals"]:
        ratio = "-" if r.get("ratio") is None else f"{r['ratio']:.2f}"
        lines.append(f"{r['identity']:36s} {r['h']:>8g} {r['residual']:>12.3e} {ratio:>7s}")
    es = payload["entropy_sign"]
    lines.append(f"entropy production (vtheta={es['vtheta']}): min {es['min_value']:.3e} "
                 f"bound {es['bound']:.1e} -> {'pass' if es['ok'] else 'FAIL'}")
    lines.append(f"pointwise nonnegative for: {es['pointwise_nonnegative_for']}")
    lines.append(f"shear square range: [{payload['shear_square_range'][0]:.3e}, "
                 f"{payload['shear_square_range'][1]:.3e}]")
    lines.append(f"overall: {'pass' if payload['ok'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lops",
                                 description="exact symbolic analysis of quasi-linear "
                                             "systems with per-block derivative indices")
    sub = ap.add_subparsers(dest="command", required=True)

    def flags(p, *names):
        """Add the named shared flags: only those the handler reads."""
        spec = {
            # a tuple: one parser serves every main() call of a process
            "--tau": dict(type=_parse_tau,
                          default=(Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
                          help="time direction covector, four comma-separated rationals"),
            "--samples": dict(type=_count, default=1000),
            # a root tolerance: below 0 every sampled factor fails, with no witness
            "--tol": dict(type=_reader(float, "a number", _FINITE, _NONNEGATIVE), default=1e-9),
            "--seed": dict(type=_integer, default=0),
            "--json": dict(action="store_true"),
            "--out": dict(default=None),
            # the reference fluid's coupling, whose 0 is the degeneration
            # limit, and its F, by which its states divide; a spec declares
            # its own constraints, so `analyze` takes any rational for them
            "--q": dict(type=_reader(_fraction, "a rational", _NONNEGATIVE), default=None),
            "--F": dict(type=_reader(_fraction, "a rational", _POSITIVE), default=None),
        }
        for name in names:
            p.add_argument(name, **spec[name])

    p_an = sub.add_parser("analyze", help="analyze a system spec file")
    p_an.add_argument("input")
    flags(p_an, "--tau", "--samples", "--tol", "--seed", "--json", "--out")
    for name in ("--q", "--F"):
        p_an.add_argument(name, type=_rational, default=None)
    p_an.set_defaults(func=cmd_analyze)

    p_ens = sub.add_parser("ens", help="reference-instance commands")
    ens_sub = p_ens.add_subparsers(dest="ens_command", required=True)
    p_ver = ens_sub.add_parser("verify", help="verify the reference system end to end")
    flags(p_ver, "--samples", "--seed", "--json", "--out", "--q", "--F")
    # unset flags stay None, so that --q 0 can reject the ones it does not read
    p_ver.set_defaults(func=cmd_ens_verify, samples=None, seed=None)

    p_cone = sub.add_parser("cones", help="sample characteristic root sheets")
    p_cone.add_argument("--factor", required=True,
                        help=f"one of: {', '.join(FACTOR_NAMES)}")
    p_cone.add_argument("--n", type=_count, default=100)
    flags(p_cone, "--tau", "--tol", "--seed", "--json", "--out", "--q", "--F")
    p_cone.set_defaults(func=cmd_cones)

    p_lab = sub.add_parser("lab", help="finite-difference identity lab")
    lab_sub = p_lab.add_subparsers(dest="lab_command", required=True)
    p_run = lab_sub.add_parser("run", help="residual and convergence tables")
    p_run.add_argument("--seed", type=_integer, default=0,
                       help="accepted for symmetry with the other commands; the lab "
                            "draws nothing at random")
    flags(p_run, "--json", "--out")
    p_run.add_argument("--h", type=_parse_spacing, default=0.1)
    p_run.add_argument("--refine", type=_parse_refine, default=1)
    p_run.set_defaults(func=cmd_lab)

    return ap


#: flags whose value may start with "-": a negative rational or tau, which
#: argparse would otherwise take for an option
SIGNED_FLAGS = ("--F", "--q", "--tau")

@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first main() call of a process."""
    return build_parser()


def _join_signed(argv: List[str]) -> List[str]:
    """Rewrite `--F -3/2` as `--F=-3/2`, and likewise for every SIGNED_FLAGS
    value that starts with a single "-"."""
    out: List[str] = []
    for arg in argv:
        if (out and out[-1] in SIGNED_FLAGS and arg.startswith("-")
                and not arg.startswith("--")):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(_join_signed(sys.argv[1:] if argv is None else argv))
    try:
        # a missing directory is found before any work; _emit opens the file
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise UnwritableOutput(f"cannot write {args.out}: No such file or directory")
        return args.func(args)
    except UnwritableOutput as err:
        print(err, file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
