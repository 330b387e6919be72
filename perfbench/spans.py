"""Spans around the public layer functions of lops, recorded from outside.

`Tracer.install()` replaces each function listed in LAYERS, in its defining
module and in every lops module or namespace that imported it by name, with
a wrapper that records a span: layer name, function, start, end, parent
span, thread and phase.  Nothing under src/ is edited.  Spans are kept in
memory and exported when the child ends; result-derived counts (term
counts, coefficient bit lengths, verdict methods) are computed at export,
outside every timed interval.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

# layer span name -> public functions (module, attribute) it times
LAYERS = {
    "dsl.parse": [("lops.dsl", "parse_system")],
    "system.validate": [("lops.system", "validate_structure"),
                        ("lops.system", "total_order"),
                        ("lops.system", "leray_condition")],
    "matrix.blocks": [("lops.matrix", "build_symbol_matrix"),
                      ("lops.matrix", "block_order")],
    "matrix.det": [("lops.matrix", "determinant_factors"),
                   ("lops.matrix", "determinant")],
    "matrix.cancel": [("lops.matrix", "verify_factorization_product")],
    "hyperbolic.verdict": [("lops.hyperbolic", "hyperbolicity_auto")],
    "ens.verify": [("lops.ens", "verify_ens_determinant")],
    "ens.quartic": [("lops.ens", "derive_quartic_from_block")],
    "ens.directions": [("lops.ens", "sampled_root_nonnegativity")],
    "ens.reports": [("lops.ens", "quartic_comparison_report"),
                    ("lops.ens", "minkowski_inequality_identities"),
                    ("lops.ens", "degeneration_report")],
    "lab.refinement": [("lops.lab", "refinement_table")],
    "lab.checks": [("lops.lab", "check_entropy_sign"),
                   ("lops.lab", "check_projector_algebra"),
                   ("lops.lab", "shear_square_range")],
}

# numeric state samples per call in the ens probes (the ens-verify workload
# runs the CLI with the same count, so pass and probe are comparable)
ENS_SAMPLES = 20


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._phase = "pass"
        self._spans = []
        self._originals = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def phase(self, name: str):
        """Tag every span started inside the block with `name`."""
        prev, self._phase = self._phase, name
        try:
            yield
        finally:
            self._phase = prev

    def _wrap(self, layer: str, qualname: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            with tracer._lock:
                tracer._spans.append({
                    "id": sid, "name": layer, "fn": qualname, "parent": parent,
                    "start": start, "end": end, "phase": tracer._phase,
                    "thread": threading.get_ident(), "_result": result})
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every LAYERS function wherever lops holds a reference to it."""
        import lops.cli  # noqa: F401  (imports every lops module)

        modules = [m for name, m in sys.modules.items()
                   if name == "lops" or name.startswith("lops.")]
        for layer, targets in LAYERS.items():
            for mod_name, attr in targets:
                original = getattr(sys.modules[mod_name], attr)
                self._originals[attr] = original
                wrapped = self._wrap(layer, f"{mod_name}.{attr}", original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def original(self, attr: str):
        return self._originals[attr]

    def export(self):
        """Spans with self time and counts; drops the held results."""
        with self._lock:
            spans = list(self._spans)
        children = {}
        for s in spans:
            children.setdefault(s["parent"], []).append(s)
        out = []
        for s in spans:
            kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                    for c in children.get(s["id"], ())]
            row = {k: v for k, v in s.items() if k != "_result"}
            row["self"] = (s["end"] - s["start"]) - union_length(kids)
            row.update(_counts(s["name"], s["_result"]))
            out.append(row)
        return out


def union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _coeff_bits(c: Fraction) -> int:
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _counts(layer: str, result) -> dict:
    if layer == "matrix.det":
        polys = result if isinstance(result, list) else [result]
        return {"terms": [len(p) for p in polys],
                "coeff_bits": max((_coeff_bits(c) for p in polys for _, c in p.terms()),
                                  default=0)}
    if layer == "hyperbolic.verdict":
        return {"method": result.method,
                "line_restrictions": result.sample_count if result.method == "sampled" else 0}
    return {}


def run_probes(tracer: Tracer, probe_set: str, seed: int) -> dict:
    """Directed layer calls after the traced pass, each in its own phase.

    ens: the symbolic phase alone (no samples), the quartic derivation, and
    the sample loop on two threads; the lru-cached quartic is cleared before
    each call so that every call does the work a fresh `lops` process does.
    lab: the lab run again under tracemalloc, for its peak allocation.
    """
    out = {}
    if probe_set == "ens":
        from lops import ens
        clear = tracer.original("derive_quartic_from_block").cache_clear
        for phase, call in (
                ("symbolic", lambda: ens.verify_ens_determinant(state_samples=0, seed=seed)),
                ("quartic", ens.derive_quartic_from_block),
                ("t2", lambda: ens.verify_ens_determinant(
                    state_samples=ENS_SAMPLES, seed=seed, threads=2))):
            clear()
            with tracer.phase(phase):
                call()
    elif probe_set == "lab":
        import lops.cli
        tracemalloc.start()
        try:
            with tracer.phase("alloc"), contextlib.redirect_stdout(io.StringIO()):
                lops.cli.main(["lab", "run", "--json"])
            out["lab_peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return out
