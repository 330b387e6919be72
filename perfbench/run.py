#!/usr/bin/env python3
"""The lops benchmark: four workloads over the exact-certification pipeline.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a lops checkout; the program is imported from ./src.
Each pass is a fresh interpreter (perfbench/child.py) that imports
`lops.cli` and calls `lops.cli.main` exactly as the `lops` console script
does, so per-process costs such as the lru-cached quartic derivation are
paid on every pass, as users pay them.

--trace 0 measures the end-to-end metrics: two streams of passes, each
pinned to its own CPU, repeat passes until the next pass would end after
--seconds (at least one per stream), and every timing is the median over
all passes.  Every time
is calibrated to the host's speed, which each measured process samples
itself (see hostspeed.py); raw medians are printed alongside.
--trace 1 runs one untraced and one traced pass plus the workload's directed
layer probes, and reports the per-layer metrics (see spans.py).

Every operation's report is checked against answers known independently
of lops (see check_* below and specgen.py); never against earlier output.
The last line of stdout is the JSON result; lines before it give every
metric with its unit, quartiles and raw median, the provenance, and any
failing operations by name.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import hostspeed
import specgen
from spans import ENS_SAMPLES, union_length

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

SWEEP_SPECS = 50          # two cycles of specgen.COMPOSITION
SETUP_REPEATS = 7
# a fresh interpreter samples the host speed every 10 ms while it imports
# lops.cli, notes the monotonic clock, and writes both to argv[2]
SETUP_CODE = """import sys, time
sys.path.insert(0, sys.argv[1])
import hostspeed
sampler = hostspeed.Sampler()
sampler.start(0.01)
import lops.cli
done = time.perf_counter()
kernels = sampler.stop()
with open(sys.argv[2], "w") as fh:
    print(done, *kernels, file=fh)
"""
MIN_PASSES = 1            # per CPU stream, so at least one pass per CPU
PARALLEL_PASSES = 2       # concurrent pass streams, at most the CPUs available

WORKLOADS = {
    "analyze-ens": "the 25x25 reference certificate: one huge block determinant "
                   "and its factor cancellation",
    "ens-verify": "symbolic determinant twice plus exact numeric state samples",
    "lab-run": "numpy finite differences with no exact algebra",
    "analyze-sweep": "50 small generated specs: many tiny determinants, "
                     "verdicts dominate",
}

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"), ("spec_p50_s", "s"), ("spec_tail_s", "s")]

# per-layer metric -> (unit, the end-to-end metric and workload it should move)
PER_LAYER = {
    "import_s": ("s", "setup_s, all workloads"),
    "dsl.parse_s": ("s", "wall_s, spec_p50_s on analyze-sweep; ~4% of analyze-ens"),
    "system.validate_s": ("s", "wall_s, spec_p50_s on analyze-sweep; ~4% of analyze-ens"),
    "matrix.blocks_s": ("s", "wall_s on analyze-sweep"),
    "matrix.det_s": ("s", "wall_s, cpu_s on analyze-ens and ens-verify; none on lab-run"),
    "matrix.det_terms_max": ("count", "wall_s, cpu_s on analyze-ens and ens-verify"),
    "matrix.det_terms_total": ("count", "wall_s, cpu_s on analyze-ens and ens-verify"),
    "matrix.det_coeff_bits_max": ("count", "wall_s, cpu_s on analyze-ens and ens-verify"),
    "matrix.cancel_s": ("s", "wall_s on analyze-ens and ens-verify"),
    "hyperbolic.verdict_s": ("s", "wall_s, spec_tail_s, failed share on analyze-sweep; "
                                  "~5% of analyze-ens"),
    "hyperbolic.verdicts.linear-exact": ("count", "failed share on analyze-sweep"),
    "hyperbolic.verdicts.quadratic-signature": ("count", "failed share on analyze-sweep"),
    "hyperbolic.verdicts.sampled": ("count", "wall_s, spec_tail_s on analyze-sweep"),
    "hyperbolic.line_restrictions": ("count", "wall_s, spec_tail_s on analyze-sweep"),
    "ens.symbolic_s": ("s", "wall_s on ens-verify"),
    "ens.quartic_s": ("s", "wall_s on ens-verify"),
    "ens.sample_s": ("s", "wall_s, cpu_s on ens-verify"),
    "ens.sample_s.t2": ("s", "wall_s, cpu_s on ens-verify"),
    "ens.directions_s": ("s", "wall_s on ens-verify"),
    "ens.reports_s": ("s", "wall_s on ens-verify"),
    "lab.refinement_s": ("s", "wall_s on lab-run"),
    "lab.checks_s": ("s", "wall_s on lab-run"),
    "lab.peak_alloc_mb": ("MB", "peak_rss_mb on lab-run"),
    "trace.covered_share": ("share", "every workload; tracing overhead vs untraced"),
}

SELF_TIME_LAYERS = ["dsl.parse", "system.validate", "matrix.blocks", "matrix.det",
                    "matrix.cancel", "hyperbolic.verdict", "ens.directions",
                    "ens.reports", "lab.refinement", "lab.checks"]
VERDICT_METHODS = ["linear-exact", "quadratic-signature", "sampled"]


class Outcome:
    """One checked operation: ok, or failed with a reason; `known` marks a
    failure that is exactly the documented repeated-root float-screen defect."""

    def __init__(self, name: str, ok: bool, reason: str = "", known: bool = False):
        self.name, self.ok, self.reason, self.known = name, ok, reason, known


# -- correctness oracles ------------------------------------------------------


def _report(op):
    try:
        return json.loads(op["stdout"])
    except ValueError:
        return None


def check_analyze_ens(name, op) -> Outcome:
    rep = _report(op)
    if op["rc"] != 0 or rep is None:
        return Outcome(name, False, f"exit {op['rc']}")
    verdicts = [f.get("verdict") for f in rep.get("factors", [])]
    facts = {"factorization.ok": rep.get("factorization", {}).get("ok") is True,
             "sigma0 == 24/23": rep.get("sigma0") == "24/23",
             "factor_count == 24": rep.get("factor_count") == 24,
             "five hyperbolic factors": verdicts == ["hyperbolic"] * 5}
    bad = [k for k, v in facts.items() if not v]
    return Outcome(name, not bad, "; ".join(bad))


def check_ens_verify(name, op) -> Outcome:
    rep = _report(op)
    ok = op["rc"] == 0 and rep is not None and rep.get("ok") is True
    return Outcome(name, ok, "" if ok else f"exit {op['rc']}")


def check_lab_run(name, op) -> Outcome:
    rep = _report(op)
    if op["rc"] != 0 or rep is None:
        return Outcome(name, False, f"exit {op['rc']}")
    bad, seen = [], {False: 0, True: 0}
    for row in rep.get("residuals", []):
        ratio = row.get("ratio")
        if ratio is None:
            continue
        mutated = row["identity"].endswith("-mutated")
        seen[mutated] += 1
        if (3.5 <= ratio <= 4.5) == mutated:
            bad.append(f"{row['identity']} ratio {ratio:.3g}")
    if not (seen[False] and seen[True]):
        bad.append("missing refinement ratios")
    return Outcome(name, not bad, "; ".join(bad))


def spec_facts(exp: specgen.Expected, defect: bool) -> dict:
    """What a correct report says; with `defect`, what the report says when
    every repeated-root factor of degree >= 3 reads not hyperbolic."""
    verdicts = ["not-hyperbolic" if not f.hyperbolic
                or (defect and f.repeated_root and f.degree >= 3) else "hyperbolic"
                for f in exp.factors]
    all_hyp = all(v == "hyperbolic" for v in verdicts)
    ok = all_hyp and exp.index_ok
    return {"rc": 0 if ok else 1, "factorization.ok": True, "verdicts": verdicts,
            "sigma0": exp.sigma0 if all_hyp else None,
            "factor_count": exp.factor_count if all_hyp else None,
            "index_ok": exp.index_ok, "ok": ok}


def report_facts(op) -> dict:
    rep = _report(op) or {}
    return {"rc": op["rc"],
            "factorization.ok": rep.get("factorization", {}).get("ok"),
            "verdicts": [f.get("verdict") for f in rep.get("factors", [])],
            "sigma0": rep.get("sigma0"), "factor_count": rep.get("factor_count"),
            "index_ok": rep.get("leray_condition", {}).get("ok"), "ok": rep.get("ok")}


def check_spec(exp: specgen.Expected, op) -> Outcome:
    got = report_facts(op)
    want = spec_facts(exp, defect=False)
    if got == want:
        return Outcome(exp.name, True)
    diff = ", ".join(f"{k}: {got[k]} != {want[k]}" for k in want if got[k] != want[k])
    known = exp.known_defect and got == spec_facts(exp, defect=True)
    return Outcome(exp.name, False, diff, known)


# -- processes ----------------------------------------------------------------


class Runner:
    """Starts children from ./src with LO_THREADS unset, as the ens-verify
    workload runs it, and reaps them with their resource usage."""

    def __init__(self, root: str, work: str):
        self.root, self.work = root, work
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("LO_THREADS", None)
        self.jobs = 0
        self.running = {}        # pid -> (Popen, start time, stderr path, result path)

    def _start(self, argv, out_path=None, cpu=None) -> int:
        self.jobs += 1
        err_path = os.path.join(self.work, f"stderr{self.jobs}.txt")
        with open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
        if cpu is not None:
            os.sched_setaffinity(proc.pid, {cpu})
        self.running[proc.pid] = (proc, start, err_path, out_path)
        return proc.pid

    def _reap(self) -> dict:
        """Wait for any running child; its wall s, user+sys s, max RSS MB and
        result.  A child that exits nonzero aborts the run with its stderr."""
        pid, status, usage = os.wait4(-1, 0)
        wall = time.perf_counter()
        proc, start, err_path, out_path = self.running.pop(pid)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(err_path) as fh:
                tail = fh.read()[-2000:]
            raise RuntimeError(f"{proc.args[1:3]} exited {proc.returncode}:\n{tail}")
        out = {}
        if out_path is not None:
            with open(out_path) as fh:
                out = json.load(fh)
        out.update(pid=pid, wall=wall - start, cpu=usage.ru_utime + usage.ru_stime,
                   rss=usage.ru_maxrss / 1024.0)
        return out

    def setup_seconds(self) -> list:
        """(raw s, speed factor) per fresh interpreter: from spawn to
        `lops.cli` imported (numpy included), read on the shared monotonic
        clock, and the host speed sampled during the import."""
        out = []
        for _ in range(SETUP_REPEATS):
            path = os.path.join(self.work, "setup.txt")
            start = time.perf_counter()
            self._start([sys.executable, "-c", SETUP_CODE, BENCH_DIR, path])
            self._reap()
            with open(path) as fh:
                done, *kernels = map(float, fh.read().split())
            out.append((done - start, hostspeed.speed_factor(kernels)))
        return out

    def _start_pass(self, ops, seed: int, trace=None, cpu=None) -> int:
        job_path = os.path.join(self.work, f"job{self.jobs + 1}.json")
        out_path = os.path.join(self.work, f"out{self.jobs + 1}.json")
        with open(job_path, "w") as fh:
            json.dump({"ops": ops, "out": out_path, "seed": seed, "trace": trace}, fh)
        return self._start([sys.executable, os.path.join(BENCH_DIR, "child.py"), job_path],
                           out_path, cpu)

    def run_pass(self, ops, seed: int, trace=None) -> dict:
        self._start_pass(ops, seed, trace)
        return self._reap()

    def run_passes(self, ops, seed: int, seconds: float) -> list:
        """Back-to-back passes on each of PARALLEL_PASSES CPUs, one stream
        pinned per CPU, until the next pass would end after `seconds`; at
        least MIN_PASSES per stream."""
        cpus = sorted(os.sched_getaffinity(0))[:PARALLEL_PASSES]
        t0 = time.perf_counter()
        count, passes = dict.fromkeys(cpus, 0), []
        pid_cpu = {self._start_pass(ops, seed, cpu=cpu): cpu for cpu in cpus}
        while self.running:
            out = self._reap()
            passes.append(out)
            cpu = pid_cpu.pop(out["pid"])
            count[cpu] += 1
            typical = statistics.median(p["wall"] for p in passes)
            if (count[cpu] < MIN_PASSES
                    or time.perf_counter() - t0 + typical <= seconds):
                pid_cpu[self._start_pass(ops, seed, cpu=cpu)] = cpu
        return passes


# -- workloads ----------------------------------------------------------------


def build_workload(name: str, seed: int, root: str, work: str):
    """(ops, per-op checkers, op names, probe set) for one workload."""
    if name == "analyze-ens":
        ens = os.path.join(root, "src", "lops", "data", "ens.lops")
        return ([["analyze", ens, "--json", "--seed", str(seed)]],
                [check_analyze_ens], ["analyze ens.lops"], "none")
    if name == "ens-verify":
        return ([["ens", "verify", "--json", "--seed", str(seed),
                  "--samples", str(ENS_SAMPLES)]],
                [check_ens_verify], ["ens verify"], "ens")
    if name == "lab-run":
        return ([["lab", "run", "--json", "--seed", str(seed)]],
                [check_lab_run], ["lab run"], "lab")
    rows = specgen.write_batch(seed, SWEEP_SPECS, os.path.join(work, "specs"))
    ops = [["analyze", path, "--json"] for path, _ in rows]
    checkers = [lambda _n, op, e=exp: check_spec(e, op) for _, exp in rows]
    return ops, checkers, [exp.name for _, exp in rows], "none"


def tail_latency(per_pass):
    """(value, percentile, samples) for the highest percentile with at least
    ten samples beyond it.  Many-operation passes take it per pass and report
    the median over passes; single-operation passes pool all passes, and
    below 21 samples the median stands in, as no tail is resolved."""
    n = len(per_pass[0])
    if n >= 11:
        vals = [sorted(p)[n - 11] for p in per_pass]
        return statistics.median(vals), 100.0 * (n - 10) / n, n
    pooled = sorted(s for p in per_pass for s in p)
    m = len(pooled)
    if m >= 21:
        return pooled[m - 11], 100.0 * (m - 10) / m, m
    return statistics.median(pooled), 50.0, m


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end_metrics(passes, setups):
    """(values, notes, samples): calibrated medians, notes with quartiles and
    raw medians, and the per-pass samples.  Every time is divided by the
    speed factor its own process measured (see hostspeed.py)."""
    factors = [hostspeed.speed_factor(p["kernel_s"]) for p in passes]
    per_pass = [[op["seconds"] / f for op in p["ops"]] for p, f in zip(passes, factors)]
    tail, pct, count = tail_latency(per_pass)
    samples = {
        "wall_s": [p["wall"] / f for p, f in zip(passes, factors)],
        "cpu_s": [p["cpu"] / f for p, f in zip(passes, factors)],
        "peak_rss_mb": [p["rss"] for p in passes],
        "setup_s": [raw / f for raw, f in setups],
        "spec_p50_s": [statistics.median(s) for s in per_pass],
    }
    raw = {"wall_s": [p["wall"] for p in passes], "cpu_s": [p["cpu"] for p in passes],
           "setup_s": [r for r, _ in setups],
           "speed_factor": factors + [f for _, f in setups]}
    values = {k: statistics.median(v) for k, v in samples.items()}
    values["spec_tail_s"] = tail
    notes = {k: "q1 %.6g q3 %.6g of %d" % (*quartiles(v), len(v)) for k, v in samples.items()}
    for k in ("wall_s", "cpu_s", "setup_s"):
        notes[k] += "; raw median %.6g" % statistics.median(raw[k])
    notes["setup_s"] += "; fresh interpreters"
    notes["spec_tail_s"] = f"p{pct:.0f} of {count} operations" + (
        " per pass" if len(passes[0]["ops"]) >= 11 else " pooled over passes")
    samples["raw"] = raw
    return values, notes, samples


def per_layer_metrics(traced, untraced):
    """Per-layer metrics of the traced pass, times calibrated by its speed
    factor, and the tracing overhead against the untraced pass."""
    factor = hostspeed.speed_factor(traced["kernel_s"])
    spans = traced["spans"]
    by_phase = {}
    for s in spans:
        by_phase.setdefault(s["phase"], []).append(s)
    pass_spans = by_phase.get("pass", [])

    def self_sum(layer, phase_spans):
        return sum(s["self"] for s in phase_spans if s["name"] == layer)

    m = {"import_s": traced["import_s"]}
    for layer in SELF_TIME_LAYERS:
        m[f"{layer}_s"] = self_sum(layer, pass_spans)

    det = [s for s in pass_spans if s["name"] == "matrix.det"]
    names = {s["id"]: s["name"] for s in spans}
    top_det = [s for s in det if names.get(s["parent"]) != "matrix.det"]
    m["matrix.det_terms_max"] = max((t for s in det for t in s["terms"]), default=0)
    m["matrix.det_terms_total"] = sum(t for s in top_det for t in s["terms"])
    m["matrix.det_coeff_bits_max"] = max((s["coeff_bits"] for s in det), default=0)

    verdicts = [s for s in pass_spans if s["name"] == "hyperbolic.verdict"]
    for method in VERDICT_METHODS:
        m[f"hyperbolic.verdicts.{method}"] = sum(1 for s in verdicts if s["method"] == method)
    m["hyperbolic.line_restrictions"] = sum(s["line_restrictions"] for s in verdicts)

    symbolic = by_phase.get("symbolic", [])
    m["ens.symbolic_s"] = sum(s["end"] - s["start"] for s in symbolic
                              if s["name"] == "ens.verify" and s["parent"] is None)
    m["ens.quartic_s"] = sum(s["end"] - s["start"] for s in by_phase.get("quartic", [])
                             if s["name"] == "ens.quartic" and s["parent"] is None)
    base = self_sum("ens.verify", symbolic)
    if symbolic:
        m["ens.sample_s"] = (self_sum("ens.verify", pass_spans) - base) / ENS_SAMPLES
        m["ens.sample_s.t2"] = (self_sum("ens.verify", by_phase["t2"]) - base) / ENS_SAMPLES
    else:
        m["ens.sample_s"] = m["ens.sample_s.t2"] = 0.0
    m["ens.directions_s"] = self_sum("ens.directions", pass_spans)
    m["ens.reports_s"] = self_sum("ens.reports", pass_spans)
    m["lab.peak_alloc_mb"] = traced["probes"].get("lab_peak_alloc_bytes", 0) / 2 ** 20

    op_time = sum(op["seconds"] for op in traced["ops"])
    top = [(s["start"], s["end"]) for s in pass_spans if s["parent"] is None]
    m["trace.covered_share"] = union_length(top) / op_time
    for k, (unit, _) in PER_LAYER.items():
        if unit == "s":
            m[k] /= factor
    base_time = (sum(op["seconds"] for op in untraced["ops"])
                 / hostspeed.speed_factor(untraced["kernel_s"]))
    overhead = {"traced_ops_s": op_time / factor, "untraced_ops_s": base_time,
                "overhead_share": op_time / factor / base_time - 1.0,
                "speed_factor": factor}
    return m, overhead


# -- main ---------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for rel in (("src", "lops", "cli.py"), ("src", "lops", "data", "ens.lops")):
        if not os.path.isfile(os.path.join(root, *rel)):
            print(f"not a lops checkout: {os.path.join(*rel)} is missing under {root}",
                  file=sys.stderr)
            return 2

    os.makedirs(os.path.join(BENCH_DIR, "_work"), exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        work = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(BENCH_DIR, "_work"))
        try:
            measure(name, args, root, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return 0


def measure(workload: str, args, root: str, work: str) -> None:
    runner = Runner(root, work)
    ops, checkers, op_names, probes = build_workload(workload, args.seed, root, work)
    passes = []
    if args.trace:
        passes.append(runner.run_pass(ops, args.seed))
        traced = runner.run_pass(ops, args.seed, trace=probes)
        passes.append(traced)
    else:
        setups = runner.setup_seconds()
        passes = runner.run_passes(ops, args.seed, args.seconds)

    outcomes = [check(name, op) for p in passes
                for check, name, op in zip(checkers, op_names, p["ops"])]
    failed = [o for o in outcomes if not o.ok]
    unexpected = [o for o in failed if not o.known]

    prov = {"workload": workload, "seed": args.seed, "trace": args.trace,
            "cpu": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
            "python": passes[0]["python"], "numpy": passes[0]["numpy"],
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
            "passes": len(passes), "ops_per_pass": len(ops),
            "failed_share": len(failed) / len(outcomes)}

    print(f"lops benchmark: workload {workload} ({WORKLOADS[workload]}), "
          f"seed {args.seed}, trace {args.trace}, {len(passes)} passes")
    if args.trace:
        metrics, overhead = per_layer_metrics(traced, passes[0])
        prov["tracing"] = overhead
        units = {k: v[0] for k, v in PER_LAYER.items()}
        for k in PER_LAYER:
            print(f"  {k:42s} {metrics[k]:>14.6g} {units[k]:6s} moves {PER_LAYER[k][1]}")
    else:
        metrics, notes, prov["samples"] = end_to_end_metrics(passes, setups)
        units = dict(END_TO_END)
        for k, _ in END_TO_END:
            print(f"  {k:14s} {metrics[k]:>12.6g} {units[k]:3s} ({notes[k]})")
    print(f"  failed_share {prov['failed_share']:.4g} ({len(failed)} of {len(outcomes)} "
          f"operations; {len(failed) - len(unexpected)} are the known repeated-root "
          f"float-screen defect)")
    seen = {}
    for o in failed:
        seen.setdefault((o.name, o.known, o.reason), 0)
        seen[(o.name, o.known, o.reason)] += 1
    for (name, known, reason), times in seen.items():
        print(f"  FAILED x{times} {'(known defect) ' if known else ''}{name}: {reason}")
    print("provenance " + json.dumps(prov, sort_keys=True))

    result = {"correct": not unexpected, "attempted": len(outcomes), "failed": len(failed),
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
