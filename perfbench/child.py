"""One measured pass, run in a fresh interpreter by run.py.

Imports `lops.cli` the way the `lops` console script does, then calls
`lops.cli.main(argv)` once per operation listed in the job file, capturing
each report and timing each call.  A traced job first wraps the public
layer functions (see spans.py), so that the same calls also record spans,
and then runs the workload's directed layer probes.

    python3 child.py <job.json>

The job file names the operations, the result file, the seed and the probe
set (null for an untraced pass).  The result also carries the host-speed
kernel samples taken during the pass (see hostspeed.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import hostspeed                         # perfbench/hostspeed.py, first on sys.path


def run_ops(main, ops):
    results = []
    for argv in ops:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = main(argv)
        except SystemExit as exc:        # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - t0
        results.append({"rc": rc, "seconds": seconds, "stdout": buf.getvalue()})
    return results


def main() -> int:
    sampler = hostspeed.Sampler()
    sampler.start()
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    traced = job["trace"] is not None

    if traced:
        import spans
        tracer = spans.Tracer()
    t0 = time.perf_counter()
    import lops.cli
    import numpy
    out = {"import_s": time.perf_counter() - t0, "numpy": numpy.__version__,
           "python": sys.version.split()[0]}

    if traced:
        tracer.install()
    with tracer.phase("pass") if traced else contextlib.nullcontext():
        out["ops"] = run_ops(lops.cli.main, job["ops"])
    # the host speed of the pass itself; probes such as tracemalloc slow the
    # kernel along with everything else
    out["kernel_s"] = list(sampler.samples)
    if traced:
        out["probes"] = spans.run_probes(tracer, job["trace"], job["seed"])
        out["spans"] = tracer.export()
    sampler.stop()
    with open(job["out"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
