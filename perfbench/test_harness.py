"""Tests of the measuring harness: span recorder thread safety and self
time, a traced pass, and the host-speed sampler.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hostspeed  # noqa: E402
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def test_union_length_merges_overlaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0), (5.0, 5.0)]) == 3.0


def test_concurrent_spans_are_all_recorded_with_their_own_parents():
    tracer = spans.Tracer()
    inner = tracer._wrap("inner", "inner", lambda: None)
    outer = tracer._wrap("outer", "outer", lambda: [inner() for _ in range(3)])
    workers, calls = 8, 200
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [outer() for _ in range(calls)])
                   for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    out = tracer.export()
    assert len(out) == workers * calls * 4
    assert len({s["id"] for s in out}) == len(out)
    by_id = {s["id"]: s for s in out}
    for s in out:
        if s["name"] == "inner":
            parent = by_id[s["parent"]]
            assert parent["name"] == "outer" and parent["thread"] == s["thread"]
        else:
            assert s["parent"] is None


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    child = tracer._wrap("child", "child", lambda: time.sleep(0.05))

    def body():
        child()
        time.sleep(0.02)

    tracer._wrap("parent", "parent", body)()
    rows = {s["name"]: s for s in tracer.export()}
    assert rows["child"]["self"] >= 0.05
    assert 0.015 <= rows["parent"]["self"] < 0.05


def test_traced_pass_covers_every_layer_of_analyze(tmp_path):
    wave = os.path.join(ROOT, "src", "lops", "data", "wave.lops")
    out = tmp_path / "out.json"
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"ops": [["analyze", wave, "--json"]], "out": str(out),
                               "seed": 0, "trace": "none"}))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, os.path.join(HERE, "child.py"), str(job)],
                   env=env, check=True, timeout=120)
    result = json.loads(out.read_text())
    assert result["ops"][0]["rc"] == 0
    names = {s["name"] for s in result["spans"]}
    assert {"dsl.parse", "system.validate", "matrix.blocks", "matrix.det",
            "matrix.cancel", "hyperbolic.verdict"} <= names
    det = [s for s in result["spans"] if s["name"] == "matrix.det"]
    assert det and all(s["terms"] == [10] for s in det)
    verdicts = [s for s in result["spans"] if s["name"] == "hyperbolic.verdict"]
    assert [s["method"] for s in verdicts] == ["quadratic-signature"]


def test_speed_factor_trims_outliers_and_scales_by_the_reference():
    ref = hostspeed.REFERENCE_KERNEL_S
    samples = [ref] * 8 + [2 * ref] * 8 + [1000 * ref, 0.0] * 2
    assert abs(hostspeed.speed_factor(samples) - 1.5) < 1e-9


def test_sampler_times_the_kernel_until_stopped():
    sampler = hostspeed.Sampler()
    sampler.start(0.01)
    t_end = time.perf_counter() + 0.3
    while time.perf_counter() < t_end:
        sum(i * i for i in range(1000))
    samples = sampler.stop()
    assert len(samples) >= 5 and all(s > 0 for s in samples)
    time.sleep(0.05)
    assert len(sampler.samples) == len(samples)
