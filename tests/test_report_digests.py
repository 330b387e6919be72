"""Every report of `scripts/report_digest.py` against the committed manifest
`tests/report_digests.txt`: each report's exit code and the sha256 of its
bytes, from a fresh interpreter per report, as the `lops` command runs.

`lab-run-h0.2-refine2.json` (0.7 GB, about 8 s) is not run.  The lab reports
are floats from numpy, so they are compared only under the numpy version
the manifest names; under another version every exact report is still
compared and the lab reports left out are named in a warning.

A change that moves a report on purpose updates the manifest in the same
commit: the lines after its three comment lines are the output of

    python scripts/report_digest.py

and the last comment line names the numpy version they were made under.
"""

import importlib.util
import os
import re
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor
from importlib.metadata import version

import lops

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "report_digests.txt")
NOT_RUN = {"lab-run-h0.2-refine2.json"}


def _script():
    path = os.path.join(os.path.dirname(HERE), "scripts", "report_digest.py")
    spec = importlib.util.spec_from_file_location("report_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _manifest():
    """(numpy version of the lab lines, {name: "exit=<code> <sha256>"})."""
    numpy_version, want = None, {}
    with open(MANIFEST) as fh:
        for line in fh:
            if line.startswith("#"):
                mo = re.fullmatch(r"# numpy (\S+)\n", line)
                numpy_version = mo[1] if mo else numpy_version
                continue
            sha, code, name = line.split()
            want[name] = f"{code} {sha}"
    return numpy_version, want


def _runs(script, tmp):
    """(name, argv, out_path) of every report, with the specs written to tmp."""
    data = os.path.join(os.path.dirname(lops.__file__), "data")
    return list(script.runs(os.path.join(data, "ens.lops"), os.path.join(data, "wave.lops"), tmp))


def test_manifest_lists_every_report_in_order():
    with tempfile.TemporaryDirectory() as tmp:
        names = [name for name, _, _ in _runs(_script(), tmp)]
    numpy_version, want = _manifest()
    assert names == list(want)
    assert numpy_version is not None


def test_every_report_matches_the_manifest():
    script = _script()
    numpy_version, want = _manifest()
    lab = {name for name in want if name.startswith("lab-")} - NOT_RUN
    skipped = NOT_RUN | (lab if version("numpy") != numpy_version else set())
    src = os.path.dirname(os.path.dirname(os.path.abspath(lops.__file__)))
    with tempfile.TemporaryDirectory() as tmp:
        todo = [run for run in _runs(script, tmp) if run[0] not in skipped]

        def digest(run):
            name, argv, out = run
            code, sha = script.digest(src, argv, out)
            return name, f"exit={code} {sha}"

        with ThreadPoolExecutor(max_workers=2) as pool:
            got = dict(pool.map(digest, todo))
    assert len(got) == len(want) - len(skipped)
    moved = [f"{name}: {got[name]}, manifest {want.get(name)}"
             for name in got if got[name] != want.get(name)]
    assert not moved, "reports differ from tests/report_digests.txt:\n" + "\n".join(moved)
    if lab & skipped:
        warnings.warn(f"numpy {version('numpy')}, manifest made under numpy {numpy_version}: "
                      f"lab reports not compared: {sorted(lab)}")
