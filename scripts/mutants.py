#!/usr/bin/env python3
"""Run each mutant of a committed list against the tests named to kill it.

    python scripts/mutants.py [NAME ...]

The list, `scripts/mutants.toml` (one `[[mutant]]` table per mutant), gives
each mutant a `name`, a `file` relative to the repository root, an exact
`old` text that must occur in that file exactly once, the `new` text that
replaces it, the pytest node ids in `tests` that should fail under it, and
a `why` line.  NAMEs restrict the run to those mutants.

The script copies `src`, `tests`, `scripts`, `perfbench` and
`pyproject.toml` into a temporary directory, checks every old text, and
runs the named tests of the selected mutants there once unmutated: they
must pass.  Then, one mutant at a time, it writes the mutated file, runs
only that mutant's tests (`pytest -x`, no bytecode written, so no stale
`.pyc` can stand in for the mutated source) and restores the file.  A
mutant is killed when pytest reports a failed test (exit 1), or when its
tests run past TIMEOUT seconds (a mutation that makes a loop run without
end); it survives when every named test passes.  One line per mutant.

Exits 1 if an old text does not occur exactly once, the unmutated tests
fail, a mutant survives, or pytest ends any other way (a node id that names
no test, say); else 0.  This is mutation analysis (DeMillo, Lipton and
Sayward, IEEE Computer 11(4), 1978); it is not part of the test suite.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tomllib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COPIED = ("src", "tests", "scripts", "perfbench", "pyproject.toml")
KEYS = {"name", "file", "old", "new", "tests", "why"}
#: seconds a mutant's tests may run before it counts as killed; the
#: unmutated run, which runs every selected mutant's tests, gets twice that
TIMEOUT = 120


def load(path, names):
    with open(path, "rb") as fh:
        mutants = tomllib.load(fh)["mutant"]
    for m in mutants:
        if set(m) != KEYS:
            sys.exit(f"{path}: mutant {m.get('name')!r} needs exactly the keys {sorted(KEYS)}")
    unknown = set(names).difference(m["name"] for m in mutants)
    if unknown:
        sys.exit(f"{path}: no mutant named {', '.join(sorted(unknown))}")
    return [m for m in mutants if not names or m["name"] in names]


def pytest(tree, tests, timeout):
    """pytest's exit code on `tests` in `tree` (None past the timeout) and
    its FAILED and ERROR lines, or its last line when it has none."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                              *tests], cwd=tree, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, []
    lines = [line for line in run.stdout.splitlines() if line.strip()]
    return run.returncode, ([line for line in lines if line.startswith(("FAILED ", "ERROR "))]
                            or lines[-1:])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", metavar="NAME")
    mutants = load(os.path.join(HERE, "mutants.toml"), ap.parse_args().names)
    bad = 0
    with tempfile.TemporaryDirectory() as tree:
        for name in COPIED:
            source = os.path.join(ROOT, name)
            if os.path.isdir(source):
                shutil.copytree(source, os.path.join(tree, name),
                                ignore=shutil.ignore_patterns("__pycache__", "_work"))
            else:
                shutil.copy2(source, tree)
        for m in mutants:
            with open(os.path.join(tree, m["file"]), encoding="utf-8") as fh:
                found = fh.read().count(m["old"])
            if found != 1:
                print(f"NO MATCH  {m['name']}: its old text occurs {found} times in {m['file']}")
                bad += 1
        if bad:
            return 1
        tests = list(dict.fromkeys(t for m in mutants for t in m["tests"]))
        code, failed = pytest(tree, tests, TIMEOUT * 2)
        if code != 0:
            print(f"UNMUTATED tests do not pass (pytest exit {code}):", *failed, sep="\n  ")
            return 1
        for m in mutants:
            path = os.path.join(tree, m["file"])
            with open(path, encoding="utf-8") as fh:
                original = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(original.replace(m["old"], m["new"]))
            start = time.monotonic()
            try:
                code, failed = pytest(tree, m["tests"], TIMEOUT)
            finally:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(original)
            took = f"({time.monotonic() - start:.1f} s)"
            if code == 1:
                first = failed[0].split(" ", 1)[1].split(" - ")[0] if failed else "a test failed"
                print(f"killed    {m['name']}: {first} {took}")
            elif code is None:
                print(f"killed    {m['name']}: timeout {took}")
            else:
                print(f"{'SURVIVED' if code == 0 else f'ERROR {code}':9s} {m['name']} {took}",
                      *failed[:1] if code else [], sep="\n  ")
                bad += 1
    print(f"{len(mutants) - bad} of {len(mutants)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
