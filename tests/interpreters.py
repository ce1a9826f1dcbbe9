"""Run the same-bytes CLI rows under other Python interpreters.

``pyproject.toml`` declares ``requires-python = ">=3.10"``, and Tier-1 runs
under one interpreter only.  This script runs each row of
``test_same_bytes.RUNS`` as ``PYTHON -m latforge.cli ARGS`` with
``PYTHONPATH=src``, in a fresh directory holding that module's input files,
and compares its exit code and the digests of its report, CSV, stdout and
stderr with the recorded ones:

    python tests/interpreters.py /usr/bin/python3.10 /usr/bin/python3.13

The rows whose output is argparse's own usage or help text (``usage-*``
and ``help``) are left out: that text is the standard library's and
changes between Python versions.  The script itself runs under an
interpreter with pytest, which ``test_same_bytes`` imports; the others need
nothing but the standard library.  It exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from test_same_bytes import EXPECTED, FIELDS, RUNS, _digest, _read, write_inputs  # noqa: E402

ROWS = [name for name in RUNS if not name.startswith(("usage-", "help"))]


def digests(python: str, name: str) -> dict:
    """The exit code and output digests of row ``name`` under ``python``."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1", "COLUMNS": "80"}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_inputs()
            done = subprocess.run(
                [python, "-m", "latforge.cli", *RUNS[name]], env=env, capture_output=True
            )
            produced = [_read("r.json"), _read("t.csv"), done.stdout, done.stderr]
        finally:
            os.chdir(ROOT)
    return dict(zip(FIELDS, [done.returncode, *map(_digest, produced)]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("pythons", nargs="+", metavar="PYTHON", help="interpreters to run")
    wrong = 0
    for python in parser.parse_args().pythons:
        version = subprocess.run(
            [python, "-c", "import platform; print(platform.python_version())"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        for name in ROWS:
            got, want = digests(python, name), dict(zip(FIELDS, EXPECTED[name]))
            diff = [f for f in FIELDS if got[f] != want[f]]
            wrong += bool(diff)
            print(f"{version:8} {name:22} {'differs in ' + ', '.join(diff) if diff else 'same'}",
                  flush=True)
    print(f"{wrong} row run(s) differ")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
