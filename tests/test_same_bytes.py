"""Same bytes: toy-scale CLI runs on ``latforge.gen`` inputs, compared with
digests recorded from an earlier tree.

Each run digests its JSON report, its CSV, stdout and stderr (the first 16
hex digits of sha256; None for a file not written or a stream left empty)
and keeps its exit code.  A run works in a fresh directory of its own with
relative paths, because a report records its ``--in`` path.  The table
changes only with a CHANGES.md entry that says what changed in the output
and why.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from latforge import knapsack_basis, uniform_basis
from latforge.cli import cli_main
from latforge.latfile import save_lattice

STAGES = [
    {"kind": "ldsf", "blocks": 3},
    {"kind": "sigma", "blocks": 3, "sample": 2},
    {"kind": "sigma", "blocks": 2, "sample": 2},
    {"kind": "lll"},
]
REPORT = ["--report", "r.json"]
RUNS = {
    "lll-99": ["lll", "--alpha", "99/100", "--in", "k12.lat", *REPORT],
    "lll-51": ["lll", "--alpha", "51/100", "--in", "k12.lat", *REPORT],
    "hc-radius": [
        "hc", "--radius", "6", "--k", "4", "--p", "3", "--alpha", "51/100",
        "--target", "10", "--seed", "7", "--in", "k12.lat", *REPORT,
    ],
    "hc-r0": [
        "hc", "--r0", "2", "--rstep", "2", "--k", "3", "--p", "3", "--target", "0",
        "--in", "k12.lat", *REPORT,
    ],
    "hc-psl2": [
        "hc", "--psl2", "11", "--k", "3", "--p", "2", "--target", "0", "--seed", "5",
        "--in", "k12.lat", *REPORT,
    ],
    "ldsf": [
        "ldsf", "--blocks", "3", "--inner", "2", "--outer", "2", "--target", "1",
        "--seed", "4", "--in", "k12.lat", *REPORT,
    ],
    "hybrid": ["hybrid", "--stages", "stages.json", "--seed", "2", "--in", "k12.lat", *REPORT],
    "sweep": [
        "sweep", "--radii", "4,8", "--samples", "6", "--seed", "1", "--in", "k12.lat",
        "--out-csv", "t.csv", *REPORT,
    ],
    "freq": [
        "freq", "--radii", "3,12", "--samples", "6", "--in", "k12.lat",
        "--out-csv", "t.csv", *REPORT,
    ],
    "oracle": ["oracle", "--bound", "2", "--in", "u5.lat", *REPORT],
    "exit1-position": ["lll", "--in", "bad.lat", *REPORT],
    "exit2-budget": ["oracle", "--bound", "9", "--budget", "100", "--in", "u5.lat", *REPORT],
}
FIELDS = ("code", "report", "csv", "stdout", "stderr")
EXPECTED = {
    "lll-99": (0, "39ab346c12adc568", None, "3c141c1ed41d7a66", None),
    "lll-51": (0, "0e9cd9ee6e292d42", None, "8615c9dddabea381", None),
    "hc-radius": (0, "d0fe9f1a5ee2d4d4", None, "db50e50b81208bf1", None),
    "hc-r0": (0, "6fe28a7dbc248ccb", None, "40ce23863adb4e2e", None),
    "hc-psl2": (0, "3a86e09f7cf430da", None, "735f5c2879fa1c99", None),
    "ldsf": (0, "4622e934978aedc4", None, "1fc1a0e750f21043", None),
    "hybrid": (0, "33fe9784efe42b0f", None, "86dc30143b0bdb1a", None),
    "sweep": (0, "9398fa2bd11e1b20", "3596c40f47d21a1a", None, None),
    "freq": (0, "4a21d54f9506fdef", "961e37d1ecd55b75", None, None),
    "oracle": (0, "e5cb1ba91e389fa5", None, "e9ddd72e1f9f87e2", None),
    "exit1-position": (1, None, None, None, "52d4db58a592d9f4"),
    "exit2-budget": (2, None, None, None, "96f1e027ab93d1cf"),
}


def _digest(data: bytes | None) -> str | None:
    return hashlib.sha256(data).hexdigest()[:16] if data else None


def _read(path: str) -> bytes | None:
    return Path(path).read_bytes() if Path(path).exists() else None


def outputs(name: str) -> list:
    """Write the inputs to the working directory, run ``RUNS[name]`` there,
    and return its exit code and then its outputs in ``FIELDS`` order."""
    save_lattice(knapsack_basis(12, 40, seed=3), "k12.lat")
    save_lattice(uniform_basis(5, -20, 20, seed=2), "u5.lat")
    Path("bad.lat").write_text("[[1 0]\n[0 x1]]\n", encoding="utf-8")
    Path("stages.json").write_text(json.dumps(STAGES), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(RUNS[name])
    return [
        code, _read("r.json"), _read("t.csv"), out.getvalue().encode(), err.getvalue().encode()
    ]


def digests(name: str) -> dict:
    code, *produced = outputs(name)
    return dict(zip(FIELDS, [code, *map(_digest, produced)]))


@pytest.mark.parametrize("name", RUNS)
def test_same_bytes(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert digests(name) == dict(zip(FIELDS, EXPECTED[name]))


@pytest.mark.parametrize(
    "name, message",
    [
        ("exit1-position", b"parse error at line 2, column 4: expected an integer"),
        ("exit2-budget", b"computation failed: box of 2476099 coefficient vectors"),
    ],
)
def test_error_runs_name_what_failed(name, message, tmp_path, monkeypatch):
    # The digests cover these messages; this says what they are.
    monkeypatch.chdir(tmp_path)
    assert message in outputs(name)[-1]
