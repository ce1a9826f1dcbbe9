"""The four benchmark workloads, their seeded inputs and their output checks.

Each workload is generated with ``latforge.gen`` from the benchmark seed and
handed to the program only as ``.lat`` (and stage) files.  Why each exists:

hybrid-knapsack133  CLI ``hybrid`` on knapsack(40, 133-bit): ldsf 6 blocks
    (inner 2, outer 2), sigma 6x4 (inner 2), sigma 4x4, sigma 2x3.  Most of
    the time is ``core.metrics``/``gram_det`` and short block reductions.
    A terminating ``lll`` stage at alpha 99/100 is left out: its
    cost moved between 0.9 s and 6.9 s with the seed, which no run length
    here averages out.
hc-knapsack60  CLI ``hc --radius 35 --k 16 --p 8 --target 0`` on
    knapsack(40, 60-bit): 129 small-entry reductions dispatched by
    ``parallel.pmap`` in batches of 16.
lll-knapsack1000  CLI ``lll`` on knapsack(30, 1000-bit): one huge-entry
    reduction; the same kernel as hc-knapsack60 used the opposite way.  Its
    input also makes the heaviest ``setup_s``.  Rank 30, not 40: one rank-40
    reduction took 5-8 s, too few runs for a steady median in one set.
certify  A library driver (certify.py): ``lll_reduce``, ``is_lll_reduced``
    and ``same_lattice`` on a fixed corpus, then ``svp_oracle(b, 10)`` on
    two seeded uniform(5, +-50) bases.  The corpus is fixed, not seeded,
    because HNF cost on a reduced basis ranges over three orders of
    magnitude between seeds.  It holds a reduced knapsack(30) basis whose
    HNF takes 1-2 s (the slow echelon path) and a uniform(30) basis (the
    square path).  The seed drives the SVP bases, whose cost depends only on
    the box size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from latforge.gen import knapsack_basis, uniform_basis
from latforge.latfile import save_lattice

import checks

# The CLI's default reduction parameter, used by lll and hc.
ALPHA = Fraction(3, 4)


@dataclass
class Workload:
    name: str
    program: list[str]  # interpreter arguments of an untraced run
    traced: list[str]  # traced_main.py arguments after the spans file
    inputs: list[str]  # lattice files the program loads
    report: str  # JSON report the program writes
    check: Callable[[dict], list[str]]  # problems found in a parsed report
    counts: dict[str, int] = field(default_factory=dict)  # exact traced .calls
    threads_check: bool = False  # traced sets rerun once with LATFORGE_THREADS=1


def _save(b, path: Path) -> str:
    save_lattice(b, str(path))
    return path.as_posix()


def _knapsack_problems(label: str, entries, weights, lll: bool) -> list[str]:
    rows = checks.rows_of(entries)
    problems = []
    if not checks.spans_knapsack_lattice(rows, weights):
        problems.append(f"{label} does not span the input lattice")
    if lll and not checks.is_lll_reduced(rows, ALPHA):
        problems.append(f"{label} is not LLL-reduced")
    return problems


def _cli(wd: Path, basis, command: list[str], seed: int) -> tuple[list[str], str, str]:
    lat = _save(basis, wd / "input.lat")
    report = (wd / "report.json").as_posix()
    args = [command[0], "--in", lat, *command[1:], "--seed", str(seed), "--report", report]
    return args, lat, report


def hybrid(wd: Path, seed: int, toy: bool) -> Workload:
    m, bits = (12, 40) if toy else (40, 133)
    if toy:
        stages = [
            {"kind": "ldsf", "blocks": 3, "inner": 2, "outer": 2},
            {"kind": "sigma", "blocks": 3, "sample": 2},
            {"kind": "sigma", "blocks": 2, "sample": 2},
        ]
    else:
        stages = [
            {"kind": "ldsf", "blocks": 6, "inner": 2, "outer": 2},
            {"kind": "sigma", "blocks": 6, "sample": 4, "inner": 2},
            {"kind": "sigma", "blocks": 4, "sample": 4},
            {"kind": "sigma", "blocks": 2, "sample": 3},
        ]
    stage_file = wd / "stages.json"
    stage_file.write_text(json.dumps(stages) + "\n", encoding="utf-8")
    basis = knapsack_basis(m, bits, seed=seed)
    weights = [row[-1] for row in basis.rows]
    args, lat, report = _cli(
        wd, basis, ["hybrid", "--stages", stage_file.as_posix()], seed
    )

    def check(rep: dict) -> list[str]:
        problems = _knapsack_problems("final_basis", rep["final_basis"], weights, lll=False)
        if len(rep["stages"]) != len(stages):
            problems.append(f"{len(rep['stages'])} stage reports for {len(stages)} stages")
        return problems

    samples = [s.get("sample", 0) for s in stages if s["kind"] == "sigma"]
    return Workload(
        "hybrid-knapsack133",
        ["-m", "latforge.cli", *args],
        ["cli", *args],
        [lat],
        report,
        check,
        counts={
            "ldsf.ldsf_run.calls": 1 + sum(samples),
            "ldsf.sigma_candidates.calls": len(samples),
        },
    )


def hc(wd: Path, seed: int, toy: bool) -> Workload:
    m, bits, radius, k, p = (12, 30, 8, 4, 2) if toy else (40, 60, 35, 16, 8)
    basis = knapsack_basis(m, bits, seed=seed)
    weights = [row[-1] for row in basis.rows]
    command = ["hc", "--radius", str(radius), "--k", str(k), "--p", str(p), "--target", "0"]
    args, lat, report = _cli(wd, basis, command, seed)

    def check(rep: dict) -> list[str]:
        problems = _knapsack_problems("best_basis", rep["best_basis"], weights, lll=True)
        problems += _knapsack_problems("last step basis", rep["steps"][-1]["basis"], weights, lll=True)
        if len(rep["steps"]) != p:
            problems.append(f"{len(rep['steps'])} steps, expected {p} with --target 0")
        return problems

    return Workload(
        "hc-knapsack60",
        ["-m", "latforge.cli", *args],
        ["cli", *args],
        [lat],
        report,
        check,
        counts={"lll.lll_reduce.calls": 1 + k * p, "perm.sample_at_radius.calls": k * p},
        threads_check=True,
    )


def lll(wd: Path, seed: int, toy: bool) -> Workload:
    m, bits = (12, 200) if toy else (30, 1000)
    basis = knapsack_basis(m, bits, seed=seed)
    weights = [row[-1] for row in basis.rows]
    args, lat, report = _cli(wd, basis, ["lll"], seed)

    def check(rep: dict) -> list[str]:
        return _knapsack_problems("basis", rep["basis"], weights, lll=True)

    return Workload(
        "lll-knapsack1000",
        ["-m", "latforge.cli", *args],
        ["cli", *args],
        [lat],
        report,
        check,
        # load_lattice's independence test plus metrics before and after.
        counts={"core.gram_det.calls": 3},
    )


def certify(wd: Path, seed: int, toy: bool) -> Workload:
    if toy:
        corpus = [knapsack_basis(8, 30, seed=0), uniform_basis(8, seed=0)]
        svp = [uniform_basis(3, -10, 10, seed=2 * seed + i) for i in range(2)]
        bound = 2
    else:
        corpus = [knapsack_basis(30, 60, seed=0), uniform_basis(30, seed=0)]
        svp = [uniform_basis(5, -50, 50, seed=2 * seed + i) for i in range(2)]
        bound = 10
    reduce_files = [_save(b, wd / f"reduce{i}.lat") for i, b in enumerate(corpus)]
    svp_files = [_save(b, wd / f"svp{i}.lat") for i, b in enumerate(svp)]
    report = (wd / "report.json").as_posix()
    args = ["--report", report, "--bound", str(bound), "--reduce", *reduce_files, "--svp", *svp_files]

    def check(rep: dict) -> list[str]:
        problems = []
        for b, entry in zip(corpus, rep["reduce"]):
            label = entry["input"]
            if not (entry["is_lll_reduced"] and entry["same_lattice"]):
                problems.append(f"{label}: a certificate is false")
            rows = checks.rows_of(entry["basis"])
            if b.m < b.n:
                weights = [row[-1] for row in b.rows]
                problems += _knapsack_problems(label, entry["basis"], weights, lll=True)
            else:
                if abs(checks.det(rows)) != abs(checks.det([list(r) for r in b.rows])):
                    problems.append(f"{label}: determinant changed")
                if not checks.is_lll_reduced(rows, ALPHA):
                    problems.append(f"{label}: not LLL-reduced")
        for b, entry in zip(svp, rep["svp"]):
            v = [int(x) for x in entry["vector"]]
            shortest_row = min(b.row_normsq(i) for i in range(b.m))
            if not any(v) or not checks.solve_integral([list(r) for r in b.rows], v):
                problems.append(f"{entry['input']}: vector is not a nonzero lattice vector")
            elif sum(x * x for x in v) > shortest_row:
                problems.append(f"{entry['input']}: vector longer than a basis row")
            if entry["count_checked"] != (2 * bound + 1) ** b.m - 1:
                problems.append(f"{entry['input']}: wrong count_checked")
        if len(rep["reduce"]) != len(corpus) or len(rep["svp"]) != len(svp):
            problems.append("report is missing entries")
        return problems

    n = len(corpus)
    return Workload(
        "certify",
        ["perfbench/certify.py", *args],
        ["certify", *args],
        reduce_files + svp_files,
        report,
        check,
        counts={
            "lll.lll_reduce.calls": n,
            "lll.is_lll_reduced.calls": n,
            "core.hnf.calls": 2 * n,
            "core.svp_oracle.calls": len(svp),
        },
    )


_MAKERS = {
    "hybrid-knapsack133": hybrid,
    "hc-knapsack60": hc,
    "lll-knapsack1000": lll,
    "certify": certify,
}


NAMES = tuple(_MAKERS)


def prepare(name: str, seed: int, workdir: Path, toy: bool = False) -> Workload:
    """Write the inputs of one workload under ``workdir`` (a path relative to
    the repository root, which is the working directory) and describe it."""
    workdir.mkdir(parents=True, exist_ok=True)
    return _MAKERS[name](workdir, seed, toy)
