#!/usr/bin/env python3
"""latforge benchmark: seeded workloads, end-to-end timings, traced layers.

Run from the repository root; the program is always the checkout's ``src/``
(put on PYTHONPATH), never an installed copy:

    python3 perfbench/run.py --workload hc-knapsack60 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload hc-knapsack60 --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke

``--trace 0`` repeats whole program runs (tracing off) for ``--seconds``,
each preceded by a set-up probe, and reports medians of wall_s, setup_s and
peak_rss_mb.  ``--trace 1`` alternates traced and untraced runs (at least
two traced) and reports the per-layer metrics of tracer.py.  ``--smoke``
runs every workload once at toy scale, untraced and traced, with every
output check, in seconds.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed``/``attempted`` is the
fail ratio.  A run fails if it exits non-zero, if its report or stdout
digest differs from the other runs (or, on seed 0, from
expected_digests.json), or if the checks of workloads.py reject its report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")
CHILD_TIMEOUT_S = 150
# Reported times are scaled to a host on which calibrate.py takes this long.
CALIBRATION_REF_S = 0.25

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# name: (unit, better)
PER_LAYER = {
    "lll.lll_reduce.calls": ("count", "lower"),
    "lll.lll_reduce.busy_s": ("s", "lower"),
    "lll.lll_reduce.in_bits_max": ("bits", "lower"),
    "lll.is_lll_reduced.calls": ("count", "lower"),
    "lll.is_lll_reduced.busy_s": ("s", "lower"),
    "core.metrics.calls": ("count", "lower"),
    "core.metrics.self_s": ("s", "lower"),
    "core.gram_det.calls": ("count", "lower"),
    "core.gram_det.busy_s": ("s", "lower"),
    "core.reduction_key.calls": ("count", "lower"),
    "core.reduction_key.busy_s": ("s", "lower"),
    "core.hnf.calls": ("count", "lower"),
    "core.hnf.busy_s": ("s", "lower"),
    "core.svp_oracle.calls": ("count", "lower"),
    "core.svp_oracle.busy_s": ("s", "lower"),
    "core.svp_oracle.vectors_checked": ("count", "lower"),
    "parallel.pmap.calls": ("count", "lower"),
    "parallel.pmap.items": ("count", "lower"),
    "parallel.pmap.busy_s": ("s", "lower"),
    "parallel.pmap.task_cpu_s": ("s", "lower"),
    "parallel.pmap.parallelism": ("ratio", "higher"),
    "perm.sample_at_radius.calls": ("count", "lower"),
    "perm.sample_at_radius.busy_s": ("s", "lower"),
    "perm.sample_right.calls": ("count", "lower"),
    "perm.sample_right.busy_s": ("s", "lower"),
    "perm.apply.calls": ("count", "lower"),
    "perm.apply.busy_s": ("s", "lower"),
    "hillclimb.steps": ("count", "lower"),
    "hillclimb.step_s_p50": ("s", "lower"),
    "hillclimb.improved_ratio": ("ratio", "higher"),
    "ldsf.ldsf_run.calls": ("count", "lower"),
    "ldsf.ldsf_run.self_s": ("s", "lower"),
    "ldsf.rounds": ("count", "lower"),
    "ldsf.sigma_candidates.busy_s": ("s", "lower"),
    "ldsf.sigma.kept_ratio": ("ratio", "higher"),
    "pipeline.ldsf_stage_s": ("s", "lower"),
    "pipeline.sigma_stage_s": ("s", "lower"),
    "latfile.load_lattice.busy_s": ("s", "lower"),
    "latfile.input_bytes": ("bytes", "lower"),
    "serialize.busy_s": ("s", "lower"),
    "serialize.report_bytes": ("bytes", "lower"),
    "cli.cli_main.busy_s": ("s", "lower"),
    "proc.cpu_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

SETUP_PROBE = (
    "import sys, latforge.cli\n"
    "from latforge.latfile import load_lattice\n"
    "for path in sys.argv[1:]: load_lattice(path)\n"
)


@dataclass
class Run:
    kind: str
    seconds: float
    code: int
    rss_mb: float
    cpu_s: float
    digest: dict | None = None
    trace: dict | None = None  # what traced_main.py dumped


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tail(values: list[float]) -> str:
    """The highest listed percentile with at least ten runs beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n - math.ceil(n * p / 100) >= 10:
            return f"p{p}={statistics.quantiles(values, n=100)[p - 1]:.6g}"
    return "no percentile has >= 10 runs beyond it"


class Bench:
    """Starts the child processes of one set of runs and keeps their order
    and the reports they wrote."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
        self.order: list[tuple[str, float]] = []
        self.reports: dict[str, bytes] = {}

    def spawn(self, kind: str, argv: list[str], report: str | None = None, env=None) -> Run:
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        if report:
            Path(report).unlink(missing_ok=True)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], env=env or self.env, stdout=out, stderr=err
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.order.append((kind, round(seconds, 4)))
        run = Run(
            kind,
            seconds,
            proc.returncode,
            usage.ru_maxrss / 1024,
            usage.ru_utime + usage.ru_stime,
        )
        if proc.returncode != 0:
            message = err_path.read_bytes().decode("utf-8", "replace")[-2000:]
            print(f"{kind} run exited {proc.returncode}: {message}", file=sys.stderr)
        if report is not None:
            data = Path(report).read_bytes() if Path(report).exists() else b""
            run.digest = {"stdout": sha256(out_path.read_bytes()), "report": sha256(data)}
            self.reports.setdefault(run.digest["report"], data)
        return run


def judge(wl, runs: list[Run], reports: dict[str, bytes], expected) -> tuple[int, list[str]]:
    """Count the failed runs and describe every problem found."""
    keys = [json.dumps(r.digest, sort_keys=True) for r in runs]
    if expected is not None:
        reference = json.dumps(expected, sort_keys=True)
    else:
        reference = Counter(keys).most_common(1)[0][0]
    problems: list[str] = []
    rejected = set()
    for key in sorted(set(keys)):
        report = reports[json.loads(key)["report"]]
        try:
            found = wl.check(json.loads(report))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            found = [f"report unreadable: {exc!r}"]
        if key != reference:
            found.append(f"digests {key} differ from the reference {reference}")
        if found:
            rejected.add(key)
            problems += found
    if any(r.code != 0 for r in runs):
        problems.append("a run exited non-zero")
    failed = sum(1 for r, key in zip(runs, keys) if r.code != 0 or key in rejected)
    return failed, problems


def layer_metrics(wl, traced: list[Run], untraced: list[Run]) -> tuple[dict, list[str]]:
    """Per-layer metrics (medians over the traced runs) and count problems."""
    per_run = []
    for run in traced:
        agg = tracer.aggregate(run.trace)
        pmap_busy = agg.get("parallel.pmap.busy_s", 0.0)
        candidates = agg.get("ldsf.sigma.candidates", 0)
        agg["parallel.pmap.parallelism"] = (
            agg.get("parallel.pmap.task_cpu_s", 0.0) / pmap_busy if pmap_busy else 0.0
        )
        agg["ldsf.sigma.kept_ratio"] = (
            agg.get("ldsf.sigma.kept", 0) / candidates if candidates else 0.0
        )
        agg["proc.cpu_s"] = run.cpu_s
        per_run.append(agg)
    layers = {n: statistics.median(agg.get(n, 0) for agg in per_run) for n in PER_LAYER}
    layers["trace.overhead_ratio"] = statistics.median(
        r.seconds for r in traced
    ) / statistics.median(r.seconds for r in untraced)

    problems = []
    calls = [{k: v for k, v in agg.items() if k.endswith(".calls")} for agg in per_run]
    if any(c != calls[0] for c in calls[1:]):
        problems.append("the .calls counts differ between traced runs")
    for name, want in wl.counts.items():
        got = per_run[0].get(name, 0)
        if got != want:
            problems.append(f"{name} = {got}, expected {want}")
    return layers, problems


def measure(wl, bench: Bench, seconds: float, trace: bool) -> dict[str, list[Run]]:
    """Run one workload for about ``seconds``: a new run starts only if the
    previous one, repeated, would still end in time."""
    setup_argv = ["-c", SETUP_PROBE, *wl.inputs]
    spans_path = (bench.workdir / "spans.json").as_posix()
    got: dict[str, list[Run]] = {
        "calibrate": [], "setup": [], "timed": [], "traced": [], "extra": []
    }
    # Compiles the bytecode, so that no timed run pays for it.
    got["setup"].append(bench.spawn("warm-up", setup_argv))
    start = time.perf_counter()
    while True:
        if not trace:
            calibrate = bench.spawn("calibrate", ["perfbench/calibrate.py"])
            setup = bench.spawn("setup", setup_argv)
            run = bench.spawn("timed", wl.program, wl.report)
            got["calibrate"].append(calibrate)
            got["setup"].append(setup)
            got["timed"].append(run)
            last = calibrate.seconds + setup.seconds + run.seconds
            enough = True
        elif len(got["traced"]) <= len(got["timed"]):
            argv = ["perfbench/traced_main.py", spans_path, *wl.traced]
            run = bench.spawn("traced", argv, wl.report)
            if run.code == 0:
                run.trace = json.loads(Path(spans_path).read_text(encoding="utf-8"))
            got["traced"].append(run)
            last = run.seconds
            enough = len(got["traced"]) >= 2
        else:
            run = bench.spawn("untraced", wl.program, wl.report)
            got["timed"].append(run)
            last = run.seconds
            enough = len(got["traced"]) >= 2
        if enough and time.perf_counter() - start + last > seconds:
            break
    if not trace:
        # Closes the bracket around the last timed run.
        got["calibrate"].append(bench.spawn("calibrate", ["perfbench/calibrate.py"]))
    elif wl.threads_check:
        env = dict(bench.env, LATFORGE_THREADS="1")
        got["extra"].append(bench.spawn("threads1", wl.program, wl.report, env=env))
    return got


def provenance(bench: Bench, runs: list[Run]) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "LATFORGE_THREADS": os.environ.get("LATFORGE_THREADS"),
        "loadavg_end": os.getloadavg(),
        "run_order": bench.order,
        "digests": sorted({json.dumps(r.digest, sort_keys=True) for r in runs}),
    }


def evaluate(name: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """Benchmark one workload; print its metrics, problems and provenance."""
    import workloads

    scale = "toy" if toy else "full"
    workdir = WORK / f"{name}-{scale}-s{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    header = {
        "workload": name,
        "scale": scale,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "loadavg_start": os.getloadavg(),
    }
    wl = workloads.prepare(name, seed, workdir, toy)
    bench = Bench(workdir)
    try:
        got = measure(wl, bench, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    runs = got["timed"] + got["traced"] + got["extra"]
    expected = None
    if seed == 0:
        table = json.loads((HERE / "expected_digests.json").read_text(encoding="utf-8"))
        expected = table[scale].get(name)
    failed, problems = judge(wl, runs, bench.reports, expected)
    if any(r.code != 0 for r in got["setup"] + got["calibrate"]):
        problems.append("a set-up probe or calibration exited non-zero")

    print(f"== {name} ({scale}) seed {seed} trace {int(trace)}")
    metrics = {}
    if not trace:
        # Each time is scaled by the mean of the calibrations around it.
        cal = [c.seconds for c in got["calibrate"]]
        speed = [2 * CALIBRATION_REF_S / (a + b) for a, b in zip(cal, cal[1:])]
        samples = {
            "wall_s": [r.seconds * f for r, f in zip(got["timed"], speed)],
            "setup_s": [r.seconds * f for r, f in zip(got["setup"][1:], speed)],
            "peak_rss_mb": [r.rss_mb for r in got["timed"]],
        }
        for n, values in samples.items():
            metrics[n] = {"value": statistics.median(values), "unit": END_TO_END[n]}
            print(
                f"{n:32} {metrics[n]['value']:.6g} {END_TO_END[n]}"
                f"  (median, n={len(values)}; {tail(values)})"
            )
        unscaled = {
            "unscaled wall_s": got["timed"],
            "unscaled setup_s": got["setup"][1:],
            "calibration_s": got["calibrate"],
        }
        for n, of in unscaled.items():
            print(f"{n:32} {statistics.median(r.seconds for r in of):.6g} s  (median)")
    elif all(r.code == 0 for r in got["traced"]):
        layers, found = layer_metrics(wl, got["traced"], got["timed"])
        problems += found
        for n, (unit, _) in PER_LAYER.items():
            metrics[n] = {"value": layers[n], "unit": unit}
            print(f"{n:32} {layers[n]:.6g} {unit}")
    print(f"{'fail_ratio':32} {failed / len(runs):.6g}  ({failed} failed of {len(runs)} runs)")
    for problem in problems:
        print(f"problem: {problem}")
    info = dict(header, **provenance(bench, runs))
    if trace and got["traced"][0].trace:
        info["bindings"] = got["traced"][0].trace["bindings"]
    print(json.dumps({"provenance": info}, sort_keys=True))
    return {
        "correct": not problems and bool(metrics),
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }


def smoke() -> dict:
    """Every workload at toy scale, untraced and traced, with every check,
    plus a check that BENCHMARK.json names the metrics this script prints."""
    import workloads

    results = [
        evaluate(name, 0, 0, trace, toy=True)
        for name in workloads.NAMES
        for trace in (False, True)
    ]
    correct = all(r["correct"] for r in results)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != END_TO_END or layers != {n: u for n, (u, _) in PER_LAYER.items()}:
        print("problem: BENCHMARK.json metrics differ from run.py")
        correct = False
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.NAMES):
        print("problem: BENCHMARK.json workloads differ from workloads.py")
        correct = False
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "latforge" / "cli.py").is_file():
        print(f"no latforge sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import workloads

    if args.smoke:
        result = smoke()
    elif args.workload in workloads.NAMES:
        result = evaluate(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
