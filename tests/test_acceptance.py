"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines of
passing criteria too.  Tolerances are pinned here and nowhere else.
"""

import itertools
import json
import time
from collections import Counter
from fractions import Fraction

from scipy.stats import chisquare

from latforge import (
    FixedRadius,
    HcConfig,
    LdsfConfig,
    LllParams,
    default_four_stage,
    hill_climb,
    hnf,
    improvement_frequency,
    is_lll_reduced,
    knapsack_basis,
    ldsf_run,
    lll_reduce,
    metrics,
    run_pipeline,
    sample_at_radius,
    svp_oracle,
    uniform_basis,
)
from latforge.cli import cli_main
from latforge.latfile import save_lattice
from latforge.parallel import derive_rng
from latforge.serialize import ldsf_trace_dict

from helpers import count_at_radius, moved_points

ALPHAS = [LllParams(Fraction(3, 4)), LllParams("9/10"), LllParams("9999/10000")]
A34 = LllParams(Fraction(3, 4))


def _verdict(num: int, label: str, ok: bool, detail: str, started: float) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {label}: {state} ({detail}; {time.perf_counter() - started:.1f}s)")
    assert ok, f"criterion {num:02d} {label}: {detail}"


def _contract_bases():
    ranks = [5, 6, 7, 8] * 25
    return [uniform_basis(m, -999, 999, seed=i) for i, m in enumerate(ranks)]


def test_criterion_01_lll_contract_suite():
    started = time.perf_counter()
    failures = 0
    for b in _contract_bases():
        h = hnf(b)
        for params in ALPHAS:
            red = lll_reduce(b, params)
            if not is_lll_reduced(red, params) or hnf(red) != h:
                failures += 1
    _verdict(1, "LLL contract suite", failures == 0,
             f"{failures} failures over 100 bases x 3 alphas", started)


def test_criterion_02_idempotence():
    started = time.perf_counter()
    failures = 0
    for b in _contract_bases():
        for params in ALPHAS:
            once = lll_reduce(b, params)
            if lll_reduce(once, params) != once:
                failures += 1
    _verdict(2, "idempotence", failures == 0,
             f"{failures} failures over 100 bases x 3 alphas", started)


def test_criterion_03_quality_vs_oracle():
    started = time.perf_counter()
    failures = 0
    cross_check_failures = 0
    cases = [(4, seed) for seed in range(25)] + [(5, seed) for seed in range(25)]
    for m, seed in cases:
        b = uniform_basis(m, -50, 50, seed=1000 + seed)
        red = lll_reduce(b, A34)
        narrow = svp_oracle(b, 8)
        wide = svp_oracle(b, 12)
        lam_sq = sum(x * x for x in narrow.vector)
        if sum(x * x for x in wide.vector) != lam_sq:
            cross_check_failures += 1
        if red.row_normsq(0) > 2 ** (m - 1) * lam_sq:
            failures += 1
    _verdict(3, "quality vs oracle", failures == 0 and cross_check_failures == 0,
             f"{failures} bound violations, {cross_check_failures} cross-check "
             f"mismatches over 50 bases", started)


def test_criterion_04_sampler_exactness_and_uniformity():
    started = time.perf_counter()
    identity = tuple(range(1, 7))
    spheres = {
        r: [p for p in itertools.permutations(identity)
            if sum(a != b for a, b in zip(p, identity)) == r]
        for r in range(7)
    }
    counts_ok = all(count_at_radius(6, r) == len(spheres[r]) for r in range(7))
    draws = 100_000
    radius_violations = 0
    min_pvalue = 1.0
    for r in (2, 3, 4):
        rng = derive_rng("acceptance-sampler", r)
        observed = Counter()
        for _ in range(draws):
            p = sample_at_radius(6, r, rng)
            if moved_points(p) != r:
                radius_violations += 1
            observed[p.images] += 1
        table = [observed.get(p, 0) for p in spheres[r]]
        min_pvalue = min(min_pvalue, chisquare(table).pvalue)
    ok = counts_ok and radius_violations == 0 and min_pvalue > 0.001
    _verdict(4, "sampler exactness and uniformity", ok,
             f"counts_ok={counts_ok}, {radius_violations} radius violations in "
             f"3x{draws} draws, min chi-square p={min_pvalue:.4f}", started)


def test_criterion_05_hc_dominance_and_monotonicity():
    started = time.perf_counter()
    dominance = monotone = preserved = 0
    for seed in range(10):
        b = uniform_basis(10, -99, 99, seed=2000 + seed)
        cfg = HcConfig(kind=FixedRadius(8), sample_size=10, max_steps=5,
                       alpha=A34, target_bound=0, seed=seed)
        trace = hill_climb(b, cfg)
        plain = metrics(lll_reduce(b, A34)).shortest
        dominance += trace.best_metrics.shortest <= plain
        best_seq = []
        best = trace.initial_metrics.shortest
        for step in trace.steps:
            best = min(best, step.after.shortest)
            best_seq.append(best)
        monotone += all(x >= y for x, y in zip(best_seq, best_seq[1:]))
        h = hnf(b)
        preserved += all(hnf(s.basis) == h for s in trace.steps) and hnf(trace.best_basis) == h
    ok = dominance == 10 and monotone == 10 and preserved == 10
    _verdict(5, "hc dominance and monotonicity", ok,
             f"dominance {dominance}/10, monotone {monotone}/10, "
             f"lattice preserved {preserved}/10", started)


def test_criterion_06_sensitivity_reproduction():
    started = time.perf_counter()
    b = knapsack_basis(40, bits=60, seed=2026)
    reduced = lll_reduce(b, A34)
    freq = improvement_frequency(reduced, [35], 100, A34, seed=17)[35]
    _verdict(6, "sensitivity reproduction (scaled)", freq >= 0.25,
             f"improvement frequency {freq:.2f} at radius 35 (threshold 0.25)",
             started)


def test_criterion_07_ldsf_preservation_and_shrinkage():
    started = time.perf_counter()
    preserved_runs = 0
    shrunk_runs = 0
    for seed in range(5):
        b = knapsack_basis(30, bits=133, seed=3000 + seed)  # 40-digit column
        cfg = LdsfConfig(servers=3, inner_iters=2, outer_iters=2, alpha=A34,
                         seed=seed)
        trace = ldsf_run(b, cfg)
        h = hnf(b)
        preserved_runs += all(hnf(r.fused_basis) == h for r in trace.rounds)
        shrunk_runs += trace.final_basis.max_abs_entry() < b.max_abs_entry()
    ok = preserved_runs == 5 and shrunk_runs >= 4
    _verdict(7, "ldsf preservation and entry shrinkage", ok,
             f"hnf-equal {preserved_runs}/5 runs, shrinkage {shrunk_runs}/5 "
             f"(need >= 4)", started)


def test_criterion_08_parallel_determinism():
    started = time.perf_counter()
    identical = 0
    for seed in range(3):
        b = uniform_basis(20, -999, 999, seed=4000 + seed)
        cfg = LdsfConfig(servers=4, inner_iters=2, outer_iters=2, alpha=A34,
                         seed=seed)
        first = json.dumps(ldsf_trace_dict(ldsf_run(b, cfg)), sort_keys=True).encode()
        second = json.dumps(ldsf_trace_dict(ldsf_run(b, cfg)), sort_keys=True).encode()
        identical += first == second
    _verdict(8, "determinism across runs", identical == 3,
             f"byte-identical traces in {identical}/3 bases", started)


def test_criterion_09_pipeline_end_state():
    started = time.perf_counter()
    b = uniform_basis(20, -999, 999, seed=5000)
    report = run_pipeline(b, default_four_stage(4, 3, 2, A34), seed=41)
    reduced_ok = is_lll_reduced(report.final_basis, A34)
    preserved_ok = hnf(report.final_basis) == hnf(b)
    llbs = [s.llb for s in report.stage_reports[1:]]  # from stage 2 onward
    inversions = sum(1 for x, y in zip(llbs, llbs[1:]) if y > x)
    if inversions == 1:
        print("[criterion 09] note: single llb inversion flagged, not failed")
    ok = reduced_ok and preserved_ok and inversions <= 1
    _verdict(9, "pipeline end state", ok,
             f"final reduced={reduced_ok}, lattice preserved={preserved_ok}, "
             f"llb inversions from stage 2 = {inversions}", started)


def test_criterion_10_cli_reproducibility(tmp_path, capsys):
    started = time.perf_counter()
    lat = tmp_path / "b.lat"
    save_lattice(uniform_basis(10, -99, 99, seed=6000), str(lat))
    csvs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = cli_main(["sweep", "--radii", "5,10", "--samples", "3",
                         "--seed", "7", "--in", str(lat), "--out-csv", str(out)])
        assert code == 0
        csvs.append(out.read_bytes())
    identical = csvs[0] == csvs[1]

    bad = tmp_path / "bad.lat"
    bad.write_text("[[1 0]\n[0 nope]]")
    bad_code = cli_main(["lll", "--in", str(bad)])
    err = capsys.readouterr().err
    diagnostic_ok = bad_code == 1 and "line 2, column 4" in err
    _verdict(10, "cli reproducibility", identical and diagnostic_ok,
             f"identical CSV={identical}, malformed exit/diagnostic ok={diagnostic_ok}",
             started)
