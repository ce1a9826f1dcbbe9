import argparse
import ast
import contextlib
import inspect
import io
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latforge
from latforge import (
    Basis, bench, cli, core, hillclimb, ldsf, lll_reduce, serialize, uniform_basis
)
from latforge.cli import cli_main
from latforge.latfile import load_lattice, save_lattice
from latforge.lll import LllParams
from latforge.pipeline import load_stages, run_pipeline

from helpers import counting


@pytest.fixture
def id4(tmp_path):
    path = tmp_path / "id4.lat"
    save_lattice(Basis.identity(4), str(path))
    return str(path)


@pytest.fixture
def rank8(tmp_path):
    path = tmp_path / "u8.lat"
    save_lattice(uniform_basis(8, -99, 99, seed=1), str(path))
    return str(path)


class TestLll:
    def test_identity(self, id4, tmp_path, capsys):
        report = tmp_path / "r.json"
        assert cli_main(["lll", "--in", id4, "--report", str(report)]) == 0
        assert "shortest=1" in capsys.readouterr().out
        payload = json.loads(report.read_text())
        assert payload["after"]["shortest"] == "1"
        assert payload["basis"] == [["1" if i == j else "0" for j in range(4)] for i in range(4)]

    def test_report_byte_identical(self, rank8, tmp_path):
        r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
        for path in (r1, r2):
            assert cli_main(["lll", "--in", rank8, "--seed", "5", "--report", str(path)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_entry_of_5000_digits(self, tmp_path):
        big = "1" * 5000  # over Python's 4,300-digit int <-> str limit
        lat, report = tmp_path / "big.lat", tmp_path / "r.json"
        lat.write_text(f"[[{big} 0][0 1]]")
        assert cli_main(["lll", "--in", str(lat), "--report", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert big in [x for row in payload["basis"] for x in row]


class TestHc:
    def test_infeasible_radius_is_usage_error(self, rank8, capsys):
        code = cli_main(["hc", "--radius", "1", "--in", rank8])
        assert code == 1
        assert "moves exactly 1" in capsys.readouterr().err

    def test_fixed_radius_runs(self, rank8, tmp_path):
        report = tmp_path / "hc.json"
        code = cli_main(
            ["hc", "--radius", "6", "--k", "3", "--p", "2", "--in", rank8,
             "--report", str(report), "--seed", "3"]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["command"] == "hc"
        assert payload["seed"] == 3

    def test_exactly_one_mode_required(self, rank8, capsys):
        assert cli_main(["hc", "--in", rank8]) == 1
        assert cli_main(["hc", "--radius", "4", "--r0", "5", "--in", rank8]) == 1
        assert "exactly one" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode", [["--radius", "4"], ["--psl2", "7"]], ids=["radius", "psl2"]
    )
    @pytest.mark.parametrize("rstep", ["0", "-3", "2"])
    def test_rstep_without_r0_is_usage_error(self, rank8, capsys, mode, rstep):
        assert cli_main(["hc", *mode, "--rstep", rstep, "--k", "2", "--in", rank8]) == 1
        assert "--rstep applies only to an --r0 walk" in capsys.readouterr().err

    @pytest.mark.parametrize("rstep,radii", [([], [4, 5, 6]), (["--rstep", "3"], [4, 7, 8])])
    def test_rstep_schedule(self, rank8, tmp_path, rstep, radii):
        report = tmp_path / "hc.json"
        argv = ["hc", "--r0", "4", *rstep, "--k", "2", "--p", "3", "--target", "0"]
        assert cli_main([*argv, "--in", rank8, "--report", str(report)]) == 0
        steps = json.loads(report.read_text())["steps"]
        moved = [sum(img != i for i, img in enumerate(s["permutation"], 1)) for s in steps]
        assert moved == radii

    def test_r0_zero_schedule_checked_up_front(self, rank8, tmp_path, capsys, monkeypatch):
        reductions = []
        monkeypatch.setattr(hillclimb, "lll_reduce", lambda *a: reductions.append(a))
        argv = ["hc", "--r0", "0", "--k", "2", "--p", "3", "--target", "0", "--in", rank8]
        assert cli_main(argv) == 1
        assert "step 2" in capsys.readouterr().err
        assert reductions == []
        monkeypatch.undo()
        report = tmp_path / "hc.json"
        assert cli_main([*argv, "--rstep", "2", "--report", str(report)]) == 0
        steps = json.loads(report.read_text())["steps"]
        moved = [sum(img != i for i, img in enumerate(s["permutation"], 1)) for s in steps]
        assert moved == [0, 2, 4]

    def test_psl2_prime_checked_up_front(self, tmp_path, capsys, monkeypatch):
        # uniform(5) already meets the default target after its first
        # reduction, so a walk that checks the prime only when it samples
        # takes no step and exits 0.
        lat = tmp_path / "u5.lat"
        save_lattice(uniform_basis(5, -99, 99, seed=1), str(lat))
        calls = Counter()
        monkeypatch.setattr(hillclimb, "lll_reduce", counting(calls, "lll", lll_reduce))
        assert cli_main(["hc", "--psl2", "4", "--in", str(lat)]) == 1
        assert "4 is not prime" in capsys.readouterr().err
        assert calls["lll"] == 0

    def test_report_byte_identical(self, rank8, tmp_path):
        r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
        for path in (r1, r2):
            code = cli_main(
                ["hc", "--radius", "6", "--k", "3", "--p", "2", "--seed", "9",
                 "--in", rank8, "--report", str(path)]
            )
            assert code == 0
        assert r1.read_bytes() == r2.read_bytes()

    @pytest.mark.parametrize(
        "option, message",
        [("--k", "sample_size must be >= 1"), ("--p", "max_steps must be >= 1")],
    )
    def test_zero_sample_or_steps_is_usage_error(self, rank8, capsys, option, message):
        assert cli_main(["hc", "--radius", "4", option, "0", "--in", rank8]) == 1
        assert f"latforge hc: error: {message}" in capsys.readouterr().err


class TestTarget:
    def test_bad_decimal_is_usage_error(self, rank8, capsys):
        assert cli_main(["hc", "--radius", "4", "--target", "x", "--in", rank8]) == 1
        assert "argument --target: bad decimal 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["hc", "--radius", "4", "--k", "2"], ["ldsf", "--blocks", "2"]]
    )
    @pytest.mark.parametrize("target", ["nan", "-NaN", "snan", "inf", "-Infinity"])
    def test_non_finite_target_is_usage_error(self, rank8, capsys, command, target):
        assert cli_main([*command, f"--target={target}", "--in", rank8]) == 1
        err = capsys.readouterr().err
        assert "decimal must be finite" in err
        assert "internal error" not in err


class TestLdsf:
    def test_runs_and_reports(self, rank8, tmp_path):
        report = tmp_path / "ldsf.json"
        code = cli_main(
            ["ldsf", "--blocks", "2", "--inner", "2", "--in", rank8,
             "--report", str(report)]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert len(payload["rounds"]) == 2

    def test_rank_checked_before_any_reduction(self, tmp_path, capsys, monkeypatch):
        lat = tmp_path / "u2.lat"
        save_lattice(uniform_basis(2, -99, 99, seed=1), str(lat))
        calls = Counter()
        monkeypatch.setattr(ldsf, "lll_reduce", counting(calls, "lll", lll_reduce))
        assert cli_main(["ldsf", "--blocks", "1", "--in", str(lat)]) == 1
        assert "right sampling needs degree >= 3, got 2" in capsys.readouterr().err
        assert calls["lll"] == 0


class TestHybrid:
    def test_stage_file(self, rank8, tmp_path):
        stages = tmp_path / "stages.json"
        stages.write_text(json.dumps([
            {"kind": "ldsf", "blocks": 2},
            {"kind": "sigma", "blocks": 2, "sample": 2},
            {"kind": "lll"},
        ]))
        report = tmp_path / "hy.json"
        code = cli_main(
            ["hybrid", "--stages", str(stages), "--in", rank8, "--report", str(report)]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert [s["kind"] for s in payload["stages"]] == ["ldsf", "sigma", "lll"]

    def test_bad_stage_file(self, rank8, tmp_path, capsys):
        stages = tmp_path / "bad.json"
        stages.write_text(json.dumps({"kind": "lll"}))
        assert cli_main(["hybrid", "--stages", str(stages), "--in", rank8]) == 1

    @pytest.mark.parametrize(
        "entry, message",
        [
            (3, "stage 2: entry must be a JSON object"),
            ({"kind": "lll", "alpha": 0.75}, "stage 2: 'alpha': pass alpha as a Fraction, string"),
            ({"kind": "lll", "alpha": "1/0"}, "stage 2: 'alpha': alpha is not an exact rational"),
            ({"kind": "ldsf", "blocks": 2.5}, "stage 2: 'blocks' must be an integer"),
            ({"kind": "sigma", "sample": "3"}, "stage 2: 'sample' must be an integer"),
            ({"kind": "ldsf", "inner": 1.0}, "stage 2: 'inner' must be an integer"),
            ({"kind": "ldsf", "outer": True}, "stage 2: 'outer' must be an integer"),
            ({"kind": "ldsf", "outer": 0}, "stage 2: inner and outer must be >= 1"),
            ({"kind": "ldsf", "target": "x"}, "stage 2: 'target' is not a decimal"),
            ({"kind": "ldsf", "target": "NaN"}, "stage 2: target must be finite"),
            ({"kind": "ldsf", "blocks": 5}, "stage 2: ldsf with 5 blocks needs rank >= 10, got 8"),
            ({"kind": "ldsf", "blcoks": 3}, "stage 2: ldsf stage does not use 'blcoks'"),
            ({"kind": "ldsf", "sample": 2}, "stage 2: ldsf stage does not use 'sample'"),
            ({"kind": "sigma", "samples": 2}, "stage 2: sigma stage does not use 'samples'"),
            (
                {"kind": "lll", "blocks": 9, "sample": 0, "target": "0.5"},
                "stage 2: lll stage does not use 'blocks', 'sample', 'target'",
            ),
            ({"kind": "lll", "inner": 2}, "stage 2: lll stage does not use 'inner'"),
            ({"kind": "ldsf", "blocks": 0}, "stage 2: blocks must be >= 1"),
            ({"kind": "bogus"}, "stage 2: unknown stage kind 'bogus'"),
            ({"kind": "ldsf", "blocks": [1]}, "stage 2: 'blocks' must be an integer, got [1]"),
            (
                {"kind": "ldsf", "blocks": {"a": 1}},
                "stage 2: 'blocks' must be an integer, got {'a': 1}",
            ),
        ],
        ids=[
            "not-object", "float-alpha", "alpha-1/0", "float-blocks", "string-sample",
            "float-inner", "bool-outer", "zero-outer", "bad-target", "nan-target",
            "blocks-over-rank", "ldsf-typo-key", "ldsf-sample", "sigma-typo-key",
            "lll-ldsf-keys", "lll-inner", "zero-blocks", "unknown-kind", "list-blocks",
            "object-blocks",
        ],
    )
    def test_bad_stage_entry_is_usage_error(self, rank8, tmp_path, capsys, entry, message):
        stages = tmp_path / "bad.json"
        stages.write_text(json.dumps([{"kind": "lll"}, entry]))
        assert cli_main(["hybrid", "--stages", str(stages), "--in", rank8]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "internal error" not in err

    def test_integer_past_4300_digits_in_blocks(self, rank8, tmp_path, capsys):
        big = "1" * 5000  # over Python's 4,300-digit int <-> str limit
        stages = tmp_path / "big.json"
        stages.write_text(f'[{{"kind": "ldsf", "blocks": {big}}}]')
        assert cli_main(["hybrid", "--stages", str(stages), "--in", rank8]) == 1
        err = capsys.readouterr().err
        assert f"error: stage 1: ldsf with {big[:37]}... blocks needs rank >= 2222" in err
        assert "Exceeds the limit" not in err

    def test_integer_past_4300_digits_in_target(self, rank8, tmp_path):
        big = "1" * 5000
        reports = []
        for name, target in (("int", big), ("text", f'"{big}"')):
            stages, report = tmp_path / f"{name}.json", tmp_path / f"{name}-report.json"
            stages.write_text(f'[{{"kind": "ldsf", "blocks": 2, "target": {target}}}]')
            argv = ["hybrid", "--stages", str(stages), "--in", rank8, "--report", str(report)]
            assert cli_main(argv) == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "content,message",
        [
            (b"[" * 100_000 + b"]" * 100_000, "stage file: maximum recursion depth exceeded"),
            (b"\xff\xfe", "stage file: 'utf-8' codec can't decode byte 0xff in position 0"),
            (b'[{"kind": "lll"},\n ]', "stage file: Expecting value: line 2 column 2"),
        ],
        ids=["deep-nesting", "not-utf8", "bad-json"],
    )
    def test_undecodable_stage_file(self, rank8, tmp_path, capsys, content, message):
        stages = tmp_path / "bad.json"
        stages.write_bytes(content)
        assert cli_main(["hybrid", "--stages", str(stages), "--in", rank8]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "internal error" not in err

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("blocks", "[{big}]", "'blocks' must be an integer, got [{cut}..."),
            ("blocks", '{{"a": {big}}}', "'blocks' must be an integer, got {{'a': {cut5}..."),
            ("target", "[{big}]", "'target' is not a decimal: [{cut}..."),
            ("alpha", "[{big}]", "'alpha': argument should be a string or a Rational"),
        ],
        ids=["blocks-list", "blocks-object", "target-list", "alpha-list"],
    )
    def test_long_integer_inside_a_rejected_value(
        self, rank8, tmp_path, capsys, key, value, message
    ):
        big = "1" * 5000
        fill = {"big": big, "cut": big[:36], "cut5": big[:31]}
        stages = tmp_path / "big.json"
        stages.write_text(f'[{{"kind": "ldsf", "{key}": {value.format(**fill)}}}]')
        assert cli_main(["hybrid", "--stages", str(stages), "--in", rank8]) == 1
        err = capsys.readouterr().err
        assert f"error: stage 1: {message.format(**fill)}" in err
        assert "Exceeds the limit" not in err


class TestReportMetrics:
    """Each reported basis gets one ``BasisMetrics``: rendering a report
    takes the m row-norm logarithms of each distinct basis once."""

    def test_hybrid_stage_before_is_previous_after(self, rank8, tmp_path, monkeypatch):
        stages = tmp_path / "stages.json"
        stages.write_text(json.dumps([
            {"kind": "ldsf", "blocks": 2},
            {"kind": "sigma", "blocks": 2, "sample": 2},
            {"kind": "lll"},
        ]))
        calls = Counter()
        monkeypatch.setattr(core, "_log10", counting(calls, "_log10", core._log10))
        argv = ["hybrid", "--stages", str(stages), "--in", rank8, "--report", str(tmp_path / "r")]
        assert cli_main(argv) == 0
        assert calls == {"_log10": (3 + 1) * 8}

    def test_each_distinct_row_norm_logarithm_is_computed_once(self, rank8, tmp_path):
        stages = tmp_path / "stages.json"
        stages.write_text(json.dumps([
            {"kind": "ldsf", "blocks": 2},
            {"kind": "sigma", "blocks": 2, "sample": 2},
            {"kind": "lll"},
        ]))
        # The reported bases are the input and each stage's output; a prefix
        # of the stage list replays the same stages.
        b0 = load_lattice(rank8).basis
        specs = load_stages(str(stages), LllParams("3/4"))
        bases = [b0] + [run_pipeline(b0, specs[:i]).final_basis for i in range(1, 4)]
        distinct = {b.row_normsq(i) for b in bases for i in range(b.m)}
        core._log10.cache_clear()
        argv = ["hybrid", "--stages", str(stages), "--in", rank8, "--report", str(tmp_path / "r")]
        assert cli_main(argv) == 0
        info = core._log10.cache_info()
        assert info.maxsize is not None
        assert info.misses == len(distinct) < info.hits + info.misses == 4 * 8

    def test_hc_best_is_a_reported_step(self, rank8, tmp_path, monkeypatch):
        calls = Counter()
        monkeypatch.setattr(core, "_log10", counting(calls, "_log10", core._log10))
        argv = ["hc", "--radius", "6", "--k", "3", "--p", "3", "--target", "0"]
        assert cli_main([*argv, "--in", rank8, "--report", str(tmp_path / "r")]) == 0
        assert calls == {"_log10": (1 + 3) * 8}


class TestOneDeterminantPerRun:
    """hc, ldsf and hybrid take det(B.B^T) from the load check, so a run
    calls ``gram_det`` once on its lattice, and ``lll`` eliminates each
    basis once.  Calls are counted through every binding of the function in
    every latforge module, as perfbench's tracer rebinds them."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["hc", "--radius", "6", "--k", "3", "--p", "2", "--target", "0"],
            ["ldsf", "--blocks", "3", "--inner", "2", "--outer", "2"],
            ["hybrid", "--stages", "STAGES"],
        ],
        ids=["hc", "ldsf", "hybrid"],
    )
    def test_one_gram_det_per_run(self, rank8, tmp_path, monkeypatch, argv):
        stages = tmp_path / "stages.json"
        stages.write_text(json.dumps([
            {"kind": "ldsf", "blocks": 2},
            {"kind": "sigma", "blocks": 3, "sample": 2},
            {"kind": "lll"},
        ]))
        ranks = self.count_gram_det(monkeypatch)
        argv = [str(stages) if a == "STAGES" else a for a in argv]
        assert cli_main([*argv, "--in", rank8, "--report", str(tmp_path / "r")]) == 0
        # The ldsf report also gives each reduced block its own determinant.
        assert ranks.count(8) == 1
        assert len(ranks) == 1 or argv[0] == "ldsf"

    def test_lll_report_eliminates_each_basis_once(self, rank8, tmp_path, monkeypatch):
        # The load check and the report's "before" both take det(B.B^T) of
        # the input (perfbench's lll pin counts 3 calls), but a basis object
        # keeps its echelon, so the input is eliminated once.
        ranks = self.count_gram_det(monkeypatch)
        echelon, eliminated = core._reduced_echelon, Counter()

        def counted(b):
            eliminated[b.rows] += 1
            return echelon(b)

        monkeypatch.setattr(core, "_reduced_echelon", counted)
        assert cli_main(["lll", "--in", rank8, "--report", str(tmp_path / "r")]) == 0
        assert len(ranks) == 3
        assert sorted(eliminated.values()) == [1, 1]
        assert load_lattice(rank8).basis.rows in eliminated

    @staticmethod
    def count_gram_det(monkeypatch) -> list[int]:
        """The rank of each basis ``gram_det`` is called on, counted through
        every binding of the function in every latforge module."""
        gram_det, ranks = core.gram_det, []

        def counted(b):
            ranks.append(b.m)
            return gram_det(b)

        bound = set()
        for name, module in list(sys.modules.items()):
            if name == "latforge" or name.startswith("latforge."):
                for attr, value in list(vars(module).items()):
                    if value is gram_det:
                        monkeypatch.setattr(module, attr, counted)
                        bound.add(name)
        assert {f"latforge.{m}" for m in ("core", "hillclimb", "ldsf", "pipeline")} <= bound
        return ranks


class TestAlphaText:
    @pytest.mark.parametrize(
        "alpha, message",
        [
            ("1e999999999", "alpha must lie in (1/4, 1), got '1e999999999'"),
            ("-1e999999999", "alpha must lie in (1/4, 1), got '-1e999999999'"),
            ("1e-1000000", "alpha must lie in (1/4, 1), got '1e-1000000'"),
            ("0." + "9" * 5000, "alpha text is too long (over 4300 digits): '0.9999"),
        ],
        ids=["huge", "huge-negative", "tiny", "5000-digits"],
    )
    def test_extreme_decimal_exits_1_quickly(self, id4, alpha, message):
        # A Fraction of 1e999999999 never finishes building, so the CLI runs
        # in its own process under a timeout.
        env = {**os.environ, "PYTHONPATH": str(Path(latforge.__file__).parents[1])}
        argv = ["lll", "--in", id4, f"--alpha={alpha}"]
        done = subprocess.run(
            [sys.executable, "-m", "latforge.cli", *argv],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert done.returncode == 1
        assert message in done.stderr
        assert len(done.stderr) < 200  # the input text is quoted truncated


class TestOptionTextIsQuotedShort:
    NINES = "9" * 5000  # past int()'s 4,300-digit cap
    CUT = "9" * 36 + "..."

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["lll", "--seed", NINES], f"--seed: invalid int value: '{CUT}"),
            (["hc", "--radius", NINES], f"--radius: invalid int value: '{CUT}"),
            (["sweep", "--radii", "1," + NINES], f"--radii: bad radius list '1,{CUT[2:]}"),
            (["hc", "--radius", "4", "--target", "x" * 5000],
             f"--target: bad decimal '{'x' * 36}..."),
            # argparse's own text, quoted in full, up to 40 characters
            (["lll", "--seed", "9" * 39 + "x"], f"--seed: invalid int value: '{'9' * 39}x'"),
            (["oracle", "--bound", "two"], "--bound: invalid int value: 'two'"),
        ],
        ids=["seed", "radius", "radii", "target", "seed-40-chars", "bound"],
    )
    def test_exits_1_with_the_value_cut_to_40_characters(self, rank8, capsys, argv, message):
        assert cli_main([*argv, "--in", rank8]) == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == f"latforge {argv[0]}: error: argument {message}"


class TestSweepAndFreq:
    def test_sweep_csv_deterministic(self, rank8, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            code = cli_main(
                ["sweep", "--radii", "5,8", "--samples", "3", "--seed", "7",
                 "--in", rank8, "--out-csv", str(target)]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0] == "radius,min,max,mean,std,range"

    def test_freq_csv(self, rank8, tmp_path):
        out = tmp_path / "f.csv"
        code = cli_main(
            ["freq", "--radii", "6", "--samples", "4", "--in", rank8,
             "--out-csv", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "radius,frequency"
        assert lines[1].startswith("6,")

    @pytest.mark.parametrize("command", ["sweep", "freq"])
    def test_radii_checked_before_any_reduction(self, rank8, capsys, monkeypatch, command):
        reductions = []
        monkeypatch.setattr(
            bench, "lll_reduce", lambda *a: reductions.append(a) or lll_reduce(*a)
        )
        argv = [command, "--radii", "8,8,8,1", "--samples", "300", "--in", rank8]
        assert cli_main(argv) == 1
        assert "moves exactly 1 points" in capsys.readouterr().err
        assert reductions == []

    @pytest.mark.parametrize("command", ["sweep", "freq"])
    def test_zero_samples_is_usage_error(self, rank8, capsys, command):
        assert cli_main([command, "--radii", "4", "--samples", "0", "--in", rank8]) == 1
        assert f"latforge {command}: error: n_samples must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "freq"])
    def test_table_goes_to_stdout_without_out_csv(self, rank8, tmp_path, capsys, command):
        argv = [command, "--radii", "4,6", "--samples", "3", "--seed", "2", "--in", rank8]
        out = tmp_path / "t.csv"
        assert cli_main([*argv, "--out-csv", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert cli_main(argv) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()

    def test_bad_radius_list(self, rank8):
        assert cli_main(["sweep", "--radii", "5,x", "--in", rank8]) == 1

    @pytest.mark.parametrize("command", ["sweep", "freq"])
    @pytest.mark.parametrize("radii", [",", " , ,", ""])
    def test_empty_radius_list_is_usage_error(self, rank8, capsys, command, radii):
        assert cli_main([command, "--radii", radii, "--in", rank8]) == 1
        captured = capsys.readouterr()
        assert "names no radius" in captured.err
        assert captured.out == ""


class TestInternalError:
    def test_unexpected_exception_exits_2(self, id4, capsys, monkeypatch):
        def fail(args, lattice):
            raise RuntimeError("handler failed")

        monkeypatch.setitem(cli._COMMANDS, "lll", fail)
        assert cli_main(["lll", "--in", id4]) == 2
        assert capsys.readouterr().err == "latforge lll: internal error: handler failed\n"


class TestOracle:
    def test_identity(self, id4, capsys):
        assert cli_main(["oracle", "--bound", "2", "--in", id4]) == 0
        assert "lambda1=1" in capsys.readouterr().out

    @pytest.mark.parametrize("budget", ["-1", "0"])
    def test_bad_budget_is_usage_error(self, rank8, capsys, budget):
        assert cli_main(["oracle", "--budget", budget, "--in", rank8]) == 1
        err = capsys.readouterr().err
        assert "coeff_bound and budget must be >= 1" in err
        assert "computation failed" not in err

    def test_budget_exceeded_is_computation_error(self, rank8, capsys):
        code = cli_main(["oracle", "--bound", "9", "--budget", "100", "--in", rank8])
        assert code == 2
        assert "computation failed" in capsys.readouterr().err

    def test_box_of_more_than_4300_digits_is_computation_error(self, rank8, capsys):
        # (2 * (10**600 - 1) + 1)**8 = 255999...9 has 4,803 digits: past str()'s cap.
        assert cli_main(["oracle", "--bound", "9" * 600, "--in", rank8]) == 2
        err = capsys.readouterr().err
        assert "computation failed: box of 255999" in err
        assert "coefficient vectors exceeds budget 10000000" in err

    def test_vector_past_4300_digits(self, tmp_path, capsys):
        # The shortest vector of diag(10**5000, 10**5000 + 1) is printed and
        # reported in full: str() of an int stops at 4,300 digits.
        path, report = tmp_path / "big.lat", tmp_path / "r.json"
        save_lattice(Basis(((10**5000, 0), (0, 10**5000 + 1))), str(path))
        assert cli_main(["oracle", "--bound", "1", "--in", str(path), "--report", str(report)]) == 0
        out = capsys.readouterr().out
        shown = out.partition("vector=")[2].strip()
        assert shown == "[-1" + "0" * 5000 + ", 0]"
        assert shown == "[" + ", ".join(json.loads(report.read_text())["vector"]) + "]"

    def test_box_size_is_quoted_in_40_characters(self, rank8, capsys):
        # The box (2 * (10**4000 - 1) + 1)**8 has 32,003 digits; the message
        # quotes it cut to 40 characters, as every other quoted number.
        assert cli_main(["oracle", "--bound", "9" * 4000, "--in", rank8]) == 2
        err = capsys.readouterr().err
        assert "computation failed: box of 255999" in err
        assert "... coefficient vectors exceeds budget 10000000" in err
        assert len(err) < 200, len(err)


class TestOptions:
    @pytest.mark.parametrize(
        "command",
        [["lll"], ["hc", "--radius", "4"], ["ldsf", "--blocks", "2"],
         ["hybrid", "--stages", "stages.json"], ["oracle"]],
        ids=lambda c: c[0],
    )
    def test_out_csv_only_on_table_commands(self, rank8, tmp_path, capsys, command):
        out = tmp_path / "x.csv"
        assert cli_main([*command, "--in", rank8, "--out-csv", str(out)]) == 1
        assert "unrecognized arguments: --out-csv" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def functions() -> dict[str, ast.FunctionDef]:
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        return {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}

    def test_every_option_is_read(self):
        # Each option of a command is read as args.<dest> by its handler or
        # by cli_main: none is accepted and ignored.
        functions = self.functions()

        def args_read(name: str) -> set[str]:
            return {
                n.attr for n in ast.walk(functions[name])
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                and isinstance(n.value, ast.Name) and n.value.id == "args"
            }

        shared = args_read("cli_main")
        (commands,) = [
            a.choices for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        assert set(commands) == set(cli._COMMANDS)
        unread = [
            f"{name} --{action.dest}"
            for name, handler in cli._COMMANDS.items()
            for action in commands[name]._actions
            if not isinstance(action, argparse._HelpAction)
            and action.dest not in shared | args_read(handler.__name__)
        ]
        assert unread == []

    def test_only_cli_main_writes_a_report(self):
        writers = [
            name for name, fn in self.functions().items()
            for n in ast.walk(fn)
            if isinstance(n, ast.Call) and ast.unparse(n.func) == "serialize.to_json"
        ]
        assert writers == ["cli_main"]


class TestNoReportNoRendering:
    """Without --report no command renders a report: no public function of
    ``latforge.serialize`` is called."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["lll"],
            ["hc", "--radius", "4", "--k", "2", "--p", "2"],
            ["ldsf", "--blocks", "2"],
            ["hybrid", "--stages", "STAGES"],
            ["sweep", "--radii", "4", "--samples", "2", "--out-csv", "CSV"],
            ["freq", "--radii", "4", "--samples", "2", "--out-csv", "CSV"],
            ["oracle", "--bound", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_no_serialize_call(self, tmp_path, monkeypatch, capsys, argv):
        lat, stages = tmp_path / "u5.lat", tmp_path / "stages.json"
        save_lattice(uniform_basis(5, -99, 99, seed=1), str(lat))
        stages.write_text(json.dumps([{"kind": "ldsf", "blocks": 2}, {"kind": "lll"}]))
        files = {"STAGES": str(stages), "CSV": str(tmp_path / "t.csv")}
        calls, public = Counter(), [
            (name, fn) for name, fn in vars(serialize).items()
            if inspect.isfunction(fn) and fn.__module__ == serialize.__name__
            and not name.startswith("_")
        ]
        assert {"to_json", "metrics_dict", "hc_trace_dict"} <= dict(public).keys()
        for name, fn in public:
            monkeypatch.setattr(serialize, name, counting(calls, name, fn))
        assert cli_main([*(files.get(a, a) for a in argv), "--in", str(lat)]) == 0
        assert calls == Counter()


class TestErrors:
    def test_malformed_input_names_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.lat"
        bad.write_text("[[1 0]\n[0 oops]]")
        assert cli_main(["lll", "--in", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "line 2, column 4" in err

    def test_missing_file(self, capsys):
        assert cli_main(["lll", "--in", "/nonexistent/x.lat"]) == 1

    def test_unknown_command_usage(self, capsys):
        assert cli_main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0


# Inputs for the boundary fuzz: small enough that every command finishes in
# milliseconds, varied enough to reach every parser and option check.
_OPTION_TEXT = st.one_of(
    st.sampled_from(
        ["nan", "-inf", "snan", "1e999999", "0", "-3", "2", "3/4", "0.99", "1/0",
         "", ",", "5,x", "2,3", "abc", "1.5", "99/100", "1/4"]
    ),
    st.text(alphabet="0123456789.,-+/eEnaifs x", max_size=8),
)
# --alpha texts that are long, or whose value is huge or tiny: every check
# must cost what the length of the text costs, not what its value does.
_SIGN = st.sampled_from(["", "-", "+"])
_ALPHA_TEXT = st.one_of(
    st.just("3/4"),
    _OPTION_TEXT,
    st.builds("{}1e{}{}".format, _SIGN, _SIGN, st.integers(0, 10**9 - 1)),
    st.builds(
        lambda prefix, head, digit, n: prefix + head + digit * n,
        st.sampled_from(["", "0.", "-0.", "1/", "0.7", "3/4"]),
        st.text(alphabet="0123456789", min_size=1, max_size=8),
        st.sampled_from("0123456789"),
        st.one_of(st.integers(0, 4990), st.integers(4280, 4990)),
    ),
)
_ROWS = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=1, max_size=n
    )
)


def _upper_triangular(rows: list[list[int]]) -> list[list[int]]:
    """Zeros left of a nonzero diagonal: the rows are independent, so most
    generated files get past the loader."""
    return [[0] * i + [r[i] or 1] + r[i + 1 :] for i, r in enumerate(rows)]


def _lat(rows: list[list[int]]) -> str:
    return "[" + "".join(f"[{' '.join(map(str, r))}]" for r in rows) + "]"


_LAT_TEXT = st.one_of(
    _ROWS.map(_upper_triangular).map(_lat),
    _ROWS.map(_lat),
    st.text(alphabet="[]0123456789+- \n\tx", max_size=30),
)
# Stage files for the fuzz, as bytes.  The JSON is built as text, not by
# json.dumps, so that integers past Python's 4,300-digit str limit can sit
# inside lists and objects.  Count fields ("blocks", "sample", "inner",
# "outer") hold small integers or non-integers: a count asks for that much
# work, so a large one makes a slow input, not a bug.
_RECURSION_LIMIT = sys.getrecursionlimit()
_LONG_INT = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", "-"]),
    st.sampled_from("123456789"),
    st.integers(4290, 5000).map("0".__mul__),
)
_JSON_SCALAR = st.one_of(
    st.sampled_from(["null", "true", "false", "1e400", "-1e400", "NaN", "Infinity", "2.0"]),
    st.integers(-1, 3).map(str),
    st.one_of(_OPTION_TEXT, st.sampled_from(["ldsf", "sigma", "lll"])).map(json.dumps),
)
_STAGE_KEYS = ("kind", "blocks", "sample", "inner", "outer", "alpha", "target")


def _json_list(items: list[str]) -> str:
    return "[" + ", ".join(items) + "]"


def _json_object(pairs: dict[str, str]) -> str:
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in pairs.items()) + "}"


def _json_containers(inner):
    return st.one_of(
        st.lists(inner, max_size=3).map(_json_list),
        st.dictionaries(st.sampled_from([*_STAGE_KEYS, "a"]), inner, max_size=3).map(
            _json_object
        ),
    )


_JSON_TREE = st.recursive(st.one_of(_JSON_SCALAR, _LONG_INT), _json_containers, max_leaves=6)
# Nesting from half to twice the recursion limit: the shallower ones decode
# and reach the stage checks, the deeper ones stop the decoder.
_JSON_DEEP = st.builds(
    lambda pair, depth, inner: pair[0] * depth + inner + pair[1] * depth,
    st.sampled_from([("[", "]"), ('{"a": ', "}"), ('[{"kind": "ldsf", "target": ', "}]")]),
    st.integers(_RECURSION_LIMIT // 2, 2 * _RECURSION_LIMIT),
    _JSON_SCALAR,
)
_JSON_VALUE = st.one_of(_JSON_TREE, _JSON_DEEP)


def _mostly(good, bad):
    """``good`` about three times in four, else ``bad``: many files then
    reach the later checks and the pipeline itself."""
    return st.integers(0, 3).flatmap(lambda pick: good if pick else bad)


_STAGE_FIELD = {
    "kind": _mostly(st.sampled_from(['"ldsf"', '"sigma"', '"lll"']), _JSON_VALUE),
    "alpha": _mostly(st.sampled_from(['"3/4"', '"0.99"', '"1/2"']), _JSON_VALUE),
    "target": _mostly(st.sampled_from(["null", "0", "1e3", '"2.5"']), _JSON_VALUE),
    **{
        key: _mostly(
            st.integers(1, 3).map(str),
            st.one_of(_JSON_SCALAR, _json_containers(_JSON_TREE), _JSON_DEEP),
        )
        for key in ("blocks", "sample", "inner", "outer")
    },
}
_STAGE_ENTRY = _mostly(
    st.one_of(*(
        st.fixed_dictionaries(
            {"kind": _STAGE_FIELD["kind"]},
            optional={key: _STAGE_FIELD[key] for key in keys},
        ).map(_json_object)
        # The keys an ldsf, a sigma and an lll stage read, then all of them.
        for keys in (
            ("alpha", "target", "blocks", "inner", "outer"),
            ("alpha", "target", "blocks", "sample", "inner", "outer"),
            ("alpha",),
            _STAGE_KEYS[1:],
        )
    )),
    _JSON_VALUE,
)


@st.composite
def _stage_file(draw) -> bytes:
    """A stage file; one in five gets a byte sequence that is not UTF-8."""
    text = draw(_mostly(st.lists(_STAGE_ENTRY, max_size=3).map(_json_list), _JSON_VALUE))
    data = text.encode("utf-8")
    at = draw(st.integers(0, len(data)))
    bad = draw(st.sampled_from([b""] * 12 + [b"\xff", b"\xc3(", b"\xed\xa0\x80"]))
    return data[:at] + bad + data[at:]


_SMALL = st.sampled_from(["-1", "0", "1", "2", "3", "5", "x"])


def _fuzz_argv(data, lat: str, stages: str) -> list[str]:
    command = data.draw(
        st.sampled_from(["lll", "hc", "ldsf", "hybrid", "sweep", "freq", "oracle"])
    )
    alpha = data.draw(_ALPHA_TEXT)
    argv = [command, "--in", lat, "--alpha", alpha]
    if command == "hc":
        mode = data.draw(st.sampled_from(["--radius", "--r0", "--psl2"]))
        argv += [mode, data.draw(_SMALL), "--k", "2", "--p", "1"]
        argv.append("--target=" + data.draw(_OPTION_TEXT))
    elif command == "ldsf":
        argv += ["--blocks", data.draw(_SMALL), "--inner", data.draw(_SMALL)]
        argv.append("--target=" + data.draw(_OPTION_TEXT))
    elif command == "hybrid":
        argv += ["--stages", stages]
    elif command in ("sweep", "freq"):
        argv += ["--radii=" + data.draw(_OPTION_TEXT), "--samples", "2"]
    elif command == "oracle":
        budget = data.draw(st.one_of(_OPTION_TEXT, st.integers(-3, 10**8).map(str)))
        argv += ["--bound", "1", "--budget=" + budget]
    return argv


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """``cli_main(argv)`` with its output captured: (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, err.getvalue()


class _Worker:
    """One long-lived forked process that runs one call at a time.

    Hypothesis checks its deadline only after an example returns, so an
    input whose cost follows its value would hang the run.  Here a call
    still running after ``timeout`` seconds fails the test with its
    arguments, the process is killed, and the next call forks a fresh one.
    ``fork`` needs no re-import, and the pool forks before it starts its
    own threads.
    """

    def __init__(self, timeout: float):
        self.timeout = timeout
        self.pool = None

    def call(self, fn, *args):
        if self.pool is None:
            self.pool = multiprocessing.get_context("fork").Pool(1)
        try:
            return self.pool.apply_async(fn, args).get(self.timeout)
        except multiprocessing.TimeoutError:
            self.close()
            pytest.fail(f"no result after {self.timeout} s: {fn.__name__}{args}")

    def close(self) -> None:
        if self.pool is not None:
            self.pool.terminate()
            self.pool.join()
            self.pool = None


@pytest.fixture(scope="module")
def worker():
    shared = _Worker(timeout=5)
    yield shared
    shared.close()


class TestWorker:
    def test_slow_call_fails_within_twice_the_timeout(self):
        slow = _Worker(timeout=1)
        try:
            start = time.monotonic()
            with pytest.raises(pytest.fail.Exception, match=r"after 1 s: sleep\(60,\)"):
                slow.call(time.sleep, 60)
            assert time.monotonic() - start < 2
            assert slow.call(abs, -3) == 3  # the next call gets a fresh process
        finally:
            slow.close()


class TestBoundaryFuzz:
    @settings(
        max_examples=300, deadline=timedelta(seconds=1), derandomize=True, database=None
    )
    @given(data=st.data(), lat_text=_LAT_TEXT, stage_bytes=_stage_file())
    def test_exit_codes_and_no_internal_error(self, worker, data, lat_text, stage_bytes):
        with tempfile.TemporaryDirectory() as tmp:
            lat = os.path.join(tmp, "in.lat")
            stages = os.path.join(tmp, "stages.json")
            with open(lat, "w", encoding="utf-8") as fh:
                fh.write(lat_text)
            with open(stages, "wb") as fh:
                fh.write(stage_bytes)
            argv = _fuzz_argv(data, lat, stages)
            code, err = worker.call(_run_cli, argv)
        assert code in (0, 1, 2), (argv, err)
        assert "internal error" not in err, (argv, err)

    @settings(
        max_examples=200, deadline=timedelta(seconds=1), derandomize=True, database=None
    )
    @given(stage_bytes=_stage_file())
    def test_stage_file_errors_name_the_stage(self, worker, stage_bytes):
        """With a good lattice and alpha, hybrid succeeds or exits 1 with a
        message about the stage file or one of its stages."""
        with tempfile.TemporaryDirectory() as tmp:
            lat = os.path.join(tmp, "in.lat")
            stages = os.path.join(tmp, "stages.json")
            save_lattice(uniform_basis(6, -9, 9, seed=1), lat)
            with open(stages, "wb") as fh:
                fh.write(stage_bytes)
            code, message = worker.call(_run_cli, ["hybrid", "--in", lat, "--stages", stages])
        if code:
            assert code == 1 and message.startswith("latforge hybrid: error: stage"), message
        else:
            assert message == ""
