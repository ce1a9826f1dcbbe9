"""Mutants of ``src/`` that the tests must kill, and a runner for them.

Each row names a file under ``src/latforge``, an exact old text, the new
text that replaces it and the tests that must fail with the new text in
place.  The runner copies ``src/`` to a temporary directory for each row,
applies the mutant there, runs only the named tests against that copy and
lists the survivors:

    python tests/mutants.py            # every row
    python tests/mutants.py -k record  # rows whose name contains "record"

It exits 0 when every mutant is killed and every equivalent one survives.
A row marked equivalent computes the same results as the code it replaces,
so no test can kill it; it stays in the table so that nobody spends time
on it again.  pytest does not collect this file; ``test_mutants.py``
checks that each old text occurs exactly once in ``src/``, so a refactor
that moves mutated code must update the table.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# A mutant that makes a test loop (a wrong LLL swap can) counts as killed.
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str  # under src/latforge
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: bool = False


KERNEL = ("tests/test_lll.py::TestKernelMatchesReference",)
RECORD = ("tests/test_core.py::TestRecord",)
ONE_DET = ("tests/test_cli.py::TestOneDeterminantPerRun",)
SEEDS = ("tests/test_imports.py::TestDeriveSeed",)
PIPELINE_REF = ("tests/test_pipeline.py::TestAgainstTheReference",)

MUTANTS = (
    # The integral LLL kernel, against the loop-form reference of helpers.py.
    Mutant(
        "kernel: add for r = +1", "lll.py",
        "        op = add if r == -1 else sub\n",
        "        op = add if r in (1, -1) else sub\n",
        KERNEL,
    ),
    Mutant(
        "kernel: no lambda refresh after the first size reduction", "lll.py",
        "            reduce_by(k, k - 1, x, dk)\n            x = lk[k - 1]\n",
        "            reduce_by(k, k - 1, x, dk)\n",
        KERNEL,
    ),
    Mutant(
        "kernel swap: d[k+1] for d[k] in the new d[k]", "lll.py",
        "            d[k] = num // dk\n",
        "            d[k] = num // dk_next\n",
        KERNEL,
    ),
    Mutant(
        "kernel swap: d[k+1] for d[k] in the lambda update", "lll.py",
        "                li[k] = (ax * a - s) // dk\n",
        "                li[k] = (ax * a - s) // dk_next\n",
        KERNEL,
    ),
    Mutant(
        "kernel swap: d[k-1] + x in the lambda update", "lll.py",
        "            ax, bx = dk_next + x, d[k - 1] - x\n",
        "            ax, bx = dk_next + x, d[k - 1] + x\n",
        KERNEL,
    ),
    Mutant(
        "kernel swap: x * (a - c) as the shared product", "lll.py",
        "                s = x * (a + c)\n",
        "                s = x * (a - c)\n",
        KERNEL,
    ),
    Mutant(
        "kernel: size test with >=", "lll.py",
        "        if 2 * abs(x) > dk:\n",
        "        if 2 * abs(x) >= dk:\n",
        KERNEL,
    ),
    Mutant(
        "kernel: inner size test with >=", "lll.py",
        "                if 2 * abs(x) > dl:\n",
        "                if 2 * abs(x) >= dl:\n",
        KERNEL,
    ),
    Mutant(
        "kernel: Lovasz test with <=", "lll.py",
        "        if q * num < p * dk * dk:\n",
        "        if q * num <= p * dk * dk:\n",
        KERNEL,
    ),
    Mutant(
        "is_lll_reduced: size test with >=", "lll.py",
        "        if any(2 * abs(lam[k][l]) > d[l + 1] for l in range(k)):\n",
        "        if any(2 * abs(lam[k][l]) >= d[l + 1] for l in range(k)):\n",
        ("tests/test_lll.py::TestIsReduced",),
    ),
    Mutant(
        "is_lll_reduced: Lovasz test with <=", "lll.py",
        "        if q * (d[k - 1] * d[k + 1] + lam_k * lam_k) < p * d[k] * d[k]:\n",
        "        if q * (d[k - 1] * d[k + 1] + lam_k * lam_k) <= p * d[k] * d[k]:\n",
        ("tests/test_lll.py::TestIsReduced",),
    ),
    Mutant(
        "LllParams: decimal text range-checked only after its Fraction is built", "lll.py",
        '        if value is not None and value.is_finite() and not Decimal("0.25") < value < 1:\n',
        "        if False:\n",
        ("tests/test_lll.py::TestParams::test_out_of_range_decimal_text_builds_no_fraction",),
    ),
    Mutant(
        "LllParams: decimal text 0.25 let through to a Fraction", "lll.py",
        'Decimal("0.25") < value < 1:',
        'Decimal("0.25") <= value < 1:',
        ("tests/test_lll.py::TestParams::test_out_of_range_decimal_text_builds_no_fraction",),
    ),
    Mutant(
        "LllParams: decimal text 1 let through to a Fraction", "lll.py",
        'Decimal("0.25") < value < 1:',
        'Decimal("0.25") < value <= 1:',
        ("tests/test_lll.py::TestParams::test_out_of_range_decimal_text_builds_no_fraction",),
    ),
    Mutant(
        "LllParams: a text of exactly the digit cap called too long", "lll.py",
        "0 < limit < sum(map(str.isdigit, given))",
        "0 < limit <= sum(map(str.isdigit, given))",
        ("tests/test_lll.py::TestParams::test_non_number_at_the_digit_cap_is_not_too_long",),
    ),
    Mutant(
        "LllParams: a text called too long with the digit cap off", "lll.py",
        "0 < limit < sum(map(str.isdigit, given))",
        "0 <= limit < sum(map(str.isdigit, given))",
        ("tests/test_lll.py::TestParams::test_non_number_with_the_cap_off_is_not_too_long",),
    ),
    Mutant(
        "kernel: a revisited row's GSO recomputed", "lll.py",
        "        if k > kmax:\n",
        "        if k >= kmax:\n",
        ("tests/test_lll.py::TestFirstTouch",),
    ),
    Mutant(
        "gso: sign flip in _gso_row", "core.py",
        "            u = (d[i + 1] * u - lk[i] * lj[i]) // d[i]\n",
        "            u = (d[i + 1] * u + lk[i] * lj[i]) // d[i]\n",
        KERNEL,
    ),
    # Quoting, determinants and the canonical HNF.
    Mutant(
        "_leading keeps one digit fewer", "core.py",
        "    k = (abs(x).bit_length() - 1) * 30102 // 100000 - 40\n",
        "    k = (abs(x).bit_length() - 1) * 30102 // 100000 - 39\n",
        ("tests/test_core.py::TestQuoted",),
    ),
    Mutant(
        "gram_det: knapsack bases take the GSO route", "core.py",
        "            if self.n - self.m > 1:\n",
        "            if self.n - self.m > 0:\n",
        ("tests/test_core.py::TestGramDet",),
    ),
    Mutant(
        "gram_det: two extra columns take the echelon route", "core.py",
        "            if self.n - self.m > 1:\n",
        "            if self.n - self.m > 2:\n",
        ("tests/test_core.py::TestGramDet",),
    ),
    Mutant(
        "hnf: finished rows reduced modulo det in every column", "core.py",
        "            above[p + 1:] = [(a - q * c) % det"
        " for a, c in zip(above[p + 1:], row[p + 1:])]\n",
        "            above[:] = [a % det for a in above[:p + 1]] + [(a - q * c) % det"
        " for a, c in zip(above[p + 1:], row[p + 1:])]\n",
        ("tests/test_core.py::TestHnf",),
    ),
    Mutant(
        "metrics: determinant recomputed on every read", "core.py",
        "    @cached_property\n    def det_lattice(self)",
        "    @property\n    def det_lattice(self)",
        ("tests/test_core.py::TestLazyMetrics",),
    ),
    Mutant(
        "metrics: carried determinant ignored", "core.py",
        "        return _sqrt(gram_det(self._basis))\n",
        "        return _sqrt(gram_det(Basis(self._basis.rows)))\n",
        ONE_DET,
    ),
    Mutant(
        "gram_det computed on every call", "core.py",
        "    return b._gram_det\n",
        "    return Basis._gram_det.func(b)\n",
        ("tests/test_core.py::TestCarriedDeterminant", *ONE_DET),
    ),
    Mutant(
        "carry: _built computes the determinant of like", "core.py",
        '        if like is not None and "_gram_det" in like.__dict__:\n',
        "        if like is not None:\n",
        ("tests/test_core.py::TestCarriedDeterminant::test_no_other_basis_holds_one",),
    ),
    Mutant(
        "hnf re-runs the echelon", "core.py",
        "    pivots, det, scaled = b._echelon\n    big = abs(det)\n",
        "    pivots, det, scaled = _reduced_echelon(b)\n    big = abs(det)\n",
        ("tests/test_core.py::TestOneEchelonPerBasis",),
    ),
    Mutant(
        "gram_det re-runs the echelon", "core.py",
        "            pivots, det, scaled = self._echelon\n",
        "            pivots, det, scaled = _reduced_echelon(self)\n",
        (
            "tests/test_core.py::TestOneEchelonPerBasis",
            "tests/test_cli.py::TestOneDeterminantPerRun::test_lll_report_eliminates_once",
        ),
    ),
    Mutant(
        "zigzag takes the higher value on a tie", "core.py",
        "        if lo >= -bound and (hi > bound or 2 * p <= (lo + hi) * q):\n",
        "        if lo >= -bound and (hi > bound or 2 * p < (lo + hi) * q):\n",
        ("tests/test_core.py::TestSvpOracle::test_zigzag_is_the_sorted_order",),
    ),
    Mutant(
        "zigzag starts at the box edge for a center past it", "core.py",
        "    lo = min(p // q, bound)\n",
        "    lo = p // q\n",
        ("tests/test_core.py::TestSvpOracle::test_zigzag_is_the_sorted_order",),
    ),
    Mutant(
        "svp: a branch pruned on ties", "core.py",
        "normsq[i]) > best_sq:\n",
        "normsq[i]) >= best_sq:\n",
        ("tests/test_core.py::TestSvpOracle",),
    ),
    Mutant(
        "svp: a level's center and partial norm not restored on backtrack", "core.py",
        "            i, values, center, partial = above.pop()\n",
        "            i, values = above.pop()[:2]\n",
        ("tests/test_core.py::TestSvpOracle",),
    ),
    Mutant(
        "echelon: a zero entry skipped also when the pivot changes", "core.py",
        "            if row is not piv_row and (f or piv != prev):\n",
        "            if row is not piv_row and f:\n",
        ("tests/test_core.py::TestReducedEchelon",),
    ),
    Mutant(
        "hnf: the unit-column route taken for any gcd", "core.py",
        "    if g == 1:\n        square",
        "    if g >= 1:\n        square",
        ("tests/test_core.py::TestHnf::test_route_by_lattice",),
    ),
    Mutant(
        "hnf: the last column of the unit-column route negated", "core.py",
        "            h[-1] = -row[-1] * inv % big\n",
        "            h[-1] = row[-1] * inv % big\n",
        ("tests/test_core.py::TestHnf::test_route_by_lattice",),
    ),
    Mutant(
        "hnf: the echelon's unit column may become a pivot", "core.py",
        "    for c in range(n):\n",
        "    for c in range(n + 1):\n",
        ("tests/test_core.py::TestHnf::test_detects_dependence",),
    ),
    Mutant(
        "hnf: pivot row not rebuilt on (-1, 0) either", "core.py",
        "            if (x, y) != (1, 0):\n",
        "            if (x, y) not in ((1, 0), (-1, 0)):\n",
        ("tests/test_core.py::TestHnf",),
        # The pivot row then differs only in sign; the row kept is u * row
        # mod R with u * a = d (mod R) either way, and two such rows differ
        # by a vector of the lattice of the rows still to come.
        equivalent=True,
    ),
    # The Record base: value semantics of a frozen dataclass.
    Mutant(
        "record: == across classes", "core.py",
        "        if other.__class__ is not self.__class__:\n",
        "        if not isinstance(other, Record):\n",
        RECORD,
    ),
    Mutant(
        "record: hash of the field names", "core.py",
        "        return hash(self._values())\n\n    def __repr__(self) -> str:\n        shown",
        "        return hash(self._fields)\n\n    def __repr__(self) -> str:\n        shown",
        RECORD,
    ),
    Mutant(
        "record: unknown keywords accepted", "core.py",
        "            if len(args) > len(names)"
        " or not kwargs.keys() <= set(rest) <= values.keys():\n",
        "            if len(args) > len(names) or not set(rest) <= values.keys():\n",
        RECORD,
    ),
    Mutant(
        "record: deletion allowed", "core.py",
        "    __delattr__ = __setattr__\n",
        "",
        RECORD,
    ),
    Mutant(
        "record: __post_init__ not called", "core.py",
        "        self.__post_init__()\n",
        "",
        RECORD,
    ),
    Mutant(
        "record: repr by str", "core.py",
        '        shown = ", ".join(f"{f}={v!r}"',
        '        shown = ", ".join(f"{f}={v}"',
        RECORD,
    ),
    Mutant(
        "record: replace spreads __dict__", "core.py",
        "        return type(self)(**{**self.__getstate__(), **changes})\n",
        "        return type(self)(**{**self.__dict__, **changes})\n",
        ("tests/test_core.py::TestRecord::test_replace_copies_the_fields_only",),
    ),
    Mutant(
        "record: a copy carries the echelon", "core.py",
        "        return dict(zip(self._fields, self._values()))\n",
        "        return dict(self.__dict__)\n",
        ("tests/test_core.py::TestRecord::test_replace_copies_the_fields_only",),
    ),
    Mutant(
        "record: no defaults", "core.py",
        "        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}\n",
        "        cls._defaults = {}\n",
        RECORD,
    ),
    # Bases the library builds from its own rows, and the outside boundary.
    Mutant(
        "built: lll_reduce hands lists to Basis._built", "lll.py",
        "    return Basis._built(tuple(map(tuple, rows)), like=b)\n",
        "    return Basis._built(rows, like=b)\n",
        ("tests/test_core.py::TestLibraryBuiltBases",),
    ),
    Mutant(
        "boundary: lossy entries accepted", "core.py",
        "        if out == given:\n            return out\n",
        "        return out\n",
        (
            "tests/test_core.py::TestBasis::test_lossy_entry_is_rejected",
            "tests/test_perm.py::TestPermutation::test_lossy_image_is_rejected",
        ),
    ),
    # The stage-file boundary and the lattice reader.
    Mutant(
        "stage file: integers parsed by int()", "pipeline.py",
        "            raw = json.load(fh, parse_int=lambda text: int(Decimal(text)))\n",
        "            raw = json.load(fh)\n",
        ("tests/test_cli.py::TestHybrid::test_integer_past_4300_digits_in_blocks",),
    ),
    Mutant(
        "stage file: a bool taken as an integer", "pipeline.py",
        "        if isinstance(value, bool) or not isinstance(value, int):\n",
        "        if not isinstance(value, int):\n",
        ("tests/test_cli.py::TestHybrid::test_bad_stage_entry_is_usage_error",),
    ),
    Mutant(
        "lattice reader: any Unicode digit", "latfile.py",
        r'_TOKEN = re.compile(r"([+-]?[0-9]+)|\S")',
        r'_TOKEN = re.compile(r"([+-]?\d+)|\S")',
        ("tests/test_latfile.py::TestParseErrors::test_position_reported",),
    ),
    Mutant(
        "lattice reader: entries parsed by int()", "latfile.py",
        "            row.append(int(Decimal(tok[1])))\n",
        "            row.append(int(tok[1]))\n",
        ("tests/test_latfile.py::TestParse::test_entry_longer_than_int_str_limit",),
    ),
    # Permutations and seeds.
    Mutant(
        "perm: only repeated images rejected", "perm.py",
        "        if sorted(self.images) != list(range(1, m + 1)):\n",
        "        if len(set(self.images)) != m:\n",
        ("tests/test_perm.py::TestQuotedValues::test_short_images_read_as_the_tuple",),
    ),
    Mutant(
        "perm: a shuffle with a fixed point accepted", "perm.py",
        "        if all(a != b for a, b in zip(shuffled, positions)):\n",
        "        if any(a != b for a, b in zip(shuffled, positions)):\n",
        ("tests/test_perm.py::TestSampleAtRadius::test_exact_radius",),
    ),
    Mutant(
        "derive_seed: little-endian", "parallel.py",
        'digest_size=8).digest(), "big")',
        'digest_size=8).digest(), "little")',
        SEEDS,
    ),
    Mutant(
        "derive_seed: 16-byte digest", "parallel.py",
        "blake2b(payload, digest_size=8)",
        "blake2b(payload, digest_size=16)",
        SEEDS,
    ),
    # A caller's integer past 4,300 digits in a message.
    Mutant(
        "quoting: a tuple rendered by str", "core.py",
        "    if isinstance(given, (list, tuple)):\n",
        "    if isinstance(given, list):\n",
        (
            "tests/test_core.py::TestQuoted",
            "tests/test_perm.py::TestQuotedValues::test_image_past_4300_digits",
        ),
    ),
    Mutant(
        "quoting: check_radius renders the radius by str", "perm.py",
        "moves exactly {_quoted(r)} points",
        "moves exactly {r} points",
        (
            "tests/test_perm.py::TestQuotedValues::test_radius_past_4300_digits",
            "tests/test_hillclimb.py::TestFixed::test_radius_past_4300_digits",
        ),
    ),
    Mutant(
        "quoting: the PSL(2,p) degree check renders p by str", "hillclimb.py",
        'f"PSL(2,{_quoted(kind.prime)}) acts on',
        'f"PSL(2,{kind.prime}) acts on',
        ("tests/test_hillclimb.py::TestPsl2Walk::test_prime_past_4300_digits",),
    ),
    Mutant(
        "derive_seed: an int part rendered by repr", "parallel.py",
        "int_str(p) if type(p) is int else repr(p)",
        "repr(p)",
        (
            "tests/test_imports.py::TestDeriveSeed::test_seed_past_4300_digits_under_the_cap",
            "tests/test_hillclimb.py::TestFixed::test_seed_past_4300_digits",
        ),
    ),
    Mutant(
        "derive_seed: a bool part rendered as an int", "parallel.py",
        "int_str(p) if type(p) is int else repr(p)",
        "int_str(p) if isinstance(p, int) else repr(p)",
        SEEDS,
    ),
    # The choices of the search layers (ROADMAP item 5).
    Mutant(
        "hill_climb: the first candidate taken", "hillclimb.py",
        "        j = min(range(len(candidates)), key=keyed.__getitem__)\n",
        "        j = 0\n",
        (
            "tests/test_hillclimb.py::TestFixed::test_each_step_moves_to_the_least_key",
            "tests/test_hillclimb.py::TestVariable::test_soft_runtime_claim_on_pinned_seeds",
            "tests/test_hillclimb.py::TestAgainstTheReference",
        ),
    ),
    Mutant(
        "hill_climb: an equal key counts as improved", "hillclimb.py",
        "        improved = keyed[j] < best_key\n",
        "        improved = keyed[j] <= best_key\n",
        (
            "tests/test_hillclimb.py::TestFixed::test_identity_already_optimal",
            "tests/test_hillclimb.py::TestAgainstTheReference",
        ),
    ),
    Mutant(
        "ldsf_run: a tied round replaces the best", "ldsf.py",
        "            if best_sq is None or fused_min_sq < best_sq:\n",
        "            if best_sq is None or fused_min_sq <= best_sq:\n",
        (
            "tests/test_ldsf.py::TestRun::test_a_tied_round_keeps_the_earlier_best",
            "tests/test_ldsf.py::TestAgainstTheReference",
        ),
    ),
    Mutant(
        "ldsf_run: the first round never replaced", "ldsf.py",
        "            if best_sq is None or fused_min_sq < best_sq:\n",
        "            if best_sq is None:\n",
        (
            "tests/test_ldsf.py::TestRun::test_best_norm_is_running_min",
            "tests/test_ldsf.py::TestAgainstTheReference",
        ),
    ),
    Mutant(
        "sigma stage: the first candidate kept", "pipeline.py",
        "            current = min((t.final_basis for t in traces), key=reduction_key)\n",
        "            current = traces[0].final_basis\n",
        (
            "tests/test_pipeline.py::TestSigmaStageDecisions::test_keeps_the_least_reduction_key",
            *PIPELINE_REF,
        ),
    ),
    Mutant(
        "stage extrema: lub the max of longest", "pipeline.py",
        "                lub=min(f.longest for f in fused),\n",
        "                lub=max(f.longest for f in fused),\n",
        (
            "tests/test_pipeline.py::TestSigmaStageDecisions"
            "::test_llb_and_lub_are_the_least_fused_values",
            *PIPELINE_REF,
        ),
    ),
    Mutant(
        "stage extrema: llb the max of shortest", "pipeline.py",
        "                llb=min(f.shortest for f in fused),\n",
        "                llb=max(f.shortest for f in fused),\n",
        (
            "tests/test_pipeline.py::TestStageDecisions"
            "::test_ldsf_stage_llb_is_the_least_fused_shortest",
            *PIPELINE_REF,
        ),
    ),
    Mutant(
        "stage extrema: an ldsf stage reports its output's", "pipeline.py",
        "        fused = [r.fused_metrics for t in traces for r in t.rounds] or [after]\n",
        "        fused = [after]\n",
        (
            "tests/test_pipeline.py::TestStageDecisions"
            "::test_ldsf_stage_lub_is_the_least_over_its_rounds",
            *PIPELINE_REF,
        ),
    ),
    Mutant(
        "stage extrema: an lll stage reports its input's", "pipeline.py",
        "        fused = [r.fused_metrics for t in traces for r in t.rounds] or [after]\n",
        "        fused = [r.fused_metrics for t in traces for r in t.rounds] or [before]\n",
        (
            "tests/test_pipeline.py::TestStageDecisions::test_lll_stage_reports_its_output",
            *PIPELINE_REF,
        ),
    ),
    Mutant(
        "ldsf stage: the best basis handed on", "pipeline.py",
        "            current = min((t.final_basis for t in traces), key=reduction_key)\n",
        "            current = min((t.best_basis for t in traces), key=reduction_key)\n",
        (
            "tests/test_pipeline.py::TestStageDecisions::test_ldsf_stage_hands_on_its_final_basis",
            *PIPELINE_REF,
        ),
    ),
    Mutant(
        "lll stage: the default alpha", "pipeline.py",
        "            current = lll_reduce(current, stage.alpha)\n",
        "            current = lll_reduce(current)\n",
        (
            "tests/test_pipeline.py::TestStageDecisions::test_lll_stage_reduces_at_its_own_alpha",
            *PIPELINE_REF,
        ),
    ),
    Mutant(
        "summarize: sigma over n - 1", "bench.py",
        "for v in values), Decimal(0)), n\n",
        "for v in values), Decimal(0)), n - 1\n",
        ("tests/test_bench.py::TestSummarize::test_small_sample",),
    ),
    Mutant(
        "freq: a tie counts as a win", "bench.py",
        "    return {r: sum(sq < base_sq for sq in sqs) / n_samples for r, sqs in samples}\n",
        "    return {r: sum(sq <= base_sq for sq in sqs) / n_samples for r, sqs in samples}\n",
        (
            "tests/test_bench.py::TestImprovementFrequency::test_identity_never_improves",
            "tests/test_bench.py::TestImprovementFrequency::test_radius_zero_never_improves",
        ),
    ),
    Mutant(
        "sweep/freq: the seed parts swapped", "bench.py",
        'derive_rng(seed, "sweep", r, i)',
        'derive_rng(seed, "sweep", i, r)',
        ("tests/test_bench.py::TestAgainstTheReference",),
    ),
    Mutant(
        "sweep/freq: a repeated radius sampled again", "bench.py",
        "        if r in radii[:at]:\n",
        "        if False:\n",
        (
            "tests/test_bench.py::TestRepeatedRadius",
            "tests/test_cli.py::TestSweepAndFreq::test_repeated_radius_is_usage_error",
        ),
    ),
    Mutant(
        "freq: input compared as given", "bench.py",
        "    reduced = lll_reduce(b_star, alpha)\n",
        "    reduced = b_star\n",
        (
            "tests/test_bench.py::TestImprovementFrequency::test_input_is_reduced_first",
            "tests/test_same_bytes.py::test_freq_reads_an_input_as_its_reduction",
        ),
    ),
    Mutant(
        "table: header row dropped", "cli.py",
        'lines = [",".join(rows[0]), *(',
        "lines = [*(",
        (
            "tests/test_bench.py::TestSweep::test_csv_shape",
            "tests/test_cli.py::TestSweepAndFreq::test_freq_csv",
        ),
    ),
    # The CLI's exit mapping, the report views and the generators.
    Mutant(
        "cli: a computation failure exits 1", "cli.py",
        'computation failed: {exc}", file=sys.stderr)\n        return 2\n',
        'computation failed: {exc}", file=sys.stderr)\n        return 1\n',
        ("tests/test_cli.py::TestOracle::test_budget_exceeded_is_computation_error",),
    ),
    Mutant(
        "cli: a usage error exits with argparse's status", "cli.py",
        "        return 0 if exc.code == 0 else 1\n",
        "        return exc.code\n",
        (
            "tests/test_cli.py::TestErrors::test_unknown_command_usage",
            "tests/test_same_bytes.py::test_same_bytes",
        ),
    ),
    Mutant(
        "cli: --help exits 1", "cli.py",
        "        return 0 if exc.code == 0 else 1\n",
        "        return 1\n",
        (
            "tests/test_cli.py::TestErrors::test_help_exits_zero",
            "tests/test_same_bytes.py::test_same_bytes",
        ),
    ),
    Mutant(
        "serialize: the permutation of an hc step dropped", "serialize.py",
        '                "permutation": list(s.permutation.images),\n',
        "",
        ("tests/test_cli.py::TestHc::test_rstep_schedule",),
    ),
    Mutant(
        "gen: a dependent first draw kept", "gen.py",
        "        if gram_det(b):\n            return b\n",
        "        return b\n",
        ("tests/test_gen.py::TestUniform::test_dependent_draws_are_resampled",),
    ),
    Mutant(
        "gen: knapsack bits below 1 reach the shift", "gen.py",
        "    if bits < 1:\n",
        "    if False:\n",
        ("tests/test_gen.py::TestKnapsack::test_bits_below_one_are_rejected_before_any_draw",),
    ),
    Mutant(
        "gen: a range with no independent draw accepted", "gen.py",
        "    if lo == hi and (lo == 0 or m > 1):\n",
        "    if False:\n",
        ("tests/test_gen.py::TestUniform::test_a_range_with_no_independent_draw_is_rejected",),
    ),
    Mutant(
        "options: oracle takes --alpha and --seed again", "cli.py",
        'sub.add_parser("oracle", parents=[common]',
        'sub.add_parser("oracle", parents=[tuned, common]',
        (
            "tests/test_cli.py::TestOracle::test_takes_no_alpha_or_seed",
            "tests/test_cli.py::TestOptions::test_every_option_is_read",
        ),
    ),
    Mutant(
        "oracle: the vector printed by str", "cli.py",
        """vector=[{', '.join(map(int_str, result.vector))}]""",
        """vector={list(result.vector)}""",
        ("tests/test_cli.py::TestOracle::test_vector_past_4300_digits",),
    ),
    Mutant(
        "gen: knapsack weights drawn from 1", "gen.py",
        "rng.randint(1 << (bits - 1), (1 << bits) - 1)",
        "rng.randint(1, (1 << bits) - 1)",
        ("tests/test_gen.py::TestKnapsack",),
    ),
    # Reported reals in one fixed decimal context, not the caller's.
    Mutant(
        "fixed context: log10_weight sums in the caller's", "core.py",
        "        with decimal.localcontext(_PLAIN):\n            total = ",
        "        if True:\n            total = ",
        ("tests/test_core.py::TestCallerContext::test_log10_weight",),
    ),
    Mutant(
        "fixed context: summarize in the caller's", "bench.py",
        "    with localcontext(_PLAIN):\n",
        "    if True:\n",
        ("tests/test_core.py::TestCallerContext::test_summarize",),
    ),
    Mutant(
        "fixed context: format_real rounds in the caller's", "core.py",
        "    with decimal.localcontext(_PLAIN):\n        return f",
        "    if True:\n        return f",
        ("tests/test_core.py::TestCallerContext::test_format_real",),
    ),
    # Stopping bounds and lattice equality.
    Mutant(
        "_exact_target: an int converted through str", "core.py",
        "        exact = Decimal(value if type(value) is int else str(value))\n",
        "        exact = Decimal(str(value))\n",
        (
            "tests/test_hillclimb.py::TestFixed::test_target_past_4300_digits",
            "tests/test_ldsf.py::TestRun::test_target_past_4300_digits",
        ),
    ),
    Mutant(
        "same_lattice: equal determinants taken for equal lattices", "core.py",
        "    return hnf(a).rows == hnf(b).rows\n",
        "    return gram_det(a) == gram_det(b)\n",
        ("tests/test_core.py::TestHnf::test_equal_determinants_of_different_lattices",),
    ),
    # The determinant each basis of a search carries from the layer's input.
    Mutant(
        "carried det: hill_climb recomputes it", "hillclimb.py",
        "        after = metrics(current)\n        improved",
        "        after = metrics(Basis(current.rows))\n        improved",
        ONE_DET,
    ),
    Mutant(
        "determinant rule: hill_climb takes it of the reduced basis", "hillclimb.py",
        "    bound = det_bound(b0)\n    current = lll_reduce(b0, cfg.alpha)\n",
        "    current = lll_reduce(b0, cfg.alpha)\n    bound = det_bound(current)\n",
        ("tests/test_core.py::TestOneEchelonPerBasis::test_hill_climb_eliminates_only_its_input",),
    ),
    Mutant(
        "carried det: ldsf_run recomputes it", "ldsf.py",
        "                    fused_metrics=metrics(current),\n",
        "                    fused_metrics=metrics(Basis(current.rows)),\n",
        ONE_DET,
    ),
    Mutant(
        "carried det: run_pipeline recomputes it", "pipeline.py",
        "        after = metrics(current)\n        # The least",
        "        after = metrics(Basis(current.rows))\n        # The least",
        ONE_DET,
    ),
    Mutant(
        "carry: lll_reduce drops like=b", "lll.py",
        "    return Basis._built(tuple(map(tuple, rows)), like=b)\n",
        "    return Basis._built(tuple(map(tuple, rows)))\n",
        ("tests/test_core.py::TestCarriedDeterminant", *ONE_DET),
    ),
    Mutant(
        "carry: apply drops like=b", "perm.py",
        "    return Basis._built(tuple(b.rows[img - 1] for img in p.images), like=b)\n",
        "    return Basis._built(tuple(b.rows[img - 1] for img in p.images))\n",
        ("tests/test_core.py::TestCarriedDeterminant",),
    ),
    Mutant(
        "carry: diffuse blocks carry their parent's determinant", "ldsf.py",
        "for i in order[at : at + size]))\n",
        "for i in order[at : at + size]), like=b)\n",
        ("tests/test_core.py::TestCarriedDeterminant::test_no_other_basis_holds_one",),
    ),
    Mutant(
        "carry: the fused basis is not carried", "ldsf.py",
        "for row in blk.rows), like=b)\n",
        "for row in blk.rows))\n",
        ("tests/test_core.py::TestCarriedDeterminant", *ONE_DET),
    ),
    Mutant(
        "input det first: hill_climb reduces before it", "hillclimb.py",
        "    bound = det_bound(b0)\n    current = lll_reduce(b0, cfg.alpha)\n",
        "    current = lll_reduce(b0, cfg.alpha)\n    bound = det_bound(b0)\n",
        # The CLI's input keeps its determinant from the load, so only a
        # fresh basis tells this apart.
        ("tests/test_core.py::TestOneEchelonPerBasis::test_hill_climb_eliminates_only_its_input",),
    ),
    Mutant(
        "input det first: ldsf_run skips it", "ldsf.py",
        "    check_right_degree(b.m)\n    gram_det(b)\n",
        "    check_right_degree(b.m)\n",
        ("tests/test_ldsf.py::TestLazyMetrics::test_input_determinant_is_computed_once",),
    ),
    Mutant(
        "input det first: sigma_candidates skips it", "ldsf.py",
        "    gram_det(b)\n    out = []\n",
        "    out = []\n",
        ("tests/test_ldsf.py::TestLazyMetrics::test_input_determinant_is_computed_once",),
    ),
    Mutant(
        "input det first: run_pipeline skips it", "pipeline.py",
        "    gram_det(b0)\n    current = b0\n",
        "    current = b0\n",
        ("tests/test_pipeline.py::TestRun::test_input_determinant_is_computed_once",),
    ),
)


def killed(mutant: Mutant) -> bool:
    """Whether the named tests fail on a copy of ``src/`` with ``mutant``."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "latforge" / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: the old text does not occur once in {mutant.path}")
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        try:
            done = subprocess.run(
                [*command, *mutant.tests], cwd=ROOT, env=env, capture_output=True,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return True
    if done.returncode not in (0, 1):
        raise SystemExit(f"{mutant.name}: pytest exited {done.returncode}\n{done.stdout.decode()}")
    return done.returncode == 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("-k", default="", help="run only rows whose name contains this")
    rows = [m for m in MUTANTS if parser.parse_args().k in m.name]
    wrong = []
    for mutant in rows:
        dead = killed(mutant)
        label = ("killed" if dead else "survived") + (" (equivalent)" if mutant.equivalent else "")
        print(f"{label:21}  {mutant.name}", flush=True)
        if dead == mutant.equivalent:
            wrong.append(mutant.name)
    print(f"{len(rows) - len(wrong)} of {len(rows)} as expected; unexpected: {wrong or 'none'}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
