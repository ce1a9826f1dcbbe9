"""Multistage hybrid reduction pipelines.

Stages are data: a list of StageSpec values is threaded through the basis,
so the 4-stage template and its 5- and 6-stage extensions differ only in
list construction.  Stage kinds are a single diffusion/fusion run, a
best-of-n sampled run, or a terminating whole-basis reduction.
"""

from __future__ import annotations

import json
import time
from decimal import Decimal

from .core import (
    Basis, BasisMetrics, Record, _exact_target, _quoted, gram_det, metrics, reduction_key,
)
from .errors import BadStageParamsError, StageInfeasibleError
from .ldsf import LdsfConfig, LdsfTrace, ldsf_run, sigma_candidates
from .lll import LllParams, lll_reduce
from .parallel import derive_rng, derive_seed

KIND_LDSF = "ldsf"
KIND_SIGMA = "sigma"
KIND_LLL = "lll"

# The fields each kind reads, as stage-file key -> StageSpec field.  A
# stage-file key outside its kind's row is an error, and so is a StageSpec
# field outside it that does not hold its default.
_LDSF_FIELDS = {
    "kind": "kind", "alpha": "alpha", "target": "target_bound", "blocks": "blocks",
    "inner": "inner_iters", "outer": "outer_iters",
}
_STAGE_FIELDS = {
    KIND_LDSF: _LDSF_FIELDS,
    KIND_SIGMA: {**_LDSF_FIELDS, "sample": "sample_n"},
    KIND_LLL: {"kind": "kind", "alpha": "alpha"},
}


class StageSpec(Record):
    """One pipeline stage: a kind and the fields it reads (``_STAGE_FIELDS``)."""

    kind: str
    alpha: LllParams
    blocks: int = 1
    sample_n: int = 1
    target_bound: float | Decimal | None = None
    inner_iters: int = 1
    outer_iters: int = 1

    def __post_init__(self):
        if self.kind not in _STAGE_FIELDS:
            raise BadStageParamsError(f"unknown stage kind {_quoted(self.kind)}")
        read = _STAGE_FIELDS[self.kind].values()
        unread = [
            f for f in self._fields
            if f not in read and getattr(self, f) != self._defaults.get(f)
        ]
        if unread:
            raise BadStageParamsError(f"{self.kind} stage does not use {', '.join(unread)}")
        try:
            object.__setattr__(self, "target_bound", _exact_target(self.target_bound, "target"))
        except ValueError as exc:
            raise BadStageParamsError(str(exc)) from exc
        if self.blocks < 1:
            raise BadStageParamsError("blocks must be >= 1")
        if self.sample_n < 1:
            raise BadStageParamsError("sample_n must be >= 1")
        if min(self.inner_iters, self.outer_iters) < 1:
            raise BadStageParamsError("inner and outer must be >= 1")


class StageReport(Record):
    index: int
    kind: str
    blocks: int
    sample_n: int
    before: BasisMetrics
    after: BasisMetrics
    llb: Decimal
    lub: Decimal
    seconds: float


class PipelineReport(Record):
    stage_reports: tuple[StageReport, ...]
    final_basis: Basis


def default_four_stage(
    m_blocks: int, n_sample: int, l_blocks: int, alpha: LllParams
) -> list[StageSpec]:
    """Diffuse into m blocks, two sampled passes (m then l < m blocks),
    then a terminating whole-basis reduction."""
    if l_blocks >= m_blocks:
        raise BadStageParamsError(
            f"third-stage block count {_quoted(l_blocks)} must be < {_quoted(m_blocks)}"
        )
    return [
        StageSpec(kind=KIND_LDSF, alpha=alpha, blocks=m_blocks),
        StageSpec(kind=KIND_SIGMA, alpha=alpha, blocks=m_blocks, sample_n=n_sample),
        StageSpec(kind=KIND_SIGMA, alpha=alpha, blocks=l_blocks, sample_n=n_sample),
        StageSpec(kind=KIND_LLL, alpha=alpha),
    ]


def _ldsf_cfg(stage: StageSpec, seed: int) -> LdsfConfig:
    return LdsfConfig(
        servers=stage.blocks,
        inner_iters=stage.inner_iters,
        outer_iters=stage.outer_iters,
        alpha=stage.alpha,
        target_bound=stage.target_bound,
        seed=seed,
    )


def _trace_extrema(traces: list[LdsfTrace]) -> tuple[Decimal, Decimal]:
    fused = [r.fused_metrics for t in traces for r in t.rounds]
    return (
        min(f.shortest for f in fused),
        min(f.longest for f in fused),
    )


def run_pipeline(
    b0: Basis, stages: list[StageSpec], seed: int = 0, gram: int | None = None
) -> PipelineReport:
    """Thread the basis through the stage list, reporting per-stage llb
    (best shortest seen) and lub (best longest seen) plus wall time.
    Every stage output spans the lattice of b0: ``gram`` as in ``metrics``."""
    if not stages:
        raise BadStageParamsError("stage list is empty")
    # Every stage keeps the rank, so all of them are checked before any runs:
    # blocks hold >= 2 rows each and the right-permutation mix needs rank 3.
    for index, stage in enumerate(stages, start=1):
        need = max(3, 2 * stage.blocks)
        if stage.kind != KIND_LLL and b0.m < need:
            raise StageInfeasibleError(
                f"stage {index}: {stage.kind} with {_quoted(stage.blocks)} blocks "
                f"needs rank >= {_quoted(need)}, got {b0.m}"
            )
    gram = gram_det(b0) if gram is None else gram
    current = b0
    before = metrics(current, gram)
    reports: list[StageReport] = []
    for index, stage in enumerate(stages, start=1):
        stage_started = time.perf_counter()
        stage_seed = derive_seed(seed, "stage", index)
        if stage.kind == KIND_LLL:
            current = lll_reduce(current, stage.alpha)
            after = metrics(current, gram)
            llb, lub = after.shortest, after.longest
        elif stage.kind == KIND_LDSF:
            trace = ldsf_run(current, _ldsf_cfg(stage, stage_seed), gram)
            current = trace.final_basis
            after = metrics(current, gram)
            llb, lub = _trace_extrema([trace])
        else:
            candidates = sigma_candidates(
                stage.sample_n, current, _ldsf_cfg(stage, stage_seed),
                derive_rng(seed, "stage", index, "perms"), gram,
            )
            _, best = min(candidates, key=lambda c: reduction_key(c[1].final_basis))
            current = best.final_basis
            after = metrics(current, gram)
            llb, lub = _trace_extrema([t for _, t in candidates])
        reports.append(
            StageReport(
                index=index,
                kind=stage.kind,
                blocks=stage.blocks,
                sample_n=stage.sample_n,
                before=before,
                after=after,
                llb=llb,
                lub=lub,
                seconds=time.perf_counter() - stage_started,
            )
        )
        before = after
    return PipelineReport(
        stage_reports=tuple(reports),
        final_basis=current,
    )


def stage_from_dict(data: dict, default_alpha: LllParams) -> StageSpec:
    """One stage-file entry; a malformed entry raises BadStageParamsError."""
    if not isinstance(data, dict):
        raise BadStageParamsError(f"entry must be a JSON object, got {_quoted(data)}")
    kind = data.get("kind")
    if not isinstance(kind, str):
        raise BadStageParamsError("stage entry needs a 'kind' string")
    if kind not in _STAGE_FIELDS:
        raise BadStageParamsError(f"unknown stage kind {_quoted(kind)}")
    unused = sorted(set(data) - set(_STAGE_FIELDS[kind]))
    if unused:
        raise BadStageParamsError(f"{kind} stage does not use {', '.join(map(_quoted, unused))}")
    for key in ("blocks", "sample", "inner", "outer"):
        value = data.get(key, 1)
        if isinstance(value, bool) or not isinstance(value, int):
            raise BadStageParamsError(f"'{key}' must be an integer, got {_quoted(value)}")
    spec = {_STAGE_FIELDS[kind][key]: value for key, value in data.items()}
    try:
        spec["alpha"] = LllParams(data["alpha"]) if "alpha" in data else default_alpha
    except (TypeError, ValueError) as exc:
        raise BadStageParamsError(f"'alpha': {exc}") from exc
    return StageSpec(**spec)


def load_stages(path: str, default_alpha: LllParams) -> list[StageSpec]:
    """Read a JSON stage file.  Text that is not UTF-8 JSON raises
    BadStageParamsError with the decoder's position where it gives one;
    a bad entry's error names its 1-based stage position."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            # Through Decimal: int() of a string is capped at 4,300 digits.
            raw = json.load(fh, parse_int=lambda text: int(Decimal(text)))
        except (ValueError, RecursionError) as exc:
            # Bad UTF-8 and bad JSON are ValueErrors; deep nesting recurses.
            raise BadStageParamsError(f"stage file: {exc}") from exc
    if not isinstance(raw, list):
        raise BadStageParamsError("stage file must hold a JSON list")
    stages = []
    for index, entry in enumerate(raw, start=1):
        try:
            stages.append(stage_from_dict(entry, default_alpha))
        except BadStageParamsError as exc:
            raise BadStageParamsError(f"stage {index}: {exc}") from exc
    return stages
