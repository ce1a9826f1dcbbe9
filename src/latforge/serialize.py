"""JSON-ready views of bases, metrics, and run traces.

Entries and metric values are rendered as decimal strings: basis entries
can be hundreds of digits long and must survive a round trip, and reports
must be byte-identical across runs with the same seed.  Wall-clock fields
are deliberately left out of these views for the same reason.

``bench`` is named only in an annotation, so importing this module does not
load the experiment harness.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .core import Basis, BasisMetrics, SvpResult, format_real, int_str
from .hillclimb import HcTrace
from .ldsf import LdsfTrace
from .pipeline import PipelineReport

if TYPE_CHECKING:
    from .bench import SweepResult


def basis_entries(b: Basis) -> list[list[str]]:
    return [[int_str(x) for x in row] for row in b.rows]


def metrics_dict(m: BasisMetrics) -> dict:
    return {
        "shortest": format_real(m.shortest),
        "longest": format_real(m.longest),
        "log10_weight": format_real(m.log10_weight),
        "det_lattice": format_real(m.det_lattice),
    }


def hc_trace_dict(trace: HcTrace) -> dict:
    return {
        "initial": metrics_dict(trace.initial_metrics),
        "steps": [
            {
                "step": s.index,
                "permutation": list(s.permutation.images),
                "basis": basis_entries(s.basis),
                "after": metrics_dict(s.after),
                "improved": s.improved,
            }
            for s in trace.steps
        ],
        "best": metrics_dict(trace.best_metrics),
        "det_bound": format_real(trace.det_bound),
        "target_bound": format_real(trace.target_bound),
        "reached_target": trace.reached_target,
        "det_bound_met": trace.det_bound_met,
        "best_basis": basis_entries(trace.best_basis),
    }


def ldsf_trace_dict(trace: LdsfTrace) -> dict:
    return {
        "rounds": [
            {
                "outer": r.outer,
                "inner": r.inner,
                "blocks": [metrics_dict(bm) for bm in r.block_metrics],
                "fused": metrics_dict(r.fused_metrics),
                "fused_basis": basis_entries(r.fused_basis),
                "permutation": list(r.permutation.images),
            }
            for r in trace.rounds
        ],
        "best_vector_norm": format_real(trace.best_vector_norm),
        "reached_target": trace.reached_target,
        "best_basis": basis_entries(trace.best_basis),
        "final_basis": basis_entries(trace.final_basis),
    }


def pipeline_report_dict(report: PipelineReport) -> dict:
    return {
        "stages": [
            {
                "stage": s.index,
                "kind": s.kind,
                "blocks": s.blocks,
                "sample": s.sample_n,
                "before": metrics_dict(s.before),
                "after": metrics_dict(s.after),
                "llb": format_real(s.llb),
                "lub": format_real(s.lub),
            }
            for s in report.stage_reports
        ],
        "final_basis": basis_entries(report.final_basis),
    }


def svp_dict(result: SvpResult) -> dict:
    return {
        "vector": [int_str(x) for x in result.vector],
        "lambda1": format_real(result.lambda1),
        "count_checked": result.count_checked,
    }


def sweep_dict(result: SweepResult) -> dict:
    return {"rows": [row.rendered() for row in result.rows]}


def to_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
