"""latforge: lattice basis reduction with permutation-driven search.

Exact LLL reduction plus three optimization layers on top of it: hill
climbing over row permutations, blockwise diffusion/fusion reduction,
and multistage hybrid pipelines, with a reproducible experiment harness.

The package is a lazy namespace (PEP 562): ``from latforge import X``
imports only the module that defines X, on first access, so a library
caller that names ``core`` and ``lll`` does not load the search layers.
"""

from importlib import import_module

__version__ = "0.1.0"

# The module that defines each public name; its keys, in order, are ``__all__``.
_MODULE_OF = {
    name: module
    for module, names in {
        "core": "Basis BasisMetrics SvpResult metrics gram_det hnf same_lattice "
        "svp_oracle reduction_key",
        "lll": "LllParams lll_reduce is_lll_reduced",
        "perm": "Permutation sample_at_radius sample_right psl2_permutations apply",
        "hillclimb": "FixedRadius VariableRadius Psl2 HcConfig HcStep HcTrace det_bound hill_climb",
        "ldsf": "LdsfConfig LdsfRound LdsfTrace ldsf_run",
        "pipeline": "StageSpec StageReport PipelineReport default_four_stage run_pipeline",
        "latfile": "LatticeFile parse_lattice format_lattice load_lattice",
        "bench": "SweepRow radius_sweep improvement_frequency",
        "gen": "uniform_basis knapsack_basis",
        "errors": "LatticeError DependentRowsError BoxTooLargeError DegreeMismatchError "
        "DegreeTooSmallError InfeasibleRadiusError NotPrimeError BadBlockingError "
        "StageInfeasibleError BadStageParamsError ParseError RankDeficientError",
    }.items()
    for name in names.split()
}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Import the module that defines ``name`` and keep the binding, so the
    next access is a plain attribute read.  A submodule name falls through
    to the AttributeError, which ``from latforge import core`` answers by
    importing ``latforge.core``."""
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
