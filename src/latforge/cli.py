"""Command line front end.

Subcommands: lll, hc, ldsf, hybrid, sweep, freq, oracle.  Every command
reads the bracketed lattice format via --in; all but oracle take --seed and
--alpha (one LllParams, made in cli_main).  sweep and freq write their table
as CSV (--out-csv, stdout otherwise).  Each handler returns a builder of its
report payload, which cli_main calls and writes only when --report is given.
sweep and freq import the experiment harness (``bench``) when they run, so
no other command loads it.
Exit codes: 0 success, 1 usage or input error, 2 computation error.
"""

from __future__ import annotations

import argparse
import sys
from decimal import Decimal
from typing import Callable, Sequence

from . import serialize
from .core import DEFAULT_ENUM_BUDGET, Basis, _quoted, int_str, metrics, svp_oracle
from .errors import BoxTooLargeError, DependentRowsError, LatticeError
from .hillclimb import FixedRadius, HcConfig, Psl2, VariableRadius, hill_climb
from .latfile import load_lattice
from .ldsf import LdsfConfig, ldsf_run
from .lll import LllParams, lll_reduce
from .pipeline import load_stages, run_pipeline

# Only these two mean a computation could not finish (exit 2); every other
# library error comes from a check on the input (exit 1).
COMPUTATION_ERRORS = (BoxTooLargeError, DependentRowsError)


def _int(text: str) -> int:
    # argparse's own int message, but a text past 40 characters is cut:
    # int() rejects one of over 4,300 digits, which argparse quotes in full.
    try:
        return int(text)
    except ValueError:
        shown = repr(text) if len(text) <= 40 else _quoted(text)
        raise argparse.ArgumentTypeError(f"invalid int value: {shown}") from None


def _radii(text: str) -> list[int]:
    try:
        radii = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad radius list {_quoted(text)}") from exc
    if not radii:
        raise argparse.ArgumentTypeError(f"radius list {_quoted(text)} names no radius")
    return radii


def _decimal(text: str) -> Decimal:
    try:
        value = Decimal(text)
    except ArithmeticError as exc:
        raise argparse.ArgumentTypeError(f"bad decimal {_quoted(text)}") from exc
    if not value.is_finite():
        raise argparse.ArgumentTypeError(f"decimal must be finite, got {_quoted(text)}")
    return value


def build_parser() -> argparse.ArgumentParser:
    # --alpha and --seed go to every command but oracle, which reads neither.
    tuned = argparse.ArgumentParser(add_help=False)
    tuned.add_argument(
        "--alpha",
        default="3/4",
        help="reduction parameter as an exact rational, e.g. 3/4 or 0.9999",
    )
    tuned.add_argument("--seed", type=_int, default=0, help="64-bit experiment seed")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--in", dest="infile", required=True, help="lattice file")
    common.add_argument("--report", help="write a JSON report to this file")

    parser = argparse.ArgumentParser(prog="latforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    lll = sub.add_parser("lll", parents=[tuned, common], help="single reduction")
    lll.set_defaults(run=_cmd_lll)

    hc = sub.add_parser("hc", parents=[tuned, common], help="hill climbing reduction")
    hc.set_defaults(run=_cmd_hc)
    hc.add_argument("--radius", type=_int, help="fixed-radius walk")
    hc.add_argument("--r0", type=_int, help="starting radius of a variable walk")
    hc.add_argument(
        "--rstep", type=_int, help="radius increment per step of an --r0 walk (default 1)"
    )
    hc.add_argument("--psl2", type=_int, help="prime p for the PSL(2,p) walk")
    hc.add_argument("--k", type=_int, default=10, help="permutations per step")
    hc.add_argument("--p", type=_int, default=5, help="maximum steps")
    hc.add_argument("--target", type=_decimal, help="stop once this length is reached")

    ld = sub.add_parser("ldsf", parents=[tuned, common], help="diffusion/fusion reduction")
    ld.set_defaults(run=_cmd_ldsf)
    ld.add_argument("--blocks", type=_int, required=True, help="initial block count")
    ld.add_argument("--inner", type=_int, default=1, help="inner iterations M")
    ld.add_argument("--outer", type=_int, default=1, help="outer iterations N")
    ld.add_argument("--target", type=_decimal, help="stop once this length is reached")

    hy = sub.add_parser("hybrid", parents=[tuned, common], help="multistage pipeline")
    hy.set_defaults(run=_cmd_hybrid)
    hy.add_argument("--stages", required=True, help="JSON stage list file")

    for name, what, run in (
        ("sweep", "shortest-length statistics", _cmd_sweep),
        ("freq", "improvement frequency", _cmd_freq),
    ):
        table = sub.add_parser(name, parents=[tuned, common], help=f"{what} per radius")
        table.set_defaults(run=run)
        table.add_argument("--radii", type=_radii, required=True, help="e.g. 5,10,15")
        table.add_argument("--samples", type=_int, default=100, help="permutations per radius")
        table.add_argument("--out-csv", help="write the table to this CSV file")

    orc = sub.add_parser("oracle", parents=[common], help="exhaustive shortest vector")
    orc.set_defaults(run=_cmd_oracle)
    orc.add_argument("--bound", type=_int, default=2, help="coefficient box half-width")
    orc.add_argument(
        "--budget", type=_int, default=DEFAULT_ENUM_BUDGET, help="enumeration budget"
    )
    return parser


def _write(path: str | None, content: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
    else:
        sys.stdout.write(content)


def _write_table(path: str | None, rows: list[dict]) -> None:
    """Write ``rows`` as CSV, headed by the first row's keys."""
    lines = [",".join(rows[0]), *(",".join(map(str, row.values())) for row in rows)]
    _write(path, "\n".join(lines) + "\n")


def _cmd_lll(args, b: Basis) -> Callable[[], dict]:
    reduced = lll_reduce(b, args.alpha)
    after = metrics(reduced)
    print(
        f"lll: shortest={after.shortest:.6g} longest={after.longest:.6g} "
        f"log10_weight={after.log10_weight:.6g}"
    )
    return lambda: {
        "before": serialize.metrics_dict(metrics(b)),
        "after": serialize.metrics_dict(after),
        "basis": serialize.basis_entries(reduced),
    }


def _cmd_hc(args, b: Basis) -> Callable[[], dict]:
    chosen = [x for x in (args.radius, args.r0, args.psl2) if x is not None]
    if len(chosen) != 1:
        raise ValueError("pass exactly one of --radius, --r0, --psl2")
    if args.rstep is not None and args.r0 is None:
        raise ValueError("--rstep applies only to an --r0 walk")
    if args.radius is not None:
        kind = FixedRadius(args.radius)
    elif args.r0 is not None:
        kind = VariableRadius(args.r0, 1 if args.rstep is None else args.rstep)
    else:
        kind = Psl2(args.psl2)
    cfg = HcConfig(
        kind=kind,
        sample_size=args.k,
        max_steps=args.p,
        alpha=args.alpha,
        target_bound=args.target,
        seed=args.seed,
    )
    trace = hill_climb(b, cfg)
    print(
        f"hc: best shortest={trace.best_metrics.shortest:.6g} "
        f"steps={len(trace.steps)} reached_target={trace.reached_target}"
    )
    return lambda: serialize.hc_trace_dict(trace)


def _cmd_ldsf(args, b: Basis) -> Callable[[], dict]:
    cfg = LdsfConfig(
        servers=args.blocks,
        inner_iters=args.inner,
        outer_iters=args.outer,
        alpha=args.alpha,
        target_bound=args.target,
        seed=args.seed,
    )
    trace = ldsf_run(b, cfg)
    print(
        f"ldsf: best shortest={trace.best_vector_norm:.6g} "
        f"rounds={len(trace.rounds)} reached_target={trace.reached_target}"
    )
    return lambda: serialize.ldsf_trace_dict(trace)


def _cmd_hybrid(args, b: Basis) -> Callable[[], dict]:
    stages = load_stages(args.stages, args.alpha)
    report = run_pipeline(b, stages, seed=args.seed)
    last = report.stage_reports[-1]
    print(
        f"hybrid: stages={len(report.stage_reports)} "
        f"final shortest={last.after.shortest:.6g}"
    )
    return lambda: serialize.pipeline_report_dict(report)


def _cmd_sweep(args, b: Basis) -> Callable[[], dict]:
    from .bench import radius_sweep

    rows = radius_sweep(b, args.radii, args.samples, args.alpha, seed=args.seed)
    rendered = [row.rendered() for row in rows]
    _write_table(args.out_csv, rendered)
    return lambda: {"rows": rendered}


def _cmd_freq(args, b: Basis) -> Callable[[], dict]:
    from .bench import improvement_frequency

    freqs = improvement_frequency(b, args.radii, args.samples, args.alpha, seed=args.seed)
    _write_table(args.out_csv, [{"radius": r, "frequency": f"{f:g}"} for r, f in freqs.items()])
    return lambda: {"frequencies": {str(r): f for r, f in freqs.items()}}


def _cmd_oracle(args, b: Basis) -> Callable[[], dict]:
    result = svp_oracle(b, args.bound, budget=args.budget)
    print(
        f"oracle: lambda1={result.lambda1:.6g} "
        f"checked={result.count_checked} vector=[{', '.join(map(int_str, result.vector))}]"
    )
    return lambda: serialize.svp_dict(result)


def cli_main(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on bad usage; usage is 1 here.
        return 0 if exc.code == 0 else 1
    try:
        echo = {"command": args.command, "input": args.infile}
        if "alpha" in args:
            args.alpha = LllParams(args.alpha)
            echo.update(alpha=str(args.alpha.alpha), seed=args.seed)
        build_report = args.run(args, load_lattice(args.infile).basis)
        if args.report:
            _write(args.report, serialize.to_json({**build_report(), **echo}))
        return 0
    except COMPUTATION_ERRORS as exc:
        print(f"latforge {args.command}: computation failed: {exc}", file=sys.stderr)
        return 2
    except (LatticeError, ValueError, OSError) as exc:
        print(f"latforge {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"latforge {args.command}: internal error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
