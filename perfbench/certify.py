"""Library driver of the ``certify`` workload.

    python3 perfbench/certify.py --report OUT --bound 10 --reduce A.lat ... --svp C.lat ...

Every ``--reduce`` basis is LLL-reduced and then certified with
``is_lll_reduced`` and ``same_lattice(input, reduced)``; every ``--svp``
basis goes through ``svp_oracle`` with the given coefficient bound.  The
JSON report holds the reduced bases, both certificates and the oracle
results.  Functions are called through their modules so that a tracer
installed beforehand sees each call.
"""

from __future__ import annotations

import argparse
import json
import sys

from latforge import core, latfile, lll


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="certify")
    parser.add_argument("--report", required=True)
    parser.add_argument("--bound", type=int, required=True)
    parser.add_argument("--reduce", nargs="+", required=True)
    parser.add_argument("--svp", nargs="+", required=True)
    args = parser.parse_args(argv)

    reduced = []
    for path in args.reduce:
        basis = latfile.load_lattice(path).basis
        out = lll.lll_reduce(basis)
        reduced.append(
            {
                "input": path,
                "basis": [[str(x) for x in row] for row in out.rows],
                "is_lll_reduced": lll.is_lll_reduced(out),
                "same_lattice": core.same_lattice(basis, out),
            }
        )
    oracle = []
    for path in args.svp:
        result = core.svp_oracle(latfile.load_lattice(path).basis, args.bound)
        oracle.append(
            {
                "input": path,
                "vector": [str(x) for x in result.vector],
                "lambda1": str(result.lambda1),
                "count_checked": result.count_checked,
            }
        )
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump({"reduce": reduced, "svp": oracle}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
