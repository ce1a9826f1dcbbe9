"""Child process of a traced run.

    python3 perfbench/traced_main.py SPANS.json cli ARGS...
    python3 perfbench/traced_main.py SPANS.json certify ARGS...

Imports latforge, installs the tracer, runs the CLI (``cli_main``) or the
certify driver with ARGS, writes the recorded spans to SPANS.json and exits
with the program's exit code.
"""

from __future__ import annotations

import sys

import latforge.cli

from tracer import Tracer


def main(argv: list[str]) -> int:
    out, kind, *args = argv
    tracer = Tracer()
    tracer.install()
    if kind == "cli":
        code = latforge.cli.cli_main(args)
    else:
        import certify

        code = certify.main(args)
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
