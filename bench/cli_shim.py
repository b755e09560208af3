"""Run the spin5 command line the way the installed entry point does.

    python3 bench/cli_shim.py <subcommand> [options]

is `spin5 <subcommand> [options]` with spin5 imported from PYTHONPATH.
When BENCH_TRACE_OUT names a file, the shim wraps the spin5 functions
listed in tracer.TARGETS before calling spin5.cli.main and writes the
spans there when main returns or exits.
"""

import os
import sys

from spin5 import cli


def main() -> int:
    out = os.environ.get("BENCH_TRACE_OUT")
    if not out:
        return cli.main()
    import tracer
    spans = tracer.Tracer()
    spans.install()
    try:
        return cli.main()
    finally:
        spans.dump(out)


if __name__ == "__main__":
    sys.exit(main())
