"""Console entry point of the `spin5` command.

The matrices spin5 works with are at most 80x16, so a second OpenBLAS
thread only spins: on a 2-core host `verify-all` took 15.9 s of CPU for
8.0 s of wall time with two threads, against 8.1 s of CPU with one.  The
command therefore holds OpenBLAS to one thread unless the caller has set
OPENBLAS_NUM_THREADS.  The variable is read when numpy loads, so it is set
here, before spin5 (and with it numpy) is imported; `import spin5` itself
leaves the environment alone.
"""

import os
import sys


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from spin5.cli import main as cli_main
    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
