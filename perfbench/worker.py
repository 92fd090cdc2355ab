"""One pass of the benchmark in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACE   # TRACE is 0 or 1
    python3 perfbench/worker.py setup                 # import and parser only
    python3 perfbench/worker.py smoke                 # every subcommand at defaults

Only os, sys and time are loaded before the timed import of dyadlab.cli, so
``setup_s`` covers everything that import pulls in, numpy included. The last
line of standard output is one JSON object with the measurements.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(argv: list) -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import dyadlab.cli as cli
    cli.build_parser()
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"dyadlab was imported from {cli.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import jobs
    return jobs.main(cli, setup_s, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
