"""Run a command and fail when its peak RSS is over a bound.

    python tools/rss_gate.py LABEL BOUND_MB [--stdout FILE] -- COMMAND...

COMMAND runs to its end, its standard output into FILE when one is
given.  The line ``LABEL: peak RSS <x> MB`` is then printed, x the
child's ``ru_maxrss`` in MB, and the gate exits 1 when x is over
BOUND_MB, 0 otherwise.  A command that fails fails the gate, with no
line printed.
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("label", help="name of the run in the printed line")
    parser.add_argument("bound", type=float, help="largest peak RSS, in MB")
    parser.add_argument("--stdout", help="file for the command's output")
    parser.add_argument("command", nargs="+", help="the command to run")
    args = parser.parse_args(argv)
    if args.stdout is None:
        done = subprocess.run(args.command)
    else:
        with open(args.stdout, "w") as out:
            done = subprocess.run(args.command, stdout=out)
    if done.returncode:
        print(f"{args.label}: exited with status {done.returncode}",
              file=sys.stderr)
        return 1
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{args.label}: peak RSS {rss:.1f} MB")
    return int(rss > args.bound)


if __name__ == "__main__":
    sys.exit(main())
