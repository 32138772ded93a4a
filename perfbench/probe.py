"""The set-up probe of the benchmark (`setup_s`).

    python perfbench/probe.py POLY DIGITS [POLY DIGITS ...]

The set-up a workload pays before any work: import radixion.cli, build
its parser (by asking for help) and construct each number system with
NumberSystem.parse, which validates it.
"""

from __future__ import annotations

import contextlib
import io
import sys


def setup(specs):
    from radixion import cli
    from radixion.numeration import NumberSystem

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["census", "--help"])
    for poly, digits in zip(specs[::2], specs[1::2]):
        NumberSystem.parse(poly, digits)


def main(argv):
    if argv and len(argv) % 2 == 0:
        setup(argv)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
