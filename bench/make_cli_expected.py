"""Record the byte-exact stdout and exit code of every cli-mix command.

Run from the repository root after a deliberate change to quivalg's output:

    python3 bench/make_cli_expected.py

It rewrites ``bench/cli_expected.json``; review the diff before committing,
since the benchmark treats these outputs as the correct answers.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gen  # noqa: E402
from jobs import run_cli  # noqa: E402


def main() -> int:
    os.chdir(ROOT)
    gen.write_cli_files()
    expected = {}
    for cid, argv in gen.CLI_POOL:
        answer = run_cli((tuple(argv),))
        expected[cid] = answer
        print(f"{cid}: exit {answer['exit']}, {len(answer['stdout'])} bytes")
    with open(gen.CLI_EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
