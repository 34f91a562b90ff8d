"""Byte-for-byte stdout of the paper gallery, the adjunction suite and two
bound quotients.

The golden files hold the stdout of

    python -m quivalg.cli paper-gallery
    python scripts/run_adjunction_suite.py --seed 2024 --vquivers 12
    python -m quivalg.cli bound construct samples/two_loops.quiver samples/two_loops.rel
    python -m quivalg.cli bound construct samples/square.quiver samples/square.rel

The last two pin the quotient construction: the labels, the unit and every
product of a monomial and of a non-monomial (commutative square) bound
path algebra.

Regenerate them with those commands only when a change is meant to alter
the reports.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=env, cwd=ROOT, check=True
    ).stdout


@pytest.mark.parametrize("args, golden", [
    (["-m", "quivalg.cli", "paper-gallery"], "paper_gallery.txt"),
    (["scripts/run_adjunction_suite.py", "--seed", "2024", "--vquivers", "12"],
     "adjunction_suite_2024_12.txt"),
    (["-m", "quivalg.cli", "bound", "construct", "samples/two_loops.quiver",
      "samples/two_loops.rel"], "bound_construct_two_loops.txt"),
    (["-m", "quivalg.cli", "bound", "construct", "samples/square.quiver",
      "samples/square.rel"], "bound_construct_square.txt"),
])
def test_stdout_matches_golden(args, golden):
    assert run_python(args) == (GOLDEN / golden).read_bytes()
