"""One set-up sample: import quivalg and build the first round of inputs.

``run.py`` starts this script in a fresh interpreter and times it from
process start until it prints ``ready``; that interval is one ``setup_s``
sample.  Usage: ``python3 bench/probe.py WORKLOAD SEED``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import quivalg  # noqa: E402,F401  (the import is part of what is timed)

import gen  # noqa: E402
import jobs  # noqa: E402,F401

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    gen.make_round(workload, seed, 0, gen.prepare(workload))
    print("ready", flush=True)
