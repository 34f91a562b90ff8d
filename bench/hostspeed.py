"""Host-speed calibration for the end-to-end times.

On a shared host the same job can take twice as long from one minute to the
next, because other tenants compete for the same cores.  Runs of one seed
then differ more than any change worth measuring.  So the benchmark times a
fixed calibration between jobs: an exact Fraction elimination that shares no
code with quivalg, so no change to quivalg can speed it up.  A round's job
times are scaled by ``REFERENCE_S / mean calibration time in that round``.
That reports them at the speed of a host on which the calibration takes
REFERENCE_S.  Raw wall times are printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0015   # calibration time on an uncontended reference host

_N = 7
_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(_N)]
           for i in range(_N)]


def calibrate() -> float:
    """Seconds taken by one fixed 7x7 rational row reduction."""
    t0 = time.perf_counter()
    rows = [list(r) for r in _MATRIX]
    for c in range(_N):
        piv = next((r for r in range(c, _N) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[c], rows[piv] = rows[piv], rows[c]
        pv = rows[c][c]
        rows[c] = [x / pv for x in rows[c]]
        for r in range(_N):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return time.perf_counter() - t0


def factor(samples) -> float:
    """Scale that maps times measured alongside ``samples`` to reference speed."""
    return REFERENCE_S / statistics.fmean(samples)
