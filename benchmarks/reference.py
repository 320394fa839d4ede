"""A fixed reference workload that does not use ncjets, timed to track the machine's speed.

On a shared host the same code runs 20-30% faster or slower for tens of
seconds to minutes at a time, in CPU time as well as in wall time.
``run.py`` times ``reference_work`` between queries, for ``REF_SHARE``
of the query time, and reports the mean pass time
multiplied by ``REF_NOMINAL_S / mean reference time`` (``wall_norm_s``):
the pass time at the speed the reference loop had on the machine the
benchmark was calibrated on.  The reference does the same kind of work as
the library - exact row reduction in numpy object arrays over Q (Fractions)
and mod 2^31-1, an object matrix product, a JSON round trip - but none of
its code, so a change to ncjets leaves it unchanged.
"""

from __future__ import annotations

import json
from fractions import Fraction
from time import perf_counter

import numpy as np

P31 = 2**31 - 1
# A typical time of reference_work() on the 2-core Intel Xeon VM the
# benchmark was calibrated on (run medians there ranged 0.044-0.079 s);
# wall_norm_s is in seconds at that speed.
REF_NOMINAL_S = 0.07
# Share of a pass's query time spent on reference samples, taken after
# each query.  A sample every few seconds tracked the speed no better than
# none; one after every query of about half a second did.
REF_SHARE = 0.15


def _lcg_matrix(n: int, seed: int = 12345) -> list[list[int]]:
    x, rows = seed, []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (1103515245 * x + 12345) % 2**31
            row.append(x % 7 - 3)
        rows.append(row)
    return rows


_INTS = _lcg_matrix(20)  # full rank over Q and mod P31


def _rank(a: np.ndarray, scale, reduce) -> int:
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i, c] != 0), None)
        if piv is None:
            continue
        a[[r, piv]] = a[[piv, r]]
        a[r] = reduce(a[r] * scale(a[r, c]))
        for i in range(rows):
            if i != r and a[i, c] != 0:
                a[i] = reduce(a[i] - a[i, c] * a[r])
        r += 1
    return r


def reference_work() -> tuple[int, int, int]:
    """Ranks over Q and mod P31 of a fixed 20x20 integer matrix, then a product and JSON."""
    q = np.array([[Fraction(x) for x in row] for row in _INTS], dtype=object)
    rank_q = _rank(q, lambda x: 1 / x, lambda v: v)
    m = np.array([[x % P31 for x in row] for row in _INTS], dtype=object)
    rank_p = _rank(m, lambda x: pow(int(x), P31 - 2, P31), lambda v: v % P31)
    text = json.dumps([[str(x) for x in row] for row in q.dot(q.T)])
    return rank_q, rank_p, len(json.loads(text))


def time_reference() -> float:
    """Seconds taken by one reference_work(), which must give full rank."""
    t0 = perf_counter()
    out = reference_work()
    elapsed = perf_counter() - t0
    if out != (20, 20, 20):
        raise RuntimeError(f"reference work gave {out}, not full rank")
    return elapsed
