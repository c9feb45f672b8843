"""A probe of the host's current speed: a tiny fixed piece of pure-Python work.

Other tenants of the host slow this machine down, by up to 80%, for a few
seconds up to minutes at a time, and CPU time slows with wall time, so no
clock tells the program's speed from the host's.  child.py therefore times
this work every TICK_EVERY_S of wall time while the command runs, from a
timer signal in the same process, and run.py rescales the command's seconds
to a host on which one tick takes TICK_S.  The work shares no code with
torslab, so no change to torslab moves it; it does what torslab's inner
loops do, elimination over a prime field on small integer rows.
"""

import time

TICK_S = 0.00015  # nominal seconds of one tick on a quiet host; a scale only
TICK_EVERY_S = 0.02


def _rows(seed, n=7, p=3):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            seed = (seed * 1103515245 + 12345) % 2**31
            row.append(seed % p)
        rows.append(row)
    return rows


_MATRICES = [_rows(seed) for seed in (1, 2, 3)]


def _rref(rows, p):
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        r += 1
    return tuple(tuple(x) for x in rows[:r])


def tick_s():
    """Seconds taken by one tick of the fixed work."""
    start = time.perf_counter()
    for m in _MATRICES:
        _rref(m, 3)
    return time.perf_counter() - start


def speed(ticks):
    """Host speed over the ticks' seconds: 1 on a host where a tick takes TICK_S."""
    return sum(TICK_S / t for t in ticks) / len(ticks)
