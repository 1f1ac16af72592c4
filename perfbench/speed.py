"""Host speed, measured beside the program, to scale times to a reference speed.

On a shared host, other tenants slow a CPU-bound Python process by up to
half for seconds or minutes at a time, and a process's own CPU time slows
with it.  A fixed piece of the benchmark's own Python (the position-class
model, polynomial parsing, a JSON round trip) slows in step with wordeq's
queries, because it does the same kind of work: small dicts, tuples,
lists and strings.  The benchmark times that calibration after every
query, and scales the query's time by ``REFERENCE_S`` over the median
calibration of the ``WINDOW`` queries around it.  A scaled time reads as
the time the query would take on a host where the calibration takes
``REFERENCE_S``.

A calibration run right after a query is slower than the next one, and
more so after a heavy query (CPU caches the query has filled with its own
data).  So the first calibration after a query is thrown away and the
second one is kept, and a query's divisor is a median over its
neighbours: no single query moves its own divisor.  Garbage collection is
off while the calibration runs, so the program's heap, which a change may
grow or shrink, does not alter the calibration.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

from . import checks, model

# calibration time at the reference speed (a quiet 2-CPU Xeon VM, Python 3.11)
REFERENCE_S = 0.0004
WINDOW = 21  # calibrations in a query's running median

_BLOB = json.dumps({f"k{i}": [i, str(i) * 3, {"a": i}] for i in range(400)})


def _work():
    model.enumeration_counts([((1, 2), (2, 1))], 2, 6, 2)
    checks.parse_poly("1 + 2X - 3X^2 + X^7 - 12X^19 + X^20")
    json.loads(_BLOB)


def calibrate() -> float:
    """Seconds the calibration takes now, after one settling calibration."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def timed(fn, *args):
    """(result, sample) of fn(*args); a sample is (wall seconds, calibration after)."""
    start = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - start
    return result, (elapsed, calibrate())


def scale(samples) -> list[float]:
    """Scaled seconds of a run of consecutive samples, in the same order."""
    cals = [c for _, c in samples]
    half = WINDOW // 2
    out = []
    for i, (wall, _) in enumerate(samples):
        lo = max(0, min(i - half, len(cals) - WINDOW))
        out.append(wall * REFERENCE_S / statistics.median(cals[lo : lo + WINDOW]))
    return out
