"""Time the Z-levels (codes._level_weight) that min_distance takes on the
distance workload's codes, warm and with cold caches.

    python3 tools/time_levels.py

The codes are every defining set the benchmark's `distance` workload can
draw (perfbench/workloads.py), with the dual where the workload also draws
it, and the GF(13) [29,15] code of the parameter table, whose Z-level 5
(62.3M words) is the largest level the battery takes.  For each code it
records the levels min_distance takes at the workload's budget, and times
each distinct (q, n, k, level) on the first code that takes it, REPEAT
times two ways: warm, after one untimed call, and cold, after a pass over
an 8 MB array before every call, as the benchmark's worker makes between
requests (perfbench/worker.py, speed_probe).  It prints, for each level,
the number of workload codes that take it, its words, and the median ms
and ns per word of both ways, then the totals over the workload's levels.
"""
from __future__ import annotations

import statistics
import sys
import time
from math import comb
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import DISTANCE_BUDGET, FIELDS, _dual_defining_set, strata  # noqa: E402

from cycperm import codes  # noqa: E402
from cycperm.algebra import make_field  # noqa: E402
from cycperm.codes import cyclic_code, cyclotomic_cosets  # noqa: E402

REPEAT = 7


def workload_codes() -> list[tuple[int, int, tuple[int, ...]]]:
    """(q, n, defining set) of every code the distance workload can draw."""
    out = []
    for _, draw in strata("distance"):
        q, n, pool, with_dual = draw.args
        for ds in pool:
            out.append((q, n, tuple(ds)))
            if with_dual:
                out.append((q, n, _dual_defining_set(ds, n)))
    return list(dict.fromkeys(out))


def levels_taken(lin, budget: int) -> list[int]:
    """The Z-levels min_distance takes on the code, in order."""
    taken, level = [], codes._level_weight
    codes._level_weight = lambda code, t: taken.append(t) or level(code, t)
    try:
        codes.min_distance(lin, budget)
    finally:
        codes._level_weight = level
    return taken


def median_ms(lin, t: int, flush) -> float:
    times = []
    for _ in range(REPEAT):
        if flush is not None:
            flush += 1
        t0 = time.perf_counter()
        codes._level_weight(lin, t)
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def main() -> int:
    flush = np.arange(1 << 21, dtype=np.int32)          # 8 MB
    rows = {}
    for q, n, ds in workload_codes():
        lin = cyclic_code(n, make_field(*FIELDS[q]), ds).linear
        for t in levels_taken(lin, DISTANCE_BUDGET):
            rows.setdefault((q, n, lin.k, t), [lin, 0])[1] += 1
    battery = cyclic_code(29, make_field(13), cyclotomic_cosets(29, 13)[1]).linear
    print(f"{'code':>15} {'level':>5} {'codes':>5} {'words':>10} {'warm ms':>8} "
          f"{'ns/word':>7} {'cold ms':>8} {'ns/word':>7}")
    totals = [0.0, 0.0]
    for (q, n, k, t), (lin, count) in sorted(rows.items()) + [((13, 29, 15, 5), (battery, 0))]:
        words = comb(k, t) * (q - 1) ** (t - 1)
        codes._level_weight(lin, t)
        warm, cold = median_ms(lin, t, None), median_ms(lin, t, flush)
        if count:
            totals = [totals[0] + warm, totals[1] + cold]
        print(f"GF({q}) [{n},{k}] {t:>5} {count:>5} {words:>10,} {warm:>8.3f} "
              f"{warm * 1e6 / words:>7.1f} {cold:>8.3f} {cold * 1e6 / words:>7.1f}")
    print(f"{'workload levels':>21} {sum(c for _, c in rows.values()):>5} {'':>10} "
          f"{totals[0]:>8.3f} {'':>7} {totals[1]:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
