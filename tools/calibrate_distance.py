"""Measure the two unit costs that min_distance's planner weighs against
each other, on the cyclic codes of the paper's parameter table.

    python3 tools/calibrate_distance.py

For each code it times one Z-level (codes._level_weight) and one clean
B-step (codes._rank_step), each the best of REPEAT runs, and prints:

- ns per compared coordinate of a Z word: the level's time over its words
  times the n - k non-pivot columns each word is compared on;
- ns per elimination operation of a B subset: the step's time over its
  subsets times codes._elimination_ops(n - k, w);
- their ratio, the cost of one elimination operation in compared
  coordinates.

The last line gives the median ratio over the codes, the figure that
codes._ELIMINATION_OP_COST holds.  The level and step timed are the largest
ones below a size cap, so that per-call overhead does not dominate, and the
step is below the distance, so that it runs to the end.
"""
from __future__ import annotations

import statistics
import sys
import time
from math import comb
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cycperm.algebra import make_field  # noqa: E402
from cycperm.codes import (  # noqa: E402
    _ELIMINATION_OP_COST,
    _elimination_ops,
    _level_weight,
    _rank_step,
    cyclotomic_cosets,
    cyclic_code,
    min_distance,
)
from cycperm.verification import BATTERY_DISTANCE_BUDGET  # noqa: E402

# (q, n, k) of the table's codes: the distance workload's lengths and n = 29
SHAPES = [(11, 37, 31), (11, 37, 6), (13, 17, 13), (13, 17, 12), (13, 17, 8),
          (13, 17, 9), (13, 23, 12), (13, 23, 11), (13, 29, 15), (13, 29, 14)]
LEVEL_WORDS = 3_000_000
STEP_SUBSETS = 40_000
REPEAT = 3


def table_code(q: int, n: int, k: int):
    """The first cyclic code of dimension k whose defining set is a union
    of nonzero cosets and possibly {0}, in the order of the cosets."""
    cosets = cyclotomic_cosets(n, q)
    for with_zero in (False, True):
        ds: set[int] = set(cosets[0]) if with_zero else set()
        for cs in cosets[1:]:
            if n - len(ds) == k:
                break
            ds |= set(cs)
        if n - len(ds) == k:
            return cyclic_code(n, make_field(q), ds)
    raise ValueError(f"no [{n},{k}] code listed over GF({q})")


def best_time(fn) -> float:
    times = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main() -> int:
    ratios = []
    print(f"{'code':>15} {'level':>5} {'words':>9} {'ns/coord':>8} "
          f"{'step':>4} {'subsets':>8} {'ns/op':>6} {'ratio':>6}")
    for q, n, k in SHAPES:
        lin = table_code(q, n, k).linear
        d = min_distance(lin, BATTERY_DISTANCE_BUDGET).value
        t = max(t for t in range(2, k + 1) if comb(k, t) * (q - 1) ** (t - 1) <= LEVEL_WORDS)
        words = comb(k, t) * (q - 1) ** (t - 1)
        per_coord = best_time(lambda: _level_weight(lin, t)) / (words * (n - k))
        w = max(w for w in range(1, d) if comb(n - 1, w - 1) <= STEP_SUBSETS)
        subsets = comb(n - 1, w - 1)
        per_op = best_time(lambda: _rank_step(lin, w, True)) \
            / (subsets * _elimination_ops(n - k, w))
        ratios.append(per_op / per_coord)
        print(f"GF({q}) [{n},{k}] {t:>5} {words:>9} {per_coord * 1e9:>8.2f} "
              f"{w:>4} {subsets:>8} {per_op * 1e9:>6.2f} {ratios[-1]:>6.1f}")
    print(f"median ratio {statistics.median(ratios):.1f} "
          f"(codes._ELIMINATION_OP_COST = {_ELIMINATION_OP_COST})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
