"""Compare the automorphism search with and without the known cyclic
subgroup entered on its chain, over a catalogue of cyclic codes.

    python3 tools/search_nodes.py

For every non-elementary cyclic code of each (q, n) in CATALOGUE it runs
autgroups.backtrack_full_group twice: once from an empty chain, and once
seeded with the generators of known_cyclic_subgroup (the shift, the
multipliers and the G_k families), as analyze runs it.  Per (q, n) it
prints the code count, the number of codes on which both searches give the
same order, and the nodes and seconds of each search, then the totals.  The
seconds cover the search alone; the code's own distance is computed once
before either search is timed, so neither pays it.  The script exits 1 when
an order differs or the seeded search walks more nodes on some code.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cycperm.algebra import make_field, prime_power  # noqa: E402
from cycperm.autgroups import backtrack_full_group, known_cyclic_subgroup  # noqa: E402
from cycperm.codes import enumerate_cyclic_codes, is_elementary, min_distance  # noqa: E402

CATALOGUE = [(2, 7), (2, 9), (2, 15), (2, 17), (3, 8), (3, 10), (3, 11), (3, 13),
             (4, 5), (4, 7), (4, 9), (5, 6)]


def timed_search(lin, seeds):
    t0 = time.perf_counter()
    res = backtrack_full_group(lin, seeds=seeds)
    return res, time.perf_counter() - t0


def main() -> int:
    print(f"{'q':>2} {'n':>3} {'codes':>5} {'same':>5} {'nodes':>9} {'seeded':>9} "
          f"{'s':>7} {'seeded s':>8}")
    totals = [0] * 6
    worse = []
    for q, n in CATALOGUE:
        row = [0] * 6
        for code in enumerate_cyclic_codes(n, make_field(*prime_power(q))):
            lin = code.linear
            if is_elementary(lin):
                continue
            min_distance(lin)
            plain, plain_s = timed_search(lin, ())
            seeded, seeded_s = timed_search(lin, known_cyclic_subgroup(code)[0])
            if seeded.nodes > plain.nodes:
                worse.append((q, n, sorted(code.defining_set)))
            row = [a + b for a, b in zip(row, (1, plain.order == seeded.order, plain.nodes,
                                               seeded.nodes, plain_s, seeded_s))]
        totals = [a + b for a, b in zip(totals, row)]
        print(f"{q:>2} {n:>3} {row[0]:>5} {row[1]:>5} {row[2]:>9,} {row[3]:>9,} "
              f"{row[4]:>7.2f} {row[5]:>8.2f}")
    print(f"{'all':>6} {totals[0]:>5} {totals[1]:>5} {totals[2]:>9,} {totals[3]:>9,} "
          f"{totals[4]:>7.2f} {totals[5]:>8.2f}")
    for q, n, ds in worse:
        print(f"seeded search walks more nodes: q={q} n={n} D={ds}")
    return 0 if totals[1] == totals[0] and not worse else 1


if __name__ == "__main__":
    sys.exit(main())
