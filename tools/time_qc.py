"""Time imprimitivity_report and the STRUCTURED equivalence search on seeded
quasi-cyclic codes, shape by shape.

    python3 tools/time_qc.py

For each shape (q, n, l) in SHAPES it draws CODES codes with
random.Random(SEED): each is the span of the T^l-orbits of one or two
random vectors, neither zero nor the whole space.  Per code it times
imprimitivity_report, STRUCTURED against a planted image (the code moved by
a random affine map x -> a x + b), and STRUCTURED against an unplanted
partner (the next drawn code of the same dimension, up to TRIES draws; the
pair is skipped when none comes).  Each call is timed REPEAT times and its
median is counted; every timed call builds its codes afresh from their
rows, so its time includes their generator and parity matrices.  qc_sylow
alone is timed the same way on a code built once, and its median per code
is printed in milliseconds.  Per shape it prints the co-index
m = n/l = p^r, whether l < p or l > p, the total seconds of each of the
three calls, and the verdict tally of the two searches.
"""
from __future__ import annotations

import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cycperm.algebra import make_field, prime_power, units  # noqa: E402
from cycperm.codes import LinearCode, permute_code  # noqa: E402
from cycperm.perm import Permutation  # noqa: E402
from cycperm.quasicyclic import (  # noqa: E402
    QuasiCyclicCode,
    imprimitivity_report,
    qc_equivalence_search,
    qc_sylow,
)

# co-index p with l < p, r >= 2 with l < p, then l > p (r = 1 and r >= 2);
# a new shape goes last, so the shapes before it keep their seeded draws
SHAPES = [(2, 10, 2), (2, 14, 2), (2, 15, 3), (3, 15, 3), (2, 21, 3),
          (2, 18, 2), (2, 50, 2),
          (3, 6, 3), (3, 12, 3), (2, 12, 4), (2, 15, 5),
          (3, 20, 5), (3, 28, 7), (2, 63, 7)]
CODES = 4
TRIES = 20
REPEAT = 5
SEED = 0
STATUSES = ("equivalent", "inequivalent", "inconclusive")


def random_rows(rng: random.Random, field, n: int, l: int) -> list[list[int]]:
    """The rows of a random T^l-invariant code: the T^l-orbits of one or
    two random vectors, their span neither zero nor everything."""
    while True:
        rows = []
        for _ in range(rng.randint(1, 2)):
            v = [rng.randrange(field.order) for _ in range(n)]
            rows += [[v[(i - s * l) % n] for i in range(n)] for s in range(n // l)]
        lin = LinearCode.from_rows(field, n, rows)
        if 0 < lin.k < n:
            return [list(r) for r in lin.matrix]


def timed(call) -> tuple[float, object]:
    """The median seconds of REPEAT runs of call(), and its last result."""
    times = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        out = call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def main() -> int:
    rng = random.Random(SEED)
    for q, n, l in SHAPES:
        field = make_field(*prime_power(q))
        p, r = prime_power(n // l)

        def code(rows: list[list[int]]) -> QuasiCyclicCode:
            return QuasiCyclicCode(LinearCode.from_rows(field, n, rows), l)

        seconds = {"sylow": 0.0, "report": 0.0, "planted": 0.0, "unplanted": 0.0}
        tally = {"planted": dict.fromkeys(STATUSES, 0), "unplanted": dict.fromkeys(STATUSES, 0)}
        for _ in range(CODES):
            rows = random_rows(rng, field, n, l)
            k = len(rows)
            tau = Permutation.affine(n, rng.choice(units(n)), rng.randrange(n))
            image = [list(x) for x in permute_code(code(rows).linear, tau).matrix]
            partner = next((other for other in (random_rows(rng, field, n, l) for _ in range(TRIES))
                            if len(other) == k and other != rows), None)
            once = code(rows)
            dt, _ = timed(lambda: qc_sylow(once))
            seconds["sylow"] += dt
            dt, _ = timed(lambda: imprimitivity_report(code(rows)))
            seconds["report"] += dt
            for kind, rows2 in (("planted", image), ("unplanted", partner)):
                if rows2 is None:
                    continue
                dt, verdict = timed(lambda: qc_equivalence_search(code(rows), code(rows2),
                                                                  "STRUCTURED"))
                seconds[kind] += dt
                tally[kind][verdict.status] += 1
        counts = {kind: ", ".join(f"{t[s]} {s}" for s in STATUSES if t[s])
                  for kind, t in tally.items()}
        print(f"GF({q}) n = {n}, l = {l}, m = {p}^{r} ({'l < p' if l < p else 'l > p'}): "
              f"{CODES} codes; "
              f"qc_sylow {seconds['sylow'] / CODES * 1e3:.2f} ms per code; "
              f"report {seconds['report']:.4f} s; planted {seconds['planted']:.4f} s "
              f"({counts['planted']}); unplanted {seconds['unplanted']:.4f} s "
              f"({counts['unplanted'] or 'no partner'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
