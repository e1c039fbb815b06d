"""Time the splitting data of x^n - 1 and the minimal polynomials of its
cyclotomic cosets, from a cold start, field by field.

    python3 tools/time_roots.py

For each (q, n) in SIZES it starts REPEAT fresh processes.  Each one times,
in order, make_field for the splitting field GF(q^t) (the search for its
canonical modulus), root_system(GF(q), n) (alpha and its powers), and
minimal_polynomial on every q-cyclotomic coset mod n, with nothing cached
beforehand.  Per (q, n) it prints t, the number of cosets and the median
milliseconds of each of the three steps.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

# the distance workload's fields, then larger `cycperm factor` sizes
SIZES = [(11, 19), (11, 37), (13, 17), (13, 23), (2, 9), (2, 27),
         (13, 29), (2, 73), (2, 127), (4, 29)]
REPEAT = 5
STEPS = ("field_ms", "roots_ms", "cosets_ms")


def time_once(q: int, n: int) -> dict:
    """One cold run: the three steps' milliseconds, t and the coset count."""
    from cycperm.algebra import make_field, minimal_polynomial, multiplicative_order, prime_power, root_system
    from cycperm.codes import cyclotomic_cosets

    p, s = prime_power(q)
    t = multiplicative_order(q, n)
    marks = [time.perf_counter()]
    base = make_field(p, s)
    make_field(p, s * t)
    marks.append(time.perf_counter())
    root_system(base, n)
    marks.append(time.perf_counter())
    cosets = cyclotomic_cosets(n, q)
    for coset in cosets:
        minimal_polynomial(base, n, coset)
    marks.append(time.perf_counter())
    out = {step: 1000 * (b - a) for step, a, b in zip(STEPS, marks, marks[1:])}
    out.update(t=t, cosets=len(cosets))
    return out


def main() -> int:
    if sys.argv[1:2] == ["--one"]:
        print(json.dumps(time_once(int(sys.argv[2]), int(sys.argv[3]))))
        return 0
    print(f"{'q':>3} {'n':>4} {'t':>3} {'cosets':>6} " + " ".join(f"{s:>10}" for s in STEPS))
    for q, n in SIZES:
        runs = [json.loads(subprocess.run(
            [sys.executable, __file__, "--one", str(q), str(n)],
            capture_output=True, text=True, check=True).stdout) for _ in range(REPEAT)]
        med = {step: statistics.median(r[step] for r in runs) for step in STEPS}
        print(f"{q:>3} {n:>4} {runs[0]['t']:>3} {runs[0]['cosets']:>6} "
              + " ".join(f"{med[s]:>10.2f}" for s in STEPS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
