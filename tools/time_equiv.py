"""Time decide_equivalence(c1, c2, "HP") on distinct same-dimension pairs of
cyclic codes, from families that the equiv benchmark leaves out.

    python3 tools/time_equiv.py

For each family in FAMILIES it lists the pairs of distinct cyclic codes of
one dimension k, 0 < k < n, with q^min(k, n-k) <= PROFILE_BOUND (so each
weight profile enumerates at most 2^18 words), draws PAIRS of them with
random.Random(SEED) (all of them when there are fewer), and decides each
pair with the HP strategy.  Per family it prints the pairs drawn, the
verdict tally, how many verdicts are complete, how many of them the weight
profiles decided (evidence "weight profiles differ"), and the total time of
the decisions, then the count and time of the pairs whose first code
Kaloujnine's W_T fixes (HP decides them by the D scan) and of the rest.
Whether W_T fixes a code is tested outside the timed call, on codes of
their own; each timed pair's codes are built fresh, so its time includes
their generator and parity matrices.  A complete verdict on a distinct pair
is a certified answer: a witness confirmed by re-encoding inside a set
proved to hold one whenever one exists, or an inequivalence proved the same
way.
"""
from __future__ import annotations

import itertools
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cycperm.algebra import make_field, prime_power  # noqa: E402
from cycperm.codes import CyclicCode, enumerate_cyclic_codes, maps_onto  # noqa: E402
from cycperm.equivalence import decide_equivalence  # noqa: E402
from cycperm.perm import kaloujnine_generators  # noqa: E402

# appended families keep the seeded draws of the earlier ones
FAMILIES = [(11, 25), (4, 27), (13, 27), (3, 16), (5, 8), (7, 25), (8, 27)]
PROFILE_BOUND = 2 ** 18
PAIRS = 40
SEED = 0
STATUSES = ("equivalent", "inequivalent", "inconclusive")
PROFILE_EVIDENCE = "weight profiles differ"


def same_dimension_pairs(q: int, n: int) -> list[tuple[frozenset, frozenset]]:
    """The defining sets (D1, D2) of the pairs of distinct cyclic codes of
    one dimension k, 0 < k < n, with q^min(k, n-k) <= PROFILE_BOUND, by
    ascending k and then in the order of enumerate_cyclic_codes."""
    by_k: dict[int, list[frozenset]] = {}
    for code in enumerate_cyclic_codes(n, make_field(*prime_power(q))):
        k = code.k
        if 0 < k < n and q ** min(k, n - k) <= PROFILE_BOUND:
            by_k.setdefault(k, []).append(code.defining_set)
    return [pair for k in sorted(by_k) for pair in itertools.combinations(by_k[k], 2)]


def wt_fixed(field, n: int, defining_set: frozenset) -> bool:
    """Whether W_T fixes the cyclic code: its level maps all map it onto
    itself."""
    lin = CyclicCode(field, n, defining_set).linear
    return bool(maps_onto(lin, lin, kaloujnine_generators(*prime_power(n))).all())


def main() -> int:
    rng = random.Random(SEED)
    for q, n in FAMILIES:
        field = make_field(*prime_power(q))
        pairs = same_dimension_pairs(q, n)
        drawn = rng.sample(pairs, min(PAIRS, len(pairs)))
        tally = dict.fromkeys(STATUSES, 0)
        complete = profiles = 0
        sides = {True: [0, 0.0], False: [0, 0.0]}       # W_T fixes C1: [pairs, s]
        for d1, d2 in drawn:
            side = sides[wt_fixed(field, n, d1)]
            t0 = time.perf_counter()
            verdict = decide_equivalence(CyclicCode(field, n, d1), CyclicCode(field, n, d2), "HP")
            side[1] += time.perf_counter() - t0
            side[0] += 1
            tally[verdict.status] += 1
            complete += verdict.complete
            profiles += verdict.evidence == PROFILE_EVIDENCE
        counts = ", ".join(f"{tally[s]} {s}" for s in STATUSES)
        print(f"GF({q}) n = {n}: {len(drawn)} of {len(pairs)} pairs; {counts}; "
              f"{complete} complete, {profiles} by weight profiles; "
              f"{sides[True][1] + sides[False][1]:.3f} s; "
              f"W_T fixes C1: {sides[True][0]} pairs, {sides[True][1]:.3f} s; "
              f"not: {sides[False][0]} pairs, {sides[False][1]:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
