"""Time the group layer on its own: stabilizer-chain adds, closures and
orders, family by family, with the sifts and compositions they make.

    python3 tools/time_chain.py

Three families:
- search adds: the chain adds of the automorphism search on the autgroup
  benchmark's codes (Hamming [15,11], ternary Golay [11,6], every
  non-elementary binary code of length 7, the binary [15,7] codes in the
  multiplier orbit of the defining set {1, 2, 3, 4, 6, 8, 9, 12}, the GF(3)
  n = 13 codes of dimension 3 and 10 and the GF(4) n = 9 codes of dimension
  3 and 4), seeded as analyze seeds it.  Each search runs once with
  StabilizerChain.add logged; the seeds and leaf additions, with their
  arguments, are then replayed in order into a fresh chain on the
  search's base, and only the replay is timed.
- qc closures: PermGroup.from_rows on the rows imprimitivity_report closes
  (the generators of C(T^l), then the sigma_rho) for every code of
  tests/qc_golden.json.
- known orders: PermGroup.order of known_cyclic_subgroup's generators of
  the same codes as the search adds, each group built afresh.
Per family it prints the median seconds of REPEAT timed passes, and from
one more pass with counters in place, the sifts (StabilizerChain.sift
calls) and the compositions (image tuples built as a product: sift strips,
transversal elements and Schreier generators).
"""
from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cycperm import perm  # noqa: E402
from cycperm.algebra import make_field, prime_power, units  # noqa: E402
from cycperm.autgroups import backtrack_full_group, known_cyclic_subgroup  # noqa: E402
from cycperm.codes import LinearCode, cyclic_code, enumerate_cyclic_codes, is_elementary  # noqa: E402
from cycperm.perm import (  # noqa: E402
    PermGroup,
    Permutation,
    StabilizerChain,
    centralizer_generators,
    conjugation_cosets,
)
from cycperm.quasicyclic import QuasiCyclicCode, qc_sylow  # noqa: E402

REPEAT = 21
COMPOSERS = ("_compose", "_compose3")


def autgroup_codes() -> list:
    """The autgroup benchmark's codes, stratum by stratum."""
    def field(q):
        return make_field(*prime_power(q))

    def non_elementary(q, n):
        return [c for c in enumerate_cyclic_codes(n, field(q)) if not is_elementary(c.linear)]

    orbit = {frozenset(a * i % 15 for i in (1, 2, 3, 4, 6, 8, 9, 12)) for a in units(15)}
    return ([cyclic_code(15, field(2), {1, 2, 4, 8}), cyclic_code(11, field(3), {1, 3, 4, 5, 9})]
            + non_elementary(2, 7)
            + [c for c in non_elementary(2, 15) if c.defining_set in orbit]
            + [c for c in non_elementary(3, 13) if c.k in (3, 10)]
            + [c for c in non_elementary(4, 9) if c.k in (3, 4)])


def search_adds(codes) -> list[tuple[int, list[int], list[tuple]]]:
    """Per code: the degree, the search chain's base and the argument
    tuples of every StabilizerChain.add the search made, in order."""
    out = []
    add = StabilizerChain.add
    for code in codes:
        calls, chains = [], []

        def logged(self, g, *rest):
            calls.append((g, *rest))
            chains.append(self)
            return add(self, g, *rest)
        StabilizerChain.add = logged
        try:
            backtrack_full_group(code.linear, seeds=known_cyclic_subgroup(code)[0])
        finally:
            StabilizerChain.add = add
        out.append((code.n, list(chains[0].base), calls))
    return out


def qc_rows() -> list[tuple[int, list]]:
    """Per tests/qc_golden.json code, the degree and the rows
    imprimitivity_report closes."""
    out = []
    for entry in json.loads((ROOT / "tests" / "qc_golden.json").read_text()):
        q, n, l = entry["q"], entry["n"], entry["index"]
        lin = LinearCode.from_rows(make_field(*prime_power(q)), n, entry["rows"])
        tl = Permutation.power_shift(n, l)
        cosets = conjugation_cosets(tl, qc_sylow(QuasiCyclicCode(lin, l)))
        out.append((n, [g.images for g in centralizer_generators(tl)] + cosets.tolist()))
    return out


def families() -> dict:
    """name -> a callable doing one pass of the family's group work."""
    codes = autgroup_codes()
    adds = search_adds(codes)
    closures = qc_rows()
    known = [(c.n, known_cyclic_subgroup(c)[0]) for c in codes]

    def replay():
        for n, base, calls in adds:
            chain = StabilizerChain(n, base)
            for args in calls:
                chain.add(*args)

    def close():
        for n, rows in closures:
            PermGroup.from_rows(n, rows).order()

    def orders():
        for n, gens in known:
            PermGroup.from_generators(n, gens).order()

    return {f"search adds ({len(adds)} searches, {sum(len(c) for _, _, c in adds)} adds)": replay,
            f"qc closures ({len(closures)} codes)": close,
            f"known orders ({len(known)} groups)": orders}


def counted(run) -> tuple[int, int]:
    """The sifts and compositions of one pass of run()."""
    counts = {"sift": 0, "compose": 0}
    sift = StabilizerChain.sift
    composers = {name: getattr(perm, name) for name in COMPOSERS if hasattr(perm, name)}

    def counted_sift(self, *args):
        counts["sift"] += 1
        return sift(self, *args)

    def counting(f):
        def wrapped(*args):
            counts["compose"] += 1
            return f(*args)
        return wrapped
    StabilizerChain.sift = counted_sift
    for name, f in composers.items():
        setattr(perm, name, counting(f))
    try:
        run()
    finally:
        StabilizerChain.sift = sift
        for name, f in composers.items():
            setattr(perm, name, f)
    return counts["sift"], counts["compose"]


def main() -> int:
    for name, run in families().items():
        times = []
        for _ in range(REPEAT):
            t0 = time.perf_counter()
            run()
            times.append(time.perf_counter() - t0)
        sifts, compositions = counted(run)
        print(f"{name}: {statistics.median(times):.4f} s, {sifts:,} sifts, "
              f"{compositions:,} compositions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
