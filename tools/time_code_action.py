"""Time the code-action test, codes.maps_onto ("does sigma map C1 onto
C2"), on its own, per call, on the batch shapes the workloads hand it.

    python3 tools/time_code_action.py

Each line is one shape: the code, the permutations, the batch size B, the
entries of the gathered parity rows of the whole batch (B * n*s *
(n-k)*s, the figure codes._STACKED_ENTRIES bounds) and the time per call,
the best of REPEAT runs of a loop long enough to take about LOOP_S.  The
shapes are:

- GF(2) [27,8] (D = {0} and the 2-coset of 1): the two generators of G_2,
  the batch gk_family checks, and the 18 multipliers of multipliers_onto;
- GF(11) [37,31], a code of the paper's parameter table: its 36
  multipliers;
- GF(4) [9,4]: its 6 multipliers;
- Hamming [15,11]: one permutation, the leaf test of the automorphism
  search;
- the GF(3) quasi-cyclic n = 15, l = 3 code of the interleaved even-weight,
  repetition and even-weight codes of length 5: every H'(P) leader against
  a planted affine image, the witness scan of qc_equivalence_search.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cycperm.algebra import make_field, units  # noqa: E402
from cycperm.autgroups import gk_family  # noqa: E402
from cycperm.codes import LinearCode, cyclic_code, maps_onto  # noqa: E402
from cycperm.perm import Permutation, shift_coset_leaders  # noqa: E402
from cycperm.quasicyclic import QuasiCyclicCode, qc_sylow  # noqa: E402

REPEAT = 5
LOOP_S = 0.05


def multipliers(n: int) -> np.ndarray:
    return np.outer(units(n), range(n)) % n


def interleaved_qc() -> tuple[LinearCode, LinearCode, np.ndarray]:
    """The quasi-cyclic code, its image under x -> 2x + 1 and the H'(P)
    leaders of its qc_sylow P."""
    F, n, l = make_field(3), 15, 3
    rows = []
    for off, ds in enumerate([(0,), (1, 2, 3, 4), (0,)]):
        for r in cyclic_code(5, F, ds).linear.matrix:
            row = [0] * n
            for i, x in enumerate(r):
                row[l * i + off] = x
            rows.append(row)
    code = LinearCode.from_rows(F, n, rows)
    image = [(2 * i + 1) % n for i in range(n)]
    moved = [[0] * n for _ in code.matrix]
    for row, r in zip(moved, code.matrix):
        for i, x in enumerate(r):
            row[image[i]] = x
    leaders, _ = shift_coset_leaders(qc_sylow(QuasiCyclicCode(code, l)), l)
    return code, LinearCode.from_rows(F, n, moved), leaders


def shapes():
    cyclic = cyclic_code(27, make_field(2), {0} | {2 ** i % 27 for i in range(18)})
    gf2 = cyclic.linear
    gf11 = cyclic_code(37, make_field(11), {1, 11, 10, 36, 26, 27}).linear
    gf4 = cyclic_code(9, make_field(2, 2), {0, 1, 4, 7, 3}).linear
    hamming = cyclic_code(15, make_field(2), {1, 2, 4, 8}).linear
    g2, _ = gk_family(cyclic, 2)
    qc, qc_image, leaders = interleaved_qc()
    yield "GF(2) [27,8] G_2 generators", gf2, gf2, np.array([g.images for g in g2.generators])
    yield "GF(2) [27,8] multipliers", gf2, gf2, multipliers(27)
    yield "GF(11) [37,31] multipliers", gf11, gf11, multipliers(37)
    yield "GF(4) [9,4] multipliers", gf4, gf4, multipliers(9)
    yield "Hamming [15,11] leaf", hamming, hamming, np.array([Permutation.multiplier(15, 2).images])
    yield "GF(3) qc n=15 H'(P) leaders", qc, qc_image, leaders


def per_call(c1: LinearCode, c2: LinearCode, images: np.ndarray) -> float:
    """Seconds per call, best of REPEAT loops of about LOOP_S each."""
    t0, calls = time.perf_counter(), 0
    while time.perf_counter() - t0 < LOOP_S:
        maps_onto(c1, c2, images)
        calls += 1
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        for _ in range(calls):
            maps_onto(c1, c2, images)
        best = min(best, (time.perf_counter() - t0) / calls)
    return best


def main() -> int:
    print(f"{'shape':>30} {'[n,k]':>8} {'q':>3} {'B':>6} {'entries':>10} {'us/call':>10}")
    for name, c1, c2, images in shapes():
        s = c1.field.degree
        entries = len(images) * c1.n * s * (c1.n - c1.k) * s
        print(f"{name:>30} {f'[{c1.n},{c1.k}]':>8} {c1.field.order:>3} {len(images):>6} "
              f"{entries:>10} {per_call(c1, c2, images) * 1e6:>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
