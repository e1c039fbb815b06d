"""Time the code-action test, codes.maps_onto ("does sigma map C1 onto
C2"), on its own, per call, on the batch shapes the workloads hand it; then
the check of one reported map, codes.reencodes_onto, and the RREF, codes.rref,
on the matrices the workloads reduce.

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

The second table times, per call, the check of one map sigma
(reencodes_onto, as witness_scan checks a witness and analyze, through
fixed_by, a reported generator) and the RREF of a matrix (rref, as
from_rows, permute_code and dual build a code), on:

- GF(2) [27,24] (D = {0, 9, 18}), a length-27 code of the equiv workload:
  the witness x -> 2x + 1 onto its image, and the rref of G[:, sigma^-1],
  the image permute_code builds;
- Hamming [15,11]: the check of the multiplier M_2, and the rref of its
  4 x 15 parity check, the dual that each automorphism search builds;
- the GF(3) quasi-cyclic n = 15 code above: the check of x -> 2x + 1 onto
  the planted image, and the rref of the interleaved rows, the code qc
  builds from rows;
- GF(4) [9,4]: the check of x -> 2x + 1 onto its image, and the rref of
  G[:, sigma^-1].
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cycperm.algebra import make_field, units  # noqa: E402
from cycperm.autgroups import gk_family  # noqa: E402
from cycperm.codes import (  # noqa: E402
    LinearCode,
    cyclic_code,
    maps_onto,
    permute_code,
    reencodes_onto,
    rref,
)
from cycperm.perm import Permutation, shift_coset_leaders  # noqa: E402
from cycperm.quasicyclic import QuasiCyclicCode, qc_sylow  # noqa: E402

REPEAT = 5
LOOP_S = 0.05


def multipliers(n: int) -> np.ndarray:
    return np.outer(units(n), range(n)) % n


def interleaved_rows() -> list[list[int]]:
    """The rows of the GF(3) quasi-cyclic n = 15, l = 3 code: the RREF rows
    of the three length-5 codes, interleaved."""
    F, n, l = make_field(3), 15, 3
    rows = []
    for off, ds in enumerate([(0,), (1, 2, 3, 4), (0,)]):
        for r in cyclic_code(5, F, ds).linear.matrix:
            row = [0] * n
            for i, x in enumerate(r):
                row[l * i + off] = x
            rows.append(row)
    return rows


def interleaved_qc() -> tuple[LinearCode, LinearCode, np.ndarray]:
    """The quasi-cyclic code, its image under x -> 2x + 1 and the H'(P)
    leaders of its qc_sylow P."""
    F, n, l = make_field(3), 15, 3
    code = LinearCode.from_rows(F, n, interleaved_rows())
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


def single_maps():
    """(name, c1, c2, sigma, rows): a map sigma of c1 onto c2 and the matrix
    whose RREF the shape's path computes."""
    gf2 = cyclic_code(27, make_field(2), {0, 9, 18}).linear
    gf4 = cyclic_code(9, make_field(2, 2), {0, 1, 4, 7, 3}).linear
    hamming = cyclic_code(15, make_field(2), {1, 2, 4, 8}).linear
    qc, qc_image, _ = interleaved_qc()
    for name, code in (("GF(2) [27,24] witness", gf2), ("GF(4) [9,4] witness", gf4)):
        sigma = Permutation.affine(code.n, 2, 1)
        permuted = code.generator[:, list(sigma.inverse().images)]
        yield name, code, permute_code(code, sigma), sigma, permuted
    yield ("Hamming [15,11] M_2 and dual", hamming, hamming, Permutation.multiplier(15, 2),
           hamming.parity_check)
    yield "GF(3) qc n=15 rows", qc, qc_image, Permutation.affine(15, 2, 1), \
        np.array(interleaved_rows())


def per_call(call) -> float:
    """Seconds per call of call(), best of REPEAT loops of about LOOP_S each."""
    t0, calls = time.perf_counter(), 0
    while time.perf_counter() - t0 < LOOP_S:
        call()
        calls += 1
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        for _ in range(calls):
            call()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best


def main() -> int:
    print(f"{'shape':>30} {'[n,k]':>8} {'q':>3} {'B':>6} {'entries':>10} {'us/call':>10}")
    for name, c1, c2, images in shapes():
        s = c1.field.degree
        entries = len(images) * c1.n * s * (c1.n - c1.k) * s
        print(f"{name:>30} {f'[{c1.n},{c1.k}]':>8} {c1.field.order:>3} {len(images):>6} "
              f"{entries:>10} {per_call(lambda: maps_onto(c1, c2, images)) * 1e6:>10.1f}")
    print()
    print(f"{'shape':>30} {'[n,k]':>8} {'q':>3} {'rref rows':>10} {'check us':>10} {'rref us':>10}")
    for name, c1, c2, sigma, rows in single_maps():
        if not reencodes_onto(c1, c2, [sigma])[0]:
            raise RuntimeError(f"{name}: {sigma} does not map c1 onto c2")
        check = per_call(lambda: reencodes_onto(c1, c2, [sigma]))
        reduce = per_call(lambda: rref(rows, c1.field))
        print(f"{name:>30} {f'[{c1.n},{c1.k}]':>8} {c1.field.order:>3} "
              f"{f'{len(rows)} x {c1.n}':>10} {check * 1e6:>10.1f} {reduce * 1e6:>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
