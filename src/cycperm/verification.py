"""Recomputation battery for the reference values the library is built around.

Each row pins one frozen reference claim (a table entry, a group order, a set
identity) against a fresh recomputation.  Three reference entries are known
to disagree with what this library computes; those recomputed values are
cross-validated by an independent second method, the rows carry status
"partial" with an explanatory note, and a drift away from the cross-validated
value still fails the battery.

Scopes group the rows so the fast battery can run without the backtrack
searches: "tables" (code parameter tables and counting), "lemmas" (group
identities at desk scale), "qc" (index-l invariance and block structure),
"slow" (full backtrack orders).
"""
from __future__ import annotations

import csv
import io
import itertools
import random
import time
from dataclasses import dataclass

import numpy as np

from .algebra import make_field, multiplicative_order
from .autgroups import analyze, backtrack_full_group, check_m_p_plus_1, gk_family, multiplier_scan
from .codes import (
    LinearCode,
    as_cyclic,
    count_cyclic_codes,
    cyclic_code,
    enumerate_cyclic_codes,
    is_elementary,
    min_distance,
    permute_code,
)
from .equivalence import (
    ag_set,
    brute_verdict,
    decide_equivalence,
    gr_formula_set,
    hp_membership,
    q_group,
)
from .perm import (
    PermGroup,
    Permutation,
    block_system_valid,
    conjugation_set,
    normalizer_in_symmetric,
)
from .quasicyclic import (
    QuasiCyclicCode,
    imprimitivity_report,
    normalizer_witnesses,
    qc_sylow,
    sigma_cycles,
)

SCOPES = ("tables", "lemmas", "qc", "slow")


@dataclass(frozen=True)
class VerificationRow:
    claim_id: str
    scope: str
    expected: str
    computed: str
    status: str            # match | mismatch | partial
    runtime: float
    note: str = ""

    def to_json(self) -> dict:
        # runtime is deliberately absent: reports must be byte-identical
        # across runs of the same configuration
        return {
            "claim_id": self.claim_id,
            "scope": self.scope,
            "expected": self.expected,
            "computed": self.computed,
            "status": self.status,
            "note": self.note,
        }


def _row(claim_id: str, scope: str, expected, computed, t0: float) -> VerificationRow:
    e, c = str(expected), str(computed)
    status = "match" if e == c else "mismatch"
    return VerificationRow(claim_id, scope, e, c, status, time.perf_counter() - t0)


def _erratum_row(claim_id: str, scope: str, reference, corrected, computed,
                 t0: float, note: str) -> VerificationRow:
    """Row whose frozen reference value is known wrong.  The recomputation is
    expected to produce `corrected`; anything else is a real failure."""
    c = str(computed)
    if c == str(corrected):
        status, msg = "partial", note
    else:
        status, msg = "mismatch", (f"{note}; recomputation drifted from the "
                                   f"cross-validated value {corrected}")
    return VerificationRow(claim_id, scope, str(reference), c,
                           status, time.perf_counter() - t0, msg)


# --- tables ------------------------------------------------------------------------

# (q, n, m, [n,k,d], dual [n,k,d]); the one commented entry is the known
# reference erratum: every [19,3] candidate has exhaustively-enumerated
# distance 16
_PARAMETER_TABLE = [
    (11, 5, 2, (5, 3, 3), (5, 2, 4)),
    (11, 5, 1, (5, 2, 4), (5, 3, 3)),
    (11, 7, 3, (7, 4, 4), (7, 3, 5)),
    (11, 19, 3, (19, 16, 3), (19, 3, 6)),
    (11, 37, 6, (37, 31, 5), (37, 6, 27)),
    (13, 7, 2, (7, 5, 3), (7, 2, 6)),
    (13, 7, 2, (7, 3, 5), (7, 4, 4)),
    (13, 17, 4, (17, 13, 4), (17, 4, 12)),
    (13, 17, 4, (17, 12, 4), (17, 5, 11)),
    (13, 17, 4, (17, 8, 8), (17, 9, 7)),
    (13, 17, 8, (17, 9, 8), (17, 8, 9)),
    (13, 23, 11, (23, 12, 9), (23, 11, 10)),
    (13, 29, 14, (29, 15, 11), (29, 14, 12)),
]

_TABLE_ERRATA = {(11, 19, 3, 16): "exhaustive enumeration of all 11^3 dual "
                                  "codewords gives distance 16 for every "
                                  "qualifying code; the support rank scan "
                                  "confirms no word of weight below 16"}


def _distance_token(res) -> str:
    return str(res.lower) if res.exact else f"[{res.lower},{res.upper}]"


def _distance_ok(res, stated: int) -> bool:
    if res.exact:
        return res.lower == stated
    return res.lower <= stated <= res.upper


# distance budget for the table rows, large enough that every row certifies
# its distances exactly.  The n = 29 codes need Z-levels 4 and 5: 2.4M and
# 62.3M words for the [29,15] code, 41.5M at level 5 for the [29,14] one.
# A budget that leaves level 5 out sends the [29,15] code to rank steps,
# which cost more and end as an interval.  A row still accepts an interval
# when the stated value lies inside
BATTERY_DISTANCE_BUDGET = 70_000_000


def _table_row(q: int, n: int, m: int, prim, dual, codes,
               scope: str) -> VerificationRow:
    t0 = time.perf_counter()
    expected = f"[{prim[0]},{prim[1]},{prim[2]}] m={m} dual d={dual[2]}"
    best = None
    for code in codes:
        if code.k != prim[1]:
            continue
        if multiplier_scan(code)[1] != m:
            continue
        dl = code.dual()
        if dl.k != dual[1] or multiplier_scan(dl)[1] != m:
            continue
        d1 = min_distance(code.linear, budget=BATTERY_DISTANCE_BUDGET)
        d2 = min_distance(dl.linear, budget=BATTERY_DISTANCE_BUDGET)
        ok1 = _distance_ok(d1, prim[2])
        ok2 = _distance_ok(d2, dual[2])
        cand = (ok1 + ok2, d1, d2)
        if best is None or cand[0] > best[0]:
            best = cand
        if ok1 and ok2:
            break
    claim = f"table-{q}-{n}-m{m}-k{prim[1]}"
    if best is None:
        return VerificationRow(claim, scope, expected, "no code with these "
                               "parameters and multiplier order", "mismatch",
                               time.perf_counter() - t0)
    _, d1, d2 = best
    computed = (f"[{prim[0]},{prim[1]},{_distance_token(d1)}] m={m} "
                f"dual d={_distance_token(d2)}")
    if best[0] == 2:
        status, note = "match", ""
    else:
        key = (q, n, m, d2.lower if d2.exact else -1)
        if key in _TABLE_ERRATA and _distance_ok(d1, prim[2]):
            status, note = "partial", _TABLE_ERRATA[key]
        else:
            status, note = "mismatch", "stated distances not reproduced"
    return VerificationRow(claim, scope, expected, computed, status,
                           time.perf_counter() - t0, note)


def _tables_rows(seed: int) -> list[VerificationRow]:
    rows = []
    for q, n, expect in ((11, 5, 32), (13, 5, 4), (2, 7, 8), (2, 49, 32)):
        t0 = time.perf_counter()
        rows.append(_row(f"count-{q}-{n}", "tables", expect,
                         count_cyclic_codes(n, make_field(q)), t0))
    t0 = time.perf_counter()
    elem = [is_elementary(c.linear) for c in enumerate_cyclic_codes(5, make_field(13))]
    rows.append(_row("count-13-5-elementary", "tables", "4 of 4",
                     f"{sum(elem)} of {len(elem)}", t0))
    t0 = time.perf_counter()
    hams = [c for c in enumerate_cyclic_codes(7, make_field(2))
            if c.k == 4 and min_distance(c.linear).value == 3]
    rows.append(_row("count-2-7-hamming", "tables", 2, len(hams), t0))
    catalogue: dict[tuple[int, int], list] = {}
    for q, n, m, prim, dual in _PARAMETER_TABLE:
        if (q, n) not in catalogue:
            catalogue[(q, n)] = enumerate_cyclic_codes(n, make_field(q))
        rows.append(_table_row(q, n, m, prim, dual, catalogue[(q, n)], "tables"))
    return rows


# --- group identities at desk scale --------------------------------------------------

def _lemmas_rows(seed: int) -> list[VerificationRow]:
    rng = random.Random(seed)
    rows = []

    # the multiplier by p+1 fixes every code of length p^2, and the
    # multiplicative order of q climbs the prime-power tower as p^(r-1)*t
    for q, p, n, expect_ord in ((2, 7, 49, 21), (2, 3, 9, 6), (11, 5, 25, 5)):
        t0 = time.perf_counter()
        codes = enumerate_cyclic_codes(n, make_field(q))
        fixed = sum(check_m_p_plus_1(c) for c in codes)
        rows.append(_row(f"mult-fix-{q}-{n}", "lemmas",
                         f"{len(codes)} of {len(codes)}",
                         f"{fixed} of {len(codes)}", t0))
        t0 = time.perf_counter()
        # ord mod p^2 should be p times ord mod p for these non-Wieferich pairs
        rows.append(_row(f"ord-tower-{q}-{n}", "lemmas",
                         f"{expect_ord} = {p}*{multiplicative_order(q, p)}",
                         f"{multiplicative_order(q, n)} = "
                         f"{p}*{multiplicative_order(q, p)}", t0))

    # the normalizer of the full shift is exactly the affine group
    for n, order in ((5, 20), (7, 42), (9, 54)):
        t0 = time.perf_counter()
        shift_group = PermGroup.from_generators(n, [Permutation.shift(n)])
        norm = normalizer_in_symmetric(shift_group)
        same = norm == frozenset(ag_set(n))
        rows.append(_row(f"ag-normalizer-{n}", "lemmas",
                         f"order {order}, affine",
                         f"order {len(norm)}, {'affine' if same else 'other'}", t0))

    # restricted conjugation sets at length 9, built from centralizer cosets:
    # of the shift group, and of the 27-element polynomial-map group; the
    # formula-produced set matches the construction
    t0 = time.perf_counter()
    T9 = Permutation.shift(9)
    h_shift = conjugation_set(T9, PermGroup.from_generators(9, [T9]))
    rows.append(_row("h-of-shift-9", "lemmas", "affine group, order 54",
                     f"{'affine group' if h_shift == frozenset(ag_set(9)) else 'other'},"
                     f" order {len(h_shift)}", t0))
    t0 = time.perf_counter()
    q2, q12 = q_group(9, 2)
    _, q11 = q_group(9, 1)
    h_q11 = conjugation_set(T9, q11)
    same = len(h_q11) == q2.order() and all(s in q2 for s in h_q11)
    rows.append(_row("h-of-q11-equals-q2", "lemmas", "equal, order 162",
                     f"{'equal' if same else 'different'},"
                     f" order {len(h_q11)}", t0))
    t0 = time.perf_counter()
    formula = gr_formula_set(9, 2)
    rows.append(_row("conjugation-formula-9", "lemmas", "equal, order 162",
                     f"{'equal' if formula == h_q11 else 'different'},"
                     f" order {len(formula)}", t0))
    t0 = time.perf_counter()
    norm_p = normalizer_in_symmetric(q11)
    rows.append(_erratum_row(
        "sylow-normalizer-9", "lemmas", "order 54", "order 162",
        f"order {len(norm_p)}", t0,
        "the brute-force normalizer of the 27-element group strictly exceeds "
        "the 54-element family; it coincides with the 162-element "
        "polynomial-map group, cross-validated by closure"))

    # generalized multiplier families: verified by their generators against
    # every code (construction raises on any failure), orders t_k * p^k
    for q, n, orders in ((2, 9, (6, 54)), (2, 49, (21, 1029))):
        t0 = time.perf_counter()
        codes = enumerate_cyclic_codes(n, make_field(q))
        done = 0
        got: list[int] = []
        for k in (1, 2):
            sizes = set()
            for c in codes:
                fam, _ = gk_family(c, k)
                sizes.add(fam.order())
                done += 1
            got.append(sizes.pop() if len(sizes) == 1 else -1)
        rows.append(_row(f"gk-verified-{q}-{n}", "lemmas",
                         f"orders {list(orders)}, {2 * len(codes)} verified",
                         f"orders {got}, {done} verified", t0))

    # imprimitive full groups at length 9 admit the orbits of the cubed shift
    # as blocks
    t0 = time.perf_counter()
    blocks_ok = total = 0
    cube_orbits = tuple(tuple(range(i, 9, 3)) for i in range(3))
    for c in enumerate_cyclic_codes(9, make_field(2)):
        if is_elementary(c.linear):
            continue
        rep = analyze(c, run_backtrack=True)
        if rep.classification.label != "IMPRIMITIVE":
            continue
        total += 1
        G = PermGroup(9, rep.discovered_generators)
        blocks_ok += block_system_valid(G, cube_orbits)
    rows.append(_row("blocks-9", "lemmas", f"{total} of {total}",
                     f"{blocks_ok} of {total}", t0))

    # equivalence strategies agree with the exhaustive oracle on the full
    # desk-scale catalogues
    for n, strategy in ((7, "MULTIPLIER"), (9, "HP")):
        t0 = time.perf_counter()
        codes = enumerate_cyclic_codes(n, make_field(2))
        agree = pairs = 0
        for c1, c2 in itertools.combinations(codes, 2):
            pairs += 1
            verdict = decide_equivalence(c1, c2, strategy)
            truth = brute_verdict(c1.linear, c2.linear).status
            if verdict.status != truth:
                continue
            if verdict.witness is not None and permute_code(
                    c1.linear, verdict.witness) != c2.linear:
                continue
            agree += 1
        rows.append(_row(f"equiv-agree-{n}", "lemmas", f"{pairs} of {pairs}",
                         f"{agree} of {pairs}", t0))

    # the same-dimension pairs of GF(3) cyclic codes of length 8 reach both
    # HP's scans (the digit scalings where W_T fixes the first code, H(P)
    # otherwise) and BRUTE's search, which no pair above does (the binary
    # codes of length 9 have 8 different dimensions); an HP verdict agrees
    # when it is inconclusive or BRUTE's, with its witness confirmed by
    # permute_code
    t0 = time.perf_counter()
    codes = enumerate_cyclic_codes(8, make_field(3))
    tally = dict.fromkeys(("equivalent", "inequivalent", "inconclusive"), 0)
    agree = 0
    for c1, c2 in ((a, b) for a, b in itertools.combinations(codes, 2) if a.k == b.k):
        verdict = decide_equivalence(c1, c2, "HP")
        tally[verdict.status] += 1
        truth = brute_verdict(c1.linear, c2.linear).status
        agree += verdict.status in ("inconclusive", truth) and (
            verdict.witness is None or permute_code(c1.linear, verdict.witness) == c2.linear)
    counts = ", ".join(f"{v} {k}" for k, v in tally.items())
    rows.append(_row("equiv-agree-3-8", "lemmas",
                     "59 of 59 agree (8 equivalent, 39 inequivalent, 12 inconclusive)",
                     f"{agree} of {sum(tally.values())} agree ({counts})", t0))

    t0 = time.perf_counter()
    pool = [c for c in enumerate_cyclic_codes(9, make_field(2)) if 0 < c.k < 9]
    recovered = 0
    for _ in range(20):
        c = rng.choice(pool)
        a = rng.choice([u for u in range(1, 9) if u % 3 != 0])
        b = rng.randrange(9)
        image = permute_code(c.linear, Permutation.affine(9, a, b))
        other = as_cyclic(image)
        verdict = decide_equivalence(c, other, "HP")
        if (verdict.status == "equivalent"
                and permute_code(c.linear, verdict.witness) == other.linear):
            recovered += 1
    rows.append(_row("equiv-planted-9", "lemmas", "20 of 20",
                     f"{recovered} of 20", t0))
    return rows


# --- quasi-cyclic ---------------------------------------------------------------------

def _product_identity_failures(limit: int) -> tuple[int, int]:
    """(checked, failed) over every divisor l of every n in 2..limit: the
    cycles sigma_i = (i, i+l, ..., i+(m-1)l), m = n/l, are the rows of one
    (l, m) index array.  When its entries are a permutation of 0..n-1 the
    cycles are disjoint, so their product is the union map, which sends each
    entry to the next one in its row; it must be T^l."""
    checked = failures = 0
    for n in range(2, limit + 1):
        base = np.arange(n)
        for l in range(1, n + 1):
            if n % l:
                continue
            cycles = (base[:l, None] + base[:n // l] * l) % n
            union = np.empty(n, dtype=np.int64)
            union[cycles] = np.roll(cycles, -1, axis=1)
            checked += 1
            if not (np.array_equal(np.sort(cycles, axis=None), base)
                    and np.array_equal(union, (base + l) % n)):
                failures += 1
    return checked, failures


def _interleave(a: LinearCode, b: LinearCode) -> LinearCode:
    n = 2 * a.n
    rows = []
    for src, off in ((a, 0), (b, 1)):
        for r in src.matrix:
            row = [0] * n
            for i, x in enumerate(r):
                row[2 * i + off] = x
            rows.append(row)
    return LinearCode.from_rows(a.field, n, rows)


def _circulant_coupled(v: tuple[int, ...]) -> QuasiCyclicCode:
    rows = []
    for i in range(5):
        row = [0] * 10
        row[2 * i] = 1
        for j in range(5):
            row[2 * j + 1] = v[(j - i) % 5]
        rows.append(row)
    return QuasiCyclicCode(LinearCode.from_rows(make_field(2), 10, rows), 2)


def _qc_examples() -> dict[str, QuasiCyclicCode]:
    gf2 = make_field(2)
    rep = cyclic_code(5, gf2, {1, 2, 3, 4}).linear
    par = cyclic_code(5, gf2, {0}).linear
    eye = LinearCode.from_rows(gf2, 10, [[1 if j == i else 0 for j in range(10)]
                                         for i in range(10)])
    return {
        "rep-par": QuasiCyclicCode(_interleave(rep, par), 2),
        "circulant-a": _circulant_coupled((1, 1, 0, 0, 0)),
        "circulant-b": _circulant_coupled((1, 1, 1, 0, 0)),
        "full-space": QuasiCyclicCode(eye, 2),
    }


def _qc_rows(seed: int) -> list[VerificationRow]:
    rng = random.Random(seed)
    rows = []

    t0 = time.perf_counter()
    checked, failures = _product_identity_failures(1000)
    sample_bad = 0
    for _ in range(25):
        n = rng.randrange(2, 151)
        ls = [l for l in range(1, n + 1) if n % l == 0]
        l = rng.choice(ls)
        cycles = sigma_cycles(n, l)
        prod = cycles[0]
        for c in cycles[1:]:
            prod = prod * c
        sample_bad += prod != Permutation.power_shift(n, l)
    rows.append(_row("cycle-product-identity", "qc",
                     "7068 of 7068, sample 25 of 25",
                     f"{checked - failures} of {checked}, "
                     f"sample {25 - sample_bad} of 25", t0))

    for n, l, orders in ((15, 3, (375, 120)), (10, 2, (50, 40))):
        t0 = time.perf_counter()
        qg, ag = normalizer_witnesses(n, l)   # raises on any conjugation failure
        rows.append(_row(f"conjugation-law-{n}-{l}", "qc",
                         f"Q={orders[0]} AG={orders[1]}, 0 violations",
                         f"Q={qg.order()} AG={ag.order()}, 0 violations", t0))

    t0 = time.perf_counter()
    t2 = Permutation.power_shift(10, 2)
    shift_group = PermGroup.from_generators(10, [t2])
    hprime = conjugation_set(t2, shift_group)
    norm = normalizer_in_symmetric(shift_group)
    rows.append(_row("hprime-of-shift-10", "qc", "equal, order 200",
                     f"{'equal' if hprime == norm else 'different'},"
                     f" order {len(hprime)}", t0))

    examples = _qc_examples()
    t0 = time.perf_counter()
    P = qc_sylow(examples["rep-par"])
    inside = sum(hp_membership(tau, P, 2) for tau in ag_set(10))
    rows.append(_row("affine-in-hprime-10", "qc", "40 of 40",
                     f"{inside} of 40", t0))

    residues = {frozenset(range(0, 10, 2)), frozenset(range(1, 10, 2))}
    for key, closure in (("rep-par", 800), ("circulant-a", 200), ("circulant-b", 200)):
        t0 = time.perf_counter()
        rep = imprimitivity_report(examples[key])
        has_blocks = any({frozenset(b) for b in bs.blocks} == residues
                         for bs in rep.block_systems)
        rows.append(_row(f"qc-blocks-{key}", "qc",
                         f"IMPRIMITIVE closure={closure} residue-blocks=True",
                         f"{rep.conclusion} closure={rep.closure_order} "
                         f"residue-blocks={has_blocks}", t0))

    t0 = time.perf_counter()
    rep = imprimitivity_report(examples["full-space"])
    rows.append(_erratum_row(
        "qc-closure-full-space", "qc",
        "symmetric group, order 3628800", "order 800",
        f"order {rep.closure_order}", t0,
        "the membership condition caps the set at 800 elements for any code "
        "here: 16 order-5 conjugation targets of the right cycle type times "
        "the 50-element centralizer of the index shift; the closure is the "
        "full normalizer of the Sylow group, which is imprimitive, not the "
        "symmetric group"))

    t0 = time.perf_counter()
    parity = Permutation.shift(10).parity()
    rows.append(_row("shift-parity-10", "qc", "odd",
                     "odd" if parity == 1 else "even", t0))
    return rows


# --- backtrack searches ---------------------------------------------------------------

def _slow_rows(seed: int) -> list[VerificationRow]:
    rows = []
    gf2, gf3 = make_field(2), make_field(3)

    t0 = time.perf_counter()
    ham15 = cyclic_code(15, gf2, {1, 2, 4, 8})
    rep = analyze(ham15, run_backtrack=True)
    rows.append(_row("backtrack-hamming-15", "slow",
                     "order 20160, PGAMMAL(4, 2)",
                     f"order {rep.full_group_order}, {rep.classification.name}",
                     t0))

    t0 = time.perf_counter()
    golay = cyclic_code(11, gf3, {1, 3, 9, 5, 4})
    rep = analyze(golay, run_backtrack=True)
    rows.append(_row("backtrack-golay-11", "slow", "order 660, PSL_2_11",
                     f"order {rep.full_group_order}, {rep.classification.name}", t0))

    t0 = time.perf_counter()
    rep5 = cyclic_code(5, gf2, {1, 2, 3, 4})
    bt = backtrack_full_group(rep5.linear)
    rows.append(_row("backtrack-repetition-5", "slow", "order 120",
                     f"order {bt.order}", t0))
    return rows


# --- battery assembly -------------------------------------------------------------------

_SCOPE_RUNNERS = {
    "tables": _tables_rows,
    "lemmas": _lemmas_rows,
    "qc": _qc_rows,
    "slow": _slow_rows,
}


def run_battery(scopes: tuple[str, ...] = ("tables", "lemmas", "qc"),
                seed: int = 0) -> list[VerificationRow]:
    for s in scopes:
        if s not in _SCOPE_RUNNERS:
            raise ValueError(f"unknown scope {s!r}; choose from {SCOPES}")
    rows: list[VerificationRow] = []
    for s in SCOPES:
        if s in scopes:
            rows.extend(_SCOPE_RUNNERS[s](seed))
    return rows


def battery_summary(rows: list[VerificationRow]) -> dict:
    return {
        "total": len(rows),
        "match": sum(r.status == "match" for r in rows),
        "partial": sum(r.status == "partial" for r in rows),
        "mismatch": sum(r.status == "mismatch" for r in rows),
    }


def exit_status(rows: list[VerificationRow]) -> int:
    """Nonzero only for a true mismatch; documented reference errata report
    as partial and do not fail the battery."""
    return 3 if any(r.status == "mismatch" for r in rows) else 0


def battery_csv(rows: list[VerificationRow]) -> str:
    """CSV export.  Unlike the JSON report this includes the per-row runtime,
    so it is a diagnostic artifact, not a byte-stable one."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["claim_id", "scope", "expected", "computed", "status",
                     "runtime_s", "note"])
    for r in rows:
        writer.writerow([r.claim_id, r.scope, r.expected, r.computed,
                         r.status, f"{r.runtime:.3f}", r.note])
    return buf.getvalue()
