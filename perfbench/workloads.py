"""Seeded request lists for the four benchmark workloads.

Everything here is plain Python: cyclotomic cosets, multiplier classes and
random draws are computed without importing cycperm, so the library under
test only ever sees the finished requests.

A workload is a list of strata.  One round draws one request group from each
stratum; the run executes whole rounds.  Every round of a workload therefore
has the same composition, and the seed only chooses which codes fill it.
That keeps round times comparable between seeds while every seed still
hands the library codes it has not seen under another seed.  How many rounds
a run covers depends only on the workload and the run's length, never on how
fast the rounds go, so two runs of one seed time the same codes.

Some families are restricted by dimension: the members left out take many
times longer than the rest, or never return, and a single one of them would
exceed a whole run's time budget.  perfbench/README.md lists what was left
out.
"""
from __future__ import annotations

import itertools
import json
import random
from functools import partial
from math import gcd
from typing import Callable

# seconds one round takes at the baseline (perfbench/README.md), rounded
# up: a run of 30 s covers 3, 4, 2 and 3 rounds
ROUND_S = {"autgroup": 8, "equiv": 7, "qc": 13, "distance": 9}

WORKLOADS = ("autgroup", "equiv", "qc", "distance")

# verification.BATTERY_DISTANCE_BUDGET, the budget of the table rows
DISTANCE_BUDGET = 2_000_000

# q -> (p, s)
FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 11: (11, 1), 13: (13, 1)}

# the paper's parameter table, (q, n, m, (n, k, d), dual (n, k, d)); the
# stated dual distance 6 of the [19,3] code is the pinned erratum, replaced
# below by the cross-validated 16
PARAMETER_TABLE = [
    (11, 19, 3, (19, 16, 3), (19, 3, 6)),
    (11, 37, 6, (37, 31, 5), (37, 6, 27)),
    (13, 17, 4, (17, 13, 4), (17, 4, 12)),
    (13, 17, 4, (17, 12, 4), (17, 5, 11)),
    (13, 17, 4, (17, 8, 8), (17, 9, 7)),
    (13, 17, 8, (17, 9, 8), (17, 8, 9)),
    (13, 23, 11, (23, 12, 9), (23, 11, 10)),
    (13, 29, 14, (29, 15, 11), (29, 14, 12)),
]
TABLE_ERRATA = {(11, 19, 3, 3): 16}


def table_distances() -> dict[tuple[int, int, int, int], int]:
    """(q, n, k, m) -> stated minimum distance, errata applied."""
    out = {}
    for q, n, m, prim, dual in PARAMETER_TABLE:
        for _, k, d in (prim, dual):
            out[(q, n, k, m)] = d
    out.update(TABLE_ERRATA)
    return out


# --- cyclic code catalogues ---------------------------------------------------

def cyclotomic_cosets(n: int, q: int) -> list[tuple[int, ...]]:
    seen: set[int] = set()
    out = []
    for i in range(n):
        if i in seen:
            continue
        coset, j = [], i
        while j not in coset:
            coset.append(j)
            j = j * q % n
        seen.update(coset)
        out.append(tuple(sorted(coset)))
    return out


def cyclic_defining_sets(n: int, q: int) -> list[tuple[int, ...]]:
    """Defining sets of all non-elementary cyclic codes of length n over GF(q):
    every union of cosets except the empty set, {0}, all but {0}, and all."""
    cosets = cyclotomic_cosets(n, q)
    out = []
    for mask in range(1 << len(cosets)):
        ds = sorted(i for b, cs in enumerate(cosets) if mask >> b & 1 for i in cs)
        if len(ds) in (0, n) or ds == [0] or ds == list(range(1, n)):
            continue
        out.append(tuple(ds))
    return out


def units(n: int) -> list[int]:
    return [a for a in range(1, n) if gcd(a, n) == 1]


def multiplier_image(ds, a: int, n: int) -> tuple[int, ...]:
    return tuple(sorted(a * i % n for i in ds))


def multiplier_count(ds, n: int) -> int:
    """m = |{a unit : a * D = D}|."""
    d = frozenset(ds)
    return sum(1 for a in units(n) if frozenset(a * i % n for i in d) == d)


def multiplier_orbit(ds, n: int) -> list[tuple[int, ...]]:
    """The defining sets of the codes a multiplier maps this one onto."""
    return sorted({multiplier_image(ds, a, n) for a in units(n)})


def by_dimension(q: int, n: int, dims) -> list[tuple[int, ...]]:
    return [ds for ds in cyclic_defining_sets(n, q) if n - len(ds) in dims]


# --- strata -------------------------------------------------------------------

def _code(q: int, n: int, ds) -> dict:
    return {"q": q, "n": n, "ds": list(ds)}


def _analyze(q: int, n: int, pool, rng: random.Random) -> list[dict]:
    return [{"op": "analyze", "code": _code(q, n, rng.choice(pool))}]


def _dual_defining_set(ds, n: int) -> tuple[int, ...]:
    """The dual of the cyclic code with defining set D has defining set
    {0..n-1} minus -D."""
    neg = {-i % n for i in ds}
    return tuple(i for i in range(n) if i not in neg)


def _distance(q: int, n: int, pool, with_dual: bool, rng: random.Random) -> list[dict]:
    """A code, and with_dual its dual: the two columns of a table row."""
    ds = rng.choice(pool)
    return [{"op": "analyze", "code": _code(q, n, d), "distance_budget": DISTANCE_BUDGET}
            for d in ([ds, _dual_defining_set(ds, n)] if with_dual else [ds])]


def _equiv_pairs(q: int, n: int, pool, rng: random.Random) -> list[dict]:
    """A planted multiplier image (truth: equivalent) and a random code of
    the same dimension outside the first code's multiplier class (truth:
    unknown), or the first code itself when the family has no such code.
    Both pairs share the first code."""
    ds = rng.choice(pool)
    a = rng.choice(units(n)[1:])
    orbit = multiplier_orbit(ds, n)
    same_k = [d for d in cyclic_defining_sets(n, q) if len(d) == len(ds)]
    partner = rng.choice([d for d in same_k if d not in orbit] or [ds])
    first = _code(q, n, ds)
    return [{"op": "equiv", "code": first,
             "other": _code(q, n, multiplier_image(ds, a, n)), "planted": a},
            {"op": "equiv", "code": first, "other": _code(q, n, partner),
             "planted": None}]


def _planted_image(n: int, rng: random.Random) -> list[int]:
    a, b = rng.choice(units(n)), rng.randrange(n)
    return [(a * i + b) % n for i in range(n)]


def _circulant(rng: random.Random) -> dict:
    """[I | circulant] over GF(2) with a random first row, columns
    interleaved so that T^2 acts: n = 10, l = 2.  The rows 00000 and 11111
    are left out: the first gives a degenerate code, the second a code with
    four times as many H'(P) members, which takes twice as long."""
    row = [0] * 5
    while len(set(row)) == 1:
        row = [rng.randrange(2) for _ in range(5)]
    return {"kind": "circulant", "q": 2, "n": 10, "index": 2, "row": row}


# over GF(2) and GF(3) the cosets mod 5 are {0} and {1,2,3,4}: the proper
# non-trivial length-5 cyclic codes are the even-weight and the repetition code
_EVEN, _REPETITION = (0,), (1, 2, 3, 4)


def _interleave(q: int, parts) -> dict:
    """len(parts) interleaved length-5 cyclic codes: n = 5l, index l."""
    return {"kind": "interleave", "q": q, "n": 5 * len(parts), "index": len(parts),
            "parts": [list(p) for p in parts]}


def _qc_circulant(rng: random.Random) -> list[dict]:
    """The H'(P) report and a search for a planted affine image x -> ax + b.
    Both go through an S_10 scan and take 4-5 s."""
    qc = _circulant(rng)
    return [{"op": "qc_report", "qc": qc},
            {"op": "qc_equiv", "qc": qc, "image": _planted_image(10, rng)}]


def _qc_interleave3(rng: random.Random) -> list[dict]:
    """n = 15, l = 3: the structured path.  Three copies of one code are
    left out; those take 5-8 s, the mixed ones about 1 s."""
    parts = [(_EVEN, _REPETITION)[b] for b in rng.choice(
        [bits for bits in itertools.product((0, 1), repeat=3) if len(set(bits)) == 2])]
    qc = _interleave(3, parts)
    return [{"op": "qc_report", "qc": qc},
            {"op": "qc_equiv", "qc": qc, "image": _planted_image(15, rng)}]


def strata(workload: str) -> list[tuple[str, Callable[[random.Random], list[dict]]]]:
    """(name, draw) pairs; draw(rng) returns the requests of one stratum."""
    if workload == "autgroup":
        def aut(q, n, pool):
            return partial(_analyze, q, n, sorted(pool))
        return [
            # Hamming [15,11] and ternary Golay [11,6] are in every round
            ("hamming15", aut(2, 15, [(1, 2, 4, 8)])),
            ("golay11", aut(3, 11, [(1, 3, 4, 5, 9)])),
            ("gf2-n7", aut(2, 7, cyclic_defining_sets(7, 2))),
            # the [15,7] codes with group order 360; most other binary
            # length-15 codes take 14-22 s or do not return within 40 s
            ("gf2-n15", aut(2, 15, multiplier_orbit((1, 2, 3, 4, 6, 8, 9, 12), 15))),
            # k = 3, 10: k = 6, 7 mix 0.03 s and 3 s cases
            ("gf3-n13", aut(3, 13, by_dimension(3, 13, {3, 10}))),
            # GF(4) sends the leaf test through permute_code; k = 3, 4 take
            # 1.0-1.4 s, k = 5 up to 2 s, k = 1, 2, 6..8 take 3-13 s or do not
            # return within 30 s
            ("gf4-n9", aut(4, 9, by_dimension(4, 9, {3, 4}))),
        ]
    if workload == "equiv":
        # GF(11) n = 25 is left out: one decision takes 6-10 s
        return [
            ("gf2-n9", partial(_equiv_pairs, 2, 9, cyclic_defining_sets(9, 2))),
            # k = 19..24 take 3-44 s per decision
            ("gf2-n27", partial(_equiv_pairs, 2, 27,
                                by_dimension(2, 27, {2, 3, 6, 7, 8, 9, 25}))),
        ]
    if workload == "qc":
        # the n = 10 interleavings are left out: their report takes 7-8 s and
        # the search 9-12 s
        return [
            ("circulant-n10", _qc_circulant),
            ("interleave-gf3-n15", _qc_interleave3),
        ]
    if workload == "distance":
        table = table_distances()
        out = []
        # GF(13) n = 29 is left out: each code takes 8-11 s and ends as an
        # interval.  At lengths 19 and 17 a single code is drawn (they take
        # milliseconds); length 19 always draws a [19,3] code, whose distance
        # is the pinned erratum
        for q, n in ((11, 19), (11, 37), (13, 17), (13, 23)):
            # the codes whose (k, m) has a row in the parameter table
            pool = [ds for ds in cyclic_defining_sets(n, q)
                    if (q, n, n - len(ds), multiplier_count(ds, n)) in table
                    and (n != 19 or n - len(ds) == 3)]
            out.append((f"gf{q}-n{n}", partial(_distance, q, n, pool, n in (23, 37))))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def round_count(workload: str, seconds: float) -> int:
    """The rounds a run of `seconds` covers: as many as fit at the baseline,
    at least one."""
    return max(1, int(seconds / ROUND_S[workload]))


def request_rounds(workload: str, seed: int, rounds: int) -> list[list[dict]]:
    """The seed's first `rounds` rounds of requests, with stable ids."""
    rng = random.Random(f"{workload}:{seed}")
    layers = strata(workload)
    out = []
    for r in range(rounds):
        batch = []
        for name, draw in layers:
            for j, req in enumerate(draw(rng)):
                req["id"] = f"r{r}.{name}.{j}"
                batch.append(req)
        out.append(batch)
    return out


def serialize(rounds: list[list[dict]]) -> bytes:
    return json.dumps(rounds, sort_keys=True, separators=(",", ":")).encode()
