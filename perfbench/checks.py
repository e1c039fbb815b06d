"""Correctness checks that do not rely on the code under test.

Code membership is tested with the benchmark's own GF(p^s) arithmetic:
sigma maps C1 onto C2 iff G1[:, sigma^-1] . H2^T = 0, where G1 spans C1 and
H2 spans the dual of C2, both of full rank with rank(G1) + rank(H2) = n.
Group orders are recomputed with sympy's Schreier-Sims.  Reference values
are the published orders and the paper's parameter table.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from workloads import multiplier_count, multiplier_orbit, table_distances

# published automorphism group orders, keyed by (q, n, defining set)
PUBLISHED_ORDERS = {
    **{(2, 7, ds): 168 for ds in multiplier_orbit((1, 2, 4), 7)},
    **{(2, 15, ds): 20160 for ds in multiplier_orbit((1, 2, 4, 8), 15)},
    **{(3, 11, ds): 660 for ds in multiplier_orbit((1, 3, 4, 5, 9), 11)},
}


class WrongAnswer(AssertionError):
    """The library returned a result that a check refutes."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


# --- GF(p^s) arithmetic --------------------------------------------------------

@lru_cache(maxsize=None)
def field_tables(p: int, s: int, modulus: tuple[int, ...]):
    """(add, mul, neg, inv) tables of GF(p^s) = GF(p)[x]/(modulus), elements
    encoded as base-p digit strings, lowest digit first."""
    q = p ** s

    def digits(e: int) -> list[int]:
        return [e // p ** i % p for i in range(s)]

    def encode(d) -> int:
        return sum(c * p ** i for i, c in enumerate(d))

    def times(a: int, b: int) -> int:
        prod = [0] * (2 * s - 1)
        for i, x in enumerate(digits(a)):
            for j, y in enumerate(digits(b)):
                prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(2 * s - 2, s - 1, -1):   # modulus is monic
            c = prod[top]
            if c:
                for i, m in enumerate(modulus):
                    prod[top - s + i] = (prod[top - s + i] - c * m) % p
        return encode(prod[:s])

    add = np.array([[encode([(x + y) % p for x, y in zip(digits(a), digits(b))])
                     for b in range(q)] for a in range(q)], dtype=np.int64)
    mul = np.array([[times(a, b) for b in range(q)] for a in range(q)], dtype=np.int64)
    neg = np.array([int(np.nonzero(add[a] == 0)[0][0]) for a in range(q)], dtype=np.int64)
    inv = np.array([0] + [int(np.nonzero(mul[a] == 1)[0][0]) for a in range(1, q)],
                   dtype=np.int64)
    return add, mul, neg, inv


def _tables(m: dict):
    return field_tables(m["p"], m["s"], tuple(m["modulus"]))


def gf_product(A: np.ndarray, B: np.ndarray, tables) -> np.ndarray:
    """A . B^T over the field."""
    add, mul, _, _ = tables
    acc = np.zeros((A.shape[0], B.shape[0]), dtype=np.int64)
    for c in range(A.shape[1]):
        acc = add[acc, mul[A[:, c][:, None], B[:, c][None, :]]]
    return acc


def gf_rank(M: np.ndarray, tables) -> int:
    add, mul, neg, inv = tables
    R = M.copy()
    rank = 0
    for col in range(R.shape[1]):
        rows = np.nonzero(R[rank:, col])[0]
        if rows.size == 0:
            continue
        piv = rank + rows[0]
        R[[rank, piv]] = R[[piv, rank]]
        R[rank] = mul[inv[R[rank, col]], R[rank]]
        for r in range(R.shape[0]):
            if r != rank and R[r, col]:
                R[r] = add[R[r], neg[mul[R[r, col], R[rank]]]]
        rank += 1
        if rank == R.shape[0]:
            break
    return rank


def _matrix(rows, n: int) -> np.ndarray:
    return np.array(rows, dtype=np.int64).reshape(len(rows), n)


def check_code(m: dict, n: int, k: int) -> None:
    """G spans a k-dimensional code and H spans its dual."""
    t = _tables(m)
    G, H = _matrix(m["G"], n), _matrix(m["H"], n)
    expect(gf_rank(G, t) == k == len(G), f"generator matrix is not of rank {k}")
    expect(gf_rank(H, t) == n - k == len(H), f"parity-check matrix is not of rank {n - k}")
    if k and n - k:
        expect(not gf_product(G, H, t).any(), "G . H^T != 0")


def maps_onto(first: dict, second: dict, sigma, n: int) -> bool:
    """sigma maps the first code onto the second (equal dimensions)."""
    G1, H2 = _matrix(first["G"], n), _matrix(second["H"], n)
    if len(G1) + len(H2) != n:
        return False
    if len(G1) == 0 or len(H2) == 0:
        return True
    inv = np.argsort(np.asarray(sigma))
    return not gf_product(G1[:, inv], H2, _tables(first)).any()


def enumerated_distance(m: dict, n: int) -> int | None:
    """Minimum weight over all q^k codewords, or None above 2^17 words."""
    add, mul, _, _ = _tables(m)
    q = m["p"] ** m["s"]
    G = _matrix(m["G"], n)
    if len(G) == 0 or q ** len(G) > 1 << 17:
        return None
    words = np.zeros((1, n), dtype=np.int64)
    scalars = np.arange(q)[:, None]
    for row in G:
        words = add[words[:, None, :], mul[scalars, row[None, :]][None, :, :]].reshape(-1, n)
    weights = (words != 0).sum(axis=1)
    return int(weights[weights > 0].min())


def is_permutation(sigma, n: int) -> bool:
    return sorted(sigma) == list(range(n))


def sympy_order(n: int, generators) -> int:
    from sympy.combinatorics import Permutation, PermutationGroup
    gens = [Permutation(list(g)) for g in generators] or [Permutation(list(range(n)))]
    return int(PermutationGroup(gens).order())


# --- per-request checks -----------------------------------------------------------

def check_analyze(req: dict, res: dict) -> None:
    spec = req["code"]
    q, n, ds = spec["q"], spec["n"], tuple(spec["ds"])
    k = n - len(ds)
    expect(res["k"] == k, f"dimension {res['k']} != n - |D| = {k}")
    check_code(res["code"], n, k)
    expect(res["m"] == multiplier_count(ds, n), "multiplier count differs")
    for g in res["generators"]:
        expect(is_permutation(g, n), "generator is not a permutation")
        expect(maps_onto(res["code"], res["code"], g, n),
               f"reported generator {g} does not fix the code")
    order = res["order"]
    if order is not None:
        expect(sympy_order(n, res["generators"]) == order,
               f"Schreier-Sims order of the generators != reported order {order}")
        published = PUBLISHED_ORDERS.get((q, n, ds))
        expect(published is None or order == published,
               f"order {order} != published {published}")
    elif res["known_order"] is not None:
        expect(sympy_order(n, res["generators"]) == res["known_order"],
               "Schreier-Sims order of the known subgroup differs")
    lower, upper, exact = res["distance"]
    expect(1 <= lower <= upper <= n - k + 1,
           f"distance bounds {lower}..{upper} violate 1 <= d <= n-k+1 = {n - k + 1}")
    expect(not exact or lower == upper, "exact distance with an open interval")
    d = enumerated_distance(res["code"], n)
    expect(d is None or lower <= d <= upper and (not exact or d == lower),
           f"distance {lower}..{upper}, enumeration gives {d}")
    stated = table_distances().get((q, n, k, res["m"]))
    if stated is not None:
        expect(lower <= stated <= upper and (not exact or lower == stated),
               f"distance {lower}..{upper} misses the table value {stated}")


def _check_verdict(res: dict, n: int, planted_map) -> None:
    first, second = res["first"], res["second"]
    check_code(first, n, len(first["G"]))
    check_code(second, n, len(second["G"]))
    status = res["status"]
    expect(status in ("equivalent", "inequivalent", "inconclusive"), f"status {status}")
    if planted_map is not None:
        expect(any(maps_onto(first, second, s, n) for s in planted_map),
               "benchmark error: the planted map does not carry the code")
        expect(status != "inequivalent", "planted pair reported inequivalent")
    if status == "equivalent":
        w = res["witness"]
        expect(w is not None and is_permutation(w, n), "equivalent without a witness")
        expect(maps_onto(first, second, w, n), f"witness {w} fails the parity check")


def check_equiv(req: dict, res: dict) -> None:
    n = req["code"]["n"]
    a = req["planted"]
    planted = None
    if a is not None:
        # x -> a^-1 x carries D onto aD; either way round is accepted
        a_inv = pow(a, -1, n)
        planted = [[b * i % n for i in range(n)] for b in (a, a_inv)]
    _check_verdict(res, n, planted)


def check_qc_equiv(req: dict, res: dict) -> None:
    _check_verdict(res, req["qc"]["n"], [req["image"]])


def check_qc_report(req: dict, res: dict) -> None:
    n = req["qc"]["n"]
    p = 5                                    # co-index 5 in every qc family
    po = res["p_order"]
    while po % p == 0:
        po //= p
    expect(po == 1, f"|P| = {res['p_order']} is not a power of {p}")
    expect(res["discovered"] >= 1, "no H'(P) element discovered")
    if res["closure_order"] is not None:
        expect(res["closure_order"] >= res["discovered"],
               "closure smaller than the set that generates it")
    for blocks in res["blocks"]:
        sizes = {len(b) for b in blocks}
        expect(sorted(x for b in blocks for x in b) == list(range(n))
               and len(sizes) == 1 and 1 < sizes.pop() < n,
               f"{blocks} is not a block system of {n} points")
    expect(res["conclusion"] != "IMPRIMITIVE" or res["blocks"],
           "imprimitive without a block system")


CHECKS = {"analyze": check_analyze, "equiv": check_equiv,
          "qc_report": check_qc_report, "qc_equiv": check_qc_equiv}


def check(req: dict, res: dict) -> None:
    CHECKS[req["op"]](req, res)
