"""Automorphism discovery for cyclic (and general linear) codes.

Three layers: the multiplier scan on defining sets, the generalized-multiplier
families G_k available at prime-power length when the order of q is the same
mod p and mod p^2, and a full backtrack search over coordinate images pruned
by the minimum-weight codewords.  The search keeps one word per support, as
two minimum-weight words on one support are proportional (their difference
at the scale that cancels one coordinate is lighter, hence zero).  An
automorphism sigma maps each such word w to w o sigma^-1, a minimum-weight
word of the same code with the same values, so it keeps every statistic of
the family taken up to scalars, and pruning on those cuts no automorphism.
The search grows the group it finds on one stabilizer chain whose base is
its coordinate order, and searches each coset of a point stabilizer once
(Sims 1970), so it never lists the group: the exact order, or the lower
bound when the node budget runs out, is the chain's order.  A classifier
maps the findings onto the known trichotomy for groups containing a
complete cycle: elementary codes have the full symmetric group, prime
length forces a handful of primitive groups, and otherwise the group is
imprimitive or projective semilinear.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gcd

import numpy as np

from .algebra import (
    is_prime,
    multiplicative_order,
    prime_factors,
    prime_power,
    z_parameter,
)
from .codes import (
    ENUMERATION_BOUND,
    DEFAULT_DISTANCE_BUDGET,
    CyclicCode,
    DistanceResult,
    LinearCode,
    cyclic_defining_set,
    fixed_by,
    idempotent,
    is_elementary,
    maps_onto,
    min_distance,
    _tables,
)
# permute_code is unused here but stays bound: perfbench's tracing self-test
# checks that the wrapper is rebound in this module
from .codes import permute_code  # noqa: F401
from .perm import (
    BlockSystem,
    PermGroup,
    Permutation,
    StabilizerChain,
    block_system_valid,
    minimal_blocks,
)

NODE_BUDGET_DEFAULT = 5_000_000


class BacktrackBudgetExceeded(RuntimeError):
    def __init__(self, budget: int, order_lower_bound: int):
        super().__init__(
            f"backtrack node budget {budget} exceeded; "
            f"automorphisms found so far generate a group of order >= {order_lower_bound}")
        self.budget = budget
        self.order_lower_bound = order_lower_bound


# --- multiplier layer ---------------------------------------------------------

def multiplier_scan(code: CyclicCode) -> tuple[frozenset[int], int]:
    """{a in (Z/n)^* : a . defining_set = defining_set} and its size m.

    The scan runs on defining sets; every hit is re-verified by one batch of
    the matrix test to guard the defining-set arithmetic.
    """
    n, ds = code.n, code.defining_set
    hits = [a for a in range(n) if gcd(a, n) == 1
            and frozenset(a * i % n for i in ds) == ds]
    images = np.array([Permutation.multiplier(n, a).images for a in hits]).reshape(-1, n)
    for a, fixed in zip(hits, maps_onto(code.linear, code.linear, images)):
        if not fixed:
            raise RuntimeError(f"defining-set multiplier {a} failed the matrix test")
    return frozenset(hits), len(hits)


def check_m_p_plus_1(code: CyclicCode) -> bool:
    """True iff the multiplier by p+1 fixes the code, for length p^r."""
    p, r = prime_power(code.n)
    a = (p + 1) % code.n
    if a == 1:
        return True
    ds = code.defining_set
    ok = frozenset(a * i % code.n for i in ds) == ds
    mult = Permutation.multiplier(code.n, a)
    if ok != maps_onto(code.linear, code.linear, [mult.images])[0]:
        raise RuntimeError(f"multiplier {a}: the defining-set and matrix tests disagree")
    return ok


# --- generalized multiplier families ------------------------------------------

def gk_lifts(q: int, n: int) -> bool:
    """The hypothesis of the G_k families at length n = p^r over GF(q):
    gcd(q, p) = 1, z = 1, and ord_{p^r}(q) = t p^(r-1) with t = ord_p(q).
    For odd p the last clause follows from z = 1; at p = 2 it fails for
    every r >= 3 (ord_8(3) = 2, not 4)."""
    p, r = prime_power(n)
    return gcd(q, p) == 1 and z_parameter(q, p) == 1 \
        and multiplicative_order(q, n) == multiplicative_order(q, p) * p ** (r - 1)


def gk_family(code: CyclicCode, k: int) -> tuple[PermGroup, list[Permutation]]:
    """The verified group G_k = {mu_{q^i,c}^{(p^k)}} of order t_k * p^k inside
    the automorphism group of a length-p^r code, plus the multiplier-only
    subfamily H_k = {mu_{q^i,0}^{(p^k)}} which fixes the code's idempotent.

    Requires gk_lifts: z = 1 and ord_{p^r}(q) = t p^(r-1).  G_k is the
    group generated by mu_{q,0} and mu_{1,1}, and H_k the cyclic group of
    mu_{q,0}, so checking generators suffices: the chain order must be
    t_k * p^k, both generators must fix the code and mu_{q,0} the
    idempotent.  A failure here would be a counterexample to the
    containment claim rather than a usage error.
    """
    n, q = code.n, code.field.order
    p, r = prime_power(n)
    if not 1 <= k <= r:
        raise ValueError(f"need 1 <= k <= r = {r}, got k = {k}")
    if not gk_lifts(q, n):
        raise ValueError("hypothesis z=1 violated")
    pk = p ** k
    tk = multiplicative_order(q, pk)
    mult = Permutation.generalized_multiplier(n, k, q % pk, 0)
    group = PermGroup.from_generators(n, [mult, Permutation.generalized_multiplier(n, k, 1, 1)])
    if group.order() != tk * pk:
        raise RuntimeError(f"G_{k} degenerated: order {group.order()} != {tk}*{pk}")
    ok = maps_onto(code.linear, code.linear, [g.images for g in group.generators])
    if not ok.all():
        first = group.generators[int(np.argmin(ok))]
        raise RuntimeError(f"generator of G_{k} does not fix the code: {first}")
    evec = list(idempotent(code).coeffs)
    evec += [0] * (n - len(evec))
    if any(evec[mult(i)] != evec[i] for i in range(n)):
        raise RuntimeError(f"H_{k} generator does not fix the idempotent: {mult}")
    hk = [Permutation.generalized_multiplier(n, k, pow(q, i, pk), 0) for i in range(tk)]
    return group, hk


def sylow_exponent_bounds(n: int, q: int, s: int) -> bool:
    """Whether an observed exponent s of the p-part of the automorphism group
    of a length p^r code over GF(q) fits r <= s <= (p^r - 1)/(p - 1), tightened
    to 2r - 1 <= s when the G_k families exist (gk_lifts)."""
    p, r = prime_power(n)
    upper = (p ** r - 1) // (p - 1)
    ok = r <= s <= upper
    if ok and gk_lifts(q, n):
        ok = 2 * r - 1 <= s
    return ok


# --- full backtrack search ----------------------------------------------------

@dataclass(frozen=True)
class BacktrackResult:
    order: int
    generators: tuple[Permutation, ...]
    nodes: int


def _min_weight_words(code: LinearCode) -> np.ndarray | None:
    """One minimum-weight codeword per support, as an (m, n) array, or None
    when the code is too large to enumerate.  One word stands for all words
    on its support: two minimum-weight words u, v with one support S are
    proportional, since for i in S the word u - (u_i / v_i) v is lighter
    and so zero."""
    if code.k == 0 or code.field.order ** code.k > ENUMERATION_BOUND:
        return None
    best = code.n + 1
    rows: list[np.ndarray] = []
    for chunk in code.codeword_chunks():
        w = (chunk != 0).sum(axis=1)
        w[w == 0] = code.n + 1
        low = int(w.min())
        if low < best:
            best, rows = low, []
        if low == best:
            rows.append(chunk[w == low])
    words = np.concatenate(rows)
    _, first = np.unique(words != 0, axis=0, return_index=True)
    return words[first]


def _word_family(code: LinearCode) -> np.ndarray:
    """Minimum-weight codewords, one per support, from the code or its dual.
    Both families are permuted onto themselves, up to scalars, by every
    automorphism; small supports constrain the search hardest (a support
    with all but one point placed forces its last image), so prefer the
    family with shorter supports, then the one with fewer."""
    families = [f for f in (_min_weight_words(code), _min_weight_words(code.dual()))
                if f is not None]
    if not families:
        raise ValueError("minimum-weight codewords not enumerable")
    return min(families, key=lambda f: (np.count_nonzero(f[0]), len(f)))


def backtrack_full_group(code: LinearCode | CyclicCode,
                         node_budget: int = NODE_BUDGET_DEFAULT) -> BacktrackResult:
    """The automorphism group, by a depth-first search over coordinate
    images that searches each coset of a point stabilizer once (Sims 1970;
    Seress, Permutation Group Algorithms, 2003, sec. 9.1).

    Pruning uses the set W of minimum-weight codewords, one word per
    support (two on one support are proportional), of the code or its
    dual.  An automorphism sigma sends each w in W to w o sigma^-1, again
    a minimum-weight word of the same code, so a scalar multiple of a word
    of W, with the same values moved to new places.  Hence every
    automorphism keeps three statistics, and a candidate image is pruned
    when it breaks one: the number of words on a point (its degree); for
    each pair of points a, b, the multiset of ratios w_b / w_a over the
    words on both (the co-degree key, sum (|W| + 1)^(ratio - 1)); and,
    once a word has all its points placed, its image key
    sum_i w_i q^sigma(i), which must be the key sum_j v_j q^j of some
    multiple v of a word of W.  Over GF(2) these are the incidence
    degrees, the co-incidence counts and the support bit masks.  Every
    leaf is still verified by the matrix test.

    The coordinates are placed in a greedy order b_0, b_1, ..., which is
    also the base of the stabilizer chain that the group found so far
    grows on.  On the path that fixes b_0..b_(d-1), the child b_d -> b_d
    is searched first, and every other child b_d -> j is skipped when j
    already lies in the orbit of b_d under the found stabilizer of
    b_0..b_(d-1); any other subtree stops at its first automorphism, which
    is added to the chain.  Theorem: the chain's order is |Aut|.  By
    induction from the leaves, when the path at depth d has searched its
    first child, the found stabilizer of b_0..b_d is all of Aut's.  The
    subtree of b_d -> j holds exactly the coset of that stabilizer whose
    elements fix b_0..b_(d-1) and send b_d to j, so each coset outside the
    known orbit gets one found representative, and after depth d the found
    stabilizer of b_0..b_(d-1) is all of Aut's too.  The group is never
    listed: order is the chain's order, the generators are the elements
    added to it, and when the node budget runs out the exception carries
    the order of the group found so far.
    """
    lin = code.linear if isinstance(code, CyclicCode) else code
    n, q = lin.n, lin.field.order
    if lin.k == 0:
        raise ValueError("the zero code has no codewords to search on")
    words = _word_family(lin)
    inv, mul, _ = _tables(lin.field)
    units = np.arange(1, q)

    def times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a * b % q if mul is None else mul[a, b]

    # codeg[a][b] names the multiset of ratios w_b / w_a over the words on a
    # and b: pairs[a, b] counts the words with (w_a, w_b) = (u, v), and each
    # such word weighs (|W| + 1)^(v / u - 1)
    hot = (words[:, :, None] == units).reshape(len(words), -1).astype(np.int64)
    pairs = (hot.T @ hot).reshape(n, q - 1, n, q - 1).transpose(0, 2, 1, 3).reshape(n, n, -1)
    weight = (len(words) + 1) ** (times(inv[units][:, None], units).astype(object) - 1)
    codeg = (pairs.astype(object) @ weight.ravel()).tolist()
    # the image keys of every multiple of every word; term[v][j] = v q^j
    qpow = np.array([q ** j for j in range(n)], dtype=object)
    multiples = times(units[:, None, None], words[None]).reshape(-1, n)
    keys = set((multiples.astype(object) @ qpow).tolist())
    terms = [[v * t for t in qpow.tolist()] for v in range(q)]
    W = [np.flatnonzero(w).tolist() for w in words]
    deg = np.count_nonzero(words, axis=0).tolist()
    sup_at: list[list[tuple[int, list[int]]]] = [[] for _ in range(n)]
    for si, w in enumerate(words.tolist()):
        for i in W[si]:
            sup_at[i].append((si, terms[w[i]]))

    # greedy coordinate order: most-constrained next (supports nearly covered)
    order = [max(range(n), key=lambda i: (deg[i], -i))]
    chosen = set(order)
    while len(order) < n:
        def gain(x: int) -> tuple[int, int, int]:
            near = full = 0
            for si, _ in sup_at[x]:
                inside = sum(1 for y in W[si] if y in chosen)
                if inside == len(W[si]) - 1:
                    near += 1
                elif inside > 0:
                    full += 1
            return (near, full, deg[x])
        nxt = max((x for x in range(n) if x not in chosen), key=lambda x: (gain(x), -x))
        order.append(nxt)
        chosen.add(nxt)

    img = [-1] * n
    used = [False] * n
    sizes = [len(S) for S in W]
    cnt = [0] * len(W)            # assigned points per word
    ikey = [0] * len(W)           # image key per word
    chain = StabilizerChain(n, order)
    nodes = 0

    def descend(depth: int, fixed: bool) -> bool:
        """Search below the placed prefix; fixed says it is the identity on
        order[:depth].  True when an automorphism was added below."""
        nonlocal nodes
        if depth == n:
            return bool(maps_onto(lin, lin, [img])[0]) and chain.add(tuple(img))
        pos = order[depth]
        assigned = order[:depth]
        for j in ([pos] + [j for j in range(n) if j != pos]) if fixed else range(n):
            if used[j] or deg[j] != deg[pos] or fixed and j != pos and j in chain.orbit[depth]:
                continue
            nodes += 1
            if nodes > node_budget:
                raise BacktrackBudgetExceeded(node_budget, chain.order())
            ok = True
            for i2 in assigned:
                if codeg[pos][i2] != codeg[j][img[i2]]:
                    ok = False
                    break
            if ok:
                for si, term in sup_at[pos]:
                    if cnt[si] == sizes[si] - 1 and ikey[si] + term[j] not in keys:
                        ok = False
                        break
            if not ok:
                continue
            img[pos] = j
            used[j] = True
            for si, term in sup_at[pos]:
                cnt[si] += 1
                ikey[si] += term[j]
            hit = descend(depth + 1, fixed and j == pos)
            for si, term in sup_at[pos]:
                cnt[si] -= 1
                ikey[si] -= term[j]
            img[pos] = -1
            used[j] = False
            if hit and not fixed:
                return True
        return False

    descend(0, True)
    gens = tuple(map(Permutation, chain.gens[0]))
    return BacktrackResult(order=chain.order(), generators=gens, nodes=nodes)


# --- classification -----------------------------------------------------------

@dataclass(frozen=True)
class GroupClass:
    label: str
    params: tuple[int, ...] = ()
    evidence: str = ""

    @property
    def name(self) -> str:
        if self.label == "IMPRIMITIVE" and self.params:
            return f"IMPRIMITIVE({self.params[0]}x{self.params[1]})"
        if self.params:
            return f"{self.label}({', '.join(map(str, self.params))})"
        return self.label


def projective_parameters(n: int, characteristic: int) -> list[tuple[int, int]]:
    """All (d, t) with n = (t^d - 1)/(t - 1), d >= 3 and t a power of the
    given characteristic: the degrees on which a projective semilinear group
    with a complete cycle can act."""
    out = []
    t = characteristic
    while t < n:
        total, d = 1 + t, 2
        while total < n:
            total = total * t + 1
            d += 1
        if total == n and d >= 3:
            out.append((d, t))
        t *= characteristic
    return out


def pgammal_order(d: int, t: int) -> int:
    p, s = prime_power(t)
    gl = 1
    for i in range(d):
        gl *= t ** d - t ** i
    return gl // (t - 1) * s


def _gl42_witness_order(code: LinearCode) -> int | None:
    """Explicit order witness for length 15 over GF(2): the invertible linear
    maps of a 4-dimensional binary space permute its 15 nonzero vectors; when
    the induced coordinate permutations all fix the code, their closure is a
    subgroup of its automorphism group."""
    from .algebra import make_field, root_system
    if code.n != 15 or code.field.order != 2:
        return None
    rs = root_system(make_field(2), 15)
    vals = [1]
    for _ in range(14):
        vals.append(rs.ext.mul(vals[-1], rs.alpha))
    dlog = {v: i for i, v in enumerate(vals)}

    def perm_of(linmap) -> Permutation:
        return Permutation(tuple(dlog[linmap(v)] for v in vals))

    singer = perm_of(lambda v: rs.ext.mul(v, rs.alpha))
    frob = perm_of(lambda v: rs.ext.mul(v, v))
    transvection = perm_of(lambda v: v ^ ((v & 1) << 1))
    gens = [singer, frob, transvection]
    if not maps_onto(code, code, [g.images for g in gens]).all():
        return None
    return PermGroup(15, tuple(gens)).order()


@dataclass(frozen=True)
class AutoReport:
    n: int
    k: int
    distance: DistanceResult
    multiplier_set: tuple[int, ...]
    m: int
    discovered_generators: tuple[Permutation, ...]
    known_subgroup_order: int
    full_group_order: int | None
    block_systems: tuple[BlockSystem, ...]
    classification: GroupClass
    is_elementary: bool

    def to_json(self) -> dict:
        return {
            "parameters": [self.n, self.k,
                           self.distance.value if self.distance.exact
                           else [self.distance.lower, self.distance.upper]],
            "multiplier_set": list(self.multiplier_set),
            "m": self.m,
            "discovered_generators": [list(g.images) for g in self.discovered_generators],
            "known_subgroup_order": self.known_subgroup_order,
            "full_group_order": self.full_group_order,
            "block_systems": [[list(b) for b in bs.blocks] for bs in self.block_systems],
            "classification": {"label": self.classification.name,
                               "evidence": self.classification.evidence},
            "is_elementary": self.is_elementary,
        }


def classify(code: CyclicCode | LinearCode, report: AutoReport) -> GroupClass:
    """Decision tree for the automorphism group of a cyclic code, driven by
    the trichotomy for transitive groups containing a complete cycle.  The
    block systems are the report's, which analyze computed on the group of
    the discovered generators."""
    lin = code.linear if isinstance(code, CyclicCode) else code
    n, q = report.n, lin.field.order
    char = lin.field.characteristic
    full = report.full_group_order
    if report.is_elementary:
        return GroupClass("ELEMENTARY_SN", (),
                          "code is invariant under every coordinate permutation")
    proj = projective_parameters(n, char)
    prime = is_prime(n)

    if full is not None:
        if n == 11 and full == 660:
            return GroupClass("PSL_2_11", (),
                              "order 660 on 11 points with a complete cycle")
        if n == 11 and full == 7920:
            return GroupClass("M_11", (), "order 7920 on 11 points")
        if n == 23 and full == 10200960:
            return GroupClass("M_23", (), "order 10200960 on 23 points")
        if full == factorial(n) // 2:
            return GroupClass("UNRESOLVED", (),
                              "alternating-group order is impossible for a "
                              "non-elementary cyclic code; computation suspect")
        for d, t in proj:
            if full == pgammal_order(d, t):
                ev = (f"order matches the projective semilinear group on the "
                      f"{n} points of PG({d - 1},{t})")
                if n == 15 and t == 2:
                    wit = _gl42_witness_order(lin)
                    if wit == full:
                        ev += ("; explicit linear action on the nonzero vectors "
                               "of a 4-dimensional binary space realizes it")
                return GroupClass("PGAMMAL", (d, t), ev)
        if prime and n >= 5 and full % n == 0 and (n - 1) % (full // n) == 0:
            return GroupClass("AFFINE_SUBGROUP", (n, full // n),
                              f"group of order {n}*{full // n} inside the affine "
                              f"maps x -> ax+b mod {n}")
        if report.block_systems:
            bs = report.block_systems[0]
            return GroupClass("IMPRIMITIVE", (bs.block_count, bs.block_size),
                              "minimal block system found on the computed group")
        return GroupClass("UNRESOLVED", (), f"order {full} matches no known case")

    # full group unknown: theory-backed paths only
    if prime:
        if n == 11 and q == 3 and report.k in (5, 6):
            return GroupClass("PSL_2_11", (),
                              "parameters of the perfect ternary [11,6,5] code or "
                              "its dual; group known to be PSL(2,11)")
        if n == 23 and q == 2 and report.k in (11, 12):
            return GroupClass("M_23", (),
                              "parameters of the perfect binary [23,12,7] code or "
                              "its dual; group known to be M_23")
        if not proj and n >= 5:
            return GroupClass(
                "AFFINE_SUBGROUP", (n, report.m),
                f"prime length with no projective point count {n} = "
                f"(t^d-1)/(t-1); the group lies in the affine maps and equals "
                f"the span of the shift and the {report.m} multipliers")
        return GroupClass("UNRESOLVED", (),
                          "prime length admits a projective-group case that "
                          "only a full search can separate")
    if not proj:
        # imprimitivity is forced; exhibit blocks
        p = prime_factors(n)[0]
        blocks = tuple(tuple(range(i, n, p)) for i in range(p))
        ev = ("no projective point count matches this composite length, so the "
              "group is imprimitive")
        gens = report.discovered_generators
        if gens and report.block_systems \
                and not block_system_valid(PermGroup(n, gens), blocks):
            blocks = report.block_systems[0].blocks
        bs = BlockSystem(blocks)
        return GroupClass("IMPRIMITIVE", (bs.block_count, bs.block_size), ev)
    return GroupClass("UNRESOLVED", (),
                      "composite length with a possible projective case; full "
                      "search required to separate")


# --- orchestrator ---------------------------------------------------------------

def _gk_levels(code: CyclicCode) -> range:
    """The k whose G_k family known_cyclic_subgroup adds: 1..r when the
    length is a prime power p^r, r >= 2, and gk_lifts holds; else none."""
    try:
        _, r = prime_power(code.n)
    except ValueError:
        return range(0)
    return range(1, r + 1) if r >= 2 and gk_lifts(code.field.order, code.n) else range(0)


def known_cyclic_subgroup(code: CyclicCode) -> tuple[list[Permutation], frozenset[int]]:
    """Generators of the automorphism subgroup discoverable without search:
    the shift, the defining-set multipliers, and the G_k families when the
    length is a prime power p^r, r >= 2, where they exist (gk_lifts)."""
    n = code.n
    mset, _ = multiplier_scan(code)
    gens = [Permutation.shift(n)]
    gens += [Permutation.multiplier(n, a) for a in sorted(mset) if a != 1]
    for k in _gk_levels(code):
        gk, _ = gk_family(code, k)
        gens += list(gk.generators)
    seen: dict[Permutation, None] = {}
    for g in gens:
        if not g.is_identity():
            seen.setdefault(g)
    return list(seen), mset


def analyze(code: CyclicCode | LinearCode,
            run_backtrack: bool | None = None,
            node_budget: int = NODE_BUDGET_DEFAULT,
            distance_budget: int = DEFAULT_DISTANCE_BUDGET) -> AutoReport:
    """Full report on the automorphism group of a cyclic code: parameters,
    multipliers, discovered subgroup, optional exact group by backtrack,
    block systems, and a classification label with evidence.

    The reported generators passed maps_onto in the search or the scans;
    they are checked again, independently, by one batched elimination
    (codes.fixed_by), and a RuntimeError names the first that fails.  The
    block systems are those of the group they generate (perm.minimal_blocks,
    empty without a closure at prime length)."""
    if isinstance(code, LinearCode):
        ds = cyclic_defining_set(code)
        if ds is None:
            raise ValueError("analysis requires a cyclic code")
        code = CyclicCode(code.field, code.n, frozenset(ds))
    lin = code.linear
    n, k = code.n, code.k
    elementary = is_elementary(lin)
    gens, mset = known_cyclic_subgroup(code)
    # without G_k the group is the affine maps x -> ax + b, a in mset, a
    # subgroup of the units: n * m maps, distinct by their values at 0 and 1
    known_order = PermGroup.from_generators(n, gens).order() if _gk_levels(code) \
        else n * len(mset)

    full_order: int | None = None
    full_gens: tuple[Permutation, ...] = ()
    if elementary:
        full_order = factorial(n)
    else:
        if run_backtrack is None:
            small = min(k, n - k)
            run_backtrack = (n <= 16 and code.field.order ** small <= ENUMERATION_BOUND)
        if run_backtrack:
            bt = backtrack_full_group(lin, node_budget)
            full_order = bt.order
            full_gens = bt.generators
    # after the search, so a caller that reruns on BacktrackBudgetExceeded
    # computes the distance once
    dist = min_distance(lin, budget=distance_budget)

    discovered = full_gens if full_gens else tuple(gens)
    fixed = fixed_by(lin, discovered)
    if not fixed.all():
        raise RuntimeError(f"reported generator fails to fix the code: "
                           f"{discovered[int(np.argmin(fixed))]}")
    carrier = PermGroup(n, discovered) if discovered else PermGroup(n, (Permutation.shift(n),))
    systems = tuple(minimal_blocks(carrier))

    report = AutoReport(
        n=n, k=k, distance=dist, multiplier_set=tuple(sorted(mset)), m=len(mset),
        discovered_generators=discovered,
        known_subgroup_order=known_order,
        full_group_order=full_order,
        block_systems=systems,
        classification=GroupClass("UNRESOLVED", (), "pending"),
        is_elementary=elementary,
    )
    label = classify(code, report)
    return AutoReport(**{**report.__dict__, "classification": label})
