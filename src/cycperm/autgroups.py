"""Automorphism discovery for cyclic (and general linear) codes.

Three layers: the multipliers on defining sets (multipliers_onto, whose
defining-set answer is checked both ways against the matrix test for every
unit), the generalized-multiplier families G_k available at prime-power
length when the order of q is the same mod p and mod p^2, and a full
backtrack search over coordinate images pruned by the minimum-weight
codewords.  The module holds one such search (_search), used two ways: for
Aut(C) (backtrack_full_group) and, run against a second code, for the least
permutation mapping C onto it (equivalence.brute_equivalence).  The search
keeps one word per support, as two minimum-weight words on one support are
proportional (their difference at the scale that cancels one coordinate is
lighter, hence zero).  The words come from Brouwer-Zimmermann levels, not
from a pass over all q^k codewords, and need the exact distance d of their
side (code or dual): a weight-d word of a cyclic code whose pivots are
0..k-1 puts d*k nonzeros into the n windows of k consecutive coordinates,
so some window holds at most floor(dk/n) of them, and the shift of that
window onto the pivots has a message of that weight
(codes.min_weight_words).  An automorphism sigma maps each such word w to
w o sigma^-1, a minimum-weight word of the same code with the same values,
so it keeps every statistic of the family taken up to scalars, and pruning
on those cuts no automorphism; a map onto a second code sends the family
onto that code's, and pruning on the pair cuts no such map.  For Aut the
search grows the group it finds on one stabilizer chain whose base is its
coordinate order, and searches each coset of a point stabilizer once (Sims
1970), so it never lists the group: the exact order, or the lower bound
when the node budget runs out, is the chain's order.  analyze enters the
subgroup known without search (the shift, the multipliers and the G_k
families, known_cyclic_subgroup) on that chain before the first node; it
lies in Aut, so the order is unchanged, no more nodes are walked, and a
lower bound is a multiple of the known order.  A classifier
maps the findings onto the known trichotomy for groups containing a
complete cycle: elementary codes have the full symmetric group, prime
length forces a handful of primitive groups, and otherwise the group is
imprimitive or projective semilinear.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, gcd, inf
from typing import Sequence

import numpy as np

from .algebra import (
    is_prime,
    multiplicative_order,
    prime_factors,
    prime_power,
    units,
    z_parameter,
)
from .codes import (
    ENUMERATION_BOUND,
    DEFAULT_DISTANCE_BUDGET,
    CyclicCode,
    DistanceResult,
    LinearCode,
    as_cyclic,
    fixed_by,
    is_elementary,
    maps_onto,
    min_distance,
    min_weight_words,
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
    """The search ran out of nodes.  When analyze raises it, `report` holds
    the report finished without the full group."""
    report: AutoReport | None = None

    def __init__(self, budget: int, order_lower_bound: int):
        super().__init__(
            f"backtrack node budget {budget} exceeded; "
            f"automorphisms found so far generate a group of order >= {order_lower_bound}")
        self.budget = budget
        self.order_lower_bound = order_lower_bound


# --- multiplier layer ---------------------------------------------------------

def multipliers_onto(c1: CyclicCode, c2: CyclicCode) -> list[int]:
    """The units a of Z_n, ascending, whose multiplier M_a: i -> a i maps c1
    onto c2, that is those with a . D(c2) = D(c1).

    The answer is read off the defining sets and checked, for every unit,
    against one maps_onto batch of the matrix test; a RuntimeError names
    each unit on which the two disagree, in either direction.
    """
    n, ds1, ds2 = c1.n, c1.defining_set, c2.defining_set
    candidates = units(n)
    by_set = [frozenset(a * i % n for i in ds2) == ds1 for a in candidates]
    by_matrix = maps_onto(c1.linear, c2.linear, np.outer(candidates, range(n)) % n)
    wrong = [f"multiplier {a} failed the {'matrix' if hit else 'defining-set'} test"
             for a, hit, fixed in zip(candidates, by_set, by_matrix) if hit != fixed]
    if wrong:
        raise RuntimeError("; ".join(wrong))
    return [a for a, hit in zip(candidates, by_set) if hit]


def multiplier_scan(code: CyclicCode) -> tuple[frozenset[int], int]:
    """{a in (Z/n)^* : a . defining_set = defining_set} and its size m:
    multipliers_onto(code, code)."""
    hits = multipliers_onto(code, code)
    return frozenset(hits), len(hits)


def check_m_p_plus_1(code: CyclicCode) -> bool:
    """True iff the multiplier by p+1 fixes the code, for length p^r."""
    p, _ = prime_power(code.n)
    return (p + 1) % code.n in multiplier_scan(code)[0]


# --- generalized multiplier families ------------------------------------------

def gk_lifts(q: int, n: int) -> bool:
    """The hypothesis of the G_k families at length n = p^r over GF(q):
    gcd(q, p) = 1, z = 1, and ord_{p^r}(q) = t p^(r-1) with t = ord_p(q).
    For odd p the last clause follows from z = 1; at p = 2 it fails for
    every r >= 3 (ord_8(3) = 2, not 4).

    Lifting lemma: when it holds, Kaloujnine's W_T fixes every q-ary cyclic
    code of length p^r.  So a code that W_T does not fix has no G_k family,
    and the H(P) fallback of equivalence.decide_equivalence, which it
    reaches only for such codes, never meets one.  Proof:
    - <q> contains U_1 = 1 + pZ mod p^r.  With t = ord_p(q), q^t lies in
      U_1 and has order p^(r-1) = |U_1|; U_1 is cyclic for odd p, and at
      p = 2 (t = 1) <q> is a subgroup of the units, of their order.  So the
      q-cyclotomic coset of an index i with v_p(i) = v < r holds the whole
      class i + p^(v+1)Z, which is U_1 i.
    - W_T is generated by the maps tau_{j,c} (j < r, c < p^j) that send x
      to x + p^j where x = c mod p^j and fix every other x, and by their
      inverses, of the same form with -p^j: tau_{j,c} is the level map of
      perm.kaloujnine_generators times a triangular map that changes only
      the digits above j, so downward induction on j gives every level.
    - For f in the code C, tau_{j,c} f - f = (T^(p^j) f - f) 1_{c + p^j Z}.
      T^(p^j) f - f lies in C, and its spectrum lies in that of f, at
      indices i' with v_p(i') < r - j (at the others the factor
      beta^(i' p^j) - 1 vanishes).  The indicator has period p^j, so its
      spectrum lies in p^(r-j)Z, and the product's spectrum lies in the
      sums: each index i is i' mod p^(r-j), so i = i' mod p^(v_p(i') + 1)
      and i is in the q-cyclotomic coset of i'.  So the difference has its
      spectrum in the nonzeros of C, has its entries in GF(q), and lies in
      C; so does tau_{j,c} f.
    tests/test_autgroups.py checks the lemma, and that it is sharp on the
    families where the clause fails."""
    p, r = prime_power(n)
    return gcd(q, p) == 1 and z_parameter(q, p) == 1 \
        and multiplicative_order(q, n) == multiplicative_order(q, p) * p ** (r - 1)


@lru_cache(maxsize=None)
def _gk_group(n: int, q: int, k: int) -> tuple[PermGroup, Permutation, tuple[Permutation, ...]]:
    """G_k = <mu_{q,0}, mu_{1,1}> at length n = p^r over GF(q), its chain
    order certified as t_k * p^k, with mu_{q,0} and H_k = {mu_{q^i,0}}.
    They depend on (n, q, k) alone and are cached; callers share the group
    and never mutate it."""
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
    hk = tuple(Permutation.generalized_multiplier(n, k, pow(q, i, pk), 0) for i in range(tk))
    return group, mult, hk


def gk_family(code: CyclicCode, k: int) -> tuple[PermGroup, list[Permutation]]:
    """The verified group G_k = {mu_{q^i,c}^{(p^k)}} of order t_k * p^k inside
    the automorphism group of a length-p^r code, plus the multiplier-only
    subfamily H_k = {mu_{q^i,0}^{(p^k)}} which fixes the code's idempotent.

    Requires gk_lifts: z = 1 and ord_{p^r}(q) = t p^(r-1).  G_k is the
    group generated by mu_{q,0} and mu_{1,1}, and H_k the cyclic group of
    mu_{q,0}, so checking generators suffices: the chain order must be
    t_k * p^k, both generators must fix the code and mu_{q,0} the
    idempotent.  The group and its order depend on (n, q, k) alone, so they
    are built and certified once (_gk_group) and the group returned is
    shared by every code of that length and field; the two checks on the
    code run on every call, the first as one maps_onto batch.  A failure
    here would be a counterexample to the containment claim rather than a
    usage error.
    """
    n = code.n
    group, mult, hk = _gk_group(n, code.field.order, k)
    ok = maps_onto(code.linear, code.linear, [g.images for g in group.generators])
    if not ok.all():
        first = group.generators[int(np.argmin(ok))]
        raise RuntimeError(f"generator of G_{k} does not fix the code: {first}")
    evec = list(code.idempotent.coeffs)
    evec += [0] * (n - len(evec))
    if any(evec[mult(i)] != evec[i] for i in range(n)):
        raise RuntimeError(f"H_{k} generator does not fix the idempotent: {mult}")
    return group, list(hk)


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


def _word_family(code: LinearCode) -> tuple[np.ndarray, bool, int]:
    """Minimum-weight codewords, one per support, from the code or its dual,
    listed by codes.min_weight_words, which needs the side's exact distance;
    returned with whether they are the dual's and their weight d.  Both
    families are permuted onto themselves, up to scalars, by every
    automorphism; small supports constrain the search hardest (a support
    with all but one point placed forces its last image), so among the
    sides whose distance min_distance certifies, prefer the one with the
    shorter supports, then the one with fewer.  Two kinds of family count
    last: distance 1, whose words are unit vectors that say only which
    points carry one, and then a lone support, which constrains only its
    own points.  A side is listed only when it can still win.  When
    neither side's distance is exact the family is empty, and the search
    prunes on nothing."""
    exact = [(dist.value, dual, side) for dual, side in ((False, code), (True, code.dual()))
             if side.k and (dist := min_distance(side)).exact]
    if not exact:
        return np.zeros((0, code.n), dtype=np.uint8), False, 0

    def rank(family: tuple[np.ndarray, bool, int]) -> tuple[bool, bool, int, int]:
        words, _, d = family
        return d == 1, len(words) == 1, d, len(words)

    family = None
    for d, dual, side in sorted(exact, key=lambda e: (e[0] == 1, e[0])):
        # (d == 1, False, d, 2) is the best rank a side of distance d can have
        if family is None or (d == 1, False, d, 2) < rank(family):
            listed = (min_weight_words(side, d), dual, d)
            if family is None or rank(listed) < rank(family):
                family = listed
    return family


def backtrack_full_group(code: LinearCode | CyclicCode,
                         node_budget: int = NODE_BUDGET_DEFAULT,
                         seeds: Sequence[Permutation] = ()) -> BacktrackResult:
    """The automorphism group, by a depth-first search over coordinate
    images that searches each coset of a point stabilizer once (Sims 1970;
    Seress, Permutation Group Algorithms, 2003, sec. 9.1).  The search is
    _search without a target; BRUTE runs it against a second code.

    Pruning uses the set W of minimum-weight codewords, one word per support
    (two on one support are proportional), of the code or its dual, chosen
    among the sides whose distance min_distance certifies (_word_family;
    empty when neither is exact, so that nothing is pruned and the search
    answers within its node budget).  W is listed from the levels of
    messages of weight at most floor(dk/n) and their n shifts when the side
    is cyclic with pivots 0..k-1, since some window of k consecutive
    coordinates holds at most that many of a weight-d word's nonzeros, and
    from the levels up to min(d, k) otherwise; no pass over all q^k
    codewords is made.  An automorphism sigma sends each w in W to w o
    sigma^-1, again a minimum-weight word of the same code, so a scalar
    multiple of a word of W, with the same values moved to new places.
    Hence every automorphism keeps three statistics, and a candidate image
    is pruned when it breaks one: the number of words on a point (its
    degree); for each pair of points a, b, the multiset of ratios w_b / w_a
    over the words on both (the co-degree key, sum (|W| + 1)^(ratio - 1));
    and, once a word has all its points placed, its image key sum_i w_i
    q^sigma(i), which must be the key sum_j v_j q^j of some multiple v of a
    word of W.  Over GF(2) these are the incidence degrees, the co-incidence
    counts and the support bit masks.  Every leaf is still verified by the
    matrix test.

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

    seeds are automorphisms entered on the chain before the first node
    (analyze passes known_cyclic_subgroup's generators); one maps_onto batch
    checks them first, and a ValueError names the first that does not fix
    the code.  The chain's group then starts as the seeds' group S and stays
    inside Aut, so the coset argument above holds as it stands and the order
    is |Aut|; a budget stop reports a multiple of |S|.  Seeding walks no
    extra node.  Compare the seeded search with the unseeded one on the
    identity path at depth d, once the child b_d -> b_d is searched: both
    level-d groups (the found stabilizers of b_0..b_(d-1)) contain
    Aut_{b_0..b_d}.  Let H and H' be the unseeded and the seeded level-d
    group; H is inside H' at the first sibling, since H is then
    Aut_{b_0..b_d}.  When the unseeded search adds g with g(b_d) = j, either
    j lies in the orbit of H', so that some h in H' agrees with g at b_d and
    h^-1 g lies in Aut_{b_0..b_d}, or the seeded search enters the same
    subtree and adds an element of the same coset g Aut_{b_0..b_d}; either
    way g lies in H'.  So H stays inside H', every orbit the unseeded search
    skips the seeded one skips too, and the seeded search enters a subset of
    the subtrees.  Below the identity path nothing reads the chain but
    chain.add at a leaf, and a leaf that maps b_d outside the level's orbit
    is never already a member, so the first leaf that passes maps_onto is
    accepted and each subtree entered walks the same nodes either way.
    """
    lin = code.linear if isinstance(code, CyclicCode) else code
    if lin.k == 0:
        raise ValueError("the zero code has no codewords to search on")
    if seeds:
        fixing = maps_onto(lin, lin, [g.images for g in seeds])
        if not fixing.all():
            raise ValueError(f"seed {seeds[int(np.argmin(fixing))]} does not fix the code")
    chain, _, nodes = _search(lin, node_budget, seeds=seeds)
    return BacktrackResult(chain.order(), tuple(map(Permutation, chain.gens[0])), nodes)


def _search(code: LinearCode, node_budget: float = inf, target: LinearCode | None = None,
            seeds: Sequence[Permutation] = ()
            ) -> tuple[StabilizerChain, tuple[int, ...] | None, int]:
    """The one search over coordinate images, used two ways.  Without a
    target it finds Aut(code) on a stabilizer chain (backtrack_full_group).
    With a target of the code's dimension it finds the lexicographically
    least permutation mapping the code onto the target
    (equivalence.brute_equivalence).  Returns the chain, that witness (None
    without a target or a witness) and the nodes visited.

    A sigma mapping the code onto the target maps the code's word family
    (_word_family) onto the target's family of the same side and weight d,
    up to scalars.  So the code's degrees and co-degree keys are compared
    with the target's at the images, and a completed word's image key must
    be the key of a multiple of a target word: backtrack_full_group's tests
    with the target in place of the code.  The target's family is listed
    only when d lies in its side's distance interval (else it is empty, and
    no point of a word finds an image): an equivalent target has distance
    d, and min_weight_words needs it.  With a target the coordinates are
    placed in natural order with increasing images, and no coset is
    skipped, so the first leaf that passes maps_onto is the least witness;
    the node budget is infinite by default.

    Without a target, an automorphism g found below the identity path at
    depth d (in the subtree of a child b_d -> j, j != b_d) is added with
    the fact that the chain's level d + 1 holds all of Aut's stabilizer of
    b_0..b_d (StabilizerChain.add with certified = d + 1).  Proof: the
    child b_d -> b_d is searched before any other child of the identity
    path at depth d, and is never pruned (the identity keeps every
    statistic), so by the induction of backtrack_full_group the found
    stabilizer of b_0..b_d, which is the chain's level d + 1 since the
    chain's base is the coordinate order, is then all of Aut's, and stays
    so, as the chain only grows inside Aut.  g and the chain's group lie in
    Aut, so level d + 1 holds every element of <the chain's group, g> that
    fixes b_0..b_d.  The completion then marks
    level d's Schreier generators as checked without sifting them, and a
    Schreier generator of a level i < d that gets past level d is the
    identity and is not sifted further; the chain is the one the plain
    algorithm builds from the same elements."""
    n, q = code.n, code.field.order
    words, dual, d = _word_family(code)
    image, words2 = (code if target is None else target), words
    if target is not None and len(words):
        side = target.dual() if dual else target
        dist = min_distance(side)
        words2 = min_weight_words(side, d) if dist.lower <= d <= dist.upper else words[:0]
    inv, mul, _ = _tables(code.field)
    units = np.arange(1, q)
    # term[v][j] = v q^j: the image keys of every multiple of every word
    qpow = np.array([q ** j for j in range(n)], dtype=object)
    terms = [[v * t for t in qpow.tolist()] for v in range(q)]

    def times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a * b % q if mul is None else mul[a, b]

    def statistics(family: np.ndarray) -> tuple[list[int], list[list[int]], set[int]]:
        """Degrees, co-degree keys and image keys of a family.  codeg[a][b]
        names the multiset of ratios w_b / w_a over the words on a and b:
        pairs[a, b] counts the words with (w_a, w_b) = (u, v), and each such
        word weighs (|W| + 1)^(v / u - 1)."""
        hot = (family[:, :, None] == units).reshape(len(family), n * (q - 1)).astype(np.int64)
        pairs = (hot.T @ hot).reshape(n, q - 1, n, q - 1).transpose(0, 2, 1, 3).reshape(n, n, -1)
        weight = (len(words) + 1) ** (times(inv[units][:, None], units).astype(object) - 1)
        multiples = times(units[:, None, None], family[None]).reshape(-1, n)
        return (np.count_nonzero(family, axis=0).tolist(),
                (pairs.astype(object) @ weight.ravel()).tolist(),
                set((multiples.astype(object) @ qpow).tolist()))

    # the code's statistics, and the target's (deg2, codeg2, keys), met at the images
    deg, codeg, keys = statistics(words)
    deg2, codeg2, keys = (deg, codeg, keys) if target is None else statistics(words2)
    W = [np.flatnonzero(w).tolist() for w in words]
    sup_at: list[list[tuple[int, list[int]]]] = [[] for _ in range(n)]
    for si, w in enumerate(words.tolist()):
        for i in W[si]:
            sup_at[i].append((si, terms[w[i]]))

    # greedy coordinate order without a target: most-constrained next
    # (supports nearly covered); inside[si] counts the chosen points of word si
    sizes = [len(S) for S in W]
    inside = [0] * len(W)
    order: list[int] = [] if target is None else list(range(n))
    while len(order) < n:
        def gain(x: int) -> tuple[int, int, int]:
            near = sum(1 for si, _ in sup_at[x] if inside[si] == sizes[si] - 1)
            full = sum(1 for si, _ in sup_at[x] if 0 < inside[si] < sizes[si] - 1)
            return (near, full, deg[x])
        nxt = max((x for x in range(n) if x not in order), key=lambda x: (gain(x), -x))
        order.append(nxt)
        for si, _ in sup_at[nxt]:
            inside[si] += 1

    img = [-1] * n
    used = [False] * n
    cnt = [0] * len(W)            # assigned points per word
    ikey = [0] * len(W)           # image key per word
    chain = StabilizerChain(n, order)
    for g in seeds:
        chain.add(g.images)
    nodes = 0

    def descend(depth: int, fixed: bool, certified: int | None) -> tuple[int, ...] | None:
        """Search below the placed prefix; fixed says it is the identity on
        order[:depth], and certified names the chain level known to hold
        all of Aut's stabilizer of order[:certified] (None on the identity
        path).  The leaf accepted below, if any: an automorphism added to
        the chain, or the witness."""
        nonlocal nodes
        if depth == n:
            ok = maps_onto(code, image, [img])[0] \
                and (target is not None or chain.add(tuple(img), certified))
            return tuple(img) if ok else None
        pos = order[depth]
        assigned = order[:depth]
        for j in ([pos] + [j for j in range(n) if j != pos]) if fixed else range(n):
            if used[j] or deg2[j] != deg[pos] or fixed and j != pos and j in chain.orbit[depth]:
                continue
            nodes += 1
            if nodes > node_budget:
                raise BacktrackBudgetExceeded(node_budget, chain.order())
            ok = True
            for i2 in assigned:
                if codeg[pos][i2] != codeg2[j][img[i2]]:
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
            hit = descend(depth + 1, fixed and j == pos,
                          depth + 1 if fixed and j != pos else certified)
            for si, term in sup_at[pos]:
                cnt[si] -= 1
                ikey[si] -= term[j]
            img[pos] = -1
            used[j] = False
            if hit and not fixed:
                return hit
        return None

    found = descend(0, target is None, None)
    return chain, found, nodes


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


@lru_cache(maxsize=None)
def _gl42_group() -> tuple[tuple[tuple[int, ...], ...], int]:
    """The image rows of a Singer cycle, the Frobenius map and a
    transvection of GF(2)^4 on its 15 nonzero vectors, numbered by their
    discrete logs, and the order of the group they generate, GL(4,2).  They
    depend on nothing else, so they are built and the order certified
    once."""
    from .algebra import make_field, root_system
    rs = root_system(make_field(2), 15)
    dlog = {v: i for i, v in enumerate(rs.powers)}

    def row_of(linmap) -> tuple[int, ...]:
        return tuple(dlog[linmap(v)] for v in rs.powers)

    rows = (row_of(lambda v: rs.ext.mul(v, rs.alpha)),      # Singer cycle
            row_of(lambda v: rs.ext.mul(v, v)),             # Frobenius
            row_of(lambda v: v ^ ((v & 1) << 1)))           # transvection
    return rows, PermGroup(15, tuple(map(Permutation, rows))).order()


def _gl42_witness_order(code: LinearCode) -> int | None:
    """Explicit order witness for length 15 over GF(2): the invertible linear
    maps of a 4-dimensional binary space permute its 15 nonzero vectors; when
    the induced coordinate permutations all fix the code, their closure is a
    subgroup of its automorphism group.  The group is built once
    (_gl42_group); only the maps_onto batch depends on the code."""
    if code.n != 15 or code.field.order != 2:
        return None
    rows, order = _gl42_group()
    if not maps_onto(code, code, list(rows)).all():
        return None
    return order


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
    search_nodes: int | None
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
            "search_nodes": self.search_nodes,
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
    gens = [Permutation.shift(n)] + [Permutation.multiplier(n, a) for a in sorted(mset)]
    for k in _gk_levels(code):
        gens += gk_family(code, k)[0].generators
    return list(PermGroup.from_generators(n, gens).generators), mset


def analyze(code: CyclicCode | LinearCode,
            run_backtrack: bool | None = None,
            node_budget: int = NODE_BUDGET_DEFAULT,
            distance_budget: int = DEFAULT_DISTANCE_BUDGET) -> AutoReport:
    """Full report on the automorphism group of a cyclic code: parameters,
    multipliers, discovered subgroup, optional exact group by backtrack,
    block systems, and a classification label with evidence.

    The reported generators passed maps_onto in the search or the scans;
    they are checked again, independently, by re-encoding the permuted rows
    of G (codes.fixed_by), and a RuntimeError names the first that fails.  The
    block systems are those of the group they generate, which contains the
    shift: the partitions into residues mod the divisors of n that every
    generator keeps (perm.minimal_blocks, none at prime length).  When the
    search runs out of nodes, the report is finished without the full group
    and the BacktrackBudgetExceeded is raised again with it as `report`."""
    code = as_cyclic(code)
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
    nodes: int | None = None
    stopped: BacktrackBudgetExceeded | None = None
    if elementary:
        full_order = factorial(n)
    else:
        if run_backtrack is None:
            small = min(k, n - k)
            run_backtrack = (n <= 16 and code.field.order ** small <= ENUMERATION_BOUND)
        if run_backtrack:
            try:
                bt = backtrack_full_group(lin, node_budget, seeds=gens)
                full_order, full_gens, nodes = bt.order, bt.generators, bt.nodes
            except BacktrackBudgetExceeded as exc:
                stopped, nodes = exc, exc.budget
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
        search_nodes=nodes,
        block_systems=systems,
        classification=GroupClass("UNRESOLVED", (), "pending"),
        is_elementary=elementary,
    )
    report = AutoReport(**{**report.__dict__, "classification": classify(code, report)})
    if stopped is not None:
        stopped.report = report
        raise stopped
    return report
