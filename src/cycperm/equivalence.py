"""Permutation equivalence of cyclic codes of prime-power length.

Equivalence can be decided without scanning all of S_n: any witness can be
pushed into H(P) = {sigma : sigma^-1 T sigma in P} for a Sylow p-subgroup P
of the automorphism group containing the shift.  This module builds P from
the shift and the triangular maps in closed form that fix the code (the
multipliers M_a with a = 1 mod p, and the maps x -> x + p^(r-1) x^j of
power_map_rows), tested in one code-action batch, describes H(P) exactly
at every length as the union of the cosets C(T) sigma_rho over the
n-cycles rho of P, and wraps the strategies behind a single decision
routine with an honest completeness flag.  The polynomial-map groups Q^m
and Q_1^m (q_group) are built from the same closed-form generators, never
by listing maps.  The closed-form sets of the paper (the affine set, the
geometric-series map family) are kept as independent checks of the coset
construction.  The MULTIPLIER strategy takes its witness from
autgroups.multipliers_onto, the one multiplier test, through witness_scan's
re-encoding check, as every strategy does.  The BRUTE strategy
covers small lengths for validation with the automorphism search of
autgroups run against the second code: an exhaustive search that prunes
only maps that cannot send the one code onto the other, and gives the
lexicographically least witness.

HP decides a pair of length n = p^r in this order: the dimensions, then
the W_T test and the D scan (tableau_verdict: when Kaloujnine's tableau
group W_T fixes the first code, H(W_T) = W_T D and the (p-1)^r digit
scalings D decide completely), then the Sylow descriptor and H(P)
(build_sylow_descriptor, restricted_set_verdict), and the weight profiles
(invariant_separation) only when the scan finds no witness
(profiles_after_scan).  The W_T test is one code-action batch of
L = (p^r - 1)/(p - 1) rows, cheaper than enumerating two weight profiles,
and the profiles could only end a W_T-fixed pair as "inequivalent", which
the D scan also reaches; nor can they separate a pair that H(P) holds a
witness for.  At other lengths HP takes the dimensions and the profiles
and then raises; MULTIPLIER and BRUTE take the dimensions and the profiles
first, and the quasi-cyclic STRUCTURED search takes HP's order: the
dimensions, H'(P), then the profiles.

One decision serves H(P) and its quasi-cyclic analogue H'(P), which is
H(P) at l = 1: restricted_set_verdict scans one member of each coset
<T^l> sigma (perm.shift_coset_leaders), since T^l fixes the second code and
a coset's members map the first code onto it all or none, and it certifies
its verdict exactly when |P| is the p-part of n!.  HP and the STRUCTURED
search of quasi-cyclic codes differ only in where P comes from.  The
membership test (hp_membership), the invariant separation and the BRUTE
verdict are shared the same way.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import factorial, gcd
from typing import TYPE_CHECKING

import numpy as np

from .algebra import multiplicative_order, p_part, prime_factors, prime_power, units
from .codes import (
    CyclicCode,
    LinearCode,
    maps_onto,
    reencodes_onto,
    weight_profile,
)
# permute_code is unused here but stays bound: perfbench's tracing self-test
# checks that the wrapper is rebound in this module
from .codes import permute_code  # noqa: F401
from .autgroups import _search, multipliers_onto
from .perm import (
    BRUTE_DEGREE_BOUND,
    ClosureBoundExceeded,
    PermGroup,
    Permutation,
    conjugation_set,
    digit_scalings,
    kaloujnine_generators,
    shift_coset_leaders,
)

if TYPE_CHECKING:
    from .quasicyclic import QuasiCyclicCode

# witness_scan's first block of rows and the factor each later block grows by
_SCAN_BLOCK = 256
_SCAN_GROWTH = 4


def palfy_multiplier_complete(n: int) -> bool:
    """Whether two cyclic codes of length n can only be equivalent when a
    multiplier maps one onto the other: gcd(n, phi(n)) = 1, or n = 4."""
    return n == 4 or gcd(n, len(units(n))) == 1


# --- polynomial-map groups ------------------------------------------------------

@lru_cache(maxsize=None)
def power_map_rows(p: int, r: int) -> np.ndarray:
    """The maps f_j: x -> x + p^(r-1) x^j mod p^r for 2 <= j <= p - 1, as a
    read-only (p - 2, p^r) array of image rows, j ascending, built once per
    (p, r) and shared by every caller; r >= 2.  p^(r-1) x^j mod p^r reads
    only x^j mod p, so x^j is taken as (x mod p)^j, reduced mod p at every
    step: no entry passes p^2 before the final x + p^(r-1) (x^j mod p),
    whatever p and j.  f_j changes only the top digit of x, by a function of
    x mod p, so it is a bijection and lies in W_T."""
    if r < 2:
        # at r = 1, x + x^j is no bijection and the family is not closed
        # under composition; the affine set covers that case
        raise ValueError("polynomial map groups need a proper prime power (r >= 2)")
    n, step = p ** r, p ** (r - 1)
    x = np.arange(n, dtype=np.int64)
    low = x % p
    power, rows = low, []
    for _ in range(2, p):
        power = power * low % p
        rows.append((x + step * power) % n)
    out = np.array(rows, dtype=np.int64).reshape(-1, n)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def q_group(n: int, m: int) -> tuple[PermGroup, PermGroup]:
    """The polynomial-map groups (Q^m, Q_1^m) on Z mod p^r: all degree <= m
    maps with unit linear coefficient (resp. linear coefficient 1 mod p^(r-1))
    and higher coefficients divisible by p^(r-1).

    Both are built from generators: Q_1^m from the shift, x -> (1 + p^(r-1)) x
    and the maps f_j: x -> x + p^(r-1) x^j for 2 <= j <= m (power_map_rows);
    Q^m from those and the multipliers by generators of the units mod p^r
    (a primitive root for odd p; -1 and 5 for p = 2).  Their chains must reach the family orders
    p^(r+m) and n phi(n) p^(m-1).  The pair depends on (n, m) alone and
    is cached; callers share the groups and never mutate them."""
    p, r = prime_power(n)
    if m >= p:
        raise ValueError("degree bound violated")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    powers = power_map_rows(p, r)[:m - 1].tolist()      # raises at r = 1
    step = p ** (r - 1)
    phi = n - step
    q1_gens = [Permutation.shift(n), Permutation.multiplier(n, 1 + step)]
    q1_gens += [Permutation(tuple(row)) for row in powers]
    if p == 2:
        units = [n - 1, 5 % n]
    else:
        units = [next(g for g in range(2, n) if g % p and multiplicative_order(g, n) == phi)]
    q1g = PermGroup.from_generators(n, q1_gens)
    qg = PermGroup.from_generators(n, q1_gens + [Permutation.multiplier(n, a) for a in units])
    if q1g.order() != p ** (r + m) or qg.order() != n * phi * p ** (m - 1):
        raise RuntimeError("polynomial map generators miss the order of their family")
    return qg, q1g


# --- H(P) ----------------------------------------------------------------------

def hp_membership(sigma: Permutation, P: PermGroup, l: int = 1) -> bool:
    """sigma^-1 T^l sigma in P, the one-element test behind H(P) (l = 1) and
    H'(P), defined for an index l dividing the degree n."""
    if l < 1 or P.degree % l:
        raise ValueError(f"index {l} does not divide the degree {P.degree}")
    tl = Permutation.power_shift(P.degree, l)
    if tl not in P:
        raise ValueError("P must contain the shift power T^l")
    return sigma.inverse() * tl * sigma in P


def ag_set(n: int) -> frozenset[Permutation]:
    """All maps x -> ax + b mod n with a a unit: the normalizer of the shift."""
    return frozenset(Permutation.affine(n, a, b) for a in units(n) for b in range(n))


def gr_formula_set(n: int, q: int) -> frozenset[Permutation]:
    """The geometric-series map family on Z mod p^r: all bijections
    i -> q^(i j) a + c (q^((i-1) j) + ... + q^j + 1) over j < t p^(r-1) and
    a, c in Z mod p^r, deduplicated.  t is the order of q mod p."""
    p, r = prime_power(n)
    if gcd(q, p) != 1:
        raise ValueError(f"q={q} and p={p} are not coprime")
    t = multiplicative_order(q, p)
    out: set[Permutation] = set()
    for j in range(t * p ** (r - 1)):
        qj = pow(q, j, n)
        powers = [1]
        for _ in range(n - 1):
            powers.append(powers[-1] * qj % n)
        geo = [0]
        for i in range(1, n):
            geo.append((geo[-1] + powers[i - 1]) % n)
        for a in range(n):
            for c in range(n):
                images = tuple((powers[i] * a + c * geo[i]) % n for i in range(n))
                if sorted(images) == list(range(n)):
                    # the raw map conjugates the shift into P from the left;
                    # its inverse is the H(P) member
                    out.add(Permutation(images).inverse())
    return frozenset(out)


def hp_set(P: PermGroup) -> frozenset[Permutation]:
    """H(P), listed exactly for every p-subgroup P through T and every
    length: the union of the cosets C(T) sigma_rho over the n-cycles rho of
    P, as a set.  decide_equivalence does not list it: it scans one member
    per coset <T> sigma (perm.shift_coset_leaders).  Raises ClosureBoundExceeded when
    that union is larger than CLOSURE_BOUND."""
    T = Permutation.shift(P.degree)
    if T not in P:
        raise ValueError("P must contain the shift")
    return conjugation_set(T, P)


def build_sylow_descriptor(code: CyclicCode) -> PermGroup:
    """A p-subgroup P of the code's automorphism group through the shift,
    at length n = p^r, built from generators:

        P = <T, the rows below that fix the code>,

    the rows being the multipliers M_a with a = 1 mod p, a != 1, and at
    r >= 2 the maps f_j: x -> x + p^(r-1) x^j for 2 <= j <= p - 1
    (power_map_rows), all tested in one maps_onto batch.  Every row is
    triangular (an affine map x -> ax + b is in W_T exactly when
    a = 1 mod p, and f_j changes only the top digit, by a function of
    x mod p), so P is a p-subgroup of Aut(C1) through T inside W_T.

    The fixing f_j are f_2, ..., f_m for some m.  The maps
    e_g: x -> x + p^(r-1) g(x mod p) compose as e_g e_h = e_(g+h), with
    f_j = e_(x^j), and T^-1 e_g T e_g^-1 = e_(g(x+1) - g(x)).  Each such
    difference lowers the degree by one with a unit leading coefficient
    (j < p), so <T, f_j> holds every e_g of degree <= j: f_i for i < j,
    and M_(1+p^(r-1)) = e_x.  So P's rows past the multipliers are the
    generators of the polynomial-map group Q_1^m (q_group) when m >= 2.

    HP calls it only on codes that W_T does not fix, and on those P is
    G meet W_T, a Sylow p-subgroup of the discovered group G, the group
    generated by known_cyclic_subgroup and the fixing f_j.
    - By the lifting lemma (autgroups.gk_lifts), a code W_T does not fix
      has no G_k families, so G = <T, M_a (a in the multiplier set), the
      fixing f_j>.
    - N = <T, the fixing f_j> lies in Q_1^(p-1), so it is a p-group, and
      the multipliers M = {M_a} normalize it: M_a^-1 T M_a is a power of
      T, and M_a^-1 f_j M_a = f_j^(a^(j-1)).  So G = N M.
    - M is abelian, and its Sylow p-subgroup M_p is {M_a : a = 1 mod p},
      the p-part of the units mod p^r (at p = 2 all of them).  N M_p is a
      p-group, and its index |M|/|M_p| in G is prime to p, since N meet M
      is a p-group and so lies in M_p.  So N M_p = P is Sylow in G.
    - P contains T, so P lies in W_T, the only Sylow p-subgroup of S_n
      through T (perm.kaloujnine_generators), and P <= G meet W_T, a
      p-subgroup of G; as P is Sylow in G, the two are equal.
    On codes W_T fixes, P is still a p-subgroup of Aut(C1) through T, and
    decide_equivalence has already decided them by the digit scalings.
    """
    n = code.n
    p, r = prime_power(n)
    rows = np.outer(range(1 + p, n, p), range(n)) % n
    if r >= 2:
        rows = np.concatenate([rows, power_map_rows(p, r)])
    fixing = rows[maps_onto(code.linear, code.linear, rows)]
    return PermGroup.from_generators(
        n, [Permutation.shift(n)] + [Permutation(tuple(row)) for row in fixing.tolist()])


# --- decision ------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceVerdict:
    status: str                   # equivalent | inequivalent | inconclusive
    witness: Permutation | None
    strategy: str
    complete: bool
    evidence: str

    def to_json(self) -> dict:
        out = {"status": self.status, "strategy": self.strategy,
               "complete": self.complete, "evidence": self.evidence}
        if self.witness is not None:
            out["witness"] = list(self.witness.images)
        return out


def _check_compatible(c1: CyclicCode | QuasiCyclicCode,
                      c2: CyclicCode | QuasiCyclicCode) -> None:
    if c1.n != c2.n:
        raise ValueError(f"length mismatch: {c1.n} != {c2.n}")
    if c1.field != c2.field:
        raise ValueError("codes live over different fields")


def invariant_separation(c1: CyclicCode | QuasiCyclicCode,
                         c2: CyclicCode | QuasiCyclicCode,
                         strategy: str) -> EquivalenceVerdict | None:
    """The complete "inequivalent" verdict when the dimensions or the weight
    profiles differ, or None; the profiles are skipped past the enumeration
    budget of weight_profile.  MULTIPLIER and BRUTE run it before their own
    search.  HP at n = p^r and STRUCTURED compare the dimensions first and
    run it only on differing dimensions, or after a restricted-set scan
    that found no witness (profiles_after_scan); HP at n = p^r runs the W_T
    test and the D scan (tableau_verdict) before that scan."""
    if c1.k != c2.k:
        sep = f"dimensions differ: {c1.k} != {c2.k}"
    else:
        try:
            same = weight_profile(c1.linear).counts == weight_profile(c2.linear).counts
        except ValueError:
            return None
        if same:
            return None
        sep = "weight profiles differ"
    return EquivalenceVerdict("inequivalent", None, strategy, True, sep)


def profiles_after_scan(c1: CyclicCode | QuasiCyclicCode,
                        c2: CyclicCode | QuasiCyclicCode,
                        verdict: EquivalenceVerdict) -> EquivalenceVerdict:
    """The verdict of a restricted-set scan (restricted_set_verdict) run
    before the weight profiles, on two codes of one dimension: the scan's
    verdict when it found a witness; else the "inequivalent" verdict of
    invariant_separation when the profiles differ, and the scan's verdict
    when they do not.  This is the verdict of the profiles-first order, down
    to the evidence: equivalent codes have equal weight profiles, so the
    profiles never separate a pair that has a witness, and a pair they
    separate gets their verdict either way.  Only the work differs: a
    witnessed pair enumerates no profile."""
    if verdict.witness is not None:
        return verdict
    return invariant_separation(c1, c2, verdict.strategy) or verdict


def witness_scan(c1: LinearCode, c2: LinearCode, images: np.ndarray) -> Permutation | None:
    """The first row of the (B, n) image array `images` whose permutation
    maps c1 onto c2 (codes.maps_onto), None when none does.  The row found
    is checked again from the generator matrices alone, never H
    (codes.reencodes_onto), and a RuntimeError names it when the two tests
    disagree.  The rows are tested in consecutive blocks of _SCAN_BLOCK,
    _SCAN_GROWTH times _SCAN_BLOCK, ... rows, one maps_onto batch each, and
    the scan stops at the first block with a passing row: its first passing
    row is the first of all, as every earlier block had none.  Restricted
    sets such as H(P) and H'(P) are scanned as perm.shift_coset_leaders, one
    member per coset of <T^l>, in sorted order of images; BRUTE hands over
    the one witness of its search."""
    start, size = 0, _SCAN_BLOCK
    while start < len(images):
        block = images[start:start + size]
        for row in block[maps_onto(c1, c2, block)][:1]:
            sigma = Permutation(tuple(row.tolist()))
            if not reencodes_onto(c1, c2, [sigma])[0]:
                raise RuntimeError(f"code-action test and re-encoding check disagree on {sigma}")
            return sigma
        start, size = start + size, size * _SCAN_GROWTH
    return None


def brute_equivalence(c1: CyclicCode | LinearCode,
                      c2: CyclicCode | LinearCode) -> Permutation | None:
    """The lexicographically least permutation mapping the first code onto
    the second, None when inequivalent; n <= 10, every field and dimension.
    It comes from the automorphism search run with the second code as its
    target (autgroups._search): coordinates in natural order, images
    increasing, branches pruned on the minimum-weight words of the first
    code against those of the second, so only maps that cannot send the one
    code onto the other are skipped and the first leaf that passes maps_onto
    is the least witness.  Without an exact distance on either side nothing
    is pruned and the search visits every permutation, fewer than e n!
    nodes.  The hit is confirmed by witness_scan's re-encoding check."""
    l1 = c1.linear if isinstance(c1, CyclicCode) else c1
    l2 = c2.linear if isinstance(c2, CyclicCode) else c2
    if l1.n > BRUTE_DEGREE_BOUND:
        raise ValueError(f"exhaustive scan limited to n <= {BRUTE_DEGREE_BOUND}")
    witness = _search(l1, target=l2)[1] if l1.k == l2.k else None
    return witness_scan(l1, l2, np.array([witness])) if witness else None


def brute_verdict(c1: LinearCode, c2: LinearCode) -> EquivalenceVerdict:
    """The complete BRUTE verdict from brute_equivalence."""
    sigma = brute_equivalence(c1, c2)
    if sigma is not None:
        return EquivalenceVerdict("equivalent", sigma, "BRUTE", True,
                                  "witness found by exhaustive scan")
    return EquivalenceVerdict("inequivalent", None, "BRUTE", True,
                              "exhaustive scan found no witness")


def restricted_set_verdict(c1: CyclicCode | QuasiCyclicCode,
                           c2: CyclicCode | QuasiCyclicCode,
                           P: PermGroup, l: int, strategy: str, source: str,
                           fallback: PermGroup | None = None) -> EquivalenceVerdict:
    """The verdict of H'(P) = {sigma : sigma^-1 T^l sigma in P}, which is
    H(P) at l = 1, for two codes of length n = l p^r fixed by T^l and a
    p-subgroup P of Aut(C1) through T^l; `source` names where P came from.

    It scans one member of each coset <T^l> sigma of H'(P)
    (perm.shift_coset_leaders) with witness_scan, so a witness is the first
    member in sorted order of images that maps C1 onto C2.  The verdict is
    complete exactly when |P| is the p-part of n!, that is when P is a
    Sylow p-subgroup of S_n, and hence of Aut(C1), which lies between them.
    Then H'(P) holds a witness whenever one exists: if sigma maps C1 onto
    C2, sigma^-1 T^l sigma fixes C1 and has order p^r, so it lies in some
    Sylow p-subgroup of Aut(C1), which is tau P tau^-1 for some tau in
    Aut(C1) by Sylow's theorem.  So (sigma tau)^-1 T^l (sigma tau) is in P,
    and sigma tau, which also maps C1 onto C2, is in H'(P).  At l = 1,
    Legendre's formula gives v_p((p^r)!) = (p^r - 1)/(p - 1), the ceiling
    on the exponent of P.  When the leaders would take more than
    CLOSURE_BOUND rows, H'(P) is not scanned, and the verdict is
    "inconclusive", with the count reached in its evidence, unless
    `fallback`, a subgroup of P through T^l, is given and H'(fallback),
    which lies in H'(P), holds a witness: then the verdict is fallback's,
    its evidence naming the P it stands in for.
    """
    n = P.degree
    p, _ = prime_power(n // l)
    _, s = prime_power(P.order())
    name = "H(P)" if l == 1 else "H'(P)"
    try:
        leaders, size = shift_coset_leaders(P, l)
    except ClosureBoundExceeded as exc:
        inner = fallback and restricted_set_verdict(c1, c2, fallback, l, strategy, source)
        if inner and inner.witness is not None:
            return replace(inner, evidence=f"{inner.evidence} (a subgroup of the P of Sylow "
                                           f"exponent {s}, whose {name} passes CLOSURE_BOUND)")
        return EquivalenceVerdict(
            "inconclusive", None, strategy, False,
            f"{name} from {source}, Sylow exponent {s}, not scanned: listing it reached "
            f"{exc.reached} rows, past CLOSURE_BOUND = {exc.bound}")
    complete = P.order() == p_part(factorial(n), p)
    detail = f"{name} of size {size} from {source}, Sylow exponent {s}"
    sigma = witness_scan(c1.linear, c2.linear, leaders)
    if sigma is not None:
        return EquivalenceVerdict("equivalent", sigma, strategy, complete,
                                  f"witness found in {detail}")
    if complete:
        return EquivalenceVerdict(
            "inequivalent", None, strategy, True,
            f"{detail}; the exponent reaches the theoretical ceiling, so the "
            "restricted set is exhaustive")
    return EquivalenceVerdict(
        "inconclusive", None, strategy, False,
        f"no witness in {detail}; the subgroup carrying P may be proper")


def tableau_verdict(c1: CyclicCode, c2: CyclicCode, p: int, r: int,
                    strategy: str) -> EquivalenceVerdict | None:
    """The complete verdict of the digit scalings D when Kaloujnine's
    tableau group W_T fixes the first code, or None when it does not; two
    cyclic codes of length n = p^r.  One maps_onto batch tests the
    L = (p^r - 1)/(p - 1) level maps of W_T (perm.kaloujnine_generators)
    against C1, and one witness_scan tests the (p - 1)^r rows of D
    (perm.digit_scalings) in sorted order, so a witness is the first
    scaling that maps C1 onto C2.

    The verdict is complete.  Suppose W_T, of order p^L, fixes C1.
    - W_T is Sylow in Aut(C1): it is a Sylow p-subgroup of S_n (Legendre,
      v_p(n!) = L), and W_T <= Aut(C1) <= S_n.
    - Any witness can be moved into H(W_T) = {sigma : sigma^-1 T sigma in
      W_T}: this is restricted_set_verdict's argument with P = W_T.
    - H(W_T) = N(W_T).  If sigma^-1 T sigma is in W_T, it is an n-cycle in
      the two Sylow p-subgroups W_T and sigma^-1 W_T sigma.  An n-cycle
      lies in exactly one Sylow p-subgroup of S_n, by the counting in
      perm.kaloujnine_generators.  So
      sigma^-1 W_T sigma = W_T.  Conversely a normalizing sigma sends T
      into W_T.
    - N(W_T) = W_T D, with W_T normal: D normalizes W_T and meets it only in
      the identity, so |W_T D| = p^L (p-1)^r, which is |N(W_T)|, n! over
      the number of Sylow p-subgroups.
    - Each coset d W_T = W_T d maps C1 onto C2 all or none: its members
      map C1 onto d(C1), since W_T fixes C1.
    So C1 and C2 are equivalent exactly when some d in D maps C1 onto C2.
    At p = 2, D is the identity alone, and two distinct codes fixed by
    W_T are inequivalent.
    """
    lin = c1.linear
    levels = kaloujnine_generators(p, r)
    if not maps_onto(lin, lin, levels).all():
        return None
    D = digit_scalings(p, r)
    L = len(levels)
    detail = f"W_T of order {p}^{L} = {p ** L} fixes the first code"
    sigma = witness_scan(lin, c2.linear, D)
    if sigma is not None:
        return EquivalenceVerdict(
            "equivalent", sigma, strategy, True,
            f"witness found among the {len(D)} digit scalings D; {detail}, "
            "so H(W_T) = W_T D")
    return EquivalenceVerdict(
        "inequivalent", None, strategy, True,
        f"{detail} and none of the {len(D)} digit scalings D maps it onto the "
        "second, so no member of H(W_T) = W_T D does")


def decide_equivalence(c1: CyclicCode, c2: CyclicCode,
                       strategy: str = "HP") -> EquivalenceVerdict:
    """Decide whether two cyclic codes are permutation equivalent.

    MULTIPLIER takes the least unit a whose map x -> ax sends the first code
    onto the second (autgroups.multipliers_onto, which checks the defining
    sets against the matrix test for every unit), passing the hits in
    ascending order through witness_scan, whose re-encoding check confirms
    the map; without one it is
    complete exactly when multiplier equivalence is known to decide the
    length.  HP at a length n = p^r compares the dimensions, then tests
    W_T: when W_T fixes the first code it scans the digit scalings and is
    complete (tableau_verdict), without enumerating a weight profile.  Else
    it scans the exact H(P) of the P of build_sylow_descriptor, one member
    per coset of <T>, in sorted order (restricted_set_verdict), and
    compares the weight profiles only when that scan finds no witness
    (profiles_after_scan).  At any other length it raises a ValueError
    naming the other strategies once the dimensions and weight profiles
    leave the pair open.  The H(P) fallback is never complete: it gives a
    witness with complete = False, or "inconclusive".  Its P is a
    p-subgroup of Aut(C1) through T, so it lies in W_T, the only Sylow
    p-subgroup of S_n through T, and has the Sylow order p^L only when it
    is W_T; then W_T fixes C1 and tableau_verdict has already decided.
    BRUTE searches S_n for the least witness, pruned on minimum-weight
    words (brute_equivalence), and accepts n <= 10.  An "inequivalent"
    verdict is only issued under a complete strategy or an invariant
    separation.
    """
    _check_compatible(c1, c2)
    strategy = strategy.upper()
    if strategy not in ("MULTIPLIER", "HP", "BRUTE"):
        raise ValueError(f"unknown strategy {strategy!r}")
    n = c1.n
    prime_power_length = len(prime_factors(n)) == 1
    if strategy == "HP" and prime_power_length and c1.k == c2.k:
        verdict = tableau_verdict(c1, c2, *prime_power(n), strategy)
        if verdict is not None:
            return verdict
        verdict = restricted_set_verdict(c1, c2, build_sylow_descriptor(c1), 1, strategy,
                                         "<T, M_a (a = 1 mod p), Q_1> fixing the code")
        return profiles_after_scan(c1, c2, verdict)
    sep = invariant_separation(c1, c2, strategy)
    if sep is not None:
        return sep

    if strategy == "MULTIPLIER":
        hits = multipliers_onto(c1, c2)
        # every hit passed maps_onto, so the scan returns hits[0]'s map
        sigma = witness_scan(c1.linear, c2.linear, np.outer(hits, range(n)) % n)
        if sigma is not None:
            return EquivalenceVerdict(
                "equivalent", sigma, strategy, True,
                f"multiplier by {hits[0]} maps the first code onto the second")
        if palfy_multiplier_complete(n):
            return EquivalenceVerdict(
                "inequivalent", None, strategy, True,
                "no multiplier works, and multiplier equivalence decides this length "
                "(length coprime to its totient, or 4)")
        return EquivalenceVerdict(
            "inconclusive", None, strategy, False,
            "no multiplier works; multiplier completeness not established for "
            "this length")

    if strategy == "BRUTE":
        return brute_verdict(c1.linear, c2.linear)

    # HP at a prime-power length has returned above, or on differing dimensions
    raise ValueError(
        f"HP needs a prime-power length, and {n} is not one; the dimensions "
        "and weight profiles do not separate the pair, so use MULTIPLIER, or "
        f"BRUTE for n <= {BRUTE_DEGREE_BOUND}")
