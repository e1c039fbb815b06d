"""Quasi-cyclic codes and the restricted equivalence set H'(P).

A code of length n = l*m invariant under T^l is quasi-cyclic of index l.
T^l factors into the l disjoint cycles sigma_i = (i, i+l, ..., i+(m-1)l),
and any equivalence witness between two such codes can be pushed into
H'(P) = {sigma : sigma^-1 T^l sigma in P} for a Sylow p-subgroup P of the
automorphism group containing T^l (lengths n = p^r*l, gcd(p,l) = gcd(p,q) = 1).

P is Sylow in the group G that the structured families discover, the
members of Q = <sigma_i, T> and of the affine group AG(n) that fix the
code, and G is never built (qc_sylow).  P is S_C Y: S_C holds the members
of S = <sigma_0, ..., sigma_(l-1)> that fix the code, listed in closed
form (_w_rows), and Y is a Sylow p-subgroup of AG_C, the affine maps that
fix it.  Y is the stabilizer in AG_C of one residue class mod l, read off
the affine p-elements that fix a class, one per coset of <T^l>
(perm.affine_p_rows), which the same code-action batch tests with S: as p
does not divide l, every p-subgroup of AG_C fixes some class, so the
largest stabilizer is Sylow.  For l < p every such row fixes every class,
Y is V_C, the fixing members of the p-group V = AG(n) meet W, and P is G
meet W, W being the only Sylow p-subgroup of S_n through T^l; at r = 1
and l < p there is no such row and P is S_C.  No normalizer ascent runs
and no group is listed.  A P past CLOSURE_BOUND gives way to <T^l>.
H'(P) is the union of the cosets C(T^l) sigma_rho over the rho in P with
the cycle type of T^l, exact at every length.  The search over it is the
decision HP makes at l = 1 (equivalence.restricted_set_verdict): one
member of each coset <T^l> sigma, in sorted image rows, and a complete
verdict exactly when |P| is the p-part of n!; as for HP, the weight
profiles are compared only when it finds no witness.  H'(P) is not known
to be a group, so nothing here assumes closure: reports take the group the
cosets generate, grown by PermGroup.from_rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gcd

import numpy as np

from .algebra import prime_power, units
# permute_code is unused here but stays bound: perfbench's tracing self-test
# checks that the wrapper is rebound in this module
from .codes import LinearCode, maps_onto, permute_code  # noqa: F401
from .equivalence import (
    EquivalenceVerdict,
    _check_compatible,
    brute_verdict,
    invariant_separation,
    profiles_after_scan,
    restricted_set_verdict,
)
from .perm import (
    CLOSURE_BOUND,
    BlockSystem,
    PermGroup,
    Permutation,
    affine_p_rows,
    centralizer_generators,
    centralizer_order,
    conjugation_cosets,
    minimal_blocks,
)


@dataclass(frozen=True)
class QuasiCyclicCode:
    """Linear code declared invariant under T^l; the declared index need not
    be minimal, see minimal_index()."""
    linear: LinearCode
    index: int

    def __post_init__(self):
        n, l = self.linear.n, self.index
        if not 1 <= l <= n or n % l:
            raise ValueError(f"index {l} does not divide the length {n}")
        if not maps_onto(self.linear, self.linear, [Permutation.power_shift(n, l).images])[0]:
            raise ValueError(f"code is not invariant under the shift by {l}")

    @property
    def n(self) -> int:
        return self.linear.n

    @property
    def k(self) -> int:
        return self.linear.k

    @property
    def field(self):
        return self.linear.field

    @property
    def co_index(self) -> int:
        return self.n // self.index

    def minimal_index(self) -> int:
        """Smallest divisor l' of n with the code invariant under T^(l');
        1 means the code is cyclic."""
        n = self.n
        divisors = [l for l in range(1, n + 1) if n % l == 0]
        shifts = [Permutation.power_shift(n, l).images for l in divisors]
        # l = n is the identity, which always fixes the code
        return divisors[int(np.argmax(maps_onto(self.linear, self.linear, shifts)))]

    def __repr__(self) -> str:
        return f"QuasiCyclicCode(q={self.field.order}, n={self.n}, k={self.k}, l={self.index})"


def sigma_cycles(n: int, l: int) -> list[Permutation]:
    """The l disjoint cycles sigma_i = (i, i+l, ..., i+(m-1)l) whose product
    is T^l; each permutes one residue class mod l and has order m = n/l."""
    if l < 1 or n % l:
        raise ValueError(f"index {l} does not divide the length {n}")
    return [Permutation(tuple((x + l) % n if x % l == i else x for x in range(n)))
            for i in range(l)]


def normalizer_witnesses(n: int, l: int) -> tuple[PermGroup, PermGroup]:
    """The two explicit subgroups of the normalizer of <T^l>: the wreath-like
    group Q = <sigma_0, ..., sigma_(l-1), T> and the affine group AG(n).

    Every generator of Q is verified to conjugate T^l into <T^l>, which
    makes Q normalize it; every affine map is checked against the exact
    identity tau_{a,b} T^l tau_{a,b}^-1 = T^(l*a), and AG(n) is the group
    they generate.  A failure would disprove the containment and raises
    with the witness.
    """
    if gcd(n // l, l) != 1:
        raise ValueError(f"need gcd(m, l) = 1, got m={n // l}, l={l}")
    tl = Permutation.power_shift(n, l)
    powers = frozenset(tl ** e for e in range(n // l))
    q_group = PermGroup.from_generators(n, sigma_cycles(n, l) + [Permutation.shift(n)])
    for g in q_group.generators:
        if g.inverse() * tl * g not in powers:
            raise RuntimeError(f"generator of Q fails to normalize <T^l>: {g}")
    affine = []
    for a in units(n):
        for b in range(n):
            tau = Permutation.affine(n, a, b)
            if tau * tl * tau.inverse() != tl ** a:
                raise RuntimeError(f"affine map fails the shift-conjugation law: a={a}, b={b}")
            affine.append(tau)
    return q_group, PermGroup.from_generators(n, affine)


def _qc_prime_power(code: QuasiCyclicCode) -> tuple[int, int]:
    """(p, r) with co-index p^r, under the usual coprimality hypotheses."""
    n, l, m = code.n, code.index, code.co_index
    try:
        p, r = prime_power(m)
    except ValueError:
        raise ValueError(f"co-index n/l = {n}/{l} = {m} is not a prime power; H'(P) "
                         "needs n = l p^r with r >= 1") from None
    if gcd(p, l) != 1:
        raise ValueError(f"hypothesis violated: gcd(p, l) = {gcd(p, l)} != 1")
    if code.field.order % p == 0:
        raise ValueError("hypothesis violated: p divides the field order")
    return p, r


def qc_sylow(code: QuasiCyclicCode) -> PermGroup:
    """A Sylow p-subgroup P through T^l of the group G discovered from the
    structured families, co-index m = n/l = p^r: G is generated by Q_C and
    AG_C, the members of Q = <sigma_0, ..., sigma_(l-1), T> and of the
    affine group AG(n) that fix the code.  G is never built.

    S = <sigma_i> has the m^l members _w_rows lists, and perm.affine_p_rows
    the maps x -> a x + b with a != 1 of p-power order mod n that fix some
    residue class mod l, one per coset of <T^l>, with the classes each
    fixes.  One maps_onto batch tests both.  S_C is the members of S that
    fix the code; c* is the least class fixed by the most fixing rows, and
    Y, the stabilizer of c* in AG_C, is generated by <T^l> and the fixing
    rows that fix c*, and has order m (1 + their number).
    PermGroup.from_rows grows P from S_C's rows, then Y's, up to its order
    |S_C| |Y| / m.  When l m^l passes CLOSURE_BOUND, the m rows of <T^l>
    stand for S, and P = Y.  When |P| passes CLOSURE_BOUND, P is <T^l>, as
    it was when the discovered group G passed it (|G| >= |P|): the report
    and the scan list P.

    P is Sylow in G:
    - Q = <T> S, and S is Q's normal Sylow p-subgroup, since gcd(l, p) = 1:
      T sigma_i T^-1 = sigma_(i+1), and <T> meets S in <T^l>, so |Q| =
      l m^l.  AG(n) normalizes S (tau sigma_i tau^-1 = sigma_j^a for tau:
      x -> a x + b) and <T>.  So G = Q_C AG_C with Q_C normal, and
      S_C = S meet Aut C, the normal Sylow p-subgroup of Q_C, is normal in G.
    - Q meets AG(n) in <T>.  So Q_C meet AG_C = <T> meet Aut C, whose
      p-part is <T^l>, and |G|_p = |S_C| |AG_C|_p / p^r.
    - Every Sylow p-subgroup Y of AG_C contains <T^l>, a normal p-subgroup
      of AG(n) (tau T^l tau^-1 = T^(la)), and S_C meet Y lies in S meet
      AG(n) = <T^l>.  So S_C Y, a group as S_C is normal, has order
      |S_C| |Y| / p^r = |G|_p: it is Sylow in G and contains T^l.
    - Y is Sylow in AG_C.  For a class c mod l, Stab(c) = {x -> a x + b in
      AG_C : a has p-power order, (a - 1) c + b = 0 mod l} is a subgroup:
      the units of p-power order form a subgroup, and maps that fix c
      compose to one.  Its members are p-elements.  Under
      Z_n = Z_l x Z_(p^r), x -> a x + b acts on Z_l as y -> a (y - c) + c,
      as it fixes c, so its order there divides ord(a); on Z_(p^r) its
      ord(a)-th power is a translation, so its order divides ord(a) p^r.
      Conversely a p-subgroup of AG_C permutes the l classes in orbits of
      p-power size, and as p does not divide l one orbit is a single class
      c: the subgroup lies in Stab(c), its members' a having p-power order.
      So the Sylow p-subgroups of AG_C are the largest Stab(c).  A member
      x -> a x + b of Stab(c) is T^(b - b') after x -> a x + b', with
      b' = b mod l a multiple of gcd(a - 1, l), and l divides b - b': it
      lies in <T^l> when a = 1, as then b' = 0, and else in the coset of a
      fixing row that fixes c.  So |Stab(c)| = m (1 + the number of fixing
      rows that fix c), largest at c*.
    - At l < p, a row's a has p-power order mod l, where the units number
      phi(l) < p, and mod p^r, so a = 1 mod lp; then gcd(a - 1, l) = l and
      b = 0, so every row fixes every class, and Y is V_C, the members
      fixing the code of V = AG(n) meet W = {x -> a x + l c : a = 1 mod lp},
      W being the product of Kaloujnine's triangular groups on the cycles of
      T^l.  V_C is in fact the only Sylow p-subgroup of AG_C: |AG(n)|_p =
      p^(2r-1) = |V|, as |AG(n)| = n phi(n), and V is normal in AG(n).
      S_C V_C lies in W, and G meet W is a p-group that contains it, so
      P = G meet W.  At r = 1, a = 1 mod lp and a < n = lp leave no row:
      Y = <T^l> lies in S, and P is S_C, grown from its own rows in
      lexicographic order.
    - At l > p, any two Sylow p-subgroups of G through T^l are conjugate by
      some g in G <= Aut(C), and H'(P^g) = H'(P) g: the size of H'(P), the
      verdict's status and completeness do not depend on which one P is;
      only the first witness can."""
    _qc_prime_power(code)
    n, l, lin, m = code.n, code.index, code.linear, code.co_index
    s = (_w_rows(n, l) if l * m ** l <= CLOSURE_BOUND       # else the m rows of <T^l>
         else ((np.arange(n) + np.arange(0, n, l)[:, None]) % n).astype(np.min_scalar_type(n)))
    rows, fixes = affine_p_rows(n, l)
    fixed = maps_onto(lin, lin, np.concatenate([s, rows]))
    s_c, fixes = s[fixed[:len(s)]].tolist(), fixes & fixed[len(s):, None]
    c = fixes.sum(axis=0).argmax()      # the least class the most fixing rows fix
    y = rows[fixes[:, c]].tolist()
    order = len(s_c) * (1 + len(y))
    if order > CLOSURE_BOUND:
        return PermGroup(n, (Permutation.power_shift(n, l),))
    return PermGroup.from_rows(n, s_c + y, order=order)


def _w_rows(n: int, l: int) -> np.ndarray:
    """The m^l members w of S = <sigma_0, ..., sigma_(l-1)>, m = n/l, as
    image rows in the smallest unsigned dtype and in lexicographic order:
    w moves cycle i by e_i steps, w(i + k l) = i + ((k + e_i) mod m) l, and
    the rows are taken with (e_0, ..., e_(l-1)) ascending, which orders them
    by their first l entries w(i) = i + e_i l.  They are gathered from a
    table so that no value leaves the dtype: step[e, x] is x moved e steps
    along its cycle of T^l."""
    m, dtype, x = n // l, np.min_scalar_type(n), np.arange(n)
    step = (x % l + (x // l + np.arange(m)[:, None]) % m * l).astype(dtype)
    e = np.indices((m,) * l, dtype=dtype).reshape(l, -1).T     # e_i, the steps on cycle i
    return step[e[:, x % l], x]


def qc_equivalence_search(c1: QuasiCyclicCode, c2: QuasiCyclicCode,
                          strategy: str = "STRUCTURED") -> EquivalenceVerdict:
    """Search for a permutation mapping one quasi-cyclic code onto the other.

    STRUCTURED scans the exact H'(P) in sorted order, one member per coset
    of <T^l>, at every length, for the P of qc_sylow, by the decision that
    HP makes at l = 1 (equivalence.restricted_set_verdict).  It is complete
    when |P| is the p-part of n!: P is then a Sylow subgroup of the full
    automorphism group, and H'(P) holds a witness whenever one exists.  A
    smaller P is a Sylow subgroup only of the discovered part, and H'(P) may
    miss every witness.  When H'(P) has too many cosets to list, its part
    H'(<T^l>) is scanned instead, and a witness found there is the verdict.
    BRUTE searches all of S_n for n <= 10
    (brute_equivalence) and is complete.  Differing dimensions short-circuit
    either way.  BRUTE compares the weight profiles before its search;
    STRUCTURED scans first and compares them only when the scan finds no
    witness (equivalence.profiles_after_scan), which gives the same verdict.
    """
    _check_compatible(c1, c2)
    if c1.index != c2.index:
        raise ValueError(f"index mismatch: {c1.index} != {c2.index}")
    _qc_prime_power(c1)
    strategy = strategy.upper()
    if strategy not in ("STRUCTURED", "BRUTE"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "BRUTE":
        return invariant_separation(c1, c2, strategy) or brute_verdict(c1.linear, c2.linear)
    if c1.k != c2.k:
        return invariant_separation(c1, c2, strategy)
    verdict = restricted_set_verdict(c1, c2, qc_sylow(c1), c1.index, strategy,
                                     "the structured families")
    return profiles_after_scan(c1, c2, verdict)


@dataclass(frozen=True)
class HPrimeReport:
    """What H'(P) generates.

    `discovered` is |H'(P)| for the recorded P, counted as |C(T^l)| times the
    number of cosets; `exhaustive` is always true and kept for the report's
    JSON shape.  Primitive closures carry the cycle-length argument data (a
    primitive group with a cycle of length m, m < (n-m)!, is alternating or
    symmetric, and an odd full shift rules the alternating group out for
    even n).
    """
    n: int
    index: int
    p_order: int
    discovered: int
    exhaustive: bool               # discovered set is all of H'(P)
    closure_order: int
    block_systems: tuple[BlockSystem, ...]
    primitive: bool
    cycle_length: int
    williamson_bound: int
    shift_is_odd: bool
    conclusion: str

    def to_json(self) -> dict:
        return {
            "n": self.n, "index": self.index, "p_order": self.p_order,
            "discovered": self.discovered, "exhaustive": self.exhaustive,
            "closure_order": self.closure_order,
            "block_systems": [[list(b) for b in bs.blocks] for bs in self.block_systems],
            "primitive": self.primitive,
            "cycle_length": self.cycle_length,
            "williamson_bound": self.williamson_bound,
            "shift_is_odd": self.shift_is_odd,
            "conclusion": self.conclusion,
        }


def imprimitivity_report(code: QuasiCyclicCode) -> HPrimeReport:
    """Count H'(P), close it, and classify the result, at every length.

    H'(P) is never listed: it is the disjoint union of the cosets
    C(T^l) sigma_rho, so its size is |C(T^l)| times the number of cosets,
    and it generates the group generated by C(T^l) and the sigma_rho.  The
    closure grows from the generators of C(T^l), then the sigma_rho
    (PermGroup.from_rows), keeping only the rows that extend it.  It never
    assumes H'(P) is a group.  The closure contains T, which commutes with
    T^l, so its block systems are residue partitions mod divisors of n, read
    off its generators (perm.minimal_blocks).
    """
    n, l, m = code.n, code.index, code.co_index
    P = qc_sylow(code)
    tl = Permutation.power_shift(n, l)
    cosets = conjugation_cosets(tl, P)
    discovered = centralizer_order(tl) * len(cosets)
    closure = PermGroup.from_rows(n, [g.images for g in centralizer_generators(tl)]
                                  + cosets.tolist())
    bound = factorial(n - m)
    shift_odd = Permutation.shift(n).parity() == 1
    systems = tuple(minimal_blocks(closure))
    primitive = not systems
    if not primitive:
        conclusion = "IMPRIMITIVE"
    elif m < bound:
        # a primitive closure contains the cycles sigma_i of length m
        conclusion = "SYMMETRIC" if n % 2 == 0 and shift_odd else "ALTERNATING_OR_SYMMETRIC"
    else:
        conclusion = "UNRESOLVED"
    return HPrimeReport(n, l, P.order(), discovered, True,
                        closure.order(), systems, primitive, m, bound,
                        shift_odd, conclusion)
