"""Quasi-cyclic codes and the restricted equivalence set H'(P).

A code of length n = l*m invariant under T^l is quasi-cyclic of index l.
T^l factors into the l disjoint cycles sigma_i = (i, i+l, ..., i+(m-1)l),
and any equivalence witness between two such codes can be pushed into
H'(P) = {sigma : sigma^-1 T^l sigma in P} for a Sylow p-subgroup P of the
automorphism group containing T^l (lengths n = p^r*l, gcd(p,l) = gcd(p,q) = 1).

At co-index m = p with l < p, P is read off W = <sigma_0, ..., sigma_(l-1)>,
of order p^l, the only Sylow p-subgroup of S_n through T^l: its rows that
fix the code are Aut(C) meet W, found by one code-action batch, with no
ambient group built (qc_sylow).  Elsewhere P is cut out of the discovered
group by the filter that gives the cyclic P (perm.sylow_through_shift, here
with W_T on each cycle of T^l): for l < p it is the Sylow subgroup through
T^l, and for l > p the normalizer ascent completes it.  The discovered
group grows from T^l and the rows of Q = <sigma_i, T> and AG(n) that fix the
code (PermGroup.from_rows, which keeps only the rows that extend it), and Q
is listed in closed form, its l m^l members T^j w with w in <sigma_i>
(_q_rows).  H'(P) is the union of the cosets C(T^l) sigma_rho over the rho
in P with the cycle type of T^l, exact at every length.  The search over it
is the decision HP makes at l = 1 (equivalence.restricted_set_verdict): one
member of each coset <T^l> sigma, in sorted image rows, and a complete
verdict exactly when |P| is the p-part of n!; as for HP, the weight
profiles are compared only when it finds no witness.  H'(P) is not known to
be a group, so nothing here assumes closure: reports take the group the
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
    ClosureBoundExceeded,
    PermGroup,
    Permutation,
    centralizer_generators,
    centralizer_order,
    conjugation_cosets,
    minimal_blocks,
    sylow_ascend,
    sylow_through_shift,
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
    """A Sylow p-subgroup P through T^l of the part of the automorphism group
    discoverable from the structured families, co-index m = n/l = p^r.

    At r = 1 with l < p and l m^l <= CLOSURE_BOUND, P is read off W =
    <sigma_0, ..., sigma_(l-1)>, Kaloujnine's triangular group on each cycle
    of T^l (at r = 1 the group of a p-cycle is the cycle's own cyclic group),
    of order p^l: P is the set of W's rows that one code-action batch finds
    fixing the code (_w_rows), grown by PermGroup.from_rows in their
    lexicographic order, which is the order they are listed in.  This is the
    P of the general path below.  There G meet W is Sylow in G, since W is
    the only Sylow p-subgroup of S_n through T^l when l < p
    (perm.sylow_through_shift), so the ascent adds nothing; and W lies in
    Q = <sigma_i, T>, which is listed under this bound, so every row of W
    that fixes the code is among G's generating rows and G meet W =
    Aut(C) meet W, the rows listed here.  Only where the general path would
    give up on G past CLOSURE_BOUND (P = <T^l>) does this P differ: it is
    still Aut(C) meet W.

    Elsewhere (r >= 2, l > p, or Q past CLOSURE_BOUND) P is cut out of the
    discovered group G (_qc_ambient) as G meet W, with W the product of
    Kaloujnine's triangular groups on the cycles of T^l
    (perm.sylow_through_shift), which is the Sylow subgroup through T^l when
    l < p; for l > p the Sylow subgroup through T^l is not unique, and the
    normalizer ascent (perm.sylow_ascend) completes the meet to one."""
    p, r = _qc_prime_power(code)
    n, l, lin = code.n, code.index, code.linear
    if r == 1 and l < p and l * p ** l <= CLOSURE_BOUND:
        rows = _w_rows(n, l)
        rows = rows[maps_onto(lin, lin, rows)]
        return PermGroup.from_rows(n, rows.tolist(), order=len(rows))
    ambient = _qc_ambient(code)
    return sylow_ascend(ambient, p, sylow_through_shift(ambient, l))


def _qc_ambient(code: QuasiCyclicCode) -> PermGroup:
    """The discovered group G of qc_sylow's general path: the group that
    T^l and the elements of Q = <sigma_i, T> and of AG(n) fixing the code
    generate, found by one code-action test over the image rows of both (of
    AG(n) alone when Q is larger than CLOSURE_BOUND), or <T^l> alone when G
    is larger than CLOSURE_BOUND.  It grows from T^l and the fixing rows
    (PermGroup.from_rows), keeping only the rows that extend it."""
    n, l, lin = code.n, code.index, code.linear
    x = np.arange(n)
    rows = ((np.array(units(n))[:, None, None] * x + x[:, None]) % n).reshape(-1, n)  # a x + b
    rows = rows.astype(np.min_scalar_type(n))
    if l * (n // l) ** l <= CLOSURE_BOUND:
        rows = np.concatenate([_q_rows(n, l), rows])
    rows = [Permutation.power_shift(n, l).images] + rows[maps_onto(lin, lin, rows)].tolist()
    try:
        return PermGroup.from_rows(n, rows, bound=CLOSURE_BOUND)
    except ClosureBoundExceeded:
        return PermGroup.from_rows(n, rows[:1])


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


def _q_rows(n: int, l: int) -> np.ndarray:
    """The l m^l members T^j w of Q = <sigma_i, T> as image rows in the
    smallest unsigned dtype, j < l and w in S (_w_rows), j-major, so the
    first m^l rows are S.  These are all of Q, each once: T sigma_i T^-1 =
    sigma_(i+1), indices mod l, so T normalizes S, which is abelian of order
    m^l, and Q = <T> S has order |<T>| |S| / |<T> meet S|.  T^j lies in S
    exactly when it keeps every residue class mod l, that is when l divides
    j, so <T> meets S in <T^l>, of order m, and |Q| = n m^l / m = l m^l.
    The row of T^j w is w(x) + j mod n."""
    dtype, x = np.min_scalar_type(n), np.arange(n)
    return ((x + np.arange(l)[:, None]) % n).astype(dtype)[:, _w_rows(n, l)].reshape(-1, n)


def qc_equivalence_search(c1: QuasiCyclicCode, c2: QuasiCyclicCode,
                          strategy: str = "STRUCTURED") -> EquivalenceVerdict:
    """Search for a permutation mapping one quasi-cyclic code onto the other.

    STRUCTURED scans the exact H'(P) in sorted order, one member per coset
    of <T^l>, at every length, for the P of qc_sylow, by the decision that
    HP makes at l = 1 (equivalence.restricted_set_verdict).  It is complete
    when |P| is the p-part of n!: P is then a Sylow subgroup of the full
    automorphism group, and H'(P) holds a witness whenever one exists.  A
    smaller P is a Sylow subgroup only of the discovered part, and H'(P) may
    miss every witness.  BRUTE searches all of S_n for n <= 10
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
    assumes H'(P) is a group.
    """
    p, r = _qc_prime_power(code)
    n, l = code.n, code.index
    P = qc_sylow(code)
    tl = Permutation.power_shift(n, l)
    cosets = conjugation_cosets(tl, P)
    discovered = centralizer_order(tl) * len(cosets)
    closure = PermGroup.from_rows(n, [g.images for g in centralizer_generators(tl)]
                                  + cosets.tolist())
    m = p ** r
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
