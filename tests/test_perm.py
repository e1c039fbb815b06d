import itertools
import math
import random

import numpy as np
import pytest

from cycperm import perm
from cycperm.perm import (
    BRUTE_DEGREE_BOUND,
    ClosureBoundExceeded,
    PermGroup,
    Permutation,
    block_system_valid,
    centralizer_generators,
    centralizer_order,
    conjugation_cosets,
    conjugation_rows,
    conjugation_scan,
    conjugation_set,
    digit_scalings,
    group_closure,
    is_transitive,
    kaloujnine_generators,
    minimal_blocks,
    normalizer_in_symmetric,
    orbits,
    shift_coset_leaders,
    sylow_ascend,
)
from oracles import (
    _ReferenceChain,
    block_system_through,
    chain_state,
    hset_brute,
    sylow_through_shift,
)


def test_permutation_basics():
    s = Permutation((1, 2, 0))
    t = Permutation((0, 2, 1))
    assert (s * t).images == tuple(s.images[t.images[i]] for i in range(3))
    assert s.inverse() * s == Permutation.identity(3)
    assert s.order() == 3
    assert s.cycles() == ((0, 1, 2),)
    assert t.parity() == 1
    assert Permutation.identity(4).parity() == 0


def test_shift_and_affine():
    T = Permutation.shift(7)
    assert T.images == (1, 2, 3, 4, 5, 6, 0)
    assert T.order() == 7
    a = Permutation.affine(7, 2, 0)
    assert a.images == (0, 2, 4, 6, 1, 3, 5)
    assert a.conjugate(a) == a
    # tau_{a,b} T tau_{a,b}^{-1} = T^a
    for aa in (2, 3):
        tau = Permutation.affine(7, aa, 3)
        assert tau * T * tau.inverse() == T ** aa
    with pytest.raises(ValueError):
        Permutation.affine(6, 2, 0)


def test_power_shift():
    tl = Permutation.power_shift(15, 3)
    assert tl == Permutation.shift(15) ** 3
    assert tl.order() == 5
    # T^3 on 15 points splits into sigma_0 sigma_1 sigma_2, one 5-cycle per residue
    assert sorted(sorted(c) for c in tl.cycles()) == [
        [0, 3, 6, 9, 12], [1, 4, 7, 10, 13], [2, 5, 8, 11, 14]]
    # every l >= 1 is taken mod n; T^n is the identity
    assert Permutation.power_shift(15, 15) == Permutation.identity(15)
    assert Permutation.power_shift(15, 18) == tl
    with pytest.raises(ValueError):
        Permutation.power_shift(15, 0)


def test_generalized_multiplier():
    # degree 9 = 3^2, k=1: acts inside each block of 3 consecutive points
    g = Permutation.generalized_multiplier(9, 1, 2, 1)
    assert len(g.images) == 9
    for x in range(9):
        lo = x % 3
        assert g.images[x] == ((2 * lo + 1) % 3) + (x - lo)
    assert g * g.inverse() == Permutation.identity(9)
    # mu_{1,1}^{(p^r)} is the shift, mu_{a,0}^{(p^r)} the plain multiplier
    assert Permutation.generalized_multiplier(9, 2, 1, 1) == Permutation.shift(9)
    assert Permutation.generalized_multiplier(9, 2, 2, 0) == Permutation.multiplier(9, 2)
    # frozen example: mu_{2,0}^{(3)} at n=9
    assert Permutation.generalized_multiplier(9, 1, 2, 0).images == (0, 2, 1, 3, 5, 4, 6, 8, 7)
    with pytest.raises(ValueError):
        Permutation.generalized_multiplier(12, 1, 2, 0)
    with pytest.raises(ValueError):
        Permutation.generalized_multiplier(9, 1, 3, 0)


def test_conjugate_direction():
    # conjugate(by) = by^-1 * self * by, so fixed points move by by^-1
    s = Permutation((1, 0, 2, 3))
    by = Permutation((3, 0, 1, 2))
    c = s.conjugate(by)
    assert c == by.inverse() * s * by


def test_group_closure_and_bound(monkeypatch):
    T = Permutation.shift(5)
    m = Permutation.multiplier(5, 2)
    g = group_closure([T, m])
    assert len(g) == 20
    monkeypatch.setattr(perm, "CLOSURE_BOUND", 100)
    with pytest.raises(ClosureBoundExceeded) as exc:
        group_closure([Permutation.shift(9), Permutation((1, 0) + tuple(range(2, 9)))])
    assert (exc.value.bound, exc.value.reached) == (100, math.factorial(9))


def test_elements_size_guard(monkeypatch):
    # S_10 has 10! elements, past CLOSURE_BOUND: elements() and group_closure
    # raise from the chain's order before listing anything, while order and
    # membership still answer
    def never(self):
        raise AssertionError("group listed before the size check")
    monkeypatch.setattr(perm.StabilizerChain, "products", never)
    gens = [Permutation.shift(10), Permutation((1, 0) + tuple(range(2, 10)))]
    G = PermGroup.from_generators(10, gens)
    with pytest.raises(ClosureBoundExceeded) as exc:
        G.elements()
    assert exc.value.reached == math.factorial(10)
    with pytest.raises(ClosureBoundExceeded) as exc:
        group_closure(gens)
    assert exc.value.reached == math.factorial(10)
    assert G.order() == math.factorial(10)
    assert Permutation((3, 1, 2, 0) + tuple(range(4, 10))) in G


def _random_cycle(rng: random.Random, n: int) -> Permutation:
    images = list(range(n))
    pts = rng.sample(range(n), rng.randint(1, n))
    for a, b in zip(pts, pts[1:] + pts[:1]):
        images[a] = b
    return Permutation(tuple(images))


def _seeded_groups():
    """60 seeded groups of degree <= 9 from one to three generators, each a
    random permutation or a cycle on random points (so that proper
    subgroups of S_n turn up), as (n, generators, ten random permutations
    to test for membership, a random base prefix)."""
    rng = random.Random(19700101)
    prefix_rng = random.Random(1970)    # apart, so the groups stay those of rng
    for _ in range(60):
        n = rng.randint(1, 9)
        gens = [(_random_perm if rng.random() < 0.5 else _random_cycle)(rng, n)
                for _ in range(rng.randint(1, 3))]
        samples = [_random_perm(rng, n) for _ in range(10)]
        yield n, gens, samples, prefix_rng.sample(range(n), prefix_rng.randint(0, n))


def test_chain_agrees_with_sympy():
    # order, membership and the listed elements against sympy's
    # Schreier-Sims, and the orbits of a chain opened on a random base
    # prefix against sympy's pointwise stabilizers
    combinatorics = pytest.importorskip("sympy.combinatorics")
    for n, gens, samples, prefix in _seeded_groups():
        G = PermGroup.from_generators(n, gens)
        ref = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g.images)) for g in gens])
        assert G.order() == ref.order(), gens
        if ref.order() <= 5040:
            assert {g.images for g in G.elements()} == \
                {tuple(x.array_form) for x in ref.generate()}, gens
        for s in samples:
            assert (s in G) == ref.contains(combinatorics.Permutation(list(s.images))), (gens, s)
        chain = perm.StabilizerChain(n, prefix)
        for g in gens:
            chain.add(g.images)
        assert chain.base[:len(prefix)] == prefix and chain.order() == ref.order()
        for i, b in enumerate(prefix):
            assert set(chain.orbit[i]) == ref.pointwise_stabilizer(prefix[:i]).orbit(b), (gens, prefix)


def _chain_cases():
    """(degree, generators, base prefix): the seeded groups, with and
    without their prefix; the discovered groups of the binary cyclic codes of
    length 9 and 27; and the polynomial-map groups Q^m and Q_1^m at n = 9,
    25, 27."""
    from cycperm.algebra import make_field
    from cycperm.autgroups import known_cyclic_subgroup
    from cycperm.codes import enumerate_cyclic_codes
    from cycperm.equivalence import q_group
    for n, gens, _, prefix in _seeded_groups():
        yield n, gens, prefix
        yield n, gens, []
    for n in (9, 27):
        for code in enumerate_cyclic_codes(n, make_field(2)):
            yield n, known_cyclic_subgroup(code)[0], []
    for n, p in ((9, 3), (25, 5), (27, 3)):
        for m in range(1, p):
            for G in q_group(n, m):
                yield n, list(G.generators), []


def test_chain_equals_the_plain_schreier_sims():
    # skipping the tree-edge Schreier generators and building the others in
    # one pass leave the base, orbits, transversals and strong generators
    # exactly as the plain algorithm makes them
    cases = 0
    for n, gens, prefix in _chain_cases():
        chain, ref = perm.StabilizerChain(n, prefix), _ReferenceChain(n, prefix)
        for g in gens:
            assert chain.add(g.images) == ref.add(g.images), (n, gens, prefix)
        assert chain_state(chain) == chain_state(ref), (n, gens, prefix)
        cases += 1
    assert cases == 120 + 8 + 16 + 2 * (2 + 4 + 2)


def test_from_rows_keeps_the_rows_that_extend_its_chain():
    # rows in order, with identities, repeats and products of earlier rows
    # mixed in: the generators are exactly the rows outside the group of the
    # rows before them, in order, and the chain the group keeps is a fresh
    # chain of its generators, as the plain algorithm builds it
    cases = 0
    for n, gens, _ in _chain_cases():
        rows = [Permutation.identity(n)] + [g for g in gens for _ in range(2)] \
            + [g * h for g in gens[:3] for h in gens[:3]]
        ref = _ReferenceChain(n)
        extended = [g for g in rows if ref.add(g.images)]
        G = PermGroup.from_rows(n, [g.images for g in rows])
        assert list(G.generators) == extended, (n, gens)
        fresh = perm.StabilizerChain(n)
        for g in G.generators:
            fresh.add(g.images)
        assert chain_state(G._chain) == chain_state(fresh) == chain_state(ref)
        cases += 1
    assert cases == 160


def test_from_rows_stops_at_the_order():
    T, M = Permutation.shift(9), Permutation.multiplier(9, 2)
    read = []

    def rows():
        for g in (T, M, T * M, M * M):
            read.append(g)
            yield g.images

    assert PermGroup.from_rows(9, rows(), order=9).generators == (T,) and read == [T]
    read.clear()
    assert PermGroup.from_rows(9, rows(), order=54).generators == (T, M) and read == [T, M]


def test_permgroup_api():
    G = PermGroup.from_generators(5, [Permutation.shift(5)])
    assert G.order() == 5
    assert G.elements() is G.elements()
    assert Permutation.shift(5) ** 3 in G
    assert Permutation((1, 0, 2, 3, 4)) not in G
    assert PermGroup.trivial(4).order() == 1


def test_orbits_and_transitivity():
    T2 = Permutation.shift(10) ** 2
    assert orbits(10, [T2]) == [(0, 2, 4, 6, 8), (1, 3, 5, 7, 9)]
    assert not is_transitive(10, [T2])
    assert is_transitive(10, [Permutation.shift(10)])


def test_minimal_blocks_cyclic_9():
    G = PermGroup.from_generators(9, [Permutation.shift(9)])
    systems = minimal_blocks(G)
    assert len(systems) == 1
    sys0 = systems[0]
    assert sorted(sorted(b) for b in sys0) == [[0, 3, 6], [1, 4, 7], [2, 5, 8]]
    assert sys0.block_size == 3 and sys0.block_count == 3
    assert block_system_valid(G, sys0)


def test_minimal_blocks_cyclic_6():
    G = PermGroup.from_generators(6, [Permutation.shift(6)])
    systems = minimal_blocks(G)
    covers = sorted(len(s[0]) for s in systems)
    assert covers == [2, 3]
    for s in systems:
        assert block_system_valid(G, s)


def test_primitive_prime_cycle():
    G = PermGroup.from_generators(7, [Permutation.shift(7)])
    assert is_transitive(7, G.generators) and not minimal_blocks(G)
    with pytest.raises(ValueError):
        minimal_blocks(PermGroup.from_generators(4, [Permutation((1, 0, 2, 3))]))


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_no_blocks_at_prime_degree(p):
    # a transitive group of prime degree has only the trivial blocks, so
    # every closure through a pair is the single block of all p points
    T = Permutation.shift(p)
    families = [[T]] + [[T, Permutation.multiplier(p, a)] for a in range(2, p)]
    families.append([T, Permutation((1, 0) + tuple(range(2, p)))])     # S_p
    for gens in families:
        assert minimal_blocks(PermGroup.from_generators(p, gens)) == []
        for x in range(1, p):
            assert block_system_through(gens, p, (0, x)) == (tuple(range(p)),)
    with pytest.raises(ValueError, match="transitive"):
        minimal_blocks(PermGroup.from_generators(p, [Permutation((1, 0) + tuple(range(2, p)))]))


def test_minimal_blocks_needs_the_shift():
    # transitive groups without T: the regular Klein group at n = 4, and at
    # n = 5 the group of a 5-cycle that no power turns into T
    klein = PermGroup.from_generators(4, [Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))])
    cycle = PermGroup.from_generators(5, [Permutation((2, 3, 1, 4, 0))])
    for G in (klein, cycle):
        assert is_transitive(G.degree, G.generators)
        assert Permutation.shift(G.degree) not in G
        with pytest.raises(ValueError, match="shift T.*transitive"):
            minimal_blocks(G)
    # T a member but not a generator: <T^2, T^3> at n = 6 has both systems
    G = PermGroup.from_generators(6, [Permutation.power_shift(6, 2), Permutation.power_shift(6, 3)])
    assert Permutation.shift(6) not in G.generators
    assert [s.block_count for s in minimal_blocks(G)] == [2, 3]


def test_normalizer_of_shift_brute():
    # N_{S_n}(<T>) = AGL(1,n) for prime n, order n*(n-1)
    for n, expect in [(5, 20), (7, 42)]:
        G = PermGroup.from_generators(n, [Permutation.shift(n)])
        N = normalizer_in_symmetric(G)
        assert len(N) == expect
    G6 = PermGroup.from_generators(6, [Permutation.shift(6)])
    assert len(normalizer_in_symmetric(G6)) == 12


def test_normalizer_degree_is_the_groups():
    # the trivial group is normalized by all of S_4; <T_9> by AG(9), in S_9
    N = normalizer_in_symmetric(PermGroup.trivial(4))
    assert len(N) == 24 and {s.degree for s in N} == {4}
    N = normalizer_in_symmetric(PermGroup.from_generators(9, [Permutation.shift(9)]))
    assert len(N) == 54 and {s.degree for s in N} == {9}


def test_normalizer_shift_9_is_ag():
    G = PermGroup.from_generators(9, [Permutation.shift(9)])
    N = normalizer_in_symmetric(G)
    assert len(N) == 54
    # every element normalizes: sigma^-1 T sigma in <T>
    T = Permutation.shift(9)
    TS = {T ** i for i in range(9)}
    for sigma in N:
        assert sigma.inverse() * T * sigma in TS


def test_conjugation_scan_rejects_large_degree():
    with pytest.raises(ValueError):
        conjugation_scan(11, [(Permutation.shift(11), [Permutation.shift(11)])])
    # the normalizer is built from centralizer cosets and has no degree limit
    G11 = PermGroup.from_generators(11, [Permutation.shift(11)])
    affine = frozenset(Permutation.affine(11, a, b) for a in range(1, 11) for b in range(11))
    assert normalizer_in_symmetric(G11) == affine


def test_normalizer_within_ambient():
    # normalizer of the Sylow 3-subgroup of AG(9) inside AG(9) is all of AG(9)
    T = Permutation.shift(9)
    amb = PermGroup.from_generators(9, [T, Permutation.affine(9, 2, 0)])
    P = sylow_ascend(amb, 3, PermGroup.from_generators(9, [T]))
    N = [s for s in normalizer_in_symmetric(P) if s in amb]
    assert len(N) == 54
    # the normalizer of <T> inside AG(9)
    N2 = [s for s in normalizer_in_symmetric(PermGroup.from_generators(9, [T])) if s in amb]
    assert len(N2) == 54


def test_hset_brute_matches_definition():
    # H(P) for P = <T> at n=5: sigma with sigma^-1 T sigma in P
    n = 5
    T = Permutation.shift(n)
    P = PermGroup.from_generators(n, [T])
    H = hset_brute(T, P)
    assert len(H) == 20
    Pset = P.elements()
    for sigma in H:
        assert sigma.inverse() * T * sigma in Pset
    # brute-force cross check
    direct = [Permutation(p) for p in itertools.permutations(range(n))
              if Permutation(p).inverse() * T * Permutation(p) in Pset]
    assert set(direct) == set(H)


def test_sylow_ascend_in_affine_9():
    # ambient AG(9) has order 54 = 2 * 27; Sylow 3-subgroup has order 27
    T = Permutation.shift(9)
    amb = group_closure([T, Permutation.affine(9, 2, 0)])
    assert len(amb) == 54
    P = sylow_ascend(PermGroup.from_generators(9, sorted(amb, key=lambda g: g.images)), 3,
                     PermGroup.from_generators(9, [T]))
    assert P.order() == 27 and T in P


def test_sylow_ascend_full_symmetric_4():
    every = [Permutation(p) for p in itertools.permutations(range(4))]
    amb = PermGroup.from_generators(4, every)
    P = sylow_ascend(amb, 2, PermGroup.from_generators(4, [Permutation((1, 0, 2, 3))]))
    assert P.order() == 8
    P3 = sylow_ascend(amb, 3, PermGroup.from_generators(4, [Permutation((1, 2, 0, 3))]))
    assert P3.order() == 3


def test_group_equality_is_by_group():
    # the same Sylow 2-subgroup of S_4 with other generators, and two
    # groups of order 4 that differ
    every = [Permutation(p) for p in itertools.permutations(range(4))]
    S4 = PermGroup.from_generators(4, every)
    T4 = Permutation.shift(4)
    shift, ascent = sylow_through_shift(S4), sylow_ascend(S4, 2, PermGroup.from_generators(4, [T4]))
    assert shift.generators != ascent.generators
    assert shift == ascent and hash(shift) == hash(ascent)
    cyclic = PermGroup.from_generators(4, [T4])
    klein = PermGroup.from_generators(4, [Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))])
    assert cyclic.order() == klein.order() == 4
    assert cyclic != klein


def test_sylow_ascend_validates_seed():
    amb = PermGroup.from_generators(5, [Permutation.shift(5)])
    with pytest.raises(ValueError):
        sylow_ascend(amb, 5, PermGroup.from_generators(5, [Permutation((1, 0, 2, 3, 4))]))


# --- conjugation sets by centralizer cosets, against the S_n scan -----------------

def _random_perm(rng: random.Random, n: int) -> Permutation:
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(tuple(images))


def test_conjugation_set_matches_brute_scan():
    # g of any cycle type, fixed points included; P generated by one or two
    # random permutations (one at n = 8, where P is often all of S_8 and the
    # scan would test every element of P against every element of S_8);
    # half the draws conjugate an element of P, so that the set is not empty
    rng = random.Random(20100212)
    for _ in range(40):
        n = rng.randint(1, 8)
        gens = [_random_perm(rng, n) for _ in range(1 if n == 8 else rng.randint(1, 2))]
        P = PermGroup.from_generators(n, gens)
        g = _random_perm(rng, n)
        if rng.random() < 0.5:
            rho = rng.choice(sorted(P.elements(), key=lambda x: x.images))
            g = g * rho * g.inverse()
        got = conjugation_set(g, P)
        brute = hset_brute(g, P)
        assert got == brute, (g, gens)
        assert len(got) == centralizer_order(g) * len(conjugation_cosets(g, P))
        # the rows: sorted lexicographically, no row repeated, the same set
        rows = [tuple(r) for r in conjugation_rows(g, P).tolist()]
        assert rows == sorted(set(rows)), (g, gens)
        assert frozenset(map(Permutation, rows)) == brute, (g, gens)


def _cycles_by_length(images) -> dict[int, list[tuple[int, ...]]]:
    """The cycles of a permutation, fixed points included, keyed by length;
    each from its least point, those of one length in that order."""
    out: dict[int, list[tuple[int, ...]]] = {}
    seen: set[int] = set()
    for i in range(len(images)):
        if i not in seen:
            cyc = [i]
            while images[cyc[-1]] != i:
                cyc.append(images[cyc[-1]])
            seen.update(cyc)
            out.setdefault(len(cyc), []).append(tuple(cyc))
    return out


def _cosets_by_rows(g: Permutation, P: PermGroup) -> list[tuple[int, ...]]:
    """The definition of the sigma_rho, one row of P at a time: for each rho
    in P, in the order of its images, with the cycle type of g, the map
    sending the j-th cycle of each length of rho onto the j-th cycle of that
    length of g, point by point from their least points."""
    target = _cycles_by_length(g.images)
    key = sorted((L, len(cs)) for L, cs in target.items())
    out = []
    for rho in sorted(P._array.tolist()):
        cycles = _cycles_by_length(rho)
        if sorted((L, len(cs)) for L, cs in cycles.items()) != key:
            continue
        sigma = [0] * g.degree
        for L, cs in cycles.items():
            for src, dst in zip(cs, target[L]):
                for x, y in zip(src, dst):
                    sigma[x] = y
        out.append(tuple(sigma))
    return out


def test_conjugation_cosets_follow_the_per_row_definition():
    # one g of each cycle type of degree <= 8 (fixed points included), with P
    # generated by a conjugate of g, and by that and a random permutation
    # (n <= 7); the shift in S_8; and T^l at (n, l) = (9, 1), (25, 1) and
    # (27, 1) with P = Q_1^m, and at (15, 3) and (20, 4) with P the product
    # of the cyclic groups on the cycles of T^l: the same rows in the same order
    from cycperm.equivalence import q_group
    from cycperm.quasicyclic import sigma_cycles
    rng = random.Random(2010)
    cases = []
    for n in range(1, 9):
        for parts in _partitions(n):
            images: list[int] = []
            for L in parts:
                images += [len(images) + (i + 1) % L for i in range(L)]
            g = Permutation(tuple(images))
            tau = _random_perm(rng, n)
            rho = tau.inverse() * g * tau
            cases.append((g, PermGroup.from_generators(n, [rho])))
            if n <= 7:
                cases.append((g, PermGroup.from_generators(n, [rho, _random_perm(rng, n)])))
    assert len(cases) == 66 + 44
    cases.append((Permutation.shift(8), PermGroup.from_generators(
        8, [Permutation.shift(8), Permutation((1, 0) + tuple(range(2, 8)))])))
    for n, m in ((9, 2), (25, 4), (27, 2)):
        cases.append((Permutation.shift(n), q_group(n, m)[1]))
    for n, l in ((15, 3), (20, 4)):
        cases.append((Permutation.power_shift(n, l),
                      PermGroup.from_generators(n, sigma_cycles(n, l))))
    for g, P in cases:
        got = conjugation_cosets(g, P)
        assert got.shape[1] == g.degree
        assert [tuple(r) for r in got.tolist()] == _cosets_by_rows(g, P), (g, P.generators)
    assert len(conjugation_cosets(Permutation.shift(25), q_group(25, 4)[1])) == 10_000


def test_shift_coset_leaders_are_the_least_rows_of_their_cosets():
    # every sigma_rho of conjugation_cosets(T^l, P) fixes 0, and the leaders
    # are the rows of the full conjugation_rows(T^l, P) with sigma(0) < l,
    # in the same order, each standing for the n/l members of its coset, and
    # the size returned with them is that of the full set;
    # P is generated by T^l and a random permutation (n <= 8), or by T^l
    # and a multiplier (n = 9..15)
    rng = random.Random(1948)
    shapes = [(n, l) for n in range(1, 9) for l in range(1, n + 1) if n % l == 0]
    shapes += [(9, 1), (9, 3), (10, 2), (12, 3), (15, 3), (15, 5)]
    for n, l in shapes:
        tl = Permutation(tuple((i + l) % n for i in range(n)))
        for _ in range(2):
            extra = _random_perm(rng, n) if n <= 8 else \
                Permutation.multiplier(n, rng.choice([a for a in range(1, n) if math.gcd(a, n) == 1]))
            P = PermGroup.from_generators(n, [tl, extra])
            assert (conjugation_cosets(tl, P)[:, 0] == 0).all(), (n, l, extra)
            full = conjugation_rows(tl, P)
            leaders, size = shift_coset_leaders(P, l)
            assert leaders.dtype == full.dtype
            assert np.array_equal(leaders, full[full[:, 0] < l]), (n, l, extra)
            assert len(full) == size == len(leaders) * (n // l)
    with pytest.raises(ValueError, match="does not divide"):
        shift_coset_leaders(PermGroup.trivial(6), 4)


def test_shift_centralizer_leaders_are_the_chain_listing_cut_at_l():
    # the closed form c(i + jl) = pi(i) + ((j + e_i) mod m) l with e_0 = 0
    # lists the members of C(T^l) with c(0) < l that the chain of
    # centralizer_generators(T^l) lists: at l = 1, at co-index p with l < p,
    # at co-index p^r, r >= 2, or p with l > p, and at l = n, where
    # C(T^l) = S_n
    for n, l in ((9, 1), (10, 2), (15, 3), (12, 3), (12, 4), (6, 6)):
        chain = PermGroup(n, tuple(centralizer_generators(Permutation.power_shift(n, l))))._array
        chain = chain[chain[:, 0] < l]
        got = perm._shift_centralizer_leaders(n, l)
        assert got.dtype == chain.dtype
        assert len(got) == math.factorial(l) * (n // l) ** (l - 1) == len(chain), (n, l)
        assert sorted(map(tuple, got.tolist())) == sorted(map(tuple, chain.tolist())), (n, l)


def test_centralizer_order_and_generators():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 7)
        g = _random_perm(rng, n)
        C = PermGroup(n, tuple(centralizer_generators(g))).elements()
        assert all(c * g == g * c for c in C)
        brute = [s for s in map(Permutation, itertools.permutations(range(n))) if s * g == g * s]
        assert len(C) == len(brute) == centralizer_order(g)
    # a 5-cycle at n = 15: 5 * 10!, computed without listing anything
    five = Permutation((1, 2, 3, 4, 0) + tuple(range(5, 15)))
    assert centralizer_order(five) == 5 * math.factorial(10)


def _partitions(n: int, most: int | None = None):
    """The partitions of n with parts of at most `most`, largest part first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, most or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def test_centralizer_generators_generate_the_centralizer():
    # one g of each cycle type of degree <= 8, and T at n = 27, T^3 at
    # n = 15 and T^2 at n = 10: the generators commute with g and their
    # chain reaches |C(g)|, so they generate C(g)
    gs = []
    for n in range(1, 9):
        for parts in _partitions(n):
            images: list[int] = []
            for L in parts:
                images += [len(images) + (i + 1) % L for i in range(L)]
            gs.append(Permutation(tuple(images)))
    assert len(gs) == 66
    gs += [Permutation.shift(27), Permutation.power_shift(15, 3), Permutation.power_shift(10, 2)]
    for g in gs:
        gens = centralizer_generators(g)
        assert all(c * g == g * c for c in gens), g
        assert PermGroup.from_generators(g.degree, gens).order() == centralizer_order(g), g


def test_normalizer_matches_scan_normalizer():
    # N_{S_n}(G) from the S_n scan: every generator conjugated into G
    rng = random.Random(3)
    T9 = Permutation.shift(9)
    groups = [PermGroup.from_generators(9, [T9]),
              PermGroup.from_generators(9, [T9, Permutation.multiplier(9, 4)]),
              PermGroup.from_generators(6, [Permutation.shift(6) ** 2])]
    for _ in range(8):
        n = rng.randint(2, 7)
        groups.append(PermGroup.from_generators(n, [_random_perm(rng, n)]))
    for G in groups:
        n, elements = G.degree, G.elements()
        gens = list(G.generators) or [Permutation.identity(n)]
        scan = frozenset(conjugation_scan(n, [(g, elements) for g in gens]))
        assert normalizer_in_symmetric(G) == scan


def test_conjugation_set_size_guard(monkeypatch):
    # a transposition at n = 14 has |C| = 2 * 12!, far past CLOSURE_BOUND:
    # the guard raises from the count, before any centralizer is listed
    def never(g):
        raise AssertionError("centralizer listed before the size check")
    monkeypatch.setattr(perm, "centralizer_generators", never)
    swap = Permutation((1, 0) + tuple(range(2, 14)))
    with pytest.raises(ClosureBoundExceeded) as exc:
        conjugation_set(swap, PermGroup.from_generators(14, [swap]))
    assert exc.value.reached == 2 * math.factorial(12)


# --- the Sylow subgroup through the shift: G meet W_T ------------------------------

def _triangular(rng: random.Random, p: int, r: int, sparse: bool) -> Permutation:
    """A random element of W_T on p^r points: digit k of the image is x_k plus
    a function of the lower digits of x; sparse maps move one digit of one
    residue class."""
    f = [[rng.randrange(p) for _ in range(p ** k)] for k in range(r)]
    if sparse:
        f = [[0] * p ** k for k in range(r)]
        k = rng.randrange(r)
        f[k][rng.randrange(p ** k)] = rng.randrange(1, p)
    return Permutation(tuple(sum((x // p ** k + f[k][x % p ** k]) % p * p ** k
                                 for k in range(r)) for x in range(p ** r)))


def test_shift_sylow_is_the_triangular_group():
    # in S_4 and S_8, G meet W_T is all of W_T: p^((p^r - 1)/(p - 1)) triangular maps
    for n, order in ((4, 8), (8, 128)):
        S = PermGroup.from_generators(n, [Permutation.shift(n),
                                          Permutation((1, 0) + tuple(range(2, n)))])
        W = sylow_through_shift(S)
        assert W.order() == order
        assert Permutation.shift(n) in W
    S4 = PermGroup.from_generators(4, [Permutation.shift(4), Permutation((1, 0, 2, 3))])
    T4 = PermGroup.from_generators(4, [Permutation.shift(4)])
    assert sylow_through_shift(S4).elements() == sylow_ascend(S4, 2, T4).elements()
    with pytest.raises(ValueError):
        sylow_through_shift(PermGroup.from_generators(9, [Permutation.multiplier(9, 2)]))


def test_shift_sylow_matches_ascent():
    # seeded groups containing the shift, generated with affine maps,
    # generalized multipliers, random permutations (n <= 9) and triangular
    # maps, of order at most 3000: G meet W_T equals the Sylow ascent from <T>
    rng = random.Random(1948)
    for n in (4, 8, 9, 25, 27):
        p, r = {4: (2, 2), 8: (2, 3), 9: (3, 2), 25: (5, 2), 27: (3, 3)}[n]
        T = Permutation.shift(n)
        pool = [Permutation.affine(n, a, b) for a in range(1, n) if math.gcd(a, n) == 1
                for b in range(n)]
        pool += [Permutation.generalized_multiplier(n, k, a, c) for k in range(1, r)
                 for a in range(1, p ** k) if a % p for c in range(p ** k)]
        drawn = 0
        while drawn < 8:
            gens = [T]
            for _ in range(rng.randint(1, 2)):
                pick = rng.random()
                if pick < 0.4:
                    gens.append(rng.choice(pool))
                elif pick < 0.6 and n <= 9:
                    gens.append(_random_perm(rng, n))
                else:
                    gens.append(_triangular(rng, p, r, sparse=n > 9))
            G = PermGroup.from_generators(n, gens)
            if G.order() > 3000:
                continue
            drawn += 1
            assert sylow_through_shift(G).elements() == \
                sylow_ascend(G, p, PermGroup.from_generators(n, [T])).elements(), gens


def test_shift_power_sylow_matches_ascent():
    # at degree n = l p^r with l < p, seeded groups containing T^l, generated
    # with the full shift, affine maps, permutations of the cycles of T^l and
    # triangular maps on one cycle, of order at most 3000: G meet W equals
    # the Sylow ascent from <T^l>
    rng = random.Random(1949)
    for l, p, r in ((2, 5, 1), (3, 5, 1), (2, 7, 1), (2, 3, 2)):
        m = p ** r
        n = l * m
        Tl = Permutation.power_shift(n, l)
        pool = [Permutation.affine(n, a, b) for a in range(1, n) if math.gcd(a, n) == 1
                for b in range(n)]
        pool.append(Permutation.shift(n))
        # the swap of the cycles through 0 and 1, which commutes with T^l
        pool.append(Permutation(tuple(x + 1 if x % l == 0 else x - 1 if x % l == 1 else x
                                      for x in range(n))))
        drawn = 0
        while drawn < 6:
            gens = [Tl]
            for _ in range(rng.randint(1, 2)):
                if rng.random() < 0.5:
                    gens.append(rng.choice(pool))
                else:
                    # a triangular map on the positions k = x // l of one cycle
                    t, i = _triangular(rng, p, r, sparse=False), rng.randrange(l)
                    gens.append(Permutation(tuple(x if x % l != i else i + l * t(x // l)
                                                  for x in range(n))))
            G = PermGroup.from_generators(n, gens)
            if G.order() > 3000:
                continue
            drawn += 1
            assert sylow_through_shift(G, l).elements() == \
                sylow_ascend(G, p, PermGroup.from_generators(n, [Tl])).elements(), gens


@pytest.mark.parametrize("p, r", [(2, 2), (2, 3), (3, 2), (5, 2), (2, 4)])
def test_kaloujnine_generators_and_digit_scalings(p, r):
    n, L = p ** r, (p ** r - 1) // (p - 1)
    levels = kaloujnine_generators(p, r)
    W = PermGroup.from_rows(n, levels.tolist())
    assert levels.shape == (L, n) and W.order() == p ** L
    assert Permutation.shift(n) in W
    # every member passes the triangular filter of sylow_through_shift
    assert sylow_through_shift(W).order() == W.order()

    D = digit_scalings(p, r)
    assert D.shape == ((p - 1) ** r, n) and len({tuple(d) for d in D.tolist()}) == len(D)
    assert D[0].tolist() == list(range(n))
    assert D.tolist() == sorted(D.tolist())
    scalings = [Permutation(tuple(d)) for d in D.tolist()]
    assert [d in W for d in scalings] == [True] + [False] * (len(D) - 1)
    assert all(d.inverse() * Permutation(tuple(g)) * d in W
               for d in scalings for g in levels.tolist())

    # both are built once per (p, r) and shared read-only
    for build, rows in ((kaloujnine_generators, levels), (digit_scalings, D)):
        assert build(p, r) is rows
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 1

    # the count behind H(W_T) = N(W_T): n!/(p^L (p-1)^r) Sylow p-subgroups,
    # each with (p-1)^r p^(L-r) n-cycles, hold all (n-1)! n-cycles
    sylows, rem = divmod(math.factorial(n), p ** L * (p - 1) ** r)
    assert rem == 0 and sylows * (p - 1) ** r * p ** (L - r) == math.factorial(n - 1)
    assert W.order() <= perm.CLOSURE_BOUND
    A = W._array
    point, first = np.zeros(len(A), dtype=np.int64), np.zeros(len(A), dtype=np.int64)
    for step in range(1, n + 1):
        point = A[np.arange(len(A)), point]
        first[(point == 0) & (first == 0)] = step
    assert np.count_nonzero(first == n) == (p - 1) ** r * p ** (L - r)

    # so H(W_T) is W_T D: the same size, and the same rows where it is small
    assert shift_coset_leaders(W)[1] == W.order() * len(D)
    if n <= 9:
        products = A[:, D].reshape(-1, n)          # row w o d
        assert conjugation_rows(Permutation.shift(n), W).tolist() == \
            sorted(products.tolist())
