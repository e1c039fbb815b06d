import itertools
import random
from collections import Counter
from math import factorial, gcd, prod

import numpy as np
import pytest

from cycperm import autgroups, perm
from cycperm.algebra import make_field, multiplicative_order, prime_power
from cycperm.autgroups import (
    AutoReport,
    BacktrackBudgetExceeded,
    GroupClass,
    analyze,
    backtrack_full_group,
    check_m_p_plus_1,
    classify,
    gk_family,
    gk_lifts,
    known_cyclic_subgroup,
    multiplier_scan,
    pgammal_order,
    projective_parameters,
    sylow_exponent_bounds,
)
from cycperm.codes import (
    LinearCode,
    cyclic_code,
    enumerate_cyclic_codes,
    fixed_by,
    is_elementary,
    maps_onto,
    min_distance,
    min_weight_words,
    permute_code,
)
from cycperm.equivalence import decide_equivalence
from cycperm.perm import (
    PermGroup,
    Permutation,
    block_system_valid,
    group_closure,
    orbits,
)
from oracles import (
    _ReferenceChain,
    block_system_through,
    chain_state,
    codeword_chunks,
    minimal_blocks_by_closure,
)

GF2 = make_field(2)
GF3 = make_field(3)
GF11 = make_field(11)

HAMMING7 = cyclic_code(7, GF2, {1, 2, 4})
GOLAY3 = cyclic_code(11, GF3, {1, 3, 4, 5, 9})


def test_multiplier_scan_hamming():
    mset, m = multiplier_scan(HAMMING7)
    assert mset == frozenset({1, 2, 4}) and m == 3


def test_multiplier_scan_table_codes():
    mset, m = multiplier_scan(cyclic_code(5, GF11, {1, 4}))
    assert m == 2 and mset == frozenset({1, 4})
    _, m = multiplier_scan(cyclic_code(5, GF11, {2, 3}))
    assert m == 2
    _, m = multiplier_scan(cyclic_code(5, GF11, {1, 2}))
    assert m == 1
    _, m = multiplier_scan(cyclic_code(7, make_field(13), {1, 6, 2, 5}))
    assert m == 2


def test_multiplier_scan_full_space():
    mset, m = multiplier_scan(cyclic_code(7, GF2, set()))
    assert m == 6 and mset == frozenset({1, 2, 3, 4, 5, 6})


def test_multiplier_scan_checks_every_hit(monkeypatch):
    # the repetition code is fixed by every multiplier; a matrix test that
    # rejects any single one of them must be caught and named
    from cycperm import autgroups
    rep = cyclic_code(7, GF2, {1, 2, 3, 4, 5, 6})
    assert multiplier_scan(rep)[0] == frozenset(range(1, 7))
    real = autgroups.maps_onto
    for bad in range(1, 7):
        def rejecting(c1, c2, images, bad=bad):
            out = real(c1, c2, images)
            rows = [i for i, im in enumerate(images)
                    if tuple(im) == Permutation.multiplier(7, bad).images]
            out[rows] = False
            return out
        monkeypatch.setattr(autgroups, "maps_onto", rejecting)
        with pytest.raises(RuntimeError, match=f"multiplier {bad} failed"):
            multiplier_scan(rep)


def test_multiplier_duality():
    for c in enumerate_cyclic_codes(9, GF2) + enumerate_cyclic_codes(15, GF2):
        _, m = multiplier_scan(c)
        _, md = multiplier_scan(c.dual())
        assert m == md


def test_check_m_p_plus_1():
    for c in enumerate_cyclic_codes(49, GF2):
        assert check_m_p_plus_1(c)
    for c in enumerate_cyclic_codes(9, GF2):
        assert check_m_p_plus_1(c)
    assert check_m_p_plus_1(cyclic_code(5, GF11, {1, 2}))   # r = 1: identity
    with pytest.raises(ValueError):
        check_m_p_plus_1(cyclic_code(15, GF2, {1, 2, 4, 8}))


def test_check_m_p_plus_1_raises_when_matrix_test_disagrees(monkeypatch):
    import cycperm.autgroups as autgroups
    real = autgroups.maps_onto
    monkeypatch.setattr(autgroups, "maps_onto", lambda c1, c2, images: ~real(c1, c2, images))
    with pytest.raises(RuntimeError, match="multiplier 4"):
        check_m_p_plus_1(cyclic_code(9, GF2, {1, 2, 4, 8, 7, 5}))
    # past length 64 too: 163 = 1 mod 81, so the code needs no extension field
    with pytest.raises(RuntimeError, match="multiplier 4"):
        check_m_p_plus_1(cyclic_code(81, make_field(163), set(range(1, 81))))


def test_analyze_scans_multipliers_once(monkeypatch):
    import cycperm.autgroups as autgroups
    real, calls = autgroups.multiplier_scan, []
    monkeypatch.setattr(autgroups, "multiplier_scan", lambda code: calls.append(code) or real(code))
    rpt = analyze(HAMMING7, run_backtrack=False)
    assert len(calls) == 1
    assert rpt.multiplier_set == (1, 2, 4) and rpt.m == 3


def test_gk_family_orders():
    code = cyclic_code(9, GF2, {1, 2, 4, 8, 7, 5})
    g2, h2 = gk_family(code, 2)
    assert g2.order() == 54        # t_2 * 9 = 6 * 9
    g1, h1 = gk_family(code, 1)
    assert g1.order() == 6         # t_1 * 3 = 2 * 3
    assert len(h2) == 6 and len(h1) == 2
    # every G_k element fixes the code (verified internally); spot-check one
    mu = Permutation.generalized_multiplier(9, 2, 2, 5)
    assert mu in g2.elements()
    assert permute_code(code.linear, mu) == code.linear


def test_gk_family_is_the_closed_form():
    # on every binary code of length 9 and 27 and every k: the closed form
    # {mu_{q^i,c}} has t_k p^k distinct maps, it is the group gk_family
    # builds from its checked generators, and each map fixes the code
    for n in (9, 27):
        p, r = prime_power(n)
        forms = {}
        for k in range(1, r + 1):
            pk = p ** k
            tk = multiplicative_order(2, pk)
            forms[k] = {Permutation.generalized_multiplier(n, k, pow(2, i, pk), c)
                        for i in range(tk) for c in range(pk)}
            assert len(forms[k]) == tk * pk, (n, k)
        for code in enumerate_cyclic_codes(n, GF2):
            for k, form in forms.items():
                assert gk_family(code, k)[0].elements() == form, (code, k)
                assert all(permute_code(code.linear, g) == code.linear for g in form), (code, k)


def test_gk_family_raises_when_a_generator_fails(monkeypatch):
    # a code-action test that rejects the generator mu_{1,1} of G_2
    import cycperm.autgroups as autgroups
    real = autgroups.maps_onto
    bad = Permutation.generalized_multiplier(9, 2, 1, 1)

    def reject(c1, c2, images):
        return real(c1, c2, images) & [tuple(g) != bad.images for g in images]

    monkeypatch.setattr(autgroups, "maps_onto", reject)
    code = cyclic_code(9, GF2, {1, 2, 4, 8, 7, 5})
    gk_family(code, 1)
    with pytest.raises(RuntimeError, match="does not fix the code") as exc:
        gk_family(code, 2)
    assert str(bad) in str(exc.value)


def test_gk_family_is_certified_once_per_length_and_field(monkeypatch):
    # G_k and its chain order depend on (n, q, k) alone: over every binary
    # code of length 9 and 27 one chain is built per (n, k), and two codes
    # share one group; the code-fixing test runs on every call
    length27 = enumerate_cyclic_codes(27, GF2)
    codes = enumerate_cyclic_codes(9, GF2) + length27
    builds, tests = [], []
    real_build, real_test = PermGroup.from_rows, autgroups.maps_onto
    monkeypatch.setattr(PermGroup, "from_rows", staticmethod(
        lambda n, rows, order=None, bound=None: builds.append(n) or real_build(n, rows, order, bound)))
    monkeypatch.setattr(autgroups, "maps_onto",
                        lambda c1, c2, images: tests.append(c1) or real_test(c1, c2, images))
    autgroups._gk_group.cache_clear()
    calls = 0
    for code in codes:
        for k in range(1, prime_power(code.n)[1] + 1):
            gk_family(code, k)
            calls += 1
    assert sorted(builds) == [9, 9, 27, 27, 27]
    assert len(tests) == calls
    assert gk_family(length27[1], 2)[0] is gk_family(length27[2], 2)[0]


def test_gk_family_z_violated():
    # 3^5 - 1 = 242 = 2 * 11^2, so z = 2 for q = 3, p = 11
    code = cyclic_code(121, GF3, {1, 3, 9, 27, 81})
    with pytest.raises(ValueError, match="z=1"):
        gk_family(code, 1)


def test_sylow_exponent_bounds():
    assert sylow_exponent_bounds(9, 2, 3)
    assert sylow_exponent_bounds(9, 2, 4)
    assert not sylow_exponent_bounds(9, 2, 2)    # z = 1 forces 2r-1 = 3
    assert not sylow_exponent_bounds(9, 2, 5)    # above (p^r-1)/(p-1) = 4
    assert sylow_exponent_bounds(121, 3, 2)      # z = 2: plain r <= s applies
    assert not sylow_exponent_bounds(121, 3, 1)
    assert not sylow_exponent_bounds(9, 2, 1)


def test_backtrack_repetition_5():
    rep = cyclic_code(5, GF2, set(range(1, 5)))
    res = backtrack_full_group(rep.linear)
    assert res.order == 120
    assert len(group_closure(res.generators)) == 120


def test_backtrack_hamming_7():
    res = backtrack_full_group(HAMMING7.linear)
    assert res.order == 168
    for g in res.generators:
        assert permute_code(HAMMING7.linear, g) == HAMMING7.linear


def test_backtrack_length_9_codes():
    # every non-elementary binary cyclic code of length 9 has group order 1296
    for c in enumerate_cyclic_codes(9, GF2):
        if is_elementary(c.linear):
            continue
        res = backtrack_full_group(c.linear)
        assert res.order == 1296


def test_backtrack_relabel_invariance():
    # non-cyclic input: a random coordinate order, over GF(2), GF(3), GF(4)
    rng = random.Random(3)
    for code, order in ((HAMMING7, 168), (GOLAY3, 660),
                        (cyclic_code(9, make_field(2, 2), {0, 2, 3, 5, 6, 8}), 162)):
        imgs = list(range(code.n))
        rng.shuffle(imgs)
        moved = permute_code(code.linear, Permutation(tuple(imgs)))
        res = backtrack_full_group(moved)
        assert res.order == order == backtrack_full_group(code.linear).order
        assert maps_onto(moved, moved, [g.images for g in res.generators]).all()


def test_backtrack_budget():
    with pytest.raises(BacktrackBudgetExceeded) as ei:
        backtrack_full_group(HAMMING7.linear, node_budget=20)
    assert ei.value.order_lower_bound >= 1


def test_backtrack_budget_bound_from_many_automorphisms():
    # the search visits each coset of a point stabilizer once, so Hamming-15
    # and Golay-11 finish within small budgets
    hamming15 = cyclic_code(15, GF2, {1, 2, 4, 8})
    assert backtrack_full_group(hamming15, node_budget=300_000).order == 20160
    assert backtrack_full_group(hamming15, node_budget=1_000).order == 20160
    assert backtrack_full_group(GOLAY3, node_budget=10_000).order == 660
    # cut off after some automorphisms are found but not all, the lower
    # bound is the order of the group they generate, read off its chain
    with pytest.raises(BacktrackBudgetExceeded) as ei:
        backtrack_full_group(hamming15, node_budget=200)
    bound = ei.value.order_lower_bound
    assert 1 < bound < 20160 and 20160 % bound == 0


def test_backtrack_matches_symmetric_group_scan():
    # the S_n oracle: on every non-elementary cyclic code of these lengths,
    # and on its image under the transposition (0 1), the order is the number
    # of permutations that fix the code, and so is the order of the group
    # the generators span
    checked = 0
    for q, n in ((2, 7), (3, 8), (4, 5), (4, 7), (5, 6)):
        swap = Permutation((1, 0) + tuple(range(2, n)))
        every = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
        for code in enumerate_cyclic_codes(n, make_field(*prime_power(q))):
            if is_elementary(code.linear):
                continue
            for lin in (code.linear, permute_code(code.linear, swap)):
                fixing = int(maps_onto(lin, lin, every).sum())
                res = backtrack_full_group(lin)
                assert res.order == fixing
                assert PermGroup(n, res.generators).order() == fixing
                assert maps_onto(lin, lin, [g.images for g in res.generators]).all()
                checked += 1
    assert checked == 104


def _one_word_order(w, F):
    # sigma fixes <w> iff w o sigma^-1 = c w for a scalar c; for each c with
    # c w a rearrangement of w there are prod m_v! such sigma, m_v the count
    # of value v in w
    counts = Counter(w)
    same = sum(Counter(F.mul(c, v) for v in w) == counts for c in range(1, F.order))
    return same * prod(factorial(m) for m in counts.values())


def test_backtrack_matches_one_word_count():
    # an oracle past the reach of the S_n scan: every cyclic code spanned by
    # one word, or whose dual is, over GF(3), GF(4), GF(5), GF(7) up to n = 12
    checked = 0
    for q in (3, 4, 5, 7):
        F = make_field(*prime_power(q))
        for n in range(2, 13):
            if gcd(n, q) != 1:
                continue
            for code in enumerate_cyclic_codes(n, F):
                if code.k not in (1, n - 1):
                    continue
                lin = code.linear
                (w,) = lin.matrix if lin.k == 1 else lin.dual().matrix
                assert backtrack_full_group(lin).order == _one_word_order(w, F)
                checked += 1
    assert checked == 130
    # the GF(5) length-12 codes of the fourth and second roots of unity
    F5 = make_field(5)
    for ds, order in (({3}, 5_184), ({6}, 1_036_800)):
        code = cyclic_code(12, F5, set(range(12)) - ds)
        assert backtrack_full_group(code.linear).order == order
        assert backtrack_full_group(code.dual().linear).order == order


def test_backtrack_binary_node_counts():
    # over GF(2) the word keys are support counts and bit masks, so the
    # search walks what a search on supports alone walks
    assert backtrack_full_group(HAMMING7.linear).nodes == 48
    assert backtrack_full_group(cyclic_code(15, GF2, {1, 2, 4, 8}).linear).nodes == 235


def test_backtrack_prunes_on_word_values():
    # the supports of these codes have far more symmetry than the codes: a
    # search on supports alone walks 2,935 and 530,399 nodes
    assert backtrack_full_group(GOLAY3, node_budget=1_000).order == 660
    rep = cyclic_code(10, GF3, {0, 1, 2, 3, 4, 6, 7, 8, 9})
    assert backtrack_full_group(rep.linear, node_budget=1_000).order == 28_800


def test_seeded_search_matches_the_empty_start():
    # the known cyclic subgroup on the chain before the first node: the same
    # order, never more nodes, and generators that fix the code
    checked = 0
    for q, n in ((2, 7), (2, 9), (3, 8), (4, 5), (4, 7), (4, 9), (5, 6)):
        for code in enumerate_cyclic_codes(n, make_field(*prime_power(q))):
            lin = code.linear
            if is_elementary(lin):
                continue
            plain = backtrack_full_group(lin)
            seeded = backtrack_full_group(lin, seeds=known_cyclic_subgroup(code)[0])
            assert seeded.order == plain.order
            assert seeded.nodes <= plain.nodes
            assert fixed_by(lin, seeded.generators).all()
            checked += 1
    assert checked == 84
    swap = Permutation((1, 0) + tuple(range(2, 7)))
    with pytest.raises(ValueError, match=r"seed .*\(0 1\).* does not fix the code"):
        backtrack_full_group(HAMMING7.linear, seeds=[Permutation.shift(7), swap])


def test_search_chain_equals_the_plain_schreier_sims(monkeypatch):
    # the search adds each automorphism found below its identity path with
    # the levels it has certified, and the chain's sifts pass over fixed
    # base points; replaying the seeds and the leaf additions, in order,
    # into the plain algorithm on the same base gives the same base, orbits,
    # transversals and strong generators, and the same answer to every add;
    # 92 of the adds that extend the chain come with certified levels
    adds = []
    add = perm.StabilizerChain.add

    def logged(self, g, certified=None):
        added = add(self, g, certified)
        adds.append((self, g, certified, added))
        return added
    monkeypatch.setattr(perm.StabilizerChain, "add", logged)
    searches = certified_adds = 0
    for q, n in ((2, 7), (2, 9), (2, 15), (3, 8), (3, 13), (4, 9)):
        for code in enumerate_cyclic_codes(n, make_field(*prime_power(q))):
            lin = code.linear
            if is_elementary(lin):
                continue
            adds.clear()
            chain, _, _ = autgroups._search(lin, seeds=known_cyclic_subgroup(code)[0])
            assert all(owner is chain for owner, *_ in adds)
            ref = _ReferenceChain(n, chain.base)
            for _, g, certified, added in adds:
                assert ref.add(g) == added, (q, n, sorted(code.defining_set))
                certified_adds += added and certified is not None
            assert chain_state(chain) == chain_state(ref), (q, n, sorted(code.defining_set))
            searches += 1
    assert searches == 120 and certified_adds == 92


@pytest.mark.parametrize("code, budget", [
    (cyclic_code(15, GF2, {1, 2, 4, 8}), 10),
    (GOLAY3, 40),
    (cyclic_code(9, make_field(2, 2), {0, 2, 3, 5, 6, 8}), 30),   # bound 162 = 2 * 81
])
def test_budget_stop_keeps_the_known_subgroup(code, budget):
    # the chain starts as the known subgroup, so a stopped search's lower
    # bound is a multiple of its order (Lagrange)
    with pytest.raises(BacktrackBudgetExceeded) as ei:
        analyze(code, run_backtrack=True, node_budget=budget)
    known = ei.value.report.known_subgroup_order
    assert known > 1 and ei.value.order_lower_bound % known == 0
    assert ei.value.report.search_nodes == budget


def test_analyze_reports_search_nodes():
    assert analyze(HAMMING7).search_nodes == 19
    assert analyze(cyclic_code(15, GF2, {1, 2, 4, 8})).search_nodes == 90
    assert analyze(GOLAY3, run_backtrack=True).search_nodes == 343
    assert analyze(GOLAY3, run_backtrack=False).search_nodes is None
    assert analyze(cyclic_code(9, GF2, set(range(1, 9)))).to_json()["search_nodes"] is None


def test_discovered_group_orders_without_listing(monkeypatch):
    # the shift, the multipliers and the G_k families of binary codes of
    # length 25 and 27: exact orders from the chain, the second far past
    # CLOSURE_BOUND, with no element listed
    def never(self):
        raise AssertionError("group listed")
    monkeypatch.setattr(perm.StabilizerChain, "products", never)
    for n, order in ((25, 250_000), (27, 12_754_584)):
        gens, _ = known_cyclic_subgroup(cyclic_code(n, GF2, {0}))
        G = PermGroup.from_generators(n, gens)
        assert G.order() == order
        assert Permutation.multiplier(n, 2) * Permutation.shift(n) in G
        assert Permutation((1, 0) + tuple(range(2, n))) not in G


def test_gk_families_need_the_order_lift():
    # at p = 2, r >= 3 the hypothesis z = 1 holds for q = 3 but ord_8(3) = 2,
    # not 4: the G_k families are not used there, and every GF(3) code of
    # length 8 is analyzed and decided
    assert gk_lifts(3, 4) and not gk_lifts(3, 8) and not gk_lifts(3, 16)
    assert gk_lifts(2, 9) and gk_lifts(2, 27) and not gk_lifts(3, 121)
    with pytest.raises(ValueError, match="z=1"):
        gk_family(cyclic_code(8, GF3, {0, 1, 3}), 1)
    for code in enumerate_cyclic_codes(8, GF3):
        report = analyze(code)
        assert report.full_group_order % report.known_subgroup_order == 0
        assert decide_equivalence(code, code, "HP").status == "equivalent"


def test_lifting_lemma_wt_fixes_every_code_where_gk_lifts():
    # where gk_lifts holds, Kaloujnine's W_T fixes every cyclic code of the
    # family (the lifting lemma of gk_lifts); where it fails, some code is
    # left unfixed, so the lemma's hypothesis cannot be dropped there
    def unfixed(q, n):
        p, r = prime_power(n)
        levels = perm.kaloujnine_generators(p, r)
        codes = enumerate_cyclic_codes(n, make_field(*prime_power(q)))
        return [c for c in codes if not maps_onto(c.linear, c.linear, levels).all()]

    for q, n in ((3, 4), (7, 4), (2, 9), (4, 9), (7, 9), (2, 27), (4, 27), (13, 27)):
        assert gk_lifts(q, n) and unfixed(q, n) == [], (q, n)
    for q, n in ((5, 4), (3, 8), (8, 9), (7, 25), (8, 27)):
        assert not gk_lifts(q, n) and unfixed(q, n), (q, n)


@pytest.mark.parametrize("q, n, ds", [(2, 7, {1, 2, 4}), (4, 9, {1, 4, 7}), (11, 19, {1, 7, 11})])
def test_analyze_names_a_reported_generator_that_fails(monkeypatch, q, n, ds):
    # a search that reports a transposition among the code's true generators
    import cycperm.autgroups as autgroups
    code = cyclic_code(n, make_field(*prime_power(q)), ds)
    gens, _ = known_cyclic_subgroup(code)
    swap = Permutation((1, 0) + tuple(range(2, n)))
    found = autgroups.BacktrackResult(order=0, generators=(gens[0], swap, *gens[1:]), nodes=0)
    monkeypatch.setattr(autgroups, "backtrack_full_group", lambda lin, budget, seeds: found)
    with pytest.raises(RuntimeError, match="fails to fix the code") as exc:
        analyze(code, run_backtrack=True)
    assert str(swap) in str(exc.value)


def test_golay_generators_have_no_blocks():
    # prime degree: the closure through every pair is the whole point set
    gens = analyze(GOLAY3).discovered_generators
    assert perm.minimal_blocks(PermGroup(11, gens)) == []
    for x in range(1, 11):
        assert block_system_through(gens, 11, (0, x)) == (tuple(range(11)),)


def test_minimal_blocks_match_the_pair_closures_on_discovered_groups():
    # the residue systems mod b that minimal_blocks tests are exactly the
    # minimal systems the union-find closure of each pair {0, x} finds, on
    # the discovered group of every non-elementary code of seven families
    tally = Counter()
    for q, n in ((2, 9), (2, 15), (2, 21), (2, 27), (3, 8), (3, 16), (4, 9)):
        for code in enumerate_cyclic_codes(n, make_field(*prime_power(q))):
            if is_elementary(code.linear):
                continue
            G = PermGroup(n, tuple(known_cyclic_subgroup(code)[0]))
            systems = perm.minimal_blocks(G)
            assert systems == minimal_blocks_by_closure(G), (q, n, code.defining_set)
            tally[len(systems)] += 1
    assert tally == {1: 196, 2: 88}


def test_gl42_witness_group_is_built_once():
    # the GL(4,2) rows and their order 20,160 are cached; each code pays
    # only its own maps_onto batch, and the evidence names the witness
    autgroups._gl42_group.cache_clear()
    hamming = cyclic_code(15, GF2, {1, 2, 4, 8})
    assert [autgroups._gl42_witness_order(hamming.linear) for _ in range(3)] == [20160] * 3
    assert autgroups._gl42_group.cache_info().misses == 1
    assert autgroups._gl42_witness_order(cyclic_code(15, GF2, {3, 6, 9, 12}).linear) is None
    assert autgroups._gl42_group.cache_info().misses == 1
    evidence = analyze(hamming).classification.evidence
    assert evidence.endswith("explicit linear action on the nonzero vectors "
                             "of a 4-dimensional binary space realizes it")


def test_gl42_rows_are_numbered_by_discrete_logs():
    # alpha^i is vector i: the Singer cycle is i -> i + 1, the Frobenius map
    # i -> 2i, and the transvection's row matches logs taken by fresh powers
    from cycperm.algebra import root_system
    rows, order = autgroups._gl42_group()
    rs = root_system(GF2, 15)
    dlog = {rs.ext.pow(rs.alpha, i): i for i in range(15)}
    assert rows[0] == tuple((i + 1) % 15 for i in range(15))
    assert rows[1] == tuple(2 * i % 15 for i in range(15))
    assert rows[2] == tuple(dlog[v ^ ((v & 1) << 1)] for v in sorted(dlog, key=dlog.get))
    assert order == 20160


def test_projective_parameters():
    assert projective_parameters(15, 2) == [(4, 2)]
    assert projective_parameters(7, 2) == [(3, 2)]
    assert projective_parameters(9, 2) == []
    assert projective_parameters(5, 11) == []
    assert projective_parameters(13, 3) == [(3, 3)]
    assert pgammal_order(4, 2) == 20160
    assert pgammal_order(3, 2) == 168


def test_classify_elementary():
    rep = cyclic_code(9, GF2, set(range(1, 9)))
    rpt = analyze(rep)
    assert rpt.classification.name == "ELEMENTARY_SN"
    assert rpt.full_group_order == factorial(9)


def test_classify_affine_prime_length():
    rpt = analyze(cyclic_code(5, GF11, {1, 4}))
    assert rpt.classification.name == "AFFINE_SUBGROUP(5, 2)"
    assert rpt.m == 2


def test_classify_golay_parameters_without_search():
    rpt = analyze(GOLAY3, run_backtrack=False)
    assert rpt.classification.label == "PSL_2_11"


def test_classify_golay_by_order():
    rpt = analyze(GOLAY3, run_backtrack=True)
    assert rpt.full_group_order == 660
    assert rpt.classification.label == "PSL_2_11"


def test_classify_length_9_imprimitive():
    code = cyclic_code(9, GF2, {1, 2, 4, 8, 7, 5})
    rpt = analyze(code)
    assert rpt.full_group_order == 1296
    assert rpt.classification.label == "IMPRIMITIVE"
    # the mod-3 residue classes are blocks of the full group
    G = PermGroup(9, rpt.discovered_generators)
    t3_orbits = orbits(9, [Permutation.shift(9) ** 3])
    assert block_system_valid(G, t3_orbits)


def test_classify_hamming_7():
    rpt = analyze(HAMMING7)
    assert rpt.full_group_order == 168
    assert rpt.classification.name == "PGAMMAL(3, 2)"


def test_known_subgroup_contains_shift_and_multipliers():
    gens, mset = known_cyclic_subgroup(HAMMING7)
    G = group_closure(gens)
    assert Permutation.shift(7) in G
    assert Permutation.multiplier(7, 2) in G
    assert len(G) == 21   # <T> semidirect the 3 multipliers


def test_known_order_formula_matches_the_chain():
    # without G_k families the known subgroup is the affine maps x -> ax + b,
    # a in the multiplier set, of order n * m; analyze reports that product
    checked = 0
    for q, n in [(2, n) for n in range(1, 16, 2)] + [(3, 8), (3, 13), (4, 9)]:
        for code in enumerate_cyclic_codes(n, make_field(*prime_power(q))):
            gens, _ = known_cyclic_subgroup(code)
            report = analyze(code, run_backtrack=False)
            assert report.known_subgroup_order == PermGroup.from_generators(n, gens).order()
            checked += 1
    assert checked == 162


def test_analyze_report_json():
    rpt = analyze(cyclic_code(5, GF11, {1, 4}))
    js = rpt.to_json()
    assert js["parameters"] == [5, 3, 3]
    assert js["m"] == 2
    assert js["classification"]["label"] == "AFFINE_SUBGROUP(5, 2)"
    assert all(sorted(g) == list(range(5)) for g in js["discovered_generators"])


def test_analyze_rejects_non_cyclic():
    from cycperm.codes import LinearCode
    code = LinearCode.from_rows(GF2, 4, [[1, 1, 0, 0]])
    with pytest.raises(ValueError, match="cyclic"):
        analyze(code)


def test_report_invariants():
    rpt = analyze(HAMMING7)
    assert rpt.full_group_order % rpt.known_subgroup_order == 0
    assert (5 * 11 * 7 - 1) % rpt.m if False else rpt.m != 0
    assert 6 % rpt.m == 0      # m divides phi(7)


def test_multipliers_onto_matches_permute_code():
    # every pair, of one dimension or not: the units a with M_a mapping c1
    # onto c2, by the defining sets, are those permute_code finds
    from cycperm.algebra import units
    from cycperm.autgroups import multipliers_onto
    for q, n in ((GF2, 15), (make_field(3), 8), (make_field(2, 2), 9)):
        codes = enumerate_cyclic_codes(n, q)
        images = {(c, a): permute_code(c.linear, Permutation.multiplier(n, a))
                  for c in codes for a in units(n)}
        for c1 in codes:
            for c2 in codes:
                expect = [a for a in units(n) if images[c1, a] == c2.linear]
                assert multipliers_onto(c1, c2) == expect


def test_multiplier_scan_checks_every_unit(monkeypatch):
    # a matrix test that accepts a unit the defining sets reject must be
    # caught and named too, not only one that rejects a hit
    from cycperm import autgroups
    real = autgroups.maps_onto
    for bad in (3, 5, 6):
        def accepting(c1, c2, images, bad=bad):
            out = real(c1, c2, images)
            rows = [i for i, im in enumerate(images)
                    if tuple(im) == Permutation.multiplier(7, bad).images]
            out[rows] = True
            return out
        monkeypatch.setattr(autgroups, "maps_onto", accepting)
        with pytest.raises(RuntimeError, match=f"multiplier {bad} failed"):
            multiplier_scan(HAMMING7)


def _min_weight_words(code):
    # the oracle: one minimum-weight word per support, from a pass over all
    # q^k codewords, rows sorted by support
    best, rows = code.n + 1, []
    for chunk in codeword_chunks(code):
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


def test_window_listing_matches_the_full_pass():
    # the levels and shifts of min_weight_words against every codeword: the
    # same supports in the same row order on both sides of every cyclic
    # code, where the windows apply, and of its (0 1) image, where they do
    # not; the search's family is the oracle's choice by the same rule
    sides = 0
    for q, n in ((2, 7), (3, 8), (4, 5), (4, 7), (5, 6), (2, 9), (2, 15), (4, 9)):
        swap = Permutation((1, 0) + tuple(range(2, n)))
        for code in enumerate_cyclic_codes(n, make_field(*prime_power(q))):
            if code.k == 0:
                continue
            for lin in (code.linear, permute_code(code.linear, swap)):
                oracle = []
                for side in (lin, lin.dual()):
                    if side.k == 0:
                        continue
                    want = _min_weight_words(side)
                    got = min_weight_words(side, min_distance(side).value)
                    assert np.array_equal(got != 0, want != 0), (code, side.k)
                    oracle.append(want)
                    sides += 1
                # least distance, then fewest words; distance 1 last, then
                # a lone support
                chosen = min(oracle, key=lambda f: (np.count_nonzero(f[0]) == 1, len(f) == 1,
                                                    np.count_nonzero(f[0]), len(f)))
                assert np.array_equal(autgroups._word_family(lin)[0] != 0, chosen != 0)
    assert sides == 528
    # a zero coordinate gives the dual a unit vector, distance 1, which says
    # only where the zero is: the code's weight-3 words are taken instead
    padded = LinearCode.from_rows(GF2, 8, [list(r) + [0] for r in HAMMING7.linear.matrix])
    assert autgroups._word_family(padded)[1:] == (False, 3)


def test_backtrack_lists_no_codeword_pass(monkeypatch):
    # the GF(4) [11,1] repetition code: its dual's 55 weight-2 words come
    # from the levels, not from the 4^10 codewords a full pass would list.
    # The library has no full pass: the one product that encodes messages
    # encodes the dual's 10 words of level 1 here, whose shifts give the
    # 55 supports, and nothing else
    assert not hasattr(LinearCode, "codeword_chunks")
    encoded = []
    encode = LinearCode._encode
    monkeypatch.setattr(LinearCode, "_encode",
                        lambda self, digits: encoded.append((self.k, len(digits)))
                        or encode(self, digits))
    rep = cyclic_code(11, make_field(2, 2), set(range(1, 11)))
    res = backtrack_full_group(rep.linear)
    assert (res.order, res.nodes) == (factorial(11), 76)
    assert encoded == [(10, 10)]
