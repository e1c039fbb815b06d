import itertools
import random
import re
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycperm import autgroups, equivalence, perm
from cycperm.algebra import make_field, p_part, prime_power, units
from cycperm.autgroups import gk_family, known_cyclic_subgroup
from cycperm.codes import (
    DistanceResult,
    LinearCode,
    cyclic_code,
    cyclic_defining_set,
    enumerate_cyclic_codes,
    is_shift_invariant,
    maps_onto,
    min_weight_words,
    permute_code,
    weight_profile,
)
from cycperm.equivalence import (
    EquivalenceVerdict,
    ag_set,
    brute_equivalence,
    brute_verdict,
    build_sylow_descriptor,
    decide_equivalence,
    gr_formula_set,
    hp_membership,
    hp_set,
    invariant_separation,
    palfy_multiplier_complete,
    power_map_rows,
    q_group,
    restricted_set_verdict,
    tableau_verdict,
    witness_scan,
)
from cycperm.perm import (
    PermGroup,
    Permutation,
    conjugation_rows,
    group_closure,
    normalizer_in_symmetric,
    sylow_ascend,
)
from oracles import hset_brute, sylow_through_shift

GF2 = make_field(2)
GF3 = make_field(3)
GF7 = make_field(7)

NINE_FULL = cyclic_code(9, GF2, {1, 2, 4, 8, 7, 5})   # [9,3]


def test_palfy_lengths():
    assert palfy_multiplier_complete(4)
    assert palfy_multiplier_complete(7)
    assert palfy_multiplier_complete(11)
    assert palfy_multiplier_complete(15)
    assert not palfy_multiplier_complete(8)
    assert not palfy_multiplier_complete(9)
    assert not palfy_multiplier_complete(25)


# --- polynomial map groups -------------------------------------------------------

def test_power_map_rows_are_the_closed_form():
    # at n = 19^2 and 31^2 a naive (p-1)^(p-2) passes int64; every row is a
    # permutation and equals x + p^(r-1) x^j mod p^r evaluated in Python ints
    for p in (19, 31):
        n = p * p
        rows = power_map_rows(p, 2)
        assert rows.shape == (p - 2, n) and not rows.flags.writeable
        assert power_map_rows(p, 2) is rows
        for j, row in enumerate(rows.tolist(), start=2):
            assert sorted(row) == list(range(n))
            assert row == [(x + p * x ** j) % n for x in range(n)], (p, j)
    assert power_map_rows(2, 3).shape == (0, 8)
    with pytest.raises(ValueError, match="r >= 2"):
        power_map_rows(7, 1)


def test_q_group_orders_nine():
    q1, q11 = q_group(9, 1)
    q2, q12 = q_group(9, 2)
    assert q1.order() == 54 and q11.order() == 27
    assert q2.order() == 162 and q12.order() == 81
    assert q11.elements() <= q1.elements() <= q2.elements()
    assert q12.elements() <= q2.elements()


def _listed_q_family(n, m):
    # the oracle: every polynomial map over the coefficient grid
    p, r = prime_power(n)
    step = p ** (r - 1)
    q, q1 = set(), set()
    for a0 in range(n):
        for a1 in (a for a in range(n) if a % p):
            for high in itertools.product(range(0, n, step), repeat=m - 1):
                perm = Permutation(tuple(
                    sum(c * x ** i for i, c in enumerate((a0, a1) + high)) % n
                    for x in range(n)))
                q.add(perm)
                if (a1 - 1) % step == 0:
                    q1.add(perm)
    return q, q1


def test_q_group_matches_listed_family():
    # generators against the listing, wherever |Q_1^m| = p^(r+m) <= 10,000
    for n in (9, 25, 27, 49):
        p, r = prime_power(n)
        for m in (m for m in range(1, p) if p ** (r + m) <= 10_000):
            qg, q1g = q_group(n, m)
            q, q1 = _listed_q_family(n, m)
            assert qg.elements() == q and q1g.elements() == q1, (n, m)


def test_q_group_contains_shift_and_multipliers():
    q1, q11 = q_group(9, 1)
    assert Permutation.shift(9) in q11.elements()
    assert Permutation.multiplier(9, 4) in q11.elements()   # 4 = 1 mod 3
    assert Permutation.multiplier(9, 2) in q1.elements()
    assert Permutation.multiplier(9, 2) not in q11.elements()


def test_q_group_degree_bound():
    with pytest.raises(ValueError, match="degree bound violated"):
        q_group(9, 3)
    with pytest.raises(ValueError):
        q_group(7, 1)            # not a proper prime power
    with pytest.raises(ValueError):
        q_group(12, 1)


def test_hp_of_shift_group_is_affine():
    # conjugating the shift into <T> is the same as normalizing it
    for n in (5, 6, 7, 9):
        T = Permutation.shift(n)
        P = PermGroup.from_generators(n, [T])
        assert hset_brute(T, P) == ag_set(n)


def test_hp_of_q11_is_q2():
    q2, q11 = q_group(9, 1)[0], q_group(9, 1)[1]
    q2 = q_group(9, 2)[0]
    got = hset_brute(Permutation.shift(9), q11)
    assert len(got) == 162
    assert got == q2.elements()


def test_gr_formula_matches_brute_hp():
    _, q11 = q_group(9, 1)
    assert gr_formula_set(9, 2) == hset_brute(Permutation.shift(9), q11)


def test_gr_formula_rejects_bad_field():
    with pytest.raises(ValueError, match="coprime"):
        gr_formula_set(9, 3)


def test_hp_membership_requires_shift():
    _, q11 = q_group(9, 1)
    assert hp_membership(Permutation.multiplier(9, 2), q11)
    group_no_shift = PermGroup.from_generators(9, [Permutation.multiplier(9, 2)])
    with pytest.raises(ValueError, match="P must contain the shift"):
        hp_membership(Permutation.shift(9), group_no_shift)
    # at l = 3 the test asks for T^3 in P, which the multiplier group lacks
    with pytest.raises(ValueError, match="P must contain the shift"):
        hp_membership(Permutation.shift(9), group_no_shift, 3)
    # H'(P) is defined only for an index dividing the degree: <T> holds
    # T^2, but 2 does not divide 9
    shift_group = PermGroup.from_generators(9, [Permutation.shift(9)])
    for l in (0, 2, 4):
        with pytest.raises(ValueError, match=f"index {l} does not divide the degree 9"):
            hp_membership(Permutation.shift(9), shift_group, l)


def test_hp_set_descriptor_kinds():
    # the P of each closed form gives H(P) by the same construction, and the
    # closed forms agree with it
    T9 = Permutation.shift(9)
    _, q11 = q_group(9, 1)
    q2 = q_group(9, 2)[0]
    shift_group = PermGroup.from_generators(9, [T9])
    assert hp_set(shift_group) == ag_set(9)
    assert hp_set(q11) == q2.elements() == gr_formula_set(9, 2)
    no_shift = PermGroup.from_generators(9, [Permutation.multiplier(9, 2)])
    with pytest.raises(ValueError, match="P must contain the shift"):
        hp_set(no_shift)


def test_hp_set_predicate_degree_limit():
    # no degree limit: at n = 27, H(P) is |C(T)| = 27 times the 27-cycles of P
    _, q12 = q_group(27, 2)
    assert q12.order() == 243
    members = hp_set(q12)
    full_cycles = sum(1 for rho in q12.elements()
                      if [len(c) for c in rho.cycles()] == [27])
    assert len(members) == 27 * full_cycles == 4374
    assert all(hp_membership(s, q12) for s in members)


# --- the restricted set for concrete codes --------------------------------------

def test_sylow_descriptor_nine_binary():
    # |P| = 3^4, the 3-part of 9!: P is a Sylow subgroup of S_9, Q_1^2 = W_T
    P = build_sylow_descriptor(NINE_FULL)
    assert P.order() == 81 == p_part(factorial(9), 3)
    q12 = q_group(9, 2)[1]
    assert P.elements() == q12.elements()
    members = hp_set(P)
    assert len(members) == 324


def test_hp_containment_chain_nine():
    P = build_sylow_descriptor(NINE_FULL)
    members = hp_set(P)
    assert ag_set(9) <= members
    assert normalizer_in_symmetric(P) <= members
    assert P.elements() <= members
    T = Permutation.shift(9)
    assert all(hp_membership(s, P) for s in itertools.islice(sorted(members, key=lambda g: g.images), 40))


def test_hp_sets_of_certified_kinds_are_groups():
    # the three explicit materializations at n = 9 happen to be closed
    for got in (ag_set(9), hp_set(q_group(9, 1)[1]),
                gr_formula_set(9, 2)):
        assert group_closure(list(got)) == got


def test_sylow_descriptor_prime_length():
    # at r = 1 no multiplier but the identity is 1 mod p: P = <T>
    P = build_sylow_descriptor(cyclic_code(7, GF2, {1, 2, 4}))
    assert P.generators == (Permutation.shift(7),)
    assert P.order() == 7 == p_part(factorial(7), 7)
    assert hp_set(P) == ag_set(7)


def test_sylow_descriptor_twentyseven():
    # the paper's closed form for length 27 over GF(2): the Sylow subgroup
    # <T, M_(q^t)> = <T, M_4> of the generalized-multiplier group G_3, of
    # order 3^5, below 3^13, the 3-part of 27!
    c = cyclic_code(27, GF2, {9, 18})
    T = Permutation.shift(27)
    P_gr = PermGroup.from_generators(27, [T, Permutation.multiplier(27, 4)])
    assert P_gr.order() == 243 < p_part(factorial(27), 3)
    members = hp_set(P_gr)
    assert len(members) == 4374
    sample = itertools.islice(sorted(members, key=lambda g: g.images), 30)
    assert all(hp_membership(s, P_gr) for s in sample)
    # the closed form is the same set as the coset construction
    assert members == gr_formula_set(27, 2)
    # the earlier construction as the oracle: the Sylow subgroup through the
    # shift of the verified family G_3
    assert P_gr.elements() == sylow_through_shift(gk_family(c, 3)[0]).elements()
    # the descriptor's P holds it: 2 generates the units mod 27, so every
    # M_a with a = 1 mod 3 fixes the code, and so do Q_1^2's generators
    P = build_sylow_descriptor(c)
    assert all(g in P for g in P_gr.generators + q_group(27, 2)[1].generators)
    assert P.order() == 3 ** 6


def test_sylow_descriptor_q_set():
    # every f_j, up to j = 4, fixes the code, so P is Q_1^4, of order 5^6:
    # that is W_T, and every M_a with a = 1 mod 5 lies in it
    P = build_sylow_descriptor(cyclic_code(25, GF2, {0}))
    assert P.order() == 5 ** 6 == p_part(factorial(25), 5)
    assert P == q_group(25, 4)[1] == PermGroup.from_rows(25, perm.kaloujnine_generators(5, 2))


# --- decision strategies ---------------------------------------------------------

HAMMING = cyclic_code(7, GF2, {1, 2, 4})
HAMMING_MIRROR = cyclic_code(7, GF2, {3, 6, 5})


def test_multiplier_decides_hamming_pair():
    v = decide_equivalence(HAMMING, HAMMING_MIRROR, "MULTIPLIER")
    assert v.status == "equivalent" and v.complete
    assert permute_code(HAMMING.linear, v.witness) == HAMMING_MIRROR.linear


def test_all_strategies_agree_on_hamming_pair():
    for strat in ("MULTIPLIER", "HP", "BRUTE"):
        v = decide_equivalence(HAMMING, HAMMING_MIRROR, strat)
        assert v.status == "equivalent" and v.complete, strat
        assert permute_code(HAMMING.linear, v.witness) == HAMMING_MIRROR.linear


def test_seven_catalogue_oracle_agreement():
    codes = [cyclic_code(7, GF2, ds) for ds in
             [set(), {0}, {1, 2, 4}, {3, 6, 5}, {0, 1, 2, 4}, {0, 3, 6, 5},
              {1, 2, 4, 3, 6, 5}, {0, 1, 2, 3, 4, 5, 6}]]
    equivalent_pairs = set()
    for i, j in itertools.combinations(range(len(codes)), 2):
        brute = decide_equivalence(codes[i], codes[j], "BRUTE")
        mult = decide_equivalence(codes[i], codes[j], "MULTIPLIER")
        hp = decide_equivalence(codes[i], codes[j], "HP")
        assert brute.complete and mult.complete and hp.complete
        assert brute.status in ("equivalent", "inequivalent")
        assert mult.status == brute.status and hp.status == brute.status
        if brute.status == "equivalent":
            equivalent_pairs.add((i, j))
    assert equivalent_pairs == {(2, 3), (4, 5)}


def test_nine_gf7_pair_equivalent_all_strategies():
    b = cyclic_code(9, GF7, {3, 1, 4, 7})
    c = cyclic_code(9, GF7, {6, 2, 5, 8})
    for strat in ("MULTIPLIER", "HP", "BRUTE"):
        v = decide_equivalence(b, c, strat)
        assert v.status == "equivalent" and v.complete, strat
        assert permute_code(b.linear, v.witness) == c.linear
    vm = decide_equivalence(b, c, "MULTIPLIER")
    assert vm.witness == Permutation.multiplier(9, 2)


def test_nine_gf7_inequivalent_same_dimension():
    # same dimension and the same weight profile, separated only by the scan:
    # W_T fixes the first code, so the 4 digit scalings decide the pair
    from cycperm.codes import weight_profile
    a = cyclic_code(9, GF7, {0, 3, 6})
    b = cyclic_code(9, GF7, {1, 4, 7})
    assert a.k == b.k == 6
    assert weight_profile(a.linear).counts == weight_profile(b.linear).counts
    hp = decide_equivalence(a, b, "HP")
    assert hp.status == "inequivalent" and hp.complete
    assert "W_T of order 3^4 = 81 fixes the first code" in hp.evidence
    assert "none of the 4 digit scalings" in hp.evidence
    assert decide_equivalence(a, b, "BRUTE").status == "inequivalent"


def test_hp_decides_where_multiplier_cannot():
    a = cyclic_code(9, GF7, {0, 1, 4, 7})
    b = cyclic_code(9, GF7, {1, 3, 4, 7})
    assert decide_equivalence(a, b, "MULTIPLIER").status == "inconclusive"
    hp = decide_equivalence(a, b, "HP")
    brute = decide_equivalence(a, b, "BRUTE")
    assert hp.complete and hp.status == brute.status


def test_hp_past_the_closure_bound_is_inconclusive(monkeypatch):
    # W_T fixes no GF(7) [25,21] code, so HP reaches H(P): this one's
    # P = <T> has 25 members and H(P) 500; under a bound of 20 listing P
    # already passes it, so nothing is scanned
    code = cyclic_code(25, GF7, {1, 7, 18, 24})
    assert code.k == 21
    assert not maps_onto(code.linear, code.linear, perm.kaloujnine_generators(5, 2)).any()
    assert decide_equivalence(code, code, "HP").status == "equivalent"
    monkeypatch.setattr(perm, "CLOSURE_BOUND", 20)
    v = decide_equivalence(code, code, "HP")
    assert (v.status, v.complete, v.witness) == ("inconclusive", False, None)
    assert "reached 25 rows, past CLOSURE_BOUND = 20" in v.evidence


def test_hp_past_the_closure_bound_scans_h_of_the_shift(monkeypatch):
    # W_T does not fix the GF(3) [8,6] code with defining set {1, 3}, and
    # its P has order 16 > n; under a bound of 12 listing P passes it, so
    # HP scans H(<T>), which lies in H(P), and keeps the witness found there
    # against the image under M_5
    x, y = cyclic_code(8, GF3, {1, 3}), cyclic_code(8, GF3, {5, 7})
    assert build_sylow_descriptor(x).order() == 16
    monkeypatch.setattr(perm, "CLOSURE_BOUND", 12)
    v = decide_equivalence(x, y, "HP")
    shift = PermGroup.from_generators(8, [Permutation.shift(8)])
    inner = equivalence.restricted_set_verdict(x, y, shift, 1, "HP", HP_SOURCE)
    assert (v.status, v.complete) == ("equivalent", False) and v.witness == inner.witness
    assert permute_code(x.linear, v.witness) == y.linear
    assert v.evidence == (f"{inner.evidence} (a subgroup of the P of Sylow exponent 4, "
                          "whose H(P) passes CLOSURE_BOUND)")


def test_dimension_separation_is_complete():
    v = decide_equivalence(NINE_FULL, cyclic_code(9, GF2, {0, 1, 2, 4, 8, 7, 5}), "HP")
    assert v.status == "inequivalent" and v.complete
    assert "dimensions differ" in v.evidence


def test_weight_profile_separation():
    x = cyclic_code(8, GF3, {1, 3})
    y = cyclic_code(8, GF3, {2, 6})
    v = decide_equivalence(x, y, "MULTIPLIER")
    assert v.status == "inequivalent" and v.complete
    assert "weight profiles differ" in v.evidence


def test_multiplier_incomplete_without_palfy():
    # [8,7] over GF(3): the two one-root codes share every cheap invariant
    x = cyclic_code(8, GF3, {0})
    y = cyclic_code(8, GF3, {4})
    v = decide_equivalence(x, y, "MULTIPLIER")
    assert v.status == "inconclusive" and not v.complete
    b = decide_equivalence(x, y, "BRUTE")
    assert b.status == "inequivalent" and b.complete


def test_multiplier_witness_on_gf3_octave():
    x = cyclic_code(8, GF3, {1, 3})
    z = cyclic_code(8, GF3, {5, 7})
    v = decide_equivalence(x, z, "MULTIPLIER")
    assert v.status == "equivalent"
    assert v.witness == Permutation.multiplier(8, 5)


def test_brute_rejects_large_degree():
    c = cyclic_code(11, GF3, {1, 3, 4, 5, 9})
    with pytest.raises(ValueError, match="n <= 10"):
        decide_equivalence(c, c, "BRUTE")


def test_strategy_validation_and_mismatches():
    with pytest.raises(ValueError, match="unknown strategy"):
        decide_equivalence(HAMMING, HAMMING, "GUESS")
    with pytest.raises(ValueError, match="length mismatch"):
        decide_equivalence(HAMMING, NINE_FULL, "BRUTE")
    with pytest.raises(ValueError, match="different fields"):
        decide_equivalence(cyclic_code(8, GF3, {0}), cyclic_code(8, GF7, {0}), "BRUTE")


GF4 = make_field(2, 2)
GF4_SEVEN = cyclic_code(7, GF4, {1, 2, 4})                # [7,4] over GF(4)
GF4_UNRELATED = LinearCode.from_rows(GF4, 7, [[1, 0, 0, 0, 2, 3, 1], [0, 1, 0, 0, 1, 1, 2],
                                              [0, 0, 1, 0, 3, 0, 1], [0, 0, 0, 1, 2, 2, 3]])


def _random_pairs(seed: int) -> list[tuple[LinearCode, LinearCode, bool | None]]:
    """Random codes that are not cyclic over GF(2), GF(3) and GF(4) at n = 6
    and 7, each with a planted permutation image of itself (equivalent) and
    with an unrelated code of its dimension (either way)."""
    rng = random.Random(seed)
    out = []
    for F in (GF2, GF3, GF4):
        for n in (6, 7):
            k = rng.randrange(2, n - 1)
            draw = lambda: LinearCode.from_rows(
                F, n, [[rng.randrange(F.order) for _ in range(n)] for _ in range(k)])
            code = draw()
            while code.k != k or is_shift_invariant(code):
                code = draw()
            other = draw()
            while other.k != k:
                other = draw()
            images = list(range(n))
            rng.shuffle(images)
            out += [(code, permute_code(code, Permutation(tuple(images))), True),
                    (code, other, None)]
    return out


def test_brute_witness_is_lexicographically_least(monkeypatch):
    # the oracle: the first permutation in lexicographic order that
    # permute_code confirms, over prime and extension fields, on cyclic
    # codes, on random codes that are not cyclic, and on the zero code and
    # the full space (every permutation maps each onto itself)
    cases = [(HAMMING.linear, HAMMING_MIRROR.linear, True),
             (GF4_SEVEN.linear, cyclic_code(7, GF4, {3, 5, 6}).linear, True),
             (GF4_SEVEN.linear, GF4_UNRELATED, False),
             (cyclic_code(5, GF4, set(range(5))).linear, cyclic_code(5, GF4, set(range(5))).linear, True),
             (cyclic_code(7, GF2, set()).linear, cyclic_code(7, GF2, set()).linear, True),
             *_random_pairs(20)]
    oracles = []
    for l1, l2, equivalent in cases:
        oracle = next((Permutation(im) for im in itertools.permutations(range(l1.n))
                       if permute_code(l1, Permutation(im)) == l2), None)
        assert equivalent is None or (oracle is not None) == equivalent
        assert brute_equivalence(l1, l2) == oracle
        oracles.append(oracle)
    assert oracles[3] == Permutation.identity(5) and oracles[4] == Permutation.identity(7)
    assert sum(o is None for o in oracles) >= 3
    # a GF(2) [10,6] pair with no witness, as their weight distributions
    # differ: both sides have distance 2, and the dual's family is a lone
    # weight-2 word (304,480 nodes when searched on it), so the search
    # takes the code's four weight-2 words instead
    lone = LinearCode.from_rows(GF2, 10, [
        [1, 0, 0, 0, 0, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 0, 0, 1, 0, 1],
        [0, 0, 1, 0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0, 1, 1, 0, 1], [0, 0, 0, 0, 0, 1, 0, 0, 1, 1]])
    other = LinearCode.from_rows(GF2, 10, [
        [1, 0, 0, 0, 0, 1, 1, 0, 1, 1], [0, 1, 0, 0, 0, 1, 0, 0, 1, 1],
        [0, 0, 1, 0, 0, 0, 1, 0, 1, 1], [0, 0, 0, 1, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 1, 1, 0, 0, 1, 1], [0, 0, 0, 0, 0, 0, 0, 1, 1, 1]])
    assert len(min_weight_words(lone.dual(), 2)) == 1
    assert autgroups._word_family(lone)[1:] == (False, 2)
    assert weight_profile(lone) != weight_profile(other)
    assert brute_equivalence(lone, other) is None
    # neither side's distance exact: the family is empty and the search,
    # pruned on nothing, still gives the least witness or none
    monkeypatch.setattr(autgroups, "min_distance",
                        lambda code, budget=None: DistanceResult(1, code.n, False))
    for (l1, l2, _), oracle in list(zip(cases, oracles))[:3]:
        assert brute_equivalence(l1, l2) == oracle


def test_verdict_json_shape():
    v = decide_equivalence(HAMMING, HAMMING_MIRROR, "MULTIPLIER")
    blob = v.to_json()
    assert blob["status"] == "equivalent" and blob["strategy"] == "MULTIPLIER"
    assert blob["complete"] is True and isinstance(blob["evidence"], str)
    assert blob["witness"] == list(v.witness.images)
    inc = decide_equivalence(cyclic_code(8, GF3, {0}), cyclic_code(8, GF3, {4}), "MULTIPLIER")
    assert "witness" not in inc.to_json()


@settings(max_examples=25, deadline=None)
@given(a=st.sampled_from([1, 2, 3, 4, 5, 6]), b=st.integers(min_value=0, max_value=6))
def test_planted_affine_witness_recovered(a, b):
    sigma = Permutation.affine(7, a, b)
    image = permute_code(HAMMING.linear, sigma)
    ds = cyclic_defining_set(image)
    assert ds is not None
    planted = cyclic_code(7, GF2, ds)
    assert planted.linear == image
    for strat in ("HP", "BRUTE"):
        v = decide_equivalence(HAMMING, planted, strat)
        assert v.status == "equivalent"
        assert permute_code(HAMMING.linear, v.witness) == planted.linear


def test_discovered_sylow_matches_ascent():
    # the discovered groups of sampled codes: G meet W_T, which is
    # build_sylow_descriptor's P on codes W_T does not fix, equals the Sylow
    # ascent from <T>
    rng = random.Random(1948)
    for q, n in ((3, 4), (5, 8), (7, 8), (4, 9), (7, 9), (7, 25)):
        p, _ = prime_power(n)
        codes = enumerate_cyclic_codes(n, make_field(*prime_power(q)))
        for code in rng.sample(codes, 4):
            gens, _ = known_cyclic_subgroup(code)
            G = PermGroup.from_generators(n, gens)
            T = PermGroup.from_generators(n, [Permutation.shift(n)])
            assert sylow_through_shift(G).elements() == sylow_ascend(G, p, T).elements(), \
                (q, n, sorted(code.defining_set))


def test_hp_witness_is_the_first_member_in_sorted_order():
    # the oracle: the first member of H(P), in sorted order of images, that
    # permute_code confirms; every same-dimension pair over GF(2) at n = 9,
    # and over GF(4) multiplier images and random partners
    rng = random.Random(20100212)
    gf2 = [c for c in enumerate_cyclic_codes(9, GF2) if 0 < c.k < 9]
    pairs = [(a, b) for a in gf2 for b in gf2 if a.k == b.k]
    gf4 = [c for c in enumerate_cyclic_codes(9, GF4) if 0 < c.k < 9]
    for c in rng.sample(gf4, 6):
        pairs.append((c, cyclic_code(9, GF4, {2 * i % 9 for i in c.defining_set})))
        pairs.append((c, rng.choice([d for d in gf4 if d.k == c.k])))
    for c1, c2 in pairs:
        verdict = decide_equivalence(c1, c2, "HP")
        P = build_sylow_descriptor(c1)
        members = sorted(hp_set(P), key=lambda s: s.images)
        oracle = next((s for s in members if permute_code(c1.linear, s) == c2.linear), None)
        assert verdict.witness == oracle, (c1, c2)


def test_hp_witness_is_the_first_hit_over_the_full_hp_rows():
    # the coset-leader scan against the full sorted H(P) of
    # perm.conjugation_rows: the witness is its first row that maps_onto
    # passes, and the evidence gives its size.  Where W_T fixes the first
    # code, HP scans the digit scalings instead, and the witness is the
    # first of their sorted rows that passes.  GF(2) n = 27 multiplier
    # images and random same-dimension partners (2 generates the units mod
    # 27 and each dimension has one code, so both are the code itself),
    # GF(3) n = 16 multiplier images and partners, and two GF(11) n = 25
    # planted pairs (k = 13 and 17, past the enumeration budget of their
    # weight profiles); W_T fixes the codes of length 27 and 25
    rng = random.Random(1627)
    pairs = []
    for q, n, dims in ((2, 27, range(1, 10)), (3, 16, range(1, 10))):
        family = [c for c in enumerate_cyclic_codes(n, make_field(q)) if c.k in dims]
        for c in rng.sample(family, 5):
            a = rng.choice(units(n)[1:])
            pairs.append((c, cyclic_code(n, c.field, {a * i % n for i in c.defining_set}), True))
            pairs.append((c, rng.choice([d for d in family if d.k == c.k]), False))
    GF11 = make_field(11)
    for ds in ({1, 2, 5, 6, 7, 10, 11, 12, 16, 17, 21, 22},     # k = 13
               {1, 5, 6, 10, 11, 16, 20, 21}):                  # k = 17
        pairs.append((cyclic_code(25, GF11, ds), cyclic_code(25, GF11, {2 * i % 25 for i in ds}), True))
    witnesses = tableau = 0
    for c1, c2, planted in pairs:
        verdict = decide_equivalence(c1, c2, "HP")
        # a multiplier normalizes <T>, so H(P) holds every planted witness
        assert verdict.status == "equivalent" or not planted, (c1, c2)
        witnesses += verdict.witness is not None
        p, r = prime_power(c1.n)
        if maps_onto(c1.linear, c1.linear, perm.kaloujnine_generators(p, r)).all():
            tableau += 1
            rows = perm.digit_scalings(p, r)
            size = f"the {len(rows)} digit scalings D"
        else:
            P = build_sylow_descriptor(c1)
            rows = conjugation_rows(Permutation.shift(c1.n), P)
            size = f"H(P) of size {len(rows)} "
        first = np.flatnonzero(maps_onto(c1.linear, c2.linear, rows))
        oracle = Permutation(tuple(rows[first[0]].tolist())) if first.size else None
        assert verdict.witness == oracle, (c1, c2)
        if verdict.evidence != "weight profiles differ":
            assert size in verdict.evidence, (c1, c2)
    assert witnesses > len(pairs) // 2
    assert 0 < tableau < len(pairs)


def test_hp_separates_by_weight_profiles_with_or_without_a_descriptor():
    # same dimension, different profiles: at n = 15, which has no
    # descriptor, the profiles decide; at n = 8, which has one, W_T does not
    # fix the first code, so its test cannot decide first, and H(P) is
    # scanned first but finds no witness, so the profiles give the verdict
    for q, n, ds1, ds2 in ((2, 15, {1, 2, 4, 8}, {3, 6, 9, 12}), (3, 8, {1, 3}, {2, 6})):
        c1, c2 = cyclic_code(n, make_field(q), ds1), cyclic_code(n, make_field(q), ds2)
        assert c1.k == c2.k
        assert weight_profile(c1.linear).counts != weight_profile(c2.linear).counts
        if n == 8:
            assert not maps_onto(c1.linear, c1.linear, perm.kaloujnine_generators(2, 3)).all()
        verdict = decide_equivalence(c1, c2, "HP")
        assert (verdict.status, verdict.complete, verdict.evidence) == \
            ("inequivalent", True, "weight profiles differ")


def test_hp_runs_the_wt_test_before_the_weight_profiles(monkeypatch):
    # W_T fixes GF(3) n = 8 {2, 6}; {5, 7} has the same k = 6 and another
    # weight profile, but HP decides the pair by the D scan and never
    # enumerates a profile
    c1, c2 = cyclic_code(8, GF3, {2, 6}), cyclic_code(8, GF3, {5, 7})
    assert c1.k == c2.k == 6
    assert weight_profile(c1.linear).counts != weight_profile(c2.linear).counts
    assert maps_onto(c1.linear, c1.linear, perm.kaloujnine_generators(2, 3)).all()

    def never(*args, **kwargs):
        raise AssertionError("weight_profile was called")

    monkeypatch.setattr(equivalence, "weight_profile", never)
    verdict = decide_equivalence(c1, c2, "HP")
    assert (verdict.status, verdict.complete, verdict.witness) == ("inequivalent", True, None)
    assert "W_T of order 2^7 = 128 fixes the first code" in verdict.evidence
    assert "digit scalings D" in verdict.evidence
    # the dimensions still come first, and the other strategies still take
    # the profiles first
    other = cyclic_code(8, GF3, {0})
    assert decide_equivalence(c1, other, "HP").evidence == "dimensions differ: 6 != 7"
    with pytest.raises(AssertionError, match="weight_profile"):
        decide_equivalence(c1, c2, "BRUTE")


def test_gr_formula_descriptor_cuts_no_sylow_subgroup(monkeypatch):
    # P is named by its generators, so building it lists no group, which
    # cutting a Sylow subgroup out of one would need, and its chain is built
    # only when a caller asks for it.  The three codes the closed forms once named keep pinned
    # orders: <T> at a prime length, Q_1^4 at GF(2) n = 25, and Q_1^2 with
    # M_4 at GF(2) n = 27, which holds the GR formula's <T, M_4>
    def never(*args, **kwargs):
        raise AssertionError("the descriptor listed a group or cut a Sylow subgroup")

    monkeypatch.setattr(perm.StabilizerChain, "products", never)
    cases = [(7, {1, 2, 4}, 1, 7), (25, {0}, 6, 5 ** 6),
             (27, {0, 3, 6, 12, 24, 21, 15}, 6, 3 ** 6)]
    for n, ds, exponent, order in cases:
        P = build_sylow_descriptor(cyclic_code(n, GF2, ds))
        assert "_chain" not in P.__dict__
        assert P.order() == order and prime_power(order)[1] == exponent
        assert Permutation.shift(n) in P.generators
    P = build_sylow_descriptor(cyclic_code(27, GF2, {0, 3, 6, 12, 24, 21, 15}))
    assert Permutation.shift(27) in P and Permutation.multiplier(27, 4) in P


def test_descriptor_is_one_batch_of_closed_form_rows(monkeypatch):
    # on the GF(3) n = 8 and GF(7) n = 25 codes that W_T does not fix, the
    # descriptor tests its rows in one maps_onto batch, and neither scans
    # the multipliers nor builds a polynomial-map group
    def never(*args, **kwargs):
        raise AssertionError("the descriptor called q_group or multiplier_scan")

    monkeypatch.setattr(equivalence, "q_group", never)
    monkeypatch.setattr(autgroups, "multiplier_scan", never)
    real, batches = equivalence.maps_onto, []
    monkeypatch.setattr(equivalence, "maps_onto",
                        lambda c1, c2, images: batches.append(len(images)) or real(c1, c2, images))
    checked = 0
    for q, n in ((3, 8), (7, 25)):
        p, r = prime_power(n)
        for code in enumerate_cyclic_codes(n, make_field(q)):
            if real(code.linear, code.linear, perm.kaloujnine_generators(p, r)).all():
                continue
            batches.clear()
            P = build_sylow_descriptor(code)
            # the multipliers a = 1 mod p, a != 1, and the p - 2 maps f_j
            assert batches == [p ** (r - 1) - 1 + p - 2]
            assert all(maps_onto(code.linear, code.linear, [g.images]).all()
                       for g in P.generators)
            checked += 1
    assert checked == 16 + 120


def test_descriptor_builds_no_rung_it_does_not_reach(monkeypatch):
    # the descriptor has no ambient rungs left: on the 14 binary codes of
    # length 27 and the GF(3) codes of length 8 that W_T does not fix, it
    # computes no element order and leaves P's chain unbuilt
    calls = []
    real_order = Permutation.order

    def counted(self):
        calls.append(self)
        return real_order(self)

    monkeypatch.setattr(Permutation, "order", counted)
    codes = [c for c in enumerate_cyclic_codes(27, GF2) if 0 < c.k < 27]
    unfixed = [c for c in enumerate_cyclic_codes(8, GF3)
               if not maps_onto(c.linear, c.linear, perm.kaloujnine_generators(2, 3)).all()]
    for code in codes + unfixed:
        P = build_sylow_descriptor(code)
        assert "_chain" not in P.__dict__
        assert Permutation.shift(code.n) in P.generators
    assert len(codes) == 14 and unfixed and calls == []


def test_predicate_p_keeps_the_chain_it_was_cut_with(monkeypatch):
    # sylow_through_shift grows the P it cuts out of the discovered group
    # with PermGroup.from_rows, the one chain builder, which hands P the
    # chain it grew while picking the generators, so listing P builds no
    # second chain from P's generators, and listing H(P)'s coset leaders
    # builds none either: C(T)'s members come in closed form
    code = cyclic_code(9, GF2, {0, 3, 6})
    P = sylow_through_shift(PermGroup.from_generators(9, known_cyclic_subgroup(code)[0]))
    built = []
    real_build = PermGroup.from_rows

    def counted(n, rows, order=None):
        rows = [tuple(r) for r in rows]
        built.append(rows)
        return real_build(n, rows, order)

    monkeypatch.setattr(PermGroup, "from_rows", staticmethod(counted))
    P.order()
    P.elements()
    equivalence.shift_coset_leaders(P)
    assert not built
    fresh = PermGroup(P.degree, P.generators)
    assert (P._chain.base, P._chain.orbit, P._chain.gens) == \
        (fresh._chain.base, fresh._chain.orbit, fresh._chain.gens)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("ds", [set(), {0}])
def test_multiplier_verdict_at_length_one(q, ds):
    # (Z/1)^* = {0}, and M_0 on one point is the identity, as BRUTE finds
    c = cyclic_code(1, make_field(q), ds)
    identity = Permutation.identity(1)
    v = decide_equivalence(c, c, "MULTIPLIER")
    assert (v.status, v.witness, v.complete) == ("equivalent", identity, True)
    b = decide_equivalence(c, c, "BRUTE")
    assert (b.status, b.witness) == ("equivalent", identity)
    assert ag_set(1) == frozenset({identity})


def test_hp_agrees_with_brute_on_same_dimension_pairs():
    # the 59 pairs of distinct GF(3) cyclic codes of length 8 with one
    # dimension reach H(P) or the digit scalings, and BRUTE's search, which
    # no binary length-9 pair does (those 8 codes have 8 different
    # dimensions): HP finds every equivalent pair, each witness confirmed by
    # permute_code, its complete "inequivalent" verdicts all agree with
    # BRUTE, and the rest stay open
    codes = enumerate_cyclic_codes(8, GF3)
    pairs = [(a, b) for a, b in itertools.combinations(codes, 2) if a.k == b.k]
    tally = {}
    for c1, c2 in pairs:
        verdict = decide_equivalence(c1, c2, "HP")
        truth = brute_equivalence(c1.linear, c2.linear) is not None
        tally[verdict.status, truth] = tally.get((verdict.status, truth), 0) + 1
        if verdict.status == "equivalent":
            assert permute_code(c1.linear, verdict.witness) == c2.linear
        if verdict.status == "inequivalent":
            assert verdict.complete
    assert len(pairs) == 59
    assert tally == {("equivalent", True): 8, ("inequivalent", False): 39,
                     ("inconclusive", False): 12}


def test_tableau_verdicts_agree_with_brute():
    # every same-dimension pair of distinct codes whose first code W_T fixes
    # is decided by the digit scalings, and BRUTE agrees on each; at p = 2
    # D is the identity alone, so two distinct codes are inequivalent
    families = {(3, 8): 23, (5, 8): 55, (4, 9): 48, (7, 9): 48}
    for (q, n), expected in families.items():
        p, r = prime_power(n)
        levels = perm.kaloujnine_generators(p, r)
        codes = enumerate_cyclic_codes(n, make_field(*prime_power(q)))
        decided = 0
        for c1, c2 in itertools.combinations(codes, 2):
            if c1.k != c2.k or not maps_onto(c1.linear, c1.linear, levels).all():
                continue
            decided += 1
            verdict = tableau_verdict(c1, c2, p, r, "HP")
            assert verdict.complete and "W_T" in verdict.evidence
            assert decide_equivalence(c1, c2, "HP").status == verdict.status
            assert verdict.status == brute_verdict(c1.linear, c2.linear).status, (c1, c2)
            if verdict.witness is not None:
                assert permute_code(c1.linear, verdict.witness) == c2.linear
            if p == 2:
                assert verdict.status == "inequivalent"
        assert decided == expected, (q, n)


def test_tableau_verdicts_keep_the_complete_hp_verdicts_at_gf11_25():
    # W_T fixes every GF(11) code of length 25; on sampled same-dimension
    # pairs the complete H(W_T) verdict, with P = W_T grown from its level
    # maps, and the digit scalings give the same status and the same witness
    GF11 = make_field(11)
    codes = [c for c in enumerate_cyclic_codes(25, GF11)
             if 0 < c.k < 25 and 11 ** min(c.k, 25 - c.k) <= 2 ** 18]
    pairs = [(a, b) for a, b in itertools.combinations(codes, 2) if a.k == b.k]
    W_T = PermGroup.from_rows(25, perm.kaloujnine_generators(5, 2))
    compared = 0
    for c1, c2 in random.Random(1948).sample(pairs, 16):
        verdict = tableau_verdict(c1, c2, 5, 2, "HP")
        assert verdict is not None and verdict.complete
        hp = restricted_set_verdict(c1, c2, W_T, 1, "HP", "W_T")
        if hp.complete:
            compared += 1
            assert (verdict.status, verdict.witness) == (hp.status, hp.witness), (c1, c2)
    assert compared == 16


def test_descriptor_is_the_sylow_subgroup_of_the_discovered_group():
    # on every code W_T does not fix, in whole families (a seeded third of
    # the 512 codes of GF(19) n = 49), P equals G meet W_T cut out of the
    # listing of the discovered group G, the shift, the multipliers and the
    # fixing Q_1^m generators for the largest such m, with no bound on m (no
    # G_k family exists there, by the lifting lemma of autgroups.gk_lifts)
    families = ((5, 4), (3, 8), (5, 8), (7, 8), (8, 9), (3, 16), (7, 25), (8, 27), (19, 49))
    checked = 0
    for q, n in families:
        p, r = prime_power(n)
        assert not autgroups.gk_lifts(q, n)
        levels = perm.kaloujnine_generators(p, r)
        codes = enumerate_cyclic_codes(n, make_field(*prime_power(q)))
        for code in random.Random(49).sample(codes, 171) if n == 49 else codes:
            lin = code.linear
            if maps_onto(lin, lin, levels).all():
                continue
            gens, _ = known_cyclic_subgroup(code)
            for m in range(p - 1, 0, -1):
                q1 = q_group(n, m)[1].generators
                if maps_onto(lin, lin, [g.images for g in q1]).all():
                    gens = gens + list(q1)
                    break
            reference = sylow_through_shift(PermGroup.from_generators(n, gens))
            assert build_sylow_descriptor(code) == reference, (q, n, sorted(code.defining_set))
            checked += 1
    assert checked == 568 + 170


# --- the restricted-set scan before the weight profiles -------------------------

HP_SOURCE = "<T, M_a (a = 1 mod p), Q_1> fixing the code"


def test_hp_scans_h_p_before_the_weight_profiles(monkeypatch):
    # W_T does not fix GF(3) n = 8 {1, 3}: HP scans H(P) first, and a
    # witness there ends the decision before any weight profile is
    # enumerated; {5, 7} is its image under the multiplier by 5
    c1 = cyclic_code(8, GF3, {1, 3})
    c2 = cyclic_code(8, GF3, {5, 7})
    assert not maps_onto(c1.linear, c1.linear, perm.kaloujnine_generators(2, 3)).all()

    def never(*args, **kwargs):
        raise AssertionError("weight_profile was called")

    monkeypatch.setattr(equivalence, "weight_profile", never)
    verdict = decide_equivalence(c1, c2, "HP")
    assert verdict.status == "equivalent" and "witness found in H(P)" in verdict.evidence
    assert permute_code(c1.linear, verdict.witness) == c2.linear
    # without a witness the profiles are still asked
    with pytest.raises(AssertionError, match="weight_profile"):
        decide_equivalence(c1, cyclic_code(8, GF3, {2, 6}), "HP")


def test_hp_scan_first_gives_the_profiles_first_verdict():
    # on every same-dimension pair of GF(3) and GF(5) n = 8 whose first
    # code W_T does not fix, the verdict is the one of the profiles-first
    # order, field by field: status, complete, witness and evidence; each of
    # its three outcomes occurs
    outcomes = set()
    for q in (3, 5):
        codes = enumerate_cyclic_codes(8, make_field(q))
        for c1, c2 in itertools.combinations(codes, 2):
            if c1.k != c2.k or maps_onto(c1.linear, c1.linear,
                                         perm.kaloujnine_generators(2, 3)).all():
                continue
            expected = invariant_separation(c1, c2, "HP") or restricted_set_verdict(
                c1, c2, build_sylow_descriptor(c1), 1, "HP", HP_SOURCE)
            assert decide_equivalence(c1, c2, "HP") == expected, (c1, c2)
            outcomes.add(expected.status)
    assert outcomes == {"equivalent", "inequivalent", "inconclusive"}


# --- the witness scan in growing blocks -----------------------------------------

def _block_starts(count: int) -> list[int]:
    """The first row of each block witness_scan tests, for `count` rows."""
    starts, start, size = [], 0, equivalence._SCAN_BLOCK
    while start < count:
        starts.append(start)
        start, size = start + size, size * equivalence._SCAN_GROWTH
    return starts


def _scan_rows(hits: list[int], count: int) -> tuple[LinearCode, LinearCode, np.ndarray]:
    """A GF(2) n = 7 pair and `count` seeded image rows of which exactly the
    rows at the positions `hits` map the first code onto the second."""
    c1 = cyclic_code(7, GF2, {1, 2, 4}).linear
    c2 = permute_code(c1, Permutation.affine(7, 3, 1))
    rng = np.random.default_rng(2010)
    rows = np.argsort(rng.random((4 * count, 7)), axis=1)
    mask = maps_onto(c1, c2, rows)
    rows = np.concatenate([rows[~mask][:count], rows[mask][:len(hits)]])
    order = np.arange(count)
    for j, at in enumerate(hits):
        order = np.insert(order, at, count + j)
    return c1, c2, rows[order[:count]]


@pytest.mark.parametrize("where", ["block 1", "block 2", "later block", "nowhere"])
def test_witness_scan_is_the_first_hit_of_one_full_mask(where, monkeypatch):
    # the block scan returns the first True of one maps_onto mask over all
    # the rows, and stops after the block that holds it
    count = 6000
    starts = _block_starts(count)
    assert len(starts) >= 4
    first = {"block 1": 3, "block 2": starts[1] + 5, "later block": starts[3] + 17,
             "nowhere": None}[where]
    hits = [] if first is None else [first, first + 1, min(first + 400, count - 1)]
    c1, c2, rows = _scan_rows(hits, count)
    full = np.flatnonzero(maps_onto(c1, c2, rows))
    assert full.tolist() == hits
    tested = []
    real = equivalence.maps_onto
    monkeypatch.setattr(equivalence, "maps_onto",
                        lambda a, b, images: tested.append(len(images)) or real(a, b, images))
    sigma = witness_scan(c1, c2, rows)
    if first is None:
        assert sigma is None
        assert sum(tested) == count
    else:
        assert sigma == Permutation(tuple(rows[full[0]].tolist()))
        block = max(i for i, s in enumerate(starts) if s <= first)
        assert len(tested) == block + 1
        assert sum(tested) == min(count, starts[block + 1] if block + 1 < len(starts) else count)


def test_witness_scan_of_one_row_and_of_none():
    # BRUTE hands over the one row of its search's witness
    c1 = cyclic_code(7, GF2, {1, 2, 4}).linear
    tau = Permutation.affine(7, 3, 1)
    c2 = permute_code(c1, tau)
    assert witness_scan(c1, c2, np.array([tau.images])) == tau
    assert witness_scan(c1, c2, np.array([Permutation.identity(7).images])) is None
    assert witness_scan(c1, c2, np.empty((0, 7), dtype=np.int64)) is None
    assert brute_equivalence(c1, c2) == witness_scan(c1, c2, np.array(
        [brute_equivalence(c1, c2).images]))


def test_witness_scan_raises_when_the_two_tests_disagree(monkeypatch):
    # the first row that maps_onto passes is checked by re-encoding: when it
    # does not map c1 onto c2 the RuntimeError names it, even when a true
    # witness follows it in the block
    c1 = cyclic_code(7, GF2, {1, 2, 4}).linear
    tau = Permutation.affine(7, 3, 1)
    c2 = permute_code(c1, tau)
    wrong = Permutation((1, 0, 2, 3, 4, 5, 6))
    assert permute_code(c1, wrong) != c2 == permute_code(c1, tau)
    monkeypatch.setattr(equivalence, "maps_onto",
                        lambda a, b, images: np.ones(len(images), dtype=bool))
    for rows in ([wrong.images], [wrong.images, tau.images]):
        with pytest.raises(RuntimeError, match=r"disagree on " + re.escape(repr(wrong))):
            witness_scan(c1, c2, np.array(rows))
    assert witness_scan(c1, c2, np.array([tau.images, wrong.images])) == tau


def test_multiplier_witness_is_checked_by_re_encoding(monkeypatch):
    # MULTIPLIER's map passes witness_scan like every reported map: when the
    # re-encoding check rejects every row, the RuntimeError names the map of
    # the least multiplier hit, M_5 on the GF(3) octave pair
    x, z = cyclic_code(8, GF3, {1, 3}), cyclic_code(8, GF3, {5, 7})
    monkeypatch.setattr(equivalence, "reencodes_onto",
                        lambda c1, c2, sigmas: np.zeros(len(sigmas), dtype=bool))
    with pytest.raises(RuntimeError,
                       match=r"disagree on " + re.escape(repr(Permutation.multiplier(8, 5)))):
        decide_equivalence(x, z, "MULTIPLIER")
