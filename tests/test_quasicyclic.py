import json
import random
from itertools import product
from math import factorial, gcd, lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycperm import cli, equivalence, perm, quasicyclic
from cycperm.algebra import make_field, p_part, prime_power, units
from cycperm.autgroups import analyze
from cycperm.codes import (
    LinearCode,
    code_to_spec,
    cyclic_code,
    enumerate_cyclic_codes,
    permute_code,
    weight_profile,
)
from cycperm.equivalence import ag_set, brute_verdict, decide_equivalence, hp_membership
from cycperm.perm import (
    CLOSURE_BOUND,
    PermGroup,
    Permutation,
    centralizer_order,
    conjugation_cosets,
    conjugation_set,
    normalizer_in_symmetric,
    sylow_ascend,
)
from cycperm.quasicyclic import (
    HPrimeReport,
    QuasiCyclicCode,
    imprimitivity_report,
    normalizer_witnesses,
    qc_equivalence_search,
    qc_sylow,
    sigma_cycles,
)
from oracles import (
    hset_brute,
    minimal_blocks_by_closure,
    q_rows,
    qc_ambient,
    qc_sylow_by_ambient,
    sylow_through_shift,
)

GF2 = make_field(2)
GF3 = make_field(3)
GF4 = make_field(2, 2)


def interleave(a: LinearCode, b: LinearCode) -> LinearCode:
    """[2n, k_a + k_b] code with a on the even positions and b on the odd."""
    n = 2 * a.n
    rows = []
    for src, off in ((a, 0), (b, 1)):
        for r in src.matrix:
            row = [0] * n
            for i, x in enumerate(r):
                row[2 * i + off] = x
            rows.append(row)
    return LinearCode.from_rows(a.field, n, rows)


def circulant_pair(v) -> QuasiCyclicCode:
    # row i: unit at even position 2i, circulant row of v on the odd positions
    rows = []
    for i in range(5):
        row = [0] * 10
        row[2 * i] = 1
        for j in range(5):
            row[2 * j + 1] = v[(j - i) % 5]
        rows.append(row)
    return QuasiCyclicCode(LinearCode.from_rows(GF2, 10, rows), 2)


def full_space(field, n: int) -> LinearCode:
    return LinearCode.from_rows(field, n, [[1 if j == i else 0 for j in range(n)]
                                           for i in range(n)])


REP5 = cyclic_code(5, GF2, {1, 2, 3, 4}).linear      # [5,1] repetition
PAR5 = cyclic_code(5, GF2, {0}).linear                # [5,4] parity check
REP_PAR = QuasiCyclicCode(interleave(REP5, PAR5), 2)  # [10,5]


# --- the cycles sigma_i and the product identity ---------------------------------

def test_sigma_cycles_fifteen_three():
    s0, s1, s2 = sigma_cycles(15, 3)
    assert s0.images[0] == 3 and s0.images[3] == 6 and s0.images[12] == 0
    assert s0.images[1] == 1                     # fixes the other residue classes
    prod = s0 * s1 * s2
    assert prod == Permutation.power_shift(15, 3)
    assert s0.order() == s1.order() == s2.order() == 5


def test_sigma_cycles_index_one_is_shift():
    (s,) = sigma_cycles(12, 1)
    assert s == Permutation.shift(12)


def test_sigma_cycles_commute():
    cycles = sigma_cycles(15, 3)
    for a in cycles:
        for b in cycles:
            assert a * b == b * a


def test_sigma_cycles_errors():
    with pytest.raises(ValueError, match="does not divide"):
        sigma_cycles(10, 3)
    with pytest.raises(ValueError):
        sigma_cycles(10, 0)


def test_product_identity_sweep():
    # T^l equals the product of the sigma_i, and its order is lcm of theirs = m
    for n in (6, 12, 20, 36, 60, 97, 100):
        for l in range(1, n + 1):
            if n % l:
                continue
            cycles = sigma_cycles(n, l)
            prod = cycles[0]
            for c in cycles[1:]:
                prod = prod * c
            expected = Permutation.identity(n) if l == n else Permutation.power_shift(n, l)
            assert prod == expected
            assert lcm(*(c.order() for c in cycles)) == n // l


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=120), st.data())
def test_product_identity_property(n, data):
    divisors = [l for l in range(1, n) if n % l == 0]
    l = data.draw(st.sampled_from(divisors))
    cycles = sigma_cycles(n, l)
    prod = cycles[0]
    for c in cycles[1:]:
        prod = prod * c
    assert prod == Permutation.power_shift(n, l)
    assert prod.order() == n // l


# --- normalizer witnesses ---------------------------------------------------------

def test_normalizer_witnesses_fifteen_three():
    q, ag = normalizer_witnesses(15, 3)
    assert q.order() == 375
    assert ag.order() == 120
    t3 = Permutation.power_shift(15, 3)
    tau = Permutation.affine(15, 2, 0)
    assert tau * t3 * tau.inverse() == Permutation.power_shift(15, 6)


def test_normalizer_witnesses_ten_two():
    q, ag = normalizer_witnesses(10, 2)
    assert q.order() == 50
    assert ag.order() == 40
    t2 = Permutation.power_shift(10, 2)
    brute_norm = normalizer_in_symmetric(PermGroup.from_generators(10, [t2]))
    assert ag.elements() <= brute_norm
    assert q.elements() <= brute_norm


def test_normalizer_witnesses_gcd_error():
    with pytest.raises(ValueError, match="gcd"):
        normalizer_witnesses(12, 2)      # m = 6 shares a factor with l = 2
    with pytest.raises(ValueError, match="gcd"):
        normalizer_witnesses(9, 3)


# --- H'(P) membership -------------------------------------------------------------

def test_hprime_membership_shift_and_affine():
    t2 = Permutation.power_shift(10, 2)
    P = PermGroup.from_generators(10, [t2])
    assert hp_membership(Permutation.shift(10), P, 2)
    for a in (1, 3, 7, 9):
        for b in range(10):
            assert hp_membership(Permutation.affine(10, a, b), P, 2)


def test_hprime_membership_normalizer_elements():
    # every element of N(P) conjugates T^l back into P
    s0, s1 = sigma_cycles(10, 2)
    P = PermGroup.from_generators(10, [s0, s1])
    for g in normalizer_in_symmetric(P):
        assert hp_membership(g, P, 2)


def test_hprime_membership_requires_shift():
    P = PermGroup.from_generators(10, [sigma_cycles(10, 2)[0]])
    with pytest.raises(ValueError, match="shift power"):
        hp_membership(Permutation.shift(10), P, 2)


def test_hprime_of_shift_group_is_its_normalizer():
    # exact set equality, brute-verified; the order is 200 at n = 10
    t2 = Permutation.power_shift(10, 2)
    P = PermGroup.from_generators(10, [t2])
    brute = hset_brute(t2, P)
    assert brute == normalizer_in_symmetric(P)
    assert len(brute) == 200


def test_hprime_of_shift_group_small_lengths():
    for n, l in ((6, 2), (9, 3), (8, 2)):
        tl = Permutation.power_shift(n, l)
        P = PermGroup.from_generators(n, [tl])
        assert hset_brute(tl, P) == normalizer_in_symmetric(P)


def test_structured_families_inside_brute_hprime():
    # AG(n), N(<T^l>) and N(P) all land inside the exhaustive H'(P)
    P = qc_sylow(REP_PAR)
    t2 = Permutation.power_shift(10, 2)
    brute = hset_brute(t2, P)
    assert conjugation_set(t2, P) == brute
    q, ag = normalizer_witnesses(10, 2)
    assert ag.elements() <= brute
    shift_group = PermGroup.from_generators(10, [t2])
    assert normalizer_in_symmetric(shift_group) <= brute
    assert normalizer_in_symmetric(P) <= brute


# --- the QuasiCyclicCode type -----------------------------------------------------

def test_qc_code_validation():
    with pytest.raises(ValueError, match="does not divide"):
        QuasiCyclicCode(REP_PAR.linear, 3)
    skew = LinearCode.from_rows(GF2, 10, [[1, 1] + [0] * 8])
    with pytest.raises(ValueError, match="not invariant"):
        QuasiCyclicCode(skew, 2)


def test_qc_code_fields_and_repr():
    assert REP_PAR.n == 10 and REP_PAR.k == 5
    assert REP_PAR.index == 2 and REP_PAR.co_index == 5
    assert REP_PAR.field is GF2
    assert "l=2" in repr(REP_PAR)
    assert QuasiCyclicCode(REP_PAR.linear, 2) == REP_PAR


def test_minimal_index():
    assert REP_PAR.minimal_index() == 2
    # a cyclic code declared at a coarser index is still cyclic underneath
    ham = cyclic_code(7, GF2, {1, 2, 4}).linear
    assert QuasiCyclicCode(ham, 7).minimal_index() == 1
    # declaring l = n is always legal (T^n is the identity)
    assert QuasiCyclicCode(REP_PAR.linear, 10).minimal_index() == 2
    same = QuasiCyclicCode(interleave(REP5, REP5), 2)
    assert same.minimal_index() == 1     # invariant under the full shift


def test_qc_sylow_orders():
    assert qc_sylow(REP_PAR).order() == 25
    assert qc_sylow(circulant_pair((1, 1, 0, 0, 0))).order() == 5
    ham = cyclic_code(7, GF2, {1, 2, 4}).linear
    doubled = QuasiCyclicCode(interleave(ham, ham), 2)
    assert qc_sylow(doubled).order() == 49


def _random_qc(rng: random.Random, field, n: int, l: int) -> QuasiCyclicCode:
    """The span of the T^l-orbits of one or two random vectors, neither
    zero nor everything."""
    while True:
        rows = []
        for _ in range(rng.randint(1, 2)):
            v = [rng.randrange(field.order) for _ in range(n)]
            rows += [[v[(i - s * l) % n] for i in range(n)] for s in range(n // l)]
        lin = LinearCode.from_rows(field, n, rows)
        if 0 < lin.k < n:
            return QuasiCyclicCode(lin, l)


def test_qc_sylow_matches_ascent_from_the_shift_power():
    # the discovered group G built from every member of Q and AG(n), with
    # permute_code as the code-action test: qc_sylow, which never builds G,
    # equals the Sylow ascent from <T^l> in G, at l < p (r = 1 and r >= 2,
    # where G meet W is the one Sylow p-subgroup through T^l) and at l > p
    rng = random.Random(1948)
    shapes = [(GF2, 10, 2, 5), (GF2, 14, 2, 7), (GF2, 15, 3, 5),
              (GF3, 6, 3, 2), (GF3, 12, 3, 2), (GF2, 12, 4, 3), (GF2, 15, 5, 3),
              (GF2, 18, 2, 3), (GF4, 18, 2, 3), (GF2, 9, 1, 3)]
    for field, n, l, p in shapes:
        tl = Permutation.power_shift(n, l)
        family = PermGroup.from_generators(n, sigma_cycles(n, l) + [Permutation.shift(n)])
        for _ in range(3):
            code = _random_qc(rng, field, n, l)
            gens = [tl] + [g for g in family.elements() | ag_set(n)
                           if permute_code(code.linear, g) == code.linear]
            ambient = PermGroup.from_generators(n, gens)
            if ambient.order() > CLOSURE_BOUND:
                ambient = PermGroup.from_generators(n, [tl])
            seed = PermGroup.from_generators(n, [tl])
            assert qc_sylow(code).elements() == sylow_ascend(ambient, p, seed).elements(), code


def test_q_is_listed_in_closed_form():
    # the rows T^j w of the oracle's Q = <sigma_i, T> are Q as its chain
    # lists it, l m^l of them, in the smallest unsigned dtype; the first m^l
    # are S = <sigma_i> (_w_rows), in lexicographic order
    for n, l in ((10, 2), (15, 3), (14, 2), (6, 3), (12, 3), (12, 4), (15, 5), (20, 4),
                 (18, 2), (21, 3), (9, 1), (25, 1)):
        rows = q_rows(n, l)
        Q = PermGroup.from_generators(n, sigma_cycles(n, l) + [Permutation.shift(n)])
        assert rows.shape == (l * (n // l) ** l, n) and rows.dtype == np.min_scalar_type(n)
        assert Q.order() == len(rows)
        assert set(map(tuple, rows.tolist())) == set(map(tuple, Q._array.tolist())), (n, l)
        w = quasicyclic._w_rows(n, l)
        S = PermGroup.from_generators(n, sigma_cycles(n, l))
        assert (w == rows[:(n // l) ** l]).all() and w.dtype == rows.dtype
        assert sorted(map(tuple, w.tolist())) == sorted(map(tuple, S._array.tolist()))
        assert (np.lexsort(w.T[::-1]) == np.arange(len(w))).all(), (n, l)


def _co_index_p_codes() -> list[QuasiCyclicCode]:
    """Seeded T^l-invariant codes at co-index p with l < p: three each at
    GF(2) (10, 2), (14, 2), (15, 3) and (21, 3) and GF(3) (15, 3), and the
    six GF(3) interleavings at (15, 3)."""
    rng = random.Random(31)
    return [_random_qc(rng, field, n, l) for field, n, l in
            ((GF2, 10, 2), (GF2, 14, 2), (GF2, 15, 3), (GF3, 15, 3), (GF2, 21, 3))
            for _ in range(3)] + _gf3_interleavings()


def test_qc_sylow_at_co_index_p_is_the_meet_with_w_of_the_ambient_group():
    # the oracle: the discovered group G (qc_ambient), cut by
    # sylow_through_shift; at co-index p, P = S_C is G meet W as an element
    # set, with the same generators, and it is Sylow in G
    for code in _co_index_p_codes():
        p, r = prime_power(code.co_index)
        assert r == 1 and code.index < p
        ambient = qc_ambient(code)
        reference = sylow_through_shift(ambient, code.index)
        P = qc_sylow(code)
        assert P.elements() == reference.elements(), code
        assert P.generators == reference.generators, code
        assert P.order() == p_part(ambient.order(), p), code


def test_qc_sylow_against_the_ambient_oracle():
    # the oracle builds the discovered group G with no bound on its chain
    # and cuts P out of it (qc_sylow_by_ambient).  At l < p, r >= 2
    # included, qc_sylow's S_C Y is G meet W as a group; at l > p, r = 1
    # and r >= 2, where Sylow p-subgroups through T^l need not be unique,
    # S_C Y has the order of the oracle's ascent
    rng = random.Random(39)
    shapes = [(GF2, 18, 2), (GF4, 18, 2), (GF2, 27, 1), (GF2, 50, 2), (GF2, 20, 4),
              (GF3, 12, 3), (GF2, 15, 5), (GF3, 20, 5), (GF3, 28, 7), (GF3, 6, 3), (GF2, 12, 4)]
    for field, n, l in shapes:
        p = prime_power(n // l)[0]
        for _ in range(3):
            code = _random_qc(rng, field, n, l)
            P, reference = qc_sylow(code), qc_sylow_by_ambient(code)
            if l < p:
                assert P == reference, code
            else:
                assert P.order() == reference.order(), code


def test_qc_sylow_at_co_index_p_builds_no_ambient_group(monkeypatch):
    # qc_sylow grows P from rows at a known order, S_C's and the affine
    # p-rows' that fix one class mod l (perm.affine_p_rows): at every
    # co-index, l < p and l > p, r = 1 and r >= 2, it runs no normalizer
    # ascent and lists no group, and P, through T^l, still comes out
    def refuse(*args):
        raise AssertionError("qc_sylow ran the ascent or listed a group")

    monkeypatch.setattr(perm.StabilizerChain, "products", refuse)
    monkeypatch.setattr(perm, "sylow_ascend", refuse)
    rng = random.Random(31)
    codes = _co_index_p_codes() + [_random_qc(rng, field, n, l) for field, n, l in
                                   ((GF2, 18, 2), (GF2, 27, 1), (GF4, 18, 2), (GF3, 6, 3),
                                    (GF2, 12, 4), (GF2, 15, 5), (GF3, 12, 3), (GF3, 20, 5),
                                    (GF3, 28, 7), (GF2, 63, 7))]
    for code in codes:
        assert Permutation.power_shift(code.n, code.index) in qc_sylow(code), code
    assert qc_sylow(REP_PAR).order() == 25


# --- golden values: the quasi-cyclic path -------------------------------------------

QC_GOLDEN = Path(__file__).parent / "qc_golden.json"


def _qc_catalogue() -> list[tuple[QuasiCyclicCode, Permutation]]:
    """31 seeded codes, each with a planted affine map x -> a x + b: three
    random T^l-invariant codes per shape of
    test_qc_sylow_matches_ascent_from_the_shift_power (l < p and l > p,
    r = 1 and r >= 2), four [I | circulant] codes at n = 10, l = 2, and the
    six interleavings of the GF(3) length-5 even-weight and repetition codes
    at n = 15, l = 3 that mix both."""
    rng = random.Random(26)
    codes = [_random_qc(rng, field, n, l) for field, n, l in
             ((GF2, 10, 2), (GF2, 14, 2), (GF2, 15, 3), (GF3, 6, 3), (GF3, 12, 3),
              (GF2, 12, 4), (GF2, 15, 5)) for _ in range(3)]
    rows = [v for v in product((0, 1), repeat=5) if len(set(v)) == 2]
    codes += [circulant_pair(v) for v in rng.sample(rows, 4)]
    codes += _gf3_interleavings()
    return [(c, Permutation.affine(c.n, rng.choice(units(c.n)), rng.randrange(c.n)))
            for c in codes]


def _gf3_interleavings() -> list[QuasiCyclicCode]:
    """The six interleavings at n = 15, l = 3 of the GF(3) length-5
    even-weight and repetition codes that use both."""
    even, rep = cyclic_code(5, GF3, {0}).linear, cyclic_code(5, GF3, {1, 2, 3, 4}).linear
    return [QuasiCyclicCode(_interleaving(parts), 3)
            for parts in product((even, rep), repeat=3) if len(set(parts)) == 2]


def _qc_golden_text() -> str:
    """Per code of the catalogue, one line: the code and the planted map,
    P's order and sorted generators, |H'(P)|, the imprimitivity_report
    JSON, and the STRUCTURED verdict against the planted image."""
    lines = []
    for code, tau in _qc_catalogue():
        P = qc_sylow(code)
        tl = Permutation.power_shift(code.n, code.index)
        image = QuasiCyclicCode(permute_code(code.linear, tau), code.index)
        verdict = qc_equivalence_search(code, image, "STRUCTURED")
        lines.append(json.dumps({
            "q": code.field.order, "n": code.n, "index": code.index,
            "rows": [list(r) for r in code.linear.matrix], "planted": list(tau.images),
            "p_order": P.order(),
            "p_generators": sorted(list(g.images) for g in P.generators),
            "h_prime": centralizer_order(tl) * len(conjugation_cosets(tl, P)),
            "report": imprimitivity_report(code).to_json(),
            "verdict": [verdict.status, verdict.complete, verdict.evidence,
                        None if verdict.witness is None else list(verdict.witness.images)],
        }, separators=(",", ":")))
    return "[\n" + ",\n".join(lines) + "\n]\n"


def test_qc_path_matches_the_golden_file():
    # regenerate with `PYTHONPATH=src python tests/test_quasicyclic.py` only
    # for a change meant to move a Sylow subgroup, a report or a verdict
    assert _qc_golden_text() == QC_GOLDEN.read_text()


def test_report_blocks_match_the_pair_closures(monkeypatch):
    # on the closure imprimitivity_report builds for each code of the golden
    # catalogue, the residue systems of minimal_blocks are those the
    # union-find closure of each pair {0, x} finds
    real, counts = quasicyclic.minimal_blocks, []

    def checked(group):
        systems = real(group)
        assert systems == minimal_blocks_by_closure(group), group.generators
        counts.append(len(systems))
        return systems

    monkeypatch.setattr(quasicyclic, "minimal_blocks", checked)
    for code, _ in _qc_catalogue():
        imprimitivity_report(code)
    assert len(counts) == 31 and any(counts)


# --- equivalence search -----------------------------------------------------------

def test_qc_equivalence_planted_affine():
    tau = Permutation.affine(10, 3, 4)
    other = QuasiCyclicCode(permute_code(REP_PAR.linear, tau), 2)
    verdict = qc_equivalence_search(REP_PAR, other, "STRUCTURED")
    assert verdict.status == "equivalent"
    # |P| = 25, the 5-part of 10!: the verdict is certified
    assert verdict.complete
    assert permute_code(REP_PAR.linear, verdict.witness) == other.linear


def test_qc_equivalence_self_brute():
    verdict = qc_equivalence_search(REP_PAR, REP_PAR, "BRUTE")
    assert verdict.status == "equivalent"
    assert verdict.complete
    assert verdict.witness.is_identity()


# l = 3 > p = 2: a GF(3) n = 6 pair of equal weight profiles that BRUTE
# proves inequivalent
_OPEN_PAIR = (
    QuasiCyclicCode(LinearCode.from_rows(GF3, 6, [
        [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 2, 0], [0, 0, 1, 0, 0, 1], [0, 0, 0, 1, 0, 0]]), 3),
    QuasiCyclicCode(LinearCode.from_rows(GF3, 6, [
        [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1], [0, 0, 0, 1, 0, 0]]), 3))


def test_structured_scans_h_prime_before_the_weight_profiles(monkeypatch):
    # a witness in H'(P) ends the decision before any weight profile is
    # enumerated; without one the profiles are still asked, and BRUTE
    # still takes them first
    def never(*args, **kwargs):
        raise AssertionError("weight_profile was called")

    monkeypatch.setattr(equivalence, "weight_profile", never)
    other = QuasiCyclicCode(permute_code(REP_PAR.linear, Permutation.affine(10, 3, 4)), 2)
    assert qc_equivalence_search(REP_PAR, other, "STRUCTURED").status == "equivalent"
    with pytest.raises(AssertionError, match="weight_profile"):
        qc_equivalence_search(REP_PAR, other, "BRUTE")
    with pytest.raises(AssertionError, match="weight_profile"):
        c1, c2 = circulant_pair((1, 1, 0, 0, 0)), circulant_pair((1, 0, 0, 0, 0))
        qc_equivalence_search(c1, c2, "STRUCTURED")


def test_structured_scan_first_gives_the_profiles_first_verdict():
    # on same-dimension pairs of the catalogue codes, their planted images
    # and the GF(3) n = 6 pair that H'(P) leaves open, the verdict is the
    # one of the profiles-first order, field by field; each of its three
    # outcomes occurs
    codes = [c for c, _ in _qc_catalogue()]
    codes += [QuasiCyclicCode(permute_code(c.linear, tau), c.index) for c, tau in _qc_catalogue()]
    codes += list(_OPEN_PAIR)
    outcomes = set()
    for c1 in codes:
        for c2 in codes:
            if (c1.n, c1.index, c1.field, c1.k) != (c2.n, c2.index, c2.field, c2.k):
                continue
            expected = equivalence.invariant_separation(c1, c2, "STRUCTURED") or \
                equivalence.restricted_set_verdict(c1, c2, qc_sylow(c1), c1.index,
                                                   "STRUCTURED", "the structured families")
            assert qc_equivalence_search(c1, c2, "STRUCTURED") == expected, (c1, c2)
            outcomes.add(expected.status)
    assert outcomes == {"equivalent", "inequivalent", "inconclusive"}


def test_qc_equivalence_profile_separation():
    c1 = circulant_pair((1, 1, 0, 0, 0))
    c2 = circulant_pair((1, 0, 0, 0, 0))
    assert weight_profile(c1.linear).counts != weight_profile(c2.linear).counts
    verdict = qc_equivalence_search(c1, c2, "STRUCTURED")
    assert verdict.status == "inequivalent"
    assert verdict.complete
    assert "profile" in verdict.evidence


def test_qc_equivalence_dimension_separation():
    narrow = QuasiCyclicCode(interleave(REP5, REP5), 2)    # k = 2
    verdict = qc_equivalence_search(narrow, REP_PAR, "BRUTE")
    assert verdict.status == "inequivalent"
    assert "dimensions differ" in verdict.evidence


def test_qc_equivalence_circulant_pair():
    c1 = circulant_pair((1, 1, 0, 0, 0))
    c2 = circulant_pair((1, 0, 1, 0, 0))
    structured = qc_equivalence_search(c1, c2, "STRUCTURED")
    # |P| = 5 is below 25, the 5-part of 10!
    assert structured.status == "equivalent" and not structured.complete
    brute = qc_equivalence_search(c1, c2, "BRUTE")
    assert brute.status == "equivalent" and brute.complete
    for v in (structured, brute):
        assert permute_code(c1.linear, v.witness) == c2.linear


def test_qc_equivalence_structured_finds_class_multiplier():
    # multiplier by 3 on the even class only: a witness inside H'(P) that
    # lies outside AG(n), the cycle group and N(P); the exact H'(P) has it
    ham = cyclic_code(7, GF2, {1, 2, 4}).linear
    mir = cyclic_code(7, GF2, {3, 6, 5}).linear
    c1 = QuasiCyclicCode(interleave(ham, ham), 2)
    c2 = QuasiCyclicCode(interleave(mir, ham), 2)
    images = list(range(14))
    for u in range(7):
        images[2 * u] = 2 * ((3 * u) % 7)
    tau = Permutation(tuple(images))
    assert permute_code(c1.linear, tau) == c2.linear
    assert hp_membership(tau, qc_sylow(c1), 2)
    verdict = qc_equivalence_search(c1, c2, "STRUCTURED")
    assert verdict.status == "equivalent"
    # |P| = 49, the 7-part of 14!: the verdict is certified
    assert verdict.complete
    assert permute_code(c1.linear, verdict.witness) == c2.linear
    assert hp_membership(verdict.witness, qc_sylow(c1), 2)


def _interleaving(parts: tuple[LinearCode, ...]) -> LinearCode:
    """The code with part j on the positions l i + j, l = len(parts)."""
    l, n = len(parts), len(parts) * parts[0].n
    rows = [[r[i // l] if i % l == j else 0 for i in range(n)]
            for j, part in enumerate(parts) for r in part.matrix]
    return LinearCode.from_rows(parts[0].field, n, rows)


def test_structured_certificates_agree_with_brute():
    # every interleaving of cyclic codes of length m = n/l and three seeded
    # T^l-invariant codes per shape, each against up to five later codes of
    # its dimension: a STRUCTURED verdict is complete exactly when |P| is
    # the p-part of n!, and every complete one is BRUTE's.  Each shape
    # certifies pairs that no invariant separation decides; at l = 3 > p = 2
    # this includes P of order 16 ascended past W, of order 8
    rng = random.Random(2010)
    for q, n, l in ((2, 6, 2), (4, 6, 2), (5, 6, 2), (2, 10, 2), (3, 10, 2),
                    (3, 6, 3), (5, 6, 3)):
        field = make_field(*prime_power(q))
        cyclic = [c.linear for c in enumerate_cyclic_codes(n // l, field)]
        codes = [QuasiCyclicCode(lin, l) for lin in map(_interleaving, product(cyclic, repeat=l))
                 if 0 < lin.k < n]
        codes += [_random_qc(rng, field, n, l) for _ in range(3)]
        full = p_part(factorial(n), prime_power(n // l)[0])
        certified = 0
        for i, c1 in enumerate(codes):
            for c2 in [c for c in codes[i + 1:] if c.k == c1.k][:5]:
                verdict = qc_equivalence_search(c1, c2, "STRUCTURED")
                if verdict.evidence == "weight profiles differ":
                    continue
                assert verdict.complete == (qc_sylow(c1).order() == full), (c1, c2)
                if verdict.complete:
                    assert verdict.status == brute_verdict(c1.linear, c2.linear).status, (c1, c2)
                    certified += 1
        assert certified, (q, n, l)


def test_structured_stays_incomplete_below_the_sylow_order():
    # the first code's discovered group gives |P| = 8, below 16, the 2-part
    # of 6!, so H'(P) certifies nothing; it finds no witness for the second
    c1, c2 = _OPEN_PAIR
    assert qc_sylow(c1).order() == 8 < p_part(factorial(6), 2)
    verdict = qc_equivalence_search(c1, c2, "STRUCTURED")
    assert (verdict.status, verdict.complete) == ("inconclusive", False)
    assert qc_equivalence_search(c1, c2, "BRUTE").status == "inequivalent"


@pytest.mark.parametrize("n,l,conclusion,p_order", [(65, 5, "IMPRIMITIVE", 13),
                                                    (21, 7, "ALTERNATING_OR_SYMMETRIC", 6561)])
def test_past_the_closure_bound_qc_answers_inconclusive(n, l, conclusion, p_order,
                                                         tmp_path, capsys):
    # D = {0}: at n = 65 Q = <sigma_i, T> has 13^5 * 5 elements and is not
    # listed; at n = 21 C(T^7) has 3^7 * 7! and H'(P) is not scanned
    code = cyclic_code(n, GF2, {0})
    path = tmp_path / "qc.json"
    path.write_text(json.dumps({**code_to_spec(code), "index": l}))
    assert cli.main(["qc", "--in", str(path)]) == 0      # imprimitivity_report
    report = json.loads(capsys.readouterr().out)["report"]
    assert (report["conclusion"], report["p_order"]) == (conclusion, p_order)
    qc = QuasiCyclicCode(code.linear, l)
    verdict = qc_equivalence_search(qc, qc)
    assert (verdict.status, verdict.complete, verdict.witness) == ("inconclusive", False, None)
    assert f"past CLOSURE_BOUND = {CLOSURE_BOUND}" in verdict.evidence


def test_qc_sylow_past_the_closure_bound_is_the_shift_power(tmp_path, capsys):
    # the GF(3) full space at n = 96, l = 3 (m = 32): S_C is all 32^3 rows
    # of S and AG_C has 2-part 2^10, so S_C Y would have order 2^20, past
    # CLOSURE_BOUND, and the report and the scan could not list it; P is
    # <T^3>, as when the discovered group passed the bound
    full = QuasiCyclicCode(full_space(GF3, 96), 3)
    tl = Permutation.power_shift(96, 3)
    assert qc_sylow(full) == PermGroup.from_generators(96, [tl])
    path = tmp_path / "qc.json"
    path.write_text(json.dumps({**code_to_spec(full.linear), "index": 3}))
    assert cli.main(["qc", "--in", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert (report["p_order"], report["discovered"]) == (32, 3_145_728)
    verdict = qc_equivalence_search(full, full)
    assert (verdict.status, verdict.complete) == ("equivalent", False)


def test_structured_scans_h_prime_of_the_shift_power_past_the_bound():
    # three copies of the binary [25,1] repetition code at n = 75, l = 3: P
    # has order 5^7, and H'(P)'s 150,000,000 coset leaders pass
    # CLOSURE_BOUND; H'(<T^3>), which lies in H'(P), is scanned instead and
    # holds the witness against the image under x -> -x + 1
    code = QuasiCyclicCode(_interleaving((cyclic_code(25, GF2, set(range(1, 25))).linear,) * 3), 3)
    image = QuasiCyclicCode(permute_code(code.linear, Permutation.affine(75, 74, 1)), 3)
    shift = PermGroup.from_generators(75, [Permutation.power_shift(75, 3)])
    assert qc_sylow(code).order() == 5 ** 7
    verdict = qc_equivalence_search(code, image)
    inner = equivalence.restricted_set_verdict(code, image, shift, 3, "STRUCTURED",
                                               "the structured families")
    assert (verdict.status, verdict.complete) == ("equivalent", False)
    assert verdict.witness == inner.witness
    assert permute_code(code.linear, verdict.witness) == image.linear
    assert verdict.evidence == (f"{inner.evidence} (a subgroup of the P of Sylow exponent 7, "
                                f"whose H'(P) passes CLOSURE_BOUND)")


def test_qc_equivalence_hypothesis_errors():
    full = QuasiCyclicCode(full_space(GF2, 10), 5)
    with pytest.raises(ValueError, match="field order"):
        qc_equivalence_search(full, full)        # m = 2 shares p with q = 2
    full25 = QuasiCyclicCode(full_space(GF3, 25), 5)
    with pytest.raises(ValueError, match="gcd"):
        qc_equivalence_search(full25, full25)    # m = 5 shares p with l = 5
    full12 = QuasiCyclicCode(full_space(GF2, 12), 2)
    with pytest.raises(ValueError, match=r"co-index n/l = 12/2 = 6 is not a prime power; "
                       r"H'\(P\) needs n = l p\^r with r >= 1"):
        qc_equivalence_search(full12, full12)    # m = 6 is not a prime power


def test_qc_equivalence_validation():
    with pytest.raises(ValueError, match="strategy"):
        qc_equivalence_search(REP_PAR, REP_PAR, "SAT")
    with pytest.raises(ValueError, match="length"):
        other = QuasiCyclicCode(interleave(cyclic_code(7, GF2, {1, 2, 4}).linear,
                                           cyclic_code(7, GF2, {1, 2, 4}).linear), 2)
        qc_equivalence_search(REP_PAR, other)
    with pytest.raises(ValueError, match="index"):
        qc_equivalence_search(REP_PAR, QuasiCyclicCode(REP_PAR.linear, 10))
    with pytest.raises(ValueError, match="field"):
        rep3 = cyclic_code(5, GF3, {1, 2, 3, 4}).linear
        par3 = cyclic_code(5, GF3, {0}).linear
        qc_equivalence_search(REP_PAR, QuasiCyclicCode(interleave(rep3, par3), 2))


# --- imprimitivity reports --------------------------------------------------------

def _report_cache():
    if not hasattr(_report_cache, "value"):
        codes = {
            "rep_par": REP_PAR,
            "circ_a": circulant_pair((1, 1, 0, 0, 0)),
            "circ_b": circulant_pair((1, 1, 1, 0, 0)),
            "trivial": QuasiCyclicCode(full_space(GF2, 10), 2),
        }
        _report_cache.value = {k: imprimitivity_report(c) for k, c in codes.items()}
    return _report_cache.value


def test_report_interleaved_rep_par():
    rep = _report_cache()["rep_par"]
    assert rep.p_order == 25
    assert rep.exhaustive
    assert rep.discovered == 800
    assert rep.closure_order == 800
    assert rep.conclusion == "IMPRIMITIVE"
    blocks = {frozenset(b) for bs in rep.block_systems for b in bs.blocks}
    assert frozenset({0, 2, 4, 6, 8}) in blocks      # the residue classes mod 2
    assert frozenset({1, 3, 5, 7, 9}) in blocks


def test_report_three_nontrivial_codes_imprimitive():
    reports = _report_cache()
    residues = {frozenset(range(0, 10, 2)), frozenset(range(1, 10, 2))}
    for key in ("rep_par", "circ_a", "circ_b"):
        rep = reports[key]
        assert rep.conclusion == "IMPRIMITIVE"
        assert rep.exhaustive
        systems = [{frozenset(b) for b in bs.blocks} for bs in rep.block_systems]
        assert residues in systems


def test_report_trivial_code_stays_imprimitive():
    # H'(P) for the full space is every sigma with sigma^-1 T^2 sigma of
    # type (5,5) inside P: 16 targets times the 50-element centralizer of
    # T^2 gives 800 members, and their closure is the normalizer of P, not
    # the full symmetric group
    rep = _report_cache()["trivial"]
    assert rep.discovered == 800
    assert rep.exhaustive
    assert rep.closure_order == 800
    assert rep.conclusion == "IMPRIMITIVE"


def test_report_williamson_and_parity_fields():
    rep = _report_cache()["rep_par"]
    assert rep.cycle_length == 5
    assert rep.williamson_bound == 120       # (10 - 5)!
    assert rep.shift_is_odd                   # a 10-cycle is odd
    assert rep.n == 10 and rep.index == 2


def test_report_exhaustive_above_brute_bound():
    cyc = cyclic_code(15, GF2, {1, 2, 4, 8}).linear
    code = QuasiCyclicCode(cyc, 3)
    rep = imprimitivity_report(code)
    assert rep.exhaustive                     # counted exactly past n = 10
    t3 = Permutation.power_shift(15, 3)
    cosets = conjugation_cosets(t3, qc_sylow(code))
    assert rep.discovered == centralizer_order(t3) * len(cosets)
    assert rep.discovered == 750 * 4          # |C(T^3)| = 5^3 * 3!
    assert not rep.shift_is_odd               # a 15-cycle is even
    assert rep.cycle_length == 5
    assert rep.conclusion in ("IMPRIMITIVE", "UNRESOLVED")


def test_report_json_shape():
    data = _report_cache()["rep_par"].to_json()
    assert set(data) == {
        "n", "index", "p_order", "discovered", "exhaustive", "closure_order",
        "block_systems", "primitive", "cycle_length", "williamson_bound",
        "shift_is_odd", "conclusion",
    }
    assert data["block_systems"] and isinstance(data["block_systems"][0][0], list)


def test_structured_witness_is_the_first_member_in_sorted_order():
    # the oracle: the first member of H'(P), in sorted order of images, that
    # permute_code confirms; planted affine images at n = 10 and n = 15
    rng = random.Random(2010)
    rep, even = cyclic_code(5, GF3, {1, 2, 3, 4}).linear, cyclic_code(5, GF3, {0}).linear
    codes = [circulant_pair(v) for v in ((1, 1, 0, 0, 0), (1, 0, 1, 1, 0), (0, 1, 1, 1, 1))]
    for parts in ((rep, even, even), (even, rep, rep), (rep, rep, even)):
        # part j on the positions 3i + j
        rows = [[r[i // 3] if i % 3 == j else 0 for i in range(15)]
                for j, part in enumerate(parts) for r in part.matrix]
        codes.append(QuasiCyclicCode(LinearCode.from_rows(GF3, 15, rows), 3))
    for c1 in codes:
        n, l = c1.n, c1.index
        a = rng.choice([a for a in range(1, n) if gcd(a, n) == 1])
        tau = Permutation.affine(n, a, rng.randrange(n))
        c2 = QuasiCyclicCode(permute_code(c1.linear, tau), l)
        verdict = qc_equivalence_search(c1, c2, "STRUCTURED")
        members = sorted(conjugation_set(Permutation.power_shift(n, l), qc_sylow(c1)),
                         key=lambda s: s.images)
        oracle = next((s for s in members if permute_code(c1.linear, s) == c2.linear), None)
        assert verdict.witness == oracle, (c1, tau)


def test_decisions_list_groups_only_as_image_rows(monkeypatch):
    # no element set of a group is built on the way to a decision or a
    # report: PermGroup.elements and the conversion of rows to a set of
    # Permutations raise, and every call still returns
    def never(*args):
        raise AssertionError("an element set was listed")

    monkeypatch.setattr(PermGroup, "elements", never)
    monkeypatch.setattr(perm, "_as_perms", never)
    for n, ds in ((9, {0, 3, 6}), (27, {0, 3, 6, 12, 24, 21, 15})):
        c1 = cyclic_code(n, GF2, ds)
        c2 = cyclic_code(n, GF2, {5 * i % n for i in ds})
        assert decide_equivalence(c1, c2, "HP").status == "equivalent"
    rep, even = cyclic_code(5, GF3, {1, 2, 3, 4}).linear, cyclic_code(5, GF3, {0}).linear
    rows = [[r[i // 3] if i % 3 == j else 0 for i in range(15)]
            for j, part in enumerate((rep, even, even)) for r in part.matrix]
    for c1 in (circulant_pair((1, 1, 0, 0, 0)),
               QuasiCyclicCode(LinearCode.from_rows(GF3, 15, rows), 3)):
        imprimitivity_report(c1)
        tau = Permutation.affine(c1.n, 7, 3)
        c2 = QuasiCyclicCode(permute_code(c1.linear, tau), c1.index)
        assert qc_equivalence_search(c1, c2).status == "equivalent"
    analyze(cyclic_code(9, make_field(2, 2), {1, 2, 4, 5, 7, 8}))


def test_decisions_scan_only_coset_leaders(monkeypatch):
    # HP and STRUCTURED scan one member per coset of <T^l>, never the full
    # conjugation set: perm.conjugation_rows raises and every decision
    # still returns its witness
    def never(*args):
        raise AssertionError("a full conjugation set was listed")

    for mod in (perm, equivalence, quasicyclic):
        if hasattr(mod, "conjugation_rows"):
            monkeypatch.setattr(mod, "conjugation_rows", never)
    for q, n, ds in ((2, 9, {0, 3, 6}), (2, 27, {0, 3, 6, 12, 24, 21, 15}), (3, 16, {1, 3, 9, 11})):
        c1 = cyclic_code(n, make_field(q), ds)
        c2 = cyclic_code(n, c1.field, {5 * i % n for i in ds})
        verdict = decide_equivalence(c1, c2, "HP")
        assert permute_code(c1.linear, verdict.witness) == c2.linear
    rep, even = cyclic_code(5, GF3, {1, 2, 3, 4}).linear, cyclic_code(5, GF3, {0}).linear
    rows = [[r[i // 3] if i % 3 == j else 0 for i in range(15)]
            for j, part in enumerate((rep, even, even)) for r in part.matrix]
    for c1 in (circulant_pair((1, 1, 0, 0, 0)),
               QuasiCyclicCode(LinearCode.from_rows(GF3, 15, rows), 3)):
        tau = Permutation.affine(c1.n, 7, 3)
        c2 = QuasiCyclicCode(permute_code(c1.linear, tau), c1.index)
        verdict = qc_equivalence_search(c1, c2)
        assert permute_code(c1.linear, verdict.witness) == c2.linear


if __name__ == "__main__":
    QC_GOLDEN.write_text(_qc_golden_text())
