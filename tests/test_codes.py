import dataclasses
import itertools
import json
import random
from collections import Counter
from functools import lru_cache
from math import comb, gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cycperm import codes
from cycperm.algebra import Polynomial, make_field, poly_mod, prime_power, x_pow_minus_one
from cycperm.codes import (
    CyclicCode,
    LinearCode,
    code_from_spec,
    code_to_spec,
    count_cyclic_codes,
    cyclic_code,
    cyclic_defining_set,
    cyclotomic_cosets,
    enumerate_cyclic_codes,
    fixed_by,
    is_elementary,
    is_mds,
    is_shift_invariant,
    maps_onto,
    min_distance,
    permute_code,
    reencodes_onto,
    rref,
    weight_profile,
)
from cycperm.codes import _eliminate, _level_weight, _level_words, _rank_step
from cycperm.perm import Permutation
from cycperm.verification import BATTERY_DISTANCE_BUDGET
from oracles import (
    codeword_chunks,
    enumerated_distance,
    enumerated_profile,
    idempotent_by_euclid,
    level_weight_by_position,
    parity_check_by_loop,
)

GF2 = make_field(2)
GF3 = make_field(3)
GF4 = make_field(2, 2)
GF8 = make_field(2, 3)
GF9 = make_field(3, 2)
GF11 = make_field(11)
GF13 = make_field(13)

HAMMING7 = cyclic_code(7, GF2, {1, 2, 4})
GOLAY3 = cyclic_code(11, GF3, {1, 3, 4, 5, 9})


def test_cyclotomic_cosets_examples():
    assert cyclotomic_cosets(7, 2) == [(0,), (1, 2, 4), (3, 5, 6)]
    assert cyclotomic_cosets(5, 11) == [(0,), (1,), (2,), (3,), (4,)]
    assert sorted(len(c) for c in cyclotomic_cosets(49, 2)) == [1, 3, 3, 21, 21]
    with pytest.raises(ValueError):
        cyclotomic_cosets(8, 2)


def test_rref_canonical_and_unique():
    F = GF13
    rows = [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0]]
    R = rref(rows, F)
    assert len(R) == 2
    # re-reducing shuffled random combinations gives the same canonical form
    rng = random.Random(5)
    base = [list(r) for r in R]
    for _ in range(100):
        mixed = []
        for _ in range(4):
            w = [0] * 4
            for row in base:
                c = rng.randrange(13)
                w = [(a + c * b) % 13 for a, b in zip(w, row)]
            mixed.append(w)
        assert rref(mixed, F) in (R, rref(mixed, F))
        if len(rref(mixed, F)) == 2:
            assert rref(mixed, F) == R


def _python_rref(rows, field):
    """The reference RREF: Gauss-Jordan with one scalar Field call per
    entry, pivot column by pivot column, swapping the pivot row up."""
    M = [list(r) for r in rows]
    if not M:
        return ()
    ncols = len(M[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = field.inv(M[r][c])
        M[r] = [field.mul(inv, v) for v in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [field.sub(M[i][j], field.mul(f, M[r][j])) for j in range(ncols)]
        r += 1
        if r == len(M):
            break
    return tuple(tuple(row) for row in M[:r] if any(row))


def _combination(field, rng, rows):
    """A random linear combination of `rows` over `field`."""
    out = [0] * len(rows[0])
    for row in rows:
        c = rng.randrange(field.order)
        out = [field.add(a, field.mul(c, b)) for a, b in zip(out, row)]
    return out


@pytest.mark.parametrize("field", [GF2, GF3, GF4, make_field(5), GF8, GF9, GF11, GF13,
                                   make_field(257), make_field(65537)], ids=repr)
def test_rref_matches_python_oracle(field):
    # rref's one pass scales a row only when its lead is not 1: over every
    # field but GF(2) some drawn rows have leads other than 1
    rng = random.Random(field.order)
    q = field.order
    assert rref([], field) == _python_rref([], field) == ()
    leads = Counter()
    # a single row, square, wide, and more rows than columns
    for r, c in [(1, 6), (4, 4), (5, 9), (9, 4), (7, 12)]:
        for _ in range(8):
            sparse = rng.random() < 0.5
            rows = [[rng.randrange(q) if not sparse or rng.random() < 0.3 else 0
                     for _ in range(c)] for _ in range(r)]
            if r > 1:
                rows[rng.randrange(r)] = [0] * c                    # a zero row
                rows[rng.randrange(r)] = list(rows[rng.randrange(r)])   # a repeated row
            if r > 2:
                rows[-1] = _combination(field, rng, rows[:2])      # a dependent row
            assert rref(rows, field) == _python_rref(rows, field), rows
            leads.update(next((v for v in row if v), 0) for row in rows)
    assert leads[0] and (q == 2 or set(leads) - {0, 1})


@pytest.mark.parametrize("code", [
    cyclic_code(37, GF11, cyclotomic_cosets(37, 11)[1]),
    cyclic_code(37, GF11, set(cyclotomic_cosets(37, 11)[0] + cyclotomic_cosets(37, 11)[2])),
    cyclic_code(21, GF4, cyclotomic_cosets(21, 4)[1]),
    cyclic_code(21, GF4, set(cyclotomic_cosets(21, 4)[2] + cyclotomic_cosets(21, 4)[4])),
], ids=["gf11-n37-k31", "gf11-n37-k30", "gf4-n21-k18", "gf4-n21-k15"])
def test_rref_of_permuted_generators_matches_python_oracle(code):
    lin, n = code.linear, code.n
    rng = random.Random(n)
    batch = []
    for _ in range(4):
        images = list(range(n))
        rng.shuffle(images)
        rows = [[row[images[i]] for i in range(n)] for row in lin.matrix]
        assert rref(rows, lin.field) == _python_rref(rows, lin.field)
        assert permute_code(lin, Permutation(tuple(images)).inverse()).matrix == rref(rows, lin.field)
        batch.append(rows)
    # a batch of B gives the same pivots and reduced rows as B single calls
    R, pivots = _eliminate(np.array(batch), lin.field)
    for b, rows in enumerate(batch):
        R1, pivots1 = _eliminate(np.array(rows)[None], lin.field)
        assert (pivots[b] == pivots1[0]).all() and (R[b] == R1[0]).all()
        assert tuple(sorted(pivots[b])) == LinearCode(lin.field, n, rref(rows, lin.field)).pivots


def test_from_rows_rejects_bad_input():
    rows = [[1, 0, 2], [0, 1, 1]]
    assert LinearCode.from_rows(GF3, 3, rows).matrix == ((1, 0, 2), (0, 1, 1))
    bad = [
        [[1, 0, 2], [0, 1]],            # wrong row length
        [[1, 0, 3], [0, 1, 1]],         # entry >= q
        [[1, 0, -1], [0, 1, 1]],        # negative entry
        [[1, 0, 2.0], [0, 1, 1]],       # non-int entries
        [[1, 0, "2"], [0, 1, 1]],
        [[1, 0, None], [0, 1, 1]],
        [[1, 0, 2 ** 70], [0, 1, 1]],
    ]
    for rows in bad:
        with pytest.raises(ValueError):
            LinearCode.from_rows(GF3, 3, rows)
    with pytest.raises(ValueError):
        LinearCode.from_rows(GF4, 2, [[1, 4]])


def test_cyclic_code_construction():
    assert HAMMING7.k == 4
    assert HAMMING7.generator_poly.coeffs == (1, 1, 0, 1)
    assert is_shift_invariant(HAMMING7.linear)
    full = cyclic_code(7, GF2, set())
    assert full.k == 7
    rep = cyclic_code(7, GF2, set(range(1, 7)))
    assert rep.k == 1
    assert rep.linear.matrix == ((1,) * 7,)


def test_non_positive_lengths_are_rejected():
    # cyclotomic_cosets(-5, 2) was [], so CyclicCode(GF(2), -5, {}) had
    # k = -5 and enumerate_cyclic_codes(-5, GF(2)) listed it
    for n in (0, -5):
        with pytest.raises(ValueError, match="n >= 1"):
            cyclotomic_cosets(n, 2)
        with pytest.raises(ValueError, match="n >= 1"):
            codes.cyclotomic_coset(n, 2, 1)
        with pytest.raises(ValueError, match="n >= 1"):
            CyclicCode(GF2, n, frozenset())
        with pytest.raises(ValueError, match="n >= 1"):
            enumerate_cyclic_codes(n, GF2)


def test_cyclic_code_rejects_non_closed_set():
    with pytest.raises(ValueError, match="Frobenius"):
        cyclic_code(7, GF2, {1, 2})


def test_enumerate_and_count():
    codes = enumerate_cyclic_codes(5, GF11)
    assert len(codes) == 32 == count_cyclic_codes(5, GF11)
    assert len(enumerate_cyclic_codes(5, GF13)) == 4
    assert len(enumerate_cyclic_codes(7, GF2)) == 8
    assert len({c.defining_set for c in codes}) == 32


def test_enumerated_codes_all_elementary_at_13_5():
    codes = enumerate_cyclic_codes(5, GF13)
    assert all(is_elementary(c.linear) for c in codes)


def test_shift_invariance_of_all_enumerated():
    T9 = Permutation.shift(9)
    for c in enumerate_cyclic_codes(9, GF2):
        assert permute_code(c.linear, T9) == c.linear


def test_permute_code_convention():
    # column i of the image is column sigma^-1(i) of the source
    code = LinearCode.from_rows(GF2, 4, [[1, 1, 0, 0]])
    sigma = Permutation((1, 2, 3, 0))   # i -> i+1
    assert permute_code(code, sigma).matrix == ((0, 1, 1, 0),)


def test_permute_code_action_axiom():
    rng = random.Random(11)
    code = GOLAY3.linear
    for _ in range(20):
        s = list(range(11))
        rng.shuffle(s)
        t = list(range(11))
        rng.shuffle(t)
        sigma, tau = Permutation(tuple(s)), Permutation(tuple(t))
        lhs = permute_code(permute_code(code, sigma), tau)
        rhs = permute_code(code, tau * sigma)
        assert lhs == rhs


@pytest.mark.parametrize("field, n", [(GF2, 15), (GF3, 13), (GF4, 9), (GF8, 7), (GF9, 10)])
def test_maps_onto_agrees_with_permute_code(field, n):
    rng = random.Random(field.order * 100 + n)
    codes = [c.linear for c in enumerate_cyclic_codes(n, field)]
    affine = [Permutation.affine(n, a, b) for a in range(1, n) if gcd(a, n) == 1
              for b in range(n)]

    def random_code(k):
        rows = [[rng.randrange(field.order) for _ in range(n)] for _ in range(k)]
        return LinearCode.from_rows(field, n, rows)

    zero = random_code(0)
    full = LinearCode.from_rows(field, n, [[int(i == j) for j in range(n)] for i in range(n)])
    pairs = [(zero, zero), (full, full), (zero, full), (full, codes[0])]
    for _ in range(3):
        c1 = rng.choice(codes)
        pairs += [(c1, c1), (c1, permute_code(c1, rng.choice(affine))),
                  (c1, random_code(c1.k)), (c1, random_code(rng.randrange(n + 1)))]
    for c1, c2 in pairs:
        shuffled = [Permutation(tuple(rng.sample(range(n), n))) for _ in range(8)]
        sigmas = shuffled + affine
        mask = maps_onto(c1, c2, [g.images for g in sigmas])
        assert mask.tolist() == [permute_code(c1, g) == c2 for g in sigmas]
        # the re-encoding check, which reads no parity check, decides the same
        assert reencodes_onto(c1, c2, sigmas).tolist() == mask.tolist()
        for i, g in enumerate(shuffled):
            assert maps_onto(c1, c2, [g.images])[0] == mask[i]


def test_maps_onto_empty_batch():
    # like fixed_by, an empty batch, as a list or a (0, n) array, gives an
    # empty mask
    lin = HAMMING7.linear
    for empty in ([], np.zeros((0, 7), dtype=np.int64)):
        out = maps_onto(lin, lin, empty)
        assert out.dtype == bool and out.shape == (0,)
    assert fixed_by(lin, []).shape == (0,)
    assert reencodes_onto(lin, lin, []).shape == (0,)
    with pytest.raises(ValueError):
        reencodes_onto(lin, lin, [Permutation.identity(6)])


@pytest.mark.parametrize("field, n", [(GF2, 15), (GF3, 13), (GF4, 9), (GF8, 7), (GF11, 10)])
def test_stacked_product_agrees_with_permute_code(field, n):
    # seeded batches just below, at and just above codes._STACKED_ENTRIES
    # (the last one takes the survivor reduction, its prefix the stacked
    # product), drawn from a pool of 30 random permutations and 30 affine
    # maps, so that some rows map c1 onto c2; pairs with k = 0, k = n and
    # k1 != k2
    rng = random.Random(field.order * 1000 + n)
    s = field.degree
    cyclic = enumerate_cyclic_codes(n, field)
    affine = [Permutation.affine(n, a, b).images for a in range(1, n) if gcd(a, n) == 1
              for b in range(n)]
    zero = LinearCode.from_rows(field, n, [])
    full = LinearCode.from_rows(field, n, [[int(i == j) for j in range(n)] for i in range(n)])
    pairs = [(zero, zero), (full, full), (zero, full)]
    for _ in range(3):
        c = rng.choice([c for c in cyclic if 0 < c.k < n]).linear
        other = rng.choice([d.linear for d in cyclic if d.k != c.k])
        pairs += [(c, c), (c, permute_code(c, Permutation(rng.choice(affine)))), (c, other)]
    seen = Counter()
    for c1, c2 in pairs:
        per_row = n * s * (n - c2.k) * s
        at = codes._STACKED_ENTRIES // per_row if per_row else 40
        for size in (max(1, at // 3), at, at + 1):
            pool = rng.sample(affine, 30) + [rng.sample(range(n), n) for _ in range(30)]
            rows = np.array([rng.choice(pool) for _ in range(size)])
            mask = maps_onto(c1, c2, rows).tolist()
            sigmas = [Permutation(tuple(r)) for r in rows.tolist()]
            expected = {g: permute_code(c1, g) == c2 for g in set(sigmas)}
            assert mask == [expected[g] for g in sigmas]
            if c1 is c2:
                assert fixed_by(c1, sigmas).tolist() == mask
            seen[any(mask), all(mask)] += 1
        if per_row:
            assert at * per_row <= codes._STACKED_ENTRIES < (at + 1) * per_row
    assert seen[True, True] and seen[True, False] and seen[False, False]


def test_cyclic_rref_in_closed_form():
    # CyclicCode.linear writes its RREF in closed form (pivots 0..k-1, row i
    # e_i then -(x^(n-k+i) mod g)); it is the RREF of the k shifts of g
    for field, n in [(GF2, 7), (GF2, 9), (GF2, 15), (GF2, 27), (GF3, 8), (GF3, 13), (GF4, 9),
                     (make_field(5), 6), (GF8, 7), (GF11, 19)]:
        for code in enumerate_cyclic_codes(n, field):
            g, k = code.generator_poly.coeffs, code.k
            shifts = np.zeros((k, n), dtype=np.int64)
            for i in range(k):
                shifts[i, i:i + len(g)] = g
            assert code.linear.matrix == rref(shifts, field), code
            assert code.linear.pivots == tuple(range(k))


@pytest.mark.parametrize("field, n", [(GF4, 5), (GF8, 7), (GF9, 4)])
def test_codeword_chunks_match_product_reference(field, n):
    rng = random.Random(n)
    small = [c.linear for c in enumerate_cyclic_codes(n, field) if field.order ** c.k <= 600]
    rows = [[rng.randrange(field.order) for _ in range(n)] for _ in range(3)]
    for code in rng.sample(small, 5) + [LinearCode.from_rows(field, n, rows)]:
        got = Counter(tuple(w.tolist()) for block in codeword_chunks(code, chunk=100)
                      for w in block)
        want = Counter()
        for msg in itertools.product(field.elements(), repeat=code.k):
            word = [0] * n
            for coef, row in zip(msg, code.matrix):
                word = [field.add(w, field.mul(coef, r)) for w, r in zip(word, row)]
            want[tuple(word)] += 1
        assert got == want


def test_dual_formula_matches_kernel():
    for c in enumerate_cyclic_codes(9, GF2) + enumerate_cyclic_codes(7, GF2):
        d = c.dual()
        assert d.linear == c.linear.dual()
        assert c.k + d.k == c.n
        n = c.n
        assert d.defining_set == frozenset(set(range(n)) - {(-i) % n for i in c.defining_set})


def test_dual_involution():
    for c in enumerate_cyclic_codes(15, GF2):
        assert c.dual().dual() == c
    assert GOLAY3.linear.dual().dual() == GOLAY3.linear


def test_dual_hamming_is_simplex():
    d = HAMMING7.dual()
    assert d.k == 3
    assert min_distance(d.linear).value == 4


def test_idempotent_examples():
    e = HAMMING7.idempotent
    assert e.coeffs == (0, 1, 1, 0, 1)           # x + x^2 + x^4
    assert cyclic_code(7, GF2, set()).idempotent.coeffs == (1,)
    rep = cyclic_code(5, GF11, set(range(1, 5)))
    e = rep.idempotent
    assert e.coeffs == (9, 9, 9, 9, 9)
    assert cyclic_code(7, GF2, set(range(7))).idempotent.is_zero()


def test_idempotent_is_computed_once_per_code():
    # a cached property of the code: gk_family asks for it once per k
    c = cyclic_code(27, GF2, {0, 3, 6, 12, 24, 21, 15})
    assert c.idempotent is c.idempotent
    assert cyclic_code(27, GF2, {0, 3, 6, 12, 24, 21, 15}).idempotent == c.idempotent


def test_idempotent_law_all_small_codes():
    for q, F, n in [(2, GF2, 9), (2, GF2, 7), (3, GF3, 11), (2, GF2, 15)]:
        for c in enumerate_cyclic_codes(n, F):
            if c.k == 0:
                continue
            e = c.idempotent
            xn1 = x_pow_minus_one(F, n)
            assert poly_mod(e * e, xn1).coeffs == e.coeffs
            # shifts of e span the code
            vec = list(e.coeffs) + [0] * (n - len(e.coeffs))
            rows = [vec[-s:] + vec[:-s] for s in range(n)]
            assert LinearCode.from_rows(F, n, rows) == c.linear


def test_idempotent_is_the_euclid_crt():
    # the inverse transform gives the idempotent the extended Euclid gives,
    # on every cyclic code of these lengths and fields, the zero code and
    # the whole space included
    codes_seen = 0
    for q, n in ((2, 7), (2, 9), (2, 15), (2, 21), (3, 8), (3, 13), (4, 9), (4, 15),
                 (5, 12), (8, 9)):
        for c in enumerate_cyclic_codes(n, make_field(*prime_power(q))):
            assert c.idempotent == idempotent_by_euclid(c), c
            codes_seen += 1
    assert codes_seen == 1008


def test_idempotent_law_failure_raises(monkeypatch):
    # coefficients brought down wrongly to all ones: over GF(3) at n = 8,
    # J = 1 + x + ... + x^7 has J^2 = 8 J = 2 J != J, and the law check
    # raises
    real = codes.root_system
    monkeypatch.setattr(codes, "root_system",
                        lambda F, n: dataclasses.replace(real(F, n), lift=lambda v: 1))
    with pytest.raises(RuntimeError, match="idempotent law failed"):
        cyclic_code(8, GF3, {1, 3}).idempotent


@pytest.mark.parametrize("field", [GF2, GF3, GF4, GF8], ids=repr)
def test_parity_check_is_the_row_by_row_build(field):
    # H[:, free] = I and H[:, pivots] = -G[:, free]^T, as the row-by-row
    # build makes it, read-only int64, from k = 0 to k = n
    rng = random.Random(field.order)
    for n in (1, 5, 9):
        codes = [LinearCode.from_rows(field, n, []), LinearCode.from_rows(field, n, np.eye(n, dtype=int))]
        for _ in range(6):
            rows = [[rng.randrange(field.order) for _ in range(n)] for _ in range(rng.randint(1, n))]
            codes.append(LinearCode.from_rows(field, n, rows))
        for code in codes:
            H = code.parity_check
            assert H.dtype == np.int64 and not H.flags.writeable
            assert H.shape == (n - code.k, n)
            assert np.array_equal(H, parity_check_by_loop(code)), code


def test_is_elementary():
    assert is_elementary(cyclic_code(9, GF2, set()).linear)
    assert is_elementary(cyclic_code(9, GF2, {0}).linear)
    assert is_elementary(cyclic_code(9, GF2, set(range(1, 9))).linear)
    assert is_elementary(cyclic_code(9, GF2, set(range(9))).linear)
    assert not is_elementary(HAMMING7.linear)
    assert not is_elementary(cyclic_code(9, GF2, {3, 6}).linear)
    # at k = n - 1 the RREF is compared with the sum-zero code's rows
    # e_i - e_(n-1), which is the code built from them
    seen = 0
    for field, n in ((GF2, 9), (GF3, 8), (GF4, 9), (make_field(5), 6), (GF13, 12)):
        rows = [[1 if j == i else (field.neg(1) if j == n - 1 else 0) for j in range(n)]
                for i in range(n - 1)]
        sum_zero = LinearCode.from_rows(field, n, rows)
        for c in enumerate_cyclic_codes(n, field):
            if c.k == n - 1:
                assert is_elementary(c.linear) == (c.linear == sum_zero), c
                seen += c.linear != sum_zero
    assert seen


def test_weight_profile_hamming():
    wp = weight_profile(HAMMING7.linear)
    assert wp.exact
    assert wp.counts == (1, 0, 0, 7, 7, 0, 0, 1)
    assert sum(wp.counts) == 2 ** 4
    assert wp.min_weight == 3


def test_weight_profile_budget():
    # the binary Golay [23,12] code: 2^12 words and a dual of 2^11, both
    # past the budget, so neither side is enumerated
    golay = cyclic_code(23, GF2, {1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18})
    with pytest.raises(ValueError, match="2048 enumerations"):
        weight_profile(golay.linear, budget=1000)


def test_weight_profile_by_macwilliams_matches_enumeration():
    # 88 codes; the 39 with n - k < k take the dual's profile and transform it
    through_dual = 0
    for spec, n in (((2, 1), 15), ((3, 1), 8), ((2, 2), 7), ((5, 1), 6)):
        for code in enumerate_cyclic_codes(n, make_field(*spec)):
            through_dual += code.n - code.k < code.k
            assert weight_profile(code.linear).counts == enumerated_profile(code.linear), code
    assert through_dual == 39


def test_weight_profile_enumerates_the_smaller_side(monkeypatch):
    # the [25,24] even-weight code has 2^24 words and a [25,1] dual: the
    # profile walks the dual's one Z-level, and the code's are never built
    code = cyclic_code(25, GF2, {0}).linear
    walked = []
    blocks = codes._level_blocks
    monkeypatch.setattr(codes, "_level_blocks",
                        lambda side, t: walked.append((side.k, t)) or blocks(side, t))
    wp = weight_profile(code, budget=2)
    assert walked == [(1, 1)]
    assert wp.counts == tuple(comb(25, w) if w % 2 == 0 else 0 for w in range(26))


# --- minimum distance: frozen oracle values ----------------------------------

def test_min_distance_trivial_codes():
    assert min_distance(cyclic_code(7, GF2, set()).linear).value == 1
    assert min_distance(cyclic_code(5, GF11, set(range(1, 5))).linear).value == 5
    z = min_distance(cyclic_code(7, GF2, set(range(7))).linear)
    assert z.exact and z.lower == 0


def test_min_distance_small_enumeration():
    assert min_distance(HAMMING7.linear).value == 3
    assert min_distance(GOLAY3.linear).value == 5


def test_min_distance_binary_golay():
    # [23,12,7] at the default budget: the levels or the rank steps certify it
    golay = cyclic_code(23, GF2, {1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18})
    assert golay.k == 12
    d = min_distance(golay.linear)
    assert d.exact and d.value == 7


def test_min_distance_interval_when_budget_tiny():
    code = cyclic_code(23, GF2, {1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18})
    r = min_distance(code.linear, budget=30)
    assert not r.exact
    assert r.lower <= 7 <= r.upper


# (field, n) pairs whose cyclic codes with q^k <= 2^16 the exact route is
# checked on against exhaustive enumeration (the GF(11) n = 19 codes include
# the [19,3,16] codes of the pinned erratum)
ORACLE_CASES = [(GF2, 15), (GF2, 21), (GF2, 23), (GF3, 11), (GF3, 13),
                (GF4, 9), (GF4, 13), (make_field(5), 8), (make_field(5), 12),
                (GF11, 19)]


def _swap01(n: int) -> Permutation:
    """The transposition (0 1): not affine for n >= 4, so a cyclic code it
    moves is no longer shift-invariant."""
    return Permutation((1, 0) + tuple(range(2, n)))


@pytest.mark.parametrize("field, n", [(GF3, 8), (GF4, 9)])
def test_fixed_by_agrees_with_permute_code(field, n):
    # every cyclic code, the zero code (k = 0) and the full space (k = n)
    # among them, its image under (0 1), which is not shift-invariant, and
    # its image under a random permutation, whose pivots are often not
    # 0..k-1; under the identity, the shift, every multiplier, a
    # transposition and 20 random permutations.  The re-encoding check
    # from the code onto each image, and onto a code of another dimension,
    # decides as permute_code does
    rng = random.Random(n)
    def shuffled() -> Permutation:
        images = list(range(n))
        rng.shuffle(images)
        return Permutation(tuple(images))
    sigmas = [Permutation.identity(n), Permutation.shift(n), _swap01(n)]
    sigmas += [Permutation.multiplier(n, a) for a in range(2, n) if gcd(a, n) == 1]
    dims, moved_pivots = set(), 0
    cyclic = [c.linear for c in enumerate_cyclic_codes(n, field)]
    other_dimension = {c.k: next(d for d in cyclic if d.k != c.k) for c in cyclic}
    for code in enumerate_cyclic_codes(n, field):
        lin = code.linear
        dims.add(lin.k)
        for image in (lin, permute_code(lin, _swap01(n)), permute_code(lin, shuffled())):
            moved_pivots += image.pivots != tuple(range(image.k))
            tests = sigmas + [shuffled() for _ in range(20)]
            assert fixed_by(image, tests).tolist() == [permute_code(image, g) == image for g in tests]
            assert fixed_by(image, []).shape == (0,)
            assert reencodes_onto(lin, image, tests).tolist() \
                == [permute_code(lin, g) == image for g in tests]
            other = other_dimension[lin.k]
            assert reencodes_onto(lin, other, tests).tolist() == [False] * len(tests)
    assert {0, n} <= dims and moved_pivots >= 5


def test_min_distance_rank_scan_matches_enumeration():
    # the exact result against exhaustive enumeration, on every cyclic code
    # with q^k <= 2^16 of each ORACLE_CASES length and on its image under
    # (0 1); when that image is not shift-invariant only the one information
    # set of its pivots bounds the levels
    for field, n in ORACLE_CASES:
        moved_noncyclic = 0
        for c in enumerate_cyclic_codes(n, field):
            if c.k in (0, n) or field.order ** c.k > 1 << 16:
                continue
            d = enumerated_distance(c.linear)
            assert min_distance(c.linear).value == d
            moved = permute_code(c.linear, _swap01(n))
            moved_noncyclic += not is_shift_invariant(moved)
            assert min_distance(moved).value == d
        assert moved_noncyclic


def test_min_distance_extension_field_is_certified():
    code = cyclic_code(17, GF4, {1, 3, 4, 5, 12, 13, 14, 16})
    assert code.k == 9
    r = min_distance(code.linear, budget=10_000)
    assert r.exact and r.value == 7


def _levels_alone(code: LinearCode) -> int:
    """Z-levels only, until the cyclic window bound reaches the best weight."""
    n, k = code.n, code.k
    best = n
    for t in range(1, k + 1):
        best = min(best, _level_weight(code, t))
        if -(-n * (t + 1) // k) >= best:
            break
    return best


def _encoded_level_weight(code: LinearCode, t: int) -> int:
    """Z-level t by encoding every message through the expanded generator."""
    return min(int(np.count_nonzero(block, axis=1).min()) for block in _level_words(code, t))


@lru_cache(maxsize=None)
def _level_cases() -> tuple:
    """(code, t, q, words, weight) for every Z-level of at most 50,000
    words, on cyclic codes and on their images under (0 1), whose RREFs are
    not those of a cyclic code; the weight by _encoded_level_weight."""
    cases = []
    for field, n in [(GF2, 15), (GF3, 13), (GF4, 9), (GF8, 7), (GF9, 10), (GF13, 17)]:
        q = field.order
        for c in enumerate_cyclic_codes(n, field):
            if c.k in (0, n):
                continue
            for lin in (c.linear, permute_code(c.linear, _swap01(n))):
                for t in range(1, lin.k + 1):
                    words = comb(lin.k, t) * (q - 1) ** (t - 1)
                    if words <= 50_000:
                        cases.append((lin, t, q, words, _encoded_level_weight(lin, t)))
    return tuple(cases)


def test_level_weight_matches_encoded_words():
    levels = set()
    for lin, t, q, _, weight in _level_cases():
        assert _level_weight(lin, t) == weight, (lin, t)
        levels.add((q, 2 * t > lin.k, t == lin.k))
    assert {(q, True, True) for q in (2, 3, 4, 8, 9, 13)} <= levels
    assert {(q, True, False) for q in (2, 3, 4, 8, 9, 13)} <= levels


def test_level_weight_in_small_blocks(monkeypatch):
    # blocks of 97 pairs on every level, and of 5 on the levels of at most
    # 2,000 words: in both, runs span positions (2,554 and 818 of them), a
    # position is split over several runs, and the tails of one head over
    # several blocks
    for lin, t, _, _, weight in _level_cases():
        assert level_weight_by_position(lin, t) == weight, (lin, t)
    for pairs, most in ((97, 50_000), (5, 2_000)):
        monkeypatch.setattr(codes, "_SPAN_PAIRS", pairs)
        monkeypatch.setattr(codes, "_BLOCK_PAIRS", pairs)
        for lin, t, _, words, weight in _level_cases():
            if words <= most:
                assert _level_weight(lin, t) == weight, (lin, t, pairs)


def _rank_steps_alone(code: LinearCode) -> int:
    """B-steps only, until one finds a dependent subset."""
    w = 1
    while not _rank_step(code, w, True):
        w += 1
    return w


def test_min_distance_each_kind_of_step_alone():
    gf11_37_31 = cyclic_code(37, GF11, cyclotomic_cosets(37, 11)[1])
    assert gf11_37_31.k == 31
    codes = [gf11_37_31] + [c for c in enumerate_cyclic_codes(15, GF2) if 0 < c.k < 15]
    # rank steps alone over GF(p^s), which min_distance itself does not take
    codes += [c for c in enumerate_cyclic_codes(9, GF4) + enumerate_cyclic_codes(7, GF8)
              if 0 < c.k < c.n]
    for c in codes:
        d = min_distance(c.linear).value
        assert _levels_alone(c.linear) == d
        assert _rank_steps_alone(c.linear) == d
    assert min_distance(gf11_37_31.linear).value == 5


def test_min_distance_takes_the_cheaper_kind(monkeypatch):
    # the planner prices a Z word at the n - k coordinates it compares and
    # a B subset at its elimination operations times _ELIMINATION_OP_COST
    steps = []
    level, rank = codes._level_weight, codes._rank_step
    monkeypatch.setattr(codes, "_level_weight",
                        lambda code, t: steps.append(("Z", t)) or level(code, t))
    monkeypatch.setattr(codes, "_rank_step",
                        lambda code, w, cyclic: steps.append(("B", w)) or rank(code, w, cyclic))

    def run(field, n, defining_set, budget):
        steps.clear()
        return min_distance(cyclic_code(n, field, defining_set).linear, budget), list(steps)

    # GF(11) [37,31]: Z-levels 2-3 (454,150 words of 6 coordinates) reach
    # the window bound 5, against B-steps 1-4 (7,807 subsets, 300 operations
    # each at step 4)
    for budget in (2_000_000, codes.DEFAULT_DISTANCE_BUDGET):
        r, taken = run(GF11, 37, cyclotomic_cosets(37, 11)[1], budget)
        assert r.exact and r.value == 5 and taken == [("Z", 2), ("Z", 3)]
    # GF(13) [29,15]: after B-step 1, Z-levels 2-5 (64.7M words of 14
    # coordinates, about 0.2 s) certify d = 11; B-steps 6 and 7 alone take
    # about 1.7 s
    r, taken = run(GF13, 29, cyclotomic_cosets(29, 13)[1], BATTERY_DISTANCE_BUDGET)
    assert r.exact and r.value == 11
    assert [w for kind, w in taken if kind == "B"] == [1] and ("Z", 5) in taken
    # where B-steps are the cheaper kind they are taken: the GF(2017)
    # [16,13,4] Reed-Solomon code, B-steps 1-3 (121 subsets) against
    # Z-level 2 (157,248 words)
    r, taken = run(make_field(2017), 16, {0, 1, 2}, codes.DEFAULT_DISTANCE_BUDGET)
    assert r.exact and r.value == 4 and taken == [("B", 1), ("B", 2), ("B", 3)]


def test_quadratic_residue_distances_differ_by_one():
    # 13 is a square mod 29, so with Q the squares the defining sets Q and
    # Q + {0} give the odd-like [29,15] and the even-like [29,14] quadratic-
    # residue codes over GF(13).  The extended code is fixed by a monomial
    # PSL(2, 29), which acts transitively, so d(odd-like) = d(even-like) - 1
    # (MacWilliams-Sloane ch. 16; Huffman-Pless sec. 6.6)
    squares = {i * i % 29 for i in range(1, 29)}
    odd = min_distance(cyclic_code(29, GF13, squares).linear, BATTERY_DISTANCE_BUDGET)
    even = min_distance(cyclic_code(29, GF13, squares | {0}).linear, BATTERY_DISTANCE_BUDGET)
    assert odd.exact and even.exact
    assert odd.value == 11 == even.value - 1


def test_rank_step_dependence_at_large_prime():
    # at p = 257 a product of two entries no longer fits in int16
    p = 257
    cols = np.random.default_rng(0).integers(0, p, (500, 4, 6))
    cols[:, 3] = (200 * cols[:, 0] + 150 * cols[:, 1]) % p
    F = make_field(p)
    assert (_eliminate(cols, F)[1] < 0).any(axis=1).all()
    assert not (_eliminate(256 * np.eye(4, 6, dtype=np.int64)[None], F)[1] < 0).any()
    # the elimination is field-generic, although the planner offers rank
    # steps over prime fields only
    rng = random.Random(p)
    for F in (GF4, GF9):
        rows = [[rng.randrange(F.order) for _ in range(6)] for _ in range(3)]
        dependent = rows + [_combination(F, rng, rows)]
        independent = [[F.order - 1 if j == i else rng.randrange(F.order) * (j > i)
                        for j in range(6)] for i in range(4)]      # upper triangular
        pivots = _eliminate(np.array([dependent, independent]), F)[1]
        assert list((pivots < 0).any(axis=1)) == [True, False]


@pytest.mark.parametrize("code", [
    cyclic_code(23, GF2, {1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18}),
    cyclic_code(13, GF3, {1, 3, 9}),
    permute_code(cyclic_code(13, GF3, {1, 3, 9}).linear, _swap01(13)),
])
def test_min_distance_partial_interval_bounds(code):
    lin = code if isinstance(code, LinearCode) else code.linear
    n, k, q = lin.n, lin.k, lin.field.order
    d = enumerated_distance(lin)
    cyclic = is_shift_invariant(lin)
    # the lower bounds a run can have completed within a budget: the window
    # (or information-set) bound of level t, or the rank bound of step w
    level_words = [comb(k, t) * (q - 1) ** (t - 1) for t in range(1, k + 1)]
    step_subsets = [comb(n - 1, w - 1) if cyclic else comb(n, w) for w in range(1, n + 1)]
    for budget in (1, 5, 13, 30, 100, 300, 1000, 3000):
        r = min_distance(lin, budget=budget)
        assert r.lower <= d <= r.upper
        assert r.exact == (r.lower == r.upper)
        if r.exact:
            continue
        levels = [t for t in range(k) if sum(level_words[:t]) <= budget]
        steps = [w for w in range(n) if sum(step_subsets[:w]) <= budget]
        reachable = {-(-n * (t + 1) // k) if cyclic else t + 1 for t in levels}
        reachable |= {w + 1 for w in steps}
        assert r.lower in reachable


def _rank_scan_interval(code: LinearCode, budget: int) -> tuple[int, int]:
    """The interval the rank steps alone give within `budget` subsets,
    closed above by the rows of G and by the first 60,001 words of weight-2
    and weight-3 messages with leading entry 1, built one by one in the
    order of itertools.  Prime fields."""
    n, k, p = code.n, code.k, code.field.order
    cyclic = is_shift_invariant(code)
    spent = w = 0
    while spent + (comb(n - 1, w) if cyclic else comb(n, w + 1)) <= budget:
        spent += comb(n - 1, w) if cyclic else comb(n, w + 1)
        w += 1
        if _rank_step(code, w, cyclic):
            return w, w
    G = np.array(code.matrix)
    sparse = (sum(c * G[j] for c, j in zip((1,) + vals, pos)) % p
              for t in (2, 3) for pos in itertools.combinations(range(k), t)
              for vals in itertools.product(range(1, p), repeat=t - 1))
    words = itertools.chain(G, itertools.islice(sparse, 60_001))
    return w + 1, min(np.count_nonzero(word) for word in words)


@pytest.mark.parametrize("code", [
    cyclic_code(23, GF2, {1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18}),
    cyclic_code(13, GF3, {1, 3, 9}),
    cyclic_code(17, GF13, {1, 2, 4, 8, 9, 13, 15, 16}),
    cyclic_code(16, GF3, {0, 1, 2, 3, 4, 6, 8, 9, 11, 12}),
    # [10,4,7] MDS, not shift-invariant: its levels raise the bound by one
    # each, so at budget 1,000 only the rank steps (967 subsets) certify 7
    permute_code(cyclic_code(10, GF11, set(range(6))).linear,
                 Permutation((3, 7, 0, 9, 1, 5, 8, 2, 6, 4))),
    permute_code(cyclic_code(13, GF3, {1, 3, 9}).linear, _swap01(13)),
])
def test_min_distance_never_wider_than_the_rank_steps_alone(code):
    # the interval sits inside the rank-step interval, also where the
    # levels spend budget the rank steps needed, and is exact when all
    # codewords fit the budget
    lin = code if isinstance(code, LinearCode) else code.linear
    for budget in (30, 1000, 100_000):
        r = min_distance(lin, budget=budget)
        lower, upper = _rank_scan_interval(lin, budget)
        assert lower <= r.lower <= r.upper <= upper
        assert r.exact == (r.lower == r.upper)
        if lin.field.order ** lin.k <= budget:
            assert r.exact


def test_is_mds():
    c533 = cyclic_code(5, GF11, {1, 2})
    r = is_mds(c533.linear)
    assert r.d == 3 and r.is_mds
    assert not is_mds(HAMMING7.linear).is_mds
    golay = cyclic_code(23, GF2, {1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18})
    assert not is_mds(golay.linear).is_mds


def test_is_mds_requires_exact():
    code = cyclic_code(23, GF2, {1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18})
    r = min_distance(code.linear, budget=30)
    with pytest.raises(ValueError, match="not certified"):
        is_mds(code.linear, r)


def test_cyclic_defining_set_roundtrip():
    for c in enumerate_cyclic_codes(9, GF2):
        assert cyclic_defining_set(c.linear) == tuple(sorted(c.defining_set))
    # a permuted cyclic code by an affine map is still cyclic
    sigma = Permutation.affine(9, 2, 3)
    moved = permute_code(cyclic_code(9, GF2, {3, 6}).linear, sigma)
    ds = cyclic_defining_set(moved)
    assert ds is not None and len(ds) == 2


def test_cyclic_defining_set_none_for_noncyclic():
    code = LinearCode.from_rows(GF2, 4, [[1, 1, 0, 0]])
    assert cyclic_defining_set(code) is None


def test_code_spec_roundtrip(tmp_path):
    spec = code_to_spec(GOLAY3)
    assert spec["defining_set"] == [1, 3, 4, 5, 9]
    c2 = code_from_spec(json.loads(json.dumps(spec)))
    assert c2 == GOLAY3
    lin = LinearCode.from_rows(GF2, 4, [[1, 1, 0, 0], [0, 0, 1, 1]])
    l2 = code_from_spec(code_to_spec(lin))
    assert l2 == lin
    with pytest.raises(ValueError):
        code_from_spec({"q": {"characteristic": 2, "degree": 1}, "n": 4})


@given(st.integers(2, 30))
@settings(max_examples=25, deadline=None)
def test_repetition_distance_property(n):
    F = GF2 if n % 2 else GF3
    if n % F.characteristic == 0:
        return
    rep = cyclic_code(n, F, set(range(1, n)))
    assert min_distance(rep.linear).value == n


def _defining_set_by_roots(code: LinearCode) -> tuple[int, ...] | None:
    """The oracle for cyclic_defining_set: the i with alpha^i a root of
    every row of the RREF, each row evaluated by Horner's rule in the
    splitting field; None when the code is not shift-invariant."""
    from cycperm.algebra import root_system
    if not is_shift_invariant(code):
        return None
    rs = root_system(code.field, code.n)
    E = rs.ext
    ds = []
    for i in range(code.n):
        root = E.pow(rs.alpha, i)
        killed = True
        for row in code.matrix:
            acc = 0
            for c in reversed(row):
                acc = E.add(E.mul(acc, root), rs.embed(c))
            if acc != 0:
                killed = False
                break
        if killed:
            ds.append(i)
    return tuple(ds)


def test_cyclic_defining_set_matches_root_oracle():
    # seeded coset unions over prime and extension fields, and their images
    # under the transposition (0 1), mostly not cyclic
    rng = random.Random(15)
    catalogue = [(2, 1, 7), (2, 1, 15), (2, 1, 21), (2, 1, 23), (2, 1, 31), (3, 1, 13),
                 (2, 2, 9), (2, 2, 21), (2, 3, 7), (3, 2, 10), (11, 1, 25), (11, 1, 37),
                 (13, 1, 17), (5, 1, 12)]
    for p, s, n in catalogue:
        F = make_field(p, s)
        swap = Permutation((1, 0) + tuple(range(2, n)))
        cosets = cyclotomic_cosets(n, F.order)
        for _ in range(3):
            ds = {i for cs in cosets if rng.random() < 0.5 for i in cs}
            lin = cyclic_code(n, F, ds).linear
            assert cyclic_defining_set(lin) == _defining_set_by_roots(lin) == tuple(sorted(ds))
            moved = permute_code(lin, swap)
            assert cyclic_defining_set(moved) == _defining_set_by_roots(moved)
