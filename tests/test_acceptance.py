"""Acceptance gate: one test per published claim the package must reproduce,
each printing a pass/fail line with its runtime against the agreed limit.

Three published values are known to be wrong; each has a strict-xfail
companion test asserting the published value verbatim, so the suite fails
loudly if the discrepancy ever silently disappears.  The main criterion
tests assert the cross-validated corrected values instead.
"""
import itertools
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cycperm.algebra import make_field, multiplicative_order, z_parameter
from cycperm.autgroups import analyze, backtrack_full_group, check_m_p_plus_1, gk_family
from cycperm.codes import (
    LinearCode,
    count_cyclic_codes,
    cyclic_code,
    cyclic_defining_set,
    enumerate_cyclic_codes,
    is_elementary,
    min_distance,
    permute_code,
)
from cycperm.equivalence import (
    ag_set,
    brute_equivalence,
    decide_equivalence,
    gr_formula_set,
    hp_membership,
    q_group,
)
from cycperm.perm import (
    PermGroup,
    Permutation,
    block_system_valid,
    group_closure,
    normalizer_in_symmetric,
    sylow_ascend,
)
from cycperm.quasicyclic import (
    QuasiCyclicCode,
    imprimitivity_report,
    normalizer_witnesses,
    qc_sylow,
    sigma_cycles,
)
from cycperm.verification import run_battery
from oracles import hset_brute

GF2 = make_field(2)
GF3 = make_field(3)
GF11 = make_field(11)
GF13 = make_field(13)


@contextmanager
def criterion(capsys, num: int, name: str, limit_s: float):
    def report(line: str) -> None:
        # suspend capture so each criterion leaves a visible audit line
        with capsys.disabled():
            print(line, flush=True)

    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        report(f"[criterion {num:02d}] {name}: FAIL "
               f"after {time.perf_counter() - t0:.1f}s")
        raise
    dt = time.perf_counter() - t0
    verdict = "PASS" if dt < limit_s else "FAIL (time limit)"
    report(f"[criterion {num:02d}] {name}: {verdict} "
           f"in {dt:.1f}s (limit {limit_s:.0f}s)")
    assert dt < limit_s, f"criterion {num} took {dt:.1f}s, limit {limit_s}s"


# --- 1: code counting ---------------------------------------------------------------

def test_criterion_01_code_counts(capsys):
    with criterion(capsys, 1, "cyclic code counts", 1.0):
        assert count_cyclic_codes(5, GF11) == 32
        assert count_cyclic_codes(5, GF13) == 4
        assert count_cyclic_codes(7, GF2) == 8
        assert count_cyclic_codes(49, GF2) == 32


# --- 2: parameter table -------------------------------------------------------------

def test_criterion_02_parameter_table(capsys):
    # 12 of the 13 rows reproduce verbatim; the [19,16,3]/[19,3,6] row's
    # dual distance is a published typo (every qualifying code has dual
    # distance 16, by exhaustive enumeration of the 1331 dual codewords),
    # so that row reports partial with the corrected value
    with criterion(capsys, 2, "published parameter table", 300.0):
        rows = [r for r in run_battery(("tables",))
                if r.claim_id.startswith("table-")]
        assert len(rows) == 13
        by_id = {r.claim_id: r for r in rows}
        erratum = by_id.pop("table-11-19-m3-k16")
        assert all(r.status == "match" for r in by_id.values())
        assert erratum.status == "partial"
        assert "dual d=16" in erratum.computed
        # every row, n = 29 included, certifies both distances exactly: the
        # only bracket is that of [n,k,d], no interval such as [9,11]
        for r in rows:
            assert r.computed.count("[") == 1


@pytest.mark.xfail(strict=True,
                   reason="published dual distance 6 for the [19,16] code over "
                          "GF(11); exhaustive enumeration gives 16 for every "
                          "candidate, cross-checked by the support scan")
def test_criterion_02_dual_distance_as_published():
    for code in enumerate_cyclic_codes(19, GF11):
        if code.k != 3:
            continue
        assert min_distance(code.linear).value == 6


# --- 3: the multiplier fixing every code, and the order tower ------------------------

def test_criterion_03_multiplier_p_plus_1(capsys):
    with criterion(capsys, 3, "multiplier by p+1 and the order tower", 30.0):
        for q, p, r in ((2, 7, 2), (2, 3, 2), (11, 5, 2)):
            n = p ** r
            assert z_parameter(q, p) == 1
            field = make_field(q)
            codes = enumerate_cyclic_codes(n, field)
            assert all(check_m_p_plus_1(c) for c in codes)
            t = multiplicative_order(q, p)
            assert multiplicative_order(q, n) == p ** (r - 1) * t


# --- 4: the normalizer of the shift is the affine group ------------------------------

def test_criterion_04_affine_normalizer(capsys):
    with criterion(capsys, 4, "normalizer of the shift = affine group", 120.0):
        for n, order in ((9, 54), (5, 20), (7, 42)):
            shift = PermGroup.from_generators(n, [Permutation.shift(n)])
            norm = normalizer_in_symmetric(shift)
            assert norm == ag_set(n)
            assert len(norm) == order


# --- 5: conjugation sets of the polynomial-map tower ----------------------------------

def test_criterion_05_conjugation_sets(capsys):
    with criterion(capsys, 5, "H of the tower groups at length 9", 180.0):
        T9 = Permutation.shift(9)
        q2, _ = q_group(9, 2)
        _, q11 = q_group(9, 1)
        assert hset_brute(T9, q11) == q2.elements()
        assert len(q2.elements()) == 162
        assert hset_brute(T9, PermGroup.from_generators(9, [T9])) == ag_set(9)


# --- 6: normalizer of the Sylow subgroup and the closed-form set ----------------------

def _sylow_27() -> PermGroup:
    code = cyclic_code(9, GF2, {1, 2, 4, 8, 7, 5})
    g2, _ = gk_family(code, 2)
    P = sylow_ascend(g2, 3, PermGroup.from_generators(9, [Permutation.shift(9)]))
    assert P.order() == 27
    return P


def test_criterion_06_sylow_normalizer_and_formula(capsys):
    # the closed-form map family reproduces brute H(P) exactly; the
    # published normalizer order (54) does not hold, see the companion
    with criterion(capsys, 6, "H(P) formula at length 9", 180.0):
        P = _sylow_27()
        hp = hset_brute(Permutation.shift(9), P)
        assert hp == gr_formula_set(9, 2)
        norm = normalizer_in_symmetric(P)
        q2, _ = q_group(9, 2)
        assert norm == q2.elements()
        assert len(norm) == 162


@pytest.mark.xfail(strict=True,
                   reason="published normalizer order 54 for the 27-element "
                          "Sylow group at length 9; brute force gives 162, "
                          "equal to the degree-2 polynomial-map group")
def test_criterion_06_normalizer_as_published():
    P = _sylow_27()
    code = cyclic_code(9, GF2, {1, 2, 4, 8, 7, 5})
    g2, _ = gk_family(code, 2)
    assert normalizer_in_symmetric(P) == g2.elements()


# --- 7: generalized multiplier families ----------------------------------------------

def test_criterion_07_gk_families(capsys):
    # gk_family certifies G_k's order once per (n, q, k), checks code fixing
    # and idempotent fixing on every call, and raises on any failure
    with criterion(capsys, 7, "generalized multiplier families", 120.0):
        for q, n, orders in ((2, 9, (6, 54)), (2, 49, (21, 1029))):
            codes = enumerate_cyclic_codes(n, make_field(q))
            for k, expected in zip((1, 2), orders):
                for code in codes:
                    fam, _ = gk_family(code, k)
                    assert fam.order() == expected


# --- 8: backtrack group orders -------------------------------------------------------

def test_criterion_08_backtrack_orders(capsys):
    with criterion(capsys, 8, "backtrack full group orders", 600.0):
        rep = analyze(cyclic_code(15, GF2, {1, 2, 4, 8}), run_backtrack=True)
        assert rep.full_group_order == 20160
        assert rep.classification.name == "PGAMMAL(4, 2)"
        rep = analyze(cyclic_code(11, GF3, {1, 3, 4, 5, 9}), run_backtrack=True)
        assert rep.full_group_order == 660
        assert rep.classification.label == "PSL_2_11"
        bt = backtrack_full_group(cyclic_code(5, GF2, {1, 2, 3, 4}).linear)
        assert bt.order == 120


# --- 9: block systems at length 9 ----------------------------------------------------

def test_criterion_09_blocks_from_cubed_shift(capsys):
    with criterion(capsys, 9, "cubed-shift orbits are blocks", 60.0):
        cube_orbits = tuple(tuple(range(i, 9, 3)) for i in range(3))
        checked = 0
        for code in enumerate_cyclic_codes(9, GF2):
            if is_elementary(code.linear):
                continue
            rep = analyze(code, run_backtrack=True)
            if rep.classification.label != "IMPRIMITIVE":
                continue
            G = PermGroup(9, rep.discovered_generators)
            assert block_system_valid(G, cube_orbits)
            checked += 1
        assert checked >= 1


# --- 10: equivalence oracle agreement ------------------------------------------------

def test_criterion_10_equivalence_agreement(capsys):
    with criterion(capsys, 10, "equivalence strategies vs brute oracle", 300.0):
        for n, strategy in ((7, "MULTIPLIER"), (9, "HP")):
            for c1, c2 in itertools.combinations(
                    enumerate_cyclic_codes(n, GF2), 2):
                verdict = decide_equivalence(c1, c2, strategy)
                witness = brute_equivalence(c1.linear, c2.linear)
                truth = "equivalent" if witness is not None else "inequivalent"
                assert verdict.status == truth, (c1, c2)
                if verdict.witness is not None:
                    assert permute_code(c1.linear, verdict.witness) == c2.linear

        rng = random.Random(0)
        pool = [c for c in enumerate_cyclic_codes(9, GF2) if 0 < c.k < 9]
        for _ in range(20):
            c = rng.choice(pool)
            a = rng.choice([u for u in range(1, 9) if u % 3])
            b = rng.randrange(9)
            image = permute_code(c.linear, Permutation.affine(9, a, b))
            other = cyclic_code(9, GF2, cyclic_defining_set(image))
            verdict = decide_equivalence(c, other, "HP")
            assert verdict.status == "equivalent"
            assert permute_code(c.linear, verdict.witness) == other.linear


# --- 11: index-shift identities ------------------------------------------------------

def test_criterion_11_index_shift_identities(capsys):
    with criterion(capsys, 11, "index-shift product and conjugation laws", 180.0):
        # product of the l interleaved cycles equals the shift by l, at
        # every divisor of every length up to 1000
        for n in range(2, 1001):
            base = np.arange(n)
            for l in range(1, n + 1):
                if n % l:
                    continue
                m = n // l
                steps = np.arange(m)
                prod = base.copy()
                for i in range(l):
                    idx = (i + steps * l) % n
                    sig = base.copy()
                    sig[idx] = idx[(steps + 1) % m]
                    prod = sig[prod]
                assert np.array_equal(prod, (base + l) % n), (n, l)
        # spot check the numpy formulation against the permutation objects
        for n, l in ((12, 3), (15, 5), (20, 4)):
            cycles = sigma_cycles(n, l)
            prod = cycles[0]
            for c in cycles[1:]:
                prod = prod * c
            assert prod == Permutation.power_shift(n, l)

        # conjugation by the affine maps sends T^l to T^(l a); verified
        # element by element inside normalizer_witnesses
        qg, ag = normalizer_witnesses(15, 3)
        assert (qg.order(), ag.order()) == (375, 120)
        qg, ag = normalizer_witnesses(10, 2)
        assert (qg.order(), ag.order()) == (50, 40)

        t2 = Permutation.power_shift(10, 2)
        shift_group = PermGroup.from_generators(10, [t2])
        hprime = hset_brute(t2, shift_group)
        assert hprime == normalizer_in_symmetric(shift_group)
        assert len(hprime) == 200

        rep_par = _qc_rep_par()
        P = qc_sylow(rep_par)
        assert all(hp_membership(tau, P, 2) for tau in ag_set(10))


# --- 12: imprimitivity of the discovered sets ----------------------------------------

def _interleave(a: LinearCode, b: LinearCode) -> LinearCode:
    n = 2 * a.n
    rows = []
    for src, off in ((a, 0), (b, 1)):
        for r in src.matrix:
            row = [0] * n
            for i, x in enumerate(r):
                row[2 * i + off] = x
            rows.append(row)
    return LinearCode.from_rows(a.field, n, rows)


def _qc_rep_par() -> QuasiCyclicCode:
    rep = cyclic_code(5, GF2, {1, 2, 3, 4}).linear
    par = cyclic_code(5, GF2, {0}).linear
    return QuasiCyclicCode(_interleave(rep, par), 2)


def _circulant_coupled(v: tuple[int, ...]) -> QuasiCyclicCode:
    rows = []
    for i in range(5):
        row = [0] * 10
        row[2 * i] = 1
        for j in range(5):
            row[2 * j + 1] = v[(j - i) % 5]
        rows.append(row)
    return QuasiCyclicCode(LinearCode.from_rows(GF2, 10, rows), 2)


def _full_space_10() -> QuasiCyclicCode:
    eye = [[1 if j == i else 0 for j in range(10)] for i in range(10)]
    return QuasiCyclicCode(LinearCode.from_rows(GF2, 10, eye), 2)


def test_criterion_12_imprimitive_closures(capsys):
    # the full-space closure is the 800-element Sylow normalizer, not the
    # symmetric group as published: membership forces the conjugate of the
    # index shift into a group with only 16 order-5 targets of the right
    # cycle type, each contributing a 50-element centralizer coset
    with criterion(capsys, 12, "imprimitive closures of discovered sets", 300.0):
        residues = {frozenset(range(0, 10, 2)), frozenset(range(1, 10, 2))}
        nontrivial = [_qc_rep_par(), _circulant_coupled((1, 1, 0, 0, 0)),
                      _circulant_coupled((1, 1, 1, 0, 0))]
        assert len(nontrivial) >= 3
        for qc in nontrivial:
            rep = imprimitivity_report(qc)
            assert rep.conclusion == "IMPRIMITIVE"
            assert any({frozenset(b) for b in bs.blocks} == residues
                       for bs in rep.block_systems)
        rep = imprimitivity_report(_full_space_10())
        assert rep.conclusion == "IMPRIMITIVE"
        assert rep.closure_order == 800
        assert Permutation.shift(10).parity() == 1


@pytest.mark.xfail(strict=True,
                   reason="published closure for the full space at length 10 "
                          "is the symmetric group (order 3628800); the "
                          "membership condition caps the discovered set at "
                          "800 elements and the closure equals the Sylow "
                          "normalizer")
def test_criterion_12_full_space_closure_as_published():
    rep = imprimitivity_report(_full_space_10())
    assert rep.closure_order == 3628800
