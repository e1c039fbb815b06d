import json
from math import gcd
from pathlib import Path

import pytest

from hypothesis import given, settings, strategies as st

from cycperm.algebra import (
    Field,
    _is_irreducible,
    Polynomial,
    is_prime,
    make_field,
    minimal_polynomial,
    multiplicative_order,
    poly_divmod,
    poly_gcd,
    prime_factors,
    prime_power,
    root_system,
    x_pow_minus_one,
    z_parameter,
)
from cycperm import algebra
from cycperm.codes import cyclic_code, cyclotomic_cosets, enumerate_cyclic_codes, is_shift_invariant
from oracles import coset_polynomial_by_roots, is_least_primitive_root, lowest_irreducible_unfiltered


def test_is_prime_small():
    assert [m for m in range(2, 30) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)


def test_prime_factors():
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(1) == []
    assert prime_factors(49) == [7]
    assert [prime_power(m) for m in (2, 9, 27, 49, 1024)] == [(2, 1), (3, 2), (3, 3), (7, 2), (2, 10)]
    for m in (-4, 0, 1, 12, 45):
        with pytest.raises(ValueError, match="prime power"):
            prime_power(m)


@pytest.mark.parametrize("a,n,expected", [
    (11, 5, 1),    # 11 = 1 mod 5
    (13, 5, 4),
    (2, 7, 3),
    (11, 7, 3),
    (2, 9, 6),
    (2, 49, 21),
    (2, 23, 11),
    (13, 29, 14),
    (11, 37, 6),
    (13, 17, 4),
])
def test_multiplicative_order_table(a, n, expected):
    assert multiplicative_order(a, n) == expected


def test_multiplicative_order_rejects_non_units():
    with pytest.raises(ValueError):
        multiplicative_order(6, 9)


@pytest.mark.parametrize("q,p,z", [
    (2, 7, 1),
    (2, 3, 1),
    (11, 5, 1),
    (2, 1093, 2),   # Wieferich prime: 1093^2 divides 2^364 - 1
])
def test_z_parameter(q, p, z):
    assert z_parameter(q, p) == z


def test_z_parameter_validates():
    with pytest.raises(ValueError):
        z_parameter(2, 9)
    with pytest.raises(ValueError):
        z_parameter(7, 7)


# --- fields -----------------------------------------------------------------

def test_prime_field_ops():
    F = make_field(13)
    assert F.order == 13 and F.is_prime_field
    assert F.add(7, 9) == 3
    assert F.mul(7, 9) == 63 % 13
    assert F.inv(5) == pow(5, 11, 13)
    assert F.pow(2, 12) == 1


def test_make_field_canonical_moduli():
    # lowest-encoding irreducibles, frozen by hand: x^3+x+1 over GF(2), x^2+1 over GF(3)
    assert make_field(2, 3).modulus == (1, 1, 0, 1)
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(2, 6).modulus == (1, 1, 0, 0, 0, 0, 1)


def test_lowest_irreducible_is_the_unfiltered_search(monkeypatch):
    # the candidates with a root in GF(p) are rejected before their Rabin
    # test, and the modulus chosen is the one the unfiltered search takes;
    # at GF(13^11) the search runs 2 Rabin tests instead of 20
    for p in (2, 3, 5, 7, 11, 13):
        for s in range(1, 13):
            assert algebra._lowest_irreducible(p, s) == lowest_irreducible_unfiltered(p, s), (p, s)
    modulus = make_field(13, 11).modulus
    tests = []
    rabin = algebra._is_irreducible

    def counted(coeffs, p):
        tests.append(tuple(coeffs))
        return rabin(coeffs, p)
    monkeypatch.setattr(algebra, "_is_irreducible", counted)
    assert algebra._lowest_irreducible.__wrapped__(13, 11) == modulus
    assert len(tests) == 2 and not any(algebra._has_root(c, 13) for c in tests)


def test_gf9_arithmetic():
    F = make_field(3, 2)       # x^2 = -1
    x = 3                      # digits (0,1)
    assert F.mul(x, x) == 2    # x^2 = 2 mod (x^2+1)
    assert F.element_order(x) == 4
    # 8 = 2 + 2x has order 8 iff it generates GF(9)*
    orders = sorted({F.element_order(a) for a in range(1, 9)})
    assert orders == [1, 2, 4, 8]


def test_field_rejects_bad_modulus():
    with pytest.raises(ValueError):
        Field(2, 3, (1, 0, 0, 1))   # x^3+1 is reducible
    with pytest.raises(ValueError):
        Field(4)                    # not a prime
    with pytest.raises(ValueError):
        make_field(6)


@pytest.mark.parametrize("p,s", [(2, 1), (2, 3), (3, 2), (5, 1), (13, 1), (3, 3), (5, 2), (7, 2)])
def test_field_axioms_exhaustive_small(p, s):
    F = make_field(p, s)
    els = list(F.elements())
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    if F.order <= 9:
        for a in els:
            for b in els:
                assert F.mul(a, b) == F.mul(b, a)
                for c in els:
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("p,s", [(3, 3), (2, 6)])
def test_field_pow_is_repeated_mul(p, s):
    F = make_field(p, s)
    for a in F.elements():
        x = 1
        for e in range(F.order + 1):
            assert F.pow(a, e) == x
            x = F.mul(x, a)
        if a:
            assert F.pow(a, -1) == F.inv(a)


def _monic_polynomials(F, degree):
    for low in range(F.order ** degree):
        digits = []
        for _ in range(degree):
            low, d = divmod(low, F.order)
            digits.append(d)
        yield Polynomial(F, (*digits, 1))


@pytest.mark.parametrize("p,degrees", [(2, range(2, 7)), (3, range(2, 5))])
def test_rabin_test_agrees_with_trial_division(p, degrees):
    # f is irreducible iff no monic polynomial of degree 1..deg(f)/2 divides it
    F = make_field(p)
    for s in degrees:
        for f in _monic_polynomials(F, s):
            divisible = any(poly_divmod(f, g)[1].is_zero()
                            for d in range(1, s // 2 + 1) for g in _monic_polynomials(F, d))
            assert _is_irreducible(f.coeffs, p) == (not divisible), f


@given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
@settings(max_examples=150, deadline=None)
def test_gf64_associativity(a, b, c):
    F = make_field(2, 6)
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_frobenius_is_additive_gf64():
    F = make_field(2, 6)
    for a in range(0, 64, 7):
        for b in range(0, 64, 5):
            assert F.pow(F.add(a, b), 2) == F.add(F.pow(a, 2), F.pow(b, 2))


# --- polynomials ------------------------------------------------------------

def test_poly_basic():
    F = make_field(13)
    f = Polynomial(F, (1, 0, 1))       # 1 + x^2
    g = Polynomial(F, (12, 1))         # x - 1
    assert (f * g).coeffs == (12, 1, 12, 1)
    assert f.evaluate(5) == 26 % 13
    assert Polynomial(F, (0, 0, 0)).is_zero()
    assert Polynomial(F, (0, 0, 0)).degree == -1


def test_poly_divmod_identity():
    F = make_field(13)
    a = Polynomial(F, (3, 1, 4, 1, 5))
    b = Polynomial(F, (2, 7, 1))
    q, r = poly_divmod(a, b)
    assert (q * b + r).coeffs == a.coeffs
    assert r.degree < b.degree


@given(st.lists(st.integers(0, 12), min_size=0, max_size=8),
       st.lists(st.integers(0, 12), min_size=1, max_size=5))
@settings(max_examples=120, deadline=None)
def test_poly_divmod_property(ac, bc):
    F = make_field(13)
    a, b = Polynomial(F, tuple(ac)), Polynomial(F, tuple(bc))
    if b.is_zero():
        return
    q, r = poly_divmod(a, b)
    assert (q * b + r).coeffs == a.coeffs
    assert r.is_zero() or r.degree < b.degree


def test_poly_gcd():
    F = make_field(2)
    f = Polynomial(F, (1, 1)) * Polynomial(F, (1, 1, 1))
    g = Polynomial(F, (1, 1)) * Polynomial(F, (1, 0, 1, 1))
    assert poly_gcd(f, g).coeffs == (1, 1)


# --- minimal polynomials and root systems -----------------------------------

def test_root_system_gf2_n7():
    rs = root_system(make_field(2), 7)
    assert rs.ext.order == 8
    assert rs.ext.element_order(rs.alpha) == 7
    assert rs.alpha == 2   # least generator: x itself


def test_minimal_polynomial_binary_n7():
    F = make_field(2)
    assert minimal_polynomial(F, 7, {1, 2, 4}).coeffs == (1, 1, 0, 1)
    assert minimal_polynomial(F, 7, {3, 5, 6}).coeffs == (1, 0, 1, 1)
    assert minimal_polynomial(F, 7, {0}).coeffs == (1, 1)


def test_minimal_polynomial_cached_across_codes():
    from cycperm.algebra import _coset_polynomial
    F = make_field(3)
    _coset_polynomial.cache_clear()
    # {1,3,9} is shared; {2,5,6} and {4,10,12} are not
    cyclic_code(13, F, {1, 3, 9, 2, 5, 6}).linear
    cyclic_code(13, F, {1, 3, 9, 4, 10, 12}).linear
    info = _coset_polynomial.cache_info()
    assert (info.misses, info.hits) == (3, 1)
    with pytest.raises(ValueError, match="not a q-cyclotomic coset"):
        minimal_polynomial(F, 13, {1, 3})


def test_minimal_polynomial_rejects_non_coset():
    with pytest.raises(ValueError):
        minimal_polynomial(make_field(2), 7, {1, 2})
    with pytest.raises(ValueError):
        minimal_polynomial(make_field(2), 8, {1})   # gcd(8,2) != 1


@pytest.mark.parametrize("q_spec,n", [
    ((2, 1), 7), ((2, 1), 9), ((2, 1), 15), ((2, 1), 23), ((2, 1), 49),
    ((3, 1), 11), ((11, 1), 5), ((11, 1), 19), ((13, 1), 17), ((3, 2), 8),
])
def test_minimal_polynomials_multiply_to_xn_minus_1(q_spec, n):
    F = make_field(*q_spec)
    q = F.order
    seen: set[int] = set()
    prod = Polynomial(F, (1,))
    for i in range(n):
        if i in seen:
            continue
        coset = {i}
        j = i * q % n
        while j != i:
            coset.add(j)
            j = j * q % n
        seen |= coset
        prod = prod * minimal_polynomial(F, n, coset)
    assert prod.coeffs == x_pow_minus_one(F, n).coeffs


def test_minimal_polynomial_matches_sympy_factorization():
    sympy = pytest.importorskip("sympy")
    # every minimal polynomial must appear among sympy's irreducible factors
    for q, n in [(2, 9), (2, 23), (3, 11), (11, 19)]:
        F = make_field(q)
        x = sympy.symbols("x")
        # Poly.factor_list, unlike sympy.factor_list(..., modulus=q), makes
        # no ordered comparison of modular integers, which SymPy deprecates
        factors = sympy.Poly(x**n - 1, x, modulus=q).factor_list()[1]
        factor_tuples = set()
        for f, mult in factors:
            cs = [int(c) % q for c in reversed(f.all_coeffs())]
            factor_tuples.add(tuple(cs))
        seen: set[int] = set()
        for i in range(n):
            if i in seen:
                continue
            coset = {i}
            j = i * q % n
            while j != i:
                coset.add(j)
                j = j * q % n
            seen |= coset
            mp = minimal_polynomial(F, n, coset)
            assert mp.coeffs in factor_tuples


def _scanned_embedding_root(field, n):
    # the oracle: the least element of the extension that is a root of the
    # base field's modulus, found by scanning the extension in order
    E = root_system(field, n).ext
    mod_poly = Polynomial(E, tuple(field.modulus))
    return next(e for e in E.elements() if mod_poly.evaluate(e) == 0)


@pytest.mark.parametrize("q_spec,n", [((2, 2), 9), ((2, 2), 11), ((2, 2), 13), ((2, 2), 15),
                                      ((2, 2), 17), ((2, 2), 21), ((2, 3), 9), ((3, 2), 7),
                                      ((3, 2), 11)])
def test_embedding_root_matches_scan(q_spec, n):
    F = make_field(*q_spec)
    rs = root_system(F, n)
    beta = rs.embed(F.characteristic)        # the base-field element x
    assert beta == _scanned_embedding_root(F, n)


@pytest.mark.parametrize("n", [25, 29])
def test_gf4_codes_build_at_large_extension_degree(n):
    # GF(4) at n = 25 and 29 embeds into GF(2^20) and GF(2^28)
    F = make_field(2, 2)
    codes = enumerate_cyclic_codes(n, F)
    assert len(codes) == {25: 32, 29: 8}[n]
    for code in codes:
        assert code.linear.k == code.k
        assert is_shift_invariant(code.linear)


def test_root_system_deterministic_alpha():
    rs1 = root_system(make_field(2), 9)
    rs2 = root_system(make_field(2), 9)
    assert rs1.alpha == rs2.alpha
    assert rs1.ext.element_order(rs1.alpha) == 9


@pytest.mark.parametrize("q_spec,n", [((2, 1), 7), ((3, 2), 8), ((11, 1), 19), ((13, 1), 23),
                                      ((2, 2), 25), ((5, 1), 1)])
def test_power_table_rows_are_the_digits_of_alpha_powers(q_spec, n):
    F = make_field(*q_spec)
    rs = root_system(F, n)
    E = rs.ext
    assert rs.digits.shape == (n, E.degree) and not rs.digits.flags.writeable
    assert rs.powers[1 % n] == rs.alpha
    for j in range(n):
        assert rs.powers[j] == E.pow(rs.alpha, j)
        assert rs.digits[j].tolist() == E._digits(rs.powers[j])
    assert E.pow(rs.alpha, n) == 1 and len(set(rs.powers)) == n    # alpha has order n
    assert hash(rs) == hash(root_system(F, n))


def test_coset_polynomials_need_no_splitting_field_product(monkeypatch):
    # once the root system is built, a coset's polynomial is read off the
    # digit table with no _mulmod call
    from cycperm.algebra import _coset_polynomial
    F = make_field(13)
    root_system(F, 23)
    _coset_polynomial.cache_clear()

    def no_product(*args):
        raise AssertionError("_mulmod called")

    monkeypatch.setattr(algebra, "_mulmod", no_product)
    coset = cyclotomic_cosets(23, 13)[1]
    assert minimal_polynomial(F, 23, coset).degree == 11


@pytest.mark.parametrize("q_spec,n", [((11, 1), 19), ((11, 1), 37), ((13, 1), 17), ((13, 1), 23),
                                      ((13, 1), 29), ((2, 1), 47), ((2, 1), 73), ((2, 2), 25),
                                      ((2, 2), 29)])
def test_minimal_polynomials_match_the_product_over_roots(q_spec, n):
    # splitting fields past the golden file's 2^24 elements: every coset's
    # polynomial against the product of its linear factors, and alpha
    # against its own powers
    F = make_field(*q_spec)
    assert is_least_primitive_root(F, n, root_system(F, n).alpha)
    for coset in cyclotomic_cosets(n, F.order):
        assert minimal_polynomial(F, n, coset) == coset_polynomial_by_roots(F, n, coset), coset


# --- golden values: moduli, alphas and minimal polynomials --------------------

GOLDEN = Path(__file__).parent / "algebra_golden.json"
GOLDEN_PRIMES = (2, 3, 5, 7, 11, 13)
GOLDEN_BASES = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
                (2, 4), (5, 2))
GOLDEN_LIMIT = 2 ** 24
COMPACT = {"separators": (",", ":")}


def _golden_text() -> str:
    """The canonical modulus of every GF(p^s) with p^s <= 2^24, p in
    GOLDEN_PRIMES, then for every base field GF(q) of GOLDEN_BASES and
    1 <= n <= 40 with gcd(n, q) = 1 whose splitting field has at most 2^24
    elements: alpha and the minimal polynomial of each q-cyclotomic coset.
    One entry per line, so a diff names the entry that moved."""
    lines = []
    for p in GOLDEN_PRIMES:
        s = 1
        while p ** s <= GOLDEN_LIMIT:
            lines.append(json.dumps([p, s, list(make_field(p, s).modulus)], **COMPACT))
            s += 1
    splitting = []
    for spec in GOLDEN_BASES:
        F = make_field(*spec)
        q = F.order
        for n in range(1, 41):
            if gcd(n, q) != 1 or q ** multiplicative_order(q, n) > GOLDEN_LIMIT:
                continue
            cosets = [[list(c), list(minimal_polynomial(F, n, c).coeffs)]
                      for c in cyclotomic_cosets(n, q)]
            splitting.append(json.dumps([q, n, root_system(F, n).alpha, cosets], **COMPACT))
    return ('{"moduli": [\n' + ",\n".join(lines) + '\n],\n"splitting": [\n'
            + ",\n".join(splitting) + "\n]}\n")


def test_algebra_matches_the_golden_file():
    # regenerate with `PYTHONPATH=src python tests/test_algebra.py` only for
    # a change meant to move a modulus, an alpha or a minimal polynomial
    assert _golden_text() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(_golden_text())
