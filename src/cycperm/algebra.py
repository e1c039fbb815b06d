"""Finite fields GF(p^s), polynomials over them, and the number-theoretic helpers
used throughout: cyclotomic splitting data, multiplicative orders, the z parameter."""
from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from math import gcd, isqrt
from typing import Callable, Iterable, Sequence

import numpy as np


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    for d in range(3, isqrt(m) + 1, 2):
        if m % d == 0:
            return False
    return True


def prime_factors(m: int) -> list[int]:
    """Distinct prime divisors of m, ascending."""
    if m < 1:
        raise ValueError(f"positive integer required, got {m}")
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return out


def prime_power(n: int) -> tuple[int, int]:
    """(p, r) with n = p^r and r >= 1, or ValueError."""
    factors = prime_factors(n) if n >= 2 else []
    if len(factors) != 1:
        raise ValueError(f"{n} is not a prime power")
    p, r = factors[0], 0
    while n % p == 0:
        n //= p
        r += 1
    return p, r


def p_part(m: int, p: int) -> int:
    """The largest power of p dividing m."""
    out = 1
    while m % p == 0:
        out *= p
        m //= p
    return out


def units(n: int) -> list[int]:
    """(Z/n)^*, ascending: the a in range(n) with gcd(a, n) = 1.  For n = 1
    that is [0], the one residue, as gcd(0, 1) = 1."""
    return [a for a in range(n) if gcd(a, n) == 1]


def multiplicative_order(a: int, n: int) -> int:
    """Order of a in (Z/n)*; a need not be reduced mod n."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if n == 1:
        return 1
    a %= n
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    k, x = 1, a
    while x != 1:
        x = x * a % n
        k += 1
    return k


def z_parameter(q: int, p: int) -> int:
    """Largest z with p^z | q^t - 1, where t = ord_p(q).

    z = 1 is the generic case.  For odd p it makes ord_{p^k}(q) = t * p^(k-1)
    for every k, which the generalized-multiplier families need; at p = 2
    that lift fails from k = 3 on (autgroups.gk_lifts).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not a prime")
    if gcd(q, p) != 1:
        raise ValueError(f"q={q} and p={p} are not coprime")
    t = multiplicative_order(q, p)
    z = 1
    while pow(q, t, p ** (z + 1)) == 1:
        z += 1
    return z


def _mulmod(a: Sequence[int], b: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    """a * b mod f over GF(p), for digit lists a and b of length s and a
    monic f of degree s >= 1 (little-endian), as a digit list of length s.
    The schoolbook sum is formed with no reduction, its terms of degree
    2s - 2 down to s are cleared with multiples of f, and each kept digit
    takes one % p."""
    s = len(f) - 1
    out = [0] * (2 * s - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    for top in range(2 * s - 2, s - 1, -1):
        c = out[top] % p
        if c:
            for i in range(top - s, top):
                out[i] -= c * f[i - top + s]
    return [c % p for c in out[:s]]


def _powmod(a: Sequence[int], e: int, f: Sequence[int], p: int) -> list[int]:
    """a^e mod f over GF(p), e >= 0, by square-and-multiply on _mulmod."""
    r = [1] + [0] * (len(f) - 2)
    while e:
        if e & 1:
            r = _mulmod(r, a, f, p)
        a = _mulmod(a, a, f, p)
        e >>= 1
    return r


@lru_cache(maxsize=None)
def _is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Rabin test for a monic polynomial over Z_p: f of degree s is irreducible
    iff x^(p^s) = x mod f and gcd(f, x^(p^(s/r)) - x) = 1 for every prime r | s.
    Kept per coefficient tuple, so the modulus make_field finds with it is a
    cache hit when Field checks it again."""
    s = len(coeffs) - 1
    if s < 1:
        return False
    if s == 1:
        return True
    x = [0, 1] + [0] * (s - 2)
    if _powmod(x, p ** s, coeffs, p) != x:
        return False
    Fp = make_field(p)
    f, x_poly = Polynomial(Fp, tuple(coeffs)), Polynomial(Fp, (0, 1))
    for r in prime_factors(s):
        h = Polynomial(Fp, tuple(_powmod(x, p ** (s // r), coeffs, p)))
        if poly_gcd(f, h - x_poly).degree != 0:
            return False
    return True


class Field:
    """GF(p^s) as Z_p[x]/(f), elements encoded as integers in [0, p^s).

    The integer encoding is positional base p: element e stands for the
    residue sum(digit_i(e) * x^i).  For s = 1 the element is its own value
    and the modulus is x itself, so prime fields need no table machinery.
    """

    __slots__ = ("characteristic", "degree", "order", "modulus")

    def __init__(self, characteristic: int, degree: int = 1, modulus: tuple[int, ...] | None = None):
        p, s = characteristic, degree
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not a prime")
        if s < 1:
            raise ValueError(f"degree must be >= 1, got {s}")
        if s == 1:
            modulus = (0, 1) if modulus is None else tuple(modulus)
            if modulus != (0, 1):
                raise ValueError("prime field modulus must be x")
        else:
            if modulus is None:
                raise ValueError("extension fields need an explicit modulus; use make_field")
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != s + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {s}")
            if not _is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.characteristic = p
        self.degree = s
        self.order = p ** s
        self.modulus = modulus

    # identity is structural: same (p, s, modulus) means same field
    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Field)
                and self.characteristic == other.characteristic
                and self.degree == other.degree
                and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.characteristic, self.degree, self.modulus))

    def __repr__(self) -> str:
        if self.degree == 1:
            return f"GF({self.characteristic})"
        return f"GF({self.characteristic}^{self.degree})"

    @property
    def is_prime_field(self) -> bool:
        return self.degree == 1

    def elements(self) -> range:
        return range(self.order)

    def validate(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise ValueError(f"{a!r} is not an element of {self!r}")
        return a

    def _digits(self, a: int) -> list[int]:
        p, out = self.characteristic, []
        for _ in range(self.degree):
            a, d = divmod(a, p)
            out.append(d)
        return out

    def _encode(self, digits: Sequence[int]) -> int:
        p, v = self.characteristic, 0
        for d in reversed(list(digits)):
            v = v * p + d % p
        return v

    def add(self, a: int, b: int) -> int:
        p = self.characteristic
        if self.degree == 1:
            return (a + b) % p
        da, db = self._digits(a), self._digits(b)
        return self._encode([(x + y) % p for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        p = self.characteristic
        if self.degree == 1:
            return (-a) % p
        return self._encode([(-d) % p for d in self._digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        p = self.characteristic
        if self.degree == 1:
            return a * b % p
        return self._encode(_mulmod(self._digits(a), self._digits(b), self.modulus, p))

    def inv(self, a: int) -> int:
        if a % self.order == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        self.validate(a)
        if e < 0:
            a, e = self.inv(a), -e
        p = self.characteristic
        if self.degree == 1:
            return pow(a, e, p)
        return self._encode(_powmod(self._digits(a), e, self.modulus, p))

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("zero has no multiplicative order")
        k, x = 1, a
        while x != 1:
            x = self.mul(x, a)
            k += 1
        return k


def _has_root(coeffs: Sequence[int], p: int) -> bool:
    """Whether the polynomial with these coefficients (little-endian) over
    GF(p) vanishes at some point of GF(p), by Horner's rule at each."""
    for x in range(p):
        v = 0
        for c in reversed(coeffs):
            v = (v * x + c) % p
        if v == 0:
            return True
    return False


@lru_cache(maxsize=None)
def _lowest_irreducible(p: int, s: int) -> tuple[int, ...]:
    """Monic irreducible of degree s over GF(p) whose non-leading coefficient
    vector, read as a base-p integer, is smallest.  Deterministic so that two
    runs always agree on field encodings.  At s >= 2 a candidate with a
    root in GF(p) has a linear factor, so it is rejected before its Rabin
    test (_has_root); the first candidate that passes both is the first
    irreducible one, as without the filter."""
    for low in range(p ** s):
        coeffs = []
        v = low
        for _ in range(s):
            v, d = divmod(v, p)
            coeffs.append(d)
        coeffs = (*coeffs, 1)
        if (s == 1 or not _has_root(coeffs, p)) and _is_irreducible(coeffs, p):
            return coeffs
    raise RuntimeError(f"no irreducible of degree {s} over GF({p})")  # unreachable


@lru_cache(maxsize=None)
def make_field(p: int, s: int = 1) -> Field:
    """GF(p^s) with the canonical lowest-encoding modulus."""
    if s == 1:
        return Field(p)
    return Field(p, s, _lowest_irreducible(p, s))


@lru_cache(maxsize=None)
def multiplication_matrices(field: Field) -> np.ndarray:
    """GF(p^s) as GF(p)^s: a read-only (q, s, s) array M over GF(p) whose
    matrix M[b] has the base-p digits of x^i * b as row i, so that
    digits(a * b) = digits(a) @ M[b] mod p.  Row 0 of M[b] is the digit
    vector of b itself.  For s = 1, M[b] = [[b]]."""
    p, s = field.characteristic, field.degree
    M = np.array([[field._digits(field.mul(p ** i, b)) for i in range(s)]
                  for b in field.elements()], dtype=np.int64)
    M.flags.writeable = False
    return M


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial over a Field; coeffs little-endian with no trailing zeros."""
    field: Field
    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = list(self.coeffs)
        for v in c:
            self.field.validate(v)
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1   # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Polynomial") -> "Polynomial":
        F = self._same_field(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(F, tuple(
            F.add(self.coeffs[i] if i < len(self.coeffs) else 0,
                  other.coeffs[i] if i < len(other.coeffs) else 0)
            for i in range(n)))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.field, tuple(self.field.neg(c) for c in self.coeffs))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        F = self._same_field(other)
        if self.is_zero() or other.is_zero():
            return Polynomial(F, ())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
        return Polynomial(F, tuple(out))

    def _same_field(self, other: "Polynomial") -> Field:
        if self.field != other.field:
            raise ValueError("polynomials over different fields")
        return self.field

    def scale(self, c: int) -> "Polynomial":
        F = self.field
        return Polynomial(F, tuple(F.mul(c, a) for a in self.coeffs))

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def evaluate(self, x: int) -> int:
        F, acc = self.field, 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, x), c)
        return acc

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = [f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c]
        return "Poly(" + " + ".join(terms) + f" over {self.field!r})"


def poly_divmod(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Quotient and remainder; b must be nonzero."""
    F = a._same_field(b)
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q = [0] * max(a.degree - b.degree + 1, 0)
    r = list(a.coeffs)
    inv_lead = F.inv(b.coeffs[-1])
    while len(r) >= len(b.coeffs) and r:
        if r[-1] == 0:
            r.pop()
            continue
        f = F.mul(r[-1], inv_lead)
        shift = len(r) - len(b.coeffs)
        q[shift] = f
        for i, c in enumerate(b.coeffs):
            r[shift + i] = F.sub(r[shift + i], F.mul(f, c))
        r.pop()
    return Polynomial(F, tuple(q)), Polynomial(F, tuple(r))


def poly_mod(a: Polynomial, b: Polynomial) -> Polynomial:
    return poly_divmod(a, b)[1]


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    while not b.is_zero():
        a, b = b, poly_mod(a, b)
    return a.monic() if not a.is_zero() else a


def x_pow_minus_one(field: Field, n: int) -> Polynomial:
    c = [0] * (n + 1)
    c[0], c[n] = field.neg(1 % field.order), 1
    return Polynomial(field, tuple(c))


@dataclass(frozen=True)
class RootSystem:
    """Splitting data for x^n - 1 over a base field: the extension E containing
    a canonical primitive n-th root alpha, plus the subfield embedding maps.
    powers[j] is alpha^j for 0 <= j < n, and row j of the read-only (n, d)
    array digits holds the d = E.degree base-p digits of alpha^j; the array
    takes no part in equality or hashing."""
    base: Field
    ext: Field
    n: int
    alpha: int
    embed: Callable[[int], int]
    lift: Callable[[int], int | None]
    powers: tuple[int, ...]
    digits: np.ndarray = dataclass_field(compare=False, repr=False)


@lru_cache(maxsize=None)
def root_system(field: Field, n: int) -> RootSystem:
    """Extension of `field` containing the n-th roots of unity, with a canonical
    primitive root and the table of its powers.

    alpha is pinned deterministically: among all generators of the unique
    order-n subgroup of E*, take the one with the smallest integer encoding.
    An extension base field GF(q) embeds by sending x to beta, the least root
    of its modulus in E.  Every such root lies in the subfield GF(q) of E,
    which is zero and the powers of an element y of order q - 1, so beta is
    found among those q elements; y = e^((|E| - 1)/(q - 1)) for the least e
    that gives that order.  Requires gcd(n, q) = 1.

    The powers come from one walk: for y = e^((|E| - 1)/n) of exact order n,
    with e least, y^0, ..., y^(n-1) take n - 1 products.  The generators of
    <y> are the y^k with k a unit mod n, so alpha = y^k0 for the k0 whose
    power is least, and alpha^j = y^(k0*j mod n) is read off the same list.

    The digit table is what makes sums of powers cheap.  Writing an element
    of E = GF(p)[x]/(f) as its d base-p digits is GF(p)-linear: addition is
    digitwise mod p, and so is multiplication by an element of GF(p).  Hence
    for integers a_0, ..., a_(n-1), read mod p since E has characteristic p,
    digits(sum_j a_j alpha^j) = (a mod p) @ digits mod p, exactly: one
    integer matrix product stands for n - 1 additions in E and n scalings,
    and with entries below p its int64 sums stay below n (p - 1)^2.
    """
    q = field.order
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if gcd(n, field.characteristic) != 1:
        raise ValueError(f"n={n} not coprime to the characteristic {field.characteristic}")
    t = multiplicative_order(q, n) if n > 1 else 1
    p, s = field.characteristic, field.degree
    if t == 1:
        ext = field
        embed = lambda e: e
        lift = lambda e: e
    else:
        ext = make_field(p, s * t)
        if s == 1:
            # prime subfield encodings coincide
            embed = lambda e: e
            lift = lambda e: e if e < q else None
        else:
            cofactor = (ext.order - 1) // (q - 1)
            y = next(y for y in (ext.pow(e, cofactor) for e in range(2, ext.order))
                     if ext.element_order(y) == q - 1)
            subfield = [0] + [ext.pow(y, i) for i in range(q - 1)]
            mod_poly = Polynomial(ext, tuple(c % p for c in field.modulus))
            beta = min(e for e in subfield if mod_poly.evaluate(e) == 0)
            pow_beta = [ext.pow(beta, i) for i in range(s)]

            def embed(e: int, _pb=pow_beta, _f=field, _E=ext) -> int:
                acc = 0
                for d, b in zip(_f._digits(e), _pb):
                    acc = _E.add(acc, _E.mul(d % p, b))
                return acc

            table = {embed(e): e for e in field.elements()}
            lift = lambda e, _t=table: _t.get(e)
    Q = ext.order
    if (Q - 1) % n != 0:
        raise RuntimeError("extension misses the n-th roots")  # unreachable
    y = 1
    if n > 1:
        # the first y != 1 whose n/r-th powers all differ from 1 has order n
        y = next((g for g in (ext.pow(e, (Q - 1) // n) for e in range(2, Q))
                  if g != 1 and all(ext.pow(g, n // r) != 1 for r in prime_factors(n))), None)
        if y is None:
            raise RuntimeError("no element of exact order n")  # unreachable
    walk = [1]
    for _ in range(n - 1):
        walk.append(ext.mul(walk[-1], y))
    k0 = min(units(n), key=walk.__getitem__)
    powers = tuple(walk[k0 * j % n] for j in range(n))
    digits = np.array([ext._digits(v) for v in powers], dtype=np.int64)
    digits.flags.writeable = False
    return RootSystem(field, ext, n, powers[1 % n], embed, lift, powers, digits)


def minimal_polynomial(field: Field, n: int, coset: Iterable[int]) -> Polynomial:
    """Minimal polynomial over `field` of {alpha^i : i in coset}, alpha the
    canonical primitive n-th root.  The coset must be q-cyclotomic, i.e.
    closed under multiplication by q = |field| mod n."""
    q = field.order
    cs = sorted({i % n for i in coset})
    if not cs:
        raise ValueError("empty coset")
    if set((i * q) % n for i in cs) != set(cs):
        raise ValueError(f"{cs} is not a q-cyclotomic coset mod {n} (q={q})")
    return _coset_polynomial(field, n, tuple(cs))


@lru_cache(maxsize=None)
def _coset_polynomial(field: Field, n: int, coset: tuple[int, ...]) -> Polynomial:
    """The product of (x - alpha^i) over a validated, sorted coset C of size
    m, read off subset-sum counts and brought down to `field`.  Cached like
    root_system: every cyclic code over the same (field, n) shares its
    cosets' factors, and Polynomial is frozen.

    prod_(c in C) (x - alpha^c) = sum_k (-1)^k e_k x^(m-k), where e_k sums
    alpha^(c_1 + ... + c_k) over the k-subsets of C.  As alpha^n = 1, only
    the exponent sum mod n matters, so e_k = sum_t N_k(t) alpha^t with
    N_k(t) the number of k-subsets whose exponents sum to t mod n.  The
    (m + 1) x n table N starts as the empty subset (N_0(0) = 1) and takes
    the elements of C one at a time: the subsets that contain c are those
    without it, each with c added, so row k + 1 gains row k rolled by c.
    Only N mod p matters in characteristic p, so the rows are kept mod p.
    With the signs folded in, the digits of every coefficient are one
    product with root_system's digit table, exact by the linearity proved
    there; no product in the splitting field is formed.  The closure of C
    under multiplication by q puts every coefficient in `field`.
    """
    rs = root_system(field, n)
    p, m = field.characteristic, len(coset)
    counts = np.zeros((m + 1, n), dtype=np.int64)
    counts[0, 0] = 1
    for k, c in enumerate(coset):
        counts[1:k + 2] = (counts[1:k + 2] + np.roll(counts[:k + 1], c, axis=1)) % p
    counts[1::2] = -counts[1::2] % p
    down = []
    for row in (counts @ rs.digits % p)[::-1].tolist():
        v = rs.lift(rs.ext._encode(row))
        if v is None:
            raise RuntimeError("coefficient escaped the base field")  # closure says impossible
        down.append(v)
    return Polynomial(field, tuple(down))
