"""Cyclic and general linear codes: construction from defining sets, RREF
canonical forms, duals, idempotents, weight data, minimum distance, MDS tests,
and the one code-action test for every field.

A shift-invariant linear code becomes a CyclicCode through as_cyclic alone.
Its defining set is read off the cached minimal polynomials
(cyclic_defining_set): the cosets whose polynomial divides every RREF row,
by division over the base field.

Coordinates are 0-based everywhere.  permute_code follows the convention that
coordinate i of the image reads coordinate sigma^-1(i) of the source, so
sigma in Per(C) means permute_code(C, sigma) == C.

GF(p^s) is handled as GF(p)^s: an element is its vector of base-p digits and
multiplication by b is the s x s matrix algebra.multiplication_matrices gives
for b.  A matrix over GF(p^s) expands to a matrix over GF(p) with one s x s
block per entry, so every product of code matrices is one integer matmul mod
p, and s = 1 is plain prime-field arithmetic.  On that rest the batched test
maps_onto (does sigma map C1 onto C2, for a whole array of sigmas at once:
one stacked product for a small batch, a reduction over the survivors for
a large one), which every witness scan and every leaf of the search calls,
and the one message-to-codeword product behind the level listing
_level_words and reencodes_onto.  The library walks codewords two ways,
both by Z-levels (messages of weight t, first nonzero entry 1), and never
lists all q^k words: _level_words encodes actual words, for
min_weight_words, and _level_blocks counts, for every head-tail pair of a
level, the non-pivot columns where its word is nonzero, with no product:
it adds scaled rows of G digit by digit and compares partial sums.
min_distance takes the least count of each level, and weight_profile
counts every level's words by weight.  min_weight_words lists one
minimum-weight word per support from the levels, given the exact distance,
with the window theorem of _has_windows that also gives min_distance its
cyclic bound.  permute_code is the public transform.  Every map the library
reports, a witness of equivalence or an automorphism generator, is checked
again by reencodes_onto, which reads G1 and G2 alone, never H: it
re-encodes each permuted row of G1 from its values on the pivots of C2 and
runs no elimination.  fixed_by is its case C2 = C1.

Two routines eliminate over GF(q).  rref, one Gauss-Jordan pass over a
single matrix, gives the RREF that identifies a code (from_rows,
permute_code, dual).  _eliminate, a forward pass over a batch of matrices
at once, runs each rank step of min_distance on a batch of column subsets.
A cyclic code needs neither: CyclicCode.linear writes its RREF in closed
form.  GF(p) multiplies mod p; GF(p^s) looks products and differences up in
q x q tables.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, gcd
from typing import Iterable, Iterator, Sequence

import numpy as np

from .algebra import (
    Field,
    Polynomial,
    make_field,
    minimal_polynomial,
    multiplication_matrices,
    poly_mod,
    root_system,
)
from .perm import Permutation, _row_chunks

DEFAULT_DISTANCE_BUDGET = 20_000_000
ENUMERATION_BOUND = 1 << 20


def cyclotomic_coset(n: int, q: int, i: int) -> tuple[int, ...]:
    """The q-cyclotomic coset of i mod n, sorted."""
    if n < 1 or gcd(n, q) != 1:
        raise ValueError(f"need n >= 1 and gcd(n, q) = 1, got n={n}, q={q}")
    i %= n
    out = {i}
    j = i * q % n
    while j != i:
        out.add(j)
        j = j * q % n
    return tuple(sorted(out))


def cyclotomic_cosets(n: int, q: int) -> list[tuple[int, ...]]:
    """Partition of {0..n-1} into q-cyclotomic cosets, sorted by least element."""
    if n < 1 or gcd(n, q) != 1:
        raise ValueError(f"need n >= 1 and gcd(n, q) = 1, got n={n}, q={q}")
    seen: set[int] = set()
    out = []
    for i in range(n):
        if i in seen:
            continue
        cs = cyclotomic_coset(n, q, i)
        seen.update(cs)
        out.append(cs)
    return out


@lru_cache(maxsize=None)
def _tables(field: Field) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """The read-only inverse table (inv[0] = 0) and, for s > 1, the q x q
    product and difference tables of GF(p^s), read off
    multiplication_matrices, in the smallest unsigned type.  GF(p) has no
    product table, so large primes need no q x q memory: its products are
    taken mod p, in int16 while (p-1)^2 + p-1 fits."""
    p, s, q = field.characteristic, field.degree, field.order
    if s == 1:
        dtype = np.int16 if p * (p - 1) < 1 << 15 else np.int64
        inv, mul, sub = np.array([0] + [pow(v, -1, p) for v in range(1, p)], dtype=dtype), None, None
    else:
        M = multiplication_matrices(field)
        digits, place, dtype = M[:, 0], p ** np.arange(s), np.min_scalar_type(q - 1)
        mul = (np.einsum("as,bst->abt", digits, M) % p @ place).astype(dtype)
        sub = ((digits[:, None] - digits[None]) % p @ place).astype(dtype)
        inv = np.argmax(mul == 1, axis=1).astype(dtype)
    for table in (inv, mul, sub):
        if table is not None:
            table.flags.writeable = False
    return inv, mul, sub


def _subtract(a: np.ndarray, f: np.ndarray, b: np.ndarray, field: Field) -> None:
    """a -= f * b over `field`, in place, with broadcasting."""
    _, mul, sub = _tables(field)
    if mul is None:
        a -= f * b
        a %= field.characteristic
    else:
        a[...] = sub[a, mul[f, b]]


def _eliminate(M: np.ndarray, field: Field) -> tuple[np.ndarray, np.ndarray]:
    """Forward Gaussian elimination over GF(q) of every matrix of the
    (B, r, c) batch M at once, one row at a time and without row swaps:
    row i is scaled so that its first nonzero entry, its pivot, is 1, and
    its pivot column is cleared in the rows below it.  Returns the reduced
    copy of M and the (B, r) pivot columns, -1 for a row that is zero when
    its turn comes, that is a row dependent on the rows above it.  The rank
    steps of min_distance run it on batches of column subsets.

    Each pivot column is zero in every later row, so the first nonzero of
    a row is never in a column already used.  A zero row is scaled by
    inv[0] = 0 and clears with factor 0, so no batch needs masking."""
    inv, mul, _ = _tables(field)
    R = M.astype(inv.dtype)
    batch = np.arange(len(R))
    pivots = np.empty(R.shape[:2], dtype=np.int64)
    for i in range(R.shape[1]):
        row, below = R[:, i], R[:, i + 1:]
        piv = np.argmax(row != 0, axis=1)
        lead = row[batch, piv]
        pivots[:, i] = np.where(lead != 0, piv, -1)
        if mul is None:
            row *= inv[lead, None]
            row %= field.characteristic
        else:
            row[...] = mul[inv[lead, None], row]
        _subtract(below, below[batch, :, piv, None], row[:, None], field)
    return R, pivots


def rref(rows: Sequence[Sequence[int]] | np.ndarray, field: Field) -> tuple[tuple[int, ...], ...]:
    """Reduced row-echelon form over `field`; zero rows dropped.  The result is
    the unique canonical basis of the row space, so it doubles as a code id.

    One Gauss-Jordan pass over the rows in their given order: a row that is
    not zero when its turn comes is scaled, only when its first nonzero
    entry, its lead, is not 1 already, and its lead column is cleared in
    the other rows where it is nonzero; the rows kept are then sorted by
    lead column.  A row's lead never moves after its turn: a later lead
    column left of it is zero in that row, since its lead is its first
    nonzero, and one right of it is cleared with a row that is zero up to
    there, and zero in this row's lead column too, which was cleared
    earlier.  So each lead column ends as a unit column, and the sorted
    rows are the RREF."""
    M = np.asarray(rows)
    if not M.size:
        return ()
    inv, mul, _ = _tables(field)
    R = M.astype(inv.dtype)
    leads = {}                                      # lead column -> row
    for i, row in enumerate(R):
        nonzero = row.nonzero()[0]
        if not nonzero.size:
            continue
        c = nonzero[0]
        if row[c] != 1:
            if mul is None:
                row *= inv[row[c]]
                row %= field.characteristic
            else:
                row[...] = mul[inv[row[c]], row]
        hit = R[:, c].nonzero()[0]
        if hit.size > 1:
            hit = hit[hit != i]
            block = R[hit]
            _subtract(block, block[:, c, None], row, field)
            R[hit] = block
        leads[c] = i
    return tuple(map(tuple, R[[leads[c] for c in sorted(leads)]].tolist()))


@dataclass(frozen=True)
class LinearCode:
    """Linear code identified by the RREF canonical form of its generator matrix."""
    field: Field
    n: int
    matrix: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(field: Field, n: int, rows: Sequence[Sequence[int]]) -> "LinearCode":
        M = np.array(rows)
        if len(rows) and (M.shape != (len(rows), n) or M.dtype.kind not in "biu"
                          or ((M < 0) | (M >= field.order)).any()):
            raise ValueError(f"rows must form a {len(rows)} x {n} matrix over {field!r}")
        return LinearCode(field, n, rref(M, field))

    @property
    def k(self) -> int:
        return len(self.matrix)

    @cached_property
    def generator(self) -> np.ndarray:
        """The RREF generator matrix G, read-only (k, n) int64."""
        G = np.array(self.matrix, dtype=np.int64).reshape(self.k, self.n)
        G.flags.writeable = False
        return G

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """The pivot column of each row of the RREF."""
        return tuple(next(j for j, v in enumerate(row) if v) for row in self.matrix)

    def dual(self) -> "LinearCode":
        """Kernel of the generator matrix under the standard inner product."""
        return LinearCode(self.field, self.n, rref(self.parity_check, self.field))

    @cached_property
    def parity_check(self) -> np.ndarray:
        """A parity-check matrix H, read-only (n-k, n), whose rows are the
        dual's basis read off the RREF: for each non-pivot column f, the
        word with 1 at f and minus column f of G at the pivots.  So
        H[:, free] = I and H[:, pivots] = -G[:, free]^T, negated mod p over
        GF(p) and by row 0 of the difference table, 0 - a, over GF(p^s)."""
        n, k = self.n, self.k
        G = self.generator
        free = np.ones(n, dtype=bool)
        free[list(self.pivots)] = False
        _, _, sub = _tables(self.field)
        cols = G[:, free].T
        H = np.zeros((n - k, n), dtype=np.int64)
        H[:, free] = np.eye(n - k, dtype=np.int64)
        H[:, list(self.pivots)] = -cols % self.field.characteristic if sub is None else sub[0][cols]
        H.flags.writeable = False
        return H

    @cached_property
    def _shift_invariant(self) -> bool:
        """Whether the cyclic shift maps the code onto itself, tested once
        per code by maps_onto (is_shift_invariant reads it)."""
        return bool(maps_onto(self, self, [Permutation.shift(self.n).images])[0])

    @cached_property
    def _distances(self) -> dict[int, "DistanceResult"]:
        """min_distance's results, by budget."""
        return {}

    def codeword_count(self) -> int:
        return self.field.order ** self.k

    def _encode(self, digits: np.ndarray) -> np.ndarray:
        """The codewords, as (B, n) field elements, of the messages whose
        base-p digit vectors are the rows of the (B, k*s) array `digits`: one
        matmul mod p with the expanded generator gives the digits of each
        codeword, read back as field elements."""
        digits = digits @ self.expanded_generator
        digits %= self.field.characteristic
        return _elements(self.field, digits)

    @cached_property
    def expanded_generator(self) -> np.ndarray:
        """The generator matrix over GF(p), (k*s, n*s): entry G[i][j] becomes
        the s x s block of multiplication by it, so digits(m G) =
        digits(m) @ expanded_generator mod p.  Rows 0, s, 2s, ... are the
        digit vectors of the rows of G."""
        return _expand(self.field, self.generator)

    @cached_property
    def scaled_rows(self) -> np.ndarray:
        """The GF(p) digits of c * G_j on the n - k non-pivot columns, for
        every row j of G and every field element c, as a read-only
        (k, q, (n-k)*s) array of unsigned integers wide enough for a sum of
        two digits and for a field element (uint8 for q < 128)."""
        p, s = self.field.characteristic, self.field.degree
        digits = multiplication_matrices(self.field)[:, 0]     # row c: digits of c
        free = np.ones(self.n, dtype=bool)
        free[list(self.pivots)] = False
        rows = self.expanded_generator.reshape(self.k, s, -1)[:, :, np.repeat(free, s)]
        table = digits @ rows % p
        out = table.astype(np.min_scalar_type(2 * self.field.order))
        out.flags.writeable = False
        return out

    @cached_property
    def expanded_parity(self) -> np.ndarray:
        """The transposed parity-check matrix over GF(p), (n*s, (n-k)*s): the
        word w is in the code iff digits(w) @ expanded_parity = 0 mod p."""
        return _expand(self.field, self.parity_check.T)


def _expand(field: Field, matrix: np.ndarray) -> np.ndarray:
    """A (r, c) matrix over GF(p^s) as the (r*s, c*s) matrix over GF(p) whose
    block (i, j) is the multiplication matrix of entry (i, j), in C order
    (maps_onto gathers its rows)."""
    r, c = matrix.shape
    s = field.degree
    blocks = multiplication_matrices(field)[matrix]          # (r, c, s, s)
    out = np.ascontiguousarray(blocks.transpose(0, 2, 1, 3).reshape(r * s, c * s))
    out.flags.writeable = False
    return out


def _elements(field: Field, digits: np.ndarray) -> np.ndarray:
    """Rows of n*s GF(p) digits, (B, n*s), read back as (B, n) field
    elements."""
    p, s = field.characteristic, field.degree
    digits = digits.reshape(len(digits), -1, s)
    out = digits[:, :, s - 1]
    for t in range(s - 2, -1, -1):
        out = out * p + digits[:, :, t]
    return out


# The largest batch maps_onto tests with one stacked product, in entries of
# its gathered parity rows (B * n*s * (n-k)*s; 512 KB of int64).  On the
# benchmark's workloads the largest stacked batch has 41,292 entries (GF(11)
# [37,6], 36 multipliers; stacked 2.2-3.6x faster than the survivor
# reduction) and the smallest larger one 66,825 (GF(3) n = 15, k = 6, 495
# rows; stacked 1.6-2.7x slower), timed per call on both paths
_STACKED_ENTRIES = 1 << 16


def maps_onto(c1: LinearCode, c2: LinearCode,
              images: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
    """The code-action test, batched: row b of the (B, n) array `images`
    holds sigma_b (images[b][i] = sigma_b(i)), and entry b of the boolean
    result says whether sigma_b maps c1 onto c2, that is whether
    permute_code(c1, sigma_b) == c2.  An empty batch gives an empty result.

    sigma maps c1 onto c2 iff k1 = k2 and G1[:, sigma^-1] H2^T = 0, which is
    G1 (H2[:, sigma])^T = 0: every generator row g of c1 has
    sum_i g_i H2[:, sigma(i)] = 0.  It is checked over GF(p) on the expanded
    matrices, so no inverse is needed.  A small batch, whose gathered
    parity rows H2[:, sigma_b] have at most _STACKED_ENTRIES entries in all,
    takes one stacked product G1 H2[:, sigma]^T mod p; a single permutation,
    the leaf test of the search, is such a batch.  A larger one, such as a
    witness scan of H(P) or H'(P), is reduced one generator row at a time
    over the survivors, summing the gathered parity-check rows in the
    smallest integer type that holds n*s*(p-1)^2, so temporaries stay at
    (B, n) small integers: most rows fail on the first generator rows, and
    a stacked product would pay for all of them.
    """
    images = np.asarray(images)
    if not len(images):
        return np.zeros(0, dtype=bool)
    B, n = images.shape
    if n != c1.n or n != c2.n:
        raise ValueError(f"permutation degree {n} != code lengths {c1.n}, {c2.n}")
    if c1.k != c2.k:
        return np.zeros(B, dtype=bool)
    p, s = c1.field.characteristic, c1.field.degree
    G = c1.expanded_generator[::s]                # digit rows of G1, (k, n*s)
    H = c2.expanded_parity
    m = H.shape[1]
    if B * n * s * m <= _STACKED_ENTRIES:
        product = G @ H.reshape(n, s * m).take(images, axis=0).reshape(B, n * s, m)
        product %= p
        if B == 1:      # the leaf test of the search: a count is cheaper than a reduction
            return np.array([not np.count_nonzero(product)])
        return ~product.any(axis=(1, 2))
    H = H.reshape(n, s, m).astype(np.min_scalar_type(n * s * (p - 1) ** 2))
    alive = np.arange(B)
    for g in G.reshape(-1, n, s):
        moved = images[alive]
        acc = np.zeros((alive.size, m), dtype=H.dtype)
        for i, t in zip(*np.nonzero(g)):
            acc += int(g[i, t]) * H[moved[:, i], t]
        alive = alive[~(acc % p).any(axis=1)]
        if not alive.size:
            break
    mask = np.zeros(B, dtype=bool)
    mask[alive] = True
    return mask


def permute_code(code: LinearCode, sigma: Permutation) -> LinearCode:
    if sigma.degree != code.n:
        raise ValueError(f"permutation degree {sigma.degree} != code length {code.n}")
    return LinearCode(code.field, code.n,
                      rref(code.generator[:, list(sigma.inverse().images)], code.field))


def reencodes_onto(c1: LinearCode, c2: LinearCode, sigmas: Sequence[Permutation]) -> np.ndarray:
    """Entry b says whether sigmas[b] maps c1 onto c2, as
    permute_code(c1, sigmas[b]) == c2 does for two codes over one field.  It
    reads G1 and G2 alone, never H, so it checks the findings of maps_onto,
    whose test is G1 H2[:, sigma]^T = 0, independently.  Each row of G1,
    with its columns permuted by sigmas[b]^-1, is re-encoded from its values
    on the pivot columns of c2 (G2 is in RREF, so a word lies in c2 iff it
    is the encoding of its values there) and compared with itself.  With
    k1 = k2, which is tested first, sigmas[b] maps c1 onto c2 iff every
    permuted row lies in c2, since the permuted rows span a code of
    dimension k1."""
    k, n = c1.k, c1.n
    if c2.n != n or any(s.degree != n for s in sigmas):
        raise ValueError(f"permutation degrees and code lengths {n}, {c2.n} must agree")
    if k != c2.k:
        return np.zeros(len(sigmas), dtype=bool)
    if not (k and len(sigmas)):
        return np.ones(len(sigmas), dtype=bool)
    inverses = np.array([s.inverse().images for s in sigmas], dtype=np.int64)
    rows = c1.generator[:, inverses].transpose(1, 0, 2).reshape(-1, n)     # (B*k, n)
    digits = multiplication_matrices(c1.field)[:, 0]               # row v: digits of v
    messages = digits[rows[:, list(c2.pivots)]].reshape(len(rows), -1)
    same = (c2._encode(messages) == rows).all(axis=1)
    return same.reshape(len(sigmas), k).all(axis=1)


def fixed_by(code: LinearCode, sigmas: Sequence[Permutation]) -> np.ndarray:
    """Entry b says whether sigmas[b] maps the code onto itself:
    reencodes_onto with the code as its own target."""
    return reencodes_onto(code, code, sigmas)


def is_shift_invariant(code: LinearCode) -> bool:
    return code._shift_invariant


@dataclass(frozen=True)
class CyclicCode:
    """Cyclic code determined by (field, n, defining_set).

    defining_set holds the exponents i such that alpha^i is a root of every
    codeword; it must be a union of q-cyclotomic cosets mod n.
    """
    field: Field
    n: int
    defining_set: frozenset[int]

    def __post_init__(self):
        q, n = self.field.order, self.n
        if n < 1 or gcd(n, self.field.characteristic) != 1:
            raise ValueError(f"need n >= 1 coprime to the field characteristic, got n={n}")
        ds = {i % n for i in self.defining_set}
        object.__setattr__(self, "defining_set", frozenset(ds))
        if {i * q % n for i in ds} != ds:
            raise ValueError(f"defining set {sorted(ds)} is not Frobenius-closed mod {n} (q={q})")

    @property
    def k(self) -> int:
        return self.n - len(self.defining_set)

    @cached_property
    def generator_poly(self) -> Polynomial:
        g = Polynomial(self.field, (1,))
        for cs in self.cosets():
            g = g * minimal_polynomial(self.field, self.n, cs)
        return g

    @cached_property
    def idempotent(self) -> Polynomial:
        """The unique e with e^2 = e mod x^n - 1 generating the code,
        computed once per code, by the inverse discrete Fourier transform.

        e takes the value 0 at alpha^i for i in the defining set Z and 1 at
        every other n-th root of unity: its values are 0 and 1, so e^2 = e,
        and its zeros are exactly Z, so it generates the code.  The inverse
        transform gives e_j = n^-1 sum_(i not in Z) alpha^(-ij), n being a
        unit mod p.  As alpha^n = 1 only -ij mod n matters, so
        e_j = sum_t N(j, t) alpha^t with N(j, t) = n^-1 #{i not in Z :
        -ij = t mod n}, kept mod p.  The digits of every coefficient are one
        product of N with root_system's digit table, exact by the linearity
        proved there, and each is brought down to the base field, where the
        Frobenius closure of Z puts it.  The zero code yields the zero
        polynomial.

        The idempotent law is checked in digits: multiplication by c is the
        GF(p)-linear map multiplication_matrices[c], so the digits of
        coefficient k of e^2 mod x^n - 1 are the sum over i of the digits
        of e_i times the matrix of e_(k - i mod n), mod p.
        """
        F, n = self.field, self.n
        rs = root_system(F, n)
        p = F.characteristic
        kept = np.array(sorted(set(range(n)) - self.defining_set), dtype=np.int64)
        t = -np.outer(np.arange(n), kept) % n
        cells = (np.arange(n)[:, None] * n + t).ravel()
        counts = np.bincount(cells, minlength=n * n).reshape(n, n) * pow(n, -1, p) % p
        coeffs = []
        for row in (counts @ rs.digits % p).tolist():
            v = rs.lift(rs.ext._encode(row))
            if v is None:
                raise RuntimeError("coefficient escaped the base field")  # closure says impossible
            coeffs.append(v)
        M = multiplication_matrices(F)
        e = np.array(coeffs, dtype=np.intp)
        gap = (np.arange(n)[:, None] - np.arange(n)) % n         # gap[k, i] = k - i mod n
        if (np.einsum("is,kist->kt", M[e, 0], M[e[gap]]) % p != M[e, 0]).any():
            raise RuntimeError("idempotent law failed")
        return Polynomial(F, tuple(coeffs))

    def cosets(self) -> list[tuple[int, ...]]:
        """The cyclotomic cosets whose union is the defining set, sorted by
        least element."""
        return [cs for cs in cyclotomic_cosets(self.n, self.field.order)
                if cs[0] in self.defining_set]

    @cached_property
    def linear(self) -> LinearCode:
        """The code as a LinearCode, its RREF written in closed form.  Any k
        consecutive coordinates of a cyclic code form an information set, so
        the pivots are 0..k-1 and row i is the one codeword that is e_i
        there.  It is x^k (x^(n-k+i) - (x^(n-k+i) mod g)) mod x^n - 1: e_i,
        then the coefficients of -(x^(n-k+i) mod g) on k..n-1.  Each
        remainder is the one before it times x, reduced by g once."""
        F, n, k = self.field, self.n, self.k
        g = np.array(self.generator_poly.coeffs, dtype=np.int64)
        if len(g) != n - k + 1:
            raise RuntimeError("generator degree disagrees with defining set size")
        rows = np.zeros((k, n), dtype=np.int64)
        rows[:, :k] = np.eye(k, dtype=np.int64)
        tail = g[:-1]                           # -(x^(n-k) mod g), as g is monic
        for i in range(k):
            rows[i, k:] = tail
            shifted = np.concatenate(([0], tail))
            _subtract(shifted, shifted[-1], g, F)
            tail = shifted[:-1]
        return LinearCode(F, n, tuple(map(tuple, rows.tolist())))

    def dual(self) -> "CyclicCode":
        """Dual defining set: complement of the negated set mod n.  Verified
        against the matrix-kernel construction for small lengths."""
        n = self.n
        neg = {(-i) % n for i in self.defining_set}
        dual_ds = frozenset(set(range(n)) - neg)
        out = CyclicCode(self.field, n, dual_ds)
        if n <= 64 and out.linear != self.linear.dual():
            raise RuntimeError("dual defining-set formula disagrees with matrix kernel")
        return out

    def __repr__(self) -> str:
        return f"CyclicCode(q={self.field.order}, n={self.n}, ds={sorted(self.defining_set)})"


def cyclic_code(n: int, field: Field, defining_set: Iterable[int]) -> CyclicCode:
    """Public constructor mirroring the defining-set contract."""
    return CyclicCode(field, n, frozenset(defining_set))


def count_cyclic_codes(n: int, field: Field) -> int:
    return 2 ** len(cyclotomic_cosets(n, field.order))


def enumerate_cyclic_codes(n: int, field: Field) -> list[CyclicCode]:
    """All cyclic codes of length n over the field, by coset-union bitmask,
    ordered with the zero code last (mask ascending over cosets sorted by
    least element)."""
    cosets = cyclotomic_cosets(n, field.order)
    total = 2 ** len(cosets)
    if total > ENUMERATION_BOUND:
        raise ValueError(f"too many cyclic codes to list: {total}")
    out = []
    for mask in range(total):
        ds: set[int] = set()
        for b, cs in enumerate(cosets):
            if mask >> b & 1:
                ds.update(cs)
        out.append(CyclicCode(field, n, frozenset(ds)))
    return out


def is_elementary(code: LinearCode) -> bool:
    """Zero code, full space, repetition code, or its dual (the sum-zero code).
    These are exactly the cyclic codes with permutation group S_n."""
    n, k = code.n, code.k
    if k in (0, n):
        return True
    if k == 1:
        return all(v == code.matrix[0][0] for v in code.matrix[0]) and code.matrix[0][0] != 0
    if k == n - 1:      # the sum-zero code's RREF: rows e_i - e_(n-1)
        minus_one = code.field.neg(1)
        return code.matrix == tuple(
            tuple(1 if j == i else (minus_one if j == n - 1 else 0) for j in range(n))
            for i in range(n - 1))
    return False


@dataclass(frozen=True)
class WeightProfile:
    counts: tuple[int, ...]     # counts[w] = number of codewords of weight w
    exact: bool

    @property
    def min_weight(self) -> int:
        for w in range(1, len(self.counts)):
            if self.counts[w]:
                return w
        return 0


def weight_profile(code: LinearCode, budget: int = DEFAULT_DISTANCE_BUDGET) -> WeightProfile:
    """Exhaustive weight distribution, counted on the smaller side from its
    Z-levels.  A word and its scalar multiples have one weight, so the side
    of dimension k has one zero word and q - 1 times as many words of each
    weight as levels 1..k hold: level t adds each block of _level_blocks,
    counted by entry, at weight t plus the entry, the masked sentinel
    n - k + 1 left out.  When n - k < k the dual's distribution B is
    counted and the MacWilliams identity (MacWilliams-Sloane, ch. 5) gives
    the code's in exact integers: A_w = q^-(n-k) sum_j B_j K_w(j), with the
    Krawtchouk value K_w(j) = sum_i (-1)^i (q-1)^(w-i) C(j, i) C(n-j, w-i).
    Raises when the side counted has more than `budget` words; callers
    that can live with partial data should use min_distance instead."""
    n, q = code.n, code.field.order
    side = code.dual() if n - code.k < code.k else code
    if side.codeword_count() > budget:
        raise ValueError(f"weight profile needs {side.codeword_count()} enumerations, budget {budget}")
    free = n - side.k
    counts = np.zeros(n + 1, dtype=np.int64)
    for t in range(1, side.k + 1):
        for block in _level_blocks(side, t):
            counts[t:t + free + 1] += np.bincount(block.ravel(), minlength=free + 2)[:free + 1]
    counts *= q - 1
    counts[0] = 1
    if side is code:
        return WeightProfile(tuple(int(c) for c in counts), True)
    dual = [(j, int(b)) for j, b in enumerate(counts) if b]
    return WeightProfile(tuple(
        sum(b * sum((-1) ** i * (q - 1) ** (w - i) * comb(j, i) * comb(n - j, w - i)
                    for i in range(w + 1)) for j, b in dual) // side.codeword_count()
        for w in range(n + 1)), True)


@dataclass(frozen=True)
class DistanceResult:
    lower: int
    upper: int
    exact: bool

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError("distance not certified")
        return self.lower


def min_distance(code: LinearCode, budget: int = DEFAULT_DISTANCE_BUDGET) -> DistanceResult:
    """Minimum distance, exact when a budget-bounded certificate exists.
    The result depends on the code and the budget alone, and each code keeps
    its results by budget (LinearCode._distances), so it is computed once
    per code and budget.

    One loop raises `bound`, a lower bound on the weight of every codeword
    not yet seen, and lowers `best`, the least weight seen so far (starting
    from the rows of G), until bound >= best; then d = best.  It has two
    kinds of step.

    Z-level t (Brouwer-Zimmermann: Betten et al., Error-Correcting Linear
    Codes, 2006; Grassl 2006) takes every codeword whose message has weight
    exactly t and first nonzero entry 1, C(k, t) (q-1)^(t-1) words, and
    keeps the least weight.  G is in RREF, so a codeword restricted to the
    pivot columns is its message, of weight t; _level_blocks, which the
    weight profiles walk too, splits each word into a head and a tail and
    counts the n - k non-pivot columns where -head and tail differ, one
    comparison per column, in blocks of at most 2^16 head-tail pairs, or
    2^13 where a block spans the heads of several positions: the sizes that
    ran fastest with caches flushed before each level, as the benchmark
    flushes them between requests.
    Level 1 is the rows of G, already in best.

    Theorem (information sets).  After levels 1..t, every codeword with at
    most t nonzeros on the pivots has been seen up to a scalar, so every
    word not yet seen has weight >= t + 1.  When the code has windows
    (_has_windows), an unseen word has more than t nonzeros in each of the
    n windows, so its weight is at least ceil(n(t+1)/k).

    B-step w tests every w-subset of parity-check columns for linear
    dependence, in _eliminate batches; for shift-invariant codes only the
    subsets that contain coordinate 0, since a shift moves any support onto
    0.  Theorem: after clean steps 1..w-1, a dependent w-subset carries a
    codeword of weight exactly w, so d = w; a clean step w gives d >= w + 1.
    The loop offers B-steps over prime fields only: over GF(p^s) they are
    not yet measured against the levels.

    Choice of step.  The plan of a kind takes its steps alone, in order,
    while they fit the remaining budget and the bound is below best, and
    adds up their cost in one measured unit, the compared coordinate: a Z
    word costs the n - k comparisons _level_weight makes for it; a subset
    of B-step w costs the operations of its elimination,
    _elimination_ops(n - k, w), times _ELIMINATION_OP_COST, the measured
    ratio of the time of one such operation to that of one comparison
    (tools/calibrate_distance.py).  The loop follows the plan that reaches
    the highest bound, the cheaper one among equals, and takes a Z-level
    ahead of a rank plan while the level costs no more than the next
    B-step and the rank plan still reaches its bound without the level's
    budget (a level may lower best).  Costs only break ties, so no step
    gives up a bound or a certificate that one kind alone could still
    reach: the result is exact whenever one kind alone certifies within
    the budget, in particular whenever all (q^k - 1)/(q - 1) words fit,
    and otherwise its lower end is at least what the rank steps alone
    reach.

    The budget counts Z words and B subsets, not their cost; each level or
    step is taken whole or not at all, so the answer does not depend on
    chunk sizes.
    When no useful step fits, best is also compared, outside the budget,
    with the first 2^16 words of levels 2 and 3, and the result is exact
    if that closes the gap, else the interval [bound, best].
    """
    if budget not in code._distances:
        code._distances[budget] = _min_distance(code, budget)
    return code._distances[budget]


def _min_distance(code: LinearCode, budget: int) -> DistanceResult:
    """The computation behind min_distance."""
    F, n, k = code.field, code.n, code.k
    if k == 0:
        return DistanceResult(0, 0, True)
    if k == n:
        return DistanceResult(1, 1, True)
    q = F.order
    cyclic = is_shift_invariant(code)
    windows = _has_windows(code, cyclic)
    best = min(sum(1 for v in row if v) for row in code.matrix)
    kinds = ("Z", "B") if F.is_prime_field else ("Z",)

    def bound(t: int, w: int) -> int:
        """Least weight of a codeword unseen after Z-levels 1..t and clean
        B-steps 1..w."""
        if t == k:                    # every codeword has been seen
            return n + 1
        return max(-(-n * (t + 1) // k) if windows else t + 1, w + 1)

    def step(kind: str, t: int, w: int) -> tuple[int, int]:
        """Budget units of the next step of `kind`, and its cost in
        compared coordinates."""
        if kind == "Z":
            units = comb(k, t + 1) * (q - 1) ** t
            return units, units * (n - k)
        units = comb(n - 1, w) if cyclic else comb(n, w + 1)
        return units, units * _elimination_ops(n - k, w + 1) * _ELIMINATION_OP_COST

    def plan(kind: str, t: int, w: int, room: int) -> tuple[int, int, int]:
        """Bound reached (at most best), cost and steps of the steps of
        `kind` alone from (t, w) within `room` budget units."""
        total = taken = 0
        while bound(t, w) < best:
            units, cost = step(kind, t, w)
            if units > room:
                break
            room -= units
            total += cost
            taken += 1
            t, w = (t + 1, w) if kind == "Z" else (t, w + 1)
        return min(bound(t, w), best), total, taken

    t = w = spent = 0                 # Z-levels 1..t and B-steps 1..w done
    while bound(t, w) < best:
        room = budget - spent
        plans = {kind: plan(kind, t, w, room) for kind in kinds}
        # a level that fits may lower best; a rank plan must raise the bound
        useful = [kind for kind, (reach, _, taken) in plans.items()
                  if taken and (kind == "Z" or reach > bound(t, w))]
        if not useful:
            break
        goal = max(plans[kind][0] for kind in useful)
        kind = min((kind for kind in useful if plans[kind][0] == goal),
                   key=lambda kind: plans[kind][1])
        if kind == "B" and "Z" in useful:
            units, cost = step("Z", t, w)
            if cost <= step("B", t, w)[1] and plan("B", t, w, room - units)[0] >= goal:
                kind = "Z"
        spent += step(kind, t, w)[0]
        if kind == "Z":
            t += 1
            if t > 1:
                best = min(best, _level_weight(code, t))
        else:
            w += 1
            if _rank_step(code, w, cyclic):
                return DistanceResult(w, w, True)
    lower = bound(t, w)
    if lower < best:
        words = itertools.chain(_level_words(code, 2), _level_words(code, 3))
        for block in _first_rows(words, 1 << 16):
            best = min(best, int(np.count_nonzero(block, axis=1).min()))
    return DistanceResult(min(lower, best), best, lower >= best)


# The cost of one elimination operation of a B subset in compared
# coordinates of a Z word, the ratio of their times: the median over the
# parameter table's codes that tools/calibrate_distance.py prints, 9.6-11.3
# in eight runs on a 2-core x86-64 (ratios per code from 5 to 40).  It was
# 7.8-9.7 while the Z-levels looped over positions, at 0.15-0.96 ns per
# compared coordinate against 0.12-0.40 now; 10 is kept, since another
# value could move the partial intervals
_ELIMINATION_OP_COST = 10


def _elimination_ops(r: int, w: int) -> int:
    """Array operations of eliminating one w-subset of the r = n - k rows of
    H^T: three (multiply, subtract, reduce) for each of the about w^2/2 * r
    entries the elimination clears, plus about 6.5 for each entry of the w
    pivot rows, counted from the GF(p) arithmetic of _eliminate."""
    return w * (3 * w + 13) * r // 2


def _has_windows(code: LinearCode, cyclic: bool) -> bool:
    """Whether the code, shift-invariant when `cyclic`, has its RREF pivots
    at 0..k-1 (checked, not assumed).  Then every window of k cyclically
    consecutive coordinates is an information set, since a shift moves it
    onto 0..k-1 and keeps the weight, and every coordinate lies in k of the
    n windows: a word of weight w puts w*k nonzeros into the windows, so
    some window holds at most floor(wk/n) of them, and shifting that window
    onto 0..k-1 gives a codeword of weight w whose message has at most that
    weight."""
    return cyclic and code.pivots == tuple(range(code.k))


def min_weight_words(code: LinearCode, d: int) -> np.ndarray:
    """One codeword of weight d per support, as an (m, n) array whose rows
    are sorted by support, given the exact minimum distance d of a nonzero
    code.  One word stands for all words on its support: two minimum-weight
    words u, v with one support S are proportional, since for i in S the
    word u - (u_i / v_i) v is lighter and so zero.

    A weight-d word whose message has weight t is a multiple of a word of
    Z-level t.  A code with windows (_has_windows) has a shift of every
    weight-d word with a message of weight at most floor(dk/n), so levels
    1..floor(dk/n) and all n shifts of their weight-d words list every
    support; any other code takes levels 1..min(d, k)."""
    n, k = code.n, code.k
    windows = _has_windows(code, is_shift_invariant(code))
    top = d * k // n if windows else min(d, k)
    words = np.concatenate([block[np.count_nonzero(block, axis=1) == d]
                            for t in range(1, top + 1) for block in _level_words(code, t)])
    if windows:
        j = np.arange(n)
        words = words[:, (j - j[:, None]) % n].reshape(-1, n)
    # a support as one opaque byte string: packbits puts coordinate 0 in the
    # high bit, so byte order is the lexicographic order of the supports
    packed = np.packbits(words != 0, axis=1)
    _, first = np.unique(packed.view(f"V{packed.shape[1]}").ravel(), return_index=True)
    return words[first]


def _level_words(code: LinearCode, t: int) -> Iterator[np.ndarray]:
    """Z-level t in blocks: the codewords whose messages have weight t and
    first nonzero entry 1, in the order of _level_messages."""
    digits = multiplication_matrices(code.field)[:, 0]     # row b: digits of b
    for msgs in _level_messages(code.k, code.field.order, t):
        yield code._encode(digits[msgs].reshape(len(msgs), -1))


# The most head-tail pairs _level_blocks puts in one block: a run of heads
# that spans positions takes at most _SPAN_PAIRS, and one that stays at one
# position, or a single head, at most _BLOCK_PAIRS (see its docstring)
_SPAN_PAIRS = 1 << 13
_BLOCK_PAIRS = 1 << 16


def _level_weight(code: LinearCode, t: int) -> int:
    """Z-level t: the least weight of its codewords, t plus the least entry
    of its blocks (_level_blocks).  Every block holds a pair of the run's
    first head, which is not masked, so the sentinel is never the least."""
    return t + min(int(block.min()) for block in _level_blocks(code, t))


def _level_blocks(code: LinearCode, t: int) -> Iterator[np.ndarray]:
    """Z-level t in blocks of head-tail pairs: its codewords are the sums
    of t rows of G at distinct positions with nonzero coefficients, the
    first one 1, and each block is a (heads, tails) array that holds, for
    every pair, the number of non-pivot columns where the pair's word is
    nonzero, or the sentinel n - k + 1 for a masked pair.  A word's weight
    is t plus its entry.

    G is in RREF, so such a word equals its message on the pivot columns
    and has exactly t nonzeros there; only the n - k non-pivot columns
    (scaled_rows) are compared.  Each word is a head, its first a terms,
    plus a tail, its other t - a terms, all at later positions.  A
    coordinate of head + tail is zero exactly when the tail's entry there
    equals that of -head, so the entry is the number of non-pivot columns
    where -head and tail differ: one comparison per column, no product.
    The partial sums are built from scaled_rows over GF(p) by _extend, one
    gather per term, then read as field elements (for s > 1 two entries are
    equal when all s digits are); a is chosen to list the fewest heads and
    tails.

    The -heads are sorted by last position and the tails by first, so the
    heads ending at j pair with the suffix of tails that start after j.
    One loop walks runs of consecutive heads, each compared with the suffix
    of its first head, in blocks of at most _BLOCK_PAIRS tails.  A run that
    would reach _SPAN_PAIRS pairs before its first head's position ends
    stays at that position and grows to at most _BLOCK_PAIRS pairs (one
    head against at most _BLOCK_PAIRS tails at a time); any other run spans
    positions and stops at _SPAN_PAIRS pairs, and its pairs whose tail
    starts at or before the head's last position are masked.  The two caps
    were measured with caches flushed before each level, as the benchmark
    flushes them around every request (tools/time_levels.py): small blocks
    of many short positions stay in cache, while a long position, such as
    those of the 62.3M-word GF(13) [29,15] level 5, runs faster in large
    blocks.

    Theorem: call a pair valid when its tail starts after its head's last
    position.  The valid pairs are the words of level t, and each valid
    pair is an entry of exactly one block, once, and not masked.
    - Words and valid pairs.  A word splits into its a terms of least
      position, a head whose first coefficient is 1, and its other t - a
      terms, a tail that starts after the head's last position; a valid
      pair is a word.  _extend lists every head and every tail once: each
      increasing run of positions in the ranges that a word's terms can
      take, with each choice of coefficients.
    - Valid pairs and block entries.  The runs partition the heads, each
      starting where the last one ended.  Let head i lie in the run of
      first head h, whose last position is j.  The heads are sorted by last
      position, so head i's is at least j, and every tail that starts
      after it lies in the run's suffix, the tails that start after j,
      which the run's blocks partition.  So (i, tail) is in exactly one
      block, once.  A run at one position has only valid pairs, and a
      spanning run masks exactly the pairs that are not valid."""
    F, n, k = code.field, code.n, code.k
    p, q = F.characteristic, F.order
    scaled = code.scaled_rows
    a = min(range(1, t + 1), key=lambda a: comb(k - t + a, a) * (q - 1) ** (a - 1)
            + comb(k - a, t - a) * (q - 1) ** (t - a))
    negated = (p - scaled) % p
    heads = tails = np.zeros((1, scaled.shape[2]), dtype=scaled.dtype)
    last, first = np.array([-1]), np.array([k])
    for i in range(1, a + 1):       # the i-th term sits at i - 1 .. k - 1 - (t - i)
        terms = negated[:, 1:2] if i == 1 else negated[:, 1:]
        heads, last = _extend(heads, last, terms, np.arange(i - 1, k - t + i), p, after=True)
    for i in range(1, t - a + 1):   # the i-th last term sits at t - i .. k - i
        tails, first = _extend(tails, first, scaled[:, 1:], np.arange(t - i, k - i + 1), p,
                               after=False)
    heads = _elements(F, heads).T.copy()      # one row per coordinate
    tails = _elements(F, tails).T.copy()
    dtype = np.min_scalar_type(n)
    ends = np.searchsorted(last, np.arange(k), "right").tolist()     # heads ending at <= j
    after = np.searchsorted(first, np.arange(k), "right").tolist()   # tails starting <= j
    h, total = 0, len(last)
    while h < total:
        j = int(last[h])
        u, width, stop = after[j], len(first) - after[j], ends[j]
        end = h + max(1, _SPAN_PAIRS // width)
        spans = end > stop and stop < total
        end = min(end, total) if spans else min(h + max(1, _BLOCK_PAIRS // width), stop)
        for v in range(u, len(first), _BLOCK_PAIRS):
            w = min(v + _BLOCK_PAIRS, len(first))
            differ = (heads[:, h:end, None] != tails[:, None, v:w]).sum(axis=0, dtype=dtype)
            if spans:
                differ[first[v:w] <= last[h:end, None]] = n - k + 1
            yield differ
        h = end


def _extend(sums: np.ndarray, keys: np.ndarray, terms: np.ndarray, positions: np.ndarray,
            p: int, after: bool) -> tuple[np.ndarray, np.ndarray]:
    """Partial sums one term longer: for each position j, every sum whose
    key is below j (`after`: j comes after its last position) or above j
    (j comes before its first), plus each row of terms[j].  The sums are
    digit rows over GF(p) sorted by key; the result is keyed and sorted by
    j, and within j by row of terms[j].  All positions take one gather:
    the block of (j, row c) holds the sums[:cut_j] (`after`) or
    sums[cut_j:], so its i-th entry is sum number i, or cut_j + i.  Both
    digits are below p, and the unsigned type holds their sum, so a
    subtraction that wraps reduces it mod p without a division."""
    r = terms.shape[1]
    cuts = keys.searchsorted(positions, "left" if after else "right")
    sizes = (cuts if after else len(keys) - cuts).repeat(r)         # per block (j, c)
    block = np.arange(len(sizes)).repeat(sizes)
    offset = sizes - sizes.cumsum()         # minus the output index of the block's start
    if not after:
        offset += cuts.repeat(r)
    src = offset[block]
    src += np.arange(len(block))
    out = sums[src]
    out += terms[positions].reshape(-1, sums.shape[1])[block]
    np.minimum(out, out - p, out=out)       # mod p: below p, out - p wraps above out
    return out, positions[block // r]


def _first_rows(blocks: Iterable[np.ndarray], rows: int) -> Iterator[np.ndarray]:
    """The first `rows` rows of a sequence of blocks, as blocks."""
    for block in blocks:
        if rows <= 0:
            return
        yield block[:rows]
        rows -= len(block)


def _level_messages(k: int, q: int, t: int, chunk: int = 1 << 16) -> Iterator[np.ndarray]:
    """The messages of weight t whose first nonzero entry is 1, as (B, k)
    arrays of field elements: for each t-subset of positions, in
    lexicographic order, every choice of the t - 1 later entries, in
    lexicographic order too."""
    tails = (q - 1) ** (t - 1)
    place = (q - 1) ** np.arange(t - 2, -1, -1, dtype=np.int64)
    for pos in _row_chunks(itertools.combinations(range(k), t), t, max(1, chunk // tails)):
        for start in range(0, tails, chunk):
            v = np.arange(start, min(start + chunk, tails), dtype=np.int64)
            vals = np.ones((v.size, t), dtype=np.int64)
            vals[:, 1:] += v[:, None] // place % (q - 1)
            msgs = np.zeros((len(pos), v.size, k), dtype=np.int64)
            where = np.broadcast_to(pos[:, None, :], (len(pos), v.size, t))
            np.put_along_axis(msgs, where, vals[None], axis=2)
            yield msgs.reshape(-1, k)


def _rank_step(code: LinearCode, w: int, cyclic: bool) -> bool:
    """B-step w: whether some w-subset of parity-check columns, containing
    column 0 when `cyclic`, is linearly dependent: each chunk of subsets is
    one _eliminate batch of rows of H^T over GF(q), and a subset is
    dependent when some row of it has no pivot.  It holds over every field;
    that min_distance offers B-steps over prime fields only is a choice of
    its planner."""
    Ht, n = code.parity_check.T, code.n
    if cyclic:
        subsets = ((0,) + c for c in itertools.combinations(range(1, n), w - 1))
    else:
        subsets = itertools.combinations(range(n), w)
    return any((_eliminate(Ht[subs], code.field)[1] < 0).any()
               for subs in _row_chunks(subsets, w, 65536))


@dataclass(frozen=True)
class MdsResult:
    is_mds: bool
    gcd_condition: bool     # gcd(n-2, d-2) = 1
    d: int


def is_mds(code: LinearCode, dist: DistanceResult | None = None,
           budget: int = DEFAULT_DISTANCE_BUDGET) -> MdsResult:
    if dist is None:
        dist = min_distance(code, budget)
    if not dist.exact:
        raise ValueError("distance not certified")
    d = dist.lower
    return MdsResult(d == code.n - code.k + 1, gcd(code.n - 2, d - 2) == 1, d)


def cyclic_defining_set(code: LinearCode) -> tuple[int, ...] | None:
    """Recover the defining set of a shift-invariant code, or None if the code
    is not cyclic.  It is the union of the q-cyclotomic cosets whose minimal
    polynomial divides every row of the RREF, each row read as a polynomial
    over the base field: alpha^i is a root of a row iff the minimal
    polynomial of i's coset divides it.  ValueError when gcd(n, q) != 1;
    RuntimeError when the set does not have n - k elements."""
    if not is_shift_invariant(code):
        return None
    F, n = code.field, code.n
    rows = [Polynomial(F, row) for row in code.matrix]
    ds = sorted(i for cs in cyclotomic_cosets(n, F.order)
                if all(poly_mod(r, minimal_polynomial(F, n, cs)).is_zero() for r in rows)
                for i in cs)
    if len(ds) != n - code.k:
        raise RuntimeError("root count disagrees with dimension")
    return tuple(ds)


def as_cyclic(code: CyclicCode | LinearCode) -> CyclicCode:
    """The code as a CyclicCode, its defining set recovered by
    cyclic_defining_set when it is given as a LinearCode; ValueError when it
    is not cyclic."""
    if isinstance(code, CyclicCode):
        return code
    ds = cyclic_defining_set(code)
    if ds is None:
        raise ValueError("code is not cyclic")
    return CyclicCode(code.field, code.n, frozenset(ds))


# --- code-spec files ---------------------------------------------------------

def code_to_spec(code: CyclicCode | LinearCode) -> dict:
    if isinstance(code, CyclicCode):
        return {
            "q": {"characteristic": code.field.characteristic, "degree": code.field.degree},
            "n": code.n,
            "defining_set": sorted(code.defining_set),
        }
    return {
        "q": {"characteristic": code.field.characteristic, "degree": code.field.degree},
        "n": code.n,
        "generator_matrix": [list(r) for r in code.matrix],
    }


def code_from_spec(spec: dict) -> CyclicCode | LinearCode:
    """The code of a spec in the shape code_to_spec writes; a spec of
    another shape raises a ValueError that names the key at fault."""
    def read(key: str, convert):
        try:
            return convert(spec[key])
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"code spec: missing or malformed {key!r}") from None

    if not isinstance(spec, dict):
        raise ValueError(f"code spec must be a JSON object, not {type(spec).__name__}")
    field = make_field(*read("q", lambda fs: (int(fs["characteristic"]), int(fs.get("degree", 1)))))
    n = read("n", int)
    if "defining_set" in spec:
        return CyclicCode(field, n, read("defining_set", lambda ds: frozenset(map(int, ds))))
    if "generator_matrix" in spec:
        return LinearCode.from_rows(field, n, read(
            "generator_matrix", lambda rows: [[int(v) for v in row] for row in rows]))
    raise ValueError("code spec needs defining_set or generator_matrix")


def load_code(path: str) -> CyclicCode | LinearCode:
    with open(path) as fh:
        return code_from_spec(json.load(fh))
