"""Cyclic and general linear codes: construction from defining sets, RREF
canonical forms, duals, idempotents, weight data, minimum distance, MDS tests,
and the one code-action test for every field.

Coordinates are 0-based everywhere.  permute_code follows the convention that
coordinate i of the image reads coordinate sigma^-1(i) of the source, so
sigma in Per(C) means permute_code(C, sigma) == C.

GF(p^s) is handled as GF(p)^s: an element is its vector of base-p digits and
multiplication by b is the s x s matrix algebra.multiplication_matrices gives
for b.  A matrix over GF(p^s) expands to a matrix over GF(p) with one s x s
block per entry, so every product of code matrices is one integer matmul mod
p, and s = 1 is plain prime-field arithmetic.  On that rest the batched test
maps_onto (does sigma map C1 onto C2, for a whole array of sigmas at once),
the first-hit witness scan first_map, and codeword_chunks.  permute_code is
the public transform and the independent check of every reported witness.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from math import comb, gcd
from typing import Iterable, Iterator, Sequence

import numpy as np

from .algebra import (
    Field,
    Polynomial,
    make_field,
    minimal_polynomial,
    multiplication_matrices,
    poly_divmod,
    poly_mod,
    root_system,
    x_pow_minus_one,
)
from .perm import Permutation

DEFAULT_DISTANCE_BUDGET = 20_000_000
ENUMERATION_BOUND = 1 << 20


def cyclotomic_coset(n: int, q: int, i: int) -> tuple[int, ...]:
    """The q-cyclotomic coset of i mod n, sorted."""
    if gcd(n, q) != 1:
        raise ValueError(f"gcd(n={n}, q={q}) != 1")
    i %= n
    out = {i}
    j = i * q % n
    while j != i:
        out.add(j)
        j = j * q % n
    return tuple(sorted(out))


def cyclotomic_cosets(n: int, q: int) -> list[tuple[int, ...]]:
    """Partition of {0..n-1} into q-cyclotomic cosets, sorted by least element."""
    if gcd(n, q) != 1:
        raise ValueError(f"gcd(n={n}, q={q}) != 1")
    seen: set[int] = set()
    out = []
    for i in range(n):
        if i in seen:
            continue
        cs = cyclotomic_coset(n, q, i)
        seen.update(cs)
        out.append(cs)
    return out


def rref(rows: Sequence[Sequence[int]], field: Field) -> tuple[tuple[int, ...], ...]:
    """Reduced row-echelon form over `field`; zero rows dropped.  The result is
    the unique canonical basis of the row space, so it doubles as a code id."""
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


@dataclass(frozen=True)
class LinearCode:
    """Linear code identified by the RREF canonical form of its generator matrix."""
    field: Field
    n: int
    matrix: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(field: Field, n: int, rows: Sequence[Sequence[int]]) -> "LinearCode":
        for row in rows:
            if len(row) != n:
                raise ValueError(f"row length {len(row)} != n={n}")
            for v in row:
                field.validate(v)
        return LinearCode(field, n, rref(rows, field))

    @property
    def k(self) -> int:
        return len(self.matrix)

    def contains(self, word: Sequence[int]) -> bool:
        if len(word) != self.n:
            raise ValueError("word length mismatch")
        reduced = rref(list(self.matrix) + [list(word)], self.field)
        return len(reduced) == self.k

    def dual(self) -> "LinearCode":
        """Kernel of the generator matrix under the standard inner product."""
        return LinearCode.from_rows(self.field, self.n, self._kernel_basis())

    def _kernel_basis(self) -> list[list[int]]:
        """A basis of the dual, read off the RREF: for each non-pivot column
        f, the word with 1 at f and minus column f of G at the pivots."""
        F, n = self.field, self.n
        pivots = [next(j for j, v in enumerate(row) if v != 0) for row in self.matrix]
        rows = []
        for f in (j for j in range(n) if j not in pivots):
            v = [0] * n
            v[f] = 1
            for i, p in enumerate(pivots):
                v[p] = F.neg(self.matrix[i][f])
            rows.append(v)
        return rows

    def codeword_count(self) -> int:
        return self.field.order ** self.k

    def codeword_chunks(self, chunk: int = 1 << 16) -> Iterator[np.ndarray]:
        """All q^k codewords as (B, n) int arrays of field elements, in blocks.
        Message number m is the vector in GF(p)^(k*s) of the base-p digits of
        m; one matmul mod p with the expanded generator gives the digits of
        its codeword, read back as field elements."""
        F, k, n = self.field, self.k, self.n
        p, s = F.characteristic, F.degree
        place = p ** np.arange(k * s, dtype=np.int64)
        total = F.order ** k
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
            msgs = idx[:, None] // place
            msgs %= p
            digits = msgs @ self.expanded_generator
            digits %= p
            digits = digits.reshape(-1, n, s)
            words = digits[:, :, s - 1]
            for t in range(s - 2, -1, -1):
                words = words * p + digits[:, :, t]
            yield words

    @cached_property
    def expanded_generator(self) -> np.ndarray:
        """The generator matrix over GF(p), (k*s, n*s): entry G[i][j] becomes
        the s x s block of multiplication by it, so digits(m G) =
        digits(m) @ expanded_generator mod p.  Rows 0, s, 2s, ... are the
        digit vectors of the rows of G."""
        return _expand(self.field, np.array(self.matrix, dtype=np.int64).reshape(self.k, self.n))

    @cached_property
    def expanded_parity(self) -> np.ndarray:
        """The transposed parity-check matrix over GF(p), (n*s, (n-k)*s): the
        word w is in the code iff digits(w) @ expanded_parity = 0 mod p."""
        H = np.array(self._kernel_basis(), dtype=np.int64).reshape(self.n - self.k, self.n)
        return _expand(self.field, H.T)


def _expand(field: Field, matrix: np.ndarray) -> np.ndarray:
    """A (r, c) matrix over GF(p^s) as the (r*s, c*s) matrix over GF(p) whose
    block (i, j) is the multiplication matrix of entry (i, j)."""
    r, c = matrix.shape
    s = field.degree
    blocks = multiplication_matrices(field)[matrix]          # (r, c, s, s)
    out = blocks.transpose(0, 2, 1, 3).reshape(r * s, c * s)
    out.flags.writeable = False
    return out


def maps_onto(c1: LinearCode, c2: LinearCode,
              images: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
    """The code-action test, batched: row b of the (B, n) array `images`
    holds sigma_b (images[b][i] = sigma_b(i)), and entry b of the boolean
    result says whether sigma_b maps c1 onto c2, that is whether
    permute_code(c1, sigma_b) == c2.

    sigma maps c1 onto c2 iff k1 = k2 and G1[:, sigma^-1] H2^T = 0, which is
    G1 (H2[:, sigma])^T = 0: every generator row g of c1 has
    sum_i g_i H2[:, sigma(i)] = 0.  It is checked over GF(p) on the expanded
    matrices, so no inverse is needed.  A single permutation takes one
    product.  A batch is reduced one generator row at a time over the
    survivors, summing the gathered parity-check rows in the smallest
    integer type that holds n*s*(p-1)^2, so temporaries stay at (B, n)
    small integers.
    """
    images = np.asarray(images)
    B, n = images.shape
    if n != c1.n or n != c2.n:
        raise ValueError(f"permutation degree {n} != code lengths {c1.n}, {c2.n}")
    if c1.k != c2.k:
        return np.zeros(B, dtype=bool)
    p, s = c1.field.characteristic, c1.field.degree
    G = c1.expanded_generator[::s]                # digit rows of G1, (k, n*s)
    H = c2.expanded_parity
    m = H.shape[1]
    if B == 1:
        moved = H.reshape(n, s * m).take(images[0], axis=0).reshape(n * s, m)
        return np.array([not np.count_nonzero(G @ moved % p)])
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


def first_map(c1: LinearCode, c2: LinearCode,
              chunks: Iterable[np.ndarray]) -> Permutation | None:
    """The first permutation mapping c1 onto c2, in the order in which the
    (B, n) image arrays of `chunks` list the candidates, or None.  Each
    chunk goes through maps_onto in one call.  Callers that report the hit
    as a witness confirm it with permute_code."""
    if c1.k != c2.k:           # no candidate can pass; skip listing them
        return None
    for images in chunks:
        hits = np.flatnonzero(maps_onto(c1, c2, images))
        if hits.size:
            return Permutation(tuple(int(v) for v in images[hits[0]]))
    return None


def permute_code(code: LinearCode, sigma: Permutation) -> LinearCode:
    if sigma.degree != code.n:
        raise ValueError(f"permutation degree {sigma.degree} != code length {code.n}")
    inv = sigma.inverse()
    rows = [[row[inv(i)] for i in range(code.n)] for row in code.matrix]
    return LinearCode.from_rows(code.field, code.n, rows)


def is_shift_invariant(code: LinearCode) -> bool:
    return bool(maps_onto(code, code, [Permutation.shift(code.n).images])[0])


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
        if gcd(n, self.field.characteristic) != 1:
            raise ValueError(f"n={n} not coprime to field characteristic")
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

    def cosets(self) -> list[tuple[int, ...]]:
        """The cyclotomic cosets whose union is the defining set, sorted by
        least element."""
        return [cs for cs in cyclotomic_cosets(self.n, self.field.order)
                if cs[0] in self.defining_set]

    @cached_property
    def linear(self) -> LinearCode:
        g = self.generator_poly
        k = self.k
        if k == 0:
            return LinearCode(self.field, self.n, ())
        rows = []
        for s in range(k):
            row = [0] * self.n
            for i, c in enumerate(g.coeffs):
                row[(i + s) % self.n] = c
            rows.append(row)
        code = LinearCode.from_rows(self.field, self.n, rows)
        if code.k != k:
            raise RuntimeError("generator degree disagrees with defining set size")
        return code

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
    n, k, F = code.n, code.k, code.field
    if k in (0, n):
        return True
    if k == 1:
        return all(v == code.matrix[0][0] for v in code.matrix[0]) and code.matrix[0][0] != 0
    if k == n - 1:
        return code == LinearCode.from_rows(
            F, n, [[1 if j == i else (F.neg(1) if j == n - 1 else 0) for j in range(n)]
                   for i in range(n - 1)])
    return False


def idempotent(code: CyclicCode) -> Polynomial:
    """The unique e with e^2 = e mod x^n - 1 generating the code.

    CRT over the coset factorization: e = 1 mod every factor kept by the code
    (cosets outside the defining set) and e = 0 mod every annihilated factor.
    The zero code yields the zero polynomial.
    """
    F, n = code.field, code.n
    if code.k == 0:
        return Polynomial(F, ())
    xn1 = x_pow_minus_one(F, n)
    g = code.generator_poly          # product over defining-set cosets
    h, rem = poly_divmod(xn1, g)     # kept part
    if not rem.is_zero():
        raise RuntimeError("generator does not divide x^n - 1")
    if g.degree <= 0:
        return Polynomial(F, (1,))
    # e = a*g where a*g = 1 mod h: extended euclid on (g, h)
    r0, r1 = g, h
    s0 = Polynomial(F, (1,))
    s1 = Polynomial(F, ())
    while not r1.is_zero():
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    # r0 = gcd = s0*g + t*h, a unit constant since gcd(g, h) = 1
    if r0.degree != 0:
        raise RuntimeError("x^n - 1 is not squarefree; gcd(n, q) must be 1")
    c = F.inv(r0.coeffs[0])
    e = poly_mod(s0.scale(c) * g, xn1)
    check = poly_mod(e * e, xn1)
    if check.coeffs != e.coeffs:
        raise RuntimeError("idempotent law failed")
    return e


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
    """Exhaustive weight distribution.  Raises when q^k exceeds the budget;
    callers that can live with partial data should use min_distance instead."""
    if code.codeword_count() > budget:
        raise ValueError(f"weight profile needs {code.codeword_count()} enumerations, budget {budget}")
    counts = np.zeros(code.n + 1, dtype=np.int64)
    for block in code.codeword_chunks():
        w = (block != 0).sum(axis=1)
        counts += np.bincount(w, minlength=code.n + 1)
    return WeightProfile(tuple(int(c) for c in counts), True)


@dataclass(frozen=True)
class DistanceResult:
    lower: int
    upper: int
    exact: bool
    method: str

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError("distance not certified")
        return self.lower


def _subset_chunks(pool: Sequence[int], w: int, chunk: int) -> Iterator[np.ndarray]:
    """Combinations of `pool` of size w as (B, w) int arrays."""
    if w == 0:
        yield np.zeros((1, 0), dtype=np.int64)
        return
    it = itertools.combinations(pool, w)
    while True:
        flat = np.fromiter(itertools.chain.from_iterable(itertools.islice(it, chunk)),
                           dtype=np.int64, count=-1)
        if flat.size == 0:
            return
        yield flat.reshape(-1, w)


def _batch_dependent(cols: np.ndarray, p: int) -> np.ndarray:
    """cols: (B, w, h) batches of w row-vectors over GF(p); returns a boolean
    mask of batches whose vectors are linearly dependent.  Gaussian elimination
    run simultaneously over the whole batch."""
    B, w, h = cols.shape
    R = cols.astype(np.int16, copy=True)
    inv_table = np.array([0] + [pow(v, p - 2, p) for v in range(1, p)], dtype=np.int16)
    rank = np.zeros(B, dtype=np.int16)
    col_used = np.zeros((B, h), dtype=bool)
    for r in range(w):
        row = R[:, r, :]
        # pivot: first column with nonzero entry that is not yet used
        avail = (row != 0) & ~col_used
        piv = np.argmax(avail, axis=1)
        has = avail[np.arange(B), piv]
        rank += has
        if not has.any():
            continue
        pv = row[np.arange(B), piv]
        f = inv_table[pv % p] * has
        row_n = row * f[:, None] % p
        R[:, r, :] = np.where(has[:, None], row_n, row)
        col_used[np.arange(B), piv] |= has
        if r + 1 < w:
            below = R[:, r + 1:, :]
            factors = below[np.arange(B), :, piv]      # (B, w-r-1)
            upd = (below - factors[:, :, None] * R[:, r, None, :]) % p
            R[:, r + 1:, :] = np.where(has[:, None, None], upd, below)
    return rank < w


def min_distance(code: LinearCode, budget: int = DEFAULT_DISTANCE_BUDGET) -> DistanceResult:
    """Minimum distance, exact when a budget-bounded certificate exists.

    Route A: exhaustive codeword enumeration when q^k <= budget.
    Route B (prime fields): increasing-weight scans testing parity-check column
    subsets for linear dependence; a dependent w-subset after clean scans below
    w certifies d = w.  Shift-invariant codes only scan supports containing
    coordinate 0.  The budget counts enumerated codewords (route A) or tested
    column subsets (route B); when it runs out the result is an interval,
    except that a witness codeword matching the scan's lower bound still
    certifies exactness.
    """
    F, n, k = code.field, code.n, code.k
    if k == 0:
        return DistanceResult(0, 0, True, "void")
    if k == n:
        return DistanceResult(1, 1, True, "trivial")
    if code.codeword_count() <= budget:
        best = weight_profile(code, budget).min_weight
        return DistanceResult(best, best, True, "enumeration")
    if not F.is_prime_field:
        return DistanceResult(1, n - k + 1, False, "interval")

    p = F.order
    Ht = code.expanded_parity     # over a prime field, exactly H^T
    cyclic = is_shift_invariant(code)
    spent = 0
    w = 1
    found: int | None = None
    while w <= n:
        if cyclic:
            cost = comb(n - 1, w - 1)
        else:
            cost = comb(n, w)
        if spent + cost > budget:
            break
        spent += cost
        hit = False
        if cyclic:
            gen = (_np_prepend_zero(c) for c in _subset_chunks(range(1, n), w - 1, 65536))
        else:
            gen = _subset_chunks(range(n), w, 65536)
        for subs in gen:
            cols = Ht[subs]           # (B, w, n-k)
            dep = _batch_dependent(cols, p)
            if dep.any():
                hit = True
                break
        if hit:
            found = w
            break
        w += 1
    if found is not None:
        return DistanceResult(found, found, True, "rank_scan")
    lower = w
    upper = _distance_upper_bound(code)
    if upper < lower:
        raise RuntimeError("witness weight below certified lower bound")
    if upper == lower:
        # clean scans below w plus an exhibited weight-w codeword pin d = w
        return DistanceResult(lower, upper, True, "squeeze")
    return DistanceResult(lower, upper, False, "interval")


def _np_prepend_zero(chunkarr: np.ndarray) -> np.ndarray:
    z = np.zeros((chunkarr.shape[0], 1), dtype=chunkarr.dtype)
    return np.concatenate([z, chunkarr], axis=1)


def _distance_upper_bound(code: LinearCode, samples: int = 60000) -> int:
    """Cheap witness search: generator rows, then words from sparse messages."""
    F = code.field
    G = np.array(code.matrix, dtype=np.int64)
    best = int((G != 0).sum(axis=1).min())
    if not F.is_prime_field:
        return best
    p, k = F.order, code.k
    done = 0
    for t in (2, 3):
        if done > samples or t > k:
            break
        for pos in itertools.combinations(range(k), t):
            for vals in itertools.product(range(1, p), repeat=t - 1):
                word = G[pos[0]].copy()
                for c, j in zip(vals, pos[1:]):
                    word = word + c * G[j]
                wgt = int((word % p != 0).sum())
                if 0 < wgt < best:
                    best = wgt
                done += 1
                if done > samples:
                    return best
    return best


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
    is not cyclic.  Root test: i is in the set iff alpha^i kills every row."""
    if not is_shift_invariant(code):
        return None
    F, n = code.field, code.n
    rs = root_system(F, n)
    E = rs.ext
    ds = []
    for i in range(n):
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
    if len(ds) != n - code.k:
        raise RuntimeError("root count disagrees with dimension")
    return tuple(ds)


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
    fs = spec["q"]
    field = make_field(int(fs["characteristic"]), int(fs.get("degree", 1)))
    n = int(spec["n"])
    if "defining_set" in spec:
        return CyclicCode(field, n, frozenset(int(i) for i in spec["defining_set"]))
    if "generator_matrix" in spec:
        return LinearCode.from_rows(field, n, [[int(v) for v in row] for row in spec["generator_matrix"]])
    raise ValueError("code spec needs defining_set or generator_matrix")


def load_code(path: str) -> CyclicCode | LinearCode:
    with open(path) as fh:
        return code_from_spec(json.load(fh))


def save_code(code: CyclicCode | LinearCode, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(code_to_spec(code), fh, indent=2, sort_keys=True)
        fh.write("\n")
