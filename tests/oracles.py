"""Exhaustive S_n oracles, direct constructions and the plain versions of
optimised routines, shared by the tests."""
from math import comb

import numpy as np

from cycperm.algebra import (
    Field,
    Polynomial,
    _is_irreducible,
    poly_divmod,
    poly_mod,
    prime_factors,
    root_system,
    units,
    x_pow_minus_one,
)
from cycperm.codes import _elements
from cycperm.perm import BlockSystem, PermGroup, Permutation, conjugation_scan


def hset_brute(target: Permutation, P: PermGroup) -> frozenset[Permutation]:
    """{sigma in S_n : sigma^-1 * target * sigma in P} by exhaustive scan: the
    oracle for conjugation_set."""
    return frozenset(conjugation_scan(target.degree, [(target, P.elements())]))


def block_system_through(generators, n: int, pair: tuple[int, int]) -> tuple[tuple[int, ...], ...]:
    """The block system of a transitive group whose block through pair[0] is
    the smallest block containing the pair: the classes of the finest
    equivalence that joins the pair and is kept by every generator, sorted
    by least element.  Union-find, where each join of a, b queues the join
    of g(a), g(b) for every generator g."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = [pair]
    parent[max(pair)] = min(pair)
    while queue:
        a, b = queue.pop()
        for g in generators:
            ra, rb = find(g(a)), find(g(b))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
                queue.append((g(a), g(b)))
    cls: dict[int, list[int]] = {}
    for i in range(n):
        cls.setdefault(find(i), []).append(i)
    return tuple(tuple(c) for _, c in sorted(cls.items()))


def minimal_blocks_by_closure(group: PermGroup) -> list[BlockSystem]:
    """The minimal nontrivial block systems of a transitive group, sorted by
    their block through 0: the system through each pair {0, x}, and the
    minimal ones among the nontrivial systems.  The oracle for
    perm.minimal_blocks."""
    n, gens = group.degree, group.generators
    systems = {}
    for x in range(1, n):
        system = block_system_through(gens, n, (0, x))
        if 1 < len(system[0]) < n:
            systems[system[0]] = system
    return [BlockSystem(systems[b]) for b in sorted(systems)
            if not any(set(o) < set(b) for o in systems)]


def coset_polynomial_by_roots(field: Field, n: int, coset) -> Polynomial:
    """The product of (x - alpha^i) over the coset, one linear factor at a
    time in the splitting field, each root a fresh power of alpha, brought
    down to `field` coefficient by coefficient.  The oracle for
    minimal_polynomial."""
    rs = root_system(field, n)
    E = rs.ext
    prod = Polynomial(E, (1,))
    for i in sorted(coset):
        prod = prod * Polynomial(E, (E.neg(E.pow(rs.alpha, i)), 1))
    down = [rs.lift(c) for c in prod.coeffs]
    assert None not in down, "coefficient escaped the base field"
    return Polynomial(field, tuple(down))


def is_least_primitive_root(field: Field, n: int, alpha: int) -> bool:
    """Whether alpha, in root_system(field, n)'s extension, has order exactly
    n and is the least of the generators alpha^k (k a unit mod n) of the
    order-n subgroup, each taken by its own power: the oracle for
    root_system's alpha."""
    E = root_system(field, n).ext
    return (E.pow(alpha, n) == 1
            and all(E.pow(alpha, n // r) != 1 for r in prime_factors(n))
            and alpha == min(E.pow(alpha, k) for k in units(n)))


class _ReferenceChain:
    """The plain deterministic Schreier-Sims, with no step skipped: every
    sift composes at every level, every Schreier generator is built by two
    compositions and sifted through every level below its own, and nothing
    stops early.  The oracle for perm.StabilizerChain, whose chain must
    equal it level by level (chain_state)."""

    def __init__(self, n, prefix=()):
        self.identity = tuple(range(n))
        self.base, self.gens, self.orbit, self.trans, self.inv, self.checked = [], [], [], [], [], []
        for b in prefix:
            self._open(b)

    def sift(self, g, start=0):
        for i in range(start, len(self.base)):
            ui = self.inv[i].get(g[self.base[i]])
            if ui is None:
                return g, i
            g = tuple(ui[x] for x in g)
        return g, len(self.base)

    def add(self, g):
        h, j = self.sift(g)
        if h == self.identity:
            return False
        self._insert(h, 0, j)
        level = j
        while level >= 0:
            found = self._schreier_residue(level)
            if found is None:
                level -= 1
            else:
                h, j = found
                self._insert(h, level + 1, j)
                level = j
        return True

    def _insert(self, h, first, last):
        if last == len(self.base):
            self._open(next(i for i, v in enumerate(h) if v != i))
        for level in range(first, last + 1):
            self.gens[level].append(h)
            orbit, trans, inv = self.orbit[level], self.trans[level], self.inv[level]
            for x in orbit:
                u = trans[x]
                for s in self.gens[level]:
                    y = s[x]
                    if y not in trans:
                        trans[y] = v = tuple(s[i] for i in u)
                        inv[y] = tuple(sorted(range(len(v)), key=v.__getitem__))
                        orbit.append(y)

    def _open(self, b):
        self.base.append(b)
        self.gens.append([])
        self.orbit.append([b])
        self.trans.append({b: self.identity})
        self.inv.append({b: self.identity})
        self.checked.append(set())

    def _schreier_residue(self, level):
        trans, inv, checked = self.trans[level], self.inv[level], self.checked[level]
        for x in self.orbit[level]:
            u = trans[x]
            for si, s in enumerate(self.gens[level]):
                if (x, si) in checked:
                    continue
                checked.add((x, si))
                su = tuple(s[i] for i in u)
                h, j = self.sift(tuple(inv[s[x]][i] for i in su), level + 1)
                if h != self.identity:
                    return h, j
        return None


def chain_state(chain) -> tuple:
    """The base, orbits, transversals with their inverses, and strong
    generators of a stabilizer chain, level by level."""
    return chain.base, chain.orbit, chain.trans, chain.inv, chain.gens


def idempotent_by_euclid(code) -> Polynomial:
    """The idempotent of a cyclic code by CRT over the coset factorization:
    e = 1 mod the factor h = (x^n - 1)/g kept by the code and e = 0 mod its
    generator g, so e = a g with a g = 1 mod h from the extended Euclid on
    (g, h).  The oracle for CyclicCode.idempotent."""
    F, n = code.field, code.n
    if code.k == 0:
        return Polynomial(F, ())
    xn1 = x_pow_minus_one(F, n)
    g = code.generator_poly
    h, rem = poly_divmod(xn1, g)
    assert rem.is_zero(), "generator does not divide x^n - 1"
    if g.degree <= 0:
        return Polynomial(F, (1,))
    r0, r1 = g, h
    s0, s1 = Polynomial(F, (1,)), Polynomial(F, ())
    while not r1.is_zero():
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    assert r0.degree == 0, "x^n - 1 is not squarefree"
    return poly_mod(s0.scale(F.inv(r0.coeffs[0])) * g, xn1)


def parity_check_by_loop(code) -> np.ndarray:
    """The parity-check matrix of a LinearCode built row by row: for each
    non-pivot column f, the word with 1 at f and, at each pivot, the field
    negation of G's entry in column f.  The oracle for
    LinearCode.parity_check."""
    F, n = code.field, code.n
    rows = []
    for f in (j for j in range(n) if j not in code.pivots):
        v = [0] * n
        v[f] = 1
        for i, p in enumerate(code.pivots):
            v[p] = F.neg(code.matrix[i][f])
        rows.append(v)
    return np.array(rows, dtype=np.int64).reshape(n - code.k, n)


def lowest_irreducible_unfiltered(p: int, s: int) -> tuple[int, ...]:
    """The first monic polynomial of degree s over GF(p), in the order of
    its non-leading coefficients read as a base-p integer, that passes the
    Rabin test, with no candidate rejected before it.  The oracle for
    algebra._lowest_irreducible."""
    for low in range(p ** s):
        coeffs = tuple(low // p ** i % p for i in range(s)) + (1,)
        if _is_irreducible(coeffs, p):
            return coeffs
    raise AssertionError(f"no irreducible of degree {s} over GF({p})")


def level_weight_by_position(code, t: int) -> int:
    """Z-level t of a LinearCode, the least weight of the sums of t rows of
    G at distinct positions with nonzero coefficients, the first one 1,
    from heads and tails built and compared one position at a time: the
    partial sums of each position in their own numpy round, and the heads
    that end at each position j against the tails that start after it, in
    blocks of at most 2^16 words.  The oracle for codes._level_weight."""
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
        heads, last = _extend_by_position(heads, last, terms, range(i - 1, k - t + i), p, True)
    for i in range(1, t - a + 1):   # the i-th last term sits at t - i .. k - i
        tails, first = _extend_by_position(tails, first, scaled[:, 1:], range(t - i, k - i + 1),
                                           p, False)
    heads = _elements(F, heads).T.copy()      # one row per coordinate
    tails = _elements(F, tails).T.copy()
    chunk = 1 << 16
    best = n - k
    starts = np.searchsorted(last, np.arange(k + 1))
    for j in range(k):              # the heads ending at j, the tails after j
        after = int(np.searchsorted(first, j, "right"))
        rows, stop = max(1, chunk // max(1, len(first) - after)), starts[j + 1]
        for h in range(starts[j], stop, rows):
            for u in range(after, len(first), chunk):
                differ = heads[:, h:min(h + rows, stop), None] != tails[:, None, u:u + chunk]
                best = min(best, int(differ.sum(axis=0, dtype=np.min_scalar_type(n)).min()))
    return t + best


def _extend_by_position(sums: np.ndarray, keys: np.ndarray, terms: np.ndarray, positions,
                        p: int, after: bool) -> tuple[np.ndarray, np.ndarray]:
    """Partial sums one term longer, one numpy round per position j: every
    sum whose key is below j (`after`) or above j, plus each row of
    terms[j], keyed and sorted by j."""
    out, out_keys = [], []
    for j in positions:
        cut = np.searchsorted(keys, j, "left" if after else "right")
        part = sums[:cut] if after else sums[cut:]
        grown = part[None] + terms[j][:, None]
        grown %= p
        out.append(grown.reshape(-1, sums.shape[1]))
        out_keys.append(np.full(len(out[-1]), j))
    return np.concatenate(out), np.concatenate(out_keys)


def codeword_chunks(code, chunk: int = 1 << 16):
    """All q^k codewords of a LinearCode as (B, n) arrays of field elements,
    in blocks: message number m is the vector in GF(p)^(k*s) of the base-p
    digits of m, and LinearCode._encode gives its codeword.  The full pass
    that the Z-levels of weight_profile, min_distance and min_weight_words
    are checked against."""
    F, k = code.field, code.k
    p, s = F.characteristic, F.degree
    place = p ** np.arange(k * s, dtype=np.int64)
    total = F.order ** k
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        yield code._encode(idx[:, None] // place % p)


def enumerated_profile(code) -> tuple[int, ...]:
    """The weight distribution of a LinearCode from the full pass
    (codeword_chunks): the oracle for codes.weight_profile."""
    counts = np.zeros(code.n + 1, dtype=np.int64)
    for block in codeword_chunks(code):
        counts += np.bincount((block != 0).sum(axis=1), minlength=code.n + 1)
    return tuple(int(c) for c in counts)


def enumerated_distance(code) -> int:
    """The least weight of a nonzero codeword of a nonzero LinearCode, from
    the full pass: the oracle for codes.min_distance."""
    return next(w for w, c in enumerate(enumerated_profile(code)) if w and c)
