"""Permutations on {0..n-1}, finite group closure, orbits and block systems,
conjugation sets and normalizers in S_n, Sylow ascent.

The conjugation set {sigma : sigma^-1 g sigma in P} is built at every degree
from centralizer cosets: the solutions of sigma^-1 g sigma = rho are the coset
C(g) sigma_rho, where sigma_rho lines the cycles of rho up with those of g and
C(g) is the product of the wreath products C_L wr S_m over the cycle lengths
L of g with multiplicity m (Seress, Permutation Group Algorithms, 2003).

The exhaustive S_n scans enumerate all n! permutations in lexicographic
order, decoded from Lehmer ranks in numpy chunks, so n <= 10 stays in the
tens of seconds.  They serve the BRUTE equivalence strategy and the tests'
oracles only.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import factorial, gcd, lcm
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .algebra import prime_power

CLOSURE_BOUND = 1_000_000
BRUTE_DEGREE_BOUND = 10
_SCAN_CHUNK = 360_360


class ClosureBoundExceeded(RuntimeError):
    def __init__(self, bound: int, reached: int):
        super().__init__(f"group closure exceeded bound {bound} (reached {reached} elements)")
        self.bound = bound
        self.reached = reached


@dataclass(frozen=True)
class Permutation:
    """Permutation as the tuple of images: images[i] = sigma(i).
    Composition is right-to-left: (sigma * tau)(i) = sigma(tau(i))."""
    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.degree)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation(tuple(inv))

    def __pow__(self, e: int) -> "Permutation":
        if e < 0:
            return self.inverse() ** (-e)
        r = Permutation.identity(self.degree)
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def conjugate(self, by: "Permutation") -> "Permutation":
        """by^-1 * self * by."""
        return by.inverse() * self * by

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        seen, out = set(), []
        for i in range(self.degree):
            if i in seen:
                continue
            cyc = [i]
            j = self.images[i]
            while j != i:
                cyc.append(j)
                j = self.images[j]
            seen.update(cyc)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles())) if self.cycles() else 1

    def parity(self) -> int:
        """0 for even, 1 for odd."""
        return sum(len(c) - 1 for c in self.cycles()) % 2

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    @staticmethod
    def shift(n: int) -> "Permutation":
        """T: i -> i+1 mod n."""
        return Permutation(tuple((i + 1) % n for i in range(n)))

    @staticmethod
    def power_shift(n: int, l: int) -> "Permutation":
        """T^l: i -> i+l mod n, of order n/gcd(n,l)."""
        if not 1 <= l < n:
            raise ValueError(f"need 1 <= l < n, got l={l}, n={n}")
        return Permutation(tuple((i + l) % n for i in range(n)))

    @staticmethod
    def affine(n: int, a: int, b: int) -> "Permutation":
        """tau_{a,b}: i -> a*i + b mod n; a must be a unit."""
        if gcd(a % n, n) != 1:
            raise ValueError(f"a={a} is not a unit mod {n}")
        return Permutation(tuple((a * i + b) % n for i in range(n)))

    @staticmethod
    def multiplier(n: int, a: int) -> "Permutation":
        """M_a: i -> a*i mod n."""
        return Permutation.affine(n, a, 0)

    @staticmethod
    def generalized_multiplier(n: int, k: int, a: int, c: int) -> "Permutation":
        """mu_{a,c}^(p^k) on {0..n-1} for n = p^r: the point i + b*p^k
        (0 <= i < p^k) goes to ((a*i + c) mod p^k) + b*p^k."""
        p, r = prime_power(n)
        if not 1 <= k <= r:
            raise ValueError(f"need 1 <= k <= r, got k={k}, r={r}")
        pk = p ** k
        if gcd(a % pk, pk) != 1:
            raise ValueError(f"a={a} is not a unit mod {pk}")
        return Permutation(tuple((a * (x % pk) + c) % pk + (x - x % pk) for x in range(n)))

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return f"Perm(id, n={self.degree})"
        return "Perm(" + "".join("(" + " ".join(map(str, c)) + ")" for c in cyc) + ")"


def group_closure(generators: Iterable[Permutation], bound: int = CLOSURE_BOUND) -> frozenset[Permutation]:
    """BFS closure of the generated group; raises ClosureBoundExceeded past bound."""
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].degree
    seen = {Permutation.identity(n)}
    frontier = list(seen)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = g * x
                if y not in seen:
                    seen.add(y)
                    new.append(y)
                    if len(seen) > bound:
                        raise ClosureBoundExceeded(bound, len(seen))
        frontier = new
    return frozenset(seen)


@dataclass(frozen=True)
class PermGroup:
    """Group given by generators, with a lazily computed, cached and bounded
    element set."""
    degree: int
    generators: tuple[Permutation, ...]

    @staticmethod
    def from_generators(n: int, gens: Sequence[Permutation]) -> "PermGroup":
        gens = [g for g in gens if not g.is_identity()]
        if any(g.degree != n for g in gens):
            raise ValueError("generator degree mismatch")
        return PermGroup(n, tuple(dict.fromkeys(gens)))

    @staticmethod
    def trivial(n: int) -> "PermGroup":
        return PermGroup(n, ())

    @cached_property
    def _elements(self) -> frozenset[Permutation]:
        if not self.generators:
            return frozenset({Permutation.identity(self.degree)})
        return group_closure(self.generators)

    def elements(self) -> frozenset[Permutation]:
        """The element set, closed once and cached; raises
        ClosureBoundExceeded past CLOSURE_BOUND."""
        return self._elements

    def order(self) -> int:
        return len(self._elements)

    def __contains__(self, sigma: Permutation) -> bool:
        return sigma in self.elements()


def orbits(n: int, generators: Sequence[Permutation]) -> list[tuple[int, ...]]:
    """Orbits of the generated group on {0..n-1}, sorted by least element."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in generators:
        for i in range(n):
            a, b = find(i), find(g(i))
            if a != b:
                parent[max(a, b)] = min(a, b)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [tuple(sorted(v)) for _, v in sorted(groups.items())]


def is_transitive(n: int, generators: Sequence[Permutation]) -> bool:
    return len(orbits(n, generators)) == 1


def _block_through(generators: Sequence[Permutation], n: int, pair: tuple[int, int]) -> list[int]:
    """Smallest block containing {pair} for a transitive group: classic
    union-find refinement over the generator action on merged classes."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> bool:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[max(ra, rb)] = min(ra, rb)
        return True

    queue = [pair]
    union(*pair)
    while queue:
        a, b = queue.pop()
        for g in generators:
            if union(g(a), g(b)):
                queue.append((g(a), g(b)))
    cls: dict[int, list[int]] = {}
    for i in range(n):
        cls.setdefault(find(i), []).append(i)
    blk = cls[find(pair[0])]
    return sorted(blk)


@dataclass(frozen=True)
class BlockSystem:
    """Partition of {0..n-1} into equal-size cells permuted by the group."""
    blocks: tuple[tuple[int, ...], ...]

    @property
    def block_size(self) -> int:
        return len(self.blocks[0])

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.blocks[i]


def minimal_blocks(group: PermGroup) -> list[BlockSystem]:
    """All minimal nontrivial block systems of a transitive group; empty means
    the group is primitive."""
    generators, n = list(group.generators), group.degree
    if not is_transitive(n, generators):
        raise ValueError("block systems are defined for transitive groups only")
    if n == 1:
        return []
    candidates: dict[tuple[int, ...], None] = {}
    for x in range(1, n):
        blk = tuple(_block_through(generators, n, (0, x)))
        if 1 < len(blk) < n:
            candidates[blk] = None
    minimal = []
    blocks = list(candidates)
    for b in blocks:
        sb = set(b)
        if not any(set(o) < sb for o in blocks if o != b):
            minimal.append(b)
    systems = []
    for blk in sorted(set(minimal)):
        rest = sorted(set(range(n)) - set(blk))
        system = [tuple(blk)]
        covered = set(blk)
        while covered != set(range(n)):
            x = min(set(range(n)) - covered)
            # translate the block to x by transitivity: breadth-first word search
            img = _translate_block(generators, n, blk, x)
            system.append(tuple(img))
            covered.update(img)
        systems.append(tuple(sorted(system)))
    return [BlockSystem(s) for s in sorted(set(systems))]


def _translate_block(generators: Sequence[Permutation], n: int, block: Sequence[int], target: int) -> list[int]:
    base = block[0]
    prev = {base: None}
    frontier = [base]
    word: dict[int, tuple[int, int]] = {}
    while frontier:
        nxt = []
        for x in frontier:
            for gi, g in enumerate(generators):
                y = g(x)
                if y not in prev:
                    prev[y] = x
                    word[y] = (gi, x)
                    nxt.append(y)
        frontier = nxt
        if target in prev:
            break
    if target not in prev:
        raise ValueError("group is not transitive")
    # replay the generator word on the whole block
    path = []
    cur = target
    while cur != base:
        gi, parent = word[cur]
        path.append(gi)
        cur = parent
    img = list(block)
    for gi in reversed(path):
        img = [generators[gi](v) for v in img]
    return sorted(img)


def block_system_valid(group: PermGroup, partition: BlockSystem | Sequence[Sequence[int]]) -> bool:
    """True iff every generator maps every block onto a block of the partition."""
    generators, n = group.generators, group.degree
    if isinstance(partition, BlockSystem):
        partition = partition.blocks
    blocks = [frozenset(b) for b in partition]
    allpts = sorted(p for b in blocks for p in b)
    if allpts != list(range(n)):
        return False
    blockset = set(blocks)
    for g in generators:
        for b in blocks:
            if frozenset(g(x) for x in b) not in blockset:
                return False
    return True


def is_primitive(group: PermGroup) -> bool:
    return is_transitive(group.degree, group.generators) and not minimal_blocks(group)


# --- conjugation sets by centralizer cosets -----------------------------------

def _cycle_classes(g: Permutation) -> dict[int, list[tuple[int, ...]]]:
    """Cycles of g, fixed points included, keyed by length; each cycle starts
    at its least point and the cycles of one length are in that order."""
    classes: dict[int, list[tuple[int, ...]]] = {}
    seen = [False] * g.degree
    for i in range(g.degree):
        if seen[i]:
            continue
        cyc = [i]
        j = g.images[i]
        while j != i:
            cyc.append(j)
            j = g.images[j]
        for x in cyc:
            seen[x] = True
        classes.setdefault(len(cyc), []).append(tuple(cyc))
    return classes


def _cycle_type(classes: dict[int, list[tuple[int, ...]]]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((L, len(cs)) for L, cs in classes.items()))


def centralizer_order(g: Permutation) -> int:
    """|C(g)| in S_n: the product of L^m * m! over the cycle lengths L of g
    (fixed points included) with multiplicity m."""
    out = 1
    for L, m in _cycle_type(_cycle_classes(g)):
        out *= L ** m * factorial(m)
    return out


def _point_map(n: int, pairs: Iterable[tuple[int, int]]) -> Permutation:
    """The permutation sending x to y for each pair, fixing every other point."""
    images = list(range(n))
    for x, y in pairs:
        images[x] = y
    return Permutation(tuple(images))


def _move_cycles(n: int, cycles: Sequence[tuple[int, ...]], order: Sequence[int]) -> Permutation:
    """The point cycles[j][i] goes to cycles[order[j]][i]."""
    return _point_map(n, ((x, y) for j, k in enumerate(order)
                          for x, y in zip(cycles[j], cycles[k])))


def centralizer_generators(g: Permutation) -> list[Permutation]:
    """Generators of C(g), the product of the wreath products C_L wr S_m:
    per cycle length L, a rotation of the first L-cycle, and the aligned
    swap and rotation of the m cycles of that length."""
    n = g.degree
    gens = []
    for L, cycles in sorted(_cycle_classes(g).items()):
        m = len(cycles)
        if L > 1:
            c = cycles[0]
            gens.append(_point_map(n, zip(c, c[1:] + c[:1])))
        if m > 1:
            gens.append(_move_cycles(n, cycles, [1, 0] + list(range(2, m))))
        if m > 2:
            gens.append(_move_cycles(n, cycles, list(range(1, m)) + [0]))
    return gens


def _centralizer_array(g: Permutation) -> np.ndarray:
    """All of C(g) as an (|C(g)|, n) array of images."""
    out = np.arange(g.degree, dtype=np.int64)[None, :]
    for L, cycles in sorted(_cycle_classes(g).items()):
        m = len(cycles)
        pts = np.array(cycles, dtype=np.int64)                       # (m, L)
        moves = np.array(list(itertools.permutations(range(m))))    # (m!, m)
        turns = np.array(list(itertools.product(range(L), repeat=m)))  # (L^m, m)
        # cycles[j][i] goes to cycles[move[j]][(i + turn[j]) % L]
        cols = (np.arange(L)[None, None, :] + turns[:, :, None]) % L  # (L^m, m, L)
        part = pts[moves[:, None, :, None], cols[None, :, :, :]].reshape(-1, m * L)
        out = np.repeat(out, len(part), axis=0)
        out[:, pts.ravel()] = np.tile(part, (len(out) // len(part), 1))
    return out


def conjugation_cosets(g: Permutation, P: Iterable[Permutation] | PermGroup) -> list[Permutation]:
    """One sigma_rho per rho in P with the cycle type of g, in the order of
    rho's images: sigma_rho lines rho's cycles up with g's, so that
    sigma_rho^-1 g sigma_rho = rho.  The set {sigma : sigma^-1 g sigma in P}
    is the disjoint union of the cosets C(g) sigma_rho."""
    n = g.degree
    members = P.elements() if isinstance(P, PermGroup) else P
    target = _cycle_classes(g)
    key = _cycle_type(target)
    reps = []
    for rho in sorted(members, key=lambda x: x.images):
        classes = _cycle_classes(rho)
        if _cycle_type(classes) != key:
            continue
        reps.append(_point_map(n, ((x, y) for L, cycles in classes.items()
                                   for src, dst in zip(cycles, target[L])
                                   for x, y in zip(src, dst))))
    return reps


def conjugation_set(g: Permutation, P: Iterable[Permutation] | PermGroup) -> frozenset[Permutation]:
    """{sigma in S_n : sigma^-1 * g * sigma in P} for an enumerated P, as the
    union of the cosets C(g) sigma_rho of conjugation_cosets.  Its size,
    |C(g)| times the number of cosets, is checked against CLOSURE_BOUND
    before anything is listed."""
    reps = conjugation_cosets(g, P)
    size = centralizer_order(g) * len(reps)
    if size > CLOSURE_BOUND:
        raise ClosureBoundExceeded(CLOSURE_BOUND, size)
    if not reps:
        return frozenset()
    C = _centralizer_array(g)
    # (c * sigma)(i) = c(sigma(i))
    return frozenset(Permutation(tuple(row)) for sigma in reps
                     for row in C[:, sigma.images].tolist())


def normalizer_in_symmetric(group: Iterable[Permutation] | PermGroup, n: int,
                            within: Iterable[Permutation] | PermGroup | None = None,
                            ) -> frozenset[Permutation]:
    """{sigma : sigma^-1 G sigma = G}, in S_n or inside a supplied enumerated
    ambient group.  In S_n the candidates are the conjugation set of the
    generator with the smallest centralizer.  Conjugating each generator
    into the enumerated G suffices, since |sigma^-1 G sigma| = |G|."""
    if isinstance(group, PermGroup):
        elements = group.elements()
        gens = list(group.generators) or [Permutation.identity(n)]
    else:
        elements = frozenset(group)
        gens = reduce_generators(elements)
    if within is not None:
        pool = within.elements() if isinstance(within, PermGroup) else within
    else:
        pool = conjugation_set(min(gens, key=centralizer_order), elements)
    return frozenset(s for s in pool
                     if all(s.inverse() * g * s in elements for g in gens))


def sorted_chunks(perms: Iterable[Permutation]) -> Iterator[np.ndarray]:
    """The permutations in lexicographic order of their images, as (B, n)
    int arrays: the order in which the witness scans test candidates."""
    ordered = sorted(g.images for g in perms)
    for start in range(0, len(ordered), _SCAN_CHUNK):
        part = ordered[start:start + _SCAN_CHUNK]
        yield np.array(part, dtype=np.min_scalar_type(len(part[0])))


# --- exhaustive S_n scans: the BRUTE strategy and test oracles ------------------

def perm_chunks(n: int, chunk: int = _SCAN_CHUNK) -> Iterator[np.ndarray]:
    """All n! permutations in lexicographic order as (B, n) int8 arrays,
    decoded from Lehmer ranks."""
    total = factorial(n)
    fact = [factorial(n - 1 - pos) for pos in range(n)]
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        B = idx.size
        digits = np.empty((B, n), dtype=np.int64)
        rem = idx.copy()
        for pos in range(n):
            digits[:, pos] = rem // fact[pos]
            rem %= fact[pos]
        avail = np.tile(np.arange(n, dtype=np.int8), (B, 1))
        out = np.empty((B, n), dtype=np.int8)
        cols = np.arange(n)[None, :]
        for pos in range(n):
            d = digits[:, pos]
            out[:, pos] = avail[np.arange(B), d]
            shifted = np.roll(avail, -1, axis=1)
            avail = np.where(cols >= d[:, None], shifted, avail)
        yield out


def conjugation_scan(n: int, conditions: Sequence[tuple[Permutation, Iterable[Permutation]]]) -> list[Permutation]:
    """All sigma in S_n with sigma^-1 * g * sigma in P for every (g, P) given,
    by exhaustive scan: the oracle for conjugation_set.

    Scanning identity: sigma^-1 g sigma in P  iff  g.sigma = sigma.rho for
    some rho in P, i.e. g[images] equals images gathered at rho.
    """
    if n > BRUTE_DEGREE_BOUND:
        raise ValueError(f"exhaustive S_n scan limited to degree {BRUTE_DEGREE_BOUND}, got {n}")
    conds = []
    for g, P in conditions:
        garr = np.array(g.images, dtype=np.int8)
        parr = np.array([rho.images for rho in P], dtype=np.int8)
        conds.append((garr, parr))
    out: list[Permutation] = []
    for A in perm_chunks(n):
        mask = np.ones(A.shape[0], dtype=bool)
        for garr, parr in conds:
            gA = garr[A]                       # (B, n): g o sigma
            sub = np.zeros(A.shape[0], dtype=bool)
            for rho in parr:
                sub |= (gA == A[:, rho]).all(axis=1)
                # A[:, rho] is sigma o rho
            mask &= sub
            if not mask.any():
                break
        for b in np.nonzero(mask)[0]:
            out.append(Permutation(tuple(int(v) for v in A[b])))
    return out


def hset_brute(target: Permutation, P: Iterable[Permutation] | PermGroup) -> frozenset[Permutation]:
    """{sigma in S_n : sigma^-1 * target * sigma in P} by exhaustive scan: the
    oracle for conjugation_set."""
    n = target.degree
    members = P.elements() if isinstance(P, PermGroup) else list(P)
    return frozenset(conjugation_scan(n, [(target, members)]))


def reduce_generators(elements: frozenset[Permutation]) -> list[Permutation]:
    """Small generating set extracted greedily from an enumerated group."""
    if len(elements) == 1:
        return [next(iter(elements))]
    gens: list[Permutation] = []
    have: frozenset[Permutation] = frozenset()
    for x in sorted(elements, key=lambda p: p.images):
        if x.is_identity():
            continue
        if not gens:
            gens.append(x)
            have = group_closure(gens)
            continue
        if x not in have:
            gens.append(x)
            have = group_closure(gens)
        if len(have) == len(elements):
            break
    return gens or [next(iter(elements))]


def sylow_ascend(ambient: frozenset[Permutation], p: int,
                 seed: Iterable[Permutation]) -> frozenset[Permutation]:
    """Ascend a p-subgroup to a Sylow p-subgroup of the enumerated ambient group.

    Repeatedly: compute N = normalizer of the current subgroup inside ambient
    (by direct conjugation of the current generators), pick the least p-element
    of N outside the subgroup whose adjunction keeps a p-group, and re-close.
    Standard Sylow theory guarantees progress while |current| < p-part(|ambient|).
    """
    amb_order = len(ambient)
    target = 1
    while amb_order % p == 0:
        target *= p
        amb_order //= p
    cur = group_closure(list(seed)) if not isinstance(seed, frozenset) else seed
    cur = frozenset(cur)
    if any(x not in ambient for x in cur):
        raise ValueError("seed not contained in the ambient group")
    o = len(cur)
    while o % p == 0:
        o //= p
    if o != 1:
        raise ValueError("seed is not a p-group")
    while len(cur) < target:
        gens = reduce_generators(cur)
        norm = [s for s in ambient
                if all(s.inverse() * g * s in cur for g in gens)]
        grew = False
        for x in sorted(norm, key=lambda t: t.images):
            if x in cur:
                continue
            xo = x.order()
            while xo % p == 0:
                xo //= p
            if xo != 1:
                # take the p-part of x instead
                q = x.order()
                pp = 1
                while q % p == 0:
                    pp *= p
                    q //= p
                if pp == 1:
                    continue
                x = x ** q
                if x in cur or x.is_identity():
                    continue
            nxt = group_closure(gens + [x])
            no = len(nxt)
            while no % p == 0:
                no //= p
            if no == 1 and len(nxt) > len(cur):
                cur = nxt
                grew = True
                break
        if not grew:
            raise RuntimeError("Sylow ascent stalled below the p-part "
                               f"({len(cur)} < {target})")
    return cur
