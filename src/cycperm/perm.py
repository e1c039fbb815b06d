"""Permutations on {0..n-1}, permutation groups on a stabilizer chain,
orbits and block systems, conjugation sets and normalizers in S_n, and Sylow
subgroups.

PermGroup, generators on a stabilizer chain built by the deterministic
Schreier-Sims algorithm (Sims 1970; Seress, Permutation Group Algorithms,
2003, ch. 4), is the one group value: its order and membership never list
elements, and a group is checked through its generators.  Every chain of a
PermGroup is grown by one constructor, PermGroup.from_rows: it feeds
candidate image rows to one chain in their order, keeps as generators only
the rows that extend it, and keeps the chain, which is the one its
generators build, as a row already in the group leaves the chain unchanged.
So a p-group grown from its rows at a known order (quasicyclic.qc_sylow), a
group closed from a set of rows (quasicyclic) or one given by generators
(PermGroup._chain) is built the same way, and nothing else writes a
group's chain.  PermGroup._array is the one listing, the image rows of
every element made once from the chain's transversals after the order is
checked against CLOSURE_BOUND, and it is used only where a set is the
answer.  The chain is built no further than a question needs: from_rows
stops reading rows at a known order, and a Schreier generator along an
edge of an orbit's Schreier tree is the identity by construction, so it is
never sifted.  Neither changes the chain that completes.  A
StabilizerChain can open the levels of a given base prefix first, so that
its level i is the stabilizer of the prefix's first i points: the
automorphism search (autgroups.backtrack_full_group) grows the group it
finds on the chain whose base is its own coordinate order.  The normalizer
ascent (sylow_ascend) completes a p-subgroup of a listed group to a Sylow
p-subgroup of it; it takes and returns PermGroups.  No library path runs
it: it is the tests' reference for the Sylow subgroups built in closed
form, and it stays in this module because the benchmark's tracing
(perfbench/tracing.py) wraps it by name.  Those closed forms read affine
maps off affine_p_rows, the affine p-elements of Z mod n that fix a
residue class mod l, one per coset of <T^l>: the Sylow subgroup of a
quasi-cyclic code's affine automorphisms (quasicyclic.qc_sylow) and, at
l = 1, the multipliers of HP's Sylow descriptor
(equivalence.build_sylow_descriptor).  Kaloujnine's group W_T
of triangular maps is the only Sylow p-subgroup of S_(p^r) through the
shift T; it is generated by its level maps (kaloujnine_generators, whose
docstring counts the Sylow subgroups to show it is the only one), and its
normalizer in S_n is W_T D, with D the digit scalings (digit_scalings).

The conjugation set {sigma : sigma^-1 g sigma in P} is built at every degree
from centralizer cosets: the solutions of sigma^-1 g sigma = rho are the
coset C(g) sigma_rho, where sigma_rho lines the cycles of rho up with those
of g and C(g) is the product of the wreath products C_L wr S_m over the
cycle lengths L of g with multiplicity m (Seress, Permutation Group
Algorithms, 2003), listed from its generators (centralizer_generators).  The
sigma_rho come from one numpy pass over the sorted rows of P that traces
every row's cycles at once (conjugation_cosets), as an array of image rows.
conjugation_rows lists the set as image rows sorted lexicographically; it
backs conjugation_set and the normalizer.  The witness scans take only
shift_coset_leaders: for g = T^l, one member per left coset of <T^l>, the
coset's least row, in the same sorted order.  A code fixed by T^l is mapped
onto by all of a coset or by none of it, so the leaders give the same first
witness and the same verdict as the full listing, with n/l times fewer rows.
They need only the members c of C(T^l) = C_m wr S_l with c(0) < l, which
are listed in closed form with no chain built (_shift_centralizer_leaders).

Every group whose block systems the library asks for contains the shift T,
and the block systems of such a group are the partitions into residues mod
the divisors b of n that its generators keep, found by one numpy comparison
per divisor (minimal_blocks); a group without T is refused.

The exhaustive S_n scan, conjugation_scan, takes all n! permutations in
lexicographic order from itertools.permutations, in numpy chunks made by the
row-chunk helper that also lists the subsets of codes.min_distance's rank
steps, so n <= 10 stays within seconds.  It is the tests' oracle for
conjugation_set and no decision path calls it: the BRUTE equivalence
strategy runs the automorphism search of autgroups against a second code.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial, gcd, lcm
from typing import Iterable, Iterator, Sequence

import numpy as np

from .algebra import p_part, prime_power, units

CLOSURE_BOUND = 1_000_000
BRUTE_DEGREE_BOUND = 10
_SCAN_CHUNK = 360_360


class ClosureBoundExceeded(RuntimeError):
    def __init__(self, bound: int, reached: int):
        super().__init__(f"group closure exceeded bound {bound} (reached {reached} elements)")
        self.bound = bound
        self.reached = reached


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a after b, on image tuples: (a b)(i) = a(b(i))."""
    return tuple([a[i] for i in b])


def _compose3(a: tuple[int, ...], b: tuple[int, ...], c: tuple[int, ...]) -> tuple[int, ...]:
    """a after b after c in one pass: (a b c)(i) = a(b(c(i)))."""
    return tuple([a[b[i]] for i in c])


def _invert(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, v in enumerate(a):
        inv[v] = i
    return tuple(inv)


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
        return Permutation(_compose(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation(_invert(self.images))

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
        """The cycles of length > 1, each from its least point, sorted by it."""
        classes = _cycle_classes(self.images)
        return tuple(sorted(c for L, cs in classes.items() if L > 1 for c in cs))

    def order(self) -> int:
        return lcm(*_cycle_classes(self.images))

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
        """T^l: i -> i+l mod n, of order n/gcd(n,l), for every l >= 1; T^n
        is the identity."""
        if l < 1:
            raise ValueError(f"need l >= 1, got l={l}")
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


class StabilizerChain:
    """Stabilizer chain of a permutation group on {0..n-1}, built by the
    deterministic Schreier-Sims algorithm (Sims 1970; Seress, Permutation
    Group Algorithms, 2003, ch. 4).

    Level i holds the base point base[i], the strong generators fixing
    base[:i], and a transversal of the orbit of base[i] under them: for each
    orbit point x an element u_x with u_x(base[i]) = x, kept with its
    inverse.  Every element is one product u_0 u_1 ... of transversal
    elements, so the order is the product of the orbit lengths and
    membership is a sift through the levels.  Elements are image tuples.

    The chain skips work whose outcome it can prove, and every skip leaves
    the base, orbits, transversals and strong generators exactly as the
    plain algorithm makes them, because each skipped step would have
    composed with the identity or sifted an element to the identity:
    - Tree edges.  The Schreier generator of an orbit point x and a
      generator s is u_(s x)^-1 s u_x.  When the orbit reached s x first
      through x and s, the transversal element made there is
      u_(s x) = s u_x, so that Schreier generator is the identity: the pair
      is marked as checked when the element is made (a tree edge of the
      orbit's Schreier tree) and is never sifted.
    - Fixed base points.  A sift passes over a level whose base point the
      element fixes: the transversal element there is u_(base[i]), the
      identity, so the strip would leave the element as it is.  A Schreier
      generator is built with one composition when u_(s x) is the
      identity (s x is the base point), and with none when u_x is too:
      it is s.  (A pair (base point, s) with s moving the base point is
      always a tree edge: a strong generator is inserted at levels whose
      base points it fixes, and at the last one it moves the base point
      out of the orbit.)
    - Certified levels.  add(g, certified=c) takes the caller's word that
      level c already holds every element of G = <the chain's group, g>
      that fixes base[:c].  Every element the completion makes lies in G.
      A residue that passes level c - 1 fixes base[:c], so it lies in level
      c's group, which the levels from c on describe completely: sifting it
      on would end in the identity, so it is taken as a member there.
      Hence no element is ever inserted at a level >= c, those levels stay
      as they are, and the argument holds for the whole completion.  In
      particular every Schreier generator of level c - 1 fixes base[:c]
      and would sift to the identity, so that level's pairs are marked as
      checked without building them.  autgroups._search proves the fact
      for every automorphism it adds below its identity path.
    Only identities are skipped, so the Schreier generators whose residue
    is not the identity, their order and the first of them are those of
    the plain algorithm, and so is the chain.

    The levels of a given base prefix are opened first, so level i is the
    pointwise stabilizer of prefix[:i] and orbit[i] the orbit of prefix[i]
    under it, whatever elements are added later; further base points are
    opened as added elements need them.
    """

    def __init__(self, n: int, prefix: Sequence[int] = ()):
        self.identity = tuple(range(n))
        self.base: list[int] = []
        self.gens: list[list[tuple[int, ...]]] = []
        self.orbit: list[list[int]] = []
        self.trans: list[dict[int, tuple[int, ...]]] = []
        self.inv: list[dict[int, tuple[int, ...]]] = []
        # (orbit point, generator index) pairs whose Schreier generator is
        # known to lie in the next level's group
        self.checked: list[set[tuple[int, int]]] = []
        for b in prefix:
            self._open(b)

    def order(self) -> int:
        out = 1
        for orb in self.orbit:
            out *= len(orb)
        return out

    def sift(self, g: tuple[int, ...], start: int = 0,
             stop: int | None = None) -> tuple[tuple[int, ...], int]:
        """Strip g by the transversals of levels start..stop - 1 (to the
        last level by default): the residue and the level where it dropped
        out (stop when it passed them all).  A level whose base point g
        fixes is passed over, as its transversal element there is the
        identity.  g is in the group of level start iff the residue of the
        sift to the last level is the identity."""
        base, inv = self.base, self.inv
        stop = len(base) if stop is None else stop
        for i in range(start, stop):
            b = base[i]
            x = g[b]
            if x != b:
                ui = inv[i].get(x)
                if ui is None:
                    return g, i
                g = _compose(ui, g)
        return g, stop

    def __contains__(self, g: tuple[int, ...]) -> bool:
        return self.sift(g)[0] == self.identity

    def add(self, g: tuple[int, ...], certified: int | None = None) -> bool:
        """Extend the group by g and complete the chain again; False when g
        is already a member.  certified = c states that level c already
        holds every element of <the chain's group, g> that fixes base[:c];
        the completion then sifts no element past level c - 1 (see the
        class docstring)."""
        found = self._residue(g, 0, certified)
        if found is None:
            return False
        h, j = found
        self._insert(h, 0, j)
        level = j
        # the levels after `level` form a complete chain of their group
        while level >= 0:
            found = self._schreier_residue(level, certified)
            if found is None:
                level -= 1
            else:
                h, j = found
                self._insert(h, level + 1, j)
                level = j
        return True

    def _residue(self, g: tuple[int, ...], start: int,
                 certified: int | None) -> tuple[tuple[int, ...], int] | None:
        """g's residue and drop-out level from level start on, or None when
        g lies in that level's group; with certified = c, a residue that
        passes level c - 1 lies in level c's group."""
        h, j = self.sift(g, start, certified)
        if certified is None:
            return None if h == self.identity else (h, j)
        return None if j == certified else (h, j)

    def _insert(self, h: tuple[int, ...], first: int, last: int) -> None:
        """Add h, which fixes base[:last], as a strong generator of levels
        first..last, opening level last when h fixes every base point."""
        if last == len(self.base):
            self._open(next(i for i, v in enumerate(h) if v != i))
        for level in range(first, last + 1):
            gens = self.gens[level]
            gens.append(h)
            orbit, trans, inv = self.orbit[level], self.trans[level], self.inv[level]
            checked = self.checked[level]
            for x in orbit:            # the loop also visits the points it appends
                u = trans[x]
                for si, s in enumerate(gens):
                    y = s[x]
                    if y not in trans:
                        trans[y] = v = _compose(s, u)
                        inv[y] = _invert(v)
                        orbit.append(y)
                        checked.add((x, si))     # u_y^-1 s u_x is the identity

    def _open(self, b: int) -> None:
        """Open a level with base point b and no generators yet."""
        self.base.append(b)
        self.gens.append([])
        self.orbit.append([b])
        self.trans.append({b: self.identity})
        self.inv.append({b: self.identity})
        self.checked.append(set())

    def _schreier_residue(self, level: int,
                          certified: int | None) -> tuple[tuple[int, ...], int] | None:
        """The first Schreier generator u_(s x)^-1 s u_x of the level that
        does not sift to the identity through the levels below it, as its
        residue and drop-out level; None when there is none.  At level
        certified - 1 there is none, and every pair is marked as checked."""
        trans, inv, checked = self.trans[level], self.inv[level], self.checked[level]
        orbit, gens = self.orbit[level], self.gens[level]
        if certified is not None and level + 1 >= certified:
            checked.update((x, si) for x in orbit for si in range(len(gens)))
            return None
        b = self.base[level]
        for x in orbit:
            u = trans[x]
            for si, s in enumerate(gens):
                if (x, si) in checked:
                    continue
                checked.add((x, si))
                y = s[x]
                if y != b:
                    schreier = _compose3(inv[y], s, u)
                elif x != b:
                    schreier = _compose(s, u)       # u_(s x) is the identity
                else:
                    schreier = s                    # so is u_x
                found = self._residue(schreier, level + 1, certified)
                if found is not None:
                    return found
        return None

    def products(self) -> np.ndarray:
        """All products u_0 u_1 ... of transversal elements, one per row."""
        n = len(self.identity)
        dtype = np.min_scalar_type(n)
        out = np.array([self.identity], dtype=dtype)
        for level in reversed(range(len(self.base))):
            U = np.array([self.trans[level][x] for x in self.orbit[level]], dtype=dtype)
            out = U[:, out].reshape(-1, n)
        return out


def _as_perms(rows: np.ndarray) -> frozenset[Permutation]:
    return frozenset(Permutation(tuple(r)) for r in rows.tolist())


def group_closure(generators: Iterable[Permutation]) -> frozenset[Permutation]:
    """The elements of the generated group (PermGroup.elements); raises
    ClosureBoundExceeded past CLOSURE_BOUND before listing anything."""
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    return PermGroup.from_generators(gens[0].degree, gens).elements()


@dataclass(frozen=True)
class PermGroup:
    """Group given by generators, the one group value of the library.  Order
    and membership come from a stabilizer chain built once and cached; the
    elements are listed once, as image rows (_array), only where a set is
    the answer."""
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

    @staticmethod
    def from_rows(n: int, rows: Iterable[Sequence[int]], order: int | None = None) -> "PermGroup":
        """The group generated by the image rows, grown on one stabilizer
        chain in their order.  Its generators are the rows that extend the
        chain, and it keeps that chain: a row already in the group leaves it
        unchanged, so it is the chain _chain builds from those generators.
        No row is read once the order reaches `order`, which the caller
        knows, as for a p-group whose order a product formula gives
        (quasicyclic.qc_sylow)."""
        chain, gens = StabilizerChain(n), []
        for images in rows:
            images = tuple(images)
            if chain.add(images):
                gens.append(Permutation(images))
            if chain.order() == order:
                break
        group = PermGroup(n, tuple(gens))
        group.__dict__["_chain"] = chain        # the cached_property's slot
        return group

    @cached_property
    def _chain(self) -> StabilizerChain:
        return PermGroup.from_rows(self.degree, [g.images for g in self.generators])._chain

    @cached_property
    def _array(self) -> np.ndarray:
        """Every element as an (order, n) array of images, listed from the
        chain's transversals; raises ClosureBoundExceeded before listing
        anything when the order exceeds CLOSURE_BOUND."""
        order = self.order()
        if order > CLOSURE_BOUND:
            raise ClosureBoundExceeded(CLOSURE_BOUND, order)
        return self._chain.products()

    @cached_property
    def _elements(self) -> frozenset[Permutation]:
        return _as_perms(self._array)

    def elements(self) -> frozenset[Permutation]:
        """The element set, listed once and cached; raises
        ClosureBoundExceeded past CLOSURE_BOUND before listing anything."""
        return self._elements

    def order(self) -> int:
        return self._chain.order()

    def __contains__(self, sigma: Permutation) -> bool:
        return sigma.degree == self.degree and sigma.images in self._chain

    def __eq__(self, other: object) -> bool:
        """Equal as groups, whatever the generators: the same degree and
        order, and each side's generators in the other."""
        if not isinstance(other, PermGroup):
            return NotImplemented
        return self.degree == other.degree and self.order() == other.order() \
            and all(g in other for g in self.generators) \
            and all(g in self for g in other.generators)

    def __hash__(self) -> int:
        return hash((self.degree, self.order()))


def orbits(n: int, generators: Sequence[Permutation]) -> list[tuple[int, ...]]:
    """Orbits of the generated group on {0..n-1}, sorted by least element:
    the classes of the union-find that joins each i to g(i)."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in generators:
        for i in range(n):
            a, b = find(i), find(g(i))
            parent[max(a, b)] = min(a, b)
    cls: dict[int, list[int]] = {}
    for i in range(n):
        cls.setdefault(find(i), []).append(i)
    return [tuple(c) for _, c in sorted(cls.items())]


def is_transitive(n: int, generators: Sequence[Permutation]) -> bool:
    return len(orbits(n, generators)) == 1


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
    """All minimal nontrivial block systems of a group through the shift T,
    ordered by their number of blocks; empty means the group is primitive.
    A group without T raises a ValueError.

    Every block system of such a group G is the partition into residues
    mod some divisor b of n.  Its block B through 0 is also a block of <T>,
    and the setwise stabilizer of B in <T> is a subgroup <T^b> with b | n.
    That stabilizer is transitive on B: for x in B, T^x moves 0 in B to x in
    B, so it keeps B.  Hence B is the orbit of 0 under <T^b>, that is
    bZ_n, the block through i is T^i B = i + bZ_n, and there are b blocks.
    Conversely the residues mod b are a block system of G iff every
    generator g maps residue classes onto residue classes, that is
    g(i + b) = g(i) mod b for all i, which one numpy comparison over the
    generator rows tests for each divisor 1 < b < n.  The system mod b
    refines the one mod c iff c | b, so the minimal systems are the valid b
    with no valid proper multiple below n; a prime degree has none."""
    n = group.degree
    T = Permutation.shift(n)
    if T not in group.generators and T not in group:
        raise ValueError("block systems are computed for groups through the shift T, "
                         "which are transitive; T is not in this group")
    rows = np.array([g.images for g in group.generators], dtype=np.intp).reshape(-1, n)
    valid = [b for b in range(2, n) if n % b == 0
             and (rows.reshape(len(rows), n // b, b) % b == rows[:, None, :b] % b).all()]
    return [BlockSystem(tuple(tuple(range(i, n, b)) for i in range(b))) for b in valid
            if not any(c != b and c % b == 0 for c in valid)]


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


# --- conjugation sets by centralizer cosets -----------------------------------

def _cycle_classes(images: Sequence[int]) -> dict[int, list[tuple[int, ...]]]:
    """Cycles of the permutation with these images, fixed points included,
    keyed by length; each cycle starts at its least point and the cycles of
    one length are in that order."""
    classes: dict[int, list[tuple[int, ...]]] = {}
    seen = [False] * len(images)
    for i in range(len(images)):
        if seen[i]:
            continue
        cyc = [i]
        j = images[i]
        while j != i:
            cyc.append(j)
            j = images[j]
        for x in cyc:
            seen[x] = True
        classes.setdefault(len(cyc), []).append(tuple(cyc))
    return classes


def centralizer_order(g: Permutation) -> int:
    """|C(g)| in S_n: the product of L^m * m! over the cycle lengths L of g
    (fixed points included) with multiplicity m."""
    out = 1
    for L, cs in _cycle_classes(g.images).items():
        out *= L ** len(cs) * factorial(len(cs))
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
    for L, cycles in sorted(_cycle_classes(g.images).items()):
        m = len(cycles)
        if L > 1:
            c = cycles[0]
            gens.append(_point_map(n, zip(c, c[1:] + c[:1])))
        if m > 1:
            gens.append(_move_cycles(n, cycles, [1, 0] + list(range(2, m))))
        if m > 2:
            gens.append(_move_cycles(n, cycles, list(range(1, m)) + [0]))
    return gens


def conjugation_cosets(g: Permutation, P: PermGroup) -> np.ndarray:
    """One sigma_rho per rho in P with the cycle type of g, in the order of
    rho's images, as an (R, n) array of images: sigma_rho lines rho's cycles
    up with g's, so that sigma_rho^-1 g sigma_rho = rho.  The set
    {sigma : sigma^-1 g sigma in P} is the disjoint union of the cosets
    C(g) sigma_rho.

    rho's cycles are taken in the order of their least points, and the j-th
    cycle of length L, from its least point, is mapped point by point onto
    the j-th cycle of length L of g, from its least point.  All rows of P,
    sorted, are traced at once: each round takes every row's least point not
    yet placed, follows its cycle by gathers, and drops the rows whose cycle
    has a length g has no cycle left for; after as many rounds as g has
    cycles, the rows left are those with g's cycle type."""
    targets = sorted((L, np.array(cs)) for L, cs in _cycle_classes(g.images).items())
    longest = targets[-1][0]
    A = P._array
    A = A[np.lexsort(A.T[::-1])]
    sigma = np.empty_like(A)
    placed = np.zeros(A.shape, dtype=bool)
    used = np.zeros((len(A), len(targets)), dtype=np.intp)   # cycles matched, per length
    for _ in range(sum(len(cs) for _, cs in targets)):
        rows = np.arange(len(A))
        path = [np.argmin(placed, axis=1)]
        for _ in range(longest):
            path.append(A[rows, path[-1]])
        path = np.stack(path, axis=1)
        back = path[:, 1:] == path[:, :1]
        length = np.where(back.any(axis=1), back.argmax(axis=1) + 1, 0)
        keep = np.zeros(len(A), dtype=bool)
        for k, (L, cs) in enumerate(targets):
            on = np.nonzero((length == L) & (used[:, k] < len(cs)))[0]
            pts = path[on, :L]
            sigma[on[:, None], pts] = cs[used[on, k]]
            placed[on[:, None], pts] = True
            used[on, k] += 1
            keep[on] = True
        A, sigma, placed, used = A[keep], sigma[keep], placed[keep], used[keep]
    return sigma


def _sorted_products(C: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """The rows of c * sigma over the rows c of C and the rows sigma of reps,
    in lexicographic order."""
    # (c * sigma)(i) = c(sigma(i))
    rows = C[:, reps].reshape(-1, C.shape[1])
    return rows[np.lexsort(rows.T[::-1])]


def conjugation_rows(g: Permutation, P: PermGroup) -> np.ndarray:
    """{sigma in S_n : sigma^-1 * g * sigma in P} as an (N, n) array of
    images in the smallest integer type, one row per member, in
    lexicographic order.  The rows are the union of the cosets C(g) sigma_rho
    of conjugation_cosets, with C(g) listed from centralizer_generators.  Its
    size, |C(g)| times the number of cosets, is checked against
    CLOSURE_BOUND before anything is listed."""
    reps = conjugation_cosets(g, P)
    size = centralizer_order(g) * len(reps)
    if size > CLOSURE_BOUND:
        raise ClosureBoundExceeded(CLOSURE_BOUND, size)
    if not len(reps):
        return np.empty((0, g.degree), dtype=np.min_scalar_type(g.degree))
    return _sorted_products(PermGroup(g.degree, tuple(centralizer_generators(g)))._array, reps)


def _shift_centralizer_leaders(n: int, l: int) -> np.ndarray:
    """The l! m^(l-1) members c of C(T^l) with c(0) < l, m = n/l, as rows of
    images in the smallest integer type, built without a stabilizer chain.
    C(T^l) is C_m wr S_l on the l cycles (i, i + l, ...) of T^l: its members
    are c(i + jl) = pi(i) + ((j + e_i) mod m) l with pi in S_l and e in
    Z_m^l, and c(0) = pi(0) + e_0 l is below l exactly when e_0 = 0."""
    m = n // l
    pi = np.array(list(itertools.permutations(range(l))), dtype=np.intp)
    e = np.zeros((m ** (l - 1), l), dtype=np.intp)
    e[:, 1:] = list(itertools.product(range(m), repeat=l - 1))
    # C[a, b, j, i] = c(i + jl) for pi = pi[a] and e = e[b]
    C = pi[:, None, None, :] + (np.arange(m)[:, None] + e[:, None, :]) % m * l
    return C.reshape(-1, n).astype(np.min_scalar_type(n))


def shift_coset_leaders(P: PermGroup, l: int = 1) -> tuple[np.ndarray, int]:
    """One member of each left coset <T^l> sigma inside
    H = {sigma in S_n : sigma^-1 T^l sigma in P}, the one with sigma(0) < l,
    as an (N, n) array of images in lexicographic order, and |H|.  Each row
    stands for the n/l members of its coset, so |H| = (n/l) N; it is
    computed as |C(T^l)| times the number of cosets of conjugation_cosets,
    without listing H.

    H is a union of these cosets, as <T^l> lies in C(T^l).  Every sigma_rho
    of conjugation_cosets fixes 0: the cycle of rho through 0 is the first
    of its length and is lined up with the cycle (0, l, 2l, ...) of T^l.  So
    the leaders are the c sigma_rho with c in C(T^l) and c(0) < l; at l = 1
    C(T) = <T> and they are the sigma_rho themselves.  Those c are listed
    in closed form (_shift_centralizer_leaders).  The first entries
    sigma(0) + lj mod n of the members T^(lj) sigma of a coset are
    distinct and exactly one is below l, so the leader is the coset's
    lexicographically least row.

    This is all a witness scan needs.  When T^l fixes C2 (a cyclic code, or
    one checked to be invariant under T^l), sigma maps C1 onto C2 if and
    only if every T^(lj) sigma does: the members of a coset pass or fail
    together.  Hence the first passing leader is the first passing row of
    the full sorted conjugation_rows(T^l, P), and no leader passes exactly
    when no member does.  CLOSURE_BOUND applies to |C(T^l)| before anything
    is listed, then to the leaders."""
    n = P.degree
    if l < 1 or n % l:
        raise ValueError(f"index {l} does not divide the degree {n}")
    g = Permutation.power_shift(n, l)
    reps = conjugation_cosets(g, P)
    order = centralizer_order(g)
    if order > CLOSURE_BOUND:
        raise ClosureBoundExceeded(CLOSURE_BOUND, order)
    C = _shift_centralizer_leaders(n, l)
    listed = len(C) * len(reps)
    if listed > CLOSURE_BOUND:
        raise ClosureBoundExceeded(CLOSURE_BOUND, listed)
    return _sorted_products(C, reps), order * len(reps)


def conjugation_set(g: Permutation, P: PermGroup) -> frozenset[Permutation]:
    """{sigma in S_n : sigma^-1 * g * sigma in P}: the rows of
    conjugation_rows as a set."""
    return _as_perms(conjugation_rows(g, P))


def normalizer_in_symmetric(group: PermGroup) -> frozenset[Permutation]:
    """{sigma in S_n : sigma^-1 G sigma = G}, n the degree of G.  The
    candidates are the conjugation set of the generator with the smallest
    centralizer (of the identity for the trivial group).  Conjugating each
    generator into G suffices, since |sigma^-1 G sigma| = |G|."""
    gens = list(group.generators) or [Permutation.identity(group.degree)]
    pool = conjugation_set(min(gens, key=centralizer_order), group)
    return frozenset(s for s in pool
                     if all(s.inverse() * g * s in group for g in gens))


# --- the exhaustive S_n scan: the test oracle for conjugation_set --------------

def _row_chunks(rows: Iterator[tuple[int, ...]], width: int, chunk: int,
                dtype: type = np.int64) -> Iterator[np.ndarray]:
    """The tuples of `rows`, all of length width >= 1, in their order, as
    (B, width) arrays of at most `chunk` rows."""
    while True:
        flat = np.fromiter(itertools.chain.from_iterable(itertools.islice(rows, chunk)),
                           dtype=dtype)
        if not flat.size:
            return
        yield flat.reshape(-1, width)


def conjugation_scan(n: int, conditions: Sequence[tuple[Permutation, Iterable[Permutation]]]) -> list[Permutation]:
    """All sigma in S_n with sigma^-1 * g * sigma in P for every (g, P) given,
    by exhaustive scan: the oracle for conjugation_set.  S_n comes in
    lexicographic order from itertools.permutations, in int8 chunks of
    _SCAN_CHUNK rows.

    Scanning identity: sigma^-1 g sigma in P  iff  g.sigma = sigma.rho for
    some rho in P, i.e. g[images] equals images gathered at rho.
    """
    if n > BRUTE_DEGREE_BOUND:
        raise ValueError(f"exhaustive S_n scan limited to degree {BRUTE_DEGREE_BOUND}, got {n}")
    conds = [(np.array(g.images, dtype=np.int8), np.array([rho.images for rho in P], dtype=np.int8))
             for g, P in conditions]
    out: list[Permutation] = []
    for A in _row_chunks(itertools.permutations(range(n)), n, _SCAN_CHUNK, np.int8):
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
        out += [Permutation(tuple(row)) for row in A[mask].tolist()]
    return out


def sylow_ascend(ambient: PermGroup, p: int, seed: PermGroup) -> PermGroup:
    """Ascend a p-subgroup of the ambient group to a Sylow p-subgroup of it.

    Repeatedly: among the image rows of the ambient group, those that
    normalize the current subgroup cur (each of its generators conjugated
    into it), in image order, take the first whose p-part x lies outside
    cur, and adjoin x.  That always gives a larger p-group: x normalizes
    cur, so <cur, x> = cur <x>, of order |cur| |<x>| / |cur meet <x>|, a
    power of p, and larger than |cur| as x is not in cur.  Such an x exists
    while |cur| < p-part(|ambient|): cur is then a proper subgroup of a
    Sylow p-subgroup S, and a proper subgroup of a p-group is properly
    contained in its normalizer, so N_S(cur) holds a p-element outside cur.
    The orders come from the stabilizer chains; the ambient group and each
    current subgroup are listed once.
    """
    n = ambient.degree
    target = p_part(ambient.order(), p)
    if any(x not in ambient for x in seed.generators):
        raise ValueError("seed not contained in the ambient group")
    if p_part(seed.order(), p) != seed.order():
        raise ValueError("seed is not a p-group")
    cur = seed

    def keys(rows: np.ndarray) -> np.ndarray:
        """Each image row as one opaque key, for set membership."""
        return np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * n))).ravel()

    while cur.order() < target:
        A = ambient._array
        A_inv = np.argsort(A, axis=1).astype(A.dtype)
        members = keys(cur._array)
        normal = np.ones(len(A), dtype=bool)
        for g in cur.generators:
            # row s gives s^-1 g s: i -> s^-1(g(s(i)))
            conj = np.take_along_axis(A_inv, np.array(g.images)[A], axis=1)
            normal &= np.isin(keys(conj), members)
        for images in sorted(A[normal].tolist()):
            x = Permutation(tuple(images))
            x = x ** (x.order() // p_part(x.order(), p))     # the p-part of x
            if x not in cur:
                cur = PermGroup.from_generators(n, cur.generators + (x,))
                break
        else:
            raise RuntimeError("Sylow ascent stalled below the p-part "
                               f"({cur.order()} < {target})")
    return cur


@lru_cache(maxsize=None)
def kaloujnine_generators(p: int, r: int) -> np.ndarray:
    """The level maps of Kaloujnine's tableau group W_T on Z mod p^r, as a
    read-only (L, p^r) array of image rows, L = (p^r - 1)/(p - 1), built
    once per (p, r) and shared by every caller: for each digit j < r and
    each c < p^j, the map that adds 1 mod p to digit j of x where
    x mod p^j = c and fixes every other point, level by level and c
    ascending.  W_T, the triangular maps sigma whose digit j of sigma(x) is
    x_j plus a function of x mod p^j, is the product of these levels, and
    level j is (Z_p)^(p^j) generated by its p^j maps; so they generate W_T,
    of order p^L.  W_T holds T: digit j of x + 1 is x_j plus the carry out
    of x mod p^j.

    W_T (Kaloujnine 1948) is a Sylow p-subgroup of S_n, n = p^r, since
    v_p(n!) = L by Legendre's formula, and it is the only one through T:
    there are n!/(p^L (p-1)^r) Sylow p-subgroups, n! over the order of the
    normalizer W_T D (digit_scalings), each holds (p-1)^r p^(L-r) n-cycles,
    and the product is all (n-1)! of them, while each n-cycle, a
    p-element, lies in at least one."""
    n = p ** r
    x = np.arange(n)
    rows = []
    for j in range(r):
        pj = p ** j
        digit = x // pj % p
        step = ((digit + 1) % p - digit) * pj
        rows += [np.where(x % pj == c, x + step, x) for c in range(pj)]
    out = np.array(rows, dtype=np.int64).reshape(-1, n)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def affine_p_rows(n: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    """The affine p-elements of Z mod n that fix a residue class mod l, one
    per coset of <T^l>, n = l p^r with gcd(l, p) = 1: a read-only (R, n)
    array of image rows in the smallest unsigned dtype, and a read-only
    (R, l) boolean array saying which classes c mod l each row fixes, both
    built once per (n, l) and shared by every caller.

    Row (a, b) is x -> a x + b for each unit a != 1 of p-power order mod n,
    ascending, and each b < l that is a multiple of gcd(a - 1, l),
    ascending; it fixes the class c when (a - 1) c + b = 0 mod l, which
    has a solution c exactly when gcd(a - 1, l) divides b.  The units form
    an abelian group of order phi(n), so a has p-power order exactly when
    a^e = 1 mod n, e being the p-part of phi(n).  The map x -> a x + b + l j
    is T^(l j) applied after x -> a x + b, so the rows are one per coset of
    <T^l> of the maps with a != 1 that fix some class; those with a = 1,
    x -> x + b with l dividing b, are <T^l> itself.  At l = 1 every row fixes the one class, b is
    0, and the rows are the multipliers M_a of p-power order: a = 1 mod p
    for odd p, every odd a for p = 2."""
    p, _ = prime_power(n // l)
    e = p_part(len(units(n)), p)
    rows = np.array([[(a * x + b) % n for x in range(n)]
                     for a in units(n) if a != 1 and pow(a, e, n) == 1
                     for b in range(0, l, gcd(a - 1, l))], dtype=np.min_scalar_type(n)).reshape(-1, n)
    fixes = rows[:, :l] % l == np.arange(l)           # x -> a x + b keeps c's class mod l
    rows.flags.writeable = fixes.flags.writeable = False
    return rows, fixes


@lru_cache(maxsize=None)
def digit_scalings(p: int, r: int) -> np.ndarray:
    """The (p-1)^r digit scalings of Z mod p^r, x_j -> u_j x_j mod p for
    every digit j with u_j in Z_p^*, as a read-only ((p-1)^r, p^r) array of
    image rows in lexicographic order, built once per (p, r) and shared by
    every caller; the identity, all u_j = 1, is the first row.
    They form a group D that normalizes W_T: for d in D and w in W_T,
    d^-1 w d adds to digit j the function of w's digit j, read at the
    scaled lower digits and scaled by u_j^-1, so it is triangular.  D meets
    W_T only in the identity: a scaling in W_T adds to digit j a function
    of the lower digits, which is 0 as it fixes the points whose digit j
    is 0, so u_j x_j = x_j and u_j = 1."""
    n = p ** r
    x = np.arange(n)
    digits = [x // p ** j % p for j in range(r)]
    rows = np.array([sum(u * d % p * p ** j for j, (u, d) in enumerate(zip(us, digits)))
                     for us in itertools.product(range(1, p), repeat=r)],
                    dtype=np.int64).reshape(-1, n)
    out = rows[np.lexsort(rows.T[::-1])]
    out.flags.writeable = False
    return out
