"""Exhaustive S_n oracles and direct constructions shared by the tests."""
from cycperm.algebra import Field, Polynomial, prime_factors, root_system, units
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
