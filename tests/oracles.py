"""Exhaustive S_n oracles shared by the tests."""
from cycperm.perm import PermGroup, Permutation, conjugation_scan


def hset_brute(target: Permutation, P: PermGroup) -> frozenset[Permutation]:
    """{sigma in S_n : sigma^-1 * target * sigma in P} by exhaustive scan: the
    oracle for conjugation_set."""
    return frozenset(conjugation_scan(target.degree, [(target, P.elements())]))
