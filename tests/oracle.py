"""References the package's array code is held to.

Per-window enumeration: every window of the classical group is visited,
tested against a window predicate and scored with the atomic window
statistics, independently of the root action the package sums over.

Root tables and the parabolic chain, one root and one element at a time:
the reflection closure, the reflection table loop and the breadth-first
search that sifts every product to its minimal coset representative.
"""

import itertools

import numpy as np

from oddlength.cartan import cartan_matrix
from oddlength.gf import ResolvedProfile
from oddlength.poly import Poly
from oddlength.stats import (
    COMPOSITE,
    SignedPermutation,
    StatisticId,
    atomic_stats,
    is_chessboard,
    is_good_chessboard,
    is_unimodal,
)
from oddlength.weyl import _sift, identity, length_by_roots, multiply, simple_reflection


def iter_group_windows(ctype):
    """All windows of the classical group of ctype, plain S_n order inside
    each sign pattern."""
    n = ctype.window_size
    if ctype.family == "A":
        yield from itertools.permutations(range(1, n + 1))
        return
    for signs in itertools.product((1, -1), repeat=n):
        if ctype.family == "D" and signs.count(-1) % 2:
            continue
        for p in itertools.permutations(range(1, n + 1)):
            yield tuple(s * v for s, v in zip(p, signs))


# family -> Coxeter length, whose parity gives the sign
COXETER_LENGTH = {
    "A": StatisticId.len_A,
    "B": StatisticId.len_B,
    "C": StatisticId.len_B,
    "D": StatisticId.len_D,
}

# restriction -> window predicate, None for the whole group
RESTRICTION_PREDICATES = {
    "full": None,
    "unimodal": is_unimodal,
    "chessboard": is_chessboard,
    "good-chessboard": lambda win: is_good_chessboard(SignedPermutation.of(win)),
}


def gf_by_windows(ctype, profile: ResolvedProfile, predicate=None, unsigned=False):
    """Series of a classical profile over the windows that pass predicate
    (all of them when None), and the number of those windows."""
    sign_parts = tuple(s.value for s in COMPOSITE[COXETER_LENGTH[ctype.family]])
    var_parts = [
        tuple(s.value for s in COMPOSITE.get(stat, (stat,)))
        for stat in profile.window_stats
    ]
    acc: dict[tuple[int, ...], int] = {}
    count = 0
    for win in iter_group_windows(ctype):
        if predicate is not None and not predicate(win):
            continue
        count += 1
        table = atomic_stats(win)
        expo = tuple(sum(table[p] for p in parts) for parts in var_parts)
        weight = 1 if unsigned else (-1) ** (sum(table[p] for p in sign_parts) & 1)
        acc[expo] = acc.get(expo, 0) + weight
    return Poly(profile.vars, acc), count


# the types the root and chain oracles are checked on: every type of rank at
# most 8, and E8
UP_TO_RANK_8 = (
    [f"{f}{r}" for f in "ABC" for r in range(1, 9)]
    + [f"D{r}" for r in range(2, 9)]
    + ["G2", "F4", "E6", "E7", "E8"]
)


def reflect(coords, j, cmat):
    """Image of a coordinate tuple under the simple reflection s_j."""
    out = list(coords)
    out[j] -= sum(c * row[j] for c, row in zip(coords, cmat))
    return tuple(out)


def positive_roots(ctype):
    """The positive roots of ctype, closed from the simple roots one root
    and one reflection at a time, as a set of coordinate tuples."""
    cmat, r = cartan_matrix(ctype), ctype.rank
    found = {tuple(int(i == j) for i in range(r)) for j in range(r)}
    frontier = list(found)
    while frontier:
        fresh = []
        for root in frontier:
            for j in range(r):
                image = reflect(root, j, cmat)
                if min(image) >= 0 and image not in found:
                    found.add(image)
                    fresh.append(image)
        frontier = fresh
    return found


def reflection_tables(system):
    """(tgt, neg) of the simple reflections of system, root by root."""
    cmat = cartan_matrix(system.ctype)
    index_of = {c: k for k, c in enumerate(system.positive_roots)}
    tgt = np.empty((system.rank, system.size), dtype=np.int16)
    neg = np.empty((system.rank, system.size), dtype=np.uint8)
    for j in range(system.rank):
        for k, coords in enumerate(system.positive_roots):
            image = reflect(coords, j, cmat)
            neg[j, k] = min(image) < 0
            tgt[j, k] = index_of[tuple(-c for c in image) if neg[j, k] else image]
    return tgt, neg


def transversal_chain(system):
    """The parabolic chain by breadth-first search over s u, each product
    sifted to its minimal coset representative; levels by length, then key."""
    r = system.rank
    levels = []
    for k in range(r):
        gens = [simple_reflection(system, i) for i in range(r - k)]
        start = identity(system)
        reps, frontier = {start.key(): start}, [start]
        while frontier:
            fresh = []
            for u in frontier:
                for s in gens:
                    v = _sift(multiply(s, u), r - k - 1)
                    if v.key() not in reps:
                        reps[v.key()] = v
                        fresh.append(v)
            frontier = fresh
        levels.append(sorted(reps.values(), key=lambda u: (length_by_roots(u), u.key())))
    return levels
