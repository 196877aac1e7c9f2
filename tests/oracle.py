"""Per-window enumeration: the reference the root engine is held to.

Every window of the classical group is visited, tested against a window
predicate and scored with the atomic window statistics, independently of
the root action the package sums over.
"""

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
from oddlength.weyl import iter_group_windows

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
