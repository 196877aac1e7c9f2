"""Crystallographic root systems built by closure from Cartan data.

Positive roots are stored as integer coordinate tuples over the simple basis,
so a root is nonnegative in every coordinate and its height is the coordinate
sum.  The classical families use the simple systems

    A, rank n-1 of S_n : e_{i+1} - e_i
    B_n               : e_1 and e_{i+1} - e_i
    C_n               : 2e_1 and e_{i+1} - e_i
    D_n               : e_1 + e_2 and e_{i+1} - e_i

with the special node first, which makes the heights come out as j - i for
e_j - e_i, i for e_i, i + j for e_i + e_j in B, i + j - 1 for e_i + e_j in C
(so 2e_i has height 2i - 1) and i + j - 2 in D.  Exceptional families use the
Bourbaki node order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial, lgamma, log

import numpy as np

from .errors import BudgetExceeded, IndexOutOfRange, InvalidRank, NonTerminating, Overflow

__all__ = [
    "CartanType",
    "RootSystem",
    "build_root_system",
    "root_system",
    "cartan_matrix",
    "group_order",
    "positive_root_count",
]

Coords = tuple[int, ...]

_EXCEPTIONAL_RANK = {"E": (6, 7, 8), "F": (4,), "G": (2,)}

_MAX_ROOTS = int(np.iinfo(np.int16).max)  # root indices are int16 (weyl, engine)
# the closure and its tables take about 0.04 us per positive root x rank^2
# on a 2-core x86 machine (0.3 s at A65), the chain about twice as long
_MAX_BUILD = 10**7
# no domain past 2^63 runs; this only keeps refusing larger orders cheap
_ORDER_BITS = 1 << 16

# Edges of the simply laced E diagrams, Bourbaki numbering shifted to 0-based.
_E8_EDGES = ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3))


@dataclass(frozen=True, order=True)
class CartanType:
    """A family letter together with a rank, e.g. CartanType('B', 5)."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if len(self.family) != 1 or self.family not in "ABCDEFG":
            raise InvalidRank(f"unknown family {self.family!r}")
        r = self.rank
        ok = (
            r >= 1
            if self.family in "ABC"
            else r >= 2
            if self.family == "D"
            else r in _EXCEPTIONAL_RANK[self.family]
        )
        if not ok:
            raise InvalidRank(f"rank {r} not allowed for family {self.family}")

    @classmethod
    def parse(cls, text: str) -> CartanType:
        """Parse 'B5', 'b5' or 'E8' into a CartanType."""
        t = text.strip().upper()
        if len(t) < 2 or t[0] not in "ABCDEFG" or not t[1:].isdigit():
            raise InvalidRank(f"cannot parse Cartan type from {text!r}")
        return cls(t[0], int(t[1:]))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def is_classical(self) -> bool:
        return self.family in "ABCD"

    @property
    def window_size(self) -> int:
        """Size of the window a group element acts on (classical only)."""
        if not self.is_classical:
            raise InvalidRank(f"{self} has no window representation")
        return self.rank + 1 if self.family == "A" else self.rank


def group_order(ctype: CartanType) -> int:
    """Order of the Weyl group.  An order past 2^_ORDER_BITS is refused with
    BudgetExceeded on its logarithm, before any factorial is built: n! takes
    seconds from n = 10^6 on, and math.factorial refuses n past a C long."""
    n = ctype.rank
    signs = 0 if ctype.family == "A" else n - (ctype.family == "D")  # classical: 2^signs n!
    ln = lgamma(ctype.window_size + 1) + signs * log(2) if ctype.is_classical else 0
    if ln > _ORDER_BITS * log(2):
        raise BudgetExceeded(f"{ctype} has about 10^{int(ln / log(10))} elements, far past"
                             " the element budget and the 2^63 that int64 tallies count")
    if ctype.family == "A":
        return factorial(n + 1)
    if ctype.family in "BC":
        return 2**n * factorial(n)
    if ctype.family == "D":
        return 2 ** (n - 1) * factorial(n)
    return {("G", 2): 12, ("F", 4): 1152, ("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600}[
        (ctype.family, n)
    ]


def positive_root_count(ctype: CartanType) -> int:
    n = ctype.rank
    if ctype.family == "A":
        return n * (n + 1) // 2
    if ctype.family in "BC":
        return n * n
    if ctype.family == "D":
        return n * (n - 1)
    return {("G", 2): 6, ("F", 4): 24, ("E", 6): 36, ("E", 7): 63, ("E", 8): 120}[(ctype.family, n)]


def cartan_matrix(ctype: CartanType) -> list[list[int]]:
    """Integer matrix C with C[i][j] = 2 (a_i, a_j) / (a_j, a_j).

    The reflection in simple root j acts on coordinate vectors by subtracting
    sum_i c_i * C[i][j] from coordinate j.
    """
    r = ctype.rank
    mat = [[2 * (i == j) for j in range(r)] for i in range(r)]

    def chain(lo: int, hi: int) -> None:
        for i in range(lo, hi - 1):
            mat[i][i + 1] = mat[i + 1][i] = -1

    fam = ctype.family
    if fam == "A":
        chain(0, r)
    elif fam in "BC":
        # node 0 is e_1 (B, short) or 2e_1 (C, long); nodes 1.. are the chain
        chain(1, r)
        if r >= 2:
            if fam == "B":
                mat[0][1], mat[1][0] = -1, -2
            else:
                mat[0][1], mat[1][0] = -2, -1
    elif fam == "D":
        # node 0 is e_1 + e_2, attached to node 2; D_2 is disconnected
        chain(1, r)
        if r >= 3:
            mat[0][2] = mat[2][0] = -1
    elif fam == "G":
        mat[0][1], mat[1][0] = -1, -3
    elif fam == "F":
        mat[0][1] = mat[1][0] = -1
        mat[1][2], mat[2][1] = -2, -1
        mat[2][3] = mat[3][2] = -1
    else:
        for i, j in _E8_EDGES:
            if i < r and j < r:
                mat[i][j] = mat[j][i] = -1
    return mat


def row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-d array as one void scalar of its bytes: keys are
    equal exactly when rows are, and sort as the rows' bytes do."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _reflections(roots: np.ndarray, cmat: np.ndarray) -> np.ndarray:
    """images[j] = the rows of roots reflected in simple root j: coordinate
    j less the pairing sum_i c_i cmat[i][j]."""
    r = len(cmat)
    images = np.repeat(roots[None], r, axis=0)
    images[np.arange(r), :, np.arange(r)] -= (roots @ cmat).T
    return images


def _close_positive_roots(ctype: CartanType, seeds: np.ndarray) -> np.ndarray:
    """Saturate seed rows under all simple reflections, one frontier at a
    time, keeping the all-nonnegative images.  Terminates because heights
    are bounded."""
    cmat = np.array(cartan_matrix(ctype), dtype=np.int64)
    found = frontier = seeds
    rounds = 0
    while len(frontier):
        rounds += 1
        if rounds > 1000:
            raise NonTerminating(f"closure for {ctype} did not stabilize")
        images = _reflections(frontier, cmat).reshape(-1, ctype.rank)
        rows = np.concatenate([found, images[(images >= 0).all(axis=1)]])
        _, first = np.unique(row_keys(rows), return_index=True)
        frontier = rows[np.sort(first[first >= len(found)])]
        found = np.concatenate([found, frontier])
    return found


class RootSystem:
    """Positive roots of one Cartan type in canonical (height, lex) order.

    Fields:
        ctype             CartanType
        positive_roots    tuple of coordinate tuples over the simple basis
        heights           coordinate sums, aligned with positive_roots
        odd_mask          True where the height is odd
        reflection_tables one signed permutation of root indices per simple
                          root s: entry (target, sign) means s maps root k to
                          sign * root target; exactly index s itself flips

    Derived tables are built on first use and kept: odd_index_array; for the
    classical types the ambient root table (ambient_vectors, ambient_index)
    that weyl converts windows through and root_atoms; and the transversal
    chain that weyl.transversal_chain stores in _chain, its elements row
    views of the arrays it stacks into _chain_stack.
    """

    def __init__(self, ctype: CartanType, positive: list[Coords]):
        self.ctype = ctype
        order = sorted(positive, key=lambda c: (sum(c), c))
        self.positive_roots: tuple[Coords, ...] = tuple(order)
        self.heights: tuple[int, ...] = tuple(sum(c) for c in order)
        self.odd_mask: tuple[bool, ...] = tuple(h % 2 == 1 for h in self.heights)
        # the height-1 roots come first, and lex order reverses the unit
        # vectors: simple root j is at position rank - 1 - j
        self.simple_index: tuple[int, ...] = tuple(range(ctype.rank - 1, -1, -1))
        self._build_tables()
        self._chain: list | None = None
        self._chain_stack = None  # a weyl.Stack once _chain is built

    def _build_tables(self) -> None:
        # every root reflected in every simple root at once; the images
        # made positive are looked up by their bytes, exact at any rank
        r, n = self.rank, self.size
        roots = np.array(self.positive_roots, dtype=np.int64).reshape(n, r)
        images = _reflections(roots, np.array(cartan_matrix(self.ctype)))
        neg = (images < 0).any(axis=2)
        images[neg] *= -1
        # coordinates of a root are at most 6, so int8 keys hold them
        keys = row_keys(roots.astype(np.int8))
        order = np.argsort(keys)
        at = np.searchsorted(keys[order], row_keys(images.reshape(-1, r).astype(np.int8)))
        self._refl_tgt = order[at].reshape(r, n).astype(np.int16)
        self._refl_neg = neg.astype(np.uint8)

    @property
    def rank(self) -> int:
        return self.ctype.rank

    @property
    def size(self) -> int:
        """Number of positive roots."""
        return len(self.positive_roots)

    @cached_property
    def odd_index_array(self) -> np.ndarray:
        return np.flatnonzero(self.odd_mask)

    @cached_property
    def ambient_vectors(self) -> np.ndarray:
        """Positive roots as the rows of an int64 matrix in Z^n, n the window
        size (classical types only)."""
        simples = _ambient_simple_vectors(self.ctype)
        return np.array(self.positive_roots, dtype=np.int64) @ simples

    @cached_property
    def ambient_index(self) -> dict[bytes, tuple[int, int]]:
        """Row bytes of ambient_vectors -> (k, 0) for positive root k and
        (k, 1) for its negative."""
        return {
            (sign * v).tobytes(): (k, flag)
            for flag, sign in ((0, 1), (1, -1))
            for k, v in enumerate(self.ambient_vectors)
        }

    @cached_property
    def root_atoms(self) -> tuple[str, ...]:
        """The atomic window statistic that counts each positive root when an
        element sends it negative (classical types only): e_j - e_i (i < j)
        is oinv or einv and e_i + e_j is onsp or ensp by the parity of j - i,
        e_i or 2e_i is oneg or eneg by the parity of the 1-based position i."""
        atoms = []
        for vec in self.ambient_vectors.tolist():
            at = [i for i, c in enumerate(vec) if c]
            if len(at) == 1:
                gap, kind = at[0] + 1, "neg"
            else:
                gap, kind = at[1] - at[0], "inv" if vec[at[0]] < 0 else "nsp"
            atoms.append(("o" if gap % 2 else "e") + kind)
        return tuple(atoms)

    @property
    def reflection_tables(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        signs = (1 - 2 * self._refl_neg.astype(int)).tolist()
        return tuple(tuple(zip(t, s)) for t, s in zip(self._refl_tgt.tolist(), signs))

    def simple_root_index(self, j: int) -> int:
        """Index of simple root j among the positive roots."""
        if not 0 <= j < self.rank:
            raise IndexOutOfRange(f"simple root index {j} outside [0, {self.rank})")
        return self.simple_index[j]

    def __repr__(self) -> str:
        return f"RootSystem({self.ctype}, {self.size} positive roots)"


def _ambient_simple_vectors(ctype: CartanType) -> np.ndarray:
    """Simple roots of a classical type as the int64 rows of a matrix over
    Z^n, n the window size, special node first."""
    eye = np.eye(ctype.window_size, dtype=np.int64)
    special = {"A": eye[:0], "B": eye[:1], "C": 2 * eye[:1], "D": eye[:1] + eye[1:2]}
    return np.concatenate([special[ctype.family], eye[1:] - eye[:-1]])


def build_root_system(ctype: CartanType) -> RootSystem:
    """Construct the root system of ctype by reflection closure."""
    count = positive_root_count(ctype)
    if count > _MAX_ROOTS:
        raise Overflow(
            f"{ctype} has {count} positive roots, past the {_MAX_ROOTS} that"
            " int16 root indices can hold"
        )
    r = ctype.rank
    if count * r * r > _MAX_BUILD:
        raise BudgetExceeded(
            f"{ctype} has {count} positive roots at rank {r}: roots x rank^2 ="
            f" {count * r * r:,}, past the {_MAX_BUILD:,} a root system build may take"
        )
    positive = _close_positive_roots(ctype, np.eye(r, dtype=np.int64))
    system = RootSystem(ctype, [tuple(c) for c in positive.tolist()])
    if system.size != count:
        raise NonTerminating(
            f"closure produced {system.size} roots for {ctype}, expected {count}"
        )
    return system


@lru_cache(maxsize=None)
def root_system(ctype: CartanType) -> RootSystem:
    """Cached accessor; root systems are immutable once built."""
    return build_root_system(ctype)

