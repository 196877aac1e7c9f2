"""Weyl group elements as signed permutations of the positive roots.

An element stores, for every positive root index k, the index of the image
root and a flag saying whether the image is negative.  Length is the number
of flags set, odd length the number of flags set at odd-height roots, and a
separate word parity bit keeps (-1)^length cheap under composition.

In the classical types a window is the same element seen as an n x n signed
permutation matrix acting on Z^n.  window_to_element applies that matrix to
the ambient root table RootSystem.ambient_vectors and looks the rows up in
RootSystem.ambient_index; element_to_window solves for it from the images of
the simple roots.

transversal_chain builds the parabolic chain once per root system as an
array search on length (Deodhar's lemma) and stacks its levels into one
Stack, which the engine's fold reads; the chain's elements are its rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .cartan import CartanType, RootSystem, group_order, row_keys
from .errors import (
    BudgetExceeded, IndexOutOfRange, InvalidWindow, SystemMismatch, TypeMismatch,
)
from .stats import check_window

__all__ = [
    "WeylElement",
    "identity",
    "simple_reflection",
    "multiply",
    "length_by_roots",
    "odd_length_by_roots",
    "window_to_element",
    "element_to_window",
    "enumerate_group",
    "check_budget",
    "decimal_exponent",
    "transversal_chain",
    "conjugate_simple_system",
    "ConjugatedRootSystem",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 10**8


def decimal_exponent(size: int) -> int:
    """floor(log10(size)) for size >= 1, from its bit length: str(size)
    refuses integers of more than 4,300 digits."""
    k = size.bit_length() * 30103 // 100000  # log10(2) < 0.30103
    while 10**k > size:
        k -= 1
    return k


def check_budget(ctype: CartanType, restriction: str = "full", size: int | None = None) -> None:
    """BudgetExceeded when the domain a run enumerates, of size elements (the
    order of the group of ctype by default), is past DEFAULT_BUDGET."""
    size = group_order(ctype) if size is None else size
    if size > DEFAULT_BUDGET:
        domain = ctype if restriction == "full" else f"the {restriction} domain of {ctype}"
        count = size if size < 10**15 else f"about 10^{decimal_exponent(size)}"
        raise BudgetExceeded(
            f"{domain} has {count} elements, past the element budget {DEFAULT_BUDGET};"
            " opt in with gf --allow-large (allow_large=True in run_partitioned)"
        )


class WeylElement:
    """Group element given by its action on the positive roots.

    tgt[k] is the positive-root index of the image of root k up to sign and
    neg[k] is 1 when that sign is negative.  parity equals length mod 2.
    Two elements are equal when they agree on the simple roots; that already
    determines the action everywhere.
    """

    __slots__ = ("system", "tgt", "neg", "parity")

    def __init__(self, system: RootSystem, tgt: np.ndarray, neg: np.ndarray, parity: int):
        self.system = system
        self.tgt = tgt
        self.neg = neg
        self.parity = parity

    def key(self) -> bytes:
        r = self.system.rank
        signed = (self.tgt[:r].astype(np.int32) + 1) * (1 - 2 * self.neg[:r].astype(np.int32))
        return signed.tobytes()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.system is other.system and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def image(self, k: int) -> tuple[int, int]:
        """Image of positive root k as (target index, sign)."""
        return int(self.tgt[k]), -1 if self.neg[k] else 1

    def __repr__(self) -> str:
        return f"WeylElement({self.system.ctype}, len={length_by_roots(self)})"


def identity(system: RootSystem) -> WeylElement:
    n = system.size
    return WeylElement(system, np.arange(n, dtype=np.int16), np.zeros(n, dtype=np.uint8), 0)


def simple_reflection(system: RootSystem, j: int) -> WeylElement:
    if not 0 <= j < system.rank:
        raise IndexOutOfRange(f"simple reflection index {j} outside [0, {system.rank})")
    return WeylElement(system, system._refl_tgt[j].copy(), system._refl_neg[j].copy(), 1)


def multiply(u: WeylElement, v: WeylElement) -> WeylElement:
    """Product u v acting as (u v)(a) = u(v(a))."""
    if u.system is not v.system:
        raise SystemMismatch("elements live in different root systems")
    tgt = u.tgt[v.tgt]
    neg = v.neg ^ u.neg[v.tgt]
    return WeylElement(u.system, tgt, neg, (u.parity + v.parity) & 1)


def length_by_roots(w: WeylElement) -> int:
    """Coxeter length: positive roots sent to negative ones."""
    return int(w.neg.sum())


def odd_length_by_roots(w: WeylElement) -> int:
    """Odd-height positive roots sent to negative ones."""
    return int(w.neg[w.system.odd_index_array].sum())


# ---------------------------------------------------------------------------
# window representation for the classical families

def _window_size(ctype: CartanType) -> int:
    if not ctype.is_classical:
        raise TypeMismatch(f"{ctype} has no window representation")
    return ctype.window_size


def window_to_element(system: RootSystem, window: Sequence[int]) -> WeylElement:
    """Element acting by e_i -> sign(w(i)) e_{|w(i)|} for window w."""
    n = _window_size(system.ctype)
    w = np.array(check_window(system.ctype, window).window)
    act = np.zeros((n, n), dtype=np.int64)
    act[np.arange(n), np.abs(w) - 1] = np.sign(w)
    index = system.ambient_index
    hits = np.array([index[row.tobytes()] for row in system.ambient_vectors @ act])
    neg = hits[:, 1].astype(np.uint8)
    return WeylElement(system, hits[:, 0].astype(np.int16), neg, int(neg.sum()) & 1)


def element_to_window(w: WeylElement) -> tuple[int, ...]:
    """Window of a classical element; inverse of window_to_element.

    Solves basis @ act = images for act, basis the simple roots and images
    their images under w.  In type A the simple roots span only the sum-zero
    hyperplane; every permutation fixes the all-ones vector, which completes
    them to a basis of R^n.
    """
    system = w.system
    n = _window_size(system.ctype)
    simple = np.array(system.simple_index)
    basis = system.ambient_vectors[simple]
    signs = 1 - 2 * w.neg[simple].astype(np.int64)
    images = system.ambient_vectors[w.tgt[simple]] * signs[:, None]
    if len(basis) < n:
        ones = np.ones((1, n), dtype=np.int64)
        basis, images = np.vstack([basis, ones]), np.vstack([images, ones])
    act = np.rint(np.linalg.solve(basis, images)).astype(np.int64)
    if (basis @ act != images).any() or (np.abs(act).sum(axis=1) != 1).any():
        raise InvalidWindow(f"element does not act as a signed permutation of {n} letters")
    return tuple(int(v) for v in act @ np.arange(1, n + 1))


# ---------------------------------------------------------------------------
# enumeration by coset descent

def _sift(w: WeylElement, j_limit: int, longest: bool = False) -> WeylElement:
    """Minimal representative of w W_J, J the simple indices below j_limit:
    right factors s_j, j in J, until w sends every simple root of J positive.
    With longest, until every one goes negative: the maximal representative."""
    system = w.system
    simple_at = system.simple_index
    while True:
        for j in range(j_limit):
            if w.neg[simple_at[j]] != longest:
                w = multiply(w, simple_reflection(system, j))
                break
        else:
            return w


@dataclass(frozen=True)
class Stack:
    """Levels of elements stacked row by row, level j in rows ends[j]:ends[j
    + 1], with what a fold reads of them: src is tgt^-1 row by row, so that
    u sends root src(c) to sign(c) c with sign = 1 - 2 neg[src], and cols[j]
    lists the roots that levels 0..j-1 read, u reading supp(neg_u) and
    tgt_u^-1 of what the levels before it read."""
    tgt: np.ndarray                   # rows x roots, int16
    neg: np.ndarray                   # rows x roots, uint8
    parity: np.ndarray                # per row, int64
    ends: np.ndarray
    src: np.ndarray                   # rows x roots, int16
    sign: np.ndarray                  # rows x roots, int8
    cols: list[np.ndarray]


def _stack(tgt: np.ndarray, neg: np.ndarray, sizes: list[int]) -> Stack:
    """Stack of rows tgt and neg, cut into levels of the given sizes."""
    n = tgt.shape[1]
    ends = np.cumsum([0] + sizes)
    every, src = np.arange(len(tgt))[:, None], np.empty_like(tgt)
    src[every, tgt] = np.arange(n)
    read = [np.zeros(n, dtype=bool)]
    for lo, hi in zip(ends[:-1], ends[1:]):
        read.append(neg[lo:hi].any(axis=0) | read[-1][tgt[lo:hi]].any(axis=0))
    parity = neg.sum(axis=1, dtype=np.int64) & 1
    sign = 1 - 2 * neg[every, src].astype(np.int8)
    return Stack(tgt, neg, parity, ends, src, sign, [np.flatnonzero(r) for r in read])


def stack_levels(levels: list[list[WeylElement]]) -> Stack:
    """Stack of levels of elements, such as a restricted domain's windows."""
    flat = [u for level in levels for u in level]
    sizes = [len(level) for level in levels]
    return _stack(np.stack([u.tgt for u in flat]), np.stack([u.neg for u in flat]), sizes)


def _coset_level(system: RootSystem, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimal representatives of <s_0..s_{m-2}> in <s_0..s_{m-1}> as (tgt,
    neg) rows, by length and then by key: a breadth-first search on length.
    Each step applies every generator s to the whole frontier in one
    gather, (s u)(a) = s(u(a)), and keeps s u when it is one longer than u
    and sends no simple root of <s_0..s_{m-2}> negative: by Deodhar's lemma
    those are the representatives one longer, each reached from some u."""
    n, r = system.size, system.rank
    gtgt, gneg = system._refl_tgt[:m], system._refl_neg[:m]
    inner = list(system.simple_index[:m - 1])
    tgt, neg = np.arange(n, dtype=np.int16)[None], np.zeros((1, n), dtype=np.uint8)
    found = [(tgt, neg)]
    while len(tgt) and len(found) <= n:  # no element is longer than n
        tgt, neg = gtgt[:, tgt].reshape(-1, n), (gneg[:, tgt] ^ neg).reshape(-1, n)
        keep = (neg.sum(axis=1) == len(found)) & ~neg[:, inner].any(axis=1)
        tgt, neg = tgt[keep], neg[keep]
        if len(tgt) > 1:  # WeylElement.key of every row; np.unique sorts them as bytes
            keys = (tgt[:, :r].astype(np.int32) + 1) * (1 - 2 * neg[:, :r].astype(np.int32))
            first = np.unique(row_keys(keys), return_index=True)[1]
            tgt, neg = tgt[first], neg[first]
        found.append((tgt, neg))
    return np.concatenate([t for t, _ in found]), np.concatenate([g for _, g in found])


def transversal_chain(system: RootSystem) -> list[list[WeylElement]]:
    """Minimal coset representatives along the parabolic chain that drops the
    highest-numbered simple generator first.

    Level k lists the representatives of <s_0..s_{r-2-k}> inside
    <s_0..s_{r-1-k}>, by length and then by key; every group element is the
    product of one representative per level, taken left to right, exactly
    once.  Built once per system: the levels are stacked into
    system._chain_stack, and their elements are row views of it.
    """
    if system._chain is None:
        levels = [_coset_level(system, system.rank - k) for k in range(system.rank)]
        tgt, neg = (np.concatenate(rows) for rows in zip(*levels))
        st = system._chain_stack = _stack(tgt, neg, [len(t) for t, _ in levels])
        system._chain = [
            [WeylElement(system, st.tgt[i], st.neg[i], int(st.parity[i])) for i in range(lo, hi)]
            for lo, hi in zip(st.ends[:-1], st.ends[1:])
        ]
    return system._chain


def enumerate_group(system: RootSystem) -> Iterator[WeylElement]:
    """Yield every group element exactly once, in a fixed order.

    Raises BudgetExceeded up front when the group is past the element
    budget; the partitioned engine handles those sizes.
    """
    check_budget(system.ctype)
    chain = transversal_chain(system)

    def descend(level: int, prefix: WeylElement) -> Iterator[WeylElement]:
        if level == len(chain):
            yield prefix
            return
        for u in chain[level]:
            yield from descend(level + 1, multiply(prefix, u))

    return descend(0, identity(system))


# ---------------------------------------------------------------------------
# conjugated simple systems

class ConjugatedRootSystem(RootSystem):
    """Root system with simple basis w(Delta), kept alongside its embedding
    into the base system.

    ambient[k] = (index, sign) writes the k-th new positive root as
    sign * (base positive root index) in the base coordinates.  Lengths of
    base-system elements with respect to the new positive system are computed
    from that embedding alone.
    """

    def __init__(self, base: RootSystem, conjugator: WeylElement):
        self.base = base
        self.conjugator = conjugator
        ambient = [conjugator.image(k) for k in range(base.size)]
        # coordinates of every image over the images of the simple roots,
        # solved in floats, rounded, then checked exactly in integers
        signs = 1 - 2 * conjugator.neg.astype(np.int64)
        images = np.array(base.positive_roots, dtype=np.int64)[conjugator.tgt] * signs[:, None]
        basis = images[list(base.simple_index)]
        solved = np.rint(np.linalg.solve(basis.T, images.T).T).astype(np.int64)
        if (solved @ basis != images).any():
            raise SystemMismatch("conjugated simple roots do not span the root lattice")
        coords = [tuple(int(v) for v in row) for row in solved]
        order = sorted(range(base.size), key=lambda k: (sum(coords[k]), coords[k]))
        super().__init__(base.ctype, [coords[k] for k in order])
        self.ambient: tuple[tuple[int, int], ...] = tuple(ambient[k] for k in order)
        self._at, self._sign = np.array(self.ambient).reshape(-1, 2).T
        # sign with which each base root appears in the new positive system
        self._base_sign = np.empty(base.size, dtype=np.int64)
        self._base_sign[self._at] = self._sign

    def length_of(self, w: WeylElement) -> int:
        """Coxeter length of a base-system element relative to this system."""
        return int(self._flipped(w).sum())

    def odd_length_of(self, w: WeylElement) -> int:
        return int(self._flipped(w)[self.odd_index_array].sum())

    def _flipped(self, w: WeylElement) -> np.ndarray:
        """Per new positive root: True where w sends it to a new negative root."""
        if w.system is not self.base:
            raise SystemMismatch("element does not belong to the base system")
        sign = self._sign * (1 - 2 * w.neg[self._at].astype(np.int64))
        return sign != self._base_sign[w.tgt[self._at]]


def conjugate_simple_system(system: RootSystem, w: WeylElement) -> ConjugatedRootSystem:
    """Root system on the simple basis w(Delta), positive system w(Phi+)."""
    if w.system is not system:
        raise SystemMismatch("conjugator does not belong to the given system")
    return ConjugatedRootSystem(system, w)
