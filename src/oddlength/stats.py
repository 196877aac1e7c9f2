"""Statistics, involutions and structure maps on signed permutation windows.

Windows are 1-based: sigma = (sigma(1), ..., sigma(n)).  Pair statistics
split by the parity of the gap j - i, negative-entry statistics by the parity
of the position.  Everything here is purely combinatorial; the root-theoretic
counterparts live in weyl.py and agreeing with them is part of the test
suite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

from .cartan import CartanType
from .errors import InvalidWindow, IsChessboard, NoPeak, NotApplicable

__all__ = [
    "StatisticId",
    "SignedPermutation",
    "check_window",
    "ElementClass",
    "DecompositionD",
    "compute_statistic",
    "atomic_stats",
    "descent_set_D",
    "parabolic_decompose_D",
    "classify",
    "is_unimodal",
    "is_chessboard",
    "is_good_chessboard",
    "peak_involution",
    "star_involution",
    "bar_involution_D",
    "chessboard_involution_D",
    "extend",
    "abs_map",
]


class StatisticId(str, enum.Enum):
    """Names of the supported window statistics."""

    inv = "inv"
    oinv = "oinv"
    einv = "einv"
    neg = "neg"
    oneg = "oneg"
    eneg = "eneg"
    nsp = "nsp"
    onsp = "onsp"
    ensp = "ensp"
    len_A = "len_A"
    len_B = "len_B"
    len_D = "len_D"
    L_A = "L_A"
    L_B = "L_B"
    L_C = "L_C"
    L_D = "L_D"
    L_ooe = "L_ooe"
    L_eoe = "L_eoe"
    L_eoo = "L_eoo"
    L_oe = "L_oe"


# composite statistics as sums of atomic ones
COMPOSITE: dict[StatisticId, tuple[StatisticId, ...]] = {
    StatisticId.len_A: (StatisticId.inv,),
    StatisticId.len_B: (StatisticId.inv, StatisticId.neg, StatisticId.nsp),
    StatisticId.len_D: (StatisticId.inv, StatisticId.nsp),
    StatisticId.L_A: (StatisticId.oinv,),
    StatisticId.L_B: (StatisticId.oneg, StatisticId.oinv, StatisticId.onsp),
    StatisticId.L_C: (StatisticId.neg, StatisticId.oinv, StatisticId.ensp),
    StatisticId.L_D: (StatisticId.oinv, StatisticId.onsp),
    StatisticId.L_ooe: (StatisticId.oneg, StatisticId.oinv, StatisticId.ensp),
    StatisticId.L_eoe: (StatisticId.eneg, StatisticId.oinv, StatisticId.ensp),
    StatisticId.L_eoo: (StatisticId.eneg, StatisticId.oinv, StatisticId.onsp),
    StatisticId.L_oe: (StatisticId.oinv, StatisticId.ensp),
}


@dataclass(frozen=True)
class SignedPermutation:
    """A signed permutation in window notation."""

    window: tuple[int, ...]

    def __post_init__(self) -> None:
        w = self.window
        if sorted(abs(x) for x in w) != list(range(1, len(w) + 1)):
            raise InvalidWindow(f"{list(w)} is not a signed permutation window")

    @classmethod
    def of(cls, values: Iterable[int]) -> SignedPermutation:
        return cls(tuple(int(v) for v in values))

    @classmethod
    def parse(cls, text: str) -> SignedPermutation:
        """Parse a comma separated window such as '3,-1,-4,-2,5'."""
        try:
            values = tuple(int(p) for p in text.replace(" ", "").split(","))
        except ValueError as exc:
            raise InvalidWindow(f"cannot parse window from {text!r}") from exc
        return cls(values)

    @classmethod
    def identity(cls, n: int) -> SignedPermutation:
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.window)

    @property
    def is_plain(self) -> bool:
        return all(v > 0 for v in self.window)

    @property
    def is_even_signed(self) -> bool:
        """True when the number of negative entries is even (type D)."""
        return sum(v < 0 for v in self.window) % 2 == 0

    def __iter__(self):
        return iter(self.window)

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.window) + "]"


def check_window(ctype: CartanType, window: SignedPermutation | Sequence[int]) -> SignedPermutation:
    """window as an element of the classical group of ctype, else InvalidWindow."""
    sigma = window if isinstance(window, SignedPermutation) else SignedPermutation.of(window)
    n = ctype.window_size
    if sigma.n != n:
        raise InvalidWindow(f"{ctype} wants a window of size {n}, got {sigma.n}")
    if ctype.family == "A" and not sigma.is_plain:
        raise InvalidWindow("type A windows cannot contain negative entries")
    if ctype.family == "D" and not sigma.is_even_signed:
        raise InvalidWindow("type D windows need an even number of negative entries")
    return sigma


def _window(sigma: SignedPermutation | Sequence[int]) -> tuple[int, ...]:
    if isinstance(sigma, SignedPermutation):
        return sigma.window
    return tuple(sigma)


def atomic_stats(sigma: SignedPermutation | Sequence[int]) -> dict[str, int]:
    """All nine atomic statistics in one pass."""
    w = _window(sigma)
    n = len(w)
    oinv = einv = onsp = ensp = 0
    for i in range(n - 1):
        wi = w[i]
        for j in range(i + 1, n):
            odd_gap = (j - i) & 1
            if wi > w[j]:
                if odd_gap:
                    oinv += 1
                else:
                    einv += 1
            if wi + w[j] < 0:
                if odd_gap:
                    onsp += 1
                else:
                    ensp += 1
    oneg = sum(1 for i in range(0, n, 2) if w[i] < 0)
    eneg = sum(1 for i in range(1, n, 2) if w[i] < 0)
    return {
        "inv": oinv + einv,
        "oinv": oinv,
        "einv": einv,
        "neg": oneg + eneg,
        "oneg": oneg,
        "eneg": eneg,
        "nsp": onsp + ensp,
        "onsp": onsp,
        "ensp": ensp,
    }


def compute_statistic(stat: StatisticId, sigma: SignedPermutation | Sequence[int]) -> int:
    stat = StatisticId(stat)
    table = atomic_stats(sigma)
    if stat in COMPOSITE:
        return sum(table[part.value] for part in COMPOSITE[stat])
    return table[stat.value]


# ---------------------------------------------------------------------------
# classes of windows

def is_unimodal(sigma: SignedPermutation | Sequence[int]) -> bool:
    """No interior peak sigma(i-1) < sigma(i) > sigma(i+1)."""
    w = _window(sigma)
    return not any(w[i - 1] < w[i] > w[i + 1] for i in range(1, len(w) - 1))


def is_chessboard(sigma: SignedPermutation | Sequence[int]) -> bool:
    """Entry parities constant against position: sigma(i) = i or i+1 mod 2."""
    w = _window(sigma)
    return all((v - i) % 2 == 0 for i, v in enumerate(w, start=1)) or all(
        (v - i) % 2 == 1 for i, v in enumerate(w, start=1)
    )


def is_good_chessboard(sigma: SignedPermutation) -> bool:
    """Chessboard together with both parabolic factors chessboard (type D)."""
    if isinstance(sigma, SignedPermutation):
        win = sigma
    else:
        win = SignedPermutation.of(sigma)
    if not win.is_even_signed:
        raise InvalidWindow(f"{win} is not even-signed; good chessboard is a D notion")
    if not is_chessboard(win):
        return False
    dec = parabolic_decompose_D(win)
    return is_chessboard(dec.coset_rep) and is_chessboard(dec.parabolic_part)


@dataclass(frozen=True)
class ElementClass:
    unimodal: bool
    chessboard: bool
    good_chessboard: bool | None  # None unless the window is even-signed


def classify(sigma: SignedPermutation) -> ElementClass:
    good = is_good_chessboard(sigma) if sigma.is_even_signed else None
    return ElementClass(is_unimodal(sigma), is_chessboard(sigma), good)


# ---------------------------------------------------------------------------
# type D descent and parabolic structure

def descent_set_D(sigma: SignedPermutation) -> frozenset[int]:
    """Descents in [0, n-1], where position 0 compares -sigma(2) to sigma(1)."""
    w = _window(sigma)
    out = set()
    if len(w) >= 2 and -w[1] > w[0]:
        out.add(0)
    for i in range(len(w) - 1):
        if w[i] > w[i + 1]:
            out.add(i + 1)
    return frozenset(out)


@dataclass(frozen=True)
class DecompositionD:
    coset_rep: SignedPermutation
    parabolic_part: SignedPermutation

    def recompose(self) -> SignedPermutation:
        tau, u = self.coset_rep.window, self.parabolic_part.window
        return SignedPermutation(tuple(tau[u[i] - 1] for i in range(len(u))))


def parabolic_decompose_D(sigma: SignedPermutation) -> DecompositionD:
    """Unique factorization sigma = tau u with tau the sorted window (the
    minimal coset representative, descents in {0} only) and u plain."""
    w = sigma.window
    tau = tuple(sorted(w))
    pos = {v: i + 1 for i, v in enumerate(tau)}
    u = tuple(pos[v] for v in w)
    return DecompositionD(SignedPermutation(tau), SignedPermutation(u))


# ---------------------------------------------------------------------------
# sign reversing involutions

def peak_involution(sigma: SignedPermutation) -> SignedPermutation:
    """Swap the entries around the peak carrying the largest peak value."""
    w = sigma.window
    peaks = [r for r in range(1, len(w) - 1) if w[r - 1] < w[r] > w[r + 1]]
    if not peaks:
        raise NoPeak(f"{sigma} is unimodal")
    r = max(peaks, key=lambda r: w[r])
    out = list(w)
    out[r - 1], out[r + 1] = out[r + 1], out[r - 1]
    return SignedPermutation(tuple(out))


def star_involution(sigma: SignedPermutation) -> SignedPermutation:
    """Swap the entries flanking the one of largest absolute value.

    a = sigma^{-1}(n) must satisfy |a| not in {1, n}; the window entries at
    positions |a|-1 and |a|+1 trade places.
    """
    w = sigma.window
    n = len(w)
    pos = next(i + 1 for i, v in enumerate(w) if abs(v) == n)
    a = pos if w[pos - 1] > 0 else -pos
    if abs(a) in (1, n):
        raise NotApplicable(f"largest value of {sigma} sits at a border position")
    out = list(w)
    out[abs(a) - 2], out[abs(a)] = out[abs(a)], out[abs(a) - 2]
    return SignedPermutation(tuple(out))


def bar_involution_D(sigma: SignedPermutation) -> SignedPermutation:
    """Exchange the values 1 and 2, either keeping signs or crossing them
    through a sign change (the type D generator).

    Only the pair formed by the two affected entries changes status, so the
    branch must flip that pair's inversion slot when the entries sit at even
    distance and its negative-sum slot when they sit at odd distance; which
    value map does which depends on whether the two entries carry the same
    sign.  This keeps oinv and ensp fixed while moving len_D by exactly 1.
    """
    w = sigma.window
    p1 = next(i + 1 for i, v in enumerate(w) if abs(v) == 1)
    p2 = next(i + 1 for i, v in enumerate(w) if abs(v) == 2)
    even_gap = (p1 - p2) % 2 == 0
    same_sign = (w[p1 - 1] > 0) == (w[p2 - 1] > 0)
    if even_gap == same_sign:
        # plain value swap: flips the pair's inversion status when signs
        # agree, its negative-sum status when they differ
        swap = {1: 2, 2: 1, -1: -2, -2: -1}
    else:
        # sign-crossing swap: the complementary flip
        swap = {1: -2, -2: 1, 2: -1, -1: 2}
    return SignedPermutation(tuple(swap.get(v, v) for v in w))


def chessboard_involution_D(sigma: SignedPermutation) -> SignedPermutation:
    """Swap the values i and i+1 for the least i whose value positions share
    a parity; defined exactly off the chessboard class."""
    w = sigma.window
    pos = {abs(v): i + 1 for i, v in enumerate(w)}
    n = len(w)
    for i in range(1, n):
        if (pos[i] - pos[i + 1]) % 2 == 0:
            swap = {i: i + 1, i + 1: i, -i: -(i + 1), -(i + 1): -i}
            return SignedPermutation(tuple(swap.get(v, v) for v in w))
    raise IsChessboard(f"{sigma} is a chessboard element")


# ---------------------------------------------------------------------------
# extensions and projections

def extend(sigma: SignedPermutation, kind: str) -> SignedPermutation:
    """Extend a window of size n-1 to size n.

    kind 'tilde' appends -n, 'hat' prepends n, 'check' prepends -n.
    """
    w = sigma.window
    n = len(w) + 1
    if kind == "tilde":
        return SignedPermutation(w + (-n,))
    if kind == "hat":
        return SignedPermutation((n,) + w)
    if kind == "check":
        return SignedPermutation((-n,) + w)
    raise ValueError(f"unknown extension kind {kind!r}")


def abs_map(sigma: SignedPermutation) -> SignedPermutation:
    """Entrywise absolute value."""
    return SignedPermutation(tuple(abs(v) for v in sigma.window))
