"""Signed generating functions over Weyl groups and their closed forms.

A profile names the tuple of statistics carried as exponents; the sign is
always (-1) to the Coxeter length of the element.  Over the whole group,
every profile is a weighted count of the positive roots an element sends
negative, computed through the root action (see engine.py); a restricted
domain is handed to the same engine as levels of windows whose products
cover it once.  Every closed form asserted by verify() is multiplied out
exactly and compared term by term.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Callable
from dataclasses import dataclass
from math import factorial, prod

import numpy as np

from .cartan import CartanType, RootSystem
from .errors import NoPrediction, OutOfStatedRange, UnsupportedProfile
from . import stats
from .poly import Poly, expand_product
from .stats import StatisticId, COMPOSITE
# not called here; bench/run.py patches them to count per-window work (tests/test_tooling.py)
from .stats import atomic_stats, is_chessboard, is_good_chessboard, is_unimodal  # noqa: F401

__all__ = [
    "ResolvedProfile",
    "GFResult",
    "VerifyReport",
    "PROFILES",
    "RESTRICTIONS",
    "resolve_profile",
    "root_weights",
    "signed_gf",
    "predicted_gf",
    "predicted_display",
    "predicted_multivariate",
    "verify_univariate",
    "verify_multivariate",
    "verify_restriction",
    "verification_suite",
]

_S = StatisticId

_ODD_LENGTH_BY_FAMILY: dict[str, _S] = {"A": _S.L_A, "B": _S.L_B, "C": _S.L_C, "D": _S.L_D}

# profile -> variables, window statistics, family, and the range of n its
# identity is stated for (lowest, highest or None); the sign is the
# family's Coxeter length
_PROFILE_TABLE: dict[str, tuple[tuple[str, ...], tuple[_S, ...], str, int, int | None]] = {
    "B-4var": (("x1", "x2", "y", "z"), (_S.oneg, _S.eneg, _S.oinv, _S.ensp), "B", 1, None),
    "B-ooo": (("x", "y", "z"), (_S.oneg, _S.oinv, _S.onsp), "B", 1, None),
    "B-eoo": (("x", "y", "z"), (_S.eneg, _S.oinv, _S.onsp), "B", 1, None),
    "B-nonfactor": (("x1", "x2", "y", "z"), (_S.oneg, _S.eneg, _S.oinv, _S.onsp), "B", 4, 4),
    "uni-ooe": (("x",), (_S.L_ooe,), "B", 3, None),
    "uni-eoe": (("x",), (_S.L_eoe,), "B", 3, None),
    "uni-eoo": (("x",), (_S.L_eoo,), "B", 3, None),
    "D-bivar": (("x", "y"), (_S.oinv, _S.onsp), "D", 2, None),
    "D-oe": (("x", "y"), (_S.oinv, _S.ensp), "D", 2, None),
}

PROFILES: tuple[str, ...] = ("odd-length",) + tuple(_PROFILE_TABLE)

RESTRICTIONS: dict[str, tuple[str, ...]] = {
    # restriction name -> families it is defined for
    "full": ("A", "B", "C", "D", "E", "F", "G"),
    "unimodal": ("A",),
    "chessboard": ("A", "D"),
    "good-chessboard": ("D",),
}


@dataclass(frozen=True)
class ResolvedProfile:
    name: str
    vars: tuple[str, ...]
    window_stats: tuple[_S, ...] | None  # None: odd length through root action


def _profile_entry(name: str):
    if name not in _PROFILE_TABLE:
        raise UnsupportedProfile(f"unknown profile {name!r}")
    return _PROFILE_TABLE[name]


def resolve_profile(name: str, ctype: CartanType) -> ResolvedProfile:
    if name == "odd-length":
        if ctype.is_classical:
            return ResolvedProfile(name, ("x",), (_ODD_LENGTH_BY_FAMILY[ctype.family],))
        return ResolvedProfile(name, ("x",), None)
    vars_, window_stats, family, _, _ = _profile_entry(name)
    if ctype.family != family:
        raise UnsupportedProfile(f"profile {name!r} is defined on family {family} only")
    return ResolvedProfile(name, vars_, window_stats)


# composite atoms split by parity, the way RootSystem.root_atoms names roots
_PARITY_ATOMS = {
    _S.inv: (_S.oinv, _S.einv),
    _S.neg: (_S.oneg, _S.eneg),
    _S.nsp: (_S.onsp, _S.ensp),
}


def root_weights(
    profile: ResolvedProfile, system: RootSystem
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Root weights of a full-group profile and the base of each variable.

    Variable v counts the roots in mask_v (odd height for odd length, else
    those whose atom its statistic sums); root a gets the weight
    sum_v R_v mask_v[a] with R_v the product of the bases max_v + 1 of the
    variables before v, so the weighted count holds variable 0 as its
    fastest digit.
    """
    if profile.name == "odd-length":
        masks = [np.array(system.odd_mask, dtype=np.int64)]
    else:
        atoms = system.root_atoms
        masks = []
        for stat in profile.window_stats:
            counted = [
                atom.value
                for part in COMPOSITE.get(stat, (stat,))
                for atom in _PARITY_ATOMS.get(part, (part,))
            ]
            masks.append(np.array([counted.count(a) for a in atoms], dtype=np.int64))
    weights = np.zeros(system.size, dtype=np.int64)
    dims: list[int] = []
    for mask in masks:
        weights += prod(dims) * mask
        dims.append(int(mask.sum()) + 1)
    return weights, tuple(dims)


@dataclass(frozen=True)
class GFResult:
    poly: Poly
    ctype: CartanType
    profile: str
    restriction: str
    elements: int
    elapsed: float
    n_parts: int
    parts_done: tuple[int, ...]


# ---------------------------------------------------------------------------
# restricted domains as levels of windows

def _domain_shape(restriction: str, ctype: CartanType) -> list[int] | None:
    """Lengths of the levels of _domain_levels, found without building a
    window, so that a run checks its domain's size first.  None for the
    full group."""
    if restriction not in RESTRICTIONS:
        raise UnsupportedProfile(f"unknown restriction {restriction!r}")
    if ctype.family not in RESTRICTIONS[restriction]:
        raise UnsupportedProfile(
            f"restriction {restriction!r} is not defined on family {ctype.family}"
        )
    if restriction == "full":
        return None
    n = ctype.window_size
    if restriction == "unimodal":
        return [2 ** (n - 1)]
    perms = [2 - n % 2, factorial((n + 1) // 2), factorial(n // 2)]
    if ctype.family == "A":
        return perms
    return [2 ** (n - 1 if restriction == "chessboard" else n // 2)] + perms


def _domain_levels(restriction: str, ctype: CartanType) -> list[list[tuple[int, ...]]] | None:
    """Windows of a restricted domain in levels: every element of the domain
    is the product of one window per level, taken left to right, exactly
    once.  None for the full group."""
    if _domain_shape(restriction, ctype) is None:
        return None
    n = ctype.window_size
    ident = tuple(range(1, n + 1))
    if restriction == "unimodal":
        # falls to 1, then rises: each of 2..n sits left or right of 1
        return [[
            left[::-1] + (1,) + tuple(v for v in ident[1:] if v not in left)
            for k in range(n) for left in itertools.combinations(ident[1:], k)
        ]]
    # chessboard permutations c^a h: c = (2,1,4,3,...) when n is even, h
    # permuting the odd values on the odd positions and the even on the even
    c = tuple(i + 1 if i % 2 else i - 1 for i in ident)
    perms = [[ident, c] if n % 2 == 0 else [ident]]
    for spots in (ident[0::2], ident[1::2]):
        perms.append([
            tuple(dict(zip(spots, p)).get(i, i) for i in ident)
            for p in itertools.permutations(spots)
        ])
    signs = [
        tuple(-v if neg else v for v, neg in zip(ident, bits))
        for bits in itertools.product((False, True), repeat=n)
        if sum(bits) % 2 == 0
    ]
    if restriction == "chessboard":
        return perms if ctype.family == "A" else [signs] + perms
    # good chessboard: tau u with tau a chessboard sorted window (a minimal
    # coset representative) and u a chessboard permutation; the chessboard
    # elements form a group, so no product needs a check
    sorted_windows = [tuple(sorted(w)) for w in signs]
    return [[tau for tau in sorted_windows if stats.is_chessboard(tau)]] + perms


def signed_gf(
    ctype: CartanType,
    profile: str = "odd-length",
    restriction: str = "full",
    *,
    unsigned: bool = False,
) -> GFResult:
    """Exact signed generating function by exhaustive enumeration: one
    sequential engine.run_partitioned call, refused past the element budget
    on the domain it enumerates."""
    from .engine import run_partitioned  # engine imports this module

    return run_partitioned(ctype, profile, restriction, unsigned=unsigned)


# ---------------------------------------------------------------------------
# closed product forms

# recorded products outside the classical families; F4's is the reference
# its enumerated series disagrees with (see README)
_EXCEPTIONAL_FACTORS: dict[tuple[str, int], list[tuple[int, int, int]]] = {
    ("F", 4): [(2, -1, 2), (4, -1, 2)],
    ("E", 6): [(k, -1, 1) for k in (2, 4, 6, 8)],
    ("E", 7): [(k, -1, 1) for k in range(2, 9)],
}


def _factor_table(ctype: CartanType, printed_form: bool = False) -> list[tuple[int, int, int]]:
    """Closed product of the signed odd-length series as entries (k, sign, m),
    each standing for (1 + sign x^k)^m, in display order."""
    fam, n = ctype.family, ctype.rank
    if fam in "AD":
        # (1 + (-1)^(i-1) x^floor(i/2)), i = 2..window size; D squares it
        m = 1 if fam == "A" else 2
        return [(i // 2, (-1) ** (i - 1), m) for i in range(2, ctype.window_size + 1)]
    if fam == "B":
        return [(i, -1, 1) for i in range(1, n + 1)]
    if fam == "C":
        h = (n + 1) // 2
        if printed_form:
            return [(h, -1, 1)] + [(2 * k, -1, 2) for k in range(1, h + 1)]
        top = [(n, -1, 1)] if n % 2 == 0 else []
        return [(h, -1, 1)] + [(2 * k, -1, 2) for k in range(1, h)] + top
    if (fam, n) in _EXCEPTIONAL_FACTORS:
        return list(_EXCEPTIONAL_FACTORS[fam, n])
    raise NoPrediction(f"no closed form on record for {ctype}")


def _binomials(table, nvars: int = 1, var: int = 0) -> list[tuple[dict, int]]:
    """Univariate entries (k, sign, m) as factors in variable var of nvars."""
    unit = [int(i == var) for i in range(nvars)]
    return [({(0,) * nvars: 1, tuple(k * u for u in unit): sign}, m) for k, sign, m in table]


def _one_minus(*expo: int) -> tuple[dict, int]:
    """The factor 1 - monomial, once."""
    return {(0,) * len(expo): 1, expo: -1}, 1


def _expand(vars_: tuple[str, ...], factors: list[tuple[dict, int]] | None) -> Poly:
    """Multiply out factors (terms, m), each a term dict taken m times; None
    stands for a series that is zero."""
    if factors is None:
        return Poly.zero(vars_)
    return expand_product(
        [Poly(vars_, terms) for terms, m in factors for _ in range(m)], vars_
    )


def predicted_gf(ctype: CartanType, printed_form: bool = False) -> Poly:
    """Closed form of the signed odd-length generating function.

    printed_form switches the type C answer to the shorter printed product,
    which disagrees with the enumerated series except at n = 1; keeping both
    on record is deliberate.
    """
    return _expand(("x",), _binomials(_factor_table(ctype, printed_form)))


def predicted_display(ctype: CartanType, printed_form: bool = False) -> str:
    return " ".join(
        f"(1{'+' if sign > 0 else '-'}x^{k})" + (f"^{m}" if m > 1 else "")
        for k, sign, m in _factor_table(ctype, printed_form)
    )


def _multivariate_factors(identity_id: str, n: int) -> list[tuple[dict, int]] | None:
    """Closed form of a multivariate identity as factors (terms, m) over its
    profile's variables, or None where its series is zero."""
    if identity_id in ("uni-eoo", "D-oe") or (identity_id == "B-eoo" and n % 2):
        return None
    if identity_id == "B-4var":  # x1 x2 y z
        return (
            _binomials([((i + 1) // 2, (-1) ** i, 1) for i in range(1, n)], 4, 2)
            + [_one_minus(1, 1, 0, 2 * i) for i in range(n // 2)]
            + ([_one_minus(1, 0, 0, (n - 1) // 2)] if n % 2 else [])
        )
    if identity_id in ("B-ooo", "B-eoo"):  # x y z
        factors = [_one_minus(1, 0, 0)]
        for i in range(1, (n - 1) // 2 + 1):
            factors += [_one_minus(1, 0, 2 * i), _one_minus(0, 2 * i, 0)]
        h = n // 2
        if n % 2 == 0 and identity_id == "B-ooo":
            factors.append(_one_minus(0, h, h))
        elif n % 2 == 0:
            factors.append(({(0, 0, h): 1, (0, h, 0): -1}, 1))  # z^h - y^h
        return factors
    if identity_id in ("uni-ooe", "uni-eoe"):
        head = (n + 1) // 2 if identity_id == "uni-ooe" else n // 2
        return _binomials([(head, -1, 1)] + _factor_table(CartanType("B", n - 1)))
    if identity_id == "D-bivar":
        # the type A form at window size n, once in x and once in y
        table = _factor_table(CartanType("A", n - 1))
        return _binomials(table, 2, 0) + _binomials(table, 2, 1)
    # B-nonfactor (x1 x2 y z), recorded at n = 4 only, with its 8-term tail
    tail = {
        (0, 0, 0, 0): 1, (1, 1, 2, 2): 1, (1, 1, 0, 2): -1, (0, 1, 2, 2): -1,
        (1, 0, 0, 2): 1, (0, 1, 2, 0): 1, (1, 0, 0, 0): -1, (0, 0, 2, 0): -1,
    }
    return [_one_minus(0, 0, 2, 0), _one_minus(1, 1, 0, 2), (tail, 1)]


def predicted_multivariate(identity_id: str, n: int) -> Poly:
    """Closed forms of the multivariate identities, by profile name."""
    if identity_id not in _PROFILE_TABLE:
        raise NoPrediction(f"no multivariate form on record for {identity_id!r}")
    vars_, _, _, lo, hi = _PROFILE_TABLE[identity_id]
    if n < lo or (hi is not None and n > hi):
        upper = "" if hi is None else f" <= {hi}"
        raise OutOfStatedRange(f"{identity_id} is stated for {lo} <= n{upper}")
    return _expand(vars_, _multivariate_factors(identity_id, n))


# ---------------------------------------------------------------------------
# verification

@dataclass(frozen=True)
class VerifyReport:
    name: str
    ok: bool
    computed: Poly
    predicted: Poly
    elapsed: float
    note: str = ""

    @property
    def diff(self) -> Poly:
        return self.computed - self.predicted

    def line(self) -> str:
        mark = "pass" if self.ok else "FAIL"
        extra = f"  [{self.note}]" if self.note else ""
        tail = "" if self.ok else f"  (diff has {len(self.diff.terms)} terms)"
        return f"{mark}  {self.name}{extra}{tail}"


def _report(name: str, series: Callable[[], tuple[Poly, Poly]]) -> VerifyReport:
    """Report on the identity name, timing series(): (computed, predicted)."""
    start = time.perf_counter()
    got, want = series()
    return VerifyReport(name, got == want, got, want, time.perf_counter() - start)


def verify_univariate(ctype: CartanType, printed_form: bool = False) -> VerifyReport:
    _factor_table(ctype, printed_form)  # NoPrediction before any work
    tag = f"odd-length {ctype}" + (" (printed C form)" if printed_form else "")
    # the element budget before the expansion
    return _report(tag, lambda: (signed_gf(ctype).poly, predicted_gf(ctype, printed_form)))


def verify_multivariate(identity_id: str, n: int) -> VerifyReport:
    ctype = CartanType(_profile_entry(identity_id)[2], n)
    return _report(f"{identity_id} n={n}", lambda: (
        signed_gf(ctype, identity_id).poly, predicted_multivariate(identity_id, n)
    ))


def verify_restriction(ctype: CartanType, profile: str, restriction: str) -> VerifyReport:
    """Check that restricting the domain does not change the polynomial."""
    return _restriction_report(ctype, profile, restriction, None)


def _restriction_report(
    ctype: CartanType, profile: str, restriction: str, full: Poly | None
) -> VerifyReport:
    """verify_restriction against full, the whole group's series (computed
    first when None)."""
    def series() -> tuple[Poly, Poly]:
        whole = signed_gf(ctype, profile).poly if full is None else full
        return signed_gf(ctype, profile, restriction).poly, whole

    return _report(f"{profile} {ctype} full = {restriction}", series)


def verification_suite(
    max_n: int = 8,
    *,
    include_printed_form: bool = False,
    families: tuple[str, ...] | None = None,
) -> list[VerifyReport]:
    """The desk-scale identity suite; every report should pass except the
    deliberately recorded printed type C form.  The multivariate identities
    stop at n = min(max_n, 6)."""
    reports: list[VerifyReport] = []
    top = min(max_n, 6)

    def want(fam: str) -> bool:
        return families is None or fam in families

    def stated(identity_id: str) -> range:
        lo, hi = _PROFILE_TABLE[identity_id][3:]
        return range(lo, min(top, hi or top) + 1)

    # a restriction report reuses the full series its type's report computed
    if want("A"):
        full = [verify_univariate(CartanType("A", n)) for n in range(1, max_n)]
        reports += full
        for n in range(2, min(max_n, 8)):
            reports += [
                _restriction_report(CartanType("A", n), "odd-length", r, full[n - 1].computed)
                for r in ("unimodal", "chessboard")
            ]
    if want("B"):
        reports += [verify_univariate(CartanType("B", n)) for n in range(1, max_n + 1)]
        # the identities of one group share a stated range
        for group in (
            ("B-4var", "B-ooo", "B-eoo"),
            ("uni-ooe", "uni-eoe", "uni-eoo"),
            ("B-nonfactor",),
        ):
            for n in stated(group[0]):
                reports += [verify_multivariate(name, n) for name in group]
    if want("C"):
        reports += [verify_univariate(CartanType("C", n)) for n in range(2, max_n + 1)]
        if include_printed_form:
            reports += [verify_univariate(CartanType("C", n), True) for n in range(2, max_n + 1)]
    if want("D"):
        reports += [verify_univariate(CartanType("D", n)) for n in range(2, max_n + 1)]
        for n in stated("D-bivar"):
            bivar = verify_multivariate("D-bivar", n)
            reports += [bivar, verify_multivariate("D-oe", n)]
            reports += [
                _restriction_report(CartanType("D", n), "D-bivar", r, bivar.computed)
                for r in ("chessboard", "good-chessboard")
            ]
    for family, rank in _EXCEPTIONAL_FACTORS:
        if want(family):
            reports.append(verify_univariate(CartanType(family, rank)))
    return reports
