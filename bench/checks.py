"""Result checks for the benchmark, written apart from the program.

Nothing here imports oddlength.  Polynomials are plain dicts from exponent
tuples to integer coefficients; the program's Poly objects are compared
through their ``terms`` mapping.  Every check returns a list of problems,
empty when the result passes.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

E8_SERIES_PATH = Path(__file__).resolve().parent / "e8_series.json"

# Exponents of each Weyl group.  By Kostant's theorem the number of positive
# roots of height k is the number of exponents m >= k, so
#   |W| = prod(m + 1),  N = sum(m),  N_odd = sum(ceil(m / 2)).
_EXCEPTIONAL_EXPONENTS = {
    "F4": (1, 5, 7, 11),
    "E6": (1, 4, 5, 7, 8, 11),
    "E7": (1, 5, 7, 9, 11, 13, 17),
    "E8": (1, 7, 11, 13, 17, 19, 23, 29),
}


def exponents(group: str) -> tuple[int, ...]:
    if group in _EXCEPTIONAL_EXPONENTS:
        return _EXCEPTIONAL_EXPONENTS[group]
    family, n = group[0], int(group[1:])
    if family == "A":
        return tuple(range(1, n + 1))
    if family in "BC":
        return tuple(range(1, 2 * n, 2))
    if family == "D":
        return tuple(range(1, 2 * n - 2, 2)) + (n - 1,)
    raise ValueError(f"no exponents on record for {group}")


def order(group: str) -> int:
    return math.prod(m + 1 for m in exponents(group))


def positive_roots(group: str) -> int:
    return sum(exponents(group))


def odd_roots(group: str) -> int:
    return sum((m + 1) // 2 for m in exponents(group))


# ---------------------------------------------------------------------------
# exact product expansion

def expand(factors: list[dict], nvars: int = 1) -> dict:
    """Multiply out a list of polynomials given as {exponent tuple: coef}."""
    acc = {(0,) * nvars: 1}
    for factor in factors:
        out: dict = {}
        for ea, ca in acc.items():
            for eb, cb in factor.items():
                e = tuple(a + b for a, b in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        acc = {e: c for e, c in out.items() if c}
    return acc


def _binomial(sign: int, expo: tuple[int, ...]) -> dict:
    """1 + sign * monomial."""
    return {(0,) * len(expo): 1, expo: sign}


def _geo(k: int) -> dict:
    return _binomial(-1, (k,))


def _a_factors(window: int) -> list[dict]:
    # S_window: (1 + (-1)^(i-1) x^floor(i/2)), i = 2..window
    return [_binomial((-1) ** (i - 1), (i // 2,)) for i in range(2, window + 1)]


def reference_product(group: str, profile: str) -> dict | None:
    """The paper's product for (group, profile), multiplied out here, or None
    where the benchmark checks by other means."""
    family, n = group[0], int(group[1:])
    if profile == "odd-length":
        if family == "A":
            return expand(_a_factors(n + 1))
        if family == "B":
            return expand([_geo(i) for i in range(1, n + 1)])
        if family == "D":
            return expand(_a_factors(n) * 2)
        if group == "F4":
            # the enumerated series; the recorded (1-x^2)^2 (1-x^4)^2 is wrong
            return expand([_geo(2), _geo(2), _geo(4), _geo(6)])
        if group == "E6":
            return expand([_geo(2), _geo(4), _geo(6), _geo(8)])
        if group == "E7":
            return expand([_geo(i) for i in range(2, 9)])
        if group == "E8":
            return load_e8_series()
        return None
    if profile == "B-4var" and family == "B":
        # variables (x1, x2, y, z)
        factors = [_binomial((-1) ** i, (0, 0, (i + 1) // 2, 0)) for i in range(1, n)]
        factors += [_binomial(-1, (1, 1, 0, 2 * i)) for i in range((n - 2) // 2 + 1)]
        if n % 2:
            factors.append(_binomial(-1, (1, 0, 0, (n - 1) // 2)))
        return expand(factors, 4)
    if profile == "D-bivar" and family == "D":
        # variables (x, y): the type A form at window n in each
        ax = expand(_a_factors(n))
        return {(ex[0], ey[0]): cx * cy for ex, cx in ax.items() for ey, cy in ax.items()}
    return None


def load_e8_series() -> dict:
    data = json.loads(E8_SERIES_PATH.read_text())
    return {(k,): c for k, c in data["coefficients"]}


# ---------------------------------------------------------------------------
# checks

def check_univariate(series: dict, group: str) -> list[str]:
    """Properties every signed odd-length series must have: it vanishes at
    x = 1, c_k = (-1)^N c_{N_odd - k}, and its degree is N_odd."""
    problems = []
    coef = {e[0]: c for e, c in series.items() if c}
    n_pos, n_odd = positive_roots(group), odd_roots(group)
    if sum(coef.values()) != 0:
        problems.append(f"{group}: series at x=1 is {sum(coef.values())}, not 0")
    degree = max(coef, default=-1)
    if degree != n_odd:
        problems.append(f"{group}: degree {degree}, not N_odd = {n_odd}")
    sign = -1 if n_pos % 2 else 1
    for k in range(n_odd + 1):
        if coef.get(k, 0) != sign * coef.get(n_odd - k, 0):
            problems.append(f"{group}: c_{k} = {coef.get(k, 0)} breaks palindromy")
            break
    return problems


def check_vanishes(series: dict, label: str) -> list[str]:
    """A signed series over a nontrivial group sums to 0 at all-ones."""
    total = sum(series.values())
    return [] if total == 0 else [f"{label}: value at all-ones is {total}, not 0"]


def check_elements(elements: int, group: str) -> list[str]:
    want = order(group)
    return [] if elements == want else [f"{group}: {elements} elements, |W| = {want}"]


def check_equal(series: dict, reference: dict, label: str) -> list[str]:
    a = {e: c for e, c in series.items() if c}
    b = {e: c for e, c in reference.items() if c}
    if a == b:
        return []
    diff = sorted(e for e in a.keys() | b.keys() if a.get(e, 0) != b.get(e, 0))
    return [f"{label}: differs from its reference at {len(diff)} exponents, first {diff[0]}"]


# ---------------------------------------------------------------------------
# brute force over signed permutation windows

def brute_b4var(n: int) -> dict:
    """Sum over B_n of (-1)^len_B x1^oneg x2^eneg y^oinv z^ensp, by windows.

    Positions are 1-based; pair statistics split by the parity of the gap,
    negative entries by the parity of their position.
    len_B = inv + neg + nsp.
    """
    acc: dict = {}
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            w = [s * v for s, v in zip(signs, perm)]
            oneg = sum(1 for i in range(0, n, 2) if w[i] < 0)
            eneg = sum(1 for i in range(1, n, 2) if w[i] < 0)
            inv = oinv = nsp = ensp = 0
            for i in range(n):
                for j in range(i + 1, n):
                    odd_gap = (j - i) % 2 == 1
                    if w[i] > w[j]:
                        inv += 1
                        oinv += odd_gap
                    if w[i] + w[j] < 0:
                        nsp += 1
                        ensp += not odd_gap
            expo = (oneg, eneg, oinv, ensp)
            acc[expo] = acc.get(expo, 0) + (-1) ** (inv + oneg + eneg + nsp)
    return {e: c for e, c in acc.items() if c}
