"""End-to-end checks, one test per published claim, each with its time budget.

Every polynomial comparison is exact.  test_08_f4_reference_product is
expected to fail: the recorded reference product for F4 has degree 12, but
the enumerated series has degree 14 and three independent computations
agree on it.  The test states the reference faithfully and reports the
difference rather than adjusting either side to force a pass.
"""

import itertools
import random
import time
from collections import Counter

import pytest

from oddlength.cartan import CartanType, group_order, root_system
from oddlength.engine import run_partitioned
from oddlength.errors import NoPeak
from oddlength.gf import predicted_gf, signed_gf, verify_multivariate, verify_univariate
from oddlength.poly import Poly
from oddlength.stats import (
    SignedPermutation,
    StatisticId,
    atomic_stats,
    bar_involution_D,
    chessboard_involution_D,
    compute_statistic,
    extend,
    is_chessboard,
    is_good_chessboard,
    is_unimodal,
    parabolic_decompose_D,
    peak_involution,
    star_involution,
)
from oddlength.weyl import (
    ConjugatedRootSystem,
    element_to_window,
    enumerate_group,
    length_by_roots,
    multiply,
    odd_length_by_roots,
    simple_reflection,
    window_to_element,
)
from oracle import iter_group_windows

X = ("x",)
XY = ("x", "y")


def one(vars_=X) -> Poly:
    return Poly.const(1, vars_)


def alternating_product(n: int, var: str = "x", vars_=X) -> Poly:
    """The symmetric group closed form: (1+x)(1-x)(1+x^2)... up to index n."""
    out = one(vars_)
    v = Poly.var(var, vars_)
    for i in range(2, n + 1):
        t = v ** (i // 2)
        out = out * (one(vars_) + t if i % 2 else one(vars_) - t)
    return out


def descending_product(top: int, start: int = 1) -> Poly:
    out = one()
    x = Poly.var("x", X)
    for i in range(start, top + 1):
        out = out * (one() - x**i)
    return out


def test_01_symmetric_group_alternating_product():
    t0 = time.perf_counter()
    for n in range(2, 9):
        res = signed_gf(CartanType("A", n - 1))
        assert res.poly == alternating_product(n), f"S_{n}"
    assert time.perf_counter() - t0 < 10.0


def test_02_hyperoctahedral_descending_product():
    t0 = time.perf_counter()
    for n in range(1, 9):
        res = signed_gf(CartanType("B", n))
        assert res.poly == descending_product(n), f"B_{n}"
        assert res.elements == group_order(res.ctype)
    assert res.elements == 10_321_920
    assert time.perf_counter() - t0 < 120.0


def test_03_type_c_derived_form_and_printed_form_mismatch():
    t0 = time.perf_counter()
    for n in range(2, 9):
        ct = CartanType("C", n)
        assert signed_gf(ct).poly == predicted_gf(ct), f"C_{n}"
    rep = verify_univariate(CartanType("C", 2), printed_form=True)
    assert not rep.ok
    assert rep.diff.terms, "mismatch must come with a nonzero difference"
    assert "diff has" in rep.line()
    assert time.perf_counter() - t0 < 120.0


def test_04_type_d_square_of_type_a():
    t0 = time.perf_counter()
    for n in range(2, 9):
        assert signed_gf(CartanType("D", n)).poly == alternating_product(n) ** 2
    for n in range(2, 7):
        res = signed_gf(CartanType("D", n), "D-bivar")
        expected = alternating_product(n, "x", XY) * alternating_product(n, "y", XY)
        assert res.poly == expected, f"D_{n} bivariate"
    assert time.perf_counter() - t0 < 120.0


def test_05_four_and_three_variable_factorizations():
    t0 = time.perf_counter()
    for n in range(1, 7):
        for ident in ("B-4var", "B-ooo", "B-eoo"):
            rep = verify_multivariate(ident, n)
            assert rep.ok, rep.line()
        if n % 2:
            assert verify_multivariate("B-eoo", n).computed.is_zero
    for n in range(3, 7):
        for ident in ("uni-ooe", "uni-eoe", "uni-eoo"):
            rep = verify_multivariate(ident, n)
            assert rep.ok, rep.line()
        assert verify_multivariate("uni-eoo", n).computed.is_zero
    assert time.perf_counter() - t0 < 60.0


def test_06_rank_four_nonfactoring_expansion():
    rep = verify_multivariate("B-nonfactor", 4)
    assert rep.ok, rep.line()
    vars4 = ("x1", "x2", "y", "z")
    o = Poly.const(1, vars4)
    x1, x2, y, z = (Poly.var(v, vars4) for v in vars4)
    expansion = (
        (o - y**2)
        * (o - x1 * x2 * z**2)
        * (o + x1 * x2 * y**2 * z**2 - x1 * x2 * z**2 - x2 * y**2 * z**2
           + x1 * z**2 + x2 * y**2 - x1 - y**2)
    )
    assert rep.computed == expansion


def test_07_type_d_vanishing_distributions():
    for n in range(2, 7):
        ct = CartanType("D", n)
        assert signed_gf(ct, "D-oe").poly.is_zero, f"(oinv, ensp) at D_{n}"
        # univariate check straight off the windows, no profile machinery
        tally: Counter = Counter()
        for window in iter_group_windows(ct):
            sigma = SignedPermutation(window)
            sign = -1 if compute_statistic(StatisticId.len_D, sigma) % 2 else 1
            tally[compute_statistic(StatisticId.L_oe, sigma)] += sign
        assert not any(tally.values()), f"L_oe at D_{n}"


def test_08_f4_reference_product():
    t0 = time.perf_counter()
    computed = signed_gf(CartanType.parse("F4")).poly
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    x = Poly.var("x", X)
    reference = (one() - x**2) ** 2 * (one() - x**4) ** 2
    assert computed == reference, (
        f"F4 enumerated series {computed} does not equal the recorded "
        f"reference product {reference}; difference {computed - reference}. "
        "The series has degree 14 (14 odd-height positive roots, all sent "
        "negative by the longest element, whose length 24 is even), so no "
        "degree 12 product can match it; the enumerated series factors as "
        "(1-x^2)^2 (1-x^4) (1-x^6)."
    )


def test_08_e6_product():
    t0 = time.perf_counter()
    computed = signed_gf(CartanType.parse("E6")).poly
    x = Poly.var("x", X)
    assert computed == (one() - x**2) * (one() - x**4) * (one() - x**6) * (one() - x**8)
    assert time.perf_counter() - t0 < 10.0


def test_08_e7_product_with_workers():
    t0 = time.perf_counter()
    res = run_partitioned(CartanType.parse("E7"), workers=4)
    assert res.poly == descending_product(8, start=2)
    assert time.perf_counter() - t0 < 120.0


def test_09_e8_three_part_checkpoint_determinism(tmp_path):
    e8 = CartanType.parse("E8")
    fresh = run_partitioned(e8, parts=[0, 1, 2], allow_large=True).poly.dumps()
    # interrupted run: two parts land in the checkpoint, resume adds the third
    ck = str(tmp_path / "e8.ckpt")
    run_partitioned(e8, parts=[0, 1], checkpoint_path=ck, allow_large=True)
    resumed = run_partitioned(
        e8, parts=[0, 1, 2], checkpoint_path=ck, resume=True, allow_large=True
    )
    assert resumed.parts_done == (0, 1, 2)
    assert resumed.poly.dumps() == fresh
    # completion order cannot matter
    shuffled = run_partitioned(e8, parts=[2, 0, 1], allow_large=True).poly.dumps()
    assert shuffled == fresh


CROSS_CHECK = {
    "A": (StatisticId.len_A, StatisticId.L_A),
    "B": (StatisticId.len_B, StatisticId.L_B),
    "C": (StatisticId.len_B, StatisticId.L_C),
    "D": (StatisticId.len_D, StatisticId.L_D),
}


def test_10_window_formulas_match_root_counts():
    for family, (len_stat, odd_stat) in CROSS_CHECK.items():
        ranks = range(2 if family == "D" else 1, 6)
        for rank in ranks:
            system = root_system(CartanType(family, rank))
            for w in enumerate_group(system):
                sigma = SignedPermutation(element_to_window(w))
                assert compute_statistic(len_stat, sigma) == length_by_roots(w)
                assert compute_statistic(odd_stat, sigma) == odd_length_by_roots(w)
    example = SignedPermutation.parse("3,-1,-4,-2,5")
    assert compute_statistic(StatisticId.L_B, example) == 6
    assert compute_statistic(StatisticId.L_C, example) == 8
    w_b = window_to_element(root_system(CartanType("B", 5)), example.window)
    w_c = window_to_element(root_system(CartanType("C", 5)), example.window)
    assert odd_length_by_roots(w_b) == 6
    assert odd_length_by_roots(w_c) == 8


def test_11_involution_contracts_exhaustively():
    # peak: plain windows, stated through S_6 (rank 5)
    for n in range(2, 7):
        for window in itertools.permutations(range(1, n + 1)):
            sigma = SignedPermutation(window)
            if is_unimodal(sigma):
                with pytest.raises(NoPeak):
                    peak_involution(sigma)
                continue
            img = peak_involution(sigma)
            a, b = atomic_stats(sigma), atomic_stats(img)
            assert peak_involution(img) == sigma
            assert b["oinv"] == a["oinv"]
            assert abs(b["inv"] - a["inv"]) == 1
            assert is_chessboard(img) == is_chessboard(sigma)
    # star: all of B_n through rank 5, where the middle slot condition allows
    for n in range(1, 6):
        for window in iter_group_windows(CartanType("B", n)):
            sigma = SignedPermutation(window)
            slot = next(i + 1 for i, v in enumerate(window) if abs(v) == n)
            if slot in (1, n):
                continue
            img = star_involution(sigma)
            a, b = atomic_stats(sigma), atomic_stats(img)
            assert star_involution(img) == sigma
            for key in ("oneg", "eneg", "onsp", "ensp", "oinv"):
                assert b[key] == a[key], key
            len_b = lambda s: s["inv"] + s["neg"] + s["nsp"]
            assert abs(len_b(b) - len_b(a)) == 1
    # bar and chessboard moves: all of D_n through rank 5
    for n in range(2, 6):
        for window in iter_group_windows(CartanType("D", n)):
            sigma = SignedPermutation(window)
            img = bar_involution_D(sigma)
            a, b = atomic_stats(sigma), atomic_stats(img)
            assert bar_involution_D(img) == sigma
            assert b["oinv"] == a["oinv"] and b["ensp"] == a["ensp"]
            len_d = lambda s: s["inv"] + s["nsp"]
            assert abs(len_d(b) - len_d(a)) == 1
            if not is_chessboard(sigma):
                img = chessboard_involution_D(sigma)
                a, b = atomic_stats(sigma), atomic_stats(img)
                assert chessboard_involution_D(img) == sigma
                assert b["oinv"] == a["oinv"] and b["onsp"] == a["onsp"]
                assert abs(len_d(b) - len_d(a)) == 1


def signed_tally(windows, keys) -> Counter:
    tally: Counter = Counter()
    for window in windows:
        a = atomic_stats(SignedPermutation(window))
        sign = -1 if a["inv"] % 2 else 1
        tally[tuple(a[k] for k in keys)] += sign
    return +tally


def test_11_restriction_identities():
    # unimodal reduction and its chessboard refinement, through S_8
    for n in range(2, 9):
        everyone = [SignedPermutation(w)
                    for w in itertools.permutations(range(1, n + 1))]
        unimodal = [s for s in everyone if is_unimodal(s)]
        assert signed_tally((s.window for s in everyone), ("oinv",)) == \
            signed_tally((s.window for s in unimodal), ("oinv",))
        assert signed_tally((s.window for s in everyone if is_chessboard(s)), ("oinv",)) == \
            signed_tally((s.window for s in unimodal if is_chessboard(s)), ("oinv",))
    # chessboard and good-chessboard restrictions in D_n, through rank 6
    for n in range(2, 7):
        windows = list(iter_group_windows(CartanType("D", n)))
        def dist(pred):
            tally: Counter = Counter()
            for w in windows:
                s = SignedPermutation(w)
                if not pred(s):
                    continue
                a = atomic_stats(s)
                sign = -1 if (a["inv"] + a["nsp"]) % 2 else 1
                tally[(a["oinv"], a["onsp"])] += sign
            return +tally
        full = dist(lambda s: True)
        assert full == dist(is_chessboard), f"chessboard restriction at D_{n}"
        assert full == dist(is_good_chessboard), f"good chessboard at D_{n}"
        for w in windows:
            s = SignedPermutation(w)
            dec = parabolic_decompose_D(s)
            a = atomic_stats(s)
            t, u = atomic_stats(dec.coset_rep), atomic_stats(dec.parabolic_part)
            assert a["inv"] + a["nsp"] == t["inv"] + t["nsp"] + u["inv"] + u["nsp"]
            if is_good_chessboard(s):
                assert a["oinv"] == t["oinv"] + u["oinv"]
                assert a["onsp"] == t["onsp"] + u["onsp"]


def test_11_extension_deltas():
    for n in range(2, 7):
        up, down = n // 2, (n - 1) // 2
        for window in iter_group_windows(CartanType("B", n - 1)):
            sigma = SignedPermutation(window)
            a = atomic_stats(sigma)
            t = atomic_stats(extend(sigma, "tilde"))
            assert t["oneg"] == a["oneg"] + n % 2
            assert t["eneg"] == a["eneg"] + (1 - n % 2)
            assert t["oinv"] == a["oinv"] + up and t["einv"] == a["einv"] + down
            assert t["onsp"] == a["onsp"] + up and t["ensp"] == a["ensp"] + down
            h = atomic_stats(extend(sigma, "hat"))
            assert h["oneg"] == a["eneg"] and h["eneg"] == a["oneg"]
            assert h["oinv"] == a["oinv"] + up and h["einv"] == a["einv"] + down
            assert h["nsp"] == a["nsp"] and h["onsp"] == a["onsp"]
            c = atomic_stats(extend(sigma, "check"))
            assert c["oneg"] == a["eneg"] + 1 and c["eneg"] == a["oneg"]
            assert c["inv"] == a["inv"] and c["oinv"] == a["oinv"]
            assert c["onsp"] == a["onsp"] + up and c["ensp"] == a["ensp"] + down


def test_12_conjugated_simple_systems_same_distribution():
    for name, seed in (("A3", 11), ("B3", 22), ("D4", 33)):
        system = root_system(CartanType.parse(name))
        group = list(enumerate_group(system))
        base = Counter((length_by_roots(w), odd_length_by_roots(w)) for w in group)
        rng = random.Random(seed)
        for _ in range(3):
            conj = None
            for _ in range(rng.randrange(4, 12)):
                s = simple_reflection(system, rng.randrange(system.ctype.rank))
                conj = s if conj is None else multiply(conj, s)
            moved = ConjugatedRootSystem(system, conj)
            again = Counter((moved.length_of(w), moved.odd_length_of(w)) for w in group)
            assert again == base, f"{name} under conjugator {conj.key()}"
