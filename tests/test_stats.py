"""Window statistics, element classes, involutions, extensions."""

from itertools import combinations, permutations

import pytest

from oddlength.cartan import CartanType
from oddlength.errors import (
    InvalidWindow,
    IsChessboard,
    NoPeak,
    NotApplicable,
)
from oddlength.stats import (
    SignedPermutation,
    StatisticId,
    abs_map,
    atomic_stats,
    bar_involution_D,
    chessboard_involution_D,
    classify,
    compute_statistic,
    descent_set_D,
    extend,
    is_chessboard,
    is_good_chessboard,
    is_unimodal,
    parabolic_decompose_D,
    peak_involution,
    star_involution,
)
from oracle import iter_group_windows


def signed_windows(n):
    return [SignedPermutation.of(w) for w in iter_group_windows(CartanType("B", n))]


def d_windows(n):
    return [SignedPermutation.of(w) for w in iter_group_windows(CartanType("D", n))]


def reference_stats(win):
    """Straight-from-definition recount, 1-based positions and gaps."""
    n = len(win)
    out = dict.fromkeys(
        ("inv", "oinv", "einv", "neg", "oneg", "eneg", "nsp", "onsp", "ensp"), 0
    )
    for i, j in combinations(range(1, n + 1), 2):
        a, b = win[i - 1], win[j - 1]
        if a > b:
            out["inv"] += 1
            out["oinv" if (j - i) % 2 else "einv"] += 1
        if a + b < 0:
            out["nsp"] += 1
            out["onsp" if (j - i) % 2 else "ensp"] += 1
    for i in range(1, n + 1):
        if win[i - 1] < 0:
            out["neg"] += 1
            out["oneg" if i % 2 else "eneg"] += 1
    return out


def test_atomic_stats_match_reference_exhaustively():
    for n in (1, 2, 3, 4):
        for sigma in signed_windows(n):
            assert atomic_stats(sigma) == reference_stats(sigma.window)


def test_worked_example_values():
    sigma = SignedPermutation.parse("3,-1,-4,-2,5")
    got = {stat.value: compute_statistic(stat, sigma) for stat in StatisticId}
    assert got == {
        "inv": 5, "oinv": 3, "einv": 2,
        "neg": 3, "oneg": 1, "eneg": 2,
        "nsp": 4, "onsp": 2, "ensp": 2,
        "len_A": 5, "len_B": 12, "len_D": 9,
        "L_A": 3, "L_B": 6, "L_C": 8, "L_D": 5,
        "L_ooe": 6, "L_eoe": 7, "L_eoo": 7, "L_oe": 5,
    }


def test_composites_are_sums_of_atoms():
    for sigma in signed_windows(3):
        t = atomic_stats(sigma)
        assert compute_statistic(StatisticId.len_B, sigma) == t["inv"] + t["neg"] + t["nsp"]
        assert compute_statistic(StatisticId.len_D, sigma) == t["inv"] + t["nsp"]
        assert compute_statistic(StatisticId.L_B, sigma) == t["oneg"] + t["oinv"] + t["onsp"]
        assert compute_statistic(StatisticId.L_C, sigma) == t["neg"] + t["oinv"] + t["ensp"]
        assert compute_statistic(StatisticId.L_D, sigma) == t["oinv"] + t["onsp"]
        assert compute_statistic(StatisticId.L_oe, sigma) == t["oinv"] + t["ensp"]


def test_parse_and_validation():
    assert SignedPermutation.parse(" 2, -1 , 3 ").window == (2, -1, 3)
    with pytest.raises(InvalidWindow):
        SignedPermutation.of((1, 1, 2))
    with pytest.raises(InvalidWindow):
        SignedPermutation.of((1, 4, 2))
    with pytest.raises(InvalidWindow):
        SignedPermutation.of((0, 1))
    assert SignedPermutation.identity(3).window == (1, 2, 3)


def test_classification_examples():
    ident = SignedPermutation.identity(4)
    cls = classify(ident)
    assert cls.unimodal and cls.chessboard and cls.good_chessboard
    cls = classify(SignedPermutation.of((1, 3, 2)))
    assert not cls.unimodal and not cls.chessboard
    assert is_chessboard(SignedPermutation.of((2, 1, 4, 3)))
    # signed windows classify by value parity, sign ignored for chessboard
    assert is_chessboard(SignedPermutation.of((-1, 2, -3)))


def test_unimodal_means_no_peak():
    for perm in permutations(range(1, 6)):
        sigma = SignedPermutation.of(perm)
        has_peak = any(
            perm[i - 1] < perm[i] > perm[i + 1] for i in range(1, 4)
        )
        assert is_unimodal(sigma) == (not has_peak)


# the four involutions, domain by domain

def test_peak_involution_examples():
    assert peak_involution(SignedPermutation.of((1, 3, 2))).window == (2, 3, 1)
    with pytest.raises(NoPeak):
        peak_involution(SignedPermutation.of((1, 2, 3)))


def test_peak_involution_properties():
    for n in (3, 4, 5):
        for perm in permutations(range(1, n + 1)):
            sigma = SignedPermutation.of(perm)
            if is_unimodal(sigma):
                with pytest.raises(NoPeak):
                    peak_involution(sigma)
                continue
            tau = peak_involution(sigma)
            assert peak_involution(tau) == sigma
            a, b = atomic_stats(sigma), atomic_stats(tau)
            assert a["oinv"] == b["oinv"]
            assert abs(a["inv"] - b["inv"]) == 1
            assert is_chessboard(sigma) == is_chessboard(tau)


def test_star_involution_examples():
    assert star_involution(SignedPermutation.of((1, 3, 2))).window == (2, 3, 1)
    with pytest.raises(NotApplicable):
        star_involution(SignedPermutation.of((3, 1, 2)))
    with pytest.raises(NotApplicable):
        star_involution(SignedPermutation.of((1, 2, 3)))  # n in the last slot


def test_star_involution_properties():
    for n in (3, 4):
        for sigma in signed_windows(n):
            slot = next(i for i in range(n) if abs(sigma.window[i]) == n)
            if slot in (0, n - 1):
                with pytest.raises(NotApplicable):
                    star_involution(sigma)
                continue
            tau = star_involution(sigma)
            assert star_involution(tau) == sigma
            a, b = atomic_stats(sigma), atomic_stats(tau)
            for kept in ("oneg", "eneg", "onsp", "ensp", "oinv"):
                assert a[kept] == b[kept]
            la = a["inv"] + a["neg"] + a["nsp"]
            lb = b["inv"] + b["neg"] + b["nsp"]
            assert abs(la - lb) == 1


def test_bar_involution_examples():
    assert bar_involution_D(SignedPermutation.of((1, 2, 3))).window == (-2, -1, 3)
    assert bar_involution_D(SignedPermutation.of((1, 3, 2))).window == (2, 3, 1)


def test_bar_involution_properties():
    for n in (2, 3, 4):
        for sigma in d_windows(n):
            tau = bar_involution_D(sigma)
            assert tau.is_even_signed
            assert bar_involution_D(tau) == sigma
            a, b = atomic_stats(sigma), atomic_stats(tau)
            assert a["ensp"] == b["ensp"]
            assert a["oinv"] == b["oinv"]
            assert abs((a["inv"] + a["nsp"]) - (b["inv"] + b["nsp"])) == 1


def test_chessboard_involution_examples():
    assert chessboard_involution_D(SignedPermutation.of((2, 3, 1))).window == (1, 3, 2)
    with pytest.raises(IsChessboard):
        chessboard_involution_D(SignedPermutation.identity(3))


def test_chessboard_involution_properties():
    for n in (2, 3, 4):
        for sigma in d_windows(n):
            if is_chessboard(sigma):
                with pytest.raises(IsChessboard):
                    chessboard_involution_D(sigma)
                continue
            tau = chessboard_involution_D(sigma)
            assert not is_chessboard(tau)
            assert chessboard_involution_D(tau) == sigma
            a, b = atomic_stats(sigma), atomic_stats(tau)
            assert a["oinv"] == b["oinv"]
            assert a["onsp"] == b["onsp"]
            assert abs((a["inv"] + a["nsp"]) - (b["inv"] + b["nsp"])) == 1


# window extensions: append -n, prepend n, prepend -n

def test_extension_examples():
    one = SignedPermutation.of((1,))
    assert extend(one, "tilde").window == (1, -2)
    assert extend(one, "hat").window == (2, 1)
    assert extend(one, "check").window == (-2, 1)


def test_extension_deltas():
    for n in (2, 3, 4):
        up = (n - 1 + 1) // 2  # ceil((n-1)/2)
        down = (n - 1) // 2
        even_n = 1 if n % 2 == 0 else 0
        for sigma in signed_windows(n - 1):
            a = atomic_stats(sigma)
            t = atomic_stats(extend(sigma, "tilde"))
            assert t["oneg"] == a["oneg"] + 1 - even_n
            assert t["eneg"] == a["eneg"] + even_n
            assert t["oinv"] == a["oinv"] + up
            assert t["einv"] == a["einv"] + down
            assert t["onsp"] == a["onsp"] + up
            assert t["ensp"] == a["ensp"] + down
            h = atomic_stats(extend(sigma, "hat"))
            assert h["oneg"] == a["eneg"]
            assert h["eneg"] == a["oneg"]
            assert h["oinv"] == a["oinv"] + up
            assert h["einv"] == a["einv"] + down
            assert h["onsp"] == a["onsp"] and h["ensp"] == a["ensp"]
            c = atomic_stats(extend(sigma, "check"))
            assert c["oneg"] == a["eneg"] + 1
            assert c["eneg"] == a["oneg"]
            assert c["oinv"] == a["oinv"] and c["einv"] == a["einv"]
            assert c["onsp"] == a["onsp"] + up
            assert c["ensp"] == a["ensp"] + down


def test_extend_rejects_unknown_kind():
    with pytest.raises(ValueError):
        extend(SignedPermutation.identity(2), "wiggle")


# parabolic pieces of the even-signed group

def test_decomposition_round_trip_and_descents():
    for n in (2, 3, 4, 5):
        for sigma in d_windows(n):
            dec = parabolic_decompose_D(sigma)
            assert dec.recompose() == sigma
            assert dec.parabolic_part.is_plain
            assert descent_set_D(dec.coset_rep) <= {0}


def test_decomposition_length_additivity():
    for n in (2, 3, 4):
        for sigma in d_windows(n):
            dec = parabolic_decompose_D(sigma)
            total = compute_statistic(StatisticId.len_D, sigma)
            assert total == (
                compute_statistic(StatisticId.len_D, dec.coset_rep)
                + compute_statistic(StatisticId.len_D, dec.parabolic_part)
            )


def test_good_chessboard_statistic_additivity():
    for n in (2, 3, 4):
        for sigma in d_windows(n):
            if not is_good_chessboard(sigma):
                continue
            dec = parabolic_decompose_D(sigma)
            a = atomic_stats(sigma)
            t = atomic_stats(dec.coset_rep)
            u = atomic_stats(dec.parabolic_part)
            assert a["oinv"] == t["oinv"] + u["oinv"]
            assert a["onsp"] == t["onsp"] + u["onsp"]


def test_abs_map_on_chessboard_coset_reps():
    # on chessboard windows with descent set inside {0}, entrywise absolute
    # value turns nsp pairs into inversions and lands on the chessboard
    # peak-free permutations, one to one
    for n in (2, 3, 4, 5):
        reps = [
            s for s in d_windows(n)
            if descent_set_D(s) <= {0} and is_chessboard(s)
        ]
        images = set()
        for sigma in reps:
            flat = abs_map(sigma)
            assert flat.is_plain
            a, f = atomic_stats(sigma), atomic_stats(flat)
            assert a["nsp"] == f["inv"]
            assert a["onsp"] == f["oinv"]
            images.add(flat)
        assert len(images) == len(reps)
        target = {
            SignedPermutation.of(p)
            for p in permutations(range(1, n + 1))
            if is_unimodal(SignedPermutation.of(p)) and is_chessboard(SignedPermutation.of(p))
        }
        assert images == target


def test_descent_set_examples():
    assert descent_set_D(SignedPermutation.of((1, 2, 3))) == frozenset()
    assert descent_set_D(SignedPermutation.of((2, 1, 3))) == frozenset({1})
    assert descent_set_D(SignedPermutation.of((-2, -1, 3))) == frozenset({0})
