"""Signed generating functions: frozen values, predictions, restrictions."""

import re

import pytest

from oddlength.cartan import CartanType, group_order
from oddlength.errors import (
    BudgetExceeded,
    NoPrediction,
    OutOfStatedRange,
    UnsupportedProfile,
)
from oddlength.gf import (
    PROFILES,
    RESTRICTIONS,
    _PROFILE_TABLE,
    predicted_display,
    predicted_gf,
    predicted_multivariate,
    resolve_profile,
    signed_gf,
    verification_suite,
    verify_multivariate,
    verify_restriction,
    verify_univariate,
)
from oddlength.poly import Poly
from oracle import RESTRICTION_PREDICATES, gf_by_windows


def uni(coeffs: dict) -> Poly:
    return Poly(("x",), {(k,): c for k, c in coeffs.items()})


# values frozen from hand-checkable enumerations (group orders 2 to 1152),
# cross-checked through both the window path and the root-action path
FROZEN = {
    "A1": {0: 1, 1: -1},
    "A2": {0: 1, 2: -1},
    "A3": {0: 1, 2: -2, 4: 1},
    "B2": {0: 1, 1: -1, 2: -1, 3: 1},
    "B3": {0: 1, 1: -1, 2: -1, 4: 1, 5: 1, 6: -1},
    "C3": {0: 1, 2: -3, 4: 3, 6: -1},
    "D2": {0: 1, 1: -2, 2: 1},
    "D4": {0: 1, 2: -4, 4: 6, 6: -4, 8: 1},
    "G2": {0: 1, 2: -2, 4: 1},
    "F4": {0: 1, 2: -2, 6: 1, 8: 1, 12: -2, 14: 1},
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_small_generating_functions(name):
    res = signed_gf(CartanType.parse(name))
    assert res.poly == uni(FROZEN[name])
    assert res.elements == group_order(res.ctype)


def _window_oracle(ct, profile, unsigned=False, restriction="full"):
    # the per-window enumeration, the reference for the root engine
    predicate = RESTRICTION_PREDICATES[restriction]
    return gf_by_windows(ct, resolve_profile(profile, ct), predicate, unsigned)


def test_engine_matches_window_oracle():
    # every profile at every rank up to 5 where it is defined, signed and
    # unsigned, through the root engine against the window enumeration
    checked = set()
    for family in "ABCD":
        for n in range(2 if family == "D" else 1, 6):
            ct = CartanType(family, n)
            for profile in PROFILES:
                try:
                    resolve_profile(profile, ct)
                except UnsupportedProfile:
                    continue
                checked.add((profile, family))
                for unsigned in (False, True):
                    res = signed_gf(ct, profile, unsigned=unsigned)
                    assert res.poly == _window_oracle(ct, profile, unsigned)[0], (ct, profile)
                    assert res.elements == group_order(ct)
    assert {p for p, _ in checked} == set(PROFILES)


def test_window_and_root_paths_agree():
    from oddlength.engine import odd_length_gf_by_roots
    from oddlength.cartan import root_system
    for name in ("A3", "B3", "C3", "D4"):
        ct = CartanType.parse(name)
        for unsigned in (False, True):
            assert _window_oracle(ct, "odd-length", unsigned)[0] == odd_length_gf_by_roots(
                root_system(ct), unsigned=unsigned
            )


def test_unsigned_mode_counts_the_group():
    for name in ("B3", "D4", "G2"):
        ct = CartanType.parse(name)
        res = signed_gf(ct, unsigned=True)
        assert sum(res.poly.terms.values()) == group_order(ct)
        assert all(c > 0 for c in res.poly.terms.values())


def test_signed_gf_vanishes_at_one():
    for name in ("A4", "B4", "D4", "F4", "G2"):
        res = signed_gf(CartanType.parse(name))
        assert res.poly.eval_int((1,)) == 0


def test_budget_guard():
    # B9 has 185,794,560 elements, past the element budget of 10^8
    with pytest.raises(BudgetExceeded, match="B9 has 185794560 elements"):
        signed_gf(CartanType.parse("B9"))


# predictions

def test_predicted_univariate_matches_brute_small():
    for name in ("A3", "A4", "B3", "B4", "C3", "C4", "D3", "D4"):
        ct = CartanType.parse(name)
        assert signed_gf(ct).poly == predicted_gf(ct)


def test_predicted_a2_form():
    assert predicted_gf(CartanType.parse("A2")) == uni({0: 1, 2: -1})


def test_no_prediction_types():
    with pytest.raises(NoPrediction):
        predicted_gf(CartanType.parse("G2"))
    with pytest.raises(NoPrediction):
        predicted_gf(CartanType.parse("E8"))


DISPLAYED = (
    [(CartanType(fam, n), False) for fam in "ABC" for n in range(1, 13)]
    + [(CartanType("C", n), True) for n in range(1, 13)]
    + [(CartanType("D", n), False) for n in range(2, 13)]
    + [(CartanType.parse(name), False) for name in ("F4", "E6", "E7")]
)


@pytest.mark.parametrize(
    "ct, printed_form", DISPLAYED, ids=[f"{ct}{'-printed' * pf}" for ct, pf in DISPLAYED]
)
def test_display_parses_back_to_the_closed_form(ct, printed_form):
    text = predicted_display(ct, printed_form)
    assert text == " ".join(text.split())  # single-spaced, nothing trailing
    x = ("x",)
    product = Poly.const(1, x)
    for token in text.split(" "):
        found = re.fullmatch(r"\(1([+-])x\^(\d+)\)(?:\^(\d+))?", token)
        assert found, f"{ct}: cannot parse {token!r} in {text!r}"
        sign, k, m = found.groups()
        factor = Poly(x, {(0,): 1, (int(k),): 1 if sign == "+" else -1})
        product = product * factor ** int(m or 1)
    assert product == predicted_gf(ct, printed_form)


def test_printed_form_c_form_differs():
    for n in (2, 3, 4, 5):
        ct = CartanType("C", n)
        derived = predicted_gf(ct)
        literal = predicted_gf(ct, printed_form=True)
        assert derived != literal
        assert signed_gf(ct).poly == derived


def test_f4_computed_factorization_pinned():
    # the product the verifier checks against has degree 12, but the group
    # has 14 odd-height positive roots and the longest element (even
    # length) lands on all of them, so the computed polynomial must have
    # degree 14; pinned after three independent computations agreed
    one, x = Poly.const(1, ("x",)), Poly.var("x", ("x",))
    computed = signed_gf(CartanType.parse("F4")).poly
    assert computed == (one - x**2) ** 2 * (one - x**4) * (one - x**6)
    assert computed != predicted_gf(CartanType.parse("F4"))
    report = verify_univariate(CartanType.parse("F4"))
    assert not report.ok
    assert report.diff.total_degree() == 14


def test_e6_matches_its_product():
    report = verify_univariate(CartanType.parse("E6"))
    assert report.ok, report.line()


# profiles and restrictions

def test_profile_resolution():
    prof = resolve_profile("B-4var", CartanType.parse("B3"))
    assert prof.vars == ("x1", "x2", "y", "z")
    with pytest.raises(UnsupportedProfile):
        resolve_profile("B-4var", CartanType.parse("D3"))
    with pytest.raises(UnsupportedProfile):
        resolve_profile("no-such-profile", CartanType.parse("B3"))
    with pytest.raises(UnsupportedProfile):
        resolve_profile("D-bivar", CartanType.parse("A3"))


def test_multivariate_identities_small():
    for ident, n in (
        ("B-4var", 2), ("B-4var", 3), ("B-ooo", 2), ("B-eoo", 3),
        ("uni-ooe", 3), ("uni-eoe", 4), ("uni-eoo", 3),
        ("D-bivar", 3), ("D-oe", 3), ("B-nonfactor", 4),
    ):
        report = verify_multivariate(ident, n)
        assert report.ok, report.line()


@pytest.mark.parametrize("identity_id", sorted(_PROFILE_TABLE))
def test_closed_forms_match_the_engine_to_n8(identity_id):
    # verify stops the multivariate identities at n = 6; this reaches 8
    _, _, family, lo, hi = _PROFILE_TABLE[identity_id]
    for n in range(lo, (hi or 8) + 1):
        computed = signed_gf(CartanType(family, n), identity_id).poly
        assert predicted_multivariate(identity_id, n) == computed, (identity_id, n)


def test_suite_stops_multivariate_identities_at_max_n():
    names = [r.name for r in verification_suite(4, families=("D",))]
    assert "D-bivar n=4" in names and "D-bivar n=5" not in names
    assert "odd-length D4" in names and not any("F4" in n for n in names)


def test_trivially_zero_identities():
    assert predicted_multivariate("uni-eoo", 4).is_zero
    assert predicted_multivariate("D-oe", 3).is_zero
    assert predicted_multivariate("B-eoo", 3).is_zero  # odd n case


def test_stated_range_guard():
    with pytest.raises(OutOfStatedRange):
        predicted_multivariate("uni-ooe", 2)
    with pytest.raises(OutOfStatedRange):
        predicted_multivariate("D-bivar", 1)


def test_b4_counterexample_expansion():
    # four-variable distribution over the 384-element group against the
    # printed non-factoring expansion
    report = verify_multivariate("B-nonfactor", 4)
    assert report.ok
    vars4 = ("x1", "x2", "y", "z")
    one = Poly.const(1, vars4)
    x1, x2, y, z = (Poly.var(v, vars4) for v in vars4)
    expected = (
        (one - y**2)
        * (one - x1 * x2 * z**2)
        * (one + x1 * x2 * y**2 * z**2 - x1 * x2 * z**2 - x2 * y**2 * z**2
           + x1 * z**2 + x2 * y**2 - x1 - y**2)
    )
    assert report.computed == expected


def test_restriction_equalities_small():
    for name, profile, restriction in (
        ("A3", "odd-length", "unimodal"),
        ("A3", "odd-length", "chessboard"),
        ("D3", "D-bivar", "chessboard"),
        ("D3", "D-bivar", "good-chessboard"),
    ):
        report = verify_restriction(CartanType.parse(name), profile, restriction)
        assert report.ok, report.line()


def test_restricted_domains_match_window_oracle():
    # every restriction and profile a family allows, signed and unsigned:
    # the engine over the domain's levels against the window predicates
    groups = [CartanType("A", n) for n in range(1, 7)] + [
        CartanType("D", n) for n in range(2, 7)
    ]
    cases = [
        (ct, profile, restriction)
        for ct in groups
        for profile in PROFILES
        for restriction, families in RESTRICTIONS.items()
        if ct.family in families and _defined(profile, ct)
        and (str(ct) != "D6" or profile == "D-bivar")
    ]
    for ct, profile, restriction in cases:
        for unsigned in (False, True):
            res = signed_gf(ct, profile, restriction, unsigned=unsigned)
            oracle = _window_oracle(ct, profile, unsigned, restriction)
            assert (res.poly, res.elements) == oracle, (ct, profile, restriction, unsigned)
    assert {r for _, _, r in cases} == set(RESTRICTIONS)


def _defined(profile, ct):
    try:
        resolve_profile(profile, ct)
    except UnsupportedProfile:
        return False
    return True


def test_restricted_gf_makes_no_per_window_pass(monkeypatch):
    # a restricted domain reaches the engine as levels; nothing scores or
    # tests the windows of the whole group one at a time
    import oddlength.gf as gf

    cases = [
        (CartanType("D", 6), "D-bivar", "good-chessboard"),
        (CartanType("A", 7), "odd-length", "unimodal"),
    ]
    expected = [_window_oracle(ct, p, restriction=r) for ct, p, r in cases]

    def per_window(*args):
        raise AssertionError("per-window pass over the group")

    for name in ("atomic_stats", "is_unimodal", "is_chessboard", "is_good_chessboard"):
        monkeypatch.setattr(gf, name, per_window)
    for (ct, profile, restriction), want in zip(cases, expected):
        res = signed_gf(ct, profile, restriction)
        assert (res.poly, res.elements) == want


def test_restriction_rejected_for_wrong_family():
    with pytest.raises(UnsupportedProfile):
        signed_gf(CartanType.parse("B3"), "odd-length", "unimodal")
