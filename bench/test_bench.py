"""Self-tests for the benchmark's own checks and tracer.

    python3 -m pytest -q bench

None of these import oddlength: the checks must stand apart from it.
"""

from __future__ import annotations

import json
import types

import checks
import run
from tracing import Tracer, patched


def x(*pairs) -> dict:
    """Univariate series from (exponent, coefficient) pairs."""
    return {(k,): c for k, c in pairs}


# ---------------------------------------------------------------------------
# the expander against products worked out by hand

def test_expand_small_products():
    one_minus = lambda k: x((0, 1), (k, -1))  # noqa: E731
    assert checks.expand([]) == x((0, 1))
    assert checks.expand([one_minus(1), x((0, 1), (1, 1))]) == x((0, 1), (2, -1))
    assert checks.expand([one_minus(1)] * 2) == x((0, 1), (1, -2), (2, 1))
    assert checks.expand([one_minus(1), one_minus(2)]) == x((0, 1), (1, -1), (2, -1), (3, 1))
    # (1 - xy)(1 + y) = 1 + y - xy - xy^2
    assert checks.expand([{(0, 0): 1, (1, 1): -1}, {(0, 0): 1, (0, 1): 1}], 2) == {
        (0, 0): 1, (0, 1): 1, (1, 1): -1, (1, 2): -1,
    }


def test_f4_product_is_the_enumerated_series():
    # README: 1 - 2x^2 + x^6 + x^8 - 2x^12 + x^14 = (1-x^2)^2 (1-x^4) (1-x^6)
    want = x((0, 1), (2, -2), (6, 1), (8, 1), (12, -2), (14, 1))
    assert checks.reference_product("F4", "odd-length") == want


def test_group_data_from_exponents():
    assert [checks.order(g) for g in ("A7", "B8", "D8", "F4", "E8")] == [
        40320, 10321920, 5160960, 1152, 696729600,
    ]
    assert [checks.positive_roots(g) for g in ("A7", "D8", "E7", "E8")] == [28, 56, 63, 120]
    assert [checks.odd_roots(g) for g in ("F4", "E8")] == [14, 64]


def test_references_have_the_required_properties():
    for group in ("A7", "B8", "D8", "F4", "E6", "E7", "E8"):
        assert checks.check_univariate(checks.reference_product(group, "odd-length"), group) == []
    for group, profile in (("B8", "B-4var"), ("D8", "D-bivar"), ("B5", "B-4var")):
        assert checks.check_vanishes(checks.reference_product(group, profile), group) == []


def test_brute_force_matches_the_product():
    for n in (1, 2, 3, 4):
        assert checks.brute_b4var(n) == checks.reference_product(f"B{n}", "B-4var")


# ---------------------------------------------------------------------------
# every check rejects one changed coefficient

def bumped(series: dict, expo, by: int = 1) -> dict:
    out = dict(series)
    out[expo] = out.get(expo, 0) + by
    return {e: c for e, c in out.items() if c}


def test_univariate_check_rejects_each_property():
    e6 = checks.reference_product("E6", "odd-length")
    problems = checks.check_univariate(bumped(e6, (2,)), "E6")
    assert any("x=1" in p for p in problems)
    assert any("palindromy" in p for p in problems)
    top = checks.odd_roots("E6")
    assert any("degree" in p for p in checks.check_univariate(bumped(e6, (top,), -e6[(top,)]), "E6"))
    assert any("degree" in p for p in checks.check_univariate(bumped(e6, (top + 1,)), "E6"))


def test_other_checks_reject_one_change():
    b4 = checks.reference_product("B8", "B-4var")
    some = next(iter(b4))
    assert checks.check_vanishes(bumped(b4, some), "B8") != []
    assert checks.check_equal(bumped(b4, some), b4, "B8") != []
    e8 = checks.load_e8_series()
    assert checks.check_equal(bumped(e8, (32,)), e8, "E8") != []
    assert checks.check_elements(checks.order("E7") + 1, "E7") != []
    assert checks.check_elements(checks.order("E7"), "E7") == []


class FakePoly:
    def __init__(self, terms: dict):
        self.terms = terms

    def dumps(self) -> str:
        return json.dumps(sorted(self.terms.items()))


def e8_results(resumed_terms: dict) -> dict:
    e8 = checks.load_e8_series()
    run_res = types.SimpleNamespace(
        poly=FakePoly(e8), elements=checks.order("E8"), parts_done=tuple(range(run.E8_PARTS))
    )
    resumed = types.SimpleNamespace(
        poly=FakePoly(resumed_terms), elements=run_res.elements, parts_done=run_res.parts_done
    )
    return {("E8", "run"): run_res, ("E8", "resume"): resumed}


def test_resume_must_be_byte_identical():
    e8 = checks.load_e8_series()
    assert run.check_round("exceptional", e8_results(e8), None) == []
    problems = run.check_round("exceptional", e8_results(bumped(e8, (10,))), None)
    assert any("byte-identical" in p for p in problems)


def verify_results(b4var_5: dict, exit_code: int = 0) -> dict:
    reports = [types.SimpleNamespace(name="B-4var n=5", ok=True, computed=FakePoly(b4var_5))]
    reports += [types.SimpleNamespace(name=f"filler {i}", ok=True) for i in range(37)]
    return {"B": run.VerifyRun(exit_code, "...\n38/38 identities hold\n", reports)}


def test_verify_checks_reject_a_changed_identity_or_exit_code():
    good = checks.reference_product("B5", "B-4var")
    assert run.check_round("verify-cli", verify_results(good), None) == []
    some = next(iter(good))
    assert run.check_round("verify-cli", verify_results(bumped(good, some)), None) != []
    assert run.check_round("verify-cli", verify_results(good, exit_code=1), None) != []


def test_identity_elements():
    assert run.identity_elements("odd-length B3") == 48
    assert run.identity_elements("odd-length A3 full = unimodal") == 48
    assert run.identity_elements("D-bivar D4 full = chessboard") == 384
    assert run.identity_elements("D-bivar n=4") == 192
    assert run.identity_elements("B-4var n=4") == 384


# ---------------------------------------------------------------------------
# tracer

def test_tracer_spans_counts_and_patching():
    tr = Tracer("t")
    ns = types.SimpleNamespace(f=lambda v: v + 1)
    with patched([(ns, "f", tr.counted("f", ns.f))]):
        with tr.span("outer"):
            with tr.span("inner", tag=1):
                assert ns.f(1) == 2 and ns.f(2) == 3
    assert ns.f(1) == 2 and tr.calls["f"] == 2
    outer, inner = tr.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert tr.total("inner", tag=1) > 0 and tr.total("inner", tag=2) == 0
