"""Root system construction: counts, heights, reflection tables."""

import numpy as np
import pytest

from oddlength.cartan import (
    CartanType,
    build_root_system,
    cartan_matrix,
    group_order,
    positive_root_count,
    root_system,
)
from oddlength.errors import InvalidRank, Overflow
import oracle


def test_parse_and_str():
    assert str(CartanType.parse("b5")) == "B5"
    assert CartanType.parse("E8") == CartanType("E", 8)
    with pytest.raises(InvalidRank):
        CartanType.parse("H3")
    with pytest.raises(InvalidRank):
        CartanType.parse("B")


def test_rank_invariants():
    for bad in (("A", 0), ("D", 1), ("E", 5), ("E", 9), ("F", 3), ("G", 1), ("AB", 2), ("", 2)):
        with pytest.raises(InvalidRank):
            CartanType(*bad)
    # boundary cases that are fine
    for good in (("A", 1), ("B", 1), ("C", 1), ("D", 2), ("E", 6), ("F", 4), ("G", 2)):
        CartanType(*good)


def test_positive_root_counts():
    expected = {
        "A3": 6, "A7": 28, "B4": 16, "B8": 64, "C5": 25, "D4": 12, "D8": 56,
        "G2": 6, "F4": 24, "E6": 36, "E7": 63, "E8": 120,
    }
    for name, count in expected.items():
        ct = CartanType.parse(name)
        assert positive_root_count(ct) == count
        assert build_root_system(ct).size == count


def test_group_orders():
    assert group_order(CartanType("A", 4)) == 120
    assert group_order(CartanType("B", 8)) == 10321920
    assert group_order(CartanType("C", 8)) == 10321920
    assert group_order(CartanType("D", 8)) == 5160960
    assert group_order(CartanType("G", 2)) == 12
    assert group_order(CartanType("F", 4)) == 1152
    assert group_order(CartanType("E", 6)) == 51840
    assert group_order(CartanType("E", 7)) == 2903040
    assert group_order(CartanType("E", 8)) == 696729600


def test_heights_are_coordinate_sums_and_simples_first():
    for name in ("A4", "B4", "C4", "D4", "G2", "F4", "E6"):
        rs = build_root_system(CartanType.parse(name))
        for k, r in enumerate(rs.positive_roots):
            assert rs.heights[k] == sum(r)
            assert rs.odd_mask[k] == (rs.heights[k] % 2 == 1)
        assert sum(1 for h in rs.heights if h == 1) == rs.ctype.rank
        # canonical order puts all the simple roots first
        assert all(rs.heights[k] == 1 for k in range(rs.ctype.rank))


# classical height normalizations, stated over the e-basis embedding of the
# simple roots: e_{i+1}-e_i everywhere, plus e_1 (B), 2e_1 (C), e_1+e_2 (D)
def _e_vector(family: str, coords, n: int):
    vec = [0] * n
    def add(idx, c):
        vec[idx] += c
    for j, c in enumerate(coords):
        if family == "A":
            add(j + 1, c)
            add(j, -c)
        elif j > 0:
            add(j, c)
            add(j - 1, -c)
        elif family == "B":
            add(0, c)
        elif family == "C":
            add(0, 2 * c)
        else:
            add(0, c)
            add(1, c)
    return tuple(vec)


@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
def test_classical_heights_match_stated_formulas(family):
    rank = 5 if family != "A" else 4
    n = rank + 1 if family == "A" else rank
    rs = build_root_system(CartanType(family, rank))
    for k, coords in enumerate(rs.positive_roots):
        vec = _e_vector(family, coords, n)
        support = [(i, c) for i, c in enumerate(vec) if c]
        h = rs.heights[k]
        if len(support) == 2 and support[0][1] < 0:
            (i, _), (j, _) = support
            assert h == j - i  # e_j - e_i
        elif len(support) == 2:
            (i, _), (j, _) = support
            expected = {"B": i + j + 2, "C": i + j + 1, "D": i + j}[family]
            assert h == expected  # e_i + e_j, 1-based i+j then the type shift
        elif family == "B":
            assert h == support[0][0] + 1  # e_i
        else:
            assert family == "C" and h == 2 * support[0][0] + 1  # 2e_i


def test_reflection_tables_negate_own_simple_only():
    for name in ("A3", "B3", "C3", "D4", "G2", "F4"):
        rs = build_root_system(CartanType.parse(name))
        tables = rs.reflection_tables
        for j in range(rs.ctype.rank):
            table = tables[j]
            flipped = [k for k, (_, sign) in enumerate(table) if sign < 0]
            assert flipped == [rs.simple_root_index(j)]
            # involution: applying the table twice is the identity, signs cancel
            for k, (k2, sign) in enumerate(table):
                assert table[k2][0] == k
                assert sign * table[k2][1] == 1


def test_simple_root_index_points_at_unit_coordinates():
    rs = build_root_system(CartanType("D", 4))
    for j in range(4):
        coords = rs.positive_roots[rs.simple_root_index(j)]
        assert sum(coords) == 1 and coords[j] == 1


def test_odd_root_counts_frozen():
    # counts pinned from the closure construction; each equals the number of
    # exponent values >= h summed over odd h (checked independently)
    expected = {
        "A7": 16, "B8": 36, "D8": 32, "G2": 4,
        "F4": 14, "E6": 20, "E7": 35, "E8": 64,
    }
    for name, count in expected.items():
        rs = build_root_system(CartanType.parse(name))
        assert sum(rs.odd_mask) == count


def test_f4_height_histogram():
    rs = build_root_system(CartanType("F", 4))
    hist = {}
    for h in rs.heights:
        hist[h] = hist.get(h, 0) + 1
    assert hist == {1: 4, 2: 3, 3: 3, 4: 3, 5: 3, 6: 2, 7: 2, 8: 1, 9: 1, 10: 1, 11: 1}


def test_every_nonsimple_root_is_simple_plus_positive():
    for name in ("B4", "D4", "F4", "G2"):
        rs = build_root_system(CartanType.parse(name))
        have = set(rs.positive_roots)
        for k, r in enumerate(rs.positive_roots):
            if rs.heights[k] == 1:
                continue
            ok = False
            for j in range(rs.ctype.rank):
                lower = list(r)
                lower[j] -= 1
                if tuple(lower) in have:
                    ok = True
                    break
            assert ok, (name, r)


def test_cartan_matrix_shapes_and_diagonal():
    for name in ("A5", "B3", "C3", "D4", "E7", "F4", "G2"):
        ct = CartanType.parse(name)
        mat = cartan_matrix(ct)
        assert len(mat) == ct.rank
        for i, row in enumerate(mat):
            assert row[i] == 2
            assert all(v <= 0 for j, v in enumerate(row) if j != i)


def test_root_system_cache_returns_same_object():
    a = root_system(CartanType("B", 3))
    b = root_system(CartanType("B", 3))
    assert a is b


def test_canonical_order_is_deterministic():
    one = build_root_system(CartanType("E", 6))
    two = build_root_system(CartanType("E", 6))
    assert one.positive_roots == two.positive_roots
    seen = sorted(zip(one.heights, one.positive_roots))
    assert [r for _, r in seen] == list(one.positive_roots)


@pytest.mark.parametrize("name", ["A256", "B182", "D182"])
def test_root_systems_past_int16_indices_refused(name):
    # refused before the closure, which would run for minutes
    with pytest.raises(Overflow, match="32767"):
        build_root_system(CartanType.parse(name))


@pytest.mark.parametrize("name", oracle.UP_TO_RANK_8)
def test_roots_and_tables_equal_the_loop_oracle(name):
    ct = CartanType.parse(name)
    rs = build_root_system(ct)
    assert set(rs.positive_roots) == oracle.positive_roots(ct)
    tgt, neg = oracle.reflection_tables(rs)
    assert rs._refl_tgt.dtype == tgt.dtype and rs._refl_neg.dtype == neg.dtype
    assert (rs._refl_tgt == tgt).all() and (rs._refl_neg == neg).all()


def test_tables_are_exact_at_the_largest_admitted_a():
    # A65, 2,145 roots x 65^2, is just under the build budget; a mixed-radix
    # int64 code of its 65 0/1 coordinates would need 2^65 and wrap
    rs = build_root_system(CartanType.parse("A65"))
    roots = np.array(rs.positive_roots, dtype=np.int64)
    cmat = np.array(cartan_matrix(rs.ctype))
    for j in range(rs.rank):
        image = roots.copy()
        image[:, j] -= roots @ cmat[:, j]
        signs = 1 - 2 * rs._refl_neg[j].astype(np.int64)
        assert (roots[rs._refl_tgt[j]] * signs[:, None] == image).all(), j
