"""Group elements as signed root permutations, enumeration and the window
isomorphisms."""

import random
from collections import Counter

import numpy as np
import pytest

from oddlength.cartan import CartanType, build_root_system, root_system
from oddlength.errors import BudgetExceeded, InvalidWindow, SystemMismatch, TypeMismatch
from oddlength.weyl import (
    ConjugatedRootSystem,
    _sift,
    conjugate_simple_system,
    decimal_exponent,
    element_to_window,
    enumerate_group,
    identity,
    length_by_roots,
    multiply,
    odd_length_by_roots,
    simple_reflection,
    transversal_chain,
    window_to_element,
)
import oracle
from oracle import iter_group_windows


def test_identity_fixes_everything():
    for name in ("A2", "F4"):
        rs = root_system(CartanType.parse(name))
        e = identity(rs)
        assert length_by_roots(e) == 0
        assert odd_length_by_roots(e) == 0
        assert all(e.image(k) == (k, 1) for k in range(rs.size))


def test_simple_reflection_flips_own_root_only():
    rs = root_system(CartanType.parse("A2"))
    s0 = simple_reflection(rs, 0)
    flips = [k for k in range(rs.size) if s0.image(k)[1] < 0]
    assert flips == [rs.simple_root_index(0)]
    assert length_by_roots(s0) == 1
    assert odd_length_by_roots(s0) == 1
    assert s0.parity == 1


def test_simple_reflection_squares_to_identity():
    rs = root_system(CartanType.parse("B2"))
    for j in range(2):
        s = simple_reflection(rs, j)
        assert multiply(s, s) == identity(rs)


def test_multiply_is_associative_and_parity_is_homomorphism():
    rs = root_system(CartanType.parse("B3"))
    rng = random.Random(11)
    elements = list(enumerate_group(rs))
    for _ in range(200):
        u, v, w = (rng.choice(elements) for _ in range(3))
        assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))
        uv = multiply(u, v)
        assert uv.parity == (u.parity + v.parity) % 2
        assert length_by_roots(uv) % 2 == uv.parity


def test_length_against_word_construction():
    # random words: length computed from flipped roots never exceeds word
    # length and has the same parity
    rs = root_system(CartanType.parse("D4"))
    rng = random.Random(5)
    for _ in range(100):
        word = [rng.randrange(4) for _ in range(rng.randrange(12))]
        w = identity(rs)
        for j in word:
            w = multiply(simple_reflection(rs, j), w)
        assert length_by_roots(w) <= len(word)
        assert length_by_roots(w) % 2 == len(word) % 2


@pytest.mark.parametrize(
    "name,order",
    [("A2", 6), ("D2", 4), ("B3", 48), ("G2", 12), ("D4", 192), ("F4", 1152)],
)
def test_enumeration_count(name, order):
    rs = root_system(CartanType.parse(name))
    elements = list(enumerate_group(rs))
    assert len(elements) == order
    assert len(set(elements)) == order


def test_enumeration_length_multiset_a2():
    rs = root_system(CartanType.parse("A2"))
    lengths = sorted(length_by_roots(w) for w in enumerate_group(rs))
    assert lengths == [0, 1, 1, 2, 2, 3]


def test_enumeration_budget():
    rs = root_system(CartanType.parse("E8"))
    with pytest.raises(BudgetExceeded):
        list(enumerate_group(rs))


def test_transversal_chain_level_sizes():
    rs = root_system(CartanType.parse("F4"))
    chain = transversal_chain(rs)
    assert [len(level) for level in chain] == [24, 8, 3, 2]
    rs = root_system(CartanType.parse("D4"))
    chain = transversal_chain(rs)
    assert [len(level) for level in chain] == [8, 6, 2, 2]


@pytest.mark.parametrize("name", oracle.UP_TO_RANK_8)
def test_chain_equals_the_sifting_oracle(name):
    rs = build_root_system(CartanType.parse(name))
    chain, expected = transversal_chain(rs), oracle.transversal_chain(rs)
    assert [[u.key() for u in level] for level in chain] == [
        [u.key() for u in level] for level in expected
    ]
    for level, want in zip(chain, expected):
        for field in ("tgt", "neg", "parity"):
            got = np.array([getattr(u, field) for u in level])
            assert (got == np.array([getattr(u, field) for u in want])).all(), field


def test_chain_elements_are_rows_of_its_stack():
    rs = build_root_system(CartanType.parse("F4"))
    chain = transversal_chain(rs)
    stack = rs._chain_stack
    assert stack.ends.tolist() == [0, 24, 32, 35, 37]
    rows = [u for level in chain for u in level]
    assert all(np.shares_memory(u.tgt, stack.tgt) for u in rows)
    assert all(np.shares_memory(u.neg, stack.neg) for u in rows)
    assert [u.parity for u in rows] == stack.parity.tolist()
    assert transversal_chain(rs) is chain


def test_longest_element_flips_everything():
    for name in ("B3", "F4", "G2", "D4"):
        rs = root_system(CartanType.parse(name))
        best = max(enumerate_group(rs), key=length_by_roots)
        assert length_by_roots(best) == rs.size
        assert _sift(identity(rs), rs.rank, longest=True) == best
        assert odd_length_by_roots(best) == sum(rs.odd_mask)


# window notation round trips

@pytest.mark.parametrize(
    "name", ["A1", "B1", "C1", "D2", "A3", "B3", "C3", "D3", "D4", "A4", "C4"]
)
def test_window_round_trip(name):
    ct = CartanType.parse(name)
    rs = root_system(ct)
    windows = list(iter_group_windows(ct))
    assert len(windows) == len(set(windows))
    seen = set()
    for win in windows:
        w = window_to_element(rs, win)
        assert element_to_window(w) == win
        seen.add(w)
    assert len(seen) == len(windows)


def test_window_group_sizes():
    assert sum(1 for _ in iter_group_windows(CartanType.parse("A3"))) == 24
    assert sum(1 for _ in iter_group_windows(CartanType.parse("B4"))) == 384
    assert sum(1 for _ in iter_group_windows(CartanType.parse("D4"))) == 192


def test_window_validation():
    rs = root_system(CartanType.parse("D3"))
    with pytest.raises(InvalidWindow):
        window_to_element(rs, (1, 2, -3))  # odd number of signs
    rs = root_system(CartanType.parse("A2"))
    with pytest.raises(InvalidWindow):
        window_to_element(rs, (1, -2, 3))  # plain permutations only
    with pytest.raises(InvalidWindow):
        window_to_element(rs, (1, 1, 2))


@pytest.mark.parametrize("name", ["E6", "F4", "G2"])
def test_windows_refused_outside_classical_types(name):
    rs = root_system(CartanType.parse(name))
    with pytest.raises(TypeMismatch):
        window_to_element(rs, tuple(range(1, rs.rank + 1)))
    with pytest.raises(TypeMismatch):
        element_to_window(identity(rs))


def test_window_of_simple_reflections_type_b():
    rs = root_system(CartanType.parse("B3"))
    # generator 0 is the sign change in the first slot, generator i swaps
    # slots i and i+1
    assert element_to_window(simple_reflection(rs, 0)) == (-1, 2, 3)
    assert element_to_window(simple_reflection(rs, 1)) == (2, 1, 3)
    assert element_to_window(simple_reflection(rs, 2)) == (1, 3, 2)


def test_window_of_d_type_special_generator():
    rs = root_system(CartanType.parse("D4"))
    assert element_to_window(simple_reflection(rs, 0)) == (-2, -1, 3, 4)


@pytest.mark.parametrize("name", ["B3", "A4", "C4", "D4"])
def test_window_multiplication_is_composition(name):
    # window of u*v equals the composition of window maps
    ct = CartanType.parse(name)
    rs = root_system(ct)
    rng = random.Random(3)
    windows = list(iter_group_windows(ct))

    def act(win, i):
        v = win[abs(i) - 1]
        return -v if i < 0 else v

    for _ in range(60):
        a, b = rng.choice(windows), rng.choice(windows)
        u, v = window_to_element(rs, a), window_to_element(rs, b)
        composed = tuple(act(a, b[i]) for i in range(len(b)))
        assert element_to_window(multiply(u, v)) == composed


# conjugated simple systems

def test_conjugate_by_identity_is_noop():
    rs = root_system(CartanType.parse("A2"))
    conj = conjugate_simple_system(rs, identity(rs))
    assert isinstance(conj, ConjugatedRootSystem)
    for w in enumerate_group(rs):
        assert conj.length_of(w) == length_by_roots(w)
        assert conj.odd_length_of(w) == odd_length_by_roots(w)


def test_conjugate_preserves_height_multiset():
    rs = root_system(CartanType.parse("B3"))
    for w in list(enumerate_group(rs))[:10]:
        conj = conjugate_simple_system(rs, w)
        assert sorted(conj.heights) == sorted(rs.heights)


def test_conjugate_bivariate_distribution_invariant_a2():
    rs = root_system(CartanType.parse("A2"))
    base = Counter(
        (length_by_roots(w), odd_length_by_roots(w)) for w in enumerate_group(rs)
    )
    s0 = simple_reflection(rs, 0)
    conj = conjugate_simple_system(rs, s0)
    moved = Counter(
        (conj.length_of(w), conj.odd_length_of(w)) for w in enumerate_group(rs)
    )
    assert base == moved


def test_conjugated_system_rejects_foreign_elements():
    rs = root_system(CartanType.parse("A2"))
    other = root_system(CartanType.parse("B2"))
    conj = conjugate_simple_system(rs, identity(rs))
    with pytest.raises(SystemMismatch):
        conj.length_of(identity(other))


def test_decimal_exponent_counts_digits_without_str():
    # str() refuses ints past 4,300 digits; the bit-length estimate does not
    for k in (1, 2, 15, 18, 19, 63, 4299, 4300, 6337):
        for size, exponent in (10**k - 1, k - 1), (10**k, k), (2 * 10**k, k), (10**k * 10 - 1, k):
            assert decimal_exponent(size) == exponent, (k, size % 1000)
