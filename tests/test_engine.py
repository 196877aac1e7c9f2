"""Partitioned driver: part algebra, checkpoints, workers, budgets."""

import ctypes
import json
import os
import sys
import threading
from functools import reduce
from math import prod

import numpy as np
import pytest

from oddlength import engine, weyl
from oddlength.cartan import CartanType, build_root_system, group_order, root_system
from oddlength.engine import Checkpoint, odd_length_gf_by_roots, run_partitioned
from oddlength.errors import (
    BudgetExceeded,
    CheckpointCorrupt,
    CheckpointUnwritable,
    PartOutOfRange,
    UnsupportedProfile,
    WeightsTooLarge,
    WorkerFailure,
)
from oddlength.gf import (
    RESTRICTIONS, _domain_levels, _domain_shape, resolve_profile, root_weights, signed_gf,
)
from oddlength.poly import Poly
from oddlength.weyl import (
    _sift,
    enumerate_group,
    identity,
    length_by_roots,
    multiply,
    odd_length_by_roots,
    transversal_chain,
    window_to_element,
)

F4 = CartanType.parse("F4")
E6 = CartanType.parse("E6")
E7 = CartanType.parse("E7")
E8 = CartanType.parse("E8")


def _tally_of(engine_class, system, weights=None, levels=None):
    """tally(i, unsigned) of part i on one engine; the fold is built once
    per sign."""
    if engine_class is engine._Split:
        return engine._Split.build(system, weights, levels).part_coeffs
    folds = [engine._Fold.build(system, weights, levels, unsigned) for unsigned in (False, True)]
    return lambda i, unsigned=False: folds[unsigned].part_coeffs(i)


def test_partitioned_equals_direct():
    # the fold, through run_partitioned, against the kernel's part sums
    for ct in (F4, E6):
        assert run_partitioned(ct).poly == signed_gf(ct).poly
        assert run_partitioned(ct).poly == odd_length_gf_by_roots(root_system(ct))


def test_part_counts():
    assert run_partitioned(F4).n_parts == 24
    assert run_partitioned(CartanType.parse("D4")).n_parts == 8
    assert run_partitioned(E6).n_parts == 27


def test_workers_byte_identical():
    seq = run_partitioned(E6, workers=1).poly.dumps()
    par = run_partitioned(E6, workers=4).poly.dumps()
    assert seq == par
    d5 = CartanType.parse("D5")
    for unsigned in (False, True):
        seq = run_partitioned(d5, "D-bivar", unsigned=unsigned, workers=1).poly.dumps()
        par = run_partitioned(d5, "D-bivar", unsigned=unsigned, workers=4).poly.dumps()
        assert seq == par, unsigned


def test_disjoint_part_sums_merge():
    total = run_partitioned(F4).poly
    lo = run_partitioned(F4, parts=list(range(12))).poly
    hi = run_partitioned(F4, parts=list(range(12, 24))).poly
    assert lo + hi == total


def test_part_order_does_not_matter(tmp_path):
    fwd = run_partitioned(F4, parts=[0, 1, 2, 3]).poly.dumps()
    rev = run_partitioned(F4, parts=[3, 2, 0, 1]).poly.dumps()
    assert fwd == rev


def test_part_index_out_of_range():
    with pytest.raises(ValueError):
        run_partitioned(F4, parts=[0, 99])
    with pytest.raises(PartOutOfRange):
        run_partitioned(F4, parts=[-1])


def test_checkpoint_resume_completes(tmp_path):
    path = str(tmp_path / "f4.ckpt")
    first = run_partitioned(F4, checkpoint_path=path, parts=list(range(10)))
    assert first.parts_done == tuple(range(10))
    resumed = run_partitioned(F4, checkpoint_path=path, resume=True)
    assert resumed.parts_done == tuple(range(24))
    assert resumed.poly.dumps() == run_partitioned(F4).poly.dumps()


def test_resume_skips_finished_parts(tmp_path):
    path = str(tmp_path / "f4.ckpt")
    run_partitioned(F4, checkpoint_path=path, parts=[0, 1])
    before = json.load(open(path))
    again = run_partitioned(F4, checkpoint_path=path, resume=True, parts=[0, 1])
    after = json.load(open(path))
    assert before == after
    partial = run_partitioned(F4, parts=[0, 1]).poly
    assert again.poly == partial


def test_checkpoint_round_trip(tmp_path):
    path = str(tmp_path / "ck.json")
    run_partitioned(F4, checkpoint_path=path, parts=[3, 7])
    ck = Checkpoint.read(path, F4, "odd-length", 24)
    assert ck.done == {3, 7}
    assert ck.partial == run_partitioned(F4, parts=[3, 7]).poly


def test_checkpoint_tamper_detected(tmp_path):
    path = str(tmp_path / "ck.json")
    run_partitioned(F4, checkpoint_path=path, parts=[0])
    data = json.load(open(path))
    data["done"] = [0, 1]
    with open(path, "w") as fh:
        json.dump(data, fh)
    with pytest.raises(CheckpointCorrupt):
        Checkpoint.read(path, F4, "odd-length", 24)


def test_checkpoint_wrong_group_rejected(tmp_path):
    path = str(tmp_path / "ck.json")
    run_partitioned(F4, checkpoint_path=path, parts=[0])
    with pytest.raises(CheckpointCorrupt):
        Checkpoint.read(path, E6, "odd-length", 27)


def test_checkpoint_garbage_rejected(tmp_path):
    path = str(tmp_path / "ck.json")
    with open(path, "w") as fh:
        fh.write("not json {")
    with pytest.raises(CheckpointCorrupt):
        Checkpoint.read(path, F4, "odd-length", 24)


def test_unwritable_checkpoint_refused_before_any_part(tmp_path, monkeypatch):
    def no_build(system):
        raise AssertionError("engine built for a run that cannot checkpoint")

    monkeypatch.setattr(engine._Fold, "build", no_build)
    with pytest.raises(CheckpointUnwritable):
        run_partitioned(F4, checkpoint_path=str(tmp_path / "missing" / "f4.ckpt"))


def test_finished_resume_builds_nothing(tmp_path, monkeypatch):
    path = str(tmp_path / "e6.ckpt")
    full = run_partitioned(E6, checkpoint_path=path)

    def no_build(system):
        raise AssertionError("engine built with no part left to do")

    monkeypatch.setattr(engine._Fold, "build", no_build)
    again = run_partitioned(E6, checkpoint_path=path, resume=True)
    assert again.poly.dumps() == full.poly.dumps()
    assert again.parts_done == tuple(range(27))


class _Clock:
    """Stand-in for the engine's time module whose every reading is step
    seconds past the last, so write cadence does not hang on machine speed."""

    def __init__(self, step: float):
        self.now, self.step = 0.0, step

    def monotonic(self) -> float:
        self.now += self.step
        return self.now

    perf_counter = monotonic


def _recorded_writes(monkeypatch) -> list:
    """(done, partial) of every Checkpoint.write from now on."""
    writes = []
    write = Checkpoint.write

    def recorded(self, path):
        writes.append((sorted(self.done), self.partial))
        write(self, path)

    monkeypatch.setattr(Checkpoint, "write", recorded)
    return writes


def test_checkpoint_written_once_within_the_interval(tmp_path, monkeypatch):
    writes = _recorded_writes(monkeypatch)
    monkeypatch.setattr(engine, "time", _Clock(0.0))
    full = run_partitioned(E6, checkpoint_path=str(tmp_path / "e6.ckpt"))
    assert writes == [(list(range(27)), full.poly)]


def test_checkpoint_written_each_interval_and_at_the_end(tmp_path, monkeypatch):
    split = engine._Fold.build(root_system(E6))
    tallies = [split.part_coeffs(i) for i in range(27)]
    writes = _recorded_writes(monkeypatch)
    monkeypatch.setattr(engine, "time", _Clock(engine._CHECKPOINT_INTERVAL))
    path = str(tmp_path / "e6.ckpt")
    full = run_partitioned(E6, workers=2, checkpoint_path=path)
    # one write per merged part, one when the loop ends
    assert len(writes) == 27 + 1
    assert writes[-1] == (list(range(27)), full.poly)
    for done, partial in writes:
        assert partial == engine._coeffs_to_poly(sum(tallies[i] for i in done))
    assert Checkpoint.read(path, E6, "odd-length", 27).partial == full.poly



@pytest.mark.parametrize("disk_full", [False, True], ids=["saved", "disk-full"])
def test_interrupt_saves_merged_parts_and_keeps_its_error(tmp_path, monkeypatch, disk_full):
    split = engine._Fold.build(root_system(F4))
    real = engine._Fold.part_coeffs

    def interrupted(self, part_index):
        if part_index == 2:
            raise KeyboardInterrupt
        return real(self, part_index)

    def full(self, path):
        raise OSError("no space left on device")

    monkeypatch.setattr(engine._Fold, "part_coeffs", interrupted)
    if disk_full:
        monkeypatch.setattr(Checkpoint, "write", full)
    path = str(tmp_path / "f4.ckpt")
    with pytest.raises(KeyboardInterrupt):
        run_partitioned(F4, checkpoint_path=path)
    if not disk_full:
        saved = Checkpoint.read(path, F4, "odd-length", 24)
        assert saved.done == {0, 1}
        expect = sum(real(split, i) for i in saved.done)
        assert saved.partial == engine._coeffs_to_poly(expect)



class _InterruptedOnceAdded(np.ndarray):
    """A part tally whose addition into the running sum completes, and is
    then interrupted before the part is marked done."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, np.ndarray) else x for x in inputs]
        getattr(ufunc, method)(*plain, **kwargs)
        raise KeyboardInterrupt


def test_interrupt_inside_a_merge_writes_nothing_torn(tmp_path, monkeypatch):
    split = engine._Fold.build(root_system(F4))
    real = engine._Fold.part_coeffs

    def interrupted(self, part_index):
        coeffs = real(self, part_index)
        return coeffs.view(_InterruptedOnceAdded) if part_index == 1 else coeffs

    monkeypatch.setattr(engine._Fold, "part_coeffs", interrupted)
    monkeypatch.setattr(engine, "time", _Clock(engine._CHECKPOINT_INTERVAL))
    path = str(tmp_path / "f4.ckpt")
    with pytest.raises(KeyboardInterrupt):
        run_partitioned(F4, checkpoint_path=path)
    # part 1 reached the tally but not done: the file keeps part 0 alone
    saved = Checkpoint.read(path, F4, "odd-length", 24)
    assert saved.done == {0}
    assert saved.partial == engine._coeffs_to_poly(split.part_coeffs(0))


# ---------------------------------------------------------------------------
# w0 mirror pairs and the sign-coded kernel


def _longest(system, levels):
    """Product of the last elements of the levels of a parabolic chain."""
    return reduce(multiply, [level[-1] for level in levels], identity(system))


def _mirrors(system):
    """For each part q of the whole group's chain, the index of the part
    holding w0 q: w0 q W_J has the minimal representative w0 q w0_J."""
    chain = transversal_chain(system)
    w0_j = _longest(system, chain[1:])
    w0 = multiply(chain[0][-1], w0_j)
    index = {q.key(): i for i, q in enumerate(chain[0])}
    return [index[multiply(multiply(w0, q), w0_j).key()] for q in chain[0]]


def _assert_pairs_mirror(system, tally, mirror, indices):
    # w0 negates every positive root: code(w0 w) = K - 1 - code(w), and
    # length(w0 w) = N - length(w)
    sign = (-1) ** system.size
    for i in indices:
        m = mirror[i]
        assert mirror[m] == i
        assert np.array_equal(tally(m), sign * tally(i)[::-1])
        assert np.array_equal(tally(m, True), tally(i, True)[::-1])


_ENGINES = (engine._Fold, engine._Split)


def test_mirror_pairs_e6_e7():
    # every part is computed directly; its w0 mirror's tally is its reverse
    e6, e7 = root_system(E6), root_system(E7)
    e6_mirror, e7_mirror = _mirrors(e6), _mirrors(e7)
    assert len([i for i, m in enumerate(e6_mirror) if m == i]) == 3
    assert all(m != i for i, m in enumerate(e7_mirror))
    for engine_class in _ENGINES:
        _assert_pairs_mirror(e6, _tally_of(engine_class, e6), e6_mirror, range(27))
        _assert_pairs_mirror(e7, _tally_of(engine_class, e7), e7_mirror, range(56))


def test_mirror_pair_e8():
    e8 = root_system(E8)
    mirror = _mirrors(e8)
    assert all(m != i for i, m in enumerate(mirror))
    assert len(set(mirror)) == 240
    for engine_class in _ENGINES:
        _assert_pairs_mirror(e8, _tally_of(engine_class, e8), mirror, [0])


# tallies of single parts, computed before the suffix states replaced the
# full suffix matrix; a resume adds new tallies to old partial sums, so a
# part's tally must never move
_PINNED_PARTS = {
    ("E8", 0): (
        [1, 0, -1, -1, -1, 0, 0, 1, 1, 2, 2, 1, -1, -2, -2, -3, -2, -1, 1, 2, 3, 2, 2, 1,
         -1, -2, -2, -1, -1, 0, 0, 1, 1, 1, 0, -1] + [0] * 29,
        [1, 26, 181, 845, 2389, 5964, 12212, 25227, 36359, 52526, 77204, 100325, 131883,
         160008, 186424, 208861, 220318, 230767, 230767, 220318, 208861, 186424, 160008,
         131883, 100325, 77204, 52526, 36359, 25227, 12212, 5964, 2389, 845, 181, 26, 1]
        + [0] * 29,
    ),
    ("E8", 239): (
        [0] * 29
        + [-1, 0, 1, 1, 1, 0, 0, -1, -1, -2, -2, -1, 1, 2, 2, 3, 2, 1, -1, -2, -3, -2, -2,
           -1, 1, 2, 2, 1, 1, 0, 0, -1, -1, -1, 0, 1],
        [0] * 29
        + [1, 26, 181, 845, 2389, 5964, 12212, 25227, 36359, 52526, 77204, 100325, 131883,
           160008, 186424, 208861, 220318, 230767, 230767, 220318, 208861, 186424, 160008,
           131883, 100325, 77204, 52526, 36359, 25227, 12212, 5964, 2389, 845, 181, 26, 1],
    ),
    ("E7", 0): (
        [1, 0, -1, 0, -1, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, -1, 0, -1, 0, 1] + [0] * 15,
        [1, 22, 99, 464, 839, 2136, 2808, 5260, 4984, 6518, 5578, 6518, 4984, 5260, 2808,
         2136, 839, 464, 99, 22, 1] + [0] * 15,
    ),
}


@pytest.mark.parametrize("group, part", list(_PINNED_PARTS), ids=str)
def test_part_tallies_are_pinned(group, part):
    signed, unsigned = _PINNED_PARTS[group, part]
    for engine_class in _ENGINES:
        tally = _tally_of(engine_class, root_system(CartanType.parse(group)))
        assert tally(part).tolist() == signed, engine_class
        assert tally(part, True).tolist() == unsigned, engine_class


_SMALL_TYPES = (
    [f"{f}{r}" for f in "ABC" for r in range(1, 7)]
    + [f"D{r}" for r in range(2, 7)]
    + ["G2", "F4", "E6", "E7", "E8"]
)


@pytest.mark.parametrize("name", _SMALL_TYPES)
def test_chain_product_is_the_longest_element(name):
    system = root_system(CartanType.parse(name))
    chain = transversal_chain(system)
    r = system.rank
    assert _longest(system, chain) == _sift(identity(system), r, longest=True)
    assert _longest(system, chain[1:]) == _sift(identity(system), r - 1, longest=True)


def _domain(name, profile="odd-length", restriction="full"):
    """System, root weights, levels and element count of a domain."""
    ct = CartanType.parse(name)
    system = root_system(ct)
    weights, _ = root_weights(resolve_profile(profile, ct), system)
    windows = _domain_levels(restriction, ct)
    if windows is None:
        return system, weights, None, group_order(ct)
    levels = [[window_to_element(system, w) for w in level] for level in windows]
    return system, weights, levels, prod(map(len, levels))


@pytest.mark.parametrize("domain", [
    ("F4",), ("E6",), ("E7",), ("E8",),
    ("B5", "B-4var"), ("D5", "D-bivar"), ("A5", "odd-length", "unimodal"),
], ids=" ".join)
def test_states_count_every_suffix_once(domain):
    system, weights, levels, size = _domain(*domain)
    split = engine._Split.build(system, weights, levels)
    assert split.unsigned.min() >= 1
    assert len(np.unique(split.states, axis=0)) == len(split.states)
    # parts x prefix rows x suffixes is the whole domain
    assert split.unsigned.sum() * len(split.pparity) * len(split.parts) == size


def test_e8_states_are_fewer_than_its_suffixes():
    split = engine._Split.build(root_system(E8))
    assert split.unsigned.sum() == 1920
    assert len(split.states) < 1920


@pytest.mark.parametrize("domain", [
    ("F4",), ("E6",), ("B5", "B-4var"), ("D5", "D-bivar"), ("D2", "D-oe"),
    ("A5", "odd-length", "unimodal"),
], ids=" ".join)
def test_state_weights_count_suffixes_by_parity(domain):
    # every suffix product, stacked apart from the build: its row over the
    # roots the prefix rows read, its constant and K, then its parity
    system, weights, levels, _ = _domain(*domain)
    split = engine._Split.build(system, weights, levels)
    chain = levels or transversal_chain(system)
    sizes = [len(level) for level in chain[1:]]
    cut = min(range(len(sizes) + 1), key=lambda c: max(prod(sizes[:c]), prod(sizes[c:])))
    assert prod(sizes[:cut]) == len(split.pparity)
    ptgt, pneg, _ = engine._stacked(chain[1:cut + 1], np.arange(system.size))
    qneg = np.bitwise_or.reduce([q.neg for q in chain[0]])
    read = np.flatnonzero((pneg | qneg[ptgt]).any(axis=0))
    cols = np.flatnonzero(weights)
    tgt, flags, parity = engine._stacked(chain[cut + 1:], cols)
    c = weights[cols]
    dense = np.zeros((len(parity), system.size), dtype=np.int64)
    dense[np.arange(len(parity))[:, None], tgt] = np.where(flags, -c, c)
    expect = {}
    for row, const, odd in zip(dense[:, read], flags @ c, parity):
        even_odd = expect.setdefault((*row.tolist(), int(const), split.k), [0, 0])
        even_odd[odd] += 1
    got = {
        tuple(int(v) for v in row): [int(w), int(u)]
        for row, w, u in zip(split.states, split.signed, split.unsigned)
    }
    assert got == {key: [even - odd, even + odd] for key, (even, odd) in expect.items()}


@pytest.mark.parametrize("name, profile, most", [("B8", "B-4var", 64), ("D10", "D-bivar", 256)])
def test_signed_states_cancel_by_parity(name, profile, most):
    # B8 keeps 64 of its 160 states for signed runs, D10 256 of its 1,984
    ct = CartanType.parse(name)
    system = root_system(ct)
    split = engine._Split.build(system, root_weights(resolve_profile(profile, ct), system)[0])
    assert np.count_nonzero(split.signed) <= most < len(split.states)


def test_kernel_with_no_live_signed_state():
    # on D2 every D-oe suffix cancels against one of the other parity
    system, weights, _, _ = _domain("D2", "D-oe")
    split = engine._Split.build(system, weights)
    assert not split.signed.any()
    # such a part is the zero tally, read from no prefix row and no product
    split.ptgt = split.pneg = None
    assert split.part_coeffs(0).tolist() == [0] * split.k
    d2 = CartanType.parse("D2")
    assert run_partitioned(d2, "D-oe").poly == Poly.zero(("x", "y"))
    assert run_partitioned(d2, "D-oe", unsigned=True).poly.eval_int((1, 1)) == 4


_ONE_VARIABLE = ("odd-length", "uni-ooe", "uni-eoe", "uni-eoo")
_MORE_PROFILES = {"B5": ("B-4var",), "D5": ("D-bivar",)}


@pytest.mark.parametrize("name", [name for name in _SMALL_TYPES if name != "E8"])
def test_fold_equals_kernel_part_by_part(name):
    ct = CartanType.parse(name)
    system = root_system(ct)
    profiles = _ONE_VARIABLE if ct.family == "B" else _ONE_VARIABLE[:1]
    for profile in profiles + _MORE_PROFILES.get(name, ()):
        weights, _ = root_weights(resolve_profile(profile, ct), system)
        fold = _tally_of(engine._Fold, system, weights)
        split = engine._Split.build(system, weights)
        for i in range(len(split.parts)):
            for unsigned in (False, True):
                assert np.array_equal(
                    fold(i, unsigned), split.part_coeffs(i, unsigned)
                ), (profile, i, unsigned)


def test_e8_folds_to_few_states():
    system = root_system(E8)
    signed, unsigned = (engine._Fold.build(system, unsigned=u) for u in (False, True))
    # signs cancel all but 2 states; unsigned entries count every element
    # of a part, 696,729,600 / 240, over 72 states
    assert len(signed.states) == 2
    assert len(unsigned.states) == 72
    assert unsigned.value.sum() == 2903040


@pytest.mark.parametrize("unsigned", [False, True], ids=["signed", "unsigned"])
def test_restricted_folds_match_window_oracle(monkeypatch, unsigned):
    from oracle import RESTRICTION_PREDICATES, gf_by_windows

    def no_build(*args, **kwargs):
        raise AssertionError("a restricted run built the kernel")

    monkeypatch.setattr(engine._Split, "build", no_build)
    groups = [f"A{n}" for n in range(1, 8)] + [f"D{n}" for n in range(2, 7)]
    for ct in map(CartanType.parse, groups):
        for restriction in ("unimodal", "chessboard", "good-chessboard"):
            if ct.family not in RESTRICTIONS[restriction]:
                continue
            res = run_partitioned(ct, restriction=restriction, unsigned=unsigned)
            expect = gf_by_windows(ct, resolve_profile("odd-length", ct),
                                   RESTRICTION_PREDICATES[restriction], unsigned)
            assert (res.poly, res.elements) == expect, (ct, restriction)


@pytest.mark.parametrize("name, profile, restriction", [
    ("E6", "odd-length", "full"),
    ("B4", "uni-eoe", "full"),
    ("A4", "odd-length", "unimodal"),
    ("B5", "B-4var", "full"),
    ("D5", "D-bivar", "full"),
    ("D5", "D-bivar", "good-chessboard"),
])
@pytest.mark.parametrize("unsigned", [False, True], ids=["signed", "unsigned"])
def test_every_run_builds_only_the_fold(monkeypatch, name, profile, restriction, unsigned):
    ct = CartanType.parse(name)
    expect = run_partitioned(ct, profile, restriction, unsigned=unsigned).poly
    built = []
    real = engine._Fold.build.__func__

    def watched(cls, system, weights, levels, unsigned):
        built.append(unsigned)
        return real(cls, system, weights, levels, unsigned)

    def no_build(*args, **kwargs):
        raise AssertionError("_Split built")

    monkeypatch.setattr(engine._Fold, "build", classmethod(watched))
    monkeypatch.setattr(engine._Split, "build", no_build)
    assert run_partitioned(ct, profile, restriction, unsigned=unsigned).poly == expect
    assert built == [unsigned]


@pytest.mark.parametrize("name, restriction", [
    ("A6", "unimodal"), ("A7", "chessboard"), ("D6", "chessboard"), ("D7", "good-chessboard"),
])
def test_domain_shape_counts_the_window_levels(name, restriction):
    ct = CartanType.parse(name)
    assert _domain_shape(restriction, ct) == list(map(len, _domain_levels(restriction, ct)))


@pytest.mark.parametrize("name, profile, restriction", [
    ("A11", "odd-length", "unimodal"),  # 2,048 of A11's 479,001,600 elements
    ("D10", "D-bivar", "chessboard"),  # 14,745,600 of 1,857,945,600
])
def test_budget_counts_the_domain_a_run_enumerates(name, profile, restriction):
    ct = CartanType.parse(name)
    with pytest.raises(BudgetExceeded):
        run_partitioned(ct, profile)
    plain = run_partitioned(ct, profile, restriction).poly.dumps()
    assert plain == run_partitioned(ct, profile, restriction, allow_large=True).poly.dumps()


def test_restricted_domain_past_the_budget_refused_before_any_window(monkeypatch):
    def no_windows(*args):
        raise AssertionError("windows built for a domain past the budget")

    monkeypatch.setattr(engine, "_domain_levels", no_windows)
    with pytest.raises(BudgetExceeded, match="chessboard domain of D12 has 2123366400 elements"):
        run_partitioned(CartanType.parse("D12"), restriction="chessboard")


def test_domain_past_int64_refused_before_any_build(monkeypatch):
    def no_system(ctype):
        raise AssertionError("root system built for a domain int64 cannot count")

    monkeypatch.setattr(engine, "root_system", no_system)
    with pytest.raises(BudgetExceeded, match="past 2\\^63"):
        run_partitioned(CartanType.parse("B17"), allow_large=True)


def test_fold_refuses_a_level_past_its_memory_cap(monkeypatch):
    monkeypatch.setattr(engine, "_MEMORY_BYTES", 1 << 12)
    with pytest.raises(BudgetExceeded, match="at one level"):
        run_partitioned(CartanType.parse("B6"))


def test_fold_refuses_part_shifts_past_its_memory_cap(monkeypatch):
    # D6 D-bivar chessboard: every level and its product stay under 12,000
    # bytes (10,272 at most), the part shifts and their float64 copies take
    # 61,824
    d6 = CartanType.parse("D6")
    monkeypatch.setattr(engine, "_MEMORY_BYTES", 12_000)
    with pytest.raises(BudgetExceeded, match="the part shifts of D6 takes 7728 x 8 bytes"):
        run_partitioned(d6, "D-bivar", "chessboard")
    monkeypatch.setattr(engine, "_MEMORY_BYTES", 7728 * 8)
    under = run_partitioned(d6, "D-bivar", "chessboard").poly.dumps()
    monkeypatch.undo()
    assert under == run_partitioned(d6, "D-bivar", "chessboard").poly.dumps()


def test_fold_reads_the_chain_stacked_once(monkeypatch):
    sizes = []
    real = weyl._stack

    def counted(tgt, neg, level_sizes):
        sizes.append(list(level_sizes))
        return real(tgt, neg, level_sizes)

    monkeypatch.setattr(weyl, "_stack", counted)
    system = build_root_system(F4)  # uncached: no chain yet
    first, again = engine._Fold.build(system), engine._Fold.build(system)
    assert sizes == [[24, 8, 3, 2]]
    assert first.part_coeffs(5).tolist() == again.part_coeffs(5).tolist()
    # a restricted run stacks its own levels, once
    run_partitioned(CartanType.parse("A5"), restriction="chessboard")
    assert sizes == [[24, 8, 3, 2], [2, 6, 6]]


def _done_checkpoint(path, terms):
    """A checkpoint of E6 odd length marking every part done, holding terms."""
    n_parts = len(transversal_chain(root_system(E6))[0])
    ck = Checkpoint(E6, "odd-length", n_parts)
    ck.done, ck.partial = set(range(n_parts)), Poly(("x",), terms)
    ck.write(str(path))


@pytest.mark.parametrize("terms", [
    {(0,): 1},                   # not 0 at x = 1
    {(0,): 1, (21,): -1},        # degree 21, past E6's 20 odd-height roots
], ids=["at-1", "degree"])
def test_done_resume_checks_its_series(tmp_path, terms):
    path = tmp_path / "e6.ckpt"
    _done_checkpoint(path, terms)
    with pytest.raises(CheckpointCorrupt, match="marks every part done"):
        run_partitioned(E6, checkpoint_path=str(path), resume=True)


def test_done_resume_of_a_true_series_prints_it(tmp_path):
    path = tmp_path / "e6.ckpt"
    full = signed_gf(E6).poly
    _done_checkpoint(path, full.terms)
    assert full.total_degree() <= sum(root_system(E6).odd_mask) == 20
    assert run_partitioned(E6, checkpoint_path=str(path), resume=True).poly == full


def _no_stacking(monkeypatch):
    def refuse(*args):
        raise AssertionError("stacked a kernel table")

    monkeypatch.setattr(engine, "_stacked", refuse)


def _d_bivar_kernel(rank):
    ct = CartanType.parse(f"D{rank}")
    system = root_system(ct)
    return engine._Split.build(system, root_weights(resolve_profile("D-bivar", ct), system)[0])


def test_kernel_refuses_a_table_past_its_memory_cap(monkeypatch):
    # D13 D-bivar would stack 3,041,280 prefix rows over 156 roots
    _no_stacking(monkeypatch)
    with pytest.raises(BudgetExceeded, match="kernel's prefix table on D13 takes 3041280 x 158"):
        _d_bivar_kernel(13)


def test_kernel_stacks_a_table_under_its_memory_cap(monkeypatch):
    # D12 D-bivar's prefix table, 126,720 rows over 132 roots, is under the cap
    _no_stacking(monkeypatch)
    with pytest.raises(AssertionError, match="stacked a kernel table"):
        _d_bivar_kernel(12)


def _brute_force(ct, unsigned):
    coeffs = {}
    for w in enumerate_group(root_system(ct)):
        k = odd_length_by_roots(w)
        sign = 1 if unsigned or length_by_roots(w) % 2 == 0 else -1
        coeffs[(k,)] = coeffs.get((k,), 0) + sign
    return Poly(("x",), coeffs)


@pytest.mark.parametrize("ct", [F4, E6], ids=str)
def test_by_roots_equals_brute_force(ct):
    system = root_system(ct)
    for unsigned in (False, True):
        assert odd_length_gf_by_roots(system, unsigned=unsigned) == _brute_force(ct, unsigned)
    assert odd_length_gf_by_roots(system, unsigned=True).eval_int((1,)) == group_order(ct)


def test_subset_with_one_pair_member():
    # a part and its w0 mirror are computed apart, one without the other
    split = engine._Split.build(root_system(E6))
    mirror = _mirrors(root_system(E6))
    i = next(i for i, m in enumerate(mirror) if m != i)
    fixed = next(i for i, m in enumerate(mirror) if m == i)
    for subset in ([i], [mirror[i]], [i, fixed], [i, mirror[i], fixed]):
        expect = engine._coeffs_to_poly(sum(split.part_coeffs(j) for j in subset))
        assert run_partitioned(E6, parts=subset).poly == expect
        assert run_partitioned(E6, parts=subset, workers=2).poly == expect
    # the same on a profile in several variables, held to the kernel
    d5 = CartanType.parse("D5")
    resolved = resolve_profile("D-bivar", d5)
    system = root_system(d5)
    weights, dims = root_weights(resolved, system)
    split = engine._Split.build(system, weights)
    mirror = _mirrors(system)
    i = next(i for i, m in enumerate(mirror) if m != i)
    fixed = next(i for i, m in enumerate(mirror) if m == i)
    for subset in ([i], [mirror[i]], [i, fixed], [i, mirror[i], fixed]):
        for unsigned in (False, True):
            tally = sum(split.part_coeffs(j, unsigned) for j in subset)
            expect = engine._coeffs_to_poly(tally, dims, resolved.vars)
            run = run_partitioned(d5, "D-bivar", parts=subset, unsigned=unsigned, workers=2)
            assert run.poly == expect, (subset, unsigned)


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_part_is_retried_then_fails(monkeypatch, workers):
    calls = []

    def fail(self, part_index):
        calls.append(part_index)
        raise RuntimeError("injected")

    monkeypatch.setattr(engine._Fold, "part_coeffs", fail)
    for ct, profile, unsigned in (F4, "odd-length", False), *(
        (CartanType.parse("B5"), "B-4var", unsigned) for unsigned in (False, True)
    ):
        calls.clear()
        with pytest.raises(WorkerFailure, match="part 0 failed repeatedly: injected"):
            run_partitioned(ct, profile, workers=workers, parts=[0], unsigned=unsigned)
        assert calls == [0, 0, 0]


@pytest.mark.parametrize("name, profile", [
    ("E6", "odd-length"), ("B5", "B-4var"), ("D5", "D-bivar"),
])
@pytest.mark.parametrize("unsigned", [False, True], ids=["signed", "unsigned"])
def test_threads_need_no_fork(monkeypatch, name, profile, unsigned):
    # workers is accepted and selects nothing: no process, thread, thread
    # pool or BLAS handle, and no kernel
    ct = CartanType.parse(name)
    alone = run_partitioned(ct, profile, unsigned=unsigned).poly

    def refuse(*args, **kwargs):
        raise AssertionError("a run with workers reached for more than the fold")

    for owner, attr in (os, "fork"), (threading.Thread, "start"), (ctypes, "CDLL"), (
        engine._Split, "build"
    ):
        monkeypatch.setattr(owner, attr, refuse)
    monkeypatch.setitem(sys.modules, "concurrent.futures", None)  # import fails
    pooled = run_partitioned(ct, profile, unsigned=unsigned, workers=4).poly
    assert pooled.dumps() == alone.dumps()
    if unsigned:
        assert pooled.eval_int((1,) * len(pooled.vars)) == group_order(ct)


def test_large_group_needs_opt_in():
    with pytest.raises(BudgetExceeded):
        run_partitioned(CartanType.parse("E8"))


def test_profile_restricted_to_odd_length():
    with pytest.raises(UnsupportedProfile):
        run_partitioned(F4, profile="B-4var")


@pytest.mark.parametrize("kwargs", [
    {"unsigned": True},
    {"profile": "D-bivar", "restriction": "good-chessboard"},
], ids=["unsigned", "restricted"])
def test_checkpoint_refused_for_runs_it_cannot_record(tmp_path, monkeypatch, kwargs):
    def no_build(*args, **kw):
        raise AssertionError("a part was started for a run that cannot be checkpointed")

    for engine_class in (engine._Fold, engine._Split):
        monkeypatch.setattr(engine_class, "build", no_build)
    path = tmp_path / "run.ckpt"
    ct = CartanType.parse("D5") if "restriction" in kwargs else F4
    with pytest.raises(UnsupportedProfile):
        run_partitioned(ct, checkpoint_path=str(path), **kwargs)
    assert list(tmp_path.iterdir()) == []


def test_full_e8_polynomial():
    res = run_partitioned(CartanType.parse("E8"), workers=4, allow_large=True)
    expect = {
        0: 1, 2: -1, 4: -1, 8: -1, 10: 2, 12: 1, 14: 1, 16: 1, 18: -1,
        20: -1, 22: -2, 24: -3, 28: 1, 30: 1, 32: 4, 34: 1, 36: 1,
        40: -3, 42: -2, 44: -1, 46: -1, 48: 1, 50: 1, 52: 1, 54: 2,
        56: -1, 60: -1, 62: -1, 64: 1,
    }
    assert {e[0]: c for e, c in res.poly.terms.items()} == expect
    assert res.poly.eval_int((1,)) == 0


def test_oversized_weights_refused_before_the_build(monkeypatch):
    def no_chain(system):
        raise AssertionError("chain walked for weights that cannot be exact")

    monkeypatch.setattr(engine, "transversal_chain", no_chain)
    system = root_system(CartanType.parse("B3"))
    weights = np.zeros(system.size, dtype=np.int64)
    weights[0] = 1 << 22
    with pytest.raises(WeightsTooLarge):
        engine._Split.build(system, weights)


# partial checkpoints and full series written while w0 mirror pairs were
# computed as one job: E6 with two pairs and a fixed part done, B5 B-4var
# (then on the kernel) with parts 0, 3 and 4; resumed, each must give the
# bytes of the run that wrote it
_OLDER_CHECKPOINTS = {
    ("E6", "odd-length"): (
        '{"ctype":"E6","profile":"odd-length","n_parts":27,"done":[0,3,12,23,26],"partial":{"va'
        'rs":["x"],"terms":[{"e":[0],"c":1},{"e":[2],"c":-3},{"e":[3],"c":1},{"e":[4],"c":1},{"'
        'e":[6],"c":2},{"e":[7],"c":-2},{"e":[8],"c":-2},{"e":[9],"c":1},{"e":[10],"c":2},{"e":'
        '[11],"c":1},{"e":[12],"c":-2},{"e":[13],"c":-2},{"e":[14],"c":2},{"e":[16],"c":1},{"e"'
        ':[17],"c":1},{"e":[18],"c":-3},{"e":[20],"c":1}]},"hash":"48d6b189c84f932bf554d0fdf686'
        'ef75f1f22776092078d6b3636efda7cec895"}',
        '{"vars":["x"],"terms":[{"e":[0],"c":1},{"e":[2],"c":-1},{"e":[4],"c":-1},{"e":[10],"c"'
        ':2},{"e":[16],"c":-1},{"e":[18],"c":-1},{"e":[20],"c":1}]}',
    ),
    ("B5", "B-4var"): (
        '{"ctype":"B5","profile":"B-4var","n_parts":10,"done":[0,3,4],"partial":{"vars":["x1","'
        'x2","y","z"],"terms":[{"e":[0,0,0,0],"c":1},{"e":[0,0,2,0],"c":-2},{"e":[0,0,3,0],"c":'
        '1},{"e":[0,0,5,0],"c":-1},{"e":[0,0,6,0],"c":1},{"e":[1,0,1,1],"c":-1},{"e":[1,0,2,0],'
        '"c":1},{"e":[1,0,3,1],"c":1},{"e":[1,0,4,0],"c":-1},{"e":[1,1,0,0],"c":-1},{"e":[1,1,0'
        ',2],"c":-1},{"e":[1,1,2,0],"c":2},{"e":[1,1,2,2],"c":2},{"e":[1,1,2,3],"c":-1},{"e":[1'
        ',1,3,0],"c":-1},{"e":[1,1,3,1],"c":1},{"e":[1,1,3,3],"c":1},{"e":[1,1,4,0],"c":-1},{"e'
        '":[1,1,4,2],"c":-1},{"e":[1,1,4,3],"c":1},{"e":[1,1,5,0],"c":1},{"e":[1,1,5,1],"c":-1}'
        ',{"e":[1,1,5,3],"c":-1},{"e":[2,1,0,4],"c":1},{"e":[2,1,1,3],"c":-1},{"e":[2,1,2,4],"c'
        '":-1},{"e":[2,1,3,3],"c":1},{"e":[2,2,0,2],"c":1},{"e":[2,2,2,2],"c":-2},{"e":[2,2,2,3'
        '],"c":1},{"e":[2,2,2,4],"c":-1},{"e":[2,2,4,2],"c":1},{"e":[2,2,4,3],"c":-1},{"e":[2,2'
        ',4,4],"c":1}]},"hash":"052ea53804cba18d7291ad4fe8e959dcb43f1fe238e80198a3122457ee38d9b'
        '6"}',
        '{"vars":["x1","x2","y","z"],"terms":[{"e":[0,0,0,0],"c":1},{"e":[0,0,2,0],"c":-1},{"e"'
        ':[0,0,4,0],"c":-1},{"e":[0,0,6,0],"c":1},{"e":[1,0,0,2],"c":-1},{"e":[1,0,2,2],"c":1},'
        '{"e":[1,0,4,2],"c":1},{"e":[1,0,6,2],"c":-1},{"e":[1,1,0,0],"c":-1},{"e":[1,1,0,2],"c"'
        ':-1},{"e":[1,1,2,0],"c":1},{"e":[1,1,2,2],"c":1},{"e":[1,1,4,0],"c":1},{"e":[1,1,4,2],'
        '"c":1},{"e":[1,1,6,0],"c":-1},{"e":[1,1,6,2],"c":-1},{"e":[2,1,0,2],"c":1},{"e":[2,1,0'
        ',4],"c":1},{"e":[2,1,2,2],"c":-1},{"e":[2,1,2,4],"c":-1},{"e":[2,1,4,2],"c":-1},{"e":['
        '2,1,4,4],"c":-1},{"e":[2,1,6,2],"c":1},{"e":[2,1,6,4],"c":1},{"e":[2,2,0,2],"c":1},{"e'
        '":[2,2,2,2],"c":-1},{"e":[2,2,4,2],"c":-1},{"e":[2,2,6,2],"c":1},{"e":[3,2,0,4],"c":-1'
        '},{"e":[3,2,2,4],"c":1},{"e":[3,2,4,4],"c":1},{"e":[3,2,6,4],"c":-1}]}',
    ),
}


@pytest.mark.parametrize("name, profile", list(_OLDER_CHECKPOINTS), ids=" ".join)
def test_older_checkpoint_resumes_to_the_same_bytes(tmp_path, name, profile):
    text, full = _OLDER_CHECKPOINTS[name, profile]
    path = tmp_path / "older.ckpt"
    path.write_text(text)
    res = run_partitioned(CartanType.parse(name), profile, checkpoint_path=str(path), resume=True)
    assert res.parts_done == tuple(range(res.n_parts))
    assert res.poly.dumps() == full


def test_failed_checkpoint_write_leaves_no_file(tmp_path, monkeypatch):
    def no_rename(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", no_rename)
    with pytest.raises(OSError, match="rename refused"):
        run_partitioned(F4, checkpoint_path=str(tmp_path / "f4.ckpt"))
    assert list(tmp_path.iterdir()) == []


def test_multivariate_checkpoint_resume(tmp_path):
    b5 = CartanType.parse("B5")
    path = str(tmp_path / "b5.ckpt")
    first = run_partitioned(b5, "B-4var", checkpoint_path=path, parts=[0, 3, 4])
    assert first.poly.vars == ("x1", "x2", "y", "z")
    resumed = run_partitioned(b5, "B-4var", checkpoint_path=path, resume=True)
    assert resumed.parts_done == tuple(range(10))
    one_shot = run_partitioned(b5, "B-4var").poly.dumps()
    assert resumed.poly.dumps() == one_shot == signed_gf(b5, "B-4var").poly.dumps()
    with pytest.raises(CheckpointCorrupt):
        Checkpoint.read(path, b5, "B-ooo", 10)
