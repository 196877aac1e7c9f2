"""Partitioned driver: part algebra, checkpoints, workers, budgets."""

import json
import os
import threading
from math import prod

import numpy as np
import pytest

from oddlength import engine
from oddlength.cartan import CartanType, group_order, root_system
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
    odd_length_by_roots,
    transversal_chain,
    window_to_element,
)

F4 = CartanType.parse("F4")
E6 = CartanType.parse("E6")
E7 = CartanType.parse("E7")
E8 = CartanType.parse("E8")
B8 = CartanType.parse("B8")


def _b8_kernel():
    """B8 B-4var on the kernel: 16 parts in 8 mirror jobs."""
    system = root_system(B8)
    return engine._Split.build(system, root_weights(resolve_profile("B-4var", B8), system)[0])


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
    # a kernel profile, whose parts run on the threads
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
    # one write per merged job, one when the loop ends
    assert len(writes) == len(split.pairs(range(27))) + 1
    assert writes[-1] == (list(range(27)), full.poly)
    for done, partial in writes:
        assert partial == engine._coeffs_to_poly(sum(tallies[i] for i in done))
    assert Checkpoint.read(path, E6, "odd-length", 27).partial == full.poly



@pytest.mark.parametrize("disk_full", [False, True], ids=["saved", "disk-full"])
def test_interrupt_saves_merged_parts_and_keeps_its_error(tmp_path, monkeypatch, disk_full):
    split = engine._Fold.build(root_system(F4))
    real = engine._Fold.part_coeffs

    def interrupted(self, part_index, unsigned=False):
        if part_index == 2:
            raise KeyboardInterrupt
        return real(self, part_index, unsigned)

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
        assert saved.done == {0, split.mirror[0], 1, split.mirror[1]}
        expect = sum(real(split, i) for i in saved.done)
        assert saved.partial == engine._coeffs_to_poly(expect)



def test_interrupt_inside_a_merge_writes_nothing_torn(tmp_path, monkeypatch):
    split = engine._Fold.build(root_system(F4))
    calls = []
    real = engine._Fold.mirrored

    def interrupted(self, coeffs, unsigned=False):
        # the second pair is stopped after its first part reached the tally
        calls.append(1)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return real(self, coeffs, unsigned)

    monkeypatch.setattr(engine._Fold, "mirrored", interrupted)
    monkeypatch.setattr(engine, "time", _Clock(engine._CHECKPOINT_INTERVAL))
    path = str(tmp_path / "f4.ckpt")
    with pytest.raises(KeyboardInterrupt):
        run_partitioned(F4, checkpoint_path=path)
    saved = Checkpoint.read(path, F4, "odd-length", 24)
    assert saved.done == {0, split.mirror[0]}
    expect = split.part_coeffs(0) + split.part_coeffs(split.mirror[0])
    assert saved.partial == engine._coeffs_to_poly(expect)


# ---------------------------------------------------------------------------
# w0 mirror pairs and the sign-coded kernel


def _assert_pairs_mirror(split, indices):
    for i in indices:
        m = split.mirror[i]
        assert split.mirror[m] == i
        direct_i = split.part_coeffs(i)
        direct_m = split.part_coeffs(m)
        assert np.array_equal(direct_m, split.mirrored(direct_i))
        assert np.array_equal(direct_i, split.mirrored(direct_m))
        unsigned_i = split.part_coeffs(i, unsigned=True)
        assert np.array_equal(split.part_coeffs(m, unsigned=True), unsigned_i[::-1])


_ENGINES = (engine._Fold, engine._Split)


def test_mirror_pairs_e6_e7():
    for engine_class in _ENGINES:
        e6 = engine_class.build(root_system(E6))
        fixed = [i for i, m in enumerate(e6.mirror) if m == i]
        assert len(fixed) == 3
        _assert_pairs_mirror(e6, range(27))
        e7 = engine_class.build(root_system(E7))
        assert all(m != i for i, m in enumerate(e7.mirror))
        _assert_pairs_mirror(e7, range(56))


def test_mirror_pair_e8():
    for engine_class in _ENGINES:
        e8 = engine_class.build(root_system(E8))
        assert all(m != i for i, m in enumerate(e8.mirror))
        assert len(set(e8.mirror)) == 240
        _assert_pairs_mirror(e8, [0])


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
        split = engine_class.build(root_system(CartanType.parse(group)))
        assert split.part_coeffs(part).tolist() == signed, engine_class
        assert split.part_coeffs(part, unsigned=True).tolist() == unsigned, engine_class


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
    assert engine._longest(system, chain) == _sift(identity(system), r, longest=True)
    assert engine._longest(system, chain[1:]) == _sift(identity(system), r - 1, longest=True)


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


@pytest.mark.parametrize("name", [name for name in _SMALL_TYPES if name != "E8"])
def test_fold_equals_kernel_part_by_part(name):
    ct = CartanType.parse(name)
    system = root_system(ct)
    profiles = _ONE_VARIABLE if ct.family == "B" else _ONE_VARIABLE[:1]
    for profile in profiles:
        weights, dims = root_weights(resolve_profile(profile, ct), system)
        assert len(dims) == 1
        fold = engine._Fold.build(system, weights)
        split = engine._Split.build(system, weights)
        assert (fold.mirror, fold.k) == (split.mirror, split.k)
        for i in range(len(split.parts)):
            for unsigned in (False, True):
                assert np.array_equal(
                    fold.part_coeffs(i, unsigned), split.part_coeffs(i, unsigned)
                ), (profile, i, unsigned)


def test_e8_folds_to_few_states():
    fold = engine._Fold.build(root_system(E8))
    assert len(fold.states) == 72
    # every state's tally counts its elements: 696,729,600 / 240 parts
    assert fold.tallies.sum() == 2903040


@pytest.mark.parametrize("unsigned", [False, True], ids=["signed", "unsigned"])
def test_restricted_folds_match_window_oracle(monkeypatch, unsigned):
    from oracle import RESTRICTION_PREDICATES, gf_by_windows

    def no_build(*args, **kwargs):
        raise AssertionError("a one-variable run built the kernel")

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


@pytest.mark.parametrize("name, profile, restriction, unused", [
    ("E6", "odd-length", "full", "_Split"),
    ("B4", "uni-eoe", "full", "_Split"),
    ("A4", "odd-length", "unimodal", "_Split"),
    ("B5", "B-4var", "full", "_Fold"),
    ("D5", "D-bivar", "full", "_Fold"),
    ("D5", "D-bivar", "good-chessboard", "_Fold"),
])
@pytest.mark.parametrize("unsigned", [False, True], ids=["signed", "unsigned"])
def test_runs_route_by_variable_count(monkeypatch, name, profile, restriction, unused, unsigned):
    ct = CartanType.parse(name)
    expect = run_partitioned(ct, profile, restriction, unsigned=unsigned).poly

    def no_build(*args, **kwargs):
        raise AssertionError(f"{unused} built")

    monkeypatch.setattr(getattr(engine, unused), "build", no_build)
    assert run_partitioned(ct, profile, restriction, unsigned=unsigned).poly == expect


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


def _no_stacking(monkeypatch):
    def refuse(*args):
        raise AssertionError("stacked a kernel table")

    monkeypatch.setattr(engine, "_stacked", refuse)


def test_kernel_refuses_a_table_past_its_memory_cap(monkeypatch):
    # D13 D-bivar would stack 3,041,280 prefix rows over 156 roots
    _no_stacking(monkeypatch)
    d13 = CartanType.parse("D13")
    with pytest.raises(BudgetExceeded, match="kernel's prefix table on D13 takes 3041280 x 158"):
        run_partitioned(d13, "D-bivar", allow_large=True, parts=[0])


def test_kernel_stacks_a_table_under_its_memory_cap(monkeypatch):
    # D12 D-bivar's prefix table, 126,720 rows over 132 roots, is under the cap
    _no_stacking(monkeypatch)
    with pytest.raises(AssertionError, match="stacked a kernel table"):
        run_partitioned(CartanType.parse("D12"), "D-bivar", allow_large=True, parts=[0])


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
    split = engine._Split.build(root_system(E6))
    i = next(i for i, m in enumerate(split.mirror) if m != i)
    fixed = next(i for i, m in enumerate(split.mirror) if m == i)
    for subset in ([i], [split.mirror[i]], [i, fixed], [i, split.mirror[i], fixed]):
        expect = engine._coeffs_to_poly(sum(split.part_coeffs(j) for j in subset))
        assert run_partitioned(E6, parts=subset).poly == expect
        assert run_partitioned(E6, parts=subset, workers=2).poly == expect
    # the same on a kernel profile, whose parts run on the threads
    d5 = CartanType.parse("D5")
    resolved = resolve_profile("D-bivar", d5)
    system = root_system(d5)
    weights, dims = root_weights(resolved, system)
    split = engine._Split.build(system, weights)
    i = next(i for i, m in enumerate(split.mirror) if m != i)
    fixed = next(i for i, m in enumerate(split.mirror) if m == i)
    for subset in ([i], [split.mirror[i]], [i, fixed], [i, split.mirror[i], fixed]):
        for unsigned in (False, True):
            tally = sum(split.part_coeffs(j, unsigned) for j in subset)
            expect = engine._coeffs_to_poly(tally, dims, resolved.vars)
            run = run_partitioned(d5, "D-bivar", parts=subset, unsigned=unsigned, workers=2)
            assert run.poly == expect, (subset, unsigned)


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_part_is_retried_then_fails(monkeypatch, workers):
    calls = []

    def fail(self, part_index, unsigned=False):
        calls.append(part_index)
        raise RuntimeError("injected")

    monkeypatch.setattr(engine._Fold, "part_coeffs", fail)
    with pytest.raises(WorkerFailure, match="part 0 failed repeatedly: injected"):
        run_partitioned(F4, workers=workers, parts=[0])
    assert calls == [0, 0, 0]
    # a kernel part, on a thread when workers > 1
    monkeypatch.setattr(engine._Split, "part_coeffs", fail)
    for unsigned in (False, True):
        calls.clear()
        with pytest.raises(WorkerFailure, match="part 0 failed repeatedly: injected"):
            run_partitioned(
                CartanType.parse("B5"), "B-4var", workers=workers, parts=[0], unsigned=unsigned
            )
        assert calls == [0, 0, 0]


def test_failing_part_cancels_the_parts_still_pending(monkeypatch):
    jobs = len(_b8_kernel().pairs(range(16)))
    assert jobs == 8
    calls = []
    real = engine._Split.part_coeffs

    def flaky(self, part_index, unsigned=False):
        calls.append(part_index)
        if part_index == 0:
            raise RuntimeError("injected")
        return real(self, part_index, unsigned)

    monkeypatch.setattr(engine._Split, "part_coeffs", flaky)
    with pytest.raises(WorkerFailure):
        run_partitioned(B8, "B-4var", workers=2)
    # three tries of part 0 and the few parts the other thread had started,
    # fewer calls than the jobs of a whole run
    assert calls.count(0) == 3
    assert len(calls) < jobs


@pytest.mark.parametrize("name, profile", [
    ("E6", "odd-length"), ("B5", "B-4var"), ("D5", "D-bivar"),
])
@pytest.mark.parametrize("unsigned", [False, True], ids=["signed", "unsigned"])
def test_threads_need_no_fork(monkeypatch, name, profile, unsigned):
    ct = CartanType.parse(name)
    alone = run_partitioned(ct, profile, unsigned=unsigned).poly.dumps()

    def no_fork():
        raise AssertionError("a run forked")

    monkeypatch.setattr(os, "fork", no_fork)
    threaded = run_partitioned(ct, profile, unsigned=unsigned, workers=2)
    assert threaded.poly.dumps() == alone


@pytest.mark.parametrize("fails", [False, True], ids=["finished", "failed"])
def test_blas_thread_count_is_restored(monkeypatch, fails):
    blas = engine._blas_threads()
    if blas is None:
        pytest.skip("numpy has no bundled OpenBLAS thread setter")
    get, put = blas
    seen = []
    real = engine._Split.part_coeffs

    def watched(self, part_index, unsigned=False):
        seen.append(get())
        if fails:
            raise RuntimeError("injected")
        return real(self, part_index, unsigned)

    monkeypatch.setattr(engine._Split, "part_coeffs", watched)
    before = get()
    put(2)  # a count the run must change and give back, also on one core
    try:
        if fails:
            with pytest.raises(WorkerFailure):
                run_partitioned(B8, "B-4var", workers=2)
        else:
            run_partitioned(B8, "B-4var", workers=2)
        assert get() == 2
    finally:
        put(before)
    assert seen and set(seen) == {1}


def test_folded_run_starts_no_thread_and_leaves_blas(monkeypatch):
    blas = engine._blas_threads()
    get, put = blas or (lambda: None, lambda n: None)
    seen = []
    real = engine._Fold.part_coeffs

    def watched(self, part_index, unsigned=False):
        seen.append((threading.current_thread(), threading.active_count(), get()))
        return real(self, part_index, unsigned)

    monkeypatch.setattr(engine._Fold, "part_coeffs", watched)
    before = get()
    put(2)
    try:
        baseline = threading.active_count()
        res = run_partitioned(F4, workers=4)
        assert get() == (2 if blas else None)
    finally:
        put(before)
    assert seen and set(seen) == {(threading.current_thread(), baseline, 2 if blas else None)}
    assert res.poly.dumps() == run_partitioned(F4).poly.dumps()


def test_threads_started_at_most_one_per_job(monkeypatch):
    jobs = len(_b8_kernel().pairs(range(16)))
    assert jobs == 8
    alive = []
    real = engine._Split.part_coeffs

    def counted(self, part_index, unsigned=False):
        alive.append(threading.active_count())
        return real(self, part_index, unsigned)

    monkeypatch.setattr(engine._Split, "part_coeffs", counted)
    baseline = threading.active_count()
    res = run_partitioned(B8, "B-4var", workers=64)
    assert max(alive) - baseline <= jobs
    assert threading.active_count() == baseline
    assert res.poly.dumps() == run_partitioned(B8, "B-4var").poly.dumps()


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


@pytest.mark.parametrize("name, profile", [
    ("E6", "odd-length"), ("B5", "B-4var"), ("D5", "D-bivar"),
])
def test_unsigned_pool_equals_one_process(name, profile):
    ct = CartanType.parse(name)
    alone = run_partitioned(ct, profile, unsigned=True)
    pooled = run_partitioned(ct, profile, unsigned=True, workers=2)
    assert pooled.poly.dumps() == alone.poly.dumps()
    assert alone.poly.eval_int((1,) * len(alone.poly.vars)) == group_order(ct)


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
