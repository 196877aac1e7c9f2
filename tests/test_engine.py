"""Partitioned driver: part algebra, checkpoints, workers, budgets."""

import json
import os
import signal

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
    WorkerFailure,
)
from oddlength.gf import signed_gf
from oddlength.poly import Poly
from oddlength.weyl import enumerate_group, length_by_roots, odd_length_by_roots

F4 = CartanType.parse("F4")
E6 = CartanType.parse("E6")
E7 = CartanType.parse("E7")
E8 = CartanType.parse("E8")


def test_partitioned_equals_direct():
    for ct in (F4, E6):
        assert run_partitioned(ct).poly == signed_gf(ct).poly


def test_part_counts():
    assert run_partitioned(F4).n_parts == 24
    assert run_partitioned(CartanType.parse("D4")).n_parts == 8
    assert run_partitioned(E6).n_parts == 27


def test_workers_byte_identical():
    seq = run_partitioned(E6, workers=1).poly.dumps()
    par = run_partitioned(E6, workers=4).poly.dumps()
    assert seq == par


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
        raise AssertionError("split built for a run that cannot checkpoint")

    monkeypatch.setattr(engine._Split, "build", no_build)
    with pytest.raises(CheckpointUnwritable):
        run_partitioned(F4, checkpoint_path=str(tmp_path / "missing" / "f4.ckpt"))


def test_finished_resume_builds_nothing(tmp_path, monkeypatch):
    path = str(tmp_path / "e6.ckpt")
    full = run_partitioned(E6, checkpoint_path=path)

    def no_build(system):
        raise AssertionError("split built with no part left to do")

    monkeypatch.setattr(engine._Split, "build", no_build)
    again = run_partitioned(E6, checkpoint_path=path, resume=True)
    assert again.poly.dumps() == full.poly.dumps()
    assert again.parts_done == tuple(range(27))


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


def test_mirror_pairs_e6_e7():
    e6 = engine._Split.build(root_system(E6))
    fixed = [i for i, m in enumerate(e6.mirror) if m == i]
    assert len(fixed) == 3
    _assert_pairs_mirror(e6, range(27))
    e7 = engine._Split.build(root_system(E7))
    assert all(m != i for i, m in enumerate(e7.mirror))
    _assert_pairs_mirror(e7, range(56))


def test_mirror_pair_e8():
    e8 = engine._Split.build(root_system(E8))
    assert all(m != i for i, m in enumerate(e8.mirror))
    assert len(set(e8.mirror)) == 240
    _assert_pairs_mirror(e8, [0])


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


def test_dead_worker_raises_worker_failure(monkeypatch):
    def die(self, part_index, unsigned=False):
        os._exit(1)

    def hung(signum, frame):
        raise TimeoutError("run_partitioned hung after a worker died")

    monkeypatch.setattr(engine._Split, "part_coeffs", die)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        with pytest.raises(WorkerFailure):
            run_partitioned(E6, workers=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_failing_part_is_retried_then_fails(monkeypatch):
    def fail(self, part_index, unsigned=False):
        raise RuntimeError("injected")

    monkeypatch.setattr(engine._Split, "part_coeffs", fail)
    with pytest.raises(WorkerFailure, match="failed repeatedly"):
        run_partitioned(F4, workers=2, parts=[0])


def test_large_group_needs_opt_in():
    with pytest.raises(BudgetExceeded):
        run_partitioned(CartanType.parse("E8"))


def test_profile_restricted_to_odd_length():
    with pytest.raises(UnsupportedProfile):
        run_partitioned(F4, profile="B-4var")


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
