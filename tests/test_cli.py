"""Command line behavior: output shapes and exit codes."""

import json
import os
import re
import time

import pytest

from oddlength import cli, engine, errors
from oddlength.cartan import CartanType, root_system
from oddlength.cli import main
from oddlength.engine import run_partitioned
from oddlength.gf import _domain_levels, resolve_profile, root_weights, signed_gf
from oddlength.poly import Poly
from oddlength.weyl import enumerate_group, window_to_element

A2_GOLDEN = '{"vars":["x"],"terms":[{"e":[0],"c":1},{"e":[2],"c":-1}]}'
F4 = CartanType.parse("F4")
B8 = CartanType.parse("B8")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gf_json_golden(capsys):
    code, out, _ = run(capsys, "gf", "--type", "A2", "--json")
    assert code == 0
    assert out.strip() == A2_GOLDEN


def test_family_rank_spelling(capsys):
    code, out, _ = run(capsys, "gf", "--family", "A", "--rank", "2", "--json")
    assert code == 0
    assert out.strip() == A2_GOLDEN


def test_type_flags_conflict(capsys):
    code, _, _ = run(capsys, "gf", "--type", "A2", "--family", "A", "--rank", "2")
    assert code == 2
    code, _, _ = run(capsys, "gf")
    assert code == 2
    # one rule for every subcommand: --rank needs --family
    for command in ("roots", "gf", "verify"):
        code, out, err = run(capsys, command, "--rank", "2")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"oddlength {command}: error: --rank needs --family"
    code, out, err = run(capsys, "roots", "--family", "AB", "--rank", "2")
    assert (code, out, err) == (2, "", "error: cannot parse Cartan type from 'AB2'\n")


def test_roots_json(capsys):
    code, out, _ = run(capsys, "roots", "--type", "G2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "G2"
    assert payload["count"] == 6
    assert sorted(r["height"] for r in payload["positive_roots"]) == [1, 1, 2, 3, 4, 5]
    assert sum(r["odd"] for r in payload["positive_roots"]) == 4


def test_roots_text(capsys):
    code, out, _ = run(capsys, "roots", "--type", "B2")
    assert code == 0
    assert "4 positive roots, 3 of odd height" in out


def test_stats_worked_example(capsys):
    code, out, _ = run(
        capsys, "stats", "--type", "B5", "--window", "3,-1,-4,-2,5", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    s = payload["stats"]
    assert s["inv"] == 5 and s["neg"] == 3 and s["nsp"] == 4
    assert s["L_B"] == 6 and s["L_C"] == 8 and s["len_B"] == 12
    assert s["L_A"] == 3 and s["L_D"] == 5 and s["len_D"] == 9
    assert s["L_ooe"] == 6 and s["L_eoe"] == 7 and s["L_eoo"] == 7
    assert s["L_oe"] == 5


def test_stats_text_lists_every_statistic(capsys):
    code, out, _ = run(capsys, "stats", "--type", "B3", "--window", "2,-3,1")
    assert code == 0
    for name in ("inv", "oneg", "ensp", "L_B", "len_D", "chessboard="):
        assert name in out


def test_stats_window_validation(capsys):
    # negative entry in type A
    assert run(capsys, "stats", "--type", "A3", "--window", "2,-3,1")[0] == 2
    # odd sign count in type D
    assert run(capsys, "stats", "--type", "D3", "--window", "2,-3,1")[0] == 2
    # wrong window size
    assert run(capsys, "stats", "--type", "B4", "--window", "2,-3,1")[0] == 2
    # not in window notation at all
    assert run(capsys, "stats", "--type", "F4", "--window", "1,2,3,4")[0] == 2


def test_verify_single_type_passes(capsys):
    code, out, _ = run(capsys, "verify", "--type", "C4")
    assert code == 0
    assert out.startswith("pass")
    assert "1/1 identities hold" in out


def test_verify_printed_form_fails(capsys):
    code, out, _ = run(capsys, "verify", "--type", "C4", "--printed-form")
    assert code == 1
    assert "FAIL" in out
    assert "difference:" in out
    assert "1/2 identities hold" in out


def test_verify_f4_reports_mismatch(capsys):
    code, out, _ = run(capsys, "verify", "--type", "F4")
    assert code == 1
    assert "difference:" in out


def test_verify_family_suite(capsys):
    code, out, _ = run(capsys, "verify", "--type", "B", "--max-n", "3")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("pass", "FAIL"))]
    assert lines and all(ln.startswith("pass") for ln in lines)


# identity counts the benchmark's verify-cli workload asserts at --max-n 7
@pytest.mark.parametrize("family, count", [("A", 16), ("B", 38), ("C", 6), ("D", 26)])
def test_verify_family_counts_at_max_n_7(capsys, family, count):
    code, out, _ = run(capsys, "verify", "--type", family, "--max-n", "7")
    assert code == 0
    assert out.splitlines()[-1] == f"{count}/{count} identities hold"


@pytest.mark.parametrize("name", ["A256", "B182"])
def test_roots_past_int16_indices_exit_3(capsys, name):
    start = time.perf_counter()
    code, out, err = run(capsys, "roots", "--type", name)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith(f"error: {name} has ") and err.count("\n") == 1
    assert "32767" in err


def test_roots_past_the_build_budget_exit_3(capsys):
    # A255 fits int16 indices, but its closure would run for minutes
    start = time.perf_counter()
    code, out, err = run(capsys, "roots", "--type", "A255")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("error: A255 has 32640 positive roots") and err.count("\n") == 1


def test_verify_no_prediction_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--type", "G2")
    assert code == 2
    assert "error:" in err


def test_verify_bad_rank(capsys):
    assert run(capsys, "verify", "--type", "E9")[0] == 2


def test_gf_large_group_needs_flag(capsys):
    code, _, err = run(capsys, "gf", "--type", "E8", "--json")
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("call", [
    lambda: cli.main(["gf", "--type", "E8"]),
    lambda: signed_gf(CartanType.parse("E8")),
    lambda: run_partitioned(CartanType.parse("E8")),
    lambda: enumerate_group(root_system(CartanType.parse("E8"))),
], ids=["cli", "signed_gf", "run_partitioned", "enumerate_group"])
def test_one_budget_message_names_the_opt_in(capsys, call):
    try:
        code = call()
    except errors.BudgetExceeded as exc:
        message, code = f"error: {exc}\n", exc.exit_code
    else:
        message = capsys.readouterr().err
    assert code == 3
    assert message == (
        "error: E8 has 696729600 elements, past the element budget 100000000;"
        " opt in with gf --allow-large (allow_large=True in run_partitioned)\n"
    )


def test_gf_restricted_domain_past_the_budget_exits_3_at_once(capsys):
    # counted from the window level lengths, before any window is built
    start = time.perf_counter()
    code, out, err = run(capsys, "gf", "--type", "D12", "--restrict", "chessboard")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err == (
        "error: the chessboard domain of D12 has 2123366400 elements, past the element"
        " budget 100000000; opt in with gf --allow-large (allow_large=True in run_partitioned)\n"
    )


def test_gf_restriction_undefined_on_the_type_before_the_budget(capsys):
    # E8 is past the budget, but a unimodal domain is defined on type A only
    code, out, err = run(capsys, "gf", "--type", "E8", "--restrict", "unimodal")
    assert code == 2 and out == ""
    assert "not defined on family E" in err and err.count("\n") == 1


def test_gf_fold_past_its_memory_cap_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(engine, "_MEMORY_BYTES", 1 << 12)
    code, out, err = run(capsys, "gf", "--type", "D6", "--profile", "D-bivar", "--json")
    assert code == 3 and out == ""
    assert err.startswith("error: folding D6 at one level takes ") and err.count("\n") == 1


def test_gf_part_shifts_past_the_memory_cap_exit_3(capsys, monkeypatch):
    # the levels of D6 D-bivar chessboard pass a 12,000-byte cap, its part
    # shifts do not
    monkeypatch.setattr(engine, "_MEMORY_BYTES", 12_000)
    code, out, err = run(capsys, "gf", "--type", "D6", "--profile", "D-bivar",
                         "--restrict", "chessboard", "--json")
    assert (code, out) == (3, "")
    assert err.startswith("error: the part shifts of D6 takes ") and err.count("\n") == 1


@pytest.mark.parametrize("name", ["A3000000", "A99999999999999999999"])
def test_orders_far_past_the_budget_refused_before_any_factorial(capsys, name):
    # 3,000,001! takes seconds to build, and math.factorial refuses the
    # second rank outright; both are refused on a logarithm
    start = time.perf_counter()
    code, out, err = run(capsys, "gf", "--type", name)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {name} has about 10^") and err.count("\n") == 1


def test_gf_done_resume_with_no_signed_series_exit_3(capsys, tmp_path):
    f4_parts = 24
    ck = engine.Checkpoint(F4, "odd-length", f4_parts)
    ck.done, ck.partial = set(range(f4_parts)), Poly(("x",), {(0,): 1})
    path = str(tmp_path / "f4.ckpt")
    ck.write(path)
    code, out, err = run(capsys, "gf", "--type", "F4", "--checkpoint", path, "--resume")
    assert (code, out) == (3, "")
    assert "marks every part done" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("gf", "--type", "B1424"), ("gf", "--type", "B1424", "--allow-large"),
    ("verify", "--type", "B2000"),
], ids=" ".join)
def test_ranks_past_4300_digit_orders_exit_3(capsys, argv):
    # |W(B1424)| has 4,302 digits: str() of it raises, its bit length does not
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert re.match(r"error: B\d+(:| has) .*about 10\^\d+ elements", err) and err.count("\n") == 1


@pytest.mark.parametrize("name", ["B300", "C240"])
def test_verify_past_the_budget_stops_before_expanding(capsys, name):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--type", name)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith(f"error: {name} has about 10^") and err.count("\n") == 1
    assert "element budget" in err


@pytest.mark.parametrize("name, window", [
    ("B3", "1,2"),  # too short
    ("B4", "2,-3,1"),
    ("B3", "1,1,2"),  # not a permutation
    ("C3", "1,2,4"),
    ("A2", "1,-2,3"),  # signs in type A
    ("D3", "1,2,-3"),  # odd sign count in type D
])
def test_one_window_validator(capsys, name, window):
    code, out, err = run(capsys, "stats", "--type", name, "--window", window)
    assert code == 2 and out == "" and err.startswith("error: ")
    values = [int(v) for v in window.split(",")]
    with pytest.raises(errors.InvalidWindow) as raised:
        window_to_element(root_system(CartanType.parse(name)), values)
    assert err == f"error: {raised.value}\n"


def test_gf_threads_match_sequential(capsys):
    code, out, _ = run(capsys, "gf", "--type", "F4", "--threads", "2", "--json")
    assert code == 0
    seq = run(capsys, "gf", "--type", "F4", "--json")[1]
    assert out == seq


def test_gf_checkpoint_resume_flow(capsys, tmp_path):
    ck = str(tmp_path / "f4.ckpt")
    code, _, _ = run(capsys, "gf", "--type", "F4", "--checkpoint", ck,
                     "--parts", "0,1,2,3,4,5", "--json")
    assert code == 0
    code, out, _ = run(capsys, "gf", "--type", "F4", "--checkpoint", ck,
                       "--resume", "--json")
    assert code == 0
    one_shot = run(capsys, "gf", "--type", "F4", "--json")[1]
    assert out == one_shot


def _f4_checkpoint(capsys, tmp_path) -> str:
    ck = str(tmp_path / "f4.ckpt")
    code, _, _ = run(capsys, "gf", "--type", "F4", "--checkpoint", ck,
                     "--parts", "0,1,2,3,4,5", "--json")
    assert code == 0
    return ck


def _truncate(path):
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text[: len(text) // 2])


def _tamper(path):
    with open(path) as fh:
        data = json.load(fh)
    data["done"].append(23)  # claims a part it never merged; the hash stays
    with open(path, "w") as fh:
        json.dump(data, fh)


@pytest.mark.parametrize("damage, type_name", [
    (_truncate, "F4"),
    (None, "E6"),  # an F4 checkpoint offered to an E6 run
    (_tamper, "F4"),
], ids=["truncated", "other-type", "tampered"])
def test_gf_bad_checkpoint_exits_3(capsys, tmp_path, damage, type_name):
    ck = _f4_checkpoint(capsys, tmp_path)
    if damage:
        damage(ck)
    code, out, err = run(capsys, "gf", "--type", type_name, "--checkpoint", ck,
                         "--resume", "--json")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def _rehashed(**fields):
    """Damage that replaces fields of a checkpoint's body and renews its
    hash, as a writer that does not validate would."""
    def damage(path):
        with open(path) as fh:
            data = json.load(fh)
        data.update(fields)
        body = {k: data[k] for k in ("ctype", "profile", "n_parts", "done", "partial")}
        data["hash"] = engine._checkpoint_digest(body)
        with open(path, "w") as fh:
            json.dump(data, fh)
    return damage


@pytest.mark.parametrize("fields", [
    {"done": [99]}, {"done": [-1]}, {"done": True}, {"done": [True]}, {"done": ["0"]},
    {"done": [0.0]}, {"partial": None}, {"partial": [1]}, {"partial": {"vars": ["x"]}},
    {"partial": {"vars": ["y"], "terms": []}},
    {"partial": {"vars": ["x"], "terms": [{"e": [1, 2], "c": 1}]}},
    {"partial": {"vars": ["x"], "terms": [{"e": [1], "c": 1.5}]}},
    {"partial": {"vars": ["x"], "terms": [{"e": ["1"], "c": 1}]}},
], ids=lambda fields: json.dumps(fields, separators=(",", ":")))
def test_gf_hash_valid_checkpoint_with_a_bad_body_exits_3(capsys, tmp_path, fields):
    ck = _f4_checkpoint(capsys, tmp_path)
    _rehashed(**fields)(ck)
    code, out, err = run(capsys, "gf", "--type", "F4", "--checkpoint", ck, "--resume", "--json")
    assert (code, out) == (3, "")
    assert err.startswith(f"error: checkpoint {ck} ") and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["directory", "fifo"])
@pytest.mark.parametrize("resume", [(), ("--resume",)], ids=["fresh", "resume"])
def test_gf_checkpoint_that_is_no_regular_file_exits_3(capsys, monkeypatch, tmp_path, kind, resume):
    path = tmp_path / "run.ckpt"
    path.mkdir() if kind == "directory" else os.mkfifo(path)  # never opened

    def no_build(*args, **kwargs):
        raise AssertionError("a part was started before the checkpoint was checked")

    monkeypatch.setattr(engine._Fold, "build", no_build)
    code, out, err = run(capsys, "gf", "--type", "F4", "--checkpoint", str(path), *resume)
    assert (code, out) == (3, "")
    assert err == f"error: cannot write checkpoint {path}: not a regular file\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.ckpt"]


def test_gf_resume_ignores_a_stale_tmp_file(capsys, tmp_path):
    ck = _f4_checkpoint(capsys, tmp_path)
    with open(ck + ".tmp", "w") as fh:
        fh.write('{"partial": "left by a run that died mid-write"')
    code, out, _ = run(capsys, "gf", "--type", "F4", "--checkpoint", ck,
                       "--resume", "--json")
    assert code == 0
    assert out == run(capsys, "gf", "--type", "F4", "--json")[1]


def test_gf_worker_failure_keeps_merged_parts(capsys, monkeypatch, tmp_path):
    system = root_system(B8)
    weights, dims = root_weights(resolve_profile("B-4var", B8), system)
    split = engine._Split.build(system, weights)
    tallies = [split.part_coeffs(i) for i in range(16)]
    bad = 9
    real = engine._Fold.part_coeffs

    def flaky(self, part_index):
        if part_index == bad:
            raise RuntimeError("injected")
        return real(self, part_index)

    monkeypatch.setattr(engine._Fold, "part_coeffs", flaky)
    ck = str(tmp_path / "b8.ckpt")
    argv = ("gf", "--type", "B8", "--profile", "B-4var", "--json")
    code, out, err = run(capsys, *argv, "--threads", "2", "--checkpoint", ck)
    assert code == 3 and out == ""
    assert "failed repeatedly" in err
    saved = engine.Checkpoint.read(ck, B8, "B-4var", 16)
    # the parts before the bad one land, and it ends the run
    assert saved.done == set(range(bad))
    expect = sum(tallies[i] for i in saved.done)
    assert saved.partial == engine._coeffs_to_poly(expect, dims, saved.partial.vars)

    monkeypatch.undo()
    code, out, _ = run(capsys, *argv, "--checkpoint", ck, "--resume")
    assert code == 0
    assert out == run(capsys, *argv)[1]


def _progress_counts(err: str) -> list[str]:
    return [re.search(r"\((\d+/\d+), [\d.]+ parts/s, ETA [\d.]+s\)$", line)[1]
            for line in err.splitlines()]


def test_gf_progress_one_line_per_merged_job(capsys):
    argv = ("gf", "--type", "B8", "--profile", "B-4var", "--json")
    code, out, err = run(capsys, *argv, "--threads", "2", "--progress")
    assert code == 0
    assert out == run(capsys, *argv)[1]
    assert _progress_counts(err) == [f"{i}/16" for i in range(1, 17)]
    assert err.splitlines()[-1].startswith("part 15 done (16/16, ")


def test_gf_progress_counts_only_wanted_parts(capsys, tmp_path):
    ck = _f4_checkpoint(capsys, tmp_path)
    code, _, err = run(capsys, "gf", "--type", "F4", "--checkpoint", ck,
                       "--resume", "--parts", "10,11", "--progress", "--json")
    assert code == 0
    assert _progress_counts(err) == ["1/2", "2/2"]


def test_gf_bad_parts_list_is_usage_error(capsys):
    code, out, err = run(capsys, "gf", "--type", "F4", "--parts", "1,x")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("value", [",", "", " , "])
def test_gf_parts_list_naming_no_part_is_usage_error(capsys, value):
    code, out, err = run(capsys, "gf", "--type", "E6", "--parts", value)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("name, profile, restriction", [
    ("A5", "odd-length", "unimodal"),
    ("A6", "odd-length", "chessboard"),
    ("D5", "D-bivar", "good-chessboard"),
])
def test_gf_restricted_runs_take_the_engine_flags(capsys, name, profile, restriction):
    n_parts = len(_domain_levels(restriction, CartanType.parse(name))[0])
    argv = ("gf", "--type", name, "--profile", profile, "--restrict", restriction, "--json")
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--threads", "2")[1] == plain
    code, out, err = run(capsys, *argv, "--progress")
    assert code == 0 and out == plain
    assert _progress_counts(err)[-1] == f"{n_parts}/{n_parts}"
    # A6's chessboard domain is a single part, so its split is that part alone
    halves = [range(n_parts)[: n_parts // 2], range(n_parts)[n_parts // 2:]]
    total = None
    for half in filter(None, halves):
        code, out, _ = run(capsys, *argv, "--parts", ",".join(map(str, half)))
        assert code == 0
        total = Poly.loads(out) if total is None else total + Poly.loads(out)
    assert total.dumps() + "\n" == plain


def test_gf_restricted_text_counts_elements_and_parts(capsys):
    code, out, _ = run(capsys, "gf", "--type", "A5", "--restrict", "unimodal")
    assert code == 0
    assert "32 elements, 32/32 parts  " in out
    code, out, _ = run(capsys, "gf", "--type", "A5", "--restrict", "unimodal", "--parts", "0,1")
    assert code == 0
    assert "2 elements, 2/32 parts  " in out


def test_gf_restricted_checkpoint_is_refused_before_any_part(capsys, monkeypatch, tmp_path):
    def no_build(*args, **kwargs):
        raise AssertionError("a part was started for a run that cannot be checkpointed")

    monkeypatch.setattr(engine._Fold, "build", no_build)
    code, out, err = run(capsys, "gf", "--type", "A5", "--restrict", "unimodal",
                         "--checkpoint", str(tmp_path / "a5.ckpt"))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_gf_text_mentions_prediction(capsys):
    code, out, _ = run(capsys, "gf", "--type", "C4")
    assert code == 0
    assert "predicted product:" in out
    assert "derived product form" in out
    code, out, _ = run(capsys, "gf", "--type", "G2")
    assert code == 0
    assert "predicted product:" not in out


@pytest.mark.parametrize("family, max_n", [("A", "1"), ("B", "0"), ("C", "1"), ("D", "1")])
def test_verify_with_no_identity_is_usage_error(capsys, family, max_n):
    code, out, err = run(capsys, "verify", "--type", family, "--max-n", max_n)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_gf_text_predicts_only_a_whole_run(capsys):
    code, out, _ = run(capsys, "gf", "--type", "E6", "--parts", "0")
    assert code == 0
    assert "1/27 parts" in out
    assert "predicted product:" not in out
    code, out, _ = run(capsys, "gf", "--type", "E6", "--threads", "2")
    assert code == 0
    assert "27/27 parts" in out
    assert "predicted product: (1-x^2) (1-x^4) (1-x^6) (1-x^8)" in out


def test_unknown_subcommand(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_gf_part_out_of_range_is_usage_error(capsys):
    code, out, err = run(capsys, "gf", "--type", "E6", "--parts", "999")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_gf_unwritable_checkpoint_exits_3(capsys, monkeypatch, tmp_path):
    def no_build(system):
        raise AssertionError("a part was started before the checkpoint was checked")

    monkeypatch.setattr(engine._Fold, "build", no_build)
    missing = str(tmp_path / "missing" / "x.ckpt")
    code, _, err = run(capsys, "gf", "--type", "E6", "--checkpoint", missing)
    assert code == 3
    assert err.startswith("error:") and err.count("\n") == 1


def test_gf_rejects_bad_threads_and_lone_resume(capsys):
    for value in ("0", "-2"):
        assert run(capsys, "gf", "--type", "E6", "--threads", value)[0] == 2
    code, _, err = run(capsys, "gf", "--type", "E6", "--resume")
    assert code == 2
    assert "--checkpoint" in err


def test_verify_family_rank_runs_one_identity(capsys):
    code, out, _ = run(capsys, "verify", "--family", "B", "--rank", "3")
    assert code == 0
    assert "odd-length B3" in out
    assert out.strip().endswith("1/1 identities hold")
    assert out == run(capsys, "verify", "--type", "B3")[1]


def test_subcommand_usage_error_shows_its_usage(capsys):
    code, _, err = run(capsys, "gf", "--type", "E6", "--resume")
    assert code == 2
    assert err.startswith("usage: oddlength gf")


def test_gf_multivariate_threads_match_sequential(capsys):
    argv = ("gf", "--type", "B8", "--profile", "B-4var", "--json")
    code, out, _ = run(capsys, *argv, "--threads", "2")
    assert code == 0
    assert out == run(capsys, *argv)[1]


def test_gf_weights_past_float32_exit_3(capsys):
    # B-4var on B26 would need codes of 2.1e7 > 2^24; refused before any build
    # (B26 also has more than 2^63 elements, and that guard runs first)
    code, out, err = run(capsys, "gf", "--type", "B26", "--profile", "B-4var",
                         "--allow-large", "--parts", "0", "--json")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_gf_domain_past_int64_exits_3_at_once(capsys):
    # B17 has 4.7e19 > 2^63 elements: int64 tallies would wrap
    start = time.perf_counter()
    code, out, err = run(capsys, "gf", "--type", "B17", "--allow-large")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "2^63" in err


EXIT_CODES = {
    errors.InvalidRank: 2, errors.InvalidWindow: 2, errors.SystemMismatch: 2,
    errors.TypeMismatch: 2, errors.IndexOutOfRange: 2, errors.NoPeak: 2,
    errors.NotApplicable: 2, errors.IsChessboard: 2, errors.NoPrediction: 2,
    errors.OutOfStatedRange: 2, errors.VarMismatch: 2, errors.UnsupportedProfile: 2,
    errors.PartOutOfRange: 2, errors.NonTerminating: 3, errors.BudgetExceeded: 3,
    errors.Overflow: 3, errors.CheckpointCorrupt: 3, errors.WorkerFailure: 3,
    errors.CheckpointUnwritable: 3, errors.WeightsTooLarge: 3,
}


def test_exit_code_map_covers_every_error_class():
    found = {
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.OddLengthError)
    }
    assert found - {errors.OddLengthError} == set(EXIT_CODES)


@pytest.mark.parametrize("cls", list(EXIT_CODES), ids=lambda c: c.__name__)
def test_every_error_class_ends_in_its_exit_code(capsys, monkeypatch, cls):
    # most classes cannot be raised through the CLI with desk-sized input
    # (Overflow, for one: the element budget stops verify --type C240
    # first), so the command is made to raise each one
    def boom(*args, **kwargs):
        raise cls("injected")

    monkeypatch.setattr(cli, "run_partitioned", boom)
    code, out, err = run(capsys, "gf", "--type", "A2")
    assert code == EXIT_CODES[cls] == cls.exit_code
    assert out == "" and err == "error: injected\n"
