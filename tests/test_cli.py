"""Command line behavior: output shapes and exit codes."""

import json

from oddlength.cli import main

A2_GOLDEN = '{"vars":["x"],"terms":[{"e":[0],"c":1},{"e":[2],"c":-1}]}'


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


def test_gf_engine_rejects_restrictions(capsys):
    code, _, _ = run(capsys, "gf", "--type", "A3", "--restrict", "unimodal",
                     "--threads", "2")
    assert code == 2


def test_gf_text_mentions_prediction(capsys):
    code, out, _ = run(capsys, "gf", "--type", "C4")
    assert code == 0
    assert "predicted product:" in out
    assert "derived product form" in out
    code, out, _ = run(capsys, "gf", "--type", "G2")
    assert code == 0
    assert "predicted product:" not in out


def test_unknown_subcommand(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_gf_part_out_of_range_is_usage_error(capsys):
    code, out, err = run(capsys, "gf", "--type", "E6", "--parts", "999")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_gf_unwritable_checkpoint_exits_3(capsys, monkeypatch, tmp_path):
    import oddlength.engine as engine

    def no_build(system):
        raise AssertionError("a part was started before the checkpoint was checked")

    monkeypatch.setattr(engine._Split, "build", no_build)
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
