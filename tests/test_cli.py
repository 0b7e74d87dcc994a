import json
import time

import pytest
from conftest import write_later_member_checkpoint

from mclex import __version__
from mclex.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- decide ------------------------------------------------------------------


def test_decide_affirmative(capsys):
    code, out, _ = run(
        capsys,
        "decide",
        "--lhs",
        "1 2 2 | 1 ; 2 2 1 | 1",
        "--rhs",
        "1 * * | 1 ; 2 2 1 | 1",
    )
    assert code == 0 and out.strip() == "yes"


def test_decide_negative(capsys):
    code, out, _ = run(
        capsys,
        "decide",
        "--lhs",
        "1 * | 1 ; * 1 | 1",
        "--rhs",
        "1 * | 1 ; 1 1 | *",
    )
    assert code == 1 and out.strip() == "no"


def test_decide_sparse_variables_fast(capsys):
    # instantiation maps only the variables a row uses: over all 30 it
    # would try 2**30 maps, about half an hour
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "decide", "--lhs", "1 30 | 1", "--rhs", "1 * | 1 ; * 1 | 1"
    )
    assert code == 1 and out.strip() == "no"
    assert time.perf_counter() - start < 10


def test_decide_trivial_hypothesis_tableau_note(capsys, tmp_path):
    target = tmp_path / "t.json"
    code, out, err = run(
        capsys,
        "decide",
        "--lhs",
        "1 | 2",
        "--rhs",
        "1 2 2 | 1 ; 2 2 1 | 1",
        "--tableau",
        str(target),
    )
    assert code == 0 and out.strip() == "yes"
    assert not target.exists() and list(tmp_path.iterdir()) == []
    assert len(err.strip().splitlines()) == 1
    assert "no tableau written" in err and "trivial" in err


def test_decide_multiple_rhs_tableaux(capsys, tmp_path):
    target = tmp_path / "proof.json"
    code, _out, _ = run(
        capsys,
        "decide",
        "--lhs",
        "1 2 2 | 1 ; 2 2 1 | 1",
        "--rhs",
        "1 * | 1 ; * 1 | 1",
        "--rhs",
        "1 * | 1 ; 1 1 | *",
        "--tableau",
        str(target),
    )
    assert code == 0
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["proof.0.json", "proof.1.json"]
    for p in tmp_path.iterdir():
        assert json.loads(p.read_text())["verdict"] is True


def test_decide_tableau_round_trip(capsys, tmp_path):
    target = tmp_path / "proof.json"
    code, _, _ = run(
        capsys,
        "decide",
        "--lhs",
        "1 * * | 1 ; 2 1 2 | 1",
        "--rhs",
        "1 1 * | 1 ; * * 1 | 1 ; 1 * 1 | *",
        "--tableau",
        str(target),
    )
    assert code == 0
    code, out, _ = run(capsys, "check-tableau", str(target))
    assert code == 0 and out.strip() == "valid"


@pytest.mark.parametrize("target", ["missing/t.json", "a-file/t.json", "a-dir"])
def test_decide_rejects_unwritable_tableau_before_deciding(capsys, tmp_path,
                                                           monkeypatch, target):
    def refuse(*_args, **_kwargs):
        raise AssertionError("decide called before the tableau path was checked")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("mclex.cli.decide", refuse)
    (tmp_path / "a-file").write_text("")
    (tmp_path / "a-dir").mkdir()
    code, out, err = run(capsys, "decide", "--lhs", "1 2 2 | 1 ; 2 2 1 | 1",
                         "--rhs", "1 * * | 1 ; 2 2 1 | 1",
                         "--tableau", str(tmp_path / target))
    assert code == 2 and out == "" and "error: cannot write" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-dir", "a-file"]
    assert list((tmp_path / "a-dir").iterdir()) == []


def test_decide_rejects_unwritable_numbered_tableau_before_deciding(capsys, tmp_path,
                                                                    monkeypatch):
    # two goals write out.0.json and out.1.json; the first is a directory
    def refuse(*_args, **_kwargs):
        raise AssertionError("decide called before the tableau paths were checked")

    monkeypatch.setattr("mclex.cli.decide", refuse)
    (tmp_path / "out.0.json").mkdir()
    code, out, err = run(capsys, "decide", "--lhs", "1 2 2 | 1 ; 2 2 1 | 1",
                         "--rhs", "1 * | 1 ; * 1 | 1", "--rhs", "1 * | 1 ; 1 1 | *",
                         "--tableau", str(tmp_path / "out.json"))
    assert code == 2 and out == ""
    assert "error: cannot write" in err and "out.0.json" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.0.json"]


def test_check_tableau_invalid(capsys, tmp_path):
    target = tmp_path / "proof.json"
    run(
        capsys,
        "decide",
        "--lhs",
        "1 * * | 1 ; 2 1 2 | 1",
        "--rhs",
        "1 1 * | 1 ; * * 1 | 1 ; 1 * 1 | *",
        "--tableau",
        str(target),
    )
    data = json.loads(target.read_text())
    data["steps"][-1]["witnesses"][0]["row"] = 2
    target.write_text(json.dumps(data))
    code, out, _ = run(capsys, "check-tableau", str(target))
    assert code == 1 and out.startswith("invalid at step")


def _with_matrix_text(data):
    data["steps"][-1]["witnesses"][0]["matrix"] = "0"
    return data


def _with_signed_entry(data):
    data["steps"][-1]["added"][0] = "+1"
    return data


@pytest.mark.parametrize(
    "mutate",
    [
        lambda data: {},
        lambda data: [1, 2],
        lambda data: {**data, "steps": "abc"},
        _with_matrix_text,
        _with_signed_entry,
    ],
    ids=["empty-object", "list", "steps-string", "witness-matrix-string", "signed-entry"],
)
def test_check_tableau_malformed(capsys, tmp_path, mutate):
    target = tmp_path / "proof.json"
    run(
        capsys,
        "decide",
        "--lhs",
        "1 * * | 1 ; 2 1 2 | 1",
        "--rhs",
        "1 1 * | 1 ; * * 1 | 1 ; 1 * 1 | *",
        "--tableau",
        str(target),
    )
    target.write_text(json.dumps(mutate(json.loads(target.read_text()))))
    code, out, err = run(capsys, "check-tableau", str(target))
    assert code == 2 and out == "" and err.startswith("error: malformed tableau")


def test_matrix_from_file(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("#nmk 2 3 2\n1 2 2 | 1\n2 2 1 | 1\n")
    code, out, _ = run(capsys, "degeneracy", str(path))
    assert code == 0 and out.strip() == "proper"


# --- simple subcommands ------------------------------------------------------


def test_degeneracy_values(capsys):
    assert run(capsys, "degeneracy", "| 1")[1].strip() == "trivial"
    assert run(capsys, "degeneracy", "| *")[1].strip() == "anti-trivial"
    assert run(capsys, "degeneracy", "1 * | 1 ; 1 1 | *")[1].strip() == "proper"


def test_normalize_command(capsys):
    code, out, _ = run(capsys, "normalize", "2 2 1 | 1 ; 1 2 2 | 1")
    assert code == 0 and out.strip() == "1 2 2 | 1 ; 2 1 2 | 1"


def test_canonical_command(capsys):
    code, out, _ = run(capsys, "canonical", "1 * * | 1 ; 2 2 1 | 1")
    assert code == 0 and out.strip() == "1 * * | 1 ; 2 1 2 | 1"


@pytest.mark.parametrize("matrix", [
    "1 2 2 | 1 ; 2 1 2 | 1",
    "1 2 | 1",  # trivial: the window is checked before any search
])
@pytest.mark.parametrize("window", [
    ("0", "0", "0"),
    ("-1", "2", "2"),
    ("2", "-1", "2"),
    ("3", "3", "-2"),
])
def test_canonical_rejects_out_of_range_window(capsys, matrix, window):
    code, out, err = run(capsys, "canonical", matrix, "--window", *window)
    assert code == 2 and out == ""
    assert "error: window (" + ", ".join(window) + ")" in err


def test_canonical_without_window_candidate(capsys):
    # a window without variables has no trivial candidate
    code, out, err = run(capsys, "canonical", "| 1", "--window", "2", "2", "0")
    assert code == 2 and out == ""
    assert "no window candidate" in err


def test_loc_command(capsys):
    code, out, _ = run(capsys, "loc", "1 * * | 1 ; 2 2 1 | 1")
    assert code == 0 and out.strip() == "3 1 3 3 | 1 ; 3 2 2 1 | 1"


def test_loc_equal_with_anchor_names(capsys):
    code, out, _ = run(capsys, "loc-equal", "1 * | 1 ; * 1 | 1", "maltsev")
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run(capsys, "loc-equal", "1 * | 1 ; * 1 | 1", "majority")
    assert code == 1 and out.strip() == "no"


def test_admissible_command(capsys):
    code, out, _ = run(capsys, "admissible", "1 2 2 | 1 ; 2 2 1 | 1", "2")
    assert code == 0 and out.strip() == "yes: left column 2"
    code, out, _ = run(capsys, "admissible", "1 2 2 | 1 ; 2 2 1 | 1", "1")
    assert code == 1 and out.strip() == "no"


def test_maltsev_condition_command(capsys):
    code, out, _ = run(capsys, "maltsev-condition", "1 * | 1 ; 1 1 | *")
    assert code == 0 and out.strip() == "p(x1,*)=x1 ; p(x1,x1)=*"


# --- enumerate ---------------------------------------------------------------


def test_enumerate_counts_only(capsys):
    code, out, _ = run(capsys, "enumerate", "2", "3", "2")
    assert code == 0 and "classes: 6" in out


@pytest.mark.parametrize("window, classes", [
    (("1", "0", "0"), 1),
    (("2", "0", "1"), 2),
    (("1", "1", "0"), 1),
])
def test_enumerate_smallest_windows(capsys, window, classes):
    code, out, _ = run(capsys, "enumerate", *window)
    assert code == 0 and f"classes: {classes}" in out


@pytest.mark.parametrize("window", [
    ("-1", "2", "2"),
    ("2", "-3", "1"),
    ("2", "2", "-1"),
    ("0", "0", "0"),
])
def test_enumerate_rejects_out_of_range_window(capsys, tmp_path, window):
    out_json = tmp_path / "poset.json"
    code, _out, err = run(capsys, "enumerate", *window, "--out", str(out_json))
    assert code == 2 and "error:" in err
    assert not out_json.exists()


def test_enumerate_rejects_unknown_anchor_before_classifying(capsys, tmp_path,
                                                             monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("classify called before the anchor was read")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("mclex.cli.classify", refuse)
    code, _out, err = run(capsys, "enumerate", "3", "3", "2", "--out", "p.json",
                          "--subposet-loc", "maltsevv")
    assert code == 2 and "error:" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option", ["--out", "--dot"])
@pytest.mark.parametrize("target", ["missing/p.out", "a-file/p.out", "a-dir"])
def test_enumerate_rejects_unwritable_output_before_classifying(capsys, tmp_path,
                                                                monkeypatch, option,
                                                                target):
    def refuse(*_args, **_kwargs):
        raise AssertionError("classify called before the output path was checked")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("mclex.cli.classify", refuse)
    (tmp_path / "a-file").write_text("")
    (tmp_path / "a-dir").mkdir()
    code, _out, err = run(capsys, "enumerate", "3", "4", "2", option, str(tmp_path / target))
    assert code == 2 and "error: cannot write" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-dir", "a-file"]
    assert list((tmp_path / "a-dir").iterdir()) == []


def test_enumerate_with_artifacts(capsys, tmp_path):
    out_json = tmp_path / "poset.json"
    out_dot = tmp_path / "hasse.dot"
    code, out, _ = run(
        capsys,
        "enumerate",
        "2",
        "3",
        "2",
        "--out",
        str(out_json),
        "--dot",
        str(out_dot),
    )
    assert code == 0
    data = json.loads(out_json.read_text())
    assert len(data["classes"]) == 6
    assert len(data["reducedEdges"]) == 6
    dot = out_dot.read_text()
    assert dot.count("->") == 6
    # byte-identical re-emission from a second run
    out_json2 = tmp_path / "poset2.json"
    run(capsys, "enumerate", "2", "3", "2", "--out", str(out_json2))
    assert out_json.read_bytes() == out_json2.read_bytes()


def test_enumerate_subposet(capsys):
    code, out, _ = run(capsys, "enumerate", "2", "3", "2", "--subposet-loc", "maltsev")
    assert code == 0 and "subposet (maltsev): 4 classes" in out


def test_enumerate_subposet_of_degenerate_anchor(capsys):
    code, out, _ = run(capsys, "enumerate", "2", "3", "2", "--subposet-loc", "| *")
    assert code == 0 and "subposet (| *): 1 classes" in out


def test_enumerate_checkpoint_corruption(capsys, tmp_path):
    (tmp_path / "classify_2_3_2.json").write_text("{broken")
    code, _out, err = run(
        capsys, "enumerate", "2", "3", "2", "--checkpoint", str(tmp_path)
    )
    assert code == 2 and "error:" in err


def test_enumerate_checkpoint_missing_key(capsys, tmp_path):
    state = {"version": __version__, "probes": [[3, 1], [2, 2]],
             "params": [2, 3, 2], "classes": []}
    (tmp_path / "classify_2_3_2.json").write_text(json.dumps(state))
    code, _out, err = run(
        capsys, "enumerate", "2", "3", "2", "--checkpoint", str(tmp_path)
    )
    assert code == 2 and "error:" in err and "done_batches" in err


def test_enumerate_checkpoint_outside_window(capsys, tmp_path):
    # right stamp and params, but a 4 x 7 class that uses variable 9
    state = {"version": __version__, "probes": [[3, 1], [2, 2]],
             "params": [2, 3, 2], "done_batches": [[1, 0]],
             "classes": [{"rows": [[9] * 8] * 4, "kind": "proper", "members": 1}]}
    (tmp_path / "classify_2_3_2.json").write_text(json.dumps(state))
    code, out, err = run(
        capsys, "enumerate", "2", "3", "2", "--checkpoint", str(tmp_path)
    )
    assert code == 2 and "error:" in err and "is not listed as classes[0]" in err
    assert out == ""


def test_enumerate_checkpoint_other_version(capsys, tmp_path):
    state = {"version": "0.0.1", "probes": [[3, 1], [2, 2]],
             "params": [2, 3, 2], "done_batches": [], "classes": []}
    (tmp_path / "classify_2_3_2.json").write_text(json.dumps(state))
    code, _out, err = run(
        capsys, "enumerate", "2", "3", "2", "--checkpoint", str(tmp_path)
    )
    assert code == 2 and "error:" in err and "another build" in err


def test_enumerate_checkpoint_other_probes(capsys, tmp_path):
    state = {"version": __version__, "probes": [[2, 1], [3, 1], [2, 2], [3, 2]],
             "params": [3, 3, 2], "done_batches": [], "classes": []}
    (tmp_path / "classify_3_3_2.json").write_text(json.dumps(state))
    code, _out, err = run(
        capsys, "enumerate", "3", "3", "2", "--checkpoint", str(tmp_path)
    )
    assert code == 2 and "written by another build" in err


def test_enumerate_checkpoint_repeated_class(capsys, tmp_path):
    # the four one-row batches of (2, 3, 2) done, with `| *` listed twice
    star = {"rows": [[0]], "kind": "anti-trivial", "members": 5}
    state = {"version": __version__, "probes": [[3, 1], [2, 2]],
             "params": [2, 3, 2], "done_batches": [[1, 0], [1, 1], [1, 2], [1, 3]],
             "classes": [star, {"rows": [[1]], "kind": "trivial", "members": 2}, star]}
    (tmp_path / "classify_2_3_2.json").write_text(json.dumps(state))
    code, out, err = run(
        capsys, "enumerate", "2", "3", "2", "--checkpoint", str(tmp_path)
    )
    assert code == 2 and "error:" in err and "no done batch generates classes[2]" in err
    assert out == ""



def test_enumerate_checkpoint_without_a_degenerate_class(capsys, tmp_path):
    # the four one-row batches of (2, 3, 2) done, without the `| *` class
    state = {"version": __version__, "probes": [[3, 1], [2, 2]],
             "params": [2, 3, 2], "done_batches": [[1, 0], [1, 1], [1, 2], [1, 3]],
             "classes": [{"rows": [[1]], "kind": "trivial", "members": 2}]}
    (tmp_path / "classify_2_3_2.json").write_text(json.dumps(state))
    code, out, err = run(
        capsys, "enumerate", "2", "3", "2", "--checkpoint", str(tmp_path)
    )
    assert code == 2 and "error:" in err and "first anti-trivial candidate" in err
    assert out == ""


def test_enumerate_checkpoint_later_member(capsys, tmp_path):
    write_later_member_checkpoint(tmp_path)
    code, out, err = run(
        capsys, "enumerate", "2", "3", "2", "--checkpoint", str(tmp_path)
    )
    assert code == 2 and "error:" in err and "is not its own normal form" in err
    assert out == ""


# --- error handling ----------------------------------------------------------


def test_parse_error_exit_code(capsys):
    code, _out, err = run(capsys, "degeneracy", "1 q | 1")
    assert code == 2 and "error:" in err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_oracle_check_fast(capsys):
    code, out, _ = run(capsys, "oracle-check", "--level", "fast")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 3
