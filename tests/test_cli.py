import json

import pytest

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
    "1 2 | 1",  # trivial: its representative needs no window search
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


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("artifact", [(), ("--out", "poset.json")])
def test_enumerate_rejects_workers_below_one(capsys, tmp_path, monkeypatch,
                                             workers, artifact):
    monkeypatch.chdir(tmp_path)
    code, _out, err = run(capsys, "enumerate", "2", "3", "2", *artifact,
                          "--workers", workers)
    assert code == 2 and "error:" in err and "--workers" in err
    assert list(tmp_path.iterdir()) == []


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


def test_enumerate_checkpoint_corruption(capsys, tmp_path):
    (tmp_path / "classify_2_3_2.json").write_text("{broken")
    code, _out, err = run(
        capsys, "enumerate", "2", "3", "2", "--checkpoint", str(tmp_path)
    )
    assert code == 2 and "error:" in err


def test_enumerate_checkpoint_missing_key(capsys, tmp_path):
    state = {"version": __version__, "probes": [[2, 1], [3, 1], [2, 2]],
             "params": [2, 3, 2], "classes": []}
    (tmp_path / "classify_2_3_2.json").write_text(json.dumps(state))
    code, _out, err = run(
        capsys, "enumerate", "2", "3", "2", "--checkpoint", str(tmp_path)
    )
    assert code == 2 and "error:" in err and "done_batches" in err


def test_enumerate_checkpoint_other_version(capsys, tmp_path):
    state = {"version": "0.0.1", "probes": [[2, 1], [3, 1], [2, 2]],
             "params": [2, 3, 2], "done_batches": [], "classes": []}
    (tmp_path / "classify_2_3_2.json").write_text(json.dumps(state))
    code, _out, err = run(
        capsys, "enumerate", "2", "3", "2", "--checkpoint", str(tmp_path)
    )
    assert code == 2 and "error:" in err and "another build" in err


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
