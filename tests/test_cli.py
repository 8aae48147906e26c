"""End-to-end runs of every CLI verb, exit codes and output schemas."""

import gc
import json
import os
import subprocess
import sys
import threading
from itertools import product
from pathlib import Path

import pytest

from latclone import cli
from latclone.cli import main
from latclone.formulas import eval_formula, parse_formula
from latclone import catalog


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    return {
        "n5": write("n5.json", {"elements": ["0", "p", "q", "r", "1"],
                                "covers": [[0, 1], [1, 2], [2, 4], [0, 3], [3, 4]]}),
        "b2": write("b2.json", {"elements": ["0", "a", "b", "ab"],
                                "covers": [[0, 1], [0, 2], [1, 3], [2, 3]]}),
        "c3": write("c3.json", {"elements": ["0", "m", "1"],
                                "meet": [[0, 0, 0], [0, 1, 1], [0, 1, 2]]}),
        "fence": write("fence.json", {"elements": ["0", "a", "b", "c"],
                                      "covers": [[0, 1], [1, 3], [0, 2]],
                                      "kind": "semilattice"}),
        "bad": write("bad.json", {"elements": ["a", "b"], "covers": [[0, 1], [1, 0]]}),
        "rel": write("rel.json", {"arity": 2, "tuples": [[0, 1], [1, 0]]}),
        "phi": str(tmp_path / "phi.pp"),
        "tmp": tmp_path,
    }


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def process(argv, **kwargs):
    """Start ``python -m latclone.cli ARGV`` on this checkout's sources."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-m", "latclone.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs)


def test_check_reports_properties(capsys, files):
    code, out, _ = run(capsys, ["check", files["n5"]])
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] and payload["kind"] == "lattice"
    assert payload["distributive"] is False and payload["boolean"] is False
    assert payload["forbidden"]["kind"] == "N5"


def test_check_semilattice(capsys, files):
    code, out, _ = run(capsys, ["check", files["fence"]])
    payload = json.loads(out)
    assert code == 0
    assert payload["kind"] == "semilattice"
    assert payload["top"] is None and payload["distributive"] is False


def test_check_rejects_bad_input(capsys, files):
    code, out, err = run(capsys, ["check", files["bad"]])
    assert code == 1
    assert out == "" and "error" in err


def test_missing_file_is_an_input_error(capsys, files):
    code, _, err = run(capsys, ["check", str(files["tmp"] / "nope.json")])
    assert code == 1 and "error" in err


def test_props_extends_check(capsys, files):
    code, out, _ = run(capsys, ["props", files["c3"]])
    payload = json.loads(out)
    assert code == 0
    assert payload["joinIrreducibles"] == [1, 2]
    assert payload["covers"] == [[0, 1], [1, 2]]


def test_clone_slice_verb(capsys, files):
    code, out, _ = run(capsys, ["clone", files["b2"], "-n", "2"])
    payload = json.loads(out)
    assert code == 0
    assert payload["count"] == 4
    for op in payload["operations"]:
        assert op["arity"] == 2 and len(op["values"]) == 16
        assert "term" in op


def test_centralizer_verb(capsys, files):
    code, out, _ = run(capsys, ["centralizer", files["c3"], "-k", "1",
                                "--mode", "semilattice"])
    payload = json.loads(out)
    assert code == 0 and payload["count"] == 10


def test_solve_inline(capsys, files):
    code, out, _ = run(capsys, ["solve", files["n5"], "-e", "x /\\ y = x"])
    payload = json.loads(out)
    assert code == 0
    assert payload["arity"] == 2 and len(payload["tuples"]) == 13


def test_solve_rejects_both_sources(capsys, files, tmp_path):
    path = tmp_path / "sys.pp"
    path.write_text("x = y", encoding="utf-8")
    code, _, err = run(capsys, ["solve", files["n5"], "-e", "x = y", "-f", str(path)])
    assert code == 1 and "not both" in err


def test_solve_raw_tables(capsys, files, tmp_path):
    system = tmp_path / "system.json"
    e1 = [0, 0, 1, 1]
    e2 = [0, 1, 0, 1]
    system.write_text(json.dumps({"arity": 2, "pairs": [[e1, e2]]}), encoding="utf-8")
    b2_chain = tmp_path / "c2.json"
    b2_chain.write_text(json.dumps({"elements": ["0", "1"], "covers": [[0, 1]]}),
                        encoding="utf-8")
    code, out, _ = run(capsys, ["solve", str(b2_chain), "--system", str(system)])
    payload = json.loads(out)
    assert code == 0 and payload["tuples"] == [[0, 0], [1, 1]]


def test_eq_verb_lists_blocks_and_equations(capsys, files):
    code, out, _ = run(capsys, ["eq", files["n5"], "-T", files["rel"]])
    payload = json.loads(out)
    assert code == 0
    assert payload["sliceSize"] == 4
    assert payload["equations"] == []  # only trivial equations hold


def test_galois_verb(capsys, files):
    code, out, _ = run(capsys, ["galois", files["n5"], "-T", files["rel"]])
    payload = json.loads(out)
    assert code == 0
    assert payload["isSolutionSet"] is False
    assert payload["gapTuple"] == [0, 0]
    assert len(payload["closure"]["tuples"]) == 25


def test_eval_and_qe_agree(capsys, files):
    formula = "exists u . (x /\\ u <= y & z <= y \\/ u)"
    code, out, _ = run(capsys, ["eval", files["b2"], "-e", formula])
    direct = json.loads(out)
    assert code == 0
    code, out, _ = run(capsys, ["qe", files["b2"], "-e", formula])
    payload = json.loads(out)
    assert code == 0
    assert payload["formula"] == "x /\\ z <= y"
    code, out, _ = run(capsys, ["eval", files["b2"], "-e", payload["formula"]])
    assert json.loads(out) == direct


def test_qe_formula_from_file(capsys, files):
    with open(files["phi"], "w", encoding="utf-8") as handle:
        handle.write("exists u . (x <= u & u /\\ y <= z)")
    code, out, _ = run(capsys, ["qe", files["c3"], "-f", files["phi"],
                                "--mode", "semilattice"])
    payload = json.loads(out)
    assert code == 0 and payload["formula"] == "x /\\ y <= z"


def test_qe_refusal_exit_code(capsys, files):
    code, out, err = run(capsys, ["qe", files["c3"], "-e", "exists u . (x /\\ u = y)"])
    assert code == 2
    assert out == "" and "refused" in err


@pytest.mark.parametrize("structure, mode", [("b2", "lattice"), ("c3", "semilattice")])
def test_qe_refuses_a_sentence_before_eliminating(capsys, files, structure, mode):
    # eval answers a sentence with the 0-ary relation; qe has no formula to print
    code, out, _ = run(capsys, ["eval", files[structure], "--mode", mode,
                                "-e", "exists u . u = u"])
    assert code == 0 and json.loads(out) == {"arity": 0, "tuples": [[]]}
    for formula in ("exists u . u = u", "exists u v . u <= v"):
        code, out, err = run(capsys, ["qe", files[structure], "--mode", mode, "-e", formula])
        assert code == 1 and out == ""
        assert err == ("latclone: error: qe needs a formula with free variables: a sentence "
                       "has no quantifier-free form to print (eval gives its truth value)\n")


def test_sdc_verb_and_determinism(capsys, files):
    argv = ["sdc", files["n5"], "--mode", "lattice", "--verify", "3", "--seed", "7"]
    code, first, _ = run(capsys, argv)
    assert code == 0
    code, second, _ = run(capsys, argv)
    assert first == second
    payload = json.loads(first)
    assert payload["holds"] is False and payload["route"] == "non-distributive-lattice"
    assert payload["verified"] is True and payload["seed"] == 7


def test_sdc_semilattice_mode_on_fence(capsys, files):
    code, out, _ = run(capsys, ["sdc", files["fence"], "--mode", "semilattice"])
    payload = json.loads(out)
    assert code == 0
    assert payload["holds"] is False and payload["route"] == "no-top-semilattice"
    assert payload["gapTuple"] is not None


def test_limit_env_var_triggers_refusal(capsys, files, monkeypatch):
    monkeypatch.setenv("LATCLONE_LIMIT", "10")
    code, _, err = run(capsys, ["clone", files["n5"], "-n", "3"])
    assert code == 2 and "refused" in err
    monkeypatch.setenv("LATCLONE_LIMIT", "not-a-number")
    code, _, err = run(capsys, ["clone", files["n5"], "-n", "2"])
    assert code == 1


def test_explicit_limit_beats_env(capsys, files, monkeypatch):
    monkeypatch.setenv("LATCLONE_LIMIT", "10")
    code, out, _ = run(capsys, ["clone", files["n5"], "-n", "3", "--limit", "200"])
    assert code == 0 and json.loads(out)["count"] == 99


def test_negative_limit_flag_is_an_input_error(capsys, files):
    code, out, err = run(capsys, ["galois", files["n5"], "-T", files["rel"], "--limit", "-1"])
    assert code == 1 and out == ""
    assert err == "latclone: error: --limit must be nonnegative, got -1\n"


def test_negative_limit_env_var_is_an_input_error(capsys, files, monkeypatch):
    monkeypatch.setenv("LATCLONE_LIMIT", "-5")
    code, out, err = run(capsys, ["clone", files["n5"], "-n", "2"])
    assert code == 1 and out == ""
    assert err == "latclone: error: LATCLONE_LIMIT must be nonnegative, got -5\n"


def test_negative_verify_is_an_input_error(capsys, files):
    code, out, err = run(capsys, ["sdc", files["n5"], "--verify", "-1"])
    assert code == 1 and out == ""
    assert err == "latclone: error: --verify must be nonnegative, got -1\n"


def test_zero_limit_is_still_a_refusal(capsys, files):
    code, out, err = run(capsys, ["galois", files["n5"], "-T", files["rel"], "--limit", "0"])
    assert code == 2 and out == ""
    assert err == "latclone: refused: clone slice exceeds 0 tables\n"


def test_centralizer_verb_defaults_to_the_centralizer_limit(capsys, files, monkeypatch):
    monkeypatch.setattr(cli, "DEFAULT_CENTRALIZER_LIMIT", 9)
    code, _, err = run(capsys, ["centralizer", files["c3"], "-k", "1",
                                "--mode", "semilattice"])
    assert code == 2 and "exceeds 9 tables" in err
    code, out, _ = run(capsys, ["clone", files["n5"], "-n", "3"])
    assert code == 0 and json.loads(out)["count"] == 99


@pytest.mark.parametrize("bad", [True, 1.5, "1"])
def test_non_integer_indices_are_input_errors(capsys, files, tmp_path, bad):
    relation = tmp_path / "bad_rel.json"
    relation.write_text(json.dumps({"arity": 2, "tuples": [[0, 1], [bad, 0]]}),
                        encoding="utf-8")
    code, out, err = run(capsys, ["galois", files["b2"], "-T", str(relation)])
    assert code == 1 and out == "" and "not an integer" in err
    system = tmp_path / "bad_system.json"
    system.write_text(json.dumps({"arity": 1, "pairs": [[[0, bad, 0, 0], [0, 1, 2, 3]]]}),
                      encoding="utf-8")
    code, out, err = run(capsys, ["solve", files["b2"], "--system", str(system)])
    assert code == 1 and out == "" and "not an integer" in err
    # the arity of a relation or system file, and the entries of a structure file
    relation.write_text(json.dumps({"arity": bad, "tuples": [[1]]}), encoding="utf-8")
    code, out, err = run(capsys, ["galois", files["c3"], "-T", str(relation)])
    assert code == 1 and out == "" and "arity" in err and "not an integer" in err
    system.write_text(json.dumps({"arity": bad, "pairs": [[[0, 1, 2], [0, 1, 1]]]}),
                      encoding="utf-8")
    code, out, err = run(capsys, ["solve", files["c3"], "--system", str(system)])
    assert code == 1 and out == "" and "arity" in err and "not an integer" in err
    structure = tmp_path / "bad_structure.json"
    structure.write_text(json.dumps({"elements": ["0", "1"], "meet": [[0, 0], [0, bad]]}),
                         encoding="utf-8")
    code, out, err = run(capsys, ["check", str(structure)])
    assert code == 1 and out == "" and "not an integer" in err


MALFORMED_FILES = [
    ("solve", {"pairs": [[[0, 1, 2], [0, 1, 1]]]}),
    ("solve", {"arity": 1}),
    ("solve", [1, [[0, 1, 2], [0, 1, 1]]]),
    ("solve", {"arity": 1, "pairs": [[[0, 1, 2]]]}),
    ("galois", {"arity": 1, "tuples": 5}),
    ("galois", {"arity": 1, "tuples": [5]}),
    ("check", {"elements": ["0", "1", "2"], "covers": [[0, 1], 5]}),
]


@pytest.mark.parametrize("verb, payload", MALFORMED_FILES,
                         ids=["no-arity", "no-pairs", "list-not-object", "one-table-pair",
                              "tuples-number", "tuple-number", "cover-number"])
def test_malformed_input_files_are_input_errors(capsys, files, tmp_path, verb, payload):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    argv = {"solve": ["solve", files["c3"], "--system", str(path)],
            "galois": ["galois", files["c3"], "-T", str(path)],
            "check": ["check", str(path)]}[verb]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == "" and err.startswith("latclone: error: ")


def test_join_over_a_semilattice_is_an_input_error(capsys, files):
    # every verb refuses lattice mode on a semilattice, join-free formulas too
    for argv in (["solve", files["fence"], "--mode", "lattice", "-e", "x \\/ y = x"],
                 ["solve", files["fence"], "--mode", "lattice", "-e", "x = y"],
                 ["eval", files["fence"], "--mode", "lattice", "-e", "x = y"],
                 ["qe", files["fence"], "--mode", "lattice", "-e", "exists u . x = u"]):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == "" and err == "latclone: error: lattice mode needs a lattice\n"


def test_pretty_output(capsys, files):
    code, out, _ = run(capsys, ["check", files["n5"], "--pretty"])
    assert code == 0
    assert "lattice with 5 elements" in out
    code, out, _ = run(capsys, ["sdc", files["n5"], "--mode", "lattice",
                                "--verify", "1", "--pretty"])
    assert "property holds: False" in out


PRETTY = [
    (["clone", "b2", "-n", "2"],
     "4 operations of arity 2\n  x1 /\\ x2\n  x1\n  x2\n  x1 \\/ x2\n"),
    (["centralizer", "c3", "-k", "1"],  # the monotone maps of a chain
     "10 operations of arity 1\n" + "".join(f"  {list(v)}\n" for v in product(range(3), repeat=3)
                                            if v[0] <= v[1] <= v[2])),
    (["solve", "c3", "-e", "x /\\ y = x"],
     "6 tuples of arity 2\n" + "".join(f"  {t}\n" for t in product(range(3), repeat=2)
                                       if t[0] <= t[1])),
    (["eval", "b2", "-e", "x <= y"],
     "9 tuples of arity 2\n" + "".join(f"  {t}\n" for t in product(range(4), repeat=2)
                                       if t[0] & t[1] == t[0])),
    (["eq", "b2", "-T", "diagonal"],
     "slice of 4 operations, 3 induced equations\n"
     "  x1 /\\ x2 = x1\n  x1 /\\ x2 = x2\n  x1 /\\ x2 = x1 \\/ x2\n"),
    (["galois", "n5", "-T", "rel"], "solution set: False\ngap tuple: (0, 0)\n"),
    (["qe", "b2", "-e", "exists u . (x /\\ u <= y & z <= y \\/ u)"], "x /\\ z <= y\n"),
]


@pytest.mark.parametrize("argv, expected", PRETTY, ids=[argv[0] for argv, _ in PRETTY])
def test_pretty_output_of_every_verb(capsys, files, argv, expected):
    diagonal = files["tmp"] / "diagonal.json"
    diagonal.write_text(json.dumps({"arity": 2, "tuples": [[0, 0], [3, 3]]}), encoding="utf-8")
    files = dict(files, diagonal=str(diagonal))
    code, out, err = run(capsys, [*(files.get(arg, arg) for arg in argv), "--pretty"])
    assert (code, out, err) == (0, expected, "")


def test_sdc_reports_an_unverified_witness_when_the_slice_overflows(capsys, files):
    # the witness's clone slice exceeds the limit, so the verdict stands unproved
    code, out, err = run(capsys, ["sdc", files["n5"], "--limit", "1"])
    payload = json.loads(out)
    assert code == 0 and err == ""
    assert payload["holds"] is False and payload["route"] == "non-distributive-lattice"
    assert payload["verified"] is False and "gapTuple" not in payload
    assert payload["witness"]["arity"] == 2


def test_bad_arguments_exit_one(capsys, files):
    assert main(["clone", files["n5"]]) == 1  # missing -n
    assert main(["frobnicate"]) == 1


def test_relation_schema_round_trip(capsys, files):
    code, out, _ = run(capsys, ["eval", files["b2"], "-e", "x <= y"])
    payload = json.loads(out)
    tuples = [tuple(t) for t in payload["tuples"]]
    assert tuples == sorted(tuples)
    b2 = catalog.boolean_lattice(2)
    expected = eval_formula(parse_formula("x <= y"), b2)
    assert tuples == list(expected.tuples)


@pytest.mark.parametrize("argv, status", [
    (["clone", "b2", "-n", "2"], 0),
    (["check", "bad"], 1),
    (["qe", "c3", "-e", "exists u . (x /\\ u = y)"], 2),
])
def test_a_process_answers_as_main_does(capsys, files, argv, status):
    argv = [files.get(arg, arg) for arg in argv]
    code, out, err = run(capsys, argv)
    child = process(argv, text=True)
    child_out, child_err = child.communicate()
    assert code == status
    assert (child.returncode, child_out, child_err) == (code, out, err)


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_closed_stdout_pipe_ends_the_process_quietly(files, monkeypatch, unbuffered):
    # buffered, the answer waits for the flush in run(); unbuffered, print fails
    monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    with process(["check", files["b2"]]) as child:
        child.stdout.close()  # the reader is gone before anything is written
        err = child.stderr.read()
    assert child.returncode == 1
    assert err == b""  # no traceback, and no "Exception ignored" at shutdown


def test_main_leaves_the_collector_alone(capsys, files):
    before = gc.get_freeze_count()
    assert main(["clone", files["b2"], "-n", "2"]) == 0
    assert gc.get_freeze_count() == before


def test_run_freezes_the_heap_once_main_returns(capsys, files, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["latclone", "check", files["n5"]])
    try:
        assert cli.run() == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert json.loads(capsys.readouterr().out)["forbidden"]["kind"] == "N5"


def test_run_ends_quietly_when_the_reader_stops_early(capsys, tmp_path, monkeypatch):
    # latclone clone b3.json -n 4 | head -c 20: the answer outgrows the pipe,
    # and the reader closes it after 20 bytes while print is still writing
    b3 = catalog.boolean_lattice(3)
    path = tmp_path / "b3.json"
    path.write_text(json.dumps({"elements": list(b3.names), "meet": b3.meet}), encoding="utf-8")
    read_end, write_end = os.pipe()
    head = []

    def reader():
        head.append(os.read(read_end, 20))
        os.close(read_end)

    thread = threading.Thread(target=reader)
    thread.start()
    stdout = open(write_end, "w", encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "argv", ["latclone", "clone", str(path), "-n", "4"])
    try:
        assert cli.run() == 1
    finally:
        gc.unfreeze()
        stdout.close()  # its fd now points at os.devnull, so the last flush succeeds
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert head[0].startswith(b'{"arity":4')
    assert capsys.readouterr().err == ""
