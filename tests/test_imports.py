"""What the package and each CLI verb load: numpy only where a verb computes with it."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latclone

SRC = str(Path(latclone.__file__).resolve().parent.parent)

# Runs latclone.cli.main on the arguments in a fresh interpreter, then prints
# the exit status and whether numpy was loaded as the last line of stdout.
CLI_THEN_REPORT = ("import sys, latclone.cli\n"
                   "code = latclone.cli.main(sys.argv[1:])\n"
                   "print(code, 'numpy' in sys.modules)\n")


def _python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.fixture
def b2(tmp_path):
    path = tmp_path / "b2.json"
    path.write_text(json.dumps({"elements": ["0", "a", "b", "ab"],
                                "covers": [[0, 1], [0, 2], [1, 3], [2, 3]]}), encoding="utf-8")
    return str(path)


def test_importing_the_package_loads_no_engine():
    loaded = _python("import sys, latclone\n"
                     "print(sorted(m for m in sys.modules if m.startswith('latclone')))\n"
                     "print('numpy' in sys.modules)")
    assert loaded == ["['latclone']", "False"]


@pytest.mark.parametrize("argv, code", [
    (["check"], 0),
    (["props"], 0),
    (["qe", "-e", "exists u . x <= u & u <= y"], 0),
    (["eval", "-e", "x <="], 1),
])
def test_lattice_and_qe_verbs_run_without_numpy(b2, argv, code):
    verb, *rest = argv
    assert _python(CLI_THEN_REPORT, verb, b2, *rest)[-1] == f"{code} False"


@pytest.fixture
def files(tmp_path, b2):
    """The structure files B2, N5, M3, C4, the fence and B3, a binary
    relation, one with an entry out of range and a unary system on B2."""
    paths = {"b2": b2}
    for name, elements, covers in (
            ("n5", ["0", "a", "b", "c", "1"], [[0, 1], [1, 2], [2, 4], [0, 3], [3, 4]]),
            ("m3", ["0", "a", "b", "c", "1"], [[0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 4]]),
            ("c4", ["0", "1", "2", "3"], [[0, 1], [1, 2], [2, 3]])):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({"elements": elements, "covers": covers}),
                               encoding="utf-8")
    paths["fence"] = tmp_path / "fence.json"
    paths["fence"].write_text(json.dumps({"elements": ["0", "a", "b", "c"], "kind": "semilattice",
                                          "covers": [[0, 1], [1, 3], [0, 2]]}), encoding="utf-8")
    paths["b3"] = tmp_path / "b3.json"
    paths["b3"].write_text(json.dumps({"elements": ["0", "a", "b", "ab", "c", "ac", "bc", "abc"],
                                       "covers": [[0, 1], [0, 2], [0, 4], [1, 3], [1, 5], [2, 3],
                                                  [2, 6], [4, 5], [4, 6], [3, 7], [5, 7], [6, 7]]}),
                           encoding="utf-8")
    paths["rel"] = tmp_path / "rel.json"
    paths["rel"].write_text(json.dumps({"arity": 2, "tuples": [[0, 1], [1, 0]]}), encoding="utf-8")
    paths["bad"] = tmp_path / "bad.json"
    paths["bad"].write_text(json.dumps({"arity": 2, "tuples": [[0, 9]]}), encoding="utf-8")
    paths["sys"] = tmp_path / "sys.json"
    paths["sys"].write_text(json.dumps({"arity": 1, "pairs": [[[0, 1, 1, 3], [0, 1, 2, 3]]]}),
                            encoding="utf-8")
    return {name: str(path) for name, path in paths.items()}


# Formula masks are Python ints on every carrier, so the verbs that evaluate
# formulas (sdc through its round trips on a positive verdict) load no
# numpy. Nor do galois, a negative sdc, clone, centralizer and eq where the
# structure has a two-valued family (every semilattice, and a distributive
# lattice in lattice mode): their closures are ints over the two-element
# factor, and their tables byte-coded ints. A relation with an entry out of
# range is refused before any engine loads.
@pytest.mark.parametrize("argv, code", [
    (["eval", "b2", "-e", "exists u . x /\\ u = y"], 0),
    (["eval", "n5", "-e", "exists u . x /\\ u = y /\\ u & x \\/ u = y \\/ u"], 0),
    (["eval", "c4", "--mode", "semilattice", "-e", "exists u . x /\\ u = y & u <= z"], 0),
    (["solve", "b2", "-e", "x /\\ y <= z"], 0),
    (["sdc", "b2"], 0),
    (["galois", "b2", "-T", "rel"], 0),
    (["galois", "n5", "--mode", "semilattice", "-T", "rel"], 0),
    (["sdc", "c4"], 0),
    (["sdc", "m3", "--mode", "semilattice"], 0),
    (["galois", "n5", "-T", "bad"], 1),
    (["clone", "b2", "-n", "2"], 0),
    (["centralizer", "b2", "-k", "1"], 0),
    (["eq", "b2", "-T", "rel"], 0),
    (["clone", "n5", "--mode", "semilattice", "-n", "2"], 0),
    (["centralizer", "n5", "--mode", "semilattice", "-k", "1"], 0),
    (["eq", "n5", "--mode", "semilattice", "-T", "rel"], 0),
], ids=["eval-b2", "eval-n5", "eval-c4-semilattice", "solve-e-b2", "sdc-b2", "galois-b2",
        "galois-n5-semilattice", "sdc-c4", "sdc-m3-semilattice", "galois-out-of-range",
        "clone-b2", "centralizer-b2", "eq-b2", "clone-n5-semilattice",
        "centralizer-n5-semilattice", "eq-n5-semilattice"])
def test_evaluating_verbs_run_without_numpy(files, argv, code):
    argv = [files.get(a, a) for a in argv]
    assert _python(CLI_THEN_REPORT, *argv)[-1] == f"{code} False"


# eval reads a carrier of 2^k elements on the two-element factor only when
# is_boolean says it is a Boolean power: on C4 and the fence, which are not,
# it loads neither numpy nor the family module, and on B3 the family alone.
@pytest.mark.parametrize("argv, loaded", [
    (["eval", "c4", "-e", "exists u . x /\\ u = y & u <= z"], "False False"),
    (["eval", "c4", "--mode", "semilattice", "-e", "exists u . x /\\ u = y"], "False False"),
    (["eval", "fence", "-e", "exists u . x /\\ u = y & u <= z"], "False False"),
    (["eval", "b3", "-e", "exists u . x /\\ u = y & x \\/ u = z"], "False True"),
], ids=["eval-c4", "eval-c4-semilattice", "eval-fence", "eval-b3"])
def test_eval_loads_the_family_module_only_for_a_boolean_power(files, argv, loaded):
    argv = [files.get(a, a) for a in argv]
    report = CLI_THEN_REPORT.replace("'numpy' in sys.modules)",
                                     "'numpy' in sys.modules, 'latclone.twovalued' in sys.modules)")
    assert _python(report, *argv)[-1] == f"0 {loaded}"


# Raw value tables (solve --system) still load it, and so do the table verbs
# on N5 in lattice mode, which has no family: clone, centralizer and eq, and
# galois and sdc through a clone slice
@pytest.mark.parametrize("argv", [
    ["clone", "n5", "-n", "2"],
    ["centralizer", "n5", "-k", "1"],
    ["eq", "n5", "-T", "rel"],
    ["solve", "b2", "--system", "sys"],
    ["sdc", "n5"],
    ["galois", "n5", "-T", "rel"],
], ids=["clone-n5", "centralizer-n5", "eq-n5", "solve-system", "sdc-n5", "galois-n5"])
def test_table_verbs_load_numpy(files, argv):
    argv = [files.get(a, a) for a in argv]
    assert _python(CLI_THEN_REPORT, *argv)[-1] == "0 True"


def test_public_names_are_their_home_module_objects():
    for name in latclone.__all__:
        home = importlib.import_module(f"latclone.{latclone._HOME_OF[name]}")
        value = getattr(latclone, name)
        assert value is getattr(home, name) and value.__module__ == home.__name__, name
    assert set(latclone.__all__) <= set(dir(latclone))


def test_cli_resolves_engine_names_and_refuses_unknown_ones():
    from latclone import cli, equations, formulas, operations, sdc

    assert cli.clone_slice is operations.clone_slice
    assert cli.eval_formula is formulas.eval_formula
    assert sdc.is_solution_set is equations.is_solution_set
    for module in (latclone, cli, sdc):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
    assert not hasattr(latclone, "no_such_name")
