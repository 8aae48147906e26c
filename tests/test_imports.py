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


def test_evaluating_verbs_load_numpy(b2):
    assert _python(CLI_THEN_REPORT, "eval", b2, "-e", "x <= y")[-1] == "0 True"


def test_public_names_are_their_home_module_objects():
    for name in latclone.__all__:
        home = importlib.import_module(f"latclone.{latclone._HOME_OF[name]}")
        value = getattr(latclone, name)
        assert value is getattr(home, name) and value.__module__ == home.__name__, name
    assert set(latclone.__all__) <= set(dir(latclone))


def test_cli_resolves_engine_names_and_refuses_unknown_ones():
    from latclone import cli, formulas, operations

    assert cli.clone_slice is operations.clone_slice
    assert cli.eval_formula is formulas.eval_formula
    for module in (latclone, cli):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
    assert not hasattr(latclone, "no_such_name")
