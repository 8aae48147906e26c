"""Tests of the benchmark itself: determinism, span coverage, patching, refusals.

    python3 -m pytest bench/test_bench.py

They take about a minute: session-mix runs in full, slice-cold and
cli-oneshot on subsets that leave out their multi-second requests.
"""

import json
import random
import shutil
import subprocess
import sys

import pytest

import run
import serve
import spans

serve._import_program()

import workloads  # noqa: E402  (needs latclone from src/ on the path)
from latclone import errors  # noqa: E402

SEED = 7
# Slices of a second or more, left out of the in-process subset.
SLOW_SLICES = {"centralizer:B3:lattice:2", "clone:B3:lattice:4", "centralizer:M3:semilattice:2",
               "centralizer:B2:lattice:3", "centralizer:C6:lattice:3:limit=10"}
CLI_SUBSET = 14

# Where the package binds public functions by name, besides their own module.
KNOWN_SITES = (
    ("equations", "clone_slice"), ("cli", "clone_slice"),
    ("sdc", "is_solution_set"),
    ("qe", "is_boolean"), ("sdc", "is_boolean"), ("cli", "is_boolean"),
    ("qe", "is_distributive"), ("sdc", "is_distributive"), ("cli", "is_distributive"),
    ("qe", "is_distributive_semilattice"), ("sdc", "is_distributive_semilattice"),
    ("cli", "is_distributive_semilattice"),
    ("sdc", "eval_formula"), ("cli", "eval_formula"),
)


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("bench")
    made = run.Runner(workdir)
    made.probe.start()
    yield made
    made.probe.stop()
    made.kill()


def _slice_subset_pass():
    specs = [s for s in workloads.slice_cold_specs() if workloads.slice_key(s) not in SLOW_SLICES]
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, _, digests, problems, _ = serve.run_pass(workloads.slice_cold_requests(SEED, specs))
    finally:
        tracer.uninstall()
    return digests, problems, tracer.summary()


def _cli_subset(runner):
    runner.serve("cli-oneshot", SEED)
    with open(runner.workdir / "pass.json", encoding="utf-8") as handle:
        requests = json.load(handle)
    fixed = [r for r in requests if r["key"] in workloads.CLI_FIXED]
    return fixed + [r for r in requests if r["key"] not in workloads.CLI_FIXED][:CLI_SUBSET]


@pytest.fixture(scope="module")
def traced(runner):
    """Two traced runs of one seed for each workload: (digests or None, summary) pairs."""
    out = {"session-mix": [], "slice-cold": [], "cli-oneshot": []}
    cli_requests = _cli_subset(runner)
    for _ in range(2):
        _, result = runner.serve("session-mix", SEED, trace=True)
        assert result.failures == []
        with open(runner.workdir / "pass.json", encoding="utf-8") as handle:
            digests = json.load(handle)["digests"]
        out["session-mix"].append((digests, result.trace))
        digests, problems, summary = _slice_subset_pass()
        assert problems == []
        out["slice-cold"].append((digests, summary))
        cli = runner.cli_pass(cli_requests, trace=True)
        assert cli.failures == []
        out["cli-oneshot"].append((None, cli.trace))
    return out


def _work(summary):
    return {name: value for name, value in
            spans.layer_metrics(summary, 0.0, 0.0).items() if name in spans.WORK_COUNTERS}


@pytest.mark.parametrize("workload", ["session-mix", "slice-cold", "cli-oneshot"])
def test_same_seed_gives_same_digests_and_work(traced, workload):
    (digests_a, summary_a), (digests_b, summary_b) = traced[workload]
    assert digests_a == digests_b
    assert _work(summary_a) == _work(summary_b)


def test_every_wrapped_function_fires(traced):
    fired = set()
    for runs in traced.values():
        for _, summary in runs:
            fired |= set(summary["self_s"])
    assert fired == {span for _, _, span in spans.TARGETS}


def test_wrappers_reach_every_binding_site():
    import latclone

    tracer = spans.Tracer()
    tracer.install()
    try:
        for module, name in KNOWN_SITES:
            value = getattr(sys.modules[f"latclone.{module}"], name)
            assert hasattr(value, "__bench_span__"), f"latclone.{module}.{name} not wrapped"
        assert hasattr(latclone.clone_slice, "__bench_span__")
        assert hasattr(latclone.EqTheory.closure, "__bench_span__")
    finally:
        tracer.uninstall()
    assert spans.patched_sites() == []


def test_untraced_run_leaves_nothing_patched(runner):
    _, result = runner.serve("session-mix", SEED)
    with open(runner.workdir / "pass.json", encoding="utf-8") as handle:
        assert json.load(handle)["patched"] == []
    assert result.failures == []
    assert result.trace is None


def test_slice_cold_refusals_raise_limit_exceeded():
    refusals = [s for s in workloads.slice_cold_specs() if s[4] is not None]
    assert len(refusals) == 2
    for request in workloads.slice_cold_requests(SEED, refusals):
        assert request.expect_refusal
        with pytest.raises(errors.LimitExceeded):
            request.call()


def test_cli_refusals_exit_with_their_status(runner):
    refusals = {key: code for key, code in workloads.CLI_FIXED.items() if code != 0}
    assert set(refusals.values()) == {1, 2}
    runner.serve("cli-oneshot", SEED)
    with open(runner.workdir / "pass.json", encoding="utf-8") as handle:
        fixed = [r for r in json.load(handle) if r["key"] in refusals]
    assert {r["key"]: r["checks"]["exit"] for r in fixed} == refusals
    # cli_pass fails a request whose exit status differs from checks["exit"].
    assert runner.cli_pass(fixed).failures == []


def test_changed_input_is_told_apart_from_wrong_answer():
    inputs, answers = {"k": "input"}, {"k": "answer"}
    assert run.against_record("k", "input", "answer", inputs, answers) is None
    assert run.against_record("k", "input", "other", inputs, answers).startswith("answer differs")
    assert run.against_record("k", "other", "other", inputs, answers).startswith("input changed")


def test_formula_search_gives_up_with_a_clear_error(monkeypatch):
    monkeypatch.setattr(workloads, "MAX_FORMULA_DRAWS", 3)
    with pytest.raises(workloads.InputError, match="in 3 draws"):
        workloads._shaped_formula(random.Random(0), "lattice", 50, 0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "session-mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
