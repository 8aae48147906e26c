"""One fresh process of the benchmark: set up, say "ready", then serve one pass.

    python bench/serve.py slice-cold|session-mix --seed N --out FILE [--trace] [--setup-only]
    python bench/serve.py cli-oneshot --seed N --out FILE --workdir DIR

Set-up is importing latclone, building the fixtures and building the
request list. The parent times it up to the "ready" line on stdout, which
also gives the set-up's speed factor (speed.py) and the seconds the speed
probe's handler took out of it. The pass
then sends every request once, in order, through one closed-loop client,
and writes per-request latencies, input and answer digests, invariant
failures and (with --trace) the span summary to FILE as JSON; the parent
compares the digests with the recorded ones. For cli-oneshot this process
only writes the fixture files and the request list; the parent runs the CLI.

Exits with status 1 and a message when the checkout holds no latclone
under src/.
"""

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

import spans
import speed

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def _import_program():
    sys.path.insert(0, str(SRC))
    try:
        import latclone
    except ImportError as exc:
        sys.exit(f"serve: cannot import latclone from {SRC}: {exc}")
    if not Path(latclone.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"serve: latclone was imported from {latclone.__file__}, not from {SRC}")


def run_pass(requests, probe=None):
    """Send each request once.

    Returns the latencies (s), the (start, end) times of the requests, the
    answer digests, the invariant problems found, and (request, answer)
    pairs whose request has a check that must wait until the pass is over.
    Time the speed probe's handler spent inside a request is not part of
    its latency.
    """
    from latclone import errors
    import workloads

    probe = probe or speed.SpeedProbe()
    latencies, intervals, digests, problems, deferred = [], [], {}, [], []
    for request in requests:
        result, refusal, failure = None, None, None
        stolen = probe.spent
        start = perf_counter()
        try:
            result = request.call()
        except errors.Refusal as exc:
            refusal = type(exc).__name__
        except Exception as exc:  # the client reports the failure and keeps serving
            failure = f"{type(exc).__name__}: {exc}"
        end = perf_counter()
        latencies.append(end - start - (probe.spent - stolen))
        intervals.append((start, end))
        if failure is not None:
            problems.append({"key": request.key, "why": failure})
            continue
        if refusal is not None:
            payload, problem = {"refused": refusal}, None
            if not request.expect_refusal:
                problem = f"unexpected refusal {refusal}"
        else:
            payload, problem = request.answer(result)
            if request.expect_refusal:
                problem = "expected a refusal, got an answer"
        del result
        digests[request.key] = workloads.digest(payload)
        if problem is not None:
            problems.append({"key": request.key, "why": problem})
        if request.after is not None:
            deferred.append((request, payload))
    return latencies, intervals, digests, problems, deferred


def deferred_checks(deferred):
    """Run the checks that call into the program; only after the timed pass."""
    problems = []
    for request, payload in deferred:
        problem = request.after(payload)
        if problem is not None:
            problems.append({"key": request.key, "why": problem})
    return problems


def input_digests(requests):
    """The digest of every request's input; only after the timed pass."""
    import workloads

    return {request.key: workloads.digest(request.given()) for request in requests}


def _ready(probe, started):
    """Tell the parent that set-up is done, with its speed factor and the probe's time."""
    probe.sample()
    print(f"ready {probe.factor(started, perf_counter())} {probe.spent}", flush=True)


def _requests(workload, seed):
    import workloads

    if workload == "slice-cold":
        return workloads.slice_cold_requests(seed)
    if workload == "session-mix":
        return workloads.session_mix_requests(workloads.session_mix_keys(seed))
    raise ValueError(f"unknown in-process workload {workload!r}")


def main():
    started = perf_counter()
    probe = speed.SpeedProbe()
    probe.start()
    try:
        return _serve(probe, started)
    finally:
        probe.stop()


def _serve(probe, started):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=["cli-oneshot", "slice-cold", "session-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir", default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    _import_program()
    import workloads

    if args.workload == "cli-oneshot":
        requests = workloads.write_cli_fixtures(workloads.cli_keys(args.seed), args.workdir)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(requests, handle)
        _ready(probe, started)
        return 0

    requests = _requests(args.workload, args.seed)
    _ready(probe, started)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    try:
        latencies, intervals, digests, problems, deferred = run_pass(requests, probe)
    finally:
        probe.stop()
        if tracer is not None:
            tracer.uninstall()

    problems += deferred_checks(deferred)
    result = {
        "inputs": input_digests(requests),
        "latencies": [t * probe.factor(start, end)
                      for t, (start, end) in zip(latencies, intervals)],
        "raw_latencies": latencies,
        "attempted": len(requests),
        "failures": problems,
        "digests": digests,
        "patched": spans.patched_sites(),
        "trace": None if tracer is None else tracer.summary(),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
