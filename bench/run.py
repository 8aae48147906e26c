"""The latclone benchmark: three workloads, end-to-end metrics, per-layer tracing.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--trace 0|1]     # every workload, one pass each

Workloads (see BENCHMARK.json and records.json for why each exists):

  cli-oneshot  each request is a fresh ``python -m latclone.cli VERB ...``
               process reading fixture files the benchmark wrote.
  slice-cold   a fresh process works through every distinct clone and
               centralizer slice of the list; no key repeats.
  session-mix  a fresh process serves a seeded stream of several hundred
               interleaved library requests; slices repeat.

All three are closed loops with one client. A pass runs the workload's
seeded request list once in fresh processes; a run makes passes until
--seconds is used up (at least one) and reports medians over them. Answers
are checked against digests recorded at the seed commit (digests.json) and
against invariants; a failed check counts the request as failed. So are
the inputs the program generates for the benchmark (inputs.json), so that
a changed input is reported as such. Request and set-up times are scaled
to a reference host speed sampled while they run (speed.py); the line
before the result line, "as_timed {...}", gives each metric's value as
timed, before scaling.

With --trace 0 the run measures the end-to-end metrics with nothing
patched. With --trace 1 it makes one untraced and one traced pass and
reports the per-layer metrics of spans.py from the traced one.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The exit status is 0 only when the run completed; the program is
read from src/ next to this directory and built nowhere else.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans
import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"
DIGESTS = BENCH_DIR / "digests.json"
INPUTS = BENCH_DIR / "inputs.json"

WORKLOADS = ("cli-oneshot", "slice-cold", "session-mix")
SETUP_SAMPLES = 10       # set-ups timed per run; set-up-only processes make up the count
IMPORT_SAMPLES = 5       # fresh interpreters timing `import latclone.cli`
DEADLINE_S = 170         # per workload; a run never outlives it, children are killed first

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("req_p50_ms", "ms"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The run could not be completed; no result is printed."""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def cli_digest(code, stdout) -> str:
    """Exit status and the first 16 hex digits of the SHA-256 of stdout."""
    return f"{code}:{hashlib.sha256(stdout).hexdigest()[:16]}"


def against_record(key, given, answer, inputs, answers):
    """None when a request's input and answer digests are the recorded ones; else why not."""
    if inputs.get(key) != given:
        return "input changed: the program generated another input than the recorded one"
    if answers.get(key) != answer:
        return "answer differs from the recorded digest"
    return None


def check_cli_output(request, code, stdout, inputs, answers):
    """None when a CLI answer is right; otherwise what is wrong with it."""
    checks = request["checks"]
    problem = against_record(request["key"], request["input"], cli_digest(code, stdout),
                             inputs, answers)
    if problem is not None and problem.startswith("input"):
        return problem
    if code != checks["exit"]:
        return f"exit status {code}, expected {checks['exit']}"
    if problem is not None:
        return problem
    if code != 0:
        return None
    payload = json.loads(stdout)
    if "count" in checks and payload["count"] != checks["count"]:
        return f"semilattice clone slice has {payload['count']} tables, not {checks['count']}"
    if "superset" in checks:
        closure = {tuple(t) for t in payload["closure"]["tuples"]}
        if not {tuple(t) for t in checks["superset"]} <= closure:
            return "Galois closure misses part of T"
    if checks.get("quantifier_free") and "exists" in payload["formula"]:
        return "eliminated formula keeps a quantifier"
    return None


def p90_ms(values):
    """The 90th percentile in ms, or None with fewer than ten samples beyond it."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10, method="inclusive")[8] * 1000


class Pass:
    """One pass over a request list: latencies, failures and peak memory.

    ``latencies`` are scaled to the reference host speed (speed.py);
    ``raw_latencies`` are as timed.
    """

    def __init__(self, latencies, attempted, failures, rss_mb, trace, raw_latencies):
        self.latencies = latencies
        self.raw_latencies = raw_latencies
        self.attempted = attempted
        self.failures = failures
        self.rss_mb = rss_mb
        self.trace = trace

    @property
    def wall_s(self):
        return sum(self.latencies)


class Runner:
    """Starts, times and reaps every child process of one benchmark run.

    Its speed probe samples the host's speed for cli-oneshot and, once
    started, ends the run with BenchError after deadline_s seconds.
    """

    def __init__(self, workdir, deadline_s=None):
        self.workdir = workdir
        self.env = _child_env()
        self.child = None
        self.deadline = None if deadline_s is None else perf_counter() + deadline_s
        self.probe = speed.SpeedProbe(hook=self._check_deadline)
        with open(DIGESTS, encoding="utf-8") as handle:
            self.digests = json.load(handle)
        with open(INPUTS, encoding="utf-8") as handle:
            self.inputs = json.load(handle)

    def _start(self, argv, stdout, stderr, cwd=None):
        self.child = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=cwd, env=self.env)
        return self.child

    def _reap(self):
        """Wait for the current child; return its exit status and peak RSS in MB."""
        _, status, usage = os.wait4(self.child.pid, 0)
        self.child.returncode = os.waitstatus_to_exitcode(status)
        code, self.child = self.child.returncode, None
        return code, usage.ru_maxrss / 1024

    def _check_deadline(self):
        if self.deadline is not None and perf_counter() > self.deadline:
            self.deadline = None
            raise BenchError("run exceeded its deadline")

    def kill(self):
        if self.child is not None and self.child.returncode is None:
            self.child.kill()
            self._reap()

    def _stderr_tail(self):
        text = (self.workdir / "stderr").read_text(encoding="utf-8", errors="replace")
        return text.strip().splitlines()[-1:] or ["(no message)"]

    def serve(self, workload, seed, trace=False, setup_only=False):
        """Start a serve.py process; return its set-up time (scaled, as timed) and Pass or None.

        The set-up time runs from the start of the process to its "ready"
        line, less the time the process's speed probe took.
        """
        out = self.workdir / "pass.json"
        argv = [sys.executable, str(BENCH_DIR / "serve.py"), workload,
                "--seed", str(seed), "--out", str(out), "--workdir", str(self.workdir)]
        if trace:
            argv.append("--trace")
        if setup_only:
            argv.append("--setup-only")
        with open(self.workdir / "stderr", "wb") as err:
            start = perf_counter()
            child = self._start(argv, subprocess.PIPE, err)
            line = child.stdout.readline().split()
            took = perf_counter() - start
            child.stdout.read()
            child.stdout.close()
            code, rss_mb = self._reap()
        if code != 0 or line[:1] != [b"ready"]:
            raise BenchError(f"{workload} process failed (exit {code}): {self._stderr_tail()[0]}")
        factor, probe_s = float(line[1]), float(line[2])
        setup = ((took - probe_s) * factor, took - probe_s)
        if setup_only or workload == "cli-oneshot":
            return setup, None
        with open(out, encoding="utf-8") as handle:
            result = json.load(handle)
        failures = list(result["failures"])
        for key, given in result["inputs"].items():
            problem = against_record(key, given, result["digests"].get(key),
                                     self.inputs[workload], self.digests[workload])
            if problem is not None:
                failures.append({"key": key, "why": problem})
        if result["patched"]:
            failures.append({"key": "(process)", "why": f"left patched: {result['patched']}"})
        return setup, Pass(result["latencies"], result["attempted"], failures, rss_mb,
                           result["trace"], result["raw_latencies"])

    def cli_pass(self, requests, trace=False):
        latencies, intervals, failures, summaries, rss_mb = [], [], [], [], 0.0
        summary_path = self.workdir / "summary.json"
        for request in requests:
            if trace:
                argv = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(summary_path)]
            else:
                argv = [sys.executable, "-m", "latclone.cli"]
            argv += request["argv"]
            with open(self.workdir / "stdout", "wb") as out, \
                    open(self.workdir / "stderr", "wb") as err:
                start = perf_counter()
                self._start(argv, out, err, cwd=self.workdir)
                code, child_rss = self._reap()
                end = perf_counter()
            latencies.append(end - start)
            intervals.append((start, end))
            rss_mb = max(rss_mb, child_rss)
            stdout = (self.workdir / "stdout").read_bytes()
            problem = check_cli_output(request, code, stdout, self.inputs["cli-oneshot"],
                                       self.digests["cli-oneshot"])
            if problem is not None:
                failures.append({"key": request["key"], "why": problem})
            if trace:
                with open(summary_path, encoding="utf-8") as handle:
                    summaries.append(json.load(handle))
        scaled = [(end - start) * self.probe.factor(start, end) for start, end in intervals]
        return Pass(scaled, len(requests), failures, rss_mb,
                    spans.merge(summaries) if trace else None, latencies)

    def import_seconds(self):
        """Median time a fresh interpreter takes to import latclone.cli."""
        code = ("import time; t = time.perf_counter(); import latclone.cli; "
                "print(time.perf_counter() - t)")
        samples = []
        for _ in range(IMPORT_SAMPLES):
            with open(self.workdir / "stdout", "wb") as out, \
                    open(self.workdir / "stderr", "wb") as err:
                self._start([sys.executable, "-c", code], out, err)
                status, _ = self._reap()
            if status != 0:
                raise BenchError(f"import latclone.cli failed: {self._stderr_tail()[0]}")
            samples.append(float((self.workdir / "stdout").read_text()))
        return statistics.median(samples)


def run_workload(runner, workload, seed, seconds, trace):
    """Run one workload.

    Returns the passes, the set-up times as (scaled, as timed) pairs, and
    the per-layer metrics of a traced run or None. Each serving process
    times one set-up; after the passes, set-up-only processes make the
    count up to SETUP_SAMPLES. For cli-oneshot a set-up is a process that
    writes the fixture files, and the first one writes those the run uses.
    """
    setups = []
    if workload == "cli-oneshot":
        setups.append(runner.serve(workload, seed)[0])
        with open(runner.workdir / "pass.json", encoding="utf-8") as handle:
            requests = json.load(handle)

        def one_pass(traced=False):
            return runner.cli_pass(requests, trace=traced)
    else:
        def one_pass(traced=False):
            setup, result = runner.serve(workload, seed, trace=traced)
            setups.append(setup)
            return result

    if trace:
        plain = one_pass()
        traced = one_pass(traced=True)
        layers = spans.layer_metrics(traced.trace, runner.import_seconds(),
                                     traced.wall_s / plain.wall_s - 1)
        passes = [plain, traced]
    else:
        layers, passes = None, []
        start = perf_counter()
        while not passes or perf_counter() - start + sum(passes[-1].raw_latencies) <= seconds:
            passes.append(one_pass())
    while layers is None and len(setups) < SETUP_SAMPLES:
        setups.append(runner.serve(workload, seed, setup_only=True)[0])
    return passes, setups, layers


def end_to_end(passes, setups, raw=False):
    """The END_TO_END metrics, and req_p90_ms (None where undefined) to print beside them."""
    per_pass = [p.raw_latencies if raw else p.latencies for p in passes]
    latencies = [t for pass_latencies in per_pass for t in pass_latencies]
    return {
        "setup_s": statistics.median(pair[1 if raw else 0] for pair in setups),
        "wall_s": statistics.median(sum(pass_latencies) for pass_latencies in per_pass),
        "req_p50_ms": statistics.median(latencies) * 1000,
        "peak_rss_mb": max(p.rss_mb for p in passes),
    }, p90_ms(latencies)


def report(workload, passes, setups, layers):
    """Print the workload's metrics by name and unit; return the result object."""
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    failed = len({(i, f["key"]) for i, p in enumerate(passes) for f in p.failures})
    samples = sum(len(p.latencies) for p in passes)
    for failure in failures[:10]:
        print(f"  FAILED {workload} {failure['key']}: {failure['why']}")
    print(f"{workload}: {len(passes)} pass(es), {samples} requests timed, "
          f"{len(setups)} set-ups")
    print(f"  fail_frac = {failed / attempted:.6f} ratio ({failed} of {attempted})")
    if layers is not None:
        units = dict(spans.METRICS)
        for name, value in layers.items():
            print(f"  {name} = {value:.6g} {units[name]}")
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
    else:
        (values, p90), (raw, raw_p90) = end_to_end(passes, setups), end_to_end(passes, setups, True)
        units = dict(END_TO_END, req_p90_ms="ms")
        print("  metric = value, scaled to the reference host speed (as timed)")
        for name, value in dict(values, req_p90_ms=p90).items():
            print(f"  {name} = {value:.6g} {units[name]} ({raw.get(name, raw_p90):.6g})"
                  if value is not None else
                  f"  {name}: undefined, fewer than 100 requests timed")
        print("  set-ups timed (s, scaled; serving processes first): "
              + " ".join(f"{scaled:.4f}" for scaled, _ in setups))
        print("as_timed " + json.dumps(raw))
        metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _on_term(signum, frame):
    raise BenchError("terminated")


def main():
    parser = argparse.ArgumentParser(description="latclone benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload; all of them, one pass each, when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "latclone" / "__init__.py").is_file():
        print(f"run: no latclone sources under {SRC}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"run-{os.getpid()}"
    workdir.mkdir()
    runner = Runner(workdir, DEADLINE_S * (1 if args.workload else len(WORKLOADS)))
    signal.signal(signal.SIGTERM, _on_term)
    runner.probe.start()
    try:
        if args.workload is not None:
            result = report(args.workload,
                            *run_workload(runner, args.workload, args.seed, args.seconds,
                                          args.trace))
        else:
            results = {w: report(w, *run_workload(runner, w, args.seed, 0, args.trace))
                       for w in WORKLOADS}
            result = {"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": {f"{w}.{name}": m for w, r in results.items()
                                  for name, m in r["metrics"].items()}}
    except BenchError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.probe.stop()
        runner.kill()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
