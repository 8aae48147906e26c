"""Record the answer and input digests that every benchmark run checks against.

    python3 bench/record.py

Runs every request in every workload's pool once, in this process, and
writes digests.json (answers) and inputs.json (the inputs the program
generates for the benchmark: formula text, relations, generator tables,
structure files). The digests are the reference answers: record them
once, at the commit whose output is to be kept byte for byte, and never
re-record to make a changed answer pass. Refuses to write when a request
fails one of its invariants.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import run
import serve


def _in_process(requests):
    _, _, digests, problems, deferred = serve.run_pass(requests)
    problems += serve.deferred_checks(deferred)
    return serve.input_digests(requests), digests, problems


def _cli(workloads):
    from latclone import cli

    pool = {key for keys in workloads.cli_pool().values() for key in keys}
    keys = sorted(pool | set(workloads.CLI_FIXED))
    inputs, digests, problems = {}, {}, []
    here = os.getcwd()
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as workdir:
        requests = workloads.write_cli_fixtures(keys, workdir)
        os.chdir(workdir)
        try:
            for request in requests:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(request["argv"])
                stdout = out.getvalue().encode("utf-8")
                inputs[request["key"]] = request["input"]
                digests[request["key"]] = run.cli_digest(code, stdout)
                problem = run.check_cli_output(request, code, stdout, inputs, digests)
                if problem is not None:
                    problems.append({"key": request["key"], "why": problem})
        finally:
            os.chdir(here)
    return inputs, digests, problems


def main():
    serve._import_program()
    import workloads

    run.WORK_ROOT.mkdir(exist_ok=True)
    inputs, answers, problems = {}, {}, []
    for name, job in (
            ("slice-cold", lambda: _in_process(workloads.slice_cold_requests(0))),
            ("session-mix", lambda: _in_process(
                workloads.session_mix_requests(workloads.session_mix_pool()))),
            ("cli-oneshot", lambda: _cli(workloads))):
        inputs[name], answers[name], found = job()
        problems += found
        print(f"{name}: {len(answers[name])} digests", flush=True)
    if problems:
        for problem in problems:
            print(f"FAILED {problem['key']}: {problem['why']}", file=sys.stderr)
        return 1
    for path, recorded in ((run.DIGESTS, answers), (run.INPUTS, inputs)):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(recorded, handle, indent=0, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
