"""Run the cases that records.json lists as "did not finish within N s".

    python3 bench/dnf.py

They stay out of every gated workload, so no benchmark run pays for them.
Each case runs in a fresh process with its address space capped, because
the clone case grows by about 180 MB a second, and is killed after
DNF_SECONDS seconds. The printed verdicts are what records.json should say.
"""

import argparse
import json
import resource
import subprocess
import sys
from time import perf_counter

import run

ADDRESS_SPACE_CAP = 1536 * 2 ** 20
DNF_SECONDS = 30

# name -> (slice kind, catalog structure, arity, limit or None for the default)
CASES = {
    "clone N5 n=4, default limit": ("clone", "pentagon", (), 4, None),
    "centralizer chain(12) k=3, limit=10": ("centralizer", "chain", (12,), 3, 10),
}


def _run_case(name):
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    sys.path.insert(0, str(run.SRC))
    from latclone import catalog, errors, operations

    kind, factory, factory_args, arity, limit = CASES[name]
    gens = operations.generators(getattr(catalog, factory)(*factory_args), "lattice")
    engine = operations.clone_slice if kind == "clone" else operations.centralizer_slice
    kwargs = {} if limit is None else {"limit": limit}
    start = perf_counter()
    try:
        outcome = f"{len(engine(gens, arity, **kwargs))} tables"
    except errors.LimitExceeded:
        outcome = "LimitExceeded"
    except MemoryError:
        outcome = f"MemoryError at the {ADDRESS_SPACE_CAP >> 20} MiB address-space cap"
    print(json.dumps({"outcome": outcome, "seconds": round(perf_counter() - start, 1)}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", choices=sorted(CASES), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.case is not None:
        return _run_case(args.case)
    for name in CASES:
        child = subprocess.Popen([sys.executable, __file__, "--case", name],
                                 stdout=subprocess.PIPE, text=True, env=run._child_env())
        try:
            out, _ = child.communicate(timeout=DNF_SECONDS)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            print(f"{name}: did not finish within {DNF_SECONDS} s")
            continue
        result = json.loads(out)
        verdict = ("finished" if result["outcome"].endswith("tables") else
                   "refused" if result["outcome"] == "LimitExceeded" else "did not finish")
        print(f"{name}: {verdict} ({result['outcome']} after {result['seconds']} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
