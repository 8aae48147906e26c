"""Inputs, request lists and answer checks for the benchmark workloads.

Every request has a key that fixes its input completely. Each workload
draws its keys from a fixed pool, and a run's seed only chooses which keys
run and in what order, so every answer can be checked against the digest
recorded for its key in ``digests.json``.

The program is driven from outside only: requests call public functions
through their module attribute (``equations.solve``, not a local copy), so
the spans installed by ``spans.py`` see every call.
"""

import hashlib
import json
import os
import random

from latclone import catalog, equations, formulas, lattice, operations, qe, sdc, terms

STRUCTURES = {
    "C2": lambda: catalog.chain(2),
    "C3": lambda: catalog.chain(3),
    "C4": lambda: catalog.chain(4),
    "C5": lambda: catalog.chain(5),
    "C6": lambda: catalog.chain(6),
    "B2": lambda: catalog.boolean_lattice(2),
    "B3": lambda: catalog.boolean_lattice(3),
    "B4": lambda: catalog.boolean_lattice(4),
    "N5": catalog.pentagon,
    "M3": catalog.diamond,
    "fence": catalog.fence,
    "mB3": lambda: catalog.meet_reduct(catalog.boolean_lattice(3)),
    "mB4": lambda: catalog.meet_reduct(catalog.boolean_lattice(4)),
}
CATALOG = ("C3", "C4", "B2", "B3", "N5", "M3", "fence")


def digest(payload) -> str:
    """First 16 hex digits of the SHA-256 of the canonical JSON of an answer."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def modes(structure):
    return ("lattice", "semilattice") if structure.kind == "lattice" else ("semilattice",)


def build_structures(names):
    return {name: STRUCTURES[name]() for name in names}


def _ops_json(ops):
    return [{"values": list(op.values),
             "term": None if op.provenance is None else terms.render(op.provenance)}
            for op in ops]


def _relation_json(relation):
    return [list(t) for t in relation]


def _system_json(system):
    return [[list(f.values), list(g.values)] for f, g in system]


def _random_relation(rng, size, arity):
    cells = size ** arity
    count = rng.randint(1, min(12, cells))
    codes = sorted(rng.sample(range(cells), count))
    return [list(operations.decode_index(c, size, arity)) for c in codes]


# Draws _shaped_formula may make; at the seed commit no key of the pool needs more than 63.
MAX_FORMULA_DRAWS = 1000


class InputError(Exception):
    """The program no longer generates a workload input the benchmark asks for."""


def _shaped_formula(rng, mode, nfree, nbound, max_bound=2):
    """The first random_formula from rng with exactly nfree free and nbound bound variables."""
    for _ in range(MAX_FORMULA_DRAWS):
        phi = formulas.random_formula(rng, mode=mode, max_bound=max_bound)
        if len(phi.free_vars) == nfree and len(phi.bound_vars) == nbound:
            return phi
    raise InputError(f"random_formula gave no {mode} formula with {nfree} free and "
                     f"{nbound} bound variables in {MAX_FORMULA_DRAWS} draws")


class Request:
    """One timed call into the program plus the canonical form of its answer.

    ``call`` does the program's work and nothing else. ``answer`` turns its
    result into a JSON value and returns (value, problem), where problem is
    an invariant violation found on the result, or None. ``after``, when
    given, checks that value by calling into the program, so it runs only
    once the timed pass is over. ``given`` returns the request's input as a
    JSON value (the generator tables, the relation, the formula text); the
    program generates these inputs, so their digests are recorded too, and
    a changed input is told apart from a wrong answer. It is called only
    after the timed pass.
    """

    def __init__(self, key, call, answer, given, expect_refusal=False, after=None):
        self.key = key
        self.call = call
        self.answer = answer
        self.given = given
        self.expect_refusal = expect_refusal
        self.after = after


# ---------------------------------------------------------------- slice-cold

# The slices the ROADMAP and its baselines name (the heaviest take seconds),
# plus the two expected refusals. Every key of the workload is distinct, so
# clone_slice's memo can never serve a request within the process.
SLICE_HEAVY = (
    ("clone", "B3", "lattice", 4, None),
    ("clone", "C4", "lattice", 4, None),
    ("clone", "N5", "lattice", 3, None),
    ("clone", "M3", "lattice", 3, None),
    ("clone", "B3", "semilattice", 4, None),
    ("centralizer", "B3", "lattice", 2, None),
    ("centralizer", "M3", "semilattice", 2, None),
    ("centralizer", "B2", "lattice", 3, None),
    ("centralizer", "N5", "lattice", 2, None),
    ("centralizer", "C4", "lattice", 2, None),
    ("clone", "N5", "lattice", 4, 1000),
    ("centralizer", "C6", "lattice", 3, 10),
)
# Structures whose generator tables are distinct, so their slices never share a key.
SLICE_SWEEP_STRUCTURES = ("C2", "C3", "C4", "C5", "C6", "B2", "B3", "B4", "N5", "M3", "fence")
# Centralizer slices too slow for the sweep: 40 s and 2 s at the seed commit.
SLICE_SWEEP_SKIP = {("centralizer", "B4", "semilattice", 1), ("centralizer", "B4", "lattice", 1)}


def slice_cold_specs():
    """The full slice-cold request list: the heavy slices, then the sweep.

    The sweep takes, for every structure, the smallest arity at which its
    slices stop being trivial (a few tables computed in well under a
    millisecond): clone n=3 in lattice mode and n=4 in semilattice mode,
    centralizer k=2 on carriers of at most 4 elements and k=1 on the rest.
    """
    specs = list(SLICE_HEAVY)
    taken = {spec[:4] for spec in specs}
    structures = build_structures(SLICE_SWEEP_STRUCTURES)
    for name in SLICE_SWEEP_STRUCTURES:
        size = structures[name].size
        for mode in modes(structures[name]):
            sweep = [("clone", name, mode, 3 if mode == "lattice" else 4)]
            if size <= 4:
                sweep.append(("centralizer", name, mode, 2))
            if size >= 4:
                sweep.append(("centralizer", name, mode, 1))
            specs += [spec + (None,) for spec in sweep
                      if spec not in taken and spec not in SLICE_SWEEP_SKIP]
    return specs


def slice_key(spec):
    kind, name, mode, n, limit = spec
    return f"{kind}:{name}:{mode}:{n}" + ("" if limit is None else f":limit={limit}")


def _slice_request(spec, structures):
    kind, name, mode, n, limit = spec
    gens = operations.generators(structures[name], mode)
    kwargs = {} if limit is None else {"limit": limit}

    if kind == "clone":
        def call():
            return operations.clone_slice(gens, n, **kwargs)
    else:
        def call():
            return operations.centralizer_slice(gens, n, **kwargs)

    def answer(ops):
        problem = None
        if kind == "clone" and mode == "semilattice" and len(ops) != 2 ** n - 1:
            problem = f"semilattice clone slice has {len(ops)} tables, not {2 ** n - 1}"
        return {"count": len(ops), "operations": _ops_json(ops)}, problem

    return Request(slice_key(spec), call, answer, lambda: [list(op.values) for op in gens],
                   expect_refusal=limit is not None)


def slice_cold_requests(seed, specs=None):
    """The slice-cold requests: heavy slices first in a fixed order, then the sweep in the seed's.

    The heavy slices keep their order so that what the memo holds while each
    runs, and with it the peak memory, does not depend on the seed.
    """
    specs = slice_cold_specs() if specs is None else list(specs)
    heavy = [spec for spec in specs if spec in SLICE_HEAVY]
    sweep = [spec for spec in specs if spec not in SLICE_HEAVY]
    random.Random(seed).shuffle(sweep)
    specs = heavy + sweep
    names = sorted({spec[1] for spec in specs})
    structures = build_structures(names)
    return [_slice_request(spec, structures) for spec in specs]


# --------------------------------------------------------------- session-mix

CLOSURE_KINDS = ("is_solution_set", "galois_closure", "induced_system")
QE_TARGETS = (("B3", "lattice"), ("B4", "lattice"), ("C4", "semilattice"),
              ("mB3", "semilattice"), ("mB4", "semilattice"))
SOLVE_STRUCTURES = CATALOG + ("B4",)
SDC_VERIFY = 5
POOL_FACTOR = 4  # each stratum's pool holds this many times the draws a pass makes


def _pool_size(prefix, draws):
    """Pool size of a stratum: POOL_FACTOR times its draws, or its draws alone for QE
    on 16-element structures with five variables. One such request costs up to
    0.5 s, and drawing them by seed would swing the pass time by several percent,
    so every seed runs the same ones."""
    kind, name, *rest = prefix.split(":")
    if kind == "qe" and name in ("B4", "mB4") and int(rest[1]) + int(rest[2]) == 5:
        return draws
    return draws * POOL_FACTOR


def session_mix_strata():
    """(stratum key prefix, draws per pass) for every stratum of the mix."""
    structures = build_structures(CATALOG + ("B4", "mB3", "mB4"))
    strata = []
    for name in CATALOG:
        for mode in modes(structures[name]):
            for arity in (1, 2, 3):
                for kind in CLOSURE_KINDS:
                    strata.append((f"{kind}:{name}:{mode}:{arity}", 2))
            strata.append((f"decide_sdc:{name}:{mode}", 6))
    for name, mode in QE_TARGETS:
        for nfree in (1, 2, 3):
            for nbound in (0, 1, 2):
                strata.append((f"qe:{name}:{mode}:{nfree}:{nbound}", 3))
    for name in SOLVE_STRUCTURES:
        mode = "lattice" if structures[name].kind == "lattice" else "semilattice"
        strata.append((f"solve:{name}:{mode}", 6))
    return strata


def session_mix_pool():
    return [f"{prefix}:{s}" for prefix, draws in session_mix_strata()
            for s in range(_pool_size(prefix, draws))]


def session_mix_keys(seed):
    rng = random.Random(seed)
    keys = []
    for prefix, draws in session_mix_strata():
        pool = range(_pool_size(prefix, draws))
        keys.extend(f"{prefix}:{s}" for s in sorted(rng.sample(pool, draws)))
    rng.shuffle(keys)
    return keys


def _closure_request(key, kind, structure, gens, arity, rng):
    relation = operations.Relation(arity, structure.size,
                                   _random_relation(rng, structure.size, arity))
    tuples = set(relation.tuples)

    if kind == "is_solution_set":
        def call():
            return equations.is_solution_set(relation, gens)

        def answer(result):
            verdict, evidence = result
            problem = None
            if verdict is False and tuple(evidence) in tuples:
                problem = "gap tuple lies in T"
            return {"verdict": verdict,
                    "gap": list(evidence) if verdict is False else None,
                    "system": _system_json(evidence) if verdict else None}, problem
    elif kind == "galois_closure":
        def call():
            return equations.galois_closure(relation, gens)

        def answer(closure):
            problem = None if tuples <= set(closure.tuples) else "Galois closure misses part of T"
            return _relation_json(closure), problem
    else:
        def call():
            return equations.equations_of(relation, gens).induced_system()

        def answer(system):
            problem = None
            if any(f(*t) != g(*t) for f, g in system for t in tuples):
                problem = "an induced equation fails on T"
            return _system_json(system), problem

    return Request(key, call, answer, lambda: _relation_json(relation))


def _qe_request(key, structure, mode, phi):
    eliminate = "eliminate_boolean" if mode == "lattice" else "eliminate_semilattice"

    def call():
        out = getattr(qe, eliminate)(phi, structure)
        return out, formulas.eval_formula(out, structure), formulas.eval_formula(phi, structure)

    def answer(result):
        out, after, before = result
        problem = None
        if out.bound_vars:
            problem = "eliminated formula keeps bound variables"
        elif after != before:
            problem = "eliminated formula defines a different relation"
        return {"formula": out.render(), "relation": _relation_json(after)}, problem

    return Request(key, call, answer, phi.render)


def _solve_request(key, structure, phi):
    def call():
        system = equations.EquationSystem.from_terms(phi.atoms, phi.free_vars, structure)
        return equations.solve(system, structure)

    return Request(key, call, lambda relation: (_relation_json(relation), None), phi.render)


def _sdc_request(key, name, structure, mode, seed, oracle):
    def call():
        return sdc.decide_sdc(structure, mode, verify=SDC_VERIFY, seed=seed)

    def answer(verdict):
        problem = None if verdict.verified else "verdict was not verified"
        return verdict.to_json(), problem

    return Request(key, call, answer, lambda: structure_json(structure),
                   after=lambda payload: oracle.check(name, mode, payload))


def session_mix_requests(keys):
    """Build the requests for the given session-mix keys, in order."""
    structures = build_structures(CATALOG + ("B4", "mB3", "mB4"))
    oracle = SdcOracle()
    gens = {}
    out = []
    for key in keys:
        kind, name, mode, *rest = key.split(":")
        structure = structures[name]
        rng = random.Random(key)
        if kind in CLOSURE_KINDS:
            if (name, mode) not in gens:
                gens[name, mode] = operations.generators(structure, mode)
            out.append(_closure_request(key, kind, structure, gens[name, mode], int(rest[0]), rng))
        elif kind == "decide_sdc":
            out.append(_sdc_request(key, name, structure, mode, int(rest[0]), oracle))
        elif kind == "qe":
            phi = _shaped_formula(rng, mode, int(rest[0]), int(rest[1]))
            out.append(_qe_request(key, structure, mode, phi))
        elif kind == "solve":
            phi = _shaped_formula(rng, mode, rng.randint(1, 3), 0, max_bound=0)
            out.append(_solve_request(key, structure, phi))
        else:
            raise ValueError(f"unknown session-mix request {key!r}")
    return out


class SdcOracle:
    """Expected decide_sdc verdicts, from the structural theorems of the paper.

    Lattice mode holds exactly for Boolean lattices, semilattice mode exactly
    for distributive semilattices. Call only after the timed pass: it warms
    the verdict caches the structures carry.
    """

    def __init__(self):
        self._structures = build_structures(CATALOG)
        self._expected = {}

    def check(self, name, mode, payload):
        if (name, mode) not in self._expected:
            structure = self._structures[name]
            if mode == "lattice":
                holds = lattice.is_boolean(structure)[0]
            else:
                if structure.kind == "lattice":
                    structure = catalog.meet_reduct(structure)
                holds = lattice.is_distributive_semilattice(structure)
            self._expected[name, mode] = holds
        if payload.get("holds") != self._expected[name, mode]:
            return "decide_sdc verdict contradicts the structural test"
        return None


# --------------------------------------------------------------- cli-oneshot

CLI_DRAWS = {"check": 5, "props": 5, "clone": 12, "centralizer": 10, "solve": 10,
             "eq": 10, "galois": 10, "eval": 12, "qe": 10, "sdc": 11}
# Requests every pass runs, with their expected exit status: sdc on B3, the
# request with the largest working set in the pool (so that peak memory does
# not hinge on the seed's draw), and requests the program must refuse (exit
# 2) or reject as bad input (exit 1).
CLI_FIXED = {
    "sdc:B3:lattice:0": 0,
    "qe:N5:lattice:0": 2,
    "qe:M3:semilattice:0": 2,
    "clone:N5:lattice:3:limit=10": 2,
    "centralizer:C4:lattice:2:limit=5": 2,
    "eval:B2:lattice:bad": 1,
    "galois:N5:lattice:bad": 1,
}
CLI_CENTRALIZER_SKIP = {("B3", "semilattice", 2), ("B3", "lattice", 2),
                        ("M3", "semilattice", 2), ("N5", "semilattice", 2)}


def cli_pool():
    """Every cli-oneshot key, grouped by verb."""
    structures = build_structures(CATALOG)
    pool = {verb: [] for verb in CLI_DRAWS}
    for name in CATALOG:
        pool["check"].append(f"check:{name}")
        pool["props"].append(f"props:{name}")
        for mode in modes(structures[name]):
            for n in (1, 2, 3):
                pool["clone"].append(f"clone:{name}:{mode}:{n}")
            for k in (1, 2):
                if (name, mode, k) not in CLI_CENTRALIZER_SKIP:
                    pool["centralizer"].append(f"centralizer:{name}:{mode}:{k}")
            for s in range(6):
                pool["solve"].append(f"solve:{name}:{mode}:{s}")
                pool["eq"].append(f"eq:{name}:{mode}:{s}")
                pool["galois"].append(f"galois:{name}:{mode}:{s}")
                pool["eval"].append(f"eval:{name}:{mode}:{s}")
            for s in range(4):
                pool["sdc"].append(f"sdc:{name}:{mode}:{s}")
    for name, mode in (("B2", "lattice"), ("B3", "lattice"), ("C3", "semilattice"),
                       ("C4", "semilattice"), ("B2", "semilattice"), ("B3", "semilattice")):
        for s in range(8):
            pool["qe"].append(f"qe:{name}:{mode}:{s}")
    return pool


def cli_keys(seed):
    rng = random.Random(seed)
    pool = cli_pool()
    keys = list(CLI_FIXED)
    for verb, draws in CLI_DRAWS.items():
        keys.extend(rng.sample(pool[verb], draws))
    rng.shuffle(keys)
    return keys


def structure_json(structure):
    return {"elements": list(structure.names), "kind": structure.kind,
            "covers": [list(p) for p in lattice.cover_pairs(structure)]}


def cli_request(key, structures):
    """(argv after the verb's program name, files to write, checks on the output).

    The structure file is written once for all requests, not in files.
    """
    verb, name, *rest = key.split(":")
    structure = structures[name]
    argv = [verb, f"structures/{name}.json"]
    files = {}
    checks = {"exit": CLI_FIXED.get(key, 0)}
    stem = key.replace(":", "_").replace("=", "_")
    if verb in ("check", "props"):
        return argv, files, checks
    mode = rest[0]
    if mode != ("lattice" if structure.kind == "lattice" else "semilattice"):
        argv += ["--mode", mode]
    if verb in ("clone", "centralizer"):
        argv += ["-n" if verb == "clone" else "-k", rest[1]]
        if len(rest) > 2:
            argv += ["--limit", rest[2].split("=")[1]]
        elif verb == "clone" and mode == "semilattice":
            checks["count"] = 2 ** int(rest[1]) - 1
        return argv, files, checks
    if verb == "sdc":
        argv += ["--verify", "25", "--seed", rest[1]]
        return argv, files, checks
    rng = random.Random(key)
    if verb in ("eq", "galois"):
        path = f"relations/{stem}.json"
        if rest[1] == "bad":
            payload = {"arity": 2, "tuples": [[0, structure.size]]}
        else:
            tuples = _random_relation(rng, structure.size, rng.randint(1, 3))
            payload = {"arity": len(tuples[0]), "tuples": tuples}
            if verb == "galois":
                checks["superset"] = tuples
        files[path] = json.dumps(payload)
        argv += ["-T", path]
        return argv, files, checks
    path = f"formulas/{stem}.pp"
    if rest[1] == "bad":
        text = "exists u . (x /\\ = y)"
    elif verb == "solve":
        text = formulas.random_formula(rng, mode=mode, max_bound=0).render()
    else:
        text = formulas.random_formula(rng, mode=mode).render()
    if verb == "qe":
        checks["quantifier_free"] = True
    files[path] = text
    argv += ["-f", path]
    return argv, files, checks


def write_cli_fixtures(keys, workdir):
    """Write the structure, relation and formula files for the keys; return the request list.

    Each request carries the digest of its input: its argv and the text of
    every file it reads.
    """
    structures = build_structures(CATALOG)
    for sub in ("structures", "relations", "formulas"):
        os.makedirs(os.path.join(workdir, sub), exist_ok=True)
    structure_files = {}
    for name, structure in structures.items():
        text = json.dumps(structure_json(structure))
        structure_files[name] = text
        _write(os.path.join(workdir, "structures", f"{name}.json"), text)
    requests = []
    for key in keys:
        argv, files, checks = cli_request(key, structures)
        for path, text in files.items():
            _write(os.path.join(workdir, path), text)
        given = {"argv": argv, "structure": structure_files[key.split(":")[1]], "files": files}
        requests.append({"key": key, "argv": argv, "checks": checks, "input": digest(given)})
    return requests


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
