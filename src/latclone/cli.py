"""Command line interface.

Machine-readable JSON goes to stdout (one object per invocation, with sorted
keys so identical inputs produce byte-identical output); diagnostics go to
stderr. Exit status 0 means success, 1 an input or validation error, and 2 a
principled refusal such as NotBoolean, NotDistributive or LimitExceeded.
The environment variable LATCLONE_LIMIT overrides the default enumeration
limits when no --limit flag is given.
"""

import argparse
import gc
import json
import os
import sys
from importlib import import_module

from .errors import DEFAULT_CENTRALIZER_LIMIT, DEFAULT_CLONE_LIMIT, BadSpec, LatcloneError, Refusal
from .lattice import (
    as_count,
    as_indices,
    construct,
    cover_pairs,
    forbidden_sublattice,
    is_boolean,
    is_distributive,
    is_distributive_semilattice,
    join_irreducibles,
)

# Each command imports the engines it runs when it runs, and only once its
# input files are read and checked, so a process pays only for its own
# verb: check and props stay on the lattice layer; eval, qe, solve -e/-f
# and a positive sdc run on the bit planes of latclone.formulas; galois, a
# negative sdc, clone, centralizer and eq run on the two-element factor
# (latclone.twovalued: closures on masks, tables as byte-coded ints) where
# the structure has a family in the mode, that is lattice mode on a
# distributive lattice and semilattice mode always. numpy is loaded only by
# solve --system and, on a structure without a family (N5 and M3 in lattice
# mode), by those five verbs. These engine functions stay readable as
# attributes of this module, as they were when it imported them up front
# (bench/test_bench.py checks them as binding sites of the tracer); each
# read returns the engine module's current binding.
_ENGINES = {"clone_slice": "operations", "eval_formula": "formulas"}


def __getattr__(name):
    module = _ENGINES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __package__), name)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits with 2 by default; bad arguments are input errors here
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise BadSpec(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise BadSpec(f"{path} is not valid JSON: {exc}") from None


def load_structure(path):
    """Read a lattice or semilattice from its JSON description."""
    data = _load_json(path)
    if not isinstance(data, dict) or "elements" not in data:
        raise BadSpec(f"{path} must be an object with an 'elements' key")
    kind = data.get("kind", "lattice")
    return construct(data["elements"],
                     covers=data.get("covers"),
                     meet=data.get("meet"),
                     kind=kind)


def load_relation(path, structure):
    from .relations import Relation

    data = _load_json(path)
    if not (isinstance(data, dict) and "arity" in data and isinstance(data.get("tuples"), list)):
        raise BadSpec(f"{path} must be an object with 'arity' and a 'tuples' list")
    return Relation(as_indices([data["arity"]], "arity")[0], structure.size, data["tuples"])


def relation_json(relation):
    return {"arity": relation.arity, "tuples": [list(t) for t in relation]}


def op_json(arity, values, term):
    from . import terms

    payload = {"arity": arity, "values": list(values)}
    if term is not None:
        payload["term"] = terms.render(term)
    return payload


def _default_limit(args, default=DEFAULT_CLONE_LIMIT):
    if args.limit is not None:
        return as_count(args.limit, "--limit")
    env = os.environ.get("LATCLONE_LIMIT")
    if env is not None:
        try:
            return as_count(int(env), "LATCLONE_LIMIT")
        except ValueError:
            raise BadSpec(f"LATCLONE_LIMIT must be an integer, got {env!r}") from None
    return default


def _structure_mode(structure, args):
    mode = getattr(args, "mode", None) or structure.kind
    if mode == "lattice" and structure.kind != "lattice":
        raise BadSpec("lattice mode needs a lattice")
    return mode


def _read_formula_text(args):
    if args.expr is not None and args.file is not None:
        raise BadSpec("give a formula inline or by file, not both")
    if args.expr is not None:
        return args.expr
    if args.file is not None:
        try:
            with open(args.file, encoding="utf-8") as handle:
                return handle.read()
        except OSError as exc:
            raise BadSpec(f"cannot read {args.file}: {exc}") from None
    raise BadSpec("a formula is required (-e or -f)")


def _structure_report(structure):
    payload = {
        "kind": structure.kind,
        "size": structure.size,
        "elements": list(structure.names),
        "bottom": structure.bottom,
        "top": structure.top,
    }
    if structure.kind == "lattice":
        distributive, triple = is_distributive(structure)
        boolean, _ = is_boolean(structure)
        payload["distributive"] = distributive
        payload["boolean"] = boolean
        if triple is not None:
            payload["distributivityCounterexample"] = list(triple)
        found = forbidden_sublattice(structure)
        payload["forbidden"] = (None if found is None
                                else {"kind": found[0], "elements": list(found[1])})
    else:
        payload["distributive"] = is_distributive_semilattice(structure)
    return payload


def cmd_check(args):
    structure = load_structure(args.structure)
    payload = {"valid": True}
    payload.update(_structure_report(structure))
    return payload


def cmd_props(args):
    structure = load_structure(args.structure)
    payload = _structure_report(structure)
    payload["covers"] = [list(p) for p in cover_pairs(structure)]
    if structure.kind == "lattice":
        payload["joinIrreducibles"] = join_irreducibles(structure)
        boolean, booleanstructure = is_boolean(structure)
        if boolean:
            payload["complement"] = list(booleanstructure.complement)
    return payload


def _slice(structure, mode, verb, arity, limit):
    """(values, terms) of the verb's slice, each table's: bytes rows read
    off the structure's two-valued family where it has one
    (latclone.twovalued), else value tuples computed by latclone.operations."""
    from . import terms
    from .twovalued import two_valued_family

    family = two_valued_family(structure, mode)
    if family is None:
        from . import operations

        engine = operations.clone_slice if verb == "clone" else operations.centralizer_slice
        ops = engine(operations.generators(structure, mode), arity, limit=limit)
        return [op.values for op in ops], [op.provenance for op in ops]
    if verb == "clone":
        x1, x2 = terms.Var("x1"), terms.Var("x2")
        return family.clone_rows((terms.Meet(x1, x2), terms.Join(x1, x2))[:len(family.ops)],
                                 arity, limit)
    rows = family.centralizer_rows(arity, limit)
    return rows, [None] * len(rows)


def cmd_clone(args, verb="clone", default=DEFAULT_CLONE_LIMIT):
    structure = load_structure(args.structure)
    mode = _structure_mode(structure, args)
    rows = _slice(structure, mode, verb, args.arity, _default_limit(args, default))
    return {"arity": args.arity, "carrier": structure.size, "count": len(rows[0]),
            "operations": [op_json(args.arity, *row) for row in zip(*rows)]}


def cmd_centralizer(args):
    return cmd_clone(args, "centralizer", DEFAULT_CENTRALIZER_LIMIT)


def _system_from_file(structure, args):
    from .equations import EquationSystem
    from .operations import OpTable

    if args.expr is not None or args.file is not None:
        raise BadSpec("give the system as formulas or as raw tables, not both")
    data = _load_json(args.system)
    if not (isinstance(data, dict) and "arity" in data and isinstance(data.get("pairs"), list)):
        raise BadSpec(f"{args.system} must be an object with 'arity' and a 'pairs' list")
    arity = as_indices([data["arity"]], "arity")[0]
    if not all(isinstance(pair, list) and len(pair) == 2 for pair in data["pairs"]):
        raise BadSpec(f"each entry of 'pairs' in {args.system} must be a pair of tables")
    pairs = [(OpTable(arity, structure.size, lhs), OpTable(arity, structure.size, rhs))
             for lhs, rhs in data["pairs"]]
    return EquationSystem(arity, structure.size, pairs)


def cmd_solve(args):
    """Raw tables go to equations.solve; a quantifier-free system in the DSL
    is a formula, whose relation over its free variables is its solution set."""
    structure = load_structure(args.structure)
    if args.system is not None:
        from .equations import solve

        return relation_json(solve(_system_from_file(structure, args), structure))
    from .formulas import eval_formula, parse_formula

    mode = _structure_mode(structure, args)
    phi = parse_formula(_read_formula_text(args), mode=mode)
    if phi.bound_vars:
        raise BadSpec("an equation system must not contain quantifiers")
    return relation_json(eval_formula(phi, structure))


def cmd_eq(args):
    """The clone slice grouped by the tables' values on the relation, blocks
    in order of their first table, as equations_of groups it, and the
    induced system: each block's first table equals each other one."""
    from . import terms

    structure = load_structure(args.structure)
    relation = load_relation(args.relation, structure)
    mode = _structure_mode(structure, args)
    values, provs = _slice(structure, mode, "clone", relation.arity, _default_limit(args))
    cells, groups = relation.cells(), {}
    for i, row in enumerate(values):
        groups.setdefault(tuple(row[c] for c in cells), []).append(i)
    return {"arity": relation.arity, "sliceSize": len(values),
            "blocks": [[op_json(relation.arity, values[i], provs[i]) for i in block]
                       for block in groups.values()],
            "equations": [[terms.render(provs[block[0]]), terms.render(provs[i])]
                          for block in groups.values() for i in block[1:]
                          if provs[block[0]] is not None and provs[i] is not None]}


def cmd_galois(args):
    structure = load_structure(args.structure)
    relation = load_relation(args.relation, structure)
    mode = _structure_mode(structure, args)
    limit = _default_limit(args)
    from .twovalued import two_valued_family

    family = two_valued_family(structure, mode)
    if family is not None:
        closure, gap = family.closure(relation)
    else:
        from .equations import galois_closure, gap_tuple
        from .operations import generators

        closure = galois_closure(relation, generators(structure, mode), limit=limit)
        gap = gap_tuple(closure, relation)
    return {"closure": relation_json(closure), "isSolutionSet": gap is None,
            "gapTuple": None if gap is None else list(gap)}


def cmd_eval(args):
    from .formulas import eval_formula, parse_formula

    structure = load_structure(args.structure)
    mode = _structure_mode(structure, args)
    phi = parse_formula(_read_formula_text(args), mode=mode)
    return relation_json(eval_formula(phi, structure))


def cmd_qe(args):
    from .formulas import parse_formula
    from .qe import eliminate_boolean, eliminate_semilattice

    structure = load_structure(args.structure)
    mode = _structure_mode(structure, args)
    phi = parse_formula(_read_formula_text(args), mode=mode)
    if not phi.free_vars:
        raise BadSpec("qe needs a formula with free variables: a sentence has no "
                      "quantifier-free form to print (eval gives its truth value)")
    if mode == "lattice":
        out = eliminate_boolean(phi, structure)
    else:
        out = eliminate_semilattice(phi, structure)
    return {"formula": out.render(), "freeVars": list(out.free_vars), "mode": mode}


def cmd_sdc(args):
    from .sdc import decide_sdc

    structure = load_structure(args.structure)
    mode = _structure_mode(structure, args)
    verdict = decide_sdc(structure, mode, verify=as_count(args.verify, "--verify"),
                         seed=args.seed, limit=_default_limit(args))
    return verdict.to_json()


def _pretty(payload, verb):
    lines = []
    if verb in ("check", "props"):
        lines.append(f"{payload['kind']} with {payload['size']} elements "
                     f"({', '.join(payload['elements'])})")
        if payload["kind"] == "lattice":
            lines.append(f"distributive: {payload['distributive']}, "
                         f"boolean: {payload['boolean']}")
            if payload.get("forbidden"):
                found = payload["forbidden"]
                lines.append(f"forbidden sublattice: {found['kind']} on {found['elements']}")
        else:
            lines.append(f"distributive: {payload['distributive']}, top: {payload['top']}")
    elif verb in ("clone", "centralizer"):
        lines.append(f"{payload['count']} operations of arity {payload['arity']}")
        for op in payload["operations"]:
            lines.append(f"  {op.get('term', op['values'])}")
    elif verb in ("solve", "eval"):
        lines.append(f"{len(payload['tuples'])} tuples of arity {payload['arity']}")
        for t in payload["tuples"]:
            lines.append(f"  {tuple(t)}")
    elif verb == "eq":
        lines.append(f"slice of {payload['sliceSize']} operations, "
                     f"{len(payload['equations'])} induced equations")
        for lhs, rhs in payload["equations"]:
            lines.append(f"  {lhs} = {rhs}")
    elif verb == "galois":
        lines.append(f"solution set: {payload['isSolutionSet']}")
        if payload.get("gapTuple") is not None:
            lines.append(f"gap tuple: {tuple(payload['gapTuple'])}")
    elif verb == "qe":
        lines.append(payload["formula"])
    elif verb == "sdc":
        lines.append(f"property holds: {payload['holds']} (route: {payload['route']})")
        if payload.get("gapTuple") is not None:
            lines.append(f"gap tuple: {tuple(payload['gapTuple'])}")
    return "\n".join(lines)


def build_parser():
    parser = _Parser(prog="latclone",
                     description="equation systems, clones and quantifier "
                                 "elimination over finite (semi)lattices")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb, handler, **kwargs):
        p = sub.add_parser(verb, **kwargs)
        p.add_argument("structure", help="JSON file with the (semi)lattice")
        p.add_argument("--pretty", action="store_true", help="human-readable output")
        p.set_defaults(handler=handler)
        return p

    add("check", cmd_check, help="validate a structure and report its properties")
    add("props", cmd_props, help="extended structural report")

    p = add("clone", cmd_clone, help="n-ary clone slice of the term operations")
    p.add_argument("-n", dest="arity", type=int, required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--mode", choices=["lattice", "semilattice"], default=None)

    p = add("centralizer", cmd_centralizer, help="k-ary centralizer slice")
    p.add_argument("-k", dest="arity", type=int, required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--mode", choices=["lattice", "semilattice"], default=None)

    p = add("solve", cmd_solve, help="solution set of an equation system")
    p.add_argument("-e", dest="expr", default=None, help="inline system in the DSL")
    p.add_argument("-f", dest="file", default=None, help="file with the system")
    p.add_argument("--system", default=None, help="JSON file with raw value tables")
    p.add_argument("--mode", choices=["lattice", "semilattice"], default=None)

    p = add("eq", cmd_eq, help="equation theory of a tuple set")
    p.add_argument("-T", dest="relation", required=True, help="JSON relation file")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--mode", choices=["lattice", "semilattice"], default=None)

    p = add("galois", cmd_galois, help="closure of a tuple set and solution-set verdict")
    p.add_argument("-T", dest="relation", required=True, help="JSON relation file")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--mode", choices=["lattice", "semilattice"], default=None)

    p = add("eval", cmd_eval, help="relation defined by a pp formula")
    p.add_argument("-e", dest="expr", default=None)
    p.add_argument("-f", dest="file", default=None)
    p.add_argument("--mode", choices=["lattice", "semilattice"], default=None)

    p = add("qe", cmd_qe, help="eliminate quantifiers from a pp formula")
    p.add_argument("-e", dest="expr", default=None)
    p.add_argument("-f", dest="file", default=None)
    p.add_argument("--mode", choices=["lattice", "semilattice"], default=None)

    p = add("sdc", cmd_sdc, help="decide the solution-set closure property")
    p.add_argument("--mode", choices=["lattice", "semilattice"], default=None)
    p.add_argument("--verify", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=int, default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        payload = args.handler(args)
    except Refusal as exc:
        print(f"latclone: refused: {exc}", file=sys.stderr)
        return 2
    except LatcloneError as exc:
        print(f"latclone: error: {exc}", file=sys.stderr)
        return 1
    if args.pretty:
        print(_pretty(payload, args.verb))
    else:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    return 0


def run() -> int:
    """Process entry point: main() on sys.argv, then its exit status.

    A reader that closes stdout early (``latclone clone ... | head``) ends
    the run with status 1 and no traceback: stdout is pointed at os.devnull,
    so the flush at shutdown cannot fail again. Before it returns, gc.freeze()
    moves every tracked object into the permanent generation, which the
    collections of interpreter shutdown skip; atexit handlers, the stdio flush
    and the exit status are unchanged. main() itself leaves the collector
    alone, so in-process callers keep a normal heap.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
