"""Meet/join term trees.

Shared by the formula layer (syntax) and the operation layer (provenance of
generated value tables). Rendering uses the ASCII connectives of the formula
DSL, with meet binding tighter than join.
"""

from dataclasses import dataclass
from functools import reduce

from .errors import BadSpec, JoinInSemilatticeMode


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Meet:
    left: object
    right: object


@dataclass(frozen=True)
class Join:
    left: object
    right: object


TermExpr = Var | Meet | Join


def variables(term) -> set:
    """The names of the term's variables, filled into one set by one walk."""
    names = set()
    _add_variables(term, names)
    return names


def _add_variables(term, names):
    if isinstance(term, Var):
        names.add(term.name)
    else:
        _add_variables(term.left, names)
        _add_variables(term.right, names)


def term_evaluator(algebra, ops):
    """ev(roots, env): the values of the terms in roots, as a list, over the
    values env assigns to their variables.

    The one tree walk: ops gives the node operations as functions (meet,
    join) on whatever values env holds, such as bytes rows of elements over
    the grid (operations.term_to_op) or int masks (latclone.formulas).
    A root that recurs inside a later root is not evaluated again: "s <= t"
    stands for the atom s = s /\\ t, and the s inside reads the value of
    the root s. A join over a meet-semilattice raises JoinInSemilatticeMode.
    """
    meet, join = ops

    def value(term, env, done):
        if isinstance(term, Var):
            return env[term.name]
        out = done.get(id(term))
        if out is None:
            a, b = value(term.left, env, done), value(term.right, env, done)
            if isinstance(term, Meet):
                out = meet(a, b)
            elif algebra.kind != "lattice":
                raise JoinInSemilatticeMode("join term evaluated over a meet-semilattice")
            else:
                out = join(a, b)
        return out

    def ev(roots, env):
        done, values = {}, []  # done: id of each root evaluated so far -> its value
        for root in roots:
            values.append(value(root, env, done))
            done[id(root)] = values[-1]
        return values

    return ev


def check_distinct(names, what):
    """Refuse a variable list that names one variable twice: BadSpec."""
    seen = set()
    for name in names:
        if name in seen:
            raise BadSpec(f"{what} {name!r} is listed twice")
        seen.add(name)


def uses_join(term) -> bool:
    if isinstance(term, Var):
        return False
    if isinstance(term, Join):
        return True
    return uses_join(term.left) or uses_join(term.right)


def substitute(term, mapping):
    """Replace variables by terms; names missing from the mapping stay put."""
    if isinstance(term, Var):
        return mapping.get(term.name, term)
    return type(term)(substitute(term.left, mapping), substitute(term.right, mapping))


def meet_all(names):
    """Left-folded meet of one or more variable names."""
    return reduce(Meet, [Var(n) for n in names])


def join_all(names):
    return reduce(Join, [Var(n) for n in names])


def render(term) -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Meet):
        return f"{_meet_operand(term.left)} /\\ {_meet_operand(term.right)}"
    return f"{render(term.left)} \\/ {render(term.right)}"


def _meet_operand(term) -> str:
    # joins under a meet need parentheses; anything else does not
    if isinstance(term, Join):
        return f"({render(term)})"
    return render(term)
