"""Quantifier elimination for pp formulas over lattice and semilattice clones.

The matrix of a formula is first normalised to inequalities: in lattice mode
each equation splits into two inequalities whose sides are expanded to
disjunctive/conjunctive normal form, leaving items "meet of variables <=
join of variables"; in semilattice mode both sides are meets and the right
side is split per variable. The bound variables are then eliminated
innermost first on that one item list. Eliminating u classifies each item
by where u occurs: items without u pass through, items with u on both
sides always hold, and the remaining items confine u to an interval. Its
lower bounds have the form /\\a /\\ (\\/b)' and its upper bounds
(/\\a)' \\/ \\/b, each kept as the variable-set pair (a, b). The interval
is nonempty exactly when every lower bound lies below every upper bound,
and each such comparison is rewritten without complements by residuation
rule iii: a /\\ b' <= c' \\/ d iff a /\\ c <= b \\/ d.

Empty variable sets follow the conventions: an empty meet denotes the top
element and an empty join the bottom element. They arise only inside
interval bounds; output atoms always have nonempty sides.
"""

from dataclasses import dataclass

from . import terms
from .errors import BadSpec, JoinInSemilatticeMode, NotBoolean, NotDistributive
from .formulas import PPFormula
from .lattice import is_boolean, is_distributive, is_distributive_semilattice


@dataclass(frozen=True)
class IneqItem:
    """One inequality: meet of meet_vars <= join of join_vars.

    In semilattice mode the join side is a single variable, which denotes
    itself whether read as a meet or as a join.
    """

    meet_vars: frozenset
    join_vars: frozenset

    def sort_key(self):
        return (sorted(self.meet_vars), sorted(self.join_vars))

    def trivial(self) -> bool:
        # some variable appears on both sides, so meet <= variable <= join
        return bool(self.meet_vars & self.join_vars)


@dataclass(frozen=True)
class IneqSystem:
    items: tuple
    mode: str


def _clauses(term, split):
    """Clauses (variable sets) of the term's normal form whose connective is
    `split`: terms.Join gives the meet-clauses of the disjunctive normal form,
    terms.Meet the join-clauses of the conjunctive one."""
    if isinstance(term, terms.Var):
        return frozenset({frozenset({term.name})})
    left, right = _clauses(term.left, split), _clauses(term.right, split)
    if isinstance(term, split):
        return left | right
    return frozenset({a | b for a in left for b in right})


def to_inequalities(atoms, mode) -> IneqSystem:
    """Normalise a conjunction of equations to an inequality system.

    Lattice mode: each equation yields both directions, the left side in
    disjunctive and the right in conjunctive normal form, one item per
    clause pair (the normal forms need distributivity to be equivalent to
    the original terms, but the clause pairing itself is valid in any
    lattice). Semilattice mode: sides are pure meets and the right side is
    split per variable. Trivial items are kept; eliminators prune them.
    """
    if mode not in ("lattice", "semilattice"):
        raise BadSpec(f"unknown mode {mode!r}")
    items = set()
    for lhs, rhs in atoms:
        if mode == "semilattice" and (terms.uses_join(lhs) or terms.uses_join(rhs)):
            raise JoinInSemilatticeMode("inequality normalisation in semilattice mode")
        for s, t in ((lhs, rhs), (rhs, lhs)):
            if mode == "lattice":
                for m in _clauses(s, terms.Join):
                    for j in _clauses(t, terms.Meet):
                        items.add(IneqItem(m, j))
            else:
                m = frozenset(terms.variables(s))
                for v in terms.variables(t):
                    items.add(IneqItem(m, frozenset({v})))
    return IneqSystem(tuple(sorted(items, key=IneqItem.sort_key)), mode)


def residuate(kind, boolean, *operands):
    """The three Boolean rewriting rules for inequalities with complements.

    kind "i":   a /\\ u <= b      iff  u <= a' \\/ b; returns that upper bound.
    kind "ii":  b <= a \\/ u      iff  u >= a' /\\ b; returns that lower bound.
    kind "iii": a /\\ b' <= c' \\/ d  iff  a /\\ c <= b \\/ d; returns (a /\\ c, b \\/ d).
    """
    host = boolean.host
    comp = boolean.complement
    if kind == "i":
        a, b = operands
        return host.join[comp[a]][b]
    if kind == "ii":
        a, b = operands
        return host.meet[comp[a]][b]
    if kind == "iii":
        a, b, c, d = operands
        return host.meet[a][c], host.join[b][d]
    raise BadSpec(f"unknown residuation kind {kind!r}")


def helly_condition(intervals, algebra):
    """Whether intervals, given as (lo, hi) element pairs, have a common element.

    The intersection is nonempty iff every lower endpoint is below every
    upper endpoint.
    """
    intervals = list(intervals)
    return all(algebra.leq(ci, dj)
               for ci, _ in intervals
               for _, dj in intervals)


def _pairings(lower, upper):
    """The complement-free conditions lo <= hi for every lower bound
    /\\la /\\ (\\/lb)' and upper bound (/\\ha)' \\/ \\/hb, given as
    (la, lb) and (ha, hb) variable-set pairs (residuation rule iii)."""
    return [IneqItem(la | ha, lb | hb) for la, lb in lower for ha, hb in upper]


def _items_to_atoms(items):
    """Canonical atoms for a set of nontrivial inequalities, in sorted order,
    each item rendered as the equation s = s /\\ t (a semilattice item's
    join side is one variable)."""
    atoms = []
    for item in sorted(items, key=IneqItem.sort_key):
        if not item.meet_vars or not item.join_vars:
            raise RuntimeError("eliminator produced an empty inequality side")
        lhs = terms.meet_all(sorted(item.meet_vars))
        atoms.append((lhs, terms.Meet(lhs, terms.join_all(sorted(item.join_vars)))))
    return tuple(atoms)


def _eliminate_one_boolean(items, u):
    survivors, lower, upper = [], [], []
    for item in items:
        in_meet = u in item.meet_vars
        in_join = u in item.join_vars
        if not in_meet and not in_join:
            survivors.append(item)
        elif in_meet and in_join:
            pass  # a /\ u <= b \/ u always holds
        elif in_meet:
            upper.append((item.meet_vars - {u}, item.join_vars))
        else:
            lower.append((item.meet_vars, item.join_vars - {u}))
    return survivors + _pairings(lower, upper)


def _eliminate_one_semilattice(items, u):
    survivors, lower, upper = [], [], []
    for item in items:
        target = next(iter(item.join_vars))
        in_meet = u in item.meet_vars
        if target == u:
            if not in_meet:
                lower.append((item.meet_vars, frozenset()))
            # with u on the left too the item reads a /\ u <= u: always holds
        elif in_meet:
            upper.append((item.meet_vars - {u}, item.join_vars))
        else:
            survivors.append(item)
    return survivors + _pairings(lower, upper)


def _eliminate(phi, mode):
    if not phi.bound_vars:
        return phi
    atoms = phi.atoms
    used = set().union(*(terms.variables(lhs) | terms.variables(rhs) for lhs, rhs in atoms))
    if not used.isdisjoint(phi.bound_vars):
        # a trivial item, with a variable on both sides, only ever yields
        # trivial conditions, so dropping them between steps loses nothing
        eliminate_one = _eliminate_one_boolean if mode == "lattice" else _eliminate_one_semilattice
        items = to_inequalities(atoms, mode).items
        for u in reversed(phi.bound_vars):
            items = {item for item in eliminate_one(items, u) if not item.trivial()}
        atoms = _items_to_atoms(items)
    return PPFormula(free_vars=phi.free_vars, bound_vars=(), atoms=atoms)


def eliminate_boolean(phi, lattice) -> PPFormula:
    """Quantifier-free formula defining the same relation, over a Boolean lattice.

    The matrix is normalised once and the bound variables are eliminated
    innermost first on its inequalities. Refuses lattices that are not
    Boolean: on those some existential formula defines a relation no
    quantifier-free one does. A meet-semilattice is an input error.
    """
    if lattice.kind != "lattice":
        raise BadSpec("lattice mode needs a lattice")
    boolean, _ = is_boolean(lattice)
    if not boolean:
        raise NotBoolean("quantifier elimination in lattice mode needs a Boolean lattice")
    return _eliminate(phi, "lattice")


def eliminate_semilattice(phi, algebra) -> PPFormula:
    """Quantifier-free meets-only formula over a distributive (semi)lattice.

    The formula must use meets only; the structure must be distributive (for
    a semilattice: no missing top and the splitting property). The output is
    join-free and complement-free.
    """
    for lhs, rhs in phi.atoms:
        if terms.uses_join(lhs) or terms.uses_join(rhs):
            raise JoinInSemilatticeMode("semilattice elimination on a formula with joins")
    if algebra.kind == "lattice":
        distributive, _ = is_distributive(algebra)
    else:
        distributive = is_distributive_semilattice(algebra)
    if not distributive:
        raise NotDistributive("semilattice quantifier elimination needs distributivity")
    return _eliminate(phi, "semilattice")
