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
rule iii: a /\\ b' <= c' \\/ d iff a /\\ c <= b \\/ d. Each variable set
is an int, bit i standing for the i-th variable in sorted-name order, so
classifying an item is a few bit tests and pairing two bounds is an OR.

Empty variable sets follow the conventions: an empty meet denotes the top
element and an empty join the bottom element. They arise only inside
interval bounds; output atoms always have nonempty sides.
"""

from dataclasses import dataclass
from itertools import product

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


def _normal_forms(term, bit):
    """The meet-clauses of the term's disjunctive and the join-clauses of its
    conjunctive normal form, each clause as the OR of its variables' bits."""
    if isinstance(term, terms.Var):
        return {bit[term.name]}, {bit[term.name]}
    (ldnf, lcnf), (rdnf, rcnf) = _normal_forms(term.left, bit), _normal_forms(term.right, bit)
    if isinstance(term, terms.Join):
        return ldnf | rdnf, {a | b for a in lcnf for b in rcnf}
    return {a | b for a in ldnf for b in rdnf}, lcnf | rcnf


def _normalise(atoms):
    """The sorted names of the atoms' variables and the items of their
    inequality system as pairs (meet bits, join bits), bit i for the i-th
    name. A meet-only side has one meet-clause and one join-clause per
    variable, so the clause pairs are also the items of semilattice mode."""
    names = tuple(sorted(set().union(*(terms.variables(side) for atom in atoms for side in atom))))
    bit = {name: 1 << i for i, name in enumerate(names)}
    items = set()
    for lhs, rhs in atoms:
        (lhs_dnf, lhs_cnf), (rhs_dnf, rhs_cnf) = _normal_forms(lhs, bit), _normal_forms(rhs, bit)
        items.update(product(lhs_dnf, rhs_cnf), product(rhs_dnf, lhs_cnf))
    return names, items


def _item_key(item):
    # bits are numbered in sorted-name order, so this sorts as IneqItem.sort_key
    return [[i for i in range(bits.bit_length()) if bits >> i & 1] for bits in item]


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
    if mode == "semilattice" and any(terms.uses_join(side) for atom in atoms for side in atom):
        raise JoinInSemilatticeMode("inequality normalisation in semilattice mode")
    names, items = _normalise(atoms)
    return IneqSystem(tuple(IneqItem(*(frozenset(names[i] for i in side) for side in key))
                            for key in sorted(map(_item_key, items))), mode)


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
    (la, lb) and (ha, hb) pairs of variable bits (residuation rule iii)."""
    return [(la | ha, lb | hb) for la, lb in lower for ha, hb in upper]


def _items_to_atoms(items, names):
    """Canonical atoms for a set of nontrivial items over the bits of names,
    in sorted order, each item rendered as the equation s = s /\\ t (a
    semilattice item's join side is one variable)."""
    atoms = []
    for meet, join in sorted(map(_item_key, items)):
        if not meet or not join:
            raise RuntimeError("eliminator produced an empty inequality side")
        lhs = terms.meet_all([names[i] for i in meet])
        atoms.append((lhs, terms.Meet(lhs, terms.join_all([names[i] for i in join]))))
    return tuple(atoms)


def _eliminate_one(items, u):
    """The items without u, and the pairings of the bounds the others put on
    u. In semilattice mode the join side is one variable, so an item with u
    there and not on the left is a lower bound with an empty join side."""
    survivors, lower, upper = [], [], []
    for m, j in items:
        if m & u:
            if not j & u:  # else it reads a /\ u <= b \/ u, which always holds
                upper.append((m ^ u, j))
        elif j & u:
            lower.append((m, j ^ u))
        else:
            survivors.append((m, j))
    return survivors + _pairings(lower, upper)


def _eliminate(phi):
    if not phi.bound_vars:
        return phi
    atoms = phi.atoms
    names, items = _normalise(atoms)
    if not set(names).isdisjoint(phi.bound_vars):
        # a trivial item, with a variable on both sides, only ever yields
        # trivial conditions, so dropping them between steps loses nothing
        for u in reversed(phi.bound_vars):
            u = 1 << names.index(u) if u in names else 0
            items = {(m, j) for m, j in _eliminate_one(items, u) if not m & j}
        atoms = _items_to_atoms(items, names)
    return PPFormula._trusted(phi.free_vars, (), atoms)  # the atoms use free variables only


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
    return _eliminate(phi)


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
    return _eliminate(phi)
