"""Quantifier elimination for pp formulas over lattice and semilattice clones.

The matrix of a formula is first normalised to inequalities: in lattice mode
each equation splits into two inequalities whose sides are expanded to
disjunctive/conjunctive normal form, leaving items "meet of variables <=
join of variables"; in semilattice mode both sides are meets and the right
side is split per variable. Eliminating a bound variable u then classifies
each item by where u occurs: items without u pass through, items with u on
both sides always hold, and the remaining items confine u to an interval.
The intersection of intervals is nonempty exactly when every lower bound
lies below every upper bound, and each such comparison is rewritten without
complements, using that a /\\ b' <= c' \\/ d iff a /\\ c <= b \\/ d.

Empty variable sets follow the conventions: an empty meet denotes the top
element and an empty join the bottom element. They arise only inside
interval bounds; output atoms always have nonempty sides.
"""

from dataclasses import dataclass, field

from . import terms
from .errors import BadSpec, JoinInSemilatticeMode, NotBoolean, NotDistributive
from .formulas import PPFormula
from .lattice import is_boolean, is_distributive, is_distributive_semilattice

ZERO = "zero"
ONE = "one"
MEET = "meet"            # /\ a_vars
MEET_COMP = "meet_comp"  # /\ a_vars  /\  (\/ b_vars)'
COMP_JOIN = "comp_join"  # (/\ a_vars)'  \/  \/ b_vars


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


@dataclass(frozen=True)
class Bound:
    """A symbolic interval endpoint over free-variable meets and joins."""

    kind: str
    a_vars: frozenset = field(default_factory=frozenset)
    b_vars: frozenset = field(default_factory=frozenset)


@dataclass(frozen=True)
class Interval:
    lo: Bound
    hi: Bound


def _dnf(term):
    """Set of meet-clauses (variable sets) whose join is equivalent to the term."""
    if isinstance(term, terms.Var):
        return frozenset({frozenset({term.name})})
    if isinstance(term, terms.Join):
        return _dnf(term.left) | _dnf(term.right)
    return frozenset({a | b for a in _dnf(term.left) for b in _dnf(term.right)})


def _cnf(term):
    """Set of join-clauses (variable sets) whose meet is equivalent to the term."""
    if isinstance(term, terms.Var):
        return frozenset({frozenset({term.name})})
    if isinstance(term, terms.Meet):
        return _cnf(term.left) | _cnf(term.right)
    return frozenset({a | b for a in _cnf(term.left) for b in _cnf(term.right)})


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
                for m in _dnf(s):
                    for j in _cnf(t):
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


def _pairwise_condition(lo, hi):
    """The complement-free inequality equivalent to lo <= hi, or None if trivial."""
    if lo.kind == ZERO or hi.kind == ONE:
        return None
    if lo.kind == MEET_COMP and hi.kind == COMP_JOIN:
        return IneqItem(lo.a_vars | hi.a_vars, lo.b_vars | hi.b_vars)
    if lo.kind == MEET and hi.kind == COMP_JOIN:
        return IneqItem(lo.a_vars | hi.a_vars, hi.b_vars)
    raise RuntimeError(f"unexpected bound combination {lo.kind}/{hi.kind}")


def helly_condition(intervals, algebra=None):
    """Nonempty intersection of intervals via pairwise bound comparisons.

    Concrete intervals, given as (lo, hi) element pairs with an algebra,
    yield a verdict: the intersection is nonempty iff every lower endpoint
    is below every upper endpoint. Symbolic Interval values yield the
    equivalent quantifier-free conditions as inequality items, with trivial
    comparisons dropped.
    """
    intervals = list(intervals)
    if all(isinstance(iv, Interval) for iv in intervals):
        out = set()
        for i in intervals:
            for j in intervals:
                cond = _pairwise_condition(i.lo, j.hi)
                if cond is not None:
                    out.add(cond)
        return sorted(out, key=IneqItem.sort_key)
    if algebra is None:
        raise BadSpec("concrete intervals need an algebra")
    return all(algebra.leq(ci, dj)
               for ci, _ in intervals
               for _, dj in intervals)


def _occurs(name, atoms) -> bool:
    return any(name in terms.variables(lhs) | terms.variables(rhs) for lhs, rhs in atoms)


def _items_to_atoms(items, mode):
    """Canonical atoms for the surviving inequalities: sorted, deduplicated,
    trivial items dropped, each item rendered as the equation s = s /\\ t."""
    atoms = []
    for item in sorted(set(items), key=IneqItem.sort_key):
        if item.trivial():
            continue
        if not item.meet_vars or not item.join_vars:
            raise RuntimeError("eliminator produced an empty inequality side")
        lhs = terms.meet_all(sorted(item.meet_vars))
        if mode == "lattice":
            rhs = terms.join_all(sorted(item.join_vars)) if len(item.join_vars) > 1 \
                else terms.Var(next(iter(item.join_vars)))
        else:
            rhs = terms.Var(next(iter(item.join_vars)))
        atoms.append((lhs, terms.Meet(lhs, rhs)))
    return tuple(atoms)


def _eliminate_one_boolean(items, u):
    survivors = []
    intervals = []
    for item in items:
        in_meet = u in item.meet_vars
        in_join = u in item.join_vars
        if not in_meet and not in_join:
            survivors.append(item)
        elif in_meet and in_join:
            pass  # a /\ u <= b \/ u always holds
        elif in_meet:
            intervals.append(Interval(Bound(ZERO),
                                      Bound(COMP_JOIN, item.meet_vars - {u}, item.join_vars)))
        else:
            intervals.append(Interval(Bound(MEET_COMP, item.meet_vars, item.join_vars - {u}),
                                      Bound(ONE)))
    return survivors + helly_condition(intervals)


def _eliminate_one_semilattice(items, u):
    survivors = []
    intervals = []
    for item in items:
        target = next(iter(item.join_vars))
        in_meet = u in item.meet_vars
        if target == u:
            if not in_meet:
                intervals.append(Interval(Bound(MEET, item.meet_vars), Bound(ONE)))
            # with u on the left too the item reads a /\ u <= u: always holds
        elif in_meet:
            intervals.append(Interval(Bound(ZERO),
                                      Bound(COMP_JOIN, item.meet_vars - {u}, item.join_vars)))
        else:
            survivors.append(item)
    return survivors + helly_condition(intervals)


def _eliminate(phi, mode):
    if not phi.bound_vars:
        return phi
    atoms = phi.atoms
    for u in reversed(phi.bound_vars):
        if not _occurs(u, atoms):
            continue
        items = to_inequalities(atoms, mode).items
        if mode == "lattice":
            new_items = _eliminate_one_boolean(items, u)
        else:
            new_items = _eliminate_one_semilattice(items, u)
        atoms = _items_to_atoms(new_items, mode)
    return PPFormula(free_vars=phi.free_vars, bound_vars=(), atoms=atoms)


def eliminate_boolean(phi, lattice) -> PPFormula:
    """Quantifier-free formula defining the same relation, over a Boolean lattice.

    Bound variables are eliminated innermost first, renormalising the matrix
    after each step. Refuses lattices that are not Boolean: on those some
    existential formula defines a relation no quantifier-free one does.
    """
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
