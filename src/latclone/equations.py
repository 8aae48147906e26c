"""Systems of equations, equation theories, and the solution-set closure.

The theory of a tuple set T partitions the n-ary clone slice into blocks of
term operations that agree everywhere on T. Two operations form an equation
satisfied by T exactly when they share a block, so the partition is the
whole theory without materialising quadratically many pairs. The closure of
T is the solution set of that theory; T is a solution set of some system iff
the closure adds nothing.
"""

from operator import itemgetter

import numpy as np

from . import terms
from .errors import ArityMismatch, BadSpec, LimitExceeded
from .lattice import as_count
from .operations import (
    DEFAULT_CLONE_LIMIT,
    _generator_record,
    _slice_arguments,
    clone_slice,
    term_to_op,
)
from .relations import Relation, first_cell, relation_from_mask, relation_mask


class EquationSystem:
    """A finite set of n-ary equations f_i = g_i between value tables."""

    def __init__(self, arity, size, pairs):
        self.arity = arity
        self.size = size
        normalized = []
        for f, g in pairs:
            if f.arity != arity or g.arity != arity:
                raise ArityMismatch("all equations must share the system arity")
            if f.size != size or g.size != size:
                raise ArityMismatch("all equations must share one carrier")
            normalized.append((f, g))
        self.pairs = tuple(normalized)

    @classmethod
    def from_terms(cls, term_pairs, var_order, algebra):
        """Tabulate term equations over a fixed variable order."""
        var_order = tuple(var_order)
        terms.check_distinct(var_order, "variable")
        pairs = [(term_to_op(lhs, var_order, algebra), term_to_op(rhs, var_order, algebra))
                 for lhs, rhs in term_pairs]
        return cls(len(var_order), algebra.size, pairs)

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __repr__(self):
        return f"EquationSystem({self.arity}-ary, {len(self.pairs)} equations)"


def _solutions(system) -> Relation:
    """The grid points at which both sides of every equation agree."""
    mask = np.ones(system.size ** system.arity, dtype=bool)
    for f, g in system.pairs:
        mask &= f.array() == g.array()
    return relation_from_mask(_packed(mask), system.arity, system.size)


def solve(system, algebra) -> Relation:
    """All tuples satisfying every equation of the system."""
    if algebra.size != system.size:
        raise BadSpec("system and algebra carriers differ")
    return _solutions(system)


class EqTheory:
    """Partition of a clone slice by agreement on a tuple set."""

    def __init__(self, arity, size, ops, blocks):
        self.arity = arity
        self.size = size
        self.ops = tuple(ops)
        self.blocks = tuple(tuple(b) for b in blocks)
        covered = sorted(i for block in self.blocks for i in block)
        if covered != list(range(len(self.ops))):
            raise BadSpec("blocks must partition the slice")
        if any(op.arity != arity or op.size != size for op in self.ops):
            raise ArityMismatch(f"the slice of a theory of {arity}-ary tables on {size} "
                                "elements holds a table of another arity or carrier")
        self._array = None  # the ops' values, one row each; see _values

    def satisfies(self, f, g) -> bool:
        """Is f = g an equation of the theory (same block)? Raises ArityMismatch
        for a table of another arity or carrier, BadSpec for one outside the slice."""
        fi, gi = self._position(f), self._position(g)
        return any(fi in block and gi in block for block in self.blocks)

    def _position(self, op):
        if op.arity != self.arity or op.size != self.size:
            raise ArityMismatch(f"{op.arity}-ary table on {op.size} elements in a theory of "
                                f"{self.arity}-ary tables on {self.size}")
        try:
            return self.ops.index(op)
        except ValueError:
            raise BadSpec(f"{op!r} is not in the theory's slice") from None

    def induced_system(self) -> EquationSystem:
        """One representative equation per non-representative block member.

        Equivalent to the full theory: every within-block pair follows from
        the representative pairs.
        """
        pairs = []
        for block in self.blocks:
            rep = self.ops[block[0]]
            for other in block[1:]:
                pairs.append((rep, self.ops[other]))
        return EquationSystem(self.arity, self.size, pairs)

    def _values(self):
        """The ops' values as an (ops x cells) uint8 array, copied once from their bytes."""
        if self._array is None:
            self._array = np.array(memoryview(b"".join(op._values for op in self.ops))).reshape(
                len(self.ops), self.size ** self.arity)
        return self._array

    def _closure_mask(self):
        """The flat mask of the cells of A^n at which every block is constant."""
        members = [i for block in self.blocks for i in block[1:]]
        reps = [block[0] for block in self.blocks for _ in block[1:]]
        values = self._values()
        return (values[members] == values[reps]).all(axis=0)

    def closure(self) -> Relation:
        """Tuples at which every block is constant: the solution set of the theory."""
        return relation_from_mask(_packed(self._closure_mask()), self.arity, self.size)

    def __repr__(self):
        sizes = sorted((len(b) for b in self.blocks), reverse=True)
        return f"EqTheory({self.arity}-ary, {len(self.ops)} ops, block sizes {sizes})"


def _packed(mask):
    """A flat boolean mask over the cells of A^n as an int, bit c for cell c."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _checked(relation, generator_ops, limit):
    """The generators as a list and the limit, refused as equations_of and
    clone_slice refuse them: a malformed limit, then a relation on another
    carrier, then the generators and arity clone_slice would refuse."""
    generator_ops = list(generator_ops)
    limit = as_count(limit, "limit")
    if generator_ops and generator_ops[0].size != relation.size:
        raise ArityMismatch(f"a relation on {relation.size} elements with generators "
                            f"on {generator_ops[0].size}")
    return _slice_arguments(generator_ops, relation.arity)[0], limit


def equations_of(relation, generator_ops, limit=DEFAULT_CLONE_LIMIT) -> EqTheory:
    """The equation theory of a tuple set over the clone of the generators.

    Operations are grouped by their value vectors on the tuples of the set,
    read off each table's bytes by one itemgetter of the tuples' cells; the
    induced pair set is the largest system whose solutions include it. Raises
    ArityMismatch when the relation and the generators have different
    carriers.
    """
    generator_ops, limit = _checked(relation, generator_ops, limit)
    ops = clone_slice(generator_ops, relation.arity, limit=limit)
    cells = relation.cells()
    key = itemgetter(*cells) if cells else lambda row: ()  # itemgetter takes one cell or more
    groups = {}  # blocks in order of their first table
    for i, op in enumerate(ops):
        groups.setdefault(key(op._values), []).append(i)
    return EqTheory(relation.arity, relation.size, ops, groups.values())


def _factor_family(generator_ops):
    """The generators' two-valued family (see latclone.twovalued) when it
    sends them to the meet and join of the two-element lattice, or to its
    meet, so that they generate the factor's clone; else None."""
    family = _generator_record(generator_ops)[0]
    return family if family is not None and family.kind else None


def galois_closure(relation, generator_ops, limit=DEFAULT_CLONE_LIMIT) -> Relation:
    """Solution set of the equation theory of the given tuple set.

    Always a superset of the input; equality means the input is itself the
    solution set of some system over the clone. Where the generators have
    a separating family onto the two-element lattice or semilattice (see
    _factor_family), the closure is computed on that factor and builds no
    clone slice, so the limit, still checked first, cannot refuse it;
    otherwise it is the closure of equations_of's theory.
    """
    generator_ops, limit = _checked(relation, generator_ops, limit)
    family = _factor_family(generator_ops)
    if family is not None:
        return relation_from_mask(family.closure_mask(relation)[0], relation.arity,
                                  relation.size)
    return equations_of(relation, generator_ops, limit=limit).closure()


def gap_tuple(closure, relation):
    """The first tuple of the closure outside the relation, or None if there is none."""
    return next((t for t in closure if t not in relation), None)


def is_solution_set(relation, generator_ops, limit=DEFAULT_CLONE_LIMIT):
    """Decide whether the tuple set is the solution set of some system.

    Returns (True, certificate system), (False, gap tuple in the closure but
    not the set), or (None, None) when the clone slice overflows the limit,
    which leaves the question undecided rather than guessed. The gap is the
    first cell of the closure outside the set; the closure itself is not
    built as a relation. A negative answer is read off the two-element
    factor where galois_closure computes there, with no clone slice, so the
    limit cannot make it unknown; a positive one still takes the slice,
    whose induced system is the certificate.
    """
    generator_ops, limit = _checked(relation, generator_ops, limit)
    family = _factor_family(generator_ops)
    gap = None if family is None else family.gap(relation)
    if gap is not None:
        return False, gap
    try:
        theory = equations_of(relation, generator_ops, limit=limit)
    except LimitExceeded:
        return None, None
    if family is None:
        gap = first_cell(_packed(theory._closure_mask()) & ~relation_mask(relation), relation)
        if gap is not None:
            return False, gap
    return True, theory.induced_system()
