"""Primitive positive formulas: parsing, rendering, exact evaluation.

DSL grammar (ASCII, whitespace insignificant):

    formula := {"exists" ident+ "."} conj
    conj    := group {"&" group}
    group   := "(" conj ")" | atom
    atom    := term ("=" | "<=") term
    term    := factor {("/\\" | "\\/") factor}
    factor  := ident | "(" term ")"

Meet binds tighter than join. "s <= t" is sugar for the equation
"s = s /\\ t". Free variables are the identifiers not bound by "exists";
unless an explicit variable order is supplied, their sorted names fix the
coordinate order of the relation a formula defines.
"""

import re
from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING

from . import terms
from .errors import (
    BadSpec,
    FormulaSyntaxError,
    JoinInSemilatticeMode,
    UnknownVariable,
)

if TYPE_CHECKING:
    from .operations import Relation

_TOKEN = re.compile(r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<op>/\\|\\/|<=|=|&|\.|\(|\)))")


@dataclass(frozen=True)
class PPFormula:
    """Existential prefix plus a conjunction of term equations."""

    free_vars: tuple
    bound_vars: tuple
    atoms: tuple  # pairs (lhs, rhs) of term trees

    def __post_init__(self):
        terms.check_distinct(self.free_vars, "free variable")
        terms.check_distinct(self.bound_vars, "bound variable")
        declared = set(self.free_vars) | set(self.bound_vars)
        if set(self.free_vars) & set(self.bound_vars):
            raise BadSpec("a variable cannot be both free and bound")
        for lhs, rhs in self.atoms:
            stray = (terms.variables(lhs) | terms.variables(rhs)) - declared
            if stray:
                raise UnknownVariable(f"undeclared variables {sorted(stray)} in atom")

    def render(self) -> str:
        """DSL text that parses back to this formula.

        Atoms of the sugar shape s = s /\\ t print as "s <= t". Free
        variables missing from every atom are kept alive with trivial
        atoms so the text defines a relation of the same arity.
        """
        parts = [_render_atom(lhs, rhs) for lhs, rhs in self.atoms]
        used = set()
        for lhs, rhs in self.atoms:
            used |= terms.variables(lhs) | terms.variables(rhs)
        for name in self.free_vars:
            if name not in used:
                parts.append(f"{name} = {name}")
        if not parts:
            raise BadSpec("cannot render a formula with no atoms and no free variables")
        body = " & ".join(parts)
        if self.bound_vars:
            return f"exists {' '.join(self.bound_vars)} . {body}"
        return body


def _render_atom(lhs, rhs) -> str:
    if isinstance(rhs, terms.Meet) and rhs.left == lhs:
        return f"{terms.render(lhs)} <= {terms.render(rhs.right)}"
    return f"{terms.render(lhs)} = {terms.render(rhs)}"


class _Parser:
    def __init__(self, text, mode):
        self.text = text
        self.mode = mode
        self.pos = 0
        self.tokens = []
        self._scan()
        self.at = 0

    def _scan(self):
        pos = 0
        while pos < len(self.text):
            m = _TOKEN.match(self.text, pos)
            if m is None:
                rest = self.text[pos:].lstrip()
                if not rest:
                    break
                raise FormulaSyntaxError(f"unexpected character {rest[0]!r}",
                                         len(self.text) - len(rest))
            kind = "ident" if m.group("ident") else "op"
            value = m.group("ident") or m.group("op")
            self.tokens.append((kind, value, m.start(kind)))
            pos = m.end()

    def peek(self):
        if self.at < len(self.tokens):
            return self.tokens[self.at]
        return (None, None, len(self.text))

    def take(self):
        token = self.peek()
        self.at += 1
        return token

    def expect(self, value):
        kind, got, pos = self.take()
        if got != value:
            raise FormulaSyntaxError(f"expected {value!r}, found {got!r}", pos)

    def parse_prefix(self):
        bound = []
        while self.peek()[:2] == ("ident", "exists"):
            self.take()
            names = []
            while self.peek()[0] == "ident" and self.peek()[1] != "exists":
                names.append(self.take()[1])
            if not names:
                raise FormulaSyntaxError("exists needs at least one variable", self.peek()[2])
            self.expect(".")
            for name in names:
                if name in bound:
                    raise FormulaSyntaxError(f"variable {name!r} bound twice", self.peek()[2])
                bound.append(name)
        return tuple(bound)

    def parse_conj(self):
        atoms = list(self.parse_group())
        while self.peek()[:2] == ("op", "&"):
            self.take()
            atoms.extend(self.parse_group())
        return tuple(atoms)

    def parse_group(self):
        # "(" is ambiguous: it may open a parenthesized conjunction or a
        # parenthesized term inside an atom; try the conjunction first
        if self.peek()[:2] == ("op", "("):
            save = self.at
            self.take()
            try:
                atoms = self.parse_conj()
                self.expect(")")
                return atoms
            except FormulaSyntaxError:
                self.at = save
        return (self.parse_atom(),)

    def parse_atom(self):
        lhs = self.parse_term()
        kind, got, pos = self.take()
        if got == "=":
            return (lhs, self.parse_term())
        if got == "<=":
            rhs = self.parse_term()
            return (lhs, terms.Meet(lhs, rhs))
        raise FormulaSyntaxError(f"expected '=' or '<=', found {got!r}", pos)

    def parse_term(self):
        node = self.parse_meet()
        while self.peek()[:2] == ("op", "\\/"):
            _, _, pos = self.take()
            if self.mode == "semilattice":
                raise JoinInSemilatticeMode(f"join at position {pos} in semilattice mode")
            node = terms.Join(node, self.parse_meet())
        return node

    def parse_meet(self):
        node = self.parse_factor()
        while self.peek()[:2] == ("op", "/\\"):
            self.take()
            node = terms.Meet(node, self.parse_factor())
        return node

    def parse_factor(self):
        kind, got, pos = self.take()
        if kind == "ident":
            if got == "exists":
                raise FormulaSyntaxError("'exists' cannot be used as a variable", pos)
            return terms.Var(got)
        if got == "(":
            node = self.parse_term()
            self.expect(")")
            return node
        raise FormulaSyntaxError(f"expected a variable or '(', found {got!r}", pos)


def parse_formula(text, mode="lattice", variables=None) -> PPFormula:
    """Parse DSL text into a prefix-normal formula.

    With variables given, they fix the free variable order and any other
    unbound identifier is an error; otherwise free variables are the unbound
    identifiers in sorted order.
    """
    if mode not in ("lattice", "semilattice"):
        raise BadSpec(f"unknown mode {mode!r}")
    parser = _Parser(text, mode)
    bound = parser.parse_prefix()
    atoms = parser.parse_conj()
    kind, got, pos = parser.peek()
    if kind is not None:
        raise FormulaSyntaxError(f"unexpected {got!r} after the conjunction", pos)
    occurring = set()
    for lhs, rhs in atoms:
        occurring |= terms.variables(lhs) | terms.variables(rhs)
    if variables is None:
        free = tuple(sorted(occurring - set(bound)))
    else:
        free = tuple(variables)
        stray = occurring - set(bound) - set(free)
        if stray:
            raise UnknownVariable(f"unknown variables {sorted(stray)}")
    return PPFormula(free_vars=free, bound_vars=bound, atoms=atoms)


def eval_formula(phi, algebra) -> "Relation":
    """The relation a formula defines, by exhaustive assignment and witness search.

    Free variables are assigned in their declared order; bound variables are
    searched existentially over the whole carrier. On a Boolean power 2^k
    the search runs on the two-element factor instead (see _BooleanPower):
    pp-formulas are preserved by direct products, so a tuple satisfies the
    formula exactly when each of its k bit slices does over the factor.
    Only evaluation needs numpy, so it is imported here: parsing and
    quantifier elimination run without it.
    """
    from .operations import relation_from_mask

    n = len(phi.free_vars)
    mask = _defining_mask(phi, algebra)
    power = _boolean_power(algebra)
    if power is not None:
        mask = power.lift(mask, n)
    return relation_from_mask(mask, n, algebra.size)


def _defining_mask(phi, algebra):
    """The formula's mask, one axis per free variable: over the two-element
    factor of a Boolean power, else over the structure itself.

    R -> R^[k] is injective, so two formulas with the same free variables
    define the same relation over the structure exactly when these masks
    are equal.
    """
    power = _boolean_power(algebra)
    return _grid_mask(phi, algebra if power is None else power.factor)


def _grid_mask(phi, algebra):
    """The formula's mask over the free variables, one axis per variable.

    Each variable has its own axis of the grid, and its values vary along
    that axis only, so an atom is tabulated over the axes of its own
    variables and then folded into the mask of the whole grid; the bound
    axes are then folded by "any".
    """
    import numpy as np

    from .operations import term_evaluator

    size = algebra.size
    names = phi.free_vars + phi.bound_vars
    axes = len(names)
    values = np.arange(size)
    env = {name: values.reshape((1,) * i + (size,) + (1,) * (axes - 1 - i))
           for i, name in enumerate(names)}
    ev = term_evaluator(algebra)
    mask = np.ones((size,) * axes, dtype=bool)
    for lhs, rhs in phi.atoms:
        left, right = ev((lhs, rhs), env)
        mask &= left == right
    n = len(phi.free_vars)
    if phi.bound_vars:
        mask = mask.any(axis=tuple(range(n, axes)))
    return mask


class _BooleanPower:
    """An isomorphism of a structure onto the k-th power of its two-element factor.

    The factor is the two-element lattice, or its meet reduct when the
    structure is a meet-semilattice. bits[i][x] is bit i of the code of x.
    """

    def __init__(self, factor, bits):
        self.factor = factor
        self.bits = bits
        self._planes = {}

    def plane(self, n):
        """plane[i, c]: the factor cell, in lexicographic order, of bit slice i
        of cell c of A^n, narrow. Built once per arity and cached, read-only."""
        plane = self._planes.get(n)
        if plane is None:
            import numpy as np

            k, size = len(self.bits), len(self.bits[0])
            bits = np.array(self.bits, dtype=np.min_scalar_type((1 << n) - 1))
            plane = np.zeros((k,) + (size,) * n, dtype=bits.dtype)
            for j in range(n):
                plane += (bits << (n - 1 - j)).reshape([k] + [size if t == j else 1
                                                              for t in range(n)])
            plane = plane.reshape(k, -1)
            plane.flags.writeable = False
            self._planes[n] = plane
        return plane

    def lift(self, factor_mask, n):
        """The flat mask over A^n of the k-th power of a factor relation."""
        import numpy as np

        return np.take(np.ravel(factor_mask), self.plane(n)).all(axis=0)


def _boolean_power(algebra):
    """The structure as a Boolean power 2^k with k >= 2, or None.

    Decided once per structure and cached on it, like the flat tables of
    operations._flat_tables. The coding sends x to its bits [a <= x], one
    for each atom a (an element other than the bottom whose only strict
    lower bound is the bottom). It is kept only when it is a bijection onto
    {0,1}^k that carries meet to AND and, over a lattice, join to OR: it is
    then an isomorphism onto the k-th power of the two-element lattice or
    meet-semilattice.
    """
    cached = getattr(algebra, "_boolean_power_cache", None)
    if cached is None:
        cached = algebra._boolean_power_cache = (_recognize_boolean_power(algebra),)
    return cached[0]


def _recognize_boolean_power(algebra):
    from .catalog import chain, meet_reduct

    size, meet = algebra.size, algebra.meet
    k = size.bit_length() - 1
    if k < 2 or size != 1 << k:
        return None
    bottom = reduce(lambda x, y: meet[x][y], range(size))
    atoms = [a for a in range(size) if a != bottom and set(meet[a]) == {bottom, a}]
    if len(atoms) != k:
        return None
    codes = [sum(1 << i for i, a in enumerate(atoms) if meet[a][x] == a) for x in range(size)]
    if len(set(codes)) != size:
        return None
    ops = [(meet, int.__and__)]
    if algebra.kind == "lattice":
        ops.append((algebra.join, int.__or__))
    for table, op in ops:
        if any(codes[table[x][y]] != op(codes[x], codes[y])
               for x in range(size) for y in range(size)):
            return None
    factor = chain(2) if algebra.kind == "lattice" else meet_reduct(chain(2))
    return _BooleanPower(factor, [[code >> i & 1 for code in codes] for i in range(k)])


_FREE_POOL = ("x", "y", "z")
_BOUND_POOL = ("u", "v")


def random_formula(rng, mode="lattice", max_free=3, max_bound=2,
                   max_atoms=6, max_depth=2) -> PPFormula:
    """A random formula drawn from a seeded generator, for round-trip testing."""
    free = _FREE_POOL[:rng.randint(1, max_free)]
    bound = _BOUND_POOL[:rng.randint(0, max_bound)]
    pool = free + bound

    def term(depth):
        if depth == 0 or rng.random() < 0.45:
            return terms.Var(rng.choice(pool))
        node = terms.Meet if mode == "semilattice" or rng.random() < 0.5 else terms.Join
        return node(term(depth - 1), term(depth - 1))

    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        lhs = term(max_depth)
        rhs = term(max_depth)
        if rng.random() < 0.5:
            atoms.append((lhs, terms.Meet(lhs, rhs)))  # lhs <= rhs
        else:
            atoms.append((lhs, rhs))
    return PPFormula(free_vars=tuple(free), bound_vars=tuple(bound), atoms=tuple(atoms))
