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
from operator import and_, or_

from . import terms
from .errors import (
    BadSpec,
    FormulaSyntaxError,
    JoinInSemilatticeMode,
    UnknownVariable,
)
from .lattice import is_boolean, semilattice_to_lattice
from .relations import Relation, relation_from_mask

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

    @classmethod
    def _trusted(cls, free_vars, bound_vars, atoms):
        """A formula whose variables are known to be distinct, declared and
        not both free and bound, as when its atoms are built from its own
        names: the checks of __post_init__ are skipped."""
        phi = object.__new__(cls)
        for name, value in (("free_vars", free_vars), ("bound_vars", bound_vars),
                            ("atoms", atoms)):
            object.__setattr__(phi, name, value)
        return phi

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


def eval_formula(phi, algebra) -> Relation:
    """The relation a formula defines, by exhaustive assignment and witness search.

    Free variables are assigned in their declared order; bound variables are
    searched existentially over the whole carrier. On a Boolean power 2^k,
    told by is_boolean and coded by its two-valued family (see
    _boolean_power), the search runs on the two-element factor instead:
    pp-formulas are preserved by direct products, so a tuple satisfies the
    formula exactly when each of its k bit slices does over the factor.
    Masks and relations are Python ints and tuples, so evaluation runs
    without numpy.
    """
    n = len(phi.free_vars)
    mask = _defining_mask(phi, algebra)
    power = _boolean_power(algebra)
    if power is not None:
        mask = power.lift(mask, n)
    return relation_from_mask(mask, n, algebra.size)


def _defining_mask(phi, algebra):
    """The formula's mask over the free variables, as one int: over the
    two-element factor of a Boolean power, else over the structure itself.

    R -> R^[k] is injective, so two formulas with the same free variables
    define the same relation over the structure exactly when these masks
    are equal. Bit c stands for cell c of A^n, in lexicographic order with
    the first variable most significant; the terms are evaluated on the
    cells of A^(n+b), the bound variables last, and each free cell ORs its
    block of A^b bound cells. On two elements a term's value is one int,
    the cells at which it is element 1: each variable takes its projection
    column, and meet and join are AND and OR (OR and AND when index 1 is
    the bottom). On any other carrier it is one-hot: a dict from each
    element the term takes to the int of the cells where it takes it (see
    _plane_ops).
    """
    power = _boolean_power(algebra)
    algebra = algebra if power is None else power.factor
    size = algebra.size
    names = phi.free_vars + phi.bound_vars
    full = (1 << size ** len(names)) - 1
    # a variable with h cells per value (h = size^j, j the number of variables
    # after it) repeats a run of h cells per element every size * h cells
    runs = [(name, size ** j) for name, j in zip(names, reversed(range(len(names))))]
    if size == 2:
        env = {name: full // ((1 << h) + 1) << h for name, h in runs}
        ops = (and_, or_) if algebra.meet[0][1] == 0 else (or_, and_)

        def agree(left, right):
            return ~(left ^ right)
    else:
        env = {}
        for name, h in runs:
            at_zero = ((1 << h) - 1) * (full // ((1 << size * h) - 1))
            env[name] = {x: at_zero << x * h for x in range(size)}
        ops = _plane_ops(algebra)

        def agree(left, right):
            # the cells where both take x, for every x: disjoint, so summed
            return sum(left[x] & right[x] for x in left.keys() & right.keys())
    ev = terms.term_evaluator(algebra, ops)
    mask = full
    for lhs, rhs in phi.atoms:
        mask &= agree(*ev((lhs, rhs), env))
    return _any_per_block(mask, size ** len(phi.bound_vars))


def _plane_ops(algebra):
    """Meet and join (None over a meet-semilattice) on one-hot values, read
    off the structure's tables: the cells where a takes x and b takes y go
    to the plane of x /\\ y, and only nonzero planes are kept."""
    def on(table):
        def apply(a, b):
            out, planes = {}, list(b.items())
            for x, cells in a.items():
                row = table[x]
                for y, other in planes:
                    both = cells & other
                    if both:
                        z = row[y]
                        if z in out:
                            out[z] |= both
                        else:
                            out[z] = both
            return out
        return apply

    return on(algebra.meet), on(algebra.join) if algebra.kind == "lattice" else None


def _any_per_block(mask, block):
    """Bit f set when some bit of f * block .. f * block + block - 1 of the mask is.

    fold holds at each bit p the OR of bits p .. p + width - 1, doubling the
    width per step, and the widths of block's binary digits are joined end
    to end; the bits at multiples of block are then read off the binary
    string, lowest first.
    """
    if block == 1:
        return mask
    fold, width, hit, span = mask, 1, 0, 0
    while True:
        if block & width:
            hit |= fold >> span
            span += width
        if span == block:
            break
        fold |= fold >> width
        width <<= 1
    return int(format(hit, "b")[::-1][::block][::-1], 2)


def _boolean_power(algebra):
    """The structure as a Boolean power 2^k with k >= 2, or None.

    Decided by is_boolean on the lattice, or on the completion of a
    meet-semilattice with a top (the order fixes the meet, so the
    semilattice is the meet reduct of 2^k exactly when its completion is
    2^k). Then the maps x -> [a <= x] of the k atoms a send meet to AND and
    join to OR, and together they are an isomorphism onto {0, 1}^k: the
    structure's two-valued family in its own kind (latclone.twovalued),
    whose k maps are a bijection. The size is tested first, so most
    structures are not checked here, and latclone.twovalued is imported
    only for a Boolean power. Decided once per structure and cached on it;
    the family and its bit planes are shared by every structure with the
    same codes.
    """
    cached = getattr(algebra, "_boolean_power_cache", None)
    if cached is not None:
        return cached[0]
    power, size = None, algebra.size
    if size >= 4 and not size & (size - 1):
        lattice = algebra
        if algebra.kind != "lattice":
            lattice = None if algebra.top is None else semilattice_to_lattice(algebra)
        if lattice is not None and is_boolean(lattice)[0]:
            from .twovalued import two_valued_family

            power = two_valued_family(algebra, algebra.kind)
    algebra._boolean_power_cache = (power,)
    return power


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
    return PPFormula._trusted(free, bound, tuple(atoms))
