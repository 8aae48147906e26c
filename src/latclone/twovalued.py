"""Two-valued families of a structure, and the Galois closure on its two-element factor.

A family is a list of homomorphisms h_1..h_r of a structure A onto its
two-element factor F (the two-element lattice, or its meet reduct in
semilattice mode) that together tell the points of A apart. A lattice has
one in lattice mode exactly when it is distributive: the maps x -> [a <= x]
of its join-primes a (Birkhoff). Every semilattice has one in semilattice
mode: the maps x -> [a <= x] of principal filters. Term operations commute
with the maps, so s(b) = t(b) exactly when s(h_i o b) = t(h_i o b) for
every i. The theory of T over A is then the theory over F of
T' = {h_j o t : t in T, every j}, and

    Cl_A(T) = {b in A^n : h_i o b in Cl_F(T') for every i}.

F has the solution-set property: Cl_F(T') is T' with the two constant
tuples added, and in semilattice mode also closed under AND. Masks over F^n
and A^n are Python ints, bit c for cell c in lexicographic order (the first
coordinate most significant), so this module loads no numpy and builds no
clone slice.
"""

from functools import lru_cache

from . import lattice
from .catalog import chain, meet_reduct
from .errors import BadSpec
from .relations import relation_from_mask


class TwoValuedFamily:
    """width two-valued maps of a carrier onto the factor, a structure on
    {0, 1}: images[x] is the code of x, bit i set when the i-th map sends x
    to 1. Cl_F follows the factor's kind (see the module docstring)."""

    def __init__(self, factor, images, width):
        self.factor = factor
        self.images = images
        self.width = width
        self._planes = {}

    def plane(self, n):
        """plane[i][f]: the int of the cells of A^n, in lexicographic order,
        whose bit slice i is the factor cell f. Built once per arity, one
        coordinate at a time from the last: a cell x * size^m + rest of
        A^(m+1) has the factor cell b * 2^m + f when x has bit b and rest
        has f, and the product of the ints of A^m by the int with bit
        x * size^m for each such x places them without overlap."""
        planes = self._planes.get(n)
        if planes is None:
            size = len(self.images)
            planes = []
            for i in range(self.width):
                halves = [[x for x, code in enumerate(self.images) if (code >> i & 1) == b]
                          for b in (0, 1)]
                cells = [1]
                for m in range(n):
                    spread = [sum(1 << x * size ** m for x in half) for half in halves]
                    cells = [c * spread[b] for b in (0, 1) for c in cells]
                planes.append(cells)
            self._planes[n] = planes
        return planes

    def lift(self, factor_mask, n):
        """The mask over A^n of the cells whose every bit slice is in the
        factor relation: per slice the OR of its plane over the relation,
        ANDed over the slices."""
        hits = [f for f in range(1 << n) if factor_mask >> f & 1]
        mask = (1 << len(self.images) ** n) - 1
        for cells in self.plane(n):
            mask &= sum(cells[f] for f in hits)
        return mask

    def closure_mask(self, relation):
        """The masks over A^n of the relation's Galois closure and of the
        relation itself. T' holds the factor cells whose plane meets the
        relation; the relation is assumed to lie on this carrier."""
        n = relation.arity
        if n < 1:
            raise BadSpec("slice arity must be at least 1")
        held = _mask(relation)
        patterns = {f for cells in self.plane(n) for f, at in enumerate(cells) if held & at}
        patterns |= {0, (1 << n) - 1}
        if self.factor.kind == "semilattice":
            closed = {(1 << n) - 1}
            for f in patterns:
                closed |= {f & g for g in closed}
            patterns = closed
        return self.lift(sum(1 << f for f in patterns), n), held

    def closure(self, relation):
        """The Galois closure as a relation, and the gap tuple: the first
        tuple of the closure outside the relation, or None."""
        mask, held = self.closure_mask(relation)
        return (relation_from_mask(mask, relation.arity, relation.size),
                _first_cell(mask & ~held, relation))

    def gap(self, relation):
        """The gap tuple alone, with no closure built as a relation."""
        mask, held = self.closure_mask(relation)
        return _first_cell(mask & ~held, relation)


def _mask(relation):
    """The relation's tuples as a mask over A^n."""
    size = relation.size
    bits = bytearray((size ** relation.arity + 7) >> 3)
    for t in relation.tuples:
        c = 0
        for v in t:
            c = c * size + v
        bits[c >> 3] |= 1 << (c & 7)
    return int.from_bytes(bits, "little")


def _first_cell(mask, relation):
    """The tuple of the lowest cell of a mask over A^n, or None if it is 0."""
    if not mask:
        return None
    c, out = (mask & -mask).bit_length() - 1, []
    for _ in range(relation.arity):
        c, v = divmod(c, relation.size)
        out.append(v)
    return tuple(reversed(out))


@lru_cache(maxsize=64)
def family_of(kind, images, width):
    """The family with these codes over the two-element lattice (kind
    "lattice") or meet-semilattice: one object, with its planes, for every
    carrier that has the same codes."""
    two = chain(2)
    return TwoValuedFamily(two if kind == "lattice" else meet_reduct(two), images, width)


def two_valued_family(structure, mode):
    """The structure's family in the mode, or None: the join-primes of
    is_distributive's certificate in lattice mode (None when the lattice is
    not distributive), and in semilattice mode the principal filters, tried
    largest up-set first and kept only if they split two elements that the
    filters kept before do not. Decided once per structure and mode and
    cached on the structure (a lattice without one only by is_distributive)."""
    # read off the module at call time: this module is imported when first
    # needed, so a name bound at import could be a wrapper installed since
    # (bench/spans.py patches lattice.is_distributive at its binding sites)
    if mode == "lattice" and not lattice.is_distributive(structure)[0]:
        return None
    cache = getattr(structure, "_two_valued_cache", None)
    if cache is None:
        cache = structure._two_valued_cache = {}
    if mode not in cache:
        if mode == "lattice":
            primes, images = structure._distributive_cache[3:]
            family = family_of("lattice", tuple(images), len(primes))
        else:
            meet, size = structure.meet, structure.size
            ups = [[meet[a][x] == a for x in range(size)] for a in range(size)]
            code, width = [0] * size, 0
            for up in sorted(ups, key=sum, reverse=True):
                if len(set(zip(code, up))) > len(set(code)):
                    code = [c | u << width for c, u in zip(code, up)]
                    width += 1
            family = family_of("semilattice", tuple(code), width)
        cache[mode] = family
    return cache[mode]
