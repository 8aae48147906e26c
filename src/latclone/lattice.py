"""Finite lattices and meet-semilattices as explicit operation tables.

Elements are dense indices 0..size-1; labels are display metadata only.
Structures validate their axioms exhaustively at construction time and are
immutable afterwards, so instances can be shared freely between threads.

Construction accepts either a cover relation (a Hasse diagram) or an
explicit meet table. From covers, the meet is computed as greatest lower
bounds of the reflexive-transitive order; a lattice's join is then derived
from the meet table in both cases, the least upper bound of a pair being
the meet of its upper bounds. Any validation failure raises instead of
repairing silently.
"""

import sys
from functools import reduce
from itertools import combinations
from numbers import Integral

from .errors import (
    AxiomViolation,
    BadSpec,
    NoGreatestElement,
    NotALattice,
)

MAX_CARRIER = 16


def _normalize_names(names):
    names = tuple(str(n) for n in names)
    if not names:
        raise BadSpec("a structure needs at least one element")
    if len(set(names)) != len(names):
        raise BadSpec("duplicate element labels")
    return names


def check_index_dtype(array, what):
    """Refuse a numpy array whose dtype is not an integer type (bool included)."""
    if array.dtype.kind not in "iu":
        first = array.flat[0].item() if array.size else array.dtype
        raise BadSpec(f"{what} {first!r} is not an integer")


def as_indices(values, what):
    """The values as a tuple of ints; only int and numpy integer values are indices.

    A one-dimensional numpy array is checked by its dtype, not value by value.
    No value can be an array while numpy is not loaded, and this module does
    not load it.
    """
    np = sys.modules.get("numpy")
    if np is not None and isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise BadSpec(f"expected a list of {what} values, got an array of shape {values.shape}")
        check_index_dtype(values, what)
        return tuple(values.tolist())
    try:
        values = tuple(values)
    except TypeError:
        raise BadSpec(f"expected a list of {what} values, got {values!r}") from None
    if set(map(type, values)) <= {int}:
        return values
    for v in values:
        if isinstance(v, bool) or not isinstance(v, Integral):
            raise BadSpec(f"{what} {v!r} is not an integer")
    return tuple(int(v) for v in values)


def as_count(value, what):
    """A nonnegative count, such as a limit, as an int: BadSpec for anything
    but a nonnegative int or numpy integer."""
    (value,) = as_indices((value,), what)
    if value < 0:
        raise BadSpec(f"{what} must be nonnegative, got {value}")
    return value


def _normalize_table(table, size, what):
    if len(table) != size:
        raise BadSpec(f"{what} table must have {size} rows")
    rows = []
    for row in table:
        if len(row) != size:
            raise BadSpec(f"{what} table must have {size} columns per row")
        row = as_indices(row, f"{what} table entry")
        if any(v < 0 or v >= size for v in row):
            raise BadSpec(f"{what} table entry out of range")
        rows.append(row)
    return tuple(rows)


def _check_semilattice_axioms(op, size, what):
    for a in range(size):
        if op[a][a] != a:
            raise AxiomViolation(f"{what} is not idempotent at {a}")
        for b in range(size):
            if op[a][b] != op[b][a]:
                raise AxiomViolation(f"{what} is not commutative at ({a},{b})")
            for c in range(size):
                if op[op[a][b]][c] != op[a][op[b][c]]:
                    raise AxiomViolation(f"{what} is not associative at ({a},{b},{c})")


class FiniteSemilattice:
    """A finite meet-semilattice; the top element is optional.

    The derived order is x <= y iff x meet y = x.
    """

    kind = "semilattice"

    def __init__(self, names, meet, max_size=MAX_CARRIER):
        self.names = _normalize_names(names)
        self.size = len(self.names)
        if self.size > max_size:
            raise BadSpec(f"carrier of size {self.size} exceeds the cap {max_size}")
        self.meet = _normalize_table(meet, self.size, "meet")
        _check_semilattice_axioms(self.meet, self.size, "meet")
        self.bottom = reduce(lambda x, y: self.meet[x][y], range(self.size))
        tops = [t for t in range(self.size)
                if all(self.meet[x][t] == x for x in range(self.size))]
        self.top = tops[0] if tops else None

    def leq(self, a, b) -> bool:
        return self.meet[a][b] == a

    def __repr__(self):
        return f"{type(self).__name__}({list(self.names)!r})"


class FiniteLattice(FiniteSemilattice):
    """A finite lattice: a meet-semilattice with an explicit join table.

    Construction verifies that the join table induces the same order and
    that absorption holds; a lattice's meet order always has a top.
    """

    kind = "lattice"

    def __init__(self, names, meet, join, max_size=MAX_CARRIER):
        super().__init__(names, meet, max_size=max_size)
        self._add_join(join)

    def _add_join(self, join):
        self.join = _normalize_table(join, self.size, "join")
        _check_semilattice_axioms(self.join, self.size, "join")
        for a in range(self.size):
            for b in range(self.size):
                if self.meet[a][self.join[a][b]] != a:
                    raise AxiomViolation(f"absorption x /\\ (x \\/ y) = x fails at ({a},{b})")
                if self.join[a][self.meet[a][b]] != a:
                    raise AxiomViolation(f"absorption x \\/ (x /\\ y) = x fails at ({a},{b})")
                if (self.meet[a][b] == a) != (self.join[a][b] == b):
                    raise AxiomViolation(f"meet and join induce different orders at ({a},{b})")


def _order_from_covers(names, covers):
    """Reflexive-transitive closure of the cover relation; BadSpec on cycles."""
    size = len(names)
    leq = [[i == j for j in range(size)] for i in range(size)]
    for pair in covers:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise BadSpec(f"cover entry {pair!r} is not a pair")
        # a string is an element label; anything else must be an index
        lo, hi = as_indices([names.index(v) if v in names else -1 if isinstance(v, str) else v
                             for v in pair], "cover entry")
        if not (0 <= lo < size and 0 <= hi < size):
            raise BadSpec(f"cover entry {pair!r} names an unknown element")
        if lo == hi:
            raise BadSpec(f"cover entry {pair!r} relates an element to itself")
        leq[lo][hi] = True
    for k in range(size):
        for i in range(size):
            if leq[i][k]:
                for j in range(size):
                    if leq[k][j]:
                        leq[i][j] = True
    for i in range(size):
        for j in range(size):
            if i != j and leq[i][j] and leq[j][i]:
                raise BadSpec(f"cover relation has a cycle through {names[i]!r} and {names[j]!r}")
    return leq


def _glb(leq, size, a, b, names):
    lower = [c for c in range(size) if leq[c][a] and leq[c][b]]
    best = [c for c in lower if all(leq[d][c] for d in lower)]
    if not best:
        raise NotALattice(f"elements {names[a]!r} and {names[b]!r} have no greatest lower bound")
    return best[0]


def from_covers(names, covers, kind="lattice", max_size=MAX_CARRIER):
    """Build a validated structure from labels and Hasse-diagram cover pairs:
    the meet by greatest lower bounds, then as from_meet_table."""
    names = _normalize_names(names)
    size = len(names)
    leq = _order_from_covers(names, covers)
    meet = [[_glb(leq, size, a, b, names) for b in range(size)] for a in range(size)]
    return from_meet_table(names, meet, kind=kind, max_size=max_size)


def from_meet_table(names, meet, kind="lattice", max_size=MAX_CARRIER):
    """Build a validated structure from labels and an explicit meet table.

    For kind "lattice" the join of a and b is derived as the meet of their
    common upper bounds, which is their least one; a pair without an upper
    bound is NotALattice.
    """
    semilattice = FiniteSemilattice(names, meet, max_size=max_size)
    return semilattice if kind == "semilattice" else _with_join(semilattice)


def _with_join(semilattice):
    """The lattice of a validated semilattice: join as in from_meet_table, meet not rechecked."""
    names, meet, size = semilattice.names, semilattice.meet, semilattice.size
    up = [{c for c in range(size) if meet[a][c] == a} for a in range(size)]
    if semilattice.top is None:  # two maximal elements, so some pair has no upper bound
        a, b = next((a, b) for a in range(size) for b in range(size) if not up[a] & up[b])
        raise NotALattice(f"elements {names[a]!r} and {names[b]!r} have no least upper bound")
    join = [[reduce(lambda x, y: meet[x][y], up[a] & up[b]) for b in range(size)]
            for a in range(size)]
    lattice = FiniteLattice.__new__(FiniteLattice)
    for attr in ("names", "size", "meet", "bottom", "top"):
        setattr(lattice, attr, getattr(semilattice, attr))
    lattice._add_join(join)
    return lattice


def construct(names, covers=None, meet=None, kind="lattice", max_size=MAX_CARRIER):
    """Dispatch between cover-pair and meet-table construction."""
    if kind not in ("lattice", "semilattice"):
        raise BadSpec(f"unknown kind {kind!r}")
    if (covers is None) == (meet is None):
        raise BadSpec("exactly one of covers and meet must be given")
    if covers is not None:
        return from_covers(names, covers, kind=kind, max_size=max_size)
    return from_meet_table(names, meet, kind=kind, max_size=max_size)


def cover_pairs(structure):
    """The Hasse diagram of the derived order, as sorted (lower, upper) pairs."""
    size = structure.size
    lt = [[structure.leq(a, b) and a != b for b in range(size)] for a in range(size)]
    out = []
    for a in range(size):
        for b in range(size):
            if lt[a][b] and not any(lt[a][c] and lt[c][b] for c in range(size)):
                out.append((a, b))
    return out


def _distributivity_scan(lattice):
    """Direct check of x /\\ (y \\/ z) = (x /\\ y) \\/ (x /\\ z) over all triples.

    On failure the triple is the lexicographically least violation.
    """
    meet, join = lattice.meet, lattice.join
    for x in range(lattice.size):
        mx = meet[x]
        for y in range(lattice.size):
            left = [mx[v] for v in join[y]]
            jxy = join[mx[y]]
            right = [jxy[v] for v in mx]
            if left != right:
                z = next(z for z, (l, r) in enumerate(zip(left, right)) if l != r)
                return False, (x, y, z)
    return True, None


def _join_prime_certificate(lattice):
    """The join-prime elements in index order, and each element's image as
    the bitmask of the join-primes below it.

    An element a other than bottom is join-prime when a <= x \\/ y implies
    a <= x or a <= y; then x -> [a <= x] is a lattice homomorphism onto the
    two-element lattice. The elements not above a form a down-set, and a is
    join-prime exactly when that down-set is closed under join, that is when
    a is not below its join. A finite lattice is distributive exactly when
    these homomorphisms separate its points, that is when the images are
    distinct (Birkhoff); the join-primes are then its join-irreducibles.
    O(n^2) table lookups in all.
    """
    meet, join = lattice.meet, lattice.join
    primes = []
    for a in range(lattice.size):
        if a == lattice.bottom:
            continue
        rest = lattice.bottom
        for x, m in enumerate(meet[a]):
            if m != a:
                rest = join[rest][x]
        if meet[a][rest] != a:
            primes.append(a)
    images = [sum(1 << i for i, a in enumerate(primes) if meet[a][x] == a)
              for x in range(lattice.size)]
    return primes, images


def _sublattice_shape(lattice, subset):
    """Classify a meet/join-closed 5-subset as N5 or M3, or neither.

    Returns (kind, elements) with elements in role order (bottom, a, b, c,
    top); for N5 the pair a < b is the comparable side and c the third
    middle element, for M3 the middles are in index order.
    """
    bottom = reduce(lambda x, y: lattice.meet[x][y], subset)
    top = reduce(lambda x, y: lattice.join[x][y], subset)
    middles = [e for e in subset if e != bottom and e != top]
    if len(middles) != 3:
        return None
    comp = [(a, b) for a, b in combinations(middles, 2)
            if lattice.leq(a, b) or lattice.leq(b, a)]
    if not comp:
        return "M3", (bottom, *middles, top)
    if len(comp) == 1:
        lo, hi = comp[0]
        if lattice.leq(hi, lo):
            lo, hi = hi, lo
        third = next(e for e in middles if e not in comp[0])
        return "N5", (bottom, lo, hi, third, top)
    return None


def forbidden_sublattice(lattice):
    """Search for a pentagon or diamond sublattice.

    Returns None, or (kind, elements) for the lexicographically least closed
    5-subset isomorphic to N5 or M3. None is returned exactly when the
    lattice is distributive. The answer is read from is_distributive's
    cache, which is filled first when needed: a distributive lattice is
    recognised by its join-prime certificate, and only a lattice that fails
    the law is searched for the shape.
    """
    is_distributive(lattice)
    return lattice._distributive_cache[2]


def _forbidden_scan(lattice):
    """The search itself: walk the C(n,5) subsets, stop at the first hit."""
    meet, join = lattice.meet, lattice.join
    for subset in combinations(range(lattice.size), 5):
        inside = set(subset)
        closed = all(meet[a][b] in inside and join[a][b] in inside
                     for a, b in combinations(subset, 2))
        if not closed:
            continue
        shape = _sublattice_shape(lattice, subset)
        if shape is not None:
            return shape
    return None


def is_distributive(lattice):
    """Distributivity verdict plus one violating triple on failure.

    The direct law scan is cross-checked against the join-prime certificate
    (Birkhoff); on a lattice that fails the law, _forbidden_scan must also
    find a pentagon or diamond. Any disagreement would be an internal
    error, not a user error. The verdict, the triple, the shape found, the
    join-primes and the images they give are cached on the lattice.
    """
    cached = getattr(lattice, "_distributive_cache", None)
    if cached is not None:
        return cached[:2]
    verdict, triple = _distributivity_scan(lattice)
    primes, images = _join_prime_certificate(lattice)
    separated = len(set(images)) == lattice.size
    found = None if verdict else _forbidden_scan(lattice)
    if not (verdict == separated == (found is None)):
        raise RuntimeError("distributivity scan, join-prime certificate and sublattice search disagree")
    lattice._distributive_cache = (verdict, triple, found, primes, images)
    return verdict, triple


class BooleanStructure:
    """A complement map decorating a lattice that supports one."""

    def __init__(self, host, complement):
        self.host = host
        self.complement = as_indices(complement, "complement map entry")
        size = host.size
        if len(self.complement) != size:
            raise BadSpec("complement map has the wrong length")
        for x in range(size):
            c = self.complement[x]
            if not 0 <= c < size:
                raise BadSpec("complement map entry out of range")
            if host.meet[x][c] != host.bottom or host.join[x][c] != host.top:
                raise AxiomViolation(f"{host.names[x]!r} and its complement do not split bottom/top")
            if self.complement[c] != x:
                raise AxiomViolation("complement map is not an involution")


def is_boolean(lattice):
    """Boolean verdict; on success also the unique complement map.

    A distributive lattice with k join-primes embeds in 2^k through their
    images (see _join_prime_certificate), so it is Boolean exactly when it
    has 2^k elements; the complement of x is then the element whose image
    is the complement of x's.
    """
    cached = getattr(lattice, "_boolean_cache", None)
    if cached is not None:
        return cached
    result = (False, None)
    if is_distributive(lattice)[0]:
        primes, images = lattice._distributive_cache[3:]
        full = (1 << len(primes)) - 1
        if lattice.size == full + 1:
            element = {image: x for x, image in enumerate(images)}
            result = (True, BooleanStructure(lattice, [element[image ^ full] for image in images]))
    lattice._boolean_cache = result
    return result


def join_irreducibles(lattice):
    """Nonzero elements that are not the join of the elements strictly below."""
    out = []
    for j in range(lattice.size):
        if j == lattice.bottom:
            continue
        below = lattice.bottom
        for x in range(lattice.size):
            if x != j and lattice.leq(x, j):
                below = lattice.join[below][x]
        if below != j:
            out.append(j)
    return out


def semilattice_to_lattice(semilattice) -> FiniteLattice:
    """Extend a meet-semilattice with a top to a lattice (see from_meet_table)."""
    if semilattice.top is None:
        raise NoGreatestElement("a semilattice without a greatest element has no join")
    return _with_join(semilattice)


def is_distributive_semilattice(semilattice) -> bool:
    """Check that a >= b0 /\\ b1 always splits as a = a0 /\\ a1 with ai >= bi.

    Since a0 /\\ a1 >= b0 /\\ b1 for all such ai, this says that the up-set
    of b0 /\\ b1 is the set of meets of the up-sets of b0 and b1. The
    verdict is decided once per structure object and cached on it. When a
    top exists it is cross-checked against distributivity of the lattice
    completion; disagreement would be an internal error.
    """
    cached = getattr(semilattice, "_semilattice_distributive_cache", None)
    if cached is not None:
        return cached
    meet = semilattice.meet
    size = semilattice.size
    up = [{a for a in range(size) if meet[b][a] == b} for b in range(size)]
    verdict = all(up[meet[b0][b1]] <= {meet[a0][a1] for a0 in up[b0] for a1 in up[b1]}
                  for b0, b1 in combinations(range(size), 2))
    if semilattice.top is not None:
        completion_verdict, _ = is_distributive(semilattice_to_lattice(semilattice))
        if completion_verdict != verdict:
            raise RuntimeError("semilattice distributivity disagrees with its completion")
    semilattice._semilattice_distributive_cache = verdict
    return verdict
