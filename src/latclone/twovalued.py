"""Two-valued families of a structure, and what they compute on its two-element factor.

A family is a list of homomorphisms h_1..h_r of a structure A onto a
two-element algebra F, its factor, that together tell the points of A
apart. A lattice has one in lattice mode exactly when it is distributive:
the maps x -> [a <= x] of its join-primes a (Birkhoff). Every semilattice
has one in semilattice mode: the maps x -> [a <= x] of principal filters.
Term operations commute with the maps, so s(b) = t(b) exactly when
s(h_i o b) = t(h_i o b) for every i. The theory of T over A is then the
theory over F of T' = {h_j o t : t in T, every j}, and

    Cl_A(T) = {b in A^n : h_i o b in Cl_F(T') for every i}.

F has the solution-set property: Cl_F(T') is T' with the two constant
tuples added, and in semilattice mode also closed under AND. Masks over F^n
and A^n are Python ints, bit c for cell c in lexicographic order (the first
coordinate most significant).

The maps fix the clone and the centralizer too. A term operation is fixed
by its table on F^n, a 2^n-bit int on which the generators act bitwise, so
the clone walk runs there; the tables over A^n are replayed from its
derivations as ints with one byte lane per cell (more when r > 8) holding
the code (h_1(v), ..., h_r(v)) of the cell's value v, where a generator
acts as on F, and decoded by to_bytes and translate. A k-ary f commutes
with the generators exactly when every h_i o f is a homomorphism A^k -> F
and the bits (h_i o f(c))_i are an element's code at every cell. This
module loads no numpy.
"""

from functools import cached_property, lru_cache, reduce
from itertools import product
from operator import and_

from . import lattice, terms
from .catalog import chain, meet_reduct
from .errors import BadSpec, LimitExceeded
from .relations import first_cell, projection_rows, relation_from_mask, relation_mask

# The meet and join of {0, 1} as bits of their tables, bit c for the cell c of {0, 1}^2
AND, OR = 0b1000, 0b1110
FACTOR_OPS = {"semilattice": ((2, AND),), "lattice": ((2, AND), (2, OR))}
_KINDS = {ops: kind for kind, ops in FACTOR_OPS.items()}


class TwoValuedFamily:
    """width two-valued maps of a carrier onto the factor, a structure on
    {0, 1}: images[x] is the code of x, bit i set when the i-th map sends x
    to 1. ops holds each generator's (arity, bits) on the factor, bit c for
    the cell c of {0, 1}^arity; kind is "lattice" or "semilattice" when the
    generators are the factor's meet and join, or its meet, else None.
    Cl_F follows the kind (see the module docstring)."""

    def __init__(self, images, width, ops):
        self.images = images
        self.width = width
        self.ops = ops
        self.kind = _KINDS.get(ops)
        self.factor = self.kind and (chain(2) if self.kind == "lattice" else meet_reduct(chain(2)))
        self.lane = max(1, -(-width // 8))  # bytes per cell of a table over A^n
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
        held = relation_mask(relation)
        patterns = {f for cells in self.plane(n) for f, at in enumerate(cells) if held & at}
        patterns |= {0, (1 << n) - 1}
        if self.kind == "semilattice":
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
                first_cell(mask & ~held, relation))

    def gap(self, relation):
        """The gap tuple alone, with no closure built as a relation."""
        mask, held = self.closure_mask(relation)
        return first_cell(mask & ~held, relation)

    def clone_rows(self, generator_terms, n, limit):
        """The n-ary clone slice of the generators with these terms as
        (rows, terms): the tables over A^n as bytes, one byte per cell, in
        sorted order, and each one's term. Raises LimitExceeded past limit
        tables."""
        n, size = slice_arity(n), len(self.images)
        walked = n if size > 1 else 1  # the projections on one element are all x1
        derivations, provs = _factor_walk(self.ops, tuple(generator_terms), walked, limit)
        cells, lane = size ** n, self.lane
        full = None  # the lane mask, for complements; AND and OR need none
        if self.kind is None:
            full = int.from_bytes(((1 << self.width) - 1).to_bytes(lane, "little") * cells, "little")
        apply = [_applier(m, bits, full) for m, bits in self.ops]
        tables = [int.from_bytes(row, "little") for row in projection_rows(
            [code.to_bytes(lane, "little") for code in self.images], n)[:walked]]
        for g, args in derivations:
            tables.append(apply[g]([tables[a] for a in args]))
        rows = []
        for i, table in enumerate(tables):
            tables[i] = None  # a table at a time, so that ints and rows never both hold all
            rows.append(self.decode(table.to_bytes(cells * lane, "little")))
        order = sorted(range(len(rows)), key=rows.__getitem__)
        return [rows[i] for i in order], [provs[i] for i in order]

    def centralizer_rows(self, k, limit):
        """The k-ary centralizer slice of the generators: its tables over
        A^k as bytes, one byte per cell, in sorted order. Each is
        r homomorphisms A^k -> F (_homomorphisms) that _combine pairs and
        counts before any table is decoded. Raises LimitExceeded past limit
        tables."""
        k, size = slice_arity(k), len(self.images)
        refusal = f"centralizer slice exceeds {limit} tables"
        if size == 1:
            if limit < 1:
                raise LimitExceeded(refusal)
            return [b"\0"]
        cells, homs, lanes = size ** k, self._homomorphisms(k, limit, refusal), {}

        def placed(h, i):  # h's bit at each cell, as bit i of the cell's lane
            if h not in lanes:
                bits = format(homs[h], f"0{cells}b").encode().translate(_BITS)  # last cell first
                if self.lane > 1:
                    bits, wide = bytearray(cells * self.lane), bits
                    bits[self.lane - 1::self.lane] = wide
                lanes[h] = int.from_bytes(bits, "big")
            return lanes[h] << i

        combined, met = _combine(self.images, self.width, homs, cells, placed, limit, refusal), set()
        for _, ends in combined:
            met.update(ends)
        tails, rows = {h: placed(h, self.width - 1) for h in met}, []
        for head, ends in combined:
            rows += [(head | tails[h]).to_bytes(cells * self.lane, "little") for h in ends]
        return sorted(map(self.decode, rows))

    @cached_property
    def decode(self):
        """decode(raw): the elements, one byte per cell, of a table's lanes as bytes."""
        codes = {code: x for x, code in enumerate(self.images)}
        if self.lane > 1:
            lane = self.lane
            return lambda raw: bytes(codes[int.from_bytes(raw[c:c + lane], "little")]
                                     for c in range(0, len(raw), lane))
        if all(codes[code] == code for code in codes):
            return lambda raw: raw  # every element is its own code
        table = bytes(codes.get(code, 0) for code in range(256))
        return lambda raw: raw.translate(table)

    def _homomorphisms(self, k, limit, refusal):
        """The homomorphisms A^k -> F of every generator as ints over the
        cells of A^k. The first generator is AND on the codes, so its are
        the maps x -> [x >= a] of the principal filters, a in lexicographic
        order, and the constant 0; kept when they commute with the others
        (the constant when every generator keeps 0 at 0). Each is a member
        of the slice, so more than limit of them raise LimitExceeded."""
        codes, size = self.images, len(self.images)
        keep = [True] * size ** k
        for m, bits in self.ops[1:]:
            keep = [a and b for a, b in zip(keep, self._commuting_filters(m, bits, k))]
        constant = not any(bits & 1 for _, bits in self.ops)
        if sum(keep) + constant > limit:
            raise LimitExceeded(refusal)
        above = []  # above[j][b]: the cells whose coordinate j is >= b
        for j in range(k):
            low, period = size ** (k - 1 - j), size ** (k - j)  # the cells of one digit, and of all
            repeat = ((1 << period * size ** j) - 1) // ((1 << period) - 1)
            above.append([repeat * sum(((1 << low) - 1) << x * low for x in range(size)
                                       if codes[x] & b == b) for b in codes])
        homs = [reduce(and_, map(list.__getitem__, above, digits))
                for a, digits in enumerate(product(range(size), repeat=k)) if keep[a]]
        return homs + [0] * constant

    def _commuting_filters(self, m, bits, k):
        """keep[a] for each a of A^k in lexicographic order: does x -> [x >= a]
        commute with the m-ary generator g with these bits? S(b) holds the
        bits ([y_1 >= b], ..., [y_m >= b], [g(y) >= b]), first highest, of
        every y in A^m; the map of a commutes with g exactly when every AND
        of one member of each S(a_i) is on g's graph on F. The ANDs are found
        coordinate by coordinate, once per distinct set of a prefix of a."""
        apply = _applier(m, bits, (1 << self.width) - 1)
        ys = list(product(self.images, repeat=m))
        sets = [{sum((c & b == b) << (m - i) for i, c in enumerate(y)) | (apply(y) & b == b)
                 for y in ys} for b in self.images]  # S(b) for each b
        graph = {c for c in range(2 << m) if bits >> (c >> 1) & 1 == c & 1}
        level, ids = [frozenset([(2 << m) - 1])], [0]  # the empty AND
        for _ in range(k):
            found = {}  # the distinct sets of the prefixes one coordinate longer -> their ids
            step = [[found.setdefault(frozenset(t & c for t in ands for c in s), len(found))
                     for s in sets] for ands in level]
            level, ids = list(found), [row[b] for row in map(step.__getitem__, ids)
                                       for b in range(len(sets))]
        on_graph = [ands <= graph for ands in level]
        return [on_graph[i] for i in ids]


_BITS = bytes.maketrans(b"01", b"\0\1")  # "0" and "1" to the bytes 0 and 1


def slice_arity(n):
    """The arity of a clone or centralizer slice as an int, at least 1."""
    n = lattice.as_indices([n], "slice arity")[0]
    if n < 1:
        raise BadSpec("slice arity must be at least 1")
    return n


def _applier(m, bits, full):
    """apply(args) for an m-ary generator with these bits on F, on ints
    whose bits it combines place by place, full the int of every place:
    AND and OR as such, else the OR over the argument patterns it sends to
    1 of the AND of the arguments or their complements, or the complement
    of that over those sent to 0, when fewer."""
    if m == 2 and bits in (AND, OR):
        return (lambda args: args[0] & args[1]) if bits == AND else lambda args: args[0] | args[1]
    ones = [c for c in range(1 << m) if bits >> c & 1]
    zeros = [c for c in range(1 << m) if not bits >> c & 1]
    invert = len(zeros) < len(ones)
    patterns = [[c >> (m - 1 - i) & 1 for i in range(m)] for c in (zeros if invert else ones)]

    def apply(args):
        out = 0
        for pattern in patterns:
            term = full
            for arg, bit in zip(args, pattern):
                term &= arg if bit else arg ^ full
            out |= term
        return out ^ full if invert else out

    return apply


def tuples_at(pos, m):
    """The m-tuples over 0..pos that contain pos, in lexicographic order:
    those the clone walk meets at pos (for a symmetric generator the rest
    repeat the tables of the nondecreasing ones, met before them)."""
    out = []
    for j in range(m):  # the first entry that is pos
        out += [t + (pos,) + u for t in product(range(pos), repeat=j)
                for u in product(range(pos + 1), repeat=m - 1 - j)]
    return sorted(out)


def derived_terms(generator_terms, arities, first, derivations):
    """The terms of a walk's tables: x_(i+1) for each projection i in first,
    then each derived table's generator term (in x1..xm) applied to its
    arguments' terms, or None if either has none."""
    provs = [terms.Var(f"x{i + 1}") for i in first]
    names = [[f"x{i + 1}" for i in range(m)] for m in arities]
    usable = [t is not None and terms.variables(t) <= set(x) for t, x in zip(generator_terms, names)]
    for g, args in derivations:
        inner = [provs[a] for a in args]
        provs.append(terms.substitute(generator_terms[g], dict(zip(names[g], inner)))
                     if usable[g] and all(p is not None for p in inner) else None)
    return provs


_WALKS = {}  # (ops, generator terms, n) -> (derivations, terms), see _factor_walk


def _factor_walk(ops, generator_terms, n, limit):
    """(derivations, terms) of the clone walk on F^n (_bit_walk), memoised
    per generator bits, terms and arity, so every carrier with this factor
    shares one walk. A memoised walk of more than limit tables is refused
    without a walk, and a refused walk memoises nothing."""
    key = (ops, generator_terms, n)
    if key not in _WALKS:
        derivations = _bit_walk(ops, n, limit)
        walk = derivations, derived_terms(generator_terms, [m for m, _ in ops], range(n), derivations)
        if len(_WALKS) >= 64:
            _WALKS.clear()
        _WALKS[key] = walk
    elif n + len(_WALKS[key][0]) > limit:
        raise LimitExceeded(f"clone slice exceeds {limit} tables")
    return _WALKS[key]


def _bit_walk(ops, n, limit):
    """The clone walk on F^n from the n projections, a table an int of 2^n
    bits: per table after them, the generator and argument positions that
    found it first. At the table pos each generator meets tuples_at(pos)
    in order (AND and OR, symmetric, the (c, pos) alone), as operations._walk
    does. Raises LimitExceeded past limit tables."""
    refusal = f"clone slice exceeds {limit} tables"
    if n > limit:
        raise LimitExceeded(refusal)
    full, rows = (1 << (1 << n)) - 1, []
    for i in range(n):  # runs of 2^(n-1-i) cells with bit i of the cell set, every 2^(n-i)
        low = 1 << (n - 1 - i)
        rows.append(full // ((1 << 2 * low) - 1) * (((1 << low) - 1) << low))
    seen, derivations = set(rows), []
    appliers = [_applier(m, bits, full) for m, bits in ops]
    pos = 0
    while pos < len(rows):
        row = rows[pos]
        for g, (m, bits) in enumerate(ops):
            if m == 2 and bits in (AND, OR):
                found = ([row & r for r in rows[:pos + 1]] if bits == AND
                         else [row | r for r in rows[:pos + 1]])
                if seen.issuperset(found):
                    continue
                met = [(t, (c, pos)) for c, t in enumerate(found) if t not in seen]
            else:
                met = [(appliers[g]([rows[a] for a in args]), args) for args in tuples_at(pos, m)]
            for table, args in met:
                if table not in seen:
                    seen.add(table)
                    rows.append(table)
                    derivations.append((g, args))
                    if len(rows) > limit:
                        raise LimitExceeded(refusal)
        pos += 1
    return derivations


def _combine(images, width, homs, cells, placed, limit, refusal):
    """The r-tuples (u_1, ..., u_r) of homomorphisms (ints over the cells)
    whose bits at every cell are an element's code, as (head, ends): the
    lanes of u_1..u_(r-1) (placed(h, i) puts h's bits at bit i of the lanes), and
    the indices of each u_r that completes them. Every tuple is one when
    every code is an element's; else they grow depth first, a partial tuple
    splitting the cells by their bits so far into parts, and a homomorphism
    extends it when it meets no part that cannot take a 1 next and covers
    every part that cannot take a 0 (the last two bits read off the parts
    unsplit). Raises LimitExceeded once more than limit tuples are counted,
    before any table is built."""
    every = range(len(homs))
    if len(images) == 1 << width:
        if len(homs) ** width > limit:
            raise LimitExceeded(refusal)
        return [(sum(map(placed, path, range(width - 1))), every)
                for path in product(every, repeat=width - 1)]
    valid = [{code & ((1 << i) - 1) for code in images} for i in range(width + 1)]
    found, count, memo = [], 0, {(0, 0): every}

    def fitting(no_one, no_zero):  # the homomorphisms that meet no cell of no_one and cover no_zero
        if (no_one, no_zero) not in memo:
            memo[no_one, no_zero] = [h for h in every
                                     if not homs[h] & no_one and homs[h] & no_zero == no_zero]
        return memo[no_one, no_zero]

    def barred(parts, i, tail):  # the cells whose prefix followed by tail is no prefix of length i
        return sum(mask for prefix, mask in parts if prefix | tail not in valid[i])

    def descend(i, parts, head):
        nonlocal count
        bit = 1 << i
        fits = fitting(barred(parts, i + 1, bit), barred(parts, i + 1, 0))
        if i + 1 == width:
            ends = [(head, fits)]
        elif i + 2 == width:  # the last two bits: each fit's split read off four masks
            both, first = barred(parts, width, 3 * bit), barred(parts, width, bit)
            second, neither = barred(parts, width, 2 * bit), barred(parts, width, 0)
            ends = ((head | placed(h, i), fitting(both & homs[h] | second & ~homs[h],
                                                first & homs[h] | neither & ~homs[h])) for h in fits)
        else:
            for h in fits:
                split = [(prefix | bit, mask & homs[h]) for prefix, mask in parts if mask & homs[h]]
                split += [(prefix, mask & ~homs[h]) for prefix, mask in parts if mask & ~homs[h]]
                descend(i + 1, split, head | placed(h, i))
            return
        for end in ends:
            count += len(end[1])
            if count > limit:
                raise LimitExceeded(refusal)
            if end[1]:
                found.append(end)

    descend(0, [(0, (1 << cells) - 1)], 0)
    return found


@lru_cache(maxsize=64)
def family_of(images, width, ops):
    """The family with these codes and generator bits: one object, with its
    planes, for every carrier that has the same codes."""
    return TwoValuedFamily(images, width, ops)


def find_family(size, tables):
    """Two-valued homomorphisms of the generators that separate the carrier, or None.

    tables holds each generator's (arity, values), flat over the grid, such
    as the tables of a subalgebra relabelled 0..size-1. The first generator
    g, when binary, proposes the maps: p is its least element (g(p, x) = p),
    q the lowest other index, and the map of a sends x to q when g(a, x) = a
    and to p otherwise. {p, q} must be closed under every generator; a map
    is kept if it commutes with every generator (checked for all at once,
    a bit each) and splits two elements the maps kept before it do not,
    largest up-set first, ties in index order (so 2^k keeps its k atoms'
    maps). Codes have bit i for q under the i-th map kept (p has code 0),
    and ops each generator's bits on {p, q}, q as 1; the first one's are
    then AND.
    """
    arity, first = tables[0]
    if arity != 2 or size < 2:
        return None
    p = next((a for a in range(size) if all(v == a for v in first[a * size:(a + 1) * size])), None)
    if p is None:
        return None
    q = 1 if p == 0 else 0
    ups = [[first[a * size + x] == a for x in range(size)] for a in range(size)]
    proposals = [sum(up[x] << a for a, up in enumerate(ups)) for x in range(size)]  # bit a: h_a(x)
    wrong, ops = 0, []
    for m, values in tables:
        pair = [values[sum((q if c >> (m - 1 - i) & 1 else p) * size ** (m - 1 - i)
                           for i in range(m))] for c in range(1 << m)]
        if not set(pair) <= {p, q}:
            return None  # a map onto {p, q} could not commute with g
        ops.append((m, sum((v == q) << c for c, v in enumerate(pair))))
        apply = _applier(*ops[-1], (1 << size) - 1)
        for args, value in zip(product(proposals, repeat=m), values):
            wrong |= proposals[value] ^ apply(args)
    code, width = [0] * size, 0
    for a in sorted(range(size), key=lambda a: -sum(ups[a])):
        if not wrong >> a & 1 and len(set(zip(code, ups[a]))) > len(set(code)):
            code = [c | u << width for c, u in zip(code, ups[a])]
            width += 1
    return family_of(tuple(code), width, tuple(ops)) if len(set(code)) == size else None


def two_valued_family(structure, mode):
    """The structure's family in the mode, or None: find_family on its
    meet, and in lattice mode its join too, so that a lattice has one
    exactly when it is distributive (one element has the empty family).
    Decided once per structure and mode and cached on the structure."""
    cache = getattr(structure, "_two_valued_cache", None)
    if cache is None:
        cache = structure._two_valued_cache = {}
    if mode not in cache:
        if structure.size == 1:
            family = family_of((0,), 0, FACTOR_OPS[mode])
        else:
            ops = (structure.meet, structure.join) if mode == "lattice" else (structure.meet,)
            family = find_family(structure.size,
                                 [(2, [v for row in op for v in row]) for op in ops])
        cache[mode] = family
    return cache[mode]
