"""Finitary operations as value tables, relations, and clone machinery.

Value tables are encoded row-major with the last argument varying fastest,
so index(a1,...,an) = ((a1*size + a2)*size + ...) + an. Table equality is
the deduplication key everywhere; the optional provenance term attached to
generated tables is display metadata and takes no part in comparisons.
"""

import numpy as np

from . import symmetry, terms, twovalued
from .errors import (
    DEFAULT_CENTRALIZER_LIMIT,
    DEFAULT_CLONE_LIMIT,
    DEFAULT_CLOSURE_LIMIT,
    ArityMismatch,
    BadIndex,
    BadSpec,
    JoinInSemilatticeMode,
    LimitExceeded,
)
from .lattice import as_count, as_indices, check_index_dtype
from .relations import Relation, decode_index, projection_rows  # noqa: F401  (re-exported)

BLOCK_CELLS = 1 << 18  # cells one block of work may touch; one row may exceed it
BLOCK_BYTES = 1 << 20  # bytes the candidates of one block of the clone walk may take


def argument_columns(size, arity, dtype=int):
    """Value of each argument over the lexicographic grid of all tuples: an
    arity x size^arity array, one row per argument."""
    return np.indices((size,) * arity, dtype=dtype).reshape(arity, size ** arity)


class OpTable:
    """An operation {0..size-1}^arity -> {0..size-1} as an explicit table.

    The values are one immutable bytes object, a byte per cell, so the
    carrier has at most 256 elements: the tables of a slice hold the rows
    its engine built. `values` builds a tuple of ints from them on each
    access and keeps none.
    """

    __slots__ = ("arity", "size", "provenance", "_values", "_array")

    def __init__(self, arity, size, values, provenance=None):
        arity, size = self._checked_shape(arity, size)
        if isinstance(values, np.ndarray):
            if values.ndim != 1:
                raise BadSpec("expected a list of value table entry values, "
                              f"got an array of shape {values.shape}")
            check_index_dtype(values, "value table entry")
        else:
            values = as_indices(values, "value table entry")
        if len(values) != size ** arity:
            raise BadSpec(f"value table must have {size ** arity} entries")
        if isinstance(values, np.ndarray):
            lo, hi = values.min(), values.max()
            values = values.astype(np.uint8).tobytes()
        else:
            lo, hi = min(values), max(values)
        if lo < 0 or hi >= size:
            raise BadSpec("value table entry out of range")
        self.arity, self.size, self.provenance = arity, size, provenance
        self._values, self._array = bytes(values), None

    @staticmethod
    def _checked_shape(arity, size):
        """The arity and carrier size of a table as ints, refused as a table refuses them."""
        arity, size = as_indices((arity, size), "arity or carrier size")
        if arity < 1:
            raise BadSpec("operations must have arity at least 1")
        if size < 1:
            raise BadSpec("carrier must be nonempty")
        if size > 256:
            raise BadSpec(f"carrier of size {size} exceeds the cap 256 of a value table")
        return arity, size

    @classmethod
    def _of_rows(cls, arity, size, rows, provenances):
        """Tables of an engine's rows, bytes objects already in range, unchecked."""
        new, tables = cls.__new__, []
        for row, provenance in zip(rows, provenances):
            op = new(cls)
            op.arity, op.size, op.provenance = arity, size, provenance
            op._values, op._array = row, None
            tables.append(op)
        return tables

    @property
    def values(self):
        return tuple(self._values)

    def index(self, args) -> int:
        if len(args) != self.arity:
            raise ArityMismatch(f"expected {self.arity} arguments, got {len(args)}")
        size = self.size
        idx = 0
        for a in args:
            if type(a) is not int:
                (a,) = as_indices((a,), "argument")
            if not 0 <= a < size:
                raise BadIndex(f"argument {a!r} outside 0..{size - 1}")
            idx = idx * size + a
        return idx

    def __call__(self, *args) -> int:
        return self._values[self.index(args)]

    def array(self):
        """The values as a read-only int64 array, built on first use and kept."""
        if self._array is None:
            self._array = np.array(memoryview(self._values), dtype=np.int64)
            self._array.flags.writeable = False
        return self._array

    def __eq__(self, other):
        return (isinstance(other, OpTable)
                and self.arity == other.arity
                and self.size == other.size
                and self._values == other._values)

    def __hash__(self):
        return hash((self.arity, self.size, self._values))

    def __repr__(self):
        if self.provenance is not None:
            return f"OpTable({self.arity}-ary, {terms.render(self.provenance)})"
        return f"OpTable({self.arity}-ary on {self.size}, {list(self.values)})"


def _apply(g, rows, lanes=None):
    """The m-ary table g applied cell by cell to m bytes rows of one length, as bytes.

    Read as little-endian ints (lanes, if given, holds them, kept by the
    caller), lanes = lanes * size + next per row leaves each cell's index
    into g's table in its byte lane, with no carry while size^m <= 256, and
    translate reads g's values off them. A wider table is indexed cell by cell."""
    size, values = g.size, g._values
    if len(values) <= 256:
        index = 0
        for lane in lanes or [int.from_bytes(row, "little") for row in rows]:
            index = index * size + lane
        return index.to_bytes(len(rows[0]), "little").translate(values.ljust(256, b"\0"))
    index = rows[0]
    for row in rows[1:]:
        index = [i * size + v for i, v in zip(index, row)]
    return bytes(map(values.__getitem__, index))


def term_to_op(term, var_order, algebra) -> OpTable:
    """Tabulate a term over all assignments to the given variable order: the term
    tree walk on the projection rows, the structure's meet and join applied by _apply."""
    var_order = tuple(var_order)
    terms.check_distinct(var_order, "variable")
    missing = terms.variables(term) - set(var_order)
    if missing:
        raise BadSpec(f"term uses variables outside the declared order: {sorted(missing)}")
    meet, *join = generators(algebra, algebra.kind)  # a semilattice's join is never applied
    ops = (lambda a, b: _apply(meet, (a, b))), (lambda a, b: _apply(join[0], (a, b)))
    rows = projection_rows([bytes((x,)) for x in range(algebra.size)], len(var_order))
    (values,) = terms.term_evaluator(algebra, ops)((term,), dict(zip(var_order, rows)))
    return OpTable._of_rows(len(var_order), algebra.size, [values], [term])[0]


def meet_op(algebra) -> OpTable:
    """The meet of the structure as a binary table with term provenance."""
    return OpTable(2, algebra.size, [v for row in algebra.meet for v in row],
                   provenance=terms.Meet(terms.Var("x1"), terms.Var("x2")))


def join_op(lattice) -> OpTable:
    if lattice.kind != "lattice":
        raise JoinInSemilatticeMode("join term evaluated over a meet-semilattice")
    return OpTable(2, lattice.size, [v for row in lattice.join for v in row],
                   provenance=terms.Join(terms.Var("x1"), terms.Var("x2")))


def generators(structure, mode) -> list:
    """Clone generators for a structure: meet and join, or meet only.

    The tables are built once per structure and cached on it; each call
    returns a fresh list of them.
    """
    if mode == "lattice":
        if structure.kind != "lattice":
            raise BadSpec("lattice mode needs a lattice")
    elif mode != "semilattice":
        raise BadSpec(f"unknown mode {mode!r}")
    ops = getattr(structure, "_generators", None)
    if ops is None:
        ops = [meet_op(structure)] + ([join_op(structure)] if structure.kind == "lattice" else [])
        ops = structure._generators = tuple(ops)
    return list(ops if mode == "lattice" else ops[:1])


def projection(n, i, size) -> OpTable:
    """The projection onto the i-th of n coordinates (i is 1-based)."""
    n, i, size = as_indices((n, i, size), "projection arity, index or carrier size")
    if not 1 <= i <= n:
        raise BadIndex(f"projection index {i} outside 1..{n}")
    n, size = OpTable._checked_shape(n, size)  # refused before any row is built
    row = projection_rows([bytes((x,)) for x in range(size)], n)[i - 1]
    return OpTable._of_rows(n, size, [row], [terms.Var(f"x{i}")])[0]


def _row_keys(rows):
    """One exact key per row of a contiguous array: its bytes, read as one
    unsigned integer if they fit in eight, else as a void."""
    width = rows.dtype.itemsize * rows.shape[1]
    key = np.dtype(f"u{width}") if width in (1, 2, 4, 8) else np.dtype((np.void, width))
    return rows.view(key).ravel()


def _relation_rows(relation):
    """The relation's tuples as a narrow (tuples x arity) array and its sorted
    _row_keys, built once per relation and kept on it."""
    if relation._keyed is None:
        rows = np.array(relation.tuples, dtype=np.min_scalar_type(relation.size - 1))
        relation._keyed = rows, np.sort(_row_keys(rows))
    return relation._keyed


def preserves(f, relation):
    """Is the relation closed under componentwise application of f?

    On failure returns (rows, image): the lexicographically first arity-many
    relation members whose componentwise image escapes the relation. The
    choices of members run in lexicographic order, in blocks that touch at
    most BLOCK_CELLS cells unless one choice needs more.
    """
    if f.size != relation.size:
        raise ArityMismatch("preservation across different carriers")
    if not len(relation) or not relation.arity:
        return True, None
    arr, member = _relation_rows(relation)
    m, r, values = f.arity, len(arr), f.array().astype(arr.dtype)
    step = max(1, BLOCK_CELLS // (m * arr.shape[1]))
    for start in range(0, r ** m, step):
        choice = np.arange(start, min(start + step, r ** m))
        cols = np.array([choice // r ** (m - 1 - i) % r for i in range(m)])
        image = _lookup(values, arr.take(cols, axis=0), f.size)
        keys = _row_keys(image)
        ok = member[np.minimum(np.searchsorted(member, keys), r - 1)] == keys
        if not ok.all():
            bad = int(np.argmin(ok))
            return False, (tuple(relation.tuples[c[bad]] for c in cols), tuple(image[bad].tolist()))
    return True, None


def _slice_arguments(generator_ops, n):
    """The generators as a list, their carrier size and the slice arity, checked."""
    generator_ops = list(generator_ops)
    if not generator_ops:
        raise BadSpec("at least one generator is required")
    if any(g.size != generator_ops[0].size for g in generator_ops):
        raise BadSpec("generators must share a carrier")
    return generator_ops, generator_ops[0].size, twovalued.slice_arity(n)


_RECORDS = {}  # generator tables and terms -> (family, ops, slices, judged), see _generator_record


def _record_key(generator_ops):
    return tuple((g.arity, g.size, g._values, g.provenance) for g in generator_ops)


def _generator_record(generator_ops):
    """(family, ops, slices, judged), kept once per generator set: the
    family of twovalued.find_family or None, per generator (arity,
    symmetric, narrow values), the clone slices found so far, arity ->
    tables (see clone_slice), and the verdicts on subalgebras so far, by
    member bits and by restricted tables (see symmetry.separating_cells).
    """
    key = _record_key(generator_ops)
    if key not in _RECORDS:
        family = twovalued.find_family(generator_ops[0].size,
                                       [(g.arity, g._values) for g in generator_ops])
        ops = [(g.arity, symmetry.is_symmetric(g), g.array().astype(np.uint8))
               for g in generator_ops]
        _keep(key, (family, ops, {}, ({}, {})))
    return _RECORDS[key]


def _keep(key, record):
    if len(_RECORDS) >= 64:
        _RECORDS.clear()
    _RECORDS[key] = record


def _lookup(values, found, size):
    """Values of the generator at the codes of its argument rows found (one
    per argument), e.g. rows.take(args, axis=0) for an m x T index array."""
    idx = found[0].astype(np.min_scalar_type(len(values) - 1))
    for f in found[1:]:
        idx *= size
        idx += f
    return values.take(idx)


def _tuples_with(lo, hi, m, symmetric):
    """The tuples the clone walk meets at positions lo..hi-1 for an m-ary generator (m x T
    indices) and each one's position, position by position. At pos: the m-tuples over 0..pos
    containing pos in lexicographic order (an entry below pos leaves pos to the tail, pos
    itself any tail); for a symmetric generator the nondecreasing ones, first among their
    reorderings: (c, pos) for c <= pos if binary, else the ones filtered."""
    if symmetric and m == 2:
        at, first = (np.arange(lo, hi)[:, None] >= np.arange(hi)).nonzero()
        at += lo
        return np.array([first, at]), at
    dtype = np.min_scalar_type(hi ** m)
    pos = np.arange(lo, hi, dtype=dtype)
    counts = (pos + 1) ** m - pos ** m
    at = pos.repeat(counts)
    rank = np.arange(len(at), dtype=dtype) - (counts.cumsum(dtype=dtype) - counts).repeat(counts)
    cols, left, free = [], rank, np.zeros(len(at), dtype=bool)  # free: pos already taken
    for k in range(m - 1, 0, -1):  # k entries follow this one
        with_pos = (at + 1) ** k - at ** k  # the tails over 0..pos that contain pos
        lead = ~free & (left < at * with_pos)  # an entry below pos, pos in the tail
        div = np.where(free, (at + 1) ** k, with_pos)
        cols.append(np.where(free | lead, left // div, at))
        left = np.where(free | lead, left % div, left - at * with_pos)
        free |= ~lead
    cols = np.array(cols + [np.where(free, left, at)])
    keep = (cols[:-1] <= cols[1:]).all(axis=0) if symmetric else slice(None)
    return cols[:, keep], at[keep]


def _walk(start, ops, size, limit, refusal):
    """The clone walk from the distinct start rows: the rows in the order found and, after
    the start, the generator and argument rows (padded with 0) that found each first.
    Raises LimitExceeded(refusal) past limit. A block takes the positions from lo up to the
    row count as far as BLOCK_BYTES allows; every generator meets the tuples of _tuples_with,
    and new keys are kept in the sequential walk's (position, generator, tuple) order.
    ops holds each generator's (arity, symmetric, narrow values), applied by _lookup."""
    count = len(start)
    if count > limit:
        raise LimitExceeded(refusal)
    rows = np.concatenate((start, np.empty((max(count, 16),) + start.shape[1:], start.dtype)))
    by_key = np.argsort(_row_keys(start))  # the tables in the order of their keys
    width = max(m for m, *_ in ops)
    gens, args = [np.empty(0, dtype=int)], [np.empty((width, 0), dtype=int)]
    # per tuple: the index columns, positions and ranks, their intp copies in np.take, and per
    # cell the candidate's codes, an argument, their intp copy and a value
    per = [(m, s, (m + 2) * 8 + 8 * m + start.shape[1] * (
        np.min_scalar_type(len(values) - 1).itemsize + 2 * values.itemsize + 8))
        for m, s, values in ops]

    def below(p, m, s):  # the tuples at the positions below p
        return p * (p + 1) // 2 if s and m == 2 else p ** m
    lo = 0
    while lo < count:
        hi = count  # unless the tuples at positions lo..count-1 take more than BLOCK_BYTES
        if sum(b * (below(count, m, s) - below(lo, m, s)) for m, s, b in per) > BLOCK_BYTES:
            ends = np.arange(lo + 1, count + 1.0)  # a block ending at each later position
            cost = sum(b * (below(ends, m, s) - below(lo, m, s)) for m, s, b in per)
            hi = lo + max(1, int(cost.searchsorted(BLOCK_BYTES, side="right")))
        shapes = {(m, s): _tuples_with(lo, hi, m, s) for m, s, _ in ops}  # one per shape
        args_of = {shape: rows.take(cols, axis=0) for shape, (cols, _) in shapes.items()}
        block = [shapes[m, s] for m, s, _ in ops]
        found = np.concatenate([_lookup(values, args_of[m, s], size) for m, s, values in ops])
        known = _row_keys(rows[:count])
        near = np.minimum(known.searchsorted(_row_keys(found), sorter=by_key), count - 1)
        miss = (rows.take(by_key[near], axis=0) != found).any(axis=1).nonzero()[0]
        lo = hi
        if not len(miss):
            continue
        gen = np.arange(len(block)).repeat([len(at) for _, at in block])[miss]
        at = np.concatenate([at for _, at in block])[miss].astype(np.int64)
        cols = np.concatenate([c if len(c) == width else np.vstack((c, np.zeros(
            (width - len(c), c.shape[1]), dtype=c.dtype))) for c, _ in block], axis=1)[:, miss]
        found = found[miss]
        order = np.argsort(at * len(block) + gen, kind="stable")  # stable: tuples stay in order
        keys, first = np.unique(_row_keys(found)[order], return_index=True)
        new = np.sort(first)
        if count + len(new) > limit:
            raise LimitExceeded(refusal)
        while count + len(new) > len(rows):
            rows = np.concatenate((rows, np.empty_like(rows)))
        pick = order[new]
        rows[count:count + len(new)] = found[pick]
        by_key = np.insert(by_key, known.searchsorted(keys, sorter=by_key),
                           count + new.searchsorted(first))
        count += len(new)
        gens.append(gen[pick])
        args.append(cols[:, pick])
    return rows[:count], np.concatenate(gens), np.concatenate(args, axis=1)


def clone_slice(generator_ops, n, limit=DEFAULT_CLONE_LIMIT):
    """The n-ary part of the clone generated by the given operations.

    Starts from the n projections; at the table with index pos, each m-ary
    generator meets the m-tuples of tables 0..pos that contain pos, up to a
    fixpoint. With a two-valued family (twovalued.find_family) the walk
    runs on {0, 1}^n and TwoValuedFamily.clone_rows replays the tables in
    byte lanes, with no numpy; the walk is memoised per two-element factor
    and arity. Without one, _walk runs on symmetry.separating_cells, whose
    values tell term operations apart, so it finds, orders and refuses as a
    walk on every cell would; the full tables are then replayed from its
    derivations as bytes rows, one derivation at a time by _apply from the
    projection rows, and the terms composed. Returns tables sorted by
    values, each holding its row of the engine's bytes; raises
    LimitExceeded past the limit, and BadSpec for a limit that is not a
    nonnegative integer. Memoised in the generator record: the walk refuses
    exactly when it finds more than limit tables, so a memoised slice
    longer than the limit is refused.
    """
    generator_ops, size, n = _slice_arguments(generator_ops, n)
    limit = as_count(limit, "limit")
    family, ops, slices, _ = _generator_record(generator_ops)
    refusal = f"clone slice exceeds {limit} tables"
    if n in slices:
        if len(slices[n]) > limit:
            raise LimitExceeded(refusal)
        return list(slices[n])
    if family is not None:
        tables = OpTable._of_rows(n, size, *family.clone_rows(
            [g.provenance for g in generator_ops], n, limit))
        slices[n] = tuple(tables)
        return tables
    walked = n if size > 1 else 1  # the projections on one element are all x1
    cells = symmetry.separating_cells(generator_ops, n)
    start = argument_columns(size, n, np.uint8)[:walked].take(cells, axis=1)  # the projections
    gens, args = _walk(start, ops, size, limit, refusal)[1:]
    derivations = [(g, tuple_[:generator_ops[g].arity])
                   for g, tuple_ in zip(gens.tolist(), args.T.tolist())]
    provs = twovalued.derived_terms([g.provenance for g in generator_ops],
                                    [g.arity for g in generator_ops], range(walked), derivations)
    rows = projection_rows([bytes((x,)) for x in range(size)], n)[:walked]
    lanes = [int.from_bytes(row, "little") for row in rows]  # each row's int, read once
    for g, tuple_ in derivations:
        rows.append(_apply(generator_ops[g], [rows[a] for a in tuple_], [lanes[a] for a in tuple_]))
        lanes.append(int.from_bytes(rows[-1], "little"))
    order = sorted(range(len(rows)), key=rows.__getitem__)
    tables = OpTable._of_rows(n, size, [rows[i] for i in order], [provs[i] for i in order])
    slices[n] = tuple(tables)
    return tables


# The cells defined after branching on x1..xj form the subalgebra of A^k
# they generate, whatever the values: the closure the clone walk computes.
# The next layer branches on the lowest cell outside it, then runs rounds:
# each meets, per generator, the tuples of defined cells holding a cell the
# last round defined, as the walk meets them (_tuples_with: for a symmetric
# generator only the nondecreasing ones, since their reorderings give the
# same constraint). A tuple defines its target cell if that is undefined,
# else checks it; so every tuple is met once, in the round that defines its
# last cell.
def _layer_plan(generator_ops, size, k):
    """The value-independent plan of the centralizer search at arity k.

    Returns each cell's position (order of definition) and, per layer, its
    stop position, tuple count and rounds of defining and checking steps
    (values, m x T argument positions, T target positions).
    """
    ncells = size ** k
    pos_type = np.min_scalar_type(ncells - 1)
    digits = argument_columns(size, k, np.uint8).T  # each cell's digits
    weights = size ** np.arange(k - 1, -1, -1)
    position, cells = np.full((2, ncells), -1)  # cells: the cell at each position
    ops = _generator_record(generator_ops)[1]
    layers = []
    filled = branch = 0
    while filled < ncells:
        while position[branch] >= 0:
            branch += 1
        position[branch], cells[filled] = filled, branch
        lo, filled = filled, filled + 1
        rounds, tuples = [], 0
        while lo < filled:
            hi, defines, checks = filled, [], []
            for m, symmetric, values in ops:
                args = _tuples_with(lo, hi, m, symmetric)[0]
                tuples += args.shape[1]
                target = _lookup(values, digits.take(cells[args], axis=0), size) @ weights
                if (position[target] < 0).any():
                    owner = np.full(ncells, -1)
                    owner[target] = np.arange(len(target))
                    new = np.flatnonzero((owner >= 0) & (position < 0))
                    position[new] = np.arange(filled, filled + len(new))
                    cells[filled:filled + len(new)] = new
                    filled += len(new)
                    defining = owner[new]
                    defines.append((values, args[:, defining].astype(pos_type),
                                    position[new].astype(pos_type)))
                    kept = np.ones(len(target), dtype=bool)
                    kept[defining] = False
                    args, target = args[:, kept], target[kept]
                if len(target):
                    checks.append((values, args.astype(pos_type), position[target].astype(pos_type)))
            rounds.append((defines, checks))
            lo = hi
        layers.append((filled, tuples, rounds))
    return position, layers


def _plan_search(position, layers, size):
    """Blocks (cells x tables) of the tables the layer plan admits, in
    lexicographic order.

    The plan runs depth first over blocks of partial tables (columns of a
    position x row array): a block is expanded by every value of the
    branch cell, each round fills its cells and drops the rows a check
    contradicts, and the survivors are pushed. An expansion or a chunk of
    checks touches at most BLOCK_CELLS cells unless one row needs more.
    Cells below a branch cell are defined before it, and the values are
    tried in ascending order, so the tables come out in lexicographic order.
    """
    values = np.arange(size, dtype=np.uint8)
    stack = [(0, np.empty((0, 1), dtype=np.uint8))]  # (layer to expand, its block)
    while stack:
        j, block = stack.pop()
        stop, tuples, rounds = layers[j]
        take = max(1, BLOCK_CELLS // (size * (stop + tuples)))
        if block.shape[1] > take:
            stack.append((j, block[:, take:]))
            block = block[:, :take]
        rows = np.empty((stop, block.shape[1] * size), dtype=np.uint8)
        rows[:len(block)].reshape(len(block), block.shape[1], size)[...] = block[:, :, None]
        rows[len(block)].reshape(-1, size)[...] = values
        for defines, checks in rounds:
            if not rows.shape[1]:
                break
            for table, args, targets in defines:
                rows[targets] = _lookup(table, rows.take(args, axis=0), size)
            ok = np.ones(rows.shape[1], dtype=bool)
            chunk = max(1, BLOCK_CELLS // rows.shape[1])
            for table, args, targets in checks:
                for c in range(0, len(targets), chunk):
                    ok &= (_lookup(table, rows.take(args[:, c:c + chunk], axis=0), size)
                           == rows[targets[c:c + chunk]]).all(axis=0)
            if not ok.all():
                rows = rows[:, ok]
        if j + 1 < len(layers):
            if rows.shape[1]:
                stack.append((j + 1, rows))
        elif rows.shape[1]:
            yield rows[position]


def centralizer_slice(generator_ops, k, limit=DEFAULT_CENTRALIZER_LIMIT):
    """All k-ary operations commuting with every generator, in lexicographic order.

    A k-ary f commutes with an m-ary generator g exactly when f is a
    homomorphism A^k -> A for g: f(g(c1, ..., cm)) = g(f(c1), ..., f(cm))
    for all cells c1..cm of A^k, with g applied digitwise on the left.
    With a two-valued family, TwoValuedFamily.centralizer_rows combines its
    homomorphisms A^k -> {0, 1} and counts the tables before it decodes
    any; without one, _plan_search lists them with every value at every
    branch cell. Raises LimitExceeded past the limit.
    """
    generator_ops, size, k = _slice_arguments(generator_ops, k)
    limit = as_count(limit, "limit")
    family = _generator_record(generator_ops)[0]
    if family is not None:
        rows = family.centralizer_rows(k, limit)
    else:
        rows = []
        for block in _plan_search(*_layer_plan(generator_ops, size, k), size):
            if len(rows) + block.shape[1] > limit:
                raise LimitExceeded(f"centralizer slice exceeds {limit} tables")
            rows += [row.tobytes() for row in block.T]
    return OpTable._of_rows(k, size, rows, [None] * len(rows))


def closure_under(relation, ops, limit=DEFAULT_CLOSURE_LIMIT) -> Relation:
    """Least superset of the relation closed under every given operation, by
    the clone walk over its tuples (see _walk); raises LimitExceeded once a
    tuple is added past the limit."""
    ops = list(ops)
    limit = as_count(limit, "limit")
    if any(op.size != relation.size for op in ops):
        raise ArityMismatch("closure across different carriers")
    size, h = relation.size, relation.arity
    if not len(relation) or not h or not ops:
        return relation
    # a relation past the limit that is closed already is no refusal
    rows = _walk(_relation_rows(relation)[0], _generator_record(ops)[1], size,
                 max(limit, len(relation)), f"closure exceeds {limit} tuples")[0]
    return Relation(h, size, rows)
