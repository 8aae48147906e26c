"""Finitary operations as value tables, relations, and clone machinery.

Value tables are encoded row-major with the last argument varying fastest,
so index(a1,...,an) = ((a1*size + a2)*size + ...) + an. Table equality is
the deduplication key everywhere; the optional provenance term attached to
generated tables is display metadata and takes no part in comparisons.
"""

from itertools import combinations_with_replacement, product
from math import prod

import numpy as np

from . import symmetry, terms
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
from .lattice import as_indices, check_index_dtype

BLOCK_CELLS = 1 << 18  # cells one block of work may touch; one row may exceed it


def argument_columns(size, arity):
    """Value of each argument over the lexicographic grid of all tuples."""
    n = size ** arity
    cols = []
    for i in range(arity):
        block = size ** (arity - 1 - i)
        cols.append((np.arange(n) // block) % size)
    return cols


def decode_index(idx, size, arity):
    out = []
    for _ in range(arity):
        idx, r = divmod(idx, size)
        out.append(r)
    return tuple(reversed(out))


class OpTable:
    """An operation {0..size-1}^arity -> {0..size-1} as an explicit table.

    The values are one row of a read-only matrix in the narrowest unsigned
    dtype: the tables of a slice are the rows of its value matrix, and a
    table built by hand holds a one-row matrix of its own. `values` builds
    a tuple of ints from the row on each access and keeps none.
    """

    __slots__ = ("arity", "size", "provenance", "_matrix", "_row", "_array")

    def __init__(self, arity, size, values, provenance=None):
        arity, size = as_indices((arity, size), "arity or carrier size")
        if arity < 1:
            raise BadSpec("operations must have arity at least 1")
        if size < 1:
            raise BadSpec("carrier must be nonempty")
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
        else:
            lo, hi = min(values), max(values)
        if lo < 0 or hi >= size:
            raise BadSpec("value table entry out of range")
        # a copy, so that the caller's array stays theirs to change
        matrix = np.array(values, dtype=np.min_scalar_type(size - 1)).reshape(1, -1)
        matrix.flags.writeable = False
        self._bind(arity, size, matrix, 0, provenance)

    def _bind(self, arity, size, matrix, row, provenance):
        self.arity, self.size, self.provenance = arity, size, provenance
        self._matrix, self._row, self._array = matrix, row, None

    @property
    def values(self):
        return tuple(self._matrix[self._row].tolist())

    def _bytes(self):
        return self._matrix[self._row].tobytes()

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
        return self._matrix.item(self._row, self.index(args))

    def array(self):
        """The values as a read-only int64 array, built on first use and kept."""
        if self._array is None:
            self._array = self._matrix[self._row].astype(np.int64)
            self._array.flags.writeable = False
        return self._array

    def __eq__(self, other):
        return (isinstance(other, OpTable)
                and self.arity == other.arity
                and self.size == other.size
                and self._bytes() == other._bytes())

    def __hash__(self):
        return hash((self.arity, self.size, self._bytes()))

    def __repr__(self):
        if self.provenance is not None:
            return f"OpTable({self.arity}-ary, {terms.render(self.provenance)})"
        return f"OpTable({self.arity}-ary on {self.size}, {list(self.values)})"


def _checked_tables(matrix, arity, size, provenances):
    """Tables from the rows of a (tables x size^arity) integer matrix, whose
    dtype, shape and range are checked once for the whole matrix.

    The tables share the matrix, read-only in the narrowest unsigned dtype:
    the given one unless it has another dtype, which is converted.
    """
    check_index_dtype(matrix, "value table entry")
    if matrix.ndim != 2 or matrix.shape[1] != size ** arity:
        raise BadSpec(f"table block of shape {matrix.shape} does not have {size ** arity} columns")
    if matrix.size and (matrix.min() < 0 or matrix.max() >= size):
        raise BadSpec("value table entry out of range")
    matrix = np.ascontiguousarray(matrix, dtype=np.min_scalar_type(size - 1))
    matrix.flags.writeable = False
    tables = []
    for row, provenance in enumerate(provenances):
        op = OpTable.__new__(OpTable)
        op._bind(arity, size, matrix, row, provenance)
        tables.append(op)
    return tables


def _checked_rows(array, arity, size):
    """The rows of a (rows x arity) integer array as tuples, its range checked in one pass."""
    check_index_dtype(array, "tuple entry")
    if array.ndim != 2 or array.shape[1] != arity:
        raise BadSpec(f"tuple array of shape {array.shape} does not have arity {arity}")
    if array.size and (array.min() < 0 or array.max() >= size):
        bad = array[((array < 0) | (array >= size)).any(axis=1)][0]
        raise BadSpec(f"tuple {tuple(bad.tolist())!r} has an entry out of range")
    return zip(*array.T.tolist()) if arity else [()] * len(array)


class Relation:
    """A set of fixed-arity tuples in canonical sorted, deduplicated form.

    The tuples are kept as a sorted tuple; the set that membership and
    inclusion read is built on the first `in` or issubset.
    """

    def __init__(self, arity, size, tuples):
        arity, size = as_indices((arity, size), "arity or carrier size")
        if arity < 0:
            raise BadSpec("relations must have nonnegative arity")
        self.arity = arity
        self.size = size
        if isinstance(tuples, np.ndarray):
            normalized = set(_checked_rows(tuples, arity, size))
        else:
            normalized = set()
            for t in tuples:
                t = as_indices(t, "tuple entry")
                if len(t) != arity:
                    raise BadSpec(f"tuple {t!r} does not have arity {arity}")
                if any(v < 0 or v >= size for v in t):
                    raise BadSpec(f"tuple {t!r} has an entry out of range")
                normalized.add(t)
        self.tuples = tuple(sorted(normalized))
        self._set = None

    @classmethod
    def _trusted(cls, arity, size, tuples):
        """A relation whose tuples are already a sorted, duplicate-free tuple
        of int tuples in range."""
        relation = cls.__new__(cls)
        relation.arity, relation.size, relation.tuples, relation._set = arity, size, tuples, None
        return relation

    def _members(self):
        if self._set is None:
            self._set = frozenset(self.tuples)
        return self._set

    @classmethod
    def full(cls, arity, size):
        return cls(arity, size, product(range(size), repeat=arity))

    def __contains__(self, t):
        return tuple(t) in self._members()

    def __iter__(self):
        return iter(self.tuples)

    def __len__(self):
        return len(self.tuples)

    def __eq__(self, other):
        return (isinstance(other, Relation)
                and self.arity == other.arity
                and self.size == other.size
                and self.tuples == other.tuples)

    def __hash__(self):
        return hash((self.arity, self.size, self.tuples))

    def issubset(self, other) -> bool:
        return self._members() <= other._members()

    def __repr__(self):
        return f"Relation({self.arity}-ary on {self.size}, {len(self.tuples)} tuples)"


def relation_from_mask(mask, arity, size) -> Relation:
    """The tuples of the grid {0..size-1}^arity at which the mask holds.

    The mask is flat in lexicographic order or already has one axis per
    coordinate. np.nonzero lists the cells in row-major, that is
    lexicographic, order, so its rows need no sorting or deduplication.
    """
    if arity == 0:
        return Relation._trusted(0, size, ((),) if np.any(mask) else ())
    coords = np.nonzero(np.reshape(mask, (size,) * arity))
    return Relation._trusted(arity, size, tuple(zip(*[c.tolist() for c in coords])))


def _flat_tables(algebra):
    """The flat meet table and, over a lattice, the flat join table (else None).

    Built once per structure and cached on it read-only, like the verdict
    caches of latclone.lattice.
    """
    cached = getattr(algebra, "_flat_tables", None)
    if cached is None:
        tables = [algebra.meet] + ([algebra.join] if algebra.kind == "lattice" else [])
        flat = np.array(tables, dtype=np.int64).reshape(len(tables), -1)
        flat.flags.writeable = False
        cached = algebra._flat_tables = (flat[0], flat[1] if len(tables) == 2 else None)
    return cached


def term_evaluator(algebra):
    """ev(roots, env): the values of the terms in roots, as a list, over the
    int arrays env assigns to their variables.

    The evaluator indexes the structure's meet and join tables as 2-D arrays,
    once per node. A root that recurs inside a later root is not evaluated
    again: "s <= t" stands for the atom s = s /\\ t, and the s inside reads
    the value of the root s. A join over a meet-semilattice raises
    JoinInSemilatticeMode.
    """
    size = algebra.size
    flat_meet, flat_join = _flat_tables(algebra)
    meet = flat_meet.reshape(size, size)
    join = None if flat_join is None else flat_join.reshape(size, size)

    def value(term, env, done):
        if isinstance(term, terms.Var):
            return env[term.name]
        out = done.get(id(term))
        if out is None:
            a, b = value(term.left, env, done), value(term.right, env, done)
            if isinstance(term, terms.Meet):
                out = meet[a, b]
            elif join is None:
                raise JoinInSemilatticeMode("join term evaluated over a meet-semilattice")
            else:
                out = join[a, b]
        return out

    def ev(roots, env):
        done, values = {}, []  # done: id of each root evaluated so far -> its value
        for root in roots:
            values.append(value(root, env, done))
            done[id(root)] = values[-1]
        return values

    return ev


def term_to_op(term, var_order, algebra) -> OpTable:
    """Tabulate a term over all assignments to the given variable order."""
    var_order = tuple(var_order)
    terms.check_distinct(var_order, "variable")
    missing = terms.variables(term) - set(var_order)
    if missing:
        raise BadSpec(f"term uses variables outside the declared order: {sorted(missing)}")
    env = dict(zip(var_order, argument_columns(algebra.size, len(var_order))))
    (values,) = term_evaluator(algebra)((term,), env)
    return OpTable(len(var_order), algebra.size, values, provenance=term)


def meet_op(algebra) -> OpTable:
    """The meet of the structure as a binary table with term provenance."""
    return term_to_op(terms.Meet(terms.Var("x1"), terms.Var("x2")), ("x1", "x2"), algebra)


def join_op(lattice) -> OpTable:
    return term_to_op(terms.Join(terms.Var("x1"), terms.Var("x2")), ("x1", "x2"), lattice)


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
    col = argument_columns(size, n)[i - 1]
    return OpTable(n, size, col, provenance=terms.Var(f"x{i}"))


def _composed_provenance(f, inner):
    """The term of f applied to the inner terms, or None if any term is missing."""
    if f.provenance is None or any(p is None for p in inner):
        return None
    mapping = {f"x{i + 1}": p for i, p in enumerate(inner)}  # f's positional variables
    if not terms.variables(f.provenance) <= mapping.keys():
        return None
    return terms.substitute(f.provenance, mapping)


def _row_keys(rows, size):
    """One exact key per row of entries below size: its bytes in the narrowest
    dtype, read as one unsigned integer if they fit in eight, else as a void."""
    rows = np.ascontiguousarray(rows, dtype=np.min_scalar_type(size - 1))
    width = rows.dtype.itemsize * rows.shape[1]
    key = np.dtype(f"u{width}") if width in (1, 2, 4, 8) else np.dtype((np.void, width))
    return rows.view(key).ravel()


def _images(f, rows):
    """Blocks (start, image) of f applied componentwise to every f.arity-tuple of
    the rows of an integer array.

    Choices run in lexicographic order, the first row slowest: choice i
    picks the rows decode_index(i, len(rows), f.arity), and a block holds
    one image row (of the narrowest value dtype) for each of the
    consecutive choices from `start` on. The codes of the last k arguments
    are built once for every tuple of rows, k as large as BLOCK_CELLS
    allows, and a block pairs them with consecutive choices of the first
    arity - k rows; it touches at most BLOCK_CELLS cells unless one choice
    needs more.
    """
    size, m, (r, cols) = f.size, f.arity, rows.shape
    values = f.array().astype(np.min_scalar_type(size - 1))
    code_type = np.min_scalar_type(size ** m - 1)
    rest, k = np.zeros((1, cols), dtype=code_type), 0  # codes of the last k arguments
    while k < m and len(rest) * r * cols <= BLOCK_CELLS:
        rest = (rows[:, None, :].astype(code_type) * size ** k + rest).reshape(-1, cols)
        k += 1
    step = max(1, BLOCK_CELLS // rest.size)
    for first in range(0, r ** (m - k), step):
        # the codes of the first m - k rows of choices first, first + 1, ...:
        # their digits, last first, come from adding first's digits with carries
        carry = np.arange(min(step, r ** (m - k) - first))
        code = np.zeros((len(carry), cols), dtype=code_type)
        for i, digit in enumerate(reversed(decode_index(first, r, m - k))):
            carry += digit
            code += rows[carry % r].astype(code_type) * size ** (k + i)
            carry //= r
        yield first * len(rest), values[(code[:, None, :] + rest).reshape(-1, cols)]


def preserves(f, relation):
    """Is the relation closed under componentwise application of f?

    On failure returns (rows, image): the lexicographically first arity-many
    relation members whose componentwise image escapes the relation.
    """
    if f.size != relation.size:
        raise ArityMismatch("preservation across different carriers")
    if not len(relation) or not relation.arity:
        return True, None
    arr = np.array(relation.tuples, dtype=np.min_scalar_type(f.size - 1))
    member = _row_keys(arr, f.size)
    for start, image in _images(f, arr):
        ok = np.isin(_row_keys(image, f.size), member)
        if not ok.all():
            bad = int(np.argmin(ok))
            picked = tuple(relation.tuples[i] for i in decode_index(start + bad, len(arr), f.arity))
            return False, (picked, tuple(image[bad].tolist()))
    return True, None


_SLICE_MEMO = {}  # memo key -> (tables, their value matrix)


def _slice_key(generator_ops, n, limit):
    return tuple((g.arity, g.size, g._bytes(), g.provenance) for g in generator_ops), n, limit


def _lex_order(matrix):
    """The order that sorts the rows of an unsigned integer matrix
    lexicographically: their entries big-endian, compared as void bytes."""
    if matrix.itemsize > 1:
        matrix = matrix.astype(matrix.dtype.newbyteorder(">"))
    return np.argsort(matrix.view(np.dtype((np.void, matrix.itemsize * matrix.shape[1]))).ravel())


def _tuples_with(pos, m, symmetric):
    """The m-tuples over 0..pos containing pos, in lexicographic order; for a
    symmetric generator only the nondecreasing ones, which come first among
    their reorderings and give the same tables.

    Otherwise a tuple whose first entry is below pos needs pos in its tail,
    and one that starts with pos takes any tail.
    """
    if symmetric:
        return [c + (pos,) for c in combinations_with_replacement(range(pos + 1), m - 1)]
    if m == 1:
        return [(pos,)]
    with_pos = _tuples_with(pos, m - 1, False)
    return ([(a,) + t for a in range(pos) for t in with_pos]
            + [(pos,) + t for t in product(range(pos + 1), repeat=m - 1)])


def clone_slice(generator_ops, n, limit=DEFAULT_CLONE_LIMIT):
    """The n-ary part of the clone generated by the given operations.

    Starts from the n projections; at the table with index pos, each m-ary
    generator meets the m-tuples of tables 0..pos that contain pos, and each
    new table is appended with its provenance term, up to a fixpoint. The
    walk computes only the cells symmetry.representative_cells picks (the
    2^n cells {p, q}^n when two-valued homomorphisms separate the carrier
    and A^n has at least symmetry.MIN_CELLS cells, else every cell) and
    rebuilds each full table from those at the end. A block of candidates
    is compared by exact byte keys, each new key taken at its first index
    in the block.
    Returns tables sorted by values, the rows of one value matrix (see
    slice_matrix); raises LimitExceeded when the slice would grow past the
    limit. Results are memoised: the computation is a pure function of the
    generator tables.
    """
    generator_ops = list(generator_ops)
    if not generator_ops:
        raise BadSpec("at least one generator is required")
    size = generator_ops[0].size
    if any(g.size != size for g in generator_ops):
        raise BadSpec("generators must share a carrier")
    n = as_indices([n], "slice arity")[0]
    if n < 1:
        raise BadSpec("slice arity must be at least 1")
    memo_key = _slice_key(generator_ops, n, limit)
    cached = _SLICE_MEMO.get(memo_key)
    if cached is not None:
        return list(cached[0])

    # candidates are compared by their bytes in the narrowest type that holds a value
    narrow = np.min_scalar_type(size - 1)
    reps, rebuild = symmetry.representative_cells(generator_ops, n)
    rows = np.empty((max(n, 16), len(reps)), dtype=narrow)  # doubles when full
    provs = []
    seen = set()

    def add(key, vec, prov):
        """Append vec, a table not seen before whose bytes are key, with its provenance."""
        nonlocal rows
        count = len(seen)
        if count >= limit:
            raise LimitExceeded(f"clone slice exceeds {limit} tables")
        if count == len(rows):
            rows = np.concatenate((rows, np.empty_like(rows)))
        rows[count] = vec
        seen.add(key)
        provs.append(prov)

    for i in range(n):
        col = (reps // size ** (n - 1 - i) % size).astype(narrow)
        if col.tobytes() not in seen:
            add(col.tobytes(), col, terms.Var(f"x{i + 1}"))

    walks = [(g, g.array().astype(narrow), symmetry.is_symmetric(g),
              np.min_scalar_type(size ** g.arity - 1))
             for g in generator_ops]
    pos = 0
    while pos < len(provs):
        for g, values, symmetric, idx_type in walks:
            if g.arity == 2:  # (c, pos) for c < heads, then (pos, c) for c <= pos unless symmetric
                heads, combos = (pos + 1 if symmetric else pos), None
                idx = rows[:heads].astype(idx_type)
                idx *= size
                idx += rows[pos]
                if not symmetric:
                    idx = np.concatenate((idx, rows[pos].astype(idx_type) * size + rows[:pos + 1]))
            else:
                combos = _tuples_with(pos, g.arity, symmetric)
                idx = rows[[c[0] for c in combos]].astype(idx_type)
                for i in range(1, g.arity):
                    idx *= size
                    idx += rows[[c[i] for c in combos]]
            found = values[idx]
            keys = found.view(np.dtype((np.void, found.shape[1] * found.itemsize))).ravel().tolist()
            first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))  # each key's first index
            for j in sorted(first[key] for key in first.keys() - seen):
                if combos is None:
                    combo = (j, pos) if j < heads else (pos, j - heads)
                else:
                    combo = combos[j]
                add(keys[j], found[j], _composed_provenance(g, [provs[c] for c in combo]))
        pos += 1

    # the full tables, rebuilt in blocks of at most BLOCK_CELLS cells, then sorted
    count, step = len(provs), max(1, BLOCK_CELLS // size ** n)
    matrix = np.empty((count, size ** n), dtype=narrow)
    for start in range(0, count, step):
        matrix[start:start + step] = rebuild(rows[start:min(start + step, count)])
    del rows
    order = _lex_order(matrix)
    tables = _checked_tables(matrix[order], n, size, [provs[i] for i in order.tolist()])
    if len(_SLICE_MEMO) >= 64:
        _SLICE_MEMO.clear()
    _SLICE_MEMO[memo_key] = tuple(tables), tables[0]._matrix
    return tables


def slice_matrix(generator_ops, n, limit=DEFAULT_CLONE_LIMIT):
    """The values of clone_slice(generator_ops, n, limit) as a read-only
    (tables x size^n) matrix in the narrowest dtype, one row per table in the
    same order: the matrix the slice's tables are rows of, kept in the memo.
    The slice is computed first if it is not memoised.
    """
    generator_ops = list(generator_ops)
    n = as_indices([n], "slice arity")[0]
    key = _slice_key(generator_ops, n, limit)
    if key not in _SLICE_MEMO:
        clone_slice(generator_ops, n, limit=limit)
    return _SLICE_MEMO[key][1]


def _grid(bounds):
    """The len(bounds) x T array of the T tuples whose i-th entry lies in
    range(*bounds[i]), in lexicographic order."""
    lengths = [hi - lo for lo, hi in bounds]
    grid = np.unravel_index(np.arange(prod(lengths)), lengths)
    return np.array(grid) + np.array([lo for lo, _ in bounds])[:, None]


# The cells defined after branching on x1..xj form the subalgebra of A^k
# they generate, whatever the values. The next layer branches on the lowest
# cell outside it, then runs rounds: each meets, per generator, the tuples of
# defined cells holding a cell the last round defined (for a symmetric
# generator, only the tuples with such a cell first, since their reorderings
# give the same constraint). A tuple defines its target cell if that is
# undefined, else checks it; so every tuple is met once, in the round that
# defines its last cell.
def _layer_plan(generator_ops, size, k):
    """The value-independent plan of the centralizer search at arity k.

    Returns each cell's position (order of definition) and, per layer, its
    stop position, tuple count and rounds of defining and checking steps
    (values, m x T argument positions, T target positions).
    """
    ncells = size ** k
    pos_type = np.min_scalar_type(ncells - 1)
    digits = np.array(argument_columns(size, k))
    position, cells = np.full((2, ncells), -1)  # cells: the cell at each position
    walks = [(g.arity, g.array(), g.array().astype(np.min_scalar_type(size - 1)),
              1 if symmetry.is_symmetric(g) else g.arity) for g in generator_ops]
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
            for m, table, values, firsts in walks:
                # j positions defined before the last round, then one defined in it
                args = np.concatenate([_grid([(0, lo)] * j + [(lo, hi)] + [(0, hi)] * (m - 1 - j))
                                       for j in range(firsts)], axis=1)
                tuples += args.shape[1]
                arg_cells, target = cells[args], 0
                for col in digits:
                    idx = 0
                    for a in arg_cells:
                        idx = idx * size + col[a]
                    target = target * size + table[idx]
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


def _forced(values, rows, args, size):
    """Values of the generator at the argument positions of each row."""
    idx = rows[args[0]]
    if len(args) > 1:
        idx = idx.astype(np.min_scalar_type(len(values) - 1))
        for a in args[1:]:
            idx *= size
            idx += rows[a]
    return values[idx]


def _plan_search(position, layers, size, values):
    """Blocks (cells x tables) of the tables the layer plan admits whose branch
    cells take the given values, ascending if the values are.

    The plan runs depth first over blocks of partial tables (columns of a
    position x row array): a block is expanded by every value of the
    branch cell, each round fills its cells and drops the rows a check
    contradicts, and the survivors are pushed. An expansion or a chunk of
    checks touches at most BLOCK_CELLS cells unless one row needs more.
    Cells below a branch cell are defined before it, so with ascending
    values the tables come out in lexicographic order.
    """
    narrow = np.min_scalar_type(size - 1)
    values = np.array(values, dtype=narrow)
    fan = len(values)
    stack = [(0, np.empty((0, 1), dtype=narrow))]  # (layer to expand, its block)
    while stack:
        j, block = stack.pop()
        stop, tuples, rounds = layers[j]
        take = max(1, BLOCK_CELLS // (fan * (stop + tuples)))
        if block.shape[1] > take:
            stack.append((j, block[:, take:]))
            block = block[:, :take]
        rows = np.empty((stop, block.shape[1] * fan), dtype=narrow)
        rows[:len(block)].reshape(len(block), block.shape[1], fan)[...] = block[:, :, None]
        rows[len(block)].reshape(-1, fan)[...] = values
        for defines, checks in rounds:
            if not rows.shape[1]:
                break
            for table, args, targets in defines:
                rows[targets] = _forced(table, rows, args, size)
            ok = np.ones(rows.shape[1], dtype=bool)
            chunk = max(1, BLOCK_CELLS // rows.shape[1])
            for table, args, targets in checks:
                for c in range(0, len(targets), chunk):
                    ok &= (_forced(table, rows, args[:, c:c + chunk], size)
                           == rows[targets[c:c + chunk]]).all(axis=0)
            if not ok.all():
                rows = rows[:, ok]
        if j + 1 < len(layers):
            if rows.shape[1]:
                stack.append((j + 1, rows))
        elif rows.shape[1]:
            yield rows[position]


def _prefix_steps(high):
    """Transitions between the prefixes of the elements' bit vectors.

    high is the r x size array of the bits (h_i(x) == q). A prefix is
    named by the lowest element whose bit vector starts with it; entry
    [i, b, s] of the result is the name of prefix s of length i extended by
    bit b, or size if no element's bit vector starts that way. The maps
    separate the carrier, so the name of a full bit vector is its element.
    """
    r, size = high.shape
    same = np.logical_and.accumulate(high[:, :, None] == high[:, None, :])  # same prefix up to i
    name = same.argmax(axis=2)
    before = np.vstack((np.zeros((1, size), dtype=name.dtype), name[:-1]))
    steps = np.full((r, 2, size), size, dtype=np.min_scalar_type(size))
    steps[np.arange(r)[:, None], high.astype(np.intp), before] = name
    return steps


def _combine(homs, steps, limit):
    """The tables f (columns of a cells x tables array) with h_i o f = u_i
    for an r-tuple u_1..u_r of the homomorphisms homs (bits, cells x homs):
    one per tuple whose bit vector at every cell is an element's. Raises
    LimitExceeded once more than limit are found.

    The tuples grow depth first in blocks. At depth i a partial tuple
    names a prefix at every cell; it fails with a homomorphism when some
    cell has no extension by that homomorphism's bit, which one boolean
    matrix product finds for every pair of the block, and only the pairs
    that pass are built. A block touches at most BLOCK_CELLS cells unless
    one row needs more.
    """
    ncells, size = len(homs), steps.shape[2]  # size names no prefix
    take = max(1, BLOCK_CELLS // max(1, homs.size))
    found, count = [], 0
    stack = [(0, np.zeros((ncells, 1), dtype=steps.dtype))]
    while stack:
        i, block = stack.pop()
        if block.shape[1] > take:
            stack.append((i, block[:, take:]))
            block = block[:, :take]
        by_p, by_q = steps[i][:, block]  # each cell's prefix extended by either bit
        stuck = ((by_p == size).T @ ~homs) | ((by_q == size).T @ homs)  # block x homs
        part, hom = np.nonzero(~stuck)
        cols = np.where(homs[:, hom], by_q[:, part], by_p[:, part])
        if i + 1 < len(steps):
            if cols.shape[1]:
                stack.append((i + 1, cols))
            continue
        count += cols.shape[1]
        if count > limit:
            raise LimitExceeded(f"centralizer slice exceeds {limit} tables")
        found.append(cols)
    return np.concatenate(found, axis=1) if found else np.empty((ncells, 0), dtype=steps.dtype)


def centralizer_slice(generator_ops, k, limit=DEFAULT_CENTRALIZER_LIMIT):
    """All k-ary operations commuting with every generator, in lexicographic order.

    A k-ary f commutes with an m-ary generator g exactly when f is a
    homomorphism A^k -> A for g: f(g(c1, ..., cm)) = g(f(c1), ..., f(cm))
    for all cells c1..cm of A^k, with g applied digitwise on the left.
    Without a separating family, _plan_search lists them with every value
    at every branch cell. With two-valued homomorphisms h_1..h_r: A ->
    {p, q} that separate the carrier, f is one exactly when every h_i o f
    is a homomorphism A^k -> {p, q} and the bits of (h_i o f(c))_i are an
    element's at every cell: the search lists those homomorphisms H with
    the values p and q alone ({p, q} is closed under every generator), and
    _combine pairs r of them. Each u in H is itself a member, with values
    in {p, q}, so at least |H| tables exist, and at most |H|^r: while H is
    being found, the tuples over it are counted each time it doubles once
    that bound passes the limit. Raises LimitExceeded past the limit.
    The tables are the rows of one value matrix, the search's blocks
    stacked or the pairs sorted.
    """
    generator_ops = list(generator_ops)
    if not generator_ops:
        raise BadSpec("at least one generator is required")
    size = generator_ops[0].size
    if any(g.size != size for g in generator_ops):
        raise BadSpec("generators must share a carrier")
    k = as_indices([k], "slice arity")[0]
    if k < 1:
        raise BadSpec("slice arity must be at least 1")

    position, layers = _layer_plan(generator_ops, size, k)
    family = symmetry.separating_family(generator_ops)
    if family is None:
        found, count = [], 0
        for block in _plan_search(position, layers, size, range(size)):
            count += block.shape[1]
            if count > limit:
                raise LimitExceeded(f"centralizer slice exceeds {limit} tables")
            found.append(block.T)
        matrix = np.concatenate(found)
        del found
    else:
        p, q, maps, _ = family
        steps = _prefix_steps(maps == q)
        homs = [np.empty((size ** k, 0), dtype=bool)]  # the bits of those found so far
        count = counted = 0
        cols = None
        for block in _plan_search(position, layers, size, (p, q)):
            homs.append(block == q)
            count += block.shape[1]
            if count >= 2 * counted and count ** len(steps) > limit:
                cols, counted = _combine(np.concatenate(homs, axis=1), steps, limit), count
        if cols is None or counted < count:
            cols = _combine(np.concatenate(homs, axis=1), steps, limit)
        del homs
        matrix = cols.T[np.lexsort(cols[::-1])]
        del cols
    return _checked_tables(matrix, k, size, [None] * len(matrix))


def closure_under(relation, ops, limit=DEFAULT_CLOSURE_LIMIT) -> Relation:
    """Least superset of the relation closed under every given operation; raises
    LimitExceeded once a tuple is added past the limit."""
    ops = list(ops)
    if any(op.size != relation.size for op in ops):
        raise ArityMismatch("closure across different carriers")
    size, h = relation.size, relation.arity
    if not len(relation) or not h:
        return relation
    narrow = np.min_scalar_type(size - 1)  # the dtype whose bytes _row_keys reads
    known = _row_keys(np.array(relation.tuples), size)
    grown = True
    while grown:
        grown = False
        rows = known.view(narrow).reshape(-1, h)
        for op in ops:
            for _, image in _images(op, rows):
                found = np.unique(_row_keys(image, size))
                new = found[~np.isin(found, known, assume_unique=True)]
                if len(new):
                    known, grown = np.union1d(known, new), True
                    if len(known) > limit:
                        raise LimitExceeded(f"closure exceeds {limit} tuples")
    return Relation(h, size, known.view(narrow).reshape(-1, h))
