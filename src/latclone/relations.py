"""Relations: sets of fixed-arity tuples over a carrier {0..size-1}.

This module does not load numpy, so formula evaluation, which builds its
relations here, runs without it. A numpy array of rows is still accepted
where numpy is already loaded, checked by its dtype in one pass.
"""

import sys
from functools import lru_cache
from itertools import compress, product

from .errors import BadSpec
from .lattice import as_indices, check_index_dtype

_BITS = bytes.maketrans(b"01", b"\x00\x01")  # the digits of a binary string as 0 and 1
_KEPT_CELLS = 1 << 12  # grids of at most this many cells keep their cells (see _cells)


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

    The tuples are kept as a sorted tuple; the set that `in` and issubset
    read is built on first use, and so are the cell indices (see cells) and
    the array and keys that operations.preserves reads (see
    operations._relation_rows).
    """

    _set = _keyed = _indices = None  # built on first use

    def __init__(self, arity, size, tuples):
        arity, size = as_indices((arity, size), "arity or carrier size")
        if arity < 0:
            raise BadSpec("relations must have nonnegative arity")
        self.arity = arity
        self.size = size
        np = sys.modules.get("numpy")  # no value is an array while numpy is not loaded
        if np is not None and isinstance(tuples, np.ndarray):
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

    @classmethod
    def _trusted(cls, arity, size, tuples):
        """A relation whose tuples are already a sorted, duplicate-free tuple
        of int tuples in range."""
        relation = cls.__new__(cls)
        relation.arity, relation.size, relation.tuples = arity, size, tuples
        return relation

    def _members(self):
        if self._set is None:
            self._set = frozenset(self.tuples)
        return self._set

    def cells(self):
        """The index of each tuple in the grid {0..size-1}^arity, in order:
        cell c in lexicographic order, the first coordinate most significant
        (decode_index inverts it)."""
        if self._indices is None:
            size, indices = self.size, []
            for t in self.tuples:
                c = 0
                for v in t:
                    c = c * size + v
                indices.append(c)
            self._indices = tuple(indices)
        return self._indices

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


def decode_index(idx, size, arity):
    """The tuple at cell idx of the grid {0..size-1}^arity (see Relation.cells)."""
    out = []
    for _ in range(arity):
        idx, r = divmod(idx, size)
        out.append(r)
    return tuple(reversed(out))


def relation_mask(relation):
    """The relation's tuples as a mask over its grid: an int, bit c for cell c."""
    bits = bytearray((relation.size ** relation.arity + 7) >> 3)
    for c in relation.cells():
        bits[c >> 3] |= 1 << (c & 7)
    return int.from_bytes(bits, "little")


def first_cell(mask, relation):
    """The tuple of the lowest cell of a mask over the relation's grid, or None if it is 0."""
    if not mask:
        return None
    return decode_index((mask & -mask).bit_length() - 1, relation.size, relation.arity)


def relation_from_mask(mask, arity, size) -> Relation:
    """The tuples of the grid {0..size-1}^arity at which the mask holds.

    The mask is an int, bit c for cell c of the grid in lexicographic order
    (the first coordinate most significant). Its binary digits, lowest
    first, select the cells as itertools.product lists them, so the tuples
    need no sorting or deduplication.
    """
    selectors = format(mask, "b")[::-1].encode().translate(_BITS)
    if size ** arity <= _KEPT_CELLS:
        cells = _cells(size, arity)
    else:
        cells = product(range(size), repeat=arity)
    return Relation._trusted(arity, size, tuple(compress(cells, selectors)))


@lru_cache(maxsize=16)
def _cells(size, arity):
    """The cells of a small grid as tuples, kept: a relation then shares them
    instead of building each selected tuple anew."""
    return tuple(product(range(size), repeat=arity))
