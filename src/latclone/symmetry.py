"""Argument symmetry of operation tables, the two-valued homomorphisms
that separate the carrier, and the cells that tell term operations apart
where none do.

A map h: A -> A with h(g(x, ...)) = g(h(x), ...) for every generator g
commutes with every term operation t, h applied cellwise: h(t(c)) = t(h(c)).
So if such maps h1..hr into a pair {p, q} separate the points of A, t(c) is
the element whose hi-images are t(hi(c)): t is fixed by its values on the
cells {p, q}^n. The same family serves the centralizer slice: f: A^k -> A
is a homomorphism exactly when every hi o f is one into {p, q} and, at
every cell, the bits (hi o f(c))i are an element's. On {p, q} the first
generator g is then AND with p absorbing (of the tables with g(p, x) = p,
no other admits such maps that separate two elements), so (A, g) embeds
in ({p, q}, AND)^r: g is a semilattice operation, and its homomorphisms
A^k -> {p, q} are the constant p and the maps x -> [x >= a] of the
principal filters of A^k.

Without such a family on A, the argument still runs on each subalgebra:
t(c) lies in the subalgebra S that the entries of c generate, and t
commutes with the homomorphisms of S. A family of S into a pair on which
the generators act as on {p, q} fixes t(c) by t's values on {p, q}^n,
and a one-element S fixes it outright; so the clone walk keeps only the
other cells (separating_cells).
"""

import numpy as np

from .errors import LimitExceeded


def is_symmetric(g):
    """Does g take the same value on every reordering of its arguments?"""
    table = g.array().reshape((g.size,) * g.arity)
    return all(np.array_equal(table, np.swapaxes(table, i, i + 1))
               for i in range(g.arity - 1))


def separating_family(generator_ops):
    """Two-valued homomorphisms of the generators that separate the carrier, or None.

    Each generator is an OpTable or an array of its values with one axis
    per argument, such as the tables of a subalgebra relabelled 0..s-1.
    The first generator g, when binary, gives the proposals: p is its
    least element (g(p, x) = p for every x), q the lowest other index, and
    the map of a sends x to q when g(a, x) = a (a <= x for a meet) and to
    p otherwise. A map is kept only if h(g(x, ...)) = g(h(x), ...) holds
    for every generator and tuple, and only if it splits two elements that
    the maps kept before it do not. The maps are tried largest up-set
    first, ties in index order, so a Boolean power 2^k keeps the k maps
    of its atoms in any order of its elements. Returns (p, q, maps, bits)
    when the maps tell every two elements apart: maps an r x size array
    of images, bits each generator's table on {p, q}^m as booleans (value
    == q). The first generator is then idempotent, commutative and
    associative, with p its least element (see the module docstring).
    """
    tables = [g if isinstance(g, np.ndarray) else g.array().reshape((g.size,) * g.arity)
              for g in generator_ops]
    first = tables[0]
    size = len(first)
    if first.ndim != 2 or size < 2:
        return None
    above = first == np.arange(size)[:, None]
    least = np.flatnonzero(above.all(axis=1))
    if not len(least):
        return None
    p = int(least[0])
    q = 1 if p == 0 else 0
    # row a: the map of the up-set of a, as bits (1 for q); g on {p, q}^m by bits
    bits = above.astype(np.uint8)
    homomorphic, pair_bits, by_arity = np.ones(size, dtype=bool), [], {}
    for g in tables:
        arity, table = g.ndim, g.reshape(-1)
        if arity not in by_arity:
            pair_cells = [p, q]
            args = bits.astype(np.min_scalar_type(2 ** arity - 1))
            for _ in range(arity - 1):  # per map, the bits of g's arguments mapped, for every tuple
                pair_cells = [c * size + d for c in pair_cells for d in (p, q)]
                args = (args[:, :, None] * 2 + bits[:, None, :]).reshape(size, -1)
            by_arity[arity] = pair_cells, args
        pair_cells, args = by_arity[arity]
        on_pair = table[pair_cells]
        if not ((on_pair == p) | (on_pair == q)).all():
            return None  # a map onto {p, q} could not commute with g
        pair_bits.append(on_pair == q)
        homomorphic &= (above[:, table] == pair_bits[-1][args]).all(axis=1)
    ups = above.tolist()
    code, kept = [0] * size, []  # code[x]: the bits of x under the kept maps
    order = np.argsort(-above.sum(axis=1), kind="stable")
    for a in order[homomorphic[order]].tolist():
        up = ups[a]
        if len(set(zip(code, up))) == len(set(code)):
            continue  # splits no two elements that the kept maps put together
        code = [2 * c + u for c, u in zip(code, up)]
        kept.append(a)
    if len(set(code)) < size:
        return None
    return p, q, np.where(above[kept], q, p), pair_bits


def _commuting_filters(g, on_pair, up, k):
    """ok[a] for each a of A^k in lexicographic order: does x -> [x >= a]
    commute with the m-ary generator g, whose bits on {p, q}^m are on_pair?

    A code lists the bits [y_1 >= b], ..., [y_m >= b], [g(y) >= b], the
    first one highest; S(b) holds the codes of every y in A^m. The cells of
    A^k are read coordinatewise, so the map of a commutes with g exactly
    when every AND c_1 & ... & c_k of codes c_i in S(a_i) is on g's graph on
    {p, q}. Those ANDs are found coordinate by coordinate, as sets of
    codes, each distinct set of a prefix of a extended once per element.
    """
    from .operations import argument_columns  # operations imports this module

    size, m = g.size, g.arity
    code = up[g.array()].astype(np.intp)  # size^m x size: y, b -> its code
    for j, col in enumerate(argument_columns(size, m)):
        code |= up[col].astype(np.intp) << (m - j)
    codes = [set(column) for column in code.T.tolist()]  # S(b) for each b
    graph = {c for c in range(2 << m) if on_pair[c >> 1] == c & 1}
    level, ids = [frozenset([(2 << m) - 1])], np.zeros(1, dtype=np.intp)  # the empty AND
    for _ in range(k):
        sets = {}  # the distinct sets of the prefixes one coordinate longer -> their ids
        step = np.array([[sets.setdefault(frozenset(t & c for t in ands for c in S), len(sets))
                          for S in codes] for ands in level])
        level, ids = list(sets), step[ids].ravel()
    return np.array([ands <= graph for ands in level])[ids]


def two_valued_homomorphisms(generator_ops, family, k, limit):
    """The homomorphisms A^k -> {p, q} of every generator, as bits (cells x
    homomorphisms, True for q), given the family (p, q, maps, bits).

    They are those of the first generator, the constant p and the map of
    each principal filter, x -> [x >= a] for a in A^k (see the module
    docstring), that commute with the others; the constant p commutes with
    g when g(p, ..., p) = p. Each is a member of the centralizer slice, so
    more than limit of them raise LimitExceeded.
    """
    from .operations import argument_columns

    size, on_pairs = generator_ops[0].size, family[3]
    up = generator_ops[0].array().reshape(size, size).T == np.arange(size)  # up[x, b]: x >= b
    ok = np.ones(size ** k, dtype=bool)
    for g, on_pair in zip(generator_ops[1:], on_pairs[1:]):
        ok &= _commuting_filters(g, on_pair, up, k)
    chosen = np.flatnonzero(ok)
    constant = not any(on_pair[0] for on_pair in on_pairs)
    if len(chosen) + constant > limit:
        raise LimitExceeded(f"centralizer slice exceeds {limit} tables")
    homs = np.zeros((size ** k, len(chosen) + constant), dtype=bool)
    homs[:, :len(chosen)] = True
    for col in argument_columns(size, k):
        homs[:, :len(chosen)] &= up[np.ix_(col, col[chosen])]
    return homs


def _generated(held, ops):
    """The subalgebras the rows of a (sets x size) boolean matrix generate, as
    another; ops holds each generator's (arity, symmetric, narrow values),
    as operations._generator_record keeps them."""
    while True:
        grown, member, tuples = held.copy(), held, [None]
        for m in range(1, max(m for m, *_ in ops) + 1):  # per set, the m-tuples of its members
            if m > 1:
                member = (member[:, :, None] & held[:, None, :]).reshape(len(held), -1)
            tuples.append(member.nonzero())
        for m, _, values in ops:
            row, code = tuples[m]
            grown[row, values[code]] = True
        if (grown == held).all():
            return held
        held = grown


def _judge(members, mask, ops, judged):
    """The family of the subalgebra with these members (mask, as bits) as
    (p, q, bits) in the carrier's elements, or None. A family restricted to a
    subalgebra is still one, with the same bits, so a judged superset with a
    family answers, and a judged subset with none (and more than one
    element) answers None; else separating_family, fed the tables
    restricted to the members and relabelled 0..s-1, once per distinct
    restricted tables."""
    by_mask, by_tables = judged
    for other, verdict in by_mask.items():
        if verdict is not None and not mask & ~other:
            return verdict
        if verdict is None and not other & ~mask:
            return None
    elements, size = np.flatnonzero(members), len(members)
    relabel = np.zeros(size, dtype=np.intp)
    relabel[elements] = np.arange(len(elements))
    cells = [None, elements]  # per arity m, the member m-tuples as cells of a table
    for m in range(2, max(m for m, *_ in ops) + 1):
        cells.append((cells[-1][:, None] * size + elements).reshape(-1))
    tables = [relabel[values[cells[m]]].reshape((len(elements),) * m) for m, _, values in ops]
    key = b"".join(t.tobytes() for t in tables)
    if key not in by_tables:
        by_tables[key] = _verdict(separating_family(tables))
    verdict = by_tables[key]
    return verdict and (int(elements[verdict[0]]), int(elements[verdict[1]]), verdict[2])


def _verdict(family):
    """A family's p, q and bits, hashable, or None."""
    if family is None:
        return None
    p, q, _, bits = family
    return p, q, tuple(b.tobytes() for b in bits)


def separating_cells(generator_ops, n):
    """Cells of A^n, as sorted indices, at which any two different n-ary
    term operations differ somewhere: at least one cell.

    A term operation t takes its value at a cell c in the subalgebra S that
    the entries of c generate, and commutes with the homomorphisms of S. So
    if S has one element, every t agrees at c. If S has a family (see
    separating_family) into a pair {p', q'} on which the generators take
    the bits they take on a reference pair {p, q}, t(c) is the element
    whose images are t at cells of {p', q'}^n, and those values are t's at
    the matching cells of {p, q}^n, as p' -> p, q' -> q is an isomorphism.
    The cells kept are {p, q}^n, for the family of the largest subalgebra
    met that has one, and those of every other subalgebra with more than
    one element. Each distinct subalgebra is judged once per generator
    record, largest first (see _judge), the whole carrier by the record's
    own family.
    """
    from .operations import BLOCK_CELLS, _generator_record, _row_keys, argument_columns

    family, ops, _, judged, _ = _generator_record(generator_ops)
    size = generator_ops[0].size
    held = np.zeros((size ** n, size), dtype=bool)  # the entries of each cell
    held[np.arange(size ** n), argument_columns(size, n)] = True
    _, first, entries = np.unique(_row_keys(np.packbits(held, axis=1)), return_index=True,
                                  return_inverse=True)
    step = max(1, BLOCK_CELLS // size ** max(m for m, *_ in ops))  # sets whose tuples fit a block
    generated = np.concatenate([_generated(held[first[lo:lo + step]], ops)
                                for lo in range(0, len(first), step)])
    packed = np.packbits(generated, axis=1)
    _, first, algebra = np.unique(_row_keys(packed), return_index=True, return_inverse=True)
    generated, packed = generated[first], packed[first]
    counts = generated.sum(axis=1).tolist()
    verdicts, reference = [None] * len(first), None
    for s in sorted(range(len(first)), key=counts.__getitem__, reverse=True):
        if counts[s] > 1:
            mask = int.from_bytes(packed[s].tobytes(), "big")
            if mask not in judged[0]:
                judged[0][mask] = (_verdict(family) if counts[s] == size
                                   else _judge(generated[s], mask, ops, judged))
            verdicts[s] = judged[0][mask]
            reference = reference or verdicts[s]
    walked = np.array([c > 1 and (reference is None or v is None or v[2] != reference[2])
                       for c, v in zip(counts, verdicts)])
    walked = walked[algebra.reshape(-1)[entries.reshape(-1)]]  # per cell, by its subalgebra
    if reference is not None:
        pair = reference[:2]
        cells = np.array(pair)
        for _ in range(n - 1):
            cells = (cells[:, None] * size + pair).reshape(-1)
        walked[cells] = True
    cells = np.flatnonzero(walked)
    return cells if len(cells) else np.zeros(1, dtype=np.intp)
