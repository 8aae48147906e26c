"""Argument symmetry of operation tables, the two-valued homomorphisms that
separate the carrier, and the cells of A^n that determine every term
operation.

A map h: A -> A with h(g(x, ...)) = g(h(x), ...) for every generator g
commutes with every term operation t, h applied cellwise: h(t(c)) = t(h(c)).
So if such maps h1..hr into a pair {p, q} separate the points of A, t(c) is
the element whose hi-images are t(hi(c)): t is fixed by its values on the
cells {p, q}^n. The same family serves the centralizer slice: f: A^k -> A
is a homomorphism exactly when every hi o f is one into {p, q} and, at
every cell, the bits (hi o f(c))i are an element's.
"""

import numpy as np


def is_symmetric(g):
    """Does g take the same value on every reordering of its arguments?"""
    table = g.array().reshape((g.size,) * g.arity)
    return all(np.array_equal(table, np.swapaxes(table, i, i + 1))
               for i in range(g.arity - 1))


def separating_family(generator_ops):
    """Two-valued homomorphisms of the generators that separate the carrier, or None.

    The first generator g, when binary, gives the proposals: p is its
    least element (g(p, x) = p for every x), q the lowest other index, and
    the map of a sends x to q when g(a, x) = a (a <= x for a meet) and to
    p otherwise. A map is kept only if h(g(x, ...)) = g(h(x), ...) holds
    for every generator and tuple, and only if it splits two elements that
    the maps kept before it do not. Each kept map gets the smallest weight
    w > 0 that keeps code(x), the sum of the weights of the maps sending x
    to q, distinct on the classes split so far: w avoids code(y) - code(x)
    for x sent to q and y to p, so codes stay below r * (size^2 + 1)
    where bit codes would need 2^r. Returns (p, q, maps, weights), maps an
    r x size array of images, when the codes tell every two elements apart.
    """
    first = generator_ops[0]
    size = first.size
    if first.arity != 2 or size < 2:
        return None
    above = first.array().reshape(size, size) == np.arange(size)[:, None]
    least = np.flatnonzero(above.all(axis=1))
    if not len(least):
        return None
    p = int(least[0])
    q = 1 if p == 0 else 0
    # row a: the map of the up-set of a, as bits (1 for q); g on {p, q}^m by bits
    bits = above.astype(np.uint8)
    homomorphic = np.ones(size, dtype=bool)
    for g in generator_ops:
        table = g.array()
        pair_cells = np.array([p, q])
        for _ in range(g.arity - 1):
            pair_cells = (pair_cells[:, None] * size + [p, q]).reshape(-1)
        on_pair = table[pair_cells]
        if not ((on_pair == p) | (on_pair == q)).all():
            return None  # a map onto {p, q} could not commute with g
        args = bits.astype(np.min_scalar_type(2 ** g.arity - 1))
        for _ in range(g.arity - 1):  # per map, the bits of g's arguments mapped, for every tuple
            args = (args[:, :, None] * 2 + bits[:, None, :]).reshape(size, -1)
        homomorphic &= (above[:, table] == (on_pair == q)[args]).all(axis=1)
    ups = above.tolist()
    code, kept, weights = [0] * size, [], []
    for a in np.flatnonzero(homomorphic).tolist():
        up = ups[a]
        if len(set(zip(code, up))) == len(set(code)):
            continue  # splits no two elements that the kept maps put together
        taken = {code[y] - code[x] for x in range(size) if up[x] for y in range(size) if not up[y]}
        weights.append(min(set(range(1, len(taken) + 2)) - taken))
        code = [c + weights[-1] * u for c, u in zip(code, up)]
        kept.append(a)
    if len(set(code)) < size:
        return None
    return p, q, np.where(above[kept], q, p), weights


def two_valued_cells(family, n):
    """The cells {p, q}^n and a rebuild, for a family from separating_family.

    rebuild(vecs) reads, for every cell c and map h, the values at the cell
    h(c), adds up the weights of the maps where it finds q, and decodes
    that code to the element; vecs may hold one table per leading index.
    """
    p, q, maps, weights = family
    size = maps.shape[1]
    high = maps == q
    code = np.array(weights) @ high
    code_type = np.min_scalar_type(int(code.max()))
    decode = np.zeros(int(code.max()) + 1, dtype=np.min_scalar_type(size - 1))
    decode[code] = np.arange(size)
    bits = high.astype(np.min_scalar_type(2 ** n - 1))
    slots = bits  # per map: the position among the reps of h(c), for every cell c
    for _ in range(n - 1):
        slots = (slots[:, :, None] * 2 + bits[:, None, :]).reshape(len(bits), -1)
    reps = np.array([p, q])
    for _ in range(n - 1):
        reps = (reps[:, None] * size + [p, q]).reshape(-1)

    column = np.array(weights, dtype=code_type)[:, None]

    def rebuild(vecs):
        # per table and map: the map's weight at the reps holding q
        parts = np.where((vecs == q)[..., None, :], column, 0)
        codes = np.take(parts[..., 0, :], slots[0], axis=-1)
        for i in range(1, len(slots)):
            codes += np.take(parts[..., i, :], slots[i], axis=-1)
        return np.take(decode, codes)

    return reps, rebuild


# Below this many cells the set-up and the rebuild cost more than the walk
# saves (best of 5 runs of 5 calls): on {p, q}^n cells, C5 lattice n=3 (125
# cells) took 1.04 ms instead of 0.80, C6 n=3 (216 cells) 0.74 instead of
# 0.86, and C4 lattice n=4 (256 cells) 12.8 instead of 45.5; semilattice
# n=4 slices of 256 cells took 0.45-0.48 ms either way.
MIN_CELLS = 200


def representative_cells(generator_ops, n):
    """Cells of A^n on which the clone walk runs, and rebuild(vecs), the full tables.

    The cells {p, q}^n when a separating family exists and A^n has at
    least MIN_CELLS cells; otherwise every cell is its own representative.
    """
    size = generator_ops[0].size
    family = separating_family(generator_ops) if size ** n >= MIN_CELLS else None
    if family is None:
        return np.arange(size ** n), lambda vecs: vecs
    return two_valued_cells(family, n)
