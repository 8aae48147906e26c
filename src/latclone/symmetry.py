"""Argument symmetry of operation tables and the two-valued homomorphisms
that separate the carrier.

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
    the maps kept before it do not. Returns (p, q, maps, bits) when the
    maps tell every two elements apart: maps an r x size array of images,
    bits each generator's table on {p, q}^m as booleans (value == q).
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
    homomorphic, pair_bits = np.ones(size, dtype=bool), []
    for g in generator_ops:
        table = g.array()
        pair_cells = np.array([p, q])
        for _ in range(g.arity - 1):
            pair_cells = (pair_cells[:, None] * size + [p, q]).reshape(-1)
        on_pair = table[pair_cells]
        if not ((on_pair == p) | (on_pair == q)).all():
            return None  # a map onto {p, q} could not commute with g
        pair_bits.append(on_pair == q)
        args = bits.astype(np.min_scalar_type(2 ** g.arity - 1))
        for _ in range(g.arity - 1):  # per map, the bits of g's arguments mapped, for every tuple
            args = (args[:, :, None] * 2 + bits[:, None, :]).reshape(size, -1)
        homomorphic &= (above[:, table] == pair_bits[-1][args]).all(axis=1)
    ups = above.tolist()
    code, kept = [0] * size, []  # code[x]: the bits of x under the kept maps
    for a in np.flatnonzero(homomorphic).tolist():
        up = ups[a]
        if len(set(zip(code, up))) == len(set(code)):
            continue  # splits no two elements that the kept maps put together
        code = [2 * c + u for c, u in zip(code, up)]
        kept.append(a)
    if len(set(code)) < size:
        return None
    return p, q, np.where(above[kept], q, p), pair_bits
