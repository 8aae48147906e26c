"""Argument symmetry of operation tables and the two-valued homomorphisms
that separate the carrier.

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
