"""Symmetries of operation tables: argument symmetry, automorphisms, orbit cells.

An automorphism of a set of generators is a permutation s of the carrier
with s(g(x, ...)) = g(s(x), ...) for every generator g. It commutes with
every term operation of the generators, so the clone walk only needs one
cell of A^n per automorphism orbit.
"""

import numpy as np


def is_symmetric(g):
    """Does g take the same value on every reordering of its arguments?"""
    table = g.array().reshape((g.size,) * g.arity)
    return all(np.array_equal(table, np.swapaxes(table, i, i + 1))
               for i in range(g.arity - 1))


NODE_BUDGET = 2000


def automorphisms(generator_ops):
    """Permutations s of the carrier with s(g(x, ...)) = g(s(x), ...) for every generator.

    Elements get their images in index order, candidates ascending, so the
    identity comes first. Each choice is extended as a homomorphism: for
    every tuple of assigned elements, the image of g(tuple) is forced to g
    of the tuple's images, and a forced image that is already taken or has
    another invariant is a clash. The invariant of x is, per generator, how
    many tuples starting with x take the value x. The search stops after
    NODE_BUDGET choices: any set of automorphisms holding the identity
    gives orbit_cells an exact reduction, a truncated one only saves less.
    """
    size = generator_ops[0].size
    elements = np.arange(size)[:, None]
    invariant = list(zip(*((g.array().reshape(size, -1) == elements).sum(axis=1).tolist()
                           for g in generator_ops)))
    if len(set(invariant)) == size:
        return [tuple(range(size))]  # no two elements can swap
    walks = [(g.arity, 1 if is_symmetric(g) else g.arity,
              g.array().reshape((size,) * g.arity).tolist())
             for g in generator_ops]
    image = [-1] * size
    taken = [False] * size
    trail = []  # assigned elements in assignment order; also the propagation queue

    def extend(head):
        """Check every tuple that trail[head:] completes; False on a clash."""
        while head < len(trail):
            x = trail[head]
            done = trail[:head + 1]
            images = [image[a] for a in done]
            for m, firsts, table in walks:
                # the tuples whose first position holding x is j take earlier
                # elements before it and any processed element after it
                for j in range(firsts):
                    zs, ws = [table], [table]
                    for i in range(m):
                        if i == j:
                            zs = [t[x] for t in zs]
                            ws = [t[image[x]] for t in ws]
                        else:
                            n = head if i < j else head + 1
                            zs = [t[a] for t in zs for a in done[:n]]
                            ws = [t[b] for t in ws for b in images[:n]]
                    for z, w in zip(zs, ws):
                        have = image[z]
                        if have < 0:
                            if taken[w] or invariant[z] != invariant[w]:
                                return False
                            image[z] = w
                            taken[w] = True
                            trail.append(z)
                        elif have != w:
                            return False
            head += 1
        return True

    found = []
    stack = []  # [element, its untried candidates, trail length before the choice]
    nodes = 0
    x = 0
    while True:
        while x < size and image[x] >= 0:
            x += 1
        if x == size:
            found.append(tuple(image))
        else:
            candidates = [y for y in range(size) if not taken[y] and invariant[y] == invariant[x]]
            stack.append([x, iter(candidates), len(trail)])
        while stack:
            x, candidates, mark = stack[-1]
            for z in trail[mark:]:
                taken[image[z]] = False
                image[z] = -1
            del trail[mark:]
            y = next(candidates, None)
            if y is None:
                stack.pop()
                continue
            nodes += 1
            if nodes > NODE_BUDGET:
                return found
            image[x] = y
            taken[y] = True
            trail.append(x)
            if extend(mark):
                break
        if not stack:
            return found
        x += 1


# Below this many cells the search and the rebuild cost more than the walk
# saves: with orbits, B3 at n=3 (512 cells) went from 2.3 to 2.8 ms, while
# M3 at n=4 (625 cells) reached a limit of 3,000 tables in half the time.
MIN_CELLS = 600


def orbit_cells(generator_ops, n):
    """Representative cells of A^n under the generators' automorphisms, and a rebuild.

    Each cell c keeps the smallest s^-1(c) over the automorphisms s found,
    together with s; the representatives are the distinct kept cells. Every
    term operation t commutes with s, so t(c) = s(t(s^-1(c))) and t is
    determined by its values on the representatives: rebuild(vec) turns
    those back into the full table. Below MIN_CELLS cells every cell is its
    own representative.
    """
    size = generator_ops[0].size
    ncells = size ** n
    autos = automorphisms(generator_ops) if ncells >= MIN_CELLS else []
    if len(autos) <= 1:
        return np.arange(ncells), lambda vec: vec
    cell_type = np.min_scalar_type(ncells - 1)
    best = np.arange(ncells, dtype=cell_type)  # autos[0] is the identity
    which = np.zeros(ncells, dtype=np.min_scalar_type(len(autos) - 1))
    for i, s in enumerate(autos[1:], 1):
        inverse = np.empty(size, dtype=cell_type)
        inverse[list(s)] = range(size)
        cell = inverse  # s^-1 applied digit by digit, as a map on cell indices
        for _ in range(n - 1):
            cell = (cell[:, None] * size + inverse).reshape(-1)
        better = cell < best
        best[better] = cell[better]
        which[better] = i
    # the distinct kept cells, and each cell's position among them
    kept = np.zeros(ncells, dtype=bool)
    kept[best] = True
    reps = np.flatnonzero(kept)
    slot = (np.cumsum(kept) - 1)[best]
    images = np.array(autos, dtype=np.min_scalar_type(size - 1)).reshape(-1)
    offsets = which * np.intp(size)
    return reps, lambda vec: images[offsets + vec[slot]]
