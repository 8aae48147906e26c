"""Argument symmetry of operation tables, and the cells that tell term
operations apart where no two-valued family separates the carrier.

A map h: A -> A with h(g(x, ...)) = g(h(x), ...) for every generator g
commutes with every term operation t, h applied cellwise: h(t(c)) = t(h(c)).
So if such maps h1..hr into a pair {p, q} separate the points of A, t(c) is
the element whose hi-images are t(hi(c)): t is fixed by its values on the
cells {p, q}^n (latclone.twovalued finds such families and computes with
them). Without such a family on A, the argument still runs on each
subalgebra: t(c) lies in the subalgebra S that the entries of c generate,
and t commutes with the homomorphisms of S. A family of S into a pair on
which the generators act as on {p, q} fixes t(c) by t's values on
{p, q}^n, and a one-element S fixes it outright; so the clone walk keeps
only the other cells (separating_cells).
"""

import numpy as np

from . import twovalued


def is_symmetric(g):
    """Does g take the same value on every reordering of its arguments?"""
    table = g.array().reshape((g.size,) * g.arity)
    return all(np.array_equal(table, np.swapaxes(table, i, i + 1))
               for i in range(g.arity - 1))


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
    element) answers None; else twovalued.find_family, fed the tables
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
    tables = tuple((m, tuple(relabel[values[cells[m]]].tolist())) for m, _, values in ops)
    if tables not in by_tables:
        by_tables[tables] = _verdict(twovalued.find_family(len(elements), list(tables)))
    verdict = by_tables[tables]
    return verdict and (int(elements[verdict[0]]), int(elements[verdict[1]]), verdict[2])


def _verdict(family):
    """A family's p (code 0), q (the lowest other index) and generator bits, or None."""
    p = family and family.images.index(0)
    return family and (p, int(p == 0), family.ops)


def separating_cells(generator_ops, n):
    """Cells of A^n, as sorted indices, at which any two different n-ary
    term operations differ somewhere: at least one cell.

    A term operation t takes its value at a cell c in the subalgebra S that
    the entries of c generate, and commutes with the homomorphisms of S. So
    if S has one element, every t agrees at c. If S has a family (see
    twovalued.find_family) into a pair {p', q'} on which the generators take
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

    family, ops, _, judged = _generator_record(generator_ops)
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
