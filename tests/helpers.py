"""Independent reference implementations used as test oracles.

Everything here is deliberately written with plain Python loops over
itertools, straight from the definitions, so the library's vectorised paths
are checked against code that shares none of their machinery.
"""

from itertools import product

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from latclone import terms
from latclone.errors import JoinInSemilatticeMode, LimitExceeded, NotALattice
from latclone.formulas import PPFormula
from latclone.lattice import (
    FiniteLattice,
    FiniteSemilattice,
    _glb,
    _join_prime_certificate,
    _order_from_covers,
    is_distributive,
    join_irreducibles,
)
from latclone.operations import OpTable, argument_columns, decode_index
from latclone.relations import Relation
from latclone.qe import IneqItem
from latclone.twovalued import FACTOR_OPS, family_of


def evaluate(term, env, algebra) -> int:
    """Value of the term under an assignment env: variable name -> element index."""
    if isinstance(term, terms.Var):
        return env[term.name]
    a = evaluate(term.left, env, algebra)
    b = evaluate(term.right, env, algebra)
    if isinstance(term, terms.Meet):
        return algebra.meet[a][b]
    if algebra.kind != "lattice":
        raise JoinInSemilatticeMode("join term evaluated over a meet-semilattice")
    return algebra.join[a][b]


def slow_eval_formula(phi, algebra):
    """rel(phi) by nested loops: exhaustive assignments, exhaustive witnesses."""
    size = algebra.size
    hits = []
    for free in product(range(size), repeat=len(phi.free_vars)):
        env = dict(zip(phi.free_vars, free))
        found = False
        for bound in product(range(size), repeat=len(phi.bound_vars)):
            env.update(zip(phi.bound_vars, bound))
            if all(evaluate(lhs, env, algebra) == evaluate(rhs, env, algebra)
                   for lhs, rhs in phi.atoms):
                found = True
                break
        if found:
            hits.append(free)
    return Relation(len(phi.free_vars), size, hits)


def grid_mask(phi, algebra):
    """The mask of phi on the numpy grid, one axis per free variable: each
    variable varies along its own axis, the terms index the meet and join
    tables as arrays, and the bound axes are folded by "any"."""
    size = algebra.size
    names = phi.free_vars + phi.bound_vars
    axes = len(names)
    meet = np.array(algebra.meet)
    join = np.array(algebra.join) if algebra.kind == "lattice" else None
    env = {name: np.arange(size).reshape((1,) * i + (size,) + (1,) * (axes - 1 - i))
           for i, name in enumerate(names)}

    def value(term):
        if isinstance(term, terms.Var):
            return env[term.name]
        a, b = value(term.left), value(term.right)
        if isinstance(term, terms.Meet):
            return meet[a, b]
        if join is None:
            raise JoinInSemilatticeMode("join term evaluated over a meet-semilattice")
        return join[a, b]

    mask = np.ones((size,) * axes, dtype=bool)
    for lhs, rhs in phi.atoms:
        mask &= value(lhs) == value(rhs)
    if phi.bound_vars:
        mask = mask.any(axis=tuple(range(len(phi.free_vars), axes)))
    return mask


def mask_int(grid):
    """A numpy mask over the grid as an int, bit c for cell c in lexicographic order."""
    return sum(1 << c for c in np.flatnonzero(grid).tolist())


def grid_relation(phi, algebra):
    """The relation of phi read off grid_mask over the structure itself."""
    return Relation(len(phi.free_vars), algebra.size,
                    [tuple(t) for t in np.argwhere(grid_mask(phi, algebra)).tolist()])


def bit_cells(mask, n):
    """The cells of an int mask over {0, 1}^n as a list of bools, cell c at bit c."""
    return [bool(mask >> c & 1) for c in range(1 << n)]


def wide_formula(rng, mode, nfree, nbound, atoms=4, depth=2):
    """A random formula over free variables x0.. and bound variables u0..,
    for more variables than random_formula draws."""
    free = tuple(f"x{i}" for i in range(nfree))
    bound = tuple(f"u{i}" for i in range(nbound))
    pool = free + bound

    def term(d):
        if d == 0 or rng.random() < 0.4:
            return terms.Var(rng.choice(pool))
        node = terms.Meet if mode == "semilattice" or rng.random() < 0.5 else terms.Join
        return node(term(d - 1), term(d - 1))

    pairs = [(term(depth), term(depth)) for _ in range(atoms)]
    # every variable occurs, so the formula has all of them
    pairs.append((terms.meet_all(pool), terms.meet_all(pool[::-1])))
    return PPFormula(free_vars=free, bound_vars=bound, atoms=tuple(pairs))


def _clauses(term, split):
    if isinstance(term, terms.Var):
        return frozenset({frozenset({term.name})})
    left, right = _clauses(term.left, split), _clauses(term.right, split)
    if isinstance(term, split):
        return left | right
    return frozenset({a | b for a in left for b in right})


def slow_inequalities(atoms, mode):
    """The items of qe.to_inequalities, built on frozensets of names."""
    items = set()
    for lhs, rhs in atoms:
        for s, t in ((lhs, rhs), (rhs, lhs)):
            if mode == "lattice":
                for m in _clauses(s, terms.Join):
                    for j in _clauses(t, terms.Meet):
                        items.add(IneqItem(m, j))
            else:
                m = frozenset(terms.variables(s))
                for v in terms.variables(t):
                    items.add(IneqItem(m, frozenset({v})))
    return tuple(sorted(items, key=IneqItem.sort_key))


def _slow_eliminate_one(items, u, mode):
    survivors, lower, upper = [], [], []
    for item in items:
        if mode == "lattice":
            in_meet, in_join = u in item.meet_vars, u in item.join_vars
            if in_meet and not in_join:
                upper.append((item.meet_vars - {u}, item.join_vars))
            elif in_join and not in_meet:
                lower.append((item.meet_vars, item.join_vars - {u}))
            elif not in_meet:
                survivors.append(item)
        elif item.join_vars == {u}:
            if u not in item.meet_vars:
                lower.append((item.meet_vars, frozenset()))
        elif u in item.meet_vars:
            upper.append((item.meet_vars - {u}, item.join_vars))
        else:
            survivors.append(item)
    return survivors + [IneqItem(la | ha, lb | hb) for la, lb in lower for ha, hb in upper]


def slow_eliminate(phi, mode):
    """qe's eliminator on frozensets of names: the bound variables go innermost
    first, trivial items are dropped after each step, and the items are
    rendered as the atoms s = s /\\ t in IneqItem.sort_key order. A formula
    none of whose atoms uses a bound variable keeps its atoms."""
    if not phi.bound_vars:
        return phi
    atoms = phi.atoms
    if any(u in terms.variables(side) for atom in atoms for side in atom
           for u in phi.bound_vars):
        items = slow_inequalities(atoms, mode)
        for u in reversed(phi.bound_vars):
            items = {item for item in _slow_eliminate_one(items, u, mode) if not item.trivial()}
        atoms = []
        for item in sorted(items, key=IneqItem.sort_key):
            lhs = terms.meet_all(sorted(item.meet_vars))
            atoms.append((lhs, terms.Meet(lhs, terms.join_all(sorted(item.join_vars)))))
        atoms = tuple(atoms)
    return PPFormula(free_vars=phi.free_vars, bound_vars=(), atoms=atoms)


def brute_distributive(lattice):
    for x, y, z in product(range(lattice.size), repeat=3):
        left = lattice.meet[x][lattice.join[y][z]]
        right = lattice.join[lattice.meet[x][y]][lattice.meet[x][z]]
        if left != right:
            return False
    return True


class Embedding:
    """An injective map of a distributive lattice into the Boolean lattice 2^k.

    Image elements are bitmasks over the atoms; atom i of the target is the
    i-th nonzero join-irreducible element of the source, so bottom maps to
    the empty set and top to the full set. Construction raises RuntimeError
    unless the map is injective, sends bottom and top there, and sends meet
    and join to & and | on every pair.
    """

    def __init__(self, source, atoms, image):
        self.atoms = tuple(atoms)
        self.image = tuple(int(m) for m in image)
        full = (1 << len(self.atoms)) - 1
        size = source.size
        if len(set(self.image)) != size:
            raise RuntimeError("embedding is not injective")
        if self.image[source.bottom] != 0 or self.image[source.top] != full:
            raise RuntimeError("embedding does not send bottom/top to bottom/top")
        for a in range(size):
            for b in range(size):
                if self.image[source.meet[a][b]] != self.image[a] & self.image[b]:
                    raise RuntimeError("embedding does not preserve meet")
                if self.image[source.join[a][b]] != self.image[a] | self.image[b]:
                    raise RuntimeError("embedding does not preserve join")

    def preimage(self, mask):
        """Source element with the given image mask, or None."""
        try:
            return self.image.index(mask)
        except ValueError:
            return None


def slow_birkhoff_embed(lattice) -> Embedding:
    """Birkhoff's embedding from the definition: the atoms are the
    join-irreducibles, and x maps to the set of atoms below it."""
    atoms = join_irreducibles(lattice)
    image = [sum(1 << i for i, j in enumerate(atoms) if lattice.leq(j, x))
             for x in range(lattice.size)]
    return Embedding(lattice, atoms, image)


def slow_join_primes(lattice):
    """The elements a other than bottom with a <= x \\/ y only if a <= x or
    a <= y, checked over every pair x, y."""
    size = lattice.size
    return [a for a in range(size) if a != lattice.bottom
            and all(lattice.leq(a, x) or lattice.leq(a, y)
                    for x, y in product(range(size), repeat=2)
                    if lattice.leq(a, lattice.join[x][y]))]


def slow_is_distributive_semilattice(semilattice):
    """Does every a >= b0 /\\ b1 split as a0 /\\ a1 with a0 >= b0 and a1 >= b1?

    A direct scan over all b0, b1, a and candidate pairs a0, a1.
    """
    meet = semilattice.meet
    size = semilattice.size
    for b0, b1, a in product(range(size), repeat=3):
        if meet[meet[b0][b1]][a] != meet[b0][b1]:
            continue  # a is not above b0 /\ b1
        if not any(meet[b0][a0] == b0 and meet[b1][a1] == b1 and meet[a0][a1] == a
                   for a0 in range(size) for a1 in range(size)):
            return False
    return True


def slow_complements(lattice):
    """The complement map of a distributive lattice by a search over every
    pair, or None if some element has no complement (complements in a
    distributive lattice are unique, so the first one found is the one)."""
    complement = []
    for x in range(lattice.size):
        mates = [y for y in range(lattice.size)
                 if lattice.meet[x][y] == lattice.bottom and lattice.join[x][y] == lattice.top]
        if not mates:
            return None
        complement.append(mates[0])
    return tuple(complement)


def slow_completion_join(semilattice):
    """The join table of a meet-semilattice with a top: the join of a and b
    is the meet of their common upper bounds, listed by the order."""
    size = semilattice.size
    return tuple(tuple(meet_of(semilattice, [c for c in range(size)
                                             if semilattice.leq(a, c) and semilattice.leq(b, c)])
                       for b in range(size)) for a in range(size))


def brute_glb(leq, size, a, b):
    lower = [c for c in range(size) if leq[c][a] and leq[c][b]]
    best = [c for c in lower if all(leq[d][c] for d in lower)]
    return best[0] if best else None


def brute_lub(leq, size, a, b):
    upper = [c for c in range(size) if leq[a][c] and leq[b][c]]
    best = [c for c in upper if all(leq[c][d] for d in upper)]
    return best[0] if best else None


def lub_from_covers(names, covers):
    """The lattice of a Hasse diagram with its join taken as least upper
    bounds of the order, the meet as lattice.from_covers takes it; NotALattice
    for the first pair in row-major order without a least upper bound. The
    route from_covers took before it derived the join from the meet."""
    names = tuple(str(n) for n in names)
    size = len(names)
    leq = _order_from_covers(names, covers)
    meet = [[_glb(leq, size, a, b, names) for b in range(size)] for a in range(size)]
    join = [[brute_lub(leq, size, a, b) for b in range(size)] for a in range(size)]
    for a, b in product(range(size), repeat=2):
        if join[a][b] is None:
            raise NotALattice(f"elements {names[a]!r} and {names[b]!r} have no least upper bound")
    return FiniteLattice(names, meet, join)


def join_prime_family(lattice):
    """The lattice's two-valued family in lattice mode read off the
    join-prime certificate, code bit i for the i-th join-prime in index
    order, or None when the lattice is not distributive: the route
    twovalued.two_valued_family took before it called find_family."""
    if not is_distributive(lattice)[0]:
        return None
    primes, images = _join_prime_certificate(lattice)
    return family_of(tuple(images), len(primes), FACTOR_OPS["lattice"])


def order_matrix(structure):
    return [[structure.leq(a, b) for b in range(structure.size)]
            for a in range(structure.size)]


def meet_of(structure, elements):
    out = elements[0]
    for e in elements[1:]:
        out = structure.meet[out][e]
    return out


def join_of(lattice, elements):
    out = elements[0]
    for e in elements[1:]:
        out = lattice.join[out][e]
    return out


def interval_elements(lattice, lo, hi):
    return {x for x in range(lattice.size) if lattice.leq(lo, x) and lattice.leq(x, hi)}


def permuted(lattice, rng):
    """An isomorphic copy of a lattice whose elements are listed in shuffled order."""
    order = list(range(lattice.size))
    rng.shuffle(order)
    at = {old: new for new, old in enumerate(order)}
    meet = [[at[lattice.meet[a][b]] for b in order] for a in order]
    join = [[at[lattice.join[a][b]] for b in order] for a in order]
    return FiniteLattice([lattice.names[a] for a in order], meet, join)


def separating_family(generator_ops):
    """Two-valued homomorphisms of the generators that separate the carrier, or
    None: the numpy search that twovalued.find_family replaced, kept as its oracle.

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
    associative, with p its least element.
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


def slow_centralizer_slice(generator_ops, k, limit):
    """All k-ary operations commuting with every generator, by constraint propagation.

    Lists every commutation constraint up front, each as the argument cells
    and the target cell of one generator application, and runs a recursive
    depth-first search that fires a constraint once all its argument cells
    are decided. Tables are sorted by values; LimitExceeded past the limit.
    """
    generator_ops = list(generator_ops)
    size = generator_ops[0].size
    ncells = size ** k
    decoded = [decode_index(c, size, k) for c in range(ncells)]

    constraints = []  # (source cells, target cell, generator)
    for g in generator_ops:
        for combo in product(range(ncells), repeat=g.arity):
            target = 0
            for i in range(k):
                target = target * size + g(*(decoded[c][i] for c in combo))
            constraints.append((combo, target, g))

    by_source = [[] for _ in range(ncells)]
    by_target = [[] for _ in range(ncells)]
    for cid, (sources, target, _) in enumerate(constraints):
        for c in sources:
            by_source[c].append(cid)
        by_target[target].append(cid)

    values = [-1] * ncells
    pending = [len(sources) for sources, _, _ in constraints]
    trail = []
    results = []

    def do_assign(cell, v, queue):
        values[cell] = v
        trail.append(cell)
        for cid in by_source[cell]:
            pending[cid] -= 1
            if pending[cid] == 0:
                queue.append(cid)
        for cid in by_target[cell]:
            if pending[cid] == 0:
                queue.append(cid)

    def run_queue(queue):
        while queue:
            cid = queue.pop()
            sources, target, g = constraints[cid]
            forced = g(*(values[c] for c in sources))
            if values[target] == -1:
                do_assign(target, forced, queue)
            elif values[target] != forced:
                return False
        return True

    def undo(mark):
        while len(trail) > mark:
            cell = trail.pop()
            values[cell] = -1
            for cid in by_source[cell]:
                pending[cid] += 1

    def dfs(pos):
        while pos < ncells and values[pos] != -1:
            pos += 1
        if pos == ncells:
            if len(results) >= limit:
                raise LimitExceeded(f"centralizer slice exceeds {limit} tables")
            results.append(tuple(values))
            return
        for v in range(size):
            mark = len(trail)
            queue = []
            do_assign(pos, v, queue)
            if run_queue(queue):
                dfs(pos + 1)
            undo(mark)

    dfs(0)
    return [OpTable(k, size, vals) for vals in sorted(results)]


def _applied(g, inner):
    """The term of g applied to the inner terms, or None if any term is missing."""
    if g.provenance is None or any(p is None for p in inner):
        return None
    if not terms.variables(g.provenance) <= {f"x{i}" for i in range(1, g.arity + 1)}:
        return None
    return terms.substitute(g.provenance, {f"x{i + 1}": p for i, p in enumerate(inner)})


def slow_clone_slice(generator_ops, n, limit):
    """The n-ary clone slice by a fixpoint with one code path per generator arity.

    Starts from the n projections; at the table with index pos, applies a
    unary generator to it, a binary one to (t, pos) and then (pos, t) for
    every earlier-or-equal table t, and an m-ary one to every m-tuple over
    0..pos containing pos. A table keeps the provenance of its first
    discovery. Tables are sorted by values; LimitExceeded past the limit.
    """
    generator_ops = list(generator_ops)
    size = generator_ops[0].size
    rows, provs, seen = [], [], set()

    def add(vec, prov):
        key = vec.tobytes()
        if key in seen:
            return
        if len(rows) >= limit:
            raise LimitExceeded(f"clone slice exceeds {limit} tables")
        seen.add(key)
        rows.append(vec)
        provs.append(prov)

    for i, col in enumerate(argument_columns(size, n)):
        add(col.astype(np.int64), terms.Var(f"x{i + 1}"))

    pos = 0
    while pos < len(rows):
        vec = rows[pos]
        for g in generator_ops:
            if g.arity == 1:
                add(g.array()[vec], _applied(g, [provs[pos]]))
            elif g.arity == 2:
                for j in range(pos + 1):
                    add(g.array()[rows[j] * size + vec], _applied(g, [provs[j], provs[pos]]))
                for j in range(pos + 1):
                    add(g.array()[vec * size + rows[j]], _applied(g, [provs[pos], provs[j]]))
            else:
                for combo in product(range(pos + 1), repeat=g.arity):
                    if pos not in combo:
                        continue
                    idx = np.zeros(size ** n, dtype=np.int64)
                    for c in combo:
                        idx = idx * size + rows[c]
                    add(g.array()[idx], _applied(g, [provs[c] for c in combo]))
        pos += 1

    tables = [OpTable(n, size, vec.tolist(), provenance=prov) for vec, prov in zip(rows, provs)]
    return sorted(tables, key=lambda t: t.values)


def slow_equations_of(relation, ops):
    """The blocks of the equation theory of a tuple set over the slice tables
    ops: positions grouped by the tables' values on the tuples, one table
    call per table and tuple, blocks in order of their first position."""
    groups = {}
    for i, op in enumerate(ops):
        groups.setdefault(tuple(op(*t) for t in relation.tuples), []).append(i)
    return [tuple(block) for block in groups.values()]


def slow_galois_closure(ops, blocks, arity, size):
    """The tuples of A^arity at which every block of tables takes one value,
    one table call per table and tuple."""
    return Relation(arity, size, [t for t in product(range(size), repeat=arity)
                                  if all(len({ops[i](*t) for i in block}) == 1
                                         for block in blocks)])


def slow_commute(f, g):
    """Do f and g commute? A Python loop over every f.arity x g.arity matrix in
    lexicographic order; on failure also returns the first witness matrix."""
    n, m, size = f.arity, g.arity, f.size
    for flat in product(range(size), repeat=n * m):
        matrix = tuple(flat[i * m:(i + 1) * m] for i in range(n))
        left = f(*(g(*row) for row in matrix))
        right = g(*(f(*(matrix[i][j] for i in range(n))) for j in range(m)))
        if left != right:
            return False, matrix
    return True, None


def slow_preserves(f, relation):
    """Is the relation closed under f? A Python loop over every f.arity-tuple of
    members in lexicographic order; on failure also returns the first escaping
    choice as (rows, image)."""
    for picked in product(relation.tuples, repeat=f.arity):
        image = tuple(f(*(t[c] for t in picked)) for c in range(relation.arity))
        if image not in relation:
            return False, (picked, image)
    return True, None


def slow_closure_under(relation, ops, limit):
    """Least closed superset by rounds of Python loops over every tuple of known
    members; LimitExceeded as soon as a tuple is added past the limit."""
    size, h = relation.size, relation.arity
    current = set(relation.tuples)
    changed = True
    while changed:
        changed = False
        rows = sorted(current)
        for op in ops:
            for combo in product(rows, repeat=op.arity):
                t = tuple(op(*(r[c] for r in combo)) for c in range(h))
                if t not in current:
                    current.add(t)
                    changed = True
                    if len(current) > limit:
                        raise LimitExceeded(f"closure exceeds {limit} tuples")
    return Relation(h, size, current)


@st.composite
def intersection_closed_families(draw):
    """Meet-semilattices of subsets of a set of at most 5 points under intersection.

    Closures with more than 15 members are discarded, so that adding the
    full set keeps the carrier within 16; adding it gives a top, leaving it
    out often leaves several maximal members.
    """
    full = (1 << draw(st.integers(1, 5))) - 1
    family = set(draw(st.lists(st.integers(0, full), min_size=2, max_size=6, unique=True)))
    while True:
        closed = family | {a & b for a in family for b in family}
        if closed == family:
            break
        family = closed
    assume(len(family) <= 15)
    if draw(st.booleans()):
        family.add(full)
    members = sorted(family)
    index = {m: i for i, m in enumerate(members)}
    meet = [[index[a & b] for b in members] for a in members]
    return FiniteSemilattice([str(m) for m in members], meet)


@st.composite
def down_set_lattices(draw):
    """The distributive lattice of down-sets of a random poset on at most 4 points.

    Point j may lie above any earlier point i; the order is the transitive
    closure of the drawn pairs. Down-sets are bitmasks under & and |, listed
    in increasing order, so the empty set is the bottom element 0.
    """
    points = draw(st.integers(1, 4))
    below = [0] * points  # below[j]: bitmask of the points strictly below j
    for j in range(points):
        for i in range(j):
            if draw(st.booleans()):
                below[j] |= 1 << i | below[i]
    members = [d for d in range(1 << points)
               if all(below[j] & ~d == 0 for j in range(points) if d >> j & 1)]
    index = {m: i for i, m in enumerate(members)}
    meet = [[index[a & b] for b in members] for a in members]
    join = [[index[a | b] for b in members] for a in members]
    return FiniteLattice([str(m) for m in members], meet, join)
