"""Operation tables, preservation, clones and closures."""

import random
import re
import tracemalloc
from itertools import combinations, combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from latclone import catalog, operations, symmetry, terms, twovalued
from latclone.errors import (
    ArityMismatch,
    BadIndex,
    BadSpec,
    JoinInSemilatticeMode,
    LimitExceeded,
)
from latclone.operations import (
    OpTable,
    Relation,
    centralizer_slice,
    clone_slice,
    closure_under,
    decode_index,
    generators,
    join_op,
    meet_op,
    preserves,
    projection,
    term_to_op,
)
from latclone.relations import decode_index as relations_decode_index
from latclone.relations import relation_from_mask

from latclone.equations import EqTheory, equations_of
from latclone.lattice import is_distributive, semilattice_to_lattice

from helpers import (
    down_set_lattices,
    evaluate,
    intersection_closed_families,
    join_prime_family,
    mask_int,
    permuted,
    separating_family,
    slow_centralizer_slice,
    slow_clone_slice,
    slow_closure_under,
    slow_commute,
    slow_preserves,
)

C2 = catalog.chain(2)
C3 = catalog.chain(3)
B2 = catalog.boolean_lattice(2)
N5 = catalog.pentagon()
M3 = catalog.diamond()

# Every catalog structure with every mode it supports; B3's k=2 centralizer
# slices take the oracle seconds to minutes, so B3 is cross-checked at k=1 only.
CATALOG_MODES = [(name, structure, mode)
                 for name, structure in [("C2", C2), ("C3", C3), ("C4", catalog.chain(4)),
                                         ("B2", B2), ("B3", catalog.boolean_lattice(3)),
                                         ("N5", N5), ("M3", M3), ("fence", catalog.fence())]
                 for mode in ("lattice", "semilattice")
                 if mode == "semilattice" or structure.kind == "lattice"]


def random_op(rng, arity, size):
    return OpTable(arity, size, [rng.randrange(size) for _ in range(size ** arity)])


def test_projections():
    assert projection(1, 1, 3).values == (0, 1, 2)
    assert projection(2, 2, 2).values == (0, 1, 0, 1)
    e33 = projection(3, 3, 2)
    for a, b, c in product(range(2), repeat=3):
        assert e33(a, b, c) == c
    with pytest.raises(BadIndex):
        projection(2, 3, 2)
    with pytest.raises(BadIndex):
        projection(2, 0, 2)


def random_term(rng, names, mode, depth):
    if depth == 0 or rng.random() < 0.3:
        return terms.Var(rng.choice(names))
    node = terms.Meet if mode == "semilattice" or rng.random() < 0.5 else terms.Join
    return node(random_term(rng, names, mode, depth - 1), random_term(rng, names, mode, depth - 1))


def assert_matches_scalar_oracle(term, order, algebra):
    op = term_to_op(term, order, algebra)
    assert op.arity == len(order) and op.provenance == term
    for point in product(range(algebra.size), repeat=len(order)):
        assert op(*point) == evaluate(term, dict(zip(order, point)), algebra)


def test_term_to_op_refuses_a_variable_listed_twice():
    x, y = terms.Var("x"), terms.Var("y")
    with pytest.raises(BadSpec, match="listed twice"):
        term_to_op(terms.Meet(x, y), ("x", "x", "y"), C3)


@pytest.mark.parametrize("name,structure,mode", CATALOG_MODES,
                         ids=[f"{name}-{mode}" for name, _, mode in CATALOG_MODES])
def test_term_to_op_matches_the_scalar_oracle(name, structure, mode):
    algebra = structure if mode == "lattice" else catalog.meet_reduct(structure)
    x, y = terms.Var("x"), terms.Var("y")
    # a bare variable, a repeated variable, and orders with unused names
    assert_matches_scalar_oracle(x, ("x",), algebra)
    assert_matches_scalar_oracle(y, ("x", "y", "z"), algebra)
    assert_matches_scalar_oracle(terms.Meet(x, x), ("x",), algebra)
    assert_matches_scalar_oracle(terms.Meet(y, terms.Meet(x, y)), ("z", "y", "w", "x"), algebra)
    rng = random.Random(f"term_to_op:{name}:{mode}")
    for _ in range(12):
        order = tuple(rng.sample(["x", "y", "z", "w"], rng.randint(1, 3)))
        term = random_term(rng, order[:rng.randint(1, len(order))], mode, rng.randint(0, 3))
        assert_matches_scalar_oracle(term, order, algebra)


@pytest.mark.parametrize("structure", [C3, B2, N5, M3, catalog.fence()])
def test_meet_and_join_ops_are_the_flattened_tables(structure):
    meet = meet_op(structure)
    assert meet.values == tuple(v for row in structure.meet for v in row)
    assert terms.render(meet.provenance) == "x1 /\\ x2"
    if structure.kind == "lattice":
        join = join_op(structure)
        assert join.values == tuple(v for row in structure.join for v in row)
        assert terms.render(join.provenance) == "x1 \\/ x2"


def test_generators_are_built_once_per_structure():
    lat = catalog.boolean_lattice(2)
    meet, join = generators(lat, "lattice")
    for mode, expected in (("lattice", [meet, join]), ("semilattice", [meet])):
        first, second = generators(lat, mode), generators(lat, mode)
        assert first is not second
        assert all(a is b for a, b in zip(first, expected, strict=True))
        assert all(a is b for a, b in zip(second, expected, strict=True))
        first.append(projection(2, 1, lat.size))
        assert len(generators(lat, mode)) == len(expected)
    assert generators(catalog.fence(), "semilattice") == [meet_op(catalog.fence())]


@pytest.mark.parametrize("structure", [B2, N5, catalog.fence()])
def test_term_evaluator_reads_read_only_tables_built_once(structure):
    flat_meet, flat_join = operations._flat_tables(structure)
    assert operations._flat_tables(structure)[0] is flat_meet
    assert flat_meet.tolist() == [v for row in structure.meet for v in row]
    assert not flat_meet.flags.writeable
    if structure.kind == "lattice":
        assert flat_join.tolist() == [v for row in structure.join for v in row]
        assert not flat_join.flags.writeable
    else:
        assert flat_join is None
    with pytest.raises(ValueError):
        flat_meet[0] = 1


def test_term_evaluator_evaluates_a_recurring_root_once():
    class Counting(np.ndarray):
        """A table that counts how often it is indexed."""
        calls = 0

        def __getitem__(self, key):
            Counting.calls += 1
            return np.asarray(self)[key]

    lat = catalog.boolean_lattice(2)
    lat._flat_tables = tuple(t.view(Counting) for t in operations._flat_tables(lat))
    x, y, z = terms.Var("x"), terms.Var("y"), terms.Var("z")
    s = terms.Join(terms.Meet(x, y), z)
    t = terms.Meet(s, x)  # "s <= x" is the atom s = t
    roots = (s, t, terms.Join(t, y), terms.Meet(x, y))  # the last copies a subterm of s
    env = dict(zip("xyz", operations.argument_columns(lat.size, 3)))
    values = terms.term_evaluator(lat, operations._table_ops(lat))(roots, env)
    assert Counting.calls == 5  # the two nodes of s, one node each of the other three
    for root, got in zip(roots, values):
        assert got.tolist() == [evaluate(root, dict(zip("xyz", t)), lat)
                                for t in product(range(lat.size), repeat=3)]


def test_join_term_over_a_semilattice_is_refused():
    x, y = terms.Var("x"), terms.Var("y")
    for algebra in (catalog.fence(), catalog.meet_reduct(B2)):
        with pytest.raises(JoinInSemilatticeMode):
            term_to_op(terms.Meet(x, terms.Join(x, y)), ("x", "y"), algebra)


def test_everything_preserves_the_full_relation():
    rng = random.Random(5)
    full = Relation.full(2, 3)
    for arity in (1, 2, 3):
        assert preserves(random_op(rng, arity, 3), full) == (True, None)


def test_meet_preserves_the_order_relation():
    for lat in (C3, B2, N5, M3):
        order = Relation(2, lat.size,
                         [(a, b) for a in range(lat.size) for b in range(lat.size)
                          if lat.leq(a, b)])
        assert preserves(meet_op(lat), order)[0]
        assert preserves(join_op(lat), order)[0]


def test_preserves_failure_carries_a_witness():
    # the diagonal is not preserved by a map sending a diagonal pair outside
    diag = Relation(2, 2, [(0, 0), (1, 1)])
    f = OpTable(1, 2, (1, 0))
    swap = Relation(2, 2, [(0, 1)])
    verdict, witness = preserves(f, swap)
    assert not verdict
    rows, image = witness
    assert rows == ((0, 1),) and image == (1, 0)
    assert preserves(f, diag)[0]


def test_rows_are_compared_exactly_past_int64_codes():
    # as base-2 codes, (1,)*65 and its neighbour (0,)+(1,)*64 differ by 2**64,
    # so int64 codes would make the image look like a member
    R = Relation(65, 2, [(0,) * 65, (0,) + (1,) * 64])
    f = OpTable(1, 2, (1, 0))
    assert preserves(f, R) == (False, (((0,) * 65,), (1,) * 65))
    assert len(closure_under(R, [f])) == 4


def test_an_early_escape_stays_within_a_block():
    # 997 rows: the codes of the last argument are built for every row, those
    # of the first two for one block of choices, and the first block escapes
    b4 = catalog.boolean_lattice(4)
    xs = ["x1", "x2", "x3"]
    meet3 = term_to_op(terms.Meet(terms.Meet(terms.Var("x1"), terms.Var("x2")), terms.Var("x3")),
                       xs, b4)
    rng = random.Random(7)
    relation = Relation(4, 16, [decode_index(c, 16, 4) for c in rng.sample(range(16 ** 4), 997)])
    tracemalloc.start()
    try:
        got = preserves(meet3, relation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == slow_preserves(meet3, relation)
    assert not got[0]
    assert peak < 16 << 20


def _closure_or_refusal(close, relation, ops, limit):
    try:
        return close(relation, ops, limit)
    except LimitExceeded as exc:
        return str(exc)


def test_componentwise_kernel_matches_the_loops(monkeypatch):
    """Verdicts, witnesses, closures and refusals equal the Python loops', at the
    default block cap, at 1 (one choice per block), at 64 (codes built for the
    last argument only, as a rule) and at 2**40 (one block)."""
    rng = random.Random(83)
    seen, cases = set(), 0
    while cases < 300:
        size, m, h = rng.randint(1, 4), rng.randint(1, 3), rng.randint(0, 4)
        if size ** (h * m) > 4096:  # keeps the loops' closure rounds short
            continue
        cases += 1
        grid = list(product(range(size), repeat=h))
        count = 0 if cases % 10 == 0 else rng.randint(0, len(grid))
        relation = Relation(h, size, rng.sample(grid, count))
        f = random_op(rng, m, size)
        ops = [f, random_op(rng, rng.randint(1, m), size)][:rng.randint(1, 2)]
        full = len(slow_closure_under(relation, ops, 10 ** 6))
        limit = rng.choice([0, 1, len(relation), full - 1, full, 10 ** 6])
        if limit < 0:  # full - 1 for the empty relation: an input error, not a refusal
            with pytest.raises(BadSpec, match="limit must be nonnegative, got -1"):
                closure_under(relation, ops, limit)
            limit = 0
        expected = (slow_preserves(f, relation),
                    _closure_or_refusal(slow_closure_under, relation, ops, limit))
        for cap in (operations.BLOCK_CELLS, 1, 64, 1 << 40):
            monkeypatch.setattr(operations, "BLOCK_CELLS", cap)
            got = (preserves(f, relation),
                   _closure_or_refusal(closure_under, relation, ops, limit))
            assert got == expected, (f, relation, ops, limit, cap)
        monkeypatch.undo()
        seen |= {("size", size), ("op arity", m), ("arity", h), ("empty", not count),
                 ("preserved", expected[0][0]), ("refused", isinstance(expected[1], str))}
    assert seen == ({("size", s) for s in range(1, 5)} | {("op arity", a) for a in (1, 2, 3)}
                    | {("arity", a) for a in range(5)}
                    | {(key, b) for key in ("empty", "preserved", "refused")
                       for b in (True, False)})


def test_clone_slice_binary_on_two_elements():
    ops = clone_slice(generators(C2, "lattice"), 2)
    expected = {projection(2, 1, 2), projection(2, 2, 2), meet_op(C2), join_op(C2)}
    assert set(ops) == expected
    assert len(ops) == 4
    # cross-check by enumeration: the binary lattice terms on two elements
    # are exactly the monotone maps fixing both constant tuples
    monotone = set()
    for values in product(range(2), repeat=4):
        f = OpTable(2, 2, values)
        if f(0, 0) != 0 or f(1, 1) != 1:
            continue
        if all(f(a, b) <= f(c, d)
               for a, b in product(range(2), repeat=2)
               for c, d in product(range(2), repeat=2)
               if a <= c and b <= d):
            monotone.add(f)
    assert set(ops) == monotone


def test_meet_only_slices_are_nonempty_variable_meets():
    # the n-ary slice of a meet-semilattice clone is one table per nonempty
    # subset of variables; build the expected tables directly
    for algebra in (C3, catalog.meet_reduct(N5)):
        for n in (1, 2, 3):
            expected = set()
            for r in range(1, n + 1):
                for subset in combinations(range(1, n + 1), r):
                    expected.add(term_to_op(terms.meet_all([f"x{i}" for i in subset]),
                                            [f"x{i}" for i in range(1, n + 1)], algebra))
            ops = clone_slice([meet_op(algebra)], n)
            assert set(ops) == expected
            assert len(ops) == 2 ** n - 1


def test_ternary_distributive_slice_is_free_on_three_generators():
    assert len(clone_slice(generators(C3, "lattice"), 3)) == 18
    assert len(clone_slice(generators(B2, "lattice"), 3)) == 18
    assert len(clone_slice(generators(catalog.boolean_lattice(3), "lattice"), 3)) == 18


def test_ternary_non_distributive_slices():
    # measured fixpoint sizes; M3 matches the 28-element free modular lattice
    assert len(clone_slice(generators(M3, "lattice"), 3)) == 28
    assert len(clone_slice(generators(N5, "lattice"), 3)) == 99


def test_clone_slice_limit():
    with pytest.raises(LimitExceeded):
        clone_slice(generators(N5, "lattice"), 3, limit=50)


def test_clone_slice_is_closed_under_generators():
    ops = clone_slice(generators(B2, "lattice"), 2)
    members = set(ops)
    for g in generators(B2, "lattice"):
        for f1, f2 in product(ops, repeat=2):
            composed = [g(f1(*t), f2(*t)) for t in product(range(B2.size), repeat=2)]
            assert OpTable(2, B2.size, composed) in members


def _rendered(ops):
    return [(f.values, None if f.provenance is None else terms.render(f.provenance))
            for f in ops]


def _same_clone_as_oracle(gens, n, limit=100_000):
    """Same tables, same rendered provenance and same refusal as the seed fixpoint."""
    try:
        expected = _rendered(slow_clone_slice(gens, n, limit))
    except LimitExceeded:
        with pytest.raises(LimitExceeded, match=f"exceeds {limit} tables"):
            clone_slice(gens, n, limit=limit)
        return
    assert _rendered(clone_slice(gens, n, limit=limit)) == expected


@pytest.mark.parametrize("name,structure,mode", CATALOG_MODES,
                         ids=[f"{name}-{mode}" for name, _, mode in CATALOG_MODES])
def test_clone_slice_matches_oracle_on_catalog(name, structure, mode):
    for n in (1, 2, 3):
        _same_clone_as_oracle(generators(structure, mode), n)


def _unusual_generator_sets():
    xs = ["x1", "x2", "x3"]
    x1, x2, x3 = (terms.Var(x) for x in xs)
    median = term_to_op(terms.Join(terms.Join(terms.Meet(x1, x2), terms.Meet(x1, x3)),
                                   terms.Meet(x2, x3)), xs, C3)
    # x1 /\ (x2 \/ x3) is not symmetric, so every tuple containing the new table is walked
    lopsided = term_to_op(terms.Meet(x1, terms.Join(x2, x3)), xs, C3)
    complement = OpTable(1, 4, (3, 2, 1, 0))
    # addition and subtraction mod 3 are not idempotent, and subtraction is not
    # symmetric; the symmetric ternary sum catches a walk that skips tuples
    # repeating an earlier table
    add = OpTable(2, 3, [(x + y) % 3 for x in range(3) for y in range(3)])
    sub = OpTable(2, 3, [(x - y) % 3 for x in range(3) for y in range(3)])
    add3 = OpTable(3, 3, [sum(t) % 3 for t in product(range(3), repeat=3)])
    return ([median], [lopsided], [median, lopsided], [meet_op(B2), complement],
            [add], [sub], [add, sub], [add3])


def test_clone_slice_matches_oracle_for_unary_ternary_and_non_idempotent_generators():
    for gens in _unusual_generator_sets():
        for n in (1, 2, 3):
            _same_clone_as_oracle(gens, n)
    complement = OpTable(1, 4, (3, 2, 1, 0))
    assert len(clone_slice([meet_op(B2), complement], 2)) == 16  # all Boolean functions
    add = OpTable(2, 3, [(x + y) % 3 for x in range(3) for y in range(3)])
    assert len(clone_slice([add], 2)) == 9  # the maps a*x1 + b*x2


def test_tuples_with_lists_the_filtered_product():
    # a block of positions lists, position by position, the tuples the
    # sequential walk met there
    for (lo, hi), m, symmetric in product([(0, 1), (0, 7), (3, 9), (6, 7)], range(1, 5),
                                          (False, True)):
        expected = []
        for pos in range(lo, hi):
            every = [c for c in product(range(pos + 1), repeat=m) if pos in c]
            if symmetric and m == 2:
                every = [(c, pos) for c in range(pos + 1)]
            expected += [(c, pos) for c in every if not symmetric or list(c) == sorted(c)]
        cols, at = operations._tuples_with(lo, hi, m, symmetric)
        assert list(zip(map(tuple, cols.T.tolist()), at.tolist())) == expected
        if not symmetric:  # the same tuples, position by position, for the walk on {0, 1}^n
            assert [(t, pos) for pos in range(lo, hi) for t in twovalued.tuples_at(pos, m)] == expected


def test_clone_slice_of_ternary_nand_matches_oracle():
    # nand of the first two arguments, the third fictitious: not symmetric
    nand = OpTable(3, 2, [1 - (x & y) for x, y, _ in product(range(2), repeat=3)])
    for n in (1, 2):
        _same_clone_as_oracle([nand], n)
    assert len(clone_slice([nand], 2)) == 16  # nand generates every operation


def _random_generator_sets(seed):
    """40 seeded (generators, n) pairs on 2 or 3 elements."""
    rng = random.Random(seed)
    for _ in range(40):
        size = rng.choice([2, 3])
        arities = rng.choice([[1], [2], [3], [1, 2], [2, 2], [3, 2], [1, 3]])
        gens = [random_op(rng, m, size) for m in arities]
        yield gens, rng.choice([1, 2, 3] if size == 2 else [1, 2])


def test_clone_slice_matches_oracle_on_random_generators():
    for gens, n in _random_generator_sets(43):
        _same_clone_as_oracle(gens, n, limit=60)


def test_clone_slice_limit_boundary(monkeypatch):
    monkeypatch.setattr(operations, "_RECORDS", {})
    for structure, mode, n in [(C3, "lattice", 3), (N5, "lattice", 3), (M3, "semilattice", 3),
                               (B2, "lattice", 2)]:
        gens = generators(structure, mode)
        count = len(clone_slice(gens, n))
        operations._RECORDS.clear()  # the walk's own refusal, not the memo's
        with pytest.raises(LimitExceeded, match=f"exceeds {count - 1} tables"):
            clone_slice(gens, n, limit=count - 1)
        assert len(clone_slice(gens, n, limit=count)) == count


def test_a_memoised_slice_answers_every_limit_without_a_walk(monkeypatch):
    # the walk refuses exactly when the slice has more than limit tables, so
    # the memo is keyed without the limit
    monkeypatch.setattr(operations, "_RECORDS", {})
    for structure, mode, n in [(C3, "lattice", 3), (N5, "lattice", 2), (M3, "semilattice", 2)]:
        gens = generators(structure, mode)
        tables = clone_slice(gens, n)
        count = len(tables)

        def unused(*args):
            raise AssertionError("a memoised slice is not walked again")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operations, "_walk", unused)
            mp.setattr(twovalued, "_bit_walk", unused)
            again = clone_slice(gens, n, limit=count)
            assert all(a is b for a, b in zip(again, tables)) and len(again) == count
            with pytest.raises(LimitExceeded, match=f"clone slice exceeds {count - 1} tables"):
                clone_slice(gens, n, limit=count - 1)


# Structures whose generators act alike on {p, q}: the distributive lattices in
# lattice mode share one walk on {0, 1}^n per arity, every semilattice another
SHARED_WALKS = ([(structure, "lattice", n) for name, structure, mode in CATALOG_MODES
                 if name in ("C3", "C4", "B2", "B3") and mode == "lattice" for n in (1, 2, 3)]
                + [(structure, mode, n) for _, structure, mode in CATALOG_MODES
                   if mode == "semilattice" for n in (1, 2, 3)]
                + [(catalog.boolean_lattice(3), "lattice", 4), (catalog.chain(4), "lattice", 4)])


def test_shared_walks_give_every_structure_its_cold_slice(monkeypatch):
    cold = []
    for structure, mode, n in SHARED_WALKS:
        monkeypatch.setattr(operations, "_RECORDS", {})
        monkeypatch.setattr(twovalued, "_WALKS", {})
        cold.append(_rendered(clone_slice(generators(structure, mode), n)))
    walk, starts = twovalued._bit_walk, []

    def counted(ops, n, limit):
        starts.append(n)
        return walk(ops, n, limit)

    monkeypatch.setattr(twovalued, "_bit_walk", counted)
    for order in (range(len(cold)), reversed(range(len(cold)))):
        monkeypatch.setattr(operations, "_RECORDS", {})
        monkeypatch.setattr(twovalued, "_WALKS", {})
        starts.clear()
        for i in order:
            structure, mode, n = SHARED_WALKS[i]
            assert _rendered(clone_slice(generators(structure, mode), n)) == cold[i]
        # one walk per factor and arity: lattice n = 1..4, semilattice n = 1..3
        assert sorted(starts) == [1, 1, 2, 2, 3, 3, 4]


def test_a_shared_walk_answers_every_limit_without_a_walk(monkeypatch):
    # the walk refuses exactly when it finds more than limit tables, so a walk
    # memoised by one structure refuses and answers for another with its factor
    monkeypatch.setattr(operations, "_RECORDS", {})
    for mode, walked, other, n in [("lattice", C3, catalog.boolean_lattice(3), 3),
                                   ("lattice", B2, catalog.chain(4), 4),
                                   ("semilattice", N5, catalog.fence(), 3)]:
        count = len(clone_slice(generators(walked, mode), n))

        def unused(*args):
            raise AssertionError("a shared walk is not walked again")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operations, "_walk", unused)
            mp.setattr(twovalued, "_bit_walk", unused)
            gens = generators(other, mode)
            with pytest.raises(LimitExceeded, match=f"clone slice exceeds {count - 1} tables"):
                clone_slice(gens, n, limit=count - 1)
            assert _rendered(clone_slice(gens, n, limit=count)) == _rendered(
                slow_clone_slice(gens, n, count))


def test_the_factor_record_is_what_the_factor_tables_give(monkeypatch):
    # the walk is keyed by the generators' bits on the factor and their terms:
    # the factor's own tables (the bits as tables on {0, 1}, same terms) have
    # the identity family with the same bits, and share the structure's walk
    for structure, mode in [(catalog.boolean_lattice(3), "lattice"), (catalog.chain(4), "lattice"),
                            (C3, "semilattice"), (M3, "semilattice"), (catalog.fence(), "semilattice")]:
        monkeypatch.setattr(operations, "_RECORDS", {})
        monkeypatch.setattr(twovalued, "_WALKS", {})
        gens = generators(structure, mode)
        family = operations._generator_record(gens)[0]
        factor = [OpTable(m, 2, [bits >> c & 1 for c in range(1 << m)], g.provenance)
                  for g, (m, bits) in zip(gens, family.ops)]
        direct = operations._generator_record(factor)[0]
        expected = separating_family(factor)
        assert (direct.images, direct.width, direct.ops) == ((0, 1), 1, family.ops)
        assert expected[:2] == (0, 1) and expected[2].tolist() == [[0, 1]]
        assert [sum(b << c for c, b in enumerate(bits.tolist())) for bits in expected[3]] == [
            bits for _, bits in family.ops]
        clone_slice(gens, 3)
        walks = dict(twovalued._WALKS)
        assert _rendered(clone_slice(factor, 3)) == _rendered(slow_clone_slice(factor, 3, 1000))
        assert twovalued._WALKS == walks and len(walks) == 1


def test_a_refused_walk_memoises_nothing(monkeypatch):
    monkeypatch.setattr(operations, "_RECORDS", {})
    monkeypatch.setattr(twovalued, "_WALKS", {})
    gens = generators(catalog.boolean_lattice(3), "lattice")
    with pytest.raises(LimitExceeded, match="clone slice exceeds 5 tables"):
        clone_slice(gens, 3, limit=5)
    assert twovalued._WALKS == {} and 3 not in operations._generator_record(gens)[2]
    _same_clone_as_oracle(generators(catalog.chain(4), "lattice"), 3, limit=18)


def test_a_generator_with_another_term_walks_for_its_own_terms(monkeypatch):
    # x2 /\ x1 has the bits of x1 /\ x2 on {p, q} but other terms: its own walk
    monkeypatch.setattr(operations, "_RECORDS", {})
    x1, x2 = terms.Var("x1"), terms.Var("x2")
    swapped = term_to_op(terms.Meet(x2, x1), ("x1", "x2"), C3)
    for n in (1, 2, 3):
        clone_slice(generators(C3, "lattice"), n)
        clone_slice(generators(C3, "semilattice"), n)
        _same_clone_as_oracle([swapped, join_op(C3)], n)
        _same_clone_as_oracle([swapped], n)
    rendered = [term for _, term in _rendered(clone_slice([swapped], 2))]
    assert "x2 /\\ x1" in rendered and "x1 /\\ x2" not in rendered


@pytest.mark.parametrize("bad", [True, 1.5, None, "5", -1])
def test_malformed_limits_are_refused_before_any_memo(bad, monkeypatch):
    monkeypatch.setattr(operations, "_RECORDS", {})
    gens = generators(C3, "lattice")
    for call in (lambda: clone_slice(gens, 2, limit=bad),
                 lambda: centralizer_slice(gens, 1, limit=bad),
                 lambda: closure_under(Relation(2, 3, [(0, 1)]), gens, limit=bad)):
        with pytest.raises(BadSpec, match="^limit "):
            call()
    assert not operations._RECORDS
    assert len(clone_slice(gens, 2, limit=np.int64(4))) == 4


def _shared_verdicts():
    """The families and Boolean powers cached on the structures that the
    tests of this module share, so that a check run without a family can
    be shown to leave none of its own on them."""
    shared = [structure for _, structure, _ in CATALOG_MODES]
    return [(dict(getattr(s, "_two_valued_cache", {})), getattr(s, "_boolean_power_cache", None))
            for s in shared]


def _with_and_without_family(monkeypatch):
    """Run a check as given, then again with no separating family, neither
    for the carrier nor for any subalgebra, so that every slice walks every
    cell whose entries generate more than one element (or one cell if none
    does)."""
    yield
    shared = _shared_verdicts()
    monkeypatch.setattr(twovalued, "find_family", lambda size, tables: None)
    monkeypatch.setattr(operations, "_RECORDS", {})
    yield
    assert _shared_verdicts() == shared


def test_small_slices_match_oracle_on_two_valued_and_on_all_cells(monkeypatch):
    # with a family even the smallest slices walk 2^n-bit ints and replay them
    monkeypatch.setattr(operations, "_RECORDS", {})
    for _ in _with_and_without_family(monkeypatch):
        for name, structure, mode in CATALOG_MODES:
            for n in (1, 2, 3):
                _same_clone_as_oracle(generators(structure, mode), n)
        _same_clone_as_oracle(generators(catalog.boolean_lattice(3), "semilattice"), 4)
        for gens in _unusual_generator_sets():
            for n in (1, 2, 3):
                _same_clone_as_oracle(gens, n)
        for gens, n in _random_generator_sets(53):
            _same_clone_as_oracle(gens, n, limit=60)
            cycle = OpTable(1, gens[0].size, [(x + 1) % gens[0].size for x in range(gens[0].size)])
            _same_clone_as_oracle(gens + [cycle], n, limit=60)


@pytest.mark.parametrize("mode", ["lattice", "semilattice"])
def test_clone_slice_of_b4_matches_oracle(mode, monkeypatch):
    # at n=3 the walk computes 8 of the 4,096 cells; without the family, all but the 16 constant ones
    for _ in _with_and_without_family(monkeypatch):
        for n in (1, 2, 3):
            _same_clone_as_oracle(generators(catalog.boolean_lattice(4), mode), n)


def test_packed_walk_matches_oracle_on_arbitrary_generators_over_two_elements(monkeypatch):
    # a meet (p = 0) or a join (p = 1) first gives the family {identity}, so
    # any generators after it walk 2^n-bit ints: unary, m-ary and
    # non-monotone ones too, whose complements (against the full mask) must
    # stay inside the 2^n bits at n = 1, 2, 3 and inside the lanes
    rng = random.Random(61)
    cases = []
    for _ in range(30):
        first = rng.choice([meet_op(C2), join_op(C2)])
        rest = [random_op(rng, m, 2) for m in rng.choice([[1], [2], [3], [1, 3], [2, 2], [3, 2]])]
        cases.append(([first] + rest, rng.choice([1, 2, 3])))
    negation = OpTable(1, 2, (1, 0))
    xor3 = OpTable(3, 2, [a ^ b ^ c for a, b, c in product(range(2), repeat=3)])
    cases += [([meet_op(C2), negation], n) for n in (1, 2, 3)]
    cases += [([join_op(C2), xor3], n) for n in (1, 2, 3)]
    for gens, _ in cases:
        assert _family(gens) is not None
    for _ in _with_and_without_family(monkeypatch):
        for gens, n in cases:
            _same_slices_and_refusal_as_oracle(gens, n, limit=60)


@pytest.mark.slow
def test_ternary_nand_generates_every_ternary_operation_on_two_elements():
    # no family (the first generator is not binary): 256 tables of 8 cells,
    # each position pos meeting the 3 pos^2 + 3 pos + 1 tuples containing it
    nand = OpTable(3, 2, [1 - (x & y) for x, y, _ in product(range(2), repeat=3)])
    tables = clone_slice([nand], 3)
    assert [t.values for t in tables] == list(product(range(2), repeat=8))
    with pytest.raises(LimitExceeded, match="exceeds 255 tables"):
        clone_slice([nand], 3, limit=255)


def _family(gens):
    """The two-valued family of twovalued.find_family on the generators' flat tables."""
    return twovalued.find_family(gens[0].size, [(g.arity, g.values) for g in gens])


def _check_family(gens, family):
    """Every map is a homomorphism of every generator into {p, q}, and the
    maps tell the elements apart; checked by plain loops. p has code 0 and
    q is the lowest other index. The family is the numpy oracle's: the same
    maps in the same order and the same bits."""
    size = gens[0].size
    p = family.images.index(0)
    q = 1 if p == 0 else 0
    maps = [[q if code >> i & 1 else p for code in family.images] for i in range(family.width)]
    for h in maps:
        assert set(h) == {p, q}
        for g in gens:
            for args in product(range(size), repeat=g.arity):
                assert h[g(*args)] == g(*(h[a] for a in args))
    assert len(set(family.images)) == size
    assert [m for m, _ in family.ops] == [g.arity for g in gens]
    for g, (m, bits) in zip(gens, family.ops):
        cells = product((p, q), repeat=g.arity)
        assert [bool(bits >> c & 1) for c in range(1 << m)] == [g(*c) == q for c in cells]
    oracle = separating_family(gens)
    assert oracle[:2] == (p, q) and oracle[2].tolist() == maps
    assert [b.tolist() for b in oracle[3]] == [[bool(bits >> c & 1) for c in range(1 << m)]
                                               for m, bits in family.ops]
    # the maps embed (A, g1) in a power of ({p, q}, AND): g1 is a semilattice operation
    g1 = gens[0]
    assert all(g1(x, x) == x for x in range(size))
    assert all(g1(x, y) == g1(y, x) for x, y in product(range(size), repeat=2))
    assert all(g1(g1(x, y), z) == g1(x, g1(y, z)) for x, y, z in product(range(size), repeat=3))


def _family_expected(structure, mode):
    """Two-valued homomorphisms separate exactly the distributive lattices
    (Birkhoff) and every meet-semilattice, given two elements to separate."""
    if structure.size < 2:
        return False
    return mode == "semilattice" or is_distributive(structure)[0]


def test_separating_family_exists_iff_distributive_on_the_catalog():
    fixtures = CATALOG_MODES + [("C1", catalog.chain(1), mode) for mode in ("lattice", "semilattice")]
    for name, structure, mode in fixtures:
        gens = generators(structure, mode)
        family = _family(gens)
        assert (family is not None) == _family_expected(structure, mode), (name, mode)
        assert (separating_family(gens) is None) == (family is None)
        if family is not None:
            _check_family(gens, family)
    for gens in _unusual_generator_sets():
        family = _family(gens)
        assert (separating_family(gens) is None) == (family is None)
        if family is not None:
            _check_family(gens, family)
    # the filters of the k atoms, tried first as the largest proper up-sets,
    # whatever the order of the elements
    for k in (2, 3, 4):
        lattice = catalog.boolean_lattice(k)
        for structure in [lattice] + [permuted(lattice, random.Random(seed)) for seed in (1, 2, 3)]:
            for mode in ("lattice", "semilattice"):
                assert _family(generators(structure, mode)).width == k, (k, mode)


def _maps(family):
    """The family's maps as a set of tuples, each map's bit at every element."""
    return {tuple(code >> i & 1 for code in family.images) for i in range(family.width)}


def _assert_family_is_the_join_primes(lattice):
    """two_valued_family in lattice mode keeps exactly the maps of the
    join-prime certificate (join_prime_family), the codes possibly in
    another order, and is the family the generators' record holds."""
    family, oracle = twovalued.two_valued_family(lattice, "lattice"), join_prime_family(lattice)
    assert family is operations._generator_record(generators(lattice, "lattice"))[0]
    assert (family is None) == (oracle is None)
    if family is not None:
        assert _maps(family) == _maps(oracle) and family.width == oracle.width
        assert family.ops == oracle.ops == twovalued.FACTOR_OPS["lattice"]


def test_two_valued_family_is_the_join_prime_family_on_the_catalog():
    for _, structure, mode in CATALOG_MODES:
        if mode == "lattice":
            _assert_family_is_the_join_primes(structure)
    assert twovalued.two_valued_family(N5, "lattice") is None
    assert twovalued.two_valued_family(M3, "lattice") is None
    one = catalog.chain(1)  # the empty family, which find_family does not give
    assert twovalued.two_valued_family(one, "lattice") is join_prime_family(one)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(down_set_lattices())
def test_two_valued_family_is_the_join_prime_family_on_down_set_lattices(lat):
    _assert_family_is_the_join_primes(lat)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(intersection_closed_families())
def test_separating_family_exists_iff_distributive_on_closure_systems(semilattice):
    structures = [(semilattice, "semilattice")]
    if semilattice.top is not None:  # a closure system with a top is a lattice
        structures.append((semilattice_to_lattice(semilattice), "lattice"))
    for structure, mode in structures:
        gens = generators(structure, mode)
        family = _family(gens)
        assert (family is not None) == _family_expected(structure, mode)
        assert (separating_family(gens) is None) == (family is None)
        if family is not None:
            _check_family(gens, family)


def _same_slices_and_refusal_as_oracle(gens, n, limit=100_000):
    """Same tables, provenance and order as the seed fixpoint, and the same
    refusal one table short of the full slice, or at the limit."""
    try:
        expected = _rendered(slow_clone_slice(gens, n, limit))
    except LimitExceeded:
        with pytest.raises(LimitExceeded, match=f"exceeds {limit} tables"):
            clone_slice(gens, n, limit=limit)
        return
    # refused first, by the walk: a refusal is not memoised
    with pytest.raises(LimitExceeded, match=f"exceeds {len(expected) - 1} tables"):
        clone_slice(gens, n, limit=len(expected) - 1)
    assert _rendered(clone_slice(gens, n, limit=limit)) == expected


@settings(derandomize=True, deadline=None, max_examples=40)
@given(down_set_lattices())
def test_two_valued_cells_match_oracle_on_distributive_lattices(lat):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operations, "_RECORDS", {})
        # join alone: the family's pair is (top, bottom), ordered by the join
        for gens in (generators(lat, "lattice"), generators(lat, "semilattice"), [join_op(lat)]):
            family = _family(gens)
            _check_family(gens, family)
            assert operations._generator_record(gens)[0] is not None  # the walk is packed
            for n in (1, 2, 3):
                _same_slices_and_refusal_as_oracle(gens, n)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(intersection_closed_families())
def test_two_valued_cells_match_oracle_on_meet_semilattices(semilattice):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operations, "_RECORDS", {})
        gens = generators(semilattice, "semilattice")
        assert operations._generator_record(gens)[0] is not None  # the walk is packed
        for n in (1, 2, 3):
            _same_slices_and_refusal_as_oracle(gens, n)


# Lattice completions of closure systems that are not distributive: no separating family
family_free_completions = (intersection_closed_families()
                           .filter(lambda semilattice: semilattice.top is not None)
                           .map(semilattice_to_lattice)
                           .filter(lambda lattice: not is_distributive(lattice)[0]))


def _cells_tell_tables_apart(gens, n, limit):
    """The separating cells are sorted and never empty, and any two oracle
    tables that agree on them agree on every cell. Returns False, having
    checked only the cells, when the oracle refuses at the limit."""
    cells = symmetry.separating_cells(gens, n)
    assert len(cells) and (np.diff(cells) > 0).all()
    try:
        tables = slow_clone_slice(gens, n, limit)
    except LimitExceeded:
        return False
    rows = [np.array(t.values) for t in tables]
    assert len({row[cells].tobytes() for row in rows}) == len({row.tobytes() for row in rows})
    return True


def test_separating_cells_tell_term_operations_apart(monkeypatch):
    # the theorem on its own, without the walk: the oracle's full tables
    monkeypatch.setattr(operations, "_RECORDS", {})
    for structure in (N5, M3):
        gens = generators(structure, "lattice")
        for n in (1, 2, 3):
            assert _cells_tell_tables_apart(gens, n, limit=100_000)
        # {p, q}^n and the cells of the 3-generated N5 or M3, the rest read off them
        assert [len(symmetry.separating_cells(gens, n)) for n in (3, 4)] == [14, 100]
    for gens in _unusual_generator_sets():
        for n in (1, 2, 3):
            assert _cells_tell_tables_apart(gens, n, limit=100_000)
    # every cell of a one-element carrier tells nothing apart, yet one is walked
    for mode in ("lattice", "semilattice"):
        assert symmetry.separating_cells(generators(catalog.chain(1), mode), 1).tolist() == [0]


@settings(derandomize=True, deadline=None, max_examples=12,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(family_free_completions)
def test_separating_cells_tell_term_operations_apart_on_completions(lattice):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operations, "_RECORDS", {})
        gens = generators(lattice, "lattice")
        assert operations._generator_record(gens)[0] is None
        assert _cells_tell_tables_apart(gens, 2, limit=100_000)
        _cells_tell_tables_apart(gens, 3, limit=200)


@settings(derandomize=True, deadline=None, max_examples=12,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(family_free_completions)
def test_separating_cells_walk_matches_oracle_on_completions(lattice):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operations, "_RECORDS", {})
        gens = generators(lattice, "lattice")
        for n in (1, 2, 3):
            _same_slices_and_refusal_as_oracle(gens, n, limit=200)


@pytest.mark.parametrize("name,structure,mode", CATALOG_MODES,
                         ids=[f"{name}-{mode}" for name, _, mode in CATALOG_MODES])
def test_slice_matrix_holds_the_slice_values(monkeypatch, name, structure, mode):
    # the slice read as a matrix, a row of values per table: distinct rows in
    # sorted order, for the clone and the centralizer, on and off the family
    monkeypatch.setattr(operations, "_RECORDS", {})
    gens = generators(structure, mode)
    slices = [(clone_slice, n) for n in ((1, 2, 3, 4) if name == "B3" else (1, 2, 3))]
    slices += [(centralizer_slice, k) for k in (1, 2)]
    for engine, n in slices:
        try:
            tables = engine(gens, n)
        except LimitExceeded:
            assert (name, mode, engine, n) == ("B3", "semilattice", centralizer_slice, 2)
            continue
        rows = [t.values for t in tables]
        assert all(len(row) == structure.size ** n for row in rows)
        assert all(a < b for a, b in zip(rows, rows[1:]))
        assert [t.values for t in engine(iter(gens), np.int64(n))] == rows
    with pytest.raises(BadSpec):
        clone_slice(gens, True)
    with pytest.raises(LimitExceeded):
        clone_slice(gens, 3, limit=1)


def _same_as_a_table_built_by_hand(tables, lookup_in):
    """Each slice table behaves as OpTable(arity, size, list(op.values))
    does; lookup_in(ref) is where an equal table built by hand is found."""
    for i, op in enumerate(tables):
        values = op.values
        assert type(values) is tuple and all(type(v) is int for v in values)
        ref = OpTable(op.arity, op.size, list(values), provenance=op.provenance)
        assert op == ref and ref == op and hash(op) == hash(ref)
        assert all(op(*args) == ref(*args) == values[c] for c, args in
                   enumerate(product(range(op.size), repeat=op.arity)))
        rendered = (f"OpTable({op.arity}-ary, {terms.render(op.provenance)})"
                    if op.provenance is not None
                    else f"OpTable({op.arity}-ary on {op.size}, {list(values)})")
        assert repr(op) == repr(ref) == rendered
        arr = op.array()
        assert arr.dtype == np.int64 and arr.tolist() == list(values) and op.array() is arr
        with pytest.raises(ValueError):
            arr[0] = values[0] + 1  # read-only: later array() calls and the memo keep it
        assert op.values == values
        assert lookup_in(ref) == i


@pytest.mark.parametrize("name,structure,mode", CATALOG_MODES,
                         ids=[f"{name}-{mode}" for name, _, mode in CATALOG_MODES])
def test_slice_tables_are_rows_that_behave_as_tables_built_by_hand(monkeypatch, name, structure,
                                                                  mode):
    monkeypatch.setattr(operations, "_RECORDS", {})
    gens = generators(structure, mode)
    for n in (1, 2, 3):
        tables = clone_slice(gens, n)
        theory = equations_of(Relation(n, structure.size, []), gens)
        _same_as_a_table_built_by_hand(tables, theory.ops.index)
        assert [t.values for t in clone_slice(gens, n)] == [t.values for t in tables]
    for k in (1, 2):
        try:
            tables = centralizer_slice(gens, k)
        except LimitExceeded:
            continue  # B3 semilattice at k=2
        index = {op: i for i, op in enumerate(tables)}
        assert len(index) == len(tables)
        _same_as_a_table_built_by_hand(tables, index.__getitem__)
        theory = EqTheory(k, structure.size, tables, [range(len(tables))])
        for i in (0, len(tables) // 2, len(tables) - 1):
            assert theory.ops.index(OpTable(k, structure.size, list(tables[i].values))) == i


def test_clone_slice_of_b4_semilattice_stays_small(monkeypatch):
    # a (15 x 65,536) uint8 matrix, where the value tuples took 8.5 MiB
    gens = generators(catalog.boolean_lattice(4), "semilattice")
    monkeypatch.setattr(operations, "_RECORDS", {})
    tracemalloc.start()
    try:
        tables = clone_slice(gens, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tables) == 15
    assert peak < 5 << 20


def test_free_distributive_lattice_on_four_generators():
    # Dedekind number 168 minus the two constants; B3 walks 16-bit rows, one
    # bit for each of the 16 cells {p, q}^4 of its 4,096
    b3 = generators(catalog.boolean_lattice(3), "lattice")
    assert operations._generator_record(b3)[0] is not None
    assert len(clone_slice(b3, 4)) == 166
    assert len(clone_slice(generators(catalog.chain(4), "lattice"), 4)) == 166
    # N5 and M3 have no separating family, so their walks run on the separating cells
    assert operations._generator_record(generators(N5, "lattice"))[0] is None
    assert operations._generator_record(generators(M3, "lattice"))[0] is None


def test_clone_refusal_on_n5_stays_small():
    # the refusal holds at most 1,000 narrow rows of 100 separating cells and their candidates
    tracemalloc.start()
    try:
        with pytest.raises(LimitExceeded, match="exceeds 1000 tables"):
            clone_slice(generators(N5, "lattice"), 4, limit=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_clone_refusal_on_n5_walks_only_the_separating_cells(monkeypatch):
    # 100 of the 625 cells: 1.67 MiB when every cell was walked
    monkeypatch.setattr(operations, "_RECORDS", {})
    tracemalloc.start()
    try:
        with pytest.raises(LimitExceeded, match="exceeds 1000 tables"):
            clone_slice(generators(N5, "lattice"), 4, limit=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * (1 << 20)


def test_projection_generator_on_seven_elements_matches_oracle():
    first = OpTable(2, 7, [x for x in range(7) for _ in range(7)], provenance=terms.Var("x1"))
    assert _family([first]) is None and separating_family([first]) is None
    for n in (1, 2, 3, 4):  # 2,401 cells at n=4, all but the 7 constant ones walked
        _same_clone_as_oracle([first], n)
        assert clone_slice([first], n) == [projection(n, i, 7) for i in range(1, n + 1)]


def test_centralizer_unary_on_two_elements():
    ops = centralizer_slice(generators(C2, "lattice"), 1)
    assert [f.values for f in ops] == [(0, 0), (0, 1), (1, 1)]


def test_centralizer_unary_of_chain_meet_is_monotone_maps():
    # oracle: filter all 27 unary maps by commutation with the meet
    ops = centralizer_slice([meet_op(C3)], 1)
    expected = {OpTable(1, 3, values) for values in product(range(3), repeat=3)
                if slow_commute(OpTable(1, 3, values), meet_op(C3))[0]}
    assert set(ops) == expected
    assert len(ops) == 10  # nondecreasing self-maps of a 3-chain
    for f in ops:
        assert all(f(C3.meet[x][y]) == C3.meet[f(x)][f(y)]
                   for x in range(3) for y in range(3))


def test_projections_are_in_every_centralizer():
    for lat in (C2, C3, B2, N5, M3):
        for k in (1, 2):
            members = set(centralizer_slice(generators(lat, "lattice"), k))
            for i in range(1, k + 1):
                assert projection(k, i, lat.size) in members


def test_centralizer_members_commute_with_clone_members():
    for lat in (C2, C3, B2, N5, M3):
        gens = generators(lat, "lattice")
        for k in (1, 2):
            cent = centralizer_slice(gens, k)
            for n in (1, 2):
                clone = clone_slice(gens, n)
                for f in cent:
                    for g in clone:
                        assert slow_commute(f, g)[0], (lat, f, g)


def test_centralizer_brute_force_cross_check():
    # raw enumeration over all maps, on carriers small enough to afford it
    gens = generators(B2, "lattice")
    expected = {OpTable(1, 4, values) for values in product(range(4), repeat=4)
                if all(slow_commute(OpTable(1, 4, values), g)[0] for g in gens)}
    assert set(centralizer_slice(gens, 1)) == expected

    meet = meet_op(C3)
    expected = {OpTable(2, 3, values) for values in product(range(3), repeat=9)
                if slow_commute(OpTable(2, 3, values), meet)[0]}
    assert set(centralizer_slice([meet], 2)) == expected


_ORACLE_SLICES = {}  # the oracle's answers, so that a check run on both searches pays once


def _same_as_oracle(gens, k, limit=100_000, monkeypatch=None):
    """Same tables and refusal as the oracle; given monkeypatch, also with the block
    cap at 1 (one row per block, one tuple per check chunk) and at 2**40 (no split)."""
    key = (tuple((g.arity, g.values) for g in gens), k, limit)
    if key not in _ORACLE_SLICES:
        try:
            _ORACLE_SLICES[key] = [f.values for f in slow_centralizer_slice(gens, k, limit)]
        except LimitExceeded:
            _ORACLE_SLICES[key] = None
    expected = _ORACLE_SLICES[key]
    for cap in [operations.BLOCK_CELLS] + ([1, 1 << 40] if monkeypatch else []):
        if monkeypatch:
            monkeypatch.setattr(operations, "BLOCK_CELLS", cap)
        if expected is None:
            with pytest.raises(LimitExceeded, match=f"exceeds {limit} tables"):
                centralizer_slice(gens, k, limit=limit)
        else:
            assert [f.values for f in centralizer_slice(gens, k, limit=limit)] == expected


@pytest.mark.parametrize("name,structure,mode", CATALOG_MODES,
                         ids=[f"{name}-{mode}" for name, _, mode in CATALOG_MODES])
def test_centralizer_matches_oracle_on_catalog(name, structure, mode, monkeypatch):
    # again without a separating family, so distributive fixtures also take the plan search
    for _ in _with_and_without_family(monkeypatch):
        for k in ((1,) if name == "B3" else (1, 2)):
            _same_as_oracle(generators(structure, mode), k, monkeypatch=monkeypatch)


def _same_as_oracle_on_two_valued_homomorphisms(gens, ks):
    """The separating family exists, and the slices at each arity match the
    oracle at every block cap, or refuse with it past 300 tables."""
    assert _family(gens) is not None
    with pytest.MonkeyPatch.context() as mp:
        for k in ks:
            _same_as_oracle(gens, k, limit=300, monkeypatch=mp)


def test_centralizer_matches_oracle_on_a_shuffled_boolean_semilattice(monkeypatch):
    # B3's meet reduct with its elements out of index order, whose family
    # keeps the three maps of its atoms
    reduct = catalog.meet_reduct(permuted(catalog.boolean_lattice(3), random.Random(1)))
    _same_as_oracle(generators(reduct, "semilattice"), 1, monkeypatch=monkeypatch)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(down_set_lattices())
def test_centralizer_matches_oracle_on_distributive_lattices(lat):
    ks = (1, 2) if lat.size <= 4 else (1,)
    for mode in ("lattice", "semilattice"):
        _same_as_oracle_on_two_valued_homomorphisms(generators(lat, mode), ks)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(intersection_closed_families())
def test_centralizer_matches_oracle_on_meet_semilattices(semilattice):
    ks = (1, 2) if semilattice.size <= 4 else (1,)
    _same_as_oracle_on_two_valued_homomorphisms(generators(semilattice, "semilattice"), ks)


# Closed forms that share no code with either search. B_n^k is B_nk, whose
# lattice homomorphisms into 2 are the two constants and the nk prime
# filters, and whose meet homomorphisms into 2 are the 2^nk principal
# filters and the constant bottom; a map into B_n = 2^n is n such maps.
@pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)])
def test_centralizer_of_boolean_lattice_in_lattice_mode_has_closed_form_size(n, k):
    gens = generators(catalog.boolean_lattice(n), "lattice")
    assert len(centralizer_slice(gens, k)) == (2 + k * n) ** n  # B4 at k=2: 10,000


@pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (4, 1)])
def test_centralizer_of_boolean_lattice_in_semilattice_mode_has_closed_form_size(n, k):
    gens = generators(catalog.boolean_lattice(n), "semilattice")
    assert len(centralizer_slice(gens, k)) == (2 ** (n * k) + 1) ** n  # B4 at k=1: 83,521


@pytest.mark.parametrize("cap", [1, 1 << 40])
def test_centralizer_limit_boundary_on_two_valued_homomorphisms(cap, monkeypatch):
    # a limit below the number of homomorphisms into {p, q} is refused before
    # they are paired; the others by twovalued._combine, which counts the
    # combinations before any table is built (the block cap leaves it alone)
    monkeypatch.setattr(operations, "BLOCK_CELLS", cap)
    for structure, mode, k in [(C3, "lattice", 2), (B2, "lattice", 2), (M3, "semilattice", 1),
                               (catalog.chain(4), "semilattice", 1), (catalog.fence(), "semilattice", 1)]:
        gens = generators(structure, mode)
        assert _family(gens) is not None
        expected = [f.values for f in slow_centralizer_slice(gens, k, 100_000)]
        assert [f.values for f in centralizer_slice(gens, k, limit=len(expected))] == expected
        for limit in range(len(expected)):
            with pytest.raises(LimitExceeded, match=f"centralizer slice exceeds {limit} tables"):
                centralizer_slice(gens, k, limit=limit)


def test_family_slices_need_no_layer_plan(monkeypatch):
    # with a separating family the homomorphisms into {p, q} come from the
    # principal filters; the plan search gives the expected tables
    cases = [(catalog.chain(6), "lattice", 3, 10), (catalog.boolean_lattice(3), "lattice", 2, 100_000),
             (M3, "semilattice", 2, 100_000)]
    expected, shared = [], _shared_verdicts()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(twovalued, "find_family", lambda size, tables: None)
        mp.setattr(operations, "_RECORDS", {})
        for structure, mode, k, limit in cases:
            try:
                expected.append([f.values for f in centralizer_slice(generators(structure, mode), k, limit)])
            except LimitExceeded:
                expected.append(None)
    assert _shared_verdicts() == shared
    assert expected[0] is None and len(expected[1]) == 512 and len(expected[2]) == 2576

    def unused(*args):
        raise AssertionError("the layer plan runs only without a family")

    monkeypatch.setattr(operations, "_layer_plan", unused)
    monkeypatch.setattr(operations, "_plan_search", unused)
    for (structure, mode, k, limit), tables in zip(cases, expected):
        gens = generators(structure, mode)
        assert operations._generator_record(gens)[0] is not None
        if tables is None:
            with pytest.raises(LimitExceeded, match=f"exceeds {limit} tables"):
                centralizer_slice(gens, k, limit=limit)
        else:
            assert [f.values for f in centralizer_slice(gens, k, limit=limit)] == tables


@pytest.mark.parametrize("mode", ["lattice", "semilattice"])
def test_small_limit_on_chain_16_ternary_is_refused_small(mode):
    # 4,096 cells: the principal filters alone pass the limit
    gens = generators(catalog.chain(16), mode)
    tracemalloc.start()
    try:
        with pytest.raises(LimitExceeded, match="exceeds 10 tables"):
            centralizer_slice(gens, 3, limit=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_many_two_valued_pairs_are_refused_small():
    # one partial tuple pairs with each of 4,097 homomorphisms on 4,096
    # cells; the pairs are counted before any table is built
    gens = generators(catalog.chain(16), "semilattice")
    tracemalloc.start()
    try:
        with pytest.raises(LimitExceeded, match="exceeds 5000 tables"):
            centralizer_slice(gens, 3, limit=5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


def test_two_valued_pairs_at_the_default_limit_are_refused_small():
    # the 100,000 tables past which the slice is refused are counted as
    # combinations of homomorphisms, and none of them is decoded
    gens = generators(catalog.chain(16), "semilattice")
    tracemalloc.start()
    try:
        with pytest.raises(LimitExceeded, match="exceeds 100000 tables"):
            centralizer_slice(gens, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


def _engine_matches_numpy(gens, ns, ks, limit=100_000):
    """The family's engine (TwoValuedFamily.clone_rows and centralizer_rows)
    gives the tables, order, terms and refusals that the numpy engines give
    without a family: the walk on the separating cells and the plan search."""
    assert _family(gens) is not None

    def slices():
        out = []
        for n in ns:
            try:
                out.append(_rendered(clone_slice(gens, n, limit)))
            except LimitExceeded as refusal:
                out.append(str(refusal))
        for k in ks:
            try:
                out.append([f.values for f in centralizer_slice(gens, k, limit)])
            except LimitExceeded as refusal:
                out.append(str(refusal))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operations, "_RECORDS", {})
        mp.setattr(twovalued, "_WALKS", {})
        engine, shared = slices(), _shared_verdicts()
        mp.setattr(twovalued, "find_family", lambda size, tables: None)
        mp.setattr(operations, "_RECORDS", {})
        assert slices() == engine
    assert _shared_verdicts() == shared


@pytest.mark.parametrize("name,structure,mode", CATALOG_MODES,
                         ids=[f"{name}-{mode}" for name, _, mode in CATALOG_MODES])
def test_family_engine_matches_the_numpy_engines_on_the_catalog(name, structure, mode):
    gens = generators(structure, mode)
    if _family(gens) is None:
        return  # N5 and M3 in lattice mode have no family
    ns = (1, 2, 3, 4) if name in ("B3", "C4") and mode == "lattice" else (1, 2, 3)
    _engine_matches_numpy(gens, ns, (1, 2), limit=20_000)


def test_family_engine_matches_the_numpy_engines_in_two_byte_lanes():
    # chain(10) has 9 join-primes and 9 kept filters: codes of 9 bits
    for mode in ("lattice", "semilattice"):
        gens = generators(catalog.chain(10), mode)
        assert _family(gens).width == 9 and _family(gens).lane == 2
        _engine_matches_numpy(gens, (1, 2, 3), (1,))  # 92,378 monotone maps in semilattice mode
        _engine_matches_numpy(gens, (), (2,), limit=3000)


@settings(derandomize=True, deadline=None, max_examples=15)
@given(down_set_lattices())
def test_family_engine_matches_the_numpy_engines_on_distributive_lattices(lat):
    for mode in ("lattice", "semilattice"):
        _engine_matches_numpy(generators(lat, mode), (1, 2, 3), (1, 2), limit=300)


@settings(derandomize=True, deadline=None, max_examples=15)
@given(intersection_closed_families())
def test_family_engine_matches_the_numpy_engines_on_meet_semilattices(semilattice):
    _engine_matches_numpy(generators(semilattice, "semilattice"), (1, 2, 3), (1, 2), limit=300)


def test_centralizer_matches_oracle_on_arbitrary_generators_over_two_elements():
    # a meet (p = 0) or a join (p = 1) first gives the family {identity}, so
    # the generators after it, monotone or not, filter the principal filters
    rng = random.Random(67)
    for _ in range(40):
        first = rng.choice([meet_op(C2), join_op(C2)])
        rest = [random_op(rng, m, 2) for m in rng.choice([[1], [2], [3], [1, 3], [2, 2], [3, 2]])]
        gens = [first] + rest
        assert _family(gens) is not None
        for k in (1, 2, 3):
            _same_as_oracle(gens, k, limit=300)


def test_centralizer_matches_oracle_on_b2_ternary():
    _same_as_oracle(generators(B2, "lattice"), 3)


def test_centralizer_matches_oracle_for_unary_and_ternary_generators():
    xs = ["x1", "x2", "x3"]
    x1, x2, x3 = (terms.Var(x) for x in xs)
    median = term_to_op(terms.Join(terms.Join(terms.Meet(x1, x2), terms.Meet(x1, x3)),
                                   terms.Meet(x2, x3)), xs, C3)
    # x1 /\ (x2 \/ x3) is not symmetric, so every position of the new cell is walked
    lopsided = term_to_op(terms.Meet(x1, terms.Join(x2, x3)), xs, C3)
    complement = OpTable(1, 4, (3, 2, 1, 0))
    for gens, k in [([median], 1), ([median], 2), ([lopsided], 2),
                    ([complement], 1), ([complement], 2), ([complement, meet_op(B2)], 2)]:
        _same_as_oracle(gens, k)


def test_centralizer_matches_oracle_for_non_idempotent_generators():
    # addition and subtraction mod 3 are not idempotent, so the tuples that
    # repeat the new cell carry constraints of their own
    add = OpTable(2, 3, [(x + y) % 3 for x in range(3) for y in range(3)])
    sub = OpTable(2, 3, [(x - y) % 3 for x in range(3) for y in range(3)])
    for gens in ([add], [sub]):
        for k in (1, 2):
            _same_as_oracle(gens, k)
    assert len(centralizer_slice([add], 2)) == 9  # the maps x -> a*x1 + b*x2


def test_centralizer_matches_oracle_on_random_generators():
    rng = random.Random(41)
    for _ in range(40):
        size = rng.choice([2, 3])
        arities = rng.choice([[1], [2], [3], [1, 2], [2, 2], [3, 2]])
        gens = [random_op(rng, m, size) for m in arities]
        k = 1 if size == 3 and 3 in arities else rng.choice([1, 2])
        _same_as_oracle(gens, k, limit=2000)


def test_centralizer_matches_oracle_on_unusual_generators_at_every_block_cap(monkeypatch):
    for gens in _unusual_generator_sets():
        for k in (1, 2):
            _same_as_oracle(gens, k, monkeypatch=monkeypatch)


def test_centralizer_matches_oracle_on_random_generators_at_every_block_cap(monkeypatch):
    for gens, k in _random_generator_sets(47):
        _same_as_oracle(gens, min(k, 2), limit=60, monkeypatch=monkeypatch)


def _plan_steps(gens, k):
    """The layer plan's layers as (first position, stop, branch cell) and its steps
    as (generator, argument cells, target cell, defines?), in cell numbers."""
    size = gens[0].size
    position, layers = operations._layer_plan(gens, size, k)
    cells = [0] * size ** k
    for cell, pos in enumerate(position.tolist()):
        cells[pos] = cell
    by_values = {g.values: g for g in gens}
    spans, steps, start = [], [], 0
    for stop, tuples, rounds in layers:
        spans.append((start, stop, cells[start]))
        met = 0
        for defines, checks in rounds:
            for defining, group in ((True, defines), (False, checks)):
                for values, args, targets in group:
                    met += len(targets)
                    for t, target in zip(args.T.tolist(), targets.tolist()):
                        steps.append((by_values[tuple(values.tolist())],
                                      tuple(cells[p] for p in t), cells[target], defining))
        assert met == tuples
        start = stop
    return position, spans, steps


def _digitwise(g, cells, size, k):
    digits = [decode_index(c, size, k) for c in cells]
    out = 0
    for i in range(k):
        out = out * size + g(*(d[i] for d in digits))
    return out


@pytest.mark.parametrize("name,structure,mode", CATALOG_MODES,
                         ids=[f"{name}-{mode}" for name, _, mode in CATALOG_MODES])
def test_layer_plan_defines_every_cell_exactly_once(name, structure, mode):
    gens = generators(structure, mode)
    for k in (1, 2):
        ncells = structure.size ** k
        position, spans, steps = _plan_steps(gens, k)
        assert sorted(position.tolist()) == list(range(ncells))
        assert [start for start, _, _ in spans] == [0] + [stop for _, stop, _ in spans[:-1]]
        assert spans[-1][1] == ncells
        for start, stop, branch in spans:
            assert start < stop
            # the branch cell is the lowest cell the earlier layers leave undefined
            assert all(position[c] < start for c in range(branch))
        defined = [target for _, _, target, defining in steps if defining]
        assert sorted(defined + [branch for _, _, branch in spans]) == list(range(ncells))


def test_layer_plan_meets_every_tuple_once_with_its_target():
    for gens in _unusual_generator_sets():
        size = gens[0].size
        for k in (1, 2):
            _, _, steps = _plan_steps(gens, k)
            assert all(target == _digitwise(g, t, size, k) for g, t, target, _ in steps)
            for g in gens:
                met = [t for h, t, _, _ in steps if h is g]
                if symmetry.is_symmetric(g):  # each multiset of cells once
                    assert sorted(tuple(sorted(t)) for t in met) == \
                        list(combinations_with_replacement(range(size ** k), g.arity))
                else:
                    assert sorted(met) == list(product(range(size ** k), repeat=g.arity))


def test_centralizer_limit_boundary():
    # one expansion yields all tables of these slices, so every limit below
    # the count falls inside that leaf block
    for structure, mode, k in [(C3, "lattice", 2), (N5, "lattice", 2), (M3, "semilattice", 1)]:
        gens = generators(structure, mode)
        count = len(centralizer_slice(gens, k))
        assert len(centralizer_slice(gens, k, limit=count)) == count
        for limit in range(count):
            with pytest.raises(LimitExceeded, match=f"centralizer slice exceeds {limit} tables"):
                centralizer_slice(gens, k, limit=limit)


def test_centralizer_refuses_c6_ternary_at_limit_ten():
    with pytest.raises(LimitExceeded, match="exceeds 10 tables"):
        centralizer_slice(generators(catalog.chain(6), "lattice"), 3, limit=10)


def test_closure_under_projections_adds_nothing():
    T = Relation(2, 2, [(0, 1)])
    assert closure_under(T, [projection(2, 1, 2), projection(2, 2, 2)]) == T


def test_closure_of_singleton_under_idempotent_ops():
    T = Relation(2, 2, [(0, 1)])
    assert closure_under(T, generators(C2, "lattice")) == T


def test_closure_of_antidiagonal_is_full_square():
    T = Relation(2, 2, [(0, 1), (1, 0)])
    assert closure_under(T, generators(C2, "lattice")) == Relation.full(2, 2)


def test_closure_limit():
    T = Relation(2, 2, [(0, 1), (1, 0)])
    with pytest.raises(LimitExceeded):
        closure_under(T, generators(C2, "lattice"), limit=3)


def test_relation_from_mask_decodes_lexicographic_hits():
    # a mask is an int, bit c for cell c; over A^0 the one cell is bit 0
    assert relation_from_mask(1, 0, 3).tuples == ((),)
    assert relation_from_mask(mask_int(np.ones((), dtype=bool)), 0, 3).tuples == ((),)
    assert relation_from_mask(0, 0, 3).tuples == ()
    assert relation_from_mask(0b110, 1, 3).tuples == ((1,), (2,))
    rng = random.Random(5)
    mask = np.array([rng.random() < 0.3 for _ in range(4 ** 3)])
    expected = [t for i, t in enumerate(product(range(4), repeat=3)) if mask[i]]
    assert relation_from_mask(mask_int(mask), 3, 4).tuples == tuple(expected)
    assert relation_from_mask(mask_int(mask.reshape(4, 4, 4)), 3, 4).tuples == tuple(expected)
    # cells past the highest set bit are not selected, and past 64 cells the int is wide
    assert relation_from_mask(1 << 63 | 1, 3, 4).tuples == ((0, 0, 0), (3, 3, 3))
    assert relation_from_mask(1 << 124, 3, 5).tuples == ((4, 4, 4),)


def test_decode_index_inverts_the_cell_indices_of_a_relation():
    rng = random.Random(13)
    for size in range(1, 5):
        for arity in range(4):
            grid = list(product(range(size), repeat=arity))
            assert Relation.full(arity, size).cells() == tuple(range(len(grid)))
            relation = Relation(arity, size, rng.sample(grid, rng.randint(0, len(grid))))
            assert relation.cells() == tuple(grid.index(t) for t in relation.tuples)
            decoded = [relations_decode_index(c, size, arity) for c in relation.cells()]
            assert decoded == list(relation.tuples)
            assert relation.cells() is relation.cells()  # computed once
    assert decode_index is relations_decode_index


def test_relation_from_mask_equals_the_checked_constructor():
    rng = np.random.default_rng(11)
    for arity, size in ((0, 3), (1, 4), (2, 3), (3, 4), (4, 5)):
        shape = (size,) * arity
        for mask in (np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool),
                     rng.random(shape) < 0.3, rng.random(shape) < 0.8):
            rows = np.argwhere(mask)
            expected = Relation(arity, size, rows if arity else [()] * len(rows))
            got = relation_from_mask(mask_int(mask), arity, size)
            assert got == expected and hash(got) == hash(expected)
            assert all(t in got for t in expected) and got.issubset(expected)
            assert all(type(v) is int for t in got for v in t)


def test_relation_answers_before_its_set_is_built():
    def fresh():
        return (relation_from_mask(0b1101, 2, 2),
                Relation(2, 2, [(1, 1), (0, 0), (1, 0)]))

    a, b = fresh()
    assert a._set is None and b._set is None
    assert a == b and hash(a) == hash(b) and a.tuples == b.tuples
    assert a._set is None and b._set is None
    a, b = fresh()
    assert (1, 0) in a and [1, 1] in b and (0, 1) not in a and (0, 1) not in b
    a, b = fresh()
    assert a.issubset(b) and b.issubset(a)
    one = Relation(2, 2, [(0, 0)])
    a, b = fresh()
    assert one.issubset(a) and not b.issubset(one)
    assert a != Relation(2, 3, a.tuples) and a != Relation(2, 2, [(0, 0), (1, 1)])


def test_optable_from_an_array_keeps_a_copy_of_it():
    values = np.array([0, 1, 1, 1], dtype=np.uint8)
    f = OpTable(2, 2, values)
    arr = f.array()
    assert arr.dtype == np.int64 and arr.tolist() == [0, 1, 1, 1] and f.array() is arr
    assert not arr.flags.writeable
    values[0] = 1  # the caller's array stays theirs
    assert f.array().tolist() == [0, 1, 1, 1] and f.values == (0, 1, 1, 1)
    assert f == OpTable(2, 2, [0, 1, 1, 1]) and hash(f) == hash(OpTable(2, 2, [0, 1, 1, 1]))
    assert OpTable(2, 2, [0, 1, 1, 1]).array().tolist() == [0, 1, 1, 1]


def test_optable_call_and_encoding():
    f = meet_op(C3)
    assert f(2, 1) == 1
    assert f.index((2, 1)) == 7  # last argument fastest
    with pytest.raises(ArityMismatch):
        f(1)


@pytest.mark.parametrize("args", [(0, 5), (0, -1), (3, 0), (-3, 2), (np.int64(3), 0)])
def test_optable_refuses_arguments_outside_the_carrier(args):
    f = meet_op(C3)
    with pytest.raises(BadIndex, match="outside 0..2"):
        f(*args)
    with pytest.raises(BadIndex, match="outside 0..2"):
        f.index(args)


@pytest.mark.parametrize("bad", [True, 1.0, "1", None, np.float64(2.0), np.bool_(True)])
def test_optable_refuses_non_integer_arguments(bad):
    f = meet_op(C3)
    for args in ((bad, 2), (2, bad)):
        message = re.escape(f"argument {bad!r} is not an integer")
        with pytest.raises(BadSpec, match=message):
            f(*args)
        with pytest.raises(BadSpec, match=message):
            f.index(args)


def test_optable_takes_numpy_integer_arguments():
    f = meet_op(C3)
    assert f(np.int64(2), np.uint8(1)) == f(2, 1) == 1
    assert f.index((np.int32(2), 1)) == 7


@pytest.mark.parametrize("bad", [True, 2.0, "2"])
def test_arities_and_carrier_sizes_must_be_integers(bad):
    gens = generators(C3, "lattice")
    for make in (lambda: OpTable(bad, 2, [0, 0, 0, 1]), lambda: OpTable(1, bad, [0, 1]),
                 lambda: Relation(bad, 2, [(0,)]), lambda: Relation(1, bad, [(0,)]),
                 lambda: clone_slice(gens, bad), lambda: centralizer_slice(gens, bad),
                 lambda: projection(bad, 1, 3), lambda: projection(2, bad, 3),
                 lambda: projection(2, 1, bad)):
        with pytest.raises(BadSpec, match=f"{bad!r} is not an integer"):
            make()


@pytest.mark.parametrize("bad", [True, 1.7, 1.0, "1"])
def test_optable_rejects_non_integer_values(bad):
    with pytest.raises(BadSpec):
        OpTable(1, 2, (0, bad))


@pytest.mark.parametrize("bad", [(False, 0), (0.5, 0), (1.0, 0), ("1", 0), "01"])
def test_relation_rejects_non_integer_entries(bad):
    with pytest.raises(BadSpec):
        Relation(2, 2, [(0, 1), bad])


@pytest.mark.parametrize("bad", [np.array([0, 1], dtype=bool), np.array([0.0, 1.0]),
                                 np.array([0, 2]), np.array([-1, 0]), np.array([[0, 1]])])
def test_optable_refuses_bad_arrays(bad):
    with pytest.raises(BadSpec):
        OpTable(1, 2, bad)


@pytest.mark.parametrize("bad", [np.array([[0, 1], [1, 0]], dtype=bool),
                                 np.array([[0.0, 1.0]]), np.array([[0, 1], [2, 0]]),
                                 np.array([[0, -1]]), np.array([[0, 1, 1]]), np.array([0, 1])])
def test_relation_refuses_bad_arrays(bad):
    with pytest.raises(BadSpec):
        Relation(2, 2, bad)


def test_bad_arrays_are_refused_with_the_list_wording():
    with pytest.raises(BadSpec, match="value table entry False is not an integer"):
        OpTable(1, 2, np.array([False, True]))
    with pytest.raises(BadSpec, match=r"tuple \(0, 2\) has an entry out of range"):
        Relation(2, 2, np.array([[0, 1], [0, 2]]))


def test_numpy_integers_are_accepted_as_indices():
    assert OpTable(1, 2, np.array([1, 0])).values == (1, 0)
    assert Relation(2, 2, np.array([[0, 1]])).tuples == ((0, 1),)
    assert all(type(v) is int for v in OpTable(1, 2, np.array([1, 0])).values)
    assert Relation(2, 3, np.array([[2, 1], [0, 1], [2, 1]], dtype=np.uint8)).tuples == \
        ((0, 1), (2, 1))
    assert all(type(v) is int for t in Relation(1, 2, np.array([[1]])).tuples for v in t)
    f = OpTable(np.int64(1), np.uint8(2), [1, 0])
    assert (type(f.arity), type(f.size)) == (int, int)
    assert len(centralizer_slice([meet_op(C2)], np.int64(1))) == 3


X, Y = terms.Var("x"), terms.Var("y")
REFUSALS = [
    (lambda: OpTable(0, 2, [0]), BadSpec, "operations must have arity at least 1"),
    (lambda: OpTable(1, 0, []), BadSpec, "carrier must be nonempty"),
    (lambda: OpTable(1, 300, range(300)), BadSpec, "carrier of size 300 exceeds the cap 256"),
    (lambda: projection(1, 1, 300), BadSpec, "carrier of size 300 exceeds the cap 256"),
    (lambda: OpTable(2, 2, [0, 1, 1]), BadSpec, "value table must have 4 entries"),
    (lambda: Relation(-1, 2, []), BadSpec, "relations must have nonnegative arity"),
    (lambda: Relation(2, 2, [(0, 1), (1,)]), BadSpec, r"tuple \(1,\) does not have arity 2"),
    (lambda: Relation(2, 2, [(0, 2)]), BadSpec, r"tuple \(0, 2\) has an entry out of range"),
    (lambda: term_to_op(terms.Meet(X, Y), ["x"], B2), BadSpec,
     r"term uses variables outside the declared order: \['y'\]"),
    (lambda: generators(B2, "boolean"), BadSpec, "unknown mode 'boolean'"),
    (lambda: preserves(meet_op(C3), Relation(1, 2, [(0,)])), ArityMismatch,
     "preservation across different carriers"),
    (lambda: closure_under(Relation(1, 2, [(0,)]), [meet_op(C3)]), ArityMismatch,
     "closure across different carriers"),
    (lambda: clone_slice([], 2), BadSpec, "at least one generator is required"),
    (lambda: clone_slice([meet_op(C2), meet_op(C3)], 2), BadSpec, "generators must share a carrier"),
    (lambda: centralizer_slice(generators(C2, "lattice"), 0), BadSpec,
     "slice arity must be at least 1"),
]


@pytest.mark.parametrize("build, error, match", REFUSALS, ids=[
    "optable-arity", "optable-size", "optable-cap", "projection-cap", "optable-length",
    "relation-arity", "tuple-arity", "tuple-range", "undeclared-variable", "bad-mode",
    "preserves-carrier", "closure-carrier", "no-generators", "generator-carriers", "slice-arity"])
def test_refusals(build, error, match):
    with pytest.raises(error, match=match):
        build()
