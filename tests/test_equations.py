"""Solution sets, equation theories and the Sol-Eq Galois closure."""

import gc
import random
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latclone import catalog, equations, operations, terms
from latclone.equations import (
    EqTheory,
    EquationSystem,
    equations_of,
    galois_closure,
    is_solution_set,
    solve,
)
from latclone.errors import ArityMismatch, BadSpec, LimitExceeded
from latclone.formulas import parse_formula, eval_formula
from latclone.operations import (
    OpTable,
    Relation,
    centralizer_slice,
    clone_slice,
    generators,
    meet_op,
    preserves,
    projection,
)

from helpers import (
    down_set_lattices,
    intersection_closed_families,
    slow_clone_slice,
    slow_equations_of,
    slow_galois_closure,
)

C2 = catalog.chain(2)
C3 = catalog.chain(3)
B2 = catalog.boolean_lattice(2)
N5 = catalog.pentagon()
M3 = catalog.diamond()
CATALOG_MODES = [(name, structure, mode)
                 for name, structure in [("C2", C2), ("C3", C3), ("C4", catalog.chain(4)),
                                         ("B2", B2), ("B3", catalog.boolean_lattice(3)),
                                         ("N5", N5), ("M3", M3), ("fence", catalog.fence())]
                 for mode in ("lattice", "semilattice")
                 if mode == "semilattice" or structure.kind == "lattice"]


def random_system(rng, lattice, mode, arity, count):
    ops = clone_slice(generators(lattice, mode), arity)
    pairs = [(rng.choice(ops), rng.choice(ops)) for _ in range(count)]
    return EquationSystem(arity, lattice.size, pairs)


def test_empty_system_solves_to_full_relation():
    system = EquationSystem(2, 3, [])
    assert solve(system, C3) == Relation.full(2, 3)


def test_meet_equals_join_forces_equality():
    system = EquationSystem.from_terms(
        [(terms.Meet(terms.Var("x"), terms.Var("y")),
          terms.Join(terms.Var("x"), terms.Var("y")))], ("x", "y"), C2)
    assert solve(system, C2).tuples == ((0, 0), (1, 1))


def test_from_terms_refuses_a_variable_listed_twice():
    x, y = terms.Var("x"), terms.Var("y")
    for pairs in ([(terms.Meet(x, y), x)], []):
        with pytest.raises(BadSpec, match="listed twice"):
            EquationSystem.from_terms(pairs, ("x", "x", "y"), C3)


def test_absorption_equation_solves_to_the_order():
    system = EquationSystem.from_terms(
        [(terms.Meet(terms.Var("x"), terms.Var("y")), terms.Var("x"))], ("x", "y"), N5)
    expected = [(a, b) for a in range(5) for b in range(5) if N5.leq(a, b)]
    solved = solve(system, N5)
    assert solved.tuples == tuple(sorted(expected))
    assert len(solved) == 13  # 5 reflexive pairs plus 8 strict ones


def test_solve_matches_brute_force_on_random_systems():
    rng = random.Random(99)
    for lattice in (C3, B2, N5):
        system = random_system(rng, lattice, "lattice", 2, 3)
        expected = []
        for a in product(range(lattice.size), repeat=2):
            if all(f(*a) == g(*a) for f, g in system):
                expected.append(a)
        assert solve(system, lattice).tuples == tuple(expected)


def test_full_relation_separates_distinct_tables():
    theory = equations_of(Relation.full(2, C2.size), generators(C2, "lattice"))
    assert len(theory.ops) == 4
    assert all(len(block) == 1 for block in theory.blocks)


def test_theory_satisfies_reflects_blocks():
    # over the diagonal every operation agrees with every other
    diag = Relation(2, 2, [(0, 0), (1, 1)])
    theory = equations_of(diag, generators(C2, "lattice"))
    assert len(theory.blocks) == 1
    ops = theory.ops
    assert all(theory.satisfies(f, g) for f in ops for g in ops)
    separated = equations_of(Relation.full(2, 2), generators(C2, "lattice"))
    assert all(separated.satisfies(f, g) == (f == g)
               for f in separated.ops for g in separated.ops)


def test_theory_satisfies_refuses_tables_outside_the_slice():
    theory = equations_of(Relation(2, 3, [(0, 1), (1, 2)]), generators(C3, "lattice"))
    inside = theory.ops[0]
    outside = OpTable(2, 3, [2] * 9)  # a constant: same shape, not a lattice term
    for f, g in [(outside, inside), (inside, outside)]:
        with pytest.raises(BadSpec, match="not in the theory's slice"):
            theory.satisfies(f, g)
    for other in (OpTable(1, 3, [0, 1, 2]), OpTable(2, 2, [0, 0, 0, 1])):
        with pytest.raises(ArityMismatch):
            theory.satisfies(inside, other)
        with pytest.raises(ArityMismatch):
            theory.satisfies(other, inside)


def test_pair_witness_theory_on_pentagon_is_trivial():
    phi = parse_formula("exists u . (u /\\ x = u /\\ y & u \\/ x = u \\/ y)",
                        variables=("x", "y"))
    T = eval_formula(phi, N5)
    theory = equations_of(T, generators(N5, "lattice"))
    assert len(theory.ops) == 4
    assert all(len(block) == 1 for block in theory.blocks)
    assert theory.closure() == Relation.full(2, 5)
    # the figure's pairs falsify every candidate equation between the four
    # binary term operations: they are members of T that separate all blocks
    assert (1, 2) in T and (2, 1) in T and (0, 4) not in T


def test_topless_witness_theory_is_trivial():
    fence = catalog.fence()
    phi = parse_formula("exists u . (x /\\ u = x & y /\\ u = y)", variables=("x", "y"),
                        mode="semilattice")
    T = eval_formula(phi, fence)
    theory = equations_of(T, [meet_op(fence)])
    assert len(theory.ops) == 3  # x, y, x /\ y
    assert all(len(block) == 1 for block in theory.blocks)
    # a maximal element against the bottom falsifies all three candidates
    a = 3
    assert (a, 0) in T and (0, a) in T
    e1, e2 = projection(2, 1, 4), projection(2, 2, 4)
    m = meet_op(fence)
    assert e1(a, 0) != e2(a, 0)
    assert e1(a, 0) != m(a, 0)
    assert e2(0, a) != m(0, a)


def test_galois_closure_of_solution_set_is_itself():
    rng = random.Random(4)
    for _ in range(5):
        system = random_system(rng, C3, "lattice", 2, 2)
        T = solve(system, C3)
        assert galois_closure(T, generators(C3, "lattice")) == T
        verdict, certificate = is_solution_set(T, generators(C3, "lattice"))
        assert verdict is True
        assert solve(certificate, C3) == T


def test_median_excess_witness_on_chain():
    # the ternary witness over the three-element chain misses (0, m, 1) and
    # closes to the whole cube
    from latclone.sdc import witness_boolean_gap
    T = witness_boolean_gap(C3)
    assert (0, 1, 2) not in T
    assert (0, 0, 2) in T
    closure = galois_closure(T, generators(C3, "lattice"))
    assert closure == Relation.full(3, 3)
    verdict, gap = is_solution_set(T, generators(C3, "lattice"))
    assert verdict is False
    assert gap in closure and gap not in T


def test_meet_witness_certificate_satisfies_surviving_equation():
    from latclone.sdc import witness_semilattice
    reduct = catalog.meet_reduct(N5)
    T = witness_semilattice(reduct)
    verdict, gap = is_solution_set(T, [meet_op(reduct)])
    assert verdict is False
    x, y, z = gap
    meet = reduct.meet
    assert meet[y][z] == meet[meet[x][y]][z]
    assert gap not in T


def test_blockwise_solutions_contain_the_relation():
    rng = random.Random(17)
    T = Relation(2, 5, [tuple(rng.randrange(5) for _ in range(2)) for _ in range(6)])
    theory = equations_of(T, generators(N5, "lattice"))
    for block in theory.blocks:
        if len(block) < 2:
            continue
        rep = theory.ops[block[0]]
        pairs = [(rep, theory.ops[i]) for i in block[1:]]
        block_solution = solve(EquationSystem(2, 5, pairs), N5)
        assert T.issubset(block_solution)


def test_padding_bridge_solution_set_is_the_graph():
    rng = random.Random(31)
    for _ in range(5):
        f = OpTable(2, 3, [rng.randrange(3) for _ in range(9)])
        # f with a fictitious third variable; its solution set is the rows (x, y, f(x, y))
        padded = OpTable(3, 3, [f(x, y) for x, y, _ in product(range(3), repeat=3)])
        system = EquationSystem(3, 3, [(padded, projection(3, 3, 3))])
        graph = Relation(3, 3, [(x, y, f(x, y)) for x, y in product(range(3), repeat=2)])
        assert solve(system, C3) == graph


def test_closure_laws_extensive_monotone_idempotent():
    rng = random.Random(55)
    pool = [(C3, "lattice"), (B2, "lattice"), (N5, "lattice"),
            (M3, "semilattice"), (C3, "semilattice")]
    for _ in range(10):
        lattice, mode = rng.choice(pool)
        n = rng.randint(1, 3)
        gens = generators(lattice, mode)
        small = Relation(n, lattice.size,
                         [tuple(rng.randrange(lattice.size) for _ in range(n))
                          for _ in range(rng.randint(0, 4))])
        extra = Relation(n, lattice.size,
                         list(small) + [tuple(rng.randrange(lattice.size) for _ in range(n))])
        close_small = galois_closure(small, gens)
        close_extra = galois_closure(extra, gens)
        assert small.issubset(close_small)
        assert close_small.issubset(close_extra)
        assert galois_closure(close_small, gens) == close_small


@pytest.fixture(scope="module")
def one_memo():
    """One _RECORDS for every example of a test, so that generated structures
    with one two-element factor share its walks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operations, "_RECORDS", {})
        yield


def _check_closure_laws(structure, mode, data):
    """Cl(T) holds T, Cl(T) is inside Cl(T') for T inside T', and Cl(Cl(T)) = Cl(T)."""
    n = data.draw(st.integers(1, 3))
    cell = st.tuples(*[st.integers(0, structure.size - 1)] * n)
    small = Relation(n, structure.size, data.draw(st.lists(cell, max_size=4)))
    extra = Relation(n, structure.size, list(small) + [data.draw(cell)])
    gens = generators(structure, mode)
    close_small, close_extra = galois_closure(small, gens), galois_closure(extra, gens)
    assert small.issubset(close_small) and extra.issubset(close_extra)
    assert close_small.issubset(close_extra)
    assert galois_closure(close_small, gens) == close_small


@settings(derandomize=True, deadline=None, max_examples=100)
@given(down_set_lattices(), st.sampled_from(["lattice", "semilattice"]), st.data())
def test_closure_laws_on_down_set_lattices(one_memo, lattice, mode, data):
    _check_closure_laws(lattice, mode, data)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(intersection_closed_families(), st.data())
def test_closure_laws_on_closure_systems(one_memo, semilattice, data):
    _check_closure_laws(semilattice, "semilattice", data)


def test_solution_sets_are_closed_under_the_centralizer():
    rng = random.Random(77)
    for lattice in (C3, B2):
        gens = generators(lattice, "lattice")
        slices = {k: centralizer_slice(gens, k) for k in (1, 2)}
        for _ in range(5):
            system = random_system(rng, lattice, "lattice", 2, 2)
            T = solve(system, lattice)
            for k in (1, 2):
                for f in slices[k]:
                    assert preserves(f, T)[0]


def test_limit_degrades_to_unknown():
    T = Relation(3, 5, [(0, 1, 2)])
    with pytest.raises(LimitExceeded):
        equations_of(T, generators(N5, "lattice"), limit=20)
    assert is_solution_set(T, generators(N5, "lattice"), limit=20) == (None, None)


@pytest.mark.parametrize("name,structure,mode", CATALOG_MODES,
                         ids=[f"{name}-{mode}" for name, _, mode in CATALOG_MODES])
def test_theory_closure_and_verdict_match_the_oracle(name, structure, mode):
    rng = random.Random(f"{name}-{mode}")
    gens, size = generators(structure, mode), structure.size
    for n in (1, 2, 3):
        ops = slow_clone_slice(gens, n, limit=10_000)
        cells = list(product(range(size), repeat=n))
        relations = [Relation(n, size, []), Relation.full(n, size)]
        relations += [Relation(n, size, rng.sample(cells, rng.randint(1, min(len(cells), 12))))
                      for _ in range(4)]
        for T in relations:
            blocks = slow_equations_of(T, ops)
            closure = slow_galois_closure(ops, blocks, n, size)
            members = set(T.tuples)
            gap = next((t for t in closure.tuples if t not in members), None)
            theory = equations_of(T, gens)
            assert theory.ops == tuple(ops) and theory.blocks == tuple(blocks)
            assert theory.closure() == closure == galois_closure(T, gens)
            assert EqTheory(n, size, ops, blocks).closure() == closure  # stacked from the ops
            verdict, evidence = is_solution_set(T, gens)
            if gap is None:
                assert verdict is True
                assert evidence.pairs == tuple((ops[b[0]], ops[i]) for b in blocks for i in b[1:])
            else:
                assert (verdict, evidence) == (False, gap)
                assert all(type(v) is int for v in evidence)


def test_a_relation_on_another_carrier_is_refused_before_any_work(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("clone_slice called")

    monkeypatch.setattr(equations, "clone_slice", refused)
    gens = generators(catalog.chain(5), "lattice")
    for T in (Relation(2, 7, [(0, 1), (3, 2)]), Relation(2, 3, [(0, 1), (2, 2)])):
        for decide in (equations_of, galois_closure, is_solution_set):
            with pytest.raises(ArityMismatch, match=f"relation on {T.size} elements"):
                decide(T, iter(gens))


@pytest.mark.parametrize("bad", [True, 1.5, None, "5", -1])
def test_malformed_limits_are_refused_before_any_memo(bad, monkeypatch):
    monkeypatch.setattr(operations, "_RECORDS", {})
    T = Relation(2, 3, [(0, 1)])
    for decide in (equations_of, galois_closure, is_solution_set):
        with pytest.raises(BadSpec, match="^limit "):
            decide(T, generators(C3, "lattice"), limit=bad)
    assert not operations._RECORDS


def test_theory_refuses_a_table_of_another_shape():
    ops = clone_slice(generators(C3, "lattice"), 2)
    for other in (OpTable(1, 3, [0, 1, 2]), OpTable(2, 2, [0, 0, 0, 1])):
        with pytest.raises(ArityMismatch):
            EqTheory(2, 3, ops + [other], [[i] for i in range(len(ops) + 1)])


def test_equations_of_on_a_large_relation_over_b4_is_one_gather():
    # 166 tables of 65,536 cells on 1,985 tuples; grouping them by one table
    # call per table and tuple took 0.28-0.53 s
    B4 = catalog.boolean_lattice(4)
    gens = generators(B4, "lattice")
    rng = random.Random(1985)
    cells = rng.sample(range(16 ** 4), 1985)
    T = Relation(4, 16, [(c >> 12, c >> 8 & 15, c >> 4 & 15, c & 15) for c in cells])
    assert len(clone_slice(gens, 4)) == 166
    operations.slice_matrix(gens, 4)  # the slice with its value matrix, built before the clock
    gc.collect()  # so that no collection owed by earlier work lands inside the clock
    started = time.perf_counter()
    theory = equations_of(T, gens)
    elapsed = time.perf_counter() - started
    assert len(theory.blocks) == 166
    assert elapsed < 0.05, f"equations_of took {elapsed:.3f}s"


REFUSALS = [
    (lambda: EquationSystem(2, 2, [(projection(2, 1, 2), projection(1, 1, 2))]),
     ArityMismatch, "all equations must share the system arity"),
    (lambda: EquationSystem(1, 2, [(projection(1, 1, 2), projection(1, 1, 3))]), ArityMismatch,
     "all equations must share one carrier"),
    (lambda: solve(EquationSystem(1, 2, []), C3), BadSpec, "system and algebra carriers differ"),
    (lambda: EqTheory(1, 2, [projection(1, 1, 2)], [[0], [0]]), BadSpec,
     "blocks must partition the slice"),
]


@pytest.mark.parametrize("build, error, match", REFUSALS,
                         ids=["system-arity", "system-carrier", "solve-carrier", "partition"])
def test_refusals(build, error, match):
    with pytest.raises(error, match=match):
        build()
