"""Inequality normalisation, residuation, interval Helly, quantifier elimination."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latclone import catalog, qe, terms
from latclone.errors import BadSpec, JoinInSemilatticeMode, NotBoolean, NotDistributive
from latclone.formulas import eval_formula, parse_formula, random_formula
from latclone.lattice import is_boolean
from latclone.relations import Relation
from latclone.qe import (
    IneqItem,
    _pairings,
    eliminate_boolean,
    eliminate_semilattice,
    helly_condition,
    residuate,
    to_inequalities,
)

from helpers import (
    down_set_lattices,
    evaluate,
    grid_relation,
    interval_elements,
    join_of,
    meet_of,
    permuted,
    slow_eliminate,
    slow_eval_formula,
    slow_inequalities,
    wide_formula,
)

C3 = catalog.chain(3)
C4 = catalog.chain(4)
B2 = catalog.boolean_lattice(2)
B3 = catalog.boolean_lattice(3)
N5 = catalog.pentagon()
M3 = catalog.diamond()
B2R = catalog.meet_reduct(B2)
B3R = catalog.meet_reduct(B3)


def items_hold(items, env, lattice, mode):
    for item in items:
        lhs = meet_of(lattice, [env[v] for v in sorted(item.meet_vars)])
        if mode == "lattice":
            rhs = join_of(lattice, [env[v] for v in sorted(item.join_vars)])
        else:
            rhs = meet_of(lattice, [env[v] for v in sorted(item.join_vars)])
        if not lattice.leq(lhs, rhs):
            return False
    return True


def atoms_hold(atoms, env, algebra):
    return all(evaluate(lhs, env, algebra) == evaluate(rhs, env, algebra)
               for lhs, rhs in atoms)


def test_to_inequalities_semilattice_split():
    x, y, z = terms.Var("x"), terms.Var("y"), terms.Var("z")
    system = to_inequalities([(x, terms.Meet(y, z))], "semilattice")
    assert set(system.items) == {
        IneqItem(frozenset("x"), frozenset("y")),
        IneqItem(frozenset("x"), frozenset("z")),
        IneqItem(frozenset("yz"), frozenset("x")),
    }


def test_to_inequalities_lattice_dnf_cnf():
    x, y, z, w = (terms.Var(v) for v in "xyzw")
    system = to_inequalities([(terms.Join(x, terms.Meet(y, z)), w)], "lattice")
    assert set(system.items) == {
        IneqItem(frozenset("x"), frozenset("w")),
        IneqItem(frozenset("yz"), frozenset("w")),
        IneqItem(frozenset("w"), frozenset("xy")),
        IneqItem(frozenset("w"), frozenset("xz")),
    }


def test_to_inequalities_trivial_identity():
    x = terms.Var("x")
    system = to_inequalities([(x, x)], "lattice")
    assert all(item.trivial() for item in system.items)


def test_to_inequalities_preserves_the_relation():
    rng = random.Random(321)
    for algebra, mode in ((C3, "semilattice"), (B2, "lattice"), (B3, "lattice")):
        for _ in range(10):
            phi = random_formula(rng, mode=mode, max_bound=0)
            system = to_inequalities(phi.atoms, mode)
            names = sorted({v for item in system.items
                            for v in item.meet_vars | item.join_vars}
                           | set(phi.free_vars))
            for values in product(range(algebra.size), repeat=len(names)):
                env = dict(zip(names, values))
                assert items_hold(system.items, env, algebra, mode) == \
                    atoms_hold(phi.atoms, env, algebra)


def test_residuation_rules_exhaustively_on_b3():
    _, b = is_boolean(B3)
    for a, x, u in product(range(8), repeat=3):
        assert (B3.leq(B3.meet[a][u], x)) == B3.leq(u, residuate("i", b, a, x))
        assert (B3.leq(x, B3.join[a][u])) == B3.leq(residuate("ii", b, a, x), u)
    for a, x, c, d in product(range(8), repeat=4):
        lhs = B3.meet[a][b.complement[x]]
        rhs = B3.join[b.complement[c]][d]
        p, q = residuate("iii", b, a, x, c, d)
        assert B3.leq(lhs, rhs) == B3.leq(p, q)


def test_residuation_degenerate_cases():
    _, b = is_boolean(B2)
    for x in range(4):
        assert residuate("i", b, B2.bottom, x) == B2.top  # u <= 1 is vacuous
    for a, d in product(range(4), repeat=2):
        assert residuate("iii", b, a, B2.bottom, B2.top, d) == (a, d)


def test_helly_concrete_examples():
    assert helly_condition([(0, 2)], C3) is True
    # [a, 1] and [0, b] in the square do not intersect
    assert helly_condition([(1, 3), (0, 2)], B2) is False


def test_helly_matches_brute_force_on_pentagon():
    pairs = [(c, d) for c in range(5) for d in range(5) if N5.leq(c, d)]
    for k in (1, 2, 3):
        for family in product(pairs, repeat=k):
            expected = set(range(5))
            for lo, hi in family:
                expected &= interval_elements(N5, lo, hi)
            assert helly_condition(list(family), N5) == bool(expected)


def test_bound_pairings():
    a, b, c, d = 1, 2, 4, 8  # the bits of four variables
    upper = [(c, d)]  # (/\ c)' \/ d
    # the complemented lower bound a /\ b' is below c' \/ d iff a /\ c <= b \/ d
    assert _pairings([(a, b)], upper) == [(a | c, b | d)]
    # the pure-meet lower bound a, as in semilattice mode
    assert _pairings([(a, 0)], upper) == [(a | c, d)]
    # with no lower bound the interval is never empty
    assert _pairings([], upper) == []


@pytest.mark.parametrize("mode", ["lattice", "semilattice"])
def test_normaliser_and_eliminator_match_the_frozenset_oracle(mode):
    rng = random.Random(f"qe-oracle:{mode}")
    without_bound = 0
    for _ in range(1000):
        phi = random_formula(rng, mode=mode)
        without_bound += not phi.bound_vars
        assert to_inequalities(phi.atoms, mode).items == slow_inequalities(phi.atoms, mode)
        assert qe._eliminate(phi) == slow_eliminate(phi, mode)
    assert without_bound >= 100
    for nfree, nbound in ((7, 0), (4, 3), (3, 5)):
        for _ in range(10):
            phi = wide_formula(rng, mode, nfree, nbound)
            assert to_inequalities(phi.atoms, mode).items == slow_inequalities(phi.atoms, mode)
            assert qe._eliminate(phi) == slow_eliminate(phi, mode)


def test_eliminate_boolean_no_bound_vars_is_identity():
    phi = parse_formula("x /\\ y = y")
    assert eliminate_boolean(phi, B2) == phi


def test_eliminate_boolean_interval_pairing_example():
    phi = parse_formula("exists u . (x /\\ u <= y & z <= y \\/ u)")
    out = eliminate_boolean(phi, B2)
    assert out.bound_vars == ()
    expected = parse_formula("x /\\ z <= y", variables=("x", "y", "z"))
    assert out.atoms == expected.atoms
    assert eval_formula(out, B2) == eval_formula(phi, B2)


def test_eliminate_boolean_case3_gives_truth():
    phi = parse_formula("exists u . (x /\\ u <= y /\\ u)")
    out = eliminate_boolean(phi, B2)
    assert out.atoms == ()
    assert eval_formula(out, B2) == Relation.full(2, 4)


def test_eliminate_boolean_refuses_non_boolean():
    phi = parse_formula("exists u . (x /\\ u = y)")
    for lattice in (C3, N5, M3):
        with pytest.raises(NotBoolean):
            eliminate_boolean(phi, lattice)


def test_eliminate_semilattice_example():
    phi = parse_formula("exists u . (x <= u & u /\\ y <= z)", mode="semilattice")
    out = eliminate_semilattice(phi, C3)
    expected = parse_formula("x /\\ y <= z", variables=("x", "y", "z"),
                             mode="semilattice")
    assert out.atoms == expected.atoms
    assert eval_formula(out, C3) == eval_formula(phi, C3)


def test_eliminate_semilattice_case3_gives_truth():
    phi = parse_formula("exists u . (u /\\ x <= y /\\ x)", mode="semilattice")
    out = eliminate_semilattice(phi, C3)
    assert out.atoms == ()


def test_eliminate_drops_unused_bound_variable():
    phi = parse_formula("exists u . (x /\\ y = y)")
    out = eliminate_boolean(phi, B2)
    assert out.bound_vars == ()
    assert out.atoms == phi.atoms


def test_bound_variables_in_no_atom_leave_the_atoms_untouched():
    # normalising "x /\ y = y" would render it as "y <= x"
    for mode, eliminate, algebra in (("lattice", eliminate_boolean, B2),
                                     ("semilattice", eliminate_semilattice, C3)):
        phi = parse_formula("exists u v . (x /\\ y = y)", mode=mode)
        out = eliminate(phi, algebra)
        assert out.bound_vars == ()
        assert out.atoms is phi.atoms
        assert out.render() == "x /\\ y = y"


def test_eliminate_semilattice_refusals():
    phi = parse_formula("exists u . (x /\\ u = y)", mode="semilattice")
    with pytest.raises(NotDistributive):
        eliminate_semilattice(phi, catalog.meet_reduct(N5))
    with pytest.raises(NotDistributive):
        eliminate_semilattice(phi, catalog.fence())
    with pytest.raises(NotDistributive):
        eliminate_semilattice(phi, M3)
    joins = parse_formula("exists u . (x \\/ u = y)")
    with pytest.raises(JoinInSemilatticeMode):
        eliminate_semilattice(joins, C3)


def test_boolean_round_trip_sample():
    rng = random.Random(4242)
    for lattice in (B2, B3):
        for _ in range(40):
            phi = random_formula(rng, mode="lattice")
            out = eliminate_boolean(phi, lattice)
            assert out.bound_vars == ()
            assert eval_formula(out, lattice) == eval_formula(phi, lattice)


def test_semilattice_round_trip_sample():
    rng = random.Random(2323)
    for algebra in (C3, C4, B2R, B3R):
        for _ in range(40):
            phi = random_formula(rng, mode="semilattice")
            out = eliminate_semilattice(phi, algebra)
            assert out.bound_vars == ()
            assert eval_formula(out, algebra) == eval_formula(phi, algebra)
            assert not any(terms.uses_join(lhs) or terms.uses_join(rhs)
                           for lhs, rhs in out.atoms)


def test_round_trip_against_slow_oracle():
    # one small batch where both sides of the comparison are recomputed with
    # the pure-python evaluator rather than the vectorised one
    rng = random.Random(808)
    for _ in range(8):
        phi = random_formula(rng, mode="lattice")
        out = eliminate_boolean(phi, B2)
        assert slow_eval_formula(out, B2) == slow_eval_formula(phi, B2)


def test_elimination_output_is_parseable_and_idempotent():
    rng = random.Random(99)
    for _ in range(15):
        phi = random_formula(rng, mode="lattice")
        out = eliminate_boolean(phi, B2)
        reparsed = parse_formula(out.render())
        assert eval_formula(reparsed, B2) == eval_formula(out, B2)
        again = eliminate_boolean(out, B2)
        assert again.atoms == out.atoms
    for _ in range(15):
        phi = random_formula(rng, mode="semilattice")
        out = eliminate_semilattice(phi, C4)
        reparsed = parse_formula(out.render(), mode="semilattice")
        assert eval_formula(reparsed, C4) == eval_formula(out, C4)
        again = eliminate_semilattice(out, C4)
        assert again.atoms == out.atoms


def test_median_join_equivalence_on_distributive_fixtures():
    # p(x,y,z,u) equals the 4-way join iff median(x,y,z) \/ u equals the
    # 3-way join, and dually
    for lat in (C3, B2, B3):
        meet, join = lat.meet, lat.join
        for x, y, z, u in product(range(lat.size), repeat=4):
            m = join[join[meet[x][y]][meet[x][z]]][meet[y][z]]
            md = meet[meet[join[x][y]][join[x][z]]][join[y][z]]
            p = join[m][join[join[meet[u][x]][meet[u][y]]][meet[u][z]]]
            q = meet[md][meet[meet[join[u][x]][join[u][y]]][join[u][z]]]
            sup3 = join[join[x][y]][z]
            inf3 = meet[meet[x][y]][z]
            assert (p == join[sup3][u]) == (join[m][u] == sup3)
            assert (q == meet[inf3][u]) == (meet[md][u] == inf3)


def test_multiple_bound_variables_eliminate_innermost_first():
    phi = parse_formula("exists u v . (x <= u & u <= v & v <= y)")
    out = eliminate_boolean(phi, B3)
    assert out.bound_vars == ()
    assert eval_formula(out, B3) == eval_formula(phi, B3)
    # the relation is just the order
    expected = Relation(2, 8, [(a, b) for a in range(8) for b in range(8)
                               if B3.leq(a, b)])
    assert eval_formula(phi, B3) == expected


def _round_trips_match(structure, mode, rng, draws):
    """eval_formula gives one relation for each drawn formula and its
    elimination, and the numpy grid over the structure gives it too."""
    eliminate = eliminate_boolean if mode == "lattice" else eliminate_semilattice
    for _ in range(draws):
        # the grid over 16 elements stays at four variables
        phi = random_formula(rng, mode=mode, max_bound=2 if structure.size <= 8 else 1)
        out = eliminate(phi, structure)
        assert out.bound_vars == ()
        oracle = grid_relation(phi, structure)
        assert eval_formula(out, structure) == eval_formula(phi, structure) == oracle


@settings(max_examples=25, deadline=None)
@given(down_set_lattices().filter(lambda lattice: is_boolean(lattice)[0]), st.integers(0, 999))
def test_boolean_round_trips_match_eval_on_generated_lattices(lattice, seed):
    rng = random.Random(seed)
    for structure in (lattice, permuted(lattice, rng)):
        _round_trips_match(structure, "lattice", rng, 4)


@settings(max_examples=25, deadline=None)
@given(down_set_lattices(), st.integers(0, 999))
def test_semilattice_round_trips_match_eval_on_distributive_meet_reducts(lattice, seed):
    rng = random.Random(seed)
    for structure in (lattice, permuted(lattice, rng)):
        _round_trips_match(catalog.meet_reduct(structure), "semilattice", rng, 4)


REFUSALS = [
    (lambda: to_inequalities(parse_formula("x = y").atoms, "boolean"), BadSpec,
     "unknown mode 'boolean'"),
    (lambda: to_inequalities(parse_formula("x \\/ y = x").atoms, "semilattice"),
     JoinInSemilatticeMode, "inequality normalisation in semilattice mode"),
    (lambda: residuate("iv", is_boolean(B2)[1], 0, 1), BadSpec, "unknown residuation kind 'iv'"),
    (lambda: eliminate_boolean(parse_formula("x = y"), B2R), BadSpec,
     "lattice mode needs a lattice"),
]


@pytest.mark.parametrize("build, error, match", REFUSALS,
                         ids=["unknown-mode", "join-in-semilattice", "residuation-kind",
                              "lattice-mode-on-semilattice"])
def test_refusals(build, error, match):
    with pytest.raises(error, match=match):
        build()
