"""DSL parsing, rendering and formula evaluation."""

import random
import tracemalloc
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings

from latclone import catalog, formulas, terms
from latclone.errors import (
    BadSpec,
    FormulaSyntaxError,
    JoinInSemilatticeMode,
    UnknownVariable,
)
from latclone.formulas import (
    PPFormula,
    eval_formula,
    parse_formula,
    random_formula,
)
from latclone.lattice import FiniteLattice, is_boolean, semilattice_to_lattice
from latclone.operations import Relation, relation_from_mask

from helpers import down_set_lattices, intersection_closed_families, slow_eval_formula

C3 = catalog.chain(3)
B2 = catalog.boolean_lattice(2)
B3 = catalog.boolean_lattice(3)
N5 = catalog.pentagon()
M3 = catalog.diamond()


def test_parse_simple_existential():
    phi = parse_formula("exists u . (x /\\ u = y)")
    assert phi.bound_vars == ("u",)
    assert phi.free_vars == ("x", "y")
    assert len(phi.atoms) == 1


def test_parse_inequality_sugar():
    phi = parse_formula("x <= y")
    assert phi.atoms == ((terms.Var("x"),
                          terms.Meet(terms.Var("x"), terms.Var("y"))),)


def test_parse_precedence_meet_binds_tighter():
    phi = parse_formula("x /\\ y \\/ z = w")
    lhs = phi.atoms[0][0]
    assert lhs == terms.Join(terms.Meet(terms.Var("x"), terms.Var("y")), terms.Var("z"))
    phi2 = parse_formula("x /\\ (y \\/ z) = w")
    assert phi2.atoms[0][0] == terms.Meet(terms.Var("x"),
                                          terms.Join(terms.Var("y"), terms.Var("z")))


def test_parse_multi_exists_forms():
    assert parse_formula("exists u v . u = v & x = x").bound_vars == ("u", "v")
    assert parse_formula("exists u . exists v . u = v & x = x").bound_vars == ("u", "v")


def test_parse_errors():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("exists u . x \\/ u")  # term where an atom is expected
    with pytest.raises(FormulaSyntaxError):
        parse_formula("x = ")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("exists . x = y")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("x # y")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("exists u u . x = u")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("(x = y")


def test_syntax_error_positions_are_reported():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("x == y")
    assert err.value.position == 3


def test_join_rejected_in_semilattice_mode():
    with pytest.raises(JoinInSemilatticeMode):
        parse_formula("x \\/ y = z", mode="semilattice")
    parse_formula("x /\\ y = z", mode="semilattice")


def test_explicit_variable_order():
    phi = parse_formula("y = x", variables=("y", "x"))
    assert phi.free_vars == ("y", "x")
    with pytest.raises(UnknownVariable):
        parse_formula("y = w", variables=("y",))


def test_formula_validates_atom_variables():
    with pytest.raises(UnknownVariable):
        PPFormula(free_vars=("x",), bound_vars=(), atoms=((terms.Var("x"), terms.Var("q")),))


def test_render_parse_round_trip():
    # the text form preserves variables and the defined relation; tree shape
    # may differ because rendered chains re-parse left-associated
    rng = random.Random(2024)
    for _ in range(40):
        mode = "lattice" if rng.random() < 0.5 else "semilattice"
        algebra = B2 if mode == "lattice" else C3
        phi = random_formula(rng, mode=mode)
        again = parse_formula(phi.render(), mode=mode)
        assert again.free_vars == phi.free_vars
        assert again.bound_vars == phi.bound_vars
        assert eval_formula(again, algebra) == eval_formula(phi, algebra)


def test_render_keeps_unused_free_variables_alive():
    phi = PPFormula(free_vars=("x", "y"), bound_vars=(),
                    atoms=((terms.Var("x"), terms.Var("x")),))
    text = phi.render()
    assert "y = y" in text
    assert parse_formula(text).free_vars == ("x", "y")


def test_empty_conjunction_defines_the_full_relation():
    phi = PPFormula(free_vars=("x", "y"), bound_vars=(), atoms=())
    assert eval_formula(phi, C3) == Relation.full(2, 3)


def test_pair_witness_memberships_on_pentagon():
    phi = parse_formula("exists u . (u /\\ x = u /\\ y & u \\/ x = u \\/ y)",
                        variables=("x", "y"))
    T = eval_formula(phi, N5)
    assert (1, 2) in T and (2, 1) in T  # witnessed by the side element
    assert all((x, x) in T for x in range(5))
    assert (0, 4) not in T
    # direct confirmation that u = r works for (p, q)
    u, p, q = 3, 1, 2
    assert N5.meet[u][p] == N5.meet[u][q] and N5.join[u][p] == N5.join[u][q]


def test_meet_witness_memberships_on_diamond_reduct():
    reduct = catalog.meet_reduct(M3)
    phi = parse_formula("exists u . (x /\\ y = u /\\ y & u /\\ x = x & u /\\ z = z)",
                        variables=("x", "y", "z"), mode="semilattice")
    T = eval_formula(phi, reduct)
    assert (1, 0, 4) in T and (1, 4, 0) in T
    assert (1, 2, 3) not in T


def test_eval_agrees_with_slow_oracle():
    rng = random.Random(31337)
    fixtures = [(C3, "lattice"), (B2, "lattice"), (N5, "lattice"),
                (catalog.meet_reduct(M3), "semilattice"),
                (catalog.fence(), "semilattice")]
    for _ in range(30):
        algebra, mode = rng.choice(fixtures)
        phi = random_formula(rng, mode=mode)
        assert eval_formula(phi, algebra) == slow_eval_formula(phi, algebra)


@pytest.mark.parametrize("text,variables", [
    ("x <= y", ("x", "y", "z")),                      # an atom over some of the axes
    ("exists u . x /\\ u = x", ("x", "y")),          # a free variable no atom uses
    ("exists u v . x /\\ y = u", ("x", "y")),        # a bound variable no atom uses
    ("exists u . x /\\ u = y & u <= z", ("x", "y", "z")),
    ("exists u . u = u", ()),                         # closed, always witnessed
    ("exists u v . u <= v & v <= u & u \\/ v = u /\\ v", ()),
    ("x <= y", ("z", "x", "w", "y")),                 # unused axes around the used ones
    ("exists u . x \\/ u = y /\\ u & u <= z", ("x", "y", "z")),
])
# B2 and B3 are Boolean powers and run on the two-element factor
@pytest.mark.parametrize("structure", [C3, B2, B3, N5, M3], ids=["C3", "B2", "B3", "N5", "M3"])
def test_eval_on_partial_axes_agrees_with_slow_oracle(text, variables, structure):
    phi = parse_formula(text, variables=variables)
    assert eval_formula(phi, structure) == slow_eval_formula(phi, structure)


def test_closed_formulas_define_the_empty_tuple_or_nothing():
    assert eval_formula(parse_formula("exists u . u = u"), C3).tuples == ((),)
    # over a (semi)lattice a constant assignment satisfies every atom, so a
    # closed formula without a witness needs a non-idempotent table: x + 1 mod 3
    successor = SimpleNamespace(size=3, kind="semilattice",
                                meet=[[(a + 1) % 3] * 3 for a in range(3)])
    phi = parse_formula("exists u v . u /\\ v = u", mode="semilattice")
    assert phi.free_vars == ()
    assert eval_formula(phi, successor).tuples == ()
    assert slow_eval_formula(phi, successor).tuples == ()


def test_eval_agrees_with_slow_oracle_on_every_catalog_structure():
    rng = random.Random(2718)
    fixtures = [(lat, mode) for lat in [catalog.chain(2), C3, catalog.chain(4), B2,
                                        catalog.boolean_lattice(3), N5, M3]
                for mode in ("lattice", "semilattice")]
    fixtures.append((catalog.fence(), "semilattice"))
    for algebra, mode in fixtures:
        if mode == "semilattice" and algebra.kind == "lattice":
            algebra = catalog.meet_reduct(algebra)
        for _ in range(6):
            phi = random_formula(rng, mode=mode)
            assert eval_formula(phi, algebra) == slow_eval_formula(phi, algebra)


def test_eval_rejects_joins_over_semilattices():
    phi = parse_formula("x \\/ y = x")
    with pytest.raises(JoinInSemilatticeMode):
        eval_formula(phi, catalog.fence())


def test_random_formula_is_deterministic_and_bounded():
    a = random_formula(random.Random(9), mode="lattice")
    b = random_formula(random.Random(9), mode="lattice")
    assert a == b
    for seed in range(30):
        phi = random_formula(random.Random(seed), mode="semilattice")
        assert 1 <= len(phi.free_vars) <= 3
        assert len(phi.bound_vars) <= 2
        assert 1 <= len(phi.atoms) <= 6
        assert not any(terms.uses_join(lhs) or terms.uses_join(rhs)
                       for lhs, rhs in phi.atoms)


def test_repeated_variable_names_are_refused():
    with pytest.raises(BadSpec):
        parse_formula("x <= y", variables=["x", "x", "y"])
    x, u = terms.Var("x"), terms.Var("u")
    with pytest.raises(BadSpec):
        PPFormula(free_vars=("x", "x"), bound_vars=(), atoms=((x, x),))
    with pytest.raises(BadSpec):
        PPFormula(free_vars=("x",), bound_vars=("u", "u"), atoms=((x, u),))


# ------------------------------------------------- the factor route on 2^k

def _grid_relation(phi, algebra):
    """The relation of phi by the grid over the structure itself: the oracle
    of the factor route."""
    n = len(phi.free_vars)
    return relation_from_mask(formulas._grid_mask(phi, algebra), n, algebra.size)


def _permuted(lattice, rng):
    """An isomorphic copy of a lattice whose elements are listed in shuffled order."""
    order = list(range(lattice.size))
    rng.shuffle(order)
    at = {old: new for new, old in enumerate(order)}
    meet = [[at[lattice.meet[a][b]] for b in order] for a in order]
    join = [[at[lattice.join[a][b]] for b in order] for a in order]
    return FiniteLattice([lattice.names[a] for a in order], meet, join)


def _boolean_powers():
    shuffled = _permuted(catalog.boolean_lattice(3), random.Random(8))
    for k in (2, 3, 4):
        yield f"B{k}", catalog.boolean_lattice(k)
    yield "B3-shuffled", shuffled


@pytest.mark.parametrize("mode", ["lattice", "semilattice"])
@pytest.mark.parametrize("name,lattice", list(_boolean_powers()),
                         ids=[name for name, _ in _boolean_powers()])
def test_factor_route_matches_the_grid_on_boolean_powers(name, lattice, mode):
    algebra = lattice if mode == "lattice" else catalog.meet_reduct(lattice)
    assert formulas._boolean_power(algebra) is not None
    rng = random.Random(f"factor:{name}:{mode}")
    # five-variable formulas on B4 take a 16^5 grid each, so B4 draws fewer
    draws = 6 if algebra.size == 16 else 25
    for _ in range(draws):
        phi = random_formula(rng, mode=mode)
        assert eval_formula(phi, algebra) == _grid_relation(phi, algebra)


@pytest.mark.parametrize("k", [3, 4])
def test_bit_planes_are_narrow_and_lift_as_the_wide_ones(k):
    # the planes keep one byte per bit slice and cell up to n = 8, where
    # intp planes kept 8; masks lifted through them stay what wide planes gave
    lattice = catalog.boolean_lattice(k)
    power = formulas._boolean_power(lattice)
    rng = random.Random(k)
    for n in range(4):
        plane = power.plane(n)
        assert plane.dtype == np.uint8 and not plane.flags.writeable
        cells = list(product(range(lattice.size), repeat=n))
        wide = [[sum(power.bits[i][x] << (n - 1 - j) for j, x in enumerate(c)) for c in cells]
                for i in range(k)]
        assert plane.tolist() == wide
        mask = np.array([rng.random() < 0.7 for _ in range(2 ** n)])
        assert power.lift(mask, n).tolist() == mask[np.array(wide, dtype=np.intp)].all(axis=0).tolist()
    for phi in ("exists u . x /\\ u = y /\\ z & u \\/ w <= y",
                "exists u . u /\\ w = x & x /\\ y <= z \\/ w"):
        phi = parse_formula(phi)
        assert eval_formula(phi, lattice) == _grid_relation(phi, lattice)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_an_empty_factor_relation_lifts_to_the_empty_relation(n):
    # a pp-formula over a lattice always holds at constant tuples, so an
    # empty relation only reaches the lift directly
    lattice = catalog.boolean_lattice(3)
    power = formulas._boolean_power(lattice)
    mask = power.lift(np.zeros((2,) * n, dtype=bool), n)
    assert relation_from_mask(mask, n, 8) == Relation(n, 8, [])
    full = power.lift(np.ones((2,) * n, dtype=bool), n)
    assert relation_from_mask(full, n, 8) == Relation.full(n, 8)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_a_join_over_a_boolean_semilattice_raises_as_on_the_grid(k):
    reduct = catalog.meet_reduct(catalog.boolean_lattice(k))
    phi = parse_formula("exists u . x /\\ u = y & x \\/ u = y")
    with pytest.raises(JoinInSemilatticeMode) as factor:
        eval_formula(phi, reduct)
    with pytest.raises(JoinInSemilatticeMode) as grid:
        formulas._grid_mask(phi, reduct)
    assert str(factor.value) == str(grid.value)


def _is_boolean_power(structure):
    """2^k with k >= 2, from is_boolean on the lattice or its completion."""
    if structure.size < 4:
        return False
    if structure.kind == "semilattice":
        if structure.top is None:
            return False
        structure = semilattice_to_lattice(structure)
    return is_boolean(structure)[0]


def _catalog_structures():
    for name, lattice in [("C1", catalog.chain(1)), ("C2", catalog.chain(2)),
                          ("C3", catalog.chain(3)), ("C4", catalog.chain(4)),
                          ("B2", catalog.boolean_lattice(2)), ("B3", catalog.boolean_lattice(3)),
                          ("B4", catalog.boolean_lattice(4)), ("N5", catalog.pentagon()),
                          ("M3", catalog.diamond())]:
        yield name, lattice
        yield f"m{name}", catalog.meet_reduct(lattice)
    yield "fence", catalog.fence()


@pytest.mark.parametrize("name,structure", list(_catalog_structures()),
                         ids=[name for name, _ in _catalog_structures()])
def test_recognizer_accepts_exactly_the_boolean_powers_on_the_catalog(name, structure):
    expected = name.lstrip("m") in ("B2", "B3", "B4")
    assert _is_boolean_power(structure) == expected
    assert (formulas._boolean_power(structure) is not None) == expected


def test_tables_that_break_the_coding_are_not_taken_for_a_boolean_power():
    # on valid structures meet always goes to AND and join to OR once the
    # coding is a bijection; these checks hold the line on raw tables
    meet = [[a & b for b in range(4)] for a in range(4)]
    join = [[a | b for b in range(4)] for a in range(4)]
    assert formulas._boolean_power(SimpleNamespace(size=4, kind="lattice",
                                                   meet=meet, join=join)) is not None
    bad_join = SimpleNamespace(size=4, kind="lattice", meet=meet, join=meet)
    bad_meet = SimpleNamespace(size=4, kind="semilattice",
                               meet=[row[:3] + [0 if a == 3 else row[3]]
                                     for a, row in enumerate(meet)])
    for structure in (bad_join, bad_meet):
        assert formulas._boolean_power(structure) is None
        phi = parse_formula("exists u . x /\\ u = y", mode="semilattice")
        assert eval_formula(phi, structure) == slow_eval_formula(phi, structure)


@settings(max_examples=60, deadline=None)
@given(down_set_lattices())
def test_recognizer_agrees_with_is_boolean_on_down_set_lattices(lattice):
    for structure in (lattice, catalog.meet_reduct(lattice)):
        assert (formulas._boolean_power(structure) is not None) == _is_boolean_power(structure)


@settings(max_examples=60, deadline=None)
@given(intersection_closed_families())
def test_recognizer_agrees_with_is_boolean_on_closure_systems(semilattice):
    assert (formulas._boolean_power(semilattice) is not None) == _is_boolean_power(semilattice)


def test_five_variable_formulas_on_b4_stay_small():
    # the grid over B4 itself holds 16^5 cells per term and peaks at 2 MB
    rng = random.Random(5)
    b4 = catalog.boolean_lattice(4)
    shaped = 0
    while shaped < 5:
        phi = random_formula(rng)
        if (len(phi.free_vars), len(phi.bound_vars)) != (3, 2):
            continue
        shaped += 1
        tracemalloc.start()
        try:
            eval_formula(phi, b4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (phi.render(), peak)
