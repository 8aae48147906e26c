"""DSL parsing, rendering and formula evaluation."""

import random
import tracemalloc
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from latclone.lattice import from_covers, is_boolean, semilattice_to_lattice
from latclone.relations import Relation, relation_from_mask

from helpers import (
    bit_cells,
    down_set_lattices,
    grid_mask,
    grid_relation,
    intersection_closed_families,
    mask_int,
    permuted,
    slow_eval_formula,
    wide_formula,
)

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

def _boolean_powers():
    shuffled = permuted(catalog.boolean_lattice(3), random.Random(8))
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
        assert eval_formula(phi, algebra) == grid_relation(phi, algebra)


@pytest.mark.parametrize("k", [3, 4])
def test_bit_planes_are_narrow_and_lift_as_the_wide_ones(k):
    # a plane keeps one bit per cell of A^n, one int per bit slice and
    # factor cell; masks lifted through them stay what wide index planes gave
    lattice = catalog.boolean_lattice(k)
    power = formulas._boolean_power(lattice)
    rng = random.Random(k)
    for n in range(4):
        plane = power.plane(n)
        assert power.plane(n) is plane and len(plane) == k
        cells = list(product(range(lattice.size), repeat=n))
        wide = [[sum((power.images[x] >> i & 1) << (n - 1 - j) for j, x in enumerate(c))
                 for c in cells] for i in range(k)]
        assert all(0 <= cells_of < 1 << len(cells) for slices in plane for cells_of in slices)
        assert [[[bool(cells_of >> c & 1) for c in range(len(cells))] for cells_of in slices]
                for slices in plane] == [[[w == f for w in row] for f in range(2 ** n)]
                                         for row in wide]
        mask = np.array([rng.random() < 0.7 for _ in range(2 ** n)])
        lifted = mask[np.array(wide, dtype=np.intp)].all(axis=0)
        assert power.lift(mask_int(mask), n) == mask_int(lifted)
    for phi in ("exists u . x /\\ u = y /\\ z & u \\/ w <= y",
                "exists u . u /\\ w = x & x /\\ y <= z \\/ w"):
        phi = parse_formula(phi)
        assert eval_formula(phi, lattice) == grid_relation(phi, lattice)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_an_empty_factor_relation_lifts_to_the_empty_relation(n):
    # a pp-formula over a lattice always holds at constant tuples, so an
    # empty relation only reaches the lift directly
    lattice = catalog.boolean_lattice(3)
    power = formulas._boolean_power(lattice)
    mask = power.lift(0, n)
    assert relation_from_mask(mask, n, 8) == Relation(n, 8, [])
    full = power.lift((1 << (1 << n)) - 1, n)
    assert relation_from_mask(full, n, 8) == Relation.full(n, 8)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_a_join_over_a_boolean_semilattice_raises_as_on_the_grid(k):
    reduct = catalog.meet_reduct(catalog.boolean_lattice(k))
    phi = parse_formula("exists u . x /\\ u = y & x \\/ u = y")
    with pytest.raises(JoinInSemilatticeMode) as factor:
        eval_formula(phi, reduct)
    with pytest.raises(JoinInSemilatticeMode) as grid:
        grid_mask(phi, reduct)
    assert str(factor.value) == str(grid.value)


def _two_element_structures():
    c2 = catalog.chain(2)
    yield "C2", c2
    yield "mC2", catalog.meet_reduct(c2)
    # index 1 is the bottom here, so meet is OR on element indices
    yield "C2-top-first", from_covers(["1", "0"], [[1, 0]])
    yield "mC2-top-first", from_covers(["1", "0"], [[1, 0]], kind="semilattice")


@pytest.mark.parametrize("name,algebra", list(_two_element_structures()),
                         ids=[name for name, _ in _two_element_structures()])
def test_bit_masks_match_the_numpy_grid_on_two_elements(name, algebra):
    assert algebra.meet[0][1] == (1 if name.endswith("top-first") else 0)
    rng = random.Random(f"bit-mask:{name}")
    for mode in ["lattice", "semilattice"][algebra.kind == "semilattice":]:
        draws = [random_formula(rng, mode=mode) for _ in range(1000)]
        assert sum(not phi.bound_vars for phi in draws) >= 100
        # past 64 cells the mask is a multi-word int
        draws += [wide_formula(rng, mode, nfree, nbound)
                  for nfree, nbound in ((7, 0), (6, 1), (4, 3), (1, 6)) for _ in range(5)]
        for phi in draws:
            n = len(phi.free_vars)
            grid = grid_mask(phi, algebra)
            mask = formulas._defining_mask(phi, algebra)
            assert isinstance(mask, int) and 0 <= mask < 1 << (1 << n)
            assert bit_cells(mask, n) == grid.ravel().tolist()
            assert eval_formula(phi, algebra) == relation_from_mask(mask_int(grid), n, 2)


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
    # the recognizer reads is_boolean, which needs the bottom and the top
    # that every structure has
    assert formulas._boolean_power(SimpleNamespace(size=4, kind="lattice", bottom=0, top=3,
                                                   meet=meet, join=join)) is not None
    bad_join = SimpleNamespace(size=4, kind="lattice", bottom=0, top=3, meet=meet, join=meet)
    bad_meet = SimpleNamespace(size=4, kind="semilattice", top=None,
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


REFUSALS = [
    (lambda: PPFormula(free_vars=("x",), bound_vars=("x",), atoms=()), BadSpec,
     "a variable cannot be both free and bound"),
    (lambda: parse_formula("x = exists"), FormulaSyntaxError,
     "'exists' cannot be used as a variable"),
    (lambda: parse_formula("x = y )"), FormulaSyntaxError, "unexpected '\\)' after the conjunction"),
    (lambda: parse_formula("x = y", mode="boolean"), BadSpec, "unknown mode 'boolean'"),
]


@pytest.mark.parametrize("build, error, match", REFUSALS,
                         ids=["free-and-bound", "exists-variable", "trailing-token", "unknown-mode"])
def test_refusals(build, error, match):
    with pytest.raises(error, match=match):
        build()


# ------------------------------------------- int masks on every carrier

def _mask_structures():
    """Every catalog structure in both modes (N5 and M3 as lattices too)."""
    for name, lattice in [("C1", catalog.chain(1)), ("C2", catalog.chain(2)), ("C3", C3),
                          ("C4", catalog.chain(4)), ("B2", B2), ("B3", B3),
                          ("B4", catalog.boolean_lattice(4)), ("N5", N5), ("M3", M3)]:
        yield f"{name}-lattice", lattice
        yield f"{name}-semilattice", catalog.meet_reduct(lattice)
    yield "fence-semilattice", catalog.fence()


def _masks_match_the_oracles(phi, algebra, slow_cells=1 << 12, grid_cells=1 << 17):
    """The int mask is the numpy grid's, over the two-element factor of a
    Boolean power, else over the structure; eval_formula gives the relation
    of the nested loops, or of the grid where they would take too long (and
    is left out where the grid would too)."""
    power = formulas._boolean_power(algebra)
    carrier = algebra if power is None else power.factor
    mask = formulas._defining_mask(phi, algebra)
    n = len(phi.free_vars)
    assert isinstance(mask, int) and 0 <= mask < 1 << carrier.size ** n
    assert mask == mask_int(grid_mask(phi, carrier))
    cells = algebra.size ** (n + len(phi.bound_vars))
    if cells <= slow_cells:
        assert eval_formula(phi, algebra) == slow_eval_formula(phi, algebra)
    elif cells <= grid_cells:
        assert eval_formula(phi, algebra) == grid_relation(phi, algebra)


@pytest.mark.parametrize("name,algebra", list(_mask_structures()),
                         ids=[name for name, _ in _mask_structures()])
def test_int_masks_match_the_grid_and_the_loops_on_every_carrier(name, algebra):
    mode = name.split("-")[1]
    rng = random.Random(f"int-mask:{name}")
    for _ in range(40):
        # the grid over 16 elements stays at four variables
        phi = random_formula(rng, mode=mode, max_bound=2 if algebra.size <= 8 else 1)
        _masks_match_the_oracles(phi, algebra)
    # seven variables: past 64 cells even over two elements
    for nfree, nbound in ((7, 0), (5, 2), (3, 4), (1, 6)):
        if algebra.size ** (nfree + nbound) <= 1 << 17 or formulas._boolean_power(algebra):
            _masks_match_the_oracles(wide_formula(rng, mode, nfree, nbound), algebra)
    assert formulas._defining_mask(wide_formula(rng, mode, 7, 0), algebra) >> 64 or algebra.size < 2


@settings(max_examples=40, deadline=None)
@given(down_set_lattices(), st.integers(0, 999))
def test_int_masks_match_the_grid_on_down_set_lattices_and_shuffled_copies(lattice, seed):
    rng = random.Random(seed)
    for structure in (lattice, permuted(lattice, rng)):
        for mode, algebra in (("lattice", structure),
                              ("semilattice", catalog.meet_reduct(structure))):
            for _ in range(3):
                # the grid over 16 elements stays at four variables
                phi = random_formula(rng, mode=mode, max_bound=2 if algebra.size <= 8 else 1)
                _masks_match_the_oracles(phi, algebra)


def test_any_per_block_reads_every_block_width():
    rng = random.Random(3)
    for block in range(1, 40):
        count = rng.randint(1, 9)
        bits = [rng.random() < 0.1 for _ in range(count * block)]
        mask = sum(1 << c for c, bit in enumerate(bits) if bit)
        expected = sum(1 << f for f in range(count) if any(bits[f * block:(f + 1) * block]))
        assert formulas._any_per_block(mask, block) == expected


def test_trusted_builders_give_the_checked_formulas():
    rng = random.Random(12)
    for mode in ("lattice", "semilattice"):
        for _ in range(200):
            phi = random_formula(rng, mode=mode)
            checked = PPFormula(free_vars=phi.free_vars, bound_vars=phi.bound_vars,
                                atoms=phi.atoms)
            assert phi == checked and hash(phi) == hash(checked)
            assert phi.render() == checked.render()
    # the constructor itself keeps every check
    x, q = terms.Var("x"), terms.Var("q")
    with pytest.raises(UnknownVariable):
        PPFormula(free_vars=("x",), bound_vars=(), atoms=((x, q),))
    with pytest.raises(UnknownVariable):
        PPFormula(free_vars=("x",), bound_vars=("u",), atoms=((x, terms.Meet(x, q)),))
