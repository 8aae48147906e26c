"""DSL parsing, rendering and formula evaluation."""

import random
from types import SimpleNamespace

import pytest

from latclone import catalog, terms
from latclone.errors import (
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
from latclone.operations import Relation

from helpers import slow_eval_formula

C3 = catalog.chain(3)
B2 = catalog.boolean_lattice(2)
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
])
@pytest.mark.parametrize("structure", [C3, B2, N5, M3], ids=["C3", "B2", "N5", "M3"])
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
