"""Witness relations and the closure-property decision."""

import json
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings

from latclone import catalog, equations, operations, sdc
from latclone.equations import equations_of, galois_closure, gap_tuple, is_solution_set
from latclone.errors import (
    BadSpec,
    IsBoolean,
    IsDistributive,
    IsDistributiveSemilattice,
    NotDistributive,
)
from latclone.lattice import (
    forbidden_sublattice,
    is_boolean,
    is_distributive_semilattice,
    semilattice_to_lattice,
)
from latclone.formulas import PPFormula
from latclone.operations import (
    centralizer_slice,
    generators,
    meet_op,
    preserves,
)
from latclone.sdc import (
    decide_sdc,
    witness_boolean_gap,
    witness_lattice_pair,
    witness_semilattice,
)

from helpers import down_set_lattices, intersection_closed_families, slow_birkhoff_embed

C3 = catalog.chain(3)
C4 = catalog.chain(4)
B2 = catalog.boolean_lattice(2)
B3 = catalog.boolean_lattice(3)
N5 = catalog.pentagon()
M3 = catalog.diamond()
FENCE = catalog.fence()

# Counterexample tables for the binary candidate equations over a pentagon
# or diamond: cell (s, t) lists the member of the witness relation at which
# the equation s = t fails. Terms are variable subsets read as meets/joins.
X, Y = frozenset("x"), frozenset("y")
XY = frozenset("xy")
PAIR_TABLE = {
    ("x", "y"): ("a", "b"),
    ("x", "x&y"): ("b", "a"),
    ("x", "x|y"): ("a", "b"),
    ("y", "x&y"): ("a", "b"),
    ("y", "x|y"): ("b", "a"),
    ("x&y", "x|y"): ("a", "b"),
}

# Ternary counterexample tables for the meets-only candidate equations; the
# entry names which labelled triple falsifies the row = column equation.
# The blank cell is the pair (y&z, x&y&z): that equation holds on the witness.
MEET_TERMS = ("x", "y", "z", "x&y", "x&z", "y&z", "x&y&z")
TRIPLE_TABLE_N5 = {
    ("x", "y"): "acb", ("x", "z"): "acb", ("x", "x&y"): "acb",
    ("x", "x&z"): "bac", ("x", "y&z"): "acb", ("x", "x&y&z"): "acb",
    ("y", "z"): "acb", ("y", "x&y"): "acb", ("y", "x&z"): "acb",
    ("y", "y&z"): "acb", ("y", "x&y&z"): "acb",
    ("z", "x&y"): "acb", ("z", "x&z"): "acb", ("z", "y&z"): "acb",
    ("z", "x&y&z"): "acb",
    ("x&y", "x&z"): "acb", ("x&y", "y&z"): "bac", ("x&y", "x&y&z"): "bac",
    ("x&z", "y&z"): "acb", ("x&z", "x&y&z"): "acb",
}
TRIPLE_TABLE_M3 = {
    ("x", "y"): "abc", ("x", "z"): "abc", ("x", "x&y"): "abc",
    ("x", "x&z"): "acb", ("x", "y&z"): "abc", ("x", "x&y&z"): "abc",
    ("y", "z"): "abc", ("y", "x&y"): "acb", ("y", "x&z"): "abc",
    ("y", "y&z"): "acb", ("y", "x&y&z"): "acb",
    ("z", "x&y"): "abc", ("z", "x&z"): "abc", ("z", "y&z"): "abc",
    ("z", "x&y&z"): "abc",
    ("x&y", "x&z"): "abc", ("x&y", "y&z"): "acb", ("x&y", "x&y&z"): "acb",
    ("x&z", "y&z"): "abc", ("x&z", "x&y&z"): "abc",
}


def pentagon_labels(lattice):
    """(a, b, c) of an embedded pentagon: chain pair a < b, side element c."""
    kind, (_, a, b, c, _) = forbidden_sublattice(lattice)
    assert kind == "N5"
    return a, b, c


def diamond_labels(lattice):
    """(a, b, c) for an embedded diamond: an atom, then its bottom and top."""
    kind, (bottom, m1, _, _, top) = forbidden_sublattice(lattice)
    assert kind == "M3"
    return m1, bottom, top


def eval_binary_term(lattice, key, x, y):
    if key == "x":
        return x
    if key == "y":
        return y
    if key == "x&y":
        return lattice.meet[x][y]
    return lattice.join[x][y]


def eval_meet_term(structure, key, triple):
    coords = {"x": triple[0], "y": triple[1], "z": triple[2]}
    value = None
    for name in key.split("&"):
        value = coords[name] if value is None else structure.meet[value][coords[name]]
    return value


def test_pair_witness_memberships():
    T5 = witness_lattice_pair(N5)
    a, b, c = 1, 2, 3
    assert (a, b) in T5 and (b, a) in T5
    assert N5.meet[c][a] == N5.meet[c][b] and N5.join[c][a] == N5.join[c][b]
    assert all((x, x) in T5 for x in range(5))
    assert (N5.bottom, N5.top) not in T5

    T3 = witness_lattice_pair(M3)
    assert (1, 2) in T3
    assert M3.meet[3][1] == M3.meet[3][2] and M3.join[3][1] == M3.join[3][2]
    assert (M3.bottom, M3.top) not in T3


def test_pair_witness_refuses_distributive():
    for lat in (C3, B2, B3):
        with pytest.raises(IsDistributive):
            witness_lattice_pair(lat)


def test_pair_table_falsifies_every_candidate_equation():
    for lattice in (N5, M3):
        T = witness_lattice_pair(lattice)
        if lattice is N5:
            a, b, _ = pentagon_labels(lattice)
        else:
            kind, (_, a, b, _, _) = forbidden_sublattice(lattice)
        labels = {"a": a, "b": b}
        for (s, t), (px, py) in PAIR_TABLE.items():
            x, y = labels[px], labels[py]
            assert (x, y) in T, (s, t)
            assert eval_binary_term(lattice, s, x, y) != eval_binary_term(lattice, t, x, y)


def test_gap_witness_memberships():
    for lattice in (C3, C4):
        T = witness_boolean_gap(lattice)
        bottom, top = lattice.bottom, lattice.top
        for triple in product((bottom, top), repeat=3):
            assert triple in T
        for x in range(lattice.size):
            for y in range(lattice.size):
                assert (x, x, y) in T and (x, y, y) in T and (x, y, x) in T
        assert len(T) < lattice.size ** 3
    assert (0, 1, 2) not in witness_boolean_gap(C3)


def test_gap_witness_unique_witness_is_the_symmetric_difference():
    # membership of (x, y, z) has exactly one witness: the preimage of the
    # xor of the images in the Birkhoff envelope
    for lattice in (C3, C4):
        emb = slow_birkhoff_embed(lattice)
        T = witness_boolean_gap(lattice)
        meet, join = lattice.meet, lattice.join
        for x, y, z in product(range(lattice.size), repeat=3):
            expected_mask = emb.image[x] ^ emb.image[y] ^ emb.image[z]
            expected_u = emb.preimage(expected_mask)
            m = join[join[meet[x][y]][meet[x][z]]][meet[y][z]]
            md = meet[meet[join[x][y]][join[x][z]]][join[y][z]]
            witnesses = []
            for u in range(lattice.size):
                p = join[m][join[join[meet[u][x]][meet[u][y]]][meet[u][z]]]
                q = meet[md][meet[meet[join[u][x]][join[u][y]]][join[u][z]]]
                sup = join[join[join[x][y]][z]][u]
                inf = meet[meet[meet[x][y]][z]][u]
                if p == sup and q == inf:
                    witnesses.append(u)
            if (x, y, z) in T:
                assert witnesses == [expected_u]
            else:
                assert witnesses == [] and expected_u is None


def test_gap_witness_refusals():
    with pytest.raises(NotDistributive):
        witness_boolean_gap(N5)
    with pytest.raises(IsBoolean):
        witness_boolean_gap(B2)


def test_topless_witness_and_table():
    T = witness_semilattice(FENCE)
    maximal_a = 3
    bottom = FENCE.bottom
    other_max = 2
    assert (maximal_a, other_max) not in T
    pairs = [(maximal_a, bottom), (bottom, maximal_a)]
    for pair in pairs:
        assert pair in T
    # the three nontrivial meets-only candidate equations all fail on T
    a0, oa = pairs
    assert a0[0] != a0[1]                                      # x = y at (a, 0)
    assert a0[0] != FENCE.meet[a0[0]][a0[1]]                   # x = x&y at (a, 0)
    assert oa[1] != FENCE.meet[oa[0]][oa[1]]                   # y = x&y at (0, a)


def test_meet_witness_memberships_and_tables():
    for lattice, table, labels in ((N5, TRIPLE_TABLE_N5, pentagon_labels),
                                   (M3, TRIPLE_TABLE_M3, diamond_labels)):
        reduct = catalog.meet_reduct(lattice)
        T = witness_semilattice(reduct)
        a, b, c = labels(lattice)
        triples = {"abc": (a, b, c), "acb": (a, c, b), "bac": (b, a, c)}
        for key in set(table.values()):
            assert triples[key] in T, (lattice, key)
        for (s, t), key in table.items():
            triple = triples[key]
            assert eval_meet_term(reduct, s, triple) != eval_meet_term(reduct, t, triple), (s, t)
        # the blank cell equation y&z = x&y&z holds everywhere on T
        for x, y, z in T:
            assert reduct.meet[y][z] == reduct.meet[reduct.meet[x][y]][z]


def test_meet_witness_gap_triple_from_the_embedded_shape():
    # pentagon: the chain pair with the side element; diamond: the atoms
    for lattice, expected_gap in ((N5, (1, 2, 3)), (M3, (1, 2, 3))):
        reduct = catalog.meet_reduct(lattice)
        T = witness_semilattice(reduct)
        closure = galois_closure(T, [meet_op(reduct)])
        assert expected_gap in closure
        assert expected_gap not in T


def test_meet_witness_refuses_distributive():
    for algebra in (catalog.meet_reduct(C3), catalog.meet_reduct(B3)):
        with pytest.raises(IsDistributiveSemilattice):
            witness_semilattice(algebra)


def test_witnesses_are_closed_under_the_centralizer():
    cases = [
        (witness_lattice_pair(N5), N5, "lattice"),
        (witness_lattice_pair(M3), M3, "lattice"),
        (witness_boolean_gap(C3), C3, "lattice"),
        (witness_semilattice(catalog.meet_reduct(N5)), catalog.meet_reduct(N5), "semilattice"),
        (witness_semilattice(FENCE), FENCE, "semilattice"),
    ]
    for T, structure, mode in cases:
        gens = generators(structure, mode)
        for k in (1, 2):
            for f in centralizer_slice(gens, k):
                assert preserves(f, T)[0]


def test_witnesses_are_not_solution_sets():
    cases = [
        (witness_lattice_pair(N5), N5, "lattice"),
        (witness_boolean_gap(C3), C3, "lattice"),
        (witness_semilattice(catalog.meet_reduct(M3)), catalog.meet_reduct(M3), "semilattice"),
        (witness_semilattice(FENCE), FENCE, "semilattice"),
    ]
    for T, structure, mode in cases:
        verdict, gap = is_solution_set(T, generators(structure, mode))
        assert verdict is False
        assert gap not in T


def test_decide_sdc_lattice_verdicts():
    expected = [(B2, True), (B3, True), (C3, False), (N5, False), (M3, False)]
    for lattice, holds in expected:
        verdict = decide_sdc(lattice, "lattice")
        assert verdict.holds == holds
        assert verdict.verified
        if not holds:
            assert verdict.witness is not None
            assert verdict.gap_tuple is not None
            closure = galois_closure(verdict.witness, generators(lattice, "lattice"))
            assert verdict.gap_tuple in closure
            assert verdict.gap_tuple not in verdict.witness


def test_decide_sdc_semilattice_verdicts():
    expected = [
        (catalog.meet_reduct(C3), True, "distributive-semilattice"),
        (catalog.meet_reduct(B3), True, "distributive-semilattice"),
        (catalog.meet_reduct(N5), False, "non-distributive-semilattice"),
        (catalog.meet_reduct(M3), False, "non-distributive-semilattice"),
        (FENCE, False, "no-top-semilattice"),
    ]
    for structure, holds, route in expected:
        verdict = decide_sdc(structure, "semilattice")
        assert verdict.holds == holds
        assert verdict.route == route
        assert verdict.verified


def _assert_decide_sdc_follows_the_theorem(structure, mode):
    """Boolean lattices in lattice mode and distributive semilattices in
    semilattice mode have the property; every negative verdict carries a
    gap tuple in the Galois closure of its witness but not in the witness."""
    verdict = decide_sdc(structure, mode)
    if mode == "lattice":
        assert verdict.holds == is_boolean(structure)[0]
    else:
        assert verdict.holds == is_distributive_semilattice(structure)
    assert verdict.verified
    if not verdict.holds:
        closure = galois_closure(verdict.witness, generators(structure, mode))
        assert verdict.gap_tuple in closure
        assert verdict.gap_tuple not in verdict.witness


@settings(derandomize=True, deadline=None, max_examples=30)
@given(down_set_lattices())
def test_decide_sdc_follows_the_theorem_on_down_set_lattices(lattice):
    _assert_decide_sdc_follows_the_theorem(lattice, "lattice")


@settings(derandomize=True, deadline=None, max_examples=100)
@given(intersection_closed_families())
def test_decide_sdc_follows_the_theorem_on_closure_systems(semilattice):
    _assert_decide_sdc_follows_the_theorem(semilattice, "semilattice")
    if semilattice.top is not None:
        _assert_decide_sdc_follows_the_theorem(semilattice_to_lattice(semilattice), "lattice")


def _assert_witness_is_closed_under_the_unary_centralizer(structure, mode):
    """A negative verdict's witness is pp-definable, so every unary table
    that commutes with the generators preserves it."""
    verdict = decide_sdc(structure, mode, verify=0)
    if not verdict.holds:
        for f in centralizer_slice(generators(structure, mode), 1):
            assert preserves(f, verdict.witness)[0], (structure, mode, f)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(down_set_lattices())
def test_negative_witnesses_are_closed_under_the_centralizer_on_down_set_lattices(lattice):
    _assert_witness_is_closed_under_the_unary_centralizer(lattice, "lattice")


@settings(derandomize=True, deadline=None, max_examples=25)
@given(intersection_closed_families())
def test_negative_witnesses_are_closed_under_the_centralizer_on_closure_systems(semilattice):
    _assert_witness_is_closed_under_the_unary_centralizer(semilattice, "semilattice")
    if semilattice.top is not None and semilattice.size <= 8:
        _assert_witness_is_closed_under_the_unary_centralizer(
            semilattice_to_lattice(semilattice), "lattice")


def test_decide_sdc_accepts_lattices_in_semilattice_mode():
    verdict = decide_sdc(C3, "semilattice")
    assert verdict.holds and verdict.route == "distributive-semilattice"


def test_semilattice_mode_builds_the_completion_once_per_lattice(monkeypatch):
    completions = []

    def counted(semilattice):
        completions.append(semilattice)
        return semilattice_to_lattice(semilattice)

    monkeypatch.setattr("latclone.lattice.semilattice_to_lattice", counted)
    for fresh, holds in ((catalog.boolean_lattice(3), True), (catalog.pentagon(), False)):
        for _ in range(2):
            assert decide_sdc(fresh, "semilattice", verify=0).holds is holds
        assert completions == [catalog.meet_reduct(fresh)]
        completions.clear()


def test_verdict_json_is_stable():
    one = decide_sdc(N5, "lattice", verify=5, seed=11).to_json()
    two = decide_sdc(N5, "lattice", verify=5, seed=11).to_json()
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)
    assert one["holds"] is False
    assert one["route"] == "non-distributive-lattice"
    assert one["seed"] == 11
    assert one["witness"]["arity"] == 2
    assert one["gapTuple"] is not None


def test_verify_zero_skips_verification():
    verdict = decide_sdc(B2, "lattice", verify=0)
    assert verdict.holds and not verdict.verified and verdict.qe_samples == 0


@pytest.mark.parametrize("field", ["verify", "limit"])
@pytest.mark.parametrize("bad", [True, 1.5, None, "5", -3])
def test_malformed_verify_and_limit_are_refused(field, bad):
    # on B2 verify counts round trips, on C3 limit bounds the witness's slice
    for structure in (B2, C3):
        with pytest.raises(BadSpec, match=f"^{field} "):
            decide_sdc(structure, "lattice", **{field: bad})
    samples = decide_sdc(B2, "lattice", verify=np.int64(2)).to_json()["qeSamples"]
    assert type(samples) is int and samples == 2


def _one_atom_short(eliminate):
    """The eliminator with the first atom of each output dropped."""
    def broken(phi, structure):
        out = eliminate(phi, structure)
        return PPFormula(free_vars=out.free_vars, bound_vars=out.bound_vars,
                         atoms=out.atoms[1:])
    return broken


@pytest.mark.parametrize("mode", ["lattice", "semilattice"])
def test_the_factor_round_trip_catches_an_eliminator_that_drops_an_atom(monkeypatch, mode):
    # B3 and its meet reduct are Boolean powers: the round trip compares
    # masks over the two-element factor instead of relations over B3
    name = "eliminate_boolean" if mode == "lattice" else "eliminate_semilattice"
    monkeypatch.setattr(sdc, name, _one_atom_short(getattr(sdc, name)))
    structure = B3 if mode == "lattice" else catalog.meet_reduct(B3)
    with pytest.raises(RuntimeError, match="eliminated formula defines a different relation"):
        decide_sdc(structure, mode)


@pytest.mark.parametrize("mode", ["lattice", "semilattice"])
def test_the_grid_round_trip_catches_an_eliminator_that_drops_an_atom(monkeypatch, mode):
    # C2 is Boolean but not a power 2^k with k >= 2, and C3 is no Boolean
    # power at all: the round trip compares masks over the structure itself
    name = "eliminate_boolean" if mode == "lattice" else "eliminate_semilattice"
    monkeypatch.setattr(sdc, name, _one_atom_short(getattr(sdc, name)))
    structure = catalog.chain(2) if mode == "lattice" else C3
    with pytest.raises(RuntimeError, match="eliminated formula defines a different relation"):
        decide_sdc(structure, mode)


POSITIVE = {"lattice": [catalog.chain(2), catalog.boolean_lattice(2), B3],
            "semilattice": [C3, catalog.chain(4), catalog.meet_reduct(B3),
                            catalog.boolean_lattice(2)]}


@pytest.mark.parametrize("mode", ["lattice", "semilattice"])
def test_no_positive_round_trip_builds_a_relation(monkeypatch, mode):
    def refused(phi, algebra):
        raise AssertionError("eval_formula called")

    monkeypatch.setattr(sdc, "eval_formula", refused)
    for structure in POSITIVE[mode]:
        verdict = decide_sdc(structure, mode)
        assert verdict.holds and verdict.verified and verdict.qe_samples == 25


def test_the_witness_is_built_once_per_structure_and_mode(monkeypatch):
    built = []
    evaluate = sdc.eval_formula
    monkeypatch.setattr(sdc, "eval_formula",
                        lambda phi, algebra: built.append(phi) or evaluate(phi, algebra))
    for make, mode in ((lambda: catalog.chain(3), "lattice"), (catalog.pentagon, "lattice"),
                       (catalog.pentagon, "semilattice"), (catalog.fence, "semilattice")):
        fresh = make()
        first, second = (decide_sdc(fresh, mode, verify=0) for _ in range(2))
        assert first.witness is second.witness and len(built) == 1
        built.clear()


FAMILY_NEGATIVES = [(C3, "lattice"), (C4, "lattice"), (N5, "semilattice"), (M3, "semilattice"),
                    (FENCE, "semilattice")]


def test_negative_verdicts_with_a_family_are_verified_without_a_slice(monkeypatch):
    # the gap is read off the two-element factor, so no slice is built and
    # even limit 0 leaves the verdict proved; it is the slice route's gap
    expected = []
    for structure, mode in FAMILY_NEGATIVES:
        semilattice = structure if mode == "lattice" else catalog.meet_reduct(structure)
        witness = decide_sdc(structure, mode, verify=0).witness
        closure = equations_of(witness, generators(semilattice, mode)).closure()
        expected.append(gap_tuple(closure, witness))

    def refused(*args, **kwargs):
        raise AssertionError("clone_slice called")

    monkeypatch.setattr(operations, "clone_slice", refused)
    monkeypatch.setattr(equations, "clone_slice", refused)
    for (structure, mode), gap in zip(FAMILY_NEGATIVES, expected):
        verdict = decide_sdc(structure, mode, limit=0)
        assert not verdict.holds and verdict.verified
        assert gap is not None and verdict.gap_tuple == gap
    with pytest.raises(AssertionError, match="clone_slice called"):
        decide_sdc(N5, "lattice")


@pytest.mark.parametrize("structure, mode, match", [
    (B2, "boolean", "unknown mode 'boolean'"),
    (FENCE, "lattice", "lattice mode needs a lattice"),
    (catalog.meet_reduct(B2), "lattice", "lattice mode needs a lattice"),
], ids=["unknown-mode", "fence-lattice-mode", "reduct-lattice-mode"])
def test_refusals(structure, mode, match):
    with pytest.raises(BadSpec, match=match):
        decide_sdc(structure, mode)
