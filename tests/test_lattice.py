"""Construction, validation and structure theory of finite (semi)lattices."""

import time
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latclone import catalog, lattice
from latclone.errors import (
    AxiomViolation,
    BadSpec,
    NoGreatestElement,
    NotALattice,
)
from latclone.lattice import (
    BooleanStructure,
    FiniteLattice,
    construct,
    cover_pairs,
    forbidden_sublattice,
    from_covers,
    from_meet_table,
    is_boolean,
    is_distributive,
    is_distributive_semilattice,
    join_irreducibles,
    semilattice_to_lattice,
)

from helpers import (
    Embedding,
    brute_distributive,
    brute_glb,
    brute_lub,
    down_set_lattices,
    intersection_closed_families,
    slow_birkhoff_embed,
    slow_is_distributive_semilattice,
    slow_join_primes,
)

C2 = catalog.chain(2)
C3 = catalog.chain(3)
C4 = catalog.chain(4)
B2 = catalog.boolean_lattice(2)
B3 = catalog.boolean_lattice(3)
N5 = catalog.pentagon()
M3 = catalog.diamond()
FENCE = catalog.fence()

LATTICES = [C2, C3, C4, B2, B3, N5, M3]


def test_two_element_chain_is_min_max():
    lat = construct(["0", "1"], covers=[(0, 1)])
    assert lat.meet == ((0, 0), (0, 1))
    assert lat.join == ((0, 1), (1, 1))
    assert lat.bottom == 0 and lat.top == 1


def test_pentagon_tables_match_cover_order_brute_force():
    # recompute glb/lub directly from the cover order and compare full tables
    size = 5
    leq = [[i == j for j in range(size)] for i in range(size)]
    for lo, hi in [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]:
        leq[lo][hi] = True
    for k in range(size):
        for i in range(size):
            for j in range(size):
                if leq[i][k] and leq[k][j]:
                    leq[i][j] = True
    for a in range(size):
        for b in range(size):
            assert N5.meet[a][b] == brute_glb(leq, size, a, b)
            assert N5.join[a][b] == brute_lub(leq, size, a, b)


def test_missing_lub_is_not_a_lattice():
    # two minimal upper bounds for the atoms
    with pytest.raises(NotALattice):
        from_covers(["0", "a", "b", "c", "d"],
                    [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4)])
    # a valid meet table whose order has no top cannot yield joins
    with pytest.raises(NotALattice):
        from_meet_table(FENCE.names, FENCE.meet, kind="lattice")


def test_bad_specs():
    with pytest.raises(BadSpec):
        construct(["x", "x"], covers=[(0, 1)])
    with pytest.raises(BadSpec):
        from_covers(["a", "b"], [(0, 1), (1, 0)])  # cycle
    with pytest.raises(BadSpec):
        construct(["a"], covers=None, meet=None)
    with pytest.raises(BadSpec):
        from_covers(["a", "b"], [(0, 5)])


@pytest.mark.parametrize("bad", [True, "1", 1.2, 1.0])
def test_meet_table_entries_must_be_integers(bad):
    with pytest.raises(BadSpec, match="not an integer"):
        from_meet_table(["0", "1"], [[0, 0], [0, bad]], kind="semilattice")
    with pytest.raises(BadSpec, match="not an integer"):
        construct(["0", "1"], meet=[[0, 0], [0, bad]])
    with pytest.raises(BadSpec, match="not an integer"):
        BooleanStructure(B2, (3, 2, 1, bad))  # a complement map is a table of elements too


@pytest.mark.parametrize("bad", [True, 1.0, None])
def test_cover_entries_must_be_labels_or_integers(bad):
    with pytest.raises(BadSpec, match="not an integer"):
        from_covers(["0", "1"], [(0, bad)])


def test_cover_entries_may_mix_labels_and_indices():
    assert from_covers(["0", "m", "1"], [("0", 1), (1, "1")]).meet == catalog.chain(3).meet
    with pytest.raises(BadSpec, match="unknown element"):
        from_covers(["0", "1"], [("0", "2")])


def test_axiom_violations_are_rejected():
    with pytest.raises(AxiomViolation):
        from_meet_table(["0", "1"], [[0, 1], [0, 1]], kind="semilattice")
    with pytest.raises(AxiomViolation):
        # idempotence failure
        from_meet_table(["0", "1"], [[1, 0], [0, 1]], kind="semilattice")


def test_size_cap_is_configurable():
    names = [str(i) for i in range(17)]
    covers = [(i, i + 1) for i in range(16)]
    with pytest.raises(BadSpec):
        from_covers(names, covers)
    assert from_covers(names, covers, max_size=17).size == 17


def test_order_agreement_on_all_fixtures():
    for lat in LATTICES:
        for a in range(lat.size):
            for b in range(lat.size):
                meet_leq = lat.meet[a][b] == a
                join_leq = lat.join[a][b] == b
                assert meet_leq == join_leq == lat.leq(a, b)


def test_cover_pairs_regenerate_the_structure():
    for lat in LATTICES:
        rebuilt = from_covers(lat.names, cover_pairs(lat))
        assert rebuilt.meet == lat.meet
        assert rebuilt.join == lat.join


def test_distributivity_verdicts():
    assert is_distributive(C3) == (True, None)
    verdict, triple = is_distributive(N5)
    assert not verdict
    x, y, z = triple
    assert N5.meet[x][N5.join[y][z]] != N5.join[N5.meet[x][y]][N5.meet[x][z]]
    assert not is_distributive(M3)[0]
    for lat in LATTICES:
        assert is_distributive(lat)[0] == brute_distributive(lat)


def test_forbidden_sublattice_agrees_with_distributivity():
    for lat in LATTICES:
        found = forbidden_sublattice(lat)
        assert (found is None) == is_distributive(lat)[0]


def test_forbidden_sublattice_shapes():
    assert forbidden_sublattice(B3) is None
    kind, elements = forbidden_sublattice(N5)
    assert kind == "N5" and elements == (0, 1, 2, 3, 4)
    kind, elements = forbidden_sublattice(M3)
    assert kind == "M3" and elements == (0, 1, 2, 3, 4)


def test_forbidden_sublattice_is_read_back_after_is_distributive(monkeypatch):
    host = from_covers(["0", "p", "q", "r", "s", "1"],
                       [(0, 1), (1, 2), (2, 5), (0, 4), (4, 3), (3, 5)])
    searched = [(lat, lattice._forbidden_scan(lat))
                for lat in [*(construct(l.names, meet=l.meet) for l in LATTICES), host]]
    for lat, _ in searched:
        is_distributive(lat)

    def no_search(*args):
        raise AssertionError("forbidden_sublattice searched again")

    monkeypatch.setattr(lattice, "_sublattice_shape", no_search)
    for lat, found in searched:
        assert forbidden_sublattice(lat) == found


def test_forbidden_sublattice_matches_the_scan_on_uncached_lattices():
    host = from_covers(["0", "p", "q", "r", "s", "1"],
                       [(0, 1), (1, 2), (2, 5), (0, 4), (4, 3), (3, 5)])
    for lat in [*LATTICES, host]:
        fresh = construct(lat.names, meet=lat.meet)
        assert forbidden_sublattice(fresh) == lattice._forbidden_scan(lat)


def test_forbidden_sublattice_on_an_uncached_distributive_lattice_is_fast():
    size = 32
    b5 = FiniteLattice([str(m) for m in range(size)],
                       [[a & b for b in range(size)] for a in range(size)],
                       [[a | b for b in range(size)] for a in range(size)], max_size=64)
    started = time.perf_counter()
    assert forbidden_sublattice(b5) is None  # no C(32,5) walk
    assert time.perf_counter() - started < 0.1


def test_forbidden_sublattice_in_larger_host():
    # two glued chains: 0 < p < q < 1 and 0 < s < r < 1
    host = from_covers(["0", "p", "q", "r", "s", "1"],
                       [(0, 1), (1, 2), (2, 5), (0, 4), (4, 3), (3, 5)])
    kind, elements = forbidden_sublattice(host)
    assert kind == "N5"
    assert elements == (0, 1, 2, 3, 5)  # lexicographically least pentagon
    subset = set(elements)
    for a, b in combinations(elements, 2):
        assert host.meet[a][b] in subset and host.join[a][b] in subset


def _assert_distributivity_routes_agree(lat):
    """The law scan, the join-prime certificate, the C(n,5) sublattice search
    and the brute-force law check give one verdict; is_distributive reports
    and caches what the routes found, and on a distributive lattice the
    cached join-primes and images are Birkhoff's embedding."""
    verdict, triple = lattice._distributivity_scan(lat)
    primes, images = lattice._join_prime_certificate(lat)
    found = lattice._forbidden_scan(lat)  # the full search, no cache read
    separated = len(set(images)) == lat.size
    assert verdict == separated == (found is None) == brute_distributive(lat)
    assert primes == slow_join_primes(lat)
    assert set(primes) <= set(join_irreducibles(lat))
    assert is_distributive(lat) == (verdict, triple)
    assert forbidden_sublattice(lat) == found
    if verdict:
        assert primes == join_irreducibles(lat)
        *_, cached_primes, cached_images = lat._distributive_cache
        emb, oracle = Embedding(lat, cached_primes, cached_images), slow_birkhoff_embed(lat)
        assert (emb.atoms, emb.image) == (oracle.atoms, oracle.image)
    else:
        x, y, z = triple
        assert lat.meet[x][lat.join[y][z]] != lat.join[lat.meet[x][y]][lat.meet[x][z]]
        assert all(lat.meet[a][lat.join[b][c]] == lat.join[lat.meet[a][b]][lat.meet[a][c]]
                   for a, b, c in product(range(lat.size), repeat=3) if (a, b, c) < triple)


def _relabelled(lat, perm):
    """The lattice with element i renumbered perm[i]."""
    inverse = sorted(range(lat.size), key=perm.__getitem__)
    return FiniteLattice([lat.names[i] for i in inverse],
                         [[perm[lat.meet[a][b]] for b in inverse] for a in inverse],
                         [[perm[lat.join[a][b]] for b in inverse] for a in inverse])


def test_distributivity_routes_agree_on_the_catalog():
    host = from_covers(["0", "p", "q", "r", "s", "1"],
                       [(0, 1), (1, 2), (2, 5), (0, 4), (4, 3), (3, 5)])
    for lat in [*LATTICES, host]:
        _assert_distributivity_routes_agree(construct(lat.names, meet=lat.meet))
        # top, bottom and the middle elements at other indices
        _assert_distributivity_routes_agree(_relabelled(lat, [*range(1, lat.size), 0]))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(down_set_lattices(), st.data())
def test_distributivity_routes_agree_on_down_set_lattices(lat, data):
    _assert_distributivity_routes_agree(_relabelled(lat, data.draw(st.permutations(range(lat.size)))))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(intersection_closed_families(), st.data())
def test_distributivity_routes_agree_on_closure_system_completions(semilattice, data):
    if semilattice.top is not None:
        lat = semilattice_to_lattice(semilattice)
        _assert_distributivity_routes_agree(_relabelled(lat, data.draw(st.permutations(range(lat.size)))))


@pytest.mark.parametrize("lat, wrong", [(N5, (True, None)), (B2, (False, (0, 0, 0)))])
def test_a_law_scan_the_certificate_contradicts_is_an_internal_error(monkeypatch, lat, wrong):
    monkeypatch.setattr(lattice, "_distributivity_scan", lambda _: wrong)
    with pytest.raises(RuntimeError, match="disagree"):
        is_distributive(construct(lat.names, meet=lat.meet))


def test_is_distributive_on_large_distributive_lattices_is_fast():
    size = 64
    b6 = FiniteLattice([str(m) for m in range(size)],
                       [[a & b for b in range(size)] for a in range(size)],
                       [[a | b for b in range(size)] for a in range(size)], max_size=64)
    c32 = from_covers([str(i) for i in range(32)], [(i, i + 1) for i in range(31)], max_size=64)
    for lat in (b6, c32):
        started = time.perf_counter()
        assert is_distributive(lat) == (True, None)
        assert time.perf_counter() - started < 0.1
    assert b6._distributive_cache[3] == [1, 2, 4, 8, 16, 32]  # the join-primes
    assert c32._distributive_cache[3] == list(range(1, 32))


def test_boolean_verdicts():
    verdict, structure = is_boolean(B2)
    assert verdict
    assert structure.complement == (3, 2, 1, 0)
    assert is_boolean(C3) == (False, None)
    # C3's middle element really has no complement
    assert not any(C3.meet[1][y] == 0 and C3.join[1][y] == 2 for y in range(3))
    assert is_boolean(M3)[0] is False  # complemented but not distributive


def test_boolean_structure_validation():
    with pytest.raises(AxiomViolation):
        BooleanStructure(B2, (0, 1, 2, 3))  # identity is not a complement map
    with pytest.raises(AxiomViolation):
        BooleanStructure(B2, (3, 2, 0, 1))  # not an involution
    with pytest.raises(BadSpec, match="3.9 is not an integer"):
        BooleanStructure(B2, [3.9, 2.2, 1.5, 0.1])  # not truncated to (3, 2, 1, 0)


def test_join_irreducibles_of_boolean_cube_are_atoms():
    assert join_irreducibles(B3) == [1, 2, 4]


def test_semilattice_to_lattice_roundtrip():
    for lat in LATTICES:
        rebuilt = semilattice_to_lattice(catalog.meet_reduct(lat))
        assert rebuilt.join == lat.join
    with pytest.raises(NoGreatestElement):
        semilattice_to_lattice(FENCE)


def test_semilattice_distributivity():
    for lat in [C3, C4, B2, B3, catalog.boolean_lattice(4)]:
        assert is_distributive_semilattice(catalog.meet_reduct(lat))
    for semilattice in [catalog.meet_reduct(N5), catalog.meet_reduct(M3), FENCE]:
        assert not is_distributive_semilattice(semilattice)
        assert not slow_is_distributive_semilattice(semilattice)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(intersection_closed_families())
def test_semilattice_distributivity_matches_the_scan(semilattice):
    assert is_distributive_semilattice(semilattice) == slow_is_distributive_semilattice(semilattice)


def test_semilattice_verdict_is_decided_once_per_object(monkeypatch):
    completions = []
    real = lattice.semilattice_to_lattice

    def counted(semilattice):
        completions.append(semilattice)
        return real(semilattice)

    monkeypatch.setattr(lattice, "semilattice_to_lattice", counted)
    # fresh lattices: meet_reduct keeps one reduct, verdict cached, per lattice object
    for lat, verdict in [(catalog.boolean_lattice(3), True), (catalog.pentagon(), False)]:
        reduct = catalog.meet_reduct(lat)
        assert is_distributive_semilattice(reduct) is verdict
        assert is_distributive_semilattice(reduct) is verdict
        assert completions == [reduct]
        completions.clear()


def test_fence_shape():
    assert FENCE.top is None
    assert FENCE.bottom == 0
    maximal = [x for x in range(FENCE.size)
               if all(not FENCE.leq(x, y) for y in range(FENCE.size) if y != x)]
    assert maximal == [2, 3]
