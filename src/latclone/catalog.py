"""Small standard structures used in tests, docs and experiments."""

from .lattice import FiniteLattice, FiniteSemilattice, from_covers


def chain(n: int) -> FiniteLattice:
    """The n-element chain 0 < 1 < ... < n-1."""
    names = [str(i) for i in range(n)]
    return from_covers(names, [(i, i + 1) for i in range(n - 1)])


def boolean_lattice(k: int) -> FiniteLattice:
    """The powerset of k atoms; element index i is the subset with bitmask i."""
    size = 1 << k
    letters = "abcdefgh"[:k]

    def name(mask):
        return "".join(letters[i] for i in range(k) if mask >> i & 1) or "0"

    names = [name(m) for m in range(size)]
    meet = [[a & b for b in range(size)] for a in range(size)]
    join = [[a | b for b in range(size)] for a in range(size)]
    return FiniteLattice(names, meet, join)


def pentagon() -> FiniteLattice:
    """N5: 0 < p < q < 1 and 0 < r < 1 with r incomparable to p and q."""
    return from_covers(["0", "p", "q", "r", "1"],
                       [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])


def diamond() -> FiniteLattice:
    """M3: three pairwise-incomparable atoms between 0 and 1."""
    return from_covers(["0", "a", "b", "c", "1"],
                       [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def fence() -> FiniteSemilattice:
    """Top-free 4-element meet-semilattice: 0 < a < c and 0 < b."""
    return from_covers(["0", "a", "b", "c"], [(0, 1), (1, 3), (0, 2)],
                       kind="semilattice")


def meet_reduct(lattice: FiniteLattice) -> FiniteSemilattice:
    """Forget the join of a lattice.

    Structures are immutable, so the reduct is built once per lattice object
    and kept on it; the verdicts cached on the reduct then outlive the call.
    """
    reduct = getattr(lattice, "_meet_reduct", None)
    if reduct is None:
        reduct = lattice._meet_reduct = FiniteSemilattice(lattice.names, lattice.meet)
    return reduct
