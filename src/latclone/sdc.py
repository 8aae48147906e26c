"""Deciding whether solution sets over a structure admit a closure description.

A structure has the property exactly when every set of tuples closed under
the centralizer of its clone is the solution set of some equation system.
For lattices this holds precisely for Boolean lattices; for meet-semilattices
precisely for distributive ones. Negative verdicts are certified by an
explicitly constructed witness relation: it is definable by an existential
formula over single-equation relations (hence closed under the centralizer)
but its equation-theory closure is strictly larger. Positive verdicts are
spot-checked by seeded quantifier elimination round-trips.
"""

import random
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import terms
from .catalog import meet_reduct
from .equations import is_solution_set
from .errors import (
    BadSpec,
    IsBoolean,
    IsDistributive,
    IsDistributiveSemilattice,
    NotDistributive,
)
from .formulas import PPFormula, _defining_mask, eval_formula, random_formula
from .lattice import as_count, is_boolean, is_distributive, is_distributive_semilattice
from .operations import DEFAULT_CLONE_LIMIT, generators
from .qe import eliminate_boolean, eliminate_semilattice


@dataclass
class SdcVerdict:
    """Outcome of the decision plus the evidence backing it."""

    holds: bool
    route: str
    witness: object = None       # Relation for negative verdicts
    gap_tuple: tuple = None      # tuple in the closure of the witness but not in it
    qe_samples: int = 0          # round-trip count for positive verdicts
    seed: int = 0
    verified: bool = False

    def to_json(self):
        payload = {
            "holds": self.holds,
            "route": self.route,
            "qeSamples": self.qe_samples,
            "seed": self.seed,
            "verified": self.verified,
        }
        if self.witness is not None:
            payload["witness"] = {"arity": self.witness.arity,
                                  "tuples": [list(t) for t in self.witness]}
        if self.gap_tuple is not None:
            payload["gapTuple"] = list(self.gap_tuple)
        return payload


def _pair_witness_formula() -> PPFormula:
    """(x, y) such that some u has u /\\ x = u /\\ y and u \\/ x = u \\/ y."""
    x, y, u = terms.Var("x"), terms.Var("y"), terms.Var("u")
    return PPFormula(
        free_vars=("x", "y"), bound_vars=("u",),
        atoms=((terms.Meet(u, x), terms.Meet(u, y)),
               (terms.Join(u, x), terms.Join(u, y))))


def _median_excess_formula() -> PPFormula:
    """(x, y, z) such that some u absorbs into both bounding sums.

    The two atoms say p(x,y,z,u) equals the join of all four variables and
    its dual q equals the meet of all four, where p joins all six pairwise
    meets. Over a distributive lattice the only possible witness u is the
    ternary symmetric difference taken in the Boolean envelope, so the
    relation holds exactly when that element exists in the lattice.
    """
    x, y, z, u = (terms.Var(v) for v in "xyzu")
    pairs = [(x, y), (x, z), (y, z), (u, x), (u, y), (u, z)]
    p = reduce(terms.Join, [terms.Meet(a, b) for a, b in pairs])
    q = reduce(terms.Meet, [terms.Join(a, b) for a, b in pairs])
    all_join = reduce(terms.Join, [x, y, z, u])
    all_meet = reduce(terms.Meet, [x, y, z, u])
    return PPFormula(free_vars=("x", "y", "z"), bound_vars=("u",),
                     atoms=((p, all_join), (q, all_meet)))


def _topless_witness_formula() -> PPFormula:
    """(x, y) with a common upper bound u."""
    x, y, u = terms.Var("x"), terms.Var("y"), terms.Var("u")
    return PPFormula(free_vars=("x", "y"), bound_vars=("u",),
                     atoms=((terms.Meet(x, u), x), (terms.Meet(y, u), y)))


def _meet_witness_formula() -> PPFormula:
    """(x, y, z) such that some u >= x, z has x /\\ y = u /\\ y."""
    x, y, z, u = (terms.Var(v) for v in "xyzu")
    return PPFormula(
        free_vars=("x", "y", "z"), bound_vars=("u",),
        atoms=((terms.Meet(x, y), terms.Meet(u, y)),
               (terms.Meet(u, x), x),
               (terms.Meet(u, z), z)))


def witness_lattice_pair(lattice):
    """The binary witness relation of a non-distributive lattice.

    Pairs (x, y) merged by some u from both sides. Contains the diagonal and
    the incomparable pairs of a pentagon or diamond but never (bottom, top),
    while only trivial equations hold on it.
    """
    if is_distributive(lattice)[0]:
        raise IsDistributive("the pair witness needs a non-distributive lattice")
    return eval_formula(_pair_witness_formula(), lattice)


def witness_boolean_gap(lattice):
    """The ternary witness relation of a distributive non-Boolean lattice.

    Membership of (x, y, z) forces the witness u to be the ternary symmetric
    difference computed in the Boolean envelope, so the relation is proper
    exactly when some symmetric difference escapes the lattice.
    """
    distributive, _ = is_distributive(lattice)
    if not distributive:
        raise NotDistributive("the gap witness needs a distributive lattice")
    if is_boolean(lattice)[0]:
        raise IsBoolean("a Boolean lattice leaves no gap to witness")
    return eval_formula(_median_excess_formula(), lattice)


def witness_semilattice(structure):
    """The witness relation of a non-distributive meet-semilattice.

    Without a greatest element: pairs with a common upper bound (arity 2).
    With one: triples (x, y, z) where some u above x and z merges x into y
    (arity 3); on these the only nontrivial equation is y /\\ z = x /\\ y /\\ z.
    """
    semilattice = structure if structure.kind == "semilattice" else meet_reduct(structure)
    if is_distributive_semilattice(semilattice):
        raise IsDistributiveSemilattice("the semilattice witness needs non-distributivity")
    if semilattice.top is None:
        return eval_formula(_topless_witness_formula(), semilattice)
    return eval_formula(_meet_witness_formula(), semilattice)


def _verify_negative(witness, structure, mode, limit):
    gens = generators(structure, mode)
    verdict, evidence = is_solution_set(witness, gens, limit=limit)
    if verdict is None:
        return False, None
    if verdict:
        raise RuntimeError("witness relation is unexpectedly a solution set")
    return True, evidence


def _same_relation(phi, psi, structure):
    """Whether two formulas define the same relation over the structure.

    Their masks decide it (over the two-element factor on a Boolean power,
    as ints on two elements); neither relation is built.
    """
    left, right = _defining_mask(phi, structure), _defining_mask(psi, structure)
    return left == right if isinstance(left, int) else np.array_equal(left, right)


def _verify_positive(structure, mode, samples, seed):
    rng = random.Random(seed)
    for _ in range(samples):
        phi = random_formula(rng, mode=mode)
        if mode == "lattice":
            out = eliminate_boolean(phi, structure)
        else:
            out = eliminate_semilattice(phi, structure)
        if out.bound_vars:
            raise RuntimeError("eliminator left a quantifier behind")
        if not _same_relation(out, phi, structure):
            raise RuntimeError("eliminated formula defines a different relation")
    return samples > 0


def decide_sdc(structure, mode, verify=25, seed=0, limit=DEFAULT_CLONE_LIMIT) -> SdcVerdict:
    """Decide the closure-description property for a lattice or semilattice.

    Lattice mode answers for the clone of meet and join: yes exactly for
    Boolean lattices. Semilattice mode answers for the clone of meet alone:
    yes exactly for distributive semilattices. With verify > 0, negative
    verdicts are re-proved by showing the witness is not a solution set (the
    gap tuple is attached) and positive verdicts by that many seeded
    quantifier elimination round-trips. A verify or limit that is not a
    nonnegative integer is refused (BadSpec).
    """
    verify, limit = as_count(verify, "verify"), as_count(limit, "limit")
    if mode not in ("lattice", "semilattice"):
        raise BadSpec(f"unknown mode {mode!r}")
    if mode == "lattice":
        if structure.kind != "lattice":
            raise BadSpec("lattice mode needs a lattice")
        if is_boolean(structure)[0]:
            verdict = SdcVerdict(holds=True, route="boolean-lattice", seed=seed)
        elif not is_distributive(structure)[0]:
            verdict = SdcVerdict(holds=False, route="non-distributive-lattice", seed=seed,
                                 witness=witness_lattice_pair(structure))
        else:
            verdict = SdcVerdict(holds=False, route="distributive-non-boolean-lattice",
                                 seed=seed, witness=witness_boolean_gap(structure))
    else:
        semilattice = structure if structure.kind == "semilattice" else meet_reduct(structure)
        if is_distributive_semilattice(semilattice):
            verdict = SdcVerdict(holds=True, route="distributive-semilattice", seed=seed)
        elif semilattice.top is None:
            verdict = SdcVerdict(holds=False, route="no-top-semilattice", seed=seed,
                                 witness=witness_semilattice(semilattice))
        else:
            verdict = SdcVerdict(holds=False, route="non-distributive-semilattice", seed=seed,
                                 witness=witness_semilattice(semilattice))
        structure = semilattice
    if verify > 0:
        if verdict.holds:
            verdict.qe_samples = verify
            verdict.verified = _verify_positive(structure, mode, verify, seed)
        else:
            verdict.verified, verdict.gap_tuple = _verify_negative(
                verdict.witness, structure, mode, limit)
    return verdict
