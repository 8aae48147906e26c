"""Exact computations with equations, clones and quantifier elimination
over finite lattices and semilattices.

The public names load their home module on first access (PEP 562), so a
process that needs only the lattice layer never imports numpy. Nothing is
cached in this namespace: each access reads the home module's attribute.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "equations": ("EquationSystem", "EqTheory", "equations_of", "galois_closure",
                  "is_solution_set", "solve"),
    "formulas": ("PPFormula", "eval_formula", "parse_formula", "random_formula"),
    "lattice": ("BooleanStructure", "FiniteLattice", "FiniteSemilattice", "construct",
                "forbidden_sublattice", "is_boolean", "is_distributive",
                "is_distributive_semilattice", "semilattice_to_lattice"),
    "operations": ("OpTable", "Relation", "centralizer_slice", "clone_slice", "closure_under",
                   "preserves", "projection"),
    "qe": ("IneqItem", "IneqSystem", "eliminate_boolean", "eliminate_semilattice",
           "helly_condition", "residuate", "to_inequalities"),
    "sdc": ("SdcVerdict", "decide_sdc", "witness_boolean_gap", "witness_lattice_pair",
            "witness_semilattice"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
