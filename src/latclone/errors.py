"""Exception hierarchy.

Two branches matter to callers: InputError covers malformed or inconsistent
input (CLI exit status 1), Refusal covers valid input that the requested
operation is undefined for, such as quantifier elimination on a lattice that
is not Boolean (CLI exit status 2).
"""


class LatcloneError(Exception):
    """Base class for all errors raised by this package."""


class InputError(LatcloneError):
    """Malformed, inconsistent or out-of-range input."""


class BadSpec(InputError):
    """Structure description is unusable: duplicate labels, cover cycles, bad shapes."""


class NotALattice(InputError):
    """Some pair of elements has no greatest lower or least upper bound."""


class AxiomViolation(InputError):
    """A table fails idempotence, commutativity, associativity or absorption."""


class ArityMismatch(InputError):
    pass


class BadIndex(InputError):
    pass


class FormulaSyntaxError(InputError):
    """Formula text does not match the DSL grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(InputError):
    pass


class JoinInSemilatticeMode(InputError):
    """A join occurred where only meet terms are allowed."""


class Refusal(LatcloneError):
    """The input is valid but the operation is not defined for it."""


class NoGreatestElement(Refusal):
    pass


class NotDistributive(Refusal):
    pass


class NotBoolean(Refusal):
    pass


class IsDistributive(Refusal):
    pass


class IsBoolean(Refusal):
    pass


class IsDistributiveSemilattice(Refusal):
    pass


class LimitExceeded(Refusal):
    """An enumeration grew past its configured limit before reaching a fixpoint."""


# Default limits of the enumerations that raise LimitExceeded.
DEFAULT_CLONE_LIMIT = 100_000
DEFAULT_CENTRALIZER_LIMIT = 100_000
DEFAULT_CLOSURE_LIMIT = 1_000_000
