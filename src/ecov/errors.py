"""Exception types shared across the library.

Exceptions cover operation failures (bad specs, bad constructions, resource
limits).  Structural verification of tables and certificates does not raise;
those functions return report objects describing the first violation found.
"""
from __future__ import annotations

__all__ = [
    "EcovError",
    "SpecError",
    "UnknownFamily",
    "MalformedParameter",
    "CycleNotationError",
    "BadPrimePower",
    "InvalidRawTable",
    "HintFileError",
    "ConstructionError",
    "InvalidAction",
    "NotHomomorphism",
    "NotNormal",
    "ResourceLimitExceeded",
    "OrderLimitExceeded",
    "LatticeLimitExceeded",
    "SearchBudgetExceeded",
    "UndefinedForOne",
    "InconclusiveHints",
    "RulesInconclusive",
    "UnknownFormat",
]


class EcovError(Exception):
    """Base class for all library errors."""


class SpecError(EcovError):
    """A group spec string or input file could not be understood."""


class UnknownFamily(SpecError):
    """Spec names a group family the grammar does not know."""


class MalformedParameter(SpecError):
    """Family is known but its parameters are out of range or ill-formed."""


class CycleNotationError(SpecError):
    """A permutation in cycle notation could not be parsed."""


class BadPrimePower(SpecError):
    """PSL(2,q) requires q to be a prime power within the supported range."""


class InvalidRawTable(SpecError):
    """A user-supplied Cayley table failed verification."""

    def __init__(self, code: str, witness: tuple | None = None):
        self.code = code
        self.witness = witness
        detail = f" witness={witness}" if witness is not None else ""
        super().__init__(f"invalid Cayley table: {code}{detail}")


class HintFileError(SpecError):
    """A hint file is missing required fields or contains inconsistent data."""


class ConstructionError(EcovError):
    """A group construction received invalid ingredients."""


class InvalidAction(ConstructionError):
    """A semidirect-product action is not a permutation/automorphism per part."""


class NotHomomorphism(ConstructionError):
    """A semidirect-product action is not a homomorphism into Aut(H)."""


class NotNormal(ConstructionError):
    """Quotient requested by a subgroup that is not normal (or not a subgroup)."""


class ResourceLimitExceeded(EcovError):
    """Base class for configured resource limits (CLI exit code 3)."""


class OrderLimitExceeded(ResourceLimitExceeded):
    """Group construction would exceed the configured maximum order."""


class LatticeLimitExceeded(ResourceLimitExceeded):
    """Full subgroup enumeration refused above the configured order limit."""


class SearchBudgetExceeded(ResourceLimitExceeded):
    """A search spent its work budget."""


class UndefinedForOne(EcovError):
    """smallest_prime_divisor(1) has no answer."""


class InconclusiveHints(EcovError):
    """Hint data cannot settle the decision (the hint path never proves Yes)."""


class RulesInconclusive(EcovError):
    """No decision rule fired and the exhaustive fallback was disabled."""


class UnknownFormat(EcovError):
    """Unsupported output format name."""
