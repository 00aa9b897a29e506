"""Exception hierarchy shared by every slpforge module.

All library errors derive from SlpforgeError so callers can catch one
type at the boundary.  Parse errors carry the offending line number.
"""

from __future__ import annotations


class SlpforgeError(Exception):
    """Base class for all errors raised by this package."""


class ParamError(SlpforgeError):
    """A constructor or builder received an invalid parameter."""


class RingMismatch(SlpforgeError):
    """Two scalars or objects over different coefficient rings were combined."""


class ModeMismatch(SlpforgeError):
    """Commutative and noncommutative objects were mixed."""


class BadOperandLayer(SlpforgeError):
    """An internal gate reads a layer other than the leaves or the previous layer."""


class DanglingOutput(SlpforgeError):
    """The designated output does not refer to a gate of the circuit."""


class ArityMismatch(SlpforgeError):
    """An assignment does not provide one scalar per declared variable."""


class CapExceeded(SlpforgeError):
    """Base class for expansion cap violations."""


class TermCapExceeded(CapExceeded):
    """An intermediate sparse polynomial grew past the term cap."""


class DegreeCapExceeded(CapExceeded):
    """An intermediate monomial exceeded the degree cap."""


class CircuitSyntaxError(SlpforgeError):
    """A circuit or program file is malformed.  Carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CircuitSemanticError(SlpforgeError):
    """A circuit file parsed but refers to undefined or duplicate entities."""


class NotATree(SlpforgeError):
    """A formula node is reachable through two different parents."""


class FieldTooSmall(SlpforgeError):
    """The coefficient field has too few elements for an interpolation step."""


class CharacteristicTooSmall(SlpforgeError):
    """The field characteristic divides a factor the construction must invert."""


class BadCharacteristic(SlpforgeError):
    """The characteristic divides the multiplicity constant of an extraction."""


class DegreeBoundViolated(SlpforgeError):
    """An input polynomial exceeds its declared degree bound."""


class DegenerateRoot(SlpforgeError):
    """The root problem violates P(0, y0) = 0 or has vanishing y-derivative there."""


class UnsolvableSystem(SlpforgeError):
    """The linear system for the combination coefficients has no solution."""


class SizeBudgetExceeded(SlpforgeError):
    """A constructed program grew past its documented polynomial size budget."""


class CapacityExceeded(SlpforgeError):
    """A family builder was asked for an instance above its documented capacity."""


class NotMonotone(SlpforgeError):
    """Monomial-set analysis was applied to a circuit that is not monotone."""


class GridTooLarge(SlpforgeError):
    """The deterministic evaluation grid would exceed the configured budget."""


class InvariantViolation(SlpforgeError):
    """An internal invariant failed: a bug in slpforge, not in its input."""
