"""Typed exceptions shared across the toolkit.

Every error that a caller can act on has its own class; bare asserts are
reserved for conditions that indicate a bug in this library itself (those
raise InternalConsistencyError so they can be caught by the test harness).
"""

from __future__ import annotations


class CscxError(Exception):
    """Base class for all toolkit errors."""


class RingMismatchError(CscxError):
    """Operands belong to different coefficient rings."""


class InvalidAxisError(CscxError):
    """A coordinate axis or variable index is out of range for the chart."""


class UnsupportedRingOperationError(CscxError):
    """Operation not defined on this ring (e.g. a coordinate monomial in the Fourier ring)."""


class ChartMismatchError(CscxError):
    """Forms or operators from different charts were combined."""


class DegreeError(CscxError):
    """A form degree precondition was violated (e.g. contraction underflow)."""


class ReebInvarianceError(CscxError):
    """A form expected to be invariant along the transversal field is not."""


class ContactConditionError(CscxError):
    """The candidate one-form fails the contact condition."""


class CsPotentialError(CscxError):
    """The candidate potential is not a cs potential (its differential is degenerate)."""


class CsStructureError(CscxError):
    """The two-form does not define a usable cs structure on this chart."""


class CsCompatibilityError(CscxError):
    """A substitution does not intertwine the two cs structures up to scale."""


class NonPrimitiveError(CscxError):
    """An element expected to lie in a primitive subspace does not."""


class BasisMismatchError(CscxError):
    """Operator matrices over incompatible bases were combined."""


class NotAComplexError(CscxError):
    """Consecutive differentials do not compose to zero."""

    def __init__(self, position: int, message: str = ""):
        self.position = position
        super().__init__(message or f"composition at position {position} is nonzero")


class ConfigError(CscxError):
    """Invalid run configuration (CLI exit code 2)."""


class InternalConsistencyError(CscxError):
    """A condition the theory guarantees failed; indicates a bug, not bad input."""
