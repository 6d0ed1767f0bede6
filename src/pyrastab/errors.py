"""Exception taxonomy.

Two families matter downstream: :class:`InputError` (the problem statement
itself is unusable) and :class:`NumericalError` (the analysis could not
certify a result).  The CLI maps them to distinct exit codes.
"""

from __future__ import annotations

__all__ = [
    "PyrastabError",
    "InputError",
    "NumericalError",
    "RootCountError",
    "ContinuationError",
    "SingularMonodromyError",
    "InconclusiveMultiplicityError",
    "CrossCheckError",
]


class PyrastabError(Exception):
    pass


class InputError(PyrastabError, ValueError):
    """Malformed or inconsistent user input (schema, shapes, residuals)."""


class NumericalError(PyrastabError, ArithmeticError):
    """An analysis failed to produce a certified answer."""


class RootCountError(NumericalError):
    """Argument-principle count and extracted roots disagree: certified
    roots hold more zeros than the count, or subdivision cannot account for
    it; carries the offending region in the message."""


class ContinuationError(NumericalError):
    """Root/multiplier matching along a parameter path broke down below the
    minimum step size."""


class SingularMonodromyError(NumericalError):
    """Monodromy matrix has an eigenvalue numerically indistinguishable
    from zero; no logarithm exists."""


class InconclusiveMultiplicityError(NumericalError):
    """Geometric multiplicity estimate changed under grid refinement; the
    discretization does not certify a value."""


class CrossCheckError(NumericalError):
    """The two independent delay-monodromy constructions disagree beyond
    tolerance (grid too coarse)."""
