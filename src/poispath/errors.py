"""Exception types shared across the package, and the gate that every
finiteness and bound check goes through.

The CLI maps these onto exit codes: bad input and failed validation exit
with 2, numerical failures (quadrature, ODE, degenerate geometry) with 3.

The gate fails closed: a value passes only when ``value <= bound`` is true,
so a NaN fails, and an array passes only when every entry is finite.
"""

import numpy as np


class PoispathError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PoispathError):
    """Expression text could not be parsed.

    Carries the byte offset of the offending token in ``offset``.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalDomainError(PoispathError):
    """Evaluation left the domain: division by zero, log of a non-positive
    number, a non-finite intermediate, or an unbound parameter."""


class ValidationError(PoispathError):
    """Input data violated a structural contract (failed Jacobi gate,
    covector not in the anchor kernel, invalid splitting, bad JSON)."""


class NumericalError(PoispathError):
    """A numerical procedure failed to meet its tolerance: ODE blow-up,
    non-convergent quadrature, degenerate transverse displacement."""


def require_finite(values, message, exc=NumericalError):
    """Raise exc(message) unless every entry of values is finite."""
    if not np.all(np.isfinite(values)):
        raise exc(message)


def require_within(value, bound, message, exc=ValidationError):
    """Raise exc(message) unless value <= bound; a NaN on either side fails."""
    if not value <= bound:
        raise exc(message)
