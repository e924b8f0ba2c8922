"""Exception types shared across the package.

The CLI maps these onto exit codes: bad input and failed validation exit
with 2, numerical failures (quadrature, ODE, degenerate geometry) with 3.
"""


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
