"""Exception types shared across the package."""

from __future__ import annotations


class LqSpecError(Exception):
    """Base class for all package-specific errors."""


class InvalidParams(LqSpecError):
    """Family, sampling or solver parameters violate a validity constraint."""


class DomainViolation(LqSpecError):
    """A series evaluation was requested outside its convergence domain."""


class NoConvergence(LqSpecError):
    """An iterative solve ran out of budget or its result failed its certificate.

    ``evals`` is the number of evaluations spent, where the solver counts them.
    """

    def __init__(self, message: str, evals: int | None = None):
        super().__init__(message)
        self.evals = evals


class DegenerateClass(LqSpecError):
    """A communication class has no cycle and therefore carries no root."""


class NoBracket(LqSpecError):
    """A root bracket could not be established inside the domain."""


class SingularHalpha(LqSpecError):
    """The alpha-partial of the characteristic function vanishes at the root."""


class NotDifferentiable(LqSpecError):
    """tau has a kink at the requested q: its one-sided slopes differ."""


class InsufficientScales(LqSpecError):
    """Too few or too narrow box-counting scales for a regression."""


class InvalidGrid(LqSpecError):
    """A q-grid request is malformed (empty, reversed, or negative)."""


class ConfigError(LqSpecError):
    """Command-line or config-file input could not be parsed/validated."""


class SamplerBound(LqSpecError):
    """A GIFS exceeds a fixed table bound of the sampler (orientation group or vertex count)."""
