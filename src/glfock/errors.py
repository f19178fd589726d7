"""Exception types shared across the package."""

__all__ = ["ConvergenceError", "DivergenceError", "NonEntireError", "UnverifiedWeightError"]


class ConvergenceError(RuntimeError):
    """A series or quadrature failed to reach the requested tolerance."""


class DivergenceError(ValueError):
    """An evaluation point lies outside the region of convergence."""


class NonEntireError(ValueError):
    """Operation requires an entire coefficient family."""


class UnverifiedWeightError(ValueError):
    """Weight kernel used in an integral before passing its moment check."""
