"""Semantic exception hierarchy.

Input/validation problems subclass ValueError, as the stdlib convention has
it; numerical-failure classes deliberately do not. That split is the CLI's
whole exit-code rule: a ``Shapr2Error`` that is a ``ValueError`` exits 2, any
other ``Shapr2Error`` exits 3, so a new error class picks its exit code by
its bases alone.
"""


class Shapr2Error(Exception):
    """Base error for this package."""


class DegenerateInput(Shapr2Error, ValueError):
    """Input is structurally valid but statistically degenerate (e.g. zero variance)."""


class InvalidValue(Shapr2Error, ValueError):
    """Non-finite or otherwise out-of-domain value in an input."""


class ShapeError(Shapr2Error, ValueError):
    """Mismatched lengths or matrix dimensions between paired inputs."""


class InvalidMatrix(Shapr2Error, ValueError):
    """Matrix fails a structural precondition (asymmetry, non-unit diagonal)."""


class ValidationError(Shapr2Error, ValueError):
    """Malformed external input (CSV/config), with a human-readable location."""


class ModelExplainsNothing(Shapr2Error):
    """Residual variance is at least the outcome variance; the unique-variance
    ratio's denominator is non-positive."""


class FeatureCountExceeded(Shapr2Error):
    """Too many features for exact coalition enumeration; use the sampled engine."""


class SingularDesign(Shapr2Error):
    """Design matrix is rank deficient; least squares has no unique solution."""


class NoValidSplit(Shapr2Error):
    """Every feature column is constant; no stump threshold exists."""


class NonPositiveDefinite(Shapr2Error):
    """Correlation matrix is not positive definite (Cholesky pivot <= tolerance)."""


class TargetUnreachable(Shapr2Error):
    """Iteration search could not hit the requested training R^2 within tolerance."""
