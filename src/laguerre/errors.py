"""Exception hierarchy shared by all modules.

Every error raised by this package derives from LaguerreError, which is a
ValueError so that careless call sites still fail loudly.
"""


class LaguerreError(ValueError):
    """Base class for all errors raised by this package."""


class UsageError(LaguerreError):
    """Malformed arguments: wrong dimensions, bad variants, bad JSON."""


class InvalidCoordinateError(LaguerreError):
    """A vector that should be a light-like sphere coordinate is not."""


class InvalidLineError(LaguerreError):
    """A projective line that does not satisfy the contact-line invariants."""


class InvalidElementError(LaguerreError):
    """A matrix that is not (or cannot be factored inside) the group."""


class DegenerateSurfaceError(LaguerreError):
    """Umbilic point, vanishing principal curvature, curvature crossing or
    non-immersion inside the sampled grid."""


class EmbeddingDomainError(LaguerreError):
    """A pencil with no Euclidean contact element to read off: a space-form
    element outside the domain of its embedding, or a group image whose
    hyperplane member has a vanishing last entry."""


class InsufficientInteriorError(LaguerreError):
    """Grid too small for the finite-difference cascade requested."""


class ToleranceBreachError(LaguerreError):
    """A strict-mode run found a residual above the requested tolerance."""
