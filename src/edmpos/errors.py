"""Exception types shared across the package."""


class EdmPosError(Exception):
    """Base class for all library-specific errors."""


class BadShape(EdmPosError):
    """Input has the wrong dimensions or violates a structural precondition."""


class SingularGeometry(EdmPosError):
    """Anchor points do not affinely span the requested dimension."""


class PoleEvaluation(EdmPosError):
    """Secular function evaluated too close to one of its poles."""


class NoConvergence(EdmPosError):
    """Iteration budget exhausted before meeting the convergence tolerance."""


class GaleInfeasible(EdmPosError):
    """Measurement has a component the feasible set cannot represent."""


class GeometryRejection(EdmPosError):
    """Random geometry generation failed the conditioning screen too many times."""


class NegativeSquare(EdmPosError):
    """Noise injection drove a squared pseudorange below zero."""
