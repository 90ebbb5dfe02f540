"""Exception types shared across the package."""


class WeavelabError(Exception):
    """Base class for all weavelab errors."""


class InputError(WeavelabError):
    """Raised when an argument or input file is malformed or out of range."""


class NotInvertible(WeavelabError):
    """Raised when a matrix is singular, or too ill-conditioned to invert
    under the condition cap ``normed.DEFAULT_COND_CAP`` and residual tolerance.

    The message names the condition number (from an SVD, which a residual
    certificate spares every matrix it clears), LAPACK's ``solve`` error, or
    the residual after refinement, as ``normed.BatchInverse.reason`` does."""


class NotABasis(WeavelabError):
    """Raised when a vector family fails to be a basis (non-square, or
    linearly dependent within tolerance)."""


class NotAFrame(WeavelabError):
    """Raised by operations that require an invertible frame operator."""


class DistanceZero(WeavelabError):
    """Raised when two subspaces touch, violating a direct-sum hypothesis."""
