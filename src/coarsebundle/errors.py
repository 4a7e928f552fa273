"""Error types shared across the toolkit.

Every failure mode that callers are expected to branch on gets its own
exception class; anything else is a plain ValueError.
"""

from __future__ import annotations


class CoarseBundleError(Exception):
    """Base class for all toolkit errors."""


class SingularMatrix(CoarseBundleError):
    """A matrix required to be invertible has determinant zero."""


class RankMismatch(CoarseBundleError):
    """A matrix or vector does not match the ambient fiber rank."""


class Disconnected(CoarseBundleError):
    """The underlying graph is not connected."""


class SingularInclusion(CoarseBundleError):
    """An edge inclusion matrix has determinant zero."""

    def __init__(self, edge_id: str):
        super().__init__(f"edge {edge_id!r} has a singular inclusion matrix")
        self.edge_id = edge_id


class ZeroParameter(CoarseBundleError):
    """A loop parameter that must be nonzero is zero."""


class NotUnimodular(CoarseBundleError):
    """A matrix required to lie in GL_n(Z) has |det| != 1."""


class BallTooLarge(CoarseBundleError):
    """Growing the ball would exceed the configured vertex cap."""

    def __init__(self, cap: int):
        super().__init__(f"ball would exceed the vertex cap ({cap})")
        self.cap = cap


class EdgeNotInBall(CoarseBundleError):
    """The requested tree edge is not part of this ball."""


class EmptyHalfspace(CoarseBundleError):
    """The requested halfspace contains no vertices of the ball."""


class RankUnsupported(CoarseBundleError):
    """The requested analysis is only available in low rank."""


class NotInLattice(CoarseBundleError):
    """The matrix does not define an element of PSL_2(Z)."""


class ZeroValue(CoarseBundleError):
    """A multiplicative value required to be nonzero is zero."""


class DimensionTooSmall(CoarseBundleError):
    """The vector dimension is too small for the reduction to act."""


class PositiveCycle(CoarseBundleError):
    """The longest-path recursion diverges along the recorded cycle."""

    def __init__(self, cycle):
        super().__init__(f"positive cycle of length {len(cycle)} detected")
        self.cycle = list(cycle)


class NotCoboundary(CoarseBundleError):
    """The 2-cochain is not in the image of d1 (the linear system is inconsistent)."""


class NonBijectiveTabulated(CoarseBundleError):
    """A tabulated gluing map collides on the declared window."""


class WindowTooLarge(CoarseBundleError):
    """The requested windows would exceed the vertex cap."""

    def __init__(self, cap: int):
        super().__init__(f"window volume exceeds the vertex cap ({cap})")
        self.cap = cap


class TooFewRadii(CoarseBundleError):
    """Not enough unclipped radii to fit a growth class."""


class SingularGenerator(CoarseBundleError):
    """A generator required to be invertible has determinant zero."""
