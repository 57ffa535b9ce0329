"""Exception types shared across the toolkit.

Contract misuse (wrong sample counts, malformed inputs) raises plain
``ValueError``; the classes below mark conditions that depend on the data
rather than on the call signature.
"""


class PinchextError(Exception):
    """Base class for data-dependent failures."""


class BandwidthError(PinchextError):
    """A sampled function is not resolved on its grid (aliasing guard)."""


class CircleVanishingError(PinchextError):
    """A function vanishes (within tolerance) on the circle, so quantities
    such as winding numbers are undefined."""


class ConvergenceError(PinchextError):
    """A numerical iteration or stabilization check did not converge."""


class NotExtendableError(ConvergenceError):
    """A curve restriction does not extend meromorphically within the pole
    budget, so the curves are not a valid test-sequence scenario."""


class DomainError(PinchextError):
    """Evaluation requested outside the domain of validity."""


class PoleLocationError(PinchextError):
    """A recovered pole lies on/outside the unit circle or inside the
    guard annulus where poles are not admissible."""


class ConfigError(PinchextError):
    """Malformed or inconsistent analysis configuration."""
