"""Numerical toolkit for meromorphic continuation along analytic curves.

Decides whether a function holomorphic on a ring domain extends
meromorphically along a sequence of analytic graphs, reconstructs the
two-variable extension coefficient by coefficient, and characterizes the
pinched domain on which the reconstruction converges.
"""

from .boundary import (CircleFunction, HardySplit, effective_bandwidth,
                       hardy_project_minus, hardy_split, hilbert_transform,
                       unit_circle_grid, winding_number)
from .errors import (BandwidthError, CircleVanishingError, ConfigError,
                     ConvergenceError, DomainError, NotExtendableError,
                     PinchextError, PoleLocationError)
from .extension import (CoefficientLadder, DiscFunction, ExtensionValue,
                        ExtensionVerdict, LadderEntry, PinchDescriptor,
                        RingFunction, coefficient_ladder, evaluate_extension,
                        extension_test, minus_part, pinch_estimate,
                        verify_coefficient_bounds)
from .families import (GeneralPositionReport, TestSequenceReport,
                       WindingProfileReport, general_position_check,
                       probes_from_csv, validate_test_sequence,
                       winding_profile)
from .rational import (BlaschkeProduct, RationalPart, RationalityVerdict,
                       blaschke_from_zeros, detect_rational,
                       rational_to_circle)

__version__ = "0.1.0"

__all__ = [
    "hardy_project_minus", "hardy_split", "hilbert_transform",
    "winding_number", "effective_bandwidth", "unit_circle_grid",
    "CircleFunction", "HardySplit",
    "RationalPart", "BlaschkeProduct", "RationalityVerdict",
    "detect_rational", "blaschke_from_zeros", "rational_to_circle",
    "RingFunction", "DiscFunction",
    "ExtensionVerdict", "CoefficientLadder", "LadderEntry",
    "PinchDescriptor", "ExtensionValue",
    "extension_test", "coefficient_ladder",
    "pinch_estimate", "evaluate_extension", "verify_coefficient_bounds",
    "minus_part",
    "TestSequenceReport", "GeneralPositionReport", "WindingProfileReport",
    "validate_test_sequence", "general_position_check", "winding_profile",
    "probes_from_csv",
    "PinchextError", "BandwidthError", "CircleVanishingError",
    "ConvergenceError", "DomainError", "PoleLocationError", "ConfigError",
    "NotExtendableError",
]
