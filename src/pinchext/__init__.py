"""Numerical toolkit for meromorphic continuation along analytic curves.

Decides whether a function holomorphic on a ring domain extends
meromorphically along a sequence of analytic graphs, reconstructs the
two-variable extension coefficient by coefficient, and characterizes the
pinched domain on which the reconstruction converges.
"""

from .boundary import (CircleFunction, HardySplit, circle_from_csv,
                       circle_to_csv, effective_bandwidth, hardy_project_minus,
                       hardy_split, hilbert_transform, sobolev_norm,
                       unit_circle_grid, winding_number)
from .errors import (BandwidthError, CircleVanishingError, ConfigError,
                     ConvergenceError, DomainError, PinchextError,
                     PoleLocationError)
from .extension import (CoefficientLadder, DiscFunction, ExtensionValue,
                        ExtensionVerdict, LadderEntry, PinchDescriptor,
                        RingFunction, coefficient_ladder, curve_difference,
                        evaluate_extension, extension_test, minus_part,
                        pinch_estimate, restrict_along_curve,
                        verify_coefficient_bounds)
from .families import (GeneralPositionReport, TestFamilyReport,
                       TestSequenceReport, WindingProfileReport,
                       general_position_check, probes_from_csv,
                       validate_test_family, validate_test_sequence,
                       winding_profile)
from .rational import (BlaschkeProduct, RationalPart, RationalityVerdict,
                       blaschke_from_zeros, detect_rational, evaluate_rational,
                       rational_to_circle)

__version__ = "0.1.0"

__all__ = [
    "hardy_project_minus", "hardy_split", "hilbert_transform",
    "sobolev_norm", "winding_number", "effective_bandwidth",
    "circle_to_csv", "circle_from_csv", "unit_circle_grid",
    "CircleFunction", "HardySplit",
    "RationalPart", "BlaschkeProduct", "RationalityVerdict",
    "detect_rational", "blaschke_from_zeros", "evaluate_rational",
    "rational_to_circle",
    "RingFunction", "DiscFunction", "curve_difference",
    "ExtensionVerdict", "CoefficientLadder", "LadderEntry",
    "PinchDescriptor", "ExtensionValue",
    "restrict_along_curve", "extension_test", "coefficient_ladder",
    "pinch_estimate", "evaluate_extension", "verify_coefficient_bounds",
    "minus_part",
    "TestSequenceReport", "TestFamilyReport", "GeneralPositionReport",
    "WindingProfileReport", "validate_test_sequence", "validate_test_family",
    "general_position_check", "winding_profile", "probes_from_csv",
    "PinchextError", "BandwidthError", "CircleVanishingError",
    "ConvergenceError", "DomainError", "PoleLocationError", "ConfigError",
]
