"""Property tests (hypothesis): identities checked on generated inputs.

Runs are derandomized, so every run draws the same examples.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pinchext import (CircleFunction, DiscFunction, hardy_project_minus,
                      hilbert_transform, validate_test_family,
                      validate_test_sequence, winding_number)


@st.composite
def band_limited(draw):
    """A CircleFunction with random modes |n| <= band on a grid of m points."""
    m = draw(st.sampled_from([16, 32, 64, 128, 256]))
    band = draw(st.integers(0, m // 2 - 1))
    parts = st.lists(st.floats(-1.0, 1.0), min_size=2 * band + 1,
                     max_size=2 * band + 1)
    coeffs = np.zeros(m, dtype=complex)
    coeffs[m // 2 - band:m // 2 + band + 1] = (np.array(draw(parts))
                                               + 1j * np.array(draw(parts)))
    return CircleFunction.from_coefficients(coeffs, 1.0)


@settings(derandomize=True, deadline=None, database=None)
@given(band_limited())
def test_operator_identities_property(g):
    # P o P = P, S^2 = id and S = -2P + id, to round-off of the samples
    tol = 1e-12 * (1.0 + np.abs(g.coeffs).sum())
    p = hardy_project_minus(g)
    # P truncates modes, so nothing is left on n >= 0, not even round-off
    assert not p.coeffs[p.modes >= 0].any()
    assert (hardy_project_minus(p) - p).sup_norm <= tol
    s = hilbert_transform(g)
    assert (hilbert_transform(s) - g).sup_norm <= tol
    assert (s - ((-2.0) * p + g)).sup_norm <= tol


@st.composite
def polynomial_differences(draw):
    """Taylor coefficients of a polynomial of degree 1 to 8."""
    degree = draw(st.integers(1, 8))
    parts = st.lists(st.floats(-1.0, 1.0), min_size=degree, max_size=degree)
    lower = np.array(draw(parts)) + 1j * np.array(draw(parts))
    lead = draw(st.floats(0.1, 1.0)) * np.exp(2j * np.pi * draw(st.floats(0, 1)))
    return np.append(lower, lead)


def sampled_winding(coeffs, radius, m=256):
    """Winding of the polynomial along ``|lambda| = radius``, from samples."""
    centered = np.zeros(m, dtype=complex)
    centered[m // 2:m // 2 + len(coeffs)] = coeffs
    return winding_number(CircleFunction.from_coefficients(centered, radius))


@settings(derandomize=True, deadline=None, database=None)
@given(polynomial_differences())
def test_root_count_winding_matches_sampled_winding(coeffs):
    # argument principle: the zeros inside the circle give the winding
    # that the sampled argument variation measures
    diff = DiscFunction(coeffs, require_into_disc=False)
    zero = DiscFunction([0j])
    moduli = np.abs(diff.roots())
    assume(np.abs(moduli - 1.0).min() >= 1e-3)
    seq = validate_test_sequence([diff] * 3, zero, 10)
    assert seq.windings[0] == sampled_winding(coeffs, 1.0)
    (pair,) = validate_test_family([diff, zero], 10, 0.3).pairs
    if np.abs(moduli - pair.radius).min() >= 1e-3:
        assert pair.winding == sampled_winding(coeffs, pair.radius)
