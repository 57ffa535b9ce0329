"""Property tests (hypothesis): identities checked on generated inputs.

Runs are derandomized, so every run draws the same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchext import CircleFunction, hardy_project_minus, hilbert_transform


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
    assert (hardy_project_minus(p) - p).sup_norm <= tol
    s = hilbert_transform(g)
    assert (hilbert_transform(s) - g).sup_norm <= tol
    assert (s - ((-2.0) * p + g)).sup_norm <= tol
