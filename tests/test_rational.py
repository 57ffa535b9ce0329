import math
import re
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from pinchext import (CircleFunction, PoleLocationError, RationalPart,
                      blaschke_from_zeros, detect_rational,
                      hardy_project_minus, rational_to_circle,
                      unit_circle_grid)
from pinchext.rational import _principal_design

from conftest import random_rational_part


def minus_function(coeff_map, m=256):
    """CircleFunction with prescribed negative Laurent coefficients."""
    centered = np.zeros(m, dtype=complex)
    for k, c in coeff_map.items():
        centered[m // 2 + k] = c
    return CircleFunction.from_coefficients(centered)


# --------------------------------------------------------------- detection

def test_detect_single_pole_at_origin():
    v = detect_rational(minus_function({-1: 4.0}), 10)
    assert v.is_rational
    (a, coeffs), = v.rational.poles
    assert abs(a) < 1e-10
    assert abs(coeffs[0] - 4.0) < 1e-10


def test_detect_simple_pole_round_trip():
    rp = RationalPart(poles=(((0.3 + 0j), (1.0 + 0j,)),))
    v = detect_rational(rational_to_circle(rp), 10)
    assert v.is_rational
    (a, coeffs), = v.rational.poles
    assert abs(a - 0.3) < 1e-8
    assert abs(coeffs[0] - 1.0) < 1e-8


def test_detect_factorial_tail_not_rational():
    # boundary data of e^{1/lam} - 1: essential singularity
    coeffs = {-k: 1.0 / math.factorial(k) for k in range(1, 65)}
    v = detect_rational(minus_function(coeffs), 10)
    assert not v.is_rational
    assert v.kind == "not-rational"


def test_detect_requires_hardy_minus():
    g = minus_function({-1: 1.0})
    bad = CircleFunction(g.samples + 0.5)
    with pytest.raises(ValueError):
        detect_rational(bad, 10)


def test_detect_pole_budget_cap():
    with pytest.raises(ValueError):
        detect_rational(minus_function({-1: 1.0}), 17)


def test_detect_rejects_non_finite_input():
    # the documented ValueError, not an index error of the
    # terminating-sequence scan
    psi = hardy_project_minus(CircleFunction(np.full(64, np.nan) + 0j))
    with pytest.raises(ValueError, match="^input has a coefficient that is "
                       "not finite$"):
        detect_rational(psi, 4)


def test_detect_zero_function():
    v = detect_rational(minus_function({}), 5)
    assert v.is_rational
    assert v.rank == 0
    assert v.rational.degree == 0


def test_detect_zero_leading_hankel_block_is_not_rational():
    # only mode -56 is set: past the 14 x 14 leading block of n_max = 10
    # and too close to the end of the 56 read coefficients for the
    # terminating-sequence path, so the leading block is exactly zero
    psi = minus_function({-56: 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = detect_rational(psi, 10)
    assert (v.kind, v.rank, v.gap) == ("not-rational", 0, math.inf)


def test_detect_refuses_a_grid_too_small_for_the_pole_bound():
    with pytest.raises(ValueError, match=re.escape(
            "grid size 16 resolves only 7 coefficients; need 10 for pole "
            "bound 1")):
        detect_rational(minus_function({-1: 1.0}, m=16), 1)


def test_detect_terminating_sequence_past_the_pole_bound():
    # a polynomial in 1/lambda of degree 5: one 5-fold pole at the origin,
    # more than n_max = 3 allows
    v = detect_rational(minus_function({-k: 1.0 for k in range(1, 6)}, 64), 3)
    assert (v.kind, v.rank, v.gap) == ("not-rational", 5, math.inf)


def test_detect_pole_outside_the_circle():
    # the growing sequence 1.05^(n - 1) of c_{-n} recovers a pole at 1.05
    psi = minus_function({-n: 1.05 ** (n - 1) for n in range(1, 32)}, 64)
    with pytest.raises(PoleLocationError, match=re.escape(
            "lies on or outside the unit circle")):
        detect_rational(psi, 4)


def test_detect_guard_annulus():
    rp = RationalPart(poles=(((0.95 + 0j), (1.0 + 0j,)),))
    psi = rational_to_circle(rp)
    with pytest.raises(PoleLocationError):
        detect_rational(psi, 10, delta_pole=0.1)
    # without the guard the pole is legitimate
    v = detect_rational(psi, 10)
    assert v.is_rational


def test_detect_scale_equivariance(rng):
    rp = random_rational_part(rng, max_degree=5)
    psi = rational_to_circle(rp)
    scale = 3.7e3 - 1.2e3j
    v1 = detect_rational(psi, 10)
    v2 = detect_rational(scale * psi, 10)
    p1 = sorted(v1.rational.pole_list, key=lambda t: (t[0].real, t[0].imag))
    p2 = sorted(v2.rational.pole_list, key=lambda t: (t[0].real, t[0].imag))
    assert len(p1) == len(p2)
    for (a1, m1), (a2, m2) in zip(p1, p2):
        assert m1 == m2
        assert abs(a1 - a2) < 1e-9
    # coefficients scale linearly
    for (_, c1), (_, c2) in zip(
            sorted(v1.rational.poles, key=lambda t: (t[0].real, t[0].imag)),
            sorted(v2.rational.poles, key=lambda t: (t[0].real, t[0].imag))):
        for x, y in zip(c1, c2):
            assert abs(y - scale * x) < 1e-9 * abs(scale)


def test_kronecker_round_trip(rng):
    # synthesize -> detect recovers degree and poles (sample of the
    # acceptance population)
    for _ in range(30):
        rp = random_rational_part(rng)
        v = detect_rational(rational_to_circle(rp), 8)
        assert v.is_rational
        assert v.rational.degree == rp.degree
        recovered = {a: m for a, m in v.rational.pole_list}
        for a, mult in rp.pole_list:
            best = min(recovered, key=lambda b: abs(b - a))
            assert abs(best - a) < 1e-6
            assert recovered[best] == mult


def test_redetection_stability(rng):
    # evaluating the recovered element and re-running detection gives the
    # same pole set
    rp = random_rational_part(rng, max_degree=6)
    v1 = detect_rational(rational_to_circle(rp), 8)
    v2 = detect_rational(rational_to_circle(v1.rational), 8)
    p1 = sorted(v1.rational.pole_list, key=lambda t: (t[0].real, t[0].imag))
    p2 = sorted(v2.rational.pole_list, key=lambda t: (t[0].real, t[0].imag))
    assert [m for _, m in p1] == [m for _, m in p2]
    for (a1, _), (a2, _) in zip(p1, p2):
        assert abs(a1 - a2) < 1e-6


# ---------------------------------------------------------------- blaschke

def test_blaschke_empty_product():
    b = blaschke_from_zeros([])
    assert b(0.3 + 0.4j) == 1.0


def test_blaschke_double_zero_at_origin():
    b = blaschke_from_zeros([0, 0])
    pts = np.array([0.5, -0.3j, 0.1 + 0.1j])
    npt.assert_allclose(b(pts), pts ** 2, atol=1e-15)


def test_blaschke_unimodular_on_circle():
    b = blaschke_from_zeros([0.5, -0.3j])
    angles = unit_circle_grid(64)
    npt.assert_allclose(np.abs(b(angles)), 1.0, atol=1e-12)
    assert abs(b(0.5)) < 1e-15


def test_blaschke_rejects_outside_zeros():
    with pytest.raises(ValueError):
        blaschke_from_zeros([1.0])
    with pytest.raises(ValueError):
        blaschke_from_zeros([1.2 + 0.1j])


def test_pole_cancellation(rng):
    # multiplying by the Blaschke product of the detected poles leaves a
    # holomorphic function: its Hardy-minus projection is tiny
    from pinchext import hardy_project_minus
    rp = random_rational_part(rng, max_degree=4)
    psi = rational_to_circle(rp)
    v = detect_rational(psi, 8)
    zeros = [a for a, mult in v.rational.pole_list for _ in range(mult)]
    b = blaschke_from_zeros(zeros)
    corrected = psi * CircleFunction(b(unit_circle_grid(256)))
    assert hardy_project_minus(corrected).sup_norm < 1e-8


# -------------------------------------------------------------- evaluation

def test_evaluate_simple_pole():
    rp = RationalPart(poles=((0j, (1.0 + 0j,)),))
    assert abs(rp(0.5) - 2.0) < 1e-14


def test_evaluate_empty():
    assert RationalPart(poles=())(0.7 + 0.1j) == 0.0


def test_evaluate_double_pole():
    # 1/(lam - 0.3)^2 at lam = 0.8 -> 1/0.5^2 = 4
    rp = RationalPart(poles=(((0.3 + 0j), (1.0 + 0j, 0j)),))
    assert abs(rp(0.8) - 4.0) < 1e-13


def test_laurent_tail_matches_values(rng):
    # expansion at infinity reproduces the function on the circle
    rp = random_rational_part(rng, max_degree=5)
    psi = rational_to_circle(rp)
    grid = unit_circle_grid(256)
    npt.assert_allclose(psi.samples, rp(grid), rtol=0,
                        atol=1e-9 * max(1.0, np.abs(rp(grid)).max()))


def reference_laurent_tail(rp, length):
    """``laurent_tail`` as first written: one term at a time."""
    out = np.zeros(length, dtype=complex)
    for a, coeffs in rp.poles:
        m = len(coeffs)
        for k, c in enumerate(coeffs):
            p = m - k
            for n in range(p, length + 1):
                out[n - 1] += c * math.comb(n - 1, p - 1) * a ** (n - p)
    return out


def test_laurent_tail_matches_reference(rng):
    # the design-matrix product sums in another order: last bits only
    assert not RationalPart(poles=()).laurent_tail(5).any()
    for _ in range(100):
        poles = tuple(
            (rng.uniform(0.1, 0.9) * np.exp(2j * np.pi * rng.uniform()),
             tuple(complex(*rng.standard_normal(2))
                   for _ in range(rng.integers(1, 4))))
            for _ in range(rng.integers(1, 4)))
        rp = RationalPart(poles=poles)
        length = int(rng.integers(8, 129))
        got, want = rp.laurent_tail(length), reference_laurent_tail(rp, length)
        assert got.shape == (length,)
        npt.assert_allclose(got, want, rtol=0,
                            atol=1e-13 * np.abs(want).max())


def reference_principal_design(poles, rows):
    """The former design matrix: each entry an exact ``math.comb`` times a
    numpy scalar power, one list comprehension per column."""
    cols = []
    for a, mult in poles:
        for k in range(mult):
            p = mult - k
            col = np.zeros(rows, dtype=complex)
            ns = np.arange(p, rows + 1)
            col[ns - 1] = [math.comb(n - 1, p - 1) * a ** (n - p) for n in ns]
            cols.append(col)
    return np.column_stack(cols)


def test_principal_design_matches_reference_bits(rng):
    # binomials past 2**53 (comb(511, 20) is about 2**123, comb(255, 127)
    # about 2**251), multiplicities above the row count (zero columns),
    # poles at the origin and real-valued pole locations
    cases = [([(0j, 171)], 256), ([(0.3, 30), (0.9j, 3)], 8),
             ([(0j, 5), (-0.5 + 0j, 2)], 3), ([(0.2 - 0.7j, 21)], 512)]
    for _ in range(60):
        rows = int(rng.choice([1, 2, 16, 100, 256, 512]))
        poles = []
        for _ in range(rng.integers(1, 4)):
            a = rng.uniform(0.0, 0.99) * np.exp(2j * np.pi * rng.uniform())
            a = 0j if rng.uniform() < 0.2 else a
            a = a.real if rng.uniform() < 0.2 else complex(a)
            poles.append((a, int(rng.integers(1, 21))))
        cases.append((poles, rows))
    for poles, rows in cases:
        got = _principal_design(poles, rows)
        want = reference_principal_design(poles, rows)
        assert got.shape == want.shape == (rows, sum(m for _, m in poles))
        assert got.tobytes() == want.tobytes(), (poles, rows)


# ------------------------------------------------------------------- JSON

def test_json_round_trip(rng):
    rp = random_rational_part(rng)
    back = RationalPart.from_dict(rp.as_dict())
    assert back == rp


def test_json_schema_shape():
    rp = RationalPart(poles=(((0.3 + 0.1j), (1.0 + 0j, 2.0 - 1j)),))
    data = rp.as_dict()
    assert data == {"poles": [{"a": [0.3, 0.1], "m": 2,
                               "c": [[1.0, 0.0], [2.0, -1.0]]}]}
