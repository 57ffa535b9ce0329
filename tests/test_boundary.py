import numpy as np
import numpy.testing as npt
import pytest

from pinchext import (BandwidthError, BlaschkeProduct, CircleFunction,
                      CircleVanishingError, DiscFunction, LadderEntry,
                      PinchDescriptor, RationalPart, effective_bandwidth,
                      hardy_project_minus, hardy_split, hilbert_transform,
                      unit_circle_grid, winding_number)
from pinchext.boundary import distance_product, require_resolved

from conftest import random_laurent_function


def tau(m=256):
    return unit_circle_grid(m)


# ---------------------------------------------------- scalar-or-array calls

_RP = RationalPart(poles=((0.2j, (1.0, 0.5 - 0.5j)), (-0.3 + 0j, (2.0,))))
POINTWISE = {
    "disc": (lambda: DiscFunction([0.1, 0.5j, -0.25]), complex),
    "ladder_entry": (lambda: LadderEntry(n=2, rational=_RP,
                                         tail=(1.0, 0.5j, -0.25)), complex),
    "rational": (lambda: _RP, complex),
    "blaschke": (lambda: BlaschkeProduct(zeros=(0.3j, -0.5 + 0j)), complex),
    "domain_radius": (lambda: PinchDescriptor(
        pinches=((0.1 + 0j, 2), (-0.4j, 1)), pole_lines=(),
        c=0.75).domain_radius, float),
}


@pytest.mark.parametrize("name", sorted(POINTWISE))
def test_pointwise_contract(name):
    make, kind = POINTWISE[name]
    fn = make()
    pts = 0.8 * np.exp(2j * np.pi * (np.arange(6) + 0.25) / 6).reshape(2, 3)
    p = complex(pts[0, 1])
    for scalar in (p, np.complex128(p), np.asarray(p)):
        assert type(fn(scalar)) is kind
        assert fn(scalar) == fn(p)
    assert type(fn(0.5)) is kind and fn(0.5) == fn(0.5 + 0j)
    for arg in (pts, pts.tolist(), pts.ravel()):
        out = fn(arg)
        assert isinstance(out, np.ndarray)
        assert out.shape == np.shape(arg)
    # numpy's vector loops may round a complex division differently from
    # the one-element path, so elements agree with scalar calls to rounding
    out = fn(pts)
    for idx in np.ndindex(pts.shape):
        npt.assert_allclose(out[idx], fn(complex(pts[idx])),
                            rtol=4 * np.finfo(float).eps, atol=0)


def test_distance_product():
    centers = ((0.1 + 0j, 2), (-0.4j, 1), (0.5 - 0.5j, 3))
    pts = unit_circle_grid(16, 0.7).reshape(4, 4)
    for power in (0, 1, 3):
        expected = np.ones(pts.shape)
        for a, l in centers:
            expected = expected * np.abs(pts - a) ** (power * l)
        out = distance_product(pts, centers, power=power)
        assert out.shape == pts.shape
        npt.assert_array_equal(out, expected)
        assert float(distance_product(complex(pts[1, 2]), centers,
                                      power=power)) == expected[1, 2]
    npt.assert_array_equal(distance_product(pts, ()), np.ones(pts.shape))


# ----------------------------------------------------------- construction

def test_analyze_monomial():
    g = CircleFunction(tau(64) ** 2)
    assert abs(g.coeffs[2 + g.size // 2] - 1.0) < 1e-13
    others = [abs(g.coeffs[n + g.size // 2]) for n in range(-32, 32) if n != 2]
    assert max(others) < 1e-14


def test_analyze_constant():
    g = CircleFunction(np.full(64, 5.0 + 0j))
    assert abs(g.coeffs[g.size // 2] - 5.0) < 1e-13


def test_analyze_geometric_pole():
    # 1/(lam - a) = sum_{k>=1} a^{k-1} lam^{-k} for |a| < |lam|
    a = 0.3
    g = CircleFunction(1.0 / (tau() - a))
    for k in range(1, 9):
        assert abs(g.coeffs[-k + g.size // 2] - a ** (k - 1)) < 1e-12


def test_analyze_rejects_bad_counts():
    with pytest.raises(ValueError):
        CircleFunction(np.ones(48))
    with pytest.raises(ValueError):
        CircleFunction(np.ones(8))


def test_round_trip(rng):
    g = random_laurent_function(rng, bandwidth=40)
    resampled = CircleFunction.from_coefficients(g.coeffs)
    scale = np.abs(g.samples).max()
    npt.assert_allclose(resampled.samples, g.samples, rtol=0, atol=1e-12 * scale)


# ------------------------------------------------------------- projection

def test_projection_kills_plus_modes():
    g = CircleFunction((2 + 1j) * tau() ** 3)
    assert hardy_project_minus(g).sup_norm < 1e-13


def test_projection_identity_on_minus():
    g = CircleFunction(tau() ** -2)
    p = hardy_project_minus(g)
    npt.assert_allclose(p.samples, g.samples, atol=1e-13)


def test_projection_linearity():
    t = tau()
    g = CircleFunction(3 * t + 4 / t + 5)
    p = hardy_project_minus(g)
    npt.assert_allclose(p.samples, 4 / t, atol=1e-12)


def test_split_reconstructs_exactly(rng):
    g = random_laurent_function(rng, bandwidth=30)
    split = hardy_split(g)
    total = split.plus.coeffs + split.minus.coeffs
    npt.assert_array_equal(total, g.coeffs)
    assert np.all(split.plus.coeffs[:128] == 0)
    assert np.all(split.minus.coeffs[128:] == 0)


# -------------------------------------------------------- hilbert transform

def test_hilbert_identity_on_plus():
    g = CircleFunction(tau() ** 2)
    npt.assert_allclose(hilbert_transform(g).samples, g.samples, atol=1e-13)


def test_hilbert_negation_on_minus():
    g = CircleFunction(tau() ** -3)
    npt.assert_allclose(hilbert_transform(g).samples, -g.samples, atol=1e-13)


def test_hilbert_involution():
    t = tau()
    g = CircleFunction(t + 1 / t)
    ss = hilbert_transform(hilbert_transform(g))
    npt.assert_allclose(ss.samples, g.samples, atol=1e-13)


def test_operator_identities_random(rng):
    # P o P = P, S^2 = id, S = -2P + id on random Laurent polynomials
    for _ in range(20):
        g = random_laurent_function(rng, bandwidth=64)
        p = hardy_project_minus(g)
        pp = hardy_project_minus(p)
        assert (pp - p).sup_norm < 1e-10
        s = hilbert_transform(g)
        assert (hilbert_transform(s) - g).sup_norm < 1e-10
        recomposed = (-2.0) * p + g
        assert (s - recomposed).sup_norm < 1e-10


def test_projection_vanishes_on_polynomials(rng):
    for _ in range(10):
        coeffs = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        g = CircleFunction(np.polynomial.polynomial.polyval(tau(), coeffs))
        assert hardy_project_minus(g).sup_norm < 1e-10


# ---------------------------------------------------------- winding number

def test_winding_monomial():
    assert winding_number(CircleFunction(tau() ** 5)) == 5


def test_winding_constant():
    assert winding_number(CircleFunction(np.ones(64))) == 0


def test_winding_contracting_monomials():
    # witness for unbounded winding along (2/3 lam)^k
    for k in range(1, 13):
        g = CircleFunction(((2.0 / 3.0) * tau()) ** k)
        assert winding_number(g) == k


def test_winding_vanishing_rejected():
    g = CircleFunction(tau(64) - 1.0)  # zero at the sample lam = 1
    with pytest.raises(CircleVanishingError):
        winding_number(g)


def test_winding_refinement():
    # bandwidth 100 on a 256 grid: increments exceed pi/2 until refinement
    g = CircleFunction(tau(256) ** 100)
    assert winding_number(g) == 100


def test_winding_additivity(rng):
    # winding(g h) = winding(g) + winding(h); counts of roots inside
    for _ in range(10):
        t = tau()
        roots_in = rng.integers(0, 4)
        roots_out = rng.integers(0, 3)
        g = np.ones_like(t)
        for _ in range(roots_in):
            g = g * (t - 0.6 * np.exp(2j * np.pi * rng.uniform()))
        for _ in range(roots_out):
            g = g * (t - 1.7 * np.exp(2j * np.pi * rng.uniform()))
        h = np.ones_like(t)
        hn = rng.integers(0, 4)
        for _ in range(hn):
            h = h * (t - 0.4 * np.exp(2j * np.pi * rng.uniform()))
        wg = winding_number(CircleFunction(g))
        wh = winding_number(CircleFunction(h))
        wgh = winding_number(CircleFunction(g * h))
        assert wg == roots_in
        assert wh == hn
        assert wgh == wg + wh


# -------------------------------------------------------------- bandwidth

def test_effective_bandwidth():
    g = CircleFunction(tau() ** 10 + 1e-15 * tau() ** 90)
    assert effective_bandwidth(g) == 10
    require_resolved(g)
    h = CircleFunction(tau() ** 90)
    with pytest.raises(BandwidthError):
        require_resolved(h)


def test_unit_circle_grid_is_a_fresh_array():
    # the roots of unity are cached, but callers get their own copy
    a = unit_circle_grid(64)
    a[0] = 5.0
    assert unit_circle_grid(64)[0] == 1.0
    assert unit_circle_grid(64, 0.5).flags.writeable


def test_from_coefficients_grid_size_is_keyword_only():
    # a radius passed positionally is refused, not read as a grid size
    with pytest.raises(TypeError):
        CircleFunction.from_coefficients(np.ones(16), 1.0)
    with pytest.raises(TypeError):
        CircleFunction(np.ones(16), 1.0)
    g = CircleFunction.from_coefficients(np.ones(16), m=64)
    assert g.size == 64 and g.coeffs[32 - 8] == 1.0 and g.coeffs[32 + 8] == 0.0
