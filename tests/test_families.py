import math

import numpy as np
import pytest

from pinchext import (ConvergenceError, DiscFunction, coefficient_ladder,
                      curve_difference, general_position_check,
                      pinch_estimate, validate_test_family,
                      validate_test_sequence, winding_profile)
from pinchext.families import TripleIntersection
from pinchext.gallery import remark1_ring


def scaled_line(k):
    return DiscFunction([0, 1.0 / k])


ZERO = DiscFunction([0j])


# ------------------------------------------------------------ test sequence

def test_sequence_simple_lines():
    report = validate_test_sequence([scaled_line(k) for k in range(1, 9)],
                                    ZERO, 10)
    assert report.windings == (1,) * 8
    assert report.bound == 1
    assert report.is_test
    assert report.first_failure is None


def test_sequence_contracting_monomials_fails():
    # phi_k = ((2/3) lam)^k has winding k: unbounded, not a test sequence
    curves = [DiscFunction([0j] * k + [(2.0 / 3.0) ** k]) for k in range(1, 13)]
    report = validate_test_sequence(curves, ZERO, 10)
    assert report.windings == tuple(range(1, 13))
    assert not report.is_test
    assert report.first_failure == 11  # index of the first winding > 10


def test_sequence_outside_finite_dimensional_family():
    # phi_k = lam^2/k + e^{-k} lam^k: the tiny high-degree term never
    # reaches the boundary dominance of lam^2/k, so every winding is 2
    curves = []
    for k in range(2, 11):
        coeffs = [0j] * (k + 1)
        coeffs[2] = 1.0 / k
        coeffs[k] += math.exp(-k)
        curves.append(DiscFunction(coeffs))
    report = validate_test_sequence(curves, ZERO, 10)
    assert report.windings == (2,) * 9
    assert report.is_test


def test_sequence_vanishing_curve_is_per_curve_failure():
    curves = [scaled_line(1),
              DiscFunction([0, -0.5, 0.5], require_into_disc=False),  # zero at 1
              scaled_line(3)]
    report = validate_test_sequence(curves, ZERO, 10)
    assert report.windings[1] is None
    assert not report.is_test
    assert report.failures[0][0] == 1
    assert report.first_failure == 1


def test_sequence_translation_invariance():
    curves = [scaled_line(k) for k in range(1, 6)]
    shift = DiscFunction([0.1, 0, 0.05])
    shifted = [DiscFunction(np.pad(np.asarray(c.coeffs), (0, 3))[:3]
                            + np.asarray(shift.coeffs), require_into_disc=False)
               for c in curves]
    r1 = validate_test_sequence(curves, ZERO, 10)
    r2 = validate_test_sequence(shifted, shift, 10)
    assert r1.windings == r2.windings
    assert r1.is_test == r2.is_test


def test_sequence_needs_three_curves():
    with pytest.raises(ValueError):
        validate_test_sequence([scaled_line(1)], ZERO, 10)


# -------------------------------------------------------------- test family

def test_family_horizontal_curves():
    report = validate_test_family([DiscFunction([0.3]), DiscFunction([0.6])],
                                  10, 0.3)
    assert report.all_ok
    (pair,) = report.pairs
    assert pair.winding == 0


def test_family_cubic_pair():
    # lam - lam^3 vanishes on |lam| = 1 (roots 0, 1, -1) but not at radii
    # inside; the witnessing winding counts the single root inside
    report = validate_test_family(
        [DiscFunction([0, 1.0]), DiscFunction([0, 0, 0, 1.0])], 10, 0.3)
    assert report.all_ok
    (pair,) = report.pairs
    assert pair.winding == 1
    assert abs(pair.radius - 1.0) > 1e-6


def test_family_needs_two_curves():
    with pytest.raises(ValueError):
        validate_test_family([DiscFunction([0.3])], 10, 0.3)


# --------------------------------------------------------- general position

def test_general_position_lines():
    curves = [scaled_line(k) for k in range(1, 6)]
    report = general_position_check(curves, ZERO, [0j, 0.5 + 0j])
    assert not report.probes[0].ok          # every zero sits at the probe 0
    assert report.probes[1].ok              # all zeros avoid 0.5
    assert len(report.probes[1].witness_indices) == 5


def test_general_position_horizontal():
    curves = [DiscFunction([1.0 / k]) for k in range(1, 6)]
    report = general_position_check(curves, ZERO, [0j, -0.3 + 0.2j])
    assert report.all_probes_ok


def test_general_position_triple_violation():
    curves = [DiscFunction([0, c]) for c in (0.2, 0.5, 0.8)]
    report = general_position_check(curves, ZERO, [0.5 + 0j])
    assert len(report.triple_violations) == 1
    violation = report.triple_violations[0]
    assert violation.indices == (0, 1, 2)
    assert abs(violation.lam) < 1e-9
    assert abs(violation.z) < 1e-9


def _triples_by_scalar_loop(curves):
    """Reference triple scan: one scalar curve evaluation per root."""
    out = []
    k = len(curves)
    for i in range(k):
        for j in range(i + 1, k):
            arr = np.asarray(curve_difference(curves[i], curves[j]).coeffs)
            if np.abs(arr).max() == 0.0 or arr.size == 1:
                continue
            roots = np.roots(arr[::-1])
            roots = roots[np.abs(roots) <= 1.0 + 1e-9]
            for t in range(j + 1, k):
                for root in roots:
                    if abs(curves[i](root) - curves[t](root)) < 1e-9:
                        out.append(TripleIntersection(
                            indices=(i, j, t), lam=complex(root),
                            z=complex(curves[i](root))))
    return tuple(out)


def test_triple_scan_matches_scalar_loop():
    # half the curves pass through the origin, a quarter through one more
    # common point (p, w); degrees 1..4, a repeated curve, a constant and
    # a near miss 1e-7 above (p, w) that the 1e-9 test must reject
    rng = np.random.default_rng(3141)
    p, w = 0.3 + 0.2j, 0.1 - 0.05j
    curves = []
    for idx in range(16):
        deg = idx % 4 + 1
        c = 0.15 * (rng.standard_normal(deg + 1)
                    + 1j * rng.standard_normal(deg + 1))
        if idx % 2 == 0:
            c[0] = 0.0
        elif idx % 4 == 1:
            c[0] += w - np.polynomial.polynomial.polyval(p, c)
        curves.append(DiscFunction(c, require_into_disc=False))
    near = np.array([0.1, -0.2j, 0.05])
    near[0] += w + 1e-7 - np.polynomial.polynomial.polyval(p, near)
    curves += [curves[5], DiscFunction([w]), DiscFunction(near)]
    expected = _triples_by_scalar_loop(curves)
    assert any(abs(v.lam) < 1e-12 for v in expected)
    assert any(abs(v.lam - p) < 1e-9 for v in expected)
    assert all(v.indices[2] != len(curves) - 1 or abs(v.lam - p) > 1e-6
               for v in expected)
    report = general_position_check(curves, ZERO, [0.5 + 0j])
    assert report.triple_violations == expected


# ----------------------------------------------------------- winding profile

def test_profile_quadratic_family():
    report = winding_profile(lambda a: DiscFunction([0, 0, a]),
                             [0.1, 0.2, 0.3], 0.0)
    assert report.constant
    assert all(w == 2 for _, w in report.windings)


def test_profile_horizontal_family():
    report = winding_profile(lambda a: DiscFunction([a]), [0.1, 0.2, 0.3], 0.0)
    assert report.constant
    assert all(w == 0 for _, w in report.windings)


def test_profile_shifted_zero():
    report = winding_profile(lambda a: DiscFunction([-0.5 * a, a]),
                             [0.1, 0.2, 0.3], 0.0)
    assert report.constant
    assert all(w == 1 for _, w in report.windings)


def test_profile_rejects_alpha0_on_grid():
    with pytest.raises(ValueError):
        winding_profile(lambda a: DiscFunction([a]), [0.0, 0.1], 0.0)


def test_profile_no_radius():
    # identically zero differences never witness a zero-free radius
    with pytest.raises(ConvergenceError):
        winding_profile(lambda a: DiscFunction([0j]), [0.1, 0.2], 0.0)


# --------------------------------------------------------- cross-module link

def test_general_position_excludes_pinch():
    # curves with zeros {0, 0.5}: the reconstruction along them pinches
    # only where coefficients actually blow up, and a probe away from the
    # zeros certifies no pinch nearby
    ring = remark1_ring(0.3)
    curves = [DiscFunction([0, -0.5 / (3 * k), 1.0 / (3 * k)])
              for k in range(1, 13)]
    probe = -0.5 + 0j
    gp = general_position_check(curves, ZERO, [probe])
    assert gp.probes[0].ok
    ladder = coefficient_ladder(ring, curves, 4, 10, m=64)
    assert set(a for a, _ in ladder.zeros) == {0j, 0.5 + 0j}
    desc = pinch_estimate(ladder)
    for a, _ in desc.pinches:
        assert abs(a - probe) > 0.05
