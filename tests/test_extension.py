import cmath
import dataclasses
import math

import mpmath as mp
import numpy as np
import numpy.testing as npt
import pytest

from pinchext import (BandwidthError, CoefficientLadder, ConvergenceError,
                      DiscFunction, DomainError, LadderEntry, PinchDescriptor,
                      RationalPart, RingFunction, coefficient_ladder,
                      curve_difference, evaluate_extension, extension_test,
                      hardy_project_minus, pinch_estimate,
                      restrict_along_curve, unit_circle_grid,
                      verify_coefficient_bounds)
from pinchext.extension import _interp_prefixes
from pinchext.gallery import remark1_ring


@pytest.fixture(scope="module")
def exp_ring():
    return remark1_ring(0.3)


@pytest.fixture(scope="module")
def exp_ladder(exp_ring):
    curves = [DiscFunction([0, 1.0 / k]) for k in range(1, 13)]
    return coefficient_ladder(exp_ring, curves, 6, 10, m=64)


# ------------------------------------------------------------ ring function

def test_ring_function_laurent_validation():
    with pytest.raises(ValueError):
        RingFunction(lambda lam, z: lam * z + 1.0, 0.3,
                     laurent=((1, 1, 1.0 + 0j),))


def test_ring_function_from_laurent_evaluates():
    f = RingFunction.from_laurent([(1, -2, 1.0)], 0.3)
    assert abs(f.eval_many(np.array([2j]), np.array([0.5]))[0]
               - 0.5 / (2j) ** 2) < 1e-14
    assert f.mp_capable


def test_ring_function_epsilon_range():
    with pytest.raises(ValueError):
        RingFunction(lambda lam, z: z, 0.7)


# ------------------------------------------------------------ disc function

def test_disc_function_trims_tail():
    phi = DiscFunction([0.5, 0, 0, 1e-20])
    assert phi.degree == 0
    assert phi.coeffs == (0.5 + 0j,)


def test_disc_function_into_disc_check():
    with pytest.raises(ValueError):
        DiscFunction([0.9, 0.9])
    DiscFunction([0, 1.0])  # lam itself: closed-disc boundary is allowed


def test_disc_function_roots():
    phi = DiscFunction([0, -0.5 / 3, 1.0 / 3], require_into_disc=False)
    roots = phi.roots_in_disc(0.9)
    assert [(round(a.real, 8), mult) for a, mult in roots] == [(0.0, 1), (0.5, 1)]
    target = DiscFunction([0, 0, 0.5])
    assert target.roots_in_disc(0.9) == ((0j, 2),)


def test_curve_difference():
    d = curve_difference(DiscFunction([0, 1.0]),
                         DiscFunction([0.7, 0.7], require_into_disc=False))
    npt.assert_allclose(d.coeffs, [-0.7, 0.3])


# -------------------------------------------------------------- restriction

def test_restrict_product_curve():
    f = RingFunction.from_laurent([(1, 1, 1.0)], 0.3)  # lam * z
    g = restrict_along_curve(f, DiscFunction([0, 0, 1.0]), m=64)
    assert abs(g.coeff(3) - 1.0) < 1e-13
    assert sum(abs(g.coeff(n)) for n in range(-32, 32) if n != 3) < 1e-12


def test_restrict_constant_result():
    f = RingFunction.from_laurent([(1, -1, 1.0)], 0.3)  # z / lam
    g = restrict_along_curve(f, DiscFunction([0, 0.5]), m=64)
    npt.assert_allclose(g.samples, 0.5, atol=1e-14)


def test_restrict_exponential(exp_ring):
    g = restrict_along_curve(exp_ring, DiscFunction([0, 1.0 / 3.0]), m=64)
    npt.assert_allclose(g.samples, cmath.exp(1.0 / 3.0), atol=1e-13)


def test_restrict_domain_violation(exp_ring):
    wide = curve_difference(DiscFunction([0, 1.0]), DiscFunction([-0.5]))
    with pytest.raises(DomainError):
        restrict_along_curve(exp_ring, wide, m=64)


# ----------------------------------------------------------- extension test

def test_extension_test_holomorphic(exp_ring):
    v = extension_test(exp_ring, DiscFunction([0, 0.2]), 10)
    assert v.kind == "holomorphic"
    assert v.residual < 1e-10


def test_extension_test_essential(exp_ring):
    v = extension_test(exp_ring, DiscFunction([0.2]), 10)
    assert v.kind == "not-extendable"
    assert v.n_max == 10


def test_extension_test_meromorphic():
    f = RingFunction.from_laurent([(1, -2, 1.0)], 0.3)  # z / lam^2
    v = extension_test(f, DiscFunction([0, 1.0]), 10)
    assert v.kind == "meromorphic"
    (a, coeffs), = v.rational.poles
    assert abs(a) < 1e-8
    assert abs(coeffs[0] - 1.0) < 1e-8


def test_extension_test_bandwidth_guard():
    f = RingFunction.from_laurent([(1, 40, 1.0)], 0.3)
    with pytest.raises(BandwidthError):
        extension_test(f, DiscFunction([0.5]), 10, m=128)


# --------------------------------------------------------------- the ladder

def test_ladder_linear_function():
    f = RingFunction.from_laurent([(1, -1, 1.0)], 0.3)  # z / lam
    curves = [DiscFunction([0, 1.0 / k]) for k in range(1, 7)]
    ladder = coefficient_ladder(f, curves, 3, 10, m=64)
    grid = 0.6 * np.exp(2j * np.pi * np.arange(16) / 16)
    assert ladder.entries[0].is_zero
    npt.assert_allclose(ladder.entries[1](grid), 1.0 / grid, rtol=1e-10)
    assert ladder.entries[2].is_zero
    assert ladder.entries[3].is_zero
    assert ladder.entries[1].rational.pole_list == ((0j, 1),)


def test_ladder_polynomial_function():
    f = RingFunction.from_laurent([(2, 1, 1.0)], 0.3)  # lam * z^2
    curves = [DiscFunction([0, 1.0 / k]) for k in range(1, 7)]
    ladder = coefficient_ladder(f, curves, 3, 10, m=64)
    grid = 0.6 * np.exp(2j * np.pi * np.arange(16) / 16)
    assert ladder.entries[0].is_zero
    assert ladder.entries[1].is_zero
    npt.assert_allclose(ladder.entries[2](grid), grid, rtol=1e-10)
    assert ladder.entries[3].is_zero
    for entry in ladder.entries:
        assert not entry.rational.poles


def _separated_nodes(rng, k, min_sep=0.1):
    while True:
        x = np.sqrt(rng.uniform(0, 1, k)) * np.exp(2j * np.pi * rng.uniform(0, 1, k))
        d = np.abs(x[:, None] - x[None, :])
        np.fill_diagonal(d, np.inf)
        if d.min() >= min_sep:
            return x


def _lu_coeffs(x, y):
    """Reference: the Vandermonde system solved by mpmath LU."""
    a = mp.matrix([[xi ** j for j in range(len(x))] for xi in x])
    sol = mp.lu_solve(a, mp.matrix(list(y)))
    return [sol[i] for i in range(len(x))]


def test_interp_prefixes_matches_lu():
    # every prefix of random well-separated nodes, several truncations:
    # mpc path to 1e-30 and complex path to 1e-8 of the LU solution
    rng = np.random.default_rng(4004)
    to_mp = np.vectorize(mp.mpc, otypes=[object])
    for kcurves in range(4, 13):
        x = np.column_stack([_separated_nodes(rng, kcurves) for _ in range(2)])
        y = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        sizes = list(range(1, kcurves + 1))
        with mp.workdps(50):
            x_mp, y_mp = to_mp(x), to_mp(y)
            refs = {(k, col): _lu_coeffs(x_mp[:k, col], y_mp[:k, col])
                    for k in sizes for col in range(2)}
            for n_keep in sorted({1, 2, kcurves // 2, kcurves - 1}):
                got_mp = _interp_prefixes(x_mp, y_mp, n_keep, sizes)
                got_c = _interp_prefixes(x, y, n_keep, sizes)
                for (k, col), ref in refs.items():
                    scale = max(abs(r) for r in ref)
                    ref = (ref + [mp.mpc(0)] * n_keep)[:n_keep]
                    c_mp = got_mp[k - 1][:, col]
                    assert max(abs(c - r) for c, r in zip(c_mp, ref)) <= 1e-30 * scale
                    c_c = got_c[k - 1][:, col]
                    ref_c = np.array([complex(r) for r in ref])
                    assert np.abs(c_c - ref_c).max() <= 1e-8 * float(scale)


def test_ladder_exponential_coefficients(exp_ladder):
    grid = 0.7 * np.exp(2j * np.pi * np.arange(32) / 32)
    for n in range(7):
        expected = grid ** (-n) / math.factorial(n)
        rel = np.abs(exp_ladder.entries[n](grid) - expected) / np.abs(expected)
        assert rel.max() < 1e-6
        if n:
            assert exp_ladder.entries[n].rational.pole_list == ((0j, n),)
    assert exp_ladder.zeros == ((0j, 1),)
    assert exp_ladder.pole_lines == ()


def test_ladder_needs_enough_curves(exp_ring):
    curves = [DiscFunction([0, 1.0 / k]) for k in range(1, 5)]
    with pytest.raises(ValueError):
        coefficient_ladder(exp_ring, curves, 4, 10, m=64)


def test_ladder_rejects_non_extendable(exp_ring):
    curves = [DiscFunction([0.3 / k]) for k in range(1, 7)]
    with pytest.raises(ConvergenceError):
        coefficient_ladder(exp_ring, curves, 3, 10, m=64)


def test_ladder_rejects_coinciding_nodes(exp_ring):
    # lam/2 and lam^2/2 (not neighbours in the list) take the same value
    # at the grid point lam = 1
    curves = [DiscFunction([0, 1.0 / k]) for k in range(2, 7)]
    curves.insert(2, DiscFunction([0, 0, 0.5]))
    with pytest.raises(ConvergenceError, match="coincide"):
        coefficient_ladder(exp_ring, curves, 3, 10, m=64)


def test_ladder_rejects_circle_vanishing_curve(exp_ring):
    from pinchext import CircleVanishingError
    # phi_k = lam (lam - 1) / (3k) vanishes at the boundary point lam = 1
    curves = [DiscFunction([0, -1.0 / (3 * k), 1.0 / (3 * k)])
              for k in range(1, 7)]
    with pytest.raises(CircleVanishingError):
        coefficient_ladder(exp_ring, curves, 3, 10, m=64)


def test_ladder_diagnostics(exp_ladder):
    # Records run level by level over the last three of the 12 curves.
    # Blaschke-corrected level functions stay bounded by C*C1 and their
    # Hardy-minus projections are tiny (pole cancellation); the level
    # function f_{n,k} of exp(z/lam) has a pole of order exactly n at 0.
    assert [(d.level, d.curve_index) for d in exp_ladder.diagnostics] == [
        (n, k) for n in range(exp_ladder.depth + 1) for k in (9, 10, 11)]
    bound = exp_ladder.c_bound * exp_ladder.c1_bound
    for diag in exp_ladder.diagnostics:
        assert diag.corrected_sup <= bound * (1.0 + 1e-6)
        assert diag.projection_residual < 1e-8
        assert diag.pole_count == diag.level


def test_ladder_consistency(exp_ring, exp_ladder):
    # re-restricting the reconstruction matches f along an input curve
    phi = DiscFunction([0, 1.0 / 12.0])
    grid = unit_circle_grid(64)
    direct = exp_ring.eval_many(grid, phi(grid))
    series = np.zeros_like(grid)
    for entry in exp_ladder.entries:
        series += entry(grid) * phi(grid) ** entry.n
    q = 1.0 / (12.0 * 1.3)
    tail_bound = exp_ladder.c_prime * q ** 7 / (1.0 - q)
    assert np.abs(series - direct).max() <= tail_bound


# ------------------------------------------------------------------- pinch

def test_pinch_exponential(exp_ladder):
    desc = pinch_estimate(exp_ladder)
    assert len(desc.pinches) == 1
    (a, order), = desc.pinches
    assert abs(a) < 1e-8
    assert order == 1
    assert desc.c > 0


def test_pinch_no_poles():
    f = RingFunction.from_laurent([(2, 1, 1.0)], 0.3)
    curves = [DiscFunction([0, 1.0 / k]) for k in range(1, 7)]
    ladder = coefficient_ladder(f, curves, 3, 10, m=64)
    desc = pinch_estimate(ladder)
    assert desc.pinches == ()
    assert desc.c == 1.0


def _synthetic_ladder(depth=4):
    # zeros {0 (order 2)}, pole line at 0.4, entries satisfying the bound
    entries = [LadderEntry(n=0, rational=RationalPart(
        poles=(((0.4 + 0j), (1.0 + 0j,)),)), tail=())]
    for n in range(1, depth + 1):
        coeffs = tuple([0.3 ** n + 0j] + [0j] * (2 * n - 1))
        entries.append(LadderEntry(
            n=n, rational=RationalPart(poles=((0j, coeffs),)), tail=()))
    return CoefficientLadder(
        entries=tuple(entries), zeros=((0j, 2),),
        pole_lines=(((0.4 + 0j), 1),), epsilon=0.3, c_bound=2.0,
        c1_bound=1.0, c2_bound=1.4, c_prime=50.0, value_scale=1.0,
        grid_size=64)


def test_pinch_synthetic_with_pole_line():
    ladder = _synthetic_ladder()
    desc = pinch_estimate(ladder)
    assert desc.pinches == ((0j, 2),)
    assert desc.pole_lines == (0.4 + 0j,)
    assert desc.c > 0


def test_pinch_requires_depth():
    ladder = _synthetic_ladder(depth=1)
    with pytest.raises(ValueError):
        pinch_estimate(ladder)


# -------------------------------------------------------------- evaluation

def test_evaluate_at_z_zero(exp_ladder):
    desc = pinch_estimate(exp_ladder)
    out = evaluate_extension(exp_ladder, desc, 0.5 + 0.1j, 0.0)
    assert abs(out.value - exp_ladder.entries[0](0.5 + 0.1j)) < 1e-14


def test_evaluate_outside_domain(exp_ladder):
    desc = pinch_estimate(exp_ladder)
    lam = 0.05 + 0j
    z = 0.9 * desc.c * abs(lam) * 1.5
    with pytest.raises(DomainError):
        evaluate_extension(exp_ladder, desc, lam, z)


def test_evaluate_truncation_tolerance(exp_ladder):
    desc = pinch_estimate(exp_ladder)
    with pytest.raises(ConvergenceError):
        evaluate_extension(exp_ladder, desc, 0.5, 0.3, tol=1e-30)


def test_evaluate_deep_ladder(exp_ring):
    # depth-12 reconstruction evaluates e^{z/lam} to high relative accuracy
    curves = [DiscFunction([0, 1.0 / k]) for k in range(1, 21)]
    ladder = coefficient_ladder(exp_ring, curves, 12, 14, m=128)
    desc = pinch_estimate(ladder)
    out = evaluate_extension(ladder, desc, 0.5 + 0j, 0.1 + 0j)
    expected = cmath.exp(0.2)
    assert abs(out.value - expected) / abs(expected) < 1e-6
    assert abs(out.value - expected) <= out.bound


def test_evaluate_agrees_inside_domain(exp_ring, exp_ladder, rng):
    desc = pinch_estimate(exp_ladder)
    checked = 0
    while checked < 50:
        r = rng.uniform(0.71, 0.99)
        lam = r * np.exp(2j * np.pi * rng.uniform())
        z = (0.9 * desc.domain_radius(lam) * np.sqrt(rng.uniform())
             * np.exp(2j * np.pi * rng.uniform()))
        if abs(z) >= 0.95:
            continue
        out = evaluate_extension(exp_ladder, desc, lam, z, margin=0.95)
        direct = cmath.exp(complex(z) / complex(lam))
        assert abs(out.value - direct) <= out.bound
        checked += 1


# ------------------------------------------------------------------ bounds

def test_bounds_hold(exp_ladder):
    assert verify_coefficient_bounds(exp_ladder) == ()


def test_bounds_catch_tampering(exp_ladder):
    scaled = LadderEntry(
        n=1,
        rational=RationalPart(poles=(
            (0j, tuple(1e6 * c for c in exp_ladder.entries[1].rational.poles[0][1])),)),
        tail=exp_ladder.entries[1].tail)
    entries = list(exp_ladder.entries)
    entries[1] = scaled
    tampered = dataclasses.replace(exp_ladder, entries=tuple(entries))
    assert len(verify_coefficient_bounds(tampered)) > 0


def test_bounds_zero_ladder():
    entries = tuple(LadderEntry(n=n, rational=RationalPart(poles=()), tail=())
                    for n in range(4))
    ladder = CoefficientLadder(
        entries=entries, zeros=(), pole_lines=(), epsilon=0.3, c_bound=0.0,
        c1_bound=1.0, c2_bound=1.0, c_prime=0.0, value_scale=0.0,
        grid_size=64)
    assert verify_coefficient_bounds(ladder) == ()


def test_subtract_plus_normalization():
    # f = lam z^2 + z/lam: dropping the bidisc-holomorphic part leaves z/lam
    f = RingFunction.from_laurent([(2, 1, 1.0), (1, -1, 1.0)], 0.3)
    curves = [DiscFunction([0, 1.0 / k]) for k in range(1, 7)]
    ladder = coefficient_ladder(f, curves, 3, 10, m=64, subtract_plus=True)
    grid = 0.6 * np.exp(2j * np.pi * np.arange(8) / 8)
    npt.assert_allclose(ladder.entries[1](grid), 1.0 / grid, rtol=1e-10)
    assert ladder.entries[2].is_zero
    full = coefficient_ladder(f, curves, 3, 10, m=64)
    npt.assert_allclose(full.entries[2](grid), grid, rtol=1e-10)


def test_subtract_plus_requires_exact_form():
    from pinchext import minus_part
    f = RingFunction(lambda lam, z: np.exp(z / lam), 0.3)
    with pytest.raises(ValueError):
        minus_part(f)


# -------------------------------------------------- float evaluator fallback

def test_ladder_float_fallback():
    # a plain float evaluator still supports shallow ladders, at reduced
    # accuracy (hence the looser convergence tolerance)
    f = RingFunction(lambda lam, z: np.exp(z / lam), 0.3)
    assert not f.mp_capable
    curves = [DiscFunction([0, 1.0 / k]) for k in range(1, 9)]
    ladder = coefficient_ladder(f, curves, 2, 10, m=64, ladder_tol=1e-5)
    grid = 0.7 * np.exp(2j * np.pi * np.arange(8) / 8)
    for n in range(3):
        expected = grid ** (-n) / math.factorial(n)
        rel = np.abs(ladder.entries[n](grid) - expected) / np.abs(expected)
        assert rel.max() < 1e-5


# ------------------------------------------------------- JSON report shapes

def test_report_dicts(exp_ladder):
    desc = pinch_estimate(exp_ladder)
    d = exp_ladder.as_dict()
    assert {"depth", "epsilon", "zeros", "pole_lines", "C", "C1", "C2",
            "C_prime", "entries"} <= set(d)
    assert d["depth"] == 6
    p = desc.as_dict()
    assert p["pinches"][0]["order"] == 1
    v = extension_test(RingFunction.from_laurent([(1, -2, 1.0)], 0.3),
                       DiscFunction([0, 1.0]), 10).as_dict()
    assert v["kind"] == "meromorphic"
    assert v["rational"]["poles"][0]["m"] == 1
