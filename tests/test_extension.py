import cmath
import dataclasses
import decimal
import math
import re
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import numpy.testing as npt
import pytest

from pinchext import (BandwidthError, CircleFunction, CircleVanishingError,
                      CoefficientLadder, ConvergenceError, DiscFunction,
                      DomainError, LadderEntry, PinchDescriptor,
                      RationalPart, RingFunction, blaschke_from_zeros,
                      coefficient_ladder, curve_difference,
                      evaluate_extension, extension,
                      extension_test, hardy_project_minus, minus_part,
                      pinch_estimate, restrict_along_curve, unit_circle_grid,
                      verify_coefficient_bounds)
from pinchext.extension import (_DecimalArray, _decimal_digits,
                                _divided_differences, _interp_prefixes,
                                _mpf_to_decimal, _roots_of_rows)
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


def test_laurent_mp_path_matches_float_kernel(rng):
    # the Laurent form is the default mp evaluator; at dps 40 it agrees
    # with the float evaluator at ring points
    terms = [(0, -3, 0.5 - 1j), (1, -1, 2.0), (2, 2, 0.25j), (3, 0, -1.5)]
    f = RingFunction.from_laurent(terms, 0.3)
    lam = (1 + 0.25 * rng.uniform(-1, 1, 4)) * np.exp(2j * np.pi * rng.uniform(0, 1, 4))
    z = 0.9 * rng.uniform(0, 1, 4) * np.exp(2j * np.pi * rng.uniform(0, 1, 4))
    with mp.workdps(40):
        got = [f.eval_mp(mp.mpc(l), mp.mpc(w)) for l, w in zip(lam, z)]
        assert all(isinstance(v, mp.mpc) for v in got)
    npt.assert_allclose(np.array(got, dtype=complex), f.eval_many(lam, z),
                        rtol=1e-13, atol=0)
    # an explicit mp evaluator takes precedence over the Laurent form
    g = RingFunction(f.evaluator, 0.3, laurent=terms,
                     mp_evaluator=lambda lam, z: mp.mpc(7))
    assert g.eval_mp(mp.mpc(1), mp.mpc(0)) == 7
    with pytest.raises(ValueError, match="no extended-precision"):
        RingFunction(f.evaluator, 0.3).eval_mp(mp.mpc(1), mp.mpc(0))


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan),
                                 complex(-math.inf, 0)])
def test_disc_function_rejects_non_finite_coefficients(bad):
    for into_disc in (True, False):
        with pytest.raises(ValueError, match=r"^coefficient c_0 = .* is not finite"):
            DiscFunction([bad, 0.5], require_into_disc=into_disc)
    with pytest.raises(ValueError, match=r"^coefficient c_2 = "):
        DiscFunction([0, 0.5, bad, 1e-20], require_into_disc=False)


def test_subnormal_top_coefficient_rejected():
    # -p[1:] / p[0] would overflow the companion matrix; the error names
    # the row and the coefficient instead, with no warning
    rows = np.array([[0.5, 0.25], [3.4e-308j, 2.2e-311j]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"row 1: .*c_1 = 2\.2e-311j"):
            _roots_of_rows(rows)
        with pytest.raises(ValueError, match=r"c_1 = 2\.2e-311j .*normal"):
            DiscFunction([3.4e-308j, 2.2e-311j])
    # no division for a constant or a monomial: their zeros are exact
    assert DiscFunction([1e-320]).roots().size == 0
    assert DiscFunction([0, 0, 1e-320]).roots().size == 2
    assert _roots_of_rows(np.array([[3e-308 - 2.9e-308]]))[0].size == 0


def test_disc_function_roots():
    phi = DiscFunction([0, -0.5 / 3, 1.0 / 3], require_into_disc=False)
    roots = phi.roots_in_disc(0.9)
    assert [(round(a.real, 8), mult) for a, mult in roots] == [(0.0, 1), (0.5, 1)]
    target = DiscFunction([0, 0, 0.5])
    assert target.roots_in_disc(0.9) == ((0j, 2),)


def test_disc_function_all_roots():
    # every zero, repeated by multiplicity; none for a nonzero constant;
    # None marks the zero curve, which vanishes everywhere
    phi = DiscFunction([0, -0.5 / 3, 1.0 / 3], require_into_disc=False)
    assert sorted(np.round(phi.roots().real, 8)) == [0.0, 0.5]
    assert DiscFunction([0, 0, 0.5]).roots().size == 2
    assert DiscFunction([0.3]).roots().size == 0
    assert DiscFunction([0j]).roots() is None
    with pytest.raises(ValueError, match="zero curve"):
        DiscFunction([0j]).roots_in_disc(0.9)


def test_curve_difference():
    d = curve_difference(DiscFunction([0, 1.0]),
                         DiscFunction([0.7, 0.7], require_into_disc=False))
    npt.assert_allclose(d.coeffs, [-0.7, 0.3])


def test_sup_bound_set_at_construction(monkeypatch):
    # every curve samples its sup once, into-disc check or not; reading
    # it later evaluates nothing
    d = curve_difference(DiscFunction([0, 1.0]), DiscFunction([0.5, 0, 0.25]))
    monkeypatch.setattr(DiscFunction, "__call__", None)
    grid = unit_circle_grid(256)
    expected = float(np.abs(np.polynomial.polynomial.polyval(grid, d.coeffs)).max())
    assert d.sup_bound == expected


def test_sup_bound_grid_grows_with_degree(monkeypatch):
    # N = max(256, 2**ceil(log2(8 (d + 1)))) points: 256 up to degree 31
    sizes = []
    grid = extension.unit_circle_grid
    monkeypatch.setattr(extension, "unit_circle_grid",
                        lambda m: sizes.append(m) or grid(m))
    for degree in (0, 31, 32, 128):
        DiscFunction([0] * degree + [0.5])
    assert sizes == [256, 256, 512, 2048]
    # degree 128 with sup 1 + 1e-7 at lam^128 = 1, which 256 points miss
    peaked = [0.50000005] + [0] * 127 + [0.50000005j]
    with pytest.raises(ValueError, match=r"^curve has sup 1\.000000 "):
        DiscFunction(peaked)
    assert (DiscFunction(peaked, require_into_disc=False).sup_bound
            >= 1.0 + 1e-7)


def test_into_disc_check_covers_the_sampling_miss():
    # c (1 + e^{-i pi/256} lam^31) with 2|c| = 1 + 1e-6 has sup 1 + 1e-6,
    # but its 256 samples peak at 0.99998: neither sum |c_k| nor the
    # sampled sup times sec(31 pi / 512) bounds it by 1
    c0 = (1 + 1e-6) / 2
    peaked = [c0] + [0] * 30 + [c0 * cmath.exp(-1j * math.pi / 256)]
    assert DiscFunction(peaked, require_into_disc=False).sup_bound < 1.0
    with pytest.raises(ValueError, match=r"^curve has sampled sup 0\.999982 "
                       r"on 256 circle points, .* only by 1\.018349; "):
        DiscFunction(peaked)
    # sum |c_k| = 1 still admits the extremal curves of sup exactly 1
    DiscFunction([0.5] + [0] * 30 + [0.5 * cmath.exp(-1j * math.pi / 256)])
    DiscFunction([0, 1.0])
    # and the sampled sup admits 0.44 (1 + lam - lam^2): sup 0.98, sum 1.32
    assert DiscFunction([0.44, 0.44, -0.44]).sup_bound < 0.99


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


def _to_mpc(z: _DecimalArray, idx):
    return mp.mpc(mp.mpf(str(z.re[idx])), mp.mpf(str(z.im[idx])))


def test_interp_prefixes_matches_lu():
    # every prefix of random well-separated nodes, several truncations:
    # Decimal path to 1e-30 and complex path to 1e-8 of the LU solution
    rng = np.random.default_rng(4004)
    to_mp = np.vectorize(mp.mpc, otypes=[object])
    context = decimal.Context(prec=_decimal_digits(50))
    for kcurves in range(4, 13):
        x = np.column_stack([_separated_nodes(rng, kcurves) for _ in range(2)])
        y = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        sizes = list(range(1, kcurves + 1))
        with mp.workdps(50), decimal.localcontext(context):
            x_mp, y_mp = to_mp(x), to_mp(y)
            refs = {(k, col): _lu_coeffs(x_mp[:k, col], y_mp[:k, col])
                    for k in sizes for col in range(2)}
            x_dec, y_dec = _DecimalArray.from_mpc(x_mp), _DecimalArray.from_mpc(y_mp)
            dd_dec = _divided_differences(x_dec, y_dec)
            dd_c = _divided_differences(x, y)
            for n_keep in sorted({1, 2, kcurves // 2, kcurves - 1}):
                got_dec = _interp_prefixes(x_dec, dd_dec, n_keep, sizes)
                got_c = _interp_prefixes(x, dd_c, n_keep, sizes)
                for (k, col), ref in refs.items():
                    scale = max(abs(r) for r in ref)
                    ref = (ref + [mp.mpc(0)] * n_keep)[:n_keep]
                    err = max(abs(_to_mpc(got_dec[k - 1], (d, col)) - r)
                              for d, r in enumerate(ref))
                    assert err <= 1e-30 * scale
                    c_c = got_c[k - 1][:, col]
                    ref_c = np.array([complex(r) for r in ref])
                    assert np.abs(c_c - ref_c).max() <= 1e-8 * float(scale)


def test_convergence_check_reads_prefix_estimates(exp_ring):
    # the estimates from the first K-2 and K-1 curves come from the table
    # built for the extraction; the differences the check reports must match
    # separate LU solves on those prefixes
    kcurves, depth, m = 8, 2, 64
    curves = [DiscFunction([0, 1.0 / k]) for k in range(1, kcurves + 1)]
    with pytest.raises(ConvergenceError, match="not converging") as info:
        coefficient_ladder(exp_ring, curves, depth, 10, m=m, ladder_tol=1e-30)
    d_prev, d_last = map(float, re.search(
        r"differences (\S+), (\S+) project", str(info.value)).groups())
    est = []
    with mp.workdps(40):
        for k in (kcurves - 2, kcurves - 1, kcurves):
            rows = []
            for lam in unit_circle_grid(m):
                lam = mp.mpc(lam)
                x = [mp.mpc(1.0 / j) * lam for j in range(1, k + 1)]
                y = [mp.exp(t / lam) for t in x]
                rows.append([complex(c) for c in _lu_coeffs(x, y)[:depth + 1]])
            est.append(np.array(rows))
    assert d_prev == pytest.approx(np.abs(est[1] - est[0]).max(), rel=1e-3)
    assert d_last == pytest.approx(np.abs(est[2] - est[1]).max(), rel=1e-3)


def test_decimal_digits_rule():
    # the smallest p whose half-ulp 10**(1-p)/2 is at most mpmath's 2**-prec
    for dps in range(15, 201):
        prec = mp.libmp.dps_to_prec(dps)
        p = _decimal_digits(dps)
        assert Fraction(10) ** (1 - p) / 2 <= Fraction(2) ** -prec
        assert Fraction(10) ** (2 - p) / 2 > Fraction(2) ** -prec
    assert _decimal_digits(52) == 54


def test_decimal_array_conversion():
    # each mpc part rounds once to the context; float() rounds back correctly
    rng = np.random.default_rng(4005)
    z = rng.standard_normal(40) * 10.0 ** rng.integers(-30, 30, 40) \
        + 1j * rng.standard_normal(40)
    context = decimal.Context(prec=_decimal_digits(50))
    with mp.workdps(50), decimal.localcontext(context):
        z_mp = np.array([mp.mpc(v) / 3 for v in z] + [mp.mpc(0), mp.mpc(-0.0, 2)],
                        dtype=object)
        z_dec = _DecimalArray.from_mpc(z_mp)
    half_ulp = Fraction(10) ** (1 - context.prec) / 2
    for idx, v in enumerate(z_mp):
        for got, part in ((z_dec.re[idx], v.real), (z_dec.im[idx], v.imag)):
            sign, man, exp, _ = part._mpf_
            exact = (-1) ** sign * man * Fraction(2) ** exp
            assert abs(Fraction(got) - exact) <= half_ulp * abs(exact)
    as_c = z_dec.astype(complex)
    assert as_c.tolist() == [complex(v) for v in z_mp]
    # Decimal zeros carry a sign, mpmath zeros do not: doubles get +0.0
    with decimal.localcontext(context):
        neg = (z_dec * -1).astype(complex)[-2:]
    assert [math.copysign(1.0, c.real) for c in neg] == [1.0, 1.0]


class _IntLike:
    """An integer that is not an ``int``, as gmpy2's ``mpz`` is not."""

    def __init__(self, value: int):
        self.value = value

    def __int__(self) -> int:
        return self.value

    def __bool__(self) -> bool:
        return bool(self.value)


def test_mpf_to_decimal_accepts_int_like_mantissa():
    # mpmath's gmpy backend keeps mantissas as mpz, not int
    context = decimal.Context(prec=_decimal_digits(50))
    with mp.workdps(50), decimal.localcontext(context):
        for v in (mp.mpf(1) / 3, -mp.mpf(2) ** 80 / 7, mp.mpf(5)):
            sign, man, exp, bc = v._mpf_
            wrapped = (sign, _IntLike(man), exp, bc)
            assert _mpf_to_decimal(wrapped) == _mpf_to_decimal(v._mpf_)


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


def test_ladder_checks_curves_in_order(exp_ring):
    # curve 0 is not extendable and curve 3 leaves the z-range: the curve-0
    # verdict still comes first, and only the rows before curve 3 are
    # evaluated
    calls = []
    ring = RingFunction(lambda lam, z: calls.append(1) or np.exp(z / lam),
                        0.3)
    curves = [DiscFunction([0, 1.0 / k]) for k in range(1, 7)]
    curves[0] = DiscFunction([0.2])
    curves[3] = DiscFunction([0, 1.5], require_into_disc=False)
    with pytest.raises(ConvergenceError, match="^curve 0 is not extendable"):
        coefficient_ladder(ring, curves, 3, 10, m=64)
    assert len(calls) == 3
    # the restriction errors name their curve
    curves[0] = DiscFunction([0, 1.0])
    with pytest.raises(DomainError,
                       match=r"^curve 3: curve leaves the z-range .*1\.5"):
        coefficient_ladder(exp_ring, curves, 3, 10, m=64)
    curves[2] = DiscFunction([0] * 23 + [0.9])
    with pytest.raises(BandwidthError, match=r"^curve 2: effective bandwidth"):
        coefficient_ladder(exp_ring, curves, 3, 10, m=64)


def _lam_over(ks, *head):
    """Curves ``sum head[j] lam**j + lam**len(head) / k`` for k in ``ks``."""
    return [DiscFunction(list(head) + [1.0 / k]) for k in ks]


@pytest.mark.parametrize("case, error, text", [
    ("shrink", ConvergenceError,
     "curves do not shrink toward the zero curve (pre-normalize via the "
     "coordinate change z -> z - phi_0)"),
    ("zero-counts", ConvergenceError,
     "curve zero counts [1, 1, 2] did not stabilize over the last three "
     "curves; not a valid test-sequence scenario"),
    ("zero-drift", ConvergenceError,
     "curve zero near (0.5+0j) drifts by more than 0.1 across the last "
     "three curves"),
    ("pole-counts", ConvergenceError,
     "extension pole counts [0, 0, 1] did not stabilize over the last "
     "three curves"),
    ("budget", ConvergenceError,
     "pole budget depth*N + M = 18 exceeds the supported bound 16"),
    ("vanishing", CircleVanishingError, "curve 0 vanishes on the unit circle"),
    ("coincide", ConvergenceError, "two curves coincide at a grid point"),
])
def test_ladder_sequence_error_texts(exp_ring, case, error, text):
    ring, depth = exp_ring, 3
    if case == "shrink":        # phi_k = k lam / 6 grows
        curves = [DiscFunction([0, k / 6]) for k in range(1, 7)]
    elif case == "zero-counts":  # the last curve gains a zero at 0.5
        curves = (_lam_over(range(1, 6), 0)
                  + [DiscFunction([0, -0.5 / 12, 1 / 12])])
    elif case == "zero-drift":  # its zero 0.5 moves to 0.2
        curves = (_lam_over(range(1, 4), 0)
                  + [DiscFunction([0, -0.5 / (2 * k), 1 / (2 * k)])
                     for k in (4, 5)]
                  + [DiscFunction([0, -0.2 / 12, 1 / 12])])
    elif case == "pole-counts":  # z / lam along (lam - 0.05) / 6 has a pole
        ring = RingFunction.from_laurent([(1, -1, 1.0)], 0.3)
        curves = _lam_over(range(1, 6), 0) + [DiscFunction([-0.05 / 6, 1 / 6])]
    elif case == "budget":      # N = 2 at depth 9
        curves, depth = _lam_over(range(1, 12), 0, 0), 9
    elif case == "vanishing":   # lam (lam - 1) / 3k is zero at lam = 1
        curves = [DiscFunction([0, -1.0 / (3 * k), 1.0 / (3 * k)])
                  for k in range(1, 7)]
    else:                       # lam/2 and lam^2/2 agree at lam = 1
        curves = _lam_over(range(2, 7), 0)
        curves.insert(2, DiscFunction([0, 0, 0.5]))
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        coefficient_ladder(ring, curves, depth, 10, m=64)


def _failing_detector(monkeypatch, failures):
    """Patch the ladder's ``detect_rational``: call ``i`` (from 0) returns
    ``failures[i]`` applied to the true verdict, the others the true one.

    On the criterion-5 ladder (12 curves, depth 6) the extension tests and
    level 0 are holomorphic, so calls 0..5 split A_1..A_6 and calls 6..23
    the level functions f_{n,k}, n = 1..6, k = 9, 10, 11.
    """
    calls = []
    original = extension.detect_rational

    def detect(psi, n_max, **kwargs):
        verdict = original(psi, n_max, **kwargs)
        calls.append(n_max)
        fail = failures.get(len(calls) - 1)
        return verdict if fail is None else fail(verdict)

    monkeypatch.setattr(extension, "detect_rational", detect)
    return calls


def _not_rational(verdict):
    return dataclasses.replace(verdict, kind="not-rational", rank=7, gap=2.5,
                               rational=None)


def _with_poles(*poles):
    return lambda verdict: dataclasses.replace(
        verdict, rational=RationalPart(poles=poles))


@pytest.mark.parametrize("failures, text", [
    ({0: _not_rational},
     "coefficient A_1 is not rational with at most 1 poles (rank 7, gap "
     "2.50e+00)"),
    ({1: _with_poles((0j, (1.0, 1.0, 1.0)))},
     "A_2 carries 3 poles, exceeding the budget n*N + M = 2"),
    ({0: _with_poles((0.5 + 0j, (1.0,)))},
     "A_1 has an unexpected pole at (0.5+0j) (mult 1); poles must "
     "accumulate at curve zeros or extension poles"),
    ({6: _not_rational},
     "level function f_1,9 is not rational within the pole budget 1"),
    ({7: _with_poles((0j, (1.0, 1.0)))},
     "pole count 2 at level 1 exceeds the budget n*N + M = 1"),
    # every A_n is checked before any level function
    ({5: _not_rational, 6: _not_rational},
     "coefficient A_6 is not rational with at most 6 poles (rank 7, gap "
     "2.50e+00)"),
])
def test_ladder_split_error_texts(monkeypatch, exp_ring, failures, text):
    calls = _failing_detector(monkeypatch, failures)
    curves = _lam_over(range(1, 13), 0)
    with pytest.raises(ConvergenceError, match=f"^{re.escape(text)}$"):
        coefficient_ladder(exp_ring, curves, 6, 10, m=64)
    # the first failing call raises
    assert len(calls) == min(failures) + 1


def test_ladder_split_call_order(monkeypatch, exp_ring):
    # the premise of the cases above: the budgets of A_1..A_6, then those
    # of three level functions per level
    calls = _failing_detector(monkeypatch, {})
    coefficient_ladder(exp_ring, _lam_over(range(1, 13), 0), 6, 10, m=64)
    assert calls == [1, 2, 3, 4, 5, 6] + [n for n in range(1, 7)
                                          for _ in range(3)]


@pytest.mark.parametrize("m, message", [
    (8, "need at least 16 samples, got 8"),
    (100, "sample count must be a power of two, got 100")])
def test_restriction_checks_grid_size(exp_ring, m, message):
    phi = DiscFunction([0, 0.5])
    curves = [DiscFunction([0, 1.0 / k]) for k in range(1, 7)]
    with pytest.raises(ValueError, match=f"^{message}$"):
        restrict_along_curve(exp_ring, phi, m)
    with pytest.raises(ValueError, match=f"^{message}$"):
        extension_test(exp_ring, phi, 10, m=m)
    with pytest.raises(ValueError, match=f"^{message}$"):
        coefficient_ladder(exp_ring, curves, 3, 10, m=m)


def test_evaluator_domain_error_names_the_curve():
    # the evaluator refuses z-values beyond 0.4: curve 2 (z up to 0.5)
    # is the first one it rejects
    def evaluator(lam, z):
        if np.abs(z).max() > 0.4:
            raise DomainError("z outside the evaluator's range")
        return np.exp(z / lam)

    ring = RingFunction(evaluator, 0.3)
    curves = [DiscFunction([0, 0.1 / k]) for k in range(1, 7)]
    curves[2] = DiscFunction([0, 0.5])
    with pytest.raises(DomainError,
                       match="^curve 2: z outside the evaluator's range$"):
        coefficient_ladder(ring, curves, 3, 10, m=64)
    with pytest.raises(DomainError, match="^z outside the evaluator's range$"):
        extension_test(ring, curves[2], 10, m=64)


def test_float_ladder_samples_each_curve_once(monkeypatch):
    # the extension tests, the vanishing check and the interpolation read
    # one sampling of each curve: K evaluator calls and K curve calls
    curves = [DiscFunction([0, 1.0 / k]) for k in range(1, 11)]
    calls = {"ring": 0, "curve": 0}
    ring = RingFunction(
        lambda lam, z: calls.update(ring=calls["ring"] + 1) or np.exp(z / lam),
        0.3)
    original = DiscFunction.__call__

    def counted(self, lam):
        calls["curve"] += 1
        return original(self, lam)

    monkeypatch.setattr(DiscFunction, "__call__", counted)
    coefficient_ladder(ring, curves, 3, 10, m=64, ladder_tol=1e-5)
    assert calls == {"ring": 10, "curve": 10}


def test_ladder_diagnostics(exp_ring, exp_ladder):
    # Records run level by level over the last three of the 12 curves.
    # Blaschke-corrected level functions stay bounded by C*C1 and their
    # Hardy-minus projections are tiny (pole cancellation); the level
    # function f_{n,k} of exp(z/lam) has a pole of order exactly n at 0.
    assert [(d.level, d.curve_index) for d in exp_ladder.diagnostics] == [
        (n, k) for n in range(exp_ladder.depth + 1) for k in (9, 10, 11)]
    bound = exp_ladder.c_bound * exp_ladder.c1_bound
    grid = unit_circle_grid(64)
    for diag in exp_ladder.diagnostics:
        assert diag.corrected_sup <= bound * (1.0 + 1e-6)
        assert diag.projection_residual < 1e-8
        assert diag.pole_count == diag.level
        assert diag.poles == (((0j, diag.level),) if diag.level else ())
        # the stored level function is f_{n,k} = (f_{n-1,k} - A_{n-1}) /
        # phi_k, rebuilt from the curve and the entries; the ladder's own
        # recursion runs on the raw interpolants at extended precision, so
        # they agree to rounding amplified by |1/phi_k|^n
        n, k = diag.level, diag.curve_index + 1
        phi = grid / k
        rebuilt = exp_ring.eval_many(grid, phi)
        for entry in exp_ladder.entries[:n]:
            rebuilt = (rebuilt - entry(grid)) / phi
        level_fn = CircleFunction.from_coefficients(diag.level_coeffs, 1.0)
        assert np.abs(level_fn.samples - rebuilt).max() <= 1e-14 * k ** n
        # the eager correction of the level function by the Blaschke
        # product of its poles gives the same floats, bit for bit
        blaschke = blaschke_from_zeros(
            [p for p, mult in diag.poles for _ in range(mult)])
        corrected = level_fn * CircleFunction(blaschke(grid), 1.0)
        assert diag.corrected_sup == corrected.sup_norm
        assert (diag.projection_residual
                == hardy_project_minus(corrected).sup_norm)


def test_ladder_computes_blaschke_correction_on_read(monkeypatch, exp_ring):
    # building a ladder forms no Blaschke product; each read of a
    # corrected quantity forms one
    calls = []
    original = extension.blaschke_from_zeros
    monkeypatch.setattr(extension, "blaschke_from_zeros",
                        lambda zeros: calls.append(1) or original(zeros))
    curves = [DiscFunction([0, 1.0 / k]) for k in range(1, 11)]
    ladder = coefficient_ladder(exp_ring, curves, 3, 10, m=64)
    assert len(calls) == 0
    diag = ladder.diagnostics[-1]
    first = diag.corrected_sup
    assert len(calls) == 1
    assert diag.corrected_sup == first and len(calls) == 2
    diag.projection_residual
    assert len(calls) == 3


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


def test_truncation_bound_holds_on_held_out_curves(exp_ring):
    # the ladder sees phi_k = lambda/k for k <= 12 only; on the curves
    # lambda/13, lambda/20 and lambda/40, where exp(z/lambda) is known,
    # the series must stay within its reported truncation bound
    curves = [DiscFunction([0, 1.0 / k]) for k in range(1, 13)]
    ladder = coefficient_ladder(exp_ring, curves, 6, 10)
    desc = pinch_estimate(ladder)
    for lam in 0.85 * unit_circle_grid(16):
        for k in (13, 20, 40):
            z = lam / k
            out = evaluate_extension(ladder, desc, lam, z)
            assert abs(out.value - np.exp(z / lam)) <= out.bound


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
        c1_bound=1.0, c2_bound=1.4, c_prime=50.0)


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
        c1_bound=1.0, c2_bound=1.0, c_prime=0.0)
    assert verify_coefficient_bounds(ladder) == ()


def test_subtract_plus_normalization():
    # f = lam z^2 + z/lam: dropping the bidisc-holomorphic part leaves z/lam
    f = RingFunction.from_laurent([(2, 1, 1.0), (1, -1, 1.0)], 0.3)
    curves = [DiscFunction([0, 1.0 / k]) for k in range(1, 7)]
    ladder = coefficient_ladder(minus_part(f), curves, 3, 10, m=64)
    grid = 0.6 * np.exp(2j * np.pi * np.arange(8) / 8)
    npt.assert_allclose(ladder.entries[1](grid), 1.0 / grid, rtol=1e-10)
    assert ladder.entries[2].is_zero
    full = coefficient_ladder(f, curves, 3, 10, m=64)
    npt.assert_allclose(full.entries[2](grid), grid, rtol=1e-10)


def test_subtract_plus_requires_exact_form():
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
