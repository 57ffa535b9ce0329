import cmath
import dataclasses
import decimal
import functools
import json
import math
import os
import re
import sys
import threading
import time
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
                      coefficient_ladder, evaluate_extension, extension,
                      extension_test, hardy_project_minus, minus_part,
                      pinch_estimate, unit_circle_grid,
                      verify_coefficient_bounds)
from pinchext.cli import _profile_csv
from pinchext.extension import (_DecimalArray, _decimal_digits,
                                _divided_differences, _interp_prefixes,
                                _mpf_to_decimal, _roots_of_rows)
from pinchext.gallery import (Example1, Example2, example1_ring,
                              example2_ring, remark1_eval, remark1_ring)


@pytest.fixture(scope="module")
def exp_ring():
    return remark1_ring(0.3)


@pytest.fixture(scope="module")
def exp_ladder(exp_ring):
    curves = [DiscFunction([0, 1.0 / k]) for k in range(1, 13)]
    return coefficient_ladder(exp_ring, curves, 6, 10, m=64)


# ------------------------------------------------------------ ring function

def test_ring_function_from_laurent_evaluates():
    f = RingFunction.from_laurent([(1, -2, 1.0)], 0.3)
    assert abs(f.evaluator(np.array([2j]), np.array([0.5]))[0]
               - 0.5 / (2j) ** 2) < 1e-14
    assert f.mp_evaluator is not None


def test_from_laurent_refuses_degrees_that_are_not_integers():
    # int() would read 1.5 as 1 and True as 1
    for term, message in (((1.5, -0.7, 1.0), "degree n = 1.5"),
                          ((True, 0, 1.0), "degree n = True"),
                          ((None, 0, 1.0), "degree n = None"),
                          ((1, 0.5, 1.0), "degree l = 0.5"),
                          ((1, math.inf, 1.0), "degree l = inf")):
        with pytest.raises(ValueError, match=re.escape(
                f"term 1: {message} is not an integer")):
            RingFunction.from_laurent([(0, 0, 1.0), term], 0.3)
    f = RingFunction.from_laurent([(2.0, np.int64(-1), 1.0)], 0.3)
    assert f.laurent == ((2, -1, 1 + 0j),)
    assert all(type(d) is int for d in f.laurent[0][:2])


def test_laurent_mp_path_matches_float_kernel(rng):
    # from_laurent builds the mp evaluator from the terms; at dps 40 it
    # agrees with the float evaluator at ring points
    terms = [(0, -3, 0.5 - 1j), (1, -1, 2.0), (2, 2, 0.25j), (3, 0, -1.5)]
    f = RingFunction.from_laurent(terms, 0.3)
    lam = (1 + 0.25 * rng.uniform(-1, 1, 4)) * np.exp(2j * np.pi * rng.uniform(0, 1, 4))
    z = 0.9 * rng.uniform(0, 1, 4) * np.exp(2j * np.pi * rng.uniform(0, 1, 4))
    with mp.workdps(40):
        got = [f.mp_evaluator(mp.mpc(l), [mp.mpc(w)])[0]
               for l, w in zip(lam, z)]
        assert all(isinstance(v, mp.mpc) for v in got)
    npt.assert_allclose(np.array(got, dtype=complex), f.evaluator(lam, z),
                        rtol=1e-13, atol=0)
    assert f.laurent == tuple((n, l, complex(c)) for n, l, c in terms)
    # a ring built from its evaluator alone has no Laurent form
    g = RingFunction(f.evaluator, 0.3)
    assert g.laurent is None and g.mp_evaluator is None


def test_ring_function_epsilon_range():
    with pytest.raises(ValueError):
        RingFunction(lambda lam, z: z, 0.7)


# ------------------------------------------------------------ disc function

def test_disc_function_trims_tail():
    phi = DiscFunction([0.5, 0, 0, 1e-20])
    assert phi.degree == 0
    assert phi.coeffs == (0.5 + 0j,)


def _horner_from_zero(coeffs, lam):
    total = 0
    for c in reversed([mp.mpc(c) for c in coeffs]):
        total = total * lam + c
    return total


@pytest.mark.parametrize("degree", range(7))
def test_disc_eval_mp_matches_horner_from_zero(degree):
    # Horner that starts at lam * c_top has the bits of the textbook form,
    # at one mpc and at an object array of them, zero coefficients included;
    # a constant curve still gives one value per grid point
    rng = np.random.default_rng(4100 + degree)
    coeffs = 0.2 * (rng.standard_normal(degree + 1)
                    + 1j * rng.standard_normal(degree + 1))
    coeffs[0] = 0.0
    coeffs[degree // 2] = 0.0
    coeffs[degree] = 0.3 - 0.1j
    phi = DiscFunction(coeffs / max(1.0, np.abs(coeffs).sum()))
    assert phi.degree == degree
    with mp.workdps(52):
        lam = np.array([mp.mpc(x) for x in unit_circle_grid(16) * 0.97],
                       dtype=object)
        got = phi.eval_mp(lam)
        assert got.shape == lam.shape
        for x, y in zip(got, lam):
            assert x._mpc_ == _horner_from_zero(phi.coeffs, y)._mpc_
            assert phi.eval_mp(y)._mpc_ == x._mpc_


def test_disc_function_into_disc_check():
    with pytest.raises(ValueError):
        DiscFunction([0.9, 0.9])
    DiscFunction([0, 1.0])  # lam itself: closed-disc boundary is allowed


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan),
                                 complex(-math.inf, 0)])
def test_disc_function_rejects_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match=r"^coefficient c_0 = .* is not finite"):
        DiscFunction([bad, 0.5])
    with pytest.raises(ValueError, match=r"^coefficient c_2 = "):
        DiscFunction([0, 0.5, bad, 1e-20])


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
    phi = DiscFunction([0, -0.5 / 3, 1.0 / 3])
    roots = phi.roots_in_disc(0.9)
    assert [(round(a.real, 8), mult) for a, mult in roots] == [(0.0, 1), (0.5, 1)]
    target = DiscFunction([0, 0, 0.5])
    assert target.roots_in_disc(0.9) == ((0j, 2),)


def test_disc_function_all_roots():
    # every zero, repeated by multiplicity; none for a nonzero constant;
    # None marks the zero curve, which vanishes everywhere
    phi = DiscFunction([0, -0.5 / 3, 1.0 / 3])
    assert sorted(np.round(phi.roots().real, 8)) == [0.0, 0.5]
    assert DiscFunction([0, 0, 0.5]).roots().size == 2
    assert DiscFunction([0.3]).roots().size == 0
    assert DiscFunction([0j]).roots() is None
    with pytest.raises(ValueError, match="zero curve"):
        DiscFunction([0j]).roots_in_disc(0.9)


def test_sup_bound_set_at_construction(monkeypatch):
    # every curve samples its sup once, for the into-disc check; reading
    # it later evaluates nothing
    d = DiscFunction([-0.25, 0.5, -0.125])
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


def test_sup_bound_is_the_sampled_max_of_the_curve():
    # the constructor samples with one polyval of its trimmed coefficients:
    # bit for bit the max of |phi| on its grid through __call__, on grids
    # of 256 to 2048 points, with tails below the trim in every other curve
    rng = np.random.default_rng(5151)
    sizes = set()
    for degree in [*range(41), 63, 64, 127, 128, 255]:
        c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        c *= rng.uniform(0.3, 0.99) / np.abs(c).sum()
        if degree % 2:
            c = np.concatenate([c, [1e-17, 2e-18j]])
        phi = DiscFunction(c)
        n = max(256, 1 << (8 * (phi.degree + 1) - 1).bit_length())
        sizes.add(n)
        assert phi.sup_bound == float(np.abs(phi(unit_circle_grid(n))).max())
    assert sizes == {256, 512, 1024, 2048}


def test_into_disc_check_covers_the_sampling_miss():
    # c (1 + e^{-i pi/256} lam^31) with 2|c| = 1 + 1e-6 has sup 1 + 1e-6,
    # but its 256 samples peak at 0.99998: neither sum |c_k| nor the
    # sampled sup times sec(31 pi / 512) bounds it by 1
    c0 = (1 + 1e-6) / 2
    peaked = [c0] + [0] * 30 + [c0 * cmath.exp(-1j * math.pi / 256)]
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
    grid = unit_circle_grid(64)
    g = CircleFunction(f.evaluator(grid, DiscFunction([0, 0, 1.0])(grid)))
    assert abs(g.coeffs[3 + 32] - 1.0) < 1e-13
    assert sum(abs(g.coeffs[n + 32]) for n in range(-32, 32) if n != 3) < 1e-12


def test_restrict_constant_result():
    f = RingFunction.from_laurent([(1, -1, 1.0)], 0.3)  # z / lam
    grid = unit_circle_grid(64)
    g = CircleFunction(f.evaluator(grid, DiscFunction([0, 0.5])(grid)))
    npt.assert_allclose(g.samples, 0.5, atol=1e-14)


def test_restrict_exponential(exp_ring):
    grid = unit_circle_grid(64)
    g = CircleFunction(exp_ring.evaluator(grid,
                                          DiscFunction([0, 1.0 / 3.0])(grid)))
    npt.assert_allclose(g.samples, cmath.exp(1.0 / 3.0), atol=1e-13)


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


def test_extension_test_has_no_tolerance_keyword(exp_ring):
    # the holomorphy threshold is fixed at 1e-8, shared with the ladder
    with pytest.raises(TypeError):
        extension_test(exp_ring, DiscFunction([0, 0.2]), 10,
                       holo_tolerance=1e-8)


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


def _dd_by_rows(nodes, values):
    """The former row-by-row divided differences, kept as reference."""
    dd = values.copy()
    for j in range(1, len(dd)):
        for i in range(len(dd) - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (nodes[i] - nodes[i - j])
    return dd


def _prefix_by_rows(nodes, dd, n_keep, k):
    """The former row-by-row truncated Horner steps, kept as reference."""
    c = dd[:n_keep] * 0
    c[0] = dd[k - 1]
    for i in range(k - 2, -1, -1):
        for d in range(n_keep - 1, 0, -1):
            c[d] = c[d - 1] - nodes[i] * c[d]
        c[0] = dd[i] - nodes[i] * c[0]
    return c


def test_newton_kernel_matches_row_by_row_recurrences():
    # the whole-slice steps give every entry of the row-by-row ones, bit for
    # bit, on complex arrays and on _DecimalArray
    rng = np.random.default_rng(6061)

    def bits(a):
        if isinstance(a, _DecimalArray):
            return [str(x) for x in (*a.re.flat, *a.im.flat)]
        return a.tobytes()

    for kcurves in (1, 2, 5, 9):
        x = np.column_stack([_separated_nodes(rng, kcurves) for _ in range(3)])
        y = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        with decimal.localcontext(decimal.Context(prec=_decimal_digits(52))):
            x_dec = _DecimalArray.from_complex(x)
            y_dec = _DecimalArray.from_complex(y) * _DecimalArray.from_complex(y)
            for nodes, values in ((x, y), (x_dec, y_dec)):
                dd = _divided_differences(nodes, values)
                assert bits(dd) == bits(_dd_by_rows(nodes, values))
                for n_keep in sorted({1, max(1, kcurves - 1), kcurves}):
                    got = _interp_prefixes(nodes, dd, n_keep, range(1, kcurves + 1))
                    for k, c in enumerate(got, 1):
                        assert bits(c) == bits(_prefix_by_rows(nodes, dd, n_keep, k))


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
    # the smallest p whose half-ulp 10**(1-p)/2 is at most mpmath's 2**-prec;
    # _decimal_digits computes prec by dps_to_prec's formula without mpmath,
    # so every dps the ladder may use pins the two together
    for dps in range(1, 301):
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
    # the cached exact divisor 2**k rounds as the division by the int does
    with decimal.localcontext(context):
        for exp in range(-400, 65):
            for sign in (0, 1):
                man = int(rng.integers(1, 2 ** 62)) << 120 | 1
                got = _mpf_to_decimal((sign, man, exp, man.bit_length()))
                man = -man if sign else man
                assert got == (decimal.Decimal(man << max(exp, 0))
                               / (1 << max(-exp, 0)))
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


def test_mp_column_forms():
    # every mp evaluator takes one lam and a column of nodes, one mpc per
    # node (a ring without terms too), and the series and Laurent columns
    # equal their pointwise values; remark 1 has a block evaluator instead
    laurent = RingFunction.from_laurent(
        [(0, -3, 0.5 - 1j), (1, -1, 2.0), (2, 2, 0.25j), (3, 0, -1.5)], 0.3)
    assert remark1_ring(0.3).mp_evaluator is None
    with mp.workdps(52):
        lam = mp.mpc(0.6, 0.8)
        zs = [mp.mpc(0.3, -0.2), mp.mpc(-0.1, 0.05), mp.mpc(0.45), mp.mpc(0)]
        for ring, pointwise in (
                (example1_ring(0.3), Example1().eval_mp),
                (example2_ring(0.3), Example2().eval_mp),
                (laurent, None),
                (RingFunction.from_laurent([], 0.3), None)):
            column = ring.mp_evaluator(lam, np.array(zs, dtype=object))
            assert len(column) == len(zs)
            assert all(type(v) is mp.mpc for v in column)
            assert [v._mpc_ for v in column] == [
                ring.mp_evaluator(lam, [z])[0]._mpc_ for z in zs]
            if pointwise is not None:
                assert [v._mpc_ for v in column] == [
                    pointwise(lam, z)._mpc_ for z in zs]


def test_wrapped_mp_evaluator_called_once_per_column():
    # a ring without a block evaluator: a functools.wraps wrapper (as a
    # tracer installs) sees one call per grid column and changes no bit of
    # the ladder
    curves = [DiscFunction([0, cmath.exp(0.7j) / k]) for k in range(1, 13)]
    ring = example1_ring(0.3)
    inner, calls = ring.mp_evaluator, []

    @functools.wraps(inner)
    def traced(lam, zs):
        calls.append(len(zs))
        return inner(lam, zs)

    ring.mp_evaluator = traced
    got = coefficient_ladder(ring, curves, 6, 10, m=64)
    assert calls == [12] * 64
    ref = coefficient_ladder(example1_ring(0.3), curves, 6, 10, m=64)
    assert got.as_dict() == ref.as_dict()


def test_wrapped_block_evaluator_called_once_per_block():
    # a functools.wraps wrapper (as a tracer installs) sees one call per
    # block of grid columns (one block at grid 64) and changes no bit of
    # the ladder
    curves = [DiscFunction([0, cmath.exp(0.7j) / k]) for k in range(1, 13)]
    ring = remark1_ring(0.3)
    inner, calls = ring.block_evaluator, []

    @functools.wraps(inner)
    def traced(lam, nodes):
        calls.append((len(lam), nodes.re.shape))
        return inner(lam, nodes)

    ring.block_evaluator = traced
    got = coefficient_ladder(ring, curves, 6, 10, m=64)
    assert calls == [(64, (12, 64))]
    ref = coefficient_ladder(remark1_ring(0.3), curves, 6, 10, m=64)
    assert got.as_dict() == ref.as_dict()


def test_zero_laurent_ring_ladder_on_mp_path():
    # the zero function through the extended-precision path: every A_n is 0
    ring = RingFunction.from_laurent([], 0.3)
    assert ring.mp_evaluator is not None
    curves = [DiscFunction([0, cmath.exp(0.7j) / k]) for k in range(1, 9)]
    ladder = coefficient_ladder(ring, curves, 3, 10, m=64)
    grid = 0.7 * np.exp(2j * np.pi * np.arange(32) / 32)
    for entry in ladder.entries:
        assert not np.any(entry(grid))


def test_remark1_ladder_matches_pointwise_exp():
    # on rotated lines every part of every value is O(1), and the ladder
    # keeps each bit of a ring whose pointwise evaluator is exp(z / lam)
    plain = RingFunction(remark1_eval, 0.3, mp_evaluator=lambda lam, zs: [
        mp.exp(z / lam) for z in zs])
    rotated = [DiscFunction([0, cmath.exp(0.7j) / k]) for k in range(1, 13)]
    # on real lines some results are exactly zero in exact arithmetic, and
    # the two quotients' difference of about 1e-52 shows in them
    real = [DiscFunction([0, 1.0 / k]) for k in range(1, 13)]
    for curves, exact in ((rotated, True), (real, False)):
        got = coefficient_ladder(remark1_ring(0.3), curves, 6, 10, m=64)
        ref = coefficient_ladder(plain, curves, 6, 10, m=64)
        assert got.c_prime == ref.c_prime
        assert len(got.diagnostics) == len(ref.diagnostics) == 21
        for x, y in zip(got.diagnostics, ref.diagnostics):
            assert x.poles == y.poles
            err = np.abs(x.level_coeffs - y.level_coeffs).max()
            assert err <= (0 if exact else 1e-50 * np.abs(y.level_coeffs).max())
        if exact:
            assert got.as_dict() == ref.as_dict()


def _exp_column(lam, zs):
    """``exp(z / lam)`` at each node of one column, pointwise in mpmath."""
    return [mp.exp(z / lam) for z in zs]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _force_blocks(monkeypatch, blocks, floor=16):
    """Make the mp path split the grid into ``blocks`` blocks."""
    monkeypatch.setattr(extension, "_cpu_count", lambda: blocks)
    monkeypatch.setattr(extension, "_MIN_BLOCK_COLUMNS", floor)


def _column(lam, m):
    """Grid index of ``lam`` on the ``m``-point unit-circle grid."""
    return round(cmath.phase(complex(lam)) / (2 * math.pi / m)) % m


@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_forked_blocks_give_identical_reports(monkeypatch, blocks):
    # every column-wise step gives the same bits on any block of columns,
    # so the report does not depend on how many blocks the grid is split
    # into; block 0 runs here, the others in forked children
    rotated = [DiscFunction([0, cmath.exp(0.7j) / k]) for k in range(1, 11)]
    laurent = RingFunction.from_laurent(
        [(0, -2, 0.5 - 1j), (1, -1, 2.0), (2, 1, 0.25j), (3, 0, -1.5),
         (1, 2, 0.75)], 0.3)
    lines = [DiscFunction([0, cmath.exp(0.3j) / (k + 1)]) for k in range(1, 9)]
    # remark 1 by its block evaluator, the Laurent ring by its mp evaluator
    cases = [(remark1_ring(0.3), rotated, 4, 256), (laurent, lines, 3, 128)]
    _force_blocks(monkeypatch, 1)
    refs = [json.dumps(coefficient_ladder(ring, curves, depth, 10,
                                          m=m).as_dict())
            for ring, curves, depth, m in cases]
    _force_blocks(monkeypatch, blocks)
    mp_columns, evaluated = extension._mp_columns, []
    monkeypatch.setattr(extension, "_mp_columns", lambda f, *args:
                        evaluated.append(args[-1]) or mp_columns(f, *args))
    for (ring, curves, depth, m), ref in zip(cases, refs):
        bounds = extension._block_bounds(m, True)
        assert len(bounds) == blocks + 1
        evaluated.clear()
        got = coefficient_ladder(ring, curves, depth, 10, m=m)
        assert json.dumps(got.as_dict()) == ref
        # this process evaluated block 0's nodes and values only
        assert evaluated == [slice(0, bounds[1])]
        _no_child_left()


def test_collision_in_a_later_block_is_found_there(monkeypatch):
    # lam/4 and lam/4 + lam (1 + lam)^2 / 8 touch to second order at
    # lam = -1, grid column 64 of 128, so their nodes there round to the
    # same double (curves that only cross there, as lam/2 and -lam^2/2 do,
    # stay apart at the grid point -1 + 1.2e-16i).  Each block checks its
    # own nodes: one block refuses before any value, two refuse in block 1
    # after block 0's values, with the same text
    curves = [DiscFunction([0, 0.25]), DiscFunction([0, 0.375, 0.25, 0.125])]
    curves += [DiscFunction([0, 1.0 / k]) for k in range(5, 11)]
    for blocks, evaluated in ((1, 0), (2, 64)):
        _force_blocks(monkeypatch, blocks, floor=64)
        calls = []
        ring = RingFunction(remark1_eval, 0.3, lambda lam, zs:
                            calls.append(lam) or _exp_column(lam, zs))
        with pytest.raises(ConvergenceError,
                           match="^two curves coincide at a grid point$"):
            coefficient_ladder(ring, curves, 3, 10, m=128)
        assert len(calls) == evaluated
        _no_child_left()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the grid holds -1 only as -1 + 1.2e-16i, so curves "
                   "that cross there keep distinct nodes (ROADMAP item 4)")
def test_curves_crossing_at_minus_one_are_refused():
    # lam/2 and -lam^2/2 meet at lam = -1, grid column 64 of 128, where
    # their nodes stay 6e-17 apart: the ladder ends with "coefficient
    # estimates are not converging" instead of this refusal
    curves = [DiscFunction([0, 0.5]), DiscFunction([0, 0, -0.5])]
    curves += [DiscFunction([0, 1.0 / k]) for k in range(3, 9)]
    with pytest.raises(ConvergenceError,
                       match="^two curves coincide at a grid point$"):
        coefficient_ladder(remark1_ring(0.3), curves, 3, 10, m=128)


def _failing_ring(fail_at, exc=DomainError, m=128):
    """``exp(z / lam)`` by an mp evaluator that raises ``exc`` on the
    columns ``fail_at``."""
    def mp_evaluator(lam, zs):
        j = _column(lam, m)
        if j in fail_at:
            raise exc(f"column {j} refused")
        return _exp_column(lam, zs)

    return RingFunction(remark1_eval, 0.3, mp_evaluator)


@pytest.mark.parametrize("fail_at, text", [
    ({100}, "column 100 refused"),         # in block 1 only: a child's
    ({10, 100}, "column 10 refused"),      # in both: block 0's wins
])
def test_forked_block_error_matches_in_process(monkeypatch, fail_at, text):
    curves = [DiscFunction([0, cmath.exp(0.7j) / k]) for k in range(1, 9)]
    for blocks in (1, 2):
        _force_blocks(monkeypatch, blocks, floor=64)
        assert extension._block_bounds(128, True) == (
            [0, 128] if blocks == 1 else [0, 64, 128])
        with pytest.raises(DomainError, match=f"^{text}$"):
            coefficient_ladder(_failing_ring(fail_at), curves, 3, 10, m=128)
        _no_child_left()


def test_forked_block_unpicklable_error_names_its_type(monkeypatch):
    class Unpicklable(Exception):   # a local class does not pickle
        pass

    curves = [DiscFunction([0, cmath.exp(0.7j) / k]) for k in range(1, 9)]
    _force_blocks(monkeypatch, 2, floor=64)
    with pytest.raises(RuntimeError,
                       match=r"^ladder block raised .*\.Unpicklable: "
                             r"column 100 refused$"):
        coefficient_ladder(_failing_ring({100}, Unpicklable), curves, 3, 10,
                           m=128)
    _no_child_left()


def test_run_blocks_reaps_every_child():
    # results come back in block order; an exception in this process, a
    # KeyboardInterrupt included, kills and reaps the children still busy
    bounds = [0, 16, 32, 48]
    assert extension._run_blocks(lambda cols: (cols.start, os.getpid()),
                                 bounds)[0] == (0, os.getpid())
    results = extension._run_blocks(lambda cols: (cols.start,), bounds)
    assert results == [(0,), (16,), (32,)]
    _no_child_left()

    def busy_children(exc):
        def block(cols):
            if cols.start:
                time.sleep(60)
            raise exc
        return block

    for exc in (ValueError("block 0"), KeyboardInterrupt()):
        start = time.perf_counter()
        with pytest.raises(type(exc)):
            extension._run_blocks(busy_children(exc), bounds)
        assert time.perf_counter() - start < 30
        _no_child_left()


def test_run_blocks_runs_in_process_when_fork_fails(monkeypatch):
    # the second fork fails: block 1 runs in a child, blocks 2 and 3 here,
    # and the results keep block order
    real_fork, forks = os.fork, []

    def fork():
        forks.append(None)
        if len(forks) > 1:
            raise BlockingIOError("fork refused")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    results = extension._run_blocks(lambda cols: (cols.start, os.getpid()),
                                    [0, 16, 32, 48, 64])
    assert [start for start, _ in results] == [0, 16, 32, 48]
    assert [pid == os.getpid() for _, pid in results] == [True, False,
                                                          True, True]
    _no_child_left()


def test_forked_child_leaves_only_through_os_exit():
    # SystemExit or a child that dies cannot return into this process: the
    # child exits through os._exit and the block reports no result
    def block(cols):
        if cols.start:
            raise SystemExit(0)
        return ()

    with pytest.raises(ChildProcessError,
                       match="^ladder block 1 ended without a result$"):
        extension._run_blocks(block, [0, 64, 128])
    _no_child_left()


def test_fork_only_on_linux_mp_path_without_threads(monkeypatch):
    monkeypatch.setattr(extension, "_cpu_count", lambda: 4)
    assert extension._block_bounds(256, True) == [0, 64, 128, 192, 256]
    assert extension._block_bounds(128, True) == [0, 64, 128]
    # a grid-64 ladder and the float path run in this process
    assert extension._block_bounds(64, True) == [0, 64]
    assert extension._block_bounds(256, False) == [0, 256]
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert extension._block_bounds(256, True) == [0, 256]
    finally:
        stop.set()
        thread.join()
    monkeypatch.setattr(sys, "platform", "darwin")
    assert extension._block_bounds(256, True) == [0, 256]


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


def test_ladder_refuses_coinciding_nodes_before_mp_values():
    # lam/2 twice: the guard reads only the extended-precision nodes, so
    # it runs before any of the 8 x 64 values is evaluated
    ring = remark1_ring(0.3)
    inner, calls = ring.block_evaluator, []
    ring.block_evaluator = lambda lam, nodes: (calls.append(nodes)
                                               or inner(lam, nodes))
    curves = [DiscFunction([0, 1.0 / k]) for k in (1, 2, 2, 3, 4, 5, 6, 7)]
    with pytest.raises(ConvergenceError,
                       match="^two curves coincide at a grid point$"):
        coefficient_ladder(ring, curves, 3, 10, m=64)
    assert calls == []


def test_ladder_rejects_circle_vanishing_curve(exp_ring):
    from pinchext import CircleVanishingError
    # phi_k = lam (lam - 1) / (3k) vanishes at the boundary point lam = 1
    curves = [DiscFunction([0, -1.0 / (3 * k), 1.0 / (3 * k)])
              for k in range(1, 7)]
    with pytest.raises(CircleVanishingError):
        coefficient_ladder(exp_ring, curves, 3, 10, m=64)


def test_ladder_checks_curves_in_order(exp_ring):
    # curve 0 is not extendable and curve 2 needs a finer grid: the curve-0
    # verdict comes first, and the restriction errors name their curve
    curves = [DiscFunction([0, 1.0 / k]) for k in range(1, 7)]
    curves[0] = DiscFunction([0.2])
    curves[2] = DiscFunction([0] * 23 + [0.9])
    with pytest.raises(ConvergenceError, match="^curve 0 is not extendable"):
        coefficient_ladder(exp_ring, curves, 3, 10, m=64)
    curves[0] = DiscFunction([0, 1.0])
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


def test_ladder_c_bound_and_tails_match_the_former_loops(monkeypatch):
    # A_4 = 10 lam^-4 sets C = 10 * 1.2**4, whose power numpy's array
    # power and Python's pow round differently on some builds
    calls, clean = [], extension._clean_and_project
    monkeypatch.setattr(extension, "_clean_and_project", lambda rows, floor:
                        calls.append((rows, clean(rows, floor)))
                        or calls[-1][1])
    ring = RingFunction.from_laurent([(0, 0, 1.0), (4, -4, 10.0)], 0.2)
    ladder = coefficient_ladder(ring, _lam_over(range(1, 9), 0), 5, 10, m=64)
    samples, (coeffs, _) = calls[0]
    c_bound = 0.0
    for n in range(6):
        c_bound = max(c_bound, float(np.abs(samples[n]).max())
                      * (1.0 + ring.epsilon) ** n)
    assert ladder.c_bound == c_bound
    assert [len(e.tail) for e in ladder.entries] == [1, 0, 0, 0, 0, 0]
    for n, entry in enumerate(ladder.entries):
        tail_coeffs = coeffs[n, 32:]
        nz = np.nonzero(tail_coeffs)[0]
        tail = tail_coeffs[:nz[-1] + 1] if nz.size else ()
        assert entry.tail == tuple(complex(c) for c in tail)


@pytest.mark.parametrize("depth, kcurves, message", [
    (0, 8, "depth must be at least 1"),
    (3, 4, "need at least depth + 2 = 5 curves, got 4")])
def test_ladder_checks_depth_and_curve_count(depth, kcurves, message):
    curves = [DiscFunction([0, 1.0 / k]) for k in range(1, kcurves + 1)]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        coefficient_ladder(remark1_ring(0.3), curves, depth, 10, m=64)


@pytest.mark.parametrize("m, message", [
    (8, "need at least 16 samples, got 8"),
    (100, "sample count must be a power of two, got 100")])
def test_restriction_checks_grid_size(exp_ring, m, message):
    phi = DiscFunction([0, 0.5])
    curves = [DiscFunction([0, 1.0 / k]) for k in range(1, 7)]
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
        assert diag.poles == (((0j, diag.level),) if diag.level else ())
        # the stored level function is f_{n,k} = (f_{n-1,k} - A_{n-1}) /
        # phi_k, rebuilt from the curve and the entries; the ladder's own
        # recursion runs on the raw interpolants at extended precision, so
        # they agree to rounding amplified by |1/phi_k|^n
        n, k = diag.level, diag.curve_index + 1
        phi = grid / k
        rebuilt = exp_ring.evaluator(grid, phi)
        for entry in exp_ladder.entries[:n]:
            rebuilt = (rebuilt - entry(grid)) / phi
        level_fn = CircleFunction.from_coefficients(diag.level_coeffs)
        assert np.abs(level_fn.samples - rebuilt).max() <= 1e-14 * k ** n
        # the eager correction of the level function by the Blaschke
        # product of its poles gives the same floats, bit for bit
        blaschke = blaschke_from_zeros(
            [p for p, mult in diag.poles for _ in range(mult)])
        corrected = level_fn * CircleFunction(blaschke(grid))
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
    direct = exp_ring.evaluator(grid, phi(grid))
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


def _polynomial_ladder(coeffs, zeros=()):
    # A_n = coeffs[n], constants without poles
    return CoefficientLadder(
        entries=tuple(LadderEntry(n=n, rational=RationalPart(poles=()),
                                  tail=(c,)) for n, c in enumerate(coeffs)),
        zeros=zeros, pole_lines=(), epsilon=0.3, c_bound=2.0, c1_bound=1.0,
        c2_bound=1.0, c_prime=50.0)


def test_pinch_refuses_terms_that_do_not_contract():
    # |A_1 / A_0| = 1e30 needs c below 2^-60
    with pytest.raises(ConvergenceError, match=re.escape(
            "no positive constant gives geometric contraction of the "
            "ladder terms on the test grid")):
        pinch_estimate(_polynomial_ladder((1.0, 1e30, 1e60)))


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


def test_evaluate_refuses_a_point_on_a_pole_line():
    desc = PinchDescriptor(pinches=(), pole_lines=(0.4 + 0j,), c=1.0)
    with pytest.raises(DomainError, match=re.escape(
            "lambda = (0.4+0.005j) lies on the pole line at (0.4+0j)")):
        evaluate_extension(_synthetic_ladder(), desc, 0.4 + 0.005j, 0.1)


@pytest.mark.parametrize("lam, z, bound", [
    # a curve zero that is no pinch: prod |lam - a_j| is 0
    (0.5, 0.1, math.inf),
    # q = c1 |z| / ((1 + eps) prod |lam - a_j|) = 0.5 / 0.13 >= 1
    (0.6, 0.5, math.inf),
    # q = 0.1 / 1.3: the tail bound c' q^3 / (1 - q) of depth 2
    (-0.5, 0.1, 50.0 * (0.1 / 1.3) ** 3 / (1.0 - 0.1 / 1.3))])
def test_evaluate_tail_bound(lam, z, bound):
    ladder = _polynomial_ladder((1.0, 0.5, 0.25), zeros=((0.5 + 0j, 1),))
    desc = PinchDescriptor(pinches=(), pole_lines=(), c=1.0)
    out = evaluate_extension(ladder, desc, lam, z)
    assert out.value == 1.0 + 0.5 * z + 0.25 * z ** 2
    assert out.bound == bound


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
        out = evaluate_extension(exp_ladder, desc, lam, z)
        direct = cmath.exp(complex(z) / complex(lam))
        assert abs(out.value - direct) <= out.bound
        checked += 1


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the bound covers only the series tail past depth, "
                   "not the float error of A_0 .. A_depth")
def test_evaluate_bound_covers_small_z_on_float_path():
    # the float ladder's A_0 carries about 1.5e-12 relative error, which
    # the tail bound at |z/lam| = 1e-3 (4.6e-13) does not cover
    f = RingFunction(lambda lam, z: np.exp(z / lam), 0.3)
    u = cmath.exp(0.4j)
    curves = [DiscFunction([0j, u / k]) for k in range(1, 11)]
    ladder = coefficient_ladder(f, curves, 3, 10, m=1024, ladder_tol=1e-5)
    lam = 0.5 * cmath.exp(0.7j)
    z = 1e-3 * lam * cmath.exp(0.3j)
    out = evaluate_extension(ladder, pinch_estimate(ladder), lam, z)
    with mp.workdps(40):
        exact = complex(mp.exp(mp.mpc(z) / mp.mpc(lam)))
    assert abs(out.value - exact) <= out.bound


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
    assert f.mp_evaluator is None
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


# ------------------------------------------------------- evaluation layer

_EPS = float(np.finfo(float).eps)


@pytest.fixture(scope="module")
def float_ladder():
    f = RingFunction(lambda lam, z: np.exp(z / lam), 0.3)
    u = cmath.exp(0.4j)
    curves = [DiscFunction([0j, u / k]) for k in range(1, 11)]
    return coefficient_ladder(f, curves, 3, 10, m=256, ladder_tol=1e-5)


def _mixed_ladder(c_prime=50.0):
    # tails of length 0, 1 and 4, poles of order 1 to 3 at two points (the
    # one at 0.3 shared by three entries) and a zero entry A_2, so the
    # significant entries 0, 1, 3, 4 are not consecutive
    far = -0.3 + 0.4j
    entries = (
        LadderEntry(0, RationalPart(((0.3 + 0j, (0.2 + 0.1j,)),)),
                    (1.0 + 0.5j, -0.25j, 0.125 + 0j, 0.0625 - 0.03j)),
        LadderEntry(1, RationalPart(((0.3 + 0j, (0.05j, 0.1 + 0j)),
                                     (far, (0.02 + 0j,)))), (0.3 - 0.2j,)),
        LadderEntry(2, RationalPart(()), ()),
        LadderEntry(3, RationalPart(((0.3 + 0j, (0.004 + 0j, 0.001j,
                                                 0.002 + 0j)),)), ()),
        LadderEntry(4, RationalPart(((far, (1e-4 + 1e-4j, 2e-4 + 0j)),)),
                    (1e-3 + 0j, 0j, -2e-3j, 5e-4 + 0j)),
    )
    return CoefficientLadder(
        entries=entries, zeros=((0.3 + 0j, 1), (far, 1)), pole_lines=(),
        epsilon=0.3, c_bound=2.0, c1_bound=1.2, c2_bound=1.0,
        c_prime=c_prime)


def _tampered_ladder(ladder):
    # A_1 scaled by 1e6, as in test_bounds_catch_tampering
    entry = ladder.entries[1]
    scaled = LadderEntry(n=1, rational=RationalPart(tuple(
        (a, tuple(1e6 * c for c in cs)) for a, cs in entry.rational.poles)),
        tail=entry.tail)
    return dataclasses.replace(
        ladder, entries=(ladder.entries[0], scaled, *ladder.entries[2:]))


def _bits(x):
    return np.asarray(x, dtype=complex).view(np.uint64)


def test_entry_tail_horner_has_polyval_bits(rng):
    lam = 0.99 * np.sqrt(rng.uniform(size=97)) * np.exp(
        2j * np.pi * rng.uniform(size=97))
    for _ in range(300):
        size = int(rng.integers(1, 30))
        tail = tuple(complex(c) for c in rng.standard_normal(size)
                     + 1j * rng.standard_normal(size))
        entry = LadderEntry(0, RationalPart(()), tail)
        npt.assert_array_equal(
            _bits(extension._entry_sums([entry], lam)[0]),
            _bits(np.polynomial.polynomial.polyval(lam, tail)))


def _former_entry(entry, lam):
    # LadderEntry.__call__ and RationalPart.__call__ before the shared
    # evaluator, on a 1-d complex array
    out = (np.polynomial.polynomial.polyval(lam, entry.tail) if entry.tail
           else np.zeros_like(lam))
    rational = np.zeros_like(lam)
    for a, coeffs in entry.rational.poles:
        d = lam - a
        for k, c in enumerate(coeffs):
            rational += c * d ** (k - len(coeffs))
    return out + rational


def _former_pinch(ladder):
    # pinch_estimate with one evaluation per entry of each pair
    observed = [a for e in ladder.entries for a, _ in e.rational.pole_list]
    pinches = tuple((a, l) for a, l in ladder.zeros
                    if any(abs(a - p) <= 0.05 for p in observed))
    significant = [n for n, e in enumerate(ladder.entries) if not e.is_zero]
    pairs = list(zip(significant, significant[1:]))
    eps = ladder.epsilon
    grid = extension._off_poles(ladder, np.concatenate(
        [unit_circle_grid(64, r)
         for r in (1.0 - eps / 4.0, (1.0 - eps) / 2.0)]))
    pinch_prod = extension.distance_product(grid, pinches)
    ratios = []
    for n1, n2 in pairs[-3:]:
        v1 = np.abs(_former_entry(ladder.entries[n1], grid))
        v2 = np.abs(_former_entry(ladder.entries[n2], grid))
        guard = v1 > 1e-9 * max(v1.max(), 1e-300)
        if not guard.any():
            continue
        span = n2 - n1
        ratio = (v2[guard] * pinch_prod[guard] ** span
                 / v1[guard]) ** (1.0 / span)
        ratios.append(ratio.max())
    worst = max(ratios, default=0.0)
    c = 1.0
    while c * worst > 0.5:
        c *= 0.5
    return PinchDescriptor(pinches=pinches, c=c, pole_lines=tuple(
        b for b, _ in ladder.pole_lines))


def _former_violations(ladder):
    eps = ladder.epsilon
    grid = extension._off_poles(ladder, unit_circle_grid(64, 1.0 - eps / 4.0))
    prod_b = extension.distance_product(grid, ladder.pole_lines)
    violations = []
    for entry in ladder.entries:
        n = entry.n
        prod_a = extension.distance_product(grid, ladder.zeros, power=n)
        rhs = ladder.c_prime / (prod_a * prod_b * (1.0 + eps) ** n)
        lhs = np.abs(_former_entry(entry, grid))
        for idx in np.nonzero(lhs > rhs * (1.0 + 1e-6))[0]:
            violations.append((n, complex(grid[idx]), float(lhs[idx]),
                               float(rhs[idx])))
    return tuple(violations)


def _former_profile_csv(ladder, ray_angle):
    direction = complex(math.cos(ray_angle), math.sin(ray_angle))
    radii = np.linspace(0.1, 1.0 - ladder.epsilon / 4.0, 48)
    lines = ["n,r,abs_An"]
    for entry in ladder.entries:
        values = np.abs(_former_entry(entry, radii * direction))
        for r, v in zip(radii, values):
            lines.append(f"{entry.n},{format(float(r), '.17g')},"
                         f"{format(float(v), '.17g')}")
    return "\n".join(lines) + "\n"


def _evaluation_ladders(exp_ladder, float_ladder):
    return {"float": float_ladder, "remark1": exp_ladder,
            "synthetic": _synthetic_ladder(),
            "polynomial": _polynomial_ladder((1.0, 0.5, 0.25),
                                             zeros=((0.5 + 0j, 1),)),
            "mixed": _mixed_ladder()}


def test_grid_callers_keep_the_former_bits(exp_ladder, float_ladder):
    ladders = _evaluation_ladders(exp_ladder, float_ladder)
    ladders["tampered"] = _tampered_ladder(exp_ladder)
    ladders["mixed-tight"] = _mixed_ladder(c_prime=0.05)
    grid = 0.8 * unit_circle_grid(64) + 0.01j
    violated = 0
    for name, ladder in ladders.items():
        for entry in ladder.entries:
            npt.assert_array_equal(entry(grid), _former_entry(entry, grid),
                                   err_msg=name)
        assert (pinch_estimate(ladder).as_dict()
                == _former_pinch(ladder).as_dict()), name
        violations = verify_coefficient_bounds(ladder)
        assert violations == _former_violations(ladder), name
        violated += bool(violations)
        for angle in (0.0, 0.3, -2.0):
            assert _profile_csv(ladder, angle) == _former_profile_csv(
                ladder, angle), name
    assert violated == 2


def _in_domain_points(ladder, desc, rng, count):
    poles = [a for e in ladder.entries for a, _ in e.rational.pole_list]
    points = []
    while len(points) < count:
        lam = rng.uniform(0.2, 0.95) * cmath.exp(2j * np.pi * rng.uniform())
        if any(abs(lam - a) < 0.02 for a in poles + list(desc.pole_lines)):
            continue
        radius = desc.domain_radius(lam)
        z = (0.89 * radius * math.sqrt(rng.uniform())
             * cmath.exp(2j * np.pi * rng.uniform()))
        points.append((lam, z))
    return points


def _former_bound(ladder, lam, z):
    # evaluate_extension's bound with numpy's distance products, and its
    # condition number in q and in prod_b: an error of a few ulps in the
    # distances moves it by that many ulps times this
    prod_a = float(extension.distance_product(lam, ladder.zeros))
    prod_b = float(extension.distance_product(lam, ladder.pole_lines))
    if prod_a == 0.0:
        return math.inf, None
    q = ladder.c1_bound * abs(z) / ((1.0 + ladder.epsilon) * prod_a)
    if q >= 1.0:
        return math.inf, None
    return (ladder.c_prime / max(prod_b, 1e-300)
            * q ** (ladder.depth + 1) / (1.0 - q),
            ladder.depth + 2 + q / (1.0 - q))


def test_evaluate_extension_matches_the_array_path(exp_ladder, float_ladder,
                                                   rng):
    descriptors = {"synthetic": PinchDescriptor(((0j, 2),), (0.4 + 0j,), 0.5),
                   "polynomial": PinchDescriptor((), (), 1.0),
                   "mixed": PinchDescriptor((), (), 0.25)}
    for name, ladder in _evaluation_ladders(exp_ladder, float_ladder).items():
        desc = descriptors.get(name) or pinch_estimate(ladder)
        for lam, z in _in_domain_points(ladder, desc, rng, 40):
            out = evaluate_extension(ladder, desc, lam, z)
            # the array path: each entry through its pointwise wrapper
            terms = [entry(lam) * z ** entry.n for entry in ladder.entries]
            scale = sum(abs(entry(lam)) * abs(z) ** entry.n
                        for entry in ladder.entries)
            assert abs(out.value - sum(terms, 0j)) <= 8 * _EPS * scale, name
            bound, condition = _former_bound(ladder, lam, z)
            if math.isinf(bound):
                assert out.bound == bound, name
            else:
                assert abs(out.bound - bound) <= (
                    4 * _EPS * condition * bound), name


@pytest.mark.parametrize("lam, z", [
    (math.inf, 0.1), (complex(0.5, math.inf), 0.1), (math.nan, 0.1),
    (0.5, math.inf), (0.5, complex(math.nan, 0.0))])
def test_evaluate_refuses_a_point_that_is_not_finite(exp_ladder, lam, z):
    desc = pinch_estimate(exp_ladder)
    with pytest.raises(DomainError, match="is not a finite point"):
        evaluate_extension(exp_ladder, desc, lam, z)


@pytest.mark.parametrize("lam", [
    0.3,  # A_0's simple pole
    complex(-0.3, 0.4 + 1e-160)])  # A_4's double pole: the power overflows
def test_evaluate_refuses_a_pole_of_a_coefficient(lam):
    # neither pole is a pinch or a pole line of the descriptor
    desc = PinchDescriptor(pinches=(), pole_lines=(), c=1.0)
    with pytest.raises(DomainError, match=re.escape(
            f"lambda = {complex(lam)} lies at a pole of a coefficient A_n")):
        evaluate_extension(_mixed_ladder(), desc, lam, 0.1)


def test_evaluate_refuses_a_sum_that_is_not_finite(exp_ladder):
    text = "is not finite in double precision"
    # z**n overflows: exp(z / lam) itself is finite there
    with pytest.raises(DomainError, match=text):
        evaluate_extension(exp_ladder, pinch_estimate(exp_ladder), 1e308,
                           1e307)
    # the Taylor tail of A_0 overflows at |lam| = 1e200
    desc = PinchDescriptor(pinches=(), pole_lines=(), c=1.0)
    with pytest.raises(DomainError, match=text):
        evaluate_extension(_mixed_ladder(), desc, 1e200, 0.1)


def _curve_through(zeros, sup=0.8):
    coeffs = np.polynomial.polynomial.polyfromroots(zeros)
    top = np.abs(np.polynomial.polynomial.polyval(unit_circle_grid(1024),
                                                  coeffs)).max()
    return DiscFunction(coeffs * (sup / top))


def test_stabilized_zero_sets_match_roots_in_disc(rng):
    radius = 0.85
    for _ in range(8):
        double = rng.uniform(0.2, 0.6) * cmath.exp(2j * np.pi * rng.uniform())
        pair = rng.uniform(0.2, 0.6) * cmath.exp(2j * np.pi * rng.uniform())
        rim = 2j * np.pi * rng.uniform()
        origin = [0j] if rng.uniform() < 0.5 else []
        curves = []
        for k in range(5):
            shift = 1e-3 / (k + 1) * cmath.exp(2j * np.pi * rng.uniform())
            # a double zero, two zeros 3e-5 apart (one cluster), a zero on
            # |lambda| = radius and one just outside it
            curves.append(_curve_through(origin + [
                double + shift, double + shift, pair - shift,
                pair - shift + 3e-5, radius * cmath.exp(rim + 1j * abs(shift)),
                (radius + 1e-6) * cmath.exp(rim + 1j + 1j * abs(shift))]))
        for k in range(3, len(curves) + 1):
            final = extension._stabilized_zero_sets(curves[:k], radius)
            assert final == curves[k - 1].roots_in_disc(radius)
            mults = sorted(l for _, l in final)
            assert mults == [1] * (len(origin) + 1) + [2, 2]
    with pytest.raises(ValueError, match="zero curve has no isolated zeros"):
        extension._stabilized_zero_sets(
            [curves[0], curves[1], DiscFunction([0j])], radius)
