import cmath
import decimal
import functools
import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest

from pinchext import (CircleFunction, ConvergenceError, DiscFunction,
                      RingFunction, detect_rational, gallery,
                      hardy_project_minus, unit_circle_grid)
from pinchext.extension import _DecimalArray, _decimal_digits
from pinchext.gallery import (Example1, Example2, example1_eval,
                              example1_growth_probe, example1_ring,
                              example2_eval,
                              example2_ring, example2_restriction,
                              gallery_eval, remark1_eval, remark1_ring)


def _example1_term(lam, z, n):
    prod = 1.0 + 0j
    for j in range(1, n + 1):
        prod *= (z - (2.0 / 3.0 * lam) ** j)
    return 3.0 ** (-4 * n ** 3) * prod * lam ** (-n * n) * z ** n


def _example1_direct(lam, z, depth):
    return sum(_example1_term(lam, z, n) for n in range(1, depth + 1))


def _example1_loop(lam, z, n_trunc=40, depth=None):
    """The former one-point loop of ``Example1.__call__``, kept as reference.

    Returns the partial sum and the number of terms summed.
    """
    lam, z = complex(lam), complex(z)
    if lam == 0:
        raise ValueError("example 1 is undefined at lambda = 0")
    depth = n_trunc if depth is None else depth
    eps_d = min(abs(lam), 1.0 / abs(lam), 0.33)
    if z != 0:
        eps_d = min(eps_d, 1.0 / (3.0 * abs(z)))

    def bound(n):
        log_bound = (-(4 * n ** 3 + n) * math.log(3.0)
                     + 1.5 * (n * n + n) * math.log(1.0 / eps_d))
        return math.inf if log_bound > 700.0 else math.exp(log_bound)

    tail = 2.0 * bound(n_trunc + 1)
    total, scale, terms = 0j, 1.0, 0
    for n in range(1, depth + 1):
        if bound(n) < 1e-18 * scale:
            break
        prod = 1.0 + 0j
        w = 1.0 + 0j
        for j in range(1, n + 1):
            w *= (2.0 / 3.0) * lam
            prod *= (z - w)
        total += 3.0 ** (-4 * n ** 3) * prod * lam ** (-n * n) * z ** n
        scale = max(scale, abs(total))
        terms = n
    if not tail < 1e-12 * max(1.0, abs(total)):
        raise ConvergenceError(
            f"truncation error bound {tail:.3e} at series depth "
            f"{n_trunc} cannot certify the value at this point")
    return total, terms


def _example1_mp_untruncated(lam, z, n_trunc=40):
    """The former ``Example1.eval_mp``: all ``n_trunc`` terms, each product
    rebuilt from 1."""
    lam, z = mp.mpc(lam), mp.mpc(z)
    total = mp.mpc(0)
    for n in range(1, n_trunc + 1):
        prod = mp.mpc(1)
        w = mp.mpc(1)
        for j in range(1, n + 1):
            w *= mp.mpf(2) / 3 * lam
            prod *= (z - w)
        total += mp.mpf(3) ** (-4 * n ** 3) * prod * lam ** (-n * n) * z ** n
    return total


def _example2_loop(ex, lam, z, l_trunc=40):
    """The former one-point loop of ``Example2.__call__``, kept as reference."""
    lam = complex(lam)
    total = 0j
    for l in range(1, l_trunc + 1):
        total += ex.p_eval(l - 1, z) * lam ** (-l)
    return total


def _example2_polyval(ex, lam, z, l_trunc=40):
    """The former float sum of ``Example2.__call__`` on 1-d arrays, by
    numpy's ``polyval``, kept as reference."""
    total = np.zeros_like(lam)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for l in range(1, l_trunc + 1):
            total += (np.polynomial.polynomial.polyval(z, ex.p_coeffs(l - 1))
                      * lam ** (-l))
    return total


def _example2_mp_horner(ex, lam, z):
    """The former ``Example2.eval_mp``, kept as reference."""
    lam = mp.mpc(lam)
    z = mp.mpc(z)
    total = mp.mpc(0)
    for l in range(1, 41):
        p = mp.mpc(0)
        for ck in reversed(ex.p_coeffs(l - 1)):
            p = p * z + mp.mpc(ck)
        total += p * lam ** (-l)
    return total


def _ring_points(rng, size):
    """``0.7 <= |lam| <= 1.3`` and ``1e-3 <= |z| <= 100``, so that ``eps_d``
    and with it the number of example-1 terms differ across the array."""
    lam = rng.uniform(0.7, 1.3, size) * np.exp(2j * np.pi * rng.uniform(size=size))
    z = (np.exp(rng.uniform(math.log(1e-3), math.log(100.0), size))
         * np.exp(2j * np.pi * rng.uniform(size=size)))
    return lam, z


# numpy's complex ``*``, ``/`` and ``**`` may round differently from
# Python's scalar arithmetic, so array and loop agree to a few ulp only
_ULPS = 8 * np.finfo(float).eps


def _assert_close(values, reference):
    values = np.asarray(values)
    reference = np.asarray(reference)
    assert values.shape == reference.shape
    err = np.abs(values - reference) / np.maximum(1.0, np.abs(reference))
    assert err.max(initial=0.0) <= _ULPS


# ---------------------------------------------------------------- example 1

def test_example1_truncates_on_curves(rng):
    # on z = ((2/3) lam)^l the factor j = l kills every term with n >= l
    for l in range(2, 9):
        for _ in range(5):
            lam = rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
            z = (2.0 / 3.0 * lam) ** l
            full = example1_eval(lam, z, n_trunc=40)
            short = example1_eval(lam, z, n_trunc=l - 1)
            assert abs(full - short) < 1e-13


def test_example1_vanishes_on_first_curve(rng):
    for _ in range(5):
        lam = rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
        z = 2.0 / 3.0 * lam
        assert example1_eval(lam, z) == 0.0


def test_example1_matches_direct_sum(rng):
    for _ in range(10):
        lam = rng.uniform(0.4, 1.0) * np.exp(2j * np.pi * rng.uniform())
        z = 0.3 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        direct = _example1_direct(lam, z, 6)
        assert abs(example1_eval(lam, z) - direct) <= 1e-12 * max(1.0, abs(direct))


def test_example1_terms_decay_geometrically():
    mags = [abs(_example1_term(0.5, 0.1, n)) for n in range(1, 7)]
    for a, b in zip(mags[3:], mags[4:]):
        assert b < 0.5 * a or b == 0.0


def test_example1_term_bound_holds(rng):
    # |term n| <= 3^{-4n^3-n} (1/eps)^{1.5(n^2+n)} on the compact
    # eps <= |lam| <= 1/eps, |z| <= 1/(3 eps)
    eps = 0.3
    for _ in range(20):
        lam = rng.uniform(eps, 1.0 / eps) * np.exp(2j * np.pi * rng.uniform())
        z = rng.uniform(0, 1 / (3 * eps)) * np.exp(2j * np.pi * rng.uniform())
        for n in range(1, 5):
            bound = gallery._term_bound(n, math.log(1.0 / eps))
            assert abs(_example1_term(lam, z, n)) <= bound


def test_example1_rejects_origin():
    with pytest.raises(ValueError):
        example1_eval(0.0, 0.1)
    with pytest.raises(ValueError, match="lambda = 0"):
        Example1()(np.array([0.9, 0.0, 1.1]), 0.1)


def test_example1_restriction_is_polynomial():
    # the restriction to C_l extends over the disc: Hardy-minus part tiny
    ring = example1_ring(0.3)
    grid = unit_circle_grid(64)
    for l in (2, 3):
        phi = DiscFunction([0j] * l + [(2.0 / 3.0) ** l])
        g = CircleFunction(ring.evaluator(grid, phi(grid)))
        assert hardy_project_minus(g).sup_norm < 1e-10


def test_example1_array_matches_scalar_loop(rng):
    lam, z = _ring_points(rng, 200)
    z[:10] = 0.0
    z[10:20] = 2.0 / 3.0 * lam[10:20]  # the first curve
    values = Example1()(lam, z)
    reference = [_example1_loop(l, w) for l, w in zip(lam, z)]
    assert len({terms for _, terms in reference}) > 1
    _assert_close(values, [v for v, _ in reference])
    assert (values[:20] == 0.0).all()
    for depth in (1, 2, 5):
        _assert_close(Example1()(lam, z, n_trunc=depth),
                      [_example1_loop(l, w, depth=depth)[0]
                       for l, w in zip(lam, z)])


def test_example1_broadcast_and_scalars(rng):
    lam, z = _ring_points(rng, 12)
    grid = Example1()(lam[None, :], z[:7, None])
    assert grid.shape == (7, 12)
    _assert_close(grid, [[_example1_loop(l, w)[0] for l in lam] for w in z[:7]])
    for args in ((lam[0], z[0]), (np.array(lam[0]), np.array(z[0])),
                 (float(abs(lam[0])), 0)):
        value = example1_eval(*args)
        assert type(value) is complex
        _assert_close(value, _example1_loop(*args)[0])


def test_example1_sums_each_point_to_its_own_depth(rng, monkeypatch):
    # step n evaluates term n's bound only at the points that are still
    # summing: those where the reference loop summed at least n - 1 terms.
    # The bounds are recorded at the kernel's helper, which takes each
    # point's log(1 / eps_d).
    lam, z = _ring_points(rng, 200)
    lam[:4] = [1e-6, 1e-4, 3e-2, 5.0]
    calls = []
    term_bound = gallery._term_bound

    def recording(n, log_inv_eps):
        calls.append((n, log_inv_eps))
        return term_bound(n, log_inv_eps)

    monkeypatch.setattr(gallery, "_term_bound", recording)
    values = Example1()(lam, z)
    reference = [_example1_loop(l, w) for l, w in zip(lam, z)]
    terms = np.array([t for _, t in reference])
    assert len(set(terms)) >= 3
    assert [(n, seen.size) for n, seen in calls] == (
        [(41, lam.size)]  # the tail bound
        + [(n, int((terms >= n - 1).sum())) for n in range(1, terms.max() + 2)])
    a = np.abs(lam)
    eps_d = np.minimum(np.minimum(np.minimum(a, 1.0 / a), 0.33),
                       1.0 / (3.0 * np.abs(z)))
    for n, seen in calls[1:]:
        assert (seen == np.log(1.0 / eps_d[terms >= n - 1])).all()
    _assert_close(values, [v for v, _ in reference])


def _example1_gathering(lam, z, n_trunc=40, depth=None):
    """The former array kernel of ``Example1.__call__``, kept as the
    bit-for-bit reference: a ``z != 0`` mask for ``eps_d``, and index
    gathers and scatters of the summing points at every term."""
    lam, z = (np.array(p, dtype=complex).ravel()
              for p in np.broadcast_arrays(lam, z))
    if (lam == 0).any():
        raise ValueError("example 1 is undefined at lambda = 0")
    depth = n_trunc if depth is None else depth
    a = np.abs(lam)
    eps_d = np.minimum(np.minimum(a, 1.0 / a), 0.33)
    nz = z != 0
    eps_d[nz] = np.minimum(eps_d[nz], 1.0 / (3.0 * np.abs(z[nz])))
    log_inv_eps = np.log(1.0 / eps_d)
    tail = 2.0 * gallery._term_bound(n_trunc + 1, log_inv_eps)
    total = np.zeros_like(lam)
    scale = np.ones(lam.shape)
    step = (2.0 / 3.0) * lam
    live = np.flatnonzero(tail < np.inf)
    for n in range(1, depth + 1):
        live = live[~(gallery._term_bound(n, log_inv_eps[live])
                      < 1e-18 * scale[live])]
        if not live.size:
            break
        c, zl = step[live], z[live]
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            w = c
            prod = zl - w
            for _ in range(2, n + 1):
                w = w * c
                prod = prod * (zl - w)
            total[live] += (3.0 ** (-4 * n ** 3) * prod * lam[live] ** (-n * n)
                            * zl ** n)
        scale[live] = np.fmax(scale[live], np.abs(total[live]))
    failed = np.flatnonzero(~(tail < 1e-12 * np.fmax(1.0, np.abs(total))))
    if failed.size:
        raise ConvergenceError(
            f"truncation error bound {tail[failed[0]]:.3e} at series depth "
            f"{n_trunc} cannot certify the value at this point")
    return total


def test_example1_kernel_matches_gathering_kernel_bit_for_bit(rng, monkeypatch):
    # ring points, points with z = 0, points that stop at different depths
    # (as in test_example1_sums_each_point_to_its_own_depth), shallow
    # depths, a scalar, and the uncertifiable and overflowing points: the
    # same values or error, after the same term bounds at the same points
    bounds = []
    term_bound = gallery._term_bound

    def recording(n, log_inv_eps):
        bounds.append((n, log_inv_eps.tobytes()))
        return term_bound(n, log_inv_eps)

    monkeypatch.setattr(gallery, "_term_bound", recording)

    def _outcome(fn, *args, **kwargs):
        bounds.clear()
        try:
            got = np.asarray(fn(*args, **kwargs), dtype=complex).tobytes()
        except (ConvergenceError, FloatingPointError) as exc:
            got = type(exc), str(exc)
        return got, list(bounds)

    lam, z = _ring_points(rng, 200)
    lam[:4] = [1e-6, 1e-4, 3e-2, 5.0]
    z[::9] = 0.0
    near = np.minimum(np.abs(z), 0.9) * np.exp(1j * np.angle(z))
    cases = [(lam, z), (lam[4:], near[4:]),
             (lam.reshape(8, 25), z.reshape(8, 25)), (0.9 + 0.2j, 0.3 - 0.1j), (0.8j, 0.0), (lam[:10], 0.0),
             (np.array([0.9, 1e-60]), 0.1),  # infinite tail bound
             (np.array([0.9, 1e-3]), 0.5),   # uncertifiable at shallow depth
             (np.array([0.9, 1e-8]), 0.1)]   # a term overflows doubles
    outcomes = []
    for lam_, z_ in cases:
        for n_trunc in (1, 2, 5, 40):
            got = _outcome(Example1(n_trunc), lam_, z_)
            assert got == _outcome(_example1_gathering, lam_, z_, n_trunc)
            outcomes.append(got[0])
        for depth in (1, 2, 5):  # the call's own depth, under the tail at 40
            got = _outcome(Example1(), lam_, z_, n_trunc=depth)
            assert got == _outcome(_example1_gathering, lam_, z_, depth=depth)
            outcomes.append(got[0])
    assert type(Example1()(0.9 + 0.2j, 0.3 - 0.1j)) is complex
    kinds = {o[0] if isinstance(o, tuple) else bytes for o in outcomes}
    assert kinds == {bytes, ConvergenceError, FloatingPointError}


def test_example1_first_uncertifiable_point_is_reported(rng):
    # depth 2: the tail bound past term 2 certifies ring points but not
    # |lam| = 1e-3 or 3e-3; the first such point in ravel order is named
    lam, z = _ring_points(rng, 12)
    z = np.minimum(np.abs(z), 0.9) * np.exp(1j * np.angle(z))
    row0, row1 = lam.copy(), lam.copy()
    row0[9], row1[4] = 3e-3, 1e-3
    both = lam.copy()
    both[[4, 9]] = [1e-3, 3e-3]
    messages = []
    for grid, (lam0, z0) in ((np.stack([row0, row1]), (3e-3, z[9])),
                             (both, (1e-3, z[4]))):
        with pytest.raises(ConvergenceError) as expected:
            _example1_loop(lam0, z0, n_trunc=2)
        with pytest.raises(ConvergenceError) as raised:
            Example1(2)(grid, z)
        assert str(raised.value) == str(expected.value)
        messages.append(str(raised.value))
    assert messages[0] != messages[1]
    for depth in (2, 40):
        _assert_close(Example1(depth)(lam[:4], z[:4]),
                      [_example1_loop(l, w, n_trunc=depth)[0]
                       for l, w in zip(lam[:4], z[:4])])


def test_example1_infinite_tail_is_not_summed():
    # the tail bound at lam = 1e-60 is inf: no term is evaluated (no
    # overflow), also among tiny-|lam| points that sum longer than the
    # rest, and the point is reported as uncertifiable
    for lam in ([0.9, 1e-60], [1e-4, 0.9, 1e-60, 3e-2, 1e-6]):
        with pytest.raises(ConvergenceError,
                           match="bound inf at series depth 40"):
            Example1()(np.array(lam), 0.1)


def test_example1_overflow_still_fails():
    # at |lam| = 1e-8 the factors of term 7 overflow doubles: the loop
    # raised ZeroDivisionError there, the array kernel raises
    # FloatingPointError instead of returning inf or nan
    with pytest.raises(ArithmeticError):
        _example1_loop(1e-8, 0.1)
    with pytest.raises(FloatingPointError):
        Example1()(np.array([0.9, 1e-8]), 0.1)


def test_example1_term_bound_array():
    # one bound per point's log(1 / eps_d); past e^700 it reads inf
    eps = np.array([0.33, 0.1, 1e-3, 1e-60])
    for n in (1, 3, 41):
        assert gallery._term_bound(n, np.log(1.0 / eps)).shape == eps.shape
    assert gallery._term_bound(41, math.log(1e60)) == math.inf


def test_growth_probe_increasing():
    samples = example1_growth_probe(1, 0.1, range(6, 13))
    scaled = [s.ratios[5] for s in samples]  # value * lam^6
    for a, b in zip(scaled, scaled[1:]):
        assert b > a


def test_growth_probe_ratio_definition():
    (s,) = example1_growth_probe(1, 0.1, [8])
    for p in range(1, 7):
        assert mp.almosteq(s.ratios[p - 1], s.value * mp.mpf(s.lam) ** p)


def test_growth_probe_parameter_checks():
    with pytest.raises(ValueError):
        example1_growth_probe(1, 0.6, range(4, 6))  # c too large
    with pytest.raises(ValueError):
        example1_growth_probe(0, 0.1, range(4, 6))
    assert example1_growth_probe(1, 0.1, []) == ()


def _example1_decimal_untruncated(lam, z, n_trunc=40):
    """All ``n_trunc`` terms of example 1 at one point, in the operations
    of ``Example1.eval_block``, in ``decimal``."""
    lam = _DecimalArray.from_complex(np.array([lam]))
    z = _DecimalArray.from_complex(np.array([z]))
    step = lam * (decimal.Decimal(2) / 3)
    w, prod, total = step * 0 + 1, z * 0 + 1, z * 0
    for n in range(1, n_trunc + 1):
        w = w * step
        prod = prod * (z - w) * z
        total = total + prod * (lam ** (-n * n)
                                * decimal.Decimal(3) ** (-4 * n ** 3))
    return total


def _decimal_bits(d):
    """A ``Decimal``'s sign, digits and exponent; a zero's exponent, which
    records the exponents of the terms it summed and not its value, is
    left out."""
    sign, digits, exponent = d.as_tuple()
    return sign, digits, exponent if d else None


@pytest.mark.parametrize("dps", [30, 60])
def test_example1_mp_matches_untruncated_sum(dps, monkeypatch):
    # the block form stops each node at its own term bound, 2**-(prec + 64)
    # of the node's partial sum, or once its product is exactly 0: on these
    # points, with term counts that differ by node, bit for bit the full
    # 40-term decimal sum, exactly 0 at z = 0, and within a few units of
    # the context against mpmath
    lam = np.array([0.8 + 0.3j, -1.1 + 0.2j, 1e-3 - 2e-3j, 2.5j])
    z = np.array([[0.3 - 0.2j, 0.05 + 0.6j, -0.7 + 0.1j, 1.2 + 0.0j],
                  [0.0, 1e-90j, 0.9e-3, 0.0]])
    sizes, log_bound = [], gallery._term_log_bound
    monkeypatch.setattr(gallery, "_term_log_bound", lambda n, log_inv_eps: (
        sizes.append(log_inv_eps.size) or log_bound(n, log_inv_eps)))
    with decimal.localcontext(decimal.Context(prec=_decimal_digits(dps))):
        got = example1_ring(0.3).block_evaluator(
            _DecimalArray.from_complex(lam), _DecimalArray.from_complex(z))
        for (k, j), value in np.ndenumerate(got.re):
            full = _example1_decimal_untruncated(lam[j], z[k, j])
            assert [_decimal_bits(v) for v in (value, got.im[k, j])] == [
                _decimal_bits(v) for v in (full.re[0], full.im[0])]
    # the two zero nodes stop before term 2, three nodes before term 4 and
    # three (at a tiny lam or z) before term 5
    assert sizes == [8] * 2 + [6] * 2 + [3]
    assert not got.astype(complex)[1, [0, 3]].any()
    monkeypatch.undo()
    assert _block_errors(example1_ring(0.3), _example1_mp_untruncated,
                         dps, lam, z) <= _BLOCK_UNITS


# ---------------------------------------------------------------- example 2

def test_example2_polynomial_invariants():
    ex = Example2()
    for l in range(13):
        coeffs = ex.p_coeffs(l)
        assert len(coeffs) == l + 2  # degree l + 1
        sup = np.abs(np.polynomial.polynomial.polyval(
            unit_circle_grid(256), coeffs)).max()
        assert abs(sup * math.factorial(l) - 1.0) < 1e-10
        for j in range(l + 1):
            assert abs(ex.p_eval(l, ex.z(j))) < 1e-16 / math.factorial(l)
        assert abs(ex.p_eval(l, 0.0)) > 0.0


def test_example2_restriction_pole_orders():
    for k in (1, 4, 5, 8):
        psi = example2_restriction(k)
        verdict = detect_rational(psi, 10, tail_rel=1e-15)
        assert verdict.is_rational
        (pole, mult), = verdict.rational.pole_list
        assert abs(pole) < 1e-8
        assert mult == k


def _example2_centered_modes(ex, k, m):
    # reference construction: the coefficient of lam^{-l} written at
    # centered mode m/2 - l; past k = m/2 a negative index would wrap the
    # low modes into the plus half
    centered = np.zeros(m, dtype=complex)
    for l in range(1, k + 1):
        centered[m // 2 - l] = ex.p_eval(l - 1, ex.z(k))
    return CircleFunction.from_coefficients(centered)


def test_example2_restriction_matches_centered_modes():
    ex = Example2()
    for m in (64, 256, 512):
        for k in range(min(171, m // 2) + 1):
            got = example2_restriction(k, m)
            want = _example2_centered_modes(ex, k, m)
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
            assert got.samples.tobytes() == want.samples.tobytes()


def test_example2_restriction_is_cut_at_the_grid_bandwidth():
    # k = 40 > m/2 = 32: the modes past lam^{-32} are dropped, none of
    # them wraps into the plus modes
    psi = example2_restriction(40, 64)
    assert not psi.coeffs[psi.modes >= 0].any()
    assert psi.coeffs[-32 + psi.size // 2] != 0


def test_example2_restriction_at_zero_index():
    psi = example2_restriction(0)
    assert psi.sup_norm == 0.0


def test_example2_depth_limit_is_a_value_error():
    # P_l carries 1/l!, and 171! is past the float range: P_170 and the
    # restriction to z_171 are the last ones, refused past that with the
    # message of a series depth above 171, not an OverflowError
    ex = Example2()
    assert np.isfinite(ex.p_coeffs(170)).all()
    assert np.isfinite(example2_restriction(171, 512).samples).all()
    message = ("example 2's series depth must be at most 171 (1/l! of P_l "
               "overflows past l = 170), got {}")
    for call, depth in ((lambda: ex.p_coeffs(171), 172),
                        (lambda: ex.p_eval(200, 0.1), 201),
                        (lambda: ex.restriction(172), 172),
                        (lambda: example2_restriction(250), 250)):
        with pytest.raises(ValueError, match=f"^{re.escape(message.format(depth))}$"):
            call()


def test_example2_off_sequence_does_not_truncate():
    lam, z = 0.2 + 0j, 0.37 + 0j
    v10 = example2_eval(lam, z, l_trunc=10)
    v20 = example2_eval(lam, z, l_trunc=20)
    assert abs(v20 - v10) > 1e-10
    circle = 0.5 * np.exp(2j * np.pi * np.arange(16) / 16)
    vals = [abs(example2_eval(l, z)) for l in circle]
    assert max(vals) > 0.0


def test_example2_rejects_origin():
    with pytest.raises(ValueError):
        example2_eval(0.0, 0.1)
    with pytest.raises(ValueError, match="lambda = 0"):
        example2_eval(np.array([0.9, 0.0]), 0.1)


def test_example2_array_matches_scalar_loop(rng):
    ex = Example2()
    lam, z = _ring_points(rng, 100)
    z = np.minimum(np.abs(z), 1.0) * np.exp(1j * np.angle(z))
    z[:3] = [ex.z(0), ex.z(4), 0.0]
    _assert_close(ex(lam, z), [_example2_loop(ex, l, w) for l, w in zip(lam, z)])
    _assert_close(ex(lam, z, l_trunc=7),
                  [_example2_loop(ex, l, w, 7) for l, w in zip(lam, z)])
    grid = ex(lam[None, :10], z[:6, None])
    assert grid.shape == (6, 10)
    _assert_close(grid, [[_example2_loop(ex, l, w) for l in lam[:10]]
                         for w in z[:6]])
    value = example2_eval(np.array(lam[0]), z[0])
    assert type(value) is complex
    _assert_close(value, _example2_loop(ex, lam[0], z[0]))
    with pytest.raises(FloatingPointError):  # lam^-40 overflows
        ex(np.array([0.9, 1e-8]), 0.1)


def test_example2_horner_loop_is_the_former_sums_bit_for_bit(rng):
    # __call__ runs the Horner loop of the block form: on doubles it is
    # numpy's polyval sum, bit for bit
    ex = Example2()
    lam, z = _ring_points(rng, 2000)
    z = np.minimum(np.abs(z), 1.0) * np.exp(1j * np.angle(z))
    z[:3] = [ex.z(0), ex.z(4), 0.0]
    for depth in (1, 7, 40, 171):
        want = _example2_polyval(ex, lam, z, depth)
        assert ex(lam, z, l_trunc=depth).tobytes() == want.tobytes()
    for l, w in zip(lam[:20], z[:20]):
        want = _example2_polyval(ex, np.array([l]), np.array([w]))
        assert np.complex128(example2_eval(l, w)).tobytes() == want.tobytes()


def test_example2_block_within_a_few_units():
    # the block form at depth 40 against the former mpc Horner loop at
    # twice the digits, on ring points and zero nodes
    ex = Example2()
    lam = np.array([0.8 + 0.3j, -1.1 + 0.2j, 0.1 - 1.05j, 1.0])
    z = np.array([[0.3 - 0.2j, 0.05 + 0.6j, -0.7 + 0.1j, 0.45],
                  [ex.z(3), 0.0, 0.9j, -0.95]])

    def scale(l, w):
        return sum(np.polynomial.polynomial.polyval(
            abs(w), np.abs(ex.p_coeffs(n - 1))) * abs(l) ** -n
            for n in range(1, 41))

    assert _block_errors(example2_ring(0.3), functools.partial(
        _example2_mp_horner, ex), 52, lam, z, scale) <= _BLOCK_UNITS


def test_laurent_block_within_a_few_units(rng):
    # the block form of from_laurent, with negative l and n up to 5,
    # against the same sum in mpmath at twice the digits; a ring without
    # terms gives exact zeros
    terms = [(n, l, complex(*rng.standard_normal(2)))
             for n in range(6) for l in range(-3, 3)]
    lam = (1 + 0.25 * rng.uniform(-1, 1, 6)) * np.exp(
        2j * np.pi * rng.uniform(0, 1, 6))
    z = 0.95 * np.sqrt(rng.uniform(0, 1, (3, 6))) * np.exp(
        2j * np.pi * rng.uniform(0, 1, (3, 6)))
    z[2, 1] = 0.0

    def reference(l, w):
        return sum((mp.mpc(c) * l ** e * w ** n for n, e, c in terms),
                   mp.mpc(0))

    def scale(l, w):
        return sum(abs(c) * abs(l) ** e * abs(w) ** n for n, e, c in terms)

    for dps in (40, 76):
        assert _block_errors(RingFunction.from_laurent(terms, 0.3), reference,
                             dps, lam, z, scale) <= _BLOCK_UNITS
        assert _block_errors(RingFunction.from_laurent([], 0.3),
                             lambda l, w: mp.mpc(0), dps, lam, z) == 0


def test_ring_adapters_evaluate_whole_grids(rng):
    lam, z = _ring_points(rng, 32)
    z = 0.9 * np.exp(1j * np.angle(z))
    for ring, point in ((example1_ring(0.3), example1_eval),
                        (example2_ring(0.3), example2_eval)):
        values = ring.evaluator(lam, z)
        assert values.shape == lam.shape
        _assert_close(values, [point(l, w) for l, w in zip(lam, z)])


# ----------------------------------------------------------------- remark 1

def test_remark1_values():
    assert remark1_eval(1.0, 0.0) == 1.0
    assert abs(remark1_eval(0.5, 0.1) - cmath.exp(0.2)) < 1e-15
    with pytest.raises(ValueError):
        remark1_eval(0.0, 0.1)


def test_remark1_overflow_raises():
    # exp(900) overflows a double: an error, not a warning and inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="overflow"):
            remark1_eval(1e-3, 0.9)


def test_remark1_eval_is_the_ring_kernel(rng):
    # one float path: the ring's evaluator gives remark1_eval's bits,
    # arrays broadcast, scalars give a complex, and lambda = 0 raises
    ring = remark1_ring(0.3)
    lam, z = _ring_points(rng, 200)
    values = remark1_eval(lam, z)
    assert values.tobytes() == ring.evaluator(lam, z).tobytes()
    grid = remark1_eval(lam[:3, None], z[None, :4])
    assert grid.shape == (3, 4)
    for i, j in ((0, 0), (2, 1), (1, 3)):
        value = remark1_eval(lam[i], z[j])
        assert type(value) is complex and value == grid[i, j]
    for evaluate in (remark1_eval, ring.evaluator):
        with pytest.raises(ValueError, match="undefined at lambda = 0"):
            evaluate(np.array([0.5, 0.0]), np.array([0.1, 0.1]))
    with pytest.raises(ValueError, match="undefined at lambda = 0"):
        remark1_eval(0j, 0.1)


@pytest.mark.parametrize("make", [remark1_ring, example1_ring, example2_ring])
def test_ring_mp_evaluator_matches_float_kernel(make):
    # every gallery ring's block evaluator, one column per point, agrees
    # with its float evaluator
    ring = make(0.3)
    lam = np.array([0.8 + 0.3j, -1.1 + 0.2j, 0.1 - 1.05j, 1.2 + 0.0j])
    z = np.array([0.3 - 0.2j, 0.05 + 0.6j, -0.7 + 0.1j, 0.45 + 0.0j])
    with decimal.localcontext(decimal.Context(prec=_decimal_digits(40))):
        got = ring.block_evaluator(_DecimalArray.from_complex(lam),
                                   _DecimalArray.from_complex(z[None]))
    np.testing.assert_allclose(got.astype(complex)[0], ring.evaluator(lam, z),
                               rtol=1e-13, atol=0)


def _decimal_to_mpf(d):
    """A ``Decimal`` as an ``mpf``, exact at the working precision when
    that holds its digits."""
    return mp.mpf(str(d))


# the block forms' bound, in units of 10**-p at p context digits, on each
# part's error over the sum of the terms' moduli: an integer power rounds
# once per squaring, so lam**l is good to about |l| units
_BLOCK_UNITS = 32


def _block_errors(ring, reference, dps, lam, z, scale=None):
    """Largest error of a part of ``ring``'s block values at ``dps``,
    on the points ``lam`` and the ``(K, c)`` nodes ``z``, against
    ``reference(lam, z)`` in mpmath at ``2 dps``, over ``scale(lam, z)``
    (by default the reference's modulus), in units of ``10**-p`` for the
    context's ``p`` digits.  A zero reference must be met exactly."""
    digits = _decimal_digits(dps)
    with decimal.localcontext(decimal.Context(prec=digits)):
        got = ring.block_evaluator(_DecimalArray.from_complex(lam),
                                   _DecimalArray.from_complex(z))
    worst = 0.0
    with mp.workdps(2 * dps):
        for (k, j), re_part in np.ndenumerate(got.re):
            ref = reference(mp.mpc(lam[j]), mp.mpc(z[k, j]))
            value = (_decimal_to_mpf(re_part), _decimal_to_mpf(got.im[k, j]))
            if ref == 0:
                assert value == (0, 0)
                continue
            size = abs(ref) if scale is None else scale(lam[j], z[k, j])
            for part, exact in zip(value, (ref.real, ref.imag)):
                worst = max(worst, float(abs(part - exact) / size)
                            * 10.0 ** digits)
    return worst


def _remark1_block_errors(dps, w):
    """Per-part errors of remark 1's block kernel and of ``mp.exp`` at
    ``dps`` against ``mp.exp`` at ``2 dps``, on the doubles ``w`` (lambda
    = 1, so ``z / lambda`` is exact in both); each error is divided by the
    modulus of the value (``normwise``) or by the part itself."""
    with decimal.localcontext(decimal.Context(prec=_decimal_digits(dps))):
        got = remark1_ring(0.3).block_evaluator(
            _DecimalArray.from_complex(np.ones(len(w))),
            _DecimalArray.from_complex(w[None]))
    ours = {"normwise": 0.0, "part": 0.0}
    theirs = dict(ours)
    for j, x in enumerate(w):
        with mp.workdps(2 * dps):
            ref = mp.exp(mp.mpc(x))
            with mp.workdps(dps):
                plain = mp.exp(mp.mpc(x))
            ours_x = (_decimal_to_mpf(got.re[0, j]),
                      _decimal_to_mpf(got.im[0, j]))
            for errs, parts in ((ours, ours_x),
                                (theirs, (plain.real, plain.imag))):
                for value, exact in zip(parts, (ref.real, ref.imag)):
                    if not exact:
                        assert value == 0   # exp(0), exp(1), exp(-1)
                        continue
                    err = abs(value - exact)
                    errs["normwise"] = max(errs["normwise"],
                                           float(err / abs(ref)))
                    errs["part"] = max(errs["part"], float(err / abs(exact)))
    return ours, theirs


@pytest.mark.parametrize("dps", [40, 52, 76])
def test_remark1_block_kernel_within_mpmath_error(dps):
    # each part's relative error against mpmath at twice the digits is no
    # larger than mpmath's own at dps: on |w| <= 1 + 1e-9 (the ladder's
    # range) with 0, +-1, +-i and points of |w| = 1 per part, and up to
    # |w| = 50 (more halvings and squarings) normwise, since cos y or
    # sin y may be near 0 there
    rng = np.random.default_rng(5200 + dps)
    unit = np.exp(2j * np.pi * rng.uniform(0, 1, 40))
    inner = (1 + 1e-9) * np.sqrt(rng.uniform(0, 1, 120)) * np.exp(
        2j * np.pi * rng.uniform(0, 1, 120))
    w = np.concatenate([[0, 1, -1, 1j, -1j], unit, (1 + 1e-9) * unit[:10],
                        inner])
    # the table's cell edges (j +- 1/2) / 256 per part, and just past
    # 1.01, where one halving and squaring begins
    edges = (np.arange(-258, 258, 37) + 0.5) / 256
    past = 1.01 * (1 + 1e-9) * np.array([1, -1, 1j, -1j])
    w = np.concatenate([w, edges, edges[::-1] * 1j, edges + 1j * edges[::-1],
                        past, past + 0.3j, past * 1j + 0.7])
    ours, theirs = _remark1_block_errors(dps, w)
    assert ours["part"] <= theirs["part"]
    large = 50 * np.sqrt(rng.uniform(0, 1, 60)) * np.exp(
        2j * np.pi * rng.uniform(0, 1, 60))
    ours, theirs = _remark1_block_errors(dps, np.concatenate([large, [50, 50j]]))
    assert ours["normwise"] <= theirs["normwise"]


@pytest.mark.parametrize("dps", [40, 52, 76])
def test_remark1_table_within_one_unit(dps):
    # every entry of the kernel's table, at its working digits, within one
    # unit of its last digit of mpmath at twice the digits; the offsets
    # j / 256 are exact
    prec = _decimal_digits(dps) + gallery._REMARK1_GUARD
    offset, exp_j, cos_j, sin_j = gallery._remark1_table(prec)
    assert len(offset) == 2 * 259 + 1
    with mp.workdps(2 * prec):
        for j, x in enumerate(offset):
            assert x == decimal.Decimal(j - 259) / 256
            t = mp.mpf(j - 259) / 256
            for got, exact in ((exp_j[j], mp.exp(t)), (cos_j[j], mp.cos(t)),
                               (sin_j[j], mp.sin(t))):
                if not exact:
                    assert got == 0
                    continue
                unit = mp.mpf(10) ** (got.adjusted() + 1 - prec)
                assert abs(_decimal_to_mpf(got) - exact) <= unit


@pytest.mark.parametrize("dps", [40, 52, 76])
def test_remark1_fine_table_within_one_unit(dps):
    # the second table level, at steps of 1/65536 for |k| <= 130: every
    # entry within one unit of its last digit of mpmath at twice the
    # digits; the offsets k / 65536 are exact
    prec = _decimal_digits(dps) + gallery._REMARK1_GUARD
    offset, exp_k, cos_k, sin_k = gallery._remark1_fine_table(prec)
    assert len(offset) == 2 * 130 + 1
    with mp.workdps(2 * prec):
        for k, x in enumerate(offset):
            assert x == decimal.Decimal(k - 130) / 65536
            t = mp.mpf(k - 130) / 65536
            for got, exact in ((exp_k[k], mp.exp(t)), (cos_k[k], mp.cos(t)),
                               (sin_k[k], mp.sin(t))):
                if not exact:
                    assert got == 0
                    continue
                unit = mp.mpf(10) ** (got.adjusted() + 1 - prec)
                assert abs(_decimal_to_mpf(got) - exact) <= unit


def test_remark1_block_kernel_at_fine_cell_edges():
    # both levels of the split at their edges: parts at (k +- 1/2) / 65536
    # past a coarse cell's center, and at the coarse cell edges, keep each
    # part within mpmath's own error at dps 52
    k = np.arange(-128, 129, 16) + 0.5
    fine = np.concatenate([(j + k / 256) / 256 for j in (-258, -3, 0, 1, 200)])
    fine = fine[np.abs(fine) < 1.01]
    w = np.concatenate([fine, fine[::-1] * 1j, fine + 1j * fine[::-1]])
    ours, theirs = _remark1_block_errors(52, w)
    assert ours["part"] <= theirs["part"]


def test_remark1_constant_along_scaled_lines():
    ring = remark1_ring(0.3)
    grid = unit_circle_grid(64)
    for k in (1, 3, 7):
        phi = DiscFunction([0, 1.0 / k])
        g = CircleFunction(ring.evaluator(grid, phi(grid)))
        np.testing.assert_allclose(g.samples, cmath.exp(1.0 / k), atol=1e-13)


def test_gallery_dispatch():
    assert gallery_eval("remark1", 1.0, 0.0) == 1.0
    assert gallery_eval("example1", 0.5, 0.1) == example1_eval(0.5, 0.1)
    assert gallery_eval("example2", 0.5, 0.1) == example2_eval(0.5, 0.1)
    with pytest.raises(ValueError):
        gallery_eval("nope", 1.0, 0.0)
