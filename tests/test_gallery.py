import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from pinchext import (ConvergenceError, DiscFunction, detect_rational,
                      gallery, hardy_project_minus, restrict_along_curve)
from pinchext.gallery import (Example1, Example2, example1_eval,
                              example1_growth_probe, example1_ring,
                              example1_term_bound, example2_eval,
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


def _example2_loop(ex, lam, z, l_trunc=40):
    """The former one-point loop of ``Example2.__call__``, kept as reference."""
    lam = complex(lam)
    total = 0j
    for l in range(1, l_trunc + 1):
        total += ex.p_eval(l - 1, z) * lam ** (-l)
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
    from pinchext.gallery import example1_term_bound
    eps = 0.3
    for _ in range(20):
        lam = rng.uniform(eps, 1.0 / eps) * np.exp(2j * np.pi * rng.uniform())
        z = rng.uniform(0, 1 / (3 * eps)) * np.exp(2j * np.pi * rng.uniform())
        for n in range(1, 5):
            assert abs(_example1_term(lam, z, n)) <= example1_term_bound(n, eps)


def test_example1_rejects_origin():
    with pytest.raises(ValueError):
        example1_eval(0.0, 0.1)
    with pytest.raises(ValueError, match="lambda = 0"):
        Example1()(np.array([0.9, 0.0, 1.1]), 0.1)


def test_example1_restriction_is_polynomial():
    # the restriction to C_l extends over the disc: Hardy-minus part tiny
    ring = example1_ring(0.3)
    for l in (2, 3):
        phi = DiscFunction([0j] * l + [(2.0 / 3.0) ** l])
        g = restrict_along_curve(ring, phi, m=64)
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
    # summing: those where the reference loop summed at least n - 1 terms
    lam, z = _ring_points(rng, 200)
    lam[:4] = [1e-6, 1e-4, 3e-2, 5.0]
    calls = []

    def recording(n, eps_d):
        calls.append((n, np.size(eps_d)))
        return example1_term_bound(n, eps_d)

    monkeypatch.setattr(gallery, "example1_term_bound", recording)
    values = Example1()(lam, z)
    reference = [_example1_loop(l, w) for l, w in zip(lam, z)]
    terms = np.array([t for _, t in reference])
    assert len(set(terms)) >= 3
    assert calls[0] == (41, lam.size)  # the tail bound
    assert calls[1:] == [(n, int((terms >= n - 1).sum()))
                         for n in range(1, terms.max() + 2)]
    _assert_close(values, [v for v, _ in reference])


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
    # overflow), and the point is reported as uncertifiable
    with pytest.raises(ConvergenceError, match="bound inf at series depth 40"):
        Example1()(np.array([0.9, 1e-60]), 0.1)


def test_example1_overflow_still_fails():
    # at |lam| = 1e-8 the factors of term 7 overflow doubles: the loop
    # raised ZeroDivisionError there, the array kernel raises
    # FloatingPointError instead of returning inf or nan
    with pytest.raises(ArithmeticError):
        _example1_loop(1e-8, 0.1)
    with pytest.raises(FloatingPointError):
        Example1()(np.array([0.9, 1e-8]), 0.1)


def test_example1_term_bound_array():
    eps = np.array([0.33, 0.1, 1e-3, 1e-60])
    for n in (1, 3, 41):
        bounds = example1_term_bound(n, eps)
        assert bounds.shape == eps.shape
        for b, e in zip(bounds, eps):
            single = example1_term_bound(n, float(e))
            assert type(single) is float
            assert b == single
    assert example1_term_bound(41, 1e-60) == math.inf


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


# ---------------------------------------------------------------- example 2

def test_example2_polynomial_invariants():
    ex = Example2()
    for l in range(13):
        coeffs = ex.p_coeffs(l)
        assert len(coeffs) == l + 2  # degree l + 1
        assert abs(ex.p_sup(l) * math.factorial(l) - 1.0) < 1e-10
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


def test_example2_restriction_at_zero_index():
    psi = example2_restriction(0)
    assert psi.sup_norm == 0.0


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


def test_ring_adapters_evaluate_whole_grids(rng):
    lam, z = _ring_points(rng, 32)
    z = 0.9 * np.exp(1j * np.angle(z))
    for ring, point in ((example1_ring(0.3), example1_eval),
                        (example2_ring(0.3), example2_eval)):
        values = ring.eval_many(lam, z)
        assert values.shape == lam.shape
        _assert_close(values, [point(l, w) for l, w in zip(lam, z)])


# ----------------------------------------------------------------- remark 1

def test_remark1_values():
    assert remark1_eval(1.0, 0.0) == 1.0
    assert abs(remark1_eval(0.5, 0.1) - cmath.exp(0.2)) < 1e-15
    with pytest.raises(ValueError):
        remark1_eval(0.0, 0.1)


def test_remark1_eval_is_the_ring_kernel(rng):
    # one float path: the ring's evaluator gives remark1_eval's bits,
    # arrays broadcast, scalars give a complex, and lambda = 0 raises
    ring = remark1_ring(0.3)
    lam, z = _ring_points(rng, 200)
    values = remark1_eval(lam, z)
    assert values.tobytes() == ring.eval_many(lam, z).tobytes()
    assert values.tobytes() == ring.evaluator(lam, z).tobytes()
    grid = remark1_eval(lam[:3, None], z[None, :4])
    assert grid.shape == (3, 4)
    for i, j in ((0, 0), (2, 1), (1, 3)):
        value = remark1_eval(lam[i], z[j])
        assert type(value) is complex and value == grid[i, j]
    for evaluate in (remark1_eval, ring.evaluator, ring.eval_many):
        with pytest.raises(ValueError, match="undefined at lambda = 0"):
            evaluate(np.array([0.5, 0.0]), np.array([0.1, 0.1]))
    with pytest.raises(ValueError, match="undefined at lambda = 0"):
        remark1_eval(0j, 0.1)


@pytest.mark.parametrize("make", [remark1_ring, example1_ring, example2_ring])
def test_ring_mp_evaluator_matches_float_kernel(make):
    # a few points only: example 1's mp series costs about 25 ms a point
    ring = make(0.3)
    lam = np.array([0.8 + 0.3j, -1.1 + 0.2j, 0.1 - 1.05j, 1.2 + 0.0j])
    z = np.array([0.3 - 0.2j, 0.05 + 0.6j, -0.7 + 0.1j, 0.45 + 0.0j])
    with mp.workdps(40):
        got = np.array([complex(ring.eval_mp(mp.mpc(l), mp.mpc(w)))
                        for l, w in zip(lam, z)])
    np.testing.assert_allclose(got, ring.eval_many(lam, z), rtol=1e-13, atol=0)


def test_remark1_constant_along_scaled_lines():
    ring = remark1_ring(0.3)
    for k in (1, 3, 7):
        g = restrict_along_curve(ring, DiscFunction([0, 1.0 / k]), m=64)
        np.testing.assert_allclose(g.samples, cmath.exp(1.0 / k), atol=1e-13)


def test_gallery_dispatch():
    assert gallery_eval("remark1", 1.0, 0.0) == 1.0
    assert gallery_eval("example1", 0.5, 0.1) == example1_eval(0.5, 0.1)
    assert gallery_eval("example2", 0.5, 0.1) == example2_eval(0.5, 0.1)
    with pytest.raises(ValueError):
        gallery_eval("nope", 1.0, 0.0)
