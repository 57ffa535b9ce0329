"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import cmath
import functools
import math
import time

import numpy as np
import pytest

from pinchext import (CircleFunction, DiscFunction, detect_rational,
                      hardy_project_minus, hilbert_transform,
                      coefficient_ladder, extension_test, pinch_estimate,
                      rational_to_circle, unit_circle_grid,
                      validate_test_sequence, verify_coefficient_bounds,
                      winding_profile, RingFunction)
from pinchext.gallery import (example1_eval, example1_growth_probe,
                              example2_restriction, remark1_ring)

from conftest import random_laurent_coeffs, random_rational_part


def criterion(num, text):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:2d}] FAIL  {text}")
                raise
            print(f"[criterion {num:2d}] PASS  {text}")
        return wrapper
    return decorate


@pytest.fixture(scope="module")
def exp_ring():
    return remark1_ring(0.3)


@pytest.fixture(scope="module")
def criterion5_ladder(exp_ring):
    curves = [DiscFunction([0, 1.0 / k]) for k in range(1, 13)]
    start = time.monotonic()
    ladder = coefficient_ladder(exp_ring, curves, 6, 10)
    return ladder, time.monotonic() - start


@criterion(1, "operator algebra S^2 = id, P^2 = P, S = -2P + id")
def test_criterion_1():
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    for _ in range(100):
        g = CircleFunction.from_coefficients(
            random_laurent_coeffs(rng, 64, 256))
        p = hardy_project_minus(g)
        s = hilbert_transform(g)
        assert (hilbert_transform(s) - g).sup_norm < 1e-10
        assert (hardy_project_minus(p) - p).sup_norm < 1e-10
        assert (s - ((-2.0) * p + g)).sup_norm < 1e-10
    assert time.monotonic() - start < 5.0


@criterion(2, "holomorphy criterion: P annihilates exactly the plus part")
def test_criterion_2():
    rng = np.random.default_rng(1002)
    grid = unit_circle_grid(256)
    for _ in range(100):
        deg = int(rng.integers(0, 41))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        g = CircleFunction(np.polynomial.polynomial.polyval(grid, coeffs))
        assert hardy_project_minus(g).sup_norm < 1e-10
    for _ in range(100):
        coeffs = random_laurent_coeffs(rng, 30, 256)
        k = int(rng.integers(1, 31))
        coeffs[128 - k] += 0.2 + 0.1j  # guarantee a nonzero negative mode
        g = CircleFunction.from_coefficients(coeffs)
        assert hardy_project_minus(g).sup_norm > 1e-3


@criterion(3, "Kronecker round-trip recovers degree and poles to 1e-6")
def test_criterion_3():
    rng = np.random.default_rng(1003)
    start = time.monotonic()
    for _ in range(100):
        rp = random_rational_part(rng)
        verdict = detect_rational(rational_to_circle(rp), 8)
        assert verdict.is_rational
        assert verdict.rational.degree == rp.degree
        recovered = dict(verdict.rational.pole_list)
        for a, mult in rp.pole_list:
            best = min(recovered, key=lambda b: abs(b - a))
            assert abs(best - a) < 1e-6
            assert recovered[best] == mult
    assert time.monotonic() - start < 30.0


@criterion(4, "exp(z/lam): codimension-one extendability split")
def test_criterion_4(exp_ring):
    rng = np.random.default_rng(1004)
    for _ in range(20):
        # curves through the origin: phi = lam * p(lam)
        inner = rng.uniform(0.03, 0.15, 5) * np.exp(
            2j * np.pi * rng.uniform(0, 1, 5))
        phi = DiscFunction(np.concatenate(([0], inner)))
        verdict = extension_test(exp_ring, phi, 10)
        assert verdict.kind == "holomorphic"
        assert verdict.residual < 1e-8
    for _ in range(20):
        # curves missing the origin: |phi(0)| >= 0.1
        c0 = rng.uniform(0.1, 0.4) * np.exp(2j * np.pi * rng.uniform())
        inner = rng.uniform(0.0, 0.1, 4) * np.exp(
            2j * np.pi * rng.uniform(0, 1, 4))
        phi = DiscFunction(np.concatenate(([c0], inner)))
        assert abs(phi(0)) >= 0.1
        verdict = extension_test(exp_ring, phi, 10)
        assert verdict.kind == "not-extendable"
        assert verdict.n_max == 10


@criterion(5, "ladder reconstructs A_n = lam^-n / n! to 1e-6, one pinch")
def test_criterion_5(criterion5_ladder):
    ladder, elapsed = criterion5_ladder
    grid = 0.7 * np.exp(2j * np.pi * np.arange(32) / 32)
    for n in range(7):
        expected = grid ** (-n) / math.factorial(n)
        rel = np.abs(ladder.entries[n](grid) - expected) / np.abs(expected)
        assert rel.max() < 1e-6
    descriptor = pinch_estimate(ladder)
    assert len(descriptor.pinches) == 1
    (a, order), = descriptor.pinches
    assert abs(a) < 1e-8
    assert order == 1
    assert descriptor.c > 0
    assert elapsed < 60.0


@criterion(6, "coefficient growth estimate holds on the probe grid")
def test_criterion_6(criterion5_ladder):
    ladder, _ = criterion5_ladder
    assert verify_coefficient_bounds(ladder) == ()


@criterion(7, "example-1 truncation identity and non-test winding growth")
def test_criterion_7():
    rng = np.random.default_rng(1007)
    for l in range(2, 9):
        for _ in range(20):
            lam = rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
            z = (2.0 / 3.0 * lam) ** l
            full = example1_eval(lam, z, n_trunc=40)
            finite = example1_eval(lam, z, n_trunc=l - 1)
            assert abs(full - finite) < 1e-13
    curves = [DiscFunction([0j] * k + [(2.0 / 3.0) ** k]) for k in range(1, 13)]
    report = validate_test_sequence(curves, DiscFunction([0j]), 10)
    assert report.windings == tuple(range(1, 13))
    assert not report.is_test


@criterion(8, "example-1 tail grows super-polynomially in 1/lambda")
def test_criterion_8():
    start = time.monotonic()
    samples = example1_growth_probe(1, 0.1, range(6, 13))
    scaled = [s.value * (2.0 ** (-6 * s.m)) for s in samples]
    for prev, cur in zip(scaled, scaled[1:]):
        assert cur > prev
    assert time.monotonic() - start < 5.0


@criterion(9, "example-2 restrictions carry pole orders exactly 1..8")
def test_criterion_9():
    mults = []
    for k in range(1, 9):
        psi = example2_restriction(k)
        verdict = detect_rational(psi, 10, tail_rel=1e-15)
        assert verdict.is_rational
        (pole, mult), = verdict.rational.pole_list
        assert abs(pole) < 1e-8
        assert mult == k
        mults.append(mult)
    assert all(b > a for a, b in zip(mults, mults[1:]))


def _oracle_compose(terms, phi_coeffs):
    """Exact lambda-Laurent coefficients of f(lam, phi(lam)).

    All inputs are dyadic, so numpy complex arithmetic is exact here.
    """
    powers = {0: np.array([1.0 + 0j])}
    for n in range(1, 7):
        powers[n] = np.convolve(powers[n - 1], phi_coeffs)
    laurent = {}
    for n, l, c in terms:
        arr = powers[n]
        for j, a in enumerate(arr):
            if a != 0:
                key = l + j
                laurent[key] = laurent.get(key, 0j) + c * a
    return {k: v for k, v in laurent.items() if v != 0}


@criterion(10, "extendability verdicts match the exact symbolic oracle")
def test_criterion_10():
    rng = np.random.default_rng(1010)
    agreements = 0
    for trial in range(100):
        allow_negative = trial % 2 == 0
        terms = []
        while not terms:
            for n in range(0, 7):
                lmin = -6 if allow_negative else 0
                for l in range(lmin, 7):
                    if rng.uniform() < 0.12:
                        c = complex(int(rng.integers(-5, 6)),
                                    int(rng.integers(-5, 6)))
                        if c != 0:
                            terms.append((n, l, c))
        phi_coeffs = np.array(
            [int(rng.integers(-1, 2)) * 0.25 for _ in range(3)], dtype=complex)
        ring = RingFunction.from_laurent(terms, 0.3)
        phi = DiscFunction(phi_coeffs)
        verdict = extension_test(ring, phi, 10)

        laurent = _oracle_compose(terms, phi_coeffs)
        negative = {k: v for k, v in laurent.items() if k < 0}
        if not negative:
            assert verdict.kind == "holomorphic"
        else:
            mult = -min(negative)
            assert verdict.kind == "meromorphic"
            (pole, got_mult), = verdict.rational.pole_list
            assert abs(pole) < 1e-6
            assert got_mult == mult
            scale = max(abs(v) for v in negative.values())
            for k, coeff in enumerate(verdict.rational.poles[0][1]):
                expected = negative.get(k - mult, 0j)
                assert abs(coeff - expected) < 1e-9 * max(1.0, scale)
        agreements += 1
    assert agreements == 100


@criterion(11, "winding profiles are constant across one-parameter families")
def test_criterion_11():
    rng = np.random.default_rng(1011)
    for _ in range(10):
        deg = int(rng.integers(1, 7))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        sup = np.abs(np.polynomial.polynomial.polyval(
            unit_circle_grid(256), coeffs)).max()
        base = coeffs / sup

        def family(alpha, base=base):
            return DiscFunction(alpha * base)

        alphas = rng.uniform(0.05, 0.5, 6)
        report = winding_profile(family, alphas, 0.0)
        assert report.constant
    assert True
