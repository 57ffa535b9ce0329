"""Property tests (hypothesis): identities checked on generated inputs.

Runs are derandomized, so every run draws the same examples.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import random_rational_part
from pinchext import (CircleFunction, DiscFunction, DomainError,
                      ExtensionVerdict, PinchextError, RationalPart,
                      RingFunction, circle_from_csv, circle_to_csv,
                      detect_rational, hardy_project_minus, hardy_split,
                      hilbert_transform, unit_circle_grid,
                      validate_test_family, validate_test_sequence,
                      winding_number)
from pinchext.boundary import require_resolved
from pinchext.extension import (_clean_and_project, _roots_of_rows,
                                _sample_curves, _test_rows)


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
    # P truncates modes, so nothing is left on n >= 0, not even round-off
    assert not p.coeffs[p.modes >= 0].any()
    assert (hardy_project_minus(p) - p).sup_norm <= tol
    s = hilbert_transform(g)
    assert (hilbert_transform(s) - g).sup_norm <= tol
    assert (s - ((-2.0) * p + g)).sup_norm <= tol


@st.composite
def polynomial_differences(draw):
    """Taylor coefficients of a polynomial of degree 1 to 8."""
    degree = draw(st.integers(1, 8))
    parts = st.lists(st.floats(-1.0, 1.0), min_size=degree, max_size=degree)
    lower = np.array(draw(parts)) + 1j * np.array(draw(parts))
    lead = draw(st.floats(0.1, 1.0)) * np.exp(2j * np.pi * draw(st.floats(0, 1)))
    return np.append(lower, lead)


def sampled_winding(coeffs, radius, m=256):
    """Winding of the polynomial along ``|lambda| = radius``, from samples."""
    centered = np.zeros(m, dtype=complex)
    centered[m // 2:m // 2 + len(coeffs)] = coeffs
    return winding_number(CircleFunction.from_coefficients(centered, radius))


@settings(derandomize=True, deadline=None, database=None)
@given(polynomial_differences())
def test_root_count_winding_matches_sampled_winding(coeffs):
    # argument principle: the zeros inside the circle give the winding
    # that the sampled argument variation measures
    diff = DiscFunction(coeffs, require_into_disc=False)
    zero = DiscFunction([0j])
    moduli = np.abs(diff.roots())
    assume(np.abs(moduli - 1.0).min() >= 1e-3)
    seq = validate_test_sequence([diff] * 3, zero, 10)
    assert seq.windings[0] == sampled_winding(coeffs, 1.0)
    (pair,) = validate_test_family([diff, zero], 10, 0.3).pairs
    if np.abs(moduli - pair.radius).min() >= 1e-3:
        assert pair.winding == sampled_winding(coeffs, pair.radius)


@st.composite
def coefficient_rows(draw):
    """Rows of ascending coefficients of degree 0 to 8, zero-padded to 9.

    Some rows start with exact zeros (roots at 0), end in a coefficient
    just below 1e-14 of the largest (trimmed) or just above it (kept), or
    are all zero.  Kept parts are normal floats: dividing by a subnormal
    leading coefficient overflows the companion row, and ``np.roots``
    itself then raises.
    """
    rows = np.zeros((draw(st.integers(1, 8)), 9), dtype=complex)
    for row in rows:
        size = draw(st.integers(1, 9))
        parts = st.lists(st.floats(-1.0, 1.0, allow_subnormal=False),
                         min_size=size, max_size=size)
        row[:size] = np.array(draw(parts)) + 1j * np.array(draw(parts))
        kind = draw(st.sampled_from(["plain", "zero low", "tiny top",
                                     "small top", "zero"]))
        if kind == "zero low":
            row[:draw(st.integers(0, size - 1))] = 0.0
        elif kind in ("tiny top", "small top"):
            scale = (st.floats(0.0, 0.99e-14) if kind == "tiny top"
                     else st.floats(1.01e-14, 1e-12))
            row[size - 1] = (draw(scale)
                             * np.abs(row[:size - 1]).max(initial=0.0))
        elif kind == "zero":
            row[:] = 0.0
    return rows


def trimmed_np_roots(row):
    """``np.roots`` of the row after the 1e-14 relative tail trim."""
    top = np.abs(row).max()
    if top == 0:
        return None
    keep = np.nonzero(np.abs(row) >= 1e-14 * top)[0]
    return np.roots(row[:keep[-1] + 1][::-1])


@settings(derandomize=True, deadline=None, database=None)
@given(coefficient_rows())
@example(np.array([[0, 0, 0.5, -0.25j, 1.0, 0],        # two roots at 0
                   [1.0, 0.3, 0.2j, 1e-16, 0, 0],      # trimmed top
                   [0.7j, 0, 0, 0, 0, 0],              # constant
                   [0, 0, 0, 0, 0, 0],                 # zero row
                   [0, 0, 0, 0.4, 0, 0]], dtype=complex))  # 0.4 lambda^3
def test_roots_of_rows_match_np_roots(rows):
    # the batched finder gives, row by row, np.roots of the trimmed row
    for row, found in zip(rows, _roots_of_rows(rows)):
        expected = trimmed_np_roots(row)
        if expected is None:
            assert found is None
        else:
            assert found.dtype == expected.dtype
            assert np.array_equal(found, expected)


def reference_circle(samples, radius):
    """``(samples, coeffs)`` of ``CircleFunction(samples, radius)`` by the
    formulas it had before its mode tables were cached."""
    m = samples.size
    chat = np.fft.fft(samples) / m
    modes = np.fft.fftshift(np.fft.fftfreq(m, d=1.0 / m)).astype(int)
    return samples, np.fft.fftshift(chat) / (radius ** modes.astype(float))


def reference_from_coefficients(full, radius):
    """``(samples, coeffs)`` of ``from_coefficients`` for a full-grid
    coefficient array, by the same earlier formulas."""
    size = full.size
    modes = np.arange(-size // 2, size // 2)
    chat = np.fft.ifftshift(full * radius ** modes.astype(float))
    return np.fft.ifft(chat) * size, full


def same_bytes(got, expected):
    """Equal bits, signed zeros included."""
    expected = np.asarray(expected)
    return (got.dtype == expected.dtype and got.shape == expected.shape
            and np.array_equal(got.view(np.uint8), expected.view(np.uint8)))


@st.composite
def signed_zero_samples(draw, sizes):
    """Complex samples of a drawn size with some parts set to +0.0 or -0.0."""
    m = draw(st.sampled_from(sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    samples = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    share = draw(st.sampled_from([0.0, 0.3, 1.0]))
    for part in (samples.real, samples.imag):
        hit = rng.random(m) < share
        part[hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
    return samples


@settings(derandomize=True, deadline=None, database=None)
@given(signed_zero_samples([2 ** k for k in range(4, 13)]),
       st.sampled_from([1.0, 0.5, 0.875, 1.125]))
def test_circle_function_bits_match_reference(samples, radius):
    # the cached tables and half swaps change no bit of either constructor,
    # of the Hardy split or of the sample grid
    m = samples.size
    assert same_bytes(unit_circle_grid(m, radius),
                      radius * np.exp(2j * np.pi * np.arange(m) / m))
    if m / 2 * abs(np.log(radius)) > 708.4:   # 0.5 on 2048 and 4096 points
        with pytest.raises(ValueError, match="radius"):
            CircleFunction(samples, radius)
        return
    g = CircleFunction(samples, radius)
    for got, expected in zip((g.samples, g.coeffs),
                             reference_circle(samples, radius)):
        assert same_bytes(got, expected)
    padded = np.zeros(m, dtype=complex)
    padded[m // 4:3 * m // 4] = samples[:m // 2]
    for coeffs, size, full in ((samples, None, samples),
                               (samples[:m // 2], m, padded)):
        h = CircleFunction.from_coefficients(coeffs, radius, m=size)
        for got, expected in zip((h.samples, h.coeffs),
                                 reference_from_coefficients(full, radius)):
            assert same_bytes(got, expected)
    if radius == 1.0:
        split = hardy_split(g)
        for part, keep in ((split.plus, slice(m // 2, None)),
                           (split.minus, slice(None, m // 2))):
            full = np.zeros(m, dtype=complex)
            full[keep] = g.coeffs[keep]
            for got, expected in zip((part.samples, part.coeffs),
                                     reference_from_coefficients(full, 1.0)):
                assert same_bytes(got, expected)


@st.composite
def sample_stacks(draw):
    """A ``(k, m)`` stack of circle samples: k in 1..12, m in 16..4096, with
    signed zeros and some rows zero, scaled to tiny magnitudes or set to
    a constant ``-0.0 +- 1j``."""
    k = draw(st.integers(1, 12))
    m = draw(st.sampled_from([2 ** e for e in range(4, 13)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
    share = draw(st.sampled_from([0.0, 0.3, 1.0]))
    for part in (rows.real, rows.imag):
        hit = rng.random((k, m)) < share
        part[hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
    kinds = draw(st.lists(st.sampled_from(
        [1.0, 0.0, 1e-9, 1e-300, 1e-310, "constant"]), min_size=k, max_size=k))
    for row, kind in zip(rows, kinds):
        if kind == "constant":
            # a kept coefficient c_0 with a signed-zero real part
            row[:] = complex(-0.0, rng.choice([-1.0, 1.0]))
        else:
            row *= kind
    return rows


def reference_project(g, keep_negative):
    """One Hardy part of ``g`` as ``boundary`` took it before the stacked
    projection: zero the other half of the modes and rebuild."""
    m = g.size
    coeffs = g.coeffs.copy()
    if keep_negative:
        coeffs[m // 2:] = 0
    else:
        coeffs[:m // 2] = 0
    return CircleFunction.from_coefficients(coeffs, g.radius)


@settings(derandomize=True, deadline=None, database=None)
@given(band_limited(), st.sampled_from([1.0, 1.0 + 5e-13]))
def test_hardy_projection_bits_match_reference(g, radius):
    # the one-row case of the stacked projection changes no bit of either
    # Hardy part, on the unit circle or within its 1e-12 tolerance
    g = CircleFunction.from_coefficients(g.coeffs, radius)
    split = hardy_split(g)
    for got, keep_negative in ((hardy_project_minus(g), True),
                               (split.minus, True), (split.plus, False)):
        expected = reference_project(g, keep_negative)
        assert got.radius == expected.radius
        for part, ref in ((got.samples, expected.samples),
                          (got.coeffs, expected.coeffs)):
            assert ([x.hex() for x in part.view(float)]
                    == [x.hex() for x in ref.view(float)])


def reference_clean_and_project(row, abs_floor):
    """Cleaned coefficients and Hardy-minus part of one row, one circle
    function at a time as the ladder built them before stacking."""
    coeffs = CircleFunction(row, 1.0).coeffs.copy()
    mags = np.abs(coeffs)
    coeffs[mags < max(1e-7 * mags.max(), abs_floor)] = 0.0
    cleaned = CircleFunction.from_coefficients(coeffs, 1.0)
    return cleaned.coeffs, reference_project(cleaned, keep_negative=True)


@settings(derandomize=True, deadline=None, database=None)
@given(sample_stacks(), st.sampled_from([1e-312, 1e-300, 1e-12, 1e-3]))
def test_clean_and_project_bits_match_per_row(rows, abs_floor):
    # numpy does not promise that a stacked FFT gives each row the bits of
    # its own FFT; the ladder's stacked cleaning relies on it
    coeffs, minus = _clean_and_project(rows, abs_floor)
    assert coeffs.shape == rows.shape and len(minus) == len(rows)
    for row, got_coeffs, got_minus in zip(rows, coeffs, minus):
        ref_coeffs, ref_minus = reference_clean_and_project(row, abs_floor)
        assert same_bytes(got_coeffs, ref_coeffs)
        assert same_bytes(got_minus.samples, ref_minus.samples)
        assert same_bytes(got_minus.coeffs, ref_minus.coeffs)
        assert got_minus.radius == 1.0


@settings(derandomize=True, deadline=None, database=None)
@given(signed_zero_samples([16, 64, 256, 1024]), st.floats(0.5, 2.0))
def test_csv_round_trip_keeps_bits(samples, radius):
    g = CircleFunction(samples, radius)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "circle.csv"
        circle_to_csv(g, path)
        back = circle_from_csv(path)
    assert back.radius == g.radius
    assert same_bytes(back.samples, g.samples)
    assert same_bytes(back.coeffs, g.coeffs)


@st.composite
def curve_stacks(draw):
    """A ring ``exp(z^2/lam) + z/(lam - a)`` and 1..12 curves on m = 16..1024
    points.  A curve through the origin that vanishes at ``a`` restricts
    to a holomorphic function; through the origin only, to one with a
    pole at ``a``; off the origin, to an essential singularity at 0.  A
    few curves leave the z-range of the ring."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.uniform(0.1, 0.45) * np.exp(2j * np.pi * rng.uniform())
    ring = RingFunction(lambda lam, z: np.exp(z * z / lam) + z / (lam - a),
                        0.3)
    kinds = draw(st.lists(st.sampled_from(
        3 * ["holomorphic", "meromorphic", "not-extendable"] + ["leaves"]),
        min_size=1, max_size=12))
    curves = []
    for kind in kinds:
        c = rng.uniform(0.05, 0.5) * np.exp(2j * np.pi * rng.uniform())
        coeffs = {"holomorphic": [0, -a * c, c],
                  "meromorphic": [0, c, c * rng.uniform(-0.5, 0.5)],
                  "not-extendable": [c, c * rng.uniform(-0.5, 0.5)],
                  "leaves": [0, 1.2 * c / abs(c)]}[kind]
        curves.append(DiscFunction(coeffs, require_into_disc=False))
    # most grids resolve the pole at a; 16..64 points mostly raise
    m = draw(st.sampled_from([16, 32, 64] + 2 * [128, 256, 512, 1024]))
    return ring, curves, m, draw(st.integers(1, 10))


def reference_extension_test(f, phi, n_max, m, holo_tolerance=1e-8):
    """``extension_test`` as written before the ladder stacked its tests:
    one restriction, circle function and Hardy projection per curve."""
    grid = unit_circle_grid(m)
    z = phi(grid)
    zmax = float(np.abs(z).max())
    if zmax >= 1.0 + 1e-9:
        raise DomainError(
            f"curve leaves the z-range of the ring (sup {zmax:.6f} on |lam|=1)")
    g = CircleFunction(f.eval_many(grid, z), 1.0)
    require_resolved(g)
    psi = reference_project(g, keep_negative=True)
    residual = psi.sup_norm
    if residual < holo_tolerance:
        return ExtensionVerdict(kind="holomorphic", residual=residual,
                                n_max=n_max)
    verdict = detect_rational(psi, n_max, delta_pole=f.epsilon / 2.0)
    if verdict.is_rational:
        return ExtensionVerdict(kind="meromorphic", residual=residual,
                                n_max=n_max, rational=verdict.rational,
                                rank=verdict.rank, gap=verdict.gap)
    return ExtensionVerdict(kind="not-extendable", residual=residual,
                            n_max=n_max, rank=verdict.rank, gap=verdict.gap)


def complex_bits(c):
    return c.real.hex(), c.imag.hex()


def rational_bits(rp):
    return None if rp is None else [
        (complex_bits(a), [complex_bits(c) for c in coeffs])
        for a, coeffs in rp.poles]


def verdict_bits(v):
    return (v.kind, v.residual.hex(), v.n_max, v.rank, float(v.gap).hex(),
            rational_bits(v.rational))


@settings(derandomize=True, deadline=None, database=None)
@given(curve_stacks())
def test_stacked_extension_tests_match_per_curve(stack):
    # the ladder samples its curves once and tests them as one stack; the
    # verdicts, and the first error, must be those of one curve at a time
    ring, curves, m, n_max = stack
    expected = []
    for phi in curves:
        try:
            expected.append(verdict_bits(
                reference_extension_test(ring, phi, n_max, m)))
        except (PinchextError, ValueError) as exc:
            expected.append((type(exc), str(exc)))
            break
    nodes, values, leaves = _sample_curves(ring, curves, m)
    grid = unit_circle_grid(m)
    for phi, row_nodes, row_values in zip(curves, nodes, values):
        assert same_bytes(row_nodes, phi(grid))
        assert same_bytes(row_values, ring.eval_many(grid, phi(grid)))
    got = []
    try:
        for verdict in _test_rows(values, n_max, 1e-8, ring.epsilon):
            got.append(verdict_bits(verdict))
        if leaves is not None:
            raise leaves
    except (PinchextError, ValueError) as exc:
        got.append((type(exc), str(exc)))
    assert got == expected


finite_complex = st.builds(complex, st.floats(allow_nan=False, allow_infinity=False),
                           st.floats(allow_nan=False, allow_infinity=False))


@settings(derandomize=True, deadline=None, database=None)
@given(st.one_of(
    st.lists(st.tuples(finite_complex,
                       st.lists(finite_complex, min_size=1, max_size=4)
                       .map(tuple)), max_size=5)
    .map(lambda poles: RationalPart(poles=tuple(poles))),
    st.integers(0, 2 ** 32 - 1)
    .map(lambda seed: random_rational_part(np.random.default_rng(seed)))))
def test_rational_part_json_round_trip_keeps_bits(rp):
    # signed zeros, subnormals and the largest floats included
    back = RationalPart.from_json(rp.to_json())
    assert rational_bits(back) == rational_bits(rp)


@st.composite
def near_unit_curves(draw):
    """Curves of degree 1..200 scaled to a 4096-point sup in 0.97..1.03:
    random coefficients, or the extremal form 1 + e^{i alpha} lam^d, whose
    peaks fall between the into-disc check's sample points."""
    degree = draw(st.integers(1, 200))
    if draw(st.booleans()):
        coeffs = np.zeros(degree + 1, dtype=complex)
        coeffs[0] = 1.0
        coeffs[-1] = np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        coeffs = (rng.standard_normal(degree + 1)
                  + 1j * rng.standard_normal(degree + 1))
    sup = np.abs(np.polynomial.polynomial.polyval(unit_circle_grid(4096),
                                                  coeffs)).max()
    return coeffs * (draw(st.floats(0.97, 1.03)) / sup)


@settings(derandomize=True, deadline=None, database=None)
@given(near_unit_curves())
def test_accepted_curves_map_into_the_disc(coeffs):
    # the into-disc check may refuse a curve of sup just below 1, but every
    # curve it accepts stays in the closed disc on a dense circle grid
    try:
        DiscFunction(coeffs)
    except ValueError:
        return
    dense = np.abs(np.polynomial.polynomial.polyval(unit_circle_grid(2 ** 15),
                                                    coeffs)).max()
    assert dense < 1.0 + 1e-9
