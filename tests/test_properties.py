"""Property tests (hypothesis): identities checked on generated inputs.

Runs are derandomized, so every run draws the same examples.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import random_rational_part
from pinchext import (CircleFunction, ConvergenceError, DiscFunction,
                      ExtensionVerdict, PinchextError,
                      PoleLocationError, RationalPart, RingFunction,
                      coefficient_ladder, detect_rational,
                      hardy_project_minus, hardy_split, hilbert_transform,
                      rational_to_circle, unit_circle_grid,
                      validate_test_sequence, winding_number)
from pinchext.boundary import require_resolved
from pinchext.extension import (_clean_and_project, _roots_of_rows,
                                _sample_curves, _test_rows)
from pinchext.families import (_radius_scan, _winding, _zero_free_radius,
                               _zeros_against)
from pinchext.rational import _CLUSTER_RADIUS, _NOISE_REL


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
    return CircleFunction.from_coefficients(coeffs)


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
    """Winding of the polynomial ``p`` along ``|lambda| = radius``, from
    samples of ``p(radius * lambda)`` (coefficients ``c_k radius**k``) on
    the unit circle."""
    centered = np.zeros(m, dtype=complex)
    centered[m // 2:m // 2 + len(coeffs)] = (
        coeffs * radius ** np.arange(len(coeffs)))
    return winding_number(CircleFunction.from_coefficients(centered))


@settings(derandomize=True, deadline=None, database=None)
@given(polynomial_differences())
def test_root_count_winding_matches_sampled_winding(coeffs):
    # argument principle: the zeros inside the circle give the winding
    # that the sampled argument variation measures; a power-of-two scale
    # maps the difference into the disc and leaves its zeros as they are
    scale = 2.0 ** -math.ceil(math.log2(max(1.0, np.abs(coeffs).sum())))
    diff = DiscFunction(coeffs * scale)
    zero = DiscFunction([0j])
    moduli = np.abs(_roots_of_rows(coeffs[None])[0])
    assume(np.abs(moduli - 1.0).min() >= 1e-3)
    seq = validate_test_sequence([diff] * 3, zero, 10)
    assert seq.windings[0] == sampled_winding(coeffs, 1.0)
    # and at the first zero-free radius scanned in (0.85, 1.15)
    (zeros,) = _zeros_against([diff], zero)
    radius = _zero_free_radius([zeros], _radius_scan(0.85, 1.15))
    if np.abs(moduli - radius).min() >= 1e-3:
        assert _winding(zeros, radius) == sampled_winding(coeffs, radius)


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


def reference_circle(samples):
    """``(samples, coeffs)`` of ``CircleFunction(samples)`` by the plain
    ``fft`` and ``fftshift`` formulas."""
    return samples, np.fft.fftshift(np.fft.fft(samples) / samples.size)


def reference_from_coefficients(full):
    """``(samples, coeffs)`` of ``from_coefficients`` for a full-grid
    coefficient array, by the plain ``ifftshift`` and ``ifft`` formulas."""
    return np.fft.ifft(np.fft.ifftshift(full)) * full.size, full


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
@given(signed_zero_samples([2 ** k for k in range(4, 13)]))
def test_circle_function_bits_match_reference(samples):
    # the cached tables and half swaps change no bit of either constructor,
    # of the Hardy split or of the sample grid
    m = samples.size
    assert same_bytes(unit_circle_grid(m),
                      np.exp(2j * np.pi * np.arange(m) / m))
    g = CircleFunction(samples)
    for got, expected in zip((g.samples, g.coeffs), reference_circle(samples)):
        assert same_bytes(got, expected)
    padded = np.zeros(m, dtype=complex)
    padded[m // 4:3 * m // 4] = samples[:m // 2]
    for coeffs, size, full in ((samples, None, samples),
                               (samples[:m // 2], m, padded)):
        h = CircleFunction.from_coefficients(coeffs, m=size)
        for got, expected in zip((h.samples, h.coeffs),
                                 reference_from_coefficients(full)):
            assert same_bytes(got, expected)
    split = hardy_split(g)
    for part, keep in ((split.plus, slice(m // 2, None)),
                       (split.minus, slice(None, m // 2))):
        full = np.zeros(m, dtype=complex)
        full[keep] = g.coeffs[keep]
        for got, expected in zip((part.samples, part.coeffs),
                                 reference_from_coefficients(full)):
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
    return CircleFunction.from_coefficients(coeffs)


@settings(derandomize=True, deadline=None, database=None)
@given(band_limited())
def test_hardy_projection_bits_match_reference(g):
    # the one-row case of the stacked projection changes no bit of either
    # Hardy part
    split = hardy_split(g)
    for got, keep_negative in ((hardy_project_minus(g), True),
                               (split.minus, True), (split.plus, False)):
        expected = reference_project(g, keep_negative)
        for part, ref in ((got.samples, expected.samples),
                          (got.coeffs, expected.coeffs)):
            assert ([x.hex() for x in part.view(float)]
                    == [x.hex() for x in ref.view(float)])


def reference_clean_and_project(row, abs_floor):
    """Cleaned coefficients and Hardy-minus part of one row, one circle
    function at a time as the ladder built them before stacking."""
    coeffs = CircleFunction(row).coeffs.copy()
    mags = np.abs(coeffs)
    coeffs[mags < max(1e-7 * mags.max(), abs_floor)] = 0.0
    cleaned = CircleFunction.from_coefficients(coeffs)
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


@st.composite
def curve_stacks(draw):
    """A ring ``exp(z^2/lam) + z/(lam - a)`` and 1..12 curves on m = 16..1024
    points.  A curve through the origin that vanishes at ``a`` restricts
    to a holomorphic function; through the origin only, to one with a
    pole at ``a``; off the origin, to an essential singularity at 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.uniform(0.1, 0.45) * np.exp(2j * np.pi * rng.uniform())
    ring = RingFunction(lambda lam, z: np.exp(z * z / lam) + z / (lam - a),
                        0.3)
    kinds = draw(st.lists(st.sampled_from(
        ["holomorphic", "meromorphic", "not-extendable"]),
        min_size=1, max_size=12))
    curves = []
    for kind in kinds:
        c = rng.uniform(0.05, 0.5) * np.exp(2j * np.pi * rng.uniform())
        coeffs = {"holomorphic": [0, -a * c, c],
                  "meromorphic": [0, c, c * rng.uniform(-0.5, 0.5)],
                  "not-extendable": [c, c * rng.uniform(-0.5, 0.5)]}[kind]
        curves.append(DiscFunction(coeffs))
    # most grids resolve the pole at a; 16..64 points mostly raise
    m = draw(st.sampled_from([16, 32, 64] + 2 * [128, 256, 512, 1024]))
    return ring, curves, m, draw(st.integers(1, 10))


def reference_extension_test(f, phi, n_max, m, holo_tolerance=1e-8):
    """``extension_test`` as written before the ladder stacked its tests:
    one restriction, circle function and Hardy projection per curve."""
    grid = unit_circle_grid(m)
    g = CircleFunction(f.evaluator(grid, phi(grid)))
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
    nodes, values = _sample_curves(ring, curves, m)
    grid = unit_circle_grid(m)
    for phi, row_nodes, row_values in zip(curves, nodes, values):
        assert same_bytes(row_nodes, phi(grid))
        assert same_bytes(row_values, ring.evaluator(grid, phi(grid)))
    got = []
    try:
        for verdict in _test_rows(values, n_max, ring.epsilon):
            got.append(verdict_bits(verdict))
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
    back = RationalPart.from_dict(rp.as_dict())
    assert rational_bits(back) == rational_bits(rp)


_N_MAX = 8
_S_DIM = _N_MAX + 4  # detect_rational's Hankel size for this pole budget


@st.composite
def near_threshold_rational_parts(draw):
    """A drawn ``random_rational_part``, its boundary function (with optional
    noise on the Hardy-minus modes) and a guard width.

    Pole moduli reach past the guard ``1 - delta_pole`` of the ladder's
    ``delta_pole = 0.15``, and the first pole may be moved onto either side
    of that circle; a partner simple pole sits at a separation from
    1.1 to 1000 times ``_CLUSTER_RADIUS`` of the first pole; relative noise
    from 0 to 1e-12 straddles the noise threshold ``_NOISE_REL`` that, with
    ``_RANK_TOL``, sets the ``_GAP_MIN`` test.  Returns ``(rp, psi,
    noise_norm, delta_pole)``, ``noise_norm`` bounding the noise's Hankel
    matrix in 2-norm.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sep = _CLUSTER_RADIUS * 10 ** draw(st.floats(0.05, 3.0))
    rp = random_rational_part(
        rng, max_degree=draw(st.integers(1, 7)),
        disc_radius=draw(st.sampled_from([0.5, 0.84, 0.85, 0.86, 0.95])),
        max_mult=draw(st.integers(1, 3)), min_sep=sep)
    # the first pole moved radially onto either side of the guard circle
    (first, coeffs), *rest = rp.poles
    moved = first / abs(first) * draw(st.sampled_from(
        [abs(first), 0.849, 0.8499, 0.8501, 0.851, 0.9]))
    if all(abs(moved - a) >= sep for a, _ in rest):
        rp = RationalPart(poles=((complex(moved), coeffs), *rest))
    partner = rp.poles[0][0] + sep * np.exp(2j * np.pi * rng.uniform())
    if draw(st.booleans()) and abs(partner) < 0.95 and all(
            abs(partner - a) >= sep for a, _ in rp.poles[1:]):
        residue = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
        rp = RationalPart(poles=rp.poles + ((complex(partner), (residue,)),))
    psi = rational_to_circle(rp)
    noise = draw(st.sampled_from([0.0, 1e-15, 1e-14, 1e-13, 1e-12]))
    coeffs = psi.coeffs.copy()
    m = coeffs.size
    kicks = noise * np.abs(coeffs).max() * np.exp(
        2j * np.pi * rng.uniform(size=m // 2))
    coeffs[:m // 2] += kicks
    # the detector's s x s Hankel matrix of the kicks: 2-norm <= s * max
    noise_norm = _S_DIM * np.abs(kicks).max()
    return (rp, CircleFunction.from_coefficients(coeffs), noise_norm,
            draw(st.sampled_from([0.0, 0.15])))


def check_round_trip(rp, psi, noise_norm, delta_pole):
    """Kronecker round trip oracle: the degree and poles of ``rp``, "not
    rational", or a loud refusal of a pole in the guard annulus; a lower
    degree ``r`` only where the data lies within noise of a degree-``r``
    rational (AAK: sigma_{r+1} of the Hankel matrix is that distance; Weyl:
    noise of Hankel norm ``d`` moves each sigma by at most ``d``)."""
    poles = [a for a, _ in rp.pole_list]
    gaps = [abs(a - b) for i, a in enumerate(poles) for b in poles[:i]]
    tol = min([1e-3] + [g / 3 for g in gaps])
    try:
        verdict = detect_rational(psi, _N_MAX, delta_pole=delta_pole)
    except PoleLocationError:
        assert max(abs(a) for a in poles) >= 1.0 - delta_pole - tol
        return
    if not verdict.is_rational:
        return
    got = verdict.rational
    if got.degree < rp.degree:
        h = rp.laurent_tail(2 * _S_DIM)
        sigma = np.linalg.svd(h[np.add.outer(np.arange(_S_DIM),
                                             np.arange(_S_DIM))],
                              compute_uv=False)
        assert sigma[got.degree] <= 10 * _NOISE_REL * sigma[0] + 2 * noise_norm
        return
    assert got.degree == rp.degree
    unmatched = list(got.pole_list)
    for a, mult in rp.pole_list:
        b = min(unmatched, key=lambda t: abs(t[0] - a))
        assert abs(b[0] - a) <= tol and b[1] == mult
        unmatched.remove(b)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(near_threshold_rational_parts())
def test_kronecker_round_trip_near_thresholds(case):
    # never a wrong degree or wrong poles without a sign of it
    check_round_trip(*case)


def test_kronecker_round_trip_close_simple_poles():
    # residues 1 and -1 at 8e-5 apart: sigma_2 / sigma_1 = 0.33, so the
    # Hankel rank resolves both poles, and the unclustered model (radius 0)
    # fits far better than the double pole that the 1e-4 rung gives
    a = 0.3 - 0.5j
    rp = RationalPart(poles=((a, (1.0 + 0j,)), (a + 8e-5, (-1.0 + 0j,))))
    check_round_trip(rp, rational_to_circle(rp), 0.0, 0.0)


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


_EXP_RING = RingFunction(lambda lam, z: np.exp(np.asarray(z, dtype=complex)
                                               / np.asarray(lam, dtype=complex)),
                         0.3)


def drifting_zero_curves(a, drift, c):
    """phi_k = lam (lam - a_k) / (k + c) for k = 1.., with a_k = a + drift(k)."""
    return [DiscFunction(np.polynomial.polynomial.polyfromroots([0, a + dk])
                         / (k + c)) for k, dk in enumerate(drift, 1)]


def drifting_zero_ladder(curves, depth):
    return coefficient_ladder(_EXP_RING, curves, depth, 10, ladder_tol=1e-5)


def check_limit_zero(ladder, a):
    """The ladder of exp(z/lam) reports a zero near the limit ``a`` of the
    curve zeros, and poles only near 0 or ``a``."""
    assert min(abs(z - a) for z, _ in ladder.zeros) <= 0.05
    for entry in ladder.entries:
        for pole, _ in entry.rational.pole_list:
            assert min(abs(pole), abs(pole - a)) <= 0.05


@st.composite
def converging_zero_sequences(draw):
    """Curves whose zero a_k tends to a geometrically (ratio 0.2..0.7) or
    like k^-2 or k^-3, from up to 0.25 away; 6..12 curves, depth 1..3."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.uniform(0.1, 0.6) * np.exp(2j * np.pi * rng.uniform())
    d = rng.uniform(0.02, 0.25) * np.exp(2j * np.pi * rng.uniform())
    ks = np.arange(1, draw(st.integers(6, 12)) + 1)
    rate = draw(st.sampled_from(["geometric", 2, 3]))
    drift = (d * draw(st.floats(0.2, 0.7)) ** ks if rate == "geometric"
             else d / ks ** rate)
    return (drifting_zero_curves(a, drift, draw(st.floats(1.5, 4.0))), a,
            draw(st.integers(1, 3)))


@settings(derandomize=True, deadline=None, database=None)
@given(converging_zero_sequences())
def test_stable_zero_sets_sit_near_the_limit(case):
    # "stable over the last three curves" stands in for the limit of the
    # curve zeros; where they converge this fast, the float ladder either
    # reports that limit or raises ConvergenceError
    curves, a, depth = case
    try:
        ladder = drifting_zero_ladder(curves, depth)
    except ConvergenceError:
        return
    check_limit_zero(ladder, a)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="zeros drifting like k^-1/2 pass the last-three "
                   "stability check far from their limit")
def test_slowly_drifting_zero_is_refused():
    # a_k = a + 0.5 k^-1/2: the last three zeros move by 0.014, below the
    # 0.1 the check allows, and the ladder returns with its zero 0.144
    # from a instead of raising ConvergenceError
    a = 0.4 + 0.2j
    curves = drifting_zero_curves(a, 0.5 / np.sqrt(np.arange(1, 13)), 2.0)
    check_limit_zero(drifting_zero_ladder(curves, 1), a)
