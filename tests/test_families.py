import itertools
import math
from collections import Counter

import numpy as np
import pytest

from pinchext import (ConvergenceError, DiscFunction, cli, coefficient_ladder,
                      general_position_check, pinch_estimate,
                      validate_test_sequence, winding_profile)
from pinchext.families import (GeneralPositionReport, ProbeResult,
                               TripleIntersection)
from pinchext.gallery import remark1_ring


def scaled_line(k):
    return DiscFunction([0, 1.0 / k])


ZERO = DiscFunction([0j])
VANISHING = ("curve difference vanishes identically or has a zero within "
             "1e-06 of the unit circle; winding undefined")


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
              DiscFunction([0, -0.5, 0.5]),  # zero at 1
              scaled_line(3)]
    report = validate_test_sequence(curves, ZERO, 10)
    assert report.windings[1] is None
    assert not report.is_test
    assert report.failures == ((1, VANISHING),)
    assert report.first_failure == 1


def test_sequence_zero_free_difference_with_tiny_values():
    # 5e-10 has no zeros, so its winding is 0, although its samples fall
    # below the 1e-9 floor of a sampled winding
    curves = [scaled_line(2), DiscFunction([5e-10]), scaled_line(4)]
    report = validate_test_sequence(curves, ZERO, 10)
    assert report.windings == (1, 0, 1)
    assert report.failures == ()
    assert report.is_test


def test_sequence_identical_curve_is_per_curve_failure():
    report = validate_test_sequence([scaled_line(1), ZERO, scaled_line(3)],
                                    ZERO, 10)
    assert report.windings == (1, None, 1)
    assert report.failures == ((1, VANISHING),)


def test_sequence_translation_invariance():
    curves = [scaled_line(k) for k in range(2, 7)]
    shift = DiscFunction([0.1, 0, 0.05])
    shifted = [DiscFunction(np.pad(np.asarray(c.coeffs), (0, 3))[:3]
                            + np.asarray(shift.coeffs))
               for c in curves]
    r1 = validate_test_sequence(curves, ZERO, 10)
    r2 = validate_test_sequence(shifted, shift, 10)
    assert r1.windings == r2.windings
    assert r1.is_test == r2.is_test


def test_sequence_needs_three_curves():
    with pytest.raises(ValueError):
        validate_test_sequence([scaled_line(1)], ZERO, 10)


# --------------------------------------------------------- general position

def test_general_position_lines():
    curves = [scaled_line(k) for k in range(1, 6)]
    report = general_position_check(curves, ZERO, [0j, 0.5 + 0j])
    assert not report.probes[0].ok          # every zero sits at the probe 0
    assert report.probes[1].ok              # all zeros avoid 0.5
    assert len(report.probes[1].witness_indices) == 5


def test_general_position_curve_equal_to_phi0_is_no_witness():
    # curve 0 - phi0 vanishes everywhere, so it avoids no probe
    curves = [DiscFunction([0j]), DiscFunction([0, 0.5]), DiscFunction([0.3]),
              DiscFunction([0.2])]
    report = general_position_check(curves, ZERO, [0j])
    assert report.probes[0].witness_indices == (2, 3)
    assert not report.probes[0].ok
    assert not report.all_probes_ok


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


def test_general_position_one_record_per_point():
    # five lines through the origin meet at one point: one record with all
    # five curves, not C(5, 3) = 10 triples
    curves = [scaled_line(k) for k in range(1, 6)]
    report = general_position_check(curves, ZERO, [0.5 + 0j])
    (violation,) = report.triple_violations
    assert violation.indices == (0, 1, 2, 3, 4)
    assert abs(violation.lam) < 1e-9
    assert abs(violation.z) < 1e-9


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1)])
def test_general_position_rejects_coincident_curves(order):
    # identical curves meet everywhere, so no list of intersection points
    # describes them; the pair is named whatever the order of the input
    curves = [DiscFunction([0, 0.5]), DiscFunction([0, 0.5]),
              DiscFunction([-0.1, 0.7])]
    curves = [curves[i] for i in order]
    pair = sorted(order.index(i) for i in (0, 1))
    with pytest.raises(ValueError,
                       match=f"curves {pair[0]} and {pair[1]} coincide"):
        general_position_check(curves, ZERO, [0.5 + 0j])


def test_general_position_names_first_coinciding_pair():
    a, b = DiscFunction([0, 0.5]), DiscFunction([-0.1, 0.7])
    with pytest.raises(ValueError, match="curves 0 and 2 coincide"):
        general_position_check([a, b, a, b], ZERO, [0.5 + 0j])


def test_uncomputable_differences_name_their_curves():
    # every curve is valid, but some differences have a subnormal top
    # coefficient above a nonzero constant; the error names the curves
    tiny = [DiscFunction([1e-300, 3e-308]), DiscFunction([0, 2.9e-308]),
            DiscFunction([0, 0.5])]
    with pytest.raises(ValueError, match=r"^curves 0 and 1: highest kept"):
        general_position_check(tiny, ZERO, [0j])
    with pytest.raises(ValueError, match=r"^curve 1 and phi_0: highest kept"):
        validate_test_sequence([DiscFunction([0, 0.1])] + tiny[1:], tiny[0], 2)


def _difference(a, b):
    """Coefficients of ``a - b``, the shorter curve zero-padded."""
    arr = np.zeros(max(len(a.coeffs), len(b.coeffs)), dtype=complex)
    arr[:len(a.coeffs)] += a.coeffs
    arr[:len(b.coeffs)] -= b.coeffs
    return arr


def _records_by_pair_loop(curves, phi0, probes):
    """Reference general-position scan: one ``np.roots`` and one
    ``polyval`` per curve pair, on their coefficient difference."""
    def disc_zeros(a, b):
        arr = _difference(a, b)
        if not arr.any():
            return None
        roots = np.roots(arr[::-1])
        return roots[np.abs(roots) <= 1.0 + 1e-9]

    zero_sets = [disc_zeros(phi, phi0) for phi in curves]
    probe_results = []
    for probe in probes:
        indices = tuple(idx for idx, zs in enumerate(zero_sets)
                        if zs is not None and np.all(np.abs(zs - probe) > 0.05))
        probe_results.append(ProbeResult(probe=complex(probe),
                                         witness_indices=indices,
                                         ok=len(indices) >= 3))
    k = len(curves)
    table = np.zeros((max(len(phi.coeffs) for phi in curves), k), dtype=complex)
    for idx, phi in enumerate(curves):
        table[:len(phi.coeffs), idx] = phi.coeffs
    violations = []
    for i in range(k):
        for j in range(i + 1, k):
            roots = disc_zeros(curves[i], curves[j])
            if roots is None:
                raise ValueError(f"curves {i} and {j} coincide")
            values = np.polynomial.polynomial.polyval(roots, table)
            hits = np.abs(values[i] - values) < 1e-9
            hits[[i, j]] = True
            lowest = hits[:j].sum(axis=0) == 1
            for r in np.nonzero(lowest & (hits.sum(axis=0) >= 3))[0]:
                violations.append(TripleIntersection(
                    indices=tuple(int(t) for t in np.nonzero(hits[:, r])[0]),
                    lam=complex(roots[r]), z=complex(values[i, r])))
    return GeneralPositionReport(probes=tuple(probe_results),
                                 triple_violations=tuple(violations))


def _mixed_degree_curves():
    """Sixty curves of degrees 1..6 in turn, half through the origin, then
    the edge cases of the one-mask disc filter; with the point ``p`` that
    the last four lines pass through."""
    rng = np.random.default_rng(2718)
    curves = []
    for idx in range(60):
        deg = idx % 6 + 1
        c = (0.9 / (deg + 1)) * (rng.standard_normal(deg + 1)
                                 + 1j * rng.standard_normal(deg + 1))
        c /= max(1.0, np.abs(c).sum())
        if (idx // 6) % 2 == 0:
            c[0] = 0.0
        curves.append(DiscFunction(c))
    # Edge cases of the one-mask disc filter: constants and monomials c
    # lam^2, whose differences with each other have degree 0 or only the
    # float zeros of lam^m; a pair whose zeros all lie outside the disc;
    # three lines through one point at lambda = 1.5, outside the disc; and
    # four lines through one point (p, w) inside it.
    p, w = 0.25 - 0.15j, 0.2 + 0.1j
    curves += [DiscFunction([0.3]), DiscFunction([-0.2j]),
               DiscFunction([0, 0, 0.4]), DiscFunction([0, 0, -0.5j]),
               DiscFunction([0.1, 0.05]), DiscFunction([0.3, 0.01])]
    curves += [DiscFunction([0.1 - 1.5 * b, b]) for b in (0.3, -0.3, 0.3j)]
    curves += [DiscFunction([w - b * p, b]) for b in (0.3, -0.4j, 0.5 + 0.2j, -0.6)]
    return curves, p


MIXED_PROBES = [0j, 0.4 - 0.3j, -0.6 + 0.1j]


def test_general_position_matches_pair_loop_on_mixed_degrees():
    # the batched scan reports exactly what the per-pair loop reports
    curves, p = _mixed_degree_curves()
    report = general_position_check(curves, ZERO, MIXED_PROBES)
    assert report.triple_violations
    assert report.as_dict() == _records_by_pair_loop(curves, ZERO,
                                                     MIXED_PROBES).as_dict()
    k = len(curves)
    assert any(v.indices[-4:] == tuple(range(k - 4, k)) and abs(v.lam - p) < 1e-12
               for v in report.triple_violations)
    assert all(abs(v.lam) <= 1.0 + 1e-9 for v in report.triple_violations)


def test_validate_command_reports_the_library_checks(tmp_path, capsys):
    # pinchext validate finds the zeros of phi_k - phi_0 once for both
    # checks; its report is byte for byte the two public checks' as_dict()
    curves, _ = _mixed_degree_curves()

    def pair(c):
        return f"{c.real!r},{c.imag!r}"

    rows = "\n".join(f"curve_{k} = " + " ".join(map(pair, phi.coeffs))
                     for k, phi in enumerate(curves, 1))
    config = tmp_path / "validate.ini"
    config.write_text(f"[function]\nname = example1\n\n[curves]\n{rows}\n\n"
                      f"[analysis]\nprobes = {' '.join(map(pair, MIXED_PROBES))}\n")
    sequence = validate_test_sequence(curves, ZERO, 10)
    position = general_position_check(curves, ZERO, MIXED_PROBES)
    code = cli.main(["validate", "--config", str(config)])
    out = capsys.readouterr()
    assert out.out == cli.dump_json({"command": "validate",
                                     "test_sequence": sequence.as_dict(),
                                     "general_position": position.as_dict()})
    assert out.err == ""
    assert code == (0 if sequence.is_test else 2)


def _triples_by_scalar_loop(curves):
    """Reference triple scan: one scalar curve evaluation per root."""
    out = []
    k = len(curves)
    for i in range(k):
        for j in range(i + 1, k):
            arr = _difference(curves[i], curves[j])
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
    # common point (p, w); degrees 1..4, a constant and a near miss 1e-7
    # above (p, w) that the 1e-9 test must reject
    rng = np.random.default_rng(3141)
    p, w = 0.3 + 0.2j, 0.1 - 0.05j
    curves = []
    for idx in range(16):
        deg = idx % 4 + 1
        c = 0.15 * (rng.standard_normal(deg + 1)
                    + 1j * rng.standard_normal(deg + 1))
        c /= max(1.0, np.abs(c).sum())
        if idx % 2 == 0:
            c[0] = 0.0
        elif idx % 4 == 1:
            c[0] += w - np.polynomial.polynomial.polyval(p, c)
        curves.append(DiscFunction(c))
    near = np.array([0.1, -0.2j, 0.05])
    near[0] += w + 1e-7 - np.polynomial.polynomial.polyval(p, near)
    curves += [DiscFunction([w]), DiscFunction(near)]
    expected = _triples_by_scalar_loop(curves)
    assert any(abs(v.lam) < 1e-12 for v in expected)
    assert any(abs(v.lam - p) < 1e-9 for v in expected)
    assert all(v.indices[2] != len(curves) - 1 or abs(v.lam - p) > 1e-6
               for v in expected)
    report = general_position_check(curves, ZERO, [0.5 + 0j])
    # each record names every curve through its point; its triples are
    # exactly the reference scan's
    groups = report.triple_violations
    assert all(len(g.indices) >= 3 and list(g.indices) == sorted(g.indices)
               for g in groups)
    expanded = Counter(t for g in groups
                       for t in itertools.combinations(g.indices, 3))
    assert expanded == Counter(v.indices for v in expected)
    assert report.as_dict() == _records_by_pair_loop(curves, ZERO,
                                                     [0.5 + 0j]).as_dict()


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


def test_profile_zero_free_differences_with_tiny_values():
    report = winding_profile(lambda a: DiscFunction([0.3 + a]),
                             [1e-10, 2e-10], 0.0)
    assert report.constant
    assert tuple(w for _, w in report.windings) == (0, 0)


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
