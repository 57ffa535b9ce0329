"""Validation of test sequences, general position and winding profiles.

A sequence of curves ``phi_k -> phi_0`` qualifies as a test sequence when
the boundary differences ``phi_k - phi_0`` are zero-free on the unit
circle with uniformly bounded winding numbers.  General position asks
that the zeros of the differences avoid a probe point for a
sub-collection of curves (equivalently, that no three curves pass
through one point).  A winding profile counts the windings of a
one-parameter family's differences at one common zero-free radius,
found on a scanned range of radii.
Curves are polynomials: by the argument principle the winding of a
difference along ``|lambda| = r`` is the number of its ``roots()`` inside,
and it is zero-free there when no root lies within 1e-6 of the circle.
Each check stacks the coefficients of all its differences as rows and
finds every zero set with one ``_roots_of_rows`` call: one stacked
companion-matrix eigenvalue call per group of rows of equal lowest and
highest nonzero degree, with the zeros ``roots()`` gives row by row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

# unused here; bench/selftest.py checks that its tracer wraps this alias
from .boundary import winding_number  # noqa: F401
from .errors import ConvergenceError
from .extension import _DISC_SLACK, DiscFunction, _roots_of_rows

__all__ = [
    "TestSequenceReport",
    "GeneralPositionReport",
    "ProbeResult",
    "TripleIntersection",
    "WindingProfileReport",
    "validate_test_sequence",
    "general_position_check",
    "winding_profile",
    "probes_from_csv",
]


def _complex_pair(text: str) -> complex:
    """``re,im`` (``im`` optional) as a complex, or float()'s ValueError."""
    re_s, _, im_s = text.partition(",")
    return complex(float(re_s), float(im_s or "0"))


def probes_from_csv(path) -> Tuple[complex, ...]:
    """Read probe points from ``re,im`` rows (header and # lines skipped);
    a row that is not a number pair raises ``ValueError`` naming its line."""
    probes: List[complex] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith("re"):
                continue
            try:
                probes.append(_complex_pair(line))
            except ValueError as exc:
                raise ValueError(
                    f"line {lineno}: cannot parse probe row {line!r}") from exc
    return tuple(probes)

_CIRCLE_DISTANCE_TOL = 1e-6
_N_RADII = 32
_AVOID_RADIUS = 0.05
_VANISHING = ("curve difference vanishes identically or has a zero within "
              f"{_CIRCLE_DISTANCE_TOL:g} of the unit circle; winding undefined")


@dataclass(frozen=True)
class TestSequenceReport:
    windings: Tuple[Optional[int], ...]
    failures: Tuple[Tuple[int, str], ...]
    bound: Optional[int]
    is_test: bool
    first_failure: Optional[int]
    n_bound: int

    def as_dict(self) -> dict:
        return {
            "windings": list(self.windings),
            "failures": [{"index": i, "reason": r} for i, r in self.failures],
            "bound": self.bound,
            "is_test": self.is_test,
            "first_failure": self.first_failure,
            "n_bound": self.n_bound,
        }


@dataclass(frozen=True)
class ProbeResult:
    probe: complex
    witness_indices: Tuple[int, ...]
    ok: bool

    def as_dict(self) -> dict:
        return {"probe": [self.probe.real, self.probe.imag],
                "witness_indices": list(self.witness_indices), "ok": self.ok}


@dataclass(frozen=True)
class TripleIntersection:
    """A point ``(lam, z)`` that three or more curves pass through."""

    indices: Tuple[int, ...]
    lam: complex
    z: complex

    def as_dict(self) -> dict:
        return {"indices": list(self.indices),
                "lam": [self.lam.real, self.lam.imag],
                "z": [self.z.real, self.z.imag]}


@dataclass(frozen=True)
class GeneralPositionReport:
    probes: Tuple[ProbeResult, ...]
    triple_violations: Tuple[TripleIntersection, ...]

    @property
    def all_probes_ok(self) -> bool:
        return all(p.ok for p in self.probes)

    def as_dict(self) -> dict:
        return {"probes": [p.as_dict() for p in self.probes],
                "triple_violations": [t.as_dict() for t in self.triple_violations],
                "all_probes_ok": self.all_probes_ok}


@dataclass(frozen=True)
class WindingProfileReport:
    windings: Tuple[Tuple[float, int], ...]
    radius: float
    constant: bool


def _radius_scan(lo: float, hi: float) -> List[np.ndarray]:
    """The radii scanned in ``(lo, hi)``: 32 steps, then a refinement to 64."""
    return [np.linspace(lo, hi, n + 2)[1:-1] for n in (_N_RADII, 2 * _N_RADII)]


def _zero_free_radius(zero_sets: Sequence[Optional[np.ndarray]],
                      scan: Sequence[np.ndarray]) -> Optional[float]:
    """First radius of the ``scan`` at which every difference is zero-free.

    ``zero_sets`` holds each difference's ``roots()``; a root within 1e-6
    of ``|lambda| = r`` makes it vanish at ``r`` (conservative).  The grids
    are tried in order, and the first one with such a radius gives it.
    """
    if any(zs is None for zs in zero_sets):
        return None  # identically zero difference never witnesses
    moduli = np.abs(np.concatenate([*zero_sets, []]))
    for radii in scan:
        free = (np.abs(moduli[:, None] - radii) > _CIRCLE_DISTANCE_TOL).all(0)
        if free.any():
            return float(radii[np.argmax(free)])
    return None


def _coefficient_table(curves: Sequence[DiscFunction]) -> np.ndarray:
    """Taylor coefficients of the curves, zero-padded, one curve a column."""
    table = np.zeros((max(len(phi.coeffs) for phi in curves), len(curves)),
                     dtype=complex)
    for idx, phi in enumerate(curves):
        table[:len(phi.coeffs), idx] = phi.coeffs
    return table


def _difference_zeros(table: np.ndarray, first, second,
                      name: Optional[Callable[[int], str]] = None
                      ) -> List[Optional[np.ndarray]]:
    """``roots()`` of each difference of columns ``first - second``.

    ``(0 + a) - b`` on the zero-padded columns is the coefficient-wise
    difference of the two curves, signed zeros included, and one
    ``_roots_of_rows`` call finds the zeros of every difference.  A
    difference whose zeros are not computable raises ``ValueError`` named
    by ``name(i)``, by default ``curves first[i] and second[i]``.
    """
    if name is None:
        def name(i):
            return f"curves {first[i]} and {second[i]}"
    return _roots_of_rows(((0 + table[:, first]) - table[:, second]).T, name)


def _zeros_against(curves: Sequence[DiscFunction],
                   base: DiscFunction) -> List[Optional[np.ndarray]]:
    """``roots()`` of ``phi - base`` for each curve ``phi``."""
    k = len(curves)
    return _difference_zeros(_coefficient_table([*curves, base]),
                             np.arange(k), [k], "curve {} and phi_0".format)


def _in_disc(zeros: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """The zeros in the closed unit disc (to 1e-9); ``None`` stays ``None``."""
    return None if zeros is None else zeros[np.abs(zeros) <= 1.0 + _DISC_SLACK]


def _winding(zeros: np.ndarray, radius: float) -> int:
    """Winding of a difference along ``|lambda| = radius``: its zeros inside."""
    return int((np.abs(zeros) < radius).sum())


def validate_test_sequence(curves: Sequence[DiscFunction], phi0: DiscFunction,
                           n_bound: int) -> TestSequenceReport:
    """Winding numbers of ``phi_k - phi_0`` on the unit circle, per curve.

    Each winding is the number of zeros in the open disc.  A difference
    that is not zero-free on the circle is reported as a per-curve failure
    rather than aborting the whole run; the sequence is a test sequence
    when all windings are defined and the maximum does not exceed
    ``n_bound``.
    """
    return _sequence_report(_zeros_against(curves, phi0), n_bound)


def _sequence_report(zero_sets: Sequence[Optional[np.ndarray]],
                     n_bound: int) -> TestSequenceReport:
    """:func:`validate_test_sequence` from the ``roots()`` of each
    ``phi_k - phi_0``, as :func:`_zeros_against` gives them."""
    if len(zero_sets) < 3:
        raise ValueError("need at least 3 curves for a sequence check")
    windings: List[Optional[int]] = []
    failures: List[Tuple[int, str]] = []
    for idx, zeros in enumerate(zero_sets):
        if _zero_free_radius([zeros], [np.ones(1)]) is None:
            windings.append(None)
            failures.append((idx, _VANISHING))
        else:
            windings.append(_winding(zeros, 1.0))
    defined = [w for w in windings if w is not None]
    bound = max(defined) if defined else None
    is_test = not failures and bound is not None and bound <= n_bound
    first_failure = None
    if failures:
        first_failure = failures[0][0]
    elif bound is not None and bound > n_bound:
        first_failure = windings.index(bound)
    return TestSequenceReport(windings=tuple(windings), failures=tuple(failures),
                              bound=bound, is_test=is_test,
                              first_failure=first_failure, n_bound=n_bound)


def general_position_check(curves: Sequence[DiscFunction], phi0: DiscFunction,
                           probes: Sequence[complex]) -> GeneralPositionReport:
    """Check the two general-position conditions for a curve collection.

    Per probe point: list the curves whose zero sets (of ``phi_k - phi_0``
    in the closed unit disc) stay more than 0.05 from the probe; at least
    three such curves are required.  A curve equal to ``phi_0`` is never
    listed: its difference vanishes everywhere.  Independently, each pair's
    intersection points are scanned for further curves through them; each
    point that three or more curves pass through is reported once, with
    all of those curves.  The two notions are reported separately and are
    not claimed equivalent.

    The zeros of all pair differences come from one ``_roots_of_rows``
    call and are filtered to the closed disc by one mask; one polyval per
    curve ``i`` evaluates every curve at the disc zeros of all pairs
    ``(i, j > i)``, a contiguous slice of them.  The records are those of
    a per-pair scan.

    Raises ``ValueError`` when two curves coincide: they meet everywhere,
    so the scan has no intersection points to report for them.  The
    first such pair in ``(i, j)`` order is named.
    """
    return _general_position(curves, _zeros_against(curves, phi0), probes)


def _general_position(curves: Sequence[DiscFunction],
                      zero_sets: Sequence[Optional[np.ndarray]],
                      probes: Sequence[complex]) -> GeneralPositionReport:
    """:func:`general_position_check` from the ``roots()`` of each
    ``phi_k - phi_0``, as :func:`_zeros_against` gives them."""
    if len(curves) < 3:
        raise ValueError("need at least 3 curves for a general-position check")
    zero_sets = [_in_disc(zs) for zs in zero_sets]

    probe_results: List[ProbeResult] = []
    for probe in probes:
        probe = complex(probe)
        indices = tuple(
            idx for idx, zs in enumerate(zero_sets)
            if zs is not None and np.all(np.abs(zs - probe) > _AVOID_RADIUS))
        probe_results.append(ProbeResult(probe=probe, witness_indices=indices,
                                         ok=len(indices) >= 3))

    # The Taylor coefficients of every curve are the columns of ``table``:
    # one polyval per curve i evaluates every curve at the disc roots of
    # all its pairs (i, j > i).  Only the two lowest curves through a
    # point report it, so it gives one record per root of their difference.
    k = len(curves)
    table = _coefficient_table(curves)
    first, second = np.triu_indices(k, 1)
    pair_zeros = _difference_zeros(table, first, second)
    for i, j, zeros in zip(first.tolist(), second.tolist(), pair_zeros):
        if zeros is None:
            raise ValueError(f"curves {i} and {j} coincide")
    # One mask keeps the disc zeros of all pairs, in pair order.  The pairs
    # (i, j > i) are consecutive, so curve i's zeros are one slice.
    counts = [zs.size for zs in pair_zeros]
    zeros = np.concatenate(pair_zeros)
    inside = np.abs(zeros) <= 1.0 + _DISC_SLACK
    zeros, owners = zeros[inside], np.repeat(second, counts)[inside]
    cuts = np.searchsorted(np.repeat(first, counts)[inside], np.arange(k))
    below = np.arange(k)[:, None]
    violations: List[TripleIntersection] = []
    for i in range(k - 1):
        roots = zeros[cuts[i]:cuts[i + 1]]
        owner = owners[cuts[i]:cuts[i + 1]]
        values = np.polynomial.polynomial.polyval(roots, table)
        hits = np.abs(values[i] - values) < 1e-9
        hits[i] = True
        hits[owner, np.arange(roots.size)] = True
        lowest = (hits & (below < owner)).sum(axis=0) == 1
        for r in np.nonzero(lowest & (hits.sum(axis=0) >= 3))[0]:
            violations.append(TripleIntersection(
                indices=tuple(int(t) for t in np.nonzero(hits[:, r])[0]),
                lam=complex(roots[r]), z=complex(values[i, r])))
    return GeneralPositionReport(probes=tuple(probe_results),
                                 triple_violations=tuple(violations))


def winding_profile(family: Callable[[float], DiscFunction],
                    alphas: Sequence[float],
                    alpha0: float) -> WindingProfileReport:
    """Windings of ``phi_alpha - phi_{alpha0}`` at a common witnessed radius.

    The radius scan over ``(0.875, 1.125)`` (32 steps, one refinement to
    64) looks for one radius at which every difference on the grid is
    zero-free; each winding is then the number of zeros inside that
    circle, and for a genuine one-parameter analytic family it is constant
    in alpha.
    """
    if any(a == alpha0 for a in alphas):
        raise ValueError("alpha grid must exclude alpha0 itself")
    base = family(alpha0)
    zero_sets = _zeros_against([family(a) for a in alphas], base)
    radius = _zero_free_radius(zero_sets, _radius_scan(0.875, 1.125))
    if radius is None:
        raise ConvergenceError(
            "no common zero-free radius found for the family differences")
    windings = tuple((float(a), _winding(zs, radius))
                     for a, zs in zip(alphas, zero_sets))
    values = {w for _, w in windings}
    return WindingProfileReport(windings=windings, radius=radius,
                                constant=len(values) == 1)
