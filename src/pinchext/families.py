"""Validation of test sequences, test families and general position.

A sequence of curves ``phi_k -> phi_0`` qualifies as a test sequence when
the boundary differences ``phi_k - phi_0`` are zero-free on the unit
circle with uniformly bounded winding numbers.  Families are tested
pairwise on a scanned range of radii; general position asks that the
zeros of the differences avoid a probe point for a sub-collection of
curves (equivalently, that no three curves pass through one point).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .boundary import CircleFunction, winding_number
from .errors import BandwidthError, CircleVanishingError, ConvergenceError
from .extension import DiscFunction, curve_difference

__all__ = [
    "TestSequenceReport",
    "TestFamilyReport",
    "PairWitness",
    "GeneralPositionReport",
    "ProbeResult",
    "TripleIntersection",
    "WindingProfileReport",
    "validate_test_sequence",
    "validate_test_family",
    "general_position_check",
    "winding_profile",
    "probes_from_csv",
]


def probes_from_csv(path) -> Tuple[complex, ...]:
    """Read probe points from ``re,im`` rows (header and # lines skipped)."""
    probes: List[complex] = []
    with open(path, "r", encoding="ascii") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith("re"):
                continue
            re_s, _, im_s = line.partition(",")
            probes.append(complex(float(re_s), float(im_s or "0")))
    return tuple(probes)

_CIRCLE_DISTANCE_TOL = 1e-6


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
class PairWitness:
    s: int
    t: int
    radius: Optional[float]
    winding: Optional[int]
    ok: bool

    def as_dict(self) -> dict:
        return {"s": self.s, "t": self.t, "radius": self.radius,
                "winding": self.winding, "ok": self.ok}


@dataclass(frozen=True)
class TestFamilyReport:
    pairs: Tuple[PairWitness, ...]
    n_bound: int

    @property
    def all_ok(self) -> bool:
        return all(p.ok for p in self.pairs)

    def as_dict(self) -> dict:
        return {"pairs": [p.as_dict() for p in self.pairs],
                "n_bound": self.n_bound, "all_ok": self.all_ok}


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
    indices: Tuple[int, int, int]
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

    def as_dict(self) -> dict:
        return {"windings": [{"alpha": a, "winding": w} for a, w in self.windings],
                "radius": self.radius, "constant": self.constant}


def _difference_circle(diff: DiscFunction, radius: float,
                       m: int = 256) -> CircleFunction:
    # built from the exact Taylor coefficients: no sampling alias, but the
    # grid must still resolve the polynomial
    if 4 * diff.degree > m:
        raise BandwidthError(
            f"curve difference of degree {diff.degree} needs a grid of at "
            f"least {4 * diff.degree} points, got {m}")
    centered = np.zeros(m, dtype=complex)
    centered[m // 2:m // 2 + len(diff.coeffs)] = diff.coeffs
    return CircleFunction.from_coefficients(centered, radius)


def validate_test_sequence(curves: Sequence[DiscFunction], phi0: DiscFunction,
                           n_bound: int, m: int = 256) -> TestSequenceReport:
    """Winding numbers of ``phi_k - phi_0`` on the unit circle, per curve.

    Vanishing on the circle is reported as a per-curve failure rather
    than aborting the whole run; the sequence is a test sequence when all
    windings are defined and the maximum does not exceed ``n_bound``.
    """
    if len(curves) < 3:
        raise ValueError("need at least 3 curves for a sequence check")
    windings: List[Optional[int]] = []
    failures: List[Tuple[int, str]] = []
    for idx, phi in enumerate(curves):
        diff = curve_difference(phi, phi0)
        try:
            w = winding_number(_difference_circle(diff, 1.0, m))
            windings.append(w)
        except (CircleVanishingError, ConvergenceError) as exc:
            windings.append(None)
            failures.append((idx, str(exc)))
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


def _zero_free_radius(diffs: Sequence[DiscFunction], radii: np.ndarray
                      ) -> Optional[float]:
    """First scanned radius at which every difference is zero-free.

    A difference counts as vanishing at radius ``r`` when any of its roots
    lies within 1e-6 of the circle ``|lambda| = r`` (conservative).
    """
    root_moduli = []
    for diff in diffs:
        arr = np.asarray(diff.coeffs)
        if np.abs(arr).max() == 0.0:
            return None  # identically zero difference never witnesses
        roots = np.roots(arr[::-1]) if arr.size > 1 else np.array([])
        root_moduli.append(np.abs(roots))
    for r in radii:
        ok = True
        for moduli in root_moduli:
            if moduli.size and np.min(np.abs(moduli - r)) <= _CIRCLE_DISTANCE_TOL:
                ok = False
                break
        if ok:
            return float(r)
    return None


def validate_test_family(curves: Sequence[DiscFunction], n_bound: int,
                         epsilon: float, m: int = 256,
                         n_radii: int = 32) -> TestFamilyReport:
    """Pairwise test-family check on radii scanned in ``(1-eps/2, 1+eps/2)``.

    For each pair a radius is sought at which the difference is zero-free
    with winding number at most ``n_bound``; the scan refines once (to
    twice the resolution) before reporting a pair as failed.
    """
    if len(curves) < 2:
        raise ValueError("need at least 2 curves for a family check")
    lo, hi = 1.0 - epsilon / 2.0, 1.0 + epsilon / 2.0
    pairs: List[PairWitness] = []
    for s in range(len(curves)):
        for t in range(s + 1, len(curves)):
            diff = curve_difference(curves[s], curves[t])
            witness = None
            for steps in (n_radii, 2 * n_radii):
                radii = np.linspace(lo, hi, steps + 2)[1:-1]
                r = _zero_free_radius([diff], radii)
                if r is not None:
                    w = winding_number(_difference_circle(diff, r, m))
                    if w <= n_bound:
                        witness = (r, w)
                        break
            if witness is None:
                pairs.append(PairWitness(s=s, t=t, radius=None, winding=None,
                                         ok=False))
            else:
                pairs.append(PairWitness(s=s, t=t, radius=witness[0],
                                         winding=witness[1], ok=True))
    return TestFamilyReport(pairs=tuple(pairs), n_bound=n_bound)


def _difference_roots(a: DiscFunction, b: DiscFunction) -> np.ndarray:
    """Roots of ``a - b`` in the closed unit disc; none if it is constant."""
    arr = np.asarray(curve_difference(a, b).coeffs)
    if np.abs(arr).max() == 0.0 or arr.size == 1:
        return np.array([], dtype=complex)
    roots = np.roots(arr[::-1])
    return roots[np.abs(roots) <= 1.0 + 1e-9]


def general_position_check(curves: Sequence[DiscFunction], phi0: DiscFunction,
                           probes: Sequence[complex],
                           avoid_radius: float = 0.05) -> GeneralPositionReport:
    """Check the two general-position conditions for a curve collection.

    Per probe point: list the curves whose zero sets (of ``phi_k - phi_0``
    in the closed unit disc) stay ``avoid_radius`` away from the probe; at
    least three such curves are required.  Independently, all curve
    triples are scanned for common intersection points (three graphs
    agreeing at one ``lambda``).  The two notions are reported separately
    and are not claimed equivalent.
    """
    if len(curves) < 3:
        raise ValueError("need at least 3 curves for a general-position check")
    zero_sets = [_difference_roots(phi, phi0) for phi in curves]

    probe_results: List[ProbeResult] = []
    for probe in probes:
        probe = complex(probe)
        indices = tuple(
            idx for idx, zs in enumerate(zero_sets)
            if zs.size == 0 or np.min(np.abs(zs - probe)) > avoid_radius)
        probe_results.append(ProbeResult(probe=probe, witness_indices=indices,
                                         ok=len(indices) >= 3))

    # Taylor coefficients of every curve, zero-padded to one length, as the
    # columns of ``table``: one polyval per pair evaluates every curve at
    # that pair's roots.
    k = len(curves)
    table = np.zeros((max(len(phi.coeffs) for phi in curves), k), dtype=complex)
    for idx, phi in enumerate(curves):
        table[:len(phi.coeffs), idx] = phi.coeffs
    violations: List[TripleIntersection] = []
    for i in range(k):
        for j in range(i + 1, k):
            roots = _difference_roots(curves[i], curves[j])
            values = np.polynomial.polynomial.polyval(roots, table)
            hits = np.abs(values[i] - values[j + 1:]) < 1e-9
            for t, r in zip(*np.nonzero(hits)):
                violations.append(TripleIntersection(
                    indices=(i, j, j + 1 + int(t)), lam=complex(roots[r]),
                    z=complex(values[i, r])))
    return GeneralPositionReport(probes=tuple(probe_results),
                                 triple_violations=tuple(violations))


def winding_profile(family: Callable[[float], DiscFunction],
                    alphas: Sequence[float], alpha0: float,
                    radius_range: Tuple[float, float] = (0.875, 1.125),
                    n_radii: int = 32, m: int = 256) -> WindingProfileReport:
    """Windings of ``phi_alpha - phi_{alpha0}`` at a common witnessed radius.

    The radius scan (32 steps, one refinement to 64) looks for one radius
    at which every difference on the grid is zero-free; for a genuine
    one-parameter analytic family the winding is then constant in alpha.
    """
    if any(a == alpha0 for a in alphas):
        raise ValueError("alpha grid must exclude alpha0 itself")
    base = family(alpha0)
    diffs = [curve_difference(family(a), base) for a in alphas]
    lo, hi = radius_range
    radius = None
    for steps in (n_radii, 2 * n_radii):
        radii = np.linspace(lo, hi, steps + 2)[1:-1]
        radius = _zero_free_radius(diffs, radii)
        if radius is not None:
            break
    if radius is None:
        raise ConvergenceError(
            "no common zero-free radius found for the family differences")
    windings = tuple(
        (float(a), winding_number(_difference_circle(d, radius, m)))
        for a, d in zip(alphas, diffs))
    values = {w for _, w in windings}
    return WindingProfileReport(windings=windings, radius=radius,
                                constant=len(values) == 1)
