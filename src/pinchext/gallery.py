"""Exact evaluators for the example functions used as fixtures.

``example1``: a weighted series of products ``prod_j [z - ((2/3)lam)^j]``
with super-cubically small weights.  It is holomorphic off ``lambda = 0``,
restricts to a polynomial on each curve ``z = ((2/3)lam)^l`` (the series
truncates there), yet its tail component grows faster than any power of
``1/lambda`` along suitable approach curves.

``example2``: ``sum_l P_{l-1}(z) lam^{-l}`` with ``P_l`` vanishing at the
points ``z_0..z_l`` of a sequence converging to zero and normalized to
``sup_{|z|=1} |P_l| = 1/l!``.  The restriction to ``z = z_k`` is rational
with a pole of order exactly ``k`` at the origin, so the pole orders of
the one-variable extensions are unbounded along the sequence.

``remark1``: ``exp(z / lambda)`` - extendable along every curve through
the origin, not extendable along any curve missing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import mpmath as mp
import numpy as np

from .boundary import CircleFunction, unit_circle_grid
from .errors import ConvergenceError
from .extension import RingFunction

__all__ = [
    "Example1",
    "Example2",
    "GrowthSample",
    "example1_eval",
    "example1_term_bound",
    "example1_growth_probe",
    "example2_eval",
    "example2_restriction",
    "remark1_eval",
    "remark1_ring",
    "example1_ring",
    "example2_ring",
    "gallery_ring",
    "GALLERY_NAMES",
]

_LOG3 = math.log(3.0)


def example1_term_bound(n: int, eps_d: float) -> float:
    """Log10-free bound ``3^{-4n^3-n} (1/eps_d)^{1.5 (n^2+n)}`` on term ``n``."""
    log_bound = -(4 * n ** 3 + n) * _LOG3 + 1.5 * (n * n + n) * math.log(1.0 / eps_d)
    if log_bound > 700.0:
        return math.inf
    return math.exp(log_bound)


def _eps_for_point(lam: complex, z: complex) -> float:
    eps = min(abs(lam), 1.0 / abs(lam), 0.33)
    if z != 0:
        eps = min(eps, 1.0 / (3.0 * abs(z)))
    return eps


class Example1:
    """Series evaluator with adaptive truncation (default depth 40)."""

    def __init__(self, n_trunc: int = 40):
        self.n_trunc = int(n_trunc)

    def __call__(self, lam: complex, z: complex,
                 n_trunc: Optional[int] = None) -> complex:
        """Partial sum to ``n_trunc`` (default: the configured depth).

        The series value at the configured depth must be certifiable at
        the point: the normal-convergence tail bound past ``self.n_trunc``
        has to fall below 1e-12, else :class:`ConvergenceError` is raised
        (this bites only for astronomically small ``|lambda|``).
        """
        lam = complex(lam)
        z = complex(z)
        if lam == 0:
            raise ValueError("example 1 is undefined at lambda = 0")
        depth = self.n_trunc if n_trunc is None else int(n_trunc)
        eps_d = _eps_for_point(lam, z)
        tail = 2.0 * example1_term_bound(self.n_trunc + 1, eps_d)
        total = 0j
        scale = 1.0
        for n in range(1, depth + 1):
            bound = example1_term_bound(n, eps_d)
            if bound < 1e-18 * scale:
                break
            prod = 1.0 + 0j
            w = 1.0 + 0j
            for j in range(1, n + 1):
                w *= (2.0 / 3.0) * lam
                prod *= (z - w)
            total += 3.0 ** (-4 * n ** 3) * prod * lam ** (-n * n) * z ** n
            scale = max(scale, abs(total))
        if not tail < 1e-12 * max(1.0, abs(total)):
            raise ConvergenceError(
                f"truncation error bound {tail:.3e} at series depth "
                f"{self.n_trunc} cannot certify the value at this point")
        return total

    def eval_mp(self, lam, z, n_trunc: Optional[int] = None):
        lam = mp.mpc(lam)
        z = mp.mpc(z)
        if lam == 0:
            raise ValueError("example 1 is undefined at lambda = 0")
        depth = self.n_trunc if n_trunc is None else int(n_trunc)
        total = mp.mpc(0)
        for n in range(1, depth + 1):
            prod = mp.mpc(1)
            w = mp.mpc(1)
            for j in range(1, n + 1):
                w *= mp.mpf(2) / 3 * lam
                prod *= (z - w)
            total += mp.mpf(3) ** (-4 * n ** 3) * prod * lam ** (-n * n) * z ** n
        return total


_EXAMPLE1 = Example1()


def example1_eval(lam: complex, z: complex, n_trunc: int = 40) -> complex:
    """Partial sum of the example-1 series at one point."""
    return _EXAMPLE1(lam, z, n_trunc=n_trunc)


@dataclass(frozen=True)
class GrowthSample:
    m: int
    lam: float
    value: object          # mpf; far below float range near lambda = 0
    ratios: Tuple[object, ...]  # value * lam^p for p = 1..6

    def as_dict(self) -> dict:
        return {"m": self.m, "lam": self.lam, "value": mp.nstr(self.value, 17),
                "ratios": [mp.nstr(r, 17) for r in self.ratios]}


def example1_growth_probe(n0: int, c: float,
                          m_range: Sequence[int]) -> Tuple[GrowthSample, ...]:
    """Growth of the example-1 tail along ``z = c * lam^{n0}``, ``lam = 2^-m``.

    The tail component past the cut ``n1`` (the part carrying the
    essential singularity) is summed in extended precision on the real
    positive approach; the full series differs from it by a fixed rational
    function, so super-polynomial growth of the tail is the witness.

    Requires ``n0 >= 1`` and ``0 < c < 1/2`` (the approach-curve family
    ``alpha * lam^{n0}`` with ``|alpha| < 1/2`` must reach ``c``).
    """
    if n0 < 1:
        raise ValueError("n0 must be at least 1")
    if not 0.0 < c < 0.5:
        raise ValueError(
            f"c = {c} is too large: the probe needs 0 < c < 1/2 so that "
            "(2/3)^n1 < c/2 is reachable with n1 > n0 on an admissible curve")
    n1 = n0 + 1
    while (2.0 / 3.0) ** n1 >= c / 2.0:
        n1 += 1

    samples: List[GrowthSample] = []
    with mp.workdps(40):
        for m in m_range:
            lam = mp.mpf(2) ** (-int(m))
            z = mp.mpf(c) * lam ** n0
            total = mp.mpc(0)
            for n in range(n1 + 1, n1 + 40):
                prod = mp.mpc(1)
                for j in range(n1 + 1, n + 1):
                    prod *= (z - (mp.mpf(2) / 3 * lam) ** j)
                total += mp.mpf(3) ** (-4 * n ** 3) * prod * lam ** (-n * n) * z ** n
            value = abs(total)
            ratios = tuple(value * lam ** p for p in range(1, 7))
            samples.append(GrowthSample(m=int(m), lam=float(lam), value=value,
                                        ratios=ratios))
    return tuple(samples)


class Example2:
    """Series ``sum_{l>=1} P_{l-1}(z) lam^{-l}`` with interpolated ``P_l``.

    ``P_l`` is the monic polynomial with zeros ``z_0 .. z_l`` rescaled so
    that its sampled supremum on ``|z| = 1`` equals ``1/l!``; the default
    zero sequence is ``z_k = 1/(k+2)``.  The pairing of ``P_{l-1}`` with
    ``lam^{-l}`` makes the restriction to ``z = z_k`` rational with a pole
    of order exactly ``k`` at the origin.
    """

    def __init__(self, z_values: Optional[Sequence[float]] = None,
                 sup_points: int = 256):
        self._z = None if z_values is None else [complex(v) for v in z_values]
        self._sup_grid = unit_circle_grid(sup_points)
        self._p_cache: Dict[int, np.ndarray] = {}

    def z(self, k: int) -> complex:
        if self._z is not None:
            return self._z[k]
        return complex(1.0 / (k + 2))

    def p_coeffs(self, l: int) -> np.ndarray:
        """Ascending coefficients of ``P_l`` (degree ``l + 1``)."""
        if l not in self._p_cache:
            coeffs = np.array([1.0 + 0j])
            for j in range(l + 1):
                coeffs = np.convolve(coeffs, np.array([-self.z(j), 1.0 + 0j]))
            sup = np.abs(np.polynomial.polynomial.polyval(
                self._sup_grid, coeffs)).max()
            coeffs = coeffs * ((1.0 / math.factorial(l)) / sup)
            coeffs.setflags(write=False)
            self._p_cache[l] = coeffs
        return self._p_cache[l]

    def p_eval(self, l: int, z: complex) -> complex:
        return complex(np.polynomial.polynomial.polyval(
            complex(z), self.p_coeffs(l)))

    def p_sup(self, l: int) -> float:
        return float(np.abs(np.polynomial.polynomial.polyval(
            self._sup_grid, self.p_coeffs(l))).max())

    def __call__(self, lam: complex, z: complex, l_trunc: int = 40) -> complex:
        lam = complex(lam)
        if lam == 0:
            raise ValueError("example 2 is undefined at lambda = 0")
        total = 0j
        for l in range(1, l_trunc + 1):
            total += self.p_eval(l - 1, z) * lam ** (-l)
        return total

    def eval_mp(self, lam, z, l_trunc: int = 40):
        lam = mp.mpc(lam)
        z = mp.mpc(z)
        if lam == 0:
            raise ValueError("example 2 is undefined at lambda = 0")
        total = mp.mpc(0)
        for l in range(1, l_trunc + 1):
            coeffs = self.p_coeffs(l - 1)
            p = mp.mpc(0)
            for ck in reversed(coeffs):
                p = p * z + mp.mpc(ck)
            total += p * lam ** (-l)
        return total

    def restriction(self, k: int, m: int = 256) -> CircleFunction:
        """Boundary values of ``f(., z_k)`` from the exact coefficients.

        The series truncates: only ``lam^{-1} .. lam^{-k}`` survive, so the
        restriction is exactly rational with a pole of order ``k`` at 0.
        The top coefficients are heavily graded (they collapse like the
        factorial-scaled spacing products), so rational detection on this
        data should run with a tightened tail floor (around 1e-15).
        """
        centered = np.zeros(m, dtype=complex)
        for l in range(1, k + 1):
            centered[m // 2 - l] = self.p_eval(l - 1, self.z(k))
        return CircleFunction.from_coefficients(centered, 1.0)


_EXAMPLE2 = Example2()


def example2_eval(lam: complex, z: complex, l_trunc: int = 40) -> complex:
    return _EXAMPLE2(lam, z, l_trunc=l_trunc)


def example2_restriction(k: int, m: int = 256) -> CircleFunction:
    return _EXAMPLE2.restriction(k, m)


def remark1_eval(lam: complex, z: complex) -> complex:
    """``exp(z / lambda)``."""
    lam = complex(lam)
    if lam == 0:
        raise ValueError("exp(z/lambda) is undefined at lambda = 0")
    return complex(np.exp(complex(z) / lam))


def remark1_ring(epsilon: float = 0.3) -> RingFunction:
    return RingFunction(
        evaluator=lambda lam, z: np.exp(np.asarray(z, dtype=complex) /
                                        np.asarray(lam, dtype=complex)),
        epsilon=epsilon,
        mp_evaluator=lambda lam, z: mp.exp(z / lam),
        name="remark1")


def _pointwise_evaluator(point_eval):
    """Array evaluator from a scalar one: one call per broadcast pair."""
    def evaluator(lam, z):
        lam = np.atleast_1d(np.asarray(lam, dtype=complex))
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        lam, z = np.broadcast_arrays(lam, z)
        return np.array([point_eval(l, w)
                         for l, w in zip(lam.ravel(), z.ravel())],
                        dtype=complex).reshape(lam.shape)
    return evaluator


def example1_ring(epsilon: float = 0.3, n_trunc: int = 40) -> RingFunction:
    ex = Example1(n_trunc)
    return RingFunction(evaluator=_pointwise_evaluator(ex), epsilon=epsilon,
                        mp_evaluator=ex.eval_mp, name="example1")


def example2_ring(epsilon: float = 0.3, l_trunc: int = 40) -> RingFunction:
    ex = _EXAMPLE2
    return RingFunction(
        evaluator=_pointwise_evaluator(lambda lam, z: ex(lam, z, l_trunc)),
        epsilon=epsilon,
        mp_evaluator=lambda lam, z: ex.eval_mp(lam, z, l_trunc),
        name="example2")


# CLI name -> (ring adapter, point evaluator taking a series depth third)
_GALLERY = {
    "remark1": (remark1_ring, lambda lam, z, trunc: remark1_eval(lam, z)),
    "example1": (example1_ring, example1_eval),
    "example2": (example2_ring, example2_eval),
}
GALLERY_NAMES = tuple(_GALLERY)


def _gallery_entry(name: str):
    if name not in _GALLERY:
        raise ValueError(f"unknown gallery function {name!r}; "
                         f"available: {', '.join(GALLERY_NAMES)}")
    return _GALLERY[name]


def gallery_ring(name: str, epsilon: float) -> RingFunction:
    """Ring-function adapter for a gallery function by CLI name."""
    return _gallery_entry(name)[0](epsilon)


def gallery_eval(name: str, lam: complex, z: complex,
                 trunc: int = 40) -> complex:
    """Point evaluation of a gallery function by CLI name."""
    return _gallery_entry(name)[1](lam, z, trunc)
