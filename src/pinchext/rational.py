"""Rational structure of Hardy-minus boundary functions.

A one-sided coefficient sequence comes from a rational function with ``r``
poles in the disc exactly when its Hankel matrix has rank ``r``
(Kronecker's criterion).  With sampled data the rank is replaced by a
singular-value surrogate with fixed thresholds: relative singular values
above 1e-8 count toward the rank, everything below 1e-13 counts as
noise, and a verdict of "rational" additionally requires a spectral gap
of at least 1e4 between the two groups.  Gradually decaying spectra -
the signature of an essential singularity - are rejected, and the
observed gap is reported so borderline verdicts can be audited.

Poles are recovered from the shifted Hankel pencil restricted to the
numeric-rank subspace.  Nearby candidates are merged into multiple poles,
because an ``m``-fold pole scatters into a cluster of ``m`` simple
candidates of radius roughly ``eps**(1/m)`` in floating point.  The
single-linkage radii are 0 (no merging: two simple poles closer than 1e-4
stay apart) and 1e-4 to 5e-2; the best principal-part fit decides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .boundary import CircleFunction, pointwise
from .errors import PoleLocationError

__all__ = [
    "RationalPart",
    "BlaschkeProduct",
    "RationalityVerdict",
    "detect_rational",
    "blaschke_from_zeros",
    "rational_to_circle",
]

MAX_POLE_BOUND = 16
_RANK_TOL = 1e-8
_NOISE_REL = 1e-13
_GAP_MIN = 1e4
_CLUSTER_RADIUS = 1e-4


@dataclass(frozen=True)
class RationalPart:
    """Finite sum of principal parts at poles inside the unit disc.

    ``poles`` is a tuple of ``(a, coeffs)``; the multiplicity of ``a`` is
    ``len(coeffs)`` and the value contributed is
    ``sum_k coeffs[k] * (lambda - a)**(k - m)``.
    """

    poles: Tuple[Tuple[complex, Tuple[complex, ...]], ...]

    @property
    def degree(self) -> int:
        return sum(len(c) for _, c in self.poles)

    @property
    def pole_list(self) -> Tuple[Tuple[complex, int], ...]:
        """Poles as ``(location, multiplicity)`` pairs."""
        return tuple((a, len(c)) for a, c in self.poles)

    @pointwise
    def __call__(self, lam) -> np.ndarray | complex:
        return self._principal_sum(np.zeros_like(lam),
                                   _pole_powers(lam, [self]))

    def _principal_sum(self, total, powers: dict):
        """``total`` plus each term ``c_k (lam - a)**(k - m)`` in pole and
        coefficient order, the powers read from ``powers`` as
        :func:`_pole_powers` gives them: on complex arrays or on a Python
        ``complex``."""
        for a, coeffs in self.poles:
            m = len(coeffs)
            for k, c in enumerate(coeffs):
                total = total + c * powers[a, k - m]
        return total

    def laurent_tail(self, length: int) -> np.ndarray:
        """Coefficients ``c_{-1} .. c_{-length}`` of the expansion at infinity."""
        if not self.poles:
            return np.zeros(length, dtype=complex)
        coeffs = np.array([c for _, cs in self.poles for c in cs], dtype=complex)
        return _principal_design(self.pole_list, length) @ coeffs

    # -- JSON interchange ------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "poles": [
                {
                    "a": [a.real, a.imag],
                    "m": len(coeffs),
                    "c": [[c.real, c.imag] for c in coeffs],
                }
                for a, coeffs in self.poles
            ]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RationalPart":
        poles = []
        for entry in data["poles"]:
            a = complex(entry["a"][0], entry["a"][1])
            coeffs = tuple(complex(re, im) for re, im in entry["c"])
            if entry.get("m", len(coeffs)) != len(coeffs):
                raise ValueError("multiplicity does not match coefficient count")
            poles.append((a, coeffs))
        return cls(poles=tuple(poles))


EMPTY_RATIONAL = RationalPart(poles=())


def _pole_powers(lam, parts: Sequence[RationalPart]) -> dict:
    """``(lam - a)**e`` keyed by ``(a, e)`` for every principal term of the
    rational ``parts``, each power built once and shared by every part
    with a pole at ``a``.  On a Python ``complex`` a power that is not
    computable (``lam`` at a pole, or an overflow next to one) raises
    ``ZeroDivisionError`` or ``OverflowError``."""
    powers: dict = {}
    for part in parts:
        for a, coeffs in part.poles:
            d = lam - a
            for e in range(-len(coeffs), 0):
                if (a, e) not in powers:
                    powers[a, e] = d ** e
    return powers


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product with prescribed zeros in the open disc."""

    zeros: Tuple[complex, ...]

    def __post_init__(self):
        for z in self.zeros:
            if abs(z) >= 1.0:
                raise ValueError(f"Blaschke zero {z} is not inside the unit disc")

    @pointwise
    def __call__(self, lam) -> np.ndarray | complex:
        out = np.ones_like(lam)
        for b in self.zeros:
            out *= (lam - b) / (1.0 - np.conj(b) * lam)
        return out


def blaschke_from_zeros(zeros: Sequence[complex]) -> BlaschkeProduct:
    """Blaschke product ``prod (lam - b)/(1 - conj(b) lam)``."""
    return BlaschkeProduct(zeros=tuple(complex(z) for z in zeros))


@dataclass(frozen=True)
class RationalityVerdict:
    """Outcome of :func:`detect_rational`.

    ``kind`` is ``"rational"`` (with the recovered :class:`RationalPart`)
    or ``"not-rational"`` meaning: not rational with at most ``n_max``
    poles as far as the numeric surrogate can tell.  ``rank`` and ``gap``
    expose the singular-value evidence.
    """

    kind: str
    n_max: int
    rank: int
    gap: float
    rational: Optional[RationalPart] = None
    fit_residual: float = 0.0

    @property
    def is_rational(self) -> bool:
        return self.kind == "rational"


def rational_to_circle(rp: RationalPart, m: int = 256) -> CircleFunction:
    """Boundary values of a rational part on the unit circle.

    Built from the exact Laurent tail, truncated at the grid bandwidth.
    """
    tail = rp.laurent_tail(m // 2)
    centered = np.zeros(m, dtype=complex)
    centered[:m // 2] = tail[::-1]
    return CircleFunction.from_coefficients(centered)


# -- detection ---------------------------------------------------------

def _single_linkage(points: np.ndarray, radius: float) -> List[np.ndarray]:
    """Cluster complex points by chaining pairs closer than ``radius``."""
    n = points.size
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(points[i] - points[j]) <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [points[idx] for idx in groups.values()]


def _principal_design(poles: Sequence[Tuple[complex, int]], rows: int) -> np.ndarray:
    """Matrix mapping principal coefficients to Laurent coefficients:
    column ``p`` of a pole ``a`` holds ``comb(n - 1, p - 1) * a ** (n - p)``
    in row ``n - 1`` (``n >= p``).  Per pole, the powers (numpy scalars: an
    array power of a real ``a`` can differ in the last bit) and a Pascal
    table of exact ints, rounded once to doubles, are made once."""
    cols = []
    for a, mult in poles:
        powers = np.array([a ** n for n in np.arange(rows)])
        # pascal[p - 1][t] = comb(p - 1 + t, p - 1) for t < rows - p + 1
        pascal = [np.ones(rows, dtype=object)]
        for p in range(2, mult + 1):
            pascal.append(np.cumsum(pascal[-1][:max(0, rows - p + 1)]))
        for p in range(mult, 0, -1):
            col = np.zeros(rows, dtype=complex)
            binoms = pascal[p - 1].astype(float)
            col[p - 1:] = binoms * powers[:binoms.size]
            cols.append(col)
    return np.column_stack(cols)


def _fit_principal(poles: Sequence[Tuple[complex, int]],
                   h: np.ndarray) -> Tuple[RationalPart, float]:
    design = _principal_design(poles, h.size)
    sol, *_ = np.linalg.lstsq(design, h, rcond=None)
    residual = np.linalg.norm(design @ sol - h) / max(np.linalg.norm(h), 1e-300)
    parts = []
    pos = 0
    for a, mult in poles:
        coeffs = tuple(complex(c) for c in sol[pos:pos + mult])
        pos += mult
        parts.append((complex(a), coeffs))
    return RationalPart(poles=tuple(parts)), float(residual)


def _trim_multiplicities(rp: RationalPart) -> RationalPart:
    """Drop negligible top-order principal coefficients (lower multiplicity)."""
    poles = []
    for a, coeffs in rp.poles:
        cs = list(coeffs)
        top = max((abs(c) for c in cs), default=0.0)
        while cs and abs(cs[0]) <= 1e-10 * top:
            cs.pop(0)
        if cs:
            poles.append((a, tuple(cs)))
    return RationalPart(poles=tuple(poles))


def _check_pole_locations(rp: RationalPart, delta_pole: float) -> None:
    for a, _ in rp.poles:
        if abs(a) >= 1.0:
            raise PoleLocationError(
                f"recovered pole {a} lies on or outside the unit circle; "
                "the coefficient data is inconsistent with poles inside the disc")
        if delta_pole > 0.0 and abs(a) >= 1.0 - delta_pole:
            raise PoleLocationError(
                f"recovered pole {a} lies in the guard annulus "
                f"|a| >= {1.0 - delta_pole:.4f}")


def detect_rational(psi: CircleFunction, n_max: int, *,
                    tail_rel: float = 1e-11,
                    delta_pole: float = 0.0) -> RationalityVerdict:
    """Decide whether ``psi`` (Hardy-minus) is rational with at most
    ``n_max`` poles in the disc, and recover the poles if so.  The rank,
    noise and gap thresholds are the fixed ones of the module docstring.

    Parameters
    ----------
    psi:
        Boundary function on the unit circle with negative modes only.
    n_max:
        Pole budget, at most 16 (Hankel conditioning degrades beyond).
    tail_rel:
        Relative floor for the terminating-sequence fast path (pole at
        the origin only).  Data synthesized from exact coefficients can
        lower this toward 1e-15 to resolve heavily graded multiplicities.
    delta_pole:
        Guard width: recovered poles with ``|a| >= 1 - delta_pole`` raise
        :class:`PoleLocationError`.

    Raises
    ------
    ValueError
        if ``psi`` has a coefficient that is not finite or nonnegative-mode
        mass, or ``n_max`` exceeds 16.
    PoleLocationError
        if a recovered pole violates the disc/guard constraints.
    """
    if not 1 <= n_max <= MAX_POLE_BOUND:
        raise ValueError(f"n_max must be in 1..{MAX_POLE_BOUND}, got {n_max}")
    if not np.isfinite(psi.coeffs).all():
        raise ValueError("input has a coefficient that is not finite")
    m = psi.size
    plus_mass = float(np.abs(psi.coeffs[m // 2:]).sum())
    if plus_mass >= 1e-10 * max(1.0, float(np.abs(psi.coeffs).max())):
        raise ValueError(
            f"input is not Hardy-minus: nonnegative-mode mass {plus_mass:.3e}")

    s_dim = n_max + 4
    length = min(m // 2 - 1, 4 * s_dim)
    if length < 2 * s_dim:
        raise ValueError(
            f"grid size {m} resolves only {length} coefficients; "
            f"need {2 * s_dim} for pole bound {n_max}")
    h = psi.coeffs[m // 2 - length:m // 2][::-1].copy()  # c_{-1}, c_{-2}, ...
    top = float(np.abs(h).max())
    if top == 0.0:
        return RationalityVerdict(kind="rational", n_max=n_max, rank=0,
                                  gap=math.inf, rational=EMPTY_RATIONAL)

    # A coefficient sequence terminating with a clean drop is a polynomial
    # in 1/lambda: one pole at the origin whose multiplicity and principal
    # coefficients are read off directly.  Heavily graded multiplicities at
    # the origin defeat the singular-value cut below, so this runs first;
    # geometric tails (poles elsewhere) and essential singularities decay
    # gradually across the floor and fail the gap condition here.
    floor = tail_rel * top
    significant = np.nonzero(np.abs(h) > floor)[0]
    m_star = int(significant[-1]) + 1
    tail_mag = float(np.abs(h[m_star:]).max()) if m_star < length else math.inf
    term_gap = math.inf if tail_mag == 0.0 else \
        float(np.abs(h[m_star - 1]) / tail_mag)
    if m_star <= length - 4 and term_gap >= _GAP_MIN:
        if m_star > n_max:
            return RationalityVerdict(kind="not-rational", n_max=n_max,
                                      rank=m_star, gap=term_gap)
        coeffs = tuple(complex(h[m_star - 1 - k]) for k in range(m_star))
        rp = RationalPart(poles=((0j, coeffs),))
        _check_pole_locations(rp, delta_pole)
        return RationalityVerdict(kind="rational", n_max=n_max,
                                  rank=m_star, gap=term_gap, rational=rp,
                                  fit_residual=tail_mag / top)

    idx = np.add.outer(np.arange(s_dim), np.arange(s_dim))
    hankel0, hankel1 = h[idx], h[idx + 1]
    u, sigma, vh = np.linalg.svd(hankel0)
    if sigma[0] == 0.0:
        # the mass lies past the leading block: no rank to read
        return RationalityVerdict(kind="not-rational", n_max=n_max, rank=0,
                                  gap=math.inf)
    rel = sigma / sigma[0]
    rank = int(np.sum(rel > _RANK_TOL))  # at least 1: rel[0] is 1
    if rank < s_dim:
        svd_gap = float(sigma[rank - 1] / sigma[rank]) \
            if sigma[rank] > 0.0 else math.inf
    else:
        svd_gap = 1.0
    svd_clean = (rank < s_dim and rel[rank] <= _NOISE_REL
                 and svd_gap >= _GAP_MIN)

    if not svd_clean or rank > n_max:
        return RationalityVerdict(kind="not-rational", n_max=n_max,
                                  rank=rank, gap=svd_gap)

    # Matrix pencil on the rank-truncated subspace.
    u1 = u[:, :rank]
    v1 = vh[:rank, :].conj().T
    pencil = u1.conj().T @ hankel1 @ v1 @ np.diag(1.0 / sigma[:rank])
    candidates = np.linalg.eigvals(pencil)

    # Try every clustering rung from none (radius 0) up and keep the best
    # fit: the correct model beats a split multiple pole, or two close simple
    # poles merged into one, by orders of magnitude in residual.
    best: Tuple[RationalPart, float] | None = None
    seen = set()
    for radius in (0.0, _CLUSTER_RADIUS, 10 * _CLUSTER_RADIUS,
                   100 * _CLUSTER_RADIUS, 500 * _CLUSTER_RADIUS):
        clusters = _single_linkage(candidates, radius)
        signature = tuple(sorted(c.size for c in clusters))
        if signature in seen:
            continue
        seen.add(signature)
        model = [(complex(np.mean(c)), c.size) for c in clusters]
        rp, residual = _fit_principal(model, h)
        if best is None or residual < best[1]:
            best = (rp, residual)
    rp, residual = best
    rp = _trim_multiplicities(rp)
    _check_pole_locations(rp, delta_pole)
    return RationalityVerdict(kind="rational", n_max=n_max, rank=rank,
                              gap=svd_gap, rational=rp, fit_residual=residual)
