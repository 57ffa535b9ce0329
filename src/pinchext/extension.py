"""Meromorphic continuation along curve sequences.

The pipeline: restrict a function holomorphic on the ring domain
``{1 - eps < |lambda| < 1 + eps} x {|z| < 1}`` along graphs
``z = phi(lambda)``, test extendability through the Hardy projection of
the restriction, and rebuild the z-Taylor coefficients ``A_0, A_1, ...``
of the two-variable extension from a sequence of curves shrinking to the
zero section.  The reconstructed coefficients are meromorphic with poles
pinned to the accumulated curve zeros and to the limit poles of the
one-variable extensions; their growth determines a pinched domain
``|z| < c * prod |lambda - a_j|^{l_j}`` on which the Taylor series
converges geometrically.

Numerical notes
---------------
* The coefficient limits are computed by per-grid-point polynomial
  interpolation through the curve values, which is the finite-data
  version of iterating "subtract the known levels, divide by phi, take
  the limit".  One Newton divided-difference kernel serves every grid
  column at once and, from the same table, the interpolants through the
  first K-2 and K-1 curves used by the convergence check; only the
  ``depth + 1`` lowest monomial coefficients are formed.  The node
  systems are exponentially ill-conditioned, so for mp-capable ring
  functions (exact bivariate Laurent form or an mpmath evaluator) the
  ladder works at ``dps`` digits; otherwise everything runs in complex
  doubles, and deep levels lose accuracy.
* At ``dps`` digits, mpmath only evaluates the curve nodes and the
  function values.  Each part of each value is converted to the C
  ``decimal`` type by one correctly rounded division, and the
  divided-difference table, the monomial conversion, the convergence
  estimates and the level recursion below run on ``decimal`` at the
  smallest precision whose single rounding is at least as fine as
  mpmath's at ``dps`` (:func:`_decimal_digits`).  A complex product or
  quotient takes a few more such roundings than mpmath's ``mpc`` (which
  rounds each part once, with guard bits for division), so a part can
  lose a few ulps more under cancellation; normwise the error stays a
  few ulps.  Results return to complex doubles through
  ``float(Decimal)``, which rounds correctly.
* Each curve is sampled once.  The ladder's extension tests, its check
  that no curve vanishes on the circle and, for rings without extended
  precision, the interpolation read the same ``(K, m)`` nodes
  ``phi_k(lam)`` and float values ``f(lam, phi_k(lam))``.  The K tests run
  as one stack (one FFT of the values and one inverse FFT of the
  Hardy-minus parts, with row-by-row bits); their guards and verdicts are
  taken row by row in curve order.
* Extracted coefficient functions are cleaned with a relative floor of
  1e-7 (and an absolute floor tied to the data scale) before rational
  detection; this is the working-precision floor of the ladder.  The
  rows of the ``A_n`` and of each level are cleaned and projected as one
  stack: one FFT and one inverse FFT of the Hardy-minus parts, with
  row-by-row bits, and one budgeted rational split serves every ``A_n``
  and level function.  The ladder's stages are module-level functions
  (see :func:`coefficient_ladder`), and every Hardy-minus part is the one
  mode truncation in ``boundary``.
* The level functions behind the Blaschke diagnostics run that recursion
  literally on the last three curves: ``f_{0,k} = f(., phi_k)`` and
  ``f_{n,k} = (f_{n-1,k} - A_{n-1}) / phi_k``, one subtraction and one
  division per level in the kernel's number type.  The ladder keeps each
  cleaned level function and its poles; the Blaschke-corrected
  ``f_{n,k} * B`` behind :class:`LevelDiagnostic` is computed when it is
  read.
"""

from __future__ import annotations

import decimal
import functools
import math
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import mpmath as mp
import numpy as np

from .boundary import (CircleFunction, _check_sample_count,
                       _coeffs_from_samples, _minus_parts, distance_product,
                       hardy_project_minus, pointwise, require_resolved,
                       unit_circle_grid)
from .errors import (BandwidthError, CircleVanishingError,
                     ConvergenceError, DomainError)
from .rational import (_CLUSTER_RADIUS, RationalPart, _single_linkage,
                       blaschke_from_zeros, detect_rational)

__all__ = [
    "RingFunction",
    "DiscFunction",
    "curve_difference",
    "ExtensionVerdict",
    "LadderEntry",
    "CoefficientLadder",
    "PinchDescriptor",
    "ExtensionValue",
    "minus_part",
    "restrict_along_curve",
    "extension_test",
    "coefficient_ladder",
    "pinch_estimate",
    "evaluate_extension",
    "verify_coefficient_bounds",
]

_DISC_SLACK = 1e-9
_HOLO_TOLERANCE = 1e-8
_CLEAN_REL_FLOOR = 1e-7
_CLEAN_ABS_FLOOR = 1e-12
_MATCH_RADIUS = 0.05
_POLE_LINE_EXCLUSION = 1e-2
_PROBE_ANGLES = 64
_BOUND_SLACK = 1e-6
_TINY = float(np.finfo(float).tiny)


# ----------------------------------------------------------------------
# domain types
# ----------------------------------------------------------------------

def _laurent_sum(terms, lam, z, total=0):
    """``total + sum a * lam**l * z**n`` over the terms ``(n, l, a)``,
    added in order; on complex arrays or on mpmath numbers."""
    for n, l, c in terms:
        total = total + c * lam ** l * z ** n
    return total


class RingFunction:
    """Function holomorphic on the ring ``A_{1-eps,1+eps} x Delta``.

    Wraps a black-box evaluator ``(lambda, z) -> complex`` (vectorized
    over numpy arrays).  An exact bivariate Laurent-polynomial form may be
    attached as ``laurent`` terms ``(n, l, a_nl)`` meaning
    ``a_nl * lambda**l * z**n``; when present it is cross-checked against
    the evaluator at random ring points and, without an ``mp_evaluator``
    (over ``mpmath`` numbers, for transcendental functions), summed in
    ``mpmath`` as the default one for extended-precision evaluation.
    """

    __slots__ = ("evaluator", "epsilon", "laurent", "mp_evaluator")

    def __init__(self, evaluator: Callable, epsilon: float,
                 laurent: Optional[Sequence[Tuple[int, int, complex]]] = None,
                 mp_evaluator: Optional[Callable] = None):
        if not 0.0 < epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 0.5)")
        self.evaluator = evaluator
        self.epsilon = float(epsilon)
        self.laurent = None if laurent is None else tuple(
            (int(n), int(l), complex(c)) for n, l, c in laurent)
        self.mp_evaluator = mp_evaluator
        if self.laurent is not None:
            self._validate_laurent()
            if mp_evaluator is None:
                # doubles convert to mpc exactly, so once per ring suffices
                self.mp_evaluator = functools.partial(_laurent_sum, tuple(
                    (n, l, mp.mpc(c)) for n, l, c in self.laurent))

    @classmethod
    def from_laurent(cls, terms: Sequence[Tuple[int, int, complex]],
                     epsilon: float) -> "RingFunction":
        """Build from exact terms ``a_nl * lambda**l * z**n`` (``n >= 0``)."""
        terms = tuple((int(n), int(l), complex(c)) for n, l, c in terms)
        for n, _, _ in terms:
            if n < 0:
                raise ValueError("z-degrees must be nonnegative")

        def evaluator(lam, z):
            lam = np.asarray(lam, dtype=complex)
            z = np.asarray(z, dtype=complex)
            return _laurent_sum(terms, lam, z, np.zeros(
                np.broadcast(lam, z).shape, dtype=complex))

        return cls(evaluator, epsilon, laurent=terms)

    def _validate_laurent(self) -> None:
        rng = np.random.default_rng(20240201)
        r = 1.0 + self.epsilon * rng.uniform(-0.9, 0.9, 100)
        lam = r * np.exp(2j * np.pi * rng.uniform(0, 1, 100))
        z = 0.95 * np.sqrt(rng.uniform(0, 1, 100)) * np.exp(2j * np.pi * rng.uniform(0, 1, 100))
        direct = self.eval_many(lam, z)
        exact = _laurent_sum(self.laurent, lam, z, np.zeros_like(lam))
        scale = np.maximum(1.0, np.abs(exact))
        if np.max(np.abs(direct - exact) / scale) > 1e-12:
            raise ValueError("evaluator disagrees with the exact Laurent form")

    def eval_many(self, lam: np.ndarray, z: np.ndarray) -> np.ndarray:
        out = self.evaluator(lam, z)
        return np.asarray(out, dtype=complex)

    @property
    def mp_capable(self) -> bool:
        return self.mp_evaluator is not None

    def eval_mp(self, lam, z):
        """Evaluate at mpmath arguments (requires mp capability)."""
        if self.mp_evaluator is None:
            raise ValueError("no extended-precision evaluation available")
        return mp.mpc(self.mp_evaluator(lam, z))


class DiscFunction:
    """Holomorphic curve ``phi`` given by truncated Taylor coefficients.

    Coefficients are ascending; the trailing tail below ``1e-14`` of the
    leading magnitude is trimmed at construction.  ``sup_bound`` is the
    largest modulus on ``N = max(256, 2**ceil(log2(8 (d + 1))))`` points of
    the unit circle for degree ``d``; the sup on the closed disc (maximum
    principle) is at most ``sec(pi d / 2N) <= 1.02`` times it.  With
    ``require_into_disc`` a curve is refused (``ValueError``) unless that
    bound or ``sum |c_k|`` stays below ``1 + 1e-9``.  A coefficient that
    is not finite raises ``ValueError``, whatever ``require_into_disc``
    is; so does a highest kept coefficient below the smallest normal
    float, with a nonzero one below it: the zeros of such a curve are not
    computable in floating point.
    """

    __slots__ = ("coeffs", "sup_bound")

    def __init__(self, coeffs: Sequence[complex], require_into_disc: bool = True):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if arr.size == 0:
            arr = np.zeros(1, dtype=complex)
        bad = np.nonzero(~np.isfinite(arr))[0]
        if bad.size:
            raise ValueError(f"coefficient c_{bad[0]} = {complex(arr[bad[0]])!r} "
                             "is not finite")
        arr = arr[:_kept_lengths(arr[None])[0]]
        if 0 < abs(arr[-1]) < _TINY and arr[:-1].any():
            raise ValueError(_subnormal_top_message(arr.size - 1, arr[-1]))
        self.coeffs = tuple(complex(c) for c in arr)
        n = max(256, 1 << (8 * arr.size - 1).bit_length())
        self.sup_bound = float(np.abs(self(unit_circle_grid(n))).max())
        if require_into_disc and self.sup_bound >= 1.0 + _DISC_SLACK:
            raise ValueError(
                f"curve has sup {self.sup_bound:.6f} on the closed unit disc; "
                "it must map into the disc")
        # the samples may miss the sup; sum |c_k| may still bound it by 1
        bound = self.sup_bound / math.cos(math.pi * self.degree / (2 * n))
        if (require_into_disc
                and min(bound, np.abs(arr).sum()) >= 1.0 + _DISC_SLACK):
            raise ValueError(
                f"curve has sampled sup {self.sup_bound:.6f} on {n} circle "
                f"points, which bounds its sup on the closed unit disc only "
                f"by {bound:.6f}; it must map into the disc")

    @pointwise
    def __call__(self, lam) -> np.ndarray | complex:
        return np.polynomial.polynomial.polyval(lam, self.coeffs)

    def eval_mp(self, lam):
        """Horner at one ``mpc`` or at an ``object`` array of them."""
        total = 0
        for c in reversed([mp.mpc(c) for c in self.coeffs]):
            total = total * lam + c
        return total

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def roots(self) -> Optional[np.ndarray]:
        """All zeros, repeated by multiplicity; ``None`` for the zero curve.

        The one-row case of :func:`_roots_of_rows`, which gives what
        ``np.roots`` gives for the coefficients.
        """
        return _roots_of_rows(np.asarray(self.coeffs)[None])[0]

    def roots_in_disc(self, radius: float) -> Tuple[Tuple[complex, int], ...]:
        """Zeros inside ``|lambda| <= radius`` as ``(location, multiplicity)``."""
        roots = self.roots()
        if roots is None:
            raise ValueError("zero curve has no isolated zeros")
        out: List[Tuple[complex, int]] = []
        for cluster in _single_linkage(roots, _CLUSTER_RADIUS):
            center = complex(np.mean(cluster))
            if abs(center) <= radius + 1e-9:
                out.append((center, cluster.size))
        out.sort(key=lambda t: (round(t[0].real, 6), round(t[0].imag, 6)))
        return tuple(out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiscFunction(degree={self.degree}, sup={self.sup_bound:.4f})"


def _kept_lengths(rows: np.ndarray) -> np.ndarray:
    """Length of each row of ascending coefficients after the tail trim.

    Trailing coefficients below 1e-14 of the row's largest magnitude are
    dropped; a row with no positive magnitude keeps its first entry.
    """
    mags = np.abs(rows)
    top = mags.max(axis=1)
    kept = mags >= 1e-14 * top[:, None]
    return np.where(top > 0, rows.shape[1] - np.argmax(kept[:, ::-1], axis=1), 1)


def _subnormal_top_message(index: int, value: complex) -> str:
    return (f"highest kept coefficient c_{index} = {complex(value)!r} is "
            f"below the smallest normal float {_TINY:.4e}; its zeros are not "
            "computable in floating point")


def _roots_of_rows(rows: np.ndarray,
                   name: Callable[[int], str] = "row {}".format
                   ) -> List[Optional[np.ndarray]]:
    """Zeros of each row of ascending coefficients; ``None`` for a zero row.

    Row by row this is ``np.roots`` of the row after ``DiscFunction``'s tail
    trim, with the same bits: rows are grouped by their lowest and highest
    nonzero kept coefficient, each group's companion matrices (first row
    ``-p[1:] / p[0]`` of the descending coefficients, ones below the
    diagonal) go to one stacked ``np.linalg.eigvals`` call, and one zero
    root is appended per stripped low coefficient.  A constant times
    ``lambda**m`` gives ``m`` zeros as a float array, as ``np.roots`` does.

    Raises ``ValueError`` naming the row (``name(i)``, by default
    ``row i``) when a row with a companion matrix has a subnormal highest
    kept coefficient: dividing by it overflows.
    """
    rows = np.asarray(rows, dtype=complex)
    width = rows.shape[1]
    live = (rows != 0) & (np.arange(width) < _kept_lengths(rows)[:, None])
    found = live.any(axis=1)
    low = np.argmax(live, axis=1)
    high = width - 1 - np.argmax(live[:, ::-1], axis=1)
    tops = rows[np.arange(len(rows)), high]
    subnormal = np.nonzero(found & (high > low) & (np.abs(tops) < _TINY))[0]
    if subnormal.size:
        i = int(subnormal[0])
        raise ValueError(
            f"{name(i)}: {_subnormal_top_message(int(high[i]), tops[i])}")
    out: List[Optional[np.ndarray]] = [None] * len(rows)
    for lo, hi in set(zip(low[found].tolist(), high[found].tolist())):
        members = np.nonzero(found & (low == lo) & (high == hi))[0]
        p = rows[members, lo:hi + 1][:, ::-1]
        n = hi - lo
        if n:
            companion = np.zeros((members.size, n, n), dtype=complex)
            companion[:, 0] = -p[:, 1:] / p[:, :1]
            companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
            roots = np.linalg.eigvals(companion)
        else:
            roots = np.empty((members.size, 0))
        roots = np.hstack([roots, np.zeros((members.size, lo), roots.dtype)])
        for m, r in zip(members, roots):
            out[m] = r
    return out


def curve_difference(a: DiscFunction, b: DiscFunction) -> DiscFunction:
    """Coefficient-wise difference ``a - b`` (no into-disc requirement)."""
    la, lb = len(a.coeffs), len(b.coeffs)
    coeffs = np.zeros(max(la, lb), dtype=complex)
    coeffs[:la] += a.coeffs
    coeffs[:lb] -= b.coeffs
    return DiscFunction(coeffs, require_into_disc=False)


@dataclass(frozen=True)
class ExtensionVerdict:
    """Result of testing a restriction for extendability into the disc."""

    kind: str  # "holomorphic" | "meromorphic" | "not-extendable"
    residual: float
    n_max: int
    rational: Optional[RationalPart] = None
    rank: int = 0
    gap: float = math.inf

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "residual": self.residual,
            "n_max": self.n_max,
            "rank": self.rank,
            "gap": self.gap,
            "rational": None if self.rational is None else self.rational.as_dict(),
        }


@dataclass(frozen=True)
class LadderEntry:
    """One reconstructed coefficient ``A_n`` = rational part + Taylor tail."""

    n: int
    rational: RationalPart
    tail: Tuple[complex, ...]

    @pointwise
    def __call__(self, lam) -> np.ndarray | complex:
        out = np.polynomial.polynomial.polyval(lam, self.tail) \
            if self.tail else np.zeros_like(lam)
        return out + self.rational(lam)

    @property
    def is_zero(self) -> bool:
        return not self.rational.poles and not any(self.tail)

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "rational": self.rational.as_dict(),
            "tail": [[c.real, c.imag] for c in self.tail],
        }


@dataclass(frozen=True)
class LevelDiagnostic:
    """Blaschke-correction bookkeeping for one level/curve pair.

    Holds the level function ``f_{n,k}`` as its cleaned centered Laurent
    coefficients on the unit circle (read-only) and the poles found in
    its Hardy-minus part.  The corrected function ``f_{n,k} * B``, with
    ``B`` the Blaschke product vanishing at those poles, is computed when
    ``corrected_sup`` or ``projection_residual`` is read; nothing is
    cached, so every read does one Blaschke correction.
    """

    level: int
    curve_index: int
    level_coeffs: np.ndarray = field(repr=False, compare=False)
    poles: Tuple[Tuple[complex, int], ...] = ()

    @property
    def pole_count(self) -> int:
        return sum(mult for _, mult in self.poles)

    def _corrected(self) -> CircleFunction:
        level_fn = CircleFunction.from_coefficients(self.level_coeffs, 1.0)
        blaschke = blaschke_from_zeros(
            [p for p, mult in self.poles for _ in range(mult)])
        return level_fn * CircleFunction(
            blaschke(unit_circle_grid(level_fn.size)), 1.0)

    @property
    def corrected_sup(self) -> float:
        """Sup norm of ``f_{n,k} * B`` on the unit circle."""
        return self._corrected().sup_norm

    @property
    def projection_residual(self) -> float:
        """Sup norm of the Hardy-minus part of ``f_{n,k} * B``."""
        return hardy_project_minus(self._corrected()).sup_norm


@dataclass(frozen=True)
class CoefficientLadder:
    """Reconstructed coefficients ``A_0 .. A_depth`` with bound constants.

    ``zeros`` are the stabilized curve zeros ``(a_j, l_j)``; ``pole_lines``
    the limit poles ``(b_i, mult)`` of the one-variable extensions that do
    not coincide with a curve zero.  The stored constants make
    ``|A_n| <= c_prime / (prod |lam - a_j|^{n l_j} prod |lam - b_i|
    (1+eps)^n)`` hold on the verification grid.
    """

    entries: Tuple[LadderEntry, ...]
    zeros: Tuple[Tuple[complex, int], ...]
    pole_lines: Tuple[Tuple[complex, int], ...]
    epsilon: float
    c_bound: float
    c1_bound: float
    c2_bound: float
    c_prime: float
    diagnostics: Tuple[LevelDiagnostic, ...] = field(default=(), repr=False)

    @property
    def depth(self) -> int:
        return len(self.entries) - 1

    def as_dict(self) -> dict:
        return {
            "depth": self.depth,
            "epsilon": self.epsilon,
            "zeros": [{"a": [a.real, a.imag], "l": l} for a, l in self.zeros],
            "pole_lines": [{"b": [b.real, b.imag], "m": mm}
                           for b, mm in self.pole_lines],
            "C": self.c_bound,
            "C1": self.c1_bound,
            "C2": self.c2_bound,
            "C_prime": self.c_prime,
            "entries": [e.as_dict() for e in self.entries],
        }


@dataclass(frozen=True)
class PinchDescriptor:
    """Shape of the pinched domain ``|z| < c prod |lam - a_j|^{l_j}``."""

    pinches: Tuple[Tuple[complex, int], ...]
    pole_lines: Tuple[complex, ...]
    c: float

    @pointwise
    def domain_radius(self, lam) -> np.ndarray | float:
        return self.c * distance_product(lam, self.pinches)

    def contains(self, lam: complex, z: complex, margin: float = 1.0) -> bool:
        return abs(z) < margin * self.domain_radius(lam)

    def as_dict(self) -> dict:
        return {
            "pinches": [{"a": [a.real, a.imag], "order": l}
                        for a, l in self.pinches],
            "pole_lines": [[b.real, b.imag] for b in self.pole_lines],
            "c": self.c,
        }


class ExtensionValue(NamedTuple):
    """Value of the reconstructed extension with its truncation bound."""

    value: complex
    bound: float


# ----------------------------------------------------------------------
# restriction and the extendability test
# ----------------------------------------------------------------------

def minus_part(f: RingFunction) -> RingFunction:
    """The part of ``f`` with negative lambda-powers only.

    This is the normalization that removes the component extending
    holomorphically across the whole bidisc.  It requires the exact
    bivariate Laurent form; black-box evaluators cannot be split.
    """
    if f.laurent is None:
        raise ValueError(
            "subtracting the plus part requires an exact Laurent form; "
            "a black-box evaluator cannot be split")
    terms = tuple(t for t in f.laurent if t[1] < 0)
    return RingFunction.from_laurent(terms, f.epsilon)


def _sample_curves(f: RingFunction, curves: Sequence[DiscFunction], m: int,
                   prefix: Callable[[int], str] = "".format) -> Tuple:
    """Sample the curves once: nodes ``phi_k(lam)`` and values ``f(lam, .)``.

    Returns ``(nodes, values, leaves)``: two ``(j, m)`` complex arrays on
    the ``m``-point unit-circle grid, one row per curve before the first
    curve that leaves the z-range of the ring, and for that curve the
    :class:`DomainError` to raise once the earlier rows are checked
    (``None`` when every curve stays inside).  Each curve and ``f`` are
    called once per row.  A grid size that is not a power of two of at
    least 16 raises ``ValueError`` when there is a row to sample.  The
    text of that :class:`DomainError`, and of one the evaluator raises on
    row ``k``, starts with ``prefix(k)``.
    """
    grid = unit_circle_grid(m)
    nodes = np.empty((len(curves), m), dtype=complex)
    leaves = None
    for j, phi in enumerate(curves):
        nodes[j] = phi(grid)
        zmax = float(np.abs(nodes[j]).max())
        if zmax >= 1.0 + _DISC_SLACK:
            leaves = DomainError(
                f"{prefix(j)}curve leaves the z-range of the ring "
                f"(sup {zmax:.6f} on |lam|=1)")
            nodes = nodes[:j]
            break
    if len(nodes):
        _check_sample_count(m)
    values = np.empty_like(nodes)
    for k, z in enumerate(nodes):
        try:
            values[k] = f.eval_many(grid, z)
        except DomainError as exc:
            raise type(exc)(f"{prefix(k)}{exc}") from exc
    return nodes, values, leaves


def _test_rows(values: np.ndarray, n_max: int, holo_tolerance: float,
               epsilon: float, prefix: Callable[[int], str] = "".format):
    """Yield the extension verdict of each row of restriction samples.

    ``values`` is a ``(K, m)`` stack of samples on the unit circle.  All
    rows go through one FFT and their Hardy-minus parts through one
    inverse FFT, with row-by-row bits; the aliasing guard
    (:func:`require_resolved`, its message prefixed with ``prefix(k)``)
    and the verdict then run row by row as the rows are consumed, so an
    error of row ``k`` comes after the verdicts of the rows before it.
    """
    coeffs = _coeffs_from_samples(values, 1.0)
    minus = _minus_parts(coeffs, 1.0)
    for k, psi in enumerate(minus):
        try:
            require_resolved(CircleFunction._from_parts(values[k], coeffs[k],
                                                        1.0))
        except BandwidthError as exc:
            raise BandwidthError(f"{prefix(k)}{exc}") from None
        residual = psi.sup_norm
        if residual < holo_tolerance:
            yield ExtensionVerdict(kind="holomorphic", residual=residual,
                                   n_max=n_max)
            continue
        verdict = detect_rational(psi, n_max, delta_pole=epsilon / 2.0)
        kind = "meromorphic" if verdict.is_rational else "not-extendable"
        yield ExtensionVerdict(kind=kind, residual=residual, n_max=n_max,
                               rational=verdict.rational, rank=verdict.rank,
                               gap=verdict.gap)


def restrict_along_curve(f: RingFunction, phi: DiscFunction,
                         m: int = 256) -> CircleFunction:
    """Sample ``lambda -> f(lambda, phi(lambda))`` on the unit circle."""
    _, values, leaves = _sample_curves(f, [phi], m)
    if leaves is not None:
        raise leaves
    return CircleFunction(values[0], 1.0)


def extension_test(f: RingFunction, phi: DiscFunction, n_max: int, *,
                   m: int = 256,
                   holo_tolerance: float = _HOLO_TOLERANCE) -> ExtensionVerdict:
    """Test whether the restriction along ``phi`` extends into the disc.

    Returns a ``holomorphic`` verdict when the Hardy-minus residual of the
    restriction is below ``holo_tolerance``; otherwise runs rational
    detection on the residual and reports ``meromorphic`` (with the
    recovered principal parts) or ``not-extendable``.  This is the
    one-curve case of the ladder's stacked tests.
    """
    _, values, leaves = _sample_curves(f, [phi], m)
    if leaves is not None:
        raise leaves
    verdict, = _test_rows(values, n_max, holo_tolerance, f.epsilon)
    return verdict


# ----------------------------------------------------------------------
# coefficient ladder
# ----------------------------------------------------------------------

class _DecimalArray:
    """Complex array held as real and imaginary ``object`` arrays of ``Decimal``.

    The extended-precision number type of the ladder kernel: every operation
    is C ``decimal`` arithmetic under the current context, applied element by
    element with numpy broadcasting.  It implements what the kernel and the
    level recursion use of a complex ndarray.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: np.ndarray, im: np.ndarray):
        self.re = re
        self.im = im

    @classmethod
    def from_mpc(cls, z: np.ndarray) -> "_DecimalArray":
        parts = np.array([[_mpf_to_decimal(t) for t in x._mpc_] for x in z.flat],
                         dtype=object)
        return cls(parts[:, 0].reshape(z.shape), parts[:, 1].reshape(z.shape))

    def __len__(self) -> int:
        return len(self.re)

    def __getitem__(self, key) -> "_DecimalArray":
        return _DecimalArray(self.re[key], self.im[key])

    def __setitem__(self, key, other: "_DecimalArray") -> None:
        self.re[key] = other.re
        self.im[key] = other.im

    def copy(self) -> "_DecimalArray":
        return _DecimalArray(self.re.copy(), self.im.copy())

    def __sub__(self, other: "_DecimalArray") -> "_DecimalArray":
        return _DecimalArray(self.re - other.re, self.im - other.im)

    def __mul__(self, other) -> "_DecimalArray":
        if not isinstance(other, _DecimalArray):  # a real number
            return _DecimalArray(self.re * other, self.im * other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return _DecimalArray(a * c - b * d, a * d + b * c)

    def __truediv__(self, other: "_DecimalArray") -> "_DecimalArray":
        a, b, c, d = self.re, self.im, other.re, other.im
        den = c * c + d * d
        return _DecimalArray((a * c + b * d) / den, (b * c - a * d) / den)

    def astype(self, dtype) -> np.ndarray:
        # float(Decimal) rounds correctly; + 0.0 drops the sign of zeros,
        # which mpmath numbers do not carry either
        out = np.empty(self.re.shape, dtype=dtype)
        out.real = self.re.astype(float) + 0.0
        out.imag = self.im.astype(float) + 0.0
        return out


def _mpf_to_decimal(t: tuple) -> Decimal:
    """``man * 2**exp`` as a ``Decimal``, rounded once under the context."""
    sign, man, exp, _ = t
    if not man or abs(exp) > 65536:
        # zero, inf and nan; magnitudes far outside any double become the
        # double's 0 or inf instead of a shift by more than 65536 bits
        return Decimal(mp.libmp.to_float(t))
    # on mpmath's gmpy backend the mantissa is an mpz, which Decimal refuses
    man = int(man)
    if sign:
        man = -man
    return Decimal(man << max(exp, 0)) / (1 << max(-exp, 0))


def _decimal_digits(dps: int) -> int:
    """Smallest ``Decimal`` precision ``p`` with ``10**(1-p)/2 <= 2**-prec``.

    ``prec`` is mpmath's working precision in bits at ``dps`` digits, so a
    single rounding in the ``decimal`` context is never coarser than one in
    ``mp.workdps(dps)``.  Complex multiply and divide in
    :class:`_DecimalArray` round every real product and sum, where mpmath
    rounds each part once, so they are not as tight as ``mpc`` arithmetic.
    """
    prec = mp.libmp.dps_to_prec(dps)
    p = 1
    while 10 ** (p - 1) < 2 ** (prec - 1):
        p += 1
    return p


def _nodes_values(f: RingFunction, curves: Sequence[DiscFunction],
                  grid: np.ndarray, dps: int) -> Tuple:
    """Curve nodes ``phi_k(lam)`` and values ``f(lam, phi_k(lam))`` of an
    mp-capable ``f``.

    mpmath evaluates both at ``dps`` digits; they are returned as two
    ``(K, m)`` :class:`_DecimalArray` (call inside the ``decimal`` context
    of the kernel).
    """
    with mp.workdps(dps):
        lam_mp = np.array([mp.mpc(x) for x in grid], dtype=object)
        nodes = np.array([phi.eval_mp(lam_mp) for phi in curves], dtype=object)
        values = np.array([[f.eval_mp(lam, t) for lam, t in zip(lam_mp, row)]
                           for row in nodes], dtype=object)
    return _DecimalArray.from_mpc(nodes), _DecimalArray.from_mpc(values)


def _divided_differences(nodes, values):
    """Newton divided-difference table of every column, shape ``(K, m)``.

    Row ``i`` depends only on the first ``i + 1`` nodes, so the table of the
    first ``k`` curves is its first ``k`` rows, and a column subset of the
    table is the table of that column subset.  Works on complex arrays and
    on :class:`_DecimalArray`.
    """
    # one row at a time, in place: whole-slice updates keep several tables
    # of temporaries alive and raise the peak memory
    dd = values.copy()
    for j in range(1, len(dd)):
        for i in range(len(dd) - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (nodes[i] - nodes[i - j])
    return dd


def _interp_prefixes(nodes, dd, n_keep: int,
                     sizes: Sequence[int]) -> List:
    """Taylor coefficients ``0 .. n_keep-1`` of the column interpolants.

    For each ``k`` in ``sizes``, returns an ``(n_keep, m)`` array whose
    column ``c`` holds the low coefficients of the polynomial through the
    first ``k`` points ``(nodes[i, c], values[i, c])``, from the table
    ``dd = _divided_differences(nodes, values)`` (``n_keep`` may not exceed
    its row count).  Each Newton form is converted to monomial form by
    Horner steps truncated to ``n_keep`` rows, one row at a time, which is
    exact because the degree-``d`` coefficient never depends on higher
    degrees.
    """
    out = []
    for k in sizes:
        c = dd[:n_keep] * 0
        c[0] = dd[k - 1]
        for i in range(k - 2, -1, -1):
            for d in range(n_keep - 1, 0, -1):
                c[d] = c[d - 1] - nodes[i] * c[d]
            c[0] = dd[i] - nodes[i] * c[0]
        out.append(c)
    return out


def _clean_and_project(rows: np.ndarray, abs_floor: float
                       ) -> Tuple[np.ndarray, List[CircleFunction]]:
    """Clean each row's Laurent coefficients and take its Hardy-minus part.

    ``rows`` is a ``(k, m)`` stack of samples on the unit circle.  Returns
    the read-only ``(k, m)`` cleaned centered coefficients and, per row,
    the Hardy-minus part of the cleaned function.  A coefficient is zeroed
    below ``max(1e-7 * max |c|, abs_floor)`` of its row.  Row by row this
    is ``CircleFunction(row)``, that floor and ``hardy_project_minus``,
    with the same bits, at one stacked FFT and one stacked inverse FFT.
    """
    coeffs = _coeffs_from_samples(rows, 1.0)
    mags = np.abs(coeffs)
    rel = _CLEAN_REL_FLOOR * mags.max(axis=1)
    # Python's max(rel, abs_floor), NaN cases included
    floor = np.where(abs_floor > rel, abs_floor, rel)
    coeffs[mags < floor[:, None]] = 0.0
    coeffs.setflags(write=False)
    return coeffs, _minus_parts(coeffs, 1.0)


def _match_allowance(pole: complex, mult: int, level: int,
                     zeros, pole_lines) -> bool:
    allowed = 0
    for a, l in zeros:
        if abs(pole - a) <= _MATCH_RADIUS:
            allowed += level * l
    for b, bm in pole_lines:
        if abs(pole - b) <= _MATCH_RADIUS:
            allowed += bm
    return 0 < allowed and mult <= allowed


def _stabilized_zero_sets(curves: Sequence[DiscFunction], radius: float):
    zero_sets = []
    for phi in curves[-3:]:
        zero_sets.append(phi.roots_in_disc(radius))
    counts = [sum(l for _, l in zs) for zs in zero_sets]
    if len(set(counts)) != 1:
        raise ConvergenceError(
            f"curve zero counts {counts} did not stabilize over the last "
            "three curves; not a valid test-sequence scenario")
    final = zero_sets[-1]
    for zs in zero_sets[:-1]:
        for a, _ in zs:
            if final and min(abs(a - b) for b, _ in final) > 0.1:
                raise ConvergenceError(
                    f"curve zero near {a} drifts by more than 0.1 across the "
                    "last three curves")
    return final


def _stabilized_pole_lines(verdicts, zeros):
    """Cluster the poles of the last three curve extensions."""
    last = verdicts[-3:]
    degrees = [0 if v.rational is None else v.rational.degree for v in last]
    if len(set(degrees)) != 1:
        raise ConvergenceError(
            f"extension pole counts {degrees} did not stabilize over the "
            "last three curves")
    raw = () if last[-1].rational is None else last[-1].rational.pole_list
    pole_lines = tuple((b, mm) for b, mm in raw
                       if all(abs(b - a) > _MATCH_RADIUS for a, _ in zeros))
    return raw, pole_lines


def _check_convergence(est_prev, est_last, est_all, value_scale: float,
                       ladder_tol: float) -> None:
    """Raise :class:`ConvergenceError` unless the estimates from the first
    K-2, K-1 and K curves contract and the projected remaining error
    (geometric extrapolation of the last two differences) stays below
    ``ladder_tol`` times the data scale."""
    d_prev = float(np.abs(est_last - est_prev).max())
    d_last = float(np.abs(est_all - est_last).max())
    scale = max(value_scale, 1e-300)
    if d_last <= ladder_tol * scale:
        return
    ratio = d_last / d_prev if d_prev > 0 else math.inf
    projected = d_last * ratio / (1.0 - ratio) if ratio < 0.9 else math.inf
    if projected > ladder_tol * scale:
        raise ConvergenceError(
            f"coefficient estimates are not converging: successive "
            f"differences {d_prev:.3e}, {d_last:.3e} project a remaining "
            f"error of {projected:.3e} against the tolerance "
            f"{ladder_tol:.1e} x scale {scale:.3e}")


def _circle_max(centers, grid: np.ndarray) -> float:
    """``max prod |1 - conj(a) lam|^l`` over the grid and the pairs
    ``(a, l)`` in ``centers``; 1.0 without centers."""
    prod = np.ones(grid.size)
    for a, l in centers:
        prod *= np.abs(1.0 - np.conj(a) * grid) ** l
    return float(prod.max())


def coefficient_ladder(f: RingFunction, curves: Sequence[DiscFunction],
                       depth: int, n_max: int, *, m: int = 256,
                       ladder_tol: float = 1e-7) -> CoefficientLadder:
    """Reconstruct ``A_0 .. A_depth`` from restrictions along ``curves``.

    The curves must form (a finite stretch of) a test sequence shrinking
    to the zero curve: each restriction must extend with at most ``n_max``
    poles, the curves must be zero-free on the unit circle, and their
    zeros inside ``|lambda| < 1 - eps/2`` must stabilize.  At least
    ``depth + 2`` curves are required; accuracy improves with more.

    To drop the bidisc-holomorphic component of ``f`` first, pass
    :func:`minus_part` of it.  Mp-capable functions are worked at
    ``max(40, 16 + 3K)`` digits for ``K`` curves.

    Each curve is sampled once on the ``m``-point grid, and the ``K``
    extension tests run as one stack on those samples; the float path
    interpolates through them as well.  Curves are checked in order, each
    for its z-range (:class:`DomainError`), its grid resolution
    (:class:`BandwidthError`), extendability and vanishing on the unit
    circle.  A :class:`DomainError` or :class:`BandwidthError` raised while
    sampling or testing curve ``k``, the evaluator's own included, starts
    with ``curve k: `` (zero-based), as in ``pinchext test``.

    Its stages are module-level functions, from :func:`_sample_curves` to
    :func:`_check_convergence` and :func:`_circle_max`; one budgeted split
    through :func:`detect_rational` serves every ``A_n`` and level function.

    Raises :class:`ConvergenceError` when the data does not behave like a
    test-sequence scenario (unstable zeros or pole counts, non-converging
    coefficient estimates, pole budgets exceeded).
    """
    kcurves = len(curves)
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if kcurves < depth + 2:
        raise ValueError(
            f"need at least depth + 2 = {depth + 2} curves, got {kcurves}")
    eps = f.epsilon

    grid = unit_circle_grid(m)
    # each curve is sampled once; its extension test, the vanishing check
    # and (on the float path) the interpolation all read these rows
    name = "curve {}: ".format
    float_nodes, float_values, leaves = _sample_curves(f, curves, m, name)
    verdicts = []
    for idx, verdict in enumerate(_test_rows(float_values, n_max,
                                             _HOLO_TOLERANCE, eps, name)):
        if verdict.kind == "not-extendable":
            raise ConvergenceError(
                f"curve {idx} is not extendable with at most {n_max} poles; "
                "not a valid test-sequence scenario")
        verdicts.append(verdict)
        if float(np.abs(float_nodes[idx]).min()) <= 1e-9:
            raise CircleVanishingError(
                f"curve {idx} vanishes on the unit circle")
    if leaves is not None:
        raise leaves
    if curves[-1].sup_bound > curves[0].sup_bound + 1e-12:
        raise ConvergenceError(
            "curves do not shrink toward the zero curve "
            "(pre-normalize via the coordinate change z -> z - phi_0)")

    zeros = _stabilized_zero_sets(curves, 1.0 - eps / 2.0)
    n_total = sum(l for _, l in zeros)
    raw_pole_lines, pole_lines = _stabilized_pole_lines(verdicts, zeros)
    m_total = sum(mult for _, mult in raw_pole_lines)
    if depth * n_total + m_total > 16:
        raise ConvergenceError(
            f"pole budget depth*N + M = {depth * n_total + m_total} exceeds "
            "the supported bound 16")
    n_keep = depth + 1
    # level n may carry n*N + M poles; detection gets that clipped to 1..16
    allowed = [n * n_total + m_total for n in range(n_keep)]
    budgets = [min(16, max(1, a)) for a in allowed]

    def split(psi: CircleFunction, n: int, not_rational: str, too_many: str,
              k: Optional[int] = None) -> RationalPart:
        """Rational part of ``psi`` within level ``n``'s budget, zero below
        ``noise_floor``; texts take ``n k budget allowed rank gap degree``."""
        fields = dict(n=n, k=k, budget=budgets[n], allowed=allowed[n])
        if psi.sup_norm <= noise_floor:
            rp = RationalPart(poles=())
        else:
            verdict = detect_rational(psi, budgets[n], delta_pole=eps / 2.0)
            if not verdict.is_rational:
                raise ConvergenceError(not_rational.format(
                    rank=verdict.rank, gap=verdict.gap, **fields))
            rp = verdict.rational
        if rp.degree > allowed[n]:
            raise ConvergenceError(too_many.format(degree=rp.degree, **fields))
        return rp

    dps = max(40, 16 + 3 * kcurves)
    with decimal.localcontext(decimal.Context(prec=_decimal_digits(dps))):
        # without extended precision the ladder interpolates through the
        # float samples its extension tests read
        nodes, values = ((float_nodes, float_values) if not f.mp_capable
                         else _nodes_values(f, curves, grid, dps))

        # node collision guard: equal nodes are neighbours in a sorted column
        node_arr = np.sort(nodes.astype(complex), axis=0)
        if (np.abs(np.diff(node_arr, axis=0)) == 0.0).any():
            raise ConvergenceError("two curves coincide at a grid point")

        value_scale = float(np.abs(values.astype(complex)).max())
        abs_floor = _CLEAN_ABS_FLOOR * max(value_scale, 1e-300)
        # below this sup norm a Hardy-minus part is taken as zero
        noise_floor = max(10 * abs_floor, 1e-13 * max(value_scale, 1.0))

        # extraction, and the estimates from the first K-2, K-1 curves
        sub = slice(0, m, max(1, m // 64))
        n_cmp = min(n_keep, kcurves - 2)
        dd = _divided_differences(nodes, values)
        coeffs, = _interp_prefixes(nodes, dd, n_keep, [kcurves])
        est_prev, est_last = _interp_prefixes(
            nodes[:, sub], dd[:, sub], n_cmp, [kcurves - 2, kcurves - 1])
        coeff_samples = coeffs.astype(complex)
        _check_convergence(est_prev.astype(complex), est_last.astype(complex),
                           coeff_samples[:n_cmp, sub], value_scale, ladder_tol)

        # cleaned coefficients, split into rational part + tail
        a_coeffs, a_minus = _clean_and_project(coeff_samples, abs_floor)
        entries: List[LadderEntry] = []
        for n in range(n_keep):
            rp = split(a_minus[n], n,
                       "coefficient A_{n} is not rational with at most "
                       "{budget} poles (rank {rank}, gap {gap:.2e})",
                       "A_{n} carries {degree} poles, exceeding the budget "
                       "n*N + M = {allowed}")
            for pole, mult in rp.pole_list:
                if not _match_allowance(pole, mult, n, zeros, raw_pole_lines):
                    raise ConvergenceError(
                        f"A_{n} has an unexpected pole at {pole} (mult {mult}); "
                        "poles must accumulate at curve zeros or extension poles")
            tail_coeffs = a_coeffs[n, m // 2:]
            nz = np.nonzero(tail_coeffs)[0]
            tail = (tuple(complex(c) for c in tail_coeffs[:nz[-1] + 1])
                    if nz.size else ())
            entries.append(LadderEntry(n=n, rational=rp, tail=tail))

        # level functions f_{n,k} of the last three curves and their poles
        diagnostics: List[LevelDiagnostic] = []
        level_values = values[-3:]
        for n in range(n_keep):
            if n:
                level_values = (level_values - coeffs[n - 1]) / nodes[-3:]
            level_coeffs, level_minus = _clean_and_project(
                level_values.astype(complex), abs_floor)
            for k, (row, psi) in enumerate(zip(level_coeffs, level_minus),
                                           kcurves - 3):
                rp = split(psi, n,
                           "level function f_{n},{k} is not rational within "
                           "the pole budget {budget}",
                           "pole count {degree} at level {n} exceeds the "
                           "budget n*N + M = {allowed}", k=k)
                diagnostics.append(LevelDiagnostic(
                    level=n, curve_index=k, level_coeffs=row,
                    poles=rp.pole_list))

    c_bound = 0.0
    for n in range(n_keep):
        sup_n = float(np.abs(coeff_samples[n]).max())
        c_bound = max(c_bound, sup_n * (1.0 + eps) ** n)
    c1 = _circle_max(zeros, grid)
    c2 = _circle_max(pole_lines, grid)
    c_prime = c_bound * c2 * max(1.0, c1) ** depth

    return CoefficientLadder(
        entries=tuple(entries), zeros=zeros, pole_lines=pole_lines,
        epsilon=eps, c_bound=c_bound, c1_bound=c1, c2_bound=c2,
        c_prime=c_prime, diagnostics=tuple(diagnostics))


# ----------------------------------------------------------------------
# pinched domain estimation and evaluation
# ----------------------------------------------------------------------

def _off_poles(ladder: CoefficientLadder, grid: np.ndarray) -> np.ndarray:
    """Grid points farther than 1e-2 from every zero and pole line."""
    keep = np.ones(grid.size, dtype=bool)
    for a, _ in ladder.zeros + ladder.pole_lines:
        keep &= np.abs(grid - a) > _POLE_LINE_EXCLUSION
    return grid[keep]


def pinch_estimate(ladder: CoefficientLadder) -> PinchDescriptor:
    """Estimate the pinched domain carried by a coefficient ladder.

    Pinches are the stabilized curve zeros that actually appear as poles
    of some reconstructed coefficient; the constant ``c`` is found by a
    halving search so that consecutive significant ladder terms contract
    by at least 1/2 on the test grid (64 points on each of the circles
    ``|lam| = 1 - eps/4`` and ``|lam| = (1 - eps)/2``).
    """
    if len(ladder.entries) < 3:
        raise ValueError("pinch estimation needs ladder depth >= 2")
    observed: List[complex] = []
    for entry in ladder.entries:
        observed.extend(a for a, _ in entry.rational.pole_list)
    pinches = tuple((a, l) for a, l in ladder.zeros
                    if any(abs(a - p) <= _MATCH_RADIUS for p in observed))

    significant = [n for n, e in enumerate(ladder.entries) if not e.is_zero]
    pairs = [(significant[i], significant[i + 1])
             for i in range(len(significant) - 1)]
    eps = ladder.epsilon
    grid = _off_poles(ladder, np.concatenate(
        [unit_circle_grid(_PROBE_ANGLES, r)
         for r in (1.0 - eps / 4.0, (1.0 - eps) / 2.0)]))
    pinch_prod = distance_product(grid, pinches)
    ratios = []
    for n1, n2 in pairs[-3:]:
        v1 = np.abs(ladder.entries[n1](grid))
        v2 = np.abs(ladder.entries[n2](grid))
        guard = v1 > 1e-9 * max(v1.max(), 1e-300)
        if not guard.any():
            continue
        span = n2 - n1
        ratio = (v2[guard] * pinch_prod[guard] ** span / v1[guard]) ** (1.0 / span)
        ratios.append(ratio.max())
    worst = max(ratios, default=0.0)
    c = 1.0
    while c * worst > 0.5:
        c *= 0.5
        if c < 2.0 ** -60:
            raise ConvergenceError(
                "no positive constant gives geometric contraction of the "
                "ladder terms on the test grid")
    return PinchDescriptor(pinches=pinches,
                           pole_lines=tuple(b for b, _ in ladder.pole_lines),
                           c=c)


def evaluate_extension(ladder: CoefficientLadder, descriptor: PinchDescriptor,
                       lam: complex, z: complex, *,
                       tol: Optional[float] = None,
                       margin: float = 0.9) -> ExtensionValue:
    """Evaluate ``sum A_n(lam) z^n`` inside the pinched domain.

    The point must satisfy ``|z| < margin * c * prod |lam - a_j|^{l_j}``
    and stay more than 1e-2 off the pole lines.  The attached bound
    dominates the tail beyond ``depth`` via the coefficient estimates; when
    ``tol`` is given a bound above it raises :class:`ConvergenceError`.
    """
    lam = complex(lam)
    z = complex(z)
    if not descriptor.contains(lam, z, margin=margin):
        raise DomainError(
            f"({lam}, {z}) is outside the pinched domain with margin {margin}")
    for b in descriptor.pole_lines:
        if abs(lam - b) <= _POLE_LINE_EXCLUSION:
            raise DomainError(f"lambda = {lam} lies on the pole line at {b}")

    value = 0j
    for entry in ladder.entries:
        value += entry(lam) * z ** entry.n

    prod_a = float(distance_product(lam, ladder.zeros))
    prod_b = float(distance_product(lam, ladder.pole_lines))
    depth = ladder.depth
    if prod_a == 0.0:
        bound = math.inf
    else:
        q = ladder.c1_bound * abs(z) / ((1.0 + ladder.epsilon) * prod_a)
        if q >= 1.0:
            bound = math.inf
        else:
            bound = (ladder.c_prime / max(prod_b, 1e-300)
                     * q ** (depth + 1) / (1.0 - q))
    if tol is not None and bound > tol:
        raise ConvergenceError(
            f"truncation bound {bound:.3e} exceeds the requested tolerance "
            f"{tol:.1e} at depth {depth}")
    return ExtensionValue(complex(value), float(bound))


def verify_coefficient_bounds(ladder: CoefficientLadder) -> Tuple:
    """Check the coefficient growth estimate on a probe circle.

    Evaluates ``|A_n(lam)| <= C' / (prod |lam-a_j|^{n l_j} prod |lam-b_i|
    (1+eps)^n)``, with relative slack 1e-6, at 64 points on
    ``|lam| = 1 - eps/4`` outside 1e-2-neighborhoods of the poles.  Returns
    the (ideally empty) tuple of violations ``(n, lam, lhs, rhs)``.
    """
    eps = ladder.epsilon
    r = 1.0 - eps / 4.0
    grid = _off_poles(ladder, unit_circle_grid(_PROBE_ANGLES, r))
    prod_b = distance_product(grid, ladder.pole_lines)
    violations = []
    for entry in ladder.entries:
        n = entry.n
        prod_a = distance_product(grid, ladder.zeros, power=n)
        rhs = ladder.c_prime / (prod_a * prod_b * (1.0 + eps) ** n)
        lhs = np.abs(entry(grid))
        bad = lhs > rhs * (1.0 + _BOUND_SLACK)
        for idx in np.nonzero(bad)[0]:
            violations.append((n, complex(grid[idx]),
                               float(lhs[idx]), float(rhs[idx])))
    return tuple(violations)
