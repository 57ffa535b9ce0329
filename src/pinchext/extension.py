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
  systems are exponentially ill-conditioned, so for ring functions with
  a ``block_evaluator`` (remark 1's) or an ``mp_evaluator``
  (:meth:`RingFunction.from_laurent` builds one from the exact terms) the
  ladder works at ``dps`` digits; otherwise everything runs in complex
  doubles, and deep levels lose accuracy.
* At ``dps`` digits the ladder works on the C ``decimal`` type, at the
  smallest precision whose single rounding is at least as fine as
  mpmath's at ``dps`` (:func:`_decimal_digits`).  With a
  ``block_evaluator`` nothing else is used: the grid points enter exactly
  (``Decimal(float)``), one Horner pass per curve over a block of grid
  columns gives the nodes, which are checked for collisions before any
  value of the block, and one call gives the block's values.  Remark 1's
  takes ``1/lam`` once per column and sums argument-reduced Taylor series
  of ``e^x``, ``cos y`` and ``sin y`` a few guard digits above the
  context, then rounds each part once to it; its values are within about
  5e-54 relative of ``exp(z / lam)`` at its nodes (at ``dps`` 52, where
  mpmath's own rounding reaches 1e-53), and its nodes may differ from
  mpmath's nodes in the last digits, so a result that is zero in exact
  arithmetic reads about 1e-52 (the imaginary part of ``A_0`` on the real
  lines ``lam / k``).  Without one, mpmath evaluates the nodes (the same
  Horner pass) and the values, one call of the ring's ``mp_evaluator``
  per grid column: it takes one ``lam`` and the ``K`` nodes of that
  column and returns one ``mpc`` per node (a Laurent ring's and the
  example series evaluate each node on its own), and each part of each
  node and value is converted to ``decimal`` once, by one correctly
  rounded division.  The divided-difference table, the monomial
  conversion, the convergence estimates and the level recursion below run
  on ``decimal``.  A complex product or quotient takes a few more
  roundings than mpmath's ``mpc`` (which rounds each part once, with
  guard bits for division), so a part can lose a few ulps more under
  cancellation; normwise the error stays a few ulps.  Results return to
  complex doubles through ``float(Decimal)``, which rounds correctly, each
  value once.  mpmath is imported only inside the functions that call an
  ``mp_evaluator`` or work in ``mpc``, so a remark-1 ladder, and a ladder
  or extension test without extended precision, never load it.
* Everything from the nodes to the level recursion reads one grid
  column at a time, so :func:`_ladder_block` computes it for a contiguous
  block of columns and returns complex doubles.  On the extended-precision
  path, on Linux and with no other Python thread, the grid is split into
  one block per CPU in ``os.sched_getaffinity(0)``, each of at least 64
  columns (so a grid-64 ladder never forks); :func:`_run_blocks` runs
  the first block in the process and each other one in a forked child.
  Each block evaluates its own nodes and checks its own columns for
  coinciding curves before its values; the convergence check, cleaning,
  splits and diagnostics run after the fork, on the joined columns.  The
  bits do not depend on the block count.  An error is the one a single
  block raises on the first failing block, block 0's first: a collision
  in a later block's columns alone is raised after block 0's values,
  with the same text.  The children's memory is not in
  ``getrusage(RUSAGE_SELF)``; it shows in ``RUSAGE_CHILDREN``.  The float
  path and every other case run the same block function in the process
  as one block.
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
  rows of the ``A_n``, and those of each level, are cleaned and projected
  as one stack (one FFT and one inverse FFT, with row-by-row bits), and
  :func:`_split` takes the rational part of each row within its pole
  budget; every Hardy-minus part is the one mode truncation in ``boundary``.
* The level functions behind the Blaschke diagnostics run that recursion
  literally on the last three curves: ``f_{0,k} = f(., phi_k)`` and
  ``f_{n,k} = (f_{n-1,k} - A_{n-1}) / phi_k``, one subtraction and one
  division per level in the kernel's number type.  The ladder keeps each
  cleaned level function and its poles; the Blaschke-corrected
  ``f_{n,k} * B`` behind :class:`LevelDiagnostic` is computed when it is
  read.
* The pinch search, the bound check, the profile CSV and
  :func:`evaluate_extension` evaluate the entries they need by one
  :func:`_entry_sums` call per point set, which builds each pole power
  once for all of them.  On arrays its bits are those of ``polyval`` plus
  the principal parts; ``evaluate_extension`` calls it on a Python
  ``complex``.
"""

from __future__ import annotations

import cmath
import decimal
import functools
import math
import numbers
import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass, field
from decimal import Decimal
from typing import (Callable, List, NamedTuple, NoReturn, Optional, Sequence,
                    Tuple)

import numpy as np

from .boundary import (_ZERO_TOLERANCE, CircleFunction, _check_sample_count,
                       _coeffs_from_samples, _minus_parts, distance_product,
                       hardy_project_minus, pointwise, require_resolved,
                       unit_circle_grid)
from .errors import (BandwidthError, CircleVanishingError,
                     ConvergenceError, DomainError, NotExtendableError)
from .rational import (_CLUSTER_RADIUS, MAX_POLE_BOUND, RationalPart,
                       _pole_powers, _single_linkage, blaschke_from_zeros,
                       detect_rational)

__all__ = [
    "RingFunction",
    "DiscFunction",
    "ExtensionVerdict",
    "LadderEntry",
    "CoefficientLadder",
    "PinchDescriptor",
    "ExtensionValue",
    "minus_part",
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

def _degree(idx: int, key: str, d) -> int:
    """Degree ``key`` of term ``idx`` as an ``int``; a bool or a value that
    is not integral raises ``ValueError``."""
    if isinstance(d, float) and d.is_integer():
        return int(d)
    if isinstance(d, bool) or not isinstance(d, numbers.Integral):
        raise ValueError(f"term {idx}: degree {key} = {d!r} is not an integer")
    return int(d)


def _laurent_sum(terms, lam, z, total):
    """``total + sum a * lam**l * z**n`` over the terms ``(n, l, a)``,
    added in order; on complex arrays or on mpmath numbers."""
    for n, l, c in terms:
        total = total + c * lam ** l * z ** n
    return total


class RingFunction:
    """Function holomorphic on the ring ``A_{1-eps,1+eps} x Delta``.

    A ring has up to three evaluators:

    * ``evaluator(lambda, z)`` in complex doubles, vectorized over numpy
      arrays;
    * the optional ``block_evaluator(lam, nodes)``, which takes a ladder
      block's ``(c,)`` grid points and ``(K, c)`` curve nodes as
      ``_DecimalArray`` and returns the ``(K, c)`` values as one, in C
      ``decimal`` and rounded to the caller's context (remark 1's works
      ``ceil(s log10 2)`` guard digits above it, 3 on the ladder, and
      rounds each part once; see :func:`_decimal_digits`);
    * the optional ``mp_evaluator(lambda, zs)``, which takes one ``mpc``
      lambda and the ``mpc`` nodes of one ladder grid column and returns
      one ``mpc`` per node.

    The ladder works at extended precision when either of the last two is
    set, and prefers ``block_evaluator``.  :meth:`from_laurent` builds the
    float and mpmath evaluators from exact terms and keeps them as
    ``laurent`` (``None`` on any other ring).
    """

    __slots__ = ("evaluator", "epsilon", "laurent", "mp_evaluator",
                 "block_evaluator")

    def __init__(self, evaluator: Callable, epsilon: float,
                 mp_evaluator: Optional[Callable] = None,
                 block_evaluator: Optional[Callable] = None):
        if not 0.0 < epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 0.5)")
        self.evaluator = evaluator
        self.epsilon = float(epsilon)
        self.mp_evaluator = mp_evaluator
        self.block_evaluator = block_evaluator
        self.laurent = None

    @classmethod
    def from_laurent(cls, terms: Sequence[Tuple[int, int, complex]],
                     epsilon: float) -> "RingFunction":
        """Build from exact terms ``a_nl * lambda**l * z**n`` (``n >= 0``).

        A degree that is not integral (``1.5``, ``True``; ``2.0`` is
        accepted), a negative z-degree or a coefficient that is not finite
        raises ``ValueError``; a double overflow of the float evaluator
        raises ``FloatingPointError``.
        """
        terms = tuple((_degree(idx, "n", n), _degree(idx, "l", l), complex(c))
                      for idx, (n, l, c) in enumerate(terms))
        for idx, (n, _, c) in enumerate(terms):
            if n < 0:
                raise ValueError("z-degrees must be nonnegative")
            if not cmath.isfinite(c):
                raise ValueError(f"term {idx}: coefficient {c!r} is not finite")

        def evaluator(lam, z):
            lam = np.asarray(lam, dtype=complex)
            z = np.asarray(z, dtype=complex)
            with np.errstate(over="raise", invalid="raise"):
                return _laurent_sum(terms, lam, z, np.zeros(
                    np.broadcast(lam, z).shape, dtype=complex))

        import mpmath as mp
        # doubles convert to mpc exactly, so once per ring suffices
        mp_terms = tuple((n, l, mp.mpc(c)) for n, l, c in terms)
        # the mpc start keeps a zero-term ring's values mpc
        ring = cls(evaluator, epsilon, mp_evaluator=lambda lam, zs: [
            _laurent_sum(mp_terms, lam, z, mp.mpc(0)) for z in zs])
        ring.laurent = terms
        return ring


class DiscFunction:
    """Holomorphic curve ``phi`` given by truncated Taylor coefficients.

    Coefficients are ascending; the trailing tail below ``1e-14`` of the
    leading magnitude is trimmed at construction.  ``sup_bound`` is the
    largest modulus on ``N = max(256, 2**ceil(log2(8 (d + 1))))`` points of
    the unit circle for degree ``d``; the sup on the closed disc (maximum
    principle) is at most ``sec(pi d / 2N) <= 1.02`` times it.  A curve
    maps into the closed unit disc, the z-range of every ring: it is
    refused (``ValueError``) unless that bound or ``sum |c_k|`` stays
    below ``1 + 1e-9``.  A coefficient that is not finite raises
    ``ValueError``; so does a highest kept coefficient below the smallest
    normal float, with a nonzero one below it: the zeros of such a curve
    are not computable in floating point.
    """

    __slots__ = ("coeffs", "sup_bound")

    def __init__(self, coeffs: Sequence[complex]):
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
        # polyval of the coefficient array: the bits of self(grid), without
        # the per-call conversions of __call__
        samples = np.polynomial.polynomial.polyval(unit_circle_grid(n), arr)
        self.sup_bound = float(np.abs(samples).max())
        if self.sup_bound >= 1.0 + _DISC_SLACK:
            raise ValueError(
                f"curve has sup {self.sup_bound:.6f} on the closed unit disc; "
                "it must map into the disc")
        # the samples may miss the sup; sum |c_k| may still bound it by 1
        bound = self.sup_bound / math.cos(math.pi * self.degree / (2 * n))
        if min(bound, np.abs(arr).sum()) >= 1.0 + _DISC_SLACK:
            raise ValueError(
                f"curve has sampled sup {self.sup_bound:.6f} on {n} circle "
                f"points, which bounds its sup on the closed unit disc only "
                f"by {bound:.6f}; it must map into the disc")

    @pointwise
    def __call__(self, lam) -> np.ndarray | complex:
        return np.polynomial.polynomial.polyval(lam, self.coeffs)

    def eval_mp(self, lam):
        """Horner at one ``mpc`` or at an ``object`` array of them.

        The same bits as Horner from 0, whose first step ``0 * lam + c``
        is exact, and whose additions of a zero coefficient are skipped.
        ``lam`` stays the left operand of the first product: an ``mpc``
        times an ``object`` array is much slower than the reverse.
        """
        import mpmath as mp
        return self._horner(lam, mp.mpc)

    def _horner(self, lam, convert: Callable):
        """Horner at ``lam`` from ``lam * c_top`` (``lam * 0 + c_0`` for a
        constant), each coefficient taken through ``convert`` to the number
        type of ``lam``; the additions of a zero coefficient are skipped
        (for an ``mpc``, x + 0 is x at the working precision)."""
        *low, top = self.coeffs
        if not low:
            return lam * 0 + convert(top)
        total = lam * convert(top)
        for i, c in enumerate(reversed(low)):
            if i:
                total = total * lam
            if c:
                total = total + convert(c)
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
        return _zeros_in_disc(self.roots(), radius)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiscFunction(degree={self.degree}, sup={self.sup_bound:.4f})"


def _zeros_in_disc(roots: Optional[np.ndarray], radius: float
                   ) -> Tuple[Tuple[complex, int], ...]:
    """The zeros ``roots`` (of one curve, as ``roots()`` gives them) inside
    ``|lambda| <= radius``: clusters within 1e-4 merge into one zero at
    their mean whose multiplicity is their size, sorted by location.  The
    zero curve's ``None`` raises ``ValueError``."""
    if roots is None:
        raise ValueError("zero curve has no isolated zeros")
    out: List[Tuple[complex, int]] = []
    for cluster in _single_linkage(roots, _CLUSTER_RADIUS):
        center = complex(np.mean(cluster))
        if abs(center) <= radius + _DISC_SLACK:
            out.append((center, cluster.size))
    out.sort(key=lambda t: (round(t[0].real, 6), round(t[0].imag, 6)))
    return tuple(out)


def _coefficient_table(curves: Sequence[DiscFunction]) -> np.ndarray:
    """Taylor coefficients of the curves, zero-padded, one curve a column."""
    table = np.zeros((max(len(phi.coeffs) for phi in curves), len(curves)),
                     dtype=complex)
    for idx, phi in enumerate(curves):
        table[:len(phi.coeffs), idx] = phi.coeffs
    return table


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
    """One reconstructed coefficient ``A_n`` = rational part + Taylor tail.

    Calling an entry is the :func:`~pinchext.boundary.pointwise` form of
    :func:`_entry_sums` for this entry alone; the pinch search, the bound
    check, the profile CSV and ``evaluate_extension`` call that
    evaluator directly, for all the entries they need at once.
    """

    n: int
    rational: RationalPart
    tail: Tuple[complex, ...]

    @pointwise
    def __call__(self, lam) -> np.ndarray | complex:
        return _entry_sums([self], lam)[0]

    @property
    def is_zero(self) -> bool:
        return not self.rational.poles and not any(self.tail)

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "rational": self.rational.as_dict(),
            "tail": [[c.real, c.imag] for c in self.tail],
        }


def _entry_sums(entries: Sequence[LadderEntry], lam) -> list:
    """``A_n(lam)`` of each entry, on a 1-d complex array or on a Python
    ``complex``.

    Each power ``(lam - a)**e`` of the principal parts is built once and
    shared by every entry with a pole at ``a``
    (:func:`~pinchext.rational._pole_powers`).  Each Taylor tail is summed
    by Horner in numpy ``polyval``'s order (``c_top + lam * 0``, then
    ``c + total * lam``), so on arrays it has ``polyval``'s bits, and its
    principal parts are added to it as one sum from zero.  On a Python
    ``complex``, a ``lam`` at a pole raises ``ZeroDivisionError`` or
    ``OverflowError``.
    """
    powers = _pole_powers(lam, [entry.rational for entry in entries])
    zero = lam * 0
    out = []
    for entry in entries:
        total = zero
        if entry.tail:
            *low, top = entry.tail
            total = top + zero
            for c in reversed(low):
                total = c + total * lam
        out.append(total + entry.rational._principal_sum(zero, powers))
    return out


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

    def _corrected(self) -> CircleFunction:
        level_fn = CircleFunction.from_coefficients(self.level_coeffs)
        blaschke = blaschke_from_zeros(
            [p for p, mult in self.poles for _ in range(mult)])
        return level_fn * CircleFunction(
            blaschke(unit_circle_grid(level_fn.size)))

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

    def as_dict(self) -> dict:
        return {
            "pinches": [{"a": [a.real, a.imag], "order": l}
                        for a, l in self.pinches],
            "pole_lines": [[b.real, b.imag] for b in self.pole_lines],
            "c": self.c,
        }


class ExtensionValue(NamedTuple):
    """Value of the reconstructed extension with its truncation bound.

    ``bound`` covers only the series tail past ``depth``, not the error of
    the reconstructed ``A_0 .. A_depth``.
    """

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

    Returns ``(nodes, values)``: two ``(K, m)`` complex arrays on the
    ``m``-point unit-circle grid, one row per curve; each curve and ``f``
    are called once per row.  Every curve maps into the disc, the z-range
    of the ring, by construction.  A grid size that is not a power of two
    of at least 16 raises ``ValueError``.  The text of a
    :class:`DomainError` the evaluator raises on row ``k`` starts with
    ``prefix(k)``.
    """
    _check_sample_count(m)
    grid = unit_circle_grid(m)
    nodes = np.empty((len(curves), m), dtype=complex)
    for j, phi in enumerate(curves):
        nodes[j] = phi(grid)
    values = np.empty_like(nodes)
    for k, z in enumerate(nodes):
        try:
            values[k] = f.evaluator(grid, z)
        except DomainError as exc:
            raise type(exc)(f"{prefix(k)}{exc}") from exc
    return nodes, values


def _test_rows(values: np.ndarray, n_max: int, epsilon: float,
               prefix: Callable[[int], str] = "".format):
    """Yield the extension verdict of each row of restriction samples.

    ``values`` is a ``(K, m)`` stack of samples on the unit circle.  All
    rows go through one FFT and their Hardy-minus parts through one
    inverse FFT, with row-by-row bits; the aliasing guard
    (:func:`require_resolved`, its message prefixed with ``prefix(k)``)
    and the verdict then run row by row as the rows are consumed, so an
    error of row ``k`` comes after the verdicts of the rows before it.
    """
    coeffs = _coeffs_from_samples(values)
    minus = _minus_parts(coeffs)
    for k, psi in enumerate(minus):
        try:
            require_resolved(CircleFunction._from_parts(values[k], coeffs[k]))
        except BandwidthError as exc:
            raise BandwidthError(f"{prefix(k)}{exc}") from None
        residual = psi.sup_norm
        if residual < _HOLO_TOLERANCE:
            yield ExtensionVerdict(kind="holomorphic", residual=residual,
                                   n_max=n_max)
            continue
        verdict = detect_rational(psi, n_max, delta_pole=epsilon / 2.0)
        kind = "meromorphic" if verdict.is_rational else "not-extendable"
        yield ExtensionVerdict(kind=kind, residual=residual, n_max=n_max,
                               rational=verdict.rational, rank=verdict.rank,
                               gap=verdict.gap)


def extension_test(f: RingFunction, phi: DiscFunction, n_max: int, *,
                   m: int = 256) -> ExtensionVerdict:
    """Test whether the restriction along ``phi`` extends into the disc.

    Returns a ``holomorphic`` verdict when the Hardy-minus residual of the
    restriction is below the fixed threshold 1e-8, the ladder's too;
    otherwise runs rational detection on the residual and reports
    ``meromorphic`` (with the recovered principal parts) or
    ``not-extendable``.  This is the one-curve case of the ladder's
    stacked tests.
    """
    _, values = _sample_curves(f, [phi], m)
    verdict, = _test_rows(values, n_max, f.epsilon)
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
    def from_mpc(cls, z) -> "_DecimalArray":
        """Each part of each ``mpc`` (an ``object`` array or a list of
        them) rounded once to the context by :func:`_mpf_to_decimal`."""
        z = np.asarray(z, dtype=object)
        parts = np.array([_mpf_to_decimal(t) for x in z.flat for t in x._mpc_],
                         dtype=object)
        return cls(parts[0::2].reshape(z.shape), parts[1::2].reshape(z.shape))

    @classmethod
    def from_complex(cls, z) -> "_DecimalArray":
        """Each part of each complex double as its exact ``Decimal``; a
        scalar gives ``Decimal`` parts."""
        z = np.asarray(z, dtype=complex)
        return cls(_EXACT_DECIMAL(z.real), _EXACT_DECIMAL(z.imag))

    def __len__(self) -> int:
        return len(self.re)

    def __getitem__(self, key) -> "_DecimalArray":
        return _DecimalArray(self.re[key], self.im[key])

    def __setitem__(self, key, other: "_DecimalArray") -> None:
        self.re[key] = other.re
        self.im[key] = other.im

    def copy(self) -> "_DecimalArray":
        return _DecimalArray(self.re.copy(), self.im.copy())

    def __add__(self, other: "_DecimalArray") -> "_DecimalArray":
        return _DecimalArray(self.re + other.re, self.im + other.im)

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


# float -> Decimal elementwise, exact: Decimal(float) does not round
_EXACT_DECIMAL = np.frompyfunc(Decimal, 1, 1)


def _mpf_to_decimal(t: tuple) -> Decimal:
    """``man * 2**exp`` as a ``Decimal``, rounded once under the context."""
    sign, man, exp, _ = t
    if not man or abs(exp) > 65536:
        # zero, inf and nan; magnitudes far outside any double become the
        # double's 0 or inf instead of a shift by more than 65536 bits
        import mpmath as mp
        return Decimal(mp.libmp.to_float(t))
    # on mpmath's gmpy backend the mantissa is an mpz, which Decimal refuses
    man = -int(man) if sign else int(man)
    if exp >= 0:
        return Decimal(man << exp) / 1  # the division rounds to the context
    divisor = _DECIMAL_POW2.get(exp)
    if divisor is None:
        divisor = Decimal(1 << -exp)
        if len(_DECIMAL_POW2) < 1024:
            _DECIMAL_POW2[exp] = divisor
    return Decimal(man) / divisor


# exp -> 2**-exp as an exact Decimal: the same divisor as the int, converted
# once instead of on every division; at most 1024 entries bound its memory
_DECIMAL_POW2: dict = {}


def _decimal_digits(dps: int) -> int:
    """Smallest ``Decimal`` precision ``p`` with ``10**(1-p)/2 <= 2**-prec``.

    ``prec`` is mpmath's working precision in bits at ``dps`` digits
    (``mpmath.libmp.dps_to_prec``, computed here by its formula so that no
    ladder path needs mpmath for it), so a single rounding in the
    ``decimal`` context is never coarser than one in ``mp.workdps(dps)``.
    Complex multiply and divide in :class:`_DecimalArray` round every real
    product and sum, where mpmath rounds each part once, so they are not
    as tight as ``mpc`` arithmetic.  A block evaluator may work above this
    precision and round its values to it once, as remark 1's does with
    ``ceil(s log10 2)`` guard digits (3 on the ladder) for its ``s``
    squarings and double-angle steps.
    """
    prec = max(1, round((dps + 1) * 3.3219280948873626))
    p = 1
    while 10 ** (p - 1) < 2 ** (prec - 1):
        p += 1
    return p


def _refuse_coinciding(nodes) -> None:
    """Raise :class:`ConvergenceError` when two curves share a node in
    some grid column (equal nodes are neighbours in a sorted column)."""
    node_arr = np.sort(nodes.astype(complex), axis=0)
    if (np.abs(np.diff(node_arr, axis=0)) == 0.0).any():
        raise ConvergenceError("two curves coincide at a grid point")


def _float_columns(nodes: np.ndarray, values: np.ndarray, cols) -> Tuple:
    """Views of the float samples' nodes and values on the columns ``cols``."""
    return nodes[:, cols], values[:, cols]


def _mp_columns(f: RingFunction, curves: Sequence[DiscFunction],
                grid: np.ndarray, dps: int, cols: slice) -> Tuple:
    """Nodes ``phi_k(lam)`` and values ``f(lam, phi_k(lam))`` of an
    extended-precision ``f`` on the grid columns ``cols``, at ``dps``
    digits.

    With a ``block_evaluator``, everything stays in ``decimal``: the points
    ``grid[cols]`` enter exactly, the Horner steps of
    :meth:`DiscFunction.eval_mp` give the nodes (each coefficient enters
    exactly; each real product and sum rounds to the context),
    :func:`_refuse_coinciding` checks them, and one call of
    ``f.block_evaluator`` gives the block's values.  Otherwise mpmath
    evaluates the nodes by one Horner pass per curve over the points
    ``grid[cols]``, :func:`_refuse_coinciding` checks them before any value
    of the block is computed, and ``f.mp_evaluator`` is called once per grid
    column, with one ``lam`` and its ``K`` nodes; nodes and values are then
    converted from ``mpc``, each in one call.  Returns ``(nodes, values)``
    as ``(K, c)`` :class:`_DecimalArray` (call inside the ``decimal``
    context).  A node depends only on its grid point, so the nodes of a
    block are the same columns of the whole grid's, bit for bit.
    """
    if f.block_evaluator is not None:
        lam = _DecimalArray.from_complex(grid[cols])
        rows = [phi._horner(lam, _DecimalArray.from_complex) for phi in curves]
        nodes = _DecimalArray(np.array([row.re for row in rows]),
                              np.array([row.im for row in rows]))
        _refuse_coinciding(nodes)
        return nodes, f.block_evaluator(lam, nodes)
    import mpmath as mp
    with mp.workdps(dps):
        lam_mp = np.array([mp.mpc(x) for x in grid[cols]], dtype=object)
        mp_nodes = np.array([phi.eval_mp(lam_mp) for phi in curves],
                            dtype=object)
        nodes = _DecimalArray.from_mpc(mp_nodes)
        _refuse_coinciding(nodes)
        values = np.empty(mp_nodes.shape, dtype=object)
        for j, lam in enumerate(lam_mp):
            values[:, j] = f.mp_evaluator(lam, mp_nodes[:, j])
    return nodes, _DecimalArray.from_mpc(values)


def _divided_differences(nodes, values):
    """Newton divided-difference table of every column, shape ``(K, m)``.

    Row ``i`` depends only on the first ``i + 1`` nodes, so the table of the
    first ``k`` curves is its first ``k`` rows, and a column subset of the
    table is the table of that column subset.  Works on complex arrays and
    on :class:`_DecimalArray`.
    """
    # one step per order j: the right side reads only the old rows, so every
    # entry is the row-by-row recurrence's, bit for bit
    dd = values.copy()
    for j in range(1, len(dd)):
        dd[j:] = (dd[j:] - dd[j - 1:-1]) / (nodes[j:] - nodes[:-j])
    return dd


def _interp_prefixes(nodes, dd, n_keep: int,
                     sizes: Sequence[int]) -> List:
    """Taylor coefficients ``0 .. n_keep-1`` of the column interpolants.

    For each ``k`` in ``sizes``, returns an ``(n_keep, m)`` array whose
    column ``c`` holds the low coefficients of the polynomial through the
    first ``k`` points ``(nodes[i, c], values[i, c])``, from the table
    ``dd = _divided_differences(nodes, values)`` (``n_keep`` may not exceed
    its row count).  Each Newton form is converted to monomial form by
    Horner steps truncated to ``n_keep`` rows, which is exact because the
    degree-``d`` coefficient never depends on higher degrees.  One step per
    node updates all rows at once; each reads only old rows, so every entry
    is the row-by-row step's, bit for bit.
    """
    out = []
    for k in sizes:
        c = dd[:n_keep] * 0
        c[0] = dd[k - 1]
        for i in range(k - 2, -1, -1):
            c[1:] = c[:-1] - nodes[i] * c[1:]
            c[0] = dd[i] - nodes[i] * c[0]
        out.append(c)
    return out


def _ladder_block(columns_of: Callable, cols: slice, *, n_keep: int,
                  stride: int) -> Tuple[np.ndarray, ...]:
    """The ladder's column-wise work on the grid columns ``cols``.

    ``columns_of(cols)`` gives the ``(K, c)`` nodes and values of those
    columns.  From them come the divided-difference table, the ``n_keep``
    lowest coefficients of the interpolant through all ``K`` curves and,
    on the columns of the global stride ``stride`` (grid columns ``0,
    stride, 2 stride, ...``), those through the first K-2 and K-1 curves,
    and the level recursion on the last three curves.  Every step reads
    one grid column at a time, so a block's results are the same columns
    of the whole grid's, bit for bit.  Returns complex doubles only: the
    block's max ``|value|``, its ``(n_keep, c)`` coefficient samples, its
    two ``(min(n_keep, K - 2), s)`` estimate arrays and its
    ``(n_keep, 3, c)`` level rows.
    """
    nodes, values = columns_of(cols)
    kcurves = len(nodes)
    dd = _divided_differences(nodes, values)
    coeffs, = _interp_prefixes(nodes, dd, n_keep, [kcurves])
    sub = slice(-cols.start % stride, None, stride)
    estimates = _interp_prefixes(nodes[:, sub], dd[:, sub],
                                 min(n_keep, kcurves - 2),
                                 [kcurves - 2, kcurves - 1])
    coeff_samples = coeffs.astype(complex)
    levels = np.empty((n_keep, 3, coeff_samples.shape[1]), dtype=complex)
    level_values = values[-3:]
    for n in range(1, n_keep):
        level_values = (level_values - coeffs[n - 1]) / nodes[-3:]
        levels[n] = level_values.astype(complex)
    # each value becomes a double once: level row 0 and the scale read it.
    # Both last: taken first, the scale's temporaries made the allocator
    # fault in fresh pages for the float path's arrays on every ladder
    # (about 1,600 minor faults per ladder-float benchmark round against 2)
    float_values = values.astype(complex)
    levels[0] = float_values[-3:]
    return (np.abs(float_values).max(), coeff_samples,
            *(e.astype(complex) for e in estimates), levels)


# a forked block holds at least this many grid columns, so that the fork
# and the pipe stay small next to its extended-precision work
_MIN_BLOCK_COLUMNS = 64


def _cpu_count() -> int:
    """Number of CPUs this process may run on (Linux only)."""
    return len(os.sched_getaffinity(0))


def _block_bounds(m: int, forkable: bool) -> List[int]:
    """Column bounds of the ladder's blocks: ``[0, ..., m]``.

    One block per CPU, each of at least ``_MIN_BLOCK_COLUMNS`` columns,
    when ``forkable`` (the extended-precision path), on Linux and with no
    other Python thread: a fork copies only the calling thread, so a lock
    that another thread holds would stay locked in the child.  Otherwise
    the single block ``[0, m]``.
    """
    blocks = 1
    if forkable and sys.platform == "linux" and threading.active_count() == 1:
        blocks = max(1, min(_cpu_count(), m // _MIN_BLOCK_COLUMNS))
    return [m * i // blocks for i in range(blocks + 1)]


def _run_blocks(block: Callable[[slice], tuple],
                bounds: Sequence[int]) -> List[tuple]:
    """``block(slice(lo, hi))`` for each pair of consecutive ``bounds``.

    Block 0 runs in this process.  Each later block runs in a forked child,
    which sends its result, or the exception it raised, back through a
    pipe; the results come back in block order.  When a fork fails, that
    block and the ones after it run in this process, after the children.
    An exception is raised as the single-block run would raise it: block
    0's first, then the others' in block order.  Every exit from here, a
    return, an exception or ``KeyboardInterrupt``, kills and reaps every
    child.
    """
    slices = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    children: List[Tuple[int, int]] = []
    try:
        for cols in slices[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                os.close(read_fd)
                _block_child(block, cols, write_fd)
            children.append((pid, read_fd))
            os.close(write_fd)
        results = [block(slices[0])]
        for k, (_, read_fd) in enumerate(children, 1):
            with os.fdopen(read_fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            try:
                ok, result = pickle.loads(data)
            except Exception:
                raise ChildProcessError(
                    f"ladder block {k} ended without a result") from None
            if not ok:
                raise result
            results.append(result)
        return results + [block(cols) for cols in slices[1 + len(children):]]
    finally:
        # a child holds nothing to clean up, and one that already sent its
        # result is a zombie until reaped here, so its pid cannot be reused
        for pid, read_fd in children:
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
        for pid, _ in children:
            os.waitpid(pid, 0)


def _block_child(block: Callable[[slice], tuple], cols: slice,
                 write_fd: int) -> NoReturn:
    """Run one block in a forked child and send ``(ok, result)``.

    The child exits only through ``os._exit``: it must not return into
    the parent's stack, run its exit handlers or flush its buffers.  The
    block makes no BLAS, LAPACK or FFT call (``decimal`` arithmetic and
    elementwise numpy only), so no library thread pool is needed after the
    fork.  An exception that does not survive a pickle round trip is sent
    as a ``RuntimeError`` naming its type and text.
    """
    status = 1
    try:
        try:
            outcome = (True, block(cols))
        except Exception as exc:
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(
                    f"ladder block raised {type(exc).__module__}."
                    f"{type(exc).__qualname__}: {exc}")
            outcome = (False, exc)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


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
    coeffs = _coeffs_from_samples(rows)
    mags = np.abs(coeffs)
    rel = _CLEAN_REL_FLOOR * mags.max(axis=1)
    # Python's max(rel, abs_floor), NaN cases included
    floor = np.where(abs_floor > rel, abs_floor, rel)
    coeffs[mags < floor[:, None]] = 0.0
    coeffs.setflags(write=False)
    return coeffs, _minus_parts(coeffs)


def _match_allowance(pole: complex, mult: int, level: int,
                     zeros, pole_lines) -> bool:
    allowed = sum(level * l for a, l in zeros
                  if abs(pole - a) <= _MATCH_RADIUS)
    allowed += sum(bm for b, bm in pole_lines
                   if abs(pole - b) <= _MATCH_RADIUS)
    return 0 < allowed and mult <= allowed


def _stabilized_zero_sets(curves: Sequence[DiscFunction], radius: float):
    """The zeros in ``|lambda| <= radius`` of the last curve, once the last
    three curves agree on their count and stay within 0.1 of it.  Their
    zero sets are ``roots_in_disc(radius)`` of each, from one
    :func:`_roots_of_rows` call over their coefficient table."""
    rows = _coefficient_table(curves[-3:]).T
    zero_sets = [_zeros_in_disc(r, radius) for r in _roots_of_rows(rows)]
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


_COEFF_SPLIT_TEXTS = (
    "coefficient A_{n} is not rational with at most {budget} poles "
    "(rank {rank}, gap {gap:.2e})",
    "A_{n} carries {degree} poles, exceeding the budget n*N + M = {allowed}")
_LEVEL_SPLIT_TEXTS = (
    "level function f_{n},{k} is not rational within the pole budget "
    "{budget}",
    "pole count {degree} at level {n} exceeds the budget n*N + M = {allowed}")


def _split(psi: CircleFunction, texts: Tuple[str, str], n: int, allowed: int,
           eps: float, noise_floor: float,
           k: Optional[int] = None) -> RationalPart:
    """Rational part, with at most ``allowed`` poles, of the Hardy-minus
    part ``psi`` of ``A_n`` or of ``f_{n,k}``: zero when ``psi.sup_norm <=
    noise_floor``, else what :func:`detect_rational` finds with the budget
    ``max(1, allowed)``.  Its two refusals (not rational, too many poles)
    format the pair ``texts`` with ``n k budget allowed rank gap degree``.
    """
    if psi.sup_norm <= noise_floor:
        return RationalPart(poles=())
    fields = dict(n=n, k=k, budget=max(1, allowed), allowed=allowed)
    verdict = detect_rational(psi, fields["budget"], delta_pole=eps / 2.0)
    if not verdict.is_rational:
        raise ConvergenceError(texts[0].format(
            rank=verdict.rank, gap=verdict.gap, **fields))
    if verdict.rational.degree > allowed:
        raise ConvergenceError(texts[1].format(
            degree=verdict.rational.degree, **fields))
    return verdict.rational


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
    :func:`minus_part` of it.  A ring with a block or an mp evaluator is
    worked at ``max(40, 16 + 3K)`` digits for ``K`` curves.

    Each curve is sampled once on the ``m``-point grid and checked, in
    order, for its grid resolution (:class:`BandwidthError`),
    extendability and vanishing on the unit circle.  A :class:`DomainError`
    the evaluator raises while sampling curve ``k``, or a
    :class:`BandwidthError` of curve ``k``, starts with ``curve k: ``
    (zero-based), as in ``pinchext test``.

    The stages are module-level functions.  :func:`_ladder_block` does the
    column-wise work, in blocks of grid columns that :func:`_run_blocks`
    forks on the extended-precision path (the report does not depend on
    the block count); :func:`_split` takes the rational part of every
    ``A_n``, then of every level function.

    Raises :class:`ConvergenceError` when the data does not behave like a
    test-sequence scenario (unstable zeros or pole counts, non-converging
    estimates, pole budgets exceeded), and its subclass
    :class:`NotExtendableError` for a restriction that is not extendable.
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
    float_nodes, float_values = _sample_curves(f, curves, m, name)
    verdicts = []
    for idx, verdict in enumerate(_test_rows(float_values, n_max, eps, name)):
        if verdict.kind == "not-extendable":
            raise NotExtendableError(
                f"curve {idx} is not extendable with at most {n_max} poles; "
                "not a valid test-sequence scenario")
        verdicts.append(verdict)
        if float(np.abs(float_nodes[idx]).min()) <= _ZERO_TOLERANCE:
            raise CircleVanishingError(
                f"curve {idx} vanishes on the unit circle")
    if curves[-1].sup_bound > curves[0].sup_bound + 1e-12:
        raise ConvergenceError(
            "curves do not shrink toward the zero curve "
            "(pre-normalize via the coordinate change z -> z - phi_0)")

    zeros = _stabilized_zero_sets(curves, 1.0 - eps / 2.0)
    n_total = sum(l for _, l in zeros)
    raw_pole_lines, pole_lines = _stabilized_pole_lines(verdicts, zeros)
    m_total = sum(mult for _, mult in raw_pole_lines)
    if depth * n_total + m_total > MAX_POLE_BOUND:
        raise ConvergenceError(
            f"pole budget depth*N + M = {depth * n_total + m_total} exceeds "
            f"the supported bound {MAX_POLE_BOUND}")
    n_keep = depth + 1
    # level n may carry n*N + M poles, within the cap
    allowed = [n * n_total + m_total for n in range(n_keep)]

    dps = max(40, 16 + 3 * kcurves)
    stride = max(1, m // 64)
    extended = f.block_evaluator is not None or f.mp_evaluator is not None
    with decimal.localcontext(decimal.Context(prec=_decimal_digits(dps))):
        # without extended precision the ladder interpolates through the
        # float samples its extension tests read
        if extended:
            # each block evaluates and checks its own nodes, then its values
            columns_of = functools.partial(_mp_columns, f, curves, grid, dps)
        else:
            _refuse_coinciding(float_nodes)
            columns_of = functools.partial(_float_columns, float_nodes,
                                           float_values)
        # extraction, the estimates from the first K-2, K-1 curves and the
        # level rows, by blocks of grid columns (forked on the mp path)
        blocks = _run_blocks(
            functools.partial(_ladder_block, columns_of, n_keep=n_keep,
                              stride=stride),
            _block_bounds(m, extended))
    scales, *parts = zip(*blocks)
    # one block (the float path) is used as it is, without a copy
    coeff_samples, est_prev, est_last, levels = (
        part[0] if len(part) == 1 else np.concatenate(part, axis=-1)
        for part in parts)

    value_scale = float(np.max(scales))
    abs_floor = _CLEAN_ABS_FLOOR * max(value_scale, 1e-300)
    # below this sup norm a Hardy-minus part is taken as zero
    noise_floor = max(10 * abs_floor, 1e-13 * max(value_scale, 1.0))
    est_all = coeff_samples[:len(est_prev), ::stride]
    _check_convergence(est_prev, est_last, est_all, value_scale, ladder_tol)

    # cleaned coefficients, split into rational part + tail
    a_coeffs, a_minus = _clean_and_project(coeff_samples, abs_floor)
    entries: List[LadderEntry] = []
    for n in range(n_keep):
        rp = _split(a_minus[n], _COEFF_SPLIT_TEXTS, n, allowed[n], eps,
                    noise_floor)
        for pole, mult in rp.pole_list:
            if not _match_allowance(pole, mult, n, zeros, raw_pole_lines):
                raise ConvergenceError(
                    f"A_{n} has an unexpected pole at {pole} (mult {mult}); "
                    "poles must accumulate at curve zeros or extension poles")
        tail = np.trim_zeros(a_coeffs[n, m // 2:], "b").tolist()
        entries.append(LadderEntry(n=n, rational=rp, tail=tuple(tail)))

    # level functions f_{n,k} of the last three curves and their poles
    diagnostics = []
    for n, rows in enumerate(levels):
        cleaned = zip(*_clean_and_project(rows, abs_floor))
        for k, (row, psi) in enumerate(cleaned, kcurves - 3):
            rp = _split(psi, _LEVEL_SPLIT_TEXTS, n, allowed[n], eps,
                        noise_floor, k)
            diagnostics.append(LevelDiagnostic(n, k, row, rp.pole_list))

    # Python's pow: numpy's array power can differ in the last bit
    c_bound = float(np.max(np.abs(coeff_samples).max(axis=1)
                           * [(1.0 + eps) ** n for n in range(n_keep)]))
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
    ``|lam| = 1 - eps/4`` and ``|lam| = (1 - eps)/2``, off the poles).
    Each entry of the last three pairs is evaluated once on that grid, with
    the pole powers shared between entries.
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
    # each entry the last three pairs need, evaluated once
    used = sorted({n for pair in pairs[-3:] for n in pair})
    values = _entry_sums([ladder.entries[n] for n in used], grid)
    moduli = {n: np.abs(v) for n, v in zip(used, values)}
    ratios = []
    for n1, n2 in pairs[-3:]:
        v1, v2 = moduli[n1], moduli[n2]
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
                       lam: complex, z: complex) -> ExtensionValue:
    """Evaluate ``sum A_n(lam) z^n`` inside the pinched domain.

    The point must satisfy ``|z| < 0.9 * c * prod |lam - a_j|^{l_j}`` and
    stay more than 1e-2 off the pole lines.  The attached bound dominates
    the tail beyond ``depth`` via the coefficient estimates; it does not
    cover the error of the reconstructed ``A_0 .. A_depth``.

    Everything runs in plain Python ``complex`` and ``float`` arithmetic:
    all ``A_n`` come from one :func:`_entry_sums` call, and the domain
    radius and the distance products use Python's ``abs``, which may
    differ from numpy's in the last bit.  The value agrees with the array
    evaluation ``sum entry(lam) * z**n`` to a few ulps of
    ``sum |A_n(lam)| |z|^n``, the bound with the array formula's to a few
    ulps times its condition number in ``q``.

    Raises :class:`DomainError` for a ``lam`` or ``z`` that is not finite,
    for a point outside the domain or on a pole line, for a ``lam`` at a
    pole of some ``A_n`` (where a power ``(lam - a)**e`` is not computable
    in double precision), and when the sum is not finite or a power in it
    or in its bound overflows.
    """
    lam = complex(lam)
    z = complex(z)
    if not (cmath.isfinite(lam) and cmath.isfinite(z)):
        raise DomainError(f"({lam}, {z}) is not a finite point")
    try:
        return _evaluate_at(ladder, descriptor, lam, z)
    except OverflowError:
        raise DomainError(f"the extension at ({lam}, {z}) is not finite in "
                          "double precision") from None


def _evaluate_at(ladder: CoefficientLadder, descriptor: PinchDescriptor,
                 lam: complex, z: complex) -> ExtensionValue:
    """:func:`evaluate_extension` at a finite point, in plain Python; a sum
    that is not finite, or a power that overflows, raises
    ``OverflowError``."""
    radius = descriptor.c * _distance(lam, descriptor.pinches)
    if not abs(z) < 0.9 * radius:
        raise DomainError(
            f"({lam}, {z}) is outside the pinched domain with margin 0.9")
    for b in descriptor.pole_lines:
        if abs(lam - b) <= _POLE_LINE_EXCLUSION:
            raise DomainError(f"lambda = {lam} lies on the pole line at {b}")
    try:
        values = _entry_sums(ladder.entries, lam)
    except (ZeroDivisionError, OverflowError):
        raise DomainError(f"lambda = {lam} lies at a pole of a coefficient "
                          "A_n") from None

    value = 0j
    for entry, entry_value in zip(ladder.entries, values):
        value += entry_value * z ** entry.n
    if not cmath.isfinite(value):
        raise OverflowError

    prod_a = _distance(lam, ladder.zeros)
    prod_b = _distance(lam, ladder.pole_lines)
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
    return ExtensionValue(complex(value), float(bound))


def _distance(lam: complex, centers) -> float:
    """``prod |lam - a|^l`` over the pairs ``(a, l)`` in ``centers`` at one
    Python ``complex``, in Python floats (a power that overflows raises
    ``OverflowError``)."""
    return math.prod((abs(lam - a) ** l for a, l in centers), start=1.0)


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
    for entry, values in zip(ladder.entries,
                             _entry_sums(ladder.entries, grid)):
        n = entry.n
        prod_a = distance_product(grid, ladder.zeros, power=n)
        rhs = ladder.c_prime / (prod_a * prod_b * (1.0 + eps) ** n)
        lhs = np.abs(values)
        bad = lhs > rhs * (1.0 + _BOUND_SLACK)
        for idx in np.nonzero(bad)[0]:
            violations.append((n, complex(grid[idx]),
                               float(lhs[idx]), float(rhs[idx])))
    return tuple(violations)
