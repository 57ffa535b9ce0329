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

The evaluators are vectorized: ``lam`` and ``z`` broadcast together, one
call evaluates a whole array (the ring adapters hand over whole
restriction grids), and scalars give a Python ``complex``.
``remark1_eval`` is the remark-1 ring's evaluator; ``example1_eval``,
``example2_eval`` and ``gallery_eval`` wrap the rings' evaluators.
For the ladder's extended precision, each ring has a ``block_evaluator``
that evaluates a block of ladder grid columns in C ``decimal``.  Remark
1's takes ``1/lambda`` once per column and, at ``w = x + iy = z /
lambda``, splits each part as ``j / 256 + k / 65536 + r``, looks up
``e``, ``cos`` and ``sin`` at ``j / 256`` and at ``k / 65536`` in two
tables built once per working precision, and sums short Taylor series
of ``e^r``, ``cos r`` and ``sin r`` at the remainders ``|r| <= 1.01 /
131072`` (the table-driven reduction of P. T. P. Tang, ACM TOMS 15(2),
1989).  It
makes no squaring while ``|Re w|`` and ``|Im w|`` stay below 1.01, as on
every ladder block, and works with guard digits and one final rounding,
within about 5e-54 relative of ``exp(z / lambda)`` at 54 digits (the
ladder's at ``dps`` 52).  Example 1's sums each node until its term bound
falls below the context's precision or its product is exactly 0
(:meth:`Example1.eval_block`), and example 2's runs the Horner loop of
its float evaluator to depth 40.  mpmath is imported only by
:func:`example1_growth_probe`, so no ladder loads it.
"""

from __future__ import annotations

import decimal
import functools
import math
from dataclasses import dataclass
from decimal import Decimal
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .boundary import CircleFunction, pointwise, unit_circle_grid
from .errors import ConvergenceError
from .extension import RingFunction, _DecimalArray
from .rational import RationalPart, rational_to_circle

__all__ = [
    "Example1",
    "Example2",
    "GrowthSample",
    "example1_eval",
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
_SERIES_DEPTH = 40
_EXAMPLE2_MAX_DEPTH = 171  # P_l needs l! as a float, which fits to l = 170


def _term_log_bound(n: int, log_inv_eps):
    """``log`` of the bound ``3^{-4n^3-n} (1/eps_d)^{1.5 (n^2+n)}`` on
    term ``n`` of example 1, from ``log(1 / eps_d)``."""
    return -(4 * n ** 3 + n) * _LOG3 + 1.5 * (n * n + n) * log_inv_eps


def _log_inv_eps(lam: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``log(1 / eps_d)`` of example 1's term bound at each point, with
    ``eps_d = min(|lam|, 1/|lam|, 0.33, 1/(3|z|))``."""
    a = np.abs(lam)
    eps_d = np.minimum(np.minimum(a, 1.0 / a), 0.33)
    with np.errstate(divide="ignore"):  # z = 0 gives inf: no constraint
        eps_d = np.minimum(eps_d, 1.0 / (3.0 * np.abs(z)))
    return np.log(1.0 / eps_d)


def _term_bound(n: int, log_inv_eps) -> np.ndarray:
    """The bound of :func:`_term_log_bound` as an array, ``inf`` past
    ``e^700``."""
    log_bound = _term_log_bound(n, log_inv_eps)
    return np.where(log_bound > 700.0, np.inf, np.exp(np.minimum(log_bound, 700.0)))


class Example1:
    """Series evaluator with adaptive truncation (default depth 40)."""

    def __init__(self, n_trunc: int = _SERIES_DEPTH):
        self.n_trunc = int(n_trunc)

    @pointwise
    def __call__(self, lam, z, *, n_trunc: Optional[int] = None):
        """Partial sums to ``n_trunc`` (default: the configured depth).

        ``lam`` and ``z`` broadcast together; scalars give a ``complex``.
        Each point sums its terms until their bound (from the point's own
        ``eps_d``) drops below ``1e-18 * max(1, |s|)``, where ``|s|`` is
        the largest modulus of the point's partial sums so far.
        The value at the configured depth must be certifiable at every
        point: the normal-convergence tail bound past ``self.n_trunc`` has
        to fall below 1e-12, else :class:`ConvergenceError` is raised for
        the first such point in ravel order (at depth 40 this bites only for
        astronomically small or large ``|lambda|`` or large ``|z|``).  A
        point whose tail bound is infinite can never be certified, so its
        terms are not summed.  A term whose factors overflow doubles (for
        example at ``lambda = 1e-8, z = 0.1``) raises
        :class:`FloatingPointError`.
        """
        if (lam == 0).any():
            raise ValueError("example 1 is undefined at lambda = 0")
        depth = self.n_trunc if n_trunc is None else int(n_trunc)
        log_inv_eps = _log_inv_eps(lam, z)
        tail = 2.0 * _term_bound(self.n_trunc + 1, log_inv_eps)
        total = np.zeros_like(lam)
        scale = np.ones(lam.shape)
        step = (2.0 / 3.0) * lam
        live = np.flatnonzero(tail < np.inf)
        # while every point sums, a full slice: views, no gathers or scatters
        at = slice(None) if live.size == lam.size else live
        for n in range(1, depth + 1):
            stop = _term_bound(n, log_inv_eps[at]) < 1e-18 * scale[at]
            if stop.any():
                at = live = live[~stop]
            if not live.size:
                break
            c, zl = step[at], z[at]
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                w = c
                prod = zl - w
                for _ in range(2, n + 1):
                    w = w * c
                    prod = prod * (zl - w)
                total[at] += (3.0 ** (-4 * n ** 3) * prod * lam[at] ** (-n * n)
                              * zl ** n)
            scale[at] = np.fmax(scale[at], np.abs(total[at]))
        failed = np.flatnonzero(~(tail < 1e-12 * np.fmax(1.0, np.abs(total))))
        if failed.size:
            raise ConvergenceError(
                f"truncation error bound {tail[failed[0]]:.3e} at series depth "
                f"{self.n_trunc} cannot certify the value at this point")
        return total

    def eval_block(self, lam: _DecimalArray,
                   nodes: _DecimalArray) -> _DecimalArray:
        """The series on a ladder block, in C ``decimal``, node by node.

        ``lam`` holds the block's ``(c,)`` grid points and ``nodes`` its
        ``(K, c)`` curve nodes.  Term ``n`` of a node is summed while its
        bound (:func:`_term_log_bound` at :func:`_log_inv_eps` of the
        node's doubles, as in ``__call__``) is at least ``2**-(prec +
        64)`` times the node's partial sum, ``prec`` the context's
        precision in bits, for at most ``n_trunc`` terms.  The comparison
        is made between logarithms, so no bound underflows, and a zero
        partial sum never stops the sum by its bound.  Term ``n`` is the
        product ``prod_{j<=n} z (z - w_j)``, with ``w_j = ((2/3)
        lam)**j``, which grows by one factor per term, times
        ``lam**(-n*n) / 3**(4n^3)`` of its column.  A node stops once its
        product is exactly 0 (at ``z = 0``, whose value is exactly 0), since
        every later term is then 0.  A value depends only on its own node
        and column, so the bits do not depend on the blocks.
        """
        log_inv_eps = _log_inv_eps(lam.astype(complex),
                                   nodes.astype(complex)).ravel()
        log_tol = -(decimal.getcontext().prec * math.log(10.0)
                    + 64 * math.log(2.0))
        z = _DecimalArray(nodes.re.ravel(), nodes.im.ravel())
        total = z * 0
        live = np.arange(len(z))  # flat indices of the nodes still summing
        step = lam * (Decimal(2) / 3)
        w, prod = step * 0 + 1, z * 0 + 1
        for n in range(1, self.n_trunc + 1):
            with np.errstate(divide="ignore"):  # log 0 = -inf never stops
                log_sum = np.log(np.abs(total[live].astype(complex)))
            keep = _term_log_bound(n, log_inv_eps[live]) >= log_tol + log_sum
            # a zero product (z = 0) makes every later term 0
            keep &= (prod.re != 0) | (prod.im != 0)
            if not keep.all():
                live, z, prod = live[keep], z[keep], prod[keep]
                if not live.size:
                    break
            w = w * step
            cols = live % len(lam)
            prod = prod * (z - w[cols]) * z
            weight = lam ** (-n * n) * Decimal(3) ** (-4 * n ** 3)
            total[live] = total[live] + prod * weight[cols]
        return _DecimalArray(total.re.reshape(nodes.re.shape),
                             total.im.reshape(nodes.im.shape))


_EXAMPLE1 = Example1()


def example1_eval(lam: complex, z: complex,
                  n_trunc: int = _SERIES_DEPTH) -> complex:
    """Partial sum of the example-1 series at one point."""
    return _EXAMPLE1(lam, z, n_trunc=n_trunc)


@dataclass(frozen=True)
class GrowthSample:
    m: int
    lam: float
    value: object          # mpf; far below float range near lambda = 0
    ratios: Tuple[object, ...]  # value * lam^p for p = 1..6


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

    import mpmath as mp
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


def _check_example2_depth(depth: int) -> None:
    if depth > _EXAMPLE2_MAX_DEPTH:
        raise ValueError(f"example 2's series depth must be at most "
                         f"{_EXAMPLE2_MAX_DEPTH} (1/l! of P_l overflows "
                         f"past l = 170), got {depth}")


class Example2:
    """Series ``sum_{l>=1} P_{l-1}(z) lam^{-l}`` with interpolated ``P_l``.

    ``P_l`` is the monic polynomial with zeros ``z_0 .. z_l`` rescaled so
    that its supremum on ``|z| = 1``, sampled at 256 points, equals
    ``1/l!``; the zero sequence is ``z_k = 1/(k+2)``.  The pairing of
    ``P_{l-1}`` with ``lam^{-l}`` makes the restriction to ``z = z_k``
    rational with a pole of order exactly ``k`` at the origin.
    """

    def __init__(self):
        self._sup_grid = unit_circle_grid(256)
        self._p_cache: Dict[int, np.ndarray] = {}

    def z(self, k: int) -> complex:
        return complex(1.0 / (k + 2))

    def p_coeffs(self, l: int) -> np.ndarray:
        """Ascending coefficients of ``P_l`` (degree ``l + 1``); ``l`` past
        170, a series depth ``l + 1`` past 171, raises ``ValueError``."""
        _check_example2_depth(l + 1)
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

    @pointwise
    def __call__(self, lam, z, *, l_trunc: int = _SERIES_DEPTH):
        """Partial sums to ``l_trunc``; ``lam`` and ``z`` broadcast together.

        A term overflow raises :class:`FloatingPointError`; a depth past
        171, ``ValueError``.
        """
        _check_example2_depth(l_trunc)
        if (lam == 0).any():
            raise ValueError("example 2 is undefined at lambda = 0")
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return self._series(lam, z, l_trunc, np.zeros_like(lam))

    def _series(self, lam, z, depth: int, total):
        """``total`` plus the terms ``1 .. depth``, each ``P_{l-1}(z)`` by
        Horner in numpy ``polyval``'s order: on complex arrays or on
        :class:`_DecimalArray` blocks."""
        for l in range(1, depth + 1):
            p = 0 * z
            for c in reversed(self.p_coeffs(l - 1)):
                p = p * z + c
            total += p * lam ** (-l)
        return total

    def restriction(self, k: int, m: int = 256) -> CircleFunction:
        """Boundary values of ``f(., z_k)`` from the exact coefficients.

        The series truncates: only ``lam^{-1} .. lam^{-k}`` survive, so the
        restriction is exactly rational with a pole of order ``k`` at 0.
        The top coefficients are heavily graded (they collapse like the
        factorial-scaled spacing products), so rational detection on this
        data should run with a tightened tail floor (around 1e-15).  As for
        every rational part, modes past ``lam^{-m/2}`` are cut at the grid
        bandwidth.  ``k`` past 171 raises ``ValueError``, as that series
        depth does.
        """
        _check_example2_depth(k)
        coeffs = tuple(self.p_eval(l - 1, self.z(k)) for l in range(k, 0, -1))
        return rational_to_circle(
            RationalPart(poles=((0j, coeffs),) if k else ()), m)


_EXAMPLE2 = Example2()


def example2_eval(lam: complex, z: complex,
                  l_trunc: int = _SERIES_DEPTH) -> complex:
    return _EXAMPLE2(lam, z, l_trunc=l_trunc)


def example2_restriction(k: int, m: int = 256) -> CircleFunction:
    return _EXAMPLE2.restriction(k, m)


def remark1_eval(lam, z):
    """``exp(z / lambda)``; ``lam`` and ``z`` broadcast together, scalars
    give a ``complex``, ``lambda = 0`` raises ``ValueError`` and a double
    overflow :class:`FloatingPointError`."""
    lam = np.asarray(lam, dtype=complex)
    if (lam == 0).any():
        raise ValueError("exp(z/lambda) is undefined at lambda = 0")
    with np.errstate(over="raise", invalid="raise"):
        out = np.exp(np.asarray(z, dtype=complex) / lam)
    return complex(out) if out.ndim == 0 else out


# remark 1's kernel splits each part of w = z / lambda as j / 256 +
# k / 65536 + r
_REMARK1_CELLS = 256
_REMARK1_FINE_CELLS = _REMARK1_CELLS * _REMARK1_CELLS
# past this |Re w| or |Im w|, exp(w) halves w and squares back
_REMARK1_ARG_SLACK = 1.01
# the table's largest |j|: 256 |Re w| and 256 |Im w| stay below 258.56
_REMARK1_REACH = math.ceil(_REMARK1_CELLS * _REMARK1_ARG_SLACK)
# the fine table's largest |k|: 65536 times a remainder of at most 1.01 / 512
_REMARK1_FINE_REACH = math.ceil(_REMARK1_FINE_CELLS * _REMARK1_ARG_SLACK
                                / (2 * _REMARK1_CELLS))
# digits above the context that absorb the tables', the series' and the
# products' roundings, before those of any squarings
_REMARK1_GUARD = 2


@functools.lru_cache(maxsize=None)
def _remark1_series(prec: int, bound: float
                    ) -> Tuple[Tuple[Decimal, ...], ...]:
    """Taylor coefficients of ``exp(t)``, ``cos(t)`` and ``sin(t) / t``
    (the last two in ``t**2``), rounded to ``prec`` digits.

    Each series stops at its first term below ``10**-prec`` for ``|t| <=
    bound``: ``1.01 / 131072`` in :func:`_remark1_block`, which gives 10,
    5 and 5 terms at its 56 digits, and one table step (``1 / 256`` or
    ``1 / 65536``) in :func:`_step_table`.
    """
    log_t = math.log10(bound)
    count = 1
    while count * log_t - math.lgamma(count + 1) / math.log(10) >= -prec:
        count += 1
    with decimal.localcontext(decimal.Context(prec=prec)):
        inv = [Decimal(1) / math.factorial(k) for k in range(count + 1)]
        # the signs of cos and sin: + + - - + + ...
        signed = [c if k % 4 < 2 else -c for k, c in enumerate(inv)]
    return tuple(inv[:count]), tuple(signed[0:count:2]), \
        tuple(signed[1:count + 1:2])


def _horner(coeffs: Sequence[Decimal], t):
    """``sum coeffs[k] * t**k`` by Horner's rule, elementwise."""
    total = coeffs[-1]
    for c in coeffs[-2::-1]:
        total = total * t + c
    return total


def _step_table(prec: int, cells: int, reach: int) -> Tuple[np.ndarray, ...]:
    """``j / cells``, ``e^(j/cells)``, ``cos(j/cells)`` and
    ``sin(j/cells)`` for ``|j| <= reach``, as ``object`` arrays indexed by
    ``j + reach``.

    The work runs 4 digits above ``prec``: the series of
    :func:`_remark1_series` at ``1/cells`` and ``-1/cells`` give the
    steps, repeated products give ``e^(j/cells)``, and the angle-addition
    steps ``cos(a + t) = cos a cos t - sin a sin t``, ``sin(a + t) = sin a
    cos t + cos a sin t`` give the rest (every angle is in ``[0, 1.02)``,
    so no sum cancels).  Each step adds at most a few units of the work's
    last digit, so the ``reach`` steps (at most 259) stay well below one
    unit of ``prec`` digits, and each entry is rounded once to ``prec``
    digits: within one unit of its last digit.  ``j / cells`` is exact.
    """
    with decimal.localcontext(decimal.Context(prec=prec + 4)):
        exp_c, cos_c, sin_c = _remark1_series(prec + 4, 1 / cells)
        t = Decimal(1) / cells
        up, down = _horner(exp_c, t), _horner(exp_c, -t)
        cos_t, sin_t = _horner(cos_c, t * t), _horner(sin_c, t * t) * t
        ups, downs = [Decimal(1)], [Decimal(1)]
        cos, sin = [Decimal(1)], [Decimal(0)]
        for _ in range(reach):
            ups.append(ups[-1] * up)
            downs.append(downs[-1] * down)
            cos.append(cos[-1] * cos_t - sin[-1] * sin_t)
            sin.append(sin[-1] * cos_t + cos[-2] * sin_t)
    with decimal.localcontext(decimal.Context(prec=prec)):
        columns = (
            [Decimal(j) / cells for j in range(-reach, reach + 1)],
            [+v for v in downs[:0:-1] + ups],
            [+v for v in cos[:0:-1] + cos],
            [-v for v in sin[:0:-1]] + [+v for v in sin])
    return tuple(np.array(column, dtype=object) for column in columns)


@functools.lru_cache(maxsize=None)
def _remark1_table(prec: int) -> Tuple[np.ndarray, ...]:
    """The table at steps of 1/256 for ``|j| <= 259``
    (:func:`_step_table`), indexed by ``j + 259``."""
    return _step_table(prec, _REMARK1_CELLS, _REMARK1_REACH)


@functools.lru_cache(maxsize=None)
def _remark1_fine_table(prec: int) -> Tuple[np.ndarray, ...]:
    """The table at steps of 1/65536 for ``|k| <= 130``
    (:func:`_step_table`), indexed by ``k + 130``."""
    return _step_table(prec, _REMARK1_FINE_CELLS, _REMARK1_FINE_REACH)


def _cells_of(part: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Table indices ``j + 259`` and ``k + 130`` of the doubles ``part``:
    ``j`` the nearest integer to ``256 part`` and ``k`` the nearest one to
    ``65536 (part - j / 256)``, so ``|part - j/256 - k/65536| <= 1 /
    131072``.  Both products are exact, and so is the difference (``part``
    lies within 1/512 of ``j / 256``)."""
    j = np.rint(part * _REMARK1_CELLS)
    k = np.rint((part - j / _REMARK1_CELLS) * _REMARK1_FINE_CELLS)
    return (j.astype(np.intp) + _REMARK1_REACH,
            k.astype(np.intp) + _REMARK1_FINE_REACH)


def _remark1_block(lam: _DecimalArray, nodes: _DecimalArray) -> _DecimalArray:
    """``exp(z / lambda)`` on a ladder block, in C ``decimal``.

    ``lam`` holds the block's ``(c,)`` grid points and ``nodes`` its
    ``(K, c)`` curve nodes.  ``1/lambda`` is taken once per column and
    ``w = x + iy = z * (1/lambda)``.  Each part is split as ``j / 256 +
    k / 65536 + r`` (:func:`_cells_of`), from the doubles
    ``nodes.astype(complex) / lam.astype(complex)`` (the doubles the
    nodes' collision check already made), so ``|r| <= 1.01 / 131072``;
    then ``e^x = e^(j/256) e^(k/65536) e^r``, and ``cos y``, ``sin y``
    come from the tables at ``j / 256`` (:func:`_remark1_table`) and ``k /
    65536`` (:func:`_remark1_fine_table`) and the Taylor series of ``cos
    r``, ``sin r`` by two angle-addition steps.  No squaring is made while
    ``|Re w|`` and ``|Im w|`` stay below 1.01, as on the ladder's grid
    (``|w| <= 1 + 1e-9``).  Past that, ``w`` is halved ``s`` times, ``s``
    the exponent of the block's largest part over 1.01 (``math.frexp``),
    and the value is squared ``s`` times as a complex number; each
    squaring at most doubles the relative error.  The work runs 2 guard
    digits above the context's precision, and ``ceil(s log10 2)`` more;
    the two final products round once to the context.  While ``s`` is 0 a
    value depends only on its own node and column, so the bits do not
    depend on the blocks.
    """
    approx = nodes.astype(complex) / lam.astype(complex)
    largest = max(np.abs(approx.real).max(), np.abs(approx.imag).max())
    s = max(0, math.frexp(largest / _REMARK1_ARG_SLACK)[1])
    with decimal.localcontext() as work:
        work.prec += _REMARK1_GUARD + math.ceil(s * math.log10(2.0))
        offset, exp_j, cos_j, sin_j = _remark1_table(work.prec)
        fine, exp_k, cos_k, sin_k = _remark1_fine_table(work.prec)
        exp_c, cos_c, sin_c = _remark1_series(
            work.prec, _REMARK1_ARG_SLACK / (2 * _REMARK1_FINE_CELLS))
        a, b = lam.re, lam.im
        den = a * a + b * b
        w = nodes * _DecimalArray(a / den, -b / den)
        if s:
            w, approx = w * (Decimal(1) / (1 << s)), approx * 0.5 ** s
        (jx, kx), (jy, ky) = _cells_of(approx.real), _cells_of(approx.imag)
        # each array goes once it is used: this kernel's live arrays would
        # otherwise set the memory peak of a ladder block
        exp_x = exp_j[jx] * exp_k[kx] * _horner(
            exp_c, w.re - offset[jx] - fine[kx])
        ry = w.im - offset[jy] - fine[ky]
        del w
        ry2 = ry * ry
        cos_r, sin_r = _horner(cos_c, ry2), _horner(sin_c, ry2) * ry
        del ry, ry2
        # the angle j/256 + k/65536 first, then r
        cos_a, sin_a, cos_b, sin_b = cos_j[jy], sin_j[jy], cos_k[ky], sin_k[ky]
        cos_a, sin_a = (cos_a * cos_b - sin_a * sin_b,
                        sin_a * cos_b + cos_a * sin_b)
        del cos_b, sin_b
        cos_y = cos_a * cos_r - sin_a * sin_r
        sin_y = sin_a * cos_r + cos_a * sin_r
        del cos_r, sin_r
        if s:
            value = _DecimalArray(exp_x * cos_y, exp_x * sin_y)
            for _ in range(s):
                value = value * value
            exp_x, cos_y, sin_y = Decimal(1), value.re, value.im
    return _DecimalArray(exp_x * cos_y, exp_x * sin_y)


def remark1_ring(epsilon: float = 0.3) -> RingFunction:
    return RingFunction(evaluator=remark1_eval, epsilon=epsilon,
                        block_evaluator=_remark1_block)


def example1_ring(epsilon: float = 0.3) -> RingFunction:
    return RingFunction(evaluator=_EXAMPLE1, epsilon=epsilon,
                        block_evaluator=_EXAMPLE1.eval_block)


def example2_ring(epsilon: float = 0.3) -> RingFunction:
    return RingFunction(evaluator=_EXAMPLE2, epsilon=epsilon,
                        block_evaluator=lambda lam, nodes: _EXAMPLE2._series(
                            lam, nodes, _SERIES_DEPTH, nodes * 0))


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
                 trunc: int = _SERIES_DEPTH) -> complex:
    """Point evaluation of a gallery function by CLI name."""
    return _gallery_entry(name)[1](lam, z, trunc)
