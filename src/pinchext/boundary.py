"""Sampled functions on the unit circle and their Fourier-side operators.

A :class:`CircleFunction` holds uniform samples of a complex function on
the unit circle ``|lambda| = 1`` together with the Laurent coefficients
``c_n`` (``n`` in ``[-M/2, M/2)``) recovered from the FFT of the samples.
The Hardy projection and the Hilbert transform act on the coefficients
as plain Fourier multipliers, which keeps the operator identities exact
to rounding.

Building a :class:`CircleFunction` costs about one FFT: the roots of
unity are a table cached per grid size and the ``fftshift`` is a swap of
array halves.  Other circles are sampled only as points, by
:func:`unit_circle_grid`.
Every Hardy-minus projection is the one stacked truncation ``_minus_parts``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .errors import BandwidthError, CircleVanishingError, ConvergenceError

__all__ = [
    "CircleFunction",
    "HardySplit",
    "hardy_project_minus",
    "hardy_split",
    "hilbert_transform",
    "winding_number",
    "effective_bandwidth",
    "require_resolved",
    "unit_circle_grid",
]

_MIN_SAMPLES = 16
_MAX_WINDING_GRID = 2 ** 16
_ZERO_TOLERANCE = 1e-9
_BANDWIDTH_REL_TOL = 1e-12


def _check_sample_count(m: int) -> None:
    if m < _MIN_SAMPLES:
        raise ValueError(f"need at least {_MIN_SAMPLES} samples, got {m}")
    if m & (m - 1):
        raise ValueError(f"sample count must be a power of two, got {m}")


def _half_swap(a: np.ndarray) -> np.ndarray:
    """Swap the two halves of the even-length last axis (``fftshift``).

    One row is one circle function; a stack of rows is swapped row by row.
    """
    h = a.shape[-1] // 2
    return np.concatenate((a[..., h:], a[..., :h]), axis=-1)


def _coeffs_from_samples(samples: np.ndarray) -> np.ndarray:
    """Centered Laurent coefficients of the samples on the last axis.

    Finite samples near the top of the double range can overflow in the
    sums of the transform; that raises ``FloatingPointError``.
    """
    m = samples.shape[-1]
    with np.errstate(over="raise", invalid="raise"):
        return _half_swap(np.fft.fft(samples) / m)


def _samples_from_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Samples of the centered Laurent coefficients on the last axis."""
    return np.fft.ifft(_half_swap(coeffs)) * coeffs.shape[-1]


@functools.lru_cache(maxsize=64)
def _roots_of_unity(m: int) -> np.ndarray:
    """Read-only ``exp(2 pi i k / m)``, ``k = 0 .. m - 1``."""
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    roots.setflags(write=False)
    return roots


def unit_circle_grid(m: int, radius: float = 1.0) -> np.ndarray:
    """Return the ``m`` uniform sample points ``r * exp(2 pi i k / m)``.

    The roots of unity are computed once per ``m`` and cached; each call
    returns a new writable array.
    """
    return radius * _roots_of_unity(m)


def pointwise(method):
    """Lift a method written for 1-d complex arrays to scalars and arrays.

    The point arguments are broadcast together and flattened; keyword
    arguments pass through.  Scalar or 0-d arguments give a Python
    ``complex`` or ``float``; any others give an array of the broadcast
    shape.
    """
    @functools.wraps(method)
    def wrapper(self, *points, **kwargs):
        pts = [np.asarray(p, dtype=complex) for p in points]
        shape = np.broadcast(*pts).shape
        flat = [(p if p.shape == shape else np.broadcast_to(p, shape)).ravel()
                for p in pts]
        out = method(self, *flat, **kwargs)
        return out[0].item() if not shape else out.reshape(shape)
    return wrapper


def distance_product(pts, centers, power: int = 1) -> np.ndarray:
    """``prod |pts - a|^(power * l)`` over the pairs ``(a, l)`` in ``centers``."""
    pts = np.asarray(pts, dtype=complex)
    out = np.ones(pts.shape)
    for a, l in centers:
        out *= np.abs(pts - a) ** (power * l)
    return out


class CircleFunction:
    """Complex function sampled uniformly on the unit circle.

    The samples at ``exp(2 pi i k / M)`` determine, via the FFT, the
    Laurent coefficients ``c_n`` of ``lambda^n`` for ``n in [-M/2, M/2)``.
    The constructor keeps a read-only copy of the samples.
    """

    __slots__ = ("_samples", "_coeffs")

    def __init__(self, samples: Sequence[complex]):
        samples = np.array(samples, dtype=complex)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        _check_sample_count(samples.size)
        self._set(samples, _coeffs_from_samples(samples))

    def _set(self, samples: np.ndarray, coeffs: np.ndarray) -> None:
        self._samples = samples
        self._coeffs = coeffs
        samples.setflags(write=False)
        coeffs.setflags(write=False)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_coefficients(cls, coeffs: Sequence[complex], *,
                          m: int | None = None) -> "CircleFunction":
        """Build from centered Laurent coefficients (mode ``-M/2`` first).

        When ``m`` is given the coefficient array is zero-padded (or must
        fit) into a grid of that size.
        """
        coeffs = np.asarray(coeffs, dtype=complex)
        size = coeffs.size if m is None else int(m)
        _check_sample_count(size)
        if coeffs.size > size:
            raise ValueError("coefficient array exceeds the requested grid")
        full = np.zeros(size, dtype=complex)
        half = coeffs.size // 2
        if coeffs.size % 2:
            raise ValueError("centered coefficient array must have even length")
        lo = size // 2 - half
        full[lo:lo + coeffs.size] = coeffs
        return cls._from_parts(_samples_from_coeffs(full), full)

    @classmethod
    def _from_parts(cls, samples: np.ndarray,
                    coeffs: np.ndarray) -> "CircleFunction":
        """Wrap matching samples and coefficients without a transform."""
        g = cls.__new__(cls)
        g._set(samples, coeffs)
        return g

    # -- basic accessors ----------------------------------------------

    @property
    def size(self) -> int:
        return self._samples.size

    @property
    def samples(self) -> np.ndarray:
        return self._samples

    @property
    def coeffs(self) -> np.ndarray:
        """Centered Laurent coefficients, modes ``-M/2 .. M/2 - 1``."""
        return self._coeffs

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.size // 2, self.size // 2)

    @property
    def sup_norm(self) -> float:
        return float(np.abs(self._samples).max())

    @property
    def min_modulus(self) -> float:
        return float(np.abs(self._samples).min())

    def resample(self, m: int) -> "CircleFunction":
        """Band-limited resampling of the interpolant on a finer grid."""
        if m == self.size:
            return self
        return CircleFunction.from_coefficients(self._coeffs, m=m)

    # -- arithmetic (pointwise on a shared grid) ------------------------

    def _check_compatible(self, other: "CircleFunction") -> None:
        if self.size != other.size:
            raise ValueError("grid sizes differ")

    def __add__(self, other: "CircleFunction") -> "CircleFunction":
        self._check_compatible(other)
        return CircleFunction(self._samples + other._samples)

    def __sub__(self, other: "CircleFunction") -> "CircleFunction":
        self._check_compatible(other)
        return CircleFunction(self._samples - other._samples)

    def __mul__(self, other):
        if isinstance(other, CircleFunction):
            self._check_compatible(other)
            return CircleFunction(self._samples * other._samples)
        return CircleFunction(self._samples * complex(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CircleFunction(m={self.size}, sup={self.sup_norm:.3e})"


@dataclass(frozen=True)
class HardySplit:
    """Orthogonal decomposition ``g = plus + minus`` into Hardy parts."""

    plus: CircleFunction
    minus: CircleFunction


def _minus_parts(coeffs: np.ndarray) -> List[CircleFunction]:
    """Hardy-minus part of each row of centered coefficients, at one
    stacked inverse FFT, with row-by-row bits."""
    minus = coeffs.copy()
    minus[:, coeffs.shape[1] // 2:] = 0
    samples = _samples_from_coeffs(minus)
    return [CircleFunction._from_parts(s, c) for s, c in zip(samples, minus)]


def hardy_project_minus(g: CircleFunction) -> CircleFunction:
    """Projection ``P`` onto the Hardy-minus space (modes ``n < 0``).

    ``P(g)`` vanishes exactly when ``g`` extends holomorphically to the
    unit disc; it is the one-row case of the stacked mode truncation.
    """
    minus, = _minus_parts(g.coeffs[None])
    return minus


def hardy_split(g: CircleFunction) -> HardySplit:
    """Split ``g`` into its Hardy-plus and Hardy-minus parts."""
    minus = hardy_project_minus(g)
    plus = g.coeffs.copy()
    plus[:g.size // 2] = 0
    return HardySplit(plus=CircleFunction.from_coefficients(plus),
                      minus=minus)


def hilbert_transform(g: CircleFunction) -> CircleFunction:
    """Hilbert transform ``S``: multiplier ``+1`` on modes ``n >= 0`` and
    ``-1`` on ``n < 0`` (equivalently ``-2P + id``)."""
    m = g.size
    coeffs = g.coeffs.copy()
    coeffs[:m // 2] *= -1.0
    return CircleFunction.from_coefficients(coeffs)


def winding_number(g: CircleFunction) -> int:
    """Winding number of ``g`` around zero along the unit circle.

    The net change of ``arg(g)`` is accumulated over the sample grid; the
    grid is refined (doubling, synthesizing from the coefficients) until
    every consecutive argument increment is below ``pi/2``.

    Raises
    ------
    CircleVanishingError
        if ``min |g|`` over the samples falls below 1e-9.
    ConvergenceError
        if the refinement does not settle by grid size ``2**16``.
    """
    m = g.size
    while True:
        h = g if m == g.size else g.resample(m)
        if h.min_modulus <= _ZERO_TOLERANCE:
            raise CircleVanishingError(
                f"function modulus {h.min_modulus:.3e} below tolerance "
                f"{_ZERO_TOLERANCE:.1e} on the circle; winding undefined")
        s = h.samples
        increments = np.angle(np.roll(s, -1) / s)
        if np.abs(increments).max() < 0.5 * np.pi:
            total = increments.sum() / (2.0 * np.pi)
            w = int(round(total))
            if abs(total - w) > 0.25:
                raise ConvergenceError(
                    f"argument variation {total:.6f} is not close to an integer")
            return w
        if m >= _MAX_WINDING_GRID:
            raise ConvergenceError(
                f"winding refinement did not settle by grid size {m}")
        m *= 2


def effective_bandwidth(g: CircleFunction) -> int:
    """Largest ``|n|`` carrying a coefficient above ``1e-12 * max |c|``."""
    mags = np.abs(g.coeffs)
    top = mags.max()
    if top == 0.0:
        return 0
    sig = mags > _BANDWIDTH_REL_TOL * top
    if not sig.any():
        return 0
    return int(np.abs(g.modes[sig]).max())


def require_resolved(g: CircleFunction) -> None:
    """Aliasing guard: require grid ``M >= 4 B`` for bandwidth ``B``."""
    b = effective_bandwidth(g)
    if 4 * b > g.size:
        raise BandwidthError(
            f"effective bandwidth {b} needs a grid of at least {4 * b} "
            f"points, got {g.size}")

