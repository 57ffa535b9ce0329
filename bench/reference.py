"""A fixed reference computation that measures the host's current speed.

The host this benchmark was tuned on changes speed by up to 2x within
minutes, for every process on it, so raw wall times of the same code
spread far beyond any useful regression bound.  The benchmark times this
reference next to the work it measures and scales the work's wall time
by ``REF_NOMINAL_S / reference time``.  The reference mixes the two
kinds of work pinchext does, pure-Python complex arithmetic (as in
mpmath and the scalar evaluators) and small numpy calls (roots,
polynomial evaluation, FFT), and calls no pinchext code, so no change to
pinchext can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_NOMINAL_S = 0.03
REF_SAMPLES = 5

_RNG = np.random.default_rng(0)
_POLYS = [_RNG.standard_normal(7) + 1j * _RNG.standard_normal(7)
          for _ in range(64)]
_GRID = np.exp(2j * np.pi * np.arange(256) / 256)


def reference_once() -> float:
    """Seconds for one pass of the reference computation."""
    start = time.perf_counter()
    acc = 0j
    for i in range(40000):
        z = complex(i * 1e-5, 0.5)
        acc += (((0.3 * z + 0.2j) * z + 0.1) * z - 0.4j) * z + 1.0
    for coeffs in _POLYS:
        np.roots(coeffs)
        np.fft.fft(np.polynomial.polynomial.polyval(_GRID, coeffs))
    return time.perf_counter() - start


def reference_samples(count: int = REF_SAMPLES) -> list:
    return [reference_once() for _ in range(count)]


def scale(wall_s: float, refs: list) -> float:
    """Wall time rescaled to a host on which the reference takes
    ``REF_NOMINAL_S``."""
    return wall_s * REF_NOMINAL_S / statistics.median(refs)
