import numpy as np
import pytest

from pinchext import CircleFunction, RationalPart, unit_circle_grid


def random_laurent_coeffs(rng, bandwidth, m):
    """Centered coefficient array with random modes in [-bandwidth, bandwidth]."""
    coeffs = np.zeros(m, dtype=complex)
    for n in range(-bandwidth, bandwidth + 1):
        coeffs[n + m // 2] = rng.standard_normal() + 1j * rng.standard_normal()
    return coeffs


def random_laurent_function(rng, bandwidth=64, m=256):
    return CircleFunction.from_coefficients(
        random_laurent_coeffs(rng, bandwidth, m))


def _hankel_margin(rp):
    """Relative singular value carrying the last unit of Hankel rank."""
    s_dim = 12
    h = rp.laurent_tail(2 * s_dim)
    hank = h[np.add.outer(np.arange(s_dim), np.arange(s_dim))]
    sig = np.linalg.svd(hank, compute_uv=False)
    return sig[rp.degree - 1] / sig[0]


def random_rational_part(rng, max_degree=8, disc_radius=0.8,
                         max_mult=3, min_sep=0.15):
    """Random principal-part sum with well-separated poles in the disc.

    The draw is filtered for numerical resolvability: multiple poles stay
    away from the origin (an m-fold pole at a contributes Hankel data
    graded like powers of |a|) and instances whose genuine rank sits
    below 50x the detection threshold are redrawn - their pole structure
    is not present in the coefficients at working precision.
    """
    for _ in range(100):
        poles = []
        total = 0
        while total < max_degree:
            mult = int(rng.integers(1, max_mult + 1))
            if total + mult > max_degree:
                mult = max_degree - total
            lo = 0.1 if mult == 1 else 0.35
            sep = min_sep if mult == 1 else 2 * min_sep
            for _ in range(200):
                a = (rng.uniform(lo, disc_radius)
                     * np.exp(2j * np.pi * rng.uniform()))
                if all(abs(a - b) >= sep for b, _ in poles):
                    break
            else:
                break
            coeffs = tuple(
                rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
                for _ in range(mult))
            poles.append((a, coeffs))
            total += mult
            if rng.uniform() < 0.4:
                break
        rp = RationalPart(poles=tuple(poles))
        if _hankel_margin(rp) >= 5e-7:
            return rp
    raise RuntimeError("could not draw a resolvable rational part")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def circle_grid():
    return unit_circle_grid(256)
