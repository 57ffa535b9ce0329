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
  kernel runs on mpmath numbers at ``dps`` digits; otherwise it runs in
  complex doubles, and deep levels lose accuracy.
* Extracted coefficient functions are cleaned with a relative floor of
  1e-7 (and an absolute floor tied to the data scale) before rational
  detection; this is the working-precision floor of the ladder.
* The level functions behind the Blaschke diagnostics run that recursion
  literally on the last three curves: ``f_{0,k} = f(., phi_k)`` and
  ``f_{n,k} = (f_{n-1,k} - A_{n-1}) / phi_k``, one subtraction and one
  division per level in the kernel's number type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import mpmath as mp
import numpy as np

from .boundary import (CircleFunction, distance_product, hardy_project_minus,
                       hardy_split, pointwise, require_resolved,
                       unit_circle_grid)
from .errors import (CircleVanishingError, ConvergenceError, DomainError)
from .rational import (RationalPart, _single_linkage, blaschke_from_zeros,
                       detect_rational)

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
_CLEAN_REL_FLOOR = 1e-7
_CLEAN_ABS_FLOOR = 1e-12
_MATCH_RADIUS = 0.05


# ----------------------------------------------------------------------
# domain types
# ----------------------------------------------------------------------

class RingFunction:
    """Function holomorphic on the ring ``A_{1-eps,1+eps} x Delta``.

    Wraps a black-box evaluator ``(lambda, z) -> complex`` (vectorized
    over numpy arrays).  An exact bivariate Laurent-polynomial form may be
    attached as ``laurent`` terms ``(n, l, a_nl)`` meaning
    ``a_nl * lambda**l * z**n``; when present it is cross-checked against
    the evaluator at random ring points and it enables extended-precision
    evaluation.  A separate ``mp_evaluator`` over ``mpmath`` numbers can
    be supplied for transcendental functions.
    """

    __slots__ = ("evaluator", "epsilon", "laurent", "mp_evaluator", "name")

    def __init__(self, evaluator: Callable, epsilon: float,
                 laurent: Optional[Sequence[Tuple[int, int, complex]]] = None,
                 mp_evaluator: Optional[Callable] = None, name: str = ""):
        if not 0.0 < epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 0.5)")
        self.evaluator = evaluator
        self.epsilon = float(epsilon)
        self.laurent = None if laurent is None else tuple(
            (int(n), int(l), complex(c)) for n, l, c in laurent)
        self.mp_evaluator = mp_evaluator
        self.name = name
        if self.laurent is not None:
            self._validate_laurent()

    @classmethod
    def from_laurent(cls, terms: Sequence[Tuple[int, int, complex]],
                     epsilon: float, name: str = "") -> "RingFunction":
        """Build from exact terms ``a_nl * lambda**l * z**n`` (``n >= 0``)."""
        terms = tuple((int(n), int(l), complex(c)) for n, l, c in terms)
        for n, _, _ in terms:
            if n < 0:
                raise ValueError("z-degrees must be nonnegative")

        def evaluator(lam, z):
            lam = np.asarray(lam, dtype=complex)
            z = np.asarray(z, dtype=complex)
            out = np.zeros(np.broadcast(lam, z).shape, dtype=complex)
            for nn, ll, cc in terms:
                out = out + cc * lam ** ll * z ** nn
            return out

        return cls(evaluator, epsilon, laurent=terms, name=name)

    def _validate_laurent(self) -> None:
        rng = np.random.default_rng(20240201)
        r = 1.0 + self.epsilon * rng.uniform(-0.9, 0.9, 100)
        lam = r * np.exp(2j * np.pi * rng.uniform(0, 1, 100))
        z = 0.95 * np.sqrt(rng.uniform(0, 1, 100)) * np.exp(2j * np.pi * rng.uniform(0, 1, 100))
        direct = self.eval_many(lam, z)
        exact = np.zeros_like(lam, dtype=complex)
        for n, l, c in self.laurent:
            exact += c * lam ** l * z ** n
        scale = np.maximum(1.0, np.abs(exact))
        if np.max(np.abs(direct - exact) / scale) > 1e-12:
            raise ValueError("evaluator disagrees with the exact Laurent form")

    def eval_many(self, lam: np.ndarray, z: np.ndarray) -> np.ndarray:
        out = self.evaluator(lam, z)
        return np.asarray(out, dtype=complex)

    @property
    def mp_capable(self) -> bool:
        return self.mp_evaluator is not None or self.laurent is not None

    def eval_mp(self, lam, z):
        """Evaluate at mpmath arguments (requires mp capability)."""
        if self.mp_evaluator is not None:
            return mp.mpc(self.mp_evaluator(lam, z))
        if self.laurent is not None:
            total = mp.mpc(0)
            for n, l, c in self.laurent:
                total += mp.mpc(c) * lam ** l * z ** n
            return total
        raise ValueError("no extended-precision evaluation available")


class DiscFunction:
    """Holomorphic curve ``phi`` given by truncated Taylor coefficients.

    Coefficients are ascending; the trailing tail below ``1e-14`` of the
    leading magnitude is trimmed at construction.  ``sup_bound`` is the
    sampled supremum on the unit circle, which by the maximum principle
    bounds ``phi`` on the closed disc.
    """

    __slots__ = ("coeffs", "sup_bound")

    def __init__(self, coeffs: Sequence[complex], require_into_disc: bool = True):
        arr = np.asarray(coeffs, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            arr = np.atleast_1d(np.asarray(arr, dtype=complex))
            if arr.size == 0:
                arr = np.zeros(1, dtype=complex)
        top = np.abs(arr).max()
        if top > 0:
            keep = np.nonzero(np.abs(arr) >= 1e-14 * top)[0]
            arr = arr[:keep[-1] + 1]
        else:
            arr = arr[:1]
        self.coeffs = tuple(complex(c) for c in arr)
        grid = unit_circle_grid(256)
        self.sup_bound = float(np.abs(self(grid)).max())
        if require_into_disc and self.sup_bound >= 1.0 + _DISC_SLACK:
            raise ValueError(
                f"curve has sup {self.sup_bound:.6f} on the closed unit disc; "
                "it must map into the disc")

    @pointwise
    def __call__(self, lam) -> np.ndarray | complex:
        return np.polynomial.polynomial.polyval(lam, self.coeffs)

    def eval_mp(self, lam):
        total = mp.mpc(0)
        for c in reversed(self.coeffs):
            total = total * lam + mp.mpc(c)
        return total

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def roots_in_disc(self, radius: float,
                      cluster_radius: float = 1e-4) -> Tuple[Tuple[complex, int], ...]:
        """Zeros inside ``|lambda| <= radius`` as ``(location, multiplicity)``."""
        arr = np.asarray(self.coeffs)
        if np.abs(arr).max() == 0.0:
            raise ValueError("zero curve has no isolated zeros")
        roots = np.roots(arr[::-1]) if arr.size > 1 else np.array([], dtype=complex)
        out: List[Tuple[complex, int]] = []
        for cluster in _single_linkage(roots, cluster_radius):
            center = complex(np.mean(cluster))
            if abs(center) <= radius + 1e-9:
                out.append((center, cluster.size))
        out.sort(key=lambda t: (round(t[0].real, 6), round(t[0].imag, 6)))
        return tuple(out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiscFunction(degree={self.degree}, sup={self.sup_bound:.4f})"


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
    """Blaschke-correction bookkeeping for one level/curve pair."""

    level: int
    curve_index: int
    pole_count: int
    corrected_sup: float
    projection_residual: float


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
    value_scale: float
    grid_size: int
    diagnostics: Tuple[LevelDiagnostic, ...] = field(default=(), repr=False)

    @property
    def depth(self) -> int:
        return len(self.entries) - 1

    def coefficient(self, n: int) -> LadderEntry:
        return self.entries[n]

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
    return RingFunction.from_laurent(terms, f.epsilon, name=f.name)


def restrict_along_curve(f: RingFunction, phi: DiscFunction,
                         m: int = 256) -> CircleFunction:
    """Sample ``lambda -> f(lambda, phi(lambda))`` on the unit circle."""
    grid = unit_circle_grid(m)
    z = phi(grid)
    zmax = float(np.abs(z).max())
    if zmax >= 1.0 + _DISC_SLACK:
        raise DomainError(
            f"curve leaves the z-range of the ring (sup {zmax:.6f} on |lam|=1)")
    values = f.eval_many(grid, z)
    return CircleFunction(values, 1.0)


def extension_test(f: RingFunction, phi: DiscFunction, n_max: int, *,
                   m: int = 256, holo_tolerance: float = 1e-8,
                   **detect_kwargs) -> ExtensionVerdict:
    """Test whether the restriction along ``phi`` extends into the disc.

    Returns a ``holomorphic`` verdict when the Hardy-minus residual of the
    restriction is below ``holo_tolerance``; otherwise runs rational
    detection on the residual and reports ``meromorphic`` (with the
    recovered principal parts) or ``not-extendable``.
    """
    g = restrict_along_curve(f, phi, m)
    require_resolved(g)
    psi = hardy_project_minus(g)
    residual = psi.sup_norm
    if residual < holo_tolerance:
        return ExtensionVerdict(kind="holomorphic", residual=residual,
                                n_max=n_max)
    detect_kwargs.setdefault("delta_pole", f.epsilon / 2.0)
    verdict = detect_rational(psi, n_max, **detect_kwargs)
    if verdict.is_rational:
        return ExtensionVerdict(kind="meromorphic", residual=residual,
                                n_max=n_max, rational=verdict.rational,
                                rank=verdict.rank, gap=verdict.gap)
    return ExtensionVerdict(kind="not-extendable", residual=residual,
                            n_max=n_max, rank=verdict.rank, gap=verdict.gap)


# ----------------------------------------------------------------------
# coefficient ladder
# ----------------------------------------------------------------------

def _nodes_values(f: RingFunction, curves: Sequence[DiscFunction],
                  grid: np.ndarray, dps: int) -> Tuple[np.ndarray, np.ndarray]:
    """Curve nodes ``phi_k(lam)`` and values ``f(lam, phi_k(lam))``.

    Returns two ``(K, m)`` arrays: ``object`` arrays of ``mpc`` at ``dps``
    digits when ``f`` is mp-capable, complex arrays otherwise.
    """
    if not f.mp_capable:
        nodes = np.array([phi(grid) for phi in curves])
        return nodes, np.array([f.eval_many(grid, t) for t in nodes])
    with mp.workdps(dps):
        lam_mp = [mp.mpc(x) for x in grid]
        nodes = np.array([[phi.eval_mp(lam) for lam in lam_mp]
                          for phi in curves], dtype=object)
        values = np.array([[f.eval_mp(lam, t) for lam, t in zip(lam_mp, row)]
                           for row in nodes], dtype=object)
    return nodes, values


def _interp_prefixes(nodes: np.ndarray, values: np.ndarray, n_keep: int,
                     sizes: Sequence[int]) -> List[np.ndarray]:
    """Taylor coefficients ``0 .. n_keep-1`` of the column interpolants.

    For each ``k`` in ``sizes``, returns an ``(n_keep, m)`` array whose
    column ``c`` holds the low coefficients of the polynomial through the
    first ``k`` points ``(nodes[i, c], values[i, c])``.  Works on complex
    arrays and on ``object`` arrays of ``mpc`` (call inside
    ``mp.workdps``).  The Newton divided-difference table is built once;
    its entry ``i`` depends only on the first ``i + 1`` nodes, so every
    prefix shares it.  Each interpolant is converted to monomial form by
    Horner steps truncated to ``n_keep`` rows, which is exact because the
    degree-``d`` coefficient never depends on higher degrees.
    """
    # Both stages update one row at a time, in place: whole-slice updates
    # keep several tables of mpc temporaries alive and raise the peak memory.
    top = max(sizes)
    dd = values[:top].copy()
    for j in range(1, top):
        for i in range(top - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (nodes[i] - nodes[i - j])
    out = []
    for k in sizes:
        c = np.zeros((n_keep,) + values.shape[1:], dtype=values.dtype)
        c[0] = dd[k - 1]
        for i in range(k - 2, -1, -1):
            for d in range(n_keep - 1, 0, -1):
                c[d] = c[d - 1] - nodes[i] * c[d]
            c[0] = dd[i] - nodes[i] * c[0]
        out.append(c)
    return out


def _clean_coefficients(g: CircleFunction, abs_floor: float) -> CircleFunction:
    coeffs = g.coeffs.copy()
    mags = np.abs(coeffs)
    top = mags.max()
    floor = max(_CLEAN_REL_FLOOR * top, abs_floor)
    coeffs[mags < floor] = 0.0
    return CircleFunction.from_coefficients(coeffs, g.radius)


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


def coefficient_ladder(f: RingFunction, curves: Sequence[DiscFunction],
                       depth: int, n_max: int, *, m: int = 256,
                       ladder_tol: float = 1e-7,
                       subtract_plus: bool = False,
                       dps: Optional[int] = None) -> CoefficientLadder:
    """Reconstruct ``A_0 .. A_depth`` from restrictions along ``curves``.

    The curves must form (a finite stretch of) a test sequence shrinking
    to the zero curve: each restriction must extend with at most ``n_max``
    poles, the curves must be zero-free on the unit circle, and their
    zeros inside ``|lambda| < 1 - eps/2`` must stabilize.  At least
    ``depth + 2`` curves are required; accuracy improves with more.

    With ``subtract_plus`` the bidisc-holomorphic component of ``f`` is
    removed first (exact Laurent form required, see :func:`minus_part`).

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
    if subtract_plus:
        f = minus_part(f)
    eps = f.epsilon

    grid = unit_circle_grid(m)
    verdicts = []
    for idx, phi in enumerate(curves):
        verdict = extension_test(f, phi, n_max, m=m)
        if verdict.kind == "not-extendable":
            raise ConvergenceError(
                f"curve {idx} is not extendable with at most {n_max} poles; "
                "not a valid test-sequence scenario")
        verdicts.append(verdict)
        if float(np.abs(phi(grid)).min()) <= 1e-9:
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
    if depth * n_total + m_total > 16:
        raise ValueError(
            f"pole budget depth*N + M = {depth * n_total + m_total} exceeds "
            "the supported bound 16")

    if dps is None:
        dps = max(40, 16 + 3 * kcurves)
    nodes, values = _nodes_values(f, curves, grid, dps)

    # node collision guard: sorting each column makes equal nodes neighbours
    node_arr = np.sort(nodes.astype(complex), axis=0)
    if (np.abs(np.diff(node_arr, axis=0)) == 0.0).any():
        raise ConvergenceError("two curves coincide at a grid point")

    value_scale = float(np.abs(values.astype(complex)).max())
    abs_floor = _CLEAN_ABS_FLOOR * max(value_scale, 1e-300)
    # below this sup norm a Hardy-minus part is taken as zero
    noise_floor = max(10 * abs_floor, 1e-13 * max(value_scale, 1.0))

    # -- main extraction and the estimates from the first K-2, K-1 curves --
    n_keep = depth + 1
    sub = slice(0, m, max(1, m // 64))
    n_cmp = min(n_keep, kcurves - 2)
    with mp.workdps(dps):
        coeffs, = _interp_prefixes(nodes, values, n_keep, [kcurves])
        est_prev, est_last = _interp_prefixes(
            nodes[:, sub], values[:, sub], n_cmp, [kcurves - 2, kcurves - 1])
    coeff_samples = coeffs.astype(complex)

    # -- convergence of the estimates over the curve count ---------------
    # Successive estimates from the first K-2, K-1, K curves must contract;
    # the projected remaining error (geometric extrapolation of the last
    # two differences) is held below ladder_tol times the data scale.
    est_last = est_last.astype(complex)
    d_prev = float(np.abs(est_last - est_prev.astype(complex)).max())
    d_last = float(np.abs(coeff_samples[:n_cmp, sub] - est_last).max())
    scale = max(value_scale, 1e-300)
    plateau = d_last <= ladder_tol * scale
    if not plateau:
        ratio = d_last / d_prev if d_prev > 0 else math.inf
        projected = d_last * ratio / (1.0 - ratio) if ratio < 0.9 else math.inf
        if projected > ladder_tol * scale:
            raise ConvergenceError(
                f"coefficient estimates are not converging: successive "
                f"differences {d_prev:.3e}, {d_last:.3e} project a remaining "
                f"error of {projected:.3e} against the tolerance "
                f"{ladder_tol:.1e} x scale {scale:.3e}")

    # -- circle functions + cleanup --------------------------------------
    a_circle: List[CircleFunction] = []
    for n in range(n_keep):
        a_circle.append(_clean_coefficients(
            CircleFunction(coeff_samples[n], 1.0), abs_floor))

    # -- split into rational part + tail, check pole conformity ----------
    # level n may carry n*N + M poles; detection gets that clipped to 1..16
    allowed = [n * n_total + m_total for n in range(n_keep)]
    budgets = [min(16, max(1, a)) for a in allowed]
    entries: List[LadderEntry] = []
    for n in range(n_keep):
        split = hardy_split(a_circle[n])
        if split.minus.sup_norm <= noise_floor:
            rp = RationalPart(poles=())
        else:
            verdict = detect_rational(split.minus, budgets[n],
                                      delta_pole=eps / 2.0)
            if not verdict.is_rational:
                raise ConvergenceError(
                    f"coefficient A_{n} is not rational with at most "
                    f"{budgets[n]} poles (rank {verdict.rank}, gap "
                    f"{verdict.gap:.2e})")
            rp = verdict.rational
        if rp.degree > allowed[n]:
            raise ConvergenceError(
                f"A_{n} carries {rp.degree} poles, exceeding the budget "
                f"n*N + M = {allowed[n]}")
        for pole, mult in rp.pole_list:
            if not _match_allowance(pole, mult, n, zeros, raw_pole_lines):
                raise ConvergenceError(
                    f"A_{n} has an unexpected pole at {pole} (mult {mult}); "
                    "poles must accumulate at curve zeros or extension poles")
        tail_coeffs = split.plus.coeffs[split.plus.size // 2:]
        nz = np.nonzero(tail_coeffs)[0]
        tail = tuple(complex(c) for c in tail_coeffs[:nz[-1] + 1]) if nz.size else ()
        entries.append(LadderEntry(n=n, rational=rp, tail=tail))

    # -- Blaschke-corrected level functions (diagnostics) -----------------
    diagnostics: List[LevelDiagnostic] = []
    first_check = max(0, kcurves - 3)
    level_values = values[first_check:]
    for n in range(n_keep):
        if n:
            with mp.workdps(dps):
                level_values = ((level_values - coeffs[n - 1])
                                / nodes[first_check:])
        for k, row in enumerate(level_values.astype(complex), first_check):
            level_fn = _clean_coefficients(CircleFunction(row, 1.0), abs_floor)
            psi = hardy_project_minus(level_fn)
            if psi.sup_norm <= noise_floor:
                poles: Tuple[Tuple[complex, int], ...] = ()
            else:
                verdict = detect_rational(psi, budgets[n], delta_pole=eps / 2.0)
                if not verdict.is_rational:
                    raise ConvergenceError(
                        f"level function f_{n},{k} is not rational within the "
                        f"pole budget {budgets[n]}")
                poles = verdict.rational.pole_list
            count = sum(mult for _, mult in poles)
            if count > allowed[n]:
                raise ConvergenceError(
                    f"pole count {count} at level {n} exceeds the budget "
                    f"n*N + M = {allowed[n]}")
            flat = [p for p, mult in poles for _ in range(mult)]
            blaschke = blaschke_from_zeros(flat)
            corrected = level_fn * CircleFunction(blaschke(grid), 1.0)
            diagnostics.append(LevelDiagnostic(
                level=n, curve_index=k, pole_count=count,
                corrected_sup=corrected.sup_norm,
                projection_residual=hardy_project_minus(corrected).sup_norm))

    # -- bound constants ---------------------------------------------------
    c_bound = 0.0
    for n in range(n_keep):
        sup_n = float(np.abs(coeff_samples[n]).max())
        c_bound = max(c_bound, sup_n * (1.0 + eps) ** n)
    c1 = 1.0
    if zeros:
        prod = np.ones(m)
        for a, l in zeros:
            prod *= np.abs(1.0 - np.conj(a) * grid) ** l
        c1 = float(prod.max())
    c2 = 1.0
    if pole_lines:
        prod = np.ones(m)
        for b, mult in pole_lines:
            prod *= np.abs(1.0 - np.conj(b) * grid) ** mult
        c2 = float(prod.max())
    c_prime = c_bound * c2 * max(1.0, c1) ** depth

    return CoefficientLadder(
        entries=tuple(entries), zeros=zeros, pole_lines=pole_lines,
        epsilon=eps, c_bound=c_bound, c1_bound=c1, c2_bound=c2,
        c_prime=c_prime, value_scale=value_scale, grid_size=m,
        diagnostics=tuple(diagnostics))


# ----------------------------------------------------------------------
# pinched domain estimation and evaluation
# ----------------------------------------------------------------------

def _off_poles(ladder: CoefficientLadder, grid: np.ndarray,
               exclusion: float) -> np.ndarray:
    """Grid points farther than ``exclusion`` from every zero and pole line."""
    keep = np.ones(grid.size, dtype=bool)
    for a, _ in ladder.zeros + ladder.pole_lines:
        keep &= np.abs(grid - a) > exclusion
    return grid[keep]


def _pinch_grid(ladder: CoefficientLadder, n_angles: int = 64) -> np.ndarray:
    eps = ladder.epsilon
    pts = [unit_circle_grid(n_angles, r)
           for r in (1.0 - eps / 4.0, (1.0 - eps) / 2.0)]
    return _off_poles(ladder, np.concatenate(pts), 1e-2)


def pinch_estimate(ladder: CoefficientLadder,
                   n_angles: int = 64) -> PinchDescriptor:
    """Estimate the pinched domain carried by a coefficient ladder.

    Pinches are the stabilized curve zeros that actually appear as poles
    of some reconstructed coefficient; the constant ``c`` is found by a
    halving search so that consecutive significant ladder terms contract
    by at least 1/2 on the test grid.
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
    grid = _pinch_grid(ladder, n_angles)
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
                       margin: float = 0.9,
                       pole_line_exclusion: float = 1e-2) -> ExtensionValue:
    """Evaluate ``sum A_n(lam) z^n`` inside the pinched domain.

    The point must satisfy ``|z| < margin * c * prod |lam - a_j|^{l_j}``
    and stay off the pole lines.  The attached bound dominates the tail
    beyond ``depth`` via the coefficient estimates; when ``tol`` is given
    a bound above it raises :class:`ConvergenceError`.
    """
    lam = complex(lam)
    z = complex(z)
    if not descriptor.contains(lam, z, margin=margin):
        raise DomainError(
            f"({lam}, {z}) is outside the pinched domain with margin {margin}")
    for b in descriptor.pole_lines:
        if abs(lam - b) <= pole_line_exclusion:
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


def verify_coefficient_bounds(ladder: CoefficientLadder, *,
                              n_points: int = 64, slack: float = 1e-6,
                              exclusion: float = 1e-2) -> Tuple:
    """Check the coefficient growth estimate on a probe circle.

    Evaluates ``|A_n(lam)| <= C' / (prod |lam-a_j|^{n l_j} prod |lam-b_i|
    (1+eps)^n)`` at ``n_points`` points on ``|lam| = 1 - eps/4`` outside
    ``exclusion``-neighborhoods of the poles.  Returns the (ideally empty)
    tuple of violations ``(n, lam, lhs, rhs)``.
    """
    eps = ladder.epsilon
    r = 1.0 - eps / 4.0
    grid = _off_poles(ladder, unit_circle_grid(n_points, r), exclusion)
    prod_b = distance_product(grid, ladder.pole_lines)
    violations = []
    for entry in ladder.entries:
        n = entry.n
        prod_a = distance_product(grid, ladder.zeros, power=n)
        rhs = ladder.c_prime / (prod_a * prod_b * (1.0 + eps) ** n)
        lhs = np.abs(entry(grid))
        bad = lhs > rhs * (1.0 + slack)
        for idx in np.nonzero(bad)[0]:
            violations.append((n, complex(grid[idx]),
                               float(lhs[idx]), float(rhs[idx])))
    return tuple(violations)
