"""The three benchmark workloads: seeded inputs, one round of calls, oracles.

Each workload turns the benchmark seed into inputs (a config file for the
CLI workloads, a JSON input spec for the library one), runs one *round*
of calls into pinchext and checks every output against an oracle that
does not call pinchext: the exact Taylor coefficients of exp(z/lambda),
``np.roots`` of the generated curves, and the residue phi(0)^2/81 of the
example-1 restriction.

A round is the unit that ``run_s`` times.  Every round of a run repeats
the same calls on the same inputs, so traced per-round counts repeat
exactly.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

# relative tolerance of the ladder oracle on A_n = lambda^-n / n!
LADDER_REL_TOL = 1e-6
# relative tolerance of the screen oracle on the residue phi(0)^2 / 81
RESIDUE_REL_TOL = 1e-9
# the residue of example 1 along a curve missing the origin is phi(0)^2/81
EXAMPLE1_RESIDUE_SCALE = 1.0 / 81.0
# oracle points for A_n: |lambda| = 0.7, off the interpolation grid
ORACLE_RADIUS = 0.7
ORACLE_POINTS = ORACLE_RADIUS * np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)


@dataclass
class OpResult:
    """One operation: a CLI command or one library ladder."""

    label: str
    seconds: float
    output: object = None
    error: Optional[str] = None


@dataclass
class Verdict:
    ok: bool
    digits: Optional[float] = None
    reason: str = ""


def _pair(c: complex) -> str:
    return f"{float(c.real)!r},{float(c.imag)!r}"


def _unit(rng: np.random.Generator) -> complex:
    return cmath.exp(1j * float(rng.uniform(0.0, 2.0 * math.pi)))


def _digits(rel_err: float) -> float:
    return -math.log10(max(rel_err, 1e-17))


def _run_cli(argv: List[str]) -> OpResult:
    from pinchext.cli import main
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except Exception as exc:  # counted as a failed operation
        return OpResult(argv[0], time.perf_counter() - t0,
                        error=f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    return OpResult(label=argv[0], seconds=seconds, output=(rc, buf.getvalue()))


def _first_json_line(text: str) -> dict:
    return json.loads(text.split("\n", 1)[0])


# ----------------------------------------------------------------------
# oracles (no pinchext code)
# ----------------------------------------------------------------------

def _eval_entry(entry: dict, lam: np.ndarray) -> np.ndarray:
    """A_n from its report form: Taylor tail plus principal parts."""
    out = np.zeros_like(lam)
    for re_, im_ in reversed(entry["tail"]):
        out = out * lam + complex(re_, im_)
    for pole in entry["rational"]["poles"]:
        a = complex(*pole["a"])
        coeffs = [complex(*c) for c in pole["c"]]
        mult = len(coeffs)
        for k, c in enumerate(coeffs):
            out = out + c * (lam - a) ** (k - mult)
    return out


def check_ladder_report(report: dict, probes=None) -> Verdict:
    """Oracle for an exp(z/lambda) ladder: A_n, the pinch, the bound.

    ``probes`` is an optional list of ``(lam, z, value, bound)`` from
    ``evaluate_extension``; each value must lie within its bound of
    exp(z/lambda).
    """
    entries = report["ladder"]["entries"]
    worst = 0.0
    for entry in entries:
        n = entry["n"]
        exact = ORACLE_POINTS ** (-n) / math.factorial(n)
        rel = np.abs(_eval_entry(entry, ORACLE_POINTS) - exact) / np.abs(exact)
        worst = max(worst, float(rel.max()))
    digits = _digits(worst)
    if not worst <= LADDER_REL_TOL:
        return Verdict(False, digits, f"A_n relative error {worst:.3e}")
    pinches = report["pinch"]["pinches"]
    if (len(pinches) != 1 or abs(complex(*pinches[0]["a"])) > 1e-9
            or pinches[0]["order"] != 1):
        return Verdict(False, digits, f"pinches {pinches}")
    if report["bound_violations"]:
        return Verdict(False, digits,
                       f"{len(report['bound_violations'])} bound violations")
    for lam, z, value, bound in probes or ():
        if not abs(value - cmath.exp(z / lam)) <= bound:
            return Verdict(False, digits, f"probe ({lam}, {z}) outside bound")
    return Verdict(True, digits)


def roots_inside(coeffs) -> int:
    """Zeros of the polynomial (ascending coefficients) in |lambda| < 1."""
    return int(np.sum(np.abs(np.roots(np.asarray(coeffs)[::-1])) < 1.0))


def check_validate_report(report: dict, curves) -> Verdict:
    expected = [roots_inside(c) for c in curves]
    got = report["test_sequence"]["windings"]
    if got != expected:
        bad = [i for i, (g, e) in enumerate(zip(got, expected)) if g != e]
        return Verdict(False, None,
                       f"windings differ from root counts at {bad or 'length'}")
    return Verdict(True)


def check_test_report(report: dict, curves) -> Verdict:
    records = report["curves"]
    if len(records) != len(curves):
        return Verdict(False, None, "wrong number of verdicts")
    worst = 0.0
    for rec, coeffs in zip(records, curves):
        phi0 = complex(coeffs[0])
        if phi0 == 0:
            if rec["kind"] != "holomorphic":
                return Verdict(False, None, f"curve {rec['curve']}: {rec['kind']}")
            continue
        poles = (rec.get("rational") or {}).get("poles", [])
        if rec["kind"] != "meromorphic" or len(poles) != 1:
            return Verdict(False, None, f"curve {rec['curve']}: {rec['kind']} "
                                        f"with {len(poles)} poles")
        pole = poles[0]
        if pole["m"] != 1 or abs(complex(*pole["a"])) > 1e-9:
            return Verdict(False, None, f"curve {rec['curve']}: pole {pole}")
        exact = phi0 * phi0 * EXAMPLE1_RESIDUE_SCALE
        rel = abs(complex(*pole["c"][0]) - exact) / abs(exact)
        worst = max(worst, rel)
    digits = _digits(worst)
    if not worst <= RESIDUE_REL_TOL:
        return Verdict(False, digits, f"residue relative error {worst:.3e}")
    return Verdict(True, digits)


def _check_cli(op: OpResult, check: Callable[[dict], Verdict]) -> Verdict:
    rc, text = op.output
    if rc != 0:
        return Verdict(False, None, f"{op.label}: exit code {rc}")
    return check(_first_json_line(text))


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

class Workload:
    """Interface: ``generate`` (seeded inputs written to ``workdir``),
    ``construct`` (the input build that counts in set-up), ``run_round``
    and ``check``."""

    name = ""

    def generate(self, seed: int, workdir: Path, small: bool = False) -> dict:
        raise NotImplementedError

    def construct(self, spec: dict):
        from pinchext.cli import parse_config
        return parse_config(spec["config"])

    def run_round(self, spec: dict, inputs) -> List[OpResult]:
        raise NotImplementedError

    def check(self, spec: dict, op: OpResult) -> Verdict:
        raise NotImplementedError


class LadderMP(Workload):
    """``pinchext ladder`` on the criterion-5 exp(z/lambda) config."""

    name = "ladder-mp"

    def generate(self, seed, workdir, small=False):
        rng = np.random.default_rng(seed)
        u = _unit(rng)
        kcurves, depth, grid = (10, 2, 64) if small else (12, 6, 256)
        rows = "\n".join(f"curve_{k} = 0.0,0.0 {_pair(u / k)}"
                         for k in range(1, kcurves + 1))
        path = workdir / f"{self.name}.ini"
        path.write_text(
            "[function]\nname = remark1\nepsilon = 0.3\n\n"
            f"[curves]\n{rows}\n\n"
            f"[analysis]\ngrid = {grid}\ndepth = {depth}\nn_max = 10\n",
            encoding="ascii")
        return {"config": str(path)}

    def run_round(self, spec, inputs):
        return [_run_cli(["ladder", "--config", spec["config"]])]

    def check(self, spec, op):
        return _check_cli(op, check_ladder_report)


class LadderFloat(Workload):
    """Library ladder with a plain-numpy exp(z/lambda) evaluator."""

    name = "ladder-float"
    N_ROTATIONS = 16
    N_PROBES = 4

    def generate(self, seed, workdir, small=False):
        rng = np.random.default_rng(seed)
        rotations = []
        for _ in range(2 if small else self.N_ROTATIONS):
            u = _unit(rng)
            probes = []
            for _ in range(self.N_PROBES):
                lam = rng.uniform(0.5, 0.9) * _unit(rng)
                z = rng.uniform(0.02, 0.2) * abs(lam) * _unit(rng)
                probes.append([[lam.real, lam.imag], [z.real, z.imag]])
            rotations.append({"u": [u.real, u.imag], "probes": probes})
        spec = {"rotations": rotations, "curves": 10, "depth": 3,
                "grid": 256 if small else 1024, "n_max": 10,
                "ladder_tol": 1e-5}
        path = workdir / f"{self.name}.json"
        path.write_text(json.dumps(spec), encoding="ascii")
        return {"input": str(path)}

    def construct(self, spec):
        from pinchext.extension import DiscFunction, RingFunction
        data = json.loads(Path(spec["input"]).read_text(encoding="ascii"))
        ring = RingFunction(
            lambda lam, z: np.exp(np.asarray(z, dtype=complex)
                                  / np.asarray(lam, dtype=complex)), 0.3)
        lines = []
        for rot in data["rotations"]:
            u = complex(*rot["u"])
            curves = [DiscFunction([0j, u / k])
                      for k in range(1, data["curves"] + 1)]
            probes = [(complex(*lam), complex(*z)) for lam, z in rot["probes"]]
            lines.append((curves, probes))
        return data, ring, lines

    def run_round(self, spec, inputs):
        from pinchext.extension import (coefficient_ladder, evaluate_extension,
                                        pinch_estimate,
                                        verify_coefficient_bounds)
        data, ring, lines = inputs
        ops = []
        for curves, probes in lines:
            t0 = time.perf_counter()
            try:
                ladder = coefficient_ladder(
                    ring, curves, data["depth"], data["n_max"],
                    m=data["grid"], ladder_tol=data["ladder_tol"])
                desc = pinch_estimate(ladder)
                violations = verify_coefficient_bounds(ladder)
                values = [evaluate_extension(ladder, desc, lam, z)
                          for lam, z in probes]
            except Exception as exc:  # counted as a failed operation
                ops.append(OpResult("ladder", time.perf_counter() - t0,
                                    error=f"{type(exc).__name__}: {exc}"))
                continue
            seconds = time.perf_counter() - t0
            report = {"ladder": ladder.as_dict(), "pinch": desc.as_dict(),
                      "bound_violations": list(violations)}
            checked = [(lam, z, v.value, v.bound)
                       for (lam, z), v in zip(probes, values)]
            ops.append(OpResult("ladder", seconds, output=(report, checked)))
        return ops

    def check(self, spec, op):
        report, probes = op.output
        return check_ladder_report(report, probes)


class Screen(Workload):
    """``pinchext validate`` then ``pinchext test`` on 60 random curves."""

    name = "screen"
    N_CURVES = 60
    MAX_DEGREE = 6
    N_PROBES = 3

    @staticmethod
    def _curve(rng: np.random.Generator, deg: int,
               through_origin: bool) -> np.ndarray:
        """Random polynomial with sup < 1 on the disc.

        Redrawn until no zero lies within 0.05 of the unit circle (so the
        root count is a robust winding oracle) and, off the origin,
        |phi(0)| >= 0.2 (so the order-4 pole of the next example-1 term,
        with weight 3^-32, stays below the residue's noise floor).
        """
        circle = np.exp(2j * np.pi * np.arange(4096) / 4096)
        while True:
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            if through_origin:
                c[0] = 0.0
            sup = np.abs(np.polynomial.polynomial.polyval(circle, c)).max()
            c = c * (rng.uniform(0.5, 0.9) / sup)
            moduli = np.abs(np.roots(c[::-1]))
            if np.any(np.abs(moduli - 1.0) < 0.05):
                continue
            if not through_origin and abs(c[0]) < 0.2:
                continue
            return c

    def generate(self, seed, workdir, small=False):
        rng = np.random.default_rng(seed)
        # Curve i has degree i % 6 + 1 and passes through the origin when
        # i // 6 is even: each degree equally often, half of each through
        # the origin, in a fixed order, so the triple scan's work varies
        # little with the seed.
        count = 8 if small else self.N_CURVES
        curves = [self._curve(rng, i % self.MAX_DEGREE + 1,
                              (i // self.MAX_DEGREE) % 2 == 0)
                  for i in range(count)]
        probes = [rng.uniform(0.0, 0.8) * _unit(rng)
                  for _ in range(self.N_PROBES)]
        rows = "\n".join(
            f"curve_{k} = " + " ".join(_pair(complex(c)) for c in coeffs)
            for k, coeffs in enumerate(curves, start=1))
        path = workdir / f"{self.name}.ini"
        path.write_text(
            "[function]\nname = example1\nepsilon = 0.3\n\n"
            f"[curves]\n{rows}\n\n"
            f"[analysis]\ngrid = {256 if small else 1024}\nn_max = 10\n"
            f"n_bound = 10\nprobes = {' '.join(_pair(p) for p in probes)}\n",
            encoding="ascii")
        return {"config": str(path),
                "curves": [[[float(c.real), float(c.imag)] for c in coeffs]
                           for coeffs in curves]}

    def run_round(self, spec, inputs):
        return [_run_cli(["validate", "--config", spec["config"]]),
                _run_cli(["test", "--config", spec["config"]])]

    def check(self, spec, op):
        curves = [[complex(re_, im_) for re_, im_ in row]
                  for row in spec["curves"]]
        if op.label == "validate":
            return _check_cli(op, lambda r: check_validate_report(r, curves))
        return _check_cli(op, lambda r: check_test_report(r, curves))


WORKLOADS = {w.name: w for w in (LadderMP(), LadderFloat(), Screen())}
