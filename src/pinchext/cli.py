"""Batch driver: flat-file configs in, JSON reports and CSV plot data out.

Exit codes: 0 success, 1 usage/config/IO error, 2 analysis-negative
(not-extendable restriction or non-test sequence), 3 numerical
non-convergence.  Reports are byte-deterministic: keys are sorted and
floats are rendered with 17 significant digits.
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import gallery
from .boundary import _MIN_SAMPLES, _check_sample_count
from .errors import (BandwidthError, CircleVanishingError, ConfigError,
                     ConvergenceError, DomainError, NotExtendableError,
                     PoleLocationError)
from .extension import (_DISC_SLACK, _HOLO_TOLERANCE, DiscFunction,
                        RingFunction, _entry_sums, coefficient_ladder,
                        extension_test, pinch_estimate,
                        verify_coefficient_bounds)
from .families import (_complex_pair, _general_position, _sequence_report,
                       _zeros_against, probes_from_csv)
from .rational import MAX_POLE_BOUND

__all__ = ["AnalysisConfig", "parse_config", "main",
           "cmd_test", "cmd_ladder", "cmd_validate", "cmd_gallery"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NEGATIVE = 2
EXIT_NONCONVERGED = 3


# ----------------------------------------------------------------------
# deterministic JSON
# ----------------------------------------------------------------------

def _render(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, float):
        if math.isinf(obj):
            return '"inf"' if obj > 0 else '"-inf"'
        if math.isnan(obj):
            return '"nan"'
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_render(x) for x in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        return "{" + ",".join(json.dumps(str(k)) + ":" + _render(v)
                              for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dump_json(obj) -> str:
    return _render(obj) + "\n"


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

@dataclass
class AnalysisConfig:
    function_name: str
    epsilon: float
    coeffs_path: Optional[Path]
    curves: List[DiscFunction]
    grid: int
    depth: int
    n_max: int
    n_bound: int
    probes: List[complex]
    ray_angle: float


def _parse_complex_pair(token: str) -> complex:
    try:
        return _complex_pair(token)
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex pair {token!r}") from exc


def _parse_indices(spec: str) -> range:
    lo, _, hi = spec.partition(":")
    try:
        indices = range(int(lo), int(hi) + 1)
    except ValueError as exc:
        raise ConfigError(f"cannot parse index range {spec!r}") from exc
    if indices.start < 1:
        raise ConfigError(f"curve indices must start at 1, got {spec!r}")
    return indices


def _build_curves(section: configparser.SectionProxy) -> List[DiscFunction]:
    generator = section.get("generator", fallback=None)
    curves: List[DiscFunction] = []
    if generator is not None:
        indices = _parse_indices(section.get("indices", "1:8"))
        scale = complex(section.getfloat("scale", 1.0))
        power = section.getint("power", 1)
        if power < 0:
            raise ConfigError(f"power must be at least 0, got {power}")
        make = {"scaled_monomial": lambda k: [0j] * power + [scale / k],
                "geometric_power": lambda k: [0j] * k + [scale ** k],
                "horizontal": lambda k: [scale / k]}
        if generator not in make:
            raise ConfigError(f"unknown curve generator {generator!r}")
        return [DiscFunction(make[generator](k)) for k in indices]
    keys = sorted((k for k in section.keys() if k.startswith("curve")),
                  key=lambda s: (len(s), s))
    for key in keys:
        tokens = section.get(key).split()
        try:
            curves.append(DiscFunction([_parse_complex_pair(t) for t in tokens]))
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from exc
    return curves


def parse_config(path) -> AnalysisConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        # a str, so that a parse error quotes the path, not a Path repr
        parser.read(str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    parser.read_dict({"analysis": {}, "output": {}})
    if "function" not in parser:
        raise ConfigError("missing [function] section")
    fn = parser["function"]
    name = fn.get("name", fallback=None)
    if name is None:
        raise ConfigError("missing function.name")
    epsilon = fn.getfloat("epsilon", 0.3)
    if not 0.0 < epsilon < 0.5:
        raise ConfigError(f"epsilon must lie in (0, 0.5), got {epsilon}")
    coeffs_path = None
    if name == "laurent":
        raw = fn.get("coeffs", fallback=None)
        if raw is None:
            raise ConfigError("function.name = laurent requires function.coeffs")
        coeffs_path = (path.parent / raw).resolve()
        if not coeffs_path.exists():
            raise ConfigError(f"coefficient file {coeffs_path} does not exist")
    elif name not in gallery.GALLERY_NAMES:
        raise ConfigError(f"unknown function {name!r}")

    curves: List[DiscFunction] = []
    if "curves" in parser:
        try:
            curves = _build_curves(parser["curves"])
        except ValueError as exc:
            raise ConfigError(f"invalid curve: {exc}") from exc

    an = parser["analysis"]
    grid = an.getint("grid", 256)
    try:
        _check_sample_count(grid)
    except ValueError:
        raise ConfigError(f"grid must be a power of two >= {_MIN_SAMPLES}, "
                          f"got {grid}") from None
    depth = an.getint("depth", 6)
    if depth > 24:
        raise ConfigError(f"depth must be at most 24, got {depth}")
    n_max = an.getint("n_max", 10)
    if not 1 <= n_max <= MAX_POLE_BOUND:
        raise ConfigError(f"n_max must be in 1..{MAX_POLE_BOUND}, got {n_max}")
    # test and ladder share one fixed holomorphy threshold; a config that
    # asks for another would silently get different verdicts
    holo_tol = an.getfloat("holo_tol", _HOLO_TOLERANCE)
    if holo_tol != _HOLO_TOLERANCE:
        raise ConfigError("holo_tol is not configurable: test and ladder use "
                          f"the fixed holomorphy threshold {_HOLO_TOLERANCE:g}"
                          f", got {holo_tol:g}")
    n_bound = an.getint("n_bound", 10)
    if n_bound < 0:
        raise ConfigError(f"n_bound must be at least 0, got {n_bound}")
    probes = [_parse_complex_pair(t) for t in an.get("probes", "0,0").split()]
    if "probes_file" in an:
        probe_path = (path.parent / an["probes_file"]).resolve()
        if not probe_path.exists():
            raise ConfigError(f"probe file {probe_path} does not exist")
        try:
            probes = list(probes_from_csv(probe_path))
        except ValueError as exc:
            raise ConfigError(f"probe file {probe_path}: {exc}") from exc
    if not probes:
        # validate would report all_probes_ok over no probe at all
        raise ConfigError("no probe points: give at least one re,im pair, "
                          "or leave probes out for the default 0,0")
    for probe in probes:
        if not cmath.isfinite(probe):
            raise ConfigError(f"probe point {probe.real:g},{probe.imag:g} "
                              "is not finite")
        # hypot, not abs: abs overflows on a finite probe such as 1e308,1e308
        if math.hypot(probe.real, probe.imag) > 1.0 + _DISC_SLACK:
            raise ConfigError(f"probe point {probe.real:g},{probe.imag:g} "
                              "lies outside the closed unit disc")

    ray_angle = parser["output"].getfloat("ray_angle", 0.0)
    if not math.isfinite(ray_angle):
        raise ConfigError(f"ray_angle must be finite, got {ray_angle}")
    if not curves:
        raise ConfigError("no curves configured")

    return AnalysisConfig(
        function_name=name, epsilon=epsilon, coeffs_path=coeffs_path,
        curves=curves, grid=grid, depth=depth, n_max=n_max,
        n_bound=n_bound, probes=probes, ray_angle=ray_angle)


def _laurent_term(idx: int, term) -> Tuple[object, object, complex]:
    """``(n, l, c)`` of a coefficient-file term, with ``c`` exactly
    ``[re, im]``; :meth:`RingFunction.from_laurent` checks the degrees."""
    c = term["c"]
    if not isinstance(c, list) or len(c) != 2:
        raise ValueError(f"term {idx}: c = {c!r} is not a pair [re, im]")
    return term["n"], term["l"], complex(c[0], c[1])


def _build_ring(cfg: AnalysisConfig) -> RingFunction:
    if cfg.function_name == "laurent":
        try:
            data = json.loads(cfg.coeffs_path.read_text())
            terms = [_laurent_term(idx, t) for idx, t in enumerate(data["terms"])]
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed coefficient file: {exc}") from exc
        return RingFunction.from_laurent(terms, cfg.epsilon)
    return gallery.gallery_ring(cfg.function_name, cfg.epsilon)


def _write_output(text: str, out_dir: Optional[str], filename: str) -> None:
    if out_dir is None:
        sys.stdout.write(text)
    else:
        target = Path(out_dir)
        target.mkdir(parents=True, exist_ok=True)
        (target / filename).write_text(text, encoding="ascii")
        print(f"wrote {target / filename}")


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_test(cfg: AnalysisConfig, out_dir: Optional[str] = None,
             fmt: str = "json") -> int:
    ring = _build_ring(cfg)
    verdicts = []
    for idx, phi in enumerate(cfg.curves):
        try:
            verdicts.append(extension_test(ring, phi, cfg.n_max, m=cfg.grid))
        except (BandwidthError, DomainError) as exc:
            raise type(exc)(f"curve {idx}: {exc}") from exc
    records = []
    for idx, verdict in enumerate(verdicts):
        rec = verdict.as_dict()
        rec["curve"] = idx
        records.append(rec)
    report = {"command": "test", "function": cfg.function_name,
              "epsilon": cfg.epsilon, "curves": records}
    _write_output(dump_json(report), out_dir, "test_report.json")
    if fmt == "csv":
        lines = ["curve,kind,residual,poles"]
        for idx, v in enumerate(verdicts):
            poles = 0 if v.rational is None else v.rational.degree
            lines.append(f"{idx},{v.kind},{format(v.residual, '.17g')},{poles}")
        _write_output("\n".join(lines) + "\n", out_dir, "test_report.csv")
    if any(v.kind == "not-extendable" for v in verdicts):
        return EXIT_NEGATIVE
    return EXIT_OK


def _profile_csv(ladder, ray_angle: float) -> str:
    direction = complex(math.cos(ray_angle), math.sin(ray_angle))
    radii = np.linspace(0.1, 1.0 - ladder.epsilon / 4.0, 48)
    lines = ["n,r,abs_An"]
    for entry, values in zip(ladder.entries,
                             _entry_sums(ladder.entries, radii * direction)):
        for r, v in zip(radii, np.abs(values)):
            lines.append(f"{entry.n},{format(float(r), '.17g')},"
                         f"{format(float(v), '.17g')}")
    return "\n".join(lines) + "\n"


def cmd_ladder(cfg: AnalysisConfig, out_dir: Optional[str] = None) -> int:
    ring = _build_ring(cfg)
    ladder = coefficient_ladder(ring, cfg.curves, cfg.depth, cfg.n_max,
                                m=cfg.grid)
    descriptor = pinch_estimate(ladder)
    violations = verify_coefficient_bounds(ladder)
    report = {
        "command": "ladder",
        "function": cfg.function_name,
        "ladder": ladder.as_dict(),
        "pinch": descriptor.as_dict(),
        "bound_violations": [
            {"n": n, "lam": [lam.real, lam.imag], "lhs": lhs, "rhs": rhs}
            for n, lam, lhs, rhs in violations],
    }
    _write_output(dump_json(report), out_dir, "ladder_report.json")
    _write_output(_profile_csv(ladder, cfg.ray_angle), out_dir,
                  "ladder_profiles.csv")
    return EXIT_OK


def cmd_validate(cfg: AnalysisConfig, out_dir: Optional[str] = None,
                 fmt: str = "json") -> int:
    # validate_test_sequence and general_position_check, sharing the zeros
    # of each phi_k - phi_0
    zero_sets = _zeros_against(cfg.curves, DiscFunction([0j]))
    seq_report = _sequence_report(zero_sets, cfg.n_bound)
    gp_report = _general_position(cfg.curves, zero_sets, cfg.probes)
    report = {"command": "validate",
              "test_sequence": seq_report.as_dict(),
              "general_position": gp_report.as_dict()}
    _write_output(dump_json(report), out_dir, "validate_report.json")
    if fmt == "csv":
        lines = ["curve,winding"]
        for idx, w in enumerate(seq_report.windings):
            lines.append(f"{idx},{'' if w is None else w}")
        _write_output("\n".join(lines) + "\n", out_dir, "validate_report.csv")
    if not seq_report.is_test:
        return EXIT_NEGATIVE
    return EXIT_OK


def cmd_gallery(name: str, lam: complex, z: complex, trunc: int,
                out_dir: Optional[str] = None) -> int:
    if trunc < 0:
        raise ConfigError(f"trunc must be at least 0, got {trunc}")
    for label, point in (("lam", lam), ("z", z)):
        if not cmath.isfinite(point):
            raise ConfigError(f"{label} must be finite, got "
                              f"{point.real:g},{point.imag:g}")
    value = gallery.gallery_eval(name, lam, z, trunc)
    report = {"command": "gallery", "name": name,
              "lambda": [lam.real, lam.imag], "z": [z.real, z.imag],
              "value": [value.real, value.imag]}
    _write_output(dump_json(report), out_dir, "gallery_report.json")
    return EXIT_OK


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinchext",
        description="meromorphic continuation along curve sequences")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("test", "ladder", "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        if name != "ladder":
            p.add_argument("--format", choices=("json", "csv"), default="json")
    g = sub.add_parser("gallery")
    g.add_argument("name")
    g.add_argument("--lam", required=True,
                   help="complex point as re,im")
    g.add_argument("--z", required=True, help="complex point as re,im")
    g.add_argument("--trunc", type=int, default=gallery._SERIES_DEPTH)
    g.add_argument("--out", default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error (argparse's 2)
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        if args.command == "gallery":
            return cmd_gallery(args.name, _parse_complex_pair(args.lam),
                               _parse_complex_pair(args.z), args.trunc,
                               args.out)
        cfg = parse_config(args.config)
        if args.command == "ladder":
            return cmd_ladder(cfg, args.out)
        command = cmd_test if args.command == "test" else cmd_validate
        return command(cfg, args.out, args.format)
    except (ConfigError, BandwidthError, DomainError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PoleLocationError, NotExtendableError) as exc:
        print(f"analysis negative: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (ConvergenceError, CircleVanishingError, FloatingPointError) as exc:
        # FloatingPointError: a float overflow in an evaluator kernel
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
