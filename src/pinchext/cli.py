"""Batch driver: flat-file configs in, JSON reports and CSV plot data out.

Exit codes: 0 success, 1 usage/config/IO error, 2 analysis-negative
(not-extendable restriction or non-test sequence), 3 numerical
non-convergence.  Reports are byte-deterministic: keys are sorted and
floats are rendered with 17 significant digits.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import gallery
from .errors import (BandwidthError, CircleVanishingError, ConfigError,
                     ConvergenceError, DomainError, PoleLocationError)
from .extension import (DiscFunction, RingFunction, coefficient_ladder,
                        extension_test, pinch_estimate,
                        verify_coefficient_bounds)
from .families import (general_position_check, probes_from_csv,
                       validate_test_sequence)

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
    holo_tol: float
    n_bound: int
    probes: List[complex]
    ray_angle: float


def _parse_complex_pair(token: str) -> complex:
    re_s, _, im_s = token.partition(",")
    try:
        return complex(float(re_s), float(im_s or "0"))
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex pair {token!r}") from exc


def _parse_indices(spec: str) -> range:
    lo, _, hi = spec.partition(":")
    try:
        return range(int(lo), int(hi) + 1)
    except ValueError as exc:
        raise ConfigError(f"cannot parse index range {spec!r}") from exc


def _build_curves(section: configparser.SectionProxy) -> List[DiscFunction]:
    generator = section.get("generator", fallback=None)
    curves: List[DiscFunction] = []
    if generator is not None:
        indices = _parse_indices(section.get("indices", "1:8"))
        scale = complex(section.getfloat("scale", 1.0))
        power = section.getint("power", 1)
        if generator == "scaled_monomial":
            for k in indices:
                coeffs = [0j] * power + [scale / k]
                curves.append(DiscFunction(coeffs))
        elif generator == "geometric_power":
            for k in indices:
                coeffs = [0j] * k + [scale ** k]
                curves.append(DiscFunction(coeffs))
        elif generator == "horizontal":
            for k in indices:
                curves.append(DiscFunction([scale / k]))
        else:
            raise ConfigError(f"unknown curve generator {generator!r}")
        return curves
    keys = sorted((k for k in section.keys() if k.startswith("curve")),
                  key=lambda s: (len(s), s))
    for key in keys:
        tokens = section.get(key).split()
        curves.append(DiscFunction([_parse_complex_pair(t) for t in tokens]))
    return curves


def parse_config(path) -> AnalysisConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
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

    an = parser["analysis"] if "analysis" in parser else {}

    def _an_get(key, caster, default):
        if not an or key not in an:
            return default
        return caster(an[key])

    grid = _an_get("grid", int, 256)
    if grid < 16 or grid & (grid - 1):
        raise ConfigError(f"grid must be a power of two >= 16, got {grid}")
    depth = _an_get("depth", int, 6)
    if depth > 24:
        raise ConfigError(f"depth must be at most 24, got {depth}")
    n_max = _an_get("n_max", int, 10)
    holo_tol = _an_get("holo_tol", float, 1e-8)
    n_bound = _an_get("n_bound", int, 10)
    probes = [0j]
    if an and "probes" in an:
        probes = [_parse_complex_pair(t) for t in an["probes"].split()]
    if an and "probes_file" in an:
        probe_path = (path.parent / an["probes_file"]).resolve()
        if not probe_path.exists():
            raise ConfigError(f"probe file {probe_path} does not exist")
        probes = list(probes_from_csv(probe_path))

    ray_angle = 0.0
    if "output" in parser and "ray_angle" in parser["output"]:
        ray_angle = float(parser["output"]["ray_angle"])

    return AnalysisConfig(
        function_name=name, epsilon=epsilon, coeffs_path=coeffs_path,
        curves=curves, grid=grid, depth=depth, n_max=n_max,
        holo_tol=holo_tol, n_bound=n_bound, probes=probes,
        ray_angle=ray_angle)


def _build_ring(cfg: AnalysisConfig) -> RingFunction:
    if cfg.function_name == "laurent":
        try:
            data = json.loads(cfg.coeffs_path.read_text())
            terms = [(t["n"], t["l"], complex(t["c"][0], t["c"][1]))
                     for t in data["terms"]]
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise ConfigError(f"malformed coefficient file: {exc}") from exc
        return RingFunction.from_laurent(terms, cfg.epsilon, name="laurent")
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
    if not cfg.curves:
        raise ConfigError("no curves configured")
    ring = _build_ring(cfg)
    verdicts = [extension_test(ring, phi, cfg.n_max, m=cfg.grid,
                               holo_tolerance=cfg.holo_tol)
                for phi in cfg.curves]
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
    for entry in ladder.entries:
        values = np.abs(entry(radii * direction))
        for r, v in zip(radii, values):
            lines.append(f"{entry.n},{format(float(r), '.17g')},"
                         f"{format(float(v), '.17g')}")
    return "\n".join(lines) + "\n"


def cmd_ladder(cfg: AnalysisConfig, out_dir: Optional[str] = None) -> int:
    if not cfg.curves:
        raise ConfigError("no curves configured")
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
    if not cfg.curves:
        raise ConfigError("no curves configured")
    phi0 = DiscFunction([0j])
    seq_report = validate_test_sequence(cfg.curves, phi0, cfg.n_bound,
                                        m=cfg.grid)
    gp_report = general_position_check(cfg.curves, phi0, cfg.probes)
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
    value = gallery.gallery_eval(name, lam, z, trunc)
    report = {"command": "gallery", "name": name,
              "lambda": [lam.real, lam.imag], "z": [z.real, z.imag],
              "value": [value.real, value.imag]}
    _write_output(dump_json(report), out_dir, "gallery_report.json")
    return EXIT_OK


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinchext",
        description="meromorphic continuation along curve sequences")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("test", "ladder", "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
    g = sub.add_parser("gallery")
    g.add_argument("name")
    g.add_argument("--lam", required=True,
                   help="complex point as re,im")
    g.add_argument("--z", required=True, help="complex point as re,im")
    g.add_argument("--trunc", type=int, default=40)
    g.add_argument("--out", default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gallery":
            return cmd_gallery(args.name, _parse_complex_pair(args.lam),
                               _parse_complex_pair(args.z), args.trunc,
                               args.out)
        cfg = parse_config(args.config)
        if args.command == "test":
            return cmd_test(cfg, args.out, args.format)
        if args.command == "ladder":
            return cmd_ladder(cfg, args.out)
        if args.command == "validate":
            return cmd_validate(cfg, args.out, args.format)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, BandwidthError, DomainError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PoleLocationError as exc:
        print(f"analysis negative: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (ConvergenceError, CircleVanishingError) as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
