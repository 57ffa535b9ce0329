#!/usr/bin/env python3
"""Self-tests of the benchmark itself, at reduced sizes (about half a minute).

    python3 bench/selftest.py

Checks that each oracle accepts a real output and rejects a deliberately
corrupted one, that traced per-round counts repeat exactly across two
traced rounds, that the tracer patches the aliased bindings and removes
every wrapper afterwards, and that the benchmark refuses to run without
the pinchext sources.  Exits 1 on any failure.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = ROOT / ".bench_work" / "selftest"

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import pinchext.cli  # noqa: E402
import pinchext.extension  # noqa: E402
import pinchext.families  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(condition: bool, message: str) -> None:
    print(("ok      " if condition else "FAILED  ") + message)
    if not condition:
        FAILURES.append(message)


def small_round(name: str, seed: int = 3):
    wl = workloads.WORKLOADS[name]
    spec = wl.generate(seed, WORKDIR, small=True)
    return wl, spec, wl.construct(spec)


def check_oracles() -> None:
    wl, spec, inputs = small_round("ladder-float")
    op = wl.run_round(spec, inputs)[0]
    expect(wl.check(spec, op).ok, "ladder oracle accepts a real ladder")
    report, probes = copy.deepcopy(op.output)
    entry = report["ladder"]["entries"][1]
    entry["tail"] = [[re_ * (1 + 1e-5), im_ * (1 + 1e-5)]
                     for re_, im_ in entry["tail"]]
    for pole in entry["rational"]["poles"]:
        pole["c"] = [[re_ * (1 + 1e-5), im_ * (1 + 1e-5)] for re_, im_ in pole["c"]]
    expect(not workloads.check_ladder_report(report, probes).ok,
           "ladder oracle rejects A_1 scaled by 1+1e-5")
    report, probes = copy.deepcopy(op.output)
    lam, z, value, bound = probes[0]
    probes[0] = (lam, z, value + 2.0 * bound + 1e-12, bound)
    expect(not workloads.check_ladder_report(report, probes).ok,
           "ladder oracle rejects a probe value outside its bound")

    wl, spec, inputs = small_round("screen")
    validate_op, test_op = wl.run_round(spec, inputs)
    expect(wl.check(spec, validate_op).ok and wl.check(spec, test_op).ok,
           "screen oracles accept real validate and test reports")
    curves = [[complex(*c) for c in row] for row in spec["curves"]]
    report = json.loads(validate_op.output[1].split("\n", 1)[0])
    report["test_sequence"]["windings"][0] += 1
    expect(not workloads.check_validate_report(report, curves).ok,
           "validate oracle rejects a winding off by one")
    report = json.loads(test_op.output[1].split("\n", 1)[0])
    for kind, other in (("holomorphic", "meromorphic"),
                        ("meromorphic", "holomorphic")):
        flipped = copy.deepcopy(report)
        target = next(r for r in flipped["curves"] if r["kind"] == kind)
        target["kind"] = other
        expect(not workloads.check_test_report(flipped, curves).ok,
               f"test oracle rejects a {kind} verdict flipped to {other}")
    rc_op = workloads.OpResult("test", 0.0, output=(2, test_op.output[1]))
    expect(not wl.check(spec, rc_op).ok, "screen oracle rejects exit code 2")


def check_tracing() -> None:
    before = tracing.bindings_snapshot()
    aliases = ((pinchext.cli, "extension_test"),
               (pinchext.extension, "detect_rational"),
               (pinchext.families, "winding_number"))
    originals = {alias: getattr(*alias) for alias in aliases}
    for name in workloads.WORKLOADS:
        wl, spec, inputs = small_round(name)
        counts = []
        for _ in range(2):
            tracer = tracing.Tracer()
            try:
                tracer.install()
                patched = [alias for alias, fn in originals.items()
                           if getattr(*alias) is not fn]
                wl.run_round(spec, inputs)
            finally:
                tracer.remove()
            metrics = tracing.round_metrics(*tracer.take())
            counts.append({k: v for k, v in metrics.items()
                           if k.endswith((".calls", "_ratio"))})
        expect(len(patched) == len(originals),
               f"{name}: aliased bindings are wrapped while traced")
        expect(counts[0] == counts[1] and any(counts[0].values()),
               f"{name}: traced counts repeat exactly across two rounds")
    after = tracing.bindings_snapshot()
    expect(all(after.get(key) is value for key, value in before.items()),
           "every wrapper is removed after tracing")


def check_refuses_without_sources() -> None:
    bare = WORKDIR / "bare"
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bare / BENCH.name / "run.py"), "--workload",
         "screen", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    expect(proc.returncode != 0 and not proc.stdout,
           "run.py exits non-zero without a result when src/ is missing")


def main() -> int:
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir(parents=True)
    try:
        check_oracles()
        check_tracing()
        check_refuses_without_sources()
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
