#!/usr/bin/env python3
"""pinchext benchmark: seeded workloads, oracle-checked, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds T]

NAME is one of ``ladder-mp``, ``ladder-float`` and ``screen`` (see
``bench/README.md``).  One process and one caller drive pinchext through
its public entry points; each call starts after the previous one
returns.  ``PINCHEXT_THREADS`` is removed from the environment and the
BLAS thread count is pinned to 1.

With ``--trace 0`` the run measures set-up in fresh interpreters, then
repeats rounds of the workload for T seconds with pinchext unpatched and
reports the end-to-end metrics.  Times are scaled by the reference
computation of ``reference.py``, timed next to them, because the host's
speed drifts; the raw wall times are printed on a ``wall`` line.  With
``--trace 1`` it runs untraced for T/2 seconds, then installs the span
wrappers of ``tracing.py`` for the rest and reports the per-layer
metrics, per round, as medians.  Every
output is checked by the workload's oracle; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload both ways and prints
every metric with its unit.

Inputs and traces go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("ladder-mp", "ladder-float", "screen")
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def pin_environment() -> None:
    os.environ.pop("PINCHEXT_THREADS", None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    import mpmath
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "pinchext").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "pinchext_threads_unset": "PINCHEXT_THREADS" not in os.environ,
    }


def measure_setup(name: str, spec_path: Path):
    """Median over fresh interpreters of import plus input construction,
    raw and scaled by the reference timed around the probes."""
    from reference import reference_samples, scale
    samples, refs = [], reference_samples()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), name, str(spec_path)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        samples.append(float(proc.stdout.split()[-1]))
        refs += reference_samples(3)
    raw = statistics.median(samples)
    return raw, scale(raw, refs)


class Tally:
    """Operations attempted and failed, with the oracle's accuracy."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digits = []

    def record(self, workload, spec, op) -> None:
        from workloads import Verdict
        self.attempted += 1
        verdict = (Verdict(False, None, op.error) if op.error is not None
                   else workload.check(spec, op))
        if verdict.digits is not None:
            self.digits.append(verdict.digits)
        if not verdict.ok:
            self.failed += 1
            print(f"FAILED {workload.name} {op.label}: {verdict.reason}",
                  file=sys.stderr)


def run_phase(workload, spec, inputs, deadline: float, tally: Tally,
              tracer=None):
    """Rounds until the deadline (at least one); a round starts only if,
    judged by the last one, it ends less than half a round past it.

    Returns the raw round times, the round times scaled by the reference
    timed just before and after each round, and, when traced, the
    per-round layer metrics plus the first round's spans.
    """
    from reference import reference_samples, scale
    from tracing import round_metrics
    times, scaled, layers, first_spans = [], [], [], None
    refs = reference_samples()
    while not times or time.perf_counter() < deadline - times[-1] / 2:
        ops = workload.run_round(spec, inputs)
        times.append(sum(op.seconds for op in ops))
        after = reference_samples()
        scaled.append(scale(times[-1], refs + after))
        refs = after
        if tracer is not None:
            spans, hits = tracer.take()
            layers.append(round_metrics(spans, hits))
            if first_spans is None:
                first_spans = spans
        for op in ops:
            tally.record(workload, spec, op)
    return times, scaled, layers, first_spans


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: int, traced: bool) -> dict:
    # numpy is first imported here, after pin_environment() set its threads
    from tracing import LAYER_METRICS, Tracer, bindings_snapshot, write_spans
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    workdir = WORK / f"{name}-s{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        spec = workload.generate(seed, workdir)
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="ascii")
        setup_raw, setup_s = (None, None) if traced else measure_setup(
            name, spec_path)
        inputs = workload.construct(spec)
        begin = time.perf_counter()
        if not traced:
            times, scaled, _, _ = run_phase(workload, spec, inputs,
                                            begin + seconds, tally)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            print("wall " + json.dumps({"run_s": statistics.median(times),
                                        "setup_s": setup_raw}))
            metrics = {
                "run_s": _metric(statistics.median(scaled), "s"),
                "setup_s": _metric(setup_s, "s"),
                "peak_rss_mb": _metric(rss_mb, "MB"),
                "success_rate": _metric(
                    1.0 - tally.failed / tally.attempted, "ratio"),
                "accuracy_digits": _metric(
                    min(tally.digits) if tally.digits else 0.0, "digits"),
            }
            removed = True
        else:
            _, plain, _, _ = run_phase(workload, spec, inputs,
                                       begin + seconds / 2.0, tally)
            before = bindings_snapshot()
            tracer = Tracer()
            try:
                tracer.install()
                _, traced_times, layers, spans = run_phase(
                    workload, spec, inputs, begin + seconds, tally, tracer)
            finally:
                tracer.remove()
            after = bindings_snapshot()
            removed = all(after.get(key) is value for key, value in before.items())
            write_spans(spans, WORK / f"trace-{name}-s{seed}.csv.gz")
            metrics = {}
            for metric, _, stat, unit in LAYER_METRICS:
                middle = (statistics.median_low if stat == "calls"
                          else statistics.median)
                metrics[metric] = _metric(middle(r[metric] for r in layers), unit)
            metrics["trace.overhead_ratio"] = _metric(
                statistics.median(traced_times) / statistics.median(plain) - 1.0,
                "ratio")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not removed:
        print("FAILED trace wrappers were not all removed", file=sys.stderr)
    return {"correct": tally.failed == 0 and removed,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced and traced, as separate processes."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 name, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit code {proc.returncode}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{name} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:45s} {entry['value']:.6g} {entry['unit']}")
            if not result["correct"]:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "pinchext" / "__init__.py").is_file():
        print(f"error: pinchext sources not found under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
