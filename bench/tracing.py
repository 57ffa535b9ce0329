"""Span tracing of pinchext from outside, for the traced benchmark run.

``Tracer.install`` replaces each traced function with a wrapper at every
name binding that is actually called: pinchext modules import names
directly (``from .rational import detect_rational``), so the binding in
the defining module and every alias in other pinchext modules are
patched.  Methods are patched on their class; ``mpmath.lu_solve`` and
``numpy.linalg.lstsq`` on their module; the evaluators of the ring that
``gallery.gallery_ring`` returns on the ring object.  ``remove`` puts
every original back.  Untraced runs never install anything.

Each wrapper records a span ``(name, start, end, parent)`` in memory;
``round_metrics`` reduces the spans of one round to per-layer metrics.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute path, span name, outcome counted for a ratio)
TRACED: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("pinchext.cli", "parse_config", "cli.parse_config", None),
    ("pinchext.cli", "dump_json", "cli.dump_json", None),
    ("pinchext.extension", "coefficient_ladder", "extension.coefficient_ladder", None),
    ("pinchext.extension", "extension_test", "extension.extension_test",
     lambda verdict: verdict.kind == "holomorphic"),
    ("pinchext.extension", "pinch_estimate", "extension.pinch_estimate", None),
    ("pinchext.extension", "verify_coefficient_bounds",
     "extension.verify_coefficient_bounds", None),
    ("pinchext.extension", "evaluate_extension", "extension.evaluate_extension", None),
    ("pinchext.extension", "DiscFunction.__call__", "extension.DiscFunction.call", None),
    ("pinchext.extension", "DiscFunction.eval_mp", "extension.DiscFunction.eval_mp", None),
    ("pinchext.families", "general_position_check", "families.general_position_check", None),
    ("pinchext.families", "validate_test_sequence", "families.validate_test_sequence", None),
    ("pinchext.boundary", "hardy_project_minus", "boundary.hardy_project_minus", None),
    ("pinchext.boundary", "hardy_split", "boundary.hardy_split", None),
    ("pinchext.boundary", "winding_number", "boundary.winding_number", None),
    ("pinchext.boundary", "CircleFunction.resample", "boundary.CircleFunction.resample", None),
    ("pinchext.rational", "detect_rational", "rational.detect_rational",
     lambda verdict: verdict.is_rational),
    ("pinchext.rational", "blaschke_from_zeros", "rational.blaschke_from_zeros", None),
    ("mpmath", "lu_solve", "mpmath.lu_solve", None),
    ("numpy.linalg", "lstsq", "numpy.linalg.lstsq", None),
)

GALLERY_EVALUATORS = (("evaluator", "gallery.evaluator"),
                      ("mp_evaluator", "gallery.mp_evaluator"))

UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}

# (per-layer metric, span name, statistic, unit) in the order of BENCHMARK.json
LAYER_METRICS: Tuple[Tuple[str, str, str, str], ...] = tuple(
    (f"{span}.{stat}", span, stat, UNITS.get(stat, "ratio"))
    for span, stats in (
        ("mpmath.lu_solve", ("calls", "busy_s")),
        ("extension.coefficient_ladder", ("calls", "busy_s", "self_s")),
        ("numpy.linalg.lstsq", ("calls", "busy_s")),
        ("extension.DiscFunction.eval_mp", ("calls", "busy_s")),
        ("gallery.mp_evaluator", ("calls", "busy_s")),
        ("gallery.evaluator", ("calls", "busy_s")),
        ("extension.extension_test",
         ("calls", "busy_s", "self_s", "holomorphic_ratio")),
        ("families.general_position_check", ("busy_s", "self_s")),
        ("families.validate_test_sequence", ("busy_s",)),
        ("extension.DiscFunction.call", ("calls", "busy_s")),
        ("boundary.hardy_project_minus", ("calls", "busy_s")),
        ("boundary.hardy_split", ("calls", "busy_s")),
        ("boundary.winding_number", ("calls", "busy_s")),
        ("boundary.CircleFunction.resample", ("calls",)),
        ("rational.detect_rational", ("calls", "busy_s", "rational_ratio")),
        ("rational.blaschke_from_zeros", ("calls", "busy_s")),
        ("extension.pinch_estimate", ("busy_s",)),
        ("extension.verify_coefficient_bounds", ("busy_s",)),
        ("extension.evaluate_extension", ("busy_s",)),
        ("cli.parse_config", ("busy_s",)),
        ("cli.dump_json", ("calls", "busy_s")),
    ) for stat in stats)

Span = Tuple[str, float, float, int]


class Tracer:
    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self.hits: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable,
             outcome: Optional[Callable] = None) -> Callable:
        spans, stack, hits = self.spans, self._stack, self.hits
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if outcome is not None and outcome(result):
                hits[name] += 1
            return result

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        pinchext_modules = [mod for name, mod in sorted(sys.modules.items())
                            if name == "pinchext" or name.startswith("pinchext.")]
        for modname, path, name, outcome in TRACED:
            owner = importlib.import_module(modname)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            wrapper = self.wrap(name, original, outcome)
            if classes or not modname.startswith("pinchext"):
                self._patch(owner, attr, wrapper)
                continue
            for mod in pinchext_modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, alias, wrapper)

        gallery = importlib.import_module("pinchext.gallery")
        gallery_ring = gallery.gallery_ring

        @functools.wraps(gallery_ring)
        def traced_gallery_ring(*args, **kwargs):
            ring = gallery_ring(*args, **kwargs)
            for attr, name in GALLERY_EVALUATORS:
                fn = getattr(ring, attr)
                if fn is not None:
                    setattr(ring, attr, self.wrap(name, fn))
            return ring

        self._patch(gallery, "gallery_ring", traced_gallery_ring)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> Tuple[List[Span], Counter]:
        """Hand over the spans and outcome counts recorded so far."""
        spans, hits = list(self.spans), Counter(self.hits)
        self.spans.clear()
        self.hits.clear()
        return spans, hits


def bindings_snapshot() -> Dict[Tuple[int, str], object]:
    """Identity of every binding the tracer may patch, to prove removal."""
    owners = [importlib.import_module(m) for m, *_ in TRACED]
    owners += [getattr(importlib.import_module(m), p.split(".")[0])
               for m, p, *_ in TRACED if "." in p]
    owners += [mod for name, mod in sys.modules.items()
               if name == "pinchext" or name.startswith("pinchext.")]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def round_metrics(spans: List[Span], hits: Counter) -> Dict[str, float]:
    """Per-layer metrics of one round.

    ``busy_s`` counts each span whose ancestors carry another name (a
    recursive call is not counted twice); ``self_s`` subtracts the time
    of the direct child spans.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Counter = Counter()
    busy: Counter = Counter()
    self_time: Counter = Counter()
    for idx, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_time[name] += end - start - child_time[idx]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            busy[name] += end - start
    out = {}
    for metric, span, stat, _ in LAYER_METRICS:
        if stat == "calls":
            out[metric] = calls[span]
        elif stat == "busy_s":
            out[metric] = busy[span]
        elif stat == "self_s":
            out[metric] = self_time[span]
        else:
            out[metric] = hits[span] / calls[span] if calls[span] else 0.0
    return out


def write_spans(spans: List[Span], path: Path) -> None:
    with gzip.open(path, "wt", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(("index", "name", "start", "end", "parent"))
        for idx, (name, start, end, parent) in enumerate(spans):
            writer.writerow((idx, name, repr(start), repr(end), parent))
