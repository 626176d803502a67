"""Run one detforge command in-process with spans around its layers.

Usage: python3 bench/trace_cli.py {time|peak} SPANS_JSON -- <detforge args>

The program is traced from outside: after ``detforge.cli`` is imported,
each public function below is replaced by a wrapper at every binding a
caller can look it up through (its defining module, every detforge
module that imported the name, and the package namespace), so a later
change of import style cannot silently zero a counter. The report still
goes to stdout unchanged.

``time`` mode records spans (name, parent span, start, end) in memory
and per-call counters; ``peak`` mode wraps only the functions whose
peak allocation is reported and measures it with ``tracemalloc``, so
tracing allocations never inflates a timed span. The result is written
to SPANS_JSON when the command ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import tracemalloc
from collections import Counter


def _arg(args, kwargs, fn, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _cluster_facts(fn, args, kwargs, result):
    max_iters = _arg(args, kwargs, fn, "max_iters")
    # _lloyd counts its initial assignment, so a restart that never
    # converged reports max_iters + 1 iterations.
    return {"iterations": result.iterations, "hit_max_iters": int(result.iterations > max_iters)}


# (span name, defining module, attribute path, timed, extra counters).
# Untimed targets are counted only: they run hundreds of thousands of
# times and a span each would dominate what it measures.
TARGETS = (
    ("cli.dispatch", "detforge.cli", "dispatch", True, None),
    ("annotations.load_dataset", "detforge.annotations", "load_dataset", True,
     lambda fn, a, k, r: {"instances": len(r.instances)}),
    ("annotations.compute_stats", "detforge.annotations", "compute_stats", True, None),
    ("annotations.tile", "detforge.annotations", "tile", True,
     lambda fn, a, k, r: {"tiles": len(r.images), "instances_out": len(r.instances)}),
    ("annotations.export_dataset", "detforge.annotations", "export_dataset", True,
     lambda fn, a, k, r: {"bytes": os.path.getsize(_arg(a, k, fn, "path"))}),
    ("augment.pipeline_apply", "detforge.augment", "AugmentationPipeline.apply", True, None),
    ("augment.replay", "detforge.augment", "replay", True, None),
    ("evaluation.load_detections", "detforge.evaluation", "load_detections", True,
     lambda fn, a, k, r: {"dets": len(r)}),
    ("evaluation.coco_map", "detforge.evaluation", "coco_map", True, None),
    ("evaluation.greedy_match", "detforge.evaluation", "greedy_match", True, None),
    ("evaluation.average_precision", "detforge.evaluation", "average_precision", True, None),
    ("geometry.iou", "detforge.geometry", "iou", False, None),
    ("geometry.clip", "detforge.geometry", "clip", False, None),
    ("geometry.iou_matrix", "detforge.geometry", "iou_matrix", True,
     lambda fn, a, k, r: {"pairs": int(r.size)}),
    ("geometry.wh_iou_matrix", "detforge.geometry", "wh_iou_matrix", True,
     lambda fn, a, k, r: {"pairs": int(r.size)}),
    ("anchors.generate_anchors", "detforge.anchors", "generate_anchors", True,
     lambda fn, a, k, r: {"anchors": r.total}),
    ("anchors.match_anchors", "detforge.anchors", "match_anchors", True, None),
    ("anchors.cluster_anchor_sizes", "detforge.anchors", "cluster_anchor_sizes", True,
     _cluster_facts),
)

PEAK_TARGETS = ("evaluation.coco_map", "anchors.match_anchors")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or None, start, end]
        self.stack = []
        self.counts = Counter()
        self.peak_bytes = {}

    def span(self, name, fn, extra):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, self.stack[-1] if self.stack else None, 0.0, 0.0])
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index][2:] = [start, end]
            self.counts[name + ".calls"] += 1
            if extra is not None:
                for key, value in extra(fn, args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def count(self, name, fn):
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def peak(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), peak)

        return wrapper


def install(tracer, mode):
    """Wrap every target at every binding; return the targets not found."""
    missing = []
    modules = [m for n, m in sys.modules.items() if n == "detforge" or n.startswith("detforge.")]
    for name, module_name, attr_path, timed, extra in TARGETS:
        if mode == "peak" and name not in PEAK_TARGETS:
            continue
        owner = sys.modules.get(module_name)
        *owner_path, attr = attr_path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(name)
            continue
        if mode == "peak":
            wrapper = tracer.peak(name, original)
        elif timed:
            wrapper = tracer.span(name, original, extra)
        else:
            wrapper = tracer.count(name, original)
        setattr(owner, attr, wrapper)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return missing


def main(argv):
    if len(argv) < 3 or argv[0] not in ("time", "peak") or argv[2] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 64
    mode, out_path, _, *cli_argv = argv
    import detforge.cli

    tracer = Tracer()
    missing = install(tracer, mode)
    try:
        return detforge.cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": tracer.spans,
                    "counts": dict(tracer.counts),
                    "peak_bytes": tracer.peak_bytes,
                    "missing": missing,
                },
                fh,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
