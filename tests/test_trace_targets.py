"""Every function bench/trace_cli.py wraps by name is still in the package.

The benchmark's traced run reports a target it cannot find as
``targets_not_found``; this runs the same lookup locally, so deleting a
traced function fails here first.
"""

import importlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

# coco_map's lock-step matcher replaced greedy_match; the tracer still lists it.
GONE = {"evaluation.greedy_match"}


def trace_targets():
    spec = importlib.util.spec_from_file_location("trace_cli", ROOT / "bench" / "trace_cli.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_but_greedy_match_resolves():
    importlib.import_module("detforge.cli")  # the tracer looks targets up after this import
    missing = []
    for name, module_name, attr_path, _timed, _extra in trace_targets():
        owner = importlib.import_module(module_name)
        for part in attr_path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(name)
        else:
            assert callable(owner), name
    assert set(missing) <= GONE, missing
