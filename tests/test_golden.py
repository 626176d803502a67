"""Golden results of the commands that draw no random numbers.

Each case runs one CLI command on the bundled fixtures and compares the
report's ``result`` section, as ``json.dumps(result, sort_keys=True)``,
with ``tests/data/golden/<case>.json``; a ``tile`` case also compares
the bytes of its exported file with ``<case>.export.json``. The records
each ``augment-replay`` case replays are committed next to them.
``cluster``, sampling and ``eval`` are left out: their bits depend on
NumPy's random streams or reduction order.

A change meant to alter a result regenerates the files with
``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

import contextlib
import io
import json
import os
import pathlib

import pytest

from detforge.cli import main

DATA = pathlib.Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden"
FIXTURES = {"tiny": DATA / "tiny.json", "mixed": DATA / "eval_mixed_ann.json"}
EXPORT = "tiled.json"  # relative, so ``exported_to`` is the same in every checkout


def _cases():
    cases = {
        "anchors-default": ("anchors",),
        "anchors-shared-sizes": ("anchors", "--shared-sizes", "--sizes", "12,24,48"),
        "anchors-angle-0": ("anchors", "--angles", "0"),
    }
    for name, path in FIXTURES.items():
        ann = ("--ann", str(path))
        cases.update({
            f"match-{name}-default": ("match",) + ann,
            f"match-{name}-force": ("match",) + ann + ("--force-match",),
            f"match-{name}-thresholds": ("match",) + ann + ("--pos-iou", "0.5", "--neg-iou", "0.3"),
            f"match-{name}-shared": ("match",) + ann + (
                "--shared-sizes", "--sizes", "24,48,96,192", "--pos-iou", "0.5"),
            f"stats-{name}": ("stats",) + ann,
            f"tile-{name}-default": ("tile",) + ann + ("--export-ann", EXPORT),
            f"tile-{name}-small": ("tile",) + ann + (
                "--tile-size", "150", "--overlap", "40", "--export-ann", EXPORT),
            f"replay-{name}": ("augment-replay",) + ann + (
                "--records", str(GOLDEN / f"records-{name}.jsonl")),
        })
    return cases


CASES = _cases()


def _run(argv):
    """The case's result as sorted JSON text and its exported bytes, if any."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0, argv
    result = json.dumps(json.loads(out.getvalue())["result"], sort_keys=True)
    exported = pathlib.Path(EXPORT).read_bytes() if EXPORT in argv else None
    return result, exported


@pytest.mark.parametrize("case", sorted(CASES))
def test_result_is_golden(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result, exported = _run(CASES[case])
    assert result == (GOLDEN / f"{case}.json").read_text(encoding="utf-8")
    if exported is not None:
        assert exported == (GOLDEN / f"{case}.export.json").read_bytes()


def test_every_golden_file_has_a_case():
    names = {p.name for p in GOLDEN.iterdir()}
    expected = {f"{c}.json" for c in CASES}
    expected |= {f"{c}.export.json" for c, argv in CASES.items() if EXPORT in argv}
    expected |= {f"records-{name}.jsonl" for name in FIXTURES}
    assert names == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    os.chdir(GOLDEN)  # the exported file lands here, then moves to its case's name
    for case, argv in CASES.items():
        result, exported = _run(argv)
        pathlib.Path(f"{case}.json").write_text(result, encoding="utf-8")
        if exported is not None:
            os.replace(EXPORT, f"{case}.export.json")
