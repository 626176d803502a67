"""One-field mutations of the detection fixtures: the columnar loader fails as the oracle does.

Each example changes or deletes one field of one entry of a detections
fixture, changes its bbox or one bbox coordinate, or replaces the whole
entry, then loads the file with ``load_detections`` and with the
object-path ``oracle_load_detections``. Both must raise the same exception type with
the same message, or both load the same columns bit for bit. Three
differences are intended, and each names the mutated entry ``i`` where
the oracle did not:

- a negative ``w`` or ``h``: the oracle's ``negative extent: ...`` is
  prefixed with ``detections[i].bbox: ``;
- a score that is NaN or outside [0, 1]: the oracle's ``score must be in
  [0, 1], got ...`` is prefixed with ``detections[i].score: ``;
- an ``x + w`` or ``y + h`` that overflows to infinity: the oracle loaded
  the infinite corner, and the loader raises ``detections[i].bbox: x + w
  or y + h is out of float range``.
"""

import json
import math
import pathlib
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from detforge.errors import ValidationError  # noqa: E402
from detforge.evaluation import load_detections  # noqa: E402
from test_evaluation import assert_same_columns, oracle_load_detections  # noqa: E402

DATA = pathlib.Path(__file__).parent / "data"
FIXTURES = {
    name: (DATA / name).read_text()
    for name in ("eval_mixed_dets.json", "tiny_perfect_dets.json")
}
FLOAT_MAX = sys.float_info.max

NUMBERS = st.one_of(
    st.integers(-5, 2000),
    st.sampled_from([2**53 + 1, 2**63 - 1, 2**63, -(2**63) - 1, 10**200, int(FLOAT_MAX),
                     int(FLOAT_MAX) + 1, 10**400, -(10**400)]),
    st.floats(),
    st.sampled_from([-0.0, 0.0, 0.5, 1.0, 1e308, -1e308, FLOAT_MAX, 1e-320]),
)
BBOXES = st.one_of(
    st.lists(st.one_of(st.integers(-50, 2000), st.floats(-50, 2000), st.just(-0.0)),
             max_size=5),
    st.lists(NUMBERS, min_size=4, max_size=4),
    # a negative extent, corners that overflow, and -0.0 everywhere
    st.sampled_from([[1e20, 0, -1, 10], [1e308, 0, 1e308, 1], [0, FLOAT_MAX, 1, FLOAT_MAX],
                     [-0.0, -0.0, 0.0, -0.0], [True, 0, 1, 1]]),
)
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    NUMBERS,
    st.text(max_size=3),
    BBOXES,
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


@st.composite
def mutations(draw):
    """(payload, index of the mutated entry)."""
    payload = json.loads(FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))])
    index = draw(st.integers(0, len(payload) - 1))
    entry = payload[index]
    key = draw(st.sampled_from(["image_id", "category_id", "bbox", "score"]))
    action = draw(st.sampled_from(
        ["set", "set", "set bbox", "set coordinate", "delete", "replace entry"]
    ))
    if action == "delete":
        del entry[key]
    elif action == "replace entry":
        payload[index] = draw(VALUES)
    elif action == "set bbox":
        entry["bbox"] = draw(BBOXES)
    elif action == "set coordinate":
        entry["bbox"][draw(st.integers(0, 3))] = draw(VALUES)
    else:
        entry[key] = draw(VALUES)
    return payload, index


def outcome(loader, path):
    try:
        return "loaded", loader(path)
    except ValidationError as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=2000, derandomize=True, database=None)
@given(case=mutations())
def test_mutated_fixture_loads_or_fails_as_the_oracle_does(work_dir, case):
    payload, index = case
    path = work_dir / "dets.json"
    path.write_text(json.dumps(payload))
    got, want = outcome(load_detections, path), outcome(oracle_load_detections, path)
    where = f"detections[{index}]"
    if want[0] == "loaded":
        if got[0] == "loaded":
            assert_same_columns(got[1], want[1])
        else:
            assert got == (ValidationError, f"{where}.bbox: x + w or y + h is out of float range")
            assert math.isinf(want[1][index].bbox.x_max) or math.isinf(want[1][index].bbox.y_max)
        return
    for field, oracle_message in (("bbox", "negative extent: "),
                                  ("score", "score must be in [0, 1], got ")):
        if want[1].startswith(oracle_message):
            assert got == (want[0], f"{where}.{field}: {want[1]}")
            return
    assert got == want
