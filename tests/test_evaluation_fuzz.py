"""Mutations of the detection fixtures: the columnar loader fails as the oracle does.

Each example changes or deletes one field of one entry of a detections
fixture, changes its bbox or one bbox coordinate, or replaces the whole
entry; a second strategy makes two such faults, in one entry or in two.
It then loads the file with ``load_detections`` and with the
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

The oracle also carries one rule the original loader lacked, so both
agree on it: finite corners whose area ``w * h`` overflows fail with
``detections[i].bbox: w * h is out of float range``.
"""

import json
import math
import pathlib
import re
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


ACTIONS = ["set", "set", "set bbox", "set coordinate", "delete", "replace entry"]


def mutate(draw, payload, index, actions=ACTIONS):
    """Change or delete one field of ``payload[index]``, or replace the entry."""
    entry = payload[index]
    key = draw(st.sampled_from(["image_id", "category_id", "bbox", "score"]))
    action = draw(st.sampled_from(actions))
    if action == "delete":
        entry.pop(key, None)
    elif action == "replace entry":
        payload[index] = draw(VALUES)
    elif action == "set bbox":
        entry["bbox"] = draw(BBOXES)
    elif action == "set coordinate":
        # a first fault in the same entry may have replaced the box
        if isinstance(entry.get("bbox"), list) and len(entry["bbox"]) == 4:
            entry["bbox"][draw(st.integers(0, 3))] = draw(VALUES)
    else:
        entry[key] = draw(VALUES)


@st.composite
def mutations(draw):
    """(payload, index of the mutated entry)."""
    payload = json.loads(FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))])
    index = draw(st.integers(0, len(payload) - 1))
    mutate(draw, payload, index)
    return payload, index


@st.composite
def two_faults(draw):
    """A payload with two fields of one entry, or one field in each of two entries, mutated."""
    payload = json.loads(FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))])
    indices = [draw(st.integers(0, len(payload) - 1)) for _ in range(2)]
    # an entry mutated twice keeps its object, so the second fault has a field to break
    actions = ACTIONS[:-1] if indices[0] == indices[1] else ACTIONS
    for index in indices:
        mutate(draw, payload, index, actions)
    return payload


def outcome(loader, path):
    try:
        return "loaded", loader(path)
    except ValidationError as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def assert_matches_oracle(got, want, index):
    """``got`` is the oracle's outcome ``want``, up to the differences that name entry ``index``."""
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


@settings(max_examples=150, deadline=2000, derandomize=True, database=None)
@given(case=mutations())
def test_mutated_fixture_loads_or_fails_as_the_oracle_does(work_dir, case):
    payload, index = case
    path = work_dir / "dets.json"
    path.write_text(json.dumps(payload))
    assert_matches_oracle(outcome(load_detections, path), outcome(oracle_load_detections, path),
                          index)


@settings(max_examples=150, deadline=2000, derandomize=True, database=None)
@given(payload=two_faults())
def test_two_faults_fail_on_the_first_bad_entry_as_the_oracle_does(work_dir, payload):
    """The loader names the first entry the oracle rejects, with the oracle's message.

    The oracle does not name every entry it rejects, so it runs on the
    entries before the named one, which both loaders must accept, and on
    those through it.
    """
    path = work_dir / "dets.json"
    path.write_text(json.dumps(payload))
    got = outcome(load_detections, path)
    if got[0] == "loaded":
        assert_matches_oracle(got, outcome(oracle_load_detections, path), None)
        return
    index = int(re.search(r"detections\[(\d+)\]", got[1]).group(1))
    path.write_text(json.dumps(payload[:index]))
    assert outcome(load_detections, path)[0] == "loaded"
    assert outcome(oracle_load_detections, path)[0] == "loaded"
    path.write_text(json.dumps(payload[:index + 1]))
    assert_matches_oracle(got, outcome(oracle_load_detections, path), index)
