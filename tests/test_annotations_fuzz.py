"""Mutations of the fixtures: the columnar loader fails as the oracle does.

Each example changes, deletes or replaces one field of one entry of a
fixture file, or two fields of one entry, or one field in each of two
entries. It then loads the file with ``load_dataset`` and with the
object-path ``oracle_load_dataset``. Both must raise the same exception
type with the same message, or both load the same dataset. The one
intended difference is an integer too large for a column's dtype: the
oracle either kept it or ended in an ``OverflowError``, and the columnar
loader rejects it with a one-line error naming the entry.

The oracle also carries one rule the original loader lacked, so both
agree on it: a clamped box whose ``w * h`` overflows fails with
``annotations[i].bbox: w * h of the clamped box is out of float range``,
even when ``area`` is given (a missing ``area`` fails first, as
infinite).
"""

import json
import pathlib
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from detforge.annotations import load_dataset  # noqa: E402
from detforge.errors import ValidationError  # noqa: E402
from oracles import assert_same_dataset, oracle_load_dataset  # noqa: E402

DATA = pathlib.Path(__file__).parent / "data"
FIXTURES = {
    name: (DATA / name).read_text() for name in ("tiny.json", "eval_mixed_ann.json")
}
FLOAT_MAX = sys.float_info.max
INT64 = range(-(2**63), 2**63)

VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 2000),
    st.sampled_from([2**53 + 1, 2**63 - 1, 2**63, -(2**63) - 1, 10**200,
                     int(FLOAT_MAX), int(FLOAT_MAX) * 2, 10**400, -(10**400),
                     # a float64 cast rounds these to a finite float; parse_xywh does not
                     int(FLOAT_MAX) + 1, -(int(FLOAT_MAX) + 1)]),
    st.floats(),
    st.sampled_from([-0.0, 0.0, 0.5, 1e308, -1e308]),
    st.text(max_size=3),
    st.lists(st.one_of(st.integers(-50, 2000), st.floats(-50, 2000), st.just(-0.0)),
             max_size=5),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


ACTIONS = ["set", "set", "set", "delete", "replace entry"]
KINDS = ["images", "annotations", "categories"]


def mutate(draw, entries, index, actions=ACTIONS):
    """Change, delete or replace one field of ``entries[index]``; returns the new value."""
    entry = entries[index]
    key = draw(st.sampled_from(sorted(set(entry) | {"area", "iscrowd"})))
    action = draw(st.sampled_from(actions))
    value = None
    if action == "delete":
        entry.pop(key, None)
    elif action == "replace entry":
        value = entries[index] = draw(VALUES)
    else:
        value = entry[key] = draw(VALUES)
    return value


@st.composite
def mutations(draw):
    """(payload, new value) with one field of one fixture entry mutated."""
    payload = json.loads(FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))])
    entries = payload[draw(st.sampled_from(KINDS))]
    index = draw(st.integers(0, len(entries) - 1))
    return payload, mutate(draw, entries, index)


@st.composite
def two_faults(draw):
    """(payload, new values): two fields of one entry, or one field in each of two entries."""
    payload = json.loads(FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))])
    targets = []
    for _ in range(2):
        kind = draw(st.sampled_from(KINDS))
        targets.append((kind, draw(st.integers(0, len(payload[kind]) - 1))))
    # an entry mutated twice keeps its object, so the second fault has a field to break
    actions = ACTIONS[:-1] if targets[0] == targets[1] else ACTIONS
    return payload, [mutate(draw, payload[kind], index, actions) for kind, index in targets]


def outcome(loader, path):
    try:
        return "loaded", loader(path)
    except (ValidationError, OverflowError) as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def assert_matches_oracle(path, values, work_dir):
    """The loader's outcome is the oracle's, or an int rejected for its dtype's range."""
    got, want = outcome(load_dataset, path), outcome(oracle_load_dataset, path)
    if want[0] is OverflowError or (got[0] is ValidationError and " is out of " in got[1]):
        assert any(type(v) is int and (abs(v) > FLOAT_MAX or v not in INT64) for v in values)
        assert got[0] is ValidationError
        assert got[1].endswith((" is out of float range", " is out of int64 range"))
        return
    assert got[0] == want[0]
    if got[0] == "loaded":
        assert_same_dataset(got[1], want[1], work_dir)
    else:
        assert got[1] == want[1]


@settings(max_examples=150, deadline=2000, derandomize=True, database=None)
@given(case=mutations())
def test_mutated_fixture_loads_or_fails_as_the_oracle_does(work_dir, case):
    payload, value = case
    path = work_dir / "ann.json"
    path.write_text(json.dumps(payload))
    assert_matches_oracle(path, [value], work_dir)


@settings(max_examples=150, deadline=2000, derandomize=True, database=None)
@given(case=two_faults())
def test_two_faults_fail_on_the_first_bad_entry_as_the_oracle_does(work_dir, case):
    """Both loaders report the first bad entry in file order, and its first broken rule."""
    payload, values = case
    path = work_dir / "ann.json"
    path.write_text(json.dumps(payload))
    assert_matches_oracle(path, values, work_dir)
