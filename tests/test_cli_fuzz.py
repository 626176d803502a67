"""Mutated inputs for every subcommand: the CLI keeps its exit-code contract.

Each example takes one input file, deletes one key or array entry
anywhere in its JSON, or replaces one value (the whole document
included) with ``null``, ``true``, ``"x"``, ``""``, ``-1``, ``[]``,
``{}``, ``2**70``, ``10**400`` or ``1e308``. It then runs ``cli.main``
in process. The exit code must be 0, 1, 2 or 64, stderr must hold at
most one line, and no traceback may reach it.

The inputs are ``tiny.json`` as the ``--ann`` of every subcommand that
reads one, ``eval_mixed_dets.json`` as ``eval``'s ``--dets``, one line
of ``golden/records-tiny.jsonl`` as ``augment-replay``'s ``--records``,
a config file for each subcommand, and one shared config file, the
union of those, that every subcommand reads. An image side or image
size of ``2**70`` stays cheap: ``tile`` fails it at ``MAX_TILES``,
``match`` at ``MAX_EDGE_ANCHORS``, and no other command walks its
pixels; a restart or iteration count of ``2**70`` fails at
``MAX_RESTARTS`` or ``MAX_ITERS``. ``10**400`` is past the float range,
which every pixel length (an image side, an ``--image-size``, a stride,
a ``--tile-size`` or ``--overlap``, a replayed size) must fit: a
pixel-length flag set to it must exit 1.

Command lines are fuzzed too: each annotation command line, ``anchors``
and ``loss-check`` run with one of the subcommand's flags set to one of
the replacement values as text. There the one carve-out is exit 64,
where argparse prints its usage block before the one ``error:`` line.

Each ``cli.main`` call runs under a wall-clock guard: a call that runs
past ``GUARD_SECONDS`` fails its test as ``CliHang`` instead of stalling
the suite. Hypothesis checks its ``deadline`` only once a call returns.
"""

import contextlib
import copy
import io
import json
import os
import pathlib
import signal

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from detforge import cli  # noqa: E402

DATA = pathlib.Path(__file__).parent / "data"
TINY = str(DATA / "tiny.json")
MIXED_ANN = str(DATA / "eval_mixed_ann.json")
MIXED_DETS = str(DATA / "eval_mixed_dets.json")
RECORDS = str(DATA / "golden" / "records-tiny.jsonl")

REPLACEMENTS = [None, True, "x", "", 0, -1, [], {}, 2**70, 10**400, 1e308]
FUZZ = settings(max_examples=60, deadline=2000, derandomize=True, database=None)
# The slowest passing call takes ~0.13 s on a shared 2-core machine; the
# guard leaves room for a loaded one and still ends a hang within seconds.
GUARD_SECONDS = 10.0

ANCHORS = {"sizes": [16.0, 32.0, 64.0, 128.0, 256.0], "aspect_ratios": [0.5, 1.0, 2.0],
           "angles": [-90.0, 0.0, 90.0], "strides": [4, 8, 16, 32, 64],
           "shared_sizes": False, "image_size": [800, 800]}
# a valid config file per subcommand, setting every input and knob it reads
CONFIGS = {
    "stats": {"paths": {"annotations": TINY}},
    "tile": {"paths": {"annotations": TINY, "export_annotations": "tiles.json"},
             "tile": {"tile_size": 800, "overlap": 200, "min_visibility": 0.25}},
    "cluster": {"paths": {"annotations": TINY},
                "cluster": {"k": 3, "seed": 0, "restarts": 2, "max_iters": 100}},
    "anchors": {"anchors": ANCHORS},
    "match": {"paths": {"annotations": TINY}, "anchors": ANCHORS,
              "match": {"pos_iou": 0.7, "neg_iou": 0.3, "force_match": False}},
    "eval": {"paths": {"annotations": MIXED_ANN, "detections": MIXED_DETS},
             "eval": {"max_dets": 100, "iou_thresholds": [0.5, 0.75]}},
    "augment-replay": {"paths": {"annotations": TINY}, "augment": {"aug_id": 3, "seed": 0}},
    "loss-check": {"loss": {"gamma": 2.0, "seed": 0}},
}
# one config file for the whole pipeline: the union of the blocks above,
# with eval on the detections of tiny.json
SHARED_CONFIG = {
    **{block: node for doc in CONFIGS.values() for block, node in doc.items()},
    "paths": {"annotations": TINY, "detections": str(DATA / "tiny_perfect_dets.json"),
              "export_annotations": "tiles.json"},
}
# the commands that read an annotation file, each after "--ann FILE"
ANN_COMMANDS = [
    ["stats"],
    ["tile", "--export-ann", "tiles.json"],
    ["cluster", "--restarts", "2"],
    ["match"],
    ["eval", "--dets", str(DATA / "tiny_perfect_dets.json")],
    ["augment-replay", "--aug-id", "1"],
    ["augment-replay", "--aug-id", "3"],
    ["augment-replay", "--records", RECORDS],
]


def json_paths(node, prefix=()):
    """The path of every key and array entry under ``node``, parents first."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """``doc`` with one key or entry deleted, or one value replaced.

    The key name (an array entry counting as one name) is drawn first,
    so a field that appears once, such as an image's ``width``, is as
    likely to change as one every annotation has.
    """
    by_name = {}
    for path in [(), *json_paths(doc)]:
        name = path[-1] if path and isinstance(path[-1], str) else ("[]" if path else "")
        by_name.setdefault(name, []).append(path)
    path = draw(st.sampled_from(by_name[draw(st.sampled_from(list(by_name)))]))
    ops = ["delete", *REPLACEMENTS] if path else REPLACEMENTS
    op = draw(st.sampled_from(ops))
    if not path:
        return copy.deepcopy(op)
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if op == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(op)
    return doc


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_fuzz")


class CliHang(BaseException):
    """A ``cli.main`` call ran past ``GUARD_SECONDS``.

    A BaseException, so neither the CLI's error handling nor Hypothesis'
    shrinking, which would rerun the hang, catches it.
    """


@contextlib.contextmanager
def wall_clock_guard(argv):
    """Raise ``CliHang`` in the main thread if the body outlasts ``GUARD_SECONDS``."""
    def expire(signum, frame):
        raise CliHang(f"detforge {' '.join(argv)} ran past {GUARD_SECONDS:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, GUARD_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# the flags that take pixel lengths
PIXEL_LENGTH_FLAGS = {"--image-size", "--strides", "--tile-size", "--overlap"}
PAST_FLOAT = str(10**400)


def past_float_length(argv) -> bool:
    """Whether ``argv`` gives a pixel-length flag a value of ``10**400``."""
    flag = None
    for arg in argv:
        if arg.startswith("--"):
            flag = arg
        elif flag in PIXEL_LENGTH_FLAGS and PAST_FLOAT in arg.split(","):
            return True
    return False


def assert_contract(work_dir, argv, usage_block=False):
    """Run ``detforge ARGV`` in ``work_dir``, where relative output paths land.

    With ``usage_block``, exit 64 may print argparse's usage lines before
    its one ``error:`` line, which must come last. A pixel-length flag
    set to ``10**400`` must exit 1. Returns the exit code.
    """
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                wall_clock_guard(argv):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    text = err.getvalue()
    assert code in (0, 1, 2, 64), (argv, code, text)
    assert code == 1 or not past_float_length(argv), (argv, code, text)
    lines = text.splitlines()
    if usage_block and code == 64:
        assert [i for i, line in enumerate(lines) if "error:" in line] == [len(lines) - 1], (
            argv, text)
    else:
        assert len(lines) <= 1, (argv, text)
    assert "Traceback" not in text, (argv, text)
    return code


def write(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


@settings(FUZZ, max_examples=200)
@given(doc=mutated(json.loads(pathlib.Path(TINY).read_text())))
def test_mutated_annotations(work_dir, doc):
    ann = write(work_dir / "ann.json", doc)
    for command, *rest in ANN_COMMANDS:
        assert_contract(work_dir, [command, "--ann", ann, *rest])


@FUZZ
@given(doc=mutated(json.loads(pathlib.Path(MIXED_DETS).read_text())))
def test_mutated_detections(work_dir, doc):
    dets = write(work_dir / "dets.json", doc)
    assert_contract(work_dir, ["eval", "--ann", MIXED_ANN, "--dets", dets])


RECORD_LINES = [json.loads(line) for line in pathlib.Path(RECORDS).read_text().splitlines()]


@FUZZ
@given(data=st.data())
def test_mutated_records_line(work_dir, data):
    index = data.draw(st.integers(0, len(RECORD_LINES) - 1))
    lines = [json.dumps(line) for line in RECORD_LINES]
    lines[index] = json.dumps(data.draw(mutated(RECORD_LINES[index])))
    records = work_dir / "records.jsonl"
    records.write_text("\n".join(lines) + "\n")
    assert_contract(work_dir, ["augment-replay", "--ann", TINY, "--records", str(records)])


@pytest.mark.parametrize("commands, doc", [
    *[([command], CONFIGS[command]) for command in sorted(CONFIGS)],
    (sorted(CONFIGS), SHARED_CONFIG),
], ids=[*sorted(CONFIGS), "shared"])
def test_mutated_config(work_dir, commands, doc):
    @FUZZ
    @given(doc=mutated(doc))
    def run(doc):
        config = write(work_dir / "config.json", doc)
        for command in commands:
            assert_contract(work_dir, [command, "--config", config])

    run()


# every command line above with its input named, plus the two commands
# that read no annotation file
COMMAND_LINES = [[command, "--ann", TINY, *rest] for command, *rest in ANN_COMMANDS]
COMMAND_LINES += [["anchors"], ["loss-check"]]


@settings(FUZZ, max_examples=200)
@given(data=st.data())
def test_mutated_command_line(work_dir, data):
    argv = data.draw(st.sampled_from(COMMAND_LINES))
    options = [(flag, tag) for _, tag, _, flag, *_ in cli._options_for(argv[0])]
    flag, tag = data.draw(st.sampled_from(options))
    value = str(data.draw(st.sampled_from(REPLACEMENTS)))
    # a bool flag takes no value: setting it is the whole change
    values = [] if tag == "bool" else [value] * cli._TAG_KWARGS[tag].get("nargs", 1)
    assert_contract(work_dir, [*argv, flag, *values], usage_block=True)


# each pixel-length flag once, set to 10**400
@pytest.mark.parametrize("argv", [
    ["anchors", "--image-size", PAST_FLOAT, "800"],
    ["match", "--ann", TINY, "--strides", f"4,8,16,32,{PAST_FLOAT}"],
    ["tile", "--ann", TINY, "--tile-size", PAST_FLOAT],
    ["tile", "--ann", TINY, "--overlap", PAST_FLOAT],
], ids=["image-size", "strides", "tile-size", "overlap"])
def test_pixel_length_past_float_range_exits_1(work_dir, argv):
    assert past_float_length(argv)
    assert assert_contract(work_dir, argv) == 1
