import dataclasses
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from detforge.anchors import (
    AnchorSpec,
    ClusterResult,
    MatchReport,
    cluster_anchor_sizes,
    match_anchors,
    sweep_k,
)
from detforge.annotations import StatsReport, tile
from detforge.cli import _OPTIONS, _RUNNERS, _options_for, build_parser, main, resolve_config
from detforge.evaluation import EvalResult, coco_map
from detforge.losses import LogitsBatch, class_weights, focal_loss, grad_check, smooth_l1
from oracles import (
    oracle_cross_entropy,
    oracle_focal_loss,
    oracle_weighted_cross_entropy,
    synthetic_aerial_corpus,
)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


def run_rejected(capsys, *argv):
    """Run a command that must fail validation; return its one-line stderr."""
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


def one_box_file(image_id, bbox):
    """A COCO file of one 8x8 image (id 1) and one box, annotation 7, on ``image_id``."""
    return {"images": [{"id": 1, "width": 8, "height": 8, "file_name": "a.png"}],
            "categories": [{"id": 1, "name": "c"}],
            "annotations": [{"id": 7, "image_id": image_id, "category_id": 1, "bbox": bbox}]}


@pytest.fixture
def tiny_path(data_dir):
    return str(data_dir / "tiny.json")


@pytest.fixture(scope="module")
def corpus_ann(tmp_path_factory):
    """``corpus_ann(n)``: the path of a COCO file of ``synthetic_aerial_corpus(n)``.

    Every box sits at the origin of one image that holds them all, so the
    loaded widths and heights are the corpus's bit for bit.
    """
    paths = {}

    def write(n):
        if n not in paths:
            wh = synthetic_aerial_corpus(n=n)
            side = int(wh.max()) + 1
            coco = {
                "images": [{"id": 1, "width": side, "height": side, "file_name": "corpus.png"}],
                "annotations": [{"id": i, "image_id": 1, "category_id": 1, "bbox": [0, 0, w, h],
                                 "area": w * h, "iscrowd": 0}
                                for i, (w, h) in enumerate(wh.tolist(), 1)],
                "categories": [{"id": 1, "name": "box"}],
            }
            path = tmp_path_factory.mktemp("corpus") / f"corpus-{n}.json"
            path.write_text(json.dumps(coco))
            paths[n] = str(path)
        return paths[n]

    return write


class TestReports:
    def test_stats_report(self, capsys, tiny_path):
        report = run_json(capsys, "stats", "--ann", tiny_path)
        assert report["command"] == "stats"
        assert report["result"]["total_instances"] == 7
        assert report["result"]["per_category_counts"] == {"1": 4, "2": 2, "3": 1}
        # the annotations file is hashed into the report
        with open(tiny_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert report["inputs"]["annotations"]["sha256"] == digest
        assert report["version"]

    def test_report_echoes_resolved_config(self, capsys, tiny_path):
        report = run_json(capsys, "stats", "--ann", tiny_path)
        assert report["config"]["paths"]["annotations"] == tiny_path
        assert report["provenance"]["paths.annotations"] == "flag"
        # stats reads no cluster setting, so its report echoes none
        assert "cluster" not in report["config"]
        assert not any(path.startswith("cluster.") for path in report["provenance"])

    def test_reruns_are_byte_identical(self, capsys, tiny_path, data_dir, corpus_ann):
        invocations = [
            ("stats", "--ann", tiny_path),
            ("cluster", "--ann", corpus_ann(200), "--k", "3", "--seed", "17", "--restarts", "3"),
            ("match", "--ann", tiny_path, "--image-size", "128", "128"),
            ("eval", "--ann", str(data_dir / "eval_mixed_ann.json"),
             "--dets", str(data_dir / "eval_mixed_dets.json")),
            ("anchors", "--image-size", "256", "256"),
            ("loss-check",),
        ]
        for argv in invocations:
            rc1, out1, _ = run(capsys, *argv)
            rc2, out2, _ = run(capsys, *argv)
            assert rc1 == rc2 == 0
            assert out1 == out2, argv[0]

    def test_out_flag_writes_the_report_file(self, capsys, tiny_path, tmp_path):
        target = tmp_path / "report.json"
        rc, out, _ = run(capsys, "stats", "--ann", tiny_path, "--out", str(target))
        assert rc == 0
        assert out == ""
        report = json.loads(target.read_text())
        assert report["result"]["total_instances"] == 7

    def test_stats_reports_clipped_instances(self, capsys, tiny_path):
        # one tiny.json box pokes past its image's right edge and is clamped
        report = run_json(capsys, "stats", "--ann", tiny_path)
        assert report["result"]["clipped_instances"] == 1

    @pytest.mark.parametrize("result, mappings", [
        (StatsReport(per_category_counts={2: 1, 10: 3},
                     per_category_size_buckets={2: {"small": 1}, 10: {"small": 3}},
                     per_image_histogram={2: 2, 10: 1}, total_instances=4, clipped_instances=0),
         ("per_category_counts", "per_category_size_buckets", "per_image_histogram")),
        (ClusterResult(k=2, centroids=np.array([[4.0, 5.0], [9.0, 8.0]]),
                       assignments=np.array([1, 0, 1]), mean_iou=0.75, iterations=3,
                       best_iteration=2, converged=True, seed=0),
         ()),
        (MatchReport(pos_iou=0.7, neg_iou=0.3, force_match=True, n_anchors=9, n_positive=2,
                     n_negative=6, n_ignored=1, n_gt=2, recall=0.5,
                     per_class_recall={2: 1.0, 10: 0.0}, matched_per_gt={2: 1, 10: 1},
                     unmatched_gt_ids=(7,), zero_gt_denominator=False),
         ("per_class_recall", "matched_per_gt")),
        (EvalResult(ap=0.5, ap50=0.75, ap75=0.25, ap_small=-1.0, ap_medium=0.5, ap_large=0.5,
                    per_class_ap={2: 0.25, 10: 0.75}, n_gt=3, n_detections=4),
         ("per_class_ap",)),
    ], ids=["stats", "cluster", "match", "eval"])
    def test_result_dict_holds_every_field(self, result, mappings):
        """A new dataclass field reaches the report; int keys sort as the CLI's strings."""
        blob = result.to_dict()
        assert list(blob) == [f.name for f in dataclasses.fields(result)]
        dumped = json.loads(json.dumps(blob, sort_keys=True, indent=2))
        assert dumped == blob
        for name in mappings:
            assert list(dumped[name]) == ["10", "2"], name


class TestConfigResolution:
    def test_flag_beats_file(self, capsys, tiny_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cluster": {"k": 4}}))
        report = run_json(
            capsys, "cluster", "--config", str(cfg), "--ann", tiny_path, "--k", "5"
        )
        assert report["config"]["cluster"]["k"] == 5
        assert report["provenance"]["cluster.k"] == "flag"

    def test_file_beats_default(self, capsys, tiny_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cluster": {"k": 2}}))
        report = run_json(capsys, "cluster", "--config", str(cfg), "--ann", tiny_path)
        assert report["config"]["cluster"]["k"] == 2
        assert report["provenance"]["cluster.k"] == "file"
        assert report["result"]["k"] == 2

    def test_unknown_key_is_named(self, capsys, tiny_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ancors": {"sizes": [16]}}))
        rc, _, err = run(capsys, "stats", "--config", str(cfg), "--ann", tiny_path)
        assert rc == 1
        assert "ancors" in err

    def test_wrong_type_is_named_with_path(self, capsys, tiny_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cluster": {"k": "four"}}))
        rc, _, err = run(capsys, "cluster", "--config", str(cfg), "--ann", tiny_path)
        assert rc == 1
        assert "cluster.k" in err

    def test_wrong_type_names_the_actual_type(self, capsys, tiny_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cluster": {"k": [1]}}))
        rc, _, err = run(capsys, "cluster", "--config", str(cfg), "--ann", tiny_path)
        assert rc == 1
        assert "'cluster.k' expects int, got list" in err

    @pytest.mark.parametrize("command, flag, file_config, key", [
        ("stats", ["--threads", "2"], {"threads": 1}, "threads"),
        ("stats", ["--pretty"], None, None),
        ("anchors", ["--fmap", "10x10,5x5,3x3,2x2,1x1"], {"anchors": {"fmap_dims": [[10, 10]]}},
         "anchors.fmap_dims"),
        ("cluster", ["--init", "random"], {"cluster": {"init": "random"}}, "cluster.init"),
        ("cluster", ["--synthetic", "10"], {"cluster": {"synthetic": 10}}, "cluster.synthetic"),
        ("anchors", ["--offset", "0.5"], {"anchors": {"offset": 0.5}}, "anchors.offset"),
        ("match", ["--offset", "0.5"], {"anchors": {"offset": 0.5}}, "anchors.offset"),
    ])
    def test_there_is_no_such_setting(self, capsys, tiny_path, tmp_path, command, flag,
                                      file_config, key):
        argv = {"stats": ["stats", "--ann", tiny_path], "anchors": ["anchors"],
                "cluster": ["cluster", "--ann", tiny_path],
                "match": ["match", "--ann", tiny_path]}[command]
        rc, out, _ = run(capsys, *argv, *flag)
        assert rc == 64 and out == ""
        if file_config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(file_config))
            err = run_rejected(capsys, *argv, "--config", str(cfg))
            assert err == f"detforge: unknown config key: {key!r}\n"

    @pytest.mark.parametrize("file_config,key", [
        ({"anchors": {"sizes": ["a"]}}, "anchors.sizes[0]"),
        ({"anchors": {"sizes": [16, None]}}, "anchors.sizes[1]"),
        ({"anchors": {"sizes": [10**400]}}, "anchors.sizes[0]"),
        ({"anchors": {"image_size": [800]}}, "anchors.image_size"),
        ({"anchors": {"image_size": [800, 1.5]}}, "anchors.image_size[1]"),
        ({"anchors": {"strides": [4.5, 8, 16, 32, 64]}}, "anchors.strides[0]"),
        ({"eval": {"iou_thresholds": ["x"]}}, "eval.iou_thresholds[0]"),
        ({"cluster": {"k_range": ["x"]}}, "cluster.k_range[0]"),
        ({"anchors": {"aspect_ratios": [0.5, True]}}, "anchors.aspect_ratios[1]"),
    ])
    def test_bad_list_element_is_named(self, capsys, tmp_path, file_config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_config))
        err = run_rejected(capsys, "anchors", "--config", str(cfg))
        assert f"'{key}'" in err


def _sample(tag, extra, path):
    """A non-default value for one option: (flag tokens, the same value in JSON)."""
    if path == "cluster.k_range":
        return ["3:5"], [3, 4, 5]
    if "choices" in extra:
        return [str(extra["choices"][-1])], extra["choices"][-1]
    return {
        "str": (["x.json"], "x.json"),
        "int": (["3"], 3),
        "float": (["0.125"], 0.125),
        "bool": ([], True),
        # the file's integer 2 must echo as 2.0, as the flag's does
        "floats": (["1.5,2"], [1.5, 2]),
        "ints": (["3,5"], [3, 5]),
        "pair": (["640", "480"], [640, 480]),
    }[tag]


def _parameter_defaults(fn, block, names):
    params = inspect.signature(fn).parameters
    return {f"{block}.{name}": params[name].default for name in names}


# the API default that each _OPTIONS default feeds, by config path
API_DEFAULTS = {
    **{f"anchors.{f.name}": f.default for f in dataclasses.fields(AnchorSpec)},
    **_parameter_defaults(tile, "tile", ("tile_size", "overlap", "min_visibility")),
    **_parameter_defaults(match_anchors, "match", ("pos_iou", "neg_iou", "force_match")),
    **_parameter_defaults(coco_map, "eval", ("max_dets", "iou_thresholds")),
    **_parameter_defaults(cluster_anchor_sizes, "cluster",
                          ("seed", "max_iters", "restarts")),
    **_parameter_defaults(focal_loss, "loss", ("gamma",)),
}


class TestOptionsTable:
    @pytest.mark.parametrize("path", sorted(API_DEFAULTS))
    def test_default_equals_the_api_default(self, path):
        default = {p: d for p, _, d, *_ in _OPTIONS}[path]
        if isinstance(default, list):
            default = tuple(default)
        # repr tells 2 from 2.0 as well as the values apart
        assert repr(default) == repr(API_DEFAULTS[path])

    @pytest.mark.parametrize("path,tag,default,flag,command,extra", [
        pytest.param(path, tag, default, flag, command, extra, id=f"{command} {flag}")
        for path, tag, default, flag, commands, extra in _OPTIONS
        for command in (commands or _RUNNERS)
    ])
    def test_flag_and_file_set_the_same_value(
        self, tmp_path, path, tag, default, flag, command, extra
    ):
        tokens, value = _sample(tag, extra, path)
        block, key = path.split(".")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({block: {key: value}}))
        parser = build_parser()
        by_flag = resolve_config(parser.parse_args([command, flag, *tokens]))
        by_file = resolve_config(parser.parse_args([command, "--config", str(cfg)]))
        assert by_flag[0][block][key] == value != default
        assert json.dumps(by_flag[0], sort_keys=True) == json.dumps(by_file[0], sort_keys=True)
        for (_, provenance, _), source in ((by_flag, "flag"), (by_file, "file")):
            assert provenance == {**dict.fromkeys(provenance, "default"), path: source}

    @pytest.mark.parametrize("command", list(_RUNNERS))
    def test_help_lists_every_flag(self, capsys, command):
        rc, out, _ = run(capsys, command, "--help")
        assert rc == 0
        expected = {"--help", "--config"} | {flag for _, _, _, flag, *_ in _options_for(command)}
        assert set(re.findall(r"--[\w-]+", out)) == expected


def _leaves(config) -> set:
    return {f"{block}.{key}" for block, node in config.items() for key in node}


# the required inputs of each command, as flags
REQUIRED = {command: ["--ann", "{tiny}"] for command in _RUNNERS}
REQUIRED.update({"anchors": [], "loss-check": [],
                 "eval": ["--ann", "{tiny}", "--dets", "{dets}"]})
# one config file for the whole pipeline, with a section for every block
SHARED_CONFIG = {
    "paths": {"annotations": "{tiny}", "detections": "{dets}",
              "export_annotations": "tiles.json", "records_out": "records.jsonl"},
    "anchors": {"image_size": [128, 128]},
    "cluster": {"k": 2, "restarts": 2},
    "match": {"pos_iou": 0.5},
    "augment": {"aug_id": 3},
    "eval": {"max_dets": 50},
    "tile": {"tile_size": 400},
    "loss": {"gamma": 1.0},
}


class TestReportEcho:
    """A report echoes the settings its command reads, and no others."""

    @pytest.fixture
    def fmt(self, tiny_path, data_dir, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # relative output paths land here
        names = {"tiny": tiny_path, "dets": str(data_dir / "tiny_perfect_dets.json")}
        return lambda text: text.format(**names)

    def test_the_shared_file_sets_every_block(self):
        assert set(SHARED_CONFIG) == {path.split(".")[0] for path, *_ in _OPTIONS}

    @pytest.mark.parametrize("shared", [False, True], ids=["defaults", "shared-file"])
    @pytest.mark.parametrize("command", list(_RUNNERS))
    def test_config_and_provenance_are_the_command_rows(self, capsys, tmp_path, fmt, command,
                                                        shared):
        argv = [command, *map(fmt, REQUIRED[command])]
        in_file = set()
        if shared:
            doc = {block: {key: fmt(v) if isinstance(v, str) else v for key, v in node.items()}
                   for block, node in SHARED_CONFIG.items()}
            cfg = tmp_path / "shared.json"
            cfg.write_text(json.dumps(doc))
            argv += ["--config", str(cfg)]
            in_file = _leaves(doc)
        report = run_json(capsys, *argv)
        rows = {path for path, *_ in _options_for(command)}
        assert _leaves(report["config"]) == set(report["provenance"]) == rows
        flagged = {path for path, _, _, flag, *_ in _OPTIONS if flag in argv}
        assert report["provenance"] == {
            path: "flag" if path in flagged else "file" if path in in_file else "default"
            for path in rows
        }

    @pytest.mark.parametrize("argv, ignored", [
        (["cluster", "--ann", "{tiny}", "--k-range", "2:3"], {"cluster.k"}),
        (["augment-replay", "--ann", "{tiny}", "--records", "{records}"],
         {"paths.records_out", "augment.aug_id", "augment.seed"}),
    ], ids=["k-range", "records"])
    def test_a_setting_made_ignored_is_not_echoed(self, capsys, tiny_path, data_dir, argv,
                                                  ignored):
        records = data_dir / "golden" / "records-tiny.jsonl"
        argv = [a.format(tiny=tiny_path, records=records) for a in argv]
        report = run_json(capsys, *argv)
        rows = {path for path, *_ in _options_for(argv[0])}
        assert _leaves(report["config"]) == set(report["provenance"]) == rows - ignored
        # a block left with no setting goes too
        assert all(report["config"].values())

    def test_another_commands_section_is_read_and_not_echoed(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cluster": {"k": 9}}))
        report = run_json(capsys, "anchors", "--config", str(cfg))
        assert "cluster" not in report["config"]
        assert not any(path.startswith("cluster.") for path in report["provenance"])
        assert report["inputs"]["config"]["path"] == str(cfg)

    def test_another_commands_section_is_type_checked(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cluster": {"k": "four"}}))
        err = run_rejected(capsys, "anchors", "--config", str(cfg))
        assert err == "detforge: config key 'cluster.k' expects int, got str\n"


class TestExitCodes:
    def test_no_arguments_prints_usage(self, capsys):
        rc, _, err = run(capsys)
        assert rc == 64
        assert "usage" in err.lower()

    def test_unknown_subcommand(self, capsys):
        rc, _, err = run(capsys, "train")
        assert rc == 64

    def test_missing_required_input(self, capsys):
        rc, _, err = run(capsys, "stats")
        assert rc == 1
        assert "--ann" in err

    def test_nonexistent_file(self, capsys):
        rc, _, _ = run(capsys, "stats", "--ann", "/no/such/file.json")
        assert rc == 2

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc, _, _ = run(capsys, "stats", "--ann", str(bad))
        assert rc == 2

    def test_invalid_flag_value(self, capsys, tiny_path):
        rc, _, _ = run(capsys, "cluster", "--ann", tiny_path, "--k", "0")
        assert rc == 1

    @pytest.mark.parametrize("command, block", [
        ("cluster", "cluster"), ("augment-replay", "augment"), ("loss-check", "loss"),
    ])
    def test_negative_seed_is_one_line(self, capsys, tmp_path, tiny_path, corpus_ann, command,
                                       block):
        argv = {"cluster": ("cluster", "--ann", corpus_ann(200), "--k", "3"),
                "augment-replay": ("augment-replay", "--ann", tiny_path),
                "loss-check": ("loss-check",)}[command]
        want = f"detforge: config key '{block}.seed' must be non-negative, got -1\n"
        assert run_rejected(capsys, *argv, "--seed", "-1") == want
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({block: {"seed": -1}}))
        assert run_rejected(capsys, *argv, "--config", str(cfg)) == want

    @pytest.mark.parametrize("bbox", [[0, 0, 5], [0, 0, float("nan"), 5],
                                      [0, float("inf"), 5, 5], [0, 0, 10**400, 5],
                                      [0, 0, "5", 5]])
    def test_bad_bbox_rejected_at_load(self, capsys, tmp_path, data_dir, bbox):
        ann = json.loads((data_dir / "tiny.json").read_text())
        ann["annotations"][2]["bbox"] = bbox
        ann_path = tmp_path / "ann.json"
        ann_path.write_text(json.dumps(ann))
        dets = [{"image_id": 1, "category_id": 1, "bbox": bbox, "score": 0.5}]
        dets_path = tmp_path / "dets.json"
        dets_path.write_text(json.dumps(dets))
        for argv, where in (
            (("match", "--ann", str(ann_path)), "annotations[2].bbox"),
            (("eval", "--ann", str(data_dir / "tiny.json"), "--dets", str(dets_path)),
             "detections[0].bbox"),
        ):
            rc, out, err = run(capsys, *argv)
            assert rc == 1
            assert out == ""
            assert err.count("\n") == 1 and where in err

    @pytest.mark.parametrize("bbox, detail", [
        ([0, 0, 1e-200, 1e-200], "w * h must be a positive finite float, got w=1e-200"),
        ([1500, 10, 20, 20], "widths and heights must be positive, got w=0.0"),
    ])
    def test_cluster_names_the_annotation_of_a_bad_extent(self, capsys, tmp_path, data_dir,
                                                          bbox, detail):
        # the third box is tiny, or clamped to zero width by its image
        ann = json.loads((data_dir / "tiny.json").read_text())
        ann["annotations"][2]["bbox"] = bbox
        ann["annotations"][2]["id"] = 42
        ann_path = tmp_path / "ann.json"
        ann_path.write_text(json.dumps(ann))
        for extra in (("--k", "3"), ("--k-range", "2:3")):
            err = run_rejected(capsys, "cluster", "--ann", str(ann_path), *extra)
            assert err.startswith(f"detforge: annotation 42: {detail}")

    def test_negative_max_dets_is_one_line(self, capsys, tiny_path, data_dir):
        err = run_rejected(capsys, "eval", "--ann", tiny_path,
                           "--dets", str(data_dir / "tiny_perfect_dets.json"), "--max-dets", "-1")
        assert err == "detforge: max_dets must be at least 0, got -1\n"

    @pytest.mark.parametrize("thresholds", ["nan", "2.0", "-1", "0.5,inf"])
    def test_iou_thresholds_outside_unit_interval(self, capsys, tiny_path, data_dir,
                                                  thresholds):
        err = run_rejected(capsys, "eval", "--ann", tiny_path,
                           "--dets", str(data_dir / "tiny_perfect_dets.json"),
                           f"--iou-thresholds={thresholds}")
        assert "IoU thresholds" in err

    @pytest.mark.parametrize("bad_line", [
        [1, 2],
        {"image_id": 1},
        {"image_id": 1, "records": 5},
        {"image_id": [1], "records": []},
        {"image_id": 2, "records": [{"kind": "resize", "params": {}}]},
        {"image_id": 2, "records": [{"kind": "crop_resize", "params": {
            "crop_x": 0, "crop_y": 0, "crop_size": 0, "out_size": 8, "min_visibility": 0.5}}]},
        # an extra key would be read by nothing and dropped without a word
        {"image_id": 2, "records": [{"kind": "flip", "params": {}}], "image": 2},
    ])
    def test_malformed_records_line_is_named(self, capsys, tiny_path, tmp_path, bad_line):
        good = {"image_id": 1, "records": [{"kind": "flip", "params": {}}]}
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps(good) + "\n\n" + json.dumps(bad_line) + "\n")
        err = run_rejected(capsys, "augment-replay", "--ann", tiny_path,
                           "--records", str(records))
        assert f"{records} line 3: " in err

    @pytest.mark.parametrize("kind, params, detail", [
        ("crop_resize", {"crop_x": 0, "crop_y": 0, "crop_size": -5, "out_size": 8,
                         "min_visibility": 0.5},
         "crop_resize crop_size must be at least 1, got -5"),
        ("crop_resize", {"crop_x": 0, "crop_y": 0, "crop_size": 400, "out_size": 0,
                         "min_visibility": 0.5},
         "crop_resize out_size must be at least 1, got 0"),
        ("crop_resize", {"crop_x": 500, "crop_y": 0, "crop_size": 400, "out_size": 800,
                         "min_visibility": 0.5}, "crop 400 at (500, 0) exceeds image 800x800"),
        ("crop_resize", {"crop_x": 0, "crop_y": 0, "crop_size": 400, "out_size": 800,
                         "min_visibility": float("nan")}, "min_visibility nan"),
        ("resize", {"target_short_edge": -3},
         "resize target_short_edge must be at least 1, got -3"),
        ("flip", {"width": 12345}, "flip width 12345 is not the image width 800"),
        # each parameter has the type the sampler writes: a cast would apply
        # (5, 1, 400, 800) while the report echoes the strings, bool and float
        ("crop_resize", {"crop_x": "5", "crop_y": True, "crop_size": "400", "out_size": 800.9,
                         "min_visibility": "0.5"},
         "crop_resize crop_x must be an integer, got '5'"),
        ("crop_resize", {"crop_x": 5, "crop_y": True, "crop_size": 400, "out_size": 800,
                         "min_visibility": 0.5}, "crop_resize crop_y must be an integer, got True"),
        ("crop_resize", {"crop_x": 5, "crop_y": 1, "crop_size": 400, "out_size": 800.9,
                         "min_visibility": 0.5},
         "crop_resize out_size must be an integer, got 800.9"),
        ("crop_resize", {"crop_x": 5, "crop_y": 1, "crop_size": 400, "out_size": 800,
                         "min_visibility": "0.5"},
         "crop_resize min_visibility must be a real number, got '0.5'"),
        ("crop_resize", {"crop_x": 5, "crop_y": 1, "crop_size": 400, "out_size": 800,
                         "min_visibility": True},
         "crop_resize min_visibility must be a real number, got True"),
        ("resize", {"target_short_edge": True},
         "resize target_short_edge must be an integer, got True"),
        ("resize", {"target_short_edge": 640.0},
         "resize target_short_edge must be an integer, got 640.0"),
        ("flip", {"width": 800.0}, "flip width must be an integer, got 800.0"),
        ("flip", {"width": 0}, "flip width must be at least 1, got 0"),
    ], ids=["crop-negative", "out-zero", "window-outside", "visibility-nan", "resize-negative",
            "flip-width", "crop-x-string", "crop-y-bool", "out-size-float", "visibility-string",
            "visibility-bool", "resize-bool", "resize-float", "flip-width-float",
            "flip-width-zero"])
    def test_bad_record_values_name_their_line(self, capsys, tiny_path, tmp_path, kind, params,
                                               detail):
        good = {"image_id": 1, "records": [{"kind": "flip", "params": {}}]}
        bad = {"image_id": 2, "records": [{"kind": kind, "params": params}]}
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps(good) + "\n\n" + json.dumps(bad) + "\n")
        err = run_rejected(capsys, "augment-replay", "--ann", tiny_path,
                           "--records", str(records))
        assert err == f"detforge: {records} line 3: {detail}\n"

    @pytest.mark.parametrize("records, detail", [
        ([{"kind": "flip", "params": ["wi"]}],
         "flip params must be an object of exactly width, or empty, got ['wi']"),
        ([{"kind": "flip", "params": []}],
         "flip params must be an object of exactly width, or empty, got []"),
        ([{"kind": "flip", "params": {}}, {"kind": "flip", "params": [["width", 1000]]}],
         "flip params must be an object of exactly width, or empty, got [['width', 1000]]"),
        ([{"kind": "flip", "params": {}, "seed": 3}],
         "record 0 must be an object of exactly kind and params, "
         "got {'kind': 'flip', 'params': {}, 'seed': 3}"),
        ([["flip", {"width": 1000}]],
         "record 0 must be an object of exactly kind and params, "
         "got ['flip', {'width': 1000}]"),
        ([{"kind": "resize", "params": {"target_short_edge": 640, "seed": 3}}],
         "resize params must be an object of exactly target_short_edge, "
         "got {'target_short_edge': 640, 'seed': 3}"),
        ([{"kind": "flip", "params": {"width": 1000, "seed": 3}}],
         "flip params must be an object of exactly width, or empty, "
         "got {'width': 1000, 'seed': 3}"),
        ({}, "records must be a list, got {}"),
        ("", "records must be a list, got ''"),
    ], ids=["params-string-list", "params-empty-list", "params-pair-list", "extra-key",
            "record-list", "resize-extra-param", "flip-extra-param", "records-object",
            "records-string"])
    def test_records_hold_kind_and_params_objects_only(self, capsys, tiny_path, tmp_path,
                                                       records, detail):
        """Each would replay on image 1, 1000 wide, if a list or extra key were let through."""
        records_path = tmp_path / "records.jsonl"
        records_path.write_text(json.dumps({"image_id": 2, "records": []}) + "\n"
                                + json.dumps({"image_id": 1, "records": records}) + "\n")
        err = run_rejected(capsys, "augment-replay", "--ann", tiny_path,
                           "--records", str(records_path))
        assert err == f"detforge: {records_path} line 2: {detail}\n"

    def test_line_format_errors_come_before_record_errors(self, capsys, tiny_path, tmp_path):
        """The whole file's line format is checked first, then each image's records by id."""
        records = tmp_path / "records.jsonl"
        lines = [{"image_id": 2, "records": [["flip", {}]]}, {"image_id": 1, "records": [[]]}]
        records.write_text("".join(json.dumps(line) + "\n" for line in lines))
        err = run_rejected(capsys, "augment-replay", "--ann", tiny_path, "--records", str(records))
        assert err == (f"detforge: {records} line 2: record 0 must be an object of exactly kind "
                       "and params, got []\n")
        records.write_text("".join(json.dumps(line) + "\n" for line in lines)
                           + json.dumps({"image_id": 3, "records": 5}) + "\n")
        err = run_rejected(capsys, "augment-replay", "--ann", tiny_path, "--records", str(records))
        assert err == f"detforge: {records} line 3: records must be a list, got 5\n"

    def test_second_records_line_for_an_image_is_rejected(self, capsys, tiny_path, tmp_path):
        records = tmp_path / "records.jsonl"
        records.write_text(
            json.dumps({"image_id": 1, "records": [{"kind": "flip", "params": {"width": 1000}}]})
            + "\n" + json.dumps({"image_id": 2, "records": []})
            + "\n" + json.dumps({"image_id": 1, "records": []}) + "\n"
        )
        err = run_rejected(capsys, "augment-replay", "--ann", tiny_path,
                           "--records", str(records))
        assert err == f"detforge: {records} line 3: image_id 1 already has records on line 1\n"

    @pytest.mark.parametrize("command", ["anchors", "match"])
    @pytest.mark.parametrize("flags, message", [
        (("--sizes", "nan,32,64,128,256"),
         "sizes must be finite and positive, got [nan, 32.0, 64.0, 128.0, 256.0]"),
        (("--sizes", "inf,32,64,128,256"),
         "sizes must be finite and positive, got [inf, 32.0, 64.0, 128.0, 256.0]"),
        (("--sizes", "1e308,32,64,128,256"),
         "the anchor of size 1e+308 and ratio 0.5 has a non-finite extent or area"),
        (("--ratios", "inf"), "aspect ratios must be finite and positive, got [inf]"),
        (("--sizes", "1e150,32,64,128,256", "--ratios", "1e-320,1,2"),
         "the anchor of size 1e+150 and ratio 1e-320 has a non-finite extent or area"),
        (("--strides", f"4,8,16,32,{10**400}"), "strides[4] is out of float range"),
        (("--image-size", str(10**400), "800"), "image width is out of float range"),
    ])
    def test_non_finite_anchors_are_one_line(self, capsys, tiny_path, command, flags, message):
        argv = [command, *flags] + (["--ann", tiny_path] if command == "match" else [])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = run_rejected(capsys, *argv)
        assert err == f"detforge: {message}\n"
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("argv, file_json, message", [
        # cluster_anchor_sizes owns the rule that k needs k boxes
        (["cluster", "--ann", "{empty}"], None, "0 boxes for k=4"),
        (["cluster", "--ann", "{empty}", "--k-range", "3:5"], None, "0 boxes for k=3"),
        (["match", "--ann", "{tiny}", "--neg-iou", "0"], None,
         "need 0 < neg_iou <= pos_iou <= 1, got 0.0, 0.7"),
        (["match", "--ann", "{tiny}", "--pos-iou", "-0.0", "--neg-iou", "-0.0"], None,
         "need 0 < neg_iou <= pos_iou <= 1, got -0.0, -0.0"),
        (["match", "--ann", "{tiny}", "--pos-iou", "nan"], None,
         "need 0 < neg_iou <= pos_iou <= 1, got 0.3, nan"),
        (["match", "--ann", "{tiny}", "--pos-iou", "1.5"], None,
         "need 0 < neg_iou <= pos_iou <= 1, got 0.3, 1.5"),
        (["match", "--ann", "{tiny}", "--config", "{file}"], {"match": {"force_match": "no"}},
         "config key 'match.force_match' expects bool, got str"),
        (["match", "--ann", "{tiny}", "--config", "{file}"], {"match": {"pos_iou": True}},
         "config key 'match.pos_iou' expects float, got bool"),
        (["stats", "--ann", "{file}"], {"images": [], "annotations": []},
         "missing required key: 'categories'"),
        (["stats", "--ann", "{file}"], one_box_file(image_id=2, bbox=[0, 0, 5, 5]),
         "annotation 7 references unknown image id 2"),
        (["stats", "--ann", "{file}"], one_box_file(image_id=1, bbox=[0, 0, -5, 5]),
         "annotation 7 has negative extent: w=-5.0, h=5.0"),
        (["tile", "--ann", "{tiny}", "--overlap", "900"], None,
         "need 0 <= overlap < tile_size, got 900/800"),
    ], ids=["cluster-empty", "k-range-empty", "neg-iou-0", "negative-zero", "pos-iou-nan",
            "pos-iou-1.5", "force-match-str", "pos-iou-bool", "missing-key", "dangling-image",
            "negative-extent", "overlap-past-tile"])
    def test_rejected_inputs_are_one_line(self, capsys, tmp_path, tiny_path, argv, file_json,
                                          message):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"images": [{"id": 1, "width": 8, "height": 8,
                                                 "file_name": "a.png"}],
                                     "annotations": [], "categories": []}))
        file = tmp_path / "file.json"
        file.write_text(json.dumps(file_json))
        argv = [a.format(empty=empty, tiny=tiny_path, file=file) for a in argv]
        assert run_rejected(capsys, *argv) == f"detforge: {message}\n"

    @pytest.mark.parametrize("gamma", ["nan", "inf", "-1"])
    def test_loss_check_rejects_a_bad_gamma(self, capsys, gamma):
        err = run_rejected(capsys, "loss-check", f"--gamma={gamma}")
        assert err == f"detforge: gamma must be finite and non-negative, got {float(gamma)}\n"

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_gamma_warns_nothing(self, gamma):
        # a fresh process with the default warning filters, so a NumPy
        # RuntimeWarning would reach stderr
        proc = subprocess.run(
            [sys.executable, "-m", "detforge.cli", "loss-check", "--gamma", gamma],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == f"detforge: gamma must be finite and non-negative, got {gamma}\n"

    def test_tile_on_a_huge_image_returns_at_once(self, tmp_path, data_dir):
        # a valid file: the size fits a float; tiling it would take 10^394 tiles
        ann = json.loads((data_dir / "tiny.json").read_text())
        ann["images"][1]["width"] = ann["images"][1]["height"] = 10**200
        ann_path = tmp_path / "ann.json"
        ann_path.write_text(json.dumps(ann))
        image_id = ann["images"][1]["id"]
        proc = subprocess.run(
            [sys.executable, "-m", "detforge.cli", "tile", "--ann", str(ann_path)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == (
            f"detforge: the tile count passes MAX_TILES = 1000000 at image {image_id}\n"
        )

    def test_match_on_a_grid_too_large_to_lay_out_is_one_line(self, data_dir):
        # the stride-4 level would need a 10^23-entry corner table
        proc = subprocess.run(
            [sys.executable, "-m", "detforge.cli", "match", "--ann", str(data_dir / "tiny.json"),
             "--image-size", "100000000000000000000000", "8"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == (
            "detforge: level 0 has 25000000000000000000000 cells x 6 anchors along one side, "
            "past MAX_EDGE_ANCHORS = 2097152\n"
        )

    @pytest.mark.parametrize("argv, message", [
        (["--k-range", "1:10000000000000"],
         "--k-range 1:10000000000000: 10000000000000 values of k pass MAX_SWEEP_KS = 1024"),
        (["--k-range=-10000000000000:3"],
         "--k-range -10000000000000:3: 10000000000004 values of k pass MAX_SWEEP_KS = 1024"),
    ], ids=["k-range", "negative-k-range"])
    def test_counts_past_their_bound_fail_before_allocating(self, argv, message):
        # a fresh process limited to 2 GiB of address space, so a count that
        # is allocated before its check ends in MemoryError, not in this test
        script = ("import resource, sys; "
                  "resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31)); "
                  "from detforge.cli import main; sys.exit(main(sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-c", script, "cluster", *argv],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == f"detforge: {message}\n"

    @pytest.mark.parametrize("flag, key, message", [
        ("--restarts", "restarts", "1180591620717411303424 restarts pass MAX_RESTARTS = 1000"),
        ("--max-iters", "max_iters",
         "1180591620717411303424 iterations pass MAX_ITERS = 10000"),
    ])
    def test_restart_and_iteration_counts_are_bounded(self, capsys, tmp_path, tiny_path, flag,
                                                      key, message):
        # 2**70: a count that would never finish if it ran
        want = f"detforge: {message}\n"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cluster": {key: 2**70}}))
        for argv in ([flag, str(2**70)], ["--config", str(cfg)]):
            t0 = time.perf_counter()
            assert run_rejected(capsys, "cluster", "--ann", tiny_path, *argv) == want
            assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("argv, ignored, file_config, message", [
        (["cluster", "--ann", "{tiny}", "--k-range", "2:3"], ["--k", "7"],
         {"cluster": {"k": 7}}, "cluster.k (--k) is ignored when cluster.k_range (--k-range)"),
        (["augment-replay", "--ann", "{tiny}", "--records", "R"], ["--records-out", "O"],
         {"paths": {"records_out": "O"}},
         "paths.records_out (--records-out) is ignored when paths.records (--records)"),
        (["augment-replay", "--ann", "{tiny}", "--records", "R"], ["--aug-id", "2"],
         {"augment": {"aug_id": 2}},
         "augment.aug_id (--aug-id) is ignored when paths.records (--records)"),
        (["augment-replay", "--ann", "{tiny}", "--records", "R"], ["--seed", "3"],
         {"augment": {"seed": 3}},
         "augment.seed (--seed) is ignored when paths.records (--records)"),
    ], ids=["k", "records-out", "aug-id", "seed"])
    def test_a_setting_the_command_ignores_is_rejected(self, capsys, tmp_path, tiny_path, argv,
                                                       ignored, file_config, message):
        argv = [a.format(tiny=tiny_path) for a in argv]
        want = f"detforge: {message} is set; set only one of them\n"
        assert run_rejected(capsys, *argv, *ignored) == want
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_config))
        assert run_rejected(capsys, *argv, "--config", str(cfg)) == want

    @pytest.mark.parametrize("argv, file_config, code, message", [
        (["augment-replay", "--ann", "{tiny}", "--records", ""], None, 1,
         "config key 'paths.records' is an empty path"),
        # sample mode reads --seed, but "" is not an unset --records
        (["augment-replay", "--ann", "{tiny}", "--records", "", "--seed", "3"], None, 1,
         "config key 'paths.records' is an empty path"),
        (["stats", "--ann", "{tiny}", "--out", ""], None, 1,
         "config key 'paths.output' is an empty path"),
        (["tile", "--ann", "{tiny}", "--export-ann", ""], None, 1,
         "config key 'paths.export_annotations' is an empty path"),
        (["stats", "--ann", ""], None, 1, "config key 'paths.annotations' is an empty path"),
        (["stats", "--config", "{cfg}"], {"paths": {"annotations": ""}}, 1,
         "config key 'paths.annotations' is an empty path"),
        # a path stats does not read is still checked
        (["stats", "--ann", "{tiny}", "--config", "{cfg}"], {"paths": {"records": ""}}, 1,
         "config key 'paths.records' is an empty path"),
        (["stats", "--ann", "{tiny}", "--config", ""], None, 2,
         "[Errno 2] No such file or directory: ''"),
    ], ids=["records", "records-seed", "out", "export-ann", "ann", "file-ann",
            "file-other-command", "config"])
    def test_an_empty_path_is_one_line(self, capsys, tmp_path, tiny_path, argv, file_config,
                                       code, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_config))
        rc, out, err = run(capsys, *(a.format(tiny=tiny_path, cfg=cfg) for a in argv))
        assert (rc, out, err) == (code, "", f"detforge: {message}\n")

    def test_box_area_past_float_range_is_one_line(self, capsys, tmp_path):
        # the image holds the box without clamping, so its area is 1e400
        huge = [0, 0, 1e200, 1e200]
        ann = {"images": [{"id": 1, "width": 10**250, "height": 10**250, "file_name": "a.png"}],
               "annotations": [{"id": 1, "image_id": 1, "category_id": 1, "bbox": huge,
                                "area": 5.0}],
               "categories": [{"id": 1, "name": "c"}]}
        ann_path = tmp_path / "ann.json"
        ann_path.write_text(json.dumps(ann))
        dets_path = tmp_path / "dets.json"
        dets_path.write_text(json.dumps([{"image_id": 1, "category_id": 1, "bbox": huge,
                                          "score": 0.9}]))
        gt_error = "detforge: annotations[0].bbox: w * h of the clamped box is out of float range\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for argv in (("stats",), ("match",), ("eval", "--dets", str(dets_path))):
                assert run_rejected(capsys, *argv, "--ann", str(ann_path)) == gt_error
            # a box clamped into a small image has a finite area
            ann["images"][0]["width"] = ann["images"][0]["height"] = 100
            ann_path.write_text(json.dumps(ann))
            err = run_rejected(capsys, "eval", "--ann", str(ann_path), "--dets", str(dets_path))
        assert err == "detforge: detections[0].bbox: w * h is out of float range\n"

    @pytest.mark.parametrize("area", [float("nan"), float("inf"), -1, "100", None])
    def test_bad_area_rejected_at_load(self, capsys, tmp_path, data_dir, area):
        ann = json.loads((data_dir / "eval_mixed_ann.json").read_text())
        ann["annotations"][1]["area"] = area
        ann_path = tmp_path / "ann.json"
        ann_path.write_text(json.dumps(ann))
        err = run_rejected(capsys, "eval", "--ann", str(ann_path),
                           "--dets", str(data_dir / "eval_mixed_dets.json"))
        assert "annotations[1].area" in err

    @pytest.mark.parametrize("key, value, kind", [
        ("category_id", "1", "an integer"), ("image_id", 1.0, "an integer"),
        ("image_id", True, "an integer"), ("category_id", None, "an integer"),
        ("score", "high", "a number"), ("score", True, "a number"),
    ])
    def test_detection_fields_must_have_json_number_types(self, capsys, tmp_path, data_dir,
                                                          key, value, kind):
        dets = json.loads((data_dir / "eval_mixed_dets.json").read_text())
        dets[2][key] = value
        dets_path = tmp_path / "dets.json"
        dets_path.write_text(json.dumps(dets))
        err = run_rejected(capsys, "eval", "--ann", str(data_dir / "eval_mixed_ann.json"),
                           "--dets", str(dets_path))
        assert f"detections[2].{key} must be {kind}" in err

    @pytest.mark.parametrize("image_id", ["1", 999, 1.0])
    def test_records_line_must_name_a_dataset_image(self, capsys, tiny_path, tmp_path,
                                                    image_id):
        records = tmp_path / "records.jsonl"
        records.write_text(
            json.dumps({"image_id": 2, "records": []}) + "\n"
            + json.dumps({"image_id": image_id, "records": [{"kind": "flip", "params": {}}]})
            + "\n"
        )
        err = run_rejected(capsys, "augment-replay", "--ann", tiny_path,
                           "--records", str(records))
        assert f"{records} line 2: image_id {image_id!r} is not the id of an image" in err

    def test_non_json_records_line_names_its_file_line(self, capsys, tiny_path, tmp_path):
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps({"image_id": 1, "records": []}) + "\n\n{bad\n")
        rc, out, err = run(capsys, "augment-replay", "--ann", tiny_path,
                           "--records", str(records))
        assert rc == 2 and out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert str(records) in err and "line 3 column 2" in err

    def test_error_is_one_stderr_line_after_clipping(self, tiny_path, tmp_path):
        # a fresh process, so nothing captures log records: tiny.json has a
        # clipped box, and loading it must add nothing to stderr
        records = tmp_path / "records.jsonl"
        records.write_text("[1, 2]\n")
        proc = subprocess.run(
            [sys.executable, "-m", "detforge.cli", "augment-replay", "--ann", tiny_path,
             "--records", str(records)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert f"{records} line 1: " in proc.stderr

    @pytest.mark.parametrize("section, key, value", [
        ("annotations", "image_id", "abc"), ("annotations", "image_id", None),
        ("annotations", "image_id", 1.7), ("annotations", "image_id", True),
        ("annotations", "category_id", "1"), ("annotations", "id", 2.0),
        ("images", "id", "1"), ("images", "width", None), ("images", "height", 1024.5),
        ("categories", "id", False),
    ])
    def test_dataset_ids_and_sizes_must_be_json_integers(self, capsys, tmp_path, data_dir,
                                                         section, key, value):
        ann = json.loads((data_dir / "tiny.json").read_text())
        ann[section][0][key] = value
        ann_path = tmp_path / "ann.json"
        ann_path.write_text(json.dumps(ann))
        err = run_rejected(capsys, "stats", "--ann", str(ann_path))
        assert f"{section}[0].{key} must be an integer, got {type(value).__name__}" in err

    @pytest.mark.parametrize("crowd", ["no", 2, -1, True, 1.0, None])
    def test_iscrowd_must_be_zero_or_one(self, capsys, tmp_path, data_dir, crowd):
        ann = json.loads((data_dir / "tiny.json").read_text())
        ann["annotations"][3]["iscrowd"] = crowd
        ann_path = tmp_path / "ann.json"
        ann_path.write_text(json.dumps(ann))
        err = run_rejected(capsys, "stats", "--ann", str(ann_path))
        assert f"annotations[3].iscrowd must be 0 or 1, got {crowd!r}" in err

    def test_dangling_detection_is_named(self, capsys, tmp_path, data_dir):
        dets = json.loads((data_dir / "eval_mixed_dets.json").read_text())
        dets[2]["image_id"] = 999
        dets_path = tmp_path / "dets.json"
        dets_path.write_text(json.dumps(dets))
        err = run_rejected(capsys, "eval", "--ann", str(data_dir / "eval_mixed_ann.json"),
                           "--dets", str(dets_path))
        assert err == "detforge: detection 2 references unknown image id 999\n"

    @pytest.mark.parametrize("section, index, entry", [
        ("images", 0, 1), ("images", 1, [2, 640, 480]), ("annotations", 3, "box"),
        ("annotations", 0, None), ("categories", 2, 3.0),
    ])
    def test_dataset_entries_must_be_objects(self, capsys, tmp_path, data_dir,
                                             section, index, entry):
        ann = json.loads((data_dir / "tiny.json").read_text())
        ann[section][index] = entry
        ann_path = tmp_path / "ann.json"
        ann_path.write_text(json.dumps(ann))
        err = run_rejected(capsys, "stats", "--ann", str(ann_path))
        assert f"{section}[{index}] must be an object, got {type(entry).__name__}" in err

    @pytest.mark.parametrize("raw, message", [
        ([], "annotation file must hold a JSON object, got list"),
        (7, "annotation file must hold a JSON object, got int"),
        ({"images": 1, "annotations": [], "categories": []}, "images must be an array, got int"),
        ({"images": [], "annotations": {}, "categories": []},
         "annotations must be an array, got dict"),
    ])
    def test_dataset_top_level_shape(self, capsys, tmp_path, raw, message):
        ann_path = tmp_path / "ann.json"
        ann_path.write_text(json.dumps(raw))
        err = run_rejected(capsys, "stats", "--ann", str(ann_path))
        assert message in err

    @pytest.mark.parametrize("section, key, value", [
        ("images", "file_name", 5), ("images", "file_name", None),
        ("images", "file_name", ["a.png"]), ("categories", "name", 1),
        ("categories", "name", True),
    ])
    def test_dataset_names_must_be_strings(self, capsys, tmp_path, data_dir, section, key, value):
        ann = json.loads((data_dir / "tiny.json").read_text())
        ann[section][0][key] = value
        ann_path = tmp_path / "ann.json"
        ann_path.write_text(json.dumps(ann))
        err = run_rejected(capsys, "stats", "--ann", str(ann_path))
        assert f"{section}[0].{key} must be a string, got {type(value).__name__}" in err

    @pytest.mark.parametrize("entry", [3, "det", None, [1, 1, [0, 0, 1, 1], 0.5]])
    def test_detection_entries_must_be_objects(self, capsys, tmp_path, data_dir, entry):
        dets = json.loads((data_dir / "eval_mixed_dets.json").read_text())
        dets[1] = entry
        dets_path = tmp_path / "dets.json"
        dets_path.write_text(json.dumps(dets))
        err = run_rejected(capsys, "eval", "--ann", str(data_dir / "eval_mixed_ann.json"),
                           "--dets", str(dets_path))
        assert err == f"detforge: detections[1] must be an object, got {type(entry).__name__}\n"

    @pytest.mark.parametrize("key, value", [
        ("width", 10**400), ("height", 10**309), ("width", int(sys.float_info.max) * 2),
    ], ids=["width-1e400", "height-1e309", "width-2max"])
    def test_image_size_past_float_range_is_named(self, capsys, tmp_path, data_dir,
                                                  key, value):
        ann = json.loads((data_dir / "tiny.json").read_text())
        ann["images"][0][key] = value
        ann_path = tmp_path / "ann.json"
        ann_path.write_text(json.dumps(ann))
        err = run_rejected(capsys, "stats", "--ann", str(ann_path))
        assert err == f"detforge: image 1 {key} is out of float range\n"

    @pytest.mark.parametrize("score", [10**400, -(10**400)], ids=["1e400", "-1e400"])
    def test_detection_score_past_float_range_is_named(self, capsys, tmp_path, data_dir,
                                                       score):
        dets = json.loads((data_dir / "eval_mixed_dets.json").read_text())
        dets[0]["score"] = score
        dets_path = tmp_path / "dets.json"
        dets_path.write_text(json.dumps(dets))
        err = run_rejected(capsys, "eval", "--ann", str(data_dir / "eval_mixed_ann.json"),
                           "--dets", str(dets_path))
        assert err == "detforge: detections[0].score is out of float range\n"

    @pytest.mark.parametrize("key, value, message", [
        ("bbox", [1e20, 0, -1, 10], "detections[2].bbox: negative extent: w=-1.0, h=10.0"),
        ("score", float("nan"), "detections[2].score: score must be in [0, 1], got nan"),
        ("bbox", [1e308, 0, 1e308, 1],
         "detections[2].bbox: x + w or y + h is out of float range"),
        ("bbox", [-1e300, 0, 1e300, 1e10], "detections[2].bbox: w * h is out of float range"),
    ], ids=["negative-extent", "nan-score", "overflowing-corner", "overflowing-area"])
    def test_detection_box_and_score_errors_name_the_entry(self, capsys, tmp_path, data_dir,
                                                            key, value, message):
        dets = json.loads((data_dir / "eval_mixed_dets.json").read_text())
        dets[2][key] = value
        dets_path = tmp_path / "dets.json"
        dets_path.write_text(json.dumps(dets))
        err = run_rejected(capsys, "eval", "--ann", str(data_dir / "eval_mixed_ann.json"),
                           "--dets", str(dets_path))
        assert err == f"detforge: {message}\n"

    @pytest.mark.parametrize("key, value", [
        ("image_id", 2**63), ("image_id", 10**30), ("category_id", -(2**63) - 1),
    ], ids=["image-2^63", "image-1e30", "category-below-min"])
    def test_detection_id_past_int64_is_named(self, capsys, tmp_path, data_dir, key, value):
        dets = json.loads((data_dir / "eval_mixed_dets.json").read_text())
        dets[1][key] = value
        dets_path = tmp_path / "dets.json"
        dets_path.write_text(json.dumps(dets))
        err = run_rejected(capsys, "eval", "--ann", str(data_dir / "eval_mixed_ann.json"),
                           "--dets", str(dets_path))
        assert err == f"detforge: detections[1].{key} is out of int64 range\n"

    @pytest.mark.parametrize("key", ["id", "category_id"])
    def test_annotation_id_past_int64_is_named(self, capsys, tmp_path, data_dir, key):
        ann = json.loads((data_dir / "tiny.json").read_text())
        ann["annotations"][4][key] = 2**63
        if key == "category_id":
            ann["categories"][0]["id"] = 2**63
        ann_path = tmp_path / "ann.json"
        ann_path.write_text(json.dumps(ann))
        err = run_rejected(capsys, "stats", "--ann", str(ann_path))
        assert err == f"detforge: annotations[4].{key} is out of int64 range\n"

    @pytest.mark.parametrize("argv", [
        ("stats", "--ann", "{bad}"),
        ("eval", "--ann", "{tiny}", "--dets", "{bad}"),
        ("stats", "--ann", "{tiny}", "--config", "{bad}"),
        ("augment-replay", "--ann", "{tiny}", "--records", "{bad}"),
    ])
    def test_input_that_is_not_utf8_exits_2(self, capsys, tmp_path, tiny_path, argv):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
        rc, out, err = run(capsys, *(a.format(bad=bad, tiny=tiny_path) for a in argv))
        assert rc == 2 and out == ""
        assert err.count("\n") == 1 and "utf-8" in err

    def test_version(self, capsys):
        rc, out, _ = run(capsys, "--version")
        assert rc == 0
        assert out.startswith("detforge ")


def sha256_of(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestInputHashes:
    """The report hashes each input as the command read it."""

    def test_tile_exporting_over_its_input(self, capsys, tmp_path, tiny_path):
        ann = tmp_path / "a.json"
        ann.write_bytes(open(tiny_path, "rb").read())
        before = sha256_of(ann)
        report = run_json(capsys, "tile", "--ann", str(ann), "--export-ann", str(ann))
        assert sha256_of(ann) != before  # the file now holds the tiles
        assert report["inputs"]["annotations"] == {"path": str(ann), "sha256": before}

    def test_sampled_records_written_over_the_annotations(self, capsys, tmp_path, tiny_path):
        ann = tmp_path / "a.json"
        ann.write_bytes(open(tiny_path, "rb").read())
        before = sha256_of(ann)
        report = run_json(capsys, "augment-replay", "--ann", str(ann),
                          "--records-out", str(ann))
        assert sha256_of(ann) != before
        assert report["inputs"]["annotations"]["sha256"] == before

    def test_every_input_is_hashed(self, capsys, tmp_path, data_dir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eval": {"max_dets": 50}}))
        ann, dets = data_dir / "eval_mixed_ann.json", data_dir / "eval_mixed_dets.json"
        report = run_json(capsys, "eval", "--ann", str(ann), "--dets", str(dets),
                          "--config", str(cfg))
        assert report["inputs"] == {
            "annotations": {"path": str(ann), "sha256": sha256_of(ann)},
            "config": {"path": str(cfg), "sha256": sha256_of(cfg)},
            "detections": {"path": str(dets), "sha256": sha256_of(dets)},
        }

    def test_crlf_input_reads_as_before(self, capsys, tmp_path, tiny_path):
        crlf = tmp_path / "crlf.json"
        crlf.write_bytes(open(tiny_path, "rb").read().replace(b"\n", b"\r\n"))
        report = run_json(capsys, "stats", "--ann", str(crlf))
        assert report["result"] == run_json(capsys, "stats", "--ann", tiny_path)["result"]
        assert report["inputs"]["annotations"]["sha256"] == sha256_of(crlf)


class TestSubcommands:
    def test_cluster_from_annotations(self, capsys, tiny_path):
        report = run_json(capsys, "cluster", "--ann", tiny_path, "--k", "2", "--seed", "17")
        result = report["result"]
        assert result["k"] == 2
        assert len(result["centroids"]) == 2
        assert 0.0 < result["mean_iou"] <= 1.0
        assert len(result["assignments"]) == 7

    def test_cluster_reads_the_boxes_of_its_annotation_file(self, capsys, corpus_ann):
        report = run_json(capsys, "cluster", "--ann", corpus_ann(200), "--k", "3", "--seed", "17",
                          "--restarts", "3")
        want = cluster_anchor_sizes(synthetic_aerial_corpus(n=200), k=3, seed=17, restarts=3)
        assert report["result"] == json.loads(json.dumps(want.to_dict()))

    def test_cluster_sweep(self, capsys, corpus_ann):
        report = run_json(
            capsys, "cluster", "--ann", corpus_ann(150), "--k-range", "2:4", "--restarts", "2"
        )
        sweep = report["result"]["sweep"]
        assert [k for k, _ in sweep] == [2, 3, 4]
        corpus = synthetic_aerial_corpus(n=150)
        assert sweep == [[k, v] for k, v in sweep_k(corpus, [2, 3, 4], restarts=2)]

    def test_cluster_sweep_honours_max_iters(self, capsys, corpus_ann):
        argv = ("cluster", "--ann", corpus_ann(150), "--k-range", "2:4", "--restarts", "2")
        default = run_json(capsys, *argv)["result"]["sweep"]
        flagged = run_json(capsys, *argv, "--max-iters", "0")
        assert flagged["provenance"]["cluster.max_iters"] == "flag"
        want = [[k, run_json(capsys, "cluster", "--ann", corpus_ann(150), "--k", str(k),
                             "--restarts", "2", "--max-iters", "0")["result"]["mean_iou"]]
                for k in (2, 3, 4)]
        assert flagged["result"]["sweep"] == want != default

    def test_anchors_count_formula(self, capsys):
        report = run_json(capsys, "anchors", "--image-size", "256", "256")
        result = report["result"]
        for level in result["levels"]:
            # default spec: one size per level, three ratios, two folded angles
            expected = level["fmap_w"] * level["fmap_h"] * 1 * 3 * 2
            assert level["count"] == expected
        assert result["total"] == sum(lv["count"] for lv in result["levels"])
        assert result["effective_angles"] == [0.0, 90.0]

    def test_anchors_and_match_build_no_anchor_boxes(self, capsys, tiny_path):
        assert run_json(capsys, "anchors", "--image-size", "1024", "1024")["result"]["total"] > 0
        result = run_json(capsys, "match", "--ann", tiny_path, "--image-size", "128", "128",
                          "--force-match")["result"]
        assert result["n_positive"] + result["n_negative"] + result["n_ignored"] == \
            result["n_anchors"]

    def test_anchors_on_a_huge_image_reports_the_analytic_total(self, capsys):
        # ~5.0e9 anchors, whose corners would take ~150 GiB: only the layout is built
        result = run_json(capsys, "anchors", "--image-size", "100000", "100000")["result"]
        want = [((100000 + s - 1) // s) ** 2 * 3 * 2 for s in (4, 8, 16, 32, 64)]
        assert [lv["count"] for lv in result["levels"]] == want
        assert result["total"] == sum(want) == 4_995_126_564

    @pytest.mark.parametrize("width, fmap_w", [
        (10**23, [25 * 10**21, 125 * 10**20, 625 * 10**19, 3125 * 10**18, 15625 * 10**17]),
        (10**23 + 1, [25 * 10**21 + 1, 125 * 10**20 + 1, 625 * 10**19 + 1, 3125 * 10**18 + 1,
                      15625 * 10**17 + 1]),
    ])
    def test_feature_map_sizes_are_exact_ceilings(self, capsys, width, fmap_w):
        # float division would give 24999999999999997902848 at stride 4
        result = run_json(capsys, "anchors", "--image-size", str(width), "9")["result"]
        assert [(lv["fmap_w"], lv["fmap_h"]) for lv in result["levels"]] == list(
            zip(fmap_w, [3, 2, 1, 1, 1]))

    def test_match_partitions_anchors(self, capsys, tiny_path):
        report = run_json(
            capsys, "match", "--ann", tiny_path, "--image-size", "128", "128",
            "--pos-iou", "0.5", "--neg-iou", "0.3",
        )
        result = report["result"]
        assert (
            result["n_positive"] + result["n_negative"] + result["n_ignored"]
            == result["n_anchors"]
        )
        assert 0.0 <= result["recall"] <= 1.0

    def test_tile_then_match_counts_the_anchors_of_every_tile(self, capsys, tiny_path,
                                                             tmp_path):
        tiles = tmp_path / "t256.json"
        run_json(capsys, "tile", "--ann", tiny_path, "--tile-size", "256", "--overlap", "0",
                 "--export-ann", str(tiles))
        result = run_json(capsys, "match", "--ann", str(tiles),
                          "--image-size", "256", "256")["result"]
        # 36 tiles, 6 of them with GTs, each laid out with 32,736 anchors
        assert len(json.loads(tiles.read_text())["images"]) == 36
        assert result["n_anchors"] == 36 * 32_736 == 1_178_496
        assert (result["n_positive"], result["n_negative"], result["n_ignored"]) == (
            2, 1_177_872, 622)
        assert result["recall"] == 1 / 7

    def test_match_counts_the_anchors_of_images_without_gts(self, capsys, tmp_path):
        ann = tmp_path / "empty.json"
        ann.write_text(json.dumps({
            "images": [{"id": i, "width": 800, "height": 800, "file_name": f"{i}.png"}
                       for i in (1, 2, 3)],
            "annotations": [],
            "categories": [{"id": 1, "name": "car"}],
        }))
        result = run_json(capsys, "match", "--ann", str(ann))["result"]
        # the default grid lays out 319,764 anchors on each 800x800 image
        assert result["n_anchors"] == result["n_negative"] == 3 * 319_764 == 959_292
        assert result["zero_gt_denominator"] is True

    def test_match_does_not_import_numpy_ma(self, tiny_path, tmp_path):
        """A bare ``np.unique`` imports ``numpy.ma``, some 8-16 ms of a fresh process."""
        code = ("import sys; from detforge.cli import main; "
                "rc = main(['match', '--ann', sys.argv[1], '--out', sys.argv[2]]); "
                "print(rc, 'numpy.ma' in sys.modules)")
        proc = subprocess.run(
            [sys.executable, "-c", code, tiny_path, str(tmp_path / "match.json")],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.stdout == "0 False\n", proc.stderr

    def test_eval_perfect_detections(self, capsys, tiny_path, data_dir):
        report = run_json(
            capsys, "eval", "--ann", tiny_path,
            "--dets", str(data_dir / "tiny_perfect_dets.json"),
        )
        result = report["result"]
        assert result["ap"] == 1.0
        assert result["ap50"] == 1.0

    def test_eval_hand_traced_fixture(self, capsys, data_dir):
        report = run_json(
            capsys, "eval", "--ann", str(data_dir / "eval_mixed_ann.json"),
            "--dets", str(data_dir / "eval_mixed_dets.json"),
        )
        result = report["result"]
        assert result["ap"] == pytest.approx(71.0 / 101.0, abs=1e-9)
        assert result["ap50"] == pytest.approx(96.0 / 101.0, abs=1e-9)

    def test_eval_threshold_override(self, capsys, data_dir):
        report = run_json(
            capsys, "eval", "--ann", str(data_dir / "eval_mixed_ann.json"),
            "--dets", str(data_dir / "eval_mixed_dets.json"),
            "--iou-thresholds", "0.5",
        )
        assert report["result"]["ap"] == report["result"]["ap50"]

    def test_tile_with_export(self, capsys, tiny_path, tmp_path):
        target = tmp_path / "tiled.json"
        report = run_json(
            capsys, "tile", "--ann", tiny_path, "--export-ann", str(target)
        )
        result = report["result"]
        assert result["n_source_images"] == 3
        assert result["n_tiles"] == 4
        exported = json.loads(target.read_text())
        assert len(exported["images"]) == 4

    def test_augment_sample_then_replay(self, capsys, tiny_path, tmp_path):
        records = tmp_path / "records.jsonl"
        sampled = run_json(
            capsys, "augment-replay", "--ann", tiny_path, "--aug-id", "3",
            "--seed", "5", "--records-out", str(records),
        )
        assert records.exists()
        replayed = run_json(
            capsys, "augment-replay", "--ann", tiny_path, "--records", str(records)
        )
        a = {row["image_id"]: row for row in sampled["result"]["images"]}
        b = {row["image_id"]: row for row in replayed["result"]["images"]}
        assert a.keys() == b.keys()
        for image_id in a:
            assert a[image_id]["n_boxes_out"] == b[image_id]["n_boxes_out"]
            assert a[image_id]["records"] == b[image_id]["records"]

    def test_loss_check_passes(self, capsys):
        report = run_json(capsys, "loss-check")
        result = report["result"]
        assert result["passed"] is True
        for entry in result["checks"].values():
            assert entry["max_rel_err"] < 1e-6

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0, 5.0])
    def test_loss_check_matches_the_replaced_losses(self, capsys, gamma):
        """Each check equals the one the three replaced losses give on the seeded batch."""
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n, c = 48, 5
            batch = LogitsBatch(rng.normal(0.0, 1.0, (n, c)), rng.integers(0, c, n))
            weights = class_weights(np.bincount(batch.targets, minlength=c) + 1)
            pred = rng.normal(0.0, 1.0, 24)
            target = rng.normal(0.0, 1.0, 24)
            expected = {}
            for name, fn, arg in (
                ("cross_entropy", oracle_cross_entropy, batch),
                ("weighted_cross_entropy", lambda b: oracle_weighted_cross_entropy(b, weights),
                 batch),
                ("focal", lambda b: oracle_focal_loss(b, gamma), batch),
                ("smooth_l1", lambda p: smooth_l1(p, target), pred),
            ):
                expected[name] = {"value": fn(arg).value,
                                  "max_rel_err": grad_check(fn, arg, step=1e-4)}
            result = run_json(capsys, "loss-check", "--seed", str(seed),
                              "--gamma", str(gamma))["result"]
            assert result["checks"] == expected, seed

    def test_module_entry_point(self, tiny_path):
        proc = subprocess.run(
            [sys.executable, "-m", "detforge.cli", "stats", "--ann", tiny_path],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["total_instances"] == 7
