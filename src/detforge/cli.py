"""Command-line entry point.

Every subcommand emits one JSON report, to stdout or to ``--out FILE``,
that echoes the resolved settings its command reads, per-field
provenance (flag, file, or default), the tool version, and a sha256 of
every input file, so a rerun with identical inputs produces
byte-identical output. One config file can serve the whole pipeline:
the sections of other commands are type-checked and not echoed. An
empty path is rejected. Reports carry no timestamps. ``anchors`` and
``match`` pass ``--image-size`` to ``generate_anchors``, which owns the
ceil(image / stride) feature-map rule.

Exit codes: 0 success, 1 validation failure, 2 IO or parse failure,
64 usage error.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import sys
from typing import Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .annotations import compute_stats, export_dataset, load_dataset, read_text, tile
from .anchors import (
    MAX_SWEEP_KS,
    AnchorSpec,
    cluster_anchor_sizes,
    generate_anchors,
    match_anchors,
    sweep_k,
)
from .augment import AugmentationPipeline, ImageGeom, replay
from .errors import BadExtent, ValidationError
from .evaluation import coco_map, load_detections
from .losses import LogitsBatch, class_weights, focal_loss, grad_check, smooth_l1


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _comma_list(cast):
    def parse(text):
        try:
            return [cast(part) for part in text.split(",") if part != ""]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return parse


def _k_range(text):
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    if hi - lo >= MAX_SWEEP_KS:
        # checked before the list is built; argparse passes a ValidationError
        # on to main, which exits 1 as for sweep_k's own check
        raise ValidationError(
            f"--k-range {text}: {hi - lo + 1} values of k pass MAX_SWEEP_KS = {MAX_SWEEP_KS}"
        )
    return list(range(lo, hi + 1))


# argparse kwargs implied by each type tag. "pair" is two ints such as a
# W H image size.
_TAG_KWARGS = {
    "str": {},
    "int": {"type": int},
    "float": {"type": float},
    "bool": {"action": "store_const", "const": True},
    "floats": {"type": _comma_list(float)},
    "ints": {"type": _comma_list(int)},
    "pair": {"type": int, "nargs": 2, "metavar": ("W", "H")},
}

_ANN = ("stats", "tile", "cluster", "match", "eval", "augment-replay")
_ANCHORS = ("anchors", "match")

# One row per setting: config path, type tag, default (None means unset),
# flag, the subcommands that take the flag (None: all of them), and argparse
# kwargs beyond those the tag implies. The config path is the argparse dest,
# so one flag can set a different key in each subcommand.
_OPTIONS = (
    ("paths.annotations", "str", None, "--ann", _ANN, {"help": "annotations JSON"}),
    ("paths.detections", "str", None, "--dets", ("eval",), {}),
    ("paths.records", "str", None, "--records", ("augment-replay",),
     {"help": "replay this records file instead of sampling"}),
    ("paths.records_out", "str", None, "--records-out", ("augment-replay",),
     {"help": "write sampled records here (JSON lines)"}),
    ("paths.export_annotations", "str", None, "--export-ann", ("tile",),
     {"help": "write the tiled annotations here"}),
    ("paths.output", "str", None, "--out", None,
     {"help": "write the report here instead of stdout"}),
    ("anchors.sizes", "floats", [16.0, 32.0, 64.0, 128.0, 256.0], "--sizes", _ANCHORS, {}),
    ("anchors.aspect_ratios", "floats", [0.5, 1.0, 2.0], "--ratios", _ANCHORS, {}),
    ("anchors.angles", "floats", [-90.0, 0.0, 90.0], "--angles", _ANCHORS, {}),
    ("anchors.strides", "ints", [4, 8, 16, 32, 64], "--strides", _ANCHORS, {}),
    ("anchors.shared_sizes", "bool", False, "--shared-sizes", _ANCHORS, {}),
    ("anchors.image_size", "pair", [800, 800], "--image-size", _ANCHORS, {}),
    ("cluster.k", "int", 4, "--k", ("cluster",), {}),
    ("cluster.k_range", "ints", None, "--k-range", ("cluster",),
     {"type": _k_range, "metavar": "LO:HI"}),
    ("cluster.seed", "int", 0, "--seed", ("cluster",), {}),
    ("cluster.restarts", "int", 10, "--restarts", ("cluster",), {}),
    ("cluster.max_iters", "int", 100, "--max-iters", ("cluster",), {}),
    ("match.pos_iou", "float", 0.7, "--pos-iou", ("match",), {}),
    ("match.neg_iou", "float", 0.3, "--neg-iou", ("match",), {}),
    ("match.force_match", "bool", False, "--force-match", ("match",), {}),
    ("augment.aug_id", "int", 1, "--aug-id", ("augment-replay",), {"choices": [1, 2, 3]}),
    ("augment.seed", "int", 0, "--seed", ("augment-replay",), {}),
    ("eval.max_dets", "int", 100, "--max-dets", ("eval",), {}),
    ("eval.iou_thresholds", "floats", None, "--iou-thresholds", ("eval",), {}),
    ("tile.tile_size", "int", 800, "--tile-size", ("tile",), {}),
    ("tile.overlap", "int", 200, "--overlap", ("tile",), {}),
    ("tile.min_visibility", "float", 0.25, "--min-visibility", ("tile",), {}),
    ("loss.gamma", "float", 2.0, "--gamma", ("loss-check",), {}),
    ("loss.seed", "int", 0, "--seed", ("loss-check",), {}),
)
_TAGS = {path: tag for path, tag, *_ in _OPTIONS}
_FLAGS = {path: flag for path, _, _, flag, *_ in _OPTIONS}
_BLOCKS = {path.split(".")[0] for path in _TAGS}


def _options_for(command: str) -> list:
    """The ``_OPTIONS`` rows of one subcommand: its flags and its settings."""
    return [row for row in _OPTIONS if row[4] is None or command in row[4]]


# Per subcommand: (setting, a setting the command ignores once the first is
# set). Setting both by flag or config file is an error, not a report that
# echoes a value nothing read; left unset, the ignored one is not echoed.
_OVERRIDES = {
    "cluster": (("cluster.k_range", "cluster.k"),),
    "augment-replay": (("paths.records", "paths.records_out"),
                       ("paths.records", "augment.aug_id"),
                       ("paths.records", "augment.seed")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="detforge", description=__doc__)
    parser.add_argument("--version", action="version", version=f"detforge {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, runner in _RUNNERS.items():
        p = sub.add_parser(name, help=runner.__doc__)
        p.add_argument("--config", help="JSON config file")
        for path, tag, _, flag, _, extra in _options_for(name):
            kwargs = {**_TAG_KWARGS[tag], **extra}
            if tag != "bool" and "choices" not in kwargs:
                kwargs.setdefault("metavar", flag[2:].upper().replace("-", "_"))
            p.add_argument(flag, dest=path, default=None, **kwargs)
    return parser


_SCALAR_CHECKS = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
}
# list tag -> (element tag, required length or None)
_LIST_TAGS = {"floats": ("float", None), "ints": ("int", None), "pair": ("int", 2)}


def _type_error(path: str, expected: str, value) -> ValidationError:
    return ValidationError(f"config key {path!r} expects {expected}, got {type(value).__name__}")


def _check(path: str, tag: str, value):
    """Type-check one setting, element by element for lists.

    Values under a float tag come back as floats, so an integer in a
    config file echoes the same as the flag that parses it.
    """
    if tag in _LIST_TAGS:
        element_tag, length = _LIST_TAGS[tag]
        if not isinstance(value, list):
            raise _type_error(path, "list", value)
        if length is not None and len(value) != length:
            raise ValidationError(
                f"config key {path!r} expects {length} entries, got {len(value)}"
            )
        return [_check(f"{path}[{i}]", element_tag, v) for i, v in enumerate(value)]
    if not _SCALAR_CHECKS[tag](value):
        raise _type_error(path, tag, value)
    # every str setting is a path, and "" names no file
    if tag == "str" and value == "":
        raise ValidationError(f"config key {path!r} is an empty path")
    # every seed seeds a NumPy generator, which takes no negative integer
    if path.endswith(".seed") and value < 0:
        raise ValidationError(f"config key {path!r} must be non-negative, got {value}")
    if tag == "float":
        try:
            return float(value)
        except OverflowError:
            raise ValidationError(f"config key {path!r} is out of float range")
    return value


def _read_input(inputs: dict, name: str, path: str) -> bytes:
    """The bytes of one input file, read once; its sha256 goes in ``inputs``.

    Hashing what was read, not the path after the command ran, keeps the
    report right when a command overwrites its own input.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    inputs[name] = {"path": path, "sha256": hashlib.sha256(data).hexdigest()}
    return data


def resolve_config(args) -> Tuple[dict, dict, dict]:
    """Merge defaults, config file, and flags; track per-field provenance.

    Returns the config and the provenance of each setting the command
    reads, and the report's ``inputs`` map, which holds the config file's
    entry if one was read. The file's sections for other commands are
    type-checked but not echoed. A setting that the command would ignore
    because of another one (``_OVERRIDES``) fails when a flag or the file
    sets it, and is left out when neither does.
    """
    rows = _options_for(args.command)
    config, provenance = {}, {}
    for path, _, default, *_ in rows:
        block, key = path.split(".")
        config.setdefault(block, {})[key] = copy.deepcopy(default)
        provenance[path] = "default"
    settings = []
    inputs = {}
    config_path = getattr(args, "config", None)
    if config_path is not None:
        file_config = json.loads(
            read_text(config_path, _read_input(inputs, "config", config_path))
        )
        if not isinstance(file_config, dict):
            raise ValidationError("config file must hold a JSON object")
        for block, node in file_config.items():
            if block not in _BLOCKS:
                raise ValidationError(f"unknown config key: {block!r}")
            if not isinstance(node, dict):
                raise _type_error(block, "object", node)
            for key, value in node.items():
                path = f"{block}.{key}"
                if path not in _TAGS:
                    raise ValidationError(f"unknown config key: {path!r}")
                settings.append((path, value, "file"))
    settings += [(path, getattr(args, path), "flag") for path, *_ in rows]
    for path, value, source in settings:
        if value is None:
            continue
        value = _check(path, _TAGS[path], value)
        if path in provenance:
            block, key = path.split(".")
            config[block][key] = value
            provenance[path] = source
    for setting, ignored in _OVERRIDES.get(args.command, ()):
        if provenance[setting] == "default":
            continue
        if provenance[ignored] != "default":
            raise ValidationError(
                f"{ignored} ({_FLAGS[ignored]}) is ignored when {setting} "
                f"({_FLAGS[setting]}) is set; set only one of them"
            )
        block, key = ignored.split(".")
        del config[block][key], provenance[ignored]
        if not config[block]:
            del config[block]
    return config, provenance, inputs


def _require(config, block, key, flag):
    value = config[block][key]
    if value is None:
        raise ValidationError(f"{flag} is required for this command")
    return value


def _anchor_spec(config):
    a = config["anchors"]
    return AnchorSpec(
        sizes=tuple(a["sizes"]),
        aspect_ratios=tuple(a["aspect_ratios"]),
        angles=tuple(a["angles"]),
        strides=tuple(a["strides"]),
        shared_sizes=a["shared_sizes"],
    )


def _load_annotations(config, inputs):
    path = _require(config, "paths", "annotations", "--ann")
    return load_dataset(path, _read_input(inputs, "annotations", path))


def _run_stats(config, inputs):
    """dataset imbalance and size statistics"""
    return compute_stats(_load_annotations(config, inputs)).to_dict()


def _run_tile(config, inputs):
    """split images into overlapping patches"""
    ds = _load_annotations(config, inputs)
    t = config["tile"]
    tiled = tile(
        ds,
        tile_size=t["tile_size"],
        overlap=t["overlap"],
        min_visibility=t["min_visibility"],
    )
    export_path = config["paths"]["export_annotations"]
    if export_path is not None:
        export_dataset(tiled, export_path)
    return {
        "n_source_images": len(ds.images),
        "n_tiles": len(tiled.images),
        "n_source_instances": len(ds.columns),
        "n_instances": len(tiled.columns),
        "exported_to": export_path,
    }


def _run_cluster(config, inputs):
    """k-means anchor sizing over GT boxes"""
    c = config["cluster"]
    columns = _load_annotations(config, inputs).columns
    boxes = columns.boxes[:, 2:] - columns.boxes[:, :2]
    try:
        if c["k_range"] is not None:
            pairs = sweep_k(boxes, c["k_range"], seed=c["seed"], restarts=c["restarts"],
                            max_iters=c["max_iters"])
            return {"sweep": [[k, miou] for k, miou in pairs],
                    "seed": c["seed"], "restarts": c["restarts"]}
        result = cluster_anchor_sizes(
            boxes,
            k=c["k"],
            seed=c["seed"],
            max_iters=c["max_iters"],
            restarts=c["restarts"],
        )
    except BadExtent as exc:
        raise ValidationError(f"annotation {columns.id[exc.row]}: {exc.detail}") from None
    return result.to_dict()


def _run_anchors(config, inputs):
    """generate the anchor grid and report counts"""
    spec = _anchor_spec(config)
    anchor_set = generate_anchors(spec, *config["anchors"]["image_size"])
    return {
        "effective_angles": list(spec.effective_angles),
        "levels": [
            {
                "level": level,
                "stride": lv.stride,
                "fmap_w": lv.fmap_w,
                "fmap_h": lv.fmap_h,
                "count": lv.count,
            }
            for level, lv in enumerate(anchor_set.levels)
        ],
        "total": anchor_set.total,
    }


def _run_match(config, inputs):
    """simulate anchor-to-GT matching on a dataset"""
    ds = _load_annotations(config, inputs)
    anchor_set = generate_anchors(_anchor_spec(config), *config["anchors"]["image_size"])
    m = config["match"]
    report = match_anchors(
        anchor_set,
        ds,
        pos_iou=m["pos_iou"],
        neg_iou=m["neg_iou"],
        force_match=m["force_match"],
    )
    return report.to_dict()


def _run_eval(config, inputs):
    """COCO-protocol AP over a detections file"""
    ann_path = _require(config, "paths", "annotations", "--ann")
    det_path = _require(config, "paths", "detections", "--dets")
    ds = load_dataset(ann_path, _read_input(inputs, "annotations", ann_path))
    dets = load_detections(det_path, _read_input(inputs, "detections", det_path))
    e = config["eval"]
    result = coco_map(
        dets, ds, max_dets=e["max_dets"], iou_thresholds=e["iou_thresholds"]
    )
    return result.to_dict()


def _read_records(path, text, image_ids) -> dict:
    """Map image id -> (line number, records) for a JSON-lines records file.

    ``text`` is the file's content. Only the line format is checked: each
    line is an object of exactly ``image_id``, an integer in ``image_ids``
    and on no other line, and ``records``, a list, which ``replay`` checks.
    """
    per_image = {}
    start = 0
    for lineno, line in enumerate(text.split("\n"), 1):
        line_start, start = start, start + len(line) + 1
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            # re-raised against the whole file, so it names the file's line
            raise json.JSONDecodeError(f"{path}: {exc.msg}", text, line_start + exc.pos) from None
        where = f"{path} line {lineno}"
        if not (type(entry) is dict and entry.keys() == {"image_id", "records"}):
            raise ValidationError(f"{where}: expected an object of exactly image_id and records")
        image_id, records = entry["image_id"], entry["records"]
        if type(records) is not list:
            raise ValidationError(f"{where}: records must be a list, got {records!r}")
        if type(image_id) is not int or image_id not in image_ids:
            raise ValidationError(
                f"{where}: image_id {image_id!r} is not the id of an image in the dataset")
        if image_id in per_image:
            raise ValidationError(f"{where}: image_id {image_id} already has records on line "
                                  f"{per_image[image_id][0]}")
        per_image[image_id] = (lineno, records)
    return per_image


def _run_augment_replay(config, inputs):
    """sample augmentations per image, or replay records"""
    ds = _load_annotations(config, inputs)
    records_path = config["paths"]["records"]
    rows = []
    if records_path is not None:
        text = read_text(records_path, _read_input(inputs, "records", records_path))
        per_image = _read_records(records_path, text, ds.image_by_id)
        mode = "replay"
    else:
        per_image = None
        mode = "sample"
        pipe = AugmentationPipeline(config["augment"]["aug_id"], config["augment"]["seed"])

    for image in sorted(ds.images, key=lambda im: im.id):
        boxes = ds.columns.boxes[ds.rows_by_image[image.id]]
        geom = ImageGeom(image.width, image.height)
        if per_image is not None:
            lineno, records = per_image.get(image.id, (None, []))
            try:
                new_boxes, new_geom = replay(records, boxes, geom)
            except ValidationError as exc:
                raise ValidationError(f"{records_path} line {lineno}: {exc}") from None
        else:
            new_boxes, new_geom, records = pipe.apply(boxes, geom)
        rows.append(
            {
                "image_id": image.id,
                "n_boxes_in": len(boxes),
                "n_boxes_out": len(new_boxes),
                "width": new_geom.width,
                "height": new_geom.height,
                "records": records,
            }
        )
    # replay mode echoes no paths.records_out, so only sample mode reads it
    if mode == "sample" and config["paths"]["records_out"] is not None:
        with open(config["paths"]["records_out"], "w", encoding="utf-8") as fh:
            for row in rows:
                entry = {"image_id": row["image_id"], "records": row["records"]}
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return {
        "mode": mode,
        "aug_id": config["augment"]["aug_id"] if mode == "sample" else None,
        "seed": config["augment"]["seed"] if mode == "sample" else None,
        "images": rows,
    }


def _run_loss_check(config, inputs):
    """gradient-check every loss on a seeded batch"""
    gamma = config["loss"]["gamma"]
    seed = config["loss"]["seed"]
    rng = np.random.default_rng(seed)
    n, c = 48, 5
    # unit-scale logits keep every softmax entry large enough that central
    # differences retain ~8 significant digits; wilder batches drown the
    # small-probability gradient entries in cancellation noise
    batch = LogitsBatch(rng.normal(0.0, 1.0, (n, c)), rng.integers(0, c, n))
    weights = class_weights(np.bincount(batch.targets, minlength=c) + 1)
    pred = rng.normal(0.0, 1.0, 24)
    target = rng.normal(0.0, 1.0, 24)

    checks = {}
    for name, fn, arg in (
        ("cross_entropy", lambda b: focal_loss(b, 0.0), batch),
        ("weighted_cross_entropy", lambda b: focal_loss(b, 0.0, weights), batch),
        ("focal", lambda b: focal_loss(b, gamma), batch),
        ("smooth_l1", lambda p: smooth_l1(p, target), pred),
    ):
        checks[name] = {
            "value": fn(arg).value,
            "max_rel_err": grad_check(fn, arg, step=1e-4),
        }
    passed = all(entry["max_rel_err"] < 1e-6 for entry in checks.values())
    return {"gamma": gamma, "seed": seed, "checks": checks, "passed": passed}


_RUNNERS = {
    "stats": _run_stats,
    "tile": _run_tile,
    "cluster": _run_cluster,
    "anchors": _run_anchors,
    "match": _run_match,
    "eval": _run_eval,
    "augment-replay": _run_augment_replay,
    "loss-check": _run_loss_check,
}


def dispatch(args) -> int:
    config, provenance, inputs = resolve_config(args)
    result = _RUNNERS[args.command](config, inputs)
    report = {
        "command": args.command,
        "version": __version__,
        "config": config,
        "provenance": provenance,
        "inputs": inputs,
        "result": result,
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    out_path = config["paths"]["output"]
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if isinstance(result, dict) and result.get("passed") is False:
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 64
        return dispatch(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValidationError as exc:
        print(f"detforge: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"detforge: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
