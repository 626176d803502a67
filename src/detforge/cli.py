"""Command-line entry point.

Every subcommand emits a JSON report that embeds the fully resolved
configuration, per-field provenance (flag, file, or default), the tool
version, and a sha256 of every input file, so a rerun with identical
inputs produces byte-identical output. Reports carry no timestamps.

Exit codes: 0 success, 1 validation failure, 2 IO or parse failure,
64 usage error.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .annotations import compute_stats, export_dataset, load_dataset, tile
from .anchors import (
    AnchorSpec,
    cluster_anchor_sizes,
    generate_anchors,
    match_anchors,
    sweep_k,
)
from .augment import ImageGeom, TransformRecord, pipeline, replay
from .errors import ConfigTypeError, UnknownConfigKey, ValidationError
from .evaluation import coco_map, load_detections
from .losses import (
    LogitsBatch,
    class_weights,
    cross_entropy,
    focal_loss,
    grad_check,
    smooth_l1,
    weighted_cross_entropy,
)
from .synthetic import synthetic_aerial_corpus

# Leaves are (type_tag, default); None defaults mean "unset".
_SCHEMA = {
    "paths": {
        "annotations": ("str", None),
        "detections": ("str", None),
        "records": ("str", None),
        "records_out": ("str", None),
        "export_annotations": ("str", None),
        "output": ("str", None),
    },
    "anchors": {
        "sizes": ("list", [16.0, 32.0, 64.0, 128.0, 256.0]),
        "aspect_ratios": ("list", [0.5, 1.0, 2.0]),
        "angles": ("list", [-90.0, 0.0, 90.0]),
        "strides": ("list", [4, 8, 16, 32, 64]),
        "offset": ("float", 0.5),
        "shared_sizes": ("bool", False),
        "fmap_dims": ("list", None),
        "image_size": ("list", [800, 800]),
    },
    "cluster": {
        "k": ("int", 4),
        "k_range": ("list", None),
        "seed": ("int", 0),
        "restarts": ("int", 10),
        "max_iters": ("int", 100),
        "init": ("str", "kmeans++"),
        "synthetic": ("int", None),
    },
    "match": {
        "pos_iou": ("float", 0.7),
        "neg_iou": ("float", 0.3),
        "force_match": ("bool", False),
    },
    "augment": {
        "aug_id": ("int", 1),
        "seed": ("int", 0),
    },
    "eval": {
        "max_dets": ("int", 100),
        "iou_thresholds": ("list", None),
    },
    "tile": {
        "tile_size": ("int", 800),
        "overlap": ("int", 200),
        "min_visibility": ("float", 0.25),
    },
    "threads": ("int", 1),
}

# argparse dest -> config key path
_FLAG_MAP = {
    "ann": ("paths", "annotations"),
    "dets": ("paths", "detections"),
    "records": ("paths", "records"),
    "records_out": ("paths", "records_out"),
    "export_ann": ("paths", "export_annotations"),
    "out": ("paths", "output"),
    "sizes": ("anchors", "sizes"),
    "ratios": ("anchors", "aspect_ratios"),
    "angles": ("anchors", "angles"),
    "strides": ("anchors", "strides"),
    "offset": ("anchors", "offset"),
    "shared_sizes": ("anchors", "shared_sizes"),
    "fmap": ("anchors", "fmap_dims"),
    "image_size": ("anchors", "image_size"),
    "k": ("cluster", "k"),
    "k_range": ("cluster", "k_range"),
    "seed": ("cluster", "seed"),
    "restarts": ("cluster", "restarts"),
    "max_iters": ("cluster", "max_iters"),
    "init": ("cluster", "init"),
    "synthetic": ("cluster", "synthetic"),
    "pos_iou": ("match", "pos_iou"),
    "neg_iou": ("match", "neg_iou"),
    "force_match": ("match", "force_match"),
    "aug_id": ("augment", "aug_id"),
    "aug_seed": ("augment", "seed"),
    "max_dets": ("eval", "max_dets"),
    "iou_thresholds": ("eval", "iou_thresholds"),
    "tile_size": ("tile", "tile_size"),
    "overlap": ("tile", "overlap"),
    "min_visibility": ("tile", "min_visibility"),
    "gamma": ("loss", "gamma"),
    "loss_seed": ("loss", "seed"),
    "threads": ("threads",),
}

_LOSS_SCHEMA = {"gamma": ("float", 2.0), "seed": ("int", 0)}


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


def _fmap_list(text):
    dims = []
    for part in text.split(","):
        try:
            w, h = part.lower().split("x")
            dims.append([int(w), int(h)])
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected WxH, got {part!r}")
    return dims


def _k_range(text):
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return list(range(lo, hi + 1))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="detforge", description=__doc__)
    parser.add_argument("--version", action="version", version=f"detforge {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text, add_help=True)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument("--pretty", action="store_true", help="render a plain-text table")
        p.add_argument("--threads", type=int, default=None,
                       help="worker count; DETFORGE_THREADS as fallback (results identical)")
        return p

    p = add("stats", "dataset imbalance and size statistics")
    p.add_argument("--ann", help="annotations JSON")

    p = add("tile", "split images into overlapping patches")
    p.add_argument("--ann")
    p.add_argument("--tile-size", type=int, default=None)
    p.add_argument("--overlap", type=int, default=None)
    p.add_argument("--min-visibility", type=float, default=None)
    p.add_argument("--export-ann", default=None, help="write the tiled annotations here")

    p = add("cluster", "k-means anchor sizing over GT boxes")
    p.add_argument("--ann")
    p.add_argument("--synthetic", type=int, default=None, metavar="N",
                   help="use the bundled synthetic corpus of N boxes instead of --ann")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--k-range", type=_k_range, default=None, metavar="LO:HI")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--init", choices=["kmeans++", "random"], default=None)

    def anchor_flags(p):
        p.add_argument("--sizes", type=_comma_list(float), default=None)
        p.add_argument("--ratios", type=_comma_list(float), default=None)
        p.add_argument("--angles", type=_comma_list(float), default=None)
        p.add_argument("--strides", type=_comma_list(int), default=None)
        p.add_argument("--offset", type=float, default=None)
        p.add_argument("--shared-sizes", action="store_const", const=True, default=None)
        p.add_argument("--fmap", type=_fmap_list, default=None, metavar="WxH,WxH,...")
        p.add_argument("--image-size", type=int, nargs=2, default=None, metavar=("W", "H"))

    p = add("anchors", "generate the anchor grid and report counts")
    anchor_flags(p)

    p = add("match", "simulate anchor-to-GT matching on a dataset")
    p.add_argument("--ann")
    anchor_flags(p)
    p.add_argument("--pos-iou", type=float, default=None)
    p.add_argument("--neg-iou", type=float, default=None)
    p.add_argument("--force-match", action="store_const", const=True, default=None)

    p = add("eval", "COCO-protocol AP over a detections file")
    p.add_argument("--ann")
    p.add_argument("--dets")
    p.add_argument("--max-dets", type=int, default=None)
    p.add_argument("--iou-thresholds", type=_comma_list(float), default=None)

    p = add("augment-replay", "sample augmentations per image, or replay records")
    p.add_argument("--ann")
    p.add_argument("--aug-id", type=int, default=None, choices=[1, 2, 3])
    p.add_argument("--seed", dest="aug_seed", type=int, default=None)
    p.add_argument("--records", default=None, help="replay this records file instead of sampling")
    p.add_argument("--records-out", default=None, help="write sampled records here (JSON lines)")

    p = add("loss-check", "gradient-check every loss on a seeded batch")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--seed", dest="loss_seed", type=int, default=None)

    return parser


def _default_config() -> dict:
    def walk(node):
        if isinstance(node, dict):
            return {k: walk(v) for k, v in node.items()}
        return copy.deepcopy(node[1])

    config = walk(_SCHEMA)
    config["loss"] = {k: v[1] for k, v in _LOSS_SCHEMA.items()}
    return config


def _default_provenance() -> dict:
    out = {}

    def walk(node, prefix):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            if isinstance(value, dict):
                walk(value, path)
            else:
                out[path] = "default"

    walk(_SCHEMA, "")
    for key in _LOSS_SCHEMA:
        out[f"loss.{key}"] = "default"
    return out


def _schema_leaf(path: Tuple[str, ...]):
    node = {**_SCHEMA, "loss": _LOSS_SCHEMA}
    for part in path:
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return None if isinstance(node, dict) else node


def _check_type(path: str, type_tag: str, value):
    ok = {
        "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
        "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
        "str": lambda v: isinstance(v, str),
        "bool": lambda v: isinstance(v, bool),
        "list": lambda v: isinstance(v, list),
    }[type_tag](value)
    if not ok:
        raise ConfigTypeError(path, type_tag, value)
    return float(value) if type_tag == "float" else value


def _apply_file_config(config, provenance, file_config):
    def walk(node, schema, target, prefix):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            if not isinstance(schema, dict) or key not in schema:
                raise UnknownConfigKey(path)
            if isinstance(schema[key], dict):
                if not isinstance(value, dict):
                    raise ConfigTypeError(path, "object", value)
                walk(value, schema[key], target[key], path)
            else:
                if value is None:
                    continue
                target[key] = _check_type(path, schema[key][0], value)
                provenance[path] = "file"

    walk(file_config, {**_SCHEMA, "loss": _LOSS_SCHEMA}, config, "")


def _apply_flags(config, provenance, args):
    for dest, path in _FLAG_MAP.items():
        value = getattr(args, dest, None)
        if value is None:
            continue
        leaf = _schema_leaf(path)
        node = config
        for part in path[:-1]:
            node = node[part]
        if isinstance(value, tuple):
            value = list(value)
        if leaf is not None:
            value = _check_type(".".join(path), leaf[0], value) if not isinstance(value, list) else value
        node[path[-1]] = value
        provenance[".".join(path)] = "flag"


def resolve_config(args) -> Tuple[dict, dict, Optional[str]]:
    """Merge defaults, config file, and flags; track per-field provenance."""
    config = _default_config()
    provenance = _default_provenance()
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            file_config = json.load(fh)
        if not isinstance(file_config, dict):
            raise ValidationError("config file must hold a JSON object")
        _apply_file_config(config, provenance, file_config)
    _apply_flags(config, provenance, args)
    if provenance["threads"] == "default" and os.environ.get("DETFORGE_THREADS"):
        try:
            config["threads"] = int(os.environ["DETFORGE_THREADS"])
            provenance["threads"] = "env"
        except ValueError:
            raise ValidationError("DETFORGE_THREADS must be an integer")
    return config, provenance, config_path


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _require(config, block, key, flag):
    value = config[block][key]
    if value is None:
        raise ValidationError(f"{flag} is required for this command")
    return value


def _anchor_pieces(config):
    a = config["anchors"]
    spec = AnchorSpec(
        sizes=tuple(a["sizes"]),
        aspect_ratios=tuple(a["aspect_ratios"]),
        angles=tuple(a["angles"]),
        strides=tuple(a["strides"]),
        offset=a["offset"],
        shared_sizes=a["shared_sizes"],
    )
    if a["fmap_dims"] is not None:
        fmap_dims = [(int(w), int(h)) for w, h in a["fmap_dims"]]
    else:
        iw, ih = a["image_size"]
        fmap_dims = [
            (math.ceil(iw / s), math.ceil(ih / s)) for s in spec.strides
        ]
    return spec, fmap_dims


def _run_stats(config, inputs):
    path = _require(config, "paths", "annotations", "--ann")
    inputs["annotations"] = path
    ds = load_dataset(path)
    return compute_stats(ds).to_dict()


def _run_tile(config, inputs):
    path = _require(config, "paths", "annotations", "--ann")
    inputs["annotations"] = path
    ds = load_dataset(path)
    t = config["tile"]
    tiled = tile(
        ds,
        tile_size=t["tile_size"],
        overlap=t["overlap"],
        min_visibility=t["min_visibility"],
    )
    export_path = config["paths"]["export_annotations"]
    if export_path:
        export_dataset(tiled, export_path)
    return {
        "n_source_images": len(ds.images),
        "n_tiles": len(tiled.images),
        "n_source_instances": len(ds.instances),
        "n_instances": len(tiled.instances),
        "exported_to": export_path,
    }


def _run_cluster(config, inputs):
    c = config["cluster"]
    if c["synthetic"] is not None:
        boxes = synthetic_aerial_corpus(n=c["synthetic"])
    else:
        path = _require(config, "paths", "annotations", "--ann")
        inputs["annotations"] = path
        ds = load_dataset(path)
        boxes = np.array(
            [[inst.bbox.width, inst.bbox.height] for inst in ds.instances]
        )
        if boxes.size == 0:
            raise ValidationError("no instances to cluster")
    if c["k_range"] is not None:
        pairs = sweep_k(boxes, c["k_range"], seed=c["seed"], restarts=c["restarts"])
        return {"sweep": [[k, miou] for k, miou in pairs],
                "seed": c["seed"], "restarts": c["restarts"]}
    result = cluster_anchor_sizes(
        boxes,
        k=c["k"],
        seed=c["seed"],
        max_iters=c["max_iters"],
        restarts=c["restarts"],
        init=c["init"],
    )
    return result.to_dict()


def _run_anchors(config, inputs):
    spec, fmap_dims = _anchor_pieces(config)
    anchor_set = generate_anchors(spec, fmap_dims)
    return {
        "effective_angles": list(spec.effective_angles),
        "levels": [
            {
                "level": lv.level,
                "stride": lv.stride,
                "fmap_w": lv.fmap_w,
                "fmap_h": lv.fmap_h,
                "count": lv.count,
            }
            for lv in anchor_set.levels
        ],
        "total": anchor_set.total,
    }


def _run_match(config, inputs):
    path = _require(config, "paths", "annotations", "--ann")
    inputs["annotations"] = path
    ds = load_dataset(path)
    spec, fmap_dims = _anchor_pieces(config)
    anchor_set = generate_anchors(spec, fmap_dims)
    m = config["match"]
    report = match_anchors(
        anchor_set,
        ds.instances,
        pos_iou=m["pos_iou"],
        neg_iou=m["neg_iou"],
        force_match=m["force_match"],
    )
    return report.to_dict()


def _run_eval(config, inputs):
    ann_path = _require(config, "paths", "annotations", "--ann")
    det_path = _require(config, "paths", "detections", "--dets")
    inputs["annotations"] = ann_path
    inputs["detections"] = det_path
    ds = load_dataset(ann_path)
    dets = load_detections(det_path)
    e = config["eval"]
    result = coco_map(
        dets, ds, max_dets=e["max_dets"], iou_thresholds=e["iou_thresholds"]
    )
    return result.to_dict()


def _run_augment_replay(config, inputs):
    path = _require(config, "paths", "annotations", "--ann")
    inputs["annotations"] = path
    ds = load_dataset(path)
    records_path = config["paths"]["records"]
    rows = []
    if records_path:
        inputs["records"] = records_path
        with open(records_path, "r", encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        per_image = {entry["image_id"]: entry["records"] for entry in lines}
        mode = "replay"
    else:
        per_image = None
        mode = "sample"
        pipe = pipeline(config["augment"]["aug_id"], config["augment"]["seed"])

    out_lines = []
    for image in sorted(ds.images, key=lambda im: im.id):
        boxes = [inst.bbox for inst in ds.instances_by_image.get(image.id, [])]
        geom = ImageGeom(image.width, image.height)
        if per_image is not None:
            records = [TransformRecord.from_dict(d) for d in per_image.get(image.id, [])]
            new_boxes, new_geom = replay(records, boxes, geom)
        else:
            new_boxes, new_geom, records = pipe.apply(boxes, geom)
        record_dicts = [r.to_dict() for r in records]
        out_lines.append({"image_id": image.id, "records": record_dicts})
        rows.append(
            {
                "image_id": image.id,
                "n_boxes_in": len(boxes),
                "n_boxes_out": len(new_boxes),
                "width": new_geom.width,
                "height": new_geom.height,
                "records": record_dicts,
            }
        )
    records_out = config["paths"]["records_out"]
    if records_out and mode == "sample":
        with open(records_out, "w", encoding="utf-8") as fh:
            for entry in out_lines:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return {
        "mode": mode,
        "aug_id": config["augment"]["aug_id"] if mode == "sample" else None,
        "seed": config["augment"]["seed"] if mode == "sample" else None,
        "images": rows,
    }


def _run_loss_check(config, inputs):
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
        ("cross_entropy", cross_entropy, batch),
        ("weighted_cross_entropy", lambda b: weighted_cross_entropy(b, weights), batch),
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


def _pretty_lines(value, indent=0) -> List[str]:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for key in value:
            sub = value[key]
            if isinstance(sub, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_pretty_lines(sub, indent + 1))
            else:
                lines.append(f"{pad}{key}: {sub}")
    elif isinstance(value, list):
        if value and all(isinstance(v, dict) for v in value):
            keys = sorted({k for v in value for k in v if not isinstance(v[k], (dict, list))})
            lines.append(pad + " | ".join(keys))
            for v in value:
                lines.append(pad + " | ".join(str(v.get(k, "")) for k in keys))
        else:
            lines.append(pad + ", ".join(str(v) for v in value))
    else:
        lines.append(f"{pad}{value}")
    return lines


def dispatch(args) -> int:
    config, provenance, config_path = resolve_config(args)
    inputs = {}
    if config_path:
        inputs["config"] = config_path
    result = _RUNNERS[args.command](config, inputs)
    report = {
        "command": args.command,
        "version": __version__,
        "config": config,
        "provenance": provenance,
        "inputs": {
            name: {"path": path, "sha256": _sha256(path)}
            for name, path in sorted(inputs.items())
        },
        "result": result,
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    out_path = config["paths"]["output"]
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if args.pretty:
            sys.stdout.write("\n".join(_pretty_lines(result)) + "\n")
    elif args.pretty:
        sys.stdout.write("\n".join(_pretty_lines(result)) + "\n")
    else:
        sys.stdout.write(text)
    if isinstance(result, dict) and result.get("passed") is False:
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 64
    try:
        return dispatch(args)
    except ValidationError as exc:
        print(f"detforge: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"detforge: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
