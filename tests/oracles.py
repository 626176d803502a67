"""Test oracles shared by the test modules.

The scalar box helpers and the object-path loaders, tiler and exporter
that the package's ``(N, 4)`` column code replaced live here, with the
comparison helpers that check the columns against them and the builders
that turn ``Instance`` and ``Detection`` objects into the columns the
package takes, and the seeded box corpus the clustering tests read, so
no test module imports another. Each oracle is a plain
loop over ``BBox``, ``Instance`` or ``Detection`` objects; the package
names they still use are the ``BBox`` and ``Instance`` value types,
``Dataset`` and its records and columns, ``geometry.clip``,
``Dataset.rows_by_image``, ``annotations._tile_origins``,
``annotations.read_text`` and the error types.
"""

import itertools
import json
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from detforge.annotations import (
    MEDIUM_AREA_MAX,
    SMALL_AREA_MAX,
    Category,
    Dataset,
    ImageRecord,
    Instance,
    InstanceColumns,
    _tile_origins,
    compute_stats,
    export_dataset,
    read_text,
)
from detforge.errors import (
    DanglingReference,
    InvalidOverlap,
    MissingKey,
    NegativeExtent,
    ValidationError,
)
from detforge.evaluation import DetectionColumns
from detforge.geometry import BBox, clip


# ---------------------------------------------------------------------------
# Scalar box helpers: one BBox in, one BBox or tuple out.


def shifted(b: BBox, dx: float, dy: float) -> BBox:
    return BBox(b.x_min + dx, b.y_min + dy, b.x_max + dx, b.y_max + dy)


def scaled(b: BBox, sx: float, sy: float) -> BBox:
    """Scale about the origin; factors must be positive."""
    if sx <= 0 or sy <= 0:
        raise ValidationError(f"scale factors must be positive: ({sx}, {sy})")
    return BBox(b.x_min * sx, b.y_min * sy, b.x_max * sx, b.y_max * sy)


def clamp(b: BBox, bounds: BBox) -> BBox:
    """Clamp all four coordinates into ``bounds``.

    Unlike ``geometry.clip`` this always returns a box; a box fully
    outside the bounds collapses to a degenerate box on the nearest border.
    """

    def cl(v, lo, hi):
        return min(max(v, lo), hi)

    return BBox(
        cl(b.x_min, bounds.x_min, bounds.x_max),
        cl(b.y_min, bounds.y_min, bounds.y_max),
        cl(b.x_max, bounds.x_min, bounds.x_max),
        cl(b.y_max, bounds.y_min, bounds.y_max),
    )


def from_xywh(x: float, y: float, w: float, h: float) -> BBox:
    """Corner-form box from top-left corner plus extents."""
    if w < 0 or h < 0:
        raise ValidationError(f"negative extent: w={w}, h={h}")
    return BBox(x, y, x + w, y + h)


def to_xywh(b: BBox):
    return (b.x_min, b.y_min, b.width, b.height)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def bits(values) -> list:
    """Floats as their bit patterns, so -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


# ---------------------------------------------------------------------------
# Object inputs: the builders that turn Instance and Detection objects into
# the columns the package takes, and back.


@dataclass(frozen=True)
class Detection:
    """One detection as an object; the package takes them as DetectionColumns."""

    image_id: int
    category_id: int
    bbox: BBox
    score: float
    source_index: int

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValidationError(f"score must be in [0, 1], got {self.score}")


def columns_of(instances: Sequence[Instance]) -> InstanceColumns:
    return InstanceColumns(
        id=[i.id for i in instances],
        image_id=[i.image_id for i in instances],
        category_id=[i.category_id for i in instances],
        boxes=[i.bbox.as_tuple() for i in instances],
        area=[i.area for i in instances],
        ignore=[i.ignore for i in instances],
    )


def dataset_of(images, instances, categories, clipped_instance_count=0) -> Dataset:
    """A Dataset of ``Instance`` objects, which it keeps as ``.instances``.

    Keeping the objects lets a test compare an oracle's objects as they
    were built, not as the columns rebuild them.
    """
    instances = tuple(instances)
    ds = Dataset(images, categories, columns_of(instances),
                 clipped_instance_count=clipped_instance_count)
    ds.__dict__["instances"] = instances
    return ds


def detection_columns(dets: Sequence[Detection]) -> DetectionColumns:
    n = len(dets)
    return DetectionColumns(
        image_id=[d.image_id for d in dets],
        category_id=[d.category_id for d in dets],
        source_index=[d.source_index for d in dets],
        boxes=np.fromiter((v for d in dets for v in d.bbox.as_tuple()), np.float64, 4 * n),
        score=np.fromiter((d.score for d in dets), np.float64, n),
    )


def detections_of(columns: DetectionColumns) -> tuple:
    """The rows of ``columns`` as Detection objects."""
    return tuple(
        Detection(image_id, category_id, BBox(*box), score, source_index)
        for image_id, category_id, box, score, source_index in zip(
            columns.image_id.tolist(),
            columns.category_id.tolist(),
            columns.boxes.tolist(),
            columns.score.tolist(),
            columns.source_index.tolist(),
        )
    )


# ---------------------------------------------------------------------------
# Dataset views the package no longer builds.


def instances_by_image(ds: Dataset) -> dict:
    """Each image's ``Instance`` objects, in column order."""
    insts = ds.instances
    return {
        image_id: tuple(insts[r] for r in rows.tolist())
        for image_id, rows in ds.rows_by_image.items()
    }


def dataset_to_coco(ds: Dataset) -> dict:
    """Dataset as a COCO-style dict: what ``json.load`` reads back from ``export_dataset``."""
    c = ds.columns
    b = c.boxes
    xywh = np.stack([b[:, 0], b[:, 1], b[:, 2] - b[:, 0], b[:, 3] - b[:, 1]], axis=1)
    return {
        "images": [
            {"id": im.id, "width": im.width, "height": im.height, "file_name": im.file_name}
            for im in ds.images
        ],
        "annotations": [
            {
                "id": ann_id,
                "image_id": image_id,
                "category_id": category_id,
                "bbox": box,
                "area": area,
                "iscrowd": 1 if crowd else 0,
            }
            for ann_id, image_id, category_id, box, area, crowd in zip(
                c.id.tolist(),
                c.image_id.tolist(),
                c.category_id.tolist(),
                xywh.tolist(),
                c.area.tolist(),
                c.ignore.tolist(),
            )
        ],
        "categories": [{"id": cat.id, "name": cat.name} for cat in ds.categories],
    }


# ---------------------------------------------------------------------------
# The bbox value check both loaders share, and the values that probe it.


def oracle_parse_xywh(value, where):
    """The original box check: one generator over the four values."""
    if not (
        isinstance(value, (list, tuple))
        and len(value) == 4
        and all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in value)
    ):
        raise ValidationError(f"{where} must be [x, y, w, h] of four finite numbers")
    return tuple(float(v) for v in value)


# Every edge value in every slot of a valid box, then values of the wrong shape.
BBOX_EDGES = [0, -3, 2.5, -0.0, 1e308, -sys.float_info.max, sys.float_info.max,
              int(sys.float_info.max), int(sys.float_info.max) + 1, -(10**400),
              float("nan"), float("inf"), float("-inf"), True, False, "5", None, [1]]
BBOX_SHAPES = [None, 5, "0 0 1 1", {"x": 0}, [], [1, 2, 3], [1, 2, 3, 4, 5]]


def bbox_grid():
    for slot, v in itertools.product(range(4), BBOX_EDGES):
        box = [1.0, 2, 3.0, 4]
        box[slot] = v
        yield box


# ---------------------------------------------------------------------------
# The object-path loader, tiler and exporter the columnar code replaced. They
# build one BBox and one Instance per box and are kept as test oracles.


def oracle_check_dataset(images, instances, categories):
    """The original Dataset.__post_init__ walk over Instance objects."""
    for ids, kind in (
        ([im.id for im in images], "image"),
        ([c.id for c in categories], "category"),
        ([inst.id for inst in instances], "instance"),
    ):
        seen = set()
        for i in ids:
            if i in seen:
                raise ValidationError(f"duplicate {kind} id: {i}")
            seen.add(i)
    image_ids = {im.id for im in images}
    category_ids = {c.id for c in categories}
    for inst in instances:
        if inst.image_id not in image_ids:
            raise DanglingReference(inst.id, "image", inst.image_id)
        if inst.category_id not in category_ids:
            raise DanglingReference(inst.id, "category", inst.category_id)


def oracle_require(record, key, where):
    if not isinstance(record, dict):
        raise ValidationError(f"{where} must be an object, got {type(record).__name__}")
    if key not in record:
        raise MissingKey(f"{where}.{key}")
    return record[key]


def oracle_require_typed(record, key, where, kind):
    """A required value of exactly JSON type ``kind``: a bool is no id, 5 no name."""
    value = oracle_require(record, key, where)
    if type(value) is not kind:
        name = {int: "an integer", str: "a string"}[kind]
        raise ValidationError(f"{where}.{key} must be {name}, got {type(value).__name__}")
    return value


def oracle_load_dataset(path) -> Dataset:
    """The original loader: one BBox, one clamp and one Instance per entry.

    One rule is added to the original: a clamped box whose own area
    overflows fails, as an infinite box area would make every IoU with
    it a warning and 0.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)

    if not isinstance(raw, dict):
        raise ValidationError(f"annotation file must hold a JSON object, got {type(raw).__name__}")
    for key in ("images", "annotations", "categories"):
        if key not in raw:
            raise MissingKey(key)
        if not isinstance(raw[key], list):
            raise ValidationError(f"{key} must be an array, got {type(raw[key]).__name__}")

    images = []
    for i, rec in enumerate(raw["images"]):
        where = f"images[{i}]"
        images.append(
            ImageRecord(
                id=oracle_require_typed(rec, "id", where, int),
                width=oracle_require_typed(rec, "width", where, int),
                height=oracle_require_typed(rec, "height", where, int),
                file_name=oracle_require_typed(rec, "file_name", where, str),
            )
        )

    categories = []
    for i, rec in enumerate(raw["categories"]):
        where = f"categories[{i}]"
        categories.append(
            Category(
                id=oracle_require_typed(rec, "id", where, int),
                name=oracle_require_typed(rec, "name", where, str),
            )
        )
    image_by_id = {im.id: im for im in images}

    instances = []
    n_clipped = 0
    for i, rec in enumerate(raw["annotations"]):
        where = f"annotations[{i}]"
        ann_id = oracle_require_typed(rec, "id", where, int)
        image_id = oracle_require_typed(rec, "image_id", where, int)
        category_id = oracle_require_typed(rec, "category_id", where, int)
        x, y, w, h = oracle_parse_xywh(oracle_require(rec, "bbox", where), f"{where}.bbox")
        if w < 0 or h < 0:
            raise NegativeExtent(ann_id, w, h)
        box = from_xywh(x, y, w, h)
        image = image_by_id.get(image_id)
        if image is None:
            raise DanglingReference(ann_id, "image", image_id)
        bounds = BBox(0.0, 0.0, float(image.width), float(image.height))
        clamped = clamp(box, bounds)
        if clamped != box:
            n_clipped += 1
            box = clamped
        area = rec.get("area", box.area)
        if not (type(area) in (int, float) and 0 <= area <= sys.float_info.max):
            raise ValidationError(f"{where}.area must be a finite non-negative number")
        # the one rule added to the original loader: a given area does not
        # excuse a clamped box whose own area is infinite
        if math.isinf(box.area):
            raise ValidationError(f"{where}.bbox: w * h of the clamped box is out of float range")
        crowd = rec.get("iscrowd", 0)
        if type(crowd) is not int or crowd not in (0, 1):
            raise ValidationError(f"{where}.iscrowd must be 0 or 1, got {crowd!r}")
        instances.append(
            Instance(
                id=ann_id,
                image_id=image_id,
                category_id=category_id,
                bbox=box,
                area=float(area),
                ignore=crowd == 1,
            )
        )

    oracle_check_dataset(images, instances, categories)
    return dataset_of(images, instances, categories, n_clipped)


def oracle_tile(ds, tile_size=800, overlap=200, min_visibility=0.25) -> Dataset:
    """The original tiler: one scalar geometry.clip per (tile, instance) pair."""
    if not (0 <= overlap < tile_size):
        raise InvalidOverlap(f"need 0 <= overlap < tile_size, got {overlap}/{tile_size}")
    if not (0 < min_visibility <= 1):
        raise ValidationError(f"min_visibility must be in (0, 1], got {min_visibility}")
    stride = tile_size - overlap

    new_images = []
    new_instances = []
    next_image_id = 1
    next_instance_id = 1

    by_image = instances_by_image(ds)
    for image in sorted(ds.images, key=lambda im: im.id):
        insts = sorted(by_image[image.id], key=lambda inst: inst.id)
        stem, dot, suffix = image.file_name.rpartition(".")
        if not dot:
            stem, suffix = image.file_name, ""
        for oy in _tile_origins(image.height, tile_size, stride):
            for ox in _tile_origins(image.width, tile_size, stride):
                tw = min(tile_size, image.width - ox)
                th = min(tile_size, image.height - oy)
                tile_rect = BBox(float(ox), float(oy), float(ox + tw), float(oy + th))
                tile_image = ImageRecord(
                    id=next_image_id,
                    width=tw,
                    height=th,
                    file_name=f"{stem}__x{ox}_y{oy}" + (f".{suffix}" if dot else ""),
                )
                next_image_id += 1
                new_images.append(tile_image)
                for inst in insts:
                    if inst.bbox.area <= 0:
                        continue
                    clipped = clip(inst.bbox, tile_rect)
                    if clipped is None:
                        continue
                    visibility = clipped.area / inst.bbox.area
                    if visibility < min_visibility:
                        continue
                    new_instances.append(
                        Instance(
                            id=next_instance_id,
                            image_id=tile_image.id,
                            category_id=inst.category_id,
                            bbox=shifted(clipped, -ox, -oy),
                            area=inst.area * visibility,
                            ignore=inst.ignore,
                        )
                    )
                    next_instance_id += 1

    return dataset_of(new_images, new_instances, ds.categories)


def oracle_export_bytes(ds) -> bytes:
    """The original export: one dict per Instance object, dumped with indent=2."""
    blob = {
        "images": [
            {"id": im.id, "width": im.width, "height": im.height, "file_name": im.file_name}
            for im in ds.images
        ],
        "annotations": [
            {
                "id": inst.id,
                "image_id": inst.image_id,
                "category_id": inst.category_id,
                "bbox": list(to_xywh(inst.bbox)),
                "area": inst.area,
                "iscrowd": 1 if inst.ignore else 0,
            }
            for inst in ds.instances
        ],
        "categories": [{"id": c.id, "name": c.name} for c in ds.categories],
    }
    return (json.dumps(blob, indent=2) + "\n").encode("utf-8")


def oracle_stats(ds) -> dict:
    """The original per-instance statistics loop."""
    counts = {c.id: 0 for c in ds.categories}
    buckets = {c.id: {"small": 0, "medium": 0, "large": 0} for c in ds.categories}
    for inst in ds.instances:
        counts[inst.category_id] += 1
        if inst.area < SMALL_AREA_MAX:
            bucket = "small"
        elif inst.area < MEDIUM_AREA_MAX:
            bucket = "medium"
        else:
            bucket = "large"
        buckets[inst.category_id][bucket] += 1
    histogram = {}
    for insts in instances_by_image(ds).values():
        histogram[len(insts)] = histogram.get(len(insts), 0) + 1
    return {"counts": counts, "buckets": buckets, "histogram": histogram}


def export_bytes(ds, tmp_path) -> bytes:
    path = tmp_path / "export.json"
    export_dataset(ds, path)
    return path.read_bytes()


def assert_same_dataset(got: Dataset, want: Dataset, tmp_path):
    """Columns bit for bit, instances field by field, and the exported bytes."""
    assert got.images == want.images
    assert got.categories == want.categories
    assert got.clipped_instance_count == want.clipped_instance_count
    g, w = got.columns, want.columns
    for name in ("id", "image_id", "category_id", "ignore"):
        assert getattr(g, name).dtype == getattr(w, name).dtype
        assert getattr(g, name).tolist() == getattr(w, name).tolist(), name
    assert bits(g.boxes) == bits(w.boxes)
    assert bits(g.area) == bits(w.area)
    assert got.instances == want.instances
    # repr tells -0.0 from 0.0, and an int field from a float one
    assert [repr(i) for i in got.instances] == [repr(i) for i in want.instances]
    assert export_bytes(got, tmp_path) == oracle_export_bytes(want)
    stats, oracle = compute_stats(got), oracle_stats(want)
    assert stats.per_category_counts == oracle["counts"]
    assert stats.per_category_size_buckets == oracle["buckets"]
    assert stats.per_image_histogram == oracle["histogram"]
    assert stats.total_instances == len(want.instances)


# ---------------------------------------------------------------------------
# The object-path loader that the columnar load_detections replaced: one
# from_xywh box and one Detection per entry. load_detections must hold
# the same columns bit for bit. One rule is added to the original: finite
# corners whose area overflows fail, as coco_map's area would be infinite.

_INT64 = np.iinfo(np.int64)


def oracle_load_detections(path) -> list:
    raw = json.loads(read_text(path))
    if not isinstance(raw, list):
        raise ValidationError("detections file must hold a JSON array")
    out = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ValidationError(f"detections[{i}] must be an object, got {type(entry).__name__}")
        for key in ("image_id", "category_id", "bbox", "score"):
            if key not in entry:
                raise MissingKey(f"detections[{i}].{key}")
        for key, kind, types in (
            ("image_id", "an integer", (int,)),
            ("category_id", "an integer", (int,)),
            ("score", "a number", (int, float)),
        ):
            if type(entry[key]) not in types:
                raise ValidationError(
                    f"detections[{i}].{key} must be {kind}, got {type(entry[key]).__name__}"
                )
        for key in ("image_id", "category_id"):
            if not _INT64.min <= entry[key] <= _INT64.max:
                raise ValidationError(f"detections[{i}].{key} is out of int64 range")
        # int-to-float comparison is exact; float() of a larger int overflows
        if type(entry["score"]) is int and abs(entry["score"]) > sys.float_info.max:
            raise ValidationError(f"detections[{i}].score is out of float range")
        bbox = from_xywh(*oracle_parse_xywh(entry["bbox"], f"detections[{i}].bbox"))
        # the one rule added to the original loader: finite corners need a finite area
        if math.isfinite(bbox.x_max) and math.isfinite(bbox.y_max) and math.isinf(bbox.area):
            raise ValidationError(f"detections[{i}].bbox: w * h is out of float range")
        out.append(
            Detection(
                image_id=entry["image_id"],
                category_id=entry["category_id"],
                bbox=bbox,
                score=float(entry["score"]),
                source_index=i,
            )
        )
    return out


def assert_same_columns(got: DetectionColumns, want: Sequence[Detection]) -> None:
    """``got`` holds the fields of ``want`` bit for bit, so -0.0 stays -0.0."""
    want = detection_columns(want)
    assert len(got) == len(want)
    for name in ("image_id", "category_id", "source_index", "boxes", "score"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


# ---------------------------------------------------------------------------
# Test data: a seeded box corpus for the clustering tests and criterion 4.

MODE_SCALES = (9.0, 26.0, 70.0, 208.0)
MODE_WEIGHTS = (0.55, 0.25, 0.14, 0.06)


def synthetic_aerial_corpus(n: int = 2000, seed: int = 7) -> np.ndarray:
    """Sample an (n, 2) float64 array of (w, h) from four planted scale modes.

    The modes have aerial-like frequencies: lots of small objects, a long
    tail of large ones. Each box picks a mode, then jitters scale and
    aspect ratio log-normally, so w*h clusters around the mode scale
    squared while h/w stays centered on 1. Identical (n, seed) always
    yields the identical corpus, so derived quantities can be frozen in
    tests.
    """
    if n < 1:
        raise ValidationError(f"n must be positive, got {n}")
    rng = np.random.default_rng(seed)
    modes = rng.choice(len(MODE_SCALES), size=n, p=MODE_WEIGHTS)
    scales = np.array(MODE_SCALES)[modes] * np.exp(rng.normal(0.0, 0.28, size=n))
    ratios = np.exp(rng.normal(0.0, 0.35, size=n))
    widths = scales / np.sqrt(ratios)
    heights = scales * np.sqrt(ratios)
    return np.stack([widths, heights], axis=1)
