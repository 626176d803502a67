"""COCO-style annotation ingestion, dataset statistics, and image tiling.

The on-disk schema is the COCO detection layout: top-level ``images``,
``annotations`` and ``categories`` arrays, annotation boxes as
``[x, y, w, h]``, and ``iscrowd`` mapping to the ignore flag. Boxes are
converted to corner form on load and clipped into their image bounds;
segmentation polygons, if present, are parsed and ignored.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

from . import geometry
from .errors import (
    DanglingReference,
    InvalidOverlap,
    MissingKey,
    NegativeExtent,
    ValidationError,
)
from .geometry import BBox

# COCO size-bucket area thresholds (px^2), matching the APs/APm/APl split.
SMALL_AREA_MAX = 32.0**2
MEDIUM_AREA_MAX = 96.0**2


@dataclass(frozen=True)
class Category:
    id: int
    name: str


@dataclass(frozen=True)
class ImageRecord:
    id: int
    width: int
    height: int
    file_name: str

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValidationError(
                f"image {self.id} has non-positive dimensions "
                f"({self.width}x{self.height})"
            )

    @property
    def bounds(self) -> BBox:
        return BBox(0.0, 0.0, float(self.width), float(self.height))


@dataclass(frozen=True)
class Instance:
    id: int
    image_id: int
    category_id: int
    bbox: BBox
    area: float
    ignore: bool = False


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable annotated image collection.

    Equality compares content (images, instances, categories), not the
    provenance string or load diagnostics.
    """

    images: Tuple[ImageRecord, ...]
    instances: Tuple[Instance, ...]
    categories: Tuple[Category, ...]
    provenance: str = ""
    clipped_instance_count: int = field(default=0)

    def __post_init__(self):
        _check_unique([im.id for im in self.images], "image")
        _check_unique([c.id for c in self.categories], "category")
        _check_unique([inst.id for inst in self.instances], "instance")
        image_ids = {im.id for im in self.images}
        category_ids = {c.id for c in self.categories}
        for inst in self.instances:
            if inst.image_id not in image_ids:
                raise DanglingReference(inst.id, "image", inst.image_id)
            if inst.category_id not in category_ids:
                raise DanglingReference(inst.id, "category", inst.category_id)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.images == other.images
            and self.instances == other.instances
            and self.categories == other.categories
        )

    @cached_property
    def image_by_id(self) -> Mapping[int, ImageRecord]:
        return {im.id: im for im in self.images}

    @cached_property
    def category_by_id(self) -> Mapping[int, Category]:
        return {c.id: c for c in self.categories}

    @cached_property
    def instances_by_image(self) -> Mapping[int, Tuple[Instance, ...]]:
        by_image: Dict[int, List[Instance]] = {im.id: [] for im in self.images}
        for inst in self.instances:
            by_image[inst.image_id].append(inst)
        return {k: tuple(v) for k, v in by_image.items()}


@dataclass(frozen=True)
class StatsReport:
    per_category_counts: Dict[int, int]
    per_category_size_buckets: Dict[int, Dict[str, int]]
    per_image_histogram: Dict[int, int]
    total_instances: int
    clipped_instances: int

    def to_dict(self) -> dict:
        return {
            "per_category_counts": {str(k): v for k, v in sorted(self.per_category_counts.items())},
            "per_category_size_buckets": {
                str(k): dict(v) for k, v in sorted(self.per_category_size_buckets.items())
            },
            "per_image_histogram": {str(k): v for k, v in sorted(self.per_image_histogram.items())},
            "total_instances": self.total_instances,
            "clipped_instances": self.clipped_instances,
        }


def _check_unique(ids: Sequence[int], kind: str) -> None:
    seen = set()
    for i in ids:
        if i in seen:
            raise ValidationError(f"duplicate {kind} id: {i}")
        seen.add(i)


def _require(record: Mapping, key: str, where: str):
    if not isinstance(record, dict):
        raise ValidationError(f"{where} must be an object, got {type(record).__name__}")
    if key not in record:
        raise MissingKey(f"{where}.{key}")
    return record[key]


_TYPE_NAMES = {int: "an integer", str: "a string"}


def _require_typed(record: Mapping, key: str, where: str, kind: type):
    """A required value of exactly JSON type ``kind``: a bool is no id, 5 no name."""
    value = _require(record, key, where)
    if type(value) is not kind:
        raise ValidationError(
            f"{where}.{key} must be {_TYPE_NAMES[kind]}, got {type(value).__name__}"
        )
    return value


_NUMBER = (int, float)
_FLOAT_MAX = sys.float_info.max


def parse_xywh(value, where: str) -> Tuple[float, float, float, float]:
    """A JSON ``[x, y, w, h]`` box as four floats.

    Anything other than four finite numbers raises ValidationError: a
    NaN or infinite coordinate has no place on the image or anchor grid.
    """
    if isinstance(value, (list, tuple)) and len(value) == 4:
        x, y, w, h = value
        # int-to-float comparison is exact, so huge integers fail here too
        if (
            type(x) in _NUMBER and type(y) in _NUMBER
            and type(w) in _NUMBER and type(h) in _NUMBER
            and -_FLOAT_MAX <= x <= _FLOAT_MAX and -_FLOAT_MAX <= y <= _FLOAT_MAX
            and -_FLOAT_MAX <= w <= _FLOAT_MAX and -_FLOAT_MAX <= h <= _FLOAT_MAX
        ):
            return (float(x), float(y), float(w), float(h))
    raise ValidationError(f"{where} must be [x, y, w, h] of four finite numbers")


def load_dataset(path) -> Dataset:
    """Load and validate a COCO-style annotation file.

    Ids, references and image sizes must be JSON integers and
    ``iscrowd`` 0 or 1. Boxes are converted from ``[x, y, w, h]`` to
    corner form and clamped to their image bounds; the number of
    instances whose box had to be clipped is recorded on the returned
    dataset.
    """
    path = Path(path)
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
                id=_require_typed(rec, "id", where, int),
                width=_require_typed(rec, "width", where, int),
                height=_require_typed(rec, "height", where, int),
                file_name=_require_typed(rec, "file_name", where, str),
            )
        )

    categories = []
    for i, rec in enumerate(raw["categories"]):
        where = f"categories[{i}]"
        categories.append(
            Category(
                id=_require_typed(rec, "id", where, int),
                name=_require_typed(rec, "name", where, str),
            )
        )
    image_by_id = {im.id: im for im in images}

    instances = []
    n_clipped = 0
    for i, rec in enumerate(raw["annotations"]):
        where = f"annotations[{i}]"
        ann_id = _require_typed(rec, "id", where, int)
        image_id = _require_typed(rec, "image_id", where, int)
        category_id = _require_typed(rec, "category_id", where, int)
        x, y, w, h = parse_xywh(_require(rec, "bbox", where), f"{where}.bbox")
        if w < 0 or h < 0:
            raise NegativeExtent(ann_id, w, h)
        box = geometry.from_xywh(x, y, w, h)
        image = image_by_id.get(image_id)
        if image is None:
            raise DanglingReference(ann_id, "image", image_id)
        clamped = geometry.clamp(box, image.bounds)
        if clamped != box:
            n_clipped += 1
            box = clamped
        area = rec.get("area", box.area)
        # a NaN area would fall out of every size slice without a word
        if not (type(area) in (int, float) and 0 <= area <= sys.float_info.max):
            raise ValidationError(f"{where}.area must be a finite non-negative number")
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

    return Dataset(
        images=tuple(images),
        instances=tuple(instances),
        categories=tuple(categories),
        provenance=str(path),
        clipped_instance_count=n_clipped,
    )


def compute_stats(
    ds: Dataset,
    small_max: float = SMALL_AREA_MAX,
    medium_max: float = MEDIUM_AREA_MAX,
) -> StatsReport:
    """Instance counts per category, size buckets, and per-image histogram.

    Buckets split on instance area: small < ``small_max`` <= medium <
    ``medium_max`` <= large.
    """
    counts = {c.id: 0 for c in ds.categories}
    buckets = {c.id: {"small": 0, "medium": 0, "large": 0} for c in ds.categories}
    for inst in ds.instances:
        counts[inst.category_id] += 1
        if inst.area < small_max:
            bucket = "small"
        elif inst.area < medium_max:
            bucket = "medium"
        else:
            bucket = "large"
        buckets[inst.category_id][bucket] += 1

    histogram: Dict[int, int] = {}
    for image_id, insts in ds.instances_by_image.items():
        histogram[len(insts)] = histogram.get(len(insts), 0) + 1

    return StatsReport(
        per_category_counts=counts,
        per_category_size_buckets=buckets,
        per_image_histogram=histogram,
        total_instances=len(ds.instances),
        clipped_instances=ds.clipped_instance_count,
    )


def _tile_origins(extent: int, tile_size: int, stride: int) -> List[int]:
    """Tile origins along one axis; the last tile ends exactly at the border."""
    if extent <= tile_size:
        return [0]
    origins = []
    pos = 0
    while pos + tile_size < extent:
        origins.append(pos)
        pos += stride
    origins.append(extent - tile_size)
    return origins


def tile(
    ds: Dataset,
    tile_size: int = 800,
    overlap: int = 200,
    min_visibility: float = 0.25,
) -> Dataset:
    """Split every image into fixed-size patches with re-expressed boxes.

    Tile origins advance by ``tile_size - overlap``; the final tile per
    axis is shifted so it ends at the image border. An instance is copied
    into every tile where the clipped fraction of its original box area
    is at least ``min_visibility``; boxes straddling a tile edge are
    clipped, not dropped. Output ordering is deterministic: images in id
    order, tiles row-major, instances in source-id order within a tile.
    """
    if not (0 <= overlap < tile_size):
        raise InvalidOverlap(f"need 0 <= overlap < tile_size, got {overlap}/{tile_size}")
    if not (0 < min_visibility <= 1):
        raise ValidationError(f"min_visibility must be in (0, 1], got {min_visibility}")
    stride = tile_size - overlap

    new_images: List[ImageRecord] = []
    new_instances: List[Instance] = []
    next_image_id = 1
    next_instance_id = 1

    for image in sorted(ds.images, key=lambda im: im.id):
        insts = sorted(ds.instances_by_image[image.id], key=lambda inst: inst.id)
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
                    clipped = geometry.clip(inst.bbox, tile_rect)
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
                            bbox=clipped.shifted(-ox, -oy),
                            area=inst.area * visibility,
                            ignore=inst.ignore,
                        )
                    )
                    next_instance_id += 1

    return Dataset(
        images=tuple(new_images),
        instances=tuple(new_instances),
        categories=ds.categories,
        provenance=f"{ds.provenance}#tiled(size={tile_size},overlap={overlap})",
    )


def dataset_to_coco(ds: Dataset) -> dict:
    """Dataset as a COCO-style dict (the schema read by :func:`load_dataset`)."""
    return {
        "images": [
            {"id": im.id, "width": im.width, "height": im.height, "file_name": im.file_name}
            for im in ds.images
        ],
        "annotations": [
            {
                "id": inst.id,
                "image_id": inst.image_id,
                "category_id": inst.category_id,
                "bbox": list(geometry.to_xywh(inst.bbox)),
                "area": inst.area,
                "iscrowd": 1 if inst.ignore else 0,
            }
            for inst in ds.instances
        ],
        "categories": [{"id": c.id, "name": c.name} for c in ds.categories],
    }


def export_dataset(ds: Dataset, path) -> None:
    """Write the dataset back out in the COCO-style schema."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataset_to_coco(ds), fh, indent=2)
        fh.write("\n")
