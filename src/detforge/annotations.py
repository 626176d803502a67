"""COCO-style annotation ingestion, dataset statistics, and image tiling.

The on-disk schema is the COCO detection layout: top-level ``images``,
``annotations`` and ``categories`` arrays, annotation boxes as
``[x, y, w, h]``, and ``iscrowd`` mapping to the ignore flag. Boxes are
converted to corner form on load and clipped into their image bounds;
segmentation polygons, if present, are parsed and ignored.

A :class:`Dataset` holds its instances as NumPy columns
(:class:`InstanceColumns`); loading, statistics, tiling and export work
on the columns, and :class:`Instance` objects are built only when a
caller asks for ``Dataset.instances``.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DanglingReference,
    InvalidOverlap,
    MissingKey,
    NegativeExtent,
    ValidationError,
)
from .geometry import BBox, clip_boxes

# COCO size-bucket area thresholds (px^2), matching the APs/APm/APl split.
SMALL_AREA_MAX = 32.0**2
MEDIUM_AREA_MAX = 96.0**2

# The most tiles one ``tile`` call builds: each is an ImageRecord in memory,
# so a million already take hundreds of MB. A larger job is tiled in parts.
MAX_TILES = 1_000_000


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
        for name in ("width", "height"):
            object.__setattr__(self, name, check_count(f"image {self.id} {name}",
                                                       getattr(self, name), 1))


@dataclass(frozen=True)
class Instance:
    id: int
    image_id: int
    category_id: int
    bbox: BBox
    area: float
    ignore: bool = False


_COLUMN_DTYPES = (
    ("id", np.int64),
    ("image_id", np.int64),
    ("category_id", np.int64),
    ("boxes", np.float64),
    ("area", np.float64),
    ("ignore", bool),
)


def freeze_columns(record, dtypes, overflow: str, bad_rows: str) -> None:
    """Replace each ``(name, dtype)`` field of a frozen column record by a read-only array.

    Each field is copied into an array of its dtype; ``boxes`` is shaped
    (N, 4), and every column must have the first column's N rows. A value
    past the dtype's range raises ValidationError with ``overflow``, a
    row-count mismatch with ``bad_rows``; both are formatted with the
    field ``name``, ``overflow`` also with ``dtype`` and ``bad_rows``
    with ``rows``.
    """
    n = None
    for name, dtype in dtypes:
        try:
            column = np.array(getattr(record, name), dtype=dtype)
        except OverflowError:
            raise ValidationError(overflow.format(name=name, dtype=np.dtype(dtype))) from None
        if name == "boxes":
            column = column.reshape(-1, 4)
        n = len(column) if n is None else n
        if column.shape[:1] != (n,):
            raise ValidationError(bad_rows.format(name=name, rows=len(column)))
        column.flags.writeable = False
        object.__setattr__(record, name, column)


@dataclass(frozen=True, eq=False)
class InstanceColumns:
    """Instance fields as read-only NumPy columns, one row per instance.

    ``id``, ``image_id`` and ``category_id`` are int64, ``boxes`` is the
    (N, 4) float64 corner-form array, ``area`` float64 and ``ignore``
    bool. Each field is copied into a read-only array of its dtype. Rows
    keep :func:`box_rules` and a finite non-negative area; the first bad
    row is named.
    """

    id: np.ndarray
    image_id: np.ndarray
    category_id: np.ndarray
    boxes: np.ndarray
    area: np.ndarray
    ignore: np.ndarray

    def __post_init__(self):
        freeze_columns(self, _COLUMN_DTYPES,
                       "instance column {name!r} holds a value out of {dtype} range",
                       "instance column {name!r} has {rows} rows")
        checked(_instance_rules(self.boxes, self.area))

    def __len__(self) -> int:
        return len(self.id)

    def __eq__(self, other) -> bool:
        if not isinstance(other, InstanceColumns):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name, _ in _COLUMN_DTYPES
        )


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable annotated image collection.

    Images and categories are records, kept as tuples; the instances are
    the read-only ``columns``. ``rows_by_image`` maps each image to its
    column rows. Image, category and instance ids must be unique, and
    every instance must name a known image and category.

    Equality compares content (images, instances, categories), not the
    load diagnostics.
    """

    images: Tuple[ImageRecord, ...]
    categories: Tuple[Category, ...]
    columns: InstanceColumns
    # keyword-only: a stray fourth positional argument would become the count
    clipped_instance_count: int = field(default=0, kw_only=True)

    def __post_init__(self):
        if not isinstance(self.columns, InstanceColumns):
            raise ValidationError(
                f"Dataset columns must be InstanceColumns, got {type(self.columns).__name__}"
            )
        object.__setattr__(self, "images", tuple(self.images))
        object.__setattr__(self, "categories", tuple(self.categories))
        _check_unique([im.id for im in self.images], "image")
        _check_unique([c.id for c in self.categories], "category")
        c = self.columns
        repeat = _first_repeat(c.id)
        if repeat is not None:
            raise ValidationError(f"duplicate instance id: {repeat}")
        check_references(self, c.id, c.image_id, c.category_id, "annotation")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.images == other.images
            and self.columns == other.columns
            and self.categories == other.categories
        )

    @cached_property
    def image_by_id(self) -> Mapping[int, ImageRecord]:
        return {im.id: im for im in self.images}

    @cached_property
    def category_by_id(self) -> Mapping[int, Category]:
        return {c.id: c for c in self.categories}

    # Used only by test oracles; stays while bench/trace_cli.py counts its length.
    @cached_property
    def instances(self) -> Tuple[Instance, ...]:
        """The rows as :class:`Instance` objects, built from the columns on first use."""
        c = self.columns
        return tuple(
            Instance(i, image_id, category_id, BBox(*box), area, ignore)
            for i, image_id, category_id, box, area, ignore in zip(
                c.id.tolist(),
                c.image_id.tolist(),
                c.category_id.tolist(),
                c.boxes.tolist(),
                c.area.tolist(),
                c.ignore.tolist(),
            )
        )

    @cached_property
    def rows_by_image(self) -> Mapping[int, np.ndarray]:
        """Column rows of each image's instances, in column order."""
        groups = group_rows(self.columns.image_id)
        empty = np.zeros(0, dtype=np.intp)
        return {im.id: groups.get((im.id,), empty) for im in self.images}


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


def group_rows(*columns: np.ndarray) -> Dict[tuple, np.ndarray]:
    """Map each distinct tuple of values across ``columns`` to its rows.

    The rows of a group keep their column order.
    """
    order = np.lexsort(columns[::-1])
    keys = [column[order] for column in columns]
    first = np.zeros(len(order), dtype=bool)
    first[:1] = True
    for key in keys:
        first[1:] |= key[1:] != key[:-1]
    starts = np.flatnonzero(first)
    ends = np.r_[starts[1:], len(order)]
    return {
        group: order[start:end]
        for group, start, end in zip(
            zip(*(key[starts].tolist() for key in keys)), starts.tolist(), ends.tolist()
        )
    }


def _instance_rules(boxes: np.ndarray, area: np.ndarray):
    """The rules on an instance row: the box contract, then a finite non-negative area."""
    yield from box_rules(boxes, "instance")
    yield ~((0.0 <= area) & (area < math.inf)), lambda i: ValidationError(
        f"instance row {i} area must be finite and non-negative, got {float(area[i])}"
    )


def _check_unique(ids: Sequence[int], kind: str) -> None:
    seen = set()
    for i in ids:
        if i in seen:
            raise ValidationError(f"duplicate {kind} id: {i}")
        seen.add(i)


def _first_repeat(ids: np.ndarray) -> Optional[int]:
    """The first id, in column order, equal to an earlier one, or None."""
    order = np.argsort(ids, kind="stable")
    ranked = ids[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    return int(ids[repeats.min()]) if repeats.size else None


def _unknown(column: np.ndarray, known: Mapping[int, object]) -> np.ndarray:
    """Mask of the entries of an id column that are not keys of ``known``."""
    values, inverse = np.unique(column, return_inverse=True)
    return np.array([v not in known for v in values.tolist()], dtype=bool)[inverse]


def check_references(
    ds: Dataset,
    ids: np.ndarray,
    image_ids: np.ndarray,
    category_ids: np.ndarray,
    record_kind: str,
) -> None:
    """Raise DanglingReference for the first record naming an unknown id.

    Records are rows of the aligned int64 columns; ``ids`` are the ids
    the message names. The first offender in row order is reported, and
    within one record its image is checked before its category.
    """
    bad_image = _unknown(image_ids, ds.image_by_id)
    bad = bad_image | _unknown(category_ids, ds.category_by_id)
    if bad.any():
        row = int(np.argmax(bad))
        kind, refs = ("image", image_ids) if bad_image[row] else ("category", category_ids)
        raise DanglingReference(int(ids[row]), kind, int(refs[row]), record_kind)


_MISSING = object()
_TYPE_NAMES = {int: "an integer", str: "a string"}
_NUMBER = frozenset({int, float})
_FLOAT_MAX = sys.float_info.max
_INT64 = np.iinfo(np.int64)


def checked(checks):
    """Run a rule generator; return its value, or raise the first bad entry's error.

    ``checks`` yields one ``(bad, error)`` pair per rule, in the order the
    rules apply to one entry: ``bad`` flags the rows that break the rule
    (False when none does) and ``error(i)`` builds row ``i``'s exception.
    Each yield is sent the number of rows still in play, None for all.
    Once a rule flags row ``i``, later rules see only the rows before it,
    each of which passed every earlier rule; so the last failure found is
    the first bad entry's first broken rule, as a loop over the entries
    would report it.
    """
    n = failure = None
    bad, error = next(checks)
    while True:
        if bad is not False:
            rows = np.flatnonzero(bad[:n])
            if rows.size:
                n = int(rows[0])
                failure = error(n)
        try:
            bad, error = checks.send(n)
        except StopIteration as stop:
            if failure is not None:
                raise failure
            return stop.value


def box_rules(boxes: np.ndarray, kind: str):
    """The rules on an (N, 4) corner row, ``kind`` naming it: finite, in order, finite area.

    The area is ``(x_max - x_min) * (y_max - y_min)``, as every IoU and size slice takes it.
    """
    yield _per_row(~np.isfinite(boxes)), lambda i: ValidationError(
        f"{kind} row {i} has a non-finite box {tuple(boxes[i].tolist())}"
    )
    yield (boxes[:, 2] < boxes[:, 0]) | (boxes[:, 3] < boxes[:, 1]), lambda i: ValidationError(
        f"{kind} row {i} has an inverted box {tuple(boxes[i].tolist())}"
    )
    with np.errstate(over="ignore", invalid="ignore"):  # such rows fail here or above
        area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    yield ~np.isfinite(area), lambda i: ValidationError(
        f"{kind} row {i} has a box whose w * h is out of float range {tuple(boxes[i].tolist())}"
    )


def check_count(name: str, value, low: int) -> int:
    """``value`` as an int, if it is a non-bool integer of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValidationError(f"{name} must be at least {low}, got {value}")
    return int(value)


def _head(values, n, width: int = 1):
    """The values of the first ``n`` rows, ``width`` values a row; all of them when n is None."""
    return values if n is None else values[:n * width]


def _gather(records, n, key: str, default=_MISSING) -> list:
    """The ``key`` value of each of the first ``n`` records, ``default`` where it is absent."""
    return [rec.get(key, default) for rec in _head(records, n)]


def _type_flags(column, kinds):
    """Flags of the missing values of a gathered column, and of those not of a type in ``kinds``.

    Each is False when no value has it: one set of the value types
    decides a clean column. A bool is no int, as JSON has it.
    """
    if set(map(type, column)) <= kinds:
        return False, False
    return [v is _MISSING for v in column], [type(v) not in kinds for v in column]


def _range_flags(column, low, high):
    """Flags of the numbers below ``low`` or above ``high``, or False when there are none.

    Python's ``min`` and ``max`` compare an int with a float exactly, so
    an int past a float bound is flagged before a cast could round it to
    a finite float. A NaN is never flagged: it defeats the comparisons,
    and the callers catch it on the cast column.
    """
    if not column or (low <= min(column) and max(column) <= high):
        return False
    return [v < low or high < v for v in column]


def _per_row(flags, width: int = 4):
    """Flags of values, ``width`` to a row, as flags of rows; False when none is set."""
    # the whole-array test is twenty times cheaper than the per-row one
    if flags is False or not np.any(flags):
        return False
    return np.reshape(flags, (-1, width)).any(axis=1)


def _object_rule(records, where: str):
    """The rule that each entry is a JSON object."""
    return _type_flags(records, {dict})[1], lambda i: ValidationError(
        f"{where}[{i}] must be an object, got {type(records[i]).__name__}"
    )


def _field_checks(records, n, where: str, key: str, kind: type):
    """Rules that each entry has ``key``, then that its value is exactly of JSON type ``kind``.

    Returns the gathered column and the rows still in play.
    """
    column = _gather(records, n, key)
    missing, wrong = _type_flags(column, {kind})
    n = yield missing, lambda i: MissingKey(f"{where}[{i}].{key}")
    n = yield wrong, lambda i: ValidationError(
        f"{where}[{i}].{key} must be {_TYPE_NAMES[kind]}, got {type(column[i]).__name__}"
    )
    return column, n


def _xywh_checks(boxes, not_list, n, where: str):
    """Rules that each gathered ``bbox`` is [x, y, w, h] of four finite numbers.

    ``not_list`` flags the boxes that are not lists. The rules share one
    message: a list, then four values, then numbers, then finite ones
    (past the float range, then NaN on the cast column). Returns the
    (N, 4) float64 ``[x, y, w, h]`` column and the rows still in play.
    """
    def error(i):
        return ValidationError(f"{where}[{i}].bbox must be [x, y, w, h] of four finite numbers")

    n = yield not_list, error
    boxes = _head(boxes, n)
    n = yield not set(map(len, boxes)) <= {4} and [len(box) != 4 for box in boxes], error
    values = [v for box in _head(boxes, n) for v in box]
    n = yield _per_row(_type_flags(values, _NUMBER)[1]), error
    n = yield _per_row(_range_flags(_head(values, n, 4), -_FLOAT_MAX, _FLOAT_MAX)), error
    xywh = np.array(_head(values, n, 4), dtype=np.float64).reshape(-1, 4)
    n = yield _per_row(np.isnan(xywh)), error
    return xywh, n


def _image_checks(images: list):
    """The image rules in the order they apply to one entry; returns the ImageRecords."""
    n = yield _object_rule(images, "images")
    ids, n = yield from _field_checks(images, n, "images", "id", int)
    widths, n = yield from _field_checks(images, n, "images", "width", int)
    heights, n = yield from _field_checks(images, n, "images", "height", int)
    names, n = yield from _field_checks(images, n, "images", "file_name", str)
    for column in (widths, heights):
        n = yield _range_flags(_head(column, n), 1, math.inf), lambda i: ValidationError(
            f"image {ids[i]} has non-positive dimensions ({widths[i]}x{heights[i]})"
        )
    for key, column in (("width", widths), ("height", heights)):
        n = yield _range_flags(_head(column, n), 1, _FLOAT_MAX), lambda i, key=key: (
            ValidationError(f"images[{i}].{key} is out of float range")
        )
    # past row n a size may be non-positive, which ImageRecord rejects
    fields = itertools.islice(zip(ids, widths, heights, names), n)
    return [ImageRecord(*record) for record in fields]


def _category_checks(categories: list):
    """The category rules in the order they apply to one entry; returns the Categories."""
    n = yield _object_rule(categories, "categories")
    ids, n = yield from _field_checks(categories, n, "categories", "id", int)
    names, n = yield from _field_checks(categories, n, "categories", "name", str)
    return [Category(*fields) for fields in zip(ids, names)]


def _annotation_checks(anns: list, row_of: Mapping[int, int], limits: np.ndarray):
    """The annotation rules in the order they apply to one entry; returns the fields.

    ``row_of`` maps an image id to its row and ``limits`` holds each
    image row's (width, height, width, height) bounds. Returns ``(ids,
    image_ids, category_ids, corners, boxes, area, crowds)``: ``corners``
    the boxes as given, ``boxes`` clamped into their images, and a
    missing ``area`` the clamped box's.
    """
    n = yield _object_rule(anns, "annotations")
    ids, n = yield from _field_checks(anns, n, "annotations", "id", int)
    image_ids, n = yield from _field_checks(anns, n, "annotations", "image_id", int)
    category_ids, n = yield from _field_checks(anns, n, "annotations", "category_id", int)
    for key, column in (("id", ids), ("image_id", image_ids), ("category_id", category_ids)):
        n = yield _range_flags(_head(column, n), _INT64.min, _INT64.max), lambda i, key=key: (
            ValidationError(f"annotations[{i}].{key} is out of int64 range")
        )
    bboxes = _gather(anns, n, "bbox")
    missing, not_list = _type_flags(bboxes, {list})
    n = yield missing, lambda i: MissingKey(f"annotations[{i}].bbox")
    xywh, n = yield from _xywh_checks(bboxes, not_list, n, "annotations")
    n = yield _per_row(xywh[:, 2:] < 0, 2), lambda i: NegativeExtent(
        ids[i], *xywh[i, 2:].tolist()
    )
    image_rows = list(map(row_of.get, _head(image_ids, n)))
    n = yield None in image_rows and [row is None for row in image_rows], lambda i: (
        DanglingReference(ids[i], "image", image_ids[i])
    )

    xywh = xywh[:n]
    with np.errstate(over="ignore"):
        corners = np.concatenate([xywh[:, :2], xywh[:, :2] + xywh[:, 2:]], axis=1)
        boxes = _clamp_corners(corners, limits[np.array(_head(image_rows, n), dtype=np.intp)])
        default = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    area = _gather(anns, n, "area")
    if _MISSING in area:
        area = [d if a is _MISSING else a for a, d in zip(area, default.tolist())]

    def bad_area(i):
        # a NaN area would fall out of every size slice without a word
        return ValidationError(f"annotations[{i}].area must be a finite non-negative number")

    n = yield _type_flags(area, _NUMBER)[1], bad_area
    n = yield _range_flags(_head(area, n), 0, _FLOAT_MAX), bad_area
    area = np.array(_head(area, n), dtype=np.float64)
    n = yield np.isnan(area), bad_area
    # an infinite box area would turn every IoU with the box into a warning and 0
    n = yield np.isinf(default), lambda i: ValidationError(
        f"annotations[{i}].bbox: w * h of the clamped box is out of float range"
    )
    crowds = _gather(anns, n, "iscrowd", 0)
    n = yield (
        not (set(map(type, crowds)) <= {int} and set(crowds) <= {0, 1})
        and [type(c) is not int or c not in (0, 1) for c in crowds]
    ), lambda i: ValidationError(f"annotations[{i}].iscrowd must be 0 or 1, got {crowds[i]!r}")
    return ids, image_ids, category_ids, corners, boxes, area, [c == 1 for c in crowds]


def read_text(path, data: Optional[bytes] = None) -> str:
    """The text of a UTF-8 file, decoded as ``open(path, encoding="utf-8")`` does.

    ``data``, when given, holds the file's bytes as the caller already
    read them; they are decoded the same way, newline translation
    included, so one read serves both a checksum and the parse.
    """
    if data is None:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()


def _clamp_corners(raw: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Each coordinate clamped into [0, hi] with the scalar ``min(max(v, 0), hi)``.

    ``np.where`` keeps the comparison order of Python's ``max``/``min``,
    so a -0.0 coordinate stays -0.0 as it does in the scalar form.
    """
    low = np.where(0.0 > raw, 0.0, raw)
    return np.where(hi < low, hi, low)


def load_dataset(path, data: Optional[bytes] = None) -> Dataset:
    """Load and validate a COCO-style annotation file.

    Ids, references and image sizes must be JSON integers and
    ``iscrowd`` 0 or 1; image sizes must fit a float and instance ids
    and references an int64. Boxes are converted from ``[x, y, w, h]``
    to corner form and clamped to their image bounds, and each clamped
    box needs a finite area ``w * h`` even when ``area`` is given; the
    number of instances whose box had to be clipped is recorded on the
    returned dataset. ``data``, when given, is the file's content already
    read by the caller.

    Each record kind has one list of rules, run by :func:`checked` a
    whole column at a time; an invalid file fails on its first bad
    entry, with a message naming it. Conversion, clamping and the
    default ``area`` (the clamped box's) run on the columns.
    """
    path = Path(path)
    raw = json.loads(read_text(path, data))

    if not isinstance(raw, dict):
        raise ValidationError(f"annotation file must hold a JSON object, got {type(raw).__name__}")
    for key in ("images", "annotations", "categories"):
        if key not in raw:
            raise MissingKey(key)
        if not isinstance(raw[key], list):
            raise ValidationError(f"{key} must be an array, got {type(raw[key]).__name__}")

    images = checked(_image_checks(raw["images"]))
    categories = checked(_category_checks(raw["categories"]))
    # a later image with a repeated id wins here; the duplicate fails below
    row_of = {im.id: row for row, im in enumerate(images)}
    limits = np.array(
        [(float(im.width), float(im.height)) * 2 for im in images], dtype=np.float64
    ).reshape(-1, 4)
    ids, image_ids, category_ids, corners, boxes, area, crowds = checked(
        _annotation_checks(raw["annotations"], row_of, limits)
    )
    columns = InstanceColumns(
        id=ids, image_id=image_ids, category_id=category_ids,
        boxes=boxes, area=area, ignore=crowds,
    )
    return Dataset(
        images,
        categories,
        columns,
        clipped_instance_count=int(np.count_nonzero((boxes != corners).any(axis=1))),
    )


def compute_stats(ds: Dataset) -> StatsReport:
    """Instance counts per category, size buckets, and per-image histogram.

    Buckets split on instance area: small < ``SMALL_AREA_MAX`` <= medium <
    ``MEDIUM_AREA_MAX`` <= large.
    """
    c = ds.columns
    counts = {cat.id: 0 for cat in ds.categories}
    buckets = {cat.id: {"small": 0, "medium": 0, "large": 0} for cat in ds.categories}
    bucket = np.where(c.area < SMALL_AREA_MAX, 0, np.where(c.area < MEDIUM_AREA_MAX, 1, 2))
    cats, cat_row = np.unique(c.category_id, return_inverse=True)
    tally = np.bincount(3 * cat_row + bucket, minlength=3 * len(cats)).reshape(-1, 3)
    for cat_id, row in zip(cats.tolist(), tally.tolist()):
        counts[cat_id] = sum(row)
        buckets[cat_id] = dict(zip(("small", "medium", "large"), row))

    histogram: Dict[int, int] = {}
    for rows in ds.rows_by_image.values():
        histogram[len(rows)] = histogram.get(len(rows), 0) + 1

    return StatsReport(
        per_category_counts=counts,
        per_category_size_buckets=buckets,
        per_image_histogram=histogram,
        total_instances=len(c),
        clipped_instances=ds.clipped_instance_count,
    )


def _tile_origins(extent: int, tile_size: int, stride: int) -> List[int]:
    """Tile origins along one axis; the last tile ends exactly at the border."""
    if extent <= tile_size:
        return [0]
    return [*range(0, extent - tile_size, stride), extent - tile_size]


def _tile_count(extent: int, tile_size: int, stride: int) -> int:
    """``len(_tile_origins(...))`` in int arithmetic, which, unlike ``len(range)``, has no limit."""
    return 1 if extent <= tile_size else (extent - tile_size - 1) // stride + 2


def tile(
    ds: Dataset,
    tile_size: int = 800,
    overlap: int = 200,
    min_visibility: float = 0.25,
) -> Dataset:
    """Split every image into fixed-size patches with re-expressed boxes.

    Tile origins advance by ``tile_size - overlap``; the final tile per
    axis is shifted so it ends at the image border. A dataset that needs
    more than ``MAX_TILES`` tiles fails before any is built, naming the
    image that passes the bound. An instance is copied into every tile
    where the clipped fraction of its original box area is at least
    ``min_visibility``; boxes straddling a tile edge are clipped, not
    dropped. Output ordering is deterministic: images in id
    order, tiles row-major, instances in source-id order within a tile.

    Each row of tiles is clipped against the instances of its band, those
    not wholly above or below it, at once by ``geometry.clip_boxes`` and
    shifted as ``x + (-ox)``, the scalar shift's operand order, so the
    boxes and areas are bit for bit the scalar ones (signed zeros included).
    """
    if not (0 <= overlap < tile_size):
        raise InvalidOverlap(f"need 0 <= overlap < tile_size, got {overlap}/{tile_size}")
    if not (0 < min_visibility <= 1):
        raise ValidationError(f"min_visibility must be in (0, 1], got {min_visibility}")
    stride = tile_size - overlap
    images, total = sorted(ds.images, key=lambda im: im.id), 0
    for image in images:
        total += math.prod(_tile_count(e, tile_size, stride) for e in (image.width, image.height))
        if total > MAX_TILES:
            raise ValidationError(f"the tile count passes MAX_TILES = {MAX_TILES} at image "
                                  f"{image.id}")
    c = ds.columns
    box_area = (c.boxes[:, 2] - c.boxes[:, 0]) * (c.boxes[:, 3] - c.boxes[:, 1])

    new_images: List[ImageRecord] = []
    # per row of tiles: source rows, tile ids, shifted boxes, visible fractions
    picked, tile_ids = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.int64)]
    out_boxes, visibility = [np.zeros((0, 4))], [np.zeros(0)]
    for image in images:
        rows = ds.rows_by_image[image.id]
        rows = rows[np.argsort(c.id[rows], kind="stable")]
        # a degenerate box has no visible fraction in any tile
        rows = rows[box_area[rows] > 0]
        boxes = c.boxes[rows]
        stem, dot, suffix = image.file_name.rpartition(".")
        if not dot:
            stem, suffix = image.file_name, ""
        xs = _tile_origins(image.width, tile_size, stride)
        tws = [min(tile_size, image.width - ox) for ox in xs]
        for oy in _tile_origins(image.height, tile_size, stride):
            th = min(tile_size, image.height - oy)
            first_id = len(new_images) + 1
            for ox, tw in zip(xs, tws):
                new_images.append(
                    ImageRecord(
                        id=len(new_images) + 1,
                        width=tw,
                        height=th,
                        file_name=f"{stem}__x{ox}_y{oy}" + (f".{suffix}" if dot else ""),
                    )
                )
            # one row of tile rects, shifted by float(-ox): 0.0, never -0.0
            rects = np.array([[ox, oy, ox + tw, oy + th] for ox, tw in zip(xs, tws)], dtype=float)
            # a box wholly above or below the row clips to nothing in each of its tiles
            band = np.flatnonzero((boxes[:, 3] > rects[0, 1]) & (boxes[:, 1] < rects[0, 3]))
            clipped, keep = clip_boxes(boxes[band], rects[:, None])
            shifts = np.array([[-ox, -oy] * 2 for ox in xs], dtype=float)
            extent = clipped[..., 2:] - clipped[..., :2]
            vis = extent[..., 0] * extent[..., 1] / box_area[rows[band]]
            keep &= ~(vis < min_visibility)
            t, n = np.nonzero(keep)
            picked.append(rows[band[n]])
            tile_ids.append(first_id + t)
            out_boxes.append(clipped[t, n] + shifts[t])
            visibility.append(vis[t, n])

    picked = np.concatenate(picked)
    columns = InstanceColumns(
        id=np.arange(1, len(picked) + 1),
        image_id=np.concatenate(tile_ids),
        category_id=c.category_id[picked],
        boxes=np.concatenate(out_boxes),
        area=c.area[picked] * np.concatenate(visibility),
        ignore=c.ignore[picked],
    )
    return Dataset(new_images, ds.categories, columns)


# Rows formatted and written at a time by export_dataset: the whole text
# at once would cost as much memory as the file.
_EXPORT_BLOCK_ROWS = 2048

# One entry of each array as json.dump(..., indent=2) lays it out.
_IMAGE_TEMPLATE = (
    '    {\n      "id": %s,\n      "width": %s,\n      "height": %s,\n'
    '      "file_name": %s\n    }'
)
_ANNOTATION_TEMPLATE = (
    '    {\n      "id": %d,\n      "image_id": %d,\n      "category_id": %d,\n'
    '      "bbox": [\n        %s,\n        %s,\n        %s,\n        %s\n      ],\n'
    '      "area": %s,\n      "iscrowd": %d\n    }'
)
_CATEGORY_TEMPLATE = '    {\n      "id": %s,\n      "name": %s\n    }'


def _record_blocks(template: str, records, fields: Sequence[str]):
    """Entries of ``records`` formatted with ``template``, one text per block.

    Each field goes through ``json.dumps``, so a record holds the text
    json gives its value whatever the value's type.
    """
    for start in range(0, len(records), _EXPORT_BLOCK_ROWS):
        yield ",\n".join([
            template % tuple(json.dumps(getattr(rec, f)) for f in fields)
            for rec in records[start:start + _EXPORT_BLOCK_ROWS]
        ])


def _annotation_blocks(c: InstanceColumns):
    """Annotation entries formatted from the columns, one text per block."""
    for start in range(0, len(c), _EXPORT_BLOCK_ROWS):
        rows = slice(start, start + _EXPORT_BLOCK_ROWS)
        b = c.boxes[rows]
        # each value is finite, and %s formats it with float.__repr__, as json does
        values = [b[:, 0], b[:, 1], b[:, 2] - b[:, 0], b[:, 3] - b[:, 1], c.area[rows]]
        yield ",\n".join([
            _ANNOTATION_TEMPLATE % row
            for row in zip(
                c.id[rows].tolist(),
                c.image_id[rows].tolist(),
                c.category_id[rows].tolist(),
                *(column.tolist() for column in values),
                c.ignore[rows].tolist(),
            )
        ])


def _write_array(fh, blocks) -> None:
    """A JSON array at the second indent level, from its blocks of entries."""
    opening = "[\n"
    for block in blocks:
        fh.write(opening)
        fh.write(block)
        opening = ",\n"
    fh.write("[]" if opening == "[\n" else "\n  ]")


def export_dataset(ds: Dataset, path) -> None:
    """Write the dataset back out in the COCO-style schema.

    The file holds exactly the text ``json.dump(coco, fh, indent=2)``
    writes, and a newline, for ``coco`` the dataset as a COCO dict: its
    images, its annotations with ``[x, y, w, h]`` boxes and ``iscrowd``,
    and its categories, in order. It is written from the records and
    columns with one template per entry kind, ``_EXPORT_BLOCK_ROWS``
    entries at a time, so no dict per annotation and no whole-file text
    is built.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n  "images": ')
        _write_array(fh, _record_blocks(
            _IMAGE_TEMPLATE, ds.images, ("id", "width", "height", "file_name")))
        fh.write(',\n  "annotations": ')
        _write_array(fh, _annotation_blocks(ds.columns))
        fh.write(',\n  "categories": ')
        _write_array(fh, _record_blocks(_CATEGORY_TEMPLATE, ds.categories, ("id", "name")))
        fh.write("\n}\n")
