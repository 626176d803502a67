"""Seedable geometric box transforms: flip, resize, crop-and-resize.

Operates on box coordinates and image metadata only; pixel resampling is
out of scope. Every random choice a pipeline makes is captured in a
TransformRecord, and ``replay`` applies a record list deterministically,
so any augmented result can be reproduced exactly from its records.

Boxes are any (N, 4) corner array-like in and (N, 4) float64 out. The
arithmetic keeps the per-box scalar code's operand order (``min(v, hi)``
as ``np.where(hi < v, hi, v)``, a crop shift as ``x + float(-crop_x)``
before the scale), so each float, signed zeros included, is the scalar
one, and like a Python float it overflows to inf without a warning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .annotations import _INT64, check_count
from .errors import ValidationError
from .geometry import clip_boxes

AUG1_SHORT_EDGES = (640, 672, 704, 736, 768, 800)
AUG2_SHORT_EDGES = (800, 832, 864, 896, 928, 960)
AUG3_CROP_SIZE = 400
AUG3_OUT_SIZE = 800


@dataclass(frozen=True)
class ImageGeom:
    width: int
    height: int

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValidationError(f"image size {self.width}x{self.height}")


@dataclass(frozen=True)
class TransformRecord:
    """One applied transform with everything needed to replay it."""

    kind: str  # flip | resize | crop_resize
    params: dict

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}

    @staticmethod
    def from_dict(d: dict) -> "TransformRecord":
        return TransformRecord(kind=d["kind"], params=dict(d["params"]))


def _as_boxes(boxes) -> np.ndarray:
    """``boxes`` as an (N, 4) float64 corner array; an inverted row fails."""
    arr = np.asarray(boxes, dtype=np.float64)
    if arr.size == 0:
        arr = arr.reshape(0, 4)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValidationError(f"boxes must be an (N, 4) array, got shape {arr.shape}")
    bad = np.flatnonzero((arr[:, 2] < arr[:, 0]) | (arr[:, 3] < arr[:, 1]))
    if len(bad):
        raise ValidationError("box row {} is inverted: ({}, {}, {}, {})".format(
            bad[0], *arr[bad[0]].tolist()))
    return arr


def hflip(boxes, geom: ImageGeom) -> np.ndarray:
    """Mirror boxes across the vertical image midline: x -> width - x."""
    b = _as_boxes(boxes)
    w = float(geom.width)
    return np.stack([w - b[:, 2], b[:, 1], w - b[:, 0], b[:, 3]], axis=1)


def short_edge_resize(
    boxes, geom: ImageGeom, target_short_edge: float
) -> Tuple[np.ndarray, ImageGeom]:
    """Scale uniformly so the shorter image side becomes the target.

    New pixel dimensions are rounded to the nearest integer; boxes keep
    the exact scale factor and are clamped into the rounded bounds, which
    only matters when rounding shrinks a side by a fraction of a pixel.
    """
    b = _as_boxes(boxes)
    s = target_short_edge / min(geom.width, geom.height)
    if not 0 < s < np.inf:
        raise ValidationError(f"target short edge {target_short_edge}")
    new_geom = ImageGeom(max(1, int(round(geom.width * s))), max(1, int(round(geom.height * s))))
    hi = np.array([float(new_geom.width), float(new_geom.height)] * 2)
    with np.errstate(over="ignore"):
        scaled = b * s
    return np.where(hi < scaled, hi, scaled), new_geom


def _check_crop(geom, crop_x, crop_y, crop_size, out_size, min_visibility) -> None:
    """A crop is a positive square inside the image with min_visibility in (0, 1]."""
    if crop_size <= 0 or out_size <= 0:
        raise ValidationError(f"crop size {crop_size} and output size {out_size} must be positive")
    if not (0 <= crop_x <= geom.width - crop_size and 0 <= crop_y <= geom.height - crop_size):
        raise ValidationError(
            f"crop {crop_size} at ({crop_x}, {crop_y}) exceeds image {geom.width}x{geom.height}"
        )
    if not 0.0 < min_visibility <= 1.0:
        raise ValidationError(f"min_visibility {min_visibility}")


def _crop_resize_at(boxes, geom, crop_x, crop_y, crop_size, out_size, min_visibility):
    b = _as_boxes(boxes)
    window = [float(crop_x), float(crop_y), float(crop_x + crop_size), float(crop_y + crop_size)]
    scale = float(out_size) / float(crop_size)
    clipped, keep = clip_boxes(b, window)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        area = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
        w, h = (clipped[:, 2:] - clipped[:, :2]).T
        keep &= ~((area > 0) & (w * h / area < min_visibility))
        keep &= ~((w * scale < 1.0) | (h * scale < 1.0))
        shift = np.array([float(-crop_x), float(-crop_y)] * 2)
        out = (clipped[keep] + shift) * scale
    return out, ImageGeom(out_size, out_size)


def random_crop_resize(
    boxes, geom: ImageGeom, crop_size: int, out_size: int, rng: np.random.Generator,
    min_visibility: float = 0.25,
) -> Tuple[np.ndarray, ImageGeom, TransformRecord]:
    """Crop a random square window and rescale it to out_size.

    The origin is uniform over integer positions keeping the window
    inside the image (x sampled before y). Boxes are clipped to the
    window and dropped when the visible fraction falls below
    ``min_visibility`` or either side ends up under one output pixel.
    Origins are drawn as int64, so a side past that range fails.
    """
    boxes = _as_boxes(boxes)
    _check_crop(geom, 0, 0, crop_size, out_size, min_visibility)
    if max(geom.width, geom.height) - crop_size > _INT64.max:
        raise ValidationError(
            f"image {geom.width}x{geom.height} is too large to draw a crop origin in int64"
        )
    crop_x = int(rng.integers(0, geom.width - crop_size + 1))
    crop_y = int(rng.integers(0, geom.height - crop_size + 1))
    params = dict(crop_x=crop_x, crop_y=crop_y, crop_size=crop_size, out_size=out_size,
                  min_visibility=min_visibility)
    out, new_geom = _crop_resize_at(boxes, geom, **params)
    return out, new_geom, TransformRecord("crop_resize", params)


def _drop_subpixel(boxes: np.ndarray) -> np.ndarray:
    """Pipeline outputs never carry boxes under one pixel per side."""
    with np.errstate(over="ignore", invalid="ignore"):
        keep = (boxes[:, 2] - boxes[:, 0] >= 1.0) & (boxes[:, 3] - boxes[:, 1] >= 1.0)
    return boxes[keep]


class AugmentationPipeline:
    """One of the three augmentation recipes, driven by a private stream.

    Recipe 1: coin-flip mirror, then short edge resized to one of
    640..800 in steps of 32. Recipe 2: the same with 800..960. Recipe 3:
    coin-flip mirror, then a random 400 px crop rescaled to 800 px.
    Boxes that end below one pixel on either side are dropped from the
    output. Every call to ``apply`` consumes randomness from this
    instance's stream only; identical (seed, call sequence) gives
    identical output.
    """

    def __init__(self, aug_id: int, seed: int):
        if aug_id not in (1, 2, 3):
            raise ValidationError(f"unknown augmentation id {aug_id}")
        self.aug_id = aug_id
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def apply(self, boxes, geom: ImageGeom) -> Tuple[np.ndarray, ImageGeom, List[TransformRecord]]:
        records = []
        if self._rng.random() < 0.5:
            boxes = hflip(boxes, geom)
            records.append(TransformRecord("flip", {"width": geom.width}))
        if self.aug_id in (1, 2):
            edges = AUG1_SHORT_EDGES if self.aug_id == 1 else AUG2_SHORT_EDGES
            target = int(edges[int(self._rng.integers(0, len(edges)))])
            boxes, geom = short_edge_resize(boxes, geom, target)
            records.append(TransformRecord("resize", {"target_short_edge": target}))
        else:
            boxes, geom, record = random_crop_resize(
                boxes, geom, AUG3_CROP_SIZE, AUG3_OUT_SIZE, self._rng
            )
            records.append(record)
        return _drop_subpixel(boxes), geom, records


def replay(
    records: Sequence[TransformRecord], boxes, geom: ImageGeom
) -> Tuple[np.ndarray, ImageGeom]:
    """Apply recorded transforms in order, no randomness involved.

    Mirrors pipeline behavior exactly, including the sub-pixel drop, so
    replaying an ``apply`` call's records reproduces its output. Each
    parameter must have the type the sampler writes, so the value applied
    is the value the record holds: ``crop_x`` and ``crop_y`` are integers
    of at least 0, ``crop_size``, ``out_size``, ``target_short_edge`` and
    a flip's ``width`` integers of at least 1, and ``min_visibility`` a
    real number; none is a bool. Each record is also checked against the
    image it meets: a flip's ``width``, when given, must be that image's
    width, and a crop window must lie inside it with ``min_visibility``
    in (0, 1].
    """
    boxes = _as_boxes(boxes)
    for rec in records:
        p = rec.params
        if rec.kind == "flip":
            width = check_count("flip width", p["width"], 1) if "width" in p else geom.width
            if width != geom.width:
                raise ValidationError(f"flip width {width!r} is not the image width {geom.width}")
            boxes = hflip(boxes, geom)
        elif rec.kind == "resize":
            target = check_count("resize target_short_edge", p["target_short_edge"], 1)
            boxes, geom = short_edge_resize(boxes, geom, target)
        elif rec.kind == "crop_resize":
            lows = (("crop_x", 0), ("crop_y", 0), ("crop_size", 1), ("out_size", 1))
            crop = {k: check_count(f"crop_resize {k}", p[k], low) for k, low in lows}
            vis = p["min_visibility"]
            if isinstance(vis, bool) or not isinstance(vis, (int, float, np.integer, np.floating)):
                raise ValidationError(
                    f"crop_resize min_visibility must be a real number, got {vis!r}"
                )
            crop["min_visibility"] = float(vis)
            _check_crop(geom, **crop)
            boxes, geom = _crop_resize_at(boxes, geom, **crop)
        else:
            raise ValidationError(f"unknown transform kind {rec.kind!r}")
    return _drop_subpixel(boxes), geom
