"""Seedable geometric box transforms: flip, resize, crop-and-resize.

Operates on box coordinates and image metadata only; pixel resampling is
out of scope. Every random choice a pipeline makes is captured in a
TransformRecord, and ``replay`` applies a record list deterministically,
so any augmented result can be reproduced exactly from its records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import ValidationError
from .geometry import BBox, clip

AUG1_SHORT_EDGES = (640, 672, 704, 736, 768, 800)
AUG2_SHORT_EDGES = (800, 832, 864, 896, 928, 960)
AUG3_CROP_SIZE = 400
AUG3_OUT_SIZE = 800
EVAL_RESIZE = (1600, 1600)


@dataclass(frozen=True)
class ImageGeom:
    width: int
    height: int

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValidationError(f"image size {self.width}x{self.height}")

    @property
    def bounds(self) -> BBox:
        return BBox(0.0, 0.0, float(self.width), float(self.height))


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


def hflip(boxes: Sequence[BBox], geom: ImageGeom) -> List[BBox]:
    """Mirror boxes across the vertical image midline: x -> width - x."""
    w = float(geom.width)
    return [BBox(w - b.x_max, b.y_min, w - b.x_min, b.y_max) for b in boxes]


def short_edge_resize(
    boxes: Sequence[BBox], geom: ImageGeom, target_short_edge: float
) -> Tuple[List[BBox], ImageGeom]:
    """Scale uniformly so the shorter image side becomes the target.

    New pixel dimensions are rounded to the nearest integer; boxes keep
    the exact scale factor and are clamped into the rounded bounds, which
    only matters when rounding shrinks a side by a fraction of a pixel.
    """
    if target_short_edge <= 0:
        raise ValidationError(f"target short edge {target_short_edge}")
    s = float(target_short_edge) / min(geom.width, geom.height)
    new_geom = ImageGeom(
        max(1, int(round(geom.width * s))), max(1, int(round(geom.height * s)))
    )
    out = []
    for b in boxes:
        sb = b.scaled(s, s)
        out.append(
            BBox(
                min(sb.x_min, float(new_geom.width)),
                min(sb.y_min, float(new_geom.height)),
                min(sb.x_max, float(new_geom.width)),
                min(sb.y_max, float(new_geom.height)),
            )
        )
    return out, new_geom


def _crop_resize_at(
    boxes: Sequence[BBox],
    geom: ImageGeom,
    crop_x: int,
    crop_y: int,
    crop_size: int,
    out_size: int,
    min_visibility: float,
) -> Tuple[List[BBox], ImageGeom]:
    window = BBox(
        float(crop_x), float(crop_y), float(crop_x + crop_size), float(crop_y + crop_size)
    )
    scale = float(out_size) / float(crop_size)
    out = []
    for b in boxes:
        clipped = clip(b, window)
        if clipped is None:
            continue
        if b.area > 0 and clipped.area / b.area < min_visibility:
            continue
        if clipped.width * scale < 1.0 or clipped.height * scale < 1.0:
            continue
        out.append(clipped.shifted(-crop_x, -crop_y).scaled(scale, scale))
    return out, ImageGeom(out_size, out_size)


def random_crop_resize(
    boxes: Sequence[BBox],
    geom: ImageGeom,
    crop_size: int,
    out_size: int,
    rng: np.random.Generator,
    min_visibility: float = 0.25,
) -> Tuple[List[BBox], ImageGeom, TransformRecord]:
    """Crop a random square window and rescale it to out_size.

    The origin is uniform over integer positions keeping the window
    inside the image (x sampled before y). Boxes are clipped to the
    window and dropped when the visible fraction falls below
    ``min_visibility`` or either side ends up under one output pixel.
    """
    if crop_size <= 0 or out_size <= 0:
        raise ValidationError("crop and output sizes must be positive")
    if crop_size > min(geom.width, geom.height):
        raise ValidationError(
            f"crop {crop_size} exceeds image {geom.width}x{geom.height}"
        )
    if not 0.0 < min_visibility <= 1.0:
        raise ValidationError(f"min_visibility {min_visibility}")
    crop_x = int(rng.integers(0, geom.width - crop_size + 1))
    crop_y = int(rng.integers(0, geom.height - crop_size + 1))
    out, new_geom = _crop_resize_at(
        boxes, geom, crop_x, crop_y, crop_size, out_size, min_visibility
    )
    record = TransformRecord(
        "crop_resize",
        {
            "crop_x": crop_x,
            "crop_y": crop_y,
            "crop_size": crop_size,
            "out_size": out_size,
            "min_visibility": min_visibility,
        },
    )
    return out, new_geom, record


def fixed_resize(
    boxes: Sequence[BBox], geom: ImageGeom, out_w: int = EVAL_RESIZE[0], out_h: int = EVAL_RESIZE[1]
) -> Tuple[List[BBox], ImageGeom]:
    """Per-axis scale to an exact output size (evaluation-side resize)."""
    if out_w <= 0 or out_h <= 0:
        raise ValidationError(f"output size {out_w}x{out_h}")
    sx = float(out_w) / geom.width
    sy = float(out_h) / geom.height
    return [b.scaled(sx, sy) for b in boxes], ImageGeom(out_w, out_h)


def _drop_subpixel(boxes: Sequence[BBox]) -> List[BBox]:
    """Pipeline outputs never carry boxes under one pixel per side."""
    return [b for b in boxes if b.width >= 1.0 and b.height >= 1.0]


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

    def apply(
        self, boxes: Sequence[BBox], geom: ImageGeom
    ) -> Tuple[List[BBox], ImageGeom, List[TransformRecord]]:
        records = []
        boxes = list(boxes)
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


def pipeline(aug_id: int, seed: int) -> AugmentationPipeline:
    return AugmentationPipeline(aug_id, seed)


def replay(
    records: Sequence[TransformRecord], boxes: Sequence[BBox], geom: ImageGeom
) -> Tuple[List[BBox], ImageGeom]:
    """Apply recorded transforms in order, no randomness involved.

    Mirrors pipeline behavior exactly, including the sub-pixel drop, so
    replaying an ``apply`` call's records reproduces its output.
    """
    boxes = list(boxes)
    for rec in records:
        if rec.kind == "flip":
            boxes = hflip(boxes, geom)
        elif rec.kind == "resize":
            boxes, geom = short_edge_resize(boxes, geom, rec.params["target_short_edge"])
        elif rec.kind == "crop_resize":
            p = rec.params
            boxes, geom = _crop_resize_at(
                boxes,
                geom,
                int(p["crop_x"]),
                int(p["crop_y"]),
                int(p["crop_size"]),
                int(p["out_size"]),
                float(p["min_visibility"]),
            )
        else:
            raise ValidationError(f"unknown transform kind {rec.kind!r}")
    return _drop_subpixel(boxes), geom
