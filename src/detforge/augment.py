"""Seedable geometric box transforms: flip, resize, crop-and-resize.

Operates on box coordinates and image metadata only; pixel resampling is
out of scope. Every random choice a pipeline makes is captured in a
record, the JSON object ``{"kind": ..., "params": {...}}``, and
``replay`` applies a record list deterministically.
A pipeline draws its records and then replays them, so ``replay`` is the
only code that applies a transform, and any augmented result is
reproduced exactly from its records.

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

from .annotations import _INT64, check_count, check_length, check_real
from .errors import ValidationError
from .geometry import clip_boxes

AUG1_SHORT_EDGES = (640, 672, 704, 736, 768, 800)
AUG2_SHORT_EDGES = (800, 832, 864, 896, 928, 960)
AUG3_CROP_SIZE = 400
AUG3_OUT_SIZE = 800
AUG3_MIN_VISIBILITY = 0.25


@dataclass(frozen=True)
class ImageGeom:
    """An image's pixel size: two pixel lengths of at least 1, as ``ImageRecord`` holds."""

    width: int
    height: int

    def __post_init__(self):
        for name in ("width", "height"):
            object.__setattr__(self, name, check_length(f"image {name}", getattr(self, name), 1))


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
    if not 0 < s < np.inf or max(geom.width, geom.height) * s == np.inf:
        raise ValidationError(f"target short edge {target_short_edge}")
    new_geom = ImageGeom(max(1, int(round(geom.width * s))), max(1, int(round(geom.height * s))))
    hi = np.array([float(new_geom.width), float(new_geom.height)] * 2)
    with np.errstate(over="ignore"):
        scaled = b * s
    return np.where(hi < scaled, hi, scaled), new_geom


def _check_window(geom, crop_x, crop_y, crop_size) -> None:
    """A crop window is a square inside the image."""
    if not (0 <= crop_x <= geom.width - crop_size and 0 <= crop_y <= geom.height - crop_size):
        raise ValidationError(
            f"crop {crop_size} at ({crop_x}, {crop_y}) exceeds image {geom.width}x{geom.height}"
        )


def _crop_resize_at(b, geom, crop_x, crop_y, crop_size, out_size, min_visibility):
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


def _drop_subpixel(boxes: np.ndarray) -> np.ndarray:
    """Pipeline outputs never carry boxes under one pixel per side."""
    with np.errstate(over="ignore", invalid="ignore"):
        keep = (boxes[:, 2] - boxes[:, 0] >= 1.0) & (boxes[:, 3] - boxes[:, 1] >= 1.0)
    return boxes[keep]


class AugmentationPipeline:
    """One of the three augmentation recipes, driven by a private stream.

    Recipe 1: coin-flip mirror, then short edge resized to one of
    640..800 in steps of 32. Recipe 2: the same with 800..960. Recipe 3:
    coin-flip mirror, then a random 400 px crop rescaled to 800 px,
    keeping boxes with at least a quarter of their area in the window.
    Boxes that end below one pixel on either side are dropped from the
    output. Every call to ``apply`` consumes randomness from this
    instance's stream only; identical (seed, call sequence) gives
    identical output.
    """

    def __init__(self, aug_id: int, seed: int):
        aug_id = check_count("aug_id", aug_id, 1)
        seed = check_count("seed", seed, 0)
        if aug_id not in (1, 2, 3):
            raise ValidationError(f"unknown augmentation id {aug_id}")
        self.aug_id = aug_id
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def _draw(self, geom: ImageGeom) -> List[dict]:
        """The records of one call, drawn from the stream in a fixed order.

        The flip coin comes first, then the short-edge index, or the crop
        origin's x then y. The crop origin is uniform over the integer
        positions that keep the window inside the image; it is drawn as
        int64, so a side past that range fails before the draw.
        """
        records = []
        if self._rng.random() < 0.5:
            records.append({"kind": "flip", "params": {"width": geom.width}})
        if self.aug_id in (1, 2):
            edges = AUG1_SHORT_EDGES if self.aug_id == 1 else AUG2_SHORT_EDGES
            target = int(edges[int(self._rng.integers(0, len(edges)))])
            records.append({"kind": "resize", "params": {"target_short_edge": target}})
            return records
        _check_window(geom, 0, 0, AUG3_CROP_SIZE)
        if max(geom.width, geom.height) - AUG3_CROP_SIZE > _INT64.max:
            raise ValidationError(
                f"image {geom.width}x{geom.height} is too large to draw a crop origin in int64"
            )
        crop_x = int(self._rng.integers(0, geom.width - AUG3_CROP_SIZE + 1))
        crop_y = int(self._rng.integers(0, geom.height - AUG3_CROP_SIZE + 1))
        records.append({"kind": "crop_resize", "params": {
            "crop_x": crop_x, "crop_y": crop_y, "crop_size": AUG3_CROP_SIZE,
            "out_size": AUG3_OUT_SIZE, "min_visibility": AUG3_MIN_VISIBILITY}})
        return records

    def apply(self, boxes, geom: ImageGeom) -> Tuple[np.ndarray, ImageGeom, List[dict]]:
        """Draw this call's records and return ``replay``'s result on them, with the records."""
        boxes = _as_boxes(boxes)
        records = self._draw(geom)
        return (*replay(records, boxes, geom), records)


# Per record kind, its params in check order: a pixel length's least value, or None for a real.
RECORD_PARAMS = {
    "flip": {"width": 1},
    "resize": {"target_short_edge": 1},
    "crop_resize": {"crop_x": 0, "crop_y": 0, "crop_size": 1, "out_size": 1,
                    "min_visibility": None},
}


def _checked_params(i: int, rec) -> Tuple[str, dict]:
    """Record ``i``'s kind and params, checked against ``RECORD_PARAMS``."""
    if not (isinstance(rec, dict) and rec.keys() == {"kind", "params"}):
        raise ValidationError(
            f"record {i} must be an object of exactly kind and params, got {rec!r}")
    kind, p = rec["kind"], rec["params"]
    if not (isinstance(kind, str) and kind in RECORD_PARAMS):
        raise ValidationError(f"unknown transform kind {kind!r}")
    table = RECORD_PARAMS[kind]
    if not (isinstance(p, dict) and (p.keys() == table.keys() or kind == "flip" and not p)):
        raise ValidationError(f"{kind} params must be an object of exactly {', '.join(table)}"
                              f"{', or empty' if kind == 'flip' else ''}, got {p!r}")
    params = {}
    for key, low in table.items() if p else ():
        name, value = f"{kind} {key}", p[key]
        params[key] = check_real(name, value) if low is None else check_length(name, value, low)
    return kind, params


def replay(
    records: Sequence[dict], boxes, geom: ImageGeom
) -> Tuple[np.ndarray, ImageGeom]:
    """Apply recorded transforms in order, no randomness involved.

    ``AugmentationPipeline.apply`` returns this function's result on the
    records it draws, so replaying them reproduces its output. A record
    is an object of exactly ``kind`` and ``params``, ``params`` one of
    exactly its kind's ``RECORD_PARAMS`` keys (a flip's ``width`` is
    optional), each an integer of at least the table's value or, for
    ``min_visibility``, a real number, as the sampler writes them; none is
    a bool or past the float range. A flip's ``width`` must be the width
    of the image it meets, and a crop window must lie inside that image
    with ``min_visibility`` in (0, 1]. Any other record is a
    ``ValidationError`` naming its field.
    """
    boxes = _as_boxes(boxes)
    for i, rec in enumerate(records):
        kind, p = _checked_params(i, rec)
        if kind == "flip":
            if p.get("width", geom.width) != geom.width:
                raise ValidationError(
                    f"flip width {p['width']} is not the image width {geom.width}")
            boxes = hflip(boxes, geom)
        elif kind == "resize":
            boxes, geom = short_edge_resize(boxes, geom, p["target_short_edge"])
        else:
            _check_window(geom, p["crop_x"], p["crop_y"], p["crop_size"])
            if not 0.0 < p["min_visibility"] <= 1.0:
                raise ValidationError(f"min_visibility {p['min_visibility']}")
            boxes, geom = _crop_resize_at(boxes, geom, **p)
    return _drop_subpixel(boxes), geom
