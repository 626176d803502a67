"""Axis-aligned box arithmetic.

Boxes live in continuous pixel coordinates with the origin at the top
left, corner convention: width = x_max - x_min with no +1. Degenerate
(zero-area) boxes are valid values; they have IoU 0 with everything,
including themselves, which avoids 0/0 and matches matching-stage
semantics downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in corner form: (x_min, y_min, x_max, y_max)."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValidationError(
                f"inverted box: ({self.x_min}, {self.y_min}, "
                f"{self.x_max}, {self.y_max})"
            )

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_tuple(self) -> Tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


# Used only as a test oracle; stays while bench/trace_cli.py wraps it by name.
def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes, by the rule of :func:`_iou_of`."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    if union == math.inf:  # two finite areas past the float range: halve every term, exactly
        inter, union = inter * 0.5, a.area * 0.5 + b.area * 0.5 - inter * 0.5
    if union <= 0:
        return 0.0
    return inter / union


# Used only as a test oracle; stays while bench/trace_cli.py wraps it by name.
def clip(b: BBox, bounds: BBox) -> Optional[BBox]:
    """Intersection rectangle of ``b`` with ``bounds``, or None if empty."""
    x_min = max(b.x_min, bounds.x_min)
    y_min = max(b.y_min, bounds.y_min)
    x_max = min(b.x_max, bounds.x_max)
    y_max = min(b.y_max, bounds.y_max)
    if x_max <= x_min or y_max <= y_min:
        return None
    return BBox(x_min, y_min, x_max, y_max)


def clip_boxes(boxes, windows) -> Tuple[np.ndarray, np.ndarray]:
    """Array form of :func:`clip` for (..., 4) boxes and windows that broadcast.

    Returns the intersections and the mask of those ``clip`` returns. The
    operand order is ``clip``'s (``max(v, lo)`` as ``np.where(lo > v, lo, v)``),
    so every float is the scalar one, signed zeros included.
    """
    b, w = np.asarray(boxes, dtype=np.float64), np.asarray(windows, dtype=np.float64)
    x0, y0 = (np.where(w[..., i] > b[..., i], w[..., i], b[..., i]) for i in (0, 1))
    x1, y1 = (np.where(w[..., i] < b[..., i], w[..., i], b[..., i]) for i in (2, 3))
    return np.stack([x0, y0, x1, y1], axis=-1), ~((x1 <= x0) | (y1 <= y0))


def iou_matrix(boxes1: np.ndarray, boxes2: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two corner-form box arrays.

    Parameters
    ----------
    boxes1 : (N, 4) array, or a stack (..., N, 4)
    boxes2 : (M, 4) array, or a stack (..., M, 4)

    Returns
    -------
    (N, M) array of IoU values, or (..., N, M) for stacks whose leading
    axes broadcast, by the rule of :func:`_iou_of`. Input of one or two
    dimensions is read as a flat run of boxes.

    Every box must keep ``annotations.box_rules``: finite corners in
    order and a finite ``w * h``, as every columns object checks. A box
    whose ``w * h`` overflows gets a ``RuntimeWarning`` and scores 0,
    even against itself.
    """
    boxes1 = np.asarray(boxes1, dtype=np.float64)
    boxes2 = np.asarray(boxes2, dtype=np.float64)
    if boxes1.ndim < 3:
        boxes1 = boxes1.reshape(-1, 4)
    if boxes2.ndim < 3:
        boxes2 = boxes2.reshape(-1, 4)
    area1 = (boxes1[..., 2] - boxes1[..., 0]) * (boxes1[..., 3] - boxes1[..., 1])
    area2 = (boxes2[..., 2] - boxes2[..., 0]) * (boxes2[..., 3] - boxes2[..., 1])
    # In-place steps keep at most three (..., N, M) arrays alive; each is
    # the same elementwise operation as its out-of-place form.
    ix = np.minimum(boxes1[..., :, None, 2], boxes2[..., None, :, 2])
    ix -= np.maximum(boxes1[..., :, None, 0], boxes2[..., None, :, 0])
    iy = np.minimum(boxes1[..., :, None, 3], boxes2[..., None, :, 3])
    iy -= np.maximum(boxes1[..., :, None, 1], boxes2[..., None, :, 1])
    inter = np.clip(ix, 0.0, None, out=ix)
    inter *= np.clip(iy, 0.0, None, out=iy)
    return _iou_of(inter, area1, area2, union=iy)


def _area_range(area: np.ndarray) -> Tuple[float, float]:
    """``(min, max)`` of ``area`` as Python floats; ``(inf, 0.0)`` when it is empty."""
    return float(area.min(initial=math.inf)), float(area.max(initial=0.0))


def _iou_of(inter: np.ndarray, area1: np.ndarray, area2: np.ndarray, union: np.ndarray,
            range2: Optional[Tuple[float, float]] = None):
    """``inter / (area1 + area2 - inter)`` in ``inter`` (..., N, M); ``union`` is scratch.

    A union that is not positive (NaN included) gives 0. Where two areas
    sum past the float range, every term is halved, which is exact, so
    identical huge boxes still score 1.0. With every area positive and
    the two largest summing to a finite float, neither rule is needed.
    ``range2`` is ``_area_range(area2)`` when the caller already has it.
    """
    a1, a2 = area1[..., :, None], area2[..., None, :]
    (low1, high1), (low2, high2) = _area_range(area1), range2 or _area_range(area2)
    # Python float addition overflows to inf without a warning
    if min(low1, low2) > 0 and math.isfinite(high1 + high2):
        np.add(a1, a2, out=union)
        union -= inter
        inter /= union
        return inter
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        overflow = np.isinf(np.add(a1, a2, out=union))
        np.add(a1 * 0.5, a2 * 0.5, out=union, where=overflow)
        np.multiply(inter, 0.5, out=inter, where=overflow)
        union -= inter
        positive = union > 0
        inter /= union
    inter[~positive] = 0.0
    return inter


class WhIouBlock:
    """Dimension-only IoU of changing (k, 2) extents against one fixed (n, 2) set.

    The fixed side's contiguous widths ``w``, heights ``h``, areas and
    the areas' ``(min, max)`` are taken once. Each call writes its (k, n)
    block into two buffers kept from call to call (grown when k grows),
    so the array it returns is overwritten by the next call. Every entry
    is ``inter / (area1 + area2 - inter)`` with ``inter = min(w1, w2) *
    min(h1, h2)``, by the rule of :func:`_iou_of`, the same operations in
    the same order whatever the buffers, so a block equals a fresh one
    bit for bit.

    Every extent must be finite and non-negative with a finite ``w * h``,
    as ``annotations.box_rules`` holds for a box's. An extent whose
    ``w * h`` overflows gets a ``RuntimeWarning`` and scores 0.
    """

    def __init__(self, wh):
        wh = np.asarray(wh, dtype=np.float64).reshape(-1, 2)
        self.w = np.ascontiguousarray(wh[:, 0])
        self.h = np.ascontiguousarray(wh[:, 1])
        self.area = self.w * self.h
        self._area_range = _area_range(self.area)
        self._inter = self._union = np.empty((0, len(wh)))  # grown by the first call

    def __call__(self, wh1) -> np.ndarray:
        wh1 = np.asarray(wh1, dtype=np.float64).reshape(-1, 2)
        k = len(wh1)
        if len(self._inter) < k:
            self._inter, self._union = np.empty((k, len(self.w))), np.empty((k, len(self.w)))
        inter, union = self._inter[:k], self._union[:k]
        w1, h1 = wh1[:, 0], wh1[:, 1]
        np.minimum(w1[:, None], self.w, out=inter)
        inter *= np.minimum(h1[:, None], self.h, out=union)
        return _iou_of(inter, w1 * h1, self.area, union, self._area_range)


def wh_iou_matrix(wh1: np.ndarray, wh2: np.ndarray) -> np.ndarray:
    """Pairwise dimension-only IoU between (N, 2) and (M, 2) extent arrays.

    One call of a :class:`WhIouBlock` on ``wh2``, under its precondition:
    an extent whose ``w * h`` overflows gets a ``RuntimeWarning`` and
    scores 0.
    """
    return WhIouBlock(wh2)(wh1)
