"""Detection evaluation following the COCO protocol.

Average precision uses 101-point interpolation, 10 IoU thresholds
(0.50 to 0.95 in steps of 0.05), at most 100 detections per image, and
size slices small/medium/large cut at areas 32^2 and 96^2. Classes with
no ground truth in a slice carry the sentinel -1 and are excluded from
means. Matching is greedy by descending score with ties broken by the
detection's source index, so results are deterministic.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .annotations import Dataset, MEDIUM_AREA_MAX, SMALL_AREA_MAX, parse_xywh
from .errors import DanglingReference, MissingKey, ValidationError
from .geometry import BBox, from_xywh, iou

IOU_THRESHOLDS = tuple((50 + 5 * i) / 100.0 for i in range(10))
MAX_DETS_PER_IMAGE = 100


@dataclass(frozen=True)
class Detection:
    image_id: int
    category_id: int
    bbox: BBox
    score: float
    source_index: int

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValidationError(f"score must be in [0, 1], got {self.score}")


@dataclass(frozen=True)
class EvalResult:
    ap: float
    ap50: float
    ap75: float
    ap_small: float
    ap_medium: float
    ap_large: float
    per_class_ap: dict
    n_gt: int
    n_detections: int

    def to_dict(self) -> dict:
        return {
            "ap": self.ap,
            "ap50": self.ap50,
            "ap75": self.ap75,
            "ap_small": self.ap_small,
            "ap_medium": self.ap_medium,
            "ap_large": self.ap_large,
            "per_class_ap": {str(c): v for c, v in sorted(self.per_class_ap.items())},
            "n_gt": self.n_gt,
            "n_detections": self.n_detections,
        }


def load_detections(path) -> List[Detection]:
    """Read a results array of {image_id, category_id, bbox, score}."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise ValidationError("detections file must hold a JSON array")
    out = []
    for i, entry in enumerate(raw):
        for key in ("image_id", "category_id", "bbox", "score"):
            if key not in entry:
                raise MissingKey(f"detections[{i}].{key}")
        out.append(
            Detection(
                image_id=entry["image_id"],
                category_id=entry["category_id"],
                bbox=from_xywh(*parse_xywh(entry["bbox"], f"detections[{i}].bbox")),
                score=float(entry["score"]),
                source_index=i,
            )
        )
    return out


def greedy_match(
    det_boxes: Sequence[BBox],
    gt_boxes: Sequence[BBox],
    gt_ignore: Optional[Sequence[bool]],
    iou_thr: float,
) -> np.ndarray:
    """Flags per detection: 1 TP, 0 FP, -1 excluded by an ignore GT.

    Detections must already be sorted by descending score (ties by
    ascending source index). Each detection takes the unmatched
    non-ignore GT with the highest IoU at or above the threshold, ties
    to the lowest GT index. A detection with no such match that still
    reaches the threshold against some ignore-flagged GT is excluded
    from scoring; ignore GTs can absorb any number of detections.
    """
    if gt_ignore is None:
        gt_ignore = [False] * len(gt_boxes)
    flags = np.zeros(len(det_boxes), dtype=np.int8)
    matched = [False] * len(gt_boxes)
    for i, db in enumerate(det_boxes):
        best_j = -1
        best_v = -1.0
        for j, gb in enumerate(gt_boxes):
            if gt_ignore[j] or matched[j]:
                continue
            v = iou(db, gb)
            if v >= iou_thr and v > best_v:
                best_v = v
                best_j = j
        if best_j >= 0:
            flags[i] = 1
            matched[best_j] = True
            continue
        absorbed = any(
            gt_ignore[j] and iou(db, gb) >= iou_thr
            for j, gb in enumerate(gt_boxes)
        )
        flags[i] = -1 if absorbed else 0
    return flags


def average_precision(flags, scores, n_gt: int) -> float:
    """101-point interpolated AP; -1.0 when there is nothing to recall.

    ``flags`` holds 1 for TP and 0 for FP (excluded detections must not
    be passed). Detections are ranked by descending score, stable, so
    callers control tie order via input order.
    """
    if n_gt < 0:
        raise ValidationError(f"n_gt must be non-negative, got {n_gt}")
    if n_gt == 0:
        return -1.0
    flags = np.asarray(flags, dtype=bool)
    if flags.size == 0:
        return 0.0
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != flags.shape:
        raise ValidationError("flags and scores must align")
    order = np.argsort(-scores, kind="stable")
    flags = flags[order]
    tp = np.cumsum(flags)
    fp = np.cumsum(~flags)
    recall = tp / n_gt
    precision = tp / (tp + fp)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    grid = np.arange(101) / 100.0
    idx = np.searchsorted(recall, grid, side="left")
    inside = idx < len(recall)
    values = np.where(inside, envelope[np.minimum(idx, len(recall) - 1)], 0.0)
    return float(values.mean())


_SLICES = (
    ("all", 0.0, math.inf),
    ("small", 0.0, SMALL_AREA_MAX),
    ("medium", SMALL_AREA_MAX, MEDIUM_AREA_MAX),
    ("large", MEDIUM_AREA_MAX, math.inf),
)


def coco_map(
    dets: Sequence[Detection],
    ds: Dataset,
    max_dets: int = MAX_DETS_PER_IMAGE,
    iou_thresholds: Optional[Sequence[float]] = None,
) -> EvalResult:
    """Score detections against a dataset over thresholds, classes, slices.

    Size slices turn out-of-slice GTs into ignore entries and drop
    out-of-slice detections by their own box area before matching.
    """
    thresholds = (
        IOU_THRESHOLDS if iou_thresholds is None else tuple(float(t) for t in iou_thresholds)
    )
    if not thresholds:
        raise ValidationError("at least one IoU threshold required")
    if not all(math.isfinite(t) and 0.0 <= t <= 1.0 for t in thresholds):
        raise ValidationError(
            f"IoU thresholds must be finite and in [0, 1], got {list(thresholds)}"
        )
    for d in dets:
        if d.image_id not in ds.image_by_id:
            raise DanglingReference(f"detection {d.source_index}", "image", d.image_id)
        if d.category_id not in ds.category_by_id:
            raise DanglingReference(f"detection {d.source_index}", "category", d.category_id)

    by_image = defaultdict(list)
    for d in dets:
        by_image[d.image_id].append(d)
    det_groups = defaultdict(list)
    n_detections = 0
    for image_id in sorted(by_image):
        ranked = sorted(by_image[image_id], key=lambda d: (-d.score, d.source_index))
        for d in ranked[: max_dets if max_dets > 0 else None]:
            det_groups[(d.image_id, d.category_id)].append(d)
            n_detections += 1

    gt_groups = defaultdict(list)
    for inst in ds.instances:
        gt_groups[(inst.image_id, inst.category_id)].append(inst)
    class_ids = sorted(ds.category_by_id)
    image_ids = sorted(ds.image_by_id)

    def class_threshold_aps(cat: int, lo: float, hi: float):
        """Per-threshold AP list for one class and slice, or None if no GT."""
        n_gt = sum(
            1
            for image_id in image_ids
            for g in gt_groups.get((image_id, cat), [])
            if not g.ignore and lo <= g.area < hi
        )
        if n_gt == 0:
            return None
        aps = []
        for thr in thresholds:
            pooled = []
            for image_id in image_ids:
                dts = [
                    d
                    for d in det_groups.get((image_id, cat), [])
                    if lo <= d.bbox.area < hi
                ]
                gts = gt_groups.get((image_id, cat), [])
                gt_ignore = [g.ignore or not (lo <= g.area < hi) for g in gts]
                flags = greedy_match(
                    [d.bbox for d in dts], [g.bbox for g in gts], gt_ignore, thr
                )
                pooled.extend(
                    (d.score, d.source_index, int(f))
                    for d, f in zip(dts, flags)
                    if f >= 0
                )
            pooled.sort(key=lambda p: (-p[0], p[1]))
            aps.append(
                average_precision(
                    [p[2] for p in pooled], [p[0] for p in pooled], n_gt
                )
            )
        return aps

    def mean_or_sentinel(values):
        values = [v for v in values if v is not None]
        return float(np.mean(values)) if values else -1.0

    slice_ap = {}
    per_class_all = {}
    ap50 = ap75 = -1.0
    for name, lo, hi in _SLICES:
        per_class = {c: class_threshold_aps(c, lo, hi) for c in class_ids}
        slice_ap[name] = mean_or_sentinel(
            [float(np.mean(aps)) if aps is not None else None for aps in per_class.values()]
        )
        if name == "all":
            per_class_all = {
                c: (float(np.mean(aps)) if aps is not None else -1.0)
                for c, aps in per_class.items()
            }
            for target, attr_value in ((0.5, "ap50"), (0.75, "ap75")):
                if target in thresholds:
                    t_idx = thresholds.index(target)
                    value = mean_or_sentinel(
                        [
                            aps[t_idx] if aps is not None else None
                            for aps in per_class.values()
                        ]
                    )
                    if attr_value == "ap50":
                        ap50 = value
                    else:
                        ap75 = value

    n_gt_total = sum(1 for inst in ds.instances if not inst.ignore)
    return EvalResult(
        ap=slice_ap["all"],
        ap50=ap50,
        ap75=ap75,
        ap_small=slice_ap["small"],
        ap_medium=slice_ap["medium"],
        ap_large=slice_ap["large"],
        per_class_ap=per_class_all,
        n_gt=n_gt_total,
        n_detections=n_detections,
    )
