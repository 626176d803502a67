"""Detection evaluation following the COCO protocol.

Average precision uses 101-point interpolation, 10 IoU thresholds
(0.50 to 0.95 in steps of 0.05), at most 100 detections per image, and
size slices small/medium/large cut at areas 32^2 and 96^2. Classes with
no ground truth in a slice carry the sentinel -1 and are excluded from
means. Matching is greedy by descending score with ties broken by the
detection's source index, so results are deterministic.

Detections load into read-only NumPy columns (:class:`DetectionColumns`)
that ``coco_map`` reads directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .annotations import (
    _FLOAT_MAX,
    _INT64,
    _NUMBER,
    Dataset,
    MEDIUM_AREA_MAX,
    SMALL_AREA_MAX,
    _gather,
    _head,
    _object_rule,
    _per_row,
    _range_flags,
    _type_flags,
    _xywh_checks,
    box_rules,
    check_references,
    checked,
    freeze_columns,
    group_rows,
    read_text,
)
from .errors import MissingKey, ValidationError
from .geometry import iou_matrix

IOU_THRESHOLDS = tuple((50 + 5 * i) / 100.0 for i in range(10))
MAX_DETS_PER_IMAGE = 100


_DETECTION_DTYPES = (
    ("image_id", np.int64),
    ("category_id", np.int64),
    ("source_index", np.int64),
    ("boxes", np.float64),
    ("score", np.float64),
)


def _column_checks(boxes: np.ndarray, score: np.ndarray):
    """The rules on a detection row: the box contract, then a score in [0, 1]."""
    yield from box_rules(boxes, "detection")
    yield ~((0.0 <= score) & (score <= 1.0)), lambda i: ValidationError(
        f"detection row {i} score must be in [0, 1], got {float(score[i])}"
    )


@dataclass(frozen=True, eq=False)
class DetectionColumns:
    """Detection fields as read-only NumPy columns, one row per detection.

    ``image_id``, ``category_id`` and ``source_index`` are int64,
    ``boxes`` is the (N, 4) float64 corner-form array and ``score``
    float64. Each field is copied into a read-only array of its dtype.
    Rows keep :func:`~detforge.annotations.box_rules` and a score in
    [0, 1]; the first bad row is named.
    """

    image_id: np.ndarray
    category_id: np.ndarray
    source_index: np.ndarray
    boxes: np.ndarray
    score: np.ndarray

    def __post_init__(self):
        freeze_columns(self, _DETECTION_DTYPES, "detection {name} is out of {dtype} range",
                       "detection column {name!r} has {rows} rows")
        checked(_column_checks(self.boxes, self.score))

    def __len__(self) -> int:
        return len(self.image_id)


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


def _detection_checks(raw: list):
    """The detection rules in the order they apply to one entry; returns the fields.

    Returns ``(image_ids, category_ids, boxes, scores)``, ``boxes`` the
    (N, 4) float64 corners.
    """
    n = yield _object_rule(raw, "detections")
    kinds = {"image_id": {int}, "category_id": {int}, "bbox": {list}, "score": _NUMBER}
    columns = {key: _gather(raw, n, key) for key in kinds}
    flags = {key: _type_flags(columns[key], kinds[key]) for key in kinds}
    for key in kinds:
        n = yield flags[key][0], lambda i, key=key: MissingKey(f"detections[{i}].{key}")
    for key, kind in (("image_id", "an integer"), ("category_id", "an integer"),
                      ("score", "a number")):
        n = yield flags[key][1], lambda i, key=key, kind=kind: ValidationError(
            f"detections[{i}].{key} must be {kind}, got {type(columns[key][i]).__name__}"
        )
    for key in ("image_id", "category_id"):
        n = yield _range_flags(_head(columns[key], n), _INT64.min, _INT64.max), (
            lambda i, key=key: ValidationError(f"detections[{i}].{key} is out of int64 range")
        )
    scores = columns["score"]
    # float() of an int past the float range overflows; a float one is checked below
    huge = _range_flags(_head(scores, n), -_FLOAT_MAX, _FLOAT_MAX)
    n = yield huge and [bad and type(s) is int for bad, s in zip(huge, scores)], lambda i: (
        ValidationError(f"detections[{i}].score is out of float range")
    )
    xywh, n = yield from _xywh_checks(columns["bbox"], flags["bbox"][1], n, "detections")
    n = yield _per_row(xywh[:, 2:] < 0, 2), lambda i: ValidationError(
        "detections[{}].bbox: negative extent: w={}, h={}".format(i, *xywh[i, 2:].tolist())
    )
    xywh = xywh[:n]
    with np.errstate(over="ignore"):
        boxes = np.concatenate([xywh[:, :2], xywh[:, :2] + xywh[:, 2:]], axis=1)
    n = yield _per_row(np.isinf(boxes)), lambda i: ValidationError(
        f"detections[{i}].bbox: x + w or y + h is out of float range"
    )
    with np.errstate(over="ignore"):  # the area of the finite corners, as coco_map takes it
        area = np.prod(boxes[:n, 2:] - boxes[:n, :2], axis=1)
    n = yield np.isinf(area), lambda i: ValidationError(
        f"detections[{i}].bbox: w * h is out of float range"
    )
    scores = np.array(_head(scores, n), dtype=np.float64)
    n = yield ~((0.0 <= scores) & (scores <= 1.0)), lambda i: ValidationError(
        f"detections[{i}].score: score must be in [0, 1], got {float(scores[i])}"
    )
    return columns["image_id"], columns["category_id"], boxes, scores


def load_detections(path, data: Optional[bytes] = None) -> DetectionColumns:
    """Read a results array of {image_id, category_id, bbox, score} into columns.

    Ids must be JSON integers that fit an int64, ``bbox`` four finite
    numbers ``[x, y, w, h]`` with ``w, h >= 0``, finite corners
    ``x + w``, ``y + h`` and a finite area ``w * h``, and ``score`` a
    number in [0, 1]. Row i's ``source_index`` is i. ``data``, when
    given, is the file's content already read by the caller.

    The rules run a whole column at a time (see
    :func:`~detforge.annotations.checked`); an invalid file fails on its
    first bad entry, with a message naming it.
    """
    raw = json.loads(read_text(path, data))
    if not isinstance(raw, list):
        raise ValidationError("detections file must hold a JSON array")
    image_ids, category_ids, boxes, scores = checked(_detection_checks(raw))
    return DetectionColumns(
        image_id=image_ids,
        category_id=category_ids,
        source_index=np.arange(len(raw)),
        boxes=boxes,
        score=scores,
    )


# the recall levels of 101-point interpolation
_RECALL_GRID = np.arange(101) / 100.0


def _ranked_ap(flags: np.ndarray, n_gt: int) -> float:
    """101-point interpolated AP of 1-D bool TP ``flags`` in rank order.

    ``n_gt`` is positive and at least the number of TPs. The k-th
    detection's precision is its TP count over its rank k, the TP plus
    FP count.
    """
    if flags.size == 0:
        return 0.0
    tp = np.cumsum(flags)
    recall = tp / n_gt
    precision = tp / np.arange(1, len(tp) + 1)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, _RECALL_GRID, side="left")
    inside = idx < len(recall)
    values = np.where(inside, envelope[np.minimum(idx, len(recall) - 1)], 0.0)
    return float(values.mean())


# Used only as a test oracle; stays while bench/trace_cli.py wraps it by name.
def average_precision(flags, scores, n_gt: int) -> float:
    """101-point interpolated AP; -1.0 when there is nothing to recall.

    ``flags`` is a 1-D run of 1 for TP and 0 for FP (excluded detections
    must not be passed), ``scores`` their finite scores and ``n_gt`` a
    non-negative integer no smaller than the TP count. Detections are
    ranked by descending score, stable, so callers control tie order via
    input order.
    """
    if isinstance(n_gt, bool) or not isinstance(n_gt, (int, np.integer)):
        raise ValidationError(f"n_gt must be an integer, got {n_gt!r}")
    if n_gt < 0:
        raise ValidationError(f"n_gt must be non-negative, got {n_gt}")
    flags, scores = np.asarray(flags), np.asarray(scores)
    if flags.ndim != 1 or flags.dtype.kind not in "biuf" or not np.isin(flags, (0, 1)).all():
        raise ValidationError("flags must be a 1-D run of 0s and 1s")
    if scores.shape != flags.shape:
        raise ValidationError("flags and scores must align")
    if scores.dtype.kind not in "biuf" or not np.isfinite(scores).all():
        raise ValidationError("scores must be finite numbers")
    if n_gt == 0:
        return -1.0
    flags = flags.astype(bool)
    n_tp = int(np.count_nonzero(flags))
    if n_tp > n_gt:
        raise ValidationError(f"{n_tp} true positives for n_gt={n_gt}")
    return _ranked_ap(flags[np.argsort(-scores.astype(np.float64), kind="stable")], n_gt)


_SLICES = (
    ("all", 0.0, math.inf),
    ("small", 0.0, SMALL_AREA_MAX),
    ("medium", SMALL_AREA_MAX, MEDIUM_AREA_MAX),
    ("large", MEDIUM_AREA_MAX, math.inf),
)


# Bounds on one lock-step chunk: the (image, class) groups it holds and
# the cells of its padded (groups, dets, GTs) IoU block. A group bigger
# than the cell bound is matched alone.
_CHUNK_GROUPS = 128
_CHUNK_CELLS = 1 << 16


def _chunks(n_dets: np.ndarray, n_gts: np.ndarray):
    """Group indices by descending det count, cut into bounded chunks."""
    chunk, g_max = [], 1
    for i in np.argsort(-n_dets, kind="stable").tolist():
        g = max(g_max, int(n_gts[i]))
        # the chunk's first group has its most dets
        if chunk and (
            len(chunk) == _CHUNK_GROUPS
            or (len(chunk) + 1) * int(n_dets[chunk[0]]) * g > _CHUNK_CELLS
        ):
            yield chunk
            chunk, g = [], max(int(n_gts[i]), 1)
        chunk.append(i)
        g_max = g
    if chunk:
        yield chunk


def _lockstep_flags(ious, n_dets, in_slice, live, absorbing, thresholds) -> np.ndarray:
    """Greedy-match flags for a chunk of groups, every slice and threshold.

    ``ious`` is the (N, D, G) IoU block of N groups sorted by descending
    det count ``n_dets``, each padded at the tail of both axes. Padded
    cells may hold any value: no step reads a padded det, and a padded
    GT is neither live nor absorbing. Per slice, ``in_slice`` (S, N, D)
    marks the dets that take part, ``live`` (S, N, G) the GTs a det may
    match and ``absorbing`` (S, N, G) the ignore GTs (crowd or out of
    the slice). Returns (S, T, N, D) flags:
    1 TP, 0 FP, -1 excluded (absorbed, out of the slice, or padding).

    Step k matches the k-th det of every group at once; each takes the
    unmatched live GT with the highest IoU at or above the threshold,
    ties to the lowest GT index, or failing that is absorbed if it
    reaches the threshold against an ignore GT. Only the groups with
    more than k dets, a prefix, take part in step k.

    What does not depend on the match state is computed once per chunk:
    a det is absorbed when its best IoU against an ignore GT reaches the
    threshold, so each flag starts at -1 (absorbed, out of the slice or
    padding) or 0, and a step only writes its hits. The one state is
    ``avail``, the live GTs not yet matched. A step visits only the
    (slice, group) lanes whose det is in the slice and reaches the
    lowest threshold against some live GT; no other lane can match.
    """
    n_slices, n_groups, d_max = in_slice.shape
    thr = np.asarray(thresholds, dtype=np.float64)
    in_slice = in_slice & (np.arange(d_max) < n_dets[:, None])
    # each det's best IoU per slice against its ignore and its live GTs;
    # over the leading axis of a (G, S, N, D) view the reduction runs as
    # elementwise maxima, much faster than over a short trailing G axis
    per_gt = np.broadcast_to(ious.transpose(2, 0, 1)[:, None],
                             (ious.shape[2], n_slices, n_groups, d_max))
    best_ignore = per_gt.max(axis=0, where=absorbing.transpose(2, 0, 1)[..., None], initial=-1.0)
    best_live = per_gt.max(axis=0, where=live.transpose(2, 0, 1)[..., None], initial=-1.0)
    excluded = best_ignore[:, None] >= thr[:, None, None]
    excluded |= ~in_slice[:, None]
    flags = np.where(excluded, np.int8(-1), np.int8(0))
    # the lanes that can match, in step order: (k, slice, group)
    step, lane_s, lane_g = np.nonzero((in_slice & (best_live >= thr.min())).transpose(2, 0, 1))
    bounds = np.searchsorted(step, np.arange(d_max + 1)).tolist()
    avail = np.repeat(live[:, None], len(thr), axis=1)
    for k in range(d_max):
        a, b = bounds[k], bounds[k + 1]
        if a == b:
            continue
        s, g = lane_s[a:b], lane_g[a:b]
        v = ious[g, k][:, None]
        cand = (v >= thr[:, None]) & avail[s, :, g]
        best = np.where(cand, v, -1.0).argmax(axis=-1)
        lane, t = np.nonzero(cand.any(axis=-1))
        s, g = s[lane], g[lane]
        avail[s, t, g, best[lane, t]] = False
        flags[s, t, g, k] = 1
    return flags


def _grouped_dets(dets: DetectionColumns, ds: Dataset, max_dets: int):
    """The kept detections as columns in (image, class) group order.

    Each image's dets are ranked by (-score, source index) and cut to the
    first ``max_dets`` (all when ``max_dets`` <= 0); a group keeps that
    rank order. Returns ``(group_size, class_id, source, score, boxes)``,
    ``group_size`` mapping each (image, class) key to its det count in
    key order.
    """
    n = len(dets)
    image_id, class_id, source, score = (
        dets.image_id, dets.category_id, dets.source_index, dets.score
    )
    check_references(ds, source, image_id, class_id, "detection")

    ranked = np.lexsort((source, -score, image_id))
    if max_dets > 0:
        # a det's rank in its image: its position less its image's first one
        ranked_image = image_id[ranked]
        ranked = ranked[np.arange(n) - np.searchsorted(ranked_image, ranked_image) < max_dets]
    groups = group_rows(image_id[ranked], class_id[ranked])
    rows = ranked[np.concatenate([np.zeros(0, dtype=np.intp), *groups.values()])]
    group_size = {key: len(group) for key, group in groups.items()}
    return group_size, class_id[rows], source[rows], score[rows], dets.boxes[rows]


def coco_map(
    dets: DetectionColumns,
    ds: Dataset,
    max_dets: int = MAX_DETS_PER_IMAGE,
    iou_thresholds: Optional[Sequence[float]] = None,
) -> EvalResult:
    """Score detections against a dataset over thresholds, classes, slices.

    Size slices turn out-of-slice GTs into ignore entries and drop
    out-of-slice detections by their own box area before matching. The
    (image, class) groups are matched a bounded chunk at a time: each
    chunk gets one padded IoU block, and the greedy match of every slice
    and threshold runs on it in lock step.
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
    group_size, class_id, source, scores, det_boxes = _grouped_dets(dets, ds, max_dets)
    gt = ds.columns
    gt_groups = group_rows(gt.image_id, gt.category_id)
    class_ids = sorted(ds.category_by_id)

    # Flat GT rows in the dets' (image, class) group order; only groups
    # with dets are matched.
    no_rows = np.zeros(0, dtype=np.intp)
    group_gts = [gt_groups.get(key, no_rows) for key in group_size]
    flat_gts = np.concatenate([no_rows, *group_gts])
    # one trailing box stands in for the GT padding of a chunk
    gt_boxes = np.concatenate([gt.boxes[flat_gts], np.zeros((1, 4))])
    n_det = np.array(list(group_size.values()), dtype=np.int64)
    n_gt = np.array([len(rows) for rows in group_gts], dtype=np.int64)
    det_start = np.concatenate(([0], np.cumsum(n_det)))
    gt_start = np.concatenate(([0], np.cumsum(n_gt)))

    lo = np.array([sl[1] for sl in _SLICES])[:, None]
    hi = np.array([sl[2] for sl in _SLICES])[:, None]
    det_area = (det_boxes[:, 2] - det_boxes[:, 0]) * (det_boxes[:, 3] - det_boxes[:, 1])
    det_in = (lo <= det_area) & (det_area < hi)
    gt_area = gt.area[flat_gts]
    gt_crowd = gt.ignore[flat_gts]
    # one trailing False column stands in for the GT padding of a chunk
    gt_live = np.zeros((len(_SLICES), len(flat_gts) + 1), dtype=bool)
    gt_live[:, :-1] = ~gt_crowd & (lo <= gt_area) & (gt_area < hi)

    flags = np.full((len(_SLICES), len(thresholds), len(scores)), -1, dtype=np.int8)
    for chunk in _chunks(n_det, n_gt):
        rows = np.array(chunk)
        d_max = int(n_det[rows].max())
        g_max = max(int(n_gt[rows].max()), 1)
        d_valid = np.arange(d_max) < n_det[rows, None]
        g_valid = np.arange(g_max) < n_gt[rows, None]
        d_idx = np.where(d_valid, det_start[rows, None] + np.arange(d_max), 0)
        g_idx = np.where(g_valid, gt_start[rows, None] + np.arange(g_max), len(flat_gts))
        chunk_flags = _lockstep_flags(
            iou_matrix(det_boxes[d_idx], gt_boxes[g_idx]),
            n_det[rows],
            det_in[:, d_idx] & d_valid,
            gt_live[:, g_idx],
            ~gt_live[:, g_idx] & g_valid,
            thresholds,
        )
        flags[:, :, d_idx[d_valid]] = chunk_flags[:, :, d_valid]

    # Pool per class in one (-score, source index) order; a stable sort
    # keeps image order, then rank order, between equal keys.
    order = np.lexsort((source, -scores))
    class_order = {c: order[class_id[order] == c] for c in class_ids}
    inst_live = ~gt.ignore & (lo <= gt.area) & (gt.area < hi)
    # per slice, each class with GT in it -> its AP at every threshold
    table = [{} for _ in _SLICES]
    for c, idx in class_order.items():
        in_class = gt.category_id == c
        for aps, live_s, class_flags in zip(table, inst_live, flags[:, :, idx]):
            n_gt_c = int(np.count_nonzero(live_s & in_class))
            if n_gt_c:
                # each row is ranked already; the kept flags are 0 or 1
                aps[c] = [_ranked_ap(f[f >= 0] == 1, n_gt_c) for f in class_flags]

    def mean(values) -> float:
        """The mean, or the sentinel -1.0 when there is nothing to average."""
        return float(np.mean(values)) if values else -1.0

    def ap_at(target: float) -> float:
        if target not in thresholds:
            return -1.0
        return mean([aps[thresholds.index(target)] for aps in table[0].values()])

    ap, ap_small, ap_medium, ap_large = (
        mean([mean(aps) for aps in per_class.values()]) for per_class in table
    )
    return EvalResult(
        ap=ap,
        ap50=ap_at(0.5),
        ap75=ap_at(0.75),
        ap_small=ap_small,
        ap_medium=ap_medium,
        ap_large=ap_large,
        per_class_ap={c: mean(table[0].get(c, [])) for c in class_ids},
        n_gt=int(np.count_nonzero(~gt.ignore)),
        n_detections=len(scores),
    )
