"""Detection evaluation following the COCO protocol, by COCOeval's rules.

Average precision uses 101-point interpolation, 10 IoU thresholds
(0.50 to 0.95 in steps of 0.05), at most 100 detections per image and
class, and size slices small/medium/large cut at areas 32^2 and 96^2.
Classes with no ground truth in a slice carry the sentinel -1 and are
excluded from means. Matching is greedy by descending score, ties broken
by the detection's row, and each class pools its detections in
(-score, image id, row) order, as pycocotools' ``COCOeval`` ranks them,
so results are deterministic.

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
    _clamp_corners,
    _INT64,
    _NUMBER,
    Dataset,
    Report,
    SIZE_SLICES,
    _gather,
    _head,
    _object_rule,
    _per_row,
    _range_flags,
    _type_flags,
    _xywh_checks,
    box_rules,
    check_count,
    check_reals,
    check_references,
    checked,
    freeze_columns,
    missing_key,
    read_text,
    slice_masks,
)
from .errors import ValidationError
from .geometry import ioa, iou_matrix

# COCOeval's threshold and recall grids, built with its own np.linspace
# calls: 0.9 is 0.8999999999999999, and 10 recall levels are one ulp
# above k / 100, so a recall of exactly k / 100 does not reach them.
IOU_THRESHOLDS = tuple(
    np.linspace(0.5, 0.95, int(np.round((0.95 - 0.5) / 0.05)) + 1, endpoint=True).tolist()
)
_RECALL_GRID = np.linspace(0.0, 1.00, int(np.round((1.00 - 0.0) / 0.01)) + 1, endpoint=True)
MAX_DETS_PER_IMAGE = 100


_DETECTION_DTYPES = (
    ("image_id", np.int64),
    ("category_id", np.int64),
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

    ``image_id`` and ``category_id`` are int64, ``boxes`` is the (N, 4)
    float64 corner-form array and ``score`` float64. Each field is copied
    into a read-only array of its dtype. Rows keep
    :func:`~detforge.annotations.box_rules` and a score in [0, 1]; the
    first bad row is named.
    """

    image_id: np.ndarray
    category_id: np.ndarray
    boxes: np.ndarray
    score: np.ndarray

    def __post_init__(self):
        freeze_columns(self, _DETECTION_DTYPES, "detection {name} is out of {dtype} range",
                       "detection column {name!r} has {rows} rows")
        checked(_column_checks(self.boxes, self.score))

    def __len__(self) -> int:
        return len(self.image_id)


@dataclass(frozen=True)
class EvalResult(Report):
    ap: float
    ap50: float
    ap75: float
    ap_small: float
    ap_medium: float
    ap_large: float
    per_class_ap: dict
    n_gt: int
    n_detections: int


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
        n = yield flags[key][0], lambda i, key=key: missing_key(f"detections[{i}].{key}")
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
    number in [0, 1]. ``data``, when given, is the file's content already
    read by the caller.

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
        boxes=boxes,
        score=scores,
    )


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


_SLICES = (("all", 0.0, math.inf), *SIZE_SLICES)


# The bound on one batch of groups: the cells of its (det, GT) cross
# products. A group bigger than the bound is matched alone.
_BATCH_PAIRS = 1 << 14


def _batches(n_pairs: np.ndarray):
    """Runs ``(a, b)`` of consecutive groups of at most ``_BATCH_PAIRS`` pairs, or of one group."""
    ends = np.concatenate(([0], np.cumsum(n_pairs)))
    a = 0
    while a < len(n_pairs):
        b = max(int(np.searchsorted(ends, ends[a] + _BATCH_PAIRS, side="right")) - 1, a + 1)
        yield a, b
        a = b


def _ranges(counts: np.ndarray) -> np.ndarray:
    """``0 .. c - 1`` for each count ``c``, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _cross_pairs(n_dets: np.ndarray, n_gts: np.ndarray):
    """Every (det, GT) cell of each group, det-major: ``(det, gt, rank)`` indices.

    Groups hold ``n_dets`` dets and ``n_gts`` GTs, laid out one group
    after another; ``rank`` is the det's place in its group.
    """
    cells = n_dets * n_gts
    group = np.repeat(np.arange(len(cells)), cells)
    rank, column = np.divmod(_ranges(cells), n_gts[group])
    det = (np.cumsum(n_dets) - n_dets)[group] + rank
    return det, (np.cumsum(n_gts) - n_gts)[group] + column, rank


def _pair_flags(det, gt, rank, overlap, det_in, live, crowd, thresholds) -> np.ndarray:
    """COCOeval's greedy-match flags for a batch of groups, every slice and threshold.

    Each candidate pair is a ``det`` index, a ``gt`` index, the det's
    ``rank`` in its (image, class) group and their ``overlap``: the IoU
    with a non-crowd GT, the IoA with a crowd one. A GT's pairs all come
    from the dets of its own group, and a group's dets have distinct
    ranks. ``det_in`` (S, dets) marks the dets inside each slice by area,
    ``live`` (S, GTs) the non-crowd GTs inside it and ``crowd`` (GTs,)
    the crowd GTs; every other GT lies outside the slice. Returns
    (S, T, dets) flags: 1 TP, 0 FP, -1 ignored (matched to a GT outside
    the slice or to a crowd one, or unmatched outside the slice).

    Step k matches the rank-k det of every group at once, by COCOeval's
    ``evaluateImg`` at each threshold t, read as ``min(t, 1 - 1e-10)``:
    the det takes the open live GT of highest overlap at or above t, or
    failing that the GT of highest overlap among the open outside ones
    and every crowd one. Ties go to the last GT, as an equal value
    replaces COCOeval's match. A taken non-crowd GT closes; a crowd one
    can take any number of dets. Only the pairs that reach the lowest
    threshold are stepped: no other pair is ever taken, so an unstepped
    det keeps its unmatched flag, 0 inside the slice and -1 outside.
    """
    thr = np.minimum(np.asarray(thresholds, dtype=np.float64), 1 - 1e-10)
    keep = overlap >= thr.min()
    # by step and det, each det's pairs by descending overlap and the last
    # GT first among equals: a det takes the first pair it can take
    order = np.lexsort((-gt[keep], -overlap[keep], det[keep], rank[keep]))
    det, gt, rank, overlap = (x[keep][order] for x in (det, gt, rank, overlap))
    n = len(det)
    # each pair's (slice) preference: its place, and after every live
    # pair of its det when its GT is not live there
    pref = np.arange(n)[:, None, None] + n * ~live[:, gt].T[:, :, None]
    reach = overlap[:, None, None] >= thr
    solid = ~crowd[gt][:, None, None]
    # (det, slice, threshold) flags, and (GT, slice, threshold): the GTs still open
    flags = np.repeat(np.negative(~det_in.T, dtype=np.int8)[:, :, None], len(thr), axis=2)
    avail = np.ones((len(crowd), len(det_in), len(thr)), dtype=bool)
    # the bounds of each det's pairs, and where each step's dets start
    seg = np.append(np.flatnonzero(np.diff(det, prepend=-1)), n)
    steps = np.append(np.searchsorted(seg, np.flatnonzero(np.diff(rank, prepend=-1))), len(seg) - 1)
    for i, j in zip(steps[:-1].tolist(), steps[1:].tolist()):
        a, b = seg[i], seg[j]
        # a step's pairs hold distinct GTs: one det per group
        rows, dets = gt[a:b], det[seg[i:j]]
        still = avail[rows]
        cand = reach[a:b] & still
        key = np.where(cand, pref[a:b], 2 * n)
        first = np.minimum.reduceat(key, seg[i:j] - a, axis=0)
        taken = cand & (key == np.repeat(first, np.diff(seg[i:j + 1]), axis=0))
        avail[rows] = still & ~(taken & solid[a:b])  # a crowd GT stays open
        flags[dets] = np.where(first < n, 1, np.where(first < 2 * n, -1, flags[dets]))
    return flags.transpose(1, 2, 0)


def _group_keys(ds: Dataset, image_id: np.ndarray, category_id: np.ndarray) -> np.ndarray:
    """Each row's (image, class) group as one int64, ascending by image id, then class id.

    Every id must be the dataset's. ``key // len(ds.categories)`` is the
    image's place in id order.
    """
    image_ids = np.sort(np.array([im.id for im in ds.images], dtype=np.int64))
    class_ids = np.sort(np.array([c.id for c in ds.categories], dtype=np.int64))
    return (np.searchsorted(image_ids, image_id) * len(class_ids)
            + np.searchsorted(class_ids, category_id))


def _grouped_dets(dets: DetectionColumns, ds: Dataset, max_dets: int):
    """The kept detections as columns in (image, class) group order.

    Groups run by image id, then class id. Each group's dets are ranked
    by (-score, row), as COCOeval's stable sort ranks them, and cut to
    the first ``max_dets`` (all when ``max_dets`` is 0). Each kept box is
    clipped into its image by ``annotations._clamp_corners``, the rule
    the loader clamps GT boxes by. Returns ``(groups, n_dets, class_id,
    score, boxes)``: each group's ``_group_keys`` key and kept det count,
    then the kept dets' columns.
    """
    check_references(ds, np.arange(len(dets)), dets.image_id, dets.category_id, "detection")
    key = _group_keys(ds, dets.image_id, dets.category_id)
    ranked = np.lexsort((-dets.score, key))  # score ties keep row order
    groups, n_dets = np.unique(key, return_counts=True)
    if max_dets:
        cap = min(max_dets, len(dets))  # a cap past int64 cuts nothing
        ranked = ranked[_ranges(n_dets) < cap]
        n_dets = np.minimum(n_dets, cap)
    images = sorted(ds.images, key=lambda im: im.id)
    sides = np.array([(im.width, im.height) * 2 for im in images], dtype=np.float64).reshape(-1, 4)
    hi = sides[key[ranked] // len(ds.categories)]
    boxes = _clamp_corners(dets.boxes[ranked], hi)
    return groups, n_dets, dets.category_id[ranked], dets.score[ranked], boxes


def coco_map(
    dets: DetectionColumns,
    ds: Dataset,
    max_dets: int = MAX_DETS_PER_IMAGE,
    iou_thresholds: Optional[Sequence[float]] = None,
) -> EvalResult:
    """Score detections against a dataset over thresholds, classes, slices.

    ``max_dets`` caps each (image, class) group's detections, the
    highest scores kept: a non-bool integer of at least 0, where 0 means
    no cap. ``iou_thresholds``, the COCO ten when None, are a list of
    non-bool real numbers in [0, 1]. Anything else is a one-line
    ``ValidationError``.

    Scoring follows COCOeval's ``evaluateImg`` and ``accumulate``. Each
    detection is clipped into its image, as its GTs were at load, and
    then matched in every size slice: a GT outside the slice, or a crowd
    GT scored by intersection over the det's area, turns the det that
    takes it into an ignored one, and only an unmatched det outside the
    slice, by its box area, is ignored for lying there. The (image,
    class) groups are matched a batch at a time, bounded by the
    (det, GT) pairs of their cross products: one stacked overlap call
    scores a batch's pairs, and the greedy match of every slice and
    threshold steps over detection rank on the pairs that reach the
    lowest threshold.
    """
    max_dets = check_count("max_dets", max_dets, 0)
    thresholds = (IOU_THRESHOLDS if iou_thresholds is None
                  else check_reals("iou_thresholds", iou_thresholds))
    if not thresholds:
        raise ValidationError("at least one IoU threshold required")
    if not all(math.isfinite(t) and 0.0 <= t <= 1.0 for t in thresholds):
        raise ValidationError(
            f"IoU thresholds must be finite and in [0, 1], got {list(thresholds)}"
        )
    groups, n_det, class_id, scores, det_boxes = _grouped_dets(dets, ds, max_dets)
    gt = ds.columns
    class_ids = sorted(ds.category_by_id)

    # Flat GT rows in the dets' (image, class) group order, each group in
    # row order; only groups with dets are matched.
    gt_keys = _group_keys(ds, gt.image_id, gt.category_id)
    gt_rows = np.argsort(gt_keys, kind="stable")
    gt_keys = gt_keys[gt_rows]
    first = np.searchsorted(gt_keys, groups)
    n_gt = np.searchsorted(gt_keys, groups, side="right") - first
    flat_gts = gt_rows[np.repeat(first, n_gt) + _ranges(n_gt)]
    gt_boxes, crowd = gt.boxes[flat_gts], gt.ignore[flat_gts]
    det_start = np.concatenate(([0], np.cumsum(n_det)))
    gt_start = np.concatenate(([0], np.cumsum(n_gt)))

    det_area = (det_boxes[:, 2] - det_boxes[:, 0]) * (det_boxes[:, 3] - det_boxes[:, 1])
    det_in = slice_masks(det_area, _SLICES)
    # per slice, the non-crowd GTs in it
    inst_live = ~gt.ignore & slice_masks(gt.area, _SLICES)
    live = inst_live[:, flat_gts]

    flags = np.empty((len(_SLICES), len(thresholds), len(scores)), dtype=np.int8)
    for a, b in _batches(n_det * n_gt):
        d0, d1, g0, g1 = det_start[a], det_start[b], gt_start[a], gt_start[b]
        det, gt_col, rank = _cross_pairs(n_det[a:b], n_gt[a:b])
        pair_dets, pair_gts = det_boxes[d0 + det, None], gt_boxes[g0 + gt_col, None]
        overlap = iou_matrix(pair_dets, pair_gts)[:, 0, 0]
        # COCOeval scores a crowd GT by intersection over the det's area
        on_crowd = crowd[g0 + gt_col]
        overlap[on_crowd] = ioa(pair_dets[on_crowd], pair_gts[on_crowd])[:, 0, 0]
        flags[:, :, d0:d1] = _pair_flags(det, gt_col, rank, overlap, det_in[:, d0:d1],
                                         live[:, g0:g1], crowd[g0:g1], thresholds)

    # Pool per class in (-score, image id, row) order, as COCOeval's
    # per-image lists, joined in image id order and stable-sorted, pool
    # them: the dets run in (image, class) group order, each group in
    # (-score, row) order, and a stable sort keeps that between ties.
    order = np.argsort(-scores, kind="stable")
    class_order = {c: order[class_id[order] == c] for c in class_ids}
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
