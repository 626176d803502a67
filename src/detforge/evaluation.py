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
    group_rows,
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


# The bound on one lock-step chunk: the cells of its padded (groups,
# dets, GTs) overlap block. A group bigger than the bound is matched alone.
_CHUNK_CELLS = 1 << 16


def _chunks(n_dets: np.ndarray, n_gts: np.ndarray):
    """Group indices by descending det count, cut into bounded chunks."""
    chunk, g_max = [], 1
    for i in np.argsort(-n_dets, kind="stable").tolist():
        g = max(g_max, int(n_gts[i]))
        # the chunk's first group has its most dets
        if chunk and (len(chunk) + 1) * int(n_dets[chunk[0]]) * g > _CHUNK_CELLS:
            yield chunk
            chunk, g = [], max(int(n_gts[i]), 1)
        chunk.append(i)
        g_max = g
    if chunk:
        yield chunk


def _lockstep_flags(overlaps, n_dets, det_in, live, outside, crowd, thresholds) -> np.ndarray:
    """COCOeval's greedy-match flags for a chunk of groups, every slice and threshold.

    ``overlaps`` is the (N, D, G) block of N groups sorted by descending
    det count ``n_dets``, each padded at the tail of both axes: a det's
    IoU with a non-crowd GT, its IoA with a crowd one. Padded cells may
    hold any value: no step reads a padded det, and a padded GT is in
    none of the masks. ``det_in`` (S, N, D) marks the dets inside each
    slice by area; ``live`` (S, N, G) the non-crowd GTs inside it and
    ``outside`` (S, N, G) those outside it; ``crowd`` (N, G) the crowd
    GTs. Returns (S, T, N, D) flags: 1 TP, 0 FP, -1 ignored (matched to
    a GT outside the slice or to a crowd one, unmatched outside the
    slice, or padding).

    Step k matches the k-th det of every group at once, by COCOeval's
    ``evaluateImg`` at each threshold t, read as ``min(t, 1 - 1e-10)``:
    the det takes the unmatched live GT of highest overlap at or above
    t, or failing that the GT of highest overlap among the unmatched
    outside ones and every crowd one. Ties go to the last GT, as an
    equal value replaces COCOeval's match. A taken non-crowd GT is
    matched; a crowd one can take any number of dets.

    What does not depend on the match state is computed once per chunk:
    a det that reaches a crowd GT is ignored at any state, and so is an
    unmatched det outside the slice, so each flag starts at -1 or 0. The
    one state is ``avail``, the GTs still to take. A step visits only the
    groups whose det reaches the lowest threshold against some non-crowd
    GT, in every slice; no other det can change its flag or the state.
    """
    d_max, n_gt = det_in.shape[2], overlaps.shape[2]
    thr = np.minimum(np.asarray(thresholds, dtype=np.float64), 1 - 1e-10)
    d_valid = np.arange(d_max) < n_dets[:, None]
    # The GT axis leads: a reduction over a leading axis runs as
    # elementwise steps, much faster than over a short trailing one.
    per_gt = overlaps.transpose(2, 0, 1)
    live, outside = (m.transpose(2, 1, 0)[..., None] for m in (live, outside))
    crowd = crowd.T
    # each det's best overlap against the crowd and the non-crowd GTs
    solid = (live | outside).any(axis=(2, 3))
    best_crowd = per_gt.max(axis=0, where=crowd[:, :, None], initial=-1.0)
    best_solid = per_gt.max(axis=0, where=solid[:, :, None], initial=-1.0)
    flags = np.negative((best_crowd >= thr[:, None, None]) | ~(det_in & d_valid)[:, None],
                        dtype=np.int8)
    # the groups whose det can take a non-crowd GT, in step order
    step, lane_g = np.nonzero(((best_solid >= thr.min()) & d_valid).T)
    bounds = np.searchsorted(step, np.arange(d_max + 1)).tolist()
    # (GT, group, slice, threshold): the GTs still to take
    avail = np.repeat(live | outside | crowd[:, :, None, None], len(thr), axis=3)
    gt_index = np.arange(n_gt)[:, None]
    for k in range(d_max):
        a, b = bounds[k], bounds[k + 1]
        if a == b:
            continue
        g = lane_g[a:b]
        v = per_gt[:, g, k]
        # each GT's place by descending overlap, the last GT first among
        # equals: a det takes the GT of least place it can take
        order = np.lexsort((np.broadcast_to(-gt_index, v.shape), -v), axis=0)
        # int32 halves the step's (GT, group, slice, threshold) blocks
        place = order.argsort(axis=0).astype(np.int32)[..., None, None]
        cand = (v[..., None, None] >= thr) & avail[:, g]
        first_live = np.where(cand & live[:, g], place, n_gt).min(axis=0)
        hit = first_live < n_gt
        first = np.where(hit, first_live, np.where(cand, place, n_gt).min(axis=0))
        lane, s, t = np.nonzero(first < n_gt)
        best, hit, g = order[first[lane, s, t], lane], hit[lane, s, t], g[lane]
        avail[best, g, s, t] = crowd[best, g]  # a crowd GT stays open
        flags[s, t, g, k] = np.where(hit, np.int8(1), np.int8(-1))
    return flags


def _grouped_dets(dets: DetectionColumns, ds: Dataset, max_dets: int):
    """The kept detections as columns in (image, class) group order.

    Each (image, class) group's dets are ranked by (-score, row), as
    COCOeval's stable sort ranks them, and cut to the first ``max_dets``
    (all when ``max_dets`` is 0). Each kept box is clipped into its image
    by ``annotations._clamp_corners``, the rule the loader clamps GT
    boxes by. Returns ``(group_size, class_id, score, boxes)``,
    ``group_size`` mapping each (image, class) key to its det count in
    key order.
    """
    check_references(ds, np.arange(len(dets)), dets.image_id, dets.category_id, "detection")
    ranked = np.argsort(-dets.score, kind="stable")  # ties keep row order
    groups = group_rows(dets.image_id[ranked], dets.category_id[ranked])
    kept = [group[:max_dets or None] for group in groups.values()]
    rows = ranked[np.concatenate([np.zeros(0, dtype=np.intp), *kept])]
    group_size = {key: len(group) for key, group in zip(groups, kept)}
    limits = {im.id: (float(im.width), float(im.height)) * 2 for im in ds.images}
    hi = np.array([limits[image_id] for image_id, _ in group_size], dtype=np.float64)
    hi = np.repeat(hi.reshape(-1, 4), list(group_size.values()), axis=0)
    boxes = _clamp_corners(dets.boxes[rows], hi)
    return group_size, dets.category_id[rows], dets.score[rows], boxes


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
    class) groups are matched a bounded chunk at a time: each chunk gets
    one padded overlap block, and the greedy match of every slice and
    threshold runs on it in lock step.
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
    group_size, class_id, scores, det_boxes = _grouped_dets(dets, ds, max_dets)
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

    det_area = (det_boxes[:, 2] - det_boxes[:, 0]) * (det_boxes[:, 3] - det_boxes[:, 1])
    det_in = slice_masks(det_area, _SLICES)
    # per slice, the non-crowd GTs in it
    inst_live = ~gt.ignore & slice_masks(gt.area, _SLICES)
    # per slice, each flat GT live or outside, or a crowd one; one
    # trailing column of none stands in for the GT padding of a chunk
    live = np.zeros((len(_SLICES), len(flat_gts) + 1), dtype=bool)
    live[:, :-1] = inst_live[:, flat_gts]
    crowd = np.append(gt.ignore[flat_gts], False)
    outside = ~live & ~crowd
    outside[:, -1] = False

    flags = np.full((len(_SLICES), len(thresholds), len(scores)), -1, dtype=np.int8)
    for chunk in _chunks(n_det, n_gt):
        rows = np.array(chunk)
        d_max = int(n_det[rows].max())
        g_max = max(int(n_gt[rows].max()), 1)
        d_valid = np.arange(d_max) < n_det[rows, None]
        g_valid = np.arange(g_max) < n_gt[rows, None]
        d_idx = np.where(d_valid, det_start[rows, None] + np.arange(d_max), 0)
        g_idx = np.where(g_valid, gt_start[rows, None] + np.arange(g_max), len(flat_gts))
        chunk_dets, chunk_gts, chunk_crowd = det_boxes[d_idx], gt_boxes[g_idx], crowd[g_idx]
        overlaps = iou_matrix(chunk_dets, chunk_gts)
        # COCOeval scores a crowd GT by intersection over the det's area
        crowded = chunk_crowd.any(axis=1)
        overlaps[crowded] = np.where(chunk_crowd[crowded, None],
                                     ioa(chunk_dets[crowded], chunk_gts[crowded]), overlaps[crowded])
        chunk_flags = _lockstep_flags(
            overlaps,
            n_det[rows],
            det_in[:, d_idx],
            live[:, g_idx],
            outside[:, g_idx],
            chunk_crowd,
            thresholds,
        )
        flags[:, :, d_idx[d_valid]] = chunk_flags[:, :, d_valid]

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
