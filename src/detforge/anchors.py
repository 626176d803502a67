"""Anchor grids, IoU k-means for anchor sizing, and match simulation.

Anchors are placed on a feature pyramid: level l has a pixel stride and
a feature-map size, and every cell gets one anchor per (size, ratio,
effective angle) combination. Rotation is restricted to multiples of 90
degrees, which reduces to an exact width/height swap, so +90 and -90
collapse to the same rectangle and are deduplicated.

``cluster_anchor_sizes`` runs k-means over ground-truth (w, h) pairs
with distance 1 - IoU, the standard way to pick anchor sizes from data
without training. ``match_anchors`` scores an anchor configuration by
simulating threshold matching against annotated instance columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .annotations import InstanceColumns, group_rows
from .errors import TooFewBoxes, ValidationError
from .geometry import BoxWH, iou_matrix, wh_iou_matrix


@dataclass(frozen=True)
class AnchorSpec:
    """Anchor layout: sizes, h/w ratios, angle grid, strides, cell offset.

    With ``shared_sizes`` every level gets the full size list; otherwise
    sizes pair with strides one to one. ``offset`` is the fraction of a
    stride added to the cell origin to get the anchor center.
    """

    sizes: tuple = (16.0, 32.0, 64.0, 128.0, 256.0)
    aspect_ratios: tuple = (0.5, 1.0, 2.0)
    angles: tuple = (-90.0, 0.0, 90.0)
    strides: tuple = (4, 8, 16, 32, 64)
    offset: float = 0.5
    shared_sizes: bool = False

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(float(s) for s in self.sizes))
        object.__setattr__(self, "aspect_ratios", tuple(float(r) for r in self.aspect_ratios))
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))
        object.__setattr__(self, "strides", tuple(int(s) for s in self.strides))
        if not self.sizes or any(s <= 0 for s in self.sizes):
            raise ValidationError("sizes must be positive")
        if not self.aspect_ratios or any(r <= 0 for r in self.aspect_ratios):
            raise ValidationError("aspect ratios must be positive")
        if not self.strides or any(s <= 0 for s in self.strides):
            raise ValidationError("strides must be positive")
        if any(a % 90.0 != 0 for a in self.angles):
            raise ValidationError("angles must be multiples of 90 degrees")
        if not self.angles:
            raise ValidationError("at least one angle required")
        if not 0.0 <= self.offset < 1.0:
            raise ValidationError(f"offset must be in [0, 1), got {self.offset}")
        if not self.shared_sizes and len(self.sizes) != len(self.strides):
            raise ValidationError(
                f"{len(self.sizes)} sizes for {len(self.strides)} levels; "
                "set shared_sizes to reuse one list everywhere"
            )

    @property
    def effective_angles(self) -> tuple:
        """Angles folded mod 180 and deduplicated, sorted ascending."""
        return tuple(sorted({a % 180.0 for a in self.angles}))

    def sizes_at(self, level: int) -> tuple:
        return self.sizes if self.shared_sizes else (self.sizes[level],)


@dataclass(frozen=True, eq=False)
class LevelAnchors:
    """The anchors of one pyramid level: rows ``start`` onward of the set.

    Rows are laid out cell by cell, row-major over the feature map (y
    outer, x inner), with the same ``n_combo`` combos in the same order
    in every cell; the anchor of combo c in cell (i, j) is level row
    ``(j * fmap_w + i) * n_combo + c`` and is centred at the centre of
    cell (0, 0) plus ``(i, j) * stride``. Combos run size-major, then
    ratio, then angle: with R aspect ratios and E effective angles,
    combo c has size ``sizes_at(level)[c // (R * E)]``, ratio
    ``aspect_ratios[c // E % R]`` and angle ``effective_angles[c % E]``.
    ``match_anchors`` relies on this layout to find the anchors near a
    box without scanning them all.
    """

    level: int
    stride: int
    fmap_w: int
    fmap_h: int
    start: int  # first row in AnchorSet.all_boxes()
    n_combo: int  # anchors per cell
    boxes: np.ndarray  # (count, 4) corner form, a read-only view

    @property
    def count(self) -> int:
        return self.fmap_w * self.fmap_h * self.n_combo


@dataclass(frozen=True, eq=False)
class AnchorSet:
    """Every anchor in one read-only (A, 4) corner array, level by level."""

    levels: tuple
    boxes: np.ndarray

    @property
    def total(self) -> int:
        return self.boxes.shape[0]

    def all_boxes(self) -> np.ndarray:
        return self.boxes


def generate_anchors(spec: AnchorSpec, fmap_dims: Sequence) -> AnchorSet:
    """Place anchors at every feature-map cell of every level.

    ``fmap_dims`` is one (width, height) pair per stride. The anchor for
    size s and ratio r has h = s*sqrt(r), w = s/sqrt(r), so its area is
    s^2 and h/w = r; a 90-degree angle swaps the two. Rows follow the
    layout ``LevelAnchors`` documents, and all levels share one array.
    """
    if len(fmap_dims) != len(spec.strides):
        raise ValidationError(
            f"{len(fmap_dims)} feature maps for {len(spec.strides)} strides"
        )
    dims = [(int(fw), int(fh)) for fw, fh in fmap_dims]
    for level, (fw, fh) in enumerate(dims):
        if fw <= 0 or fh <= 0:
            raise ValidationError(f"feature map {fw}x{fh} at level {level}")
    eff_angles = spec.effective_angles
    halves = [  # per level, the (n_combo, 2) half-extents of one cell's anchors
        np.array([
            (s / np.sqrt(r), s * np.sqrt(r)) if a == 0.0 else (s * np.sqrt(r), s / np.sqrt(r))
            for s in spec.sizes_at(level)
            for r in spec.aspect_ratios
            for a in eff_angles
        ]) / 2.0
        for level in range(len(dims))
    ]
    boxes = np.empty((sum(fw * fh * len(h) for (fw, fh), h in zip(dims, halves)), 4))
    frozen = boxes.view()  # the level views; the fill below writes through ``boxes``
    frozen.flags.writeable = False
    levels = []
    start = 0
    for level, (stride, (fw, fh), half) in enumerate(zip(spec.strides, dims, halves)):
        stop = start + fw * fh * len(half)
        grid = boxes[start:stop].reshape(fh, fw, len(half), 4)
        cx = ((np.arange(fw) + spec.offset) * stride)[None, :, None]
        cy = ((np.arange(fh) + spec.offset) * stride)[:, None, None]
        grid[..., 0] = cx - half[:, 0]
        grid[..., 1] = cy - half[:, 1]
        grid[..., 2] = cx + half[:, 0]
        grid[..., 3] = cy + half[:, 1]
        levels.append(LevelAnchors(level=level, stride=stride, fmap_w=fw, fmap_h=fh, start=start,
                                   n_combo=len(half), boxes=frozen[start:stop]))
        start = stop
    boxes.flags.writeable = False
    return AnchorSet(levels=tuple(levels), boxes=boxes)


@dataclass(frozen=True, eq=False)
class ClusterResult:
    """Outcome of one IoU k-means clustering run."""

    k: int
    centroids: tuple  # BoxWH, sorted by area ascending
    assignments: np.ndarray
    mean_iou: float
    iterations: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "centroids": [[c.w, c.h] for c in self.centroids],
            "assignments": [int(a) for a in self.assignments],
            "mean_iou": self.mean_iou,
            "iterations": self.iterations,
            "seed": self.seed,
        }


def _as_wh_array(boxes) -> np.ndarray:
    if isinstance(boxes, np.ndarray):
        wh = np.asarray(boxes, dtype=np.float64)
    else:
        boxes = list(boxes)
        if boxes and isinstance(boxes[0], BoxWH):
            wh = np.array([[b.w, b.h] for b in boxes], dtype=np.float64)
        else:
            wh = np.asarray(boxes, dtype=np.float64)
    if wh.ndim != 2 or wh.shape[1] != 2:
        raise ValidationError(f"expected (n, 2) width/height data, got {wh.shape}")
    if not np.isfinite(wh).all():
        raise ValidationError("widths and heights must be finite")
    if wh.size and wh.min() <= 0:
        raise ValidationError("widths and heights must be positive")
    return wh


def _plus_plus_init(wh: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ style seeding with weight proportional to d = 1 - IoU."""
    n = wh.shape[0]
    chosen = [int(rng.integers(n))]
    best_iou = wh_iou_matrix(wh, wh[chosen[-1]][None, :])[:, 0]
    for _ in range(k - 1):
        d = 1.0 - best_iou
        total = d.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d / total))
        else:
            idx = int(rng.integers(n))
        chosen.append(idx)
        best_iou = np.maximum(best_iou, wh_iou_matrix(wh, wh[idx][None, :])[:, 0])
    return wh[chosen].copy()


def _lloyd(wh: np.ndarray, centroids: np.ndarray, max_iters: int):
    """Assignment/update loop; returns (centroids, assignments, iterations)."""
    k = centroids.shape[0]
    assignment = np.argmax(wh_iou_matrix(wh, centroids), axis=1)
    iterations = 1
    for _ in range(max_iters):
        # bincount sums each cluster in box order, as the row-wise mean does
        counts = np.bincount(assignment, minlength=k)
        occupied = counts > 0
        for j in (0, 1):
            sums = np.bincount(assignment, weights=wh[:, j], minlength=k)
            centroids[occupied, j] = sums[occupied] / counts[occupied]
        # re-seed empty clusters to the currently worst-fit boxes
        iou = wh_iou_matrix(wh, centroids)
        if not occupied.all():
            dist = 1.0 - iou[np.arange(len(wh)), assignment]
            for c in np.flatnonzero(~occupied):
                worst = int(np.argmax(dist))
                centroids[c] = wh[worst]
                dist[worst] = -1.0
            iou = wh_iou_matrix(wh, centroids)
        new_assignment = np.argmax(iou, axis=1)
        iterations += 1
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
    return centroids, assignment, iterations


def cluster_anchor_sizes(
    boxes,
    k: int,
    seed: int = 0,
    max_iters: int = 100,
    restarts: int = 10,
    init: str = "kmeans++",
) -> ClusterResult:
    """k-means over (w, h) with distance 1 - IoU; best of seeded restarts.

    Assignment sends each box to its max-IoU centroid (ties to the lowest
    index); the update step is the per-coordinate mean; clusters that end
    up empty are re-seeded to the boxes farthest from their centroids.
    Restart r uses the stream seeded by (seed, r), and the restart with
    the highest mean IoU wins, earliest on ties. Centroids are returned
    sorted by area ascending with assignments remapped to match.
    """
    wh = _as_wh_array(boxes)
    if k < 1:
        raise ValidationError(f"k must be at least 1, got {k}")
    if wh.shape[0] < k:
        raise TooFewBoxes(f"{wh.shape[0]} boxes for k={k}")
    if max_iters < 0:
        raise ValidationError("max_iters must be non-negative")
    if restarts < 1:
        raise ValidationError("restarts must be at least 1")
    if init not in ("kmeans++", "random"):
        raise ValidationError(f"unknown init {init!r}")

    best = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        if init == "kmeans++":
            centroids = _plus_plus_init(wh, k, rng)
        else:
            centroids = wh[rng.choice(wh.shape[0], size=k, replace=False)].copy()
        centroids, assignment, iterations = _lloyd(wh, centroids, max_iters)
        mean_iou = float(
            wh_iou_matrix(wh, centroids)[np.arange(len(wh)), assignment].mean()
        )
        if best is None or mean_iou > best[0]:
            best = (mean_iou, centroids, assignment, iterations)

    mean_iou, centroids, assignment, iterations = best
    order = np.lexsort((centroids[:, 1], centroids[:, 0], centroids.prod(axis=1)))
    centroids = centroids[order]
    remap = np.empty(k, dtype=np.int64)
    remap[order] = np.arange(k)
    assignment = remap[assignment]
    mean_iou = float(
        wh_iou_matrix(wh, centroids)[np.arange(len(wh)), assignment].mean()
    )
    return ClusterResult(
        k=k,
        centroids=tuple(BoxWH(float(w), float(h)) for w, h in centroids),
        assignments=assignment,
        mean_iou=mean_iou,
        iterations=iterations,
        seed=seed,
    )


def sweep_k(boxes, k_range: Iterable[int], seed: int = 0, restarts: int = 10):
    """Cluster at each k and report (k, mean_iou) sorted by k."""
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise ValidationError("empty k range")
    return [
        (k, cluster_anchor_sizes(boxes, k, seed=seed, restarts=restarts).mean_iou)
        for k in ks
    ]


@dataclass(frozen=True, eq=False)
class MatchReport:
    """Counts and recall from simulated anchor-to-GT threshold matching."""

    pos_iou: float
    neg_iou: float
    force_match: bool
    n_anchors: int
    n_positive: int
    n_negative: int
    n_ignored: int
    n_gt: int
    recall: float
    per_class_recall: dict
    matched_per_gt: dict  # matched-anchor count -> number of GTs
    unmatched_gt_ids: tuple
    zero_gt_denominator: bool

    def to_dict(self) -> dict:
        return {
            "pos_iou": self.pos_iou,
            "neg_iou": self.neg_iou,
            "force_match": self.force_match,
            "n_anchors": self.n_anchors,
            "n_positive": self.n_positive,
            "n_negative": self.n_negative,
            "n_ignored": self.n_ignored,
            "n_gt": self.n_gt,
            "recall": self.recall,
            "per_class_recall": {
                str(c): v for c, v in sorted(self.per_class_recall.items())
            },
            "matched_per_gt": {
                str(c): v for c, v in sorted(self.matched_per_gt.items())
            },
            "unmatched_gt_ids": list(self.unmatched_gt_ids),
            "zero_gt_denominator": self.zero_gt_denominator,
        }


def _gt_overlaps(anchors: AnchorSet, boxes: np.ndarray):
    """Yield ``(indices, ious)`` for the candidate anchors of each (G, 4) box.

    An anchor can overlap a box only if its centre lies within its
    half-extents of the box. On each level the candidates are the cells
    whose centres lie within the level's largest anchor half-extents,
    padded by one cell on each side against rounding, found from the
    grid layout ``LevelAnchors`` documents; every other anchor has IoU 0
    with the box. Indices ascend into ``anchors.all_boxes()``, and the
    IoUs come from ``iou_matrix`` on those stored boxes, so they equal
    the entries of the dense anchors-by-GT matrix bit for bit.
    """
    levels = []  # per level: first anchor index of each cell row, cell ranges
    for lv in anchors.levels:
        cell0 = lv.boxes[:lv.n_combo]
        centre = (cell0[0, :2] + cell0[0, 2:]) / 2.0
        half = (cell0[:, 2:] - cell0[:, :2]).max(axis=0) / 2.0
        dims = np.array([lv.fmap_w, lv.fmap_h])
        # cells [lo, hi) per axis, one cell of padding beyond the exact bounds
        lo = np.floor((boxes[:, :2] - half - centre) / lv.stride) - 1
        hi = np.ceil((boxes[:, 2:] + half - centre) / lv.stride) + 2
        lo = np.clip(lo, 0, dims).astype(np.int64)
        hi = np.clip(hi, lo, dims).astype(np.int64)
        row_start = lv.start + np.arange(lv.fmap_h) * (lv.fmap_w * lv.n_combo)
        # a row of cells is one contiguous run of anchor indices
        levels.append((row_start, lo[:, 0] * lv.n_combo, hi[:, 0] * lv.n_combo, lo[:, 1], hi[:, 1]))
    anchor_boxes = anchors.all_boxes()
    for g in range(len(boxes)):
        idx = np.concatenate([
            (row_start[y0[g]:y1[g], None] + np.arange(x0[g], x1[g])).ravel()
            for row_start, x0, x1, y0, y1 in levels
        ])
        yield idx, iou_matrix(anchor_boxes[idx], boxes[g])[:, 0]


def match_anchors(
    anchors: AnchorSet,
    gts: InstanceColumns,
    pos_iou: float = 0.7,
    neg_iou: float = 0.3,
    force_match: bool = False,
) -> MatchReport:
    """Label anchors positive/negative/ignored against ground truth.

    ``gts`` are instance columns; a sequence of ``Instance`` is converted
    to columns once. An anchor is positive when its best IoU over
    non-ignore GTs reaches ``pos_iou``, negative when below ``neg_iou``,
    ignored in between. An anchor that would be negative but overlaps an
    ignore-flagged GT at ``neg_iou`` or more is ignored instead of
    negative. With ``force_match`` each GT claims its single best anchor
    (ties to the lowest anchor index) as positive even below the
    threshold.

    GTs are grouped by image id and each group is matched against the
    same anchor geometry, so the reported anchor counts total
    per-image anchors times the number of images (one pass when there
    are no GTs at all). A GT counts as recalled when at least one
    positive anchor reaches ``pos_iou`` with it (or claims it via
    force matching); ignore-flagged GTs never enter the recall
    denominator. Every GT box, ignore-flagged or not, must be finite.

    IoU is computed only between each GT and the anchors of the grid
    cells it can reach, so memory per image is O(A + candidates) for A
    anchors rather than O(A * G), and the result is identical to
    scoring the dense anchors-by-GT IoU matrix.
    """
    if not 0.0 <= neg_iou <= pos_iou <= 1.0:
        raise ValidationError(
            f"need 0 <= neg_iou <= pos_iou <= 1, got {neg_iou}, {pos_iou}"
        )
    if not isinstance(gts, InstanceColumns):
        gts = InstanceColumns.of(gts)
    if not np.isfinite(gts.boxes).all():
        raise ValidationError("ground-truth boxes must have finite coordinates")
    n_per_image = anchors.total
    groups = group_rows(gts.image_id)

    n_positive = n_negative = n_ignored = 0
    matched = np.zeros(len(gts), dtype=np.int64)  # per live GT row: its positive anchors
    for rows in list(groups.values()) or [np.zeros(0, dtype=np.intp)]:
        crowd = gts.ignore[rows]
        live, ignored = rows[~crowd], rows[crowd]

        max_iou = np.zeros(n_per_image)
        best_anchor = []  # per live GT: (anchor index, IoU), ties to the lowest index
        for g, (idx, vals) in zip(live.tolist(), _gt_overlaps(anchors, gts.boxes[live])):
            np.maximum.at(max_iou, idx, vals)
            matched[g] = np.count_nonzero(vals >= pos_iou)
            a = int(np.argmax(vals)) if vals.size else -1
            # a GT that overlaps no anchor claims anchor 0, as argmax over zeros does
            best_anchor.append((int(idx[a]), vals[a]) if a >= 0 and vals[a] > 0 else (0, 0.0))
        if pos_iou == 0.0:
            # anchors outside the candidate set have IoU 0 and match as well
            matched[live] = n_per_image

        positive = max_iou >= pos_iou
        if force_match:
            for g, (a, v) in zip(live.tolist(), best_anchor):
                positive[a] = True
                if v < pos_iou:
                    matched[g] += 1

        negative = ~positive & (max_iou < neg_iou)
        if ignored.size and negative.any():
            ign_max = np.zeros(n_per_image)
            for idx, vals in _gt_overlaps(anchors, gts.boxes[ignored]):
                np.maximum.at(ign_max, idx, vals)
            negative &= ign_max < neg_iou

        n_positive += int(positive.sum())
        n_negative += int(negative.sum())
        n_ignored += n_per_image - int(positive.sum()) - int(negative.sum())

    is_live = ~gts.ignore
    counts = matched[is_live]
    recalled = counts >= 1
    classes, class_row = np.unique(gts.category_id[is_live], return_inverse=True)
    total_by_class = np.bincount(class_row, minlength=len(classes))
    recalled_by_class = np.bincount(class_row[recalled], minlength=len(classes))
    n_gt = len(counts)
    zero_denom = n_gt == 0
    values, freq = np.unique(counts, return_counts=True)
    return MatchReport(
        pos_iou=pos_iou,
        neg_iou=neg_iou,
        force_match=force_match,
        n_anchors=n_per_image * max(1, len(groups)),
        n_positive=n_positive,
        n_negative=n_negative,
        n_ignored=n_ignored,
        n_gt=n_gt,
        recall=1.0 if zero_denom else int(np.count_nonzero(recalled)) / n_gt,
        per_class_recall={
            c: r / t for c, r, t in zip(
                classes.tolist(), recalled_by_class.tolist(), total_by_class.tolist()
            )
        },
        matched_per_gt=dict(zip(values.tolist(), freq.tolist())),
        unmatched_gt_ids=tuple(np.sort(gts.id[is_live][~recalled]).tolist()),
        zero_gt_denominator=zero_denom,
    )
