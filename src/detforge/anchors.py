"""Anchor grids, IoU k-means for anchor sizing, and match simulation.

Anchors are placed on a feature pyramid: level l has a pixel stride and
a feature-map size, and every cell gets one anchor per (size, ratio,
effective angle) combination. Rotation is restricted to multiples of 90
degrees, which reduces to an exact width/height swap, so +90 and -90
collapse to the same rectangle and are deduplicated.

``cluster_anchor_sizes`` runs k-means over ground-truth (w, h) pairs
with distance 1 - IoU and k-means++ seeding, the standard way to pick
anchor sizes from data without training. ``match_anchors`` scores an
anchor configuration by simulating threshold matching against annotated
instance columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .annotations import InstanceColumns, check_count, group_rows
from .errors import BadExtent, TooFewBoxes, ValidationError
from .geometry import WhIouBlock, iou_matrix

# The most anchors along one side of a level's grid that ``match_anchors``
# lays out: its per-level corner tables take 32 bytes per anchor on a
# side, so the bound caps each table at 64 MiB.
MAX_EDGE_ANCHORS = 1 << 21

# The most values of k one ``sweep_k`` call clusters at. Each is a full
# clustering with restarts, so a longer sweep would not finish in useful
# time; the CLI checks a ``--k-range`` against it before listing the ks.
MAX_SWEEP_KS = 1024

# The most restarts one ``cluster_anchor_sizes`` call runs. Criterion 4's
# stored oracle is the best of 1,000 restarts in one call, the most any
# procedure here asks for; each restart is a full clustering, so more
# would not finish in useful time.
MAX_RESTARTS = 1000

# The most Lloyd iterations one restart runs. Restarts on the benchmark's
# 10k aerial boxes converge in 150-190 iterations, so the bound sits far
# past convergence and still ends a restart whose assignments never settle.
MAX_ITERS = 10_000


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
        strides = tuple(check_count("strides", s, 1) for s in self.strides)
        object.__setattr__(self, "strides", strides)
        for name, values in (("sizes", self.sizes), ("aspect ratios", self.aspect_ratios)):
            if not values or not all(0.0 < v < math.inf for v in values):
                raise ValidationError(f"{name} must be finite and positive, got {list(values)}")
        for s in self.sizes:
            for r in self.aspect_ratios:
                # Python floats overflow to inf without a warning
                if not all(map(math.isfinite, (s / math.sqrt(r), s * math.sqrt(r), s * s))):
                    raise ValidationError(
                        f"the anchor of size {s!r} and ratio {r!r} has a non-finite extent or area"
                    )
        if not self.strides:
            raise ValidationError("at least one stride required")
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

    The level holds only this layout; ``cell_boxes`` computes the
    corners of any block of cells, and ``boxes`` builds the level's rows
    of ``AnchorSet.all_boxes()`` on each read.
    """

    level: int
    stride: int
    fmap_w: int
    fmap_h: int
    start: int  # first row in AnchorSet.all_boxes()
    n_combo: int  # anchors per cell
    half: np.ndarray  # (n_combo, 2) read-only half-extents of one cell's anchors
    offset: float  # fraction of a stride from a cell's origin to its centre

    @property
    def count(self) -> int:
        return self.fmap_w * self.fmap_h * self.n_combo

    @property
    def boxes(self) -> np.ndarray:
        """A new read-only (count, 4) array of the level's corner rows."""
        boxes = self.cell_boxes(0, self.fmap_w, 0, self.fmap_h).reshape(self.count, 4)
        boxes.flags.writeable = False
        return boxes

    @cached_property
    def _edges(self):
        """Corner terms per cell column and per cell row, each (n, n_combo, 4).

        Column i holds (cx - w/2, 0, cx + w/2, 0) and row j holds
        (0, cy - h/2, 0, cy + h/2) for the cell centre (cx, cy) and every
        combo's half-extents; the sum of the two is the anchor's corners.
        Adding 0 leaves every difference and sum as it was, so the corners
        are exactly the ``centre +- half`` values.
        """
        cols = np.zeros((self.fmap_w, self.n_combo, 4))
        rows = np.zeros((self.fmap_h, self.n_combo, 4))
        cx = ((np.arange(self.fmap_w) + self.offset) * self.stride)[:, None]
        cy = ((np.arange(self.fmap_h) + self.offset) * self.stride)[:, None]
        cols[..., 0] = cx - self.half[:, 0]
        cols[..., 2] = cx + self.half[:, 0]
        rows[..., 1] = cy - self.half[:, 1]
        rows[..., 3] = cy + self.half[:, 1]
        return cols, rows

    def cell_boxes(self, x0: int, x1: int, y0: int, y1: int, out: np.ndarray | None = None):
        """Corners of the anchors in cells [x0, x1) by [y0, y1), (y1-y0, x1-x0, n_combo, 4).

        The one formula for anchor coordinates, which ``all_boxes()`` and
        the matcher both use, so every caller gets the same bits. ``out``
        receives the corners in place when given.
        """
        cols, rows = self._edges
        return np.add(cols[None, x0:x1], rows[y0:y1, None], out=out)


class AnchorSet:
    """The anchors of one image, level by level, as a layout.

    ``total`` is the anchor count A. Only ``all_boxes()`` and
    ``LevelAnchors.boxes`` allocate per-anchor memory, on each call.
    """

    def __init__(self, levels: Sequence[LevelAnchors]):
        self.levels = tuple(levels)
        self.total = sum(lv.count for lv in self.levels)

    def all_boxes(self) -> np.ndarray:
        """A new read-only (A, 4) corner array, levels in order."""
        boxes = np.empty((self.total, 4))
        for lv in self.levels:
            grid = boxes[lv.start:lv.start + lv.count]
            lv.cell_boxes(0, lv.fmap_w, 0, lv.fmap_h,
                          out=grid.reshape(lv.fmap_h, lv.fmap_w, lv.n_combo, 4))
        boxes.flags.writeable = False
        return boxes


def generate_anchors(spec: AnchorSpec, fmap_dims: Sequence) -> AnchorSet:
    """Lay out anchors at every feature-map cell of every level.

    ``fmap_dims`` is one (width, height) pair per stride. The anchor for
    size s and ratio r has h = s*sqrt(r), w = s/sqrt(r), so its area is
    s^2 and h/w = r; a 90-degree angle swaps the two. Rows follow the
    layout ``LevelAnchors`` documents. Only the layout is built, in
    memory independent of the anchor count; ``AnchorSet.all_boxes()``
    builds the corners when a caller needs them all.
    """
    if len(fmap_dims) != len(spec.strides):
        raise ValidationError(
            f"{len(fmap_dims)} feature maps for {len(spec.strides)} strides"
        )
    dims = [
        (check_count(f"level {level} feature map width", fw, 1),
         check_count(f"level {level} feature map height", fh, 1))
        for level, (fw, fh) in enumerate(fmap_dims)
    ]
    eff_angles = spec.effective_angles
    levels = []
    start = 0
    for level, (stride, (fw, fh)) in enumerate(zip(spec.strides, dims)):
        half = np.array([
            (s / np.sqrt(r), s * np.sqrt(r)) if a == 0.0 else (s * np.sqrt(r), s / np.sqrt(r))
            for s in spec.sizes_at(level)
            for r in spec.aspect_ratios
            for a in eff_angles
        ]) / 2.0
        half.flags.writeable = False
        levels.append(LevelAnchors(level=level, stride=stride, fmap_w=fw, fmap_h=fh, start=start,
                                   n_combo=len(half), half=half, offset=spec.offset))
        start += levels[-1].count
    return AnchorSet(levels)


@dataclass(frozen=True, eq=False)
class ClusterResult:
    """Outcome of one IoU k-means clustering run."""

    k: int
    centroids: np.ndarray  # read-only (k, 2) widths and heights, sorted by area ascending
    assignments: np.ndarray
    mean_iou: float
    iterations: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "centroids": self.centroids.tolist(),
            "assignments": [int(a) for a in self.assignments],
            "mean_iou": self.mean_iou,
            "iterations": self.iterations,
            "seed": self.seed,
        }


def _as_wh_array(boxes) -> np.ndarray:
    """Boxes as an (n, 2) float array whose rows all have a positive finite area.

    A row fails when its width or height is not a positive finite float,
    or when ``w * h`` underflows to 0 or overflows to inf; the error names
    the first failing row. With every box area positive and finite, no
    IoU against a centroid is NaN, which ``_first_max`` relies on.
    """
    try:
        wh = np.asarray(boxes, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # ragged rows, objects, text, huge ints
        raise ValidationError("boxes must be (n, 2) width/height numbers; NumPy cannot read "
                              f"this {type(boxes).__name__} as floats") from None
    if wh.ndim != 2 or wh.shape[1] != 2:
        raise ValidationError(f"expected (n, 2) width/height data, got {wh.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN areas fail below
        area = wh[:, 0] * wh[:, 1]
    bad = ~((wh > 0).all(axis=1) & (area > 0) & (area < np.inf))
    if bad.any():
        row = int(np.argmax(bad))
        w, h = wh[row].tolist()
        if not (math.isfinite(w) and math.isfinite(h)):
            reason = "widths and heights must be finite"
        elif w <= 0 or h <= 0:
            reason = "widths and heights must be positive"
        else:
            reason = "w * h must be a positive finite float"
        raise BadExtent(row, f"{reason}, got w={w!r}, h={h!r}")
    return wh


def _first_max(iou: np.ndarray, hit: np.ndarray | None = None,
               score: np.ndarray | None = None) -> np.ndarray:
    """Per column of a (k, n) block, the row of its maximum, lowest on ties.

    Equals ``np.argmax(iou, axis=0)`` on NaN-free input but uses only
    reductions along rows, which NumPy runs n wide instead of k deep: row
    j of a maximum scores k - j, and the top score marks the lowest row.
    Scores take the smallest integer type that holds k. ``hit`` (bool)
    and ``score`` (that integer type), both (k, n), receive the
    intermediate blocks in place when given.
    """
    k = iou.shape[0]
    hit = np.equal(iou, iou.max(axis=0), out=hit)
    score = np.multiply(np.arange(k, 0, -1, dtype=np.min_scalar_type(k))[:, None], hit, out=score)
    return k - score.max(axis=0).astype(np.intp)


def _plus_plus_init(block: WhIouBlock, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ style seeding on ``block``'s boxes with weight proportional to d = 1 - IoU."""
    n = len(block.w)
    chosen = [int(rng.integers(n))]
    # a copy: the block's next call overwrites the row it returns
    best_iou = block((block.w[chosen[-1]], block.h[chosen[-1]]))[0].copy()
    for _ in range(k - 1):
        d = 1.0 - best_iou
        total = d.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d / total))
        else:
            idx = int(rng.integers(n))
        chosen.append(idx)
        np.maximum(best_iou, block((block.w[idx], block.h[idx]))[0], out=best_iou)
    return np.stack([block.w[chosen], block.h[chosen]], axis=1)


def _lloyd(block: WhIouBlock, centroids: np.ndarray, max_iters: int):
    """Assignment/update loop; returns (centroids, assignments, iterations, mean IoU).

    IoU blocks are (k, n), centroids by boxes: the wh-IoU is symmetric bit
    for bit, and row-wise reductions over n boxes beat k-wide ones.
    ``block``, on the boxes, and the ``_first_max`` buffers serve every
    iteration. The mean IoU is each box's IoU with its assigned centroid,
    read from the last block, which is that of the returned centroids.
    """
    k, n = centroids.shape[0], len(block.w)
    rows = np.arange(n)
    hit = np.empty((k, n), dtype=bool)
    score = np.empty((k, n), dtype=np.min_scalar_type(k))
    iou = block(centroids)
    assignment = _first_max(iou, hit, score)
    iterations = 1
    for _ in range(max_iters):
        # bincount sums each cluster in box order, as the row-wise mean does
        counts = np.bincount(assignment, minlength=k)
        occupied = counts > 0
        for j, weights in enumerate((block.w, block.h)):
            sums = np.bincount(assignment, weights=weights, minlength=k)
            over = ~np.isfinite(sums)
            if over.any():
                # a sum past the float range: divide each box by its cluster's
                # count before summing; clusters with finite sums keep their bits
                shares = np.bincount(assignment, weights=weights / counts[assignment], minlength=k)
                centroids[over, j] = shares[over]
            ok = occupied & ~over
            centroids[ok, j] = sums[ok] / counts[ok]
        # re-seed empty clusters to the currently worst-fit boxes
        iou = block(centroids)
        if not occupied.all():
            dist = 1.0 - iou[assignment, rows]
            for c in np.flatnonzero(~occupied):
                worst = int(np.argmax(dist))
                centroids[c] = block.w[worst], block.h[worst]
                dist[worst] = -1.0
            iou = block(centroids)
        new_assignment = _first_max(iou, hit, score)
        iterations += 1
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
    return centroids, assignment, iterations, float(iou[assignment, rows].mean())


# a centroid's area may overflow to inf; its IoU with every box is then 0
@np.errstate(over="ignore")
def cluster_anchor_sizes(
    boxes,
    k: int,
    seed: int = 0,
    max_iters: int = 100,
    restarts: int = 10,
) -> ClusterResult:
    """k-means over (w, h) with distance 1 - IoU; best of seeded restarts.

    Each restart is seeded k-means++ style, with weight 1 - IoU to the
    nearest centroid chosen so far. Assignment sends each box to its
    max-IoU centroid (ties to the lowest index); the update step is the
    per-coordinate mean; clusters that end up empty are re-seeded to the
    boxes farthest from their centroids.
    Restart r uses the stream seeded by (seed, r), and the restart with
    the highest mean IoU wins, earliest on ties. Centroids are returned
    sorted by area ascending with assignments remapped to match. Every
    box needs a positive finite width, height and area (``BadExtent``).
    More than ``MAX_RESTARTS`` restarts or ``MAX_ITERS`` iterations fail
    before any seeding.
    """
    wh = _as_wh_array(boxes)
    k = check_count("k", k, 1)
    seed = check_count("seed", seed, 0)
    max_iters = check_count("max_iters", max_iters, 0)
    restarts = check_count("restarts", restarts, 1)
    if restarts > MAX_RESTARTS:
        raise ValidationError(f"{restarts} restarts pass MAX_RESTARTS = {MAX_RESTARTS}")
    if max_iters > MAX_ITERS:
        raise ValidationError(f"{max_iters} iterations pass MAX_ITERS = {MAX_ITERS}")
    if wh.shape[0] < k:
        raise TooFewBoxes(f"{wh.shape[0]} boxes for k={k}")

    block = WhIouBlock(wh)  # one per call: every seeding and restart reuses it
    best = None
    for r in range(restarts):
        centroids = _plus_plus_init(block, k, np.random.default_rng([seed, r]))
        result = _lloyd(block, centroids, max_iters)  # mean IoU last
        if best is None or result[3] > best[3]:
            best = result

    # sorting permutes the centroids, not any box's IoU with its own, so
    # the mean IoU stays the restart's
    centroids, assignment, iterations, mean_iou = best
    order = np.lexsort((centroids[:, 1], centroids[:, 0], centroids.prod(axis=1)))
    centroids = centroids[order]
    centroids.flags.writeable = False
    remap = np.empty(k, dtype=np.int64)
    remap[order] = np.arange(k)
    assignment = remap[assignment]
    return ClusterResult(
        k=k,
        centroids=centroids,
        assignments=assignment,
        mean_iou=mean_iou,
        iterations=iterations,
        seed=seed,
    )


def sweep_k(boxes, k_range: Iterable[int], seed: int = 0, restarts: int = 10,
            max_iters: int = 100):
    """Cluster at each k and report (k, mean_iou) sorted by k.

    More than ``MAX_SWEEP_KS`` distinct values of k, and restart or
    iteration counts past their bounds, fail before any clustering.
    """
    ks = sorted(set(check_count("k", k, 1) for k in k_range))
    if not ks:
        raise ValidationError("empty k range")
    if len(ks) > MAX_SWEEP_KS:
        raise ValidationError(f"{len(ks)} values of k pass MAX_SWEEP_KS = {MAX_SWEEP_KS}")
    return [
        (k, cluster_anchor_sizes(boxes, k, seed=seed, max_iters=max_iters,
                                 restarts=restarts).mean_iou)
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
    with the box. Indices ascend into ``anchors.all_boxes()``, but only
    the candidates' corners are built, by ``LevelAnchors.cell_boxes``, the
    formula that fills ``all_boxes()``; so the IoUs from ``iou_matrix``
    equal the entries of the dense anchors-by-GT matrix bit for bit, and
    memory stays O(candidates) per box.
    """
    levels = []  # per level: the level and the first anchor index of each cell row
    ranges = []  # per level: (G, 4) cell ranges x0, y0, x1, y1
    for lv in anchors.levels:
        cell0 = lv.cell_boxes(0, 1, 0, 1)[0, 0]
        centre = (cell0[0, :2] + cell0[0, 2:]) / 2.0
        half = (cell0[:, 2:] - cell0[:, :2]).max(axis=0) / 2.0
        dims = np.array([lv.fmap_w, lv.fmap_h])
        # cells [lo, hi) per axis, one cell of padding beyond the exact bounds
        lo = np.floor((boxes[:, :2] - half - centre) / lv.stride) - 1
        hi = np.ceil((boxes[:, 2:] + half - centre) / lv.stride) + 2
        lo = np.clip(lo, 0, dims).astype(np.int64)
        hi = np.clip(hi, lo, dims).astype(np.int64)
        row_start = lv.start + np.arange(lv.fmap_h) * (lv.fmap_w * lv.n_combo)
        levels.append((lv, row_start))
        ranges.append(np.concatenate([lo, hi], axis=1))
    ranges = np.stack(ranges, axis=1)
    for g in range(len(boxes)):
        idx, corners = [], []
        for (lv, row_start), (x0, y0, x1, y1) in zip(levels, ranges[g].tolist()):
            # a row of cells is one contiguous run of anchor indices
            runs = row_start[y0:y1, None] + np.arange(x0 * lv.n_combo, x1 * lv.n_combo)
            idx.append(runs.ravel())
            corners.append(lv.cell_boxes(x0, x1, y0, y1).reshape(-1, 4))
        yield np.concatenate(idx), iou_matrix(np.concatenate(corners), boxes[g])[:, 0]


def match_anchors(
    anchors: AnchorSet,
    gts: InstanceColumns,
    pos_iou: float = 0.7,
    neg_iou: float = 0.3,
    force_match: bool = False,
) -> MatchReport:
    """Label anchors positive/negative/ignored against ground truth.

    ``gts`` are instance columns. An anchor is positive when its best IoU
    over non-ignore GTs reaches ``pos_iou``, negative when below
    ``neg_iou``, ignored in between. An anchor that would be negative but
    overlaps an ignore-flagged GT at ``neg_iou`` or more is ignored
    instead of negative. With ``force_match`` each GT claims its single
    best anchor (ties to the lowest anchor index) as positive even below
    the threshold.

    GTs are grouped by image id and each group is matched against the
    same anchor geometry, so the reported anchor counts total
    per-image anchors times the number of images (one pass when there
    are no GTs at all). A GT counts as recalled when at least one
    positive anchor reaches ``pos_iou`` with it (or claims it via
    force matching); ignore-flagged GTs never enter the recall
    denominator. Every GT box keeps ``InstanceColumns``' box contract.

    IoU is computed only between each GT and the anchors of the grid
    cells it can reach, and labels are counted from those candidates:
    the positives are the distinct candidates at ``pos_iou`` plus the
    forced claims, and the negatives are every anchor outside the
    positives and the candidates at ``neg_iou`` of any GT, live or
    ignore-flagged. Memory per image is O(candidates) for A anchors and
    G GTs, with no per-anchor array and no A x G matrix, and the result
    is identical to scoring the dense anchors-by-GT IoU matrix. A level
    with more than ``MAX_EDGE_ANCHORS`` anchors along one side of its
    grid fails, naming the level, before anything is allocated.
    """
    if not 0.0 <= neg_iou <= pos_iou <= 1.0:
        raise ValidationError(
            f"need 0 <= neg_iou <= pos_iou <= 1, got {neg_iou}, {pos_iou}"
        )
    for lv in anchors.levels:
        side = max(lv.fmap_w, lv.fmap_h)
        if side * lv.n_combo > MAX_EDGE_ANCHORS:
            raise ValidationError(
                f"level {lv.level} has {side} cells x {lv.n_combo} anchors along one side, "
                f"past MAX_EDGE_ANCHORS = {MAX_EDGE_ANCHORS}"
            )
    n_per_image = anchors.total
    groups = group_rows(gts.image_id)

    n_positive = n_negative = 0
    matched = np.zeros(len(gts), dtype=np.int64)  # per live GT row: its positive anchors
    for rows in list(groups.values()) or [np.zeros(0, dtype=np.intp)]:
        crowd = gts.ignore[rows]
        positive = []  # anchor indices at pos_iou, repeats allowed
        kept = []  # candidates at neg_iou of any GT, which cannot be negative
        claims = []  # with force_match, each live GT's best anchor
        overlaps = _gt_overlaps(anchors, gts.boxes[rows])
        for g, ignore, (idx, vals) in zip(rows.tolist(), crowd.tolist(), overlaps):
            kept.append(idx[vals >= neg_iou])
            if ignore:
                continue  # a crowd GT only keeps its overlaps from being negative
            hit = vals >= pos_iou
            matched[g] = np.count_nonzero(hit)
            positive.append(idx[hit])
            if force_match:
                a = int(np.argmax(vals)) if vals.size else -1
                # a GT that overlaps no anchor claims anchor 0, as argmax over zeros does
                claim, v = (int(idx[a]), vals[a]) if a >= 0 and vals[a] > 0 else (0, 0.0)
                claims.append(claim)
                matched[g] += int(v < pos_iou)
        if pos_iou == 0.0:
            # anchors outside the candidate set have IoU 0 and match as well
            matched[rows[~crowd]] = n_per_image
            n_positive += n_per_image
            continue

        positive.append(np.array(claims, dtype=np.int64))
        positive = np.unique(np.concatenate(positive))
        n_positive += positive.size
        if neg_iou == 0.0:
            continue  # no IoU is below 0
        n_negative += n_per_image - np.unique(np.concatenate([positive] + kept)).size

    is_live = ~gts.ignore
    counts = matched[is_live]
    recalled = counts >= 1
    classes, class_row = np.unique(gts.category_id[is_live], return_inverse=True)
    total_by_class = np.bincount(class_row, minlength=len(classes))
    recalled_by_class = np.bincount(class_row[recalled], minlength=len(classes))
    n_gt = len(counts)
    zero_denom = n_gt == 0
    values, freq = np.unique(counts, return_counts=True)
    n_anchors = n_per_image * max(1, len(groups))
    return MatchReport(
        pos_iou=pos_iou,
        neg_iou=neg_iou,
        force_match=force_match,
        n_anchors=n_anchors,
        n_positive=n_positive,
        n_negative=n_negative,
        n_ignored=n_anchors - n_positive - n_negative,
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
