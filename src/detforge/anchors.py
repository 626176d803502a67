"""Anchor grids, IoU k-means for anchor sizing, and match simulation.

Anchors are placed on a feature pyramid: level l has a pixel stride and
a feature-map size, and every cell gets one anchor per (size, ratio,
effective angle) combination. Rotation is restricted to multiples of 90
degrees, which reduces to an exact width/height swap, so +90 and -90
collapse to the same rectangle and are deduplicated.

``cluster_anchor_sizes`` runs k-means over ground-truth (w, h) pairs
with distance 1 - IoU and k-means++ seeding, the standard way to pick
anchor sizes from data without training. ``match_anchors`` scores an
anchor configuration by simulating threshold matching against an
annotated dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .annotations import (
    Dataset,
    Report,
    check_count,
    check_length,
    check_list,
    check_real,
    check_reals,
    group_rows,
)
from .errors import BadExtent, ValidationError
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
# 10k aerial boxes at k=9 stop in 30-62 iterations (streams (0, r) for
# r < 5 take 62, 59, 48, 30 and 34), and every one repeats an assignment
# within 72 even without the patience stop, so the bound sits far past
# convergence and still ends a restart whose assignments never settle.
MAX_ITERS = 10_000


@dataclass(frozen=True)
class AnchorSpec:
    """Anchor layout: sizes, h/w ratios, angle grid and strides.

    ``level_shapes`` is the one anchor-shape table: per stride, a read-only
    (n_l, 2) float64 array of (w, h), built once from the fields. Rows run
    size-major (every size with ``shared_sizes``, else the level's own),
    then ratio, then effective angle. Size s and ratio r give w = s/sqrt(r),
    h = s*sqrt(r), so the area is s^2 and h/w = r; a 90-degree angle swaps
    the two. Anchors are centred in their cells: cell (i, j) of a level
    with stride s has its centre at ``((i + 0.5) * s, (j + 0.5) * s)``.
    """

    sizes: tuple = (16.0, 32.0, 64.0, 128.0, 256.0)
    aspect_ratios: tuple = (0.5, 1.0, 2.0)
    angles: tuple = (-90.0, 0.0, 90.0)
    strides: tuple = (4, 8, 16, 32, 64)
    shared_sizes: bool = False

    def __post_init__(self):
        for name in ("sizes", "aspect_ratios", "angles"):
            object.__setattr__(self, name, check_reals(name, getattr(self, name)))
        if not isinstance(self.shared_sizes, bool):
            raise ValidationError(f"shared_sizes must be a bool, got {self.shared_sizes!r}")
        strides = check_list("strides", self.strides, "integers",
                             lambda name, s: check_length(name, s, 1))
        object.__setattr__(self, "strides", strides)
        for name, values in (("sizes", self.sizes), ("aspect ratios", self.aspect_ratios)):
            if not values or not all(0.0 < v < math.inf for v in values):
                raise ValidationError(f"{name} must be finite and positive, got {list(values)}")
        extents = [[(s / math.sqrt(r), s * math.sqrt(r)) for r in self.aspect_ratios]
                   for s in self.sizes]  # per size, the (w, h) of each ratio
        for s, ratio_wh in zip(self.sizes, extents):
            for r, (w, h) in zip(self.aspect_ratios, ratio_wh):
                # Python floats overflow to inf without a warning
                if not all(map(math.isfinite, (w, h, s * s))):
                    raise ValidationError(
                        f"the anchor of size {s!r} and ratio {r!r} has a non-finite extent or area"
                    )
        if not self.strides:
            raise ValidationError("at least one stride required")
        if any(a % 90.0 != 0 for a in self.angles):
            raise ValidationError("angles must be multiples of 90 degrees")
        if not self.angles:
            raise ValidationError("at least one angle required")
        if not self.shared_sizes and len(self.sizes) != len(self.strides):
            raise ValidationError(
                f"{len(self.sizes)} sizes for {len(self.strides)} levels; "
                "set shared_sizes to reuse one list everywhere"
            )
        angles = self.effective_angles
        rows = [[(w, h) if a == 0.0 else (h, w) for w, h in ratio_wh for a in angles]
                for ratio_wh in extents]  # per size
        if self.shared_sizes:
            rows = [sum(rows, [])] * len(self.strides)
        object.__setattr__(self, "level_shapes", tuple(map(np.array, rows)))
        for table in self.level_shapes:
            table.flags.writeable = False

    @property
    def effective_angles(self) -> tuple:
        """Angles folded mod 180 and deduplicated, sorted ascending."""
        return tuple(sorted({a % 180.0 for a in self.angles}))


@dataclass(frozen=True, eq=False)
class LevelAnchors:
    """The anchors of one pyramid level: rows ``start`` onward of the set.

    Rows are laid out cell by cell, row-major over the feature map (y
    outer, x inner), with the same C = ``len(half)`` combos in the same
    order in every cell; the anchor of combo c in cell (i, j) is level
    row ``(j * fmap_w + i) * C + c`` and is centred at the centre of
    cell (0, 0) plus ``(i, j) * stride``. Combo c is row c of its
    level's ``AnchorSpec.level_shapes`` table. ``match_anchors`` relies
    on this layout to find the anchors near a box without scanning them
    all.

    The level holds only this layout; ``cell_boxes`` computes the
    corners of any block of cells.
    """

    stride: int
    fmap_w: int
    fmap_h: int
    start: int  # index of the level's first anchor in the set
    half: np.ndarray  # (C, 2) read-only half-extents of one cell's anchors

    @property
    def count(self) -> int:
        return self.fmap_w * self.fmap_h * len(self.half)

    @cached_property
    def _edges(self):
        """Corner terms per cell column and per cell row, each (n, C, 4).

        Column i holds (cx - w/2, 0, cx + w/2, 0) and row j holds
        (0, cy - h/2, 0, cy + h/2) for the cell centre (cx, cy) and every
        combo's half-extents; the sum of the two is the anchor's corners.
        Adding 0 leaves every difference and sum as it was, so the corners
        are exactly the ``centre +- half`` values.
        """
        cols = np.zeros((self.fmap_w, len(self.half), 4))
        rows = np.zeros((self.fmap_h, len(self.half), 4))
        cx = ((np.arange(self.fmap_w) + 0.5) * self.stride)[:, None]
        cy = ((np.arange(self.fmap_h) + 0.5) * self.stride)[:, None]
        cols[..., 0] = cx - self.half[:, 0]
        cols[..., 2] = cx + self.half[:, 0]
        rows[..., 1] = cy - self.half[:, 1]
        rows[..., 3] = cy + self.half[:, 1]
        return cols, rows

    def cell_boxes(self, x0: int, x1: int, y0: int, y1: int) -> np.ndarray:
        """Corners of the anchors in cells [x0, x1) by [y0, y1), (y1-y0, x1-x0, C, 4).

        The one formula for anchor coordinates, so every caller gets the
        same bits.
        """
        cols, rows = self._edges
        return cols[None, x0:x1] + rows[y0:y1, None]


class AnchorSet:
    """The anchors of one image, level by level, as a layout.

    ``total`` is the anchor count A. No per-anchor array is kept or built:
    ``LevelAnchors.cell_boxes`` gives the corners of any block of cells.
    At least one level is required.
    """

    def __init__(self, levels: Sequence[LevelAnchors]):
        self.levels = tuple(levels)
        if not self.levels:
            raise ValidationError("an AnchorSet needs at least one level")
        self.total = sum(lv.count for lv in self.levels)


def generate_anchors(spec: AnchorSpec, width: int, height: int) -> AnchorSet:
    """Lay out anchors at every feature-map cell of every level of one image.

    ``width`` and ``height`` are the image's pixel lengths. This is the
    one owner of the feature-map rule: the level of stride s has
    ceil(width / s) x ceil(height / s) cells, in integers, as float
    division rounds past 2**53. Each cell gets the anchors of its level's
    ``spec.level_shapes`` table, in the layout ``LevelAnchors`` documents.
    Only the layout is built, in memory independent of the anchor count;
    ``LevelAnchors.cell_boxes`` builds the corners of the cells a caller
    reads.
    """
    if not isinstance(spec, AnchorSpec):
        raise ValidationError(f"spec must be an AnchorSpec, got {type(spec).__name__}")
    width = check_length("image width", width, 1)
    height = check_length("image height", height, 1)
    levels = []
    start = 0
    for stride, shapes in zip(spec.strides, spec.level_shapes):
        fw, fh = -(-width // stride), -(-height // stride)
        half = shapes / 2.0
        half.flags.writeable = False
        levels.append(LevelAnchors(stride=stride, fmap_w=fw, fmap_h=fh, start=start, half=half))
        start += levels[-1].count
    return AnchorSet(levels)


@dataclass(frozen=True, eq=False)
class ClusterResult(Report):
    """Outcome of one IoU k-means clustering run."""

    k: int
    centroids: np.ndarray  # read-only (k, 2) widths and heights, sorted by area ascending
    assignments: np.ndarray
    mean_iou: float
    iterations: int  # iterations the winning restart ran, its seeding's assignment first
    best_iteration: int  # the iterate it returns
    converged: bool  # False when max_iters cut any restart, not only the winning one
    seed: int


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


class _ClusterMedians:
    """Per-coordinate cluster medians of one fixed (n, 2) box set, by sorted order.

    Each coordinate of ``block``'s boxes is argsorted once. A call sorts
    the cluster labels, read in each coordinate's value order, with one
    stable argsort; labels take the smallest integer type that holds k,
    which NumPy radix-sorts. A cluster of m boxes then holds m consecutive
    ranks in value order, and its median is the mean of its two middle
    values, ``(lo + hi) / 2``, as ``np.median`` computes it, bit for bit.
    Where ``lo + hi`` passes the float range the median is
    ``lo / 2 + hi / 2``, the halving ``geometry._iou_of`` uses.
    """

    def __init__(self, block: WhIouBlock):
        self._orders = [np.argsort(v, kind="stable") for v in (block.w, block.h)]
        self._values = [v[order] for v, order in zip((block.w, block.h), self._orders)]

    def __call__(self, assignment: np.ndarray, centroids: np.ndarray) -> np.ndarray:
        """Write each occupied cluster's medians into its ``centroids`` row; return the mask."""
        k = len(centroids)
        counts = np.bincount(assignment, minlength=k)
        occupied = counts > 0
        m = counts[occupied]
        start = (np.cumsum(counts) - counts)[occupied]
        lo_rank, hi_rank = start + (m - 1) // 2, start + m // 2
        labels = assignment.astype(np.min_scalar_type(k))
        for j, (order, values) in enumerate(zip(self._orders, self._values)):
            ranked = np.argsort(labels[order], kind="stable")
            lo, hi = values[ranked[lo_rank]], values[ranked[hi_rank]]
            with np.errstate(over="ignore"):  # the halved form replaces an overflowed sum
                total = lo + hi
            centroids[occupied, j] = np.where(np.isfinite(total), total / 2, lo / 2 + hi / 2)
        return occupied


# How many iterations a restart runs past its best one before it stops.
# The median update does not raise the mean IoU at every step: near its
# best a restart can trade boxes between neighbouring clusters for tens of
# iterations without repeating an assignment. On the benchmark's 10k
# aerial boxes (k=9, streams (0, r) for r < 5) a new best can come 3
# iterations after the last one (stream (0, 1): 0.7330 with a patience of
# 2, 0.7340 from 3), while a patience of 10 adds 50 iterations over the
# five restarts and picks the same winner.
PATIENCE = 5


def _lloyd(block: WhIouBlock, medians: _ClusterMedians, centroids: np.ndarray, max_iters: int):
    """Median-update loop from seeded centroids; returns its best iterate.

    Iterate t has the centroids c_t, the assignment a_t, which is
    ``_first_max`` of their IoU block, and the score s_t, the mean IoU of
    each box with its assigned centroid; the seeding is t = 1. A step moves
    each occupied cluster's centroid to the per-coordinate median of its
    boxes (``medians``, built on ``block``'s boxes) and re-seeds empty
    clusters to the currently worst-fit boxes. The loop stops when an
    assignment repeats the one before it, ``PATIENCE`` iterations after
    the best one, or after ``max_iters`` steps.

    Returns ``(centroids, assignment, iterations, best_iteration,
    converged, mean_iou)``: the first iterate with the highest score, the
    iterations run, the best one's number, False only when ``max_iters``
    ended the loop, and the best score. IoU blocks are (k, n), centroids
    by boxes: the wh-IoU is symmetric bit for bit, and row-wise reductions
    over n boxes beat k-wide ones. ``block`` and the ``_first_max``
    buffers serve every iteration.
    """
    k, n = centroids.shape[0], len(block.w)
    rows = np.arange(n)
    hit = np.empty((k, n), dtype=bool)
    score = np.empty((k, n), dtype=np.min_scalar_type(k))
    iou = block(centroids)
    assignment = _first_max(iou, hit, score)
    iterations = best_iteration = 1
    best = centroids.copy(), assignment, float(iou[assignment, rows].mean())
    converged = False
    for _ in range(max_iters):
        occupied = medians(assignment, centroids)
        iou = block(centroids)
        if not occupied.all():
            # re-seed empty clusters to the currently worst-fit boxes
            dist = 1.0 - iou[assignment, rows]
            for c in np.flatnonzero(~occupied):
                worst = int(np.argmax(dist))
                centroids[c] = block.w[worst], block.h[worst]
                dist[worst] = -1.0
            iou = block(centroids)
        new_assignment = _first_max(iou, hit, score)
        iterations += 1
        mean_iou = float(iou[new_assignment, rows].mean())
        if mean_iou > best[2]:
            best, best_iteration = (centroids.copy(), new_assignment, mean_iou), iterations
        if (np.array_equal(new_assignment, assignment)
                or iterations - best_iteration >= PATIENCE):
            converged = True
            break
        assignment = new_assignment
    centroids, assignment, mean_iou = best
    return centroids, assignment, iterations, best_iteration, converged, mean_iou


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
    per-coordinate median, which, unlike the mean, is not pulled toward
    the few large boxes of an aerial size mix; clusters that end up empty
    are re-seeded to the boxes farthest from their centroids. A restart
    keeps its best iterate and stops on a repeated assignment,
    ``PATIENCE`` iterations after its best one, or after ``max_iters``
    updates (see ``_lloyd``). Restart r uses the stream seeded by
    (seed, r), and the restart with the highest mean IoU wins, earliest on
    ties. ``iterations`` and ``best_iteration`` describe the winning
    restart; ``converged`` is False when ``max_iters`` cut any restart,
    the winner or not. Centroids are returned sorted by area ascending
    with assignments remapped to match. Every box needs a positive finite
    width, height and area (``BadExtent``). More than ``MAX_RESTARTS``
    restarts or ``MAX_ITERS`` iterations fail before any seeding.
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
        raise ValidationError(f"{wh.shape[0]} boxes for k={k}")

    block = WhIouBlock(wh)  # one per call: every seeding and restart reuses it
    medians = _ClusterMedians(block)  # likewise one per call
    best, converged = None, True
    for r in range(restarts):
        centroids = _plus_plus_init(block, k, np.random.default_rng([seed, r]))
        result = _lloyd(block, medians, centroids, max_iters)  # mean IoU last
        converged = converged and result[4]
        if best is None or result[-1] > best[-1]:
            best = result

    # sorting permutes the centroids, not any box's IoU with its own, so
    # the mean IoU stays the restart's
    centroids, assignment, iterations, best_iteration, _, mean_iou = best
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
        best_iteration=best_iteration,
        converged=converged,
        seed=seed,
    )


def sweep_k(boxes, k_range: Iterable[int], seed: int = 0, restarts: int = 10,
            max_iters: int = 100):
    """Cluster at each k and report (k, mean_iou) sorted by k.

    More than ``MAX_SWEEP_KS`` distinct values of k, a largest k past the
    box count, and restart or iteration counts past their bounds, fail
    before any clustering. A k past the box count fails as its own
    clustering would, naming the smallest such k.
    """
    ks = sorted(set(check_count("k", k, 1) for k in k_range))
    if not ks:
        raise ValidationError("empty k range")
    if len(ks) > MAX_SWEEP_KS:
        raise ValidationError(f"{len(ks)} values of k pass MAX_SWEEP_KS = {MAX_SWEEP_KS}")
    wh = _as_wh_array(boxes)
    if len(wh) < ks[-1]:
        raise ValidationError(f"{len(wh)} boxes for k={min(k for k in ks if k > len(wh))}")
    return [
        (k, cluster_anchor_sizes(wh, k, seed=seed, max_iters=max_iters,
                                 restarts=restarts).mean_iou)
        for k in ks
    ]


@dataclass(frozen=True, eq=False)
class MatchReport(Report):
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


def _gt_overlaps(anchors: AnchorSet, boxes: np.ndarray):
    """Yield ``(indices, ious)`` for the candidate anchors of each (G, 4) box.

    An anchor can overlap a box only if its centre lies within its
    half-extents of the box. On each level the candidates are the cells
    whose centres lie within the level's largest anchor half-extents,
    padded by one cell on each side against rounding, found from the
    grid layout ``LevelAnchors`` documents; every other anchor has IoU 0
    with the box. Indices ascend over the set's anchors, levels in order,
    and only the candidates' corners are built, by
    ``LevelAnchors.cell_boxes``, the one anchor formula; so memory stays
    O(candidates) per box. A candidate may still score IoU 0.
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
        row_start = lv.start + np.arange(lv.fmap_h) * (lv.fmap_w * len(lv.half))
        levels.append((lv, row_start))
        ranges.append(np.concatenate([lo, hi], axis=1))
    ranges = np.stack(ranges, axis=1)
    for g in range(len(boxes)):
        idx, corners = [], []
        for (lv, row_start), (x0, y0, x1, y1) in zip(levels, ranges[g].tolist()):
            # a row of cells is one contiguous run of anchor indices
            runs = row_start[y0:y1, None] + np.arange(x0 * len(lv.half), x1 * len(lv.half))
            idx.append(runs.ravel())
            corners.append(lv.cell_boxes(x0, x1, y0, y1).reshape(-1, 4))
        yield np.concatenate(idx), iou_matrix(np.concatenate(corners), boxes[g])[:, 0]


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending: ``np.unique(values)`` by a sort.

    A bare ``np.unique`` imports ``numpy.ma`` on NumPy 2.4, some 8-16 ms
    of every ``match`` process, where its ``return_*`` forms and a sort do not.
    """
    values = np.sort(values)
    first = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def match_anchors(
    anchors: AnchorSet,
    ds: Dataset,
    pos_iou: float = 0.7,
    neg_iou: float = 0.3,
    force_match: bool = False,
) -> MatchReport:
    """Label anchors positive/negative/ignored against a dataset's ground truth.

    Every image of ``ds`` gets the same anchor geometry, so ``n_anchors``
    is ``anchors.total`` times the number of images, with or without GTs.
    An anchor is positive when its best IoU over its image's non-ignore
    GTs reaches ``pos_iou``, negative when below ``neg_iou``, ignored in
    between. An anchor that would be negative but overlaps an
    ignore-flagged GT at ``neg_iou`` or more is ignored instead of
    negative. With ``force_match`` each GT claims its single best anchor
    (ties to the lowest anchor index) as positive even below the
    threshold, if that IoU is above 0. The thresholds are real numbers,
    not bools, with ``0 < neg_iou <= pos_iou <= 1``, and ``force_match``
    is a bool; anything else, or ``anchors`` or ``ds`` not an ``AnchorSet``
    or ``Dataset``, is a ``ValidationError``. So an anchor with IoU 0, which does not overlap
    the GT, never matches it.

    A GT counts as recalled when at least one positive anchor reaches
    ``pos_iou`` with it (or claims it via force matching); ignore-flagged
    GTs never enter the recall denominator.

    Only images with GTs are matched. IoU is computed only between each
    GT and the anchors of the grid cells it can reach, and labels are
    counted from those candidates: the positives are the distinct
    candidates at ``pos_iou`` plus the forced claims, and the negatives
    are every anchor of every image outside its positives and its
    candidates at ``neg_iou`` of any GT, live or ignore-flagged. Memory
    per image is O(candidates) for A anchors and G GTs, with no
    per-anchor array and no A x G matrix. A level with more than
    ``MAX_EDGE_ANCHORS`` anchors along one side of its grid fails, naming
    the level, before anything is allocated.
    """
    if not isinstance(anchors, AnchorSet):
        raise ValidationError(f"anchors must be an AnchorSet, got {type(anchors).__name__}")
    if not isinstance(ds, Dataset):
        raise ValidationError(f"ds must be a Dataset, got {type(ds).__name__}")
    pos_iou = check_real("pos_iou", pos_iou)
    neg_iou = check_real("neg_iou", neg_iou)
    if not 0.0 < neg_iou <= pos_iou <= 1.0:
        raise ValidationError(
            f"need 0 < neg_iou <= pos_iou <= 1, got {neg_iou}, {pos_iou}"
        )
    if not isinstance(force_match, bool):
        raise ValidationError(f"force_match must be a bool, got {force_match!r}")
    for level, lv in enumerate(anchors.levels):
        side = max(lv.fmap_w, lv.fmap_h)
        if side * len(lv.half) > MAX_EDGE_ANCHORS:
            raise ValidationError(
                f"level {level} has {side} cells x {len(lv.half)} anchors along one side, "
                f"past MAX_EDGE_ANCHORS = {MAX_EDGE_ANCHORS}"
            )
    gts = ds.columns

    n_positive = n_not_negative = 0
    matched = np.zeros(len(gts), dtype=np.int64)  # per live GT row: its positive anchors
    for rows in group_rows(gts.image_id).values():
        crowd = gts.ignore[rows]
        positive = [np.zeros(0, dtype=np.int64)]  # anchors at pos_iou and claims, repeats allowed
        kept = []  # candidates at neg_iou of any GT, which cannot be negative
        overlaps = _gt_overlaps(anchors, gts.boxes[rows])
        for g, ignore, (idx, vals) in zip(rows.tolist(), crowd.tolist(), overlaps):
            kept.append(idx[vals >= neg_iou])
            if ignore:
                continue  # a crowd GT only keeps its overlaps from being negative
            hit = vals >= pos_iou
            matched[g] = np.count_nonzero(hit)
            positive.append(idx[hit])
            if force_match and vals.size and vals.max() > 0:
                a = int(np.argmax(vals))  # candidates ascend, so ties go to the lowest index
                positive.append(idx[[a]])  # a copy: a view would keep all of idx alive
                matched[g] += int(vals[a] < pos_iou)
        positive = _distinct(np.concatenate(positive))
        n_positive += positive.size
        n_not_negative += _distinct(np.concatenate([positive] + kept)).size

    is_live = ~gts.ignore
    counts = matched[is_live]
    recalled = counts >= 1
    classes, class_row = np.unique(gts.category_id[is_live], return_inverse=True)
    total_by_class = np.bincount(class_row, minlength=len(classes))
    recalled_by_class = np.bincount(class_row[recalled], minlength=len(classes))
    n_gt = len(counts)
    zero_denom = n_gt == 0
    values, freq = np.unique(counts, return_counts=True)
    n_anchors = anchors.total * len(ds.images)
    n_negative = n_anchors - n_not_negative
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
