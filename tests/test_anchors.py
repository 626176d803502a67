import gc
import itertools
import json
import math
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from detforge import anchors as anchors_module
from detforge.anchors import (
    AnchorSpec,
    MatchReport,
    cluster_anchor_sizes,
    generate_anchors,
    match_anchors,
    sweep_k,
)
from detforge.annotations import Instance
from detforge.errors import BadExtent, TooFewBoxes, ValidationError
from detforge.geometry import BBox, WhIouBlock, iou_matrix, wh_iou_matrix
from oracles import columns_of, same_bits, synthetic_aerial_corpus


class TestAnchorSpec:
    def test_defaults_are_valid(self):
        spec = AnchorSpec()
        assert len(spec.sizes) == len(spec.strides) == 5

    def test_angles_fold_onto_half_circle(self):
        assert AnchorSpec().effective_angles == (0.0, 90.0)
        assert AnchorSpec(angles=(0.0,)).effective_angles == (0.0,)
        assert AnchorSpec(angles=(180.0,)).effective_angles == (0.0,)
        assert AnchorSpec(angles=(270.0, 90.0)).effective_angles == (90.0,)

    def test_sizes_at_level(self):
        spec = AnchorSpec(sizes=(8, 16), strides=(4, 8))
        assert spec.sizes_at(0) == (8.0,)
        assert spec.sizes_at(1) == (16.0,)
        shared = AnchorSpec(sizes=(8, 16, 32), strides=(4, 8), shared_sizes=True)
        assert shared.sizes_at(1) == (8.0, 16.0, 32.0)

    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            AnchorSpec(sizes=(0.0,), strides=(4,))
        with pytest.raises(ValidationError):
            AnchorSpec(aspect_ratios=(1.0, -2.0))
        with pytest.raises(ValidationError):
            AnchorSpec(angles=(45.0,))
        with pytest.raises(ValidationError):
            AnchorSpec(offset=1.0)
        with pytest.raises(ValidationError):
            AnchorSpec(sizes=(16, 32), strides=(4, 8, 16))

    @pytest.mark.parametrize("sizes, ratios, message", [
        ((math.nan,), (1.0,), "sizes must be finite and positive, got [nan]"),
        ((math.inf,), (1.0,), "sizes must be finite and positive, got [inf]"),
        ((16.0,), (1.0, math.nan), "aspect ratios must be finite and positive, got [1.0, nan]"),
        ((16.0,), (-math.inf,), "aspect ratios must be finite and positive, got [-inf]"),
        ((1e155,), (1.0,), "the anchor of size 1e+155 and ratio 1.0 has a non-finite extent or area"),
        ((1e150,), (1.0, 1e-320), "the anchor of size 1e+150 and ratio 1e-320 has a non-finite "
                                  "extent or area"),
        ((1.0, 1e200), (1e300,), "the anchor of size 1e+200 and ratio 1e+300 has a non-finite "
                                 "extent or area"),
    ])
    def test_rejects_non_finite_anchors(self, sizes, ratios, message):
        with pytest.raises(ValidationError) as exc:
            AnchorSpec(sizes=sizes, aspect_ratios=ratios, strides=(4,) * len(sizes))
        assert str(exc.value) == message

    @pytest.mark.parametrize("stride, message", [
        (4.5, "strides must be an integer, got 4.5"),
        (True, "strides must be an integer, got True"),
        (0, "strides must be at least 1, got 0"),
    ])
    def test_strides_are_positive_integers(self, stride, message):
        """A float stride once built the grid of its truncation without a word."""
        with pytest.raises(ValidationError) as exc:
            AnchorSpec(strides=(stride, 8, 16, 32, 64))
        assert str(exc.value) == message

    def test_largest_finite_anchors_are_accepted(self):
        # s * s just below the float maximum, and a ratio that keeps both extents finite
        spec = AnchorSpec(sizes=(1.3e154,), aspect_ratios=(1e-300, 1e300), strides=(4,))
        anchors = generate_anchors(spec, [(1, 1)])
        assert np.isfinite(anchors.levels[0].half).all()


def row_layout(spec, level):
    """Each row's cell (i, j), size, ratio and angle, as ``LevelAnchors`` documents them."""
    sizes, ratios, angles = spec.sizes_at(level.level), spec.aspect_ratios, spec.effective_angles
    n_ratio, n_angle = len(ratios), len(angles)
    assert level.n_combo == len(sizes) * n_ratio * n_angle
    cell, combo = np.divmod(np.arange(level.count), level.n_combo)
    return (
        np.stack([cell % level.fmap_w, cell // level.fmap_w], axis=1),
        np.array(sizes)[combo // (n_ratio * n_angle)],
        np.array(ratios)[combo // n_angle % n_ratio],
        np.array(angles)[combo % n_angle],
    )


class TestGenerateAnchors:
    def test_two_by_two_grid(self):
        spec = AnchorSpec(sizes=(16,), aspect_ratios=(1.0,), angles=(0.0,), strides=(4,))
        out = generate_anchors(spec, [(2, 2)])
        level = out.levels[0]
        assert out.total == 4
        np.testing.assert_array_equal(level.boxes[0], [-6.0, -6.0, 10.0, 10.0])
        # row-major walk, y outer
        cells = row_layout(spec, level)[0]
        assert cells.tolist() == [[0, 0], [1, 0], [0, 1], [1, 1]]
        centers = (level.boxes[:, :2] + level.boxes[:, 2:]) / 2.0
        assert centers.tolist() == [[2, 2], [6, 2], [2, 6], [6, 6]]

    @pytest.mark.parametrize("dims, message", [
        ([(2.7, 2.7)] * 5, "level 0 feature map width must be an integer, got 2.7"),
        ([(2, 2)] * 4 + [(2, False)], "level 4 feature map height must be an integer, got False"),
        ([(2, 2), (3, 0)] + [(2, 2)] * 3, "level 1 feature map height must be at least 1, got 0"),
    ])
    def test_feature_map_sizes_are_positive_integers(self, dims, message):
        """A float size once built the map of its truncation (2.7 -> 2x2) without a word."""
        with pytest.raises(ValidationError) as exc:
            generate_anchors(AnchorSpec(), dims)
        assert str(exc.value) == message
        # NumPy integers are integers
        assert generate_anchors(AnchorSpec(), [(np.int64(2), np.int32(3))] * 5).total == 180

    def test_ratio_family_preserves_area(self):
        spec = AnchorSpec(sizes=(16,), aspect_ratios=(0.5, 1.0, 2.0), angles=(0.0,), strides=(4,))
        out = generate_anchors(spec, [(1, 1)])
        boxes = out.levels[0].boxes
        assert boxes.shape[0] == 3
        w = boxes[:, 2] - boxes[:, 0]
        h = boxes[:, 3] - boxes[:, 1]
        np.testing.assert_allclose(w * h, 256.0, rtol=1e-9)
        assert sorted((h / w).round(9).tolist()) == [0.5, 1.0, 2.0]

    def test_right_angles_collapse_to_one_swap(self):
        spec = AnchorSpec(sizes=(16,), aspect_ratios=(2.0,), angles=(-90.0, 0.0, 90.0), strides=(4,))
        out = generate_anchors(spec, [(1, 1)])
        boxes = out.levels[0].boxes
        assert boxes.shape[0] == 2
        w = boxes[:, 2] - boxes[:, 0]
        h = boxes[:, 3] - boxes[:, 1]
        # the 90-degree anchor is the 0-degree one with sides swapped
        assert w[1] == pytest.approx(h[0], rel=1e-12)
        assert h[1] == pytest.approx(w[0], rel=1e-12)

    def test_count_formula_per_level(self):
        spec = AnchorSpec()
        dims = [(math.ceil(256 / s), math.ceil(256 / s)) for s in spec.strides]
        out = generate_anchors(spec, dims)
        for level, (fw, fh) in zip(out.levels, dims):
            expected = fw * fh * 1 * len(spec.aspect_ratios) * len(spec.effective_angles)
            assert level.count == expected
        assert out.total == sum(lv.count for lv in out.levels)

    def test_shared_sizes_multiplies_the_count(self):
        spec = AnchorSpec(shared_sizes=True)
        out = generate_anchors(spec, [(4, 4)] * 5)
        assert out.levels[0].count == 4 * 4 * 5 * 3 * 2

    @pytest.mark.parametrize(
        "spec",
        [AnchorSpec(), AnchorSpec(shared_sizes=True, offset=0.25)],
        ids=["default", "shared_sizes"],
    )
    def test_size_and_ratio_hold_for_every_anchor(self, spec):
        dims = [(math.ceil(192 / s), math.ceil(160 / s)) for s in spec.strides]
        out = generate_anchors(spec, dims)
        for level in out.levels:
            cells, sizes, ratios, angles = row_layout(spec, level)
            w = level.boxes[:, 2] - level.boxes[:, 0]
            h = level.boxes[:, 3] - level.boxes[:, 1]
            np.testing.assert_allclose(w * h, sizes**2, rtol=1e-6)
            measured = np.where(angles == 0.0, h / w, w / h)
            np.testing.assert_allclose(measured, ratios, rtol=1e-9)
            centers = (level.boxes[:, :2] + level.boxes[:, 2:]) / 2.0
            np.testing.assert_allclose(centers, (cells + spec.offset) * level.stride)

    def test_offset_moves_the_center(self):
        spec = AnchorSpec(sizes=(16,), aspect_ratios=(1.0,), angles=(0.0,), strides=(4,), offset=0.0)
        out = generate_anchors(spec, [(1, 1)])
        np.testing.assert_array_equal(out.levels[0].boxes[0], [-8.0, -8.0, 8.0, 8.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            generate_anchors(AnchorSpec(), [(10, 10)])
        spec = AnchorSpec(sizes=(16,), strides=(4,))
        with pytest.raises(ValidationError):
            generate_anchors(spec, [(0, 4)])

    def test_all_boxes_concatenates_levels(self):
        spec = AnchorSpec(sizes=(16, 32), aspect_ratios=(1.0,), angles=(0.0,), strides=(4, 8))
        out = generate_anchors(spec, [(2, 2), (1, 1)])
        assert out.all_boxes().shape == (5, 4)

    def test_levels_are_read_only_views_of_one_array(self):
        spec = AnchorSpec()
        out = generate_anchors(spec, _image_dims(spec, 100, 60))
        boxes = out.all_boxes()
        for level in out.levels:
            np.testing.assert_array_equal(
                level.boxes, boxes[level.start:level.start + level.count]
            )
            with pytest.raises(ValueError):
                level.boxes[-1] = 0.0
        assert [lv.start for lv in out.levels] == list(
            np.cumsum([0] + [lv.count for lv in out.levels[:-1]])
        )
        with pytest.raises(ValueError):
            boxes[0, 0] = 1.0


def oracle_generate_boxes(spec, fmap_dims):
    """The eager fill ``generate_anchors`` made before boxes became lazy.

    Every level's corners are written into one (A, 4) array at once, from
    the cell centres plus or minus each combo's half-extents.
    """
    eff_angles = spec.effective_angles
    halves = [
        np.array([
            (s / np.sqrt(r), s * np.sqrt(r)) if a == 0.0 else (s * np.sqrt(r), s / np.sqrt(r))
            for s in spec.sizes_at(level)
            for r in spec.aspect_ratios
            for a in eff_angles
        ]) / 2.0
        for level in range(len(fmap_dims))
    ]
    boxes = np.empty((sum(fw * fh * len(h) for (fw, fh), h in zip(fmap_dims, halves)), 4))
    start = 0
    for stride, (fw, fh), half in zip(spec.strides, fmap_dims, halves):
        stop = start + fw * fh * len(half)
        grid = boxes[start:stop].reshape(fh, fw, len(half), 4)
        cx = ((np.arange(fw) + spec.offset) * stride)[None, :, None]
        cy = ((np.arange(fh) + spec.offset) * stride)[:, None, None]
        grid[..., 0] = cx - half[:, 0]
        grid[..., 1] = cy - half[:, 1]
        grid[..., 2] = cx + half[:, 0]
        grid[..., 3] = cy + half[:, 1]
        start = stop
    return boxes


class TestLazyAnchorBoxes:
    SPECS = [
        AnchorSpec(),
        AnchorSpec(shared_sizes=True, sizes=(12, 40), offset=0.25),
        AnchorSpec(offset=0.0, angles=(0.0,), strides=(5, 11, 23, 40, 70)),
        AnchorSpec(sizes=(7.3,), aspect_ratios=(0.2, 1.0, 3.0), strides=(3,), offset=0.7),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=["default", "shared", "odd_strides", "one_level"])
    def test_all_boxes_equal_the_eager_fill_bit_for_bit(self, spec):
        dims = _image_dims(spec, 203, 131)
        got = generate_anchors(spec, dims).all_boxes()
        want = oracle_generate_boxes(spec, dims)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_all_boxes_is_built_once_and_read_only(self, monkeypatch):
        spec = AnchorSpec()
        out = generate_anchors(spec, _image_dims(spec, 100, 60))
        calls = []
        fill = anchors_module.LevelAnchors.cell_boxes

        def counted(self, *args, **kwargs):
            calls.append(self.level)
            return fill(self, *args, **kwargs)

        monkeypatch.setattr(anchors_module.LevelAnchors, "cell_boxes", counted)
        boxes = out.all_boxes()
        assert calls == [lv.level for lv in out.levels]
        out.all_boxes()
        assert calls == [lv.level for lv in out.levels] * 2  # one fill per level per call
        assert not boxes.flags.writeable
        assert all(not lv.half.flags.writeable for lv in out.levels)

    def test_boxes_are_freed_with_their_set(self):
        # no reference cycle keeps the corner array alive until a collection
        spec = AnchorSpec()
        gc.disable()
        try:
            out = generate_anchors(spec, _image_dims(spec, 100, 60))
            boxes = weakref.ref(out.all_boxes())
            level_boxes = weakref.ref(out.levels[0].boxes)
            del out
            assert boxes() is None and level_boxes() is None
        finally:
            gc.enable()

    def test_layout_needs_no_boxes(self, monkeypatch):
        def refuse(self):
            raise AssertionError("anchor boxes built")

        monkeypatch.setattr(anchors_module.AnchorSet, "all_boxes", refuse)
        monkeypatch.setattr(anchors_module.LevelAnchors, "boxes", property(refuse))
        spec = AnchorSpec(shared_sizes=True)
        out = generate_anchors(spec, _image_dims(spec, 300, 200))
        assert out.total == sum(lv.count for lv in out.levels)
        gts = [gt(1, 1, 1, 10, 10, 60, 40), gt(2, 1, 1, 0, 0, 300, 200, ignore=True)]
        assert match_anchors(out, columns_of(gts), 0.5, 0.3, force_match=True).n_gt == 1

    def test_cell_boxes_are_rows_of_all_boxes(self):
        spec = AnchorSpec(offset=0.25, aspect_ratios=(0.2, 1.0, 3.0))
        out = generate_anchors(spec, _image_dims(spec, 90, 70))
        for lv in out.levels:
            x0, x1, y0, y1 = lv.fmap_w // 3, lv.fmap_w, lv.fmap_h // 2, lv.fmap_h
            block = lv.cell_boxes(x0, x1, y0, y1)
            assert block.shape == (y1 - y0, x1 - x0, lv.n_combo, 4)
            rows = lv.boxes.reshape(lv.fmap_h, lv.fmap_w, lv.n_combo, 4)[y0:y1, x0:x1]
            assert block.tobytes() == np.ascontiguousarray(rows).tobytes()


class TestClustering:
    def test_one_centroid_per_box_is_perfect(self):
        boxes = [(10, 20), (30, 15), (50, 50)]
        result = cluster_anchor_sizes(boxes, k=3, seed=0)
        assert result.mean_iou == 1.0
        assert sorted(map(tuple, result.centroids.tolist())) == sorted(boxes)

    def test_two_separable_blobs(self):
        boxes = [(10, 10)] * 5 + [(100, 100)] * 5
        result = cluster_anchor_sizes(boxes, k=2, seed=0)
        assert list(map(tuple, result.centroids.tolist())) == [(10.0, 10.0), (100.0, 100.0)]
        assert result.mean_iou == 1.0
        # area-ascending centroid order puts the small blob first
        assert result.assignments.tolist() == [0] * 5 + [1] * 5

    def test_degenerate_identical_boxes(self):
        result = cluster_anchor_sizes([(7, 7)] * 5, k=2, seed=0)
        assert result.mean_iou == 1.0
        assert set(result.assignments.tolist()) <= {0, 1}

    def test_assignments_maximize_iou(self):
        corpus = synthetic_aerial_corpus(n=200, seed=5)
        result = cluster_anchor_sizes(corpus, k=4, seed=1, restarts=3)
        wh, cents = corpus, result.centroids
        iou = wh_iou_matrix(wh, cents)
        chosen = iou[np.arange(len(wh)), result.assignments]
        np.testing.assert_allclose(chosen, iou.max(axis=1), rtol=0, atol=1e-15)

    def test_reported_mean_iou_matches_recomputation(self):
        corpus = synthetic_aerial_corpus(n=150, seed=6)
        result = cluster_anchor_sizes(corpus, k=3, seed=2)
        wh, cents = corpus, result.centroids
        again = wh_iou_matrix(wh, cents)[np.arange(len(wh)), result.assignments].mean()
        assert abs(result.mean_iou - again) <= 1e-12

    def test_centroids_sorted_by_area(self):
        corpus = synthetic_aerial_corpus(n=300, seed=9)
        result = cluster_anchor_sizes(corpus, k=5, seed=0)
        areas = [w * h for w, h in result.centroids.tolist()]
        assert areas == sorted(areas)

    def test_centroids_are_a_read_only_array(self):
        corpus = synthetic_aerial_corpus(n=120, seed=8)
        assert corpus.shape == (120, 2) and corpus.dtype == np.float64
        result = cluster_anchor_sizes(corpus, k=4, seed=3)
        assert result.centroids.shape == (4, 2) and result.centroids.dtype == np.float64
        with pytest.raises(ValueError):
            result.centroids[0, 0] = 1.0
        assert result.to_dict()["centroids"] == result.centroids.tolist()

    def test_deterministic_for_fixed_seed(self):
        corpus = synthetic_aerial_corpus(n=120, seed=8)
        a = cluster_anchor_sizes(corpus, k=4, seed=3).to_dict()
        b = cluster_anchor_sizes(corpus, k=4, seed=3).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_more_restarts_never_hurt(self):
        corpus = synthetic_aerial_corpus(n=250, seed=10)
        one = cluster_anchor_sizes(corpus, k=4, seed=0, restarts=1).mean_iou
        ten = cluster_anchor_sizes(corpus, k=4, seed=0, restarts=10).mean_iou
        assert ten >= one

    def test_array_input_matches_box_input(self):
        corpus = synthetic_aerial_corpus(n=80, seed=12)
        a = cluster_anchor_sizes(corpus.tolist(), k=3, seed=4).to_dict()
        b = cluster_anchor_sizes(corpus, k=3, seed=4).to_dict()
        assert a == b

    def test_greedy_assignment_beats_any_other_labeling(self):
        """With centroids held fixed, max-IoU assignment is optimal."""
        rng = np.random.default_rng(20)
        wh = rng.uniform(1.0, 120.0, size=(60, 2))
        cents = rng.uniform(1.0, 120.0, size=(4, 2))
        iou = wh_iou_matrix(wh, cents)
        best = iou.max(axis=1).mean()
        for _ in range(25):
            shuffled = iou[np.arange(60), rng.integers(0, 4, size=60)].mean()
            assert best >= shuffled

    def test_too_few_boxes(self):
        with pytest.raises(TooFewBoxes):
            cluster_anchor_sizes([(5, 5)], k=2)

    def test_rejects_bad_parameters(self):
        boxes = [(5, 5), (9, 9)]
        with pytest.raises(ValidationError):
            cluster_anchor_sizes(boxes, k=0)
        with pytest.raises(ValidationError):
            cluster_anchor_sizes(boxes, k=1, restarts=0)

    @pytest.mark.parametrize("name", ["k", "restarts", "max_iters", "seed"])
    @pytest.mark.parametrize("value", [2.5, 1.0, True, False, "1", None])
    def test_non_integer_counts_rejected(self, name, value):
        args = {"k": 1, "restarts": 1, "max_iters": 5, "seed": 0, name: value}
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got "):
            cluster_anchor_sizes([(5, 5), (9, 9)], **args)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="^seed must be at least 0, got -1$"):
            cluster_anchor_sizes([(5, 5), (9, 9)], k=1, seed=-1)

    @pytest.mark.parametrize("name, what, bound", [
        ("restarts", "restarts", "MAX_RESTARTS"), ("max_iters", "iterations", "MAX_ITERS"),
    ])
    def test_counts_past_their_bound_fail_before_seeding(self, monkeypatch, name, what, bound):
        def refuse(*args, **kwargs):
            raise AssertionError("seeded")

        monkeypatch.setattr(anchors_module, "_plus_plus_init", refuse)
        limit = getattr(anchors_module, bound)
        for value in (limit + 1, 2**70):
            with pytest.raises(ValidationError, match=f"^{value} {what} pass {bound} = {limit}$"):
                cluster_anchor_sizes([(5, 5), (9, 9)], k=1, **{name: value})

    def test_counts_at_their_bound_run(self):
        # four boxes settle after one update, far inside MAX_ITERS
        boxes = [(5, 5), (6, 5), (40, 40), (41, 42)]
        many = cluster_anchor_sizes(boxes, k=2, restarts=anchors_module.MAX_RESTARTS,
                                    max_iters=anchors_module.MAX_ITERS)
        assert many.to_dict() == cluster_anchor_sizes(boxes, k=2, restarts=1).to_dict()

    def test_numpy_integer_counts_accepted(self):
        corpus = synthetic_aerial_corpus(n=60, seed=17)
        a = cluster_anchor_sizes(corpus, k=np.int64(3), seed=np.uint8(2), restarts=np.int32(2),
                                 max_iters=np.int16(20)).to_dict()
        b = cluster_anchor_sizes(corpus, k=3, seed=2, restarts=2, max_iters=20).to_dict()
        assert json.dumps(a) == json.dumps(b)


class TestSweep:
    def test_single_k_identical_boxes(self):
        assert sweep_k([(4, 4)] * 3, [1]) == [(1, 1.0)]

    def test_two_blobs_improve_with_second_centroid(self):
        boxes = [(10, 10)] * 5 + [(100, 100)] * 5
        pairs = sweep_k(boxes, [1, 2], seed=0)
        assert pairs[0][0] == 1 and pairs[1][0] == 2
        assert pairs[1][1] > pairs[0][1]

    def test_output_sorted_even_for_unsorted_range(self):
        corpus = synthetic_aerial_corpus(n=60, seed=14)
        pairs = sweep_k(corpus, [3, 1, 2], seed=0, restarts=2)
        assert [k for k, _ in pairs] == [1, 2, 3]

    def test_empty_range_rejected(self):
        with pytest.raises(ValidationError):
            sweep_k([(4, 4)], [])

    @pytest.mark.parametrize("k_range", [[2.5, 3], [True, 3], [3, "2"], [3, 2.0]])
    def test_non_integer_k_rejected(self, k_range):
        with pytest.raises(ValidationError, match="^k must be an integer, got "):
            sweep_k([(4, 4), (8, 8), (2, 9)], k_range)

    @pytest.mark.parametrize("extra", [{"seed": -1}, {"restarts": True}, {"max_iters": 1.5}])
    def test_bad_arguments_rejected(self, extra):
        with pytest.raises(ValidationError):
            sweep_k([(4, 4), (8, 8)], [1, 2], **extra)


def oracle_wh_iou_matrix(wh1, wh2):
    """The original wh-IoU body: one (N, M, 2) broadcast and a product."""
    wh1 = np.asarray(wh1, dtype=np.float64).reshape(-1, 2)
    wh2 = np.asarray(wh2, dtype=np.float64).reshape(-1, 2)
    inter = np.minimum(wh1[:, None, :], wh2[None, :, :]).prod(axis=2)
    return inter / (wh1.prod(axis=1)[:, None] + wh2.prod(axis=1) - inter)


def oracle_lloyd(wh, centroids, max_iters):
    """The original Lloyd loop: one mask and row mean per cluster.

    Reference for ``anchors._lloyd``, whose output must equal this one's
    bit for bit. The mean IoU of each box with its centroid is computed
    afresh after the loop, as ``cluster_anchor_sizes`` once did.
    """
    k = centroids.shape[0]
    assignment = np.argmax(oracle_wh_iou_matrix(wh, centroids), axis=1)
    iterations = 1
    for _ in range(max_iters):
        for c in range(k):
            mask = assignment == c
            if mask.any():
                centroids[c] = wh[mask].mean(axis=0)
        iou = oracle_wh_iou_matrix(wh, centroids)
        occupied = np.bincount(assignment, minlength=k) > 0
        if not occupied.all():
            dist = 1.0 - iou[np.arange(len(wh)), assignment]
            for c in np.flatnonzero(~occupied):
                worst = int(np.argmax(dist))
                centroids[c] = wh[worst]
                dist[worst] = -1.0
            iou = oracle_wh_iou_matrix(wh, centroids)
        new_assignment = np.argmax(iou, axis=1)
        iterations += 1
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
    mean_iou = float(oracle_wh_iou_matrix(wh, centroids)[np.arange(len(wh)), assignment].mean())
    return centroids, assignment, iterations, mean_iou


def oracle_plus_plus_init(wh, k, rng):
    """The original k-means++ seeding, with (n, 1) IoU columns.

    Reference for ``anchors._plus_plus_init``, which must choose the same
    boxes from the same stream.
    """
    n = wh.shape[0]
    chosen = [int(rng.integers(n))]
    best_iou = oracle_wh_iou_matrix(wh, wh[chosen[-1]][None, :])[:, 0]
    for _ in range(k - 1):
        d = 1.0 - best_iou
        total = d.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d / total))
        else:
            idx = int(rng.integers(n))
        chosen.append(idx)
        best_iou = np.maximum(best_iou, oracle_wh_iou_matrix(wh, wh[idx][None, :])[:, 0])
    return wh[chosen].copy()


def _block_wh(block):
    """The (n, 2) boxes a ``WhIouBlock`` was built on."""
    return np.stack([block.w, block.h], axis=1)


@pytest.fixture()
def oracle_clustering(monkeypatch):
    """Swap the original seeding and Lloyd loop into the anchors module.

    Both run on the original wh-IoU body, over the boxes of the block
    ``cluster_anchor_sizes`` passes them.
    """
    def patch():
        monkeypatch.setattr(anchors_module, "_plus_plus_init", lambda block, k, rng: (
            oracle_plus_plus_init(_block_wh(block), k, rng)))
        monkeypatch.setattr(anchors_module, "_lloyd", lambda block, centroids, max_iters: (
            oracle_lloyd(_block_wh(block), centroids, max_iters)))
    return patch


def _random_wh(rng, n):
    """Aerial-like extents; some rounded to whole pixels so sizes repeat."""
    wh = rng.lognormal(mean=3.0, sigma=0.9, size=(n, 2))
    rounded = rng.random(n) < 0.5
    wh[rounded] = np.maximum(np.round(wh[rounded]), 1.0)
    return wh


def _integer_wh(rng, n):
    """Whole-pixel extents from a small range, so many IoUs tie exactly."""
    return rng.integers(1, 8, size=(n, 2)).astype(np.float64)


def _duplicate_wh(rng, n):
    """A few distinct boxes, each repeated many times."""
    distinct = _random_wh(rng, int(rng.integers(1, 6)))
    return distinct[rng.integers(0, len(distinct), size=n)]


def _elongated_wh(rng, n):
    """Thin boxes in both orientations, as ships and bridges seen from above.

    A box and its transpose have equal IoU with any square centroid, so
    assignments tie across orientations.
    """
    long_side = np.round(rng.uniform(8, 120, size=n))
    short_side = np.maximum(np.round(long_side / rng.uniform(3, 10, size=n)), 1.0)
    wh = np.stack([long_side, short_side], axis=1)
    swapped = rng.random(n) < 0.5
    wh[swapped] = wh[swapped, ::-1]
    return wh


def _first_max_oracle(iou):
    return np.argmax(iou.T, axis=1)


class TestFirstMax:
    def test_random_blocks_with_planted_ties(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            k, n = int(rng.integers(1, 12)), int(rng.integers(1, 200))
            iou = rng.random((k, n))
            # copy each column's maximum onto other rows of some columns
            cols = np.flatnonzero(rng.random(n) < 0.4)
            top = iou.max(axis=0)
            for c in cols:
                iou[rng.integers(0, k, size=int(rng.integers(1, k + 1))), c] = top[c]
            np.testing.assert_array_equal(anchors_module._first_max(iou),
                                          _first_max_oracle(iou))

    def test_single_row(self):
        iou = np.random.default_rng(41).random((1, 30))
        assert anchors_module._first_max(iou).tolist() == [0] * 30

    @pytest.mark.parametrize("k", [1, 2, 9, 255, 256, 300])
    def test_all_equal_columns_pick_row_zero(self, k):
        iou = np.full((k, 7), 0.25)
        iou[:, 3] = 0.0
        got = anchors_module._first_max(iou)
        assert got.tolist() == [0] * 7
        np.testing.assert_array_equal(got, _first_max_oracle(iou))

    @pytest.mark.parametrize("k", [255, 256, 300])
    def test_last_row_wins_past_the_small_integer_range(self, k):
        iou = np.zeros((k, 3))
        iou[k - 1, 0] = 1.0
        iou[[k - 2, k - 1], 1] = 1.0
        got = anchors_module._first_max(iou)
        assert got.tolist() == [k - 1, k - 2, 0]
        assert got.dtype == np.intp


class TestVectorizedClusteringMatchesOracle:
    def test_wh_iou_matrix_is_bit_identical(self):
        rng = np.random.default_rng(30)
        extreme = np.array([
            [1e-6, 1e6], [1e6, 1e-6], [1e-300, 1e300], [3.0, 3.0], [3.0, 3.0],
            [5e-324, 1.0], [1.0, 1e300], [0.1, 0.2], [0.2, 0.1], [7.0, 1.0],
        ])
        for wh1, wh2 in [
            (extreme, extreme),
            (rng.lognormal(3.0, 2.0, size=(200, 2)), rng.lognormal(3.0, 2.0, size=(9, 2))),
            (np.round(rng.uniform(1, 6, size=(50, 2))), np.round(rng.uniform(1, 6, size=(7, 2)))),
            (rng.uniform(1, 50, size=(1, 2)), rng.uniform(1, 50, size=(40, 2))),
            (np.array([4.0, 9.0]), np.array([[4.0, 9.0], [9.0, 4.0]])),
            ([[2, 8]], [[2, 8], [8, 2]]),
        ]:
            np.testing.assert_array_equal(wh_iou_matrix(wh1, wh2), oracle_wh_iou_matrix(wh1, wh2))

    @pytest.mark.parametrize("max_iters", [0, 1, 100])
    @pytest.mark.parametrize("corpus", [_random_wh, _integer_wh, _duplicate_wh, _elongated_wh])
    def test_cluster_reports_equal_the_oracle(self, oracle_clustering, max_iters, corpus):
        rng = np.random.default_rng(39 + max_iters)
        cases = []
        for _ in range(12):
            n = int(rng.integers(2, 300))
            k = int(rng.integers(1, min(n, 9) + 1))
            cases.append((corpus(rng, n), k, int(rng.integers(0, 1000)),
                          int(rng.integers(1, 4))))
        got = [cluster_anchor_sizes(wh, k, seed=seed, max_iters=max_iters, restarts=r).to_dict()
               for wh, k, seed, r in cases]
        oracle_clustering()
        want = [cluster_anchor_sizes(wh, k, seed=seed, max_iters=max_iters, restarts=r).to_dict()
                for wh, k, seed, r in cases]
        assert got == want

    def test_sweep_equals_the_oracle(self, oracle_clustering):
        corpus = synthetic_aerial_corpus(n=400, seed=15)
        got = sweep_k(corpus, range(1, 8), seed=2, restarts=3)
        oracle_clustering()
        assert sweep_k(corpus, range(1, 8), seed=2, restarts=3) == got

    def test_empty_cluster_reseed_equals_the_oracle(self, oracle_clustering):
        # 3 distinct sizes for k=6: seeding must repeat a size, and a repeated
        # centroid loses every tie to its twin, so its cluster starts empty
        wh = np.array([[4.0, 4.0], [4.0, 9.0], [20.0, 11.0]] * 7)
        got = cluster_anchor_sizes(wh, 6, seed=1, restarts=4).to_dict()

        # the restarts above, run one by one
        starts = [anchors_module._plus_plus_init(WhIouBlock(wh), 6, np.random.default_rng([1, r]))
                  for r in range(4)]
        calls = []

        class CountingBlock(WhIouBlock):
            def __call__(self, wh1):
                calls.append(1)
                return super().__call__(wh1)

        reseeds = []
        for start in starts:
            calls.clear()
            out = anchors_module._lloyd(CountingBlock(wh), start.copy(), 100)
            want = oracle_lloyd(wh, start.copy(), 100)
            assert len(out) == len(want) == 4
            for a, b in zip(out, want):
                np.testing.assert_array_equal(a, b)
            # one IoU block per iteration, plus one per iteration that re-seeds
            reseeds.append(len(calls) - out[2])
        assert min(reseeds) >= 1

        oracle_clustering()
        assert cluster_anchor_sizes(wh, 6, seed=1, restarts=4).to_dict() == got

    def test_anchor_design_sized_input_equals_the_oracle(self, oracle_clustering):
        corpus = synthetic_aerial_corpus(n=3000, seed=16)
        got = cluster_anchor_sizes(corpus, 9, seed=0, restarts=2).to_dict()
        oracle_clustering()
        assert cluster_anchor_sizes(corpus, 9, seed=0, restarts=2).to_dict() == got

    def test_lloyd_at_the_iteration_cap_equals_the_oracle(self):
        wh = synthetic_aerial_corpus(n=10_000, seed=3)
        block = WhIouBlock(wh)
        start = anchors_module._plus_plus_init(block, 9, np.random.default_rng([0, 0]))
        assert same_bits(start, oracle_plus_plus_init(wh, 9, np.random.default_rng([0, 0])))
        out = anchors_module._lloyd(block, start.copy(), 30)
        want = oracle_lloyd(wh, start.copy(), 30)
        assert out[2] == want[2] == 31  # the cap, plus the initial assignment
        for a, b in zip(out, want, strict=True):
            np.testing.assert_array_equal(a, b)


def _halved_wh_iou(a, b):
    """The wh-IoU of two extents, with halved terms where the union overflows."""
    inter = min(a[0], b[0]) * min(a[1], b[1])
    area1, area2 = a[0] * a[1], b[0] * b[1]
    if math.isinf(area1 + area2):
        half = inter * 0.5
        return half / (area1 * 0.5 + area2 * 0.5 - half)
    return inter / (area1 + area2 - inter)


class TestWhIouBlock:
    def test_random_extents_equal_the_oracle(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            boxes = _random_wh(rng, int(rng.integers(1, 400)))
            cents = rng.lognormal(3.0, 2.0, size=(int(rng.integers(1, 12)), 2))
            assert same_bits(WhIouBlock(boxes)(cents), oracle_wh_iou_matrix(cents, boxes))

    def test_one_block_serves_changing_centroid_sets(self):
        rng = np.random.default_rng(51)
        boxes = _random_wh(rng, 300)
        block = WhIouBlock(boxes)
        # k grows, shrinks and grows past the first buffers
        for k in (9, 9, 3, 12, 1, 12, 5):
            cents = rng.lognormal(3.0, 1.0, size=(k, 2))
            got = block(cents)
            assert same_bits(got, oracle_wh_iou_matrix(cents, boxes))
            assert same_bits(block(cents), got.copy())  # a repeat gives the same bits

    def test_single_centroid(self):
        rng = np.random.default_rng(52)
        boxes = _random_wh(rng, 50)
        block = WhIouBlock(boxes)
        for cents in (boxes[7], boxes[7:8], [[3.0, 5.0]]):
            got = block(cents)
            assert got.shape == (1, 50)
            assert same_bits(got, oracle_wh_iou_matrix(cents, boxes))
        assert block(boxes[7])[0, 7] == 1.0

    def test_overflow_range_near_the_largest_float(self):
        big = np.finfo(np.float64).max
        boxes = np.array([[big, 1.0], [1.0, big / 2], [1e154, 1.7e154], [3.0, 4.0],
                          [big / 3, 2.0], [1e-300, 1e300]])
        cents = np.array([[big, 1.0], [5.0, 2.0], [1e154, 1.7e154], [big / 4, 3.9]])
        want = np.array([[_halved_wh_iou(c, b) for b in boxes.tolist()] for c in cents.tolist()])
        block = WhIouBlock(boxes)
        for _ in range(2):  # the overflow path leaves nothing behind for the fast path
            assert same_bits(block(cents), want)
            assert same_bits(block(cents[1:2]), want[1:2])
        assert block(cents)[0, 0] == block(cents)[2, 2] == 1.0
        with np.errstate(over="ignore"):
            finite = np.isfinite((cents[:, 0] * cents[:, 1])[:, None] + boxes[:, 0] * boxes[:, 1])
            plain = oracle_wh_iou_matrix(cents, boxes)
        assert finite.any() and not finite.all()
        assert same_bits(block(cents)[finite], plain[finite])


class TestNonFiniteExtents:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejected_before_clustering(self, bad):
        wh = np.array([[bad, 3.0], [4.0, 5.0], [6.0, 7.0]])
        with pytest.raises(ValidationError, match="widths and heights must be finite"):
            cluster_anchor_sizes(wh, k=2)
        with pytest.raises(ValidationError, match="must be finite"):
            cluster_anchor_sizes(wh[:, ::-1], k=2)

    def test_infinite_boxwh_rejected(self):
        with pytest.raises(ValidationError, match="must be finite"):
            cluster_anchor_sizes([(math.inf, 3.0), (4.0, 5.0)], k=1)

    def test_sweep_rejects_nan(self):
        with pytest.raises(ValidationError, match="must be finite"):
            sweep_k([[math.nan, 3.0], [4.0, 5.0]], [1])


class TestBoxExtentsNeedAPositiveFiniteArea:
    @pytest.mark.parametrize("bad, reason", [
        ([1e-200, 1e-200], "w \\* h must be a positive finite float"),
        ([1e200, 1e200], "w \\* h must be a positive finite float"),
        ([5e-324, 0.5], "w \\* h must be a positive finite float"),
        ([0.0, 4.0], "widths and heights must be positive"),
        ([-2.0, -3.0], "widths and heights must be positive"),
        ([math.nan, 4.0], "widths and heights must be finite"),
    ])
    def test_error_names_the_first_bad_row(self, bad, reason):
        wh = np.array([[3.0, 4.0], [5.0, 6.0], bad, [7.0, 8.0], bad])
        with pytest.raises(BadExtent, match=f"^box 2: {reason}, got w=") as info:
            cluster_anchor_sizes(wh, k=3)
        assert info.value.row == 2
        with pytest.raises(BadExtent, match="^box 2: "):
            sweep_k(wh.tolist(), [1, 2])

    def test_extreme_but_representable_areas_cluster(self):
        # every area is finite, though a mean centroid's area overflows to inf
        wh = np.array([[1e300, 1e-300], [1e-300, 1e300], [1e-160, 1e-160], [3.0, 4.0]])
        for k in (1, 2, 3):
            result = cluster_anchor_sizes(wh, k=k, restarts=3)
            assert 0.0 <= result.mean_iou <= 1.0
            json.dumps(result.to_dict(), allow_nan=False)

    def test_cluster_sum_past_the_float_range_gives_a_finite_mean(self):
        # 1e308 + 1e308 overflows; the mean of the three widths does not
        result = cluster_anchor_sizes([[1e308, 1e-300], [1e308, 1e-300], [3, 4]], 1)
        ((w, h),) = result.centroids.tolist()
        assert w == 1e308 / 3 + 1e308 / 3 + 3 / 3
        assert h == (1e-300 + 1e-300 + 4) / 3  # a finite sum keeps its bits
        json.dumps(result.to_dict(), allow_nan=False)

    def test_identical_huge_boxes_have_mean_iou_one(self):
        # each area is finite, but two of them sum past the float range
        result = cluster_anchor_sizes([[1.7e308, 1]] * 3, 1)
        assert tuple(result.centroids[0].tolist()) == (1.7e308, 1.0)
        assert result.mean_iou == 1.0

    def test_finite_sums_keep_the_bincount_mean(self):
        wh = np.array([[1e307, 2.0], [3e307, 5.0], [7.0, 1e-300], [2.0, 2.0]])
        result = cluster_anchor_sizes(wh, 1, restarts=1)
        assert tuple(result.centroids[0].tolist()) == (
            (1e307 + 3e307 + 7.0 + 2.0) / 4, (2.0 + 5.0 + 1e-300 + 2.0) / 4
        )


class TestOneBlockPerClustering:
    @pytest.mark.parametrize("restarts", [1, 4])
    def test_seeding_and_every_restart_share_one_block(self, monkeypatch, restarts):
        built = []

        class CountingBlock(WhIouBlock):
            def __init__(self, wh):
                built.append(len(wh))
                super().__init__(wh)

        monkeypatch.setattr(anchors_module, "WhIouBlock", CountingBlock)
        corpus = synthetic_aerial_corpus(n=300, seed=18)
        cluster_anchor_sizes(corpus, 5, restarts=restarts)
        assert built == [300]
        built.clear()
        sweep_k(corpus, [1, 3, 6], restarts=restarts)
        assert built == [300] * 3  # one per k


class _LeftoverBox:
    """A box object with ``w`` and ``h`` attributes, which NumPy cannot read as floats."""

    def __init__(self, w, h):
        self.w, self.h = w, h


class TestUnreadableBoxInput:
    @pytest.mark.parametrize("boxes, kind", [
        ([_LeftoverBox(4.0, 5.0), _LeftoverBox(6.0, 7.0)], "list"),
        ([[4.0, 5.0], [6.0]], "list"),
        ([["w", "h"], [6.0, 7.0]], "list"),
        ([{"w": 4.0, "h": 5.0}], "list"),
        ([[4.0 + 1j, 5.0]], "list"),
        ([[10 ** 400, 5.0]], "list"),
        (np.array([[_LeftoverBox(4.0, 5.0), 5.0]], dtype=object), "ndarray"),
        ((pair for pair in [[4.0, 5.0]]), "generator"),
    ])
    def test_one_line_validation_error(self, boxes, kind):
        with pytest.raises(ValidationError) as info:
            cluster_anchor_sizes(boxes, k=1)
        assert str(info.value) == (
            f"boxes must be (n, 2) width/height numbers; NumPy cannot read this {kind} as floats"
        )

    def test_sweep_reports_the_same_error(self):
        with pytest.raises(ValidationError, match="^boxes must be \\(n, 2\\) width/height"):
            sweep_k([_LeftoverBox(4.0, 5.0)], [1])


class TestSweepPassesClusterOptions:
    @pytest.mark.parametrize("max_iters", [0, 1, 3])
    def test_each_k_equals_cluster_anchor_sizes(self, max_iters):
        corpus = synthetic_aerial_corpus(n=200, seed=17)
        got = sweep_k(corpus, [2, 3, 5], seed=4, restarts=2, max_iters=max_iters)
        assert got == [
            (k, cluster_anchor_sizes(corpus, k, seed=4, restarts=2, max_iters=max_iters).mean_iou)
            for k in (2, 3, 5)
        ]
        assert got != sweep_k(corpus, [2, 3, 5], seed=4, restarts=2)

    def test_rejects_bad_options(self):
        boxes = [(5, 5), (9, 9)]
        with pytest.raises(ValidationError, match="max_iters"):
            sweep_k(boxes, [1], max_iters=-1)

    @pytest.mark.parametrize("option", [{"restarts": 2**70}, {"max_iters": 2**70}])
    def test_counts_past_their_bound_fail_before_any_clustering(self, monkeypatch, option):
        def refuse(*args, **kwargs):
            raise AssertionError("clustered")

        monkeypatch.setattr(anchors_module, "_lloyd", refuse)
        with pytest.raises(ValidationError, match=" pass MAX_"):
            sweep_k(synthetic_aerial_corpus(n=50, seed=1), range(2, 6), **option)

    def test_too_many_ks_fail_before_any_clustering(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("clustered")

        monkeypatch.setattr(anchors_module, "cluster_anchor_sizes", refuse)
        n = anchors_module.MAX_SWEEP_KS + 1
        with pytest.raises(ValidationError, match=f"^{n} values of k pass MAX_SWEEP_KS = {n - 1}$"):
            sweep_k([(5, 5)], range(1, n + 1))


def dense_match_anchors(anchors, gts, pos_iou=0.7, neg_iou=0.3, force_match=False):
    """The original matcher: one dense (A, G) IoU matrix per image.

    Reference for ``match_anchors``, whose output must equal this one's
    exactly; it needs O(A * G) memory, so only small fixtures can use it.
    """
    anchor_boxes = anchors.all_boxes()
    n_per_image = anchor_boxes.shape[0]

    groups = {}
    for inst in gts:
        groups.setdefault(inst.image_id, []).append(inst)

    n_positive = n_negative = n_ignored = 0
    recalled_by_class = Counter()
    total_by_class = Counter()
    per_gt_counts = []
    unmatched = []

    for image_id in sorted(groups) if groups else [None]:
        insts = groups.get(image_id, [])
        live = [i for i in insts if not i.ignore]
        ignored_insts = [i for i in insts if i.ignore]

        if live:
            gt_arr = np.array([i.bbox.as_tuple() for i in live])
            iou = iou_matrix(anchor_boxes, gt_arr)  # (A, G)
            max_iou = iou.max(axis=1)
        else:
            iou = np.zeros((n_per_image, 0))
            max_iou = np.zeros(n_per_image)

        positive = max_iou >= pos_iou
        matched_counts = (iou >= pos_iou).sum(axis=0) if live else np.zeros(0, dtype=int)

        if force_match and live:
            for g in range(len(live)):
                a = int(np.argmax(iou[:, g]))
                if not positive[a]:
                    positive[a] = True
                if iou[a, g] < pos_iou:
                    matched_counts[g] += 1

        negative = ~positive & (max_iou < neg_iou)
        if ignored_insts and negative.any():
            ign_arr = np.array([i.bbox.as_tuple() for i in ignored_insts])
            ign_max = iou_matrix(anchor_boxes, ign_arr).max(axis=1)
            negative &= ign_max < neg_iou

        n_positive += int(positive.sum())
        n_negative += int(negative.sum())
        n_ignored += n_per_image - int(positive.sum()) - int(negative.sum())

        for inst, count in zip(live, matched_counts):
            per_gt_counts.append(int(count))
            total_by_class[inst.category_id] += 1
            if count >= 1:
                recalled_by_class[inst.category_id] += 1
            else:
                unmatched.append(inst.id)

    n_gt = sum(total_by_class.values())
    zero_denom = n_gt == 0
    recall = 1.0 if zero_denom else sum(recalled_by_class.values()) / n_gt
    per_class_recall = {
        c: recalled_by_class[c] / total_by_class[c] for c in sorted(total_by_class)
    }
    n_images = max(1, len(groups))
    return MatchReport(
        pos_iou=pos_iou,
        neg_iou=neg_iou,
        force_match=force_match,
        n_anchors=n_per_image * n_images,
        n_positive=n_positive,
        n_negative=n_negative,
        n_ignored=n_ignored,
        n_gt=n_gt,
        recall=recall,
        per_class_recall=per_class_recall,
        matched_per_gt=dict(sorted(Counter(per_gt_counts).items())),
        unmatched_gt_ids=tuple(sorted(unmatched)),
        zero_gt_denominator=zero_denom,
    )


def small_grid(size=16, stride=4, fmap=(4, 4)):
    spec = AnchorSpec(sizes=(size,), aspect_ratios=(1.0,), angles=(0.0,), strides=(stride,))
    return generate_anchors(spec, [fmap])


def gt(inst_id, image_id, cat, x0, y0, x1, y1, ignore=False):
    box = BBox(float(x0), float(y0), float(x1), float(y1))
    return Instance(inst_id, image_id, cat, box, box.area, ignore)


class TestMatching:
    def test_anchor_shaped_gt_is_recalled_at_threshold_one(self):
        anchors = small_grid()
        # cell (1, 1) center (6, 6): the 16x16 anchor there spans [-2, 14]
        report = match_anchors(anchors, columns_of([gt(1, 1, 1, -2, -2, 14, 14)]),
                               pos_iou=1.0, neg_iou=0.3)
        assert report.recall == 1.0
        assert report.n_gt == 1
        assert report.unmatched_gt_ids == ()

    def test_counts_partition_the_anchor_set(self):
        anchors = small_grid()
        gts = [gt(1, 1, 1, 0, 0, 16, 16), gt(2, 1, 2, 4, 4, 12, 12)]
        report = match_anchors(anchors, columns_of(gts), pos_iou=0.5, neg_iou=0.2)
        assert report.n_positive + report.n_negative + report.n_ignored == report.n_anchors
        assert report.n_anchors == anchors.total

    def test_two_images_double_the_anchor_total(self):
        anchors = small_grid()
        gts = [gt(1, 1, 1, 0, 0, 16, 16), gt(2, 2, 1, 0, 0, 16, 16)]
        report = match_anchors(anchors, columns_of(gts), pos_iou=0.5, neg_iou=0.2)
        assert report.n_anchors == 2 * anchors.total

    @pytest.mark.parametrize("field", ["id", "image_id", "category_id"])
    def test_id_past_int64_is_a_one_line_error(self, field):
        ids = {"id": 1, "image_id": 1, "category_id": 1, field: 2**63}
        gts = [gt(2, 1, 1, 0, 0, 8, 8), gt(ids["id"], ids["image_id"], ids["category_id"],
                                          0, 0, 16, 16)]
        with pytest.raises(ValidationError,
                           match=rf"^instance column '{field}' holds a value out of int64 range$"):
            match_anchors(small_grid(), columns_of(gts))

    def test_no_ground_truth_convention(self):
        anchors = small_grid()
        report = match_anchors(anchors, columns_of([]))
        assert report.recall == 1.0
        assert report.zero_gt_denominator is True
        assert report.n_negative == report.n_anchors == anchors.total

    def test_zero_positive_threshold_claims_everything(self):
        anchors = small_grid()
        report = match_anchors(anchors, columns_of([gt(1, 1, 1, 0, 0, 8, 8)]),
                               pos_iou=0.0, neg_iou=0.0)
        assert report.n_positive == report.n_anchors

    def test_threshold_order_enforced(self):
        anchors = small_grid()
        gts = [gt(1, 1, 1, 0, 0, 8, 8)]
        with pytest.raises(ValidationError):
            match_anchors(anchors, columns_of(gts), pos_iou=0.3, neg_iou=0.7)
        with pytest.raises(ValidationError):
            match_anchors(anchors, columns_of(gts), pos_iou=1.2, neg_iou=0.3)

    def test_a_level_past_the_edge_bound_is_named(self, monkeypatch):
        gts = [gt(1, 1, 1, 0, 0, 16, 16)]
        # one anchor per cell: the bound counts cells along the longer side
        monkeypatch.setattr(anchors_module, "MAX_EDGE_ANCHORS", 8)
        assert match_anchors(small_grid(fmap=(8, 3)), columns_of(gts)).n_gt == 1
        assert match_anchors(small_grid(fmap=(3, 8)), columns_of(gts)).n_gt == 1
        with pytest.raises(ValidationError, match=r"^level 0 has 9 cells x 1 anchors along "
                                                  r"one side, past MAX_EDGE_ANCHORS = 8$"):
            match_anchors(small_grid(fmap=(3, 9)), columns_of(gts))
        # three anchors per cell: 2 x 3 fits on level 0, 3 x 3 does not on level 1
        spec = AnchorSpec(sizes=(16.0, 32.0), angles=(0.0,), strides=(4, 8))
        with pytest.raises(ValidationError, match=r"^level 1 has 3 cells x 3 anchors along "):
            match_anchors(generate_anchors(spec, [(2, 2), (3, 1)]), columns_of(gts))

    @pytest.mark.parametrize("side", [(1 << 21) + 1, 10**10, 25 * 10**21])
    def test_a_grid_too_large_to_lay_out_fails_before_allocating(self, side):
        anchors = small_grid(fmap=(1, side))
        gts = columns_of([gt(1, 1, 1, 0, 0, 16, 16)])
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=rf"^level 0 has {side} cells x 1 anchors "
                                                      r"along one side, past MAX_EDGE_ANCHORS = "
                                                      r"2097152$"):
                match_anchors(anchors, gts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_a_grid_at_the_edge_bound_is_matched(self):
        assert anchors_module.MAX_EDGE_ANCHORS == 1 << 21
        report = match_anchors(small_grid(fmap=(1 << 21, 1)), columns_of([]))
        assert report.n_anchors == report.n_negative == 1 << 21

    def test_force_match_rescues_a_stranded_gt(self):
        anchors = small_grid()
        stranded = gt(1, 1, 1, 0, 0, 3, 3)  # IoU with every 16x16 anchor is tiny
        plain = match_anchors(anchors, columns_of([stranded]), pos_iou=0.7, neg_iou=0.3)
        assert plain.recall == 0.0
        assert plain.unmatched_gt_ids == (1,)

        forced = match_anchors(anchors, columns_of([stranded]), pos_iou=0.7, neg_iou=0.3,
                               force_match=True)
        assert forced.recall == 1.0
        assert forced.n_positive == plain.n_positive + 1
        assert forced.matched_per_gt == {1: 1}

    def test_ignore_gt_neither_counts_nor_pollutes_negatives(self):
        anchors = small_grid()
        crowd = gt(1, 1, 1, -2, -2, 14, 14, ignore=True)
        live = gt(2, 1, 1, 0, 0, 16, 16)
        report = match_anchors(anchors, columns_of([crowd, live]), pos_iou=0.99, neg_iou=0.3)
        assert report.n_gt == 1
        # anchors overlapping the crowd region sit out instead of training as background
        assert report.n_ignored > 0
        assert report.n_positive + report.n_negative + report.n_ignored == report.n_anchors

    def test_matched_histogram_accounts_for_every_gt(self):
        anchors = small_grid()
        gts = [gt(1, 1, 1, 0, 0, 16, 16), gt(2, 1, 2, 30, 30, 46, 46), gt(3, 2, 1, 1, 1, 2, 2)]
        report = match_anchors(anchors, columns_of(gts), pos_iou=0.5, neg_iou=0.2)
        assert sum(report.matched_per_gt.values()) == report.n_gt == 3

    def test_per_class_recall_splits_by_category(self):
        anchors = small_grid()
        gts = [gt(1, 1, 1, 0, 0, 16, 16), gt(2, 1, 2, 1, 1, 3, 3)]
        report = match_anchors(anchors, columns_of(gts), pos_iou=0.5, neg_iou=0.2)
        assert report.per_class_recall == {1: 1.0, 2: 0.0}
        assert report.recall == 0.5

    def test_small_anchor_size_recalls_small_objects(self):
        """A 16-anchor grid recovers a 14x14 box that a 32 grid cannot."""
        target = columns_of([gt(1, 1, 1, 30, 30, 44, 44)])
        fine = match_anchors(small_grid(size=16, fmap=(16, 16)), target, pos_iou=0.5, neg_iou=0.3)
        coarse = match_anchors(small_grid(size=32, fmap=(16, 16)), target, pos_iou=0.5, neg_iou=0.3)
        assert fine.recall == 1.0
        assert coarse.recall == 0.0

    def test_agrees_with_direct_reimplementation(self):
        rng = np.random.default_rng(33)
        anchors = small_grid(size=12, stride=6, fmap=(5, 5))
        boxes = anchors.all_boxes()
        for trial in range(10):
            gts = []
            for i in range(int(rng.integers(1, 8))):
                x0, y0 = rng.uniform(0, 24, size=2)
                w, h = rng.uniform(2, 18, size=2)
                gts.append(
                    gt(i + 1, int(rng.integers(1, 3)), 1, x0, y0, x0 + w, y0 + h,
                       ignore=bool(rng.random() < 0.2))
                )
            pos_thr, neg_thr = 0.5, 0.3
            report = match_anchors(anchors, columns_of(gts), pos_iou=pos_thr, neg_iou=neg_thr)

            n_pos = n_neg = n_ign = 0
            recalled = 0
            n_live = 0
            for image_id in {g.image_id for g in gts}:
                live = [g for g in gts if g.image_id == image_id and not g.ignore]
                crowd = [g for g in gts if g.image_id == image_id and g.ignore]
                if live:
                    iou = iou_matrix(boxes, np.array([g.bbox.as_tuple() for g in live]))
                    best = iou.max(axis=1)
                    recalled += int(((iou >= pos_thr).sum(axis=0) >= 1).sum())
                    n_live += len(live)
                else:
                    iou = np.zeros((boxes.shape[0], 0))
                    best = np.zeros(boxes.shape[0])
                pos = best >= pos_thr
                neg = ~pos & (best < neg_thr)
                if crowd.__len__() and neg.any():
                    ign_best = iou_matrix(
                        boxes, np.array([g.bbox.as_tuple() for g in crowd])
                    ).max(axis=1)
                    neg &= ign_best < neg_thr
                n_pos += int(pos.sum())
                n_neg += int(neg.sum())
                n_ign += boxes.shape[0] - int(pos.sum()) - int(neg.sum())

            assert report.n_positive == n_pos
            assert report.n_negative == n_neg
            assert report.n_ignored == n_ign
            if n_live:
                assert report.recall == recalled / n_live

    def test_report_serializes_with_string_keys(self):
        anchors = small_grid()
        report = match_anchors(anchors, columns_of([gt(1, 1, 1, 0, 0, 16, 16)]),
                               pos_iou=0.5, neg_iou=0.2)
        blob = json.loads(json.dumps(report.to_dict()))
        assert blob["n_anchors"] == anchors.total
        assert all(isinstance(k, str) for k in blob["per_class_recall"])
        assert all(isinstance(k, str) for k in blob["matched_per_gt"])


def _image_dims(spec, width, height, scale=1.0):
    """Feature-map sizes for an image; ``scale`` < 1 leaves its far side uncovered."""
    return [
        (max(1, math.ceil(scale * width / s)), max(1, math.ceil(scale * height / s)))
        for s in spec.strides
    ]


def _random_gts(rng, width, height, n_images):
    """Boxes of many sizes, some on the border, some zero-area, some ignored,
    and one per image far from every anchor."""
    gts = []
    for image_id in range(1, n_images + 1):
        for _ in range(int(rng.integers(1, 12))):
            w, h = rng.uniform(1, 0.6 * width), rng.uniform(1, 0.6 * height)
            x0, y0 = rng.uniform(-0.1 * width, width), rng.uniform(-0.1 * height, height)
            kind = rng.random()
            if kind < 0.15:  # touches the border
                x0, y0 = 0.0, height - h
            elif kind < 0.25:
                w = 0.0
            elif kind < 0.3:
                h = 0.0
            x0, y0 = min(max(x0, 0.0), width), min(max(y0, 0.0), height)
            x1, y1 = min(x0 + w, width), min(y0 + h, height)
            gts.append(gt(len(gts) + 1, image_id, int(rng.integers(1, 4)), x0, y0, x1, y1,
                          ignore=bool(rng.random() < 0.2)))
        gts.append(gt(len(gts) + 1, image_id, 1, -5000, -5000, -4990, -4990))
    return gts


class TestMatchingAgainstDenseOracle:
    # (0.02, 0.01) makes anchors that barely touch a GT decide the labels
    THRESHOLDS = ((0.7, 0.3), (0.5, 0.4), (0.0, 0.0), (0.3, 0.0), (1.0, 0.5), (0.02, 0.01))

    @pytest.mark.parametrize(
        "spec, scale",
        [
            (AnchorSpec(), 1.0),
            (AnchorSpec(shared_sizes=True, sizes=(12, 40)), 1.0),
            (AnchorSpec(offset=0.0, angles=(0.0,), strides=(5, 11, 23, 40, 70)), 1.0),
            (AnchorSpec(offset=0.25, aspect_ratios=(0.2, 1.0, 3.0)), 0.6),
        ],
        ids=["default", "shared_sizes", "offset_0_odd_strides", "offset_0.25_partial_fmaps"],
    )
    def test_reports_equal_the_dense_path(self, spec, scale):
        rng = np.random.default_rng(spec.strides[0] + int(100 * scale) + len(spec.sizes))
        width, height = 160, 120
        anchors = generate_anchors(spec, _image_dims(spec, width, height, scale))
        for _ in range(3):
            gts = _random_gts(rng, width, height, n_images=int(rng.integers(1, 4)))
            for (pos, neg), force in itertools.product(self.THRESHOLDS, (False, True)):
                want = dense_match_anchors(anchors, gts, pos, neg, force_match=force)
                got = match_anchors(anchors, columns_of(gts), pos, neg, force_match=force)
                assert got.to_dict() == want.to_dict(), (force, pos, neg)

    def test_gt_overlapping_no_anchor_claims_anchor_zero(self):
        anchors = small_grid()
        far = gt(1, 1, 1, 500, 500, 510, 510)
        on_anchor_zero = gt(2, 1, 1, -6, -6, 10, 10)
        for gts in ([far], [far, on_anchor_zero]):
            for pos in (0.0, 0.5, 1.0):
                got = match_anchors(anchors, columns_of(gts), pos, 0.0, force_match=True)
                want = dense_match_anchors(anchors, gts, pos, 0.0, force_match=True)
                assert got.to_dict() == want.to_dict()
        # anchor 0 is already positive, so the far GT's claim adds no anchor
        assert match_anchors(anchors, columns_of([far, on_anchor_zero]), 1.0, 0.0,
                             force_match=True).n_positive == 1

    def test_non_finite_boxes_rejected(self):
        anchors = small_grid()
        bad = Instance(1, 1, 1, BBox(0.0, 0.0, float("nan"), 4.0), 0.0, False)
        with pytest.raises(ValidationError):
            match_anchors(anchors, columns_of([bad]))
        # an ignore GT is checked too, even where no anchor is negative and
        # its overlaps are never needed
        bad_crowd = Instance(2, 1, 1, BBox(0.0, float("nan"), 4.0, 4.0), 0.0, True)
        with pytest.raises(ValidationError, match="finite"):
            match_anchors(anchors, columns_of([gt(1, 1, 1, 0, 0, 8, 8), bad_crowd]),
                          pos_iou=0.0, neg_iou=0.0)


class TestSparseCountEdges:
    """Label counts from candidates alone, against the dense oracle where the
    count has to reason about anchors outside every candidate set."""

    FAR = (-5000, -5000, -4990, -4990)  # reaches no anchor

    CASES = {
        # a forced claim of anchor 0 by a GT that reaches no anchor
        "far_gt_claims_anchor_zero": [gt(1, 1, 1, *FAR)],
        "far_claim_beside_a_live_gt": [gt(1, 1, 1, *FAR), gt(2, 1, 2, 20, 20, 30, 30)],
        "crowd_only_image": [gt(1, 1, 1, 0, 0, 16, 16, ignore=True),
                             gt(2, 1, 1, 8, 4, 30, 12, ignore=True)],
        "crowd_only_beside_a_live_image": [gt(1, 1, 1, 0, 0, 16, 16, ignore=True),
                                           gt(2, 2, 1, 2, 2, 14, 14)],
        "live_gts_reach_no_anchor": [gt(1, 1, 1, *FAR), gt(2, 1, 1, 900, 900, 910, 910),
                                     gt(3, 1, 1, 0, 0, 16, 16, ignore=True)],
    }
    THRESHOLDS = ((0.7, 0.3), (0.5, 0.5), (0.3, 0.3), (1.0, 1.0), (0.02, 0.01), (0.3, 0.0),
                  (0.0, 0.0))

    @pytest.mark.parametrize("case", list(CASES))
    def test_reports_equal_the_dense_path(self, case):
        anchors = small_grid()
        gts = self.CASES[case]
        for (pos, neg), force in itertools.product(self.THRESHOLDS, (False, True)):
            want = dense_match_anchors(anchors, gts, pos, neg, force_match=force)
            got = match_anchors(anchors, columns_of(gts), pos, neg, force_match=force)
            assert got.to_dict() == want.to_dict(), (pos, neg, force)

    def test_claimed_anchor_zero_is_positive_not_negative(self):
        anchors = small_grid()
        report = match_anchors(anchors, columns_of([gt(1, 1, 1, *self.FAR)]), 0.7, 0.3,
                               force_match=True)
        assert (report.n_positive, report.n_negative, report.n_ignored) == (1, anchors.total - 1, 0)
        assert report.matched_per_gt == {1: 1}

    @pytest.mark.parametrize("spec", [AnchorSpec(), AnchorSpec(offset=0.25, shared_sizes=True)],
                             ids=["default", "shared_sizes"])
    def test_equal_thresholds_on_random_scenes(self, spec):
        rng = np.random.default_rng(51)
        anchors = generate_anchors(spec, _image_dims(spec, 160, 120))
        for _ in range(3):
            gts = _random_gts(rng, 160, 120, n_images=2)
            for thr, force in itertools.product((0.1, 0.4, 0.7), (False, True)):
                want = dense_match_anchors(anchors, gts, thr, thr, force_match=force)
                got = match_anchors(anchors, columns_of(gts), thr, thr, force_match=force)
                assert got.to_dict() == want.to_dict(), (thr, force)


def test_memory_is_bounded_without_a_dense_matrix():
    # One aerial scene with 1,000 small objects on the default 1024^2 grid
    # (A = 523,776 anchors). Dense matching needs a float64 (A, G) matrix,
    # ~4.2 GB, plus temporaries of the same shape, ~27 GB in all. The
    # matcher holds no per-anchor array: it builds only each GT's candidate
    # corners, a few thousand anchors, and counts labels from the candidate
    # indices at each threshold, ~70,000 here, so its peak is about one
    # unit of A * 8 bytes, most of it the Instance-to-column conversion and
    # those index runs. A bound of 1.5 units leaves allocator slack, yet one
    # more length-A float array (1 unit), the old max-IoU pair and label
    # masks (2.25 units) or a copy of all anchor boxes (4 units) exceed it.
    spec = AnchorSpec()
    anchors = generate_anchors(spec, _image_dims(spec, 1024, 1024))
    n_anchors = anchors.total
    rng = np.random.default_rng(7)
    xy = rng.uniform(0, 1000, size=(1000, 2))
    wh = rng.uniform(6, 48, size=(1000, 2))
    gts = [
        gt(i + 1, 1, 1, x, y, min(x + w, 1024), min(y + h, 1024), ignore=i % 10 == 0)
        for i, ((x, y), (w, h)) in enumerate(zip(xy, wh))
    ]
    tracemalloc.start()
    try:
        report = match_anchors(anchors, columns_of(gts), pos_iou=0.5, neg_iou=0.3,
                               force_match=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_gt == 900
    assert peak < 1.5 * n_anchors * 8, f"peak {peak / 2**20:.1f} MiB"


def test_aerial_scene_matches_in_candidate_memory():
    # One 4000x3000 aerial scene on the default grid: A = 5,995,266 anchors,
    # whose corner array alone is 183 MiB and one max-IoU array 46 MiB.
    # Laying out the anchors and matching 400 small objects, 10% crowd,
    # peaks near 3 MiB; 32 MiB leaves room for allocator slack, not for
    # any per-anchor array.
    spec = AnchorSpec()
    rng = np.random.default_rng(11)
    xy = rng.uniform(0, 1, size=(400, 2)) * [3950, 2950]
    wh = rng.uniform(6, 64, size=(400, 2))
    gts = columns_of([
        gt(i + 1, 1, 1 + i % 3, x, y, min(x + w, 4000), min(y + h, 3000), ignore=i % 10 == 0)
        for i, ((x, y), (w, h)) in enumerate(zip(xy, wh))
    ])
    dims = _image_dims(spec, 4000, 3000)
    tracemalloc.start()
    try:
        anchors = generate_anchors(spec, dims)
        report = match_anchors(anchors, gts, pos_iou=0.5, neg_iou=0.3, force_match=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert anchors.total == 5_995_266
    assert report.n_anchors == anchors.total and report.n_gt == 360
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_generate_anchors_allocates_one_box_array():
    # The default 1024^2 grid (A = 523,776 anchors). ``generate_anchors``
    # builds only the layout, a few small arrays per level, so its peak
    # stays below 0.05 units of A * 8 bytes. The first ``all_boxes()`` call
    # allocates the one (A, 4) corner array (4 units) and fills it in place
    # from per-level column and row tables of O(fmap_w + fmap_h) rows; a
    # bound of 4.5 units leaves allocator slack, yet a second copy of the
    # boxes (4 more units) or one per-anchor temporary of a level's size
    # (0.75 units for the stride-4 level) exceeds it.
    spec = AnchorSpec()
    dims = _image_dims(spec, 1024, 1024)
    tracemalloc.start()
    try:
        anchors = generate_anchors(spec, dims)
        layout_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        anchors.all_boxes()
        boxes_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_anchors = anchors.total
    assert n_anchors == 523_776
    assert layout_peak < 0.05 * n_anchors * 8, f"layout peak {layout_peak / 2**20:.2f} MiB"
    assert boxes_peak < 4.5 * n_anchors * 8, f"peak {boxes_peak / 2**20:.1f} MiB"
