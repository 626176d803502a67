import contextlib
import io
import json
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import detforge
from detforge import augment, cli
from detforge.augment import (
    AUG1_SHORT_EDGES,
    AUG2_SHORT_EDGES,
    AUG3_CROP_SIZE,
    AUG3_OUT_SIZE,
    RECORD_PARAMS,
    AugmentationPipeline,
    ImageGeom,
    hflip,
    replay,
    short_edge_resize,
)
from detforge.errors import ValidationError
from detforge.geometry import BBox, iou_matrix
from oracles import bits


def round_trip(records):
    """Records through JSON text and back, as the CLI stores them."""
    return json.loads(json.dumps(records))


FIXTURE = np.array([
    [0.0, 0.0, 10.0, 10.0],
    [100.0, 50.0, 180.0, 90.0],
    [395.0, 295.0, 405.0, 305.0],
    [640.0, 10.0, 790.0, 160.0],
    [20.0, 500.0, 70.0, 590.0],
])
GEOM = ImageGeom(800, 600)


def random_boxes(rng, geom, n=12, min_side=2.0):
    out = []
    for _ in range(n):
        x0 = rng.uniform(0, geom.width - min_side)
        y0 = rng.uniform(0, geom.height - min_side)
        x1 = rng.uniform(x0 + min_side, geom.width)
        y1 = rng.uniform(y0 + min_side, geom.height)
        out.append((x0, y0, x1, y1))
    return np.array(out)


def widths(boxes):
    return boxes[:, 2] - boxes[:, 0]


def heights(boxes):
    return boxes[:, 3] - boxes[:, 1]


class TestHFlip:
    def test_corner_example(self):
        out = hflip([[0, 0, 10, 10]], ImageGeom(800, 600))
        assert out.dtype == np.float64
        assert out.tolist() == [[790.0, 0.0, 800.0, 10.0]]

    def test_involution_exact_on_integer_coordinates(self):
        twice = hflip(hflip(FIXTURE, GEOM), GEOM)
        assert bits(twice) == bits(FIXTURE)

    def test_involution_on_fractional_coordinates(self):
        rng = np.random.default_rng(40)
        boxes = random_boxes(rng, GEOM, n=50)
        twice = hflip(hflip(boxes, GEOM), GEOM)
        assert np.max(np.abs(twice - boxes)) <= 1e-12

    def test_centered_box_is_fixed_point(self):
        centered = [[390.0, 100.0, 410.0, 200.0]]
        assert hflip(centered, GEOM).tolist() == centered

    def test_pairwise_ious_preserved(self):
        flipped = hflip(FIXTURE, GEOM)
        np.testing.assert_array_equal(iou_matrix(FIXTURE, FIXTURE), iou_matrix(flipped, flipped))

    def test_y_untouched(self):
        out = hflip(FIXTURE, GEOM)
        assert bits(out[:, 1::2]) == bits(FIXTURE[:, 1::2])

    def test_input_is_not_modified(self):
        boxes = FIXTURE.copy()
        hflip(boxes, GEOM)
        assert bits(boxes) == bits(FIXTURE)


class TestShortEdgeResize:
    def test_matching_target_is_identity(self):
        out, geom = short_edge_resize(FIXTURE, GEOM, 600)
        assert bits(out) == bits(FIXTURE)
        assert geom == GEOM

    def test_eighty_percent_scale(self):
        boxes, geom = short_edge_resize([[0, 0, 10, 10]], ImageGeom(800, 800), 640)
        assert geom == ImageGeom(640, 640)
        np.testing.assert_allclose(boxes[0], (0.0, 0.0, 8.0, 8.0), rtol=1e-15)

    def test_upscale_rounds_pixel_dims(self):
        out, geom = short_edge_resize([], ImageGeom(1000, 747), 800)
        # 1000 * 800/747 = 1070.95... rounds to nearest pixel
        assert geom == ImageGeom(1071, 800)
        assert out.shape == (0, 4)

    def test_ious_preserved_to_tolerance(self):
        rng = np.random.default_rng(41)
        boxes = random_boxes(rng, GEOM, n=30)
        out, _ = short_edge_resize(boxes, GEOM, 777)
        np.testing.assert_allclose(iou_matrix(boxes, boxes), iou_matrix(out, out), atol=1e-12)

    def test_aspect_ratios_preserved(self):
        rng = np.random.default_rng(42)
        boxes = random_boxes(rng, GEOM, n=30)
        out, _ = short_edge_resize(boxes, GEOM, 913)
        np.testing.assert_allclose(
            widths(out) / heights(out), widths(boxes) / heights(boxes), rtol=1e-12
        )

    def test_boxes_stay_inside_rounded_bounds(self):
        geom = ImageGeom(1000, 747)
        edge = [[990.0, 740.0, 1000.0, 747.0]]
        out, new_geom = short_edge_resize(edge, geom, 800)
        assert out[0, 2] <= new_geom.width
        assert out[0, 3] <= new_geom.height

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValidationError):
            short_edge_resize(FIXTURE, GEOM, 0)

    # 5e-324 is positive but scales by 0.0, which the object path refused
    @pytest.mark.parametrize("target", [-3, float("nan"), float("inf"), 5e-324])
    def test_rejects_a_target_without_a_finite_positive_scale(self, target):
        with pytest.raises(ValidationError, match=f"^target short edge {target}$"):
            short_edge_resize(FIXTURE, GEOM, target)


def crop_record(crop_x, crop_y, crop_size=400, out_size=800, min_visibility=0.25):
    return {"kind": "crop_resize", "params": {"crop_x": crop_x, "crop_y": crop_y,
                                               "crop_size": crop_size, "out_size": out_size,
                                               "min_visibility": min_visibility}}


class TestImageGeom:
    @pytest.mark.parametrize("width, height, message", [
        (800.5, 600, r"^image width must be an integer, got 800\.5$"),
        (True, 1, r"^image width must be an integer, got True$"),
        (800, 0, r"^image height must be at least 1, got 0$"),
        (800, np.int64(-3), r"^image height must be at least 1, got -3$"),
        (10**400, 5, r"^image width is out of float range$"),
    ], ids=["fractional", "bool", "zero", "negative", "past-float"])
    def test_sizes_are_integers_of_at_least_one(self, width, height, message):
        """A size no record can hold fails when the geometry is built, not inside ``apply``."""
        with pytest.raises(ValidationError, match=message):
            ImageGeom(width, height)
        geom = ImageGeom(np.int64(800), 600)
        assert type(geom.width) is int and geom == ImageGeom(800, 600)


class TestCropResizeReplay:
    """A crop_resize record's window, scale, visibility cut and sub-pixel drop."""

    def test_degenerate_crop_is_pure_resize(self):
        geom = ImageGeom(400, 400)
        boxes = [[10.0, 10.0, 100.0, 60.0], [200.0, 200.0, 390.0, 399.0]]
        out, new_geom = replay([crop_record(0, 0)], boxes, geom)
        assert new_geom == ImageGeom(800, 800)
        assert len(out) == len(boxes)
        np.testing.assert_allclose(out[0], (20.0, 20.0, 200.0, 120.0), rtol=1e-15)

    def test_inside_box_is_affine(self):
        """A box fully inside the window lands at (b - origin) * scale."""
        inner = np.array([350.0, 250.0, 370.0, 280.0])
        out, _ = replay([crop_record(200, 100, min_visibility=0.01)], [inner], GEOM)
        assert out.tolist() == [((inner - [200.0, 100.0, 200.0, 100.0]) * 2.0).tolist()]

    def test_visibility_cut_drops_straddlers(self):
        """A box 25% inside the window survives at 0.25 and dies at 0.3."""
        ox, oy = 325, 17
        # 40 wide, 30 of it past the left window edge: 10/40 visible
        straddler = [[float(ox - 30), float(oy + 50), float(ox + 10), float(oy + 70)]]
        kept, _ = replay([crop_record(ox, oy, min_visibility=0.25)], straddler, GEOM)
        assert len(kept) == 1
        dropped, _ = replay([crop_record(ox, oy, min_visibility=0.3)], straddler, GEOM)
        assert dropped.shape == (0, 4)

    def test_subpixel_survivor_dropped(self):
        # 0.4 px wide after the 2x scale: clipped width 0.2 * 2 < 1
        sliver = [[10.0, 10.0, 10.2, 200.0]]
        out, _ = replay([crop_record(0, 0, min_visibility=0.01)], sliver, ImageGeom(400, 400))
        assert out.shape == (0, 4)

    def test_visibility_bounds(self):
        for vis in (0.0, -0.25, 1.5):
            with pytest.raises(ValidationError, match=rf"^min_visibility {vis}$"):
                replay([crop_record(0, 0, min_visibility=vis)], FIXTURE, GEOM)
        out, _ = replay([crop_record(0, 0, min_visibility=1)], FIXTURE, GEOM)
        assert len(out) == 2  # the two boxes wholly inside the window


class TestRecipeThreeDraw:
    """Recipe 3's crop origin, drawn after the flip coin."""

    def test_a_square_image_as_large_as_the_crop_is_pure_resize(self):
        for seed in range(4):
            _, geom, records = AugmentationPipeline(3, seed).apply(FIXTURE, ImageGeom(400, 400))
            params = records[-1]["params"]
            assert (params["crop_x"], params["crop_y"]) == (0, 0)
            assert geom == ImageGeom(800, 800)

    def test_origin_sampling_is_x_then_y(self):
        rng = np.random.default_rng(99)
        rng.random()  # the flip coin
        expected_x = int(rng.integers(0, 800 - 400 + 1))
        expected_y = int(rng.integers(0, 600 - 400 + 1))
        _, _, records = AugmentationPipeline(3, 99).apply(FIXTURE, GEOM)
        assert records[-1]["params"] == {"crop_x": expected_x, "crop_y": expected_y,
                                      "crop_size": 400, "out_size": 800, "min_visibility": 0.25}

    def test_seed_seventeen_repeats_byte_for_byte(self):
        runs = []
        for _ in range(2):
            out, geom, records = AugmentationPipeline(3, 17).apply(FIXTURE, GEOM)
            runs.append((bits(out), geom, records))
        assert runs[0] == runs[1]

    def test_crop_larger_than_image_rejected(self):
        with pytest.raises(ValidationError, match=r"^crop 400 at \(0, 0\) exceeds image 300x900$"):
            AugmentationPipeline(3, 0).apply(FIXTURE, ImageGeom(300, 900))

    def test_origins_past_int64_are_rejected(self):
        """NumPy draws the origin in int64; a wider image is a one-line error, not a crash."""
        widest = ImageGeom(2**63 - 1 + 400, 800)
        _, geom, records = AugmentationPipeline(3, 0).apply(FIXTURE, widest)
        assert geom == ImageGeom(800, 800) and records[-1]["params"]["crop_x"] < 2**63
        with pytest.raises(ValidationError, match=r"^image 1180591620717411303424x800 is too "
                                                  r"large to draw a crop origin in int64$"):
            AugmentationPipeline(3, 0).apply(FIXTURE, ImageGeom(2**70, 800))

    def test_bad_boxes_are_rejected_before_the_draw(self):
        pipe = AugmentationPipeline(3, 0)
        with pytest.raises(ValidationError, match=r"^box row 0 is inverted"):
            pipe.apply([[5.0, 0.0, 4.0, 10.0]], GEOM)
        assert pipe._rng.random() == np.random.default_rng(0).random()  # the stream is untouched


class TestReplayIsTheOneApplier:
    def test_apply_returns_replay_of_the_records_it_draws(self, monkeypatch):
        calls = []

        def spy(records, boxes, geom):
            calls.append((list(records), bits(boxes), geom))
            return replay(records, boxes, geom)

        monkeypatch.setattr(augment, "replay", spy)
        for aug_id in (1, 2, 3):
            out, geom, records = AugmentationPipeline(aug_id, 5).apply(FIXTURE, GEOM)
            assert calls.pop() == (records, bits(FIXTURE), GEOM)
            again, geom2 = replay(records, FIXTURE, GEOM)
            assert bits(out) == bits(again) and geom == geom2
        assert calls == []

    def test_there_is_no_random_crop_resize(self):
        assert not hasattr(detforge, "random_crop_resize")
        assert not hasattr(augment, "random_crop_resize")


class TestBoxArrays:
    """Every transform takes any (N, 4) corner array-like and checks its rows."""

    TRANSFORMS = [
        lambda b: hflip(b, GEOM),
        lambda b: short_edge_resize(b, GEOM, 640),
        lambda b: replay([crop_record(0, 0)], b, GEOM),
        lambda b: AugmentationPipeline(3, 0).apply(b, GEOM),
        lambda b: replay([], b, GEOM),
    ]

    @pytest.mark.parametrize("transform", TRANSFORMS)
    @pytest.mark.parametrize("rows, message", [
        ([[0, 0, 10, 10], [5, 0, 4, 10]], r"^box row 1 is inverted: \(5\.0, 0\.0, 4\.0, 10\.0\)$"),
        ([[0, 3, 10, 2.5]], r"^box row 0 is inverted: \(0\.0, 3\.0, 10\.0, 2\.5\)$"),
        ([[0, 0, 10]], r"^boxes must be an \(N, 4\) array, got shape \(1, 3\)$"),
        ([0, 0, 10, 10], r"^boxes must be an \(N, 4\) array, got shape \(4,\)$"),
    ], ids=["x-inverted", "y-inverted", "three-columns", "flat"])
    def test_bad_rows_rejected(self, transform, rows, message):
        with pytest.raises(ValidationError, match=message):
            transform(rows)

    def test_inverted_rows_fail_as_bbox_made_them_fail(self):
        for row in ([5, 0, 4, 10], [0, 3, 10, 2.5]):
            with pytest.raises(ValidationError):
                BBox(*row)
        BBox(0.0, 0.0, 0.0, 0.0)  # zero-area rows stay valid in both
        assert hflip([[3.0, 3.0, 3.0, 3.0]], GEOM).tolist() == [[797.0, 3.0, 797.0, 3.0]]

    @pytest.mark.parametrize("transform", TRANSFORMS)
    def test_empty_input_gives_empty_output(self, transform):
        for empty in ([], np.zeros((0, 4)), np.zeros((0, 4), dtype=np.int32)):
            result = transform(empty)
            out = result if isinstance(result, np.ndarray) else result[0]
            assert out.shape == (0, 4) and out.dtype == np.float64

    def test_integer_and_list_input_match_float_arrays(self):
        as_int = FIXTURE.astype(np.int64)
        got = AugmentationPipeline(1, 3).apply(as_int, GEOM)[0]
        assert bits(got) == bits(AugmentationPipeline(1, 3).apply(FIXTURE.tolist(), GEOM)[0])


class TestPipelines:
    def test_choice_sets_match_the_recipes(self):
        assert AUG1_SHORT_EDGES == (640, 672, 704, 736, 768, 800)
        assert AUG2_SHORT_EDGES == (800, 832, 864, 896, 928, 960)
        assert AUG3_CROP_SIZE == 400 and AUG3_OUT_SIZE == 800

    def test_unknown_id_rejected(self):
        with pytest.raises(ValidationError):
            AugmentationPipeline(4, seed=0)

    @pytest.mark.parametrize("aug_id, seed, message", [
        (1, -1, "seed must be at least 0, got -1"),
        (1, 1.5, "seed must be an integer, got 1.5"),
        (1, "3", "seed must be an integer, got '3'"),
        (True, 0, "aug_id must be an integer, got True"),
        (1.0, 0, "aug_id must be an integer, got 1.0"),
    ])
    def test_id_and_seed_are_counts(self, aug_id, seed, message):
        """Unchecked, NumPy raised a bare error on the seed and ``True`` ran recipe 1."""
        with pytest.raises(ValidationError) as exc:
            AugmentationPipeline(aug_id, seed)
        assert str(exc.value) == message

    def test_numpy_integer_id_and_seed_are_accepted(self):
        boxes, geom = np.array([[5.0, 5.0, 105.0, 55.0]]), ImageGeom(800, 800)
        pipe = AugmentationPipeline(np.int64(2), np.int32(7))
        assert (type(pipe.aug_id), type(pipe.seed)) == (int, int)
        assert pipe.apply(boxes, geom)[2] == AugmentationPipeline(2, 7).apply(boxes, geom)[2]

    def test_rigged_identity_exists(self):
        """Some seed skips the flip and picks the 800 edge: a no-op on 800-square input."""
        square = ImageGeom(800, 800)
        boxes = np.array([[5.0, 5.0, 105.0, 55.0], [600.0, 700.0, 700.0, 790.0]])
        for seed in range(300):
            out, geom, records = AugmentationPipeline(1, seed).apply(boxes, square)
            if len(records) == 1 and records[0]["params"].get("target_short_edge") == 800:
                assert bits(out) == bits(boxes)
                assert geom == square
                return
        pytest.fail("no identity draw in 300 seeds")

    def test_aug2_never_shrinks_a_box(self):
        square = ImageGeom(800, 800)
        boxes = np.array([[5.0, 5.0, 25.0, 45.0], [100.0, 100.0, 700.0, 300.0]])
        for seed in range(25):
            out, _, _ = AugmentationPipeline(2, seed).apply(boxes, square)
            assert len(out) == len(boxes)
            # flip reorders nothing and the scale is at least 1
            assert (widths(out) >= widths(boxes) - 1e-9).all()
            assert (heights(out) >= heights(boxes) - 1e-9).all()

    def test_same_seed_same_story(self):
        for aug_id in (1, 2, 3):
            a = AugmentationPipeline(aug_id, seed=17)
            b = AugmentationPipeline(aug_id, seed=17)
            for _ in range(4):  # stream continuity across repeated calls
                out_a = a.apply(FIXTURE, GEOM)
                out_b = b.apply(FIXTURE, GEOM)
                assert bits(out_a[0]) == bits(out_b[0])
                assert out_a[1] == out_b[1]
                assert out_a[2] == out_b[2]

    def test_outputs_always_inside_bounds_and_visible(self):
        rng_seeds = range(12)
        for aug_id in (1, 2, 3):
            for seed in rng_seeds:
                out, geom, _ = AugmentationPipeline(aug_id, seed).apply(FIXTURE, GEOM)
                assert len(out) <= len(FIXTURE)
                assert (out[:, :2] >= -1e-9).all()
                assert (out[:, 2] <= geom.width + 1e-9).all()
                assert (out[:, 3] <= geom.height + 1e-9).all()
                assert (widths(out) >= 1.0).all() and (heights(out) >= 1.0).all()


class TestReplay:
    def test_aug3_seed_7_reproduces_exactly(self):
        out, geom, records = AugmentationPipeline(3, seed=7).apply(FIXTURE, GEOM)
        again, geom2 = replay(records, FIXTURE, GEOM)
        assert bits(again) == bits(out)
        assert geom2 == geom

    def test_all_pipelines_replay_exactly(self):
        for aug_id in (1, 2, 3):
            for seed in range(10):
                out, geom, records = AugmentationPipeline(aug_id, seed).apply(FIXTURE, GEOM)
                again, geom2 = replay(records, FIXTURE, GEOM)
                assert bits(again) == bits(out), (aug_id, seed)
                assert geom2 == geom

    def test_replay_survives_serialization(self):
        out, geom, records = AugmentationPipeline(3, seed=21).apply(FIXTURE, GEOM)
        loaded = round_trip(records)
        again, geom2 = replay(loaded, FIXTURE, GEOM)
        assert bits(again) == bits(out)
        assert geom2 == geom

    def test_json_round_trip_preserves_records(self):
        records = [
            {"kind": "flip", "params": {"width": 800}},
            {"kind": "resize", "params": {"target_short_edge": 736}},
        ]
        loaded = round_trip(records)
        assert loaded == records

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            replay([{"kind": "rotate", "params": {}}], FIXTURE, GEOM)

    def test_flip_without_width_flips_the_current_image(self):
        out, _ = replay([{"kind": "flip", "params": {}}], FIXTURE, GEOM)
        assert bits(out) == bits(hflip(FIXTURE, GEOM))

    @pytest.mark.parametrize("records, message", [
        ([{"kind": "flip", "params": {"width": 12345}}],
         r"^flip width 12345 is not the image width 800$"),
        # the second flip meets the 640-wide image the resize made
        ([{"kind": "resize", "params": {"target_short_edge": 480}},
          {"kind": "flip", "params": {"width": 800}}],
         r"^flip width 800 is not the image width 640$"),
        ([{"kind": "resize", "params": {"target_short_edge": -3}}],
         r"^resize target_short_edge must be at least 1, got -3$"),
        ([{"kind": "crop_resize", "params": {"crop_x": 0, "crop_y": 0, "crop_size": -5,
                                              "out_size": 8, "min_visibility": 0.5}}],
         r"^crop_resize crop_size must be at least 1, got -5$"),
        ([{"kind": "crop_resize", "params": {"crop_x": 0, "crop_y": 0, "crop_size": 400,
                                              "out_size": 0, "min_visibility": 0.5}}],
         r"^crop_resize out_size must be at least 1, got 0$"),
        ([{"kind": "crop_resize", "params": {"crop_x": 401, "crop_y": 0, "crop_size": 400,
                                              "out_size": 800, "min_visibility": 0.5}}],
         r"^crop 400 at \(401, 0\) exceeds image 800x600$"),
        ([{"kind": "crop_resize", "params": {"crop_x": 0, "crop_y": 201, "crop_size": 400,
                                              "out_size": 800, "min_visibility": 0.5}}],
         r"^crop 400 at \(0, 201\) exceeds image 800x600$"),
        ([{"kind": "crop_resize", "params": {"crop_x": 0, "crop_y": -1, "crop_size": 400,
                                              "out_size": 800, "min_visibility": 0.5}}],
         r"^crop_resize crop_y must be at least 0, got -1$"),
        ([{"kind": "crop_resize", "params": {"crop_x": 0, "crop_y": 0, "crop_size": 400,
                                              "out_size": 800, "min_visibility": float("nan")}}],
         r"^min_visibility nan$"),
        ([{"kind": "crop_resize", "params": {"crop_x": 0, "crop_y": 0, "crop_size": 400,
                                              "out_size": 800, "min_visibility": 0.0}}],
         r"^min_visibility 0\.0$"),
    ], ids=["flip-width", "flip-width-after-resize", "resize-negative", "crop-negative",
            "out-zero", "window-right", "window-below", "window-above", "visibility-nan", "visibility-zero"])
    def test_records_checked_against_the_image_they_meet(self, records, message):
        with pytest.raises(ValidationError, match=message):
            replay(records, FIXTURE, GEOM)

    @pytest.mark.parametrize("records, message", [
        ([{"kind": "flip", "params": ["wi"]}],
         "flip params must be an object of exactly width, or empty, got ['wi']"),
        ([{"kind": "resize", "params": []}],
         "resize params must be an object of exactly target_short_edge, got []"),
        ([["flip", {}]], "record 0 must be an object of exactly kind and params, got ['flip', {}]"),
        ([{"kind": "flip", "params": {}}, {"kind": "resize"}],
         "record 1 must be an object of exactly kind and params, got {'kind': 'resize'}"),
        ([{"kind": ["flip"], "params": {}}], "unknown transform kind ['flip']"),
        ([{"kind": "resize", "params": {"target_short_edge": 640, "seed": 3}}],
         "resize params must be an object of exactly target_short_edge, "
         "got {'target_short_edge': 640, 'seed': 3}"),
        ([{"kind": "crop_resize", "params": {"crop_x": 0, "crop_y": 0, "crop_size": 400,
                                              "out_size": 800}}],
         "crop_resize params must be an object of exactly crop_x, crop_y, crop_size, out_size, "
         "min_visibility, got {'crop_x': 0, 'crop_y': 0, 'crop_size': 400, 'out_size': 800}"),
        ([{"kind": "resize", "params": {"target_short_edge": 10**400}}],
         "resize target_short_edge is out of float range"),
        ([crop_record(0, 0, out_size=10**400)], "crop_resize out_size is out of float range"),
        ([crop_record(0, 0, min_visibility=10**400)],
         "crop_resize min_visibility is out of float range"),
        # a target within the float range whose scaled 800 px side is not
        ([{"kind": "resize", "params": {"target_short_edge": int(1.5e308)}}],
         f"target short edge {int(1.5e308)}"),
    ], ids=["flip-params-list", "resize-params-list", "record-list", "record-no-params",
            "kind-list", "resize-extra-param", "crop-missing-param", "target-past-float",
            "out-size-past-float", "visibility-past-float", "resized-side-past-float"])
    def test_malformed_records_are_validation_errors(self, records, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            replay(records, FIXTURE, GEOM)

    def test_drawn_records_hold_exactly_their_table_keys(self):
        for aug_id in (1, 2, 3):
            for seed in range(60):
                for record in AugmentationPipeline(aug_id, seed).apply(FIXTURE, GEOM)[2]:
                    assert record.keys() == {"kind", "params"}
                    assert record["params"].keys() == RECORD_PARAMS[record["kind"]].keys()

    def test_crop_window_may_touch_the_image_border(self):
        record = {"kind": "crop_resize", "params": {"crop_x": 400, "crop_y": 200,
                                                    "crop_size": 400, "out_size": 800,
                                                    "min_visibility": 1.0}}
        boxes = [[640.0, 210.0, 790.0, 360.0], [395.0, 295.0, 405.0, 305.0]]
        out, geom = replay([record], boxes, GEOM)
        assert geom == ImageGeom(800, 800)
        # only the box wholly inside the window clears min_visibility 1.0
        assert out.tolist() == [[480.0, 20.0, 780.0, 320.0]]


# JSON values, with integers past int64 and past the float range among them
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
                | st.sampled_from([0, 1, 400, 800, 1000, 2**70, int(1.5e308), 10**400, -10**400]))
JSON = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6)
PARAM_NAMES = st.sampled_from(sorted({key for table in RECORD_PARAMS.values() for key in table}))
# values of each param's type, in its range and just or far past it
INTS = st.integers(-1, 400) | st.sampled_from([1000, 2**70, int(1.5e308), 10**400])
REALS = st.floats(-0.5, 1.5) | st.sampled_from([float("nan"), 10**400])
KINDS = st.sampled_from(sorted(RECORD_PARAMS))
# each kind's exact keys; a kind and params of any keys; any JSON value
EXACT = KINDS.flatmap(lambda kind: st.fixed_dictionaries({"kind": st.just(kind), "params": (
    st.fixed_dictionaries({key: REALS if low is None else INTS
                           for key, low in RECORD_PARAMS[kind].items()}))}))
ANY_KEYS = st.fixed_dictionaries({"kind": KINDS | JSON, "params": JSON | st.dictionaries(
    PARAM_NAMES | st.text(max_size=4), INTS | REALS | JSON, max_size=6)})
RECORDS = st.lists(EXACT, max_size=4) | st.lists(st.one_of(EXACT, ANY_KEYS, JSON), max_size=4)


@pytest.fixture(scope="module")
def image_one(data_dir):
    """The boxes and size of ``tiny.json``'s image 1, 1000 x 800."""
    ds = detforge.load_dataset(data_dir / "tiny.json")
    image = ds.image_by_id[1]
    return ds.columns.boxes[ds.rows_by_image[1]], ImageGeom(image.width, image.height)


@pytest.fixture(scope="module")
def records_file(tmp_path_factory):
    return tmp_path_factory.mktemp("records") / "records.jsonl"


class TestArbitraryRecords:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(records=RECORDS)
    def test_replay_and_augment_replay_agree(self, data_dir, image_one, records_file, records):
        """``replay`` returns or raises ``ValidationError``; the CLI exits 0 or 1 to match."""
        line = json.dumps({"image_id": 1, "records": records})
        try:
            replay(json.loads(line)["records"], *image_one)
            want = 0
        except ValidationError:
            want = 1
        records_file.write_text(line + "\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["augment-replay", "--ann", str(data_dir / "tiny.json"),
                             "--records", str(records_file)])
        assert code == want, err.getvalue()
        assert len(err.getvalue().splitlines()) == want, err.getvalue()


# ---------------------------------------------------------------------------
# The object-path transforms the array code replaced: one box object per box,
# scalar clip, shift and scale. They share no helper with the package and are
# kept as test oracles.


@dataclass(frozen=True)
class OracleBox:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValidationError(f"inverted box: {self.as_tuple()}")

    @property
    def width(self):
        return self.x_max - self.x_min

    @property
    def height(self):
        return self.y_max - self.y_min

    @property
    def area(self):
        return self.width * self.height

    def shifted(self, dx, dy):
        return OracleBox(self.x_min + dx, self.y_min + dy, self.x_max + dx, self.y_max + dy)

    def scaled(self, sx, sy):
        if sx <= 0 or sy <= 0:
            raise ValidationError(f"scale factors must be positive: ({sx}, {sy})")
        return OracleBox(self.x_min * sx, self.y_min * sy, self.x_max * sx, self.y_max * sy)

    def as_tuple(self):
        return (self.x_min, self.y_min, self.x_max, self.y_max)


def oracle_clip(b, bounds):
    x_min = max(b.x_min, bounds.x_min)
    y_min = max(b.y_min, bounds.y_min)
    x_max = min(b.x_max, bounds.x_max)
    y_max = min(b.y_max, bounds.y_max)
    if x_max <= x_min or y_max <= y_min:
        return None
    return OracleBox(x_min, y_min, x_max, y_max)


def oracle_hflip(boxes, geom):
    w = float(geom.width)
    return [OracleBox(w - b.x_max, b.y_min, w - b.x_min, b.y_max) for b in boxes]


def oracle_short_edge_resize(boxes, geom, target_short_edge):
    if target_short_edge <= 0:
        raise ValidationError(f"target short edge {target_short_edge}")
    s = float(target_short_edge) / min(geom.width, geom.height)
    new_geom = ImageGeom(
        max(1, int(round(geom.width * s))), max(1, int(round(geom.height * s)))
    )
    out = []
    for b in boxes:
        sb = b.scaled(s, s)
        out.append(
            OracleBox(
                min(sb.x_min, float(new_geom.width)),
                min(sb.y_min, float(new_geom.height)),
                min(sb.x_max, float(new_geom.width)),
                min(sb.y_max, float(new_geom.height)),
            )
        )
    return out, new_geom


def oracle_crop_resize_at(boxes, geom, crop_x, crop_y, crop_size, out_size, min_visibility):
    window = OracleBox(
        float(crop_x), float(crop_y), float(crop_x + crop_size), float(crop_y + crop_size)
    )
    scale = float(out_size) / float(crop_size)
    out = []
    for b in boxes:
        clipped = oracle_clip(b, window)
        if clipped is None:
            continue
        if b.area > 0 and clipped.area / b.area < min_visibility:
            continue
        if clipped.width * scale < 1.0 or clipped.height * scale < 1.0:
            continue
        out.append(clipped.shifted(-crop_x, -crop_y).scaled(scale, scale))
    return out, ImageGeom(out_size, out_size)


def oracle_drop_subpixel(boxes):
    return [b for b in boxes if b.width >= 1.0 and b.height >= 1.0]


def oracle_apply(aug_id, seed, boxes, geom):
    """One ``AugmentationPipeline(aug_id, seed).apply`` call, box by box."""
    rng = np.random.default_rng(seed)
    records = []
    if rng.random() < 0.5:
        boxes = oracle_hflip(boxes, geom)
        records.append({"kind": "flip", "params": {"width": geom.width}})
    if aug_id in (1, 2):
        edges = (640, 672, 704, 736, 768, 800) if aug_id == 1 else (800, 832, 864, 896, 928, 960)
        target = int(edges[int(rng.integers(0, len(edges)))])
        boxes, geom = oracle_short_edge_resize(boxes, geom, target)
        records.append({"kind": "resize", "params": {"target_short_edge": target}})
    else:
        crop_x = int(rng.integers(0, geom.width - 400 + 1))
        crop_y = int(rng.integers(0, geom.height - 400 + 1))
        boxes, geom = oracle_crop_resize_at(boxes, geom, crop_x, crop_y, 400, 800, 0.25)
        records.append({"kind": "crop_resize", "params": {
            "crop_x": crop_x, "crop_y": crop_y, "crop_size": 400, "out_size": 800,
            "min_visibility": 0.25}})
    return oracle_drop_subpixel(boxes), geom, records


# Per record kind, the integer parameters and the least value each may take.
ORACLE_INT_PARAMS = {
    "flip": (("width", 1),),
    "resize": (("target_short_edge", 1),),
    "crop_resize": (("crop_x", 0), ("crop_y", 0), ("crop_size", 1), ("out_size", 1)),
}


def oracle_replay(records, boxes, geom):
    """The original replay, with one rule added: each parameter has the
    type the sampler writes, so no cast below changes the value applied.
    Integer parameters are non-bool ints of at least their least value
    (a flip's ``width`` may be absent), and ``min_visibility`` a non-bool
    int or float."""
    for rec in records:
        p = rec["params"]
        for key, low in ORACLE_INT_PARAMS[rec["kind"]]:
            value = p.get(key, low)
            if type(value) is not int or value < low:
                raise ValidationError(f"{rec['kind']} {key} is {value!r}")
        if rec["kind"] == "crop_resize" and type(p["min_visibility"]) not in (int, float):
            raise ValidationError(f"crop_resize min_visibility is {p['min_visibility']!r}")
        if rec["kind"] == "flip":
            boxes = oracle_hflip(boxes, geom)
        elif rec["kind"] == "resize":
            boxes, geom = oracle_short_edge_resize(boxes, geom, p["target_short_edge"])
        else:
            boxes, geom = oracle_crop_resize_at(
                boxes, geom, int(p["crop_x"]), int(p["crop_y"]), int(p["crop_size"]),
                int(p["out_size"]), float(p["min_visibility"]),
            )
    return oracle_drop_subpixel(boxes), geom


def as_rows(boxes):
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64).reshape(-1, 4)


def hostile_scene(rng, geom, window):
    """Random boxes plus the rows a vectorised rewrite most easily gets wrong.

    ``window`` is (x0, y0, size, scale): the crop window the edge rows are
    placed on, in the coordinates the crop sees, and its output scale.
    """
    x0, y0, size, scale = window
    x1, y1 = x0 + size, y0 + size
    px = 1.0 / scale  # one output pixel in input units
    rows = [
        (-0.0, -0.0, 10.0, 10.0),
        (-0.0, 5.0, -0.0, 9.0),  # zero width at a signed zero
        (0.0, -0.0, 5.0, -0.0),  # zero height at a signed zero
        (50.0, 50.0, 50.0, 80.0),
        (60.0, 60.0, 90.0, 60.0),
        (100.0, 100.0, 100.0 + 1e-200, 100.0 + 1e-200),  # area underflows to 0.0
        (x0 + 1e-200, y0 + 5, x0 + 2e-200, y0 + 9),
        # on the window edges: touching from outside, inside, straddling
        (x0 - 20, y0 + 10, x0, y0 + 30),
        (x1, y0 + 10, x1 + 20, y0 + 30),
        (x0 + 10, y0 - 20, x0 + 30, y0),
        (x0 + 10, y1, x0 + 30, y1 + 20),
        (x0, y0, x1, y1),
        (x0, y0, x0 + px, y0 + px),  # exactly one output pixel
        (x1 - px, y1 - px, x1, y1),
        (x0 - px, y0, x0 + px, y0 + 3 * px),  # one output pixel after the clip
        (x0 + 0.5 * px, y0 + 5, x0 + 1.49 * px, y0 + 9),  # just under one
        (x0 - 30, y0 + 10, x0 + 10, y0 + 50),  # exactly 25% visible
        (x1 - 10, y0 + 10, x1 + 30.0000001, y0 + 50),  # just under 25%
        (-5.0, -5.0, float(geom.width) + 5, float(geom.height) + 5),  # past the image
        (float(geom.width) - 1, 0.0, float(geom.width), 1.0),  # one pixel at the border
    ]
    n = 40
    xa = rng.uniform(-20, geom.width + 20, n)
    ya = rng.uniform(-20, geom.height + 20, n)
    wa = rng.choice([0.0, 0.25, 0.5, 1.0, 3.0, 40.0, 300.0], n) * rng.uniform(0.5, 1.5, n)
    ha = rng.choice([0.0, 0.25, 0.5, 1.0, 3.0, 40.0, 300.0], n) * rng.uniform(0.5, 1.5, n)
    rows += list(zip(xa, ya, xa + wa, ya + ha))
    # whole and half pixels, so flips and shifts are exact and ties are common
    ia = np.floor(rng.uniform(0, geom.width, n)) / 2
    ja = np.floor(rng.uniform(0, geom.height, n)) / 2
    rows += list(zip(ia, ja, ia + rng.integers(0, 8, n) / 2, ja + rng.integers(0, 8, n) / 2))
    order = rng.permutation(len(rows))
    return np.array(rows, dtype=np.float64)[order]


def crop_window_of(aug_id, seed, geom):
    """The crop an ``apply`` call will make, read off a copy of its stream."""
    rng = np.random.default_rng(seed)
    flipped = rng.random() < 0.5
    if aug_id != 3:
        return flipped, (0.0, 0.0, float(min(geom.width, geom.height)), 1.0)
    crop_x = int(rng.integers(0, geom.width - 400 + 1))
    crop_y = int(rng.integers(0, geom.height - 400 + 1))
    return flipped, (float(crop_x), float(crop_y), 400.0, 2.0)


GEOMS = [ImageGeom(800, 600), ImageGeom(1000, 747), ImageGeom(400, 400), ImageGeom(613, 1021)]


class TestDifferentialAgainstObjectPath:
    """The array transforms give the object path's floats bit for bit."""

    @pytest.mark.parametrize("aug_id", [1, 2, 3])
    @pytest.mark.parametrize("geom", GEOMS, ids=lambda g: f"{g.width}x{g.height}")
    def test_apply_then_replay(self, aug_id, geom):
        for seed in range(8):
            flipped, window = crop_window_of(aug_id, seed, geom)
            scene = hostile_scene(np.random.default_rng(1000 + seed), geom, window)
            if flipped:  # edge rows are placed where the crop sees them
                scene = np.stack([geom.width - scene[:, 2], scene[:, 1],
                                  geom.width - scene[:, 0], scene[:, 3]], axis=1)
            objects = [OracleBox(*row) for row in scene.tolist()]
            want, want_geom, want_records = oracle_apply(aug_id, seed, objects, geom)

            got, got_geom, records = AugmentationPipeline(aug_id, seed).apply(scene, geom)
            assert got.dtype == np.float64 and got.shape == (len(want), 4)
            assert bits(got) == bits(as_rows(want)), (aug_id, seed)
            assert np.array_equal(np.signbit(got), np.signbit(as_rows(want)))
            assert got_geom == want_geom
            assert records == want_records

            again, again_geom = replay(round_trip(records), scene, geom)
            assert bits(again) == bits(got) and again_geom == got_geom

    @pytest.mark.parametrize("geom", GEOMS, ids=lambda g: f"{g.width}x{g.height}")
    def test_replay_of_record_chains(self, geom):
        rng = np.random.default_rng(77)
        for trial in range(30):
            records, g = [], geom
            for _ in range(int(rng.integers(1, 5))):
                kind = ["flip", "resize", "crop_resize"][int(rng.integers(0, 3))]
                if kind == "flip":
                    records.append({"kind": "flip", "params": {"width": g.width}})
                elif kind == "resize":
                    target = int(rng.integers(100, 1200))
                    records.append({"kind": "resize", "params": {"target_short_edge": target}})
                    g = oracle_short_edge_resize([], g, target)[1]
                else:
                    size = int(rng.integers(1, min(g.width, g.height) + 1))
                    records.append({"kind": "crop_resize", "params": {
                        "crop_x": int(rng.integers(0, g.width - size + 1)),
                        "crop_y": int(rng.integers(0, g.height - size + 1)),
                        "crop_size": size, "out_size": int(rng.integers(1, 1600)),
                        "min_visibility": float(rng.choice([0.01, 0.25, 0.5, 1.0]))}})
                    g = ImageGeom(records[-1]["params"]["out_size"],
                                  records[-1]["params"]["out_size"])
            first_crop = next((r["params"] for r in records if r["kind"] == "crop_resize"),
                              None)
            window = (0.0, 0.0, 100.0, 1.0) if first_crop is None else (
                float(first_crop["crop_x"]), float(first_crop["crop_y"]),
                float(first_crop["crop_size"]),
                first_crop["out_size"] / first_crop["crop_size"])
            scene = hostile_scene(rng, geom, window)
            want, want_geom = oracle_replay(records, [OracleBox(*r) for r in scene.tolist()],
                                            geom)
            got, got_geom = replay(records, scene, geom)
            assert bits(got) == bits(as_rows(want)), (trial, records)
            assert got_geom == want_geom

    def test_each_transform_alone(self):
        rng = np.random.default_rng(5)
        for geom in GEOMS:
            window = (float(geom.width // 4), float(geom.height // 4), 200.0, 2.0)
            scene = hostile_scene(rng, geom, window)
            objects = [OracleBox(*row) for row in scene.tolist()]
            assert bits(hflip(scene, geom)) == bits(as_rows(oracle_hflip(objects, geom)))
            for target in (1, 333, 640, 1601):
                got, g = short_edge_resize(scene, geom, target)
                want, wg = oracle_short_edge_resize(objects, geom, target)
                assert bits(got) == bits(as_rows(want)) and g == wg
            for vis in (0.01, 0.25, 1.0):
                record = {"kind": "crop_resize", "params": {
                    "crop_x": geom.width // 4, "crop_y": geom.height // 4, "crop_size": 200,
                    "out_size": 400, "min_visibility": vis}}
                got, g = replay([record], scene, geom)
                want, wg = oracle_replay([record], objects, geom)
                assert bits(got) == bits(as_rows(want)) and g == wg

    @pytest.mark.parametrize("kind, key, value", [
        (kind, key, value)
        for kind, keys in ORACLE_INT_PARAMS.items() for key, _ in keys
        for value in (True, False, "5", None, [5], 640.0)
    ] + [("crop_resize", "min_visibility", value) for value in (True, False, "0.5", None, [0.5])])
    def test_mistyped_parameters_fail_as_in_the_oracle(self, kind, key, value):
        params = {"flip": {"width": 800}, "resize": {"target_short_edge": 640},
                  "crop_resize": {"crop_x": 100, "crop_y": 50, "crop_size": 300, "out_size": 600,
                                  "min_visibility": 0.25}}[kind]
        record = {"kind": kind, "params": {**params, key: value}}
        objects = [OracleBox(*row) for row in FIXTURE.tolist()]
        with pytest.raises(ValidationError, match=rf"^{kind} {key} is "):
            oracle_replay([record], objects, GEOM)
        with pytest.raises(ValidationError, match=rf"^{kind} {key} must be "):
            replay([record], FIXTURE, GEOM)

    def test_signed_zeros_survive_as_in_the_object_path(self):
        """-0.0 stays through min(v, hi); the crop's x + float(-0) turns it into 0.0."""
        scene = np.array([[-0.0, -0.0, 10.0, 10.0], [-0.0, -0.0, -0.0, -0.0]])
        resized, _ = short_edge_resize(scene, GEOM, 600)
        assert np.signbit(resized[:, :2]).all()
        record = {"kind": "crop_resize", "params": {"crop_x": 0, "crop_y": 0, "crop_size": 400,
                                                    "out_size": 400, "min_visibility": 0.25}}
        _, crop_geom = replay([record], scene, GEOM)
        want, _ = oracle_crop_resize_at([OracleBox(*r) for r in scene.tolist()], GEOM,
                                        0, 0, 400, 400, 0.25)
        got, _ = replay([record], scene, GEOM)
        assert bits(got) == bits(as_rows(want))
        assert not np.signbit(got).any()
        assert crop_geom == ImageGeom(400, 400)

    def test_huge_coordinates_overflow_without_warnings(self):
        scene = np.array([[-1e308, -1e308, 1e308, 1e308], [1e307, 0.0, 1.7e308, 50.0]])
        geom = ImageGeom(10, 10)
        objects = [OracleBox(*row) for row in scene.tolist()]
        got, _ = short_edge_resize(scene, geom, 1000)
        want, _ = oracle_short_edge_resize(objects, geom, 1000)
        assert bits(got) == bits(as_rows(want))
        record = {"kind": "crop_resize", "params": {"crop_x": 0, "crop_y": 0, "crop_size": 10,
                                                    "out_size": 800, "min_visibility": 0.01}}
        got, _ = replay([record], scene, geom)
        want, _ = oracle_replay([record], objects, geom)
        assert bits(got) == bits(as_rows(want))


class TestBoxObjectsOnlyAtTheEdge:
    def test_augment_replay_builds_no_box(self, data_dir, tmp_path, monkeypatch, capsys):
        """``detforge augment-replay`` samples and replays on the box columns alone."""
        calls = []
        original = BBox.__init__

        def counting(self, *args, **kwargs):
            calls.append(type(self).__name__)
            original(self, *args, **kwargs)

        monkeypatch.setattr(BBox, "__init__", counting)
        records = tmp_path / "records.jsonl"
        for aug_id in ("1", "2", "3"):
            assert cli.main(["augment-replay", "--ann", str(data_dir / "tiny.json"),
                             "--aug-id", aug_id, "--records-out", str(records)]) == 0
            sampled = json.loads(capsys.readouterr().out)["result"]["images"]
            assert cli.main(["augment-replay", "--ann", str(data_dir / "tiny.json"),
                             "--records", str(records)]) == 0
            replayed = json.loads(capsys.readouterr().out)["result"]["images"]
            assert [r["n_boxes_out"] for r in sampled] == [r["n_boxes_out"] for r in replayed]
        assert calls == []
        BBox(0.0, 0.0, 1.0, 1.0)  # the counter does see a box built for an API caller
        assert calls == ["BBox"]
