import json

import numpy as np
import pytest

from detforge.augment import (
    AUG1_SHORT_EDGES,
    AUG2_SHORT_EDGES,
    AUG3_CROP_SIZE,
    AUG3_OUT_SIZE,
    EVAL_RESIZE,
    AugmentationPipeline,
    ImageGeom,
    TransformRecord,
    fixed_resize,
    hflip,
    pipeline,
    random_crop_resize,
    replay,
    short_edge_resize,
)
from detforge.errors import ValidationError
from detforge.geometry import BBox, iou_matrix


def round_trip(records):
    """Records through JSON text and back, as the CLI stores them."""
    text = json.dumps([r.to_dict() for r in records])
    return [TransformRecord.from_dict(d) for d in json.loads(text)]


FIXTURE = [
    BBox(0.0, 0.0, 10.0, 10.0),
    BBox(100.0, 50.0, 180.0, 90.0),
    BBox(395.0, 295.0, 405.0, 305.0),
    BBox(640.0, 10.0, 790.0, 160.0),
    BBox(20.0, 500.0, 70.0, 590.0),
]
GEOM = ImageGeom(800, 600)


def random_boxes(rng, geom, n=12, min_side=2.0):
    out = []
    for _ in range(n):
        x0 = rng.uniform(0, geom.width - min_side)
        y0 = rng.uniform(0, geom.height - min_side)
        x1 = rng.uniform(x0 + min_side, geom.width)
        y1 = rng.uniform(y0 + min_side, geom.height)
        out.append(BBox(x0, y0, x1, y1))
    return out


class TestHFlip:
    def test_corner_example(self):
        out = hflip([BBox(0, 0, 10, 10)], ImageGeom(800, 600))
        assert out == [BBox(790.0, 0.0, 800.0, 10.0)]

    def test_involution_exact_on_integer_coordinates(self):
        twice = hflip(hflip(FIXTURE, GEOM), GEOM)
        assert twice == FIXTURE

    def test_involution_on_fractional_coordinates(self):
        rng = np.random.default_rng(40)
        boxes = random_boxes(rng, GEOM, n=50)
        twice = hflip(hflip(boxes, GEOM), GEOM)
        for a, b in zip(boxes, twice):
            for u, v in zip(a.as_tuple(), b.as_tuple()):
                assert abs(u - v) <= 1e-12

    def test_centered_box_is_fixed_point(self):
        centered = BBox(390.0, 100.0, 410.0, 200.0)
        assert hflip([centered], GEOM) == [centered]

    def test_pairwise_ious_preserved(self):
        arr = np.array([b.as_tuple() for b in FIXTURE])
        flipped = np.array([b.as_tuple() for b in hflip(FIXTURE, GEOM)])
        np.testing.assert_array_equal(iou_matrix(arr, arr), iou_matrix(flipped, flipped))

    def test_y_untouched(self):
        out = hflip(FIXTURE, GEOM)
        assert [(b.y_min, b.y_max) for b in out] == [(b.y_min, b.y_max) for b in FIXTURE]


class TestShortEdgeResize:
    def test_matching_target_is_identity(self):
        out, geom = short_edge_resize(FIXTURE, GEOM, 600)
        assert out == FIXTURE
        assert geom == GEOM

    def test_eighty_percent_scale(self):
        boxes, geom = short_edge_resize([BBox(0, 0, 10, 10)], ImageGeom(800, 800), 640)
        assert geom == ImageGeom(640, 640)
        np.testing.assert_allclose(boxes[0].as_tuple(), (0.0, 0.0, 8.0, 8.0), rtol=1e-15)

    def test_upscale_rounds_pixel_dims(self):
        _, geom = short_edge_resize([], ImageGeom(1000, 747), 800)
        # 1000 * 800/747 = 1070.95... rounds to nearest pixel
        assert geom == ImageGeom(1071, 800)

    def test_ious_preserved_to_tolerance(self):
        rng = np.random.default_rng(41)
        boxes = random_boxes(rng, GEOM, n=30)
        arr = np.array([b.as_tuple() for b in boxes])
        out, _ = short_edge_resize(boxes, GEOM, 777)
        out_arr = np.array([b.as_tuple() for b in out])
        np.testing.assert_allclose(
            iou_matrix(arr, arr), iou_matrix(out_arr, out_arr), atol=1e-12
        )

    def test_aspect_ratios_preserved(self):
        rng = np.random.default_rng(42)
        boxes = random_boxes(rng, GEOM, n=30)
        out, _ = short_edge_resize(boxes, GEOM, 913)
        for a, b in zip(boxes, out):
            assert b.width / b.height == pytest.approx(a.width / a.height, rel=1e-12)

    def test_boxes_stay_inside_rounded_bounds(self):
        geom = ImageGeom(1000, 747)
        edge = [BBox(990.0, 740.0, 1000.0, 747.0)]
        out, new_geom = short_edge_resize(edge, geom, 800)
        assert out[0].x_max <= new_geom.width
        assert out[0].y_max <= new_geom.height

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValidationError):
            short_edge_resize(FIXTURE, GEOM, 0)


class TestRandomCropResize:
    def test_degenerate_crop_is_pure_resize(self):
        geom = ImageGeom(400, 400)
        boxes = [BBox(10.0, 10.0, 100.0, 60.0), BBox(200.0, 200.0, 390.0, 399.0)]
        out, new_geom, record = random_crop_resize(
            boxes, geom, crop_size=400, out_size=800, rng=np.random.default_rng(0)
        )
        assert record.params["crop_x"] == 0 and record.params["crop_y"] == 0
        assert new_geom == ImageGeom(800, 800)
        assert len(out) == len(boxes)
        np.testing.assert_allclose(out[0].as_tuple(), (20.0, 20.0, 200.0, 120.0), rtol=1e-15)

    def test_inside_box_is_affine(self):
        """A box fully inside the window lands at (b - origin) * scale."""
        rng = np.random.default_rng(5)
        geom = ImageGeom(800, 600)
        inner = BBox(350.0, 250.0, 370.0, 280.0)  # near the center, usually inside
        out, _, record = random_crop_resize([inner], geom, 400, 800, rng, min_visibility=0.01)
        ox, oy = record.params["crop_x"], record.params["crop_y"]
        if out:  # only check when the draw kept it fully inside
            window = BBox(float(ox), float(oy), float(ox + 400), float(oy + 400))
            if (
                inner.x_min >= window.x_min
                and inner.y_min >= window.y_min
                and inner.x_max <= window.x_max
                and inner.y_max <= window.y_max
            ):
                expected = inner.shifted(-ox, -oy).scaled(2.0, 2.0)
                assert out[0] == expected

    def test_visibility_cut_drops_straddlers(self):
        """A box 25% inside the window survives at 0.25 and dies at 0.3."""
        geom = ImageGeom(800, 600)
        # seed 3 draws origin (325, 17) for a 400 crop on this geometry
        probe = np.random.default_rng(3)
        ox = int(probe.integers(0, geom.width - 400 + 1))
        oy = int(probe.integers(0, geom.height - 400 + 1))
        # 40 wide, 10 of it past the left window edge leaves 10/40 ... make it 30 past
        straddler = BBox(float(ox - 30), float(oy + 50), float(ox + 10), float(oy + 70))

        kept, _, _ = random_crop_resize(
            [straddler], geom, 400, 800, np.random.default_rng(3), min_visibility=0.25
        )
        assert len(kept) == 1
        dropped, _, _ = random_crop_resize(
            [straddler], geom, 400, 800, np.random.default_rng(3), min_visibility=0.3
        )
        assert dropped == []

    def test_subpixel_survivor_dropped(self):
        # 0.4 px wide after the 2x scale: clipped width 0.2 * 2 < 1
        geom = ImageGeom(400, 400)
        sliver = BBox(10.0, 10.0, 10.2, 200.0)
        out, _, _ = random_crop_resize(
            [sliver], geom, 400, 800, np.random.default_rng(0), min_visibility=0.01
        )
        assert out == []

    def test_origin_sampling_is_x_then_y(self):
        rng = np.random.default_rng(99)
        expected_x = int(rng.integers(0, 800 - 400 + 1))
        expected_y = int(rng.integers(0, 600 - 400 + 1))
        _, _, record = random_crop_resize(
            FIXTURE, GEOM, 400, 800, np.random.default_rng(99)
        )
        assert record.params["crop_x"] == expected_x
        assert record.params["crop_y"] == expected_y

    def test_seed_seventeen_repeats_byte_for_byte(self):
        runs = []
        for _ in range(2):
            out, geom, record = random_crop_resize(
                FIXTURE, GEOM, 400, 800, np.random.default_rng(17)
            )
            runs.append((tuple(b.as_tuple() for b in out), geom, record.to_dict()))
        assert runs[0] == runs[1]

    def test_crop_larger_than_image_rejected(self):
        with pytest.raises(ValidationError):
            random_crop_resize(FIXTURE, ImageGeom(300, 900), 400, 800, np.random.default_rng(0))

    def test_visibility_bounds(self):
        with pytest.raises(ValidationError):
            random_crop_resize(FIXTURE, GEOM, 400, 800, np.random.default_rng(0), min_visibility=0.0)


class TestFixedResize:
    def test_doubles_an_800_square(self):
        boxes, geom = fixed_resize([BBox(10.0, 20.0, 30.0, 40.0)], ImageGeom(800, 800))
        assert geom == ImageGeom(*EVAL_RESIZE)
        assert boxes[0] == BBox(20.0, 40.0, 60.0, 80.0)

    def test_axes_scale_independently(self):
        boxes, geom = fixed_resize([BBox(0.0, 0.0, 100.0, 100.0)], ImageGeom(400, 200), 800, 800)
        assert geom == ImageGeom(800, 800)
        assert boxes[0] == BBox(0.0, 0.0, 200.0, 400.0)

    def test_rejects_nonpositive_output(self):
        with pytest.raises(ValidationError):
            fixed_resize(FIXTURE, GEOM, 0, 800)


class TestPipelines:
    def test_choice_sets_match_the_recipes(self):
        assert AUG1_SHORT_EDGES == (640, 672, 704, 736, 768, 800)
        assert AUG2_SHORT_EDGES == (800, 832, 864, 896, 928, 960)
        assert AUG3_CROP_SIZE == 400 and AUG3_OUT_SIZE == 800
        assert EVAL_RESIZE == (1600, 1600)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValidationError):
            pipeline(4, seed=0)

    def test_rigged_identity_exists(self):
        """Some seed skips the flip and picks the 800 edge: a no-op on 800-square input."""
        square = ImageGeom(800, 800)
        boxes = [BBox(5.0, 5.0, 105.0, 55.0), BBox(600.0, 700.0, 700.0, 790.0)]
        for seed in range(300):
            out, geom, records = pipeline(1, seed).apply(boxes, square)
            if len(records) == 1 and records[0].params.get("target_short_edge") == 800:
                assert out == boxes
                assert geom == square
                return
        pytest.fail("no identity draw in 300 seeds")

    def test_aug2_never_shrinks_a_box(self):
        square = ImageGeom(800, 800)
        boxes = [BBox(5.0, 5.0, 25.0, 45.0), BBox(100.0, 100.0, 700.0, 300.0)]
        for seed in range(25):
            out, _, _ = pipeline(2, seed).apply(boxes, square)
            assert len(out) == len(boxes)
            for a, b in zip(boxes, out):
                # flip reorders nothing and the scale is at least 1
                assert b.width >= a.width - 1e-9
                assert b.height >= a.height - 1e-9

    def test_same_seed_same_story(self):
        for aug_id in (1, 2, 3):
            a = pipeline(aug_id, seed=17)
            b = pipeline(aug_id, seed=17)
            for _ in range(4):  # stream continuity across repeated calls
                out_a = a.apply(FIXTURE, GEOM)
                out_b = b.apply(FIXTURE, GEOM)
                assert out_a[0] == out_b[0]
                assert out_a[1] == out_b[1]
                assert [r.to_dict() for r in out_a[2]] == [r.to_dict() for r in out_b[2]]

    def test_outputs_always_inside_bounds_and_visible(self):
        rng_seeds = range(12)
        for aug_id in (1, 2, 3):
            for seed in rng_seeds:
                out, geom, _ = pipeline(aug_id, seed).apply(FIXTURE, GEOM)
                assert len(out) <= len(FIXTURE)
                for b in out:
                    assert -1e-9 <= b.x_min and b.x_max <= geom.width + 1e-9
                    assert -1e-9 <= b.y_min and b.y_max <= geom.height + 1e-9
                    assert b.width >= 1.0 and b.height >= 1.0


class TestReplay:
    def test_aug3_seed_7_reproduces_exactly(self):
        out, geom, records = pipeline(3, seed=7).apply(FIXTURE, GEOM)
        again, geom2 = replay(records, FIXTURE, GEOM)
        assert again == out
        assert geom2 == geom

    def test_all_pipelines_replay_exactly(self):
        for aug_id in (1, 2, 3):
            for seed in range(10):
                out, geom, records = pipeline(aug_id, seed).apply(FIXTURE, GEOM)
                again, geom2 = replay(records, FIXTURE, GEOM)
                assert again == out, (aug_id, seed)
                assert geom2 == geom

    def test_replay_survives_serialization(self):
        out, geom, records = pipeline(3, seed=21).apply(FIXTURE, GEOM)
        loaded = round_trip(records)
        again, geom2 = replay(loaded, FIXTURE, GEOM)
        assert again == out
        assert geom2 == geom

    def test_json_round_trip_preserves_records(self):
        records = [
            TransformRecord("flip", {"width": 800}),
            TransformRecord("resize", {"target_short_edge": 736}),
        ]
        loaded = round_trip(records)
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in records]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            replay([TransformRecord("rotate", {})], FIXTURE, GEOM)
