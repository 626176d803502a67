import json

import numpy as np
import pytest

from detforge.annotations import load_dataset
from detforge.errors import DanglingReference, MissingKey, ValidationError
from detforge.evaluation import (
    IOU_THRESHOLDS,
    MAX_DETS_PER_IMAGE,
    Detection,
    average_precision,
    coco_map,
    greedy_match,
    load_detections,
)
from detforge.geometry import BBox, from_xywh, iou


def det(image_id, cat, x, y, w, h, score, src=0):
    return Detection(image_id, cat, from_xywh(x, y, w, h), score, src)


def box(x0, y0, x1, y1):
    return BBox(float(x0), float(y0), float(x1), float(y1))


class TestDetection:
    def test_score_range_enforced(self):
        with pytest.raises(ValidationError):
            det(1, 1, 0, 0, 10, 10, 1.5)
        with pytest.raises(ValidationError):
            det(1, 1, 0, 0, 10, 10, -0.1)


class TestLoadDetections:
    def test_mixed_fixture(self, data_dir):
        dets = load_detections(data_dir / "eval_mixed_dets.json")
        assert len(dets) == 6
        assert [d.source_index for d in dets] == list(range(6))
        assert dets[0].bbox == box(0, 0, 10, 10)
        assert dets[0].score == 0.9

    def test_missing_key_names_the_entry(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps([{"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5]}]))
        with pytest.raises(MissingKey, match=r"detections\[0\]\.score"):
            load_detections(path)

    def test_must_be_an_array(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"detections": []}))
        with pytest.raises(ValidationError):
            load_detections(path)

    def test_bbox_must_have_four_values(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(
            json.dumps([{"image_id": 1, "category_id": 1, "bbox": [0, 0, 5], "score": 0.5}])
        )
        with pytest.raises(ValidationError):
            load_detections(path)


class TestGreedyMatch:
    def test_exact_hit_is_tp(self):
        flags = greedy_match([box(0, 0, 10, 10)], [box(0, 0, 10, 10)], None, 0.5)
        assert flags.tolist() == [1]

    def test_second_detection_on_same_gt_is_fp(self):
        dets = [box(0, 0, 10, 10), box(1, 0, 11, 10)]  # input order = score order
        flags = greedy_match(dets, [box(0, 0, 10, 10)], None, 0.5)
        assert flags.tolist() == [1, 0]

    def test_below_threshold_is_fp(self):
        flags = greedy_match([box(0, 0, 10, 10)], [box(8, 8, 18, 18)], None, 0.5)
        assert flags.tolist() == [0]

    def test_ignore_gt_absorbs_instead_of_fp(self):
        flags = greedy_match([box(0, 0, 10, 10)], [box(0, 0, 10, 10)], [True], 0.5)
        assert flags.tolist() == [-1]

    def test_live_gt_preferred_over_ignore(self):
        gts = [box(0, 0, 10, 10), box(0, 0, 10, 10)]
        flags = greedy_match([box(0, 0, 10, 10)], gts, [True, False], 0.5)
        assert flags.tolist() == [1]

    def test_ignore_gt_absorbs_many(self):
        dets = [box(0, 0, 10, 10), box(1, 1, 11, 11), box(2, 2, 12, 12)]
        flags = greedy_match(dets, [box(0, 0, 12, 12)], [True], 0.3)
        assert flags.tolist() == [-1, -1, -1]

    def test_highest_iou_gt_wins(self):
        # det overlaps both GTs; it must take the closer one, freeing the
        # other for the second det
        d0 = box(0, 0, 10, 10)
        d1 = box(0, 0, 12, 12)
        g_far = box(2, 2, 12, 12)
        g_near = box(0, 0, 10, 11)
        flags = greedy_match([d0, d1], [g_far, g_near], None, 0.3)
        assert flags.tolist() == [1, 1]

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(55)
        for trial in range(200):
            n_det = int(rng.integers(0, 8))
            n_gt = int(rng.integers(0, 6))
            dets = []
            for _ in range(n_det):
                x, y = rng.uniform(0, 60, 2)
                w, h = rng.uniform(4, 30, 2)
                dets.append(box(x, y, x + w, y + h))
            gts = []
            for _ in range(n_gt):
                x, y = rng.uniform(0, 60, 2)
                w, h = rng.uniform(4, 30, 2)
                gts.append(box(x, y, x + w, y + h))
            ignore = [bool(rng.random() < 0.25) for _ in gts]
            thr = float(rng.choice([0.3, 0.5, 0.75]))

            got = greedy_match(dets, gts, ignore, thr).tolist()

            matched = [False] * n_gt
            want = []
            for d in dets:
                candidates = [
                    (iou(d, g), j)
                    for j, g in enumerate(gts)
                    if not ignore[j] and not matched[j] and iou(d, g) >= thr
                ]
                if candidates:
                    best = max(candidates, key=lambda t: (t[0], -t[1]))
                    matched[best[1]] = True
                    want.append(1)
                elif any(ignore[j] and iou(d, gts[j]) >= thr for j in range(n_gt)):
                    want.append(-1)
                else:
                    want.append(0)
            assert got == want, f"trial {trial}"


class TestAveragePrecision:
    def test_perfect_run(self):
        assert average_precision([1, 1], [0.9, 0.8], n_gt=2) == 1.0

    def test_no_detections(self):
        assert average_precision([], [], n_gt=3) == 0.0

    def test_no_ground_truth_sentinel(self):
        assert average_precision([1], [0.9], n_gt=0) == -1.0

    def test_hand_computed_envelope(self):
        # TP, FP, TP over two GTs: 51 grid points at precision 1, 50 at 2/3
        value = average_precision([1, 0, 1], [0.9, 0.8, 0.7], n_gt=2)
        assert value == pytest.approx(253.0 / 303.0, abs=1e-15)

    def test_unreached_recall_scores_zero(self):
        value = average_precision([1], [0.9], n_gt=2)
        assert value == pytest.approx(51.0 / 101.0, abs=1e-15)

    def test_score_order_not_input_order(self):
        a = average_precision([1, 0], [0.9, 0.5], n_gt=1)
        b = average_precision([0, 1], [0.5, 0.9], n_gt=1)
        assert a == b

    def test_monotone_score_transform_is_invisible(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            flags = (rng.random(n) < 0.5).astype(int)
            scores = rng.uniform(0.05, 0.95, n)
            squashed = 0.5 * scores**3 + 0.1
            assert average_precision(flags, scores, 5) == average_precision(
                flags, squashed, 5
            )

    def test_validation(self):
        with pytest.raises(ValidationError):
            average_precision([1], [0.9], n_gt=-1)
        with pytest.raises(ValidationError):
            average_precision([1, 0], [0.9], n_gt=2)


class TestCocoMap:
    def test_thresholds_are_the_coco_ladder(self):
        assert IOU_THRESHOLDS == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
        assert MAX_DETS_PER_IMAGE == 100

    def test_hand_traced_fixture(self, mixed_dataset, mixed_detections):
        result = coco_map(mixed_detections, mixed_dataset)
        assert result.ap == pytest.approx(71.0 / 101.0, abs=1e-9)
        assert result.ap50 == pytest.approx(96.0 / 101.0, abs=1e-9)
        assert result.ap75 == pytest.approx(66.0 / 101.0, abs=1e-9)
        assert result.ap_small == pytest.approx(76.0 / 101.0, abs=1e-9)
        assert result.ap_medium == pytest.approx(0.7, abs=1e-9)
        assert result.ap_large == pytest.approx(0.9, abs=1e-9)
        assert result.per_class_ap[1] == pytest.approx(71.0 / 101.0, abs=1e-9)
        assert result.per_class_ap[2] == -1.0
        assert result.n_gt == 4
        assert result.n_detections == 6

    def test_perfect_detections_score_one(self, mixed_dataset):
        dets = [
            Detection(inst.image_id, inst.category_id, inst.bbox, 1.0, i)
            for i, inst in enumerate(mixed_dataset.instances)
        ]
        result = coco_map(dets, mixed_dataset)
        assert result.ap == 1.0
        assert result.ap50 == 1.0 and result.ap75 == 1.0
        assert result.ap_small == 1.0
        assert result.ap_large == 1.0

    def test_perfect_detections_on_tiny(self, tiny_dataset, data_dir):
        dets = load_detections(data_dir / "tiny_perfect_dets.json")
        result = coco_map(dets, tiny_dataset)
        assert result.ap == 1.0
        assert result.n_gt == 6  # the crowd instance never enters the denominator
        assert all(v == 1.0 for v in result.per_class_ap.values())

    def test_empty_detections(self, mixed_dataset):
        result = coco_map([], mixed_dataset)
        assert result.ap == 0.0
        assert result.n_detections == 0
        assert result.per_class_ap == {1: 0.0, 2: -1.0}

    def test_dangling_references(self, mixed_dataset):
        with pytest.raises(DanglingReference):
            coco_map([det(999, 1, 0, 0, 10, 10, 0.9)], mixed_dataset)
        with pytest.raises(DanglingReference):
            coco_map([det(1, 99, 0, 0, 10, 10, 0.9)], mixed_dataset)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 2.0, -1.0])
    def test_thresholds_must_be_finite_and_in_unit_interval(
        self, mixed_dataset, mixed_detections, bad
    ):
        with pytest.raises(ValidationError, match="IoU thresholds"):
            coco_map(mixed_detections, mixed_dataset, iou_thresholds=[0.5, bad])
        # the interval is closed: both ends are legal thresholds
        coco_map(mixed_detections, mixed_dataset, iou_thresholds=[0.0, 1.0])

    def test_max_dets_keeps_top_scores_per_image(self, mixed_dataset):
        dets = [
            det(1, 1, 0, 0, 10, 10, 0.9, src=0),         # true hit
            det(1, 1, 300, 300, 10, 10, 0.8, src=1),      # fp
            det(1, 1, 100, 100, 40, 40, 0.7, src=2),      # true hit, lowest score
        ]
        full = coco_map(dets, mixed_dataset)
        capped = coco_map(dets, mixed_dataset, max_dets=2)
        assert full.n_detections == 3
        assert capped.n_detections == 2
        assert capped.ap50 < full.ap50  # the dropped detection was a TP

    def test_high_scoring_fp_never_helps(self, mixed_dataset, mixed_detections):
        base = coco_map(mixed_detections, mixed_dataset)
        spiked = mixed_detections + [det(1, 1, 500, 500, 20, 20, 0.99, src=50)]
        worse = coco_map(spiked, mixed_dataset)
        for field in ("ap", "ap50", "ap75", "ap_small", "ap_medium", "ap_large"):
            b, w = getattr(base, field), getattr(worse, field)
            if b >= 0.0:
                assert w <= b, field

    def test_trailing_duplicate_tp_changes_nothing(self, mixed_dataset, mixed_detections):
        """The dup re-hit on a matched GT ranks last, so every AP is identical."""
        without_dup = mixed_detections[:-1]
        a = coco_map(without_dup, mixed_dataset)
        b = coco_map(mixed_detections, mixed_dataset)
        assert (a.ap, a.ap50, a.ap75) == (b.ap, b.ap50, b.ap75)
        assert (a.ap_small, a.ap_medium, a.ap_large) == (b.ap_small, b.ap_medium, b.ap_large)
        assert b.n_detections == a.n_detections + 1

    def test_ap50_at_least_ap(self, mixed_dataset, mixed_detections, tiny_dataset, data_dir):
        for dets, ds in (
            (mixed_detections, mixed_dataset),
            (load_detections(data_dir / "tiny_perfect_dets.json"), tiny_dataset),
        ):
            result = coco_map(dets, ds)
            assert result.ap50 >= result.ap

    def test_single_threshold_override(self, mixed_dataset, mixed_detections):
        result = coco_map(mixed_detections, mixed_dataset, iou_thresholds=(0.5,))
        assert result.ap == result.ap50
        assert result.ap75 == -1.0  # threshold not evaluated

    def test_deterministic(self, mixed_dataset, mixed_detections):
        a = coco_map(mixed_detections, mixed_dataset).to_dict()
        b = coco_map(mixed_detections, mixed_dataset).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_result_serializes_with_string_class_keys(self, mixed_dataset, mixed_detections):
        blob = coco_map(mixed_detections, mixed_dataset).to_dict()
        assert set(blob["per_class_ap"]) == {"1", "2"}
