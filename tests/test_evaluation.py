import itertools
import json
import math
import sys
import tracemalloc
from collections import defaultdict
from typing import Optional, Sequence

import numpy as np
import pytest

from detforge import cli, evaluation
from detforge.annotations import (
    MEDIUM_AREA_MAX,
    SMALL_AREA_MAX,
    Category,
    Dataset,
    ImageRecord,
    Instance,
    load_dataset,
)
from detforge.errors import DanglingReference, MissingKey, ValidationError
from detforge.evaluation import (
    IOU_THRESHOLDS,
    MAX_DETS_PER_IMAGE,
    DetectionColumns,
    EvalResult,
    average_precision,
    coco_map,
    load_detections,
)
from detforge.geometry import BBox, iou
from oracles import (
    BBOX_SHAPES,
    Detection,
    assert_same_columns,
    bbox_grid,
    dataset_of,
    detection_columns,
    detections_of,
    from_xywh,
    oracle_load_detections,
    shifted,
)


def det(image_id, cat, x, y, w, h, score, src=0):
    return Detection(image_id, cat, from_xywh(x, y, w, h), score, src)


def box(x0, y0, x1, y1):
    return BBox(float(x0), float(y0), float(x1), float(y1))


# ------------------------------------------------------------------ oracle
# The scalar evaluator that coco_map replaced: per (class, slice,
# threshold) it walks every image and greedy-matches with scalar IoU.
# coco_map must agree with it exactly.


def greedy_match(
    det_boxes: Sequence[BBox],
    gt_boxes: Sequence[BBox],
    gt_ignore: Optional[Sequence[bool]],
    iou_thr: float,
) -> np.ndarray:
    """Flags per detection: 1 TP, 0 FP, -1 excluded by an ignore GT.

    Detections must already be sorted by descending score (ties by
    ascending source index). Each detection takes the unmatched
    non-ignore GT with the highest IoU at or above the threshold, ties
    to the lowest GT index. A detection with no such match that still
    reaches the threshold against some ignore-flagged GT is excluded
    from scoring; ignore GTs can absorb any number of detections.
    """
    if gt_ignore is None:
        gt_ignore = [False] * len(gt_boxes)
    flags = np.zeros(len(det_boxes), dtype=np.int8)
    matched = [False] * len(gt_boxes)
    for i, db in enumerate(det_boxes):
        best_j = -1
        best_v = -1.0
        for j, gb in enumerate(gt_boxes):
            if gt_ignore[j] or matched[j]:
                continue
            v = iou(db, gb)
            if v >= iou_thr and v > best_v:
                best_v = v
                best_j = j
        if best_j >= 0:
            flags[i] = 1
            matched[best_j] = True
            continue
        absorbed = any(
            gt_ignore[j] and iou(db, gb) >= iou_thr
            for j, gb in enumerate(gt_boxes)
        )
        flags[i] = -1 if absorbed else 0
    return flags


def oracle_average_precision(flags, scores, n_gt: int) -> float:
    """The original AP: a stable re-sort, cumsums of TPs and FPs, a fresh grid.

    ``evaluation.average_precision`` and ``evaluation._ranked_ap`` must
    give its bits on every input it accepts.
    """
    if n_gt < 0:
        raise ValidationError(f"n_gt must be non-negative, got {n_gt}")
    if n_gt == 0:
        return -1.0
    flags = np.asarray(flags, dtype=bool)
    if flags.size == 0:
        return 0.0
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != flags.shape:
        raise ValidationError("flags and scores must align")
    order = np.argsort(-scores, kind="stable")
    flags = flags[order]
    tp = np.cumsum(flags)
    fp = np.cumsum(~flags)
    recall = tp / n_gt
    precision = tp / (tp + fp)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    grid = np.arange(101) / 100.0
    idx = np.searchsorted(recall, grid, side="left")
    inside = idx < len(recall)
    values = np.where(inside, envelope[np.minimum(idx, len(recall) - 1)], 0.0)
    return float(values.mean())


def scalar_coco_map(
    dets: Sequence[Detection],
    ds: Dataset,
    max_dets: int = MAX_DETS_PER_IMAGE,
    iou_thresholds: Optional[Sequence[float]] = None,
) -> EvalResult:
    thresholds = (
        IOU_THRESHOLDS if iou_thresholds is None else tuple(float(t) for t in iou_thresholds)
    )
    by_image = defaultdict(list)
    for d in dets:
        by_image[d.image_id].append(d)
    det_groups = defaultdict(list)
    n_detections = 0
    for image_id in sorted(by_image):
        ranked = sorted(by_image[image_id], key=lambda d: (-d.score, d.source_index))
        for d in ranked[: max_dets if max_dets > 0 else None]:
            det_groups[(d.image_id, d.category_id)].append(d)
            n_detections += 1

    gt_groups = defaultdict(list)
    for inst in ds.instances:
        gt_groups[(inst.image_id, inst.category_id)].append(inst)
    class_ids = sorted(ds.category_by_id)
    image_ids = sorted(ds.image_by_id)

    def class_threshold_aps(cat: int, lo: float, hi: float):
        n_gt = sum(
            1
            for image_id in image_ids
            for g in gt_groups.get((image_id, cat), [])
            if not g.ignore and lo <= g.area < hi
        )
        if n_gt == 0:
            return None
        aps = []
        for thr in thresholds:
            pooled = []
            for image_id in image_ids:
                dts = [
                    d
                    for d in det_groups.get((image_id, cat), [])
                    if lo <= d.bbox.area < hi
                ]
                gts = gt_groups.get((image_id, cat), [])
                gt_ignore = [g.ignore or not (lo <= g.area < hi) for g in gts]
                flags = greedy_match(
                    [d.bbox for d in dts], [g.bbox for g in gts], gt_ignore, thr
                )
                pooled.extend(
                    (d.score, d.source_index, int(f))
                    for d, f in zip(dts, flags)
                    if f >= 0
                )
            pooled.sort(key=lambda p: (-p[0], p[1]))
            aps.append(
                oracle_average_precision(
                    [p[2] for p in pooled], [p[0] for p in pooled], n_gt
                )
            )
        return aps

    def mean_or_sentinel(values):
        values = [v for v in values if v is not None]
        return float(np.mean(values)) if values else -1.0

    slice_ap = {}
    per_class_all = {}
    ap50 = ap75 = -1.0
    for name, lo, hi in (
        ("all", 0.0, math.inf),
        ("small", 0.0, SMALL_AREA_MAX),
        ("medium", SMALL_AREA_MAX, MEDIUM_AREA_MAX),
        ("large", MEDIUM_AREA_MAX, math.inf),
    ):
        per_class = {c: class_threshold_aps(c, lo, hi) for c in class_ids}
        slice_ap[name] = mean_or_sentinel(
            [float(np.mean(aps)) if aps is not None else None for aps in per_class.values()]
        )
        if name == "all":
            per_class_all = {
                c: (float(np.mean(aps)) if aps is not None else -1.0)
                for c, aps in per_class.items()
            }
            for target, attr_value in ((0.5, "ap50"), (0.75, "ap75")):
                if target in thresholds:
                    t_idx = thresholds.index(target)
                    value = mean_or_sentinel(
                        [
                            aps[t_idx] if aps is not None else None
                            for aps in per_class.values()
                        ]
                    )
                    if attr_value == "ap50":
                        ap50 = value
                    else:
                        ap75 = value

    return EvalResult(
        ap=slice_ap["all"],
        ap50=ap50,
        ap75=ap75,
        ap_small=slice_ap["small"],
        ap_medium=slice_ap["medium"],
        ap_large=slice_ap["large"],
        per_class_ap=per_class_all,
        n_gt=sum(1 for inst in ds.instances if not inst.ignore),
        n_detections=n_detections,
    )


def random_payload(rng, n: int) -> list:
    """``n`` valid detection entries that mix ints, floats, -0.0 and huge values."""
    ids = (1, 7, 0, -3, 2**63 - 1, -(2**63), 2**53 + 1)
    corners = (0, 3, -0.0, 0.0, 0.5, -12.25, 2**53 + 1, 12345678901234567, 1e300, -1e300)
    extents = (0, 5, -0.0, 0.0, 0.1, 33.3, 2**53 + 1, 1e300)
    scores = (0, 1, 0.0, -0.0, 1.0, 0.5, 0.1234567890123, 5e-324)

    def pick(values):
        return values[int(rng.integers(len(values)))]

    def entry():
        image_id, category_id = pick(ids), pick(ids)
        bbox = [pick(corners), pick(corners), pick(extents), pick(extents)]
        if math.isinf(float(bbox[2]) * float(bbox[3])):
            bbox[3] = 1  # w * h past the float range is invalid
        return {"image_id": image_id, "category_id": category_id, "bbox": bbox,
                "score": pick(scores)}

    return [entry() for _ in range(n)]


class TestLoaderMatchesOracle:
    """load_detections against the object-path loader it replaced."""

    def payloads(self, data_dir):
        yield from (json.loads((data_dir / name).read_text())
                    for name in ("eval_mixed_dets.json", "tiny_perfect_dets.json"))
        yield []
        rng = np.random.default_rng(10)
        for n in (1, 2, 5, 40, 300):
            yield random_payload(rng, n)

    def test_columns_match_bit_for_bit(self, data_dir, tmp_path):
        file = tmp_path / "dets.json"
        for payload in self.payloads(data_dir):
            file.write_text(json.dumps(payload))
            assert_same_columns(load_detections(file), oracle_load_detections(file))

    @pytest.mark.parametrize("bbox", [[0, 0, 1e200, 1e200], [-1e300, 0, 1e300, 1e10],
                                      [0, 0, sys.float_info.max, 2]])
    def test_area_past_float_range_is_rejected_as_the_oracle_rejects_it(self, tmp_path, bbox):
        file = tmp_path / "dets.json"
        ok = {"image_id": 1, "category_id": 1, "bbox": [0, 0, 1e154, 1e154], "score": 0.5}
        file.write_text(json.dumps([ok, dict(ok, bbox=bbox), dict(ok, score=2.0)]))
        for loader in (load_detections, oracle_load_detections):
            with pytest.raises(ValidationError) as info:
                loader(file)
            assert str(info.value) == "detections[1].bbox: w * h is out of float range"
        file.write_text(json.dumps([ok]))
        assert_same_columns(load_detections(file), oracle_load_detections(file))

    def test_bbox_grid_matches_oracle(self, tmp_path):
        """Every edge value in every bbox slot, and wrong shapes, in one-entry files."""
        file = tmp_path / "dets.json"
        for bbox in [*bbox_grid(), *BBOX_SHAPES]:
            entry = {"image_id": 1, "category_id": 1, "bbox": bbox, "score": 0.5}
            file.write_text(json.dumps([entry]))
            try:
                want = oracle_load_detections(file)
            except ValidationError as exc:
                message = str(exc)
                if message.startswith("negative extent: "):
                    message = f"detections[0].bbox: {message}"
                with pytest.raises(ValidationError) as got:
                    load_detections(file)
                assert str(got.value) == message, bbox
            else:
                assert_same_columns(load_detections(file), want)

    @pytest.mark.parametrize("bbox, message", [
        ([1e20, 0, -1, 10], "detections[1].bbox: negative extent: w=-1.0, h=10.0"),
        ([1e308, 0, 1e308, 1], "detections[1].bbox: x + w or y + h is out of float range"),
        ([0, -1e308, 1, -1e308], "detections[1].bbox: negative extent: w=1.0, h=-1e+308"),
        ([0, 1.5e308, 1, 1.5e308], "detections[1].bbox: x + w or y + h is out of float range"),
    ])
    def test_bad_extents_and_overflowing_corners_name_the_entry(self, tmp_path, bbox,
                                                                message):
        file = tmp_path / "dets.json"
        entries = random_payload(np.random.default_rng(1), 3)
        entries[1]["bbox"] = bbox
        entries[2]["score"] = 2.0  # a later bad entry is never reached
        file.write_text(json.dumps(entries))
        with pytest.raises(ValidationError) as info:
            load_detections(file)
        assert str(info.value) == message

    @pytest.mark.parametrize("score", [float("nan"), float("inf"), 1.5, -0.5, 2])
    def test_score_outside_unit_interval_names_the_entry(self, tmp_path, score):
        file = tmp_path / "dets.json"
        entries = random_payload(np.random.default_rng(2), 2)
        entries[1]["score"] = score
        file.write_text(json.dumps(entries))
        with pytest.raises(ValidationError) as info:
            load_detections(file)
        assert str(info.value) == (
            f"detections[1].score: score must be in [0, 1], got {float(score)}"
        )


class TestDetectionColumns:
    def test_columns_are_read_only_with_fixed_dtypes(self, data_dir):
        c = load_detections(data_dir / "eval_mixed_dets.json")
        assert len(c) == 6
        assert c.image_id.dtype == c.category_id.dtype == c.source_index.dtype == np.int64
        assert c.boxes.shape == (6, 4) and c.boxes.dtype == c.score.dtype == np.float64
        assert c.source_index.tolist() == list(range(6))
        with pytest.raises(ValueError):
            c.score[0] = 0.5

    def test_empty(self):
        c = DetectionColumns(image_id=[], category_id=[], source_index=[], boxes=[], score=[])
        assert len(c) == 0 and c.boxes.shape == (0, 4)

    def test_ragged_columns_are_rejected(self):
        with pytest.raises(ValidationError, match=r"^detection column 'score' has 2 rows$"):
            DetectionColumns(image_id=[1], category_id=[1], source_index=[0],
                             boxes=[[0, 0, 1, 1]], score=[0.5, 0.6])

    @pytest.mark.parametrize("bad_box, bad_score, message", [
        ([0, 0, math.inf, 1], 0.5, "detection row 1 has a non-finite box (0.0, 0.0, inf, 1.0)"),
        ([5, 0, 1, 1], 0.5, "detection row 1 has an inverted box (5.0, 0.0, 1.0, 1.0)"),
        ([0, 3, 1, 2], 0.5, "detection row 1 has an inverted box (0.0, 3.0, 1.0, 2.0)"),
        ([0, 0, 1e200, 1e200], 0.5, "detection row 1 has a box whose w * h is out of float "
                                    "range (0.0, 0.0, 1e+200, 1e+200)"),
        ([0, 0, 1, 1], 7.0, "detection row 1 score must be in [0, 1], got 7.0"),
        ([0, 0, 1, 1], math.nan, "detection row 1 score must be in [0, 1], got nan"),
        # the first bad row is named, whichever rule it breaks
        ([0, 0, math.nan, 1], 7.0, "detection row 1 has a non-finite box (0.0, 0.0, nan, 1.0)"),
    ], ids=["inf-box", "x-inverted", "y-inverted", "area-overflow", "score-7", "score-nan",
            "first-rule-of-row"])
    def test_bad_rows_are_rejected(self, bad_box, bad_score, message):
        with pytest.raises(ValidationError) as info:
            DetectionColumns(image_id=[1, 1, 1], category_id=[1, 1, 1], source_index=[0, 1, 2],
                             boxes=[[0, 0, 1, 1], bad_box, [9, 9, 0, 0]],
                             score=[0.5, bad_score, 2.0])
        assert str(info.value) == message

    def test_contract_agrees_with_the_loader_on_special_floats(self):
        """Each [x, y, w, h] of special floats: the columns accept its corners exactly when
        load_detections accepts it, once w and h pass the loader's sign rule."""
        big = sys.float_info.max
        coords = (0.0, -0.0, -1.0, 1e308, -big, big, math.nan)
        extents = (0.0, 5e-324, 1.0, 1.3e154, big, math.inf)
        for x, y, w, h in itertools.product(coords, coords, extents, extents):
            entry = {"image_id": 1, "category_id": 1, "bbox": [x, y, w, h], "score": 0.5}
            try:
                load_detections("special.json", data=json.dumps([entry]).encode())
                loaded = True
            except ValidationError:
                loaded = False
            try:
                DetectionColumns(image_id=[1], category_id=[1], source_index=[0],
                                 boxes=[x, y, x + w, y + h], score=[0.5])
                built = True
            except ValidationError:
                built = False
            assert built == loaded, (x, y, w, h)

    def test_nan_box_from_the_api_is_rejected(self, mixed_dataset):
        """A NaN width passes BBox's own check, but not the columns'."""
        dets = [det(1, 1, 0, 0, 10, 10, 0.9, src=0), det(1, 1, 0, 0, math.nan, 10, 0.8, src=1)]
        with pytest.raises(ValidationError,
                           match=r"^detection row 1 has a non-finite box \(0\.0, 0\.0, nan, 10\.0\)$"):
            coco_map(detection_columns(dets), mixed_dataset)


class TestDetectionObjectsOnlyAtTheEdge:
    def test_eval_builds_no_detection_or_box(self, data_dir, monkeypatch, capsys):
        """``detforge eval`` parses, matches and scores without one Detection or BBox."""
        calls = []
        for cls in (Detection, BBox):
            original = cls.__init__

            def counting(self, *args, _original=original, **kwargs):
                calls.append(type(self).__name__)
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        dets_path = data_dir / "eval_mixed_dets.json"
        rc = cli.main(["eval", "--ann", str(data_dir / "eval_mixed_ann.json"),
                       "--dets", str(dets_path)])
        assert rc == 0 and json.loads(capsys.readouterr().out)["result"]["n_detections"] == 6
        assert calls == []
        dets = load_detections(dets_path)
        assert len(dets) == 6
        assert calls == []
        # the counter does see the objects built for an API caller
        assert len(detections_of(dets)) == 6
        assert calls.count("Detection") == calls.count("BBox") == 6


class TestDetection:
    def test_score_range_enforced(self):
        with pytest.raises(ValidationError):
            det(1, 1, 0, 0, 10, 10, 1.5)
        with pytest.raises(ValidationError):
            det(1, 1, 0, 0, 10, 10, -0.1)


class TestLoadDetections:
    def test_mixed_fixture(self, data_dir):
        dets = detections_of(load_detections(data_dir / "eval_mixed_dets.json"))
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
            n_gt = max(5, int(flags.sum()))  # never fewer GTs than TPs
            assert average_precision(flags, scores, n_gt) == average_precision(
                flags, squashed, n_gt
            )

    def test_validation(self):
        with pytest.raises(ValidationError):
            average_precision([1], [0.9], n_gt=-1)
        with pytest.raises(ValidationError):
            average_precision([1, 0], [0.9], n_gt=2)

    @pytest.mark.parametrize("n_gt", [math.nan, 2.5, 2.0, True, False, "2", None])
    def test_n_gt_must_be_an_integer(self, n_gt):
        with pytest.raises(ValidationError, match="^n_gt must be an integer, got "):
            average_precision([1, 0], [0.9, 0.8], n_gt=n_gt)

    def test_more_true_positives_than_ground_truth_rejected(self):
        with pytest.raises(ValidationError, match="^3 true positives for n_gt=2$"):
            average_precision([1, 1, 1], [0.9, 0.8, 0.7], n_gt=2)
        assert average_precision([1, 1, 0], [0.9, 0.8, 0.7], n_gt=np.int64(2)) == 1.0

    @pytest.mark.parametrize("flags, scores", [
        ([[1, 0], [0, 1]], [[0.9, 0.8], [0.7, 0.6]]),
        ([2, 0], [0.9, 0.8]),
        ([1, -1], [0.9, 0.8]),
        ([0.5, 1], [0.9, 0.8]),
        ([math.nan, 1], [0.9, 0.8]),
        (["1", "0"], [0.9, 0.8]),
        (1, 0.9),
    ])
    def test_flags_must_be_a_run_of_zeros_and_ones(self, flags, scores):
        with pytest.raises(ValidationError, match="^flags must be a 1-D run of 0s and 1s$"):
            average_precision(flags, scores, n_gt=3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "high", None])
    def test_scores_must_be_finite_numbers(self, bad):
        with pytest.raises(ValidationError, match="^scores must be finite numbers$"):
            average_precision([1, 0, 1], [0.9, bad, 0.7], n_gt=3)

    def test_equals_the_oracle_bit_for_bit(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            n = int(rng.integers(0, 60))
            flags = rng.random(n) < rng.random()
            # coarse scores, so that many tie and the stable order matters
            scores = np.round(rng.random(n), int(rng.integers(0, 3)))
            n_gt = int(np.count_nonzero(flags)) + int(rng.integers(0, 5))
            for f in (flags, flags.astype(np.int64), flags.tolist()):
                want = oracle_average_precision(f, scores, n_gt)
                assert average_precision(f, scores, n_gt) == want
            # unsigned scores rank by their float values, as the oracle casts them
            percent = (scores * 100).astype(np.uint8)
            assert average_precision(flags, percent, n_gt) == oracle_average_precision(
                flags, percent, n_gt)
            if n_gt:
                ranked = flags[np.argsort(-scores, kind="stable")]
                assert evaluation._ranked_ap(ranked, n_gt) == want


class TestCocoMap:
    def test_perfect_detection_of_a_box_near_the_float_maximum_scores_one(self, tmp_path):
        """GT and detection areas of 1.69e308 sum past the float range; the IoU is still 1."""
        big = 10**250
        side = 1.3e154
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps({
            "images": [{"id": 1, "width": big, "height": big, "file_name": "a.png"}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 1,
                             "bbox": [0, 0, side, side]}],
            "categories": [{"id": 1, "name": "c"}],
        }))
        dets = tmp_path / "dets.json"
        dets.write_text(json.dumps([{"image_id": 1, "category_id": 1,
                                     "bbox": [0, 0, side, side], "score": 0.9}]))
        result = coco_map(load_detections(dets), load_dataset(ann))
        assert (result.ap, result.ap_large, result.ap_small) == (1.0, 1.0, -1.0)

    def test_thresholds_are_the_coco_ladder(self):
        assert IOU_THRESHOLDS == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
        assert MAX_DETS_PER_IMAGE == 100

    def test_hand_traced_fixture(self, mixed_dataset, mixed_detections):
        result = coco_map(detection_columns(mixed_detections), mixed_dataset)
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
        result = coco_map(detection_columns(dets), mixed_dataset)
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
        result = coco_map(detection_columns([]), mixed_dataset)
        assert result.ap == 0.0
        assert result.n_detections == 0
        assert result.per_class_ap == {1: 0.0, 2: -1.0}

    def test_dangling_references(self, mixed_dataset):
        with pytest.raises(DanglingReference):
            coco_map(detection_columns([det(999, 1, 0, 0, 10, 10, 0.9)]), mixed_dataset)
        with pytest.raises(DanglingReference):
            coco_map(detection_columns([det(1, 99, 0, 0, 10, 10, 0.9)]), mixed_dataset)
        # the first offender in list order, not score order, is named, and
        # within one detection its image before its category
        dets = [det(1, 1, 0, 0, 10, 10, 0.9, src=0), det(1, 99, 0, 0, 10, 10, 0.1, src=1),
                det(999, 1, 0, 0, 10, 10, 0.95, src=2)]
        with pytest.raises(DanglingReference,
                           match=r"^detection 1 references unknown category id 99$"):
            coco_map(detection_columns(dets), mixed_dataset)
        dets[1] = det(998, 99, 0, 0, 10, 10, 0.1, src=1)
        with pytest.raises(DanglingReference,
                           match=r"^detection 1 references unknown image id 998$"):
            coco_map(detection_columns(dets), mixed_dataset)

    @pytest.mark.parametrize("field", ["image_id", "category_id", "source_index"])
    @pytest.mark.parametrize("value", [10**30, 2**63, -(2**63) - 1])
    def test_id_past_int64_is_a_one_line_error(self, mixed_dataset, field, value):
        ids = {"image_id": 1, "category_id": 1, "source_index": 0, field: value}
        dets = [det(1, 1, 0, 0, 10, 10, 0.9, src=1),
                Detection(ids["image_id"], ids["category_id"], box(0, 0, 1, 1), 0.5,
                          ids["source_index"])]
        with pytest.raises(ValidationError,
                           match=rf"^detection {field} is out of int64 range$"):
            coco_map(detection_columns(dets), mixed_dataset)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 2.0, -1.0])
    def test_thresholds_must_be_finite_and_in_unit_interval(
        self, mixed_dataset, mixed_detections, bad
    ):
        with pytest.raises(ValidationError, match="IoU thresholds"):
            coco_map(detection_columns(mixed_detections), mixed_dataset, iou_thresholds=[0.5, bad])
        # the interval is closed: both ends are legal thresholds
        coco_map(detection_columns(mixed_detections), mixed_dataset, iou_thresholds=[0.0, 1.0])

    def test_max_dets_keeps_top_scores_per_image(self, mixed_dataset):
        dets = [
            det(1, 1, 0, 0, 10, 10, 0.9, src=0),         # true hit
            det(1, 1, 300, 300, 10, 10, 0.8, src=1),      # fp
            det(1, 1, 100, 100, 40, 40, 0.7, src=2),      # true hit, lowest score
        ]
        full = coco_map(detection_columns(dets), mixed_dataset)
        capped = coco_map(detection_columns(dets), mixed_dataset, max_dets=2)
        assert full.n_detections == 3
        assert capped.n_detections == 2
        assert capped.ap50 < full.ap50  # the dropped detection was a TP

    def test_high_scoring_fp_never_helps(self, mixed_dataset, mixed_detections):
        base = coco_map(detection_columns(mixed_detections), mixed_dataset)
        spiked = mixed_detections + [det(1, 1, 500, 500, 20, 20, 0.99, src=50)]
        worse = coco_map(detection_columns(spiked), mixed_dataset)
        for field in ("ap", "ap50", "ap75", "ap_small", "ap_medium", "ap_large"):
            b, w = getattr(base, field), getattr(worse, field)
            if b >= 0.0:
                assert w <= b, field

    def test_trailing_duplicate_tp_changes_nothing(self, mixed_dataset, mixed_detections):
        """The dup re-hit on a matched GT ranks last, so every AP is identical."""
        without_dup = mixed_detections[:-1]
        a = coco_map(detection_columns(without_dup), mixed_dataset)
        b = coco_map(detection_columns(mixed_detections), mixed_dataset)
        assert (a.ap, a.ap50, a.ap75) == (b.ap, b.ap50, b.ap75)
        assert (a.ap_small, a.ap_medium, a.ap_large) == (b.ap_small, b.ap_medium, b.ap_large)
        assert b.n_detections == a.n_detections + 1

    def test_ap50_at_least_ap(self, mixed_dataset, mixed_detections, tiny_dataset, data_dir):
        for dets, ds in (
            (detection_columns(mixed_detections), mixed_dataset),
            (load_detections(data_dir / "tiny_perfect_dets.json"), tiny_dataset),
        ):
            result = coco_map(dets, ds)
            assert result.ap50 >= result.ap

    def test_single_threshold_override(self, mixed_dataset, mixed_detections):
        result = coco_map(detection_columns(mixed_detections), mixed_dataset, iou_thresholds=(0.5,))
        assert result.ap == result.ap50
        assert result.ap75 == -1.0  # threshold not evaluated

    def test_deterministic(self, mixed_dataset, mixed_detections):
        a = coco_map(detection_columns(mixed_detections), mixed_dataset).to_dict()
        b = coco_map(detection_columns(mixed_detections), mixed_dataset).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_result_serializes_with_string_class_keys(self, mixed_dataset, mixed_detections):
        blob = coco_map(detection_columns(mixed_detections), mixed_dataset).to_dict()
        assert set(blob["per_class_ap"]) == {"1", "2"}


def random_case(rng, n_images, n_classes, max_gts, max_dets):
    """A small dataset and detections that hit the matcher's edge cases.

    Boxes sit on a coarse grid, so equal IoUs (also between two GTs) and
    exact slice-boundary areas (32^2, 96^2) are common; extents include
    zero. Scores come from a short list, so ties are common too. GTs are
    sometimes crowd, sometimes duplicated, and sometimes carry an
    ``area`` that is not their box area (zero among them).
    """
    extents = (0, 1, 8, 16, 32, 33, 64, 96, 97)
    corners = (0, 8, 16, 32)

    def rand_box():
        x, y = rng.choice(corners, 2)
        w, h = rng.choice(extents, 2)
        return from_xywh(float(x), float(y), float(w), float(h))

    images = tuple(ImageRecord(i, 200, 200, f"{i}.png") for i in range(1, n_images + 1))
    categories = tuple(Category(c, f"c{c}") for c in range(1, n_classes + 1))
    instances = []
    for image in images:
        for _ in range(int(rng.integers(0, max_gts + 1))):
            b = rand_box()
            if instances and instances[-1].image_id == image.id and rng.random() < 0.3:
                # a twin of the last GT, or its transpose about the same
                # corner: a square det on that corner ties between them
                t = instances[-1].bbox
                b = t if rng.random() < 0.5 else from_xywh(t.x_min, t.y_min, t.height, t.width)
            area = float(rng.choice([b.area, b.area, SMALL_AREA_MAX, MEDIUM_AREA_MAX,
                                     rng.uniform(0, 12000), 0.0]))
            instances.append(Instance(len(instances) + 1, image.id,
                                      int(rng.integers(1, n_classes + 1)), b, area,
                                      ignore=bool(rng.random() < 0.25)))
    dets = []
    for image in images:
        mine = [g for g in instances if g.image_id == image.id]
        for _ in range(int(rng.integers(0, max_dets + 1))):
            if mine and rng.random() < 0.6:  # near a GT, often on a crowd one
                g = mine[int(rng.integers(len(mine)))]
                if rng.random() < 0.3:
                    side = min(g.bbox.width, g.bbox.height)
                    b = from_xywh(g.bbox.x_min, g.bbox.y_min, side, side)
                else:
                    b = shifted(g.bbox, *rng.choice([0.0, 0.0, 1.0, 8.0], 2))
                cat = g.category_id if rng.random() < 0.8 else int(rng.integers(1, n_classes + 1))
            else:
                b, cat = rand_box(), int(rng.integers(1, n_classes + 1))
            score = float(rng.choice([0.0, 0.3, 0.5, 0.5, 0.9, 1.0]))
            dets.append(Detection(image.id, cat, b, score, len(dets)))
    order = rng.permutation(len(dets))  # source order need not follow images
    dets = [dets[i] for i in order]
    return dataset_of(images, instances, categories), dets


class TestCocoMapAgainstScalarOracle:
    """coco_map against the scalar oracle."""

    @pytest.mark.parametrize("max_dets", [0, 1, 2, MAX_DETS_PER_IMAGE])
    @pytest.mark.parametrize("thresholds", [None, (0.0,), (1.0,), (0.5, 0.75)])
    def test_randomized_cases_match_exactly(self, max_dets, thresholds):
        rng = np.random.default_rng(1000 + 10 * max_dets + len(thresholds or ()))
        for trial in range(25):
            ds, dets = random_case(rng, n_images=int(rng.integers(1, 5)),
                                   n_classes=int(rng.integers(1, 4)), max_gts=6, max_dets=8)
            want = scalar_coco_map(dets, ds, max_dets=max_dets, iou_thresholds=thresholds)
            got = coco_map(detection_columns(dets), ds, max_dets=max_dets,
                           iou_thresholds=thresholds)
            assert got.to_dict() == want.to_dict(), f"trial {trial}"

    def test_iou_tie_goes_to_the_lowest_gt_index(self, mixed_dataset):
        tall, wide = box(0, 0, 10, 20), box(0, 0, 20, 10)
        ds = dataset_of(mixed_dataset.images[:1],
                        (Instance(1, 1, 1, tall, tall.area), Instance(2, 1, 1, wide, wide.area)),
                        mixed_dataset.categories)
        # the square ties at IoU 0.5 and takes the tall GT, so the tall det
        # that follows is left with the wide one (IoU 1/3): a miss at 0.5
        dets = [Detection(1, 1, box(0, 0, 10, 10), 0.9, 0), Detection(1, 1, tall, 0.8, 1)]
        result = coco_map(detection_columns(dets), ds, iou_thresholds=[0.5])
        assert result.ap == pytest.approx(51.0 / 101.0, abs=1e-15)
        assert result.to_dict() == scalar_coco_map(dets, ds, iou_thresholds=[0.5]).to_dict()

    def test_repeated_source_indices_keep_the_scalar_tie_order(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            ds, dets = random_case(rng, 3, 2, 5, 8)
            dets = [Detection(d.image_id, d.category_id, d.bbox, d.score, i % 3)
                    for i, d in enumerate(dets)]
            got = coco_map(detection_columns(dets), ds)
            assert got.to_dict() == scalar_coco_map(dets, ds).to_dict()

    @pytest.mark.parametrize("groups, cells", [(1, 1 << 16), (3, 1 << 16), (128, 40)])
    def test_chunk_boundaries_change_nothing(self, monkeypatch, groups, cells):
        monkeypatch.setattr(evaluation, "_CHUNK_GROUPS", groups)
        monkeypatch.setattr(evaluation, "_CHUNK_CELLS", cells)
        rng = np.random.default_rng(groups + cells)
        ds, dets = random_case(rng, n_images=12, n_classes=3, max_gts=8, max_dets=12)
        got = coco_map(detection_columns(dets), ds)
        assert got.to_dict() == scalar_coco_map(dets, ds).to_dict()

    def test_padded_cells_of_a_chunk_are_never_read(self, monkeypatch):
        original = evaluation._lockstep_flags

        def poisoned(ious, n_dets, in_slice, live, absorbing, thresholds):
            # a padded GT is neither live nor absorbing in any slice
            padded = (~(live | absorbing).any(axis=0)[:, None, :]
                      | (np.arange(ious.shape[1]) >= n_dets[:, None])[:, :, None])
            return original(np.where(padded, 1.0, ious), n_dets, in_slice, live, absorbing,
                            thresholds)

        monkeypatch.setattr(evaluation, "_lockstep_flags", poisoned)
        monkeypatch.setattr(evaluation, "_CHUNK_GROUPS", 5)
        rng = np.random.default_rng(31)
        for trial in range(10):
            ds, dets = random_case(rng, n_images=6, n_classes=3, max_gts=6, max_dets=10)
            want = scalar_coco_map(dets, ds, iou_thresholds=(0.0, 0.5))
            assert coco_map(detection_columns(dets), ds, iou_thresholds=(0.0, 0.5)).to_dict() == \
                want.to_dict(), f"trial {trial}"

    def test_fixtures_match(self, mixed_dataset, mixed_detections, tiny_dataset, data_dir):
        tiny_dets = detections_of(load_detections(data_dir / "tiny_perfect_dets.json"))
        for dets, ds in ((mixed_detections, mixed_dataset), (tiny_dets, tiny_dataset),
                         ([], mixed_dataset)):
            for max_dets in (0, 2):
                for thresholds in (None, (0.0, 1.0), (0.5,)):
                    got = coco_map(detection_columns(dets), ds, max_dets=max_dets,
                                   iou_thresholds=thresholds)
                    want = scalar_coco_map(dets, ds, max_dets=max_dets,
                                           iou_thresholds=thresholds)
                    assert got.to_dict() == want.to_dict()

    @pytest.mark.parametrize("seed", range(4))
    def test_unsorted_and_duplicated_thresholds_match_exactly(self, seed):
        # the lowest threshold is neither first nor alone: a matcher that
        # reads thresholds[0] as the lowest misses the dets that reach
        # only a later, lower one
        rng = np.random.default_rng(2000 + seed)
        grid = np.arange(21) / 20.0
        fixed = [(0.75, 0.5, 0.75), (1.0, 0.0), (0.95, 0.5, 0.05, 0.5)]
        for trial in range(12):
            if trial < len(fixed):
                thresholds = fixed[trial]
            else:
                values = rng.choice(grid, int(rng.integers(1, 4)))
                repeated = np.append(values, values[0])
                thresholds = (values.max(), *rng.permutation(repeated).tolist())
            ds, dets = random_case(rng, n_images=int(rng.integers(1, 5)),
                                   n_classes=int(rng.integers(1, 4)), max_gts=6, max_dets=8)
            want = scalar_coco_map(dets, ds, iou_thresholds=thresholds)
            got = coco_map(detection_columns(dets), ds, iou_thresholds=thresholds)
            assert got.to_dict() == want.to_dict(), f"trial {trial}: {thresholds}"


# -------------------------------------------------------- lock-step oracle
# The lock-step matcher before its match-state-free terms moved out of
# the rank loop: every step recomputes reach, absorption and the flag
# write for every (slice, group) lane. _lockstep_flags must return the
# same int8 flags.


def oracle_lockstep_flags(ious, n_dets, in_slice, live, absorbing, thresholds) -> np.ndarray:
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
    """
    n_slices, n_groups, d_max = in_slice.shape
    thr = np.asarray(thresholds, dtype=np.float64)[:, None, None]
    flags = np.full((n_slices, len(thr), n_groups, d_max), -1, dtype=np.int8)
    matched = np.zeros((n_slices, len(thr), n_groups, ious.shape[2]), dtype=bool)
    for k in range(d_max):
        n = int(np.count_nonzero(n_dets > k))
        v = ious[:n, k]
        reach = v >= thr
        cand = reach & live[:, None, :n] & ~matched[:, :, :n]
        best = np.where(cand, v, -1.0).argmax(axis=-1)
        here = in_slice[:, None, :n, k]
        hit = cand.any(axis=-1) & here
        s, t, g = np.nonzero(hit)
        matched[s, t, g, best[hit]] = True
        absorbed = (reach & absorbing[:, None, :n]).any(axis=-1)
        flags[:, :, :n, k] = np.where(hit, 1, np.where(absorbed | ~here, -1, 0))
    return flags


def random_chunk(rng, n_groups: int, d_max: int, g_max: int):
    """Inputs of one lock-step chunk for four slices, with hostile padding.

    Det counts descend from ``d_max``; some groups have no GT and some
    only crowd GTs. IoUs mix exact thresholds, ties and random values.
    Padded cells hold NaN or high IoUs, and dets past a group's count
    may be marked in the slice: only ``n_dets`` says they are padding.
    Returns ``(ious, n_dets, in_slice, live, absorbing)``.
    """
    n_dets = np.sort(rng.integers(1, d_max + 1, n_groups))[::-1]
    n_dets[0] = d_max
    n_gts = rng.integers(0, g_max + 1, n_groups)
    n_gts[rng.random(n_groups) < 0.2] = 0
    g = max(int(n_gts.max()), 1)
    d_valid = np.arange(d_max) < n_dets[:, None]
    g_valid = np.arange(g) < n_gts[:, None]
    values = np.concatenate([[0.0, 0.05, 0.5, 0.5, 0.75, 0.95, 1.0], rng.random(5)])
    padding = rng.choice([np.nan, 0.9, 1.0], (n_groups, d_max, g))
    ious = np.where(d_valid[:, :, None] & g_valid[:, None, :],
                    rng.choice(values, (n_groups, d_max, g)), padding)
    crowd = (rng.random((n_groups, g)) < 0.2) | (rng.random((n_groups, 1)) < 0.2)
    live = ~crowd & (rng.random((4, n_groups, g)) < 0.7) & g_valid
    absorbing = ~live & g_valid
    in_slice = rng.random((4, n_groups, d_max)) < 0.7
    return ious, n_dets, in_slice, live, absorbing


class TestLockstepAgainstOracle:
    """_lockstep_flags against oracle_lockstep_flags, bit for bit."""

    THRESHOLDS = [IOU_THRESHOLDS, (0.0,), (1.0,), (0.0, 1.0), (0.75, 0.5, 0.75), (1.0, 0.0)]

    def check(self, *args):
        want = oracle_lockstep_flags(*args)
        got = evaluation._lockstep_flags(*args)
        assert got.dtype == np.int8 and got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("thresholds", THRESHOLDS)
    def test_random_chunks(self, thresholds):
        rng = np.random.default_rng(len(thresholds) + int(10 * sum(thresholds)))
        for _ in range(20):
            chunk = random_chunk(rng, n_groups=int(rng.integers(1, 12)),
                                 d_max=int(rng.integers(1, 10)), g_max=int(rng.integers(0, 7)))
            self.check(*chunk, thresholds)

    def test_random_threshold_lists(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            thresholds = tuple(rng.choice(np.arange(21) / 20.0, int(rng.integers(1, 6))).tolist())
            chunk = random_chunk(rng, n_groups=int(rng.integers(1, 8)),
                                 d_max=int(rng.integers(1, 8)), g_max=int(rng.integers(0, 5)))
            self.check(*chunk, thresholds)

    def test_a_single_group_past_the_cell_bound(self):
        rng = np.random.default_rng(4)
        chunk = random_chunk(rng, n_groups=1, d_max=300, g_max=250)
        assert chunk[0].size > evaluation._CHUNK_CELLS
        self.check(*chunk, (0.75, 0.5, 0.75))

    def test_every_chunk_of_random_cases(self, monkeypatch):
        chunks = []
        original = evaluation._lockstep_flags

        def checked(*args):
            chunks.append(args)
            return original(*args)

        monkeypatch.setattr(evaluation, "_lockstep_flags", checked)
        monkeypatch.setattr(evaluation, "_CHUNK_GROUPS", 4)
        rng = np.random.default_rng(11)
        for _ in range(10):
            ds, dets = random_case(rng, n_images=8, n_classes=3, max_gts=6, max_dets=10)
            coco_map(detection_columns(dets), ds, iou_thresholds=(0.95, 0.0, 0.5, 0.5))
        monkeypatch.setattr(evaluation, "_lockstep_flags", original)
        assert len(chunks) > 20
        for args in chunks:
            self.check(*args)


def test_memory_is_bounded_without_a_whole_dataset_batch():
    # 200 images x 20 GTs x 100 dets over 2 classes: 400 groups of about
    # 50 dets and 10 GTs. Matching all of them in one batch would hold a
    # (slices, thresholds, groups, dets, GTs) mask of 4*10*400*50*10 bytes
    # = 8 MB on top of everything else, so a peak under 8 MB rules that
    # out. What coco_map must keep is O(dets): a (4, 10, 20000) int8 flag
    # array (0.8 MB), a few arrays and reference lists of 20,000 entries
    # (0.16 MB each), plus one chunk of at most 2^16 padded IoU cells
    # (0.5 MB) and its masks; it measures about 4.5 MB.
    rng = np.random.default_rng(3)
    images = tuple(ImageRecord(i, 1000, 1000, f"{i}.png") for i in range(1, 201))
    instances, dets = [], []
    for image in images:
        xy = rng.uniform(0, 900, (20, 2))
        wh = rng.uniform(4, 100, (20, 2))
        for x, y, w, h in np.hstack([xy, wh]):
            b = from_xywh(x, y, w, h)
            instances.append(Instance(len(instances) + 1, image.id,
                                      int(rng.integers(1, 3)), b, b.area))
        for j in range(100):
            g = instances[-20 + j % 20]
            jitter = rng.normal(0, 3, 4)
            b = from_xywh(g.bbox.x_min + jitter[0], g.bbox.y_min + jitter[1],
                          abs(g.bbox.width + jitter[2]), abs(g.bbox.height + jitter[3]))
            dets.append(Detection(image.id, g.category_id, b, float(rng.random()), len(dets)))
    ds = dataset_of(images, instances, (Category(1, "a"), Category(2, "b")))
    tracemalloc.start()
    try:
        result = coco_map(detection_columns(dets), ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.n_detections == 20000 and 0.0 < result.ap < 1.0
    assert peak < 8_000_000, peak


class TestDeviationsFromCocoEval:
    """Where coco_map knowingly differs from pycocotools' COCOeval.

    Each fixture is traced by hand and pins today's value; the comment
    gives what COCOeval would report instead.
    """

    def dataset(self, *gts):
        """One 800x800 image, classes 1 and 2; each GT is (cat, box, area, crowd)."""
        return dataset_of(
            (ImageRecord(1, 800, 800, "a.png"),),
            tuple(Instance(i + 1, 1, cat, b, area, crowd)
                  for i, (cat, b, area, crowd) in enumerate(gts)),
            (Category(1, "car"), Category(2, "truck")),
        )

    def test_a_max_dets_caps_per_image_across_classes(self):
        car, truck = box(0, 0, 20, 20), box(100, 100, 140, 140)
        ds = self.dataset((1, car, car.area, False), (2, truck, truck.area, False))
        dets = [Detection(1, 2, truck, 0.9, 0), Detection(1, 1, car, 0.8, 1)]
        result = coco_map(detection_columns(dets), ds, max_dets=1)
        # the cap keeps only the truck; COCOeval caps per (image, class)
        # and would keep the car too, for per_class_ap {1: 1.0, 2: 1.0}
        assert result.n_detections == 1
        assert result.per_class_ap == {1: 0.0, 2: 1.0}
        assert result.ap == 0.5

    def test_b_out_of_slice_dets_are_dropped_before_matching(self):
        gt = box(0, 0, 30, 30)  # area 900: small
        ds = self.dataset((1, gt, gt.area, False))
        dets = [Detection(1, 1, box(0, 0, 40, 40), 0.9, 0)]  # area 1600, IoU 0.5625
        result = coco_map(detection_columns(dets), ds, iou_thresholds=[0.5])
        # the medium det never meets the small GT in the small slice;
        # COCOeval matches it there and would report ap_small 1.0
        assert result.ap == 1.0
        assert result.ap_small == 0.0
        assert result.ap_medium == -1.0

    def test_c_crowd_gt_is_scored_by_plain_iou(self):
        crowd, car = box(0, 0, 100, 100), box(200, 200, 220, 220)
        ds = self.dataset((1, crowd, crowd.area, True), (1, car, car.area, False))
        dets = [Detection(1, 1, box(10, 10, 30, 30), 0.9, 0),  # IoU 0.04 with the crowd
                Detection(1, 1, car, 0.8, 1)]
        result = coco_map(detection_columns(dets), ds, iou_thresholds=[0.5])
        # the det inside the crowd region is a false positive ranked above
        # the hit; COCOeval scores a crowd GT by intersection over det
        # area (here 1.0), would ignore that det and report ap 1.0
        assert result.ap == 0.5
        assert result.n_gt == 1

    def test_d_slice_bounds_are_half_open(self):
        gt = box(0, 0, 32, 32)  # area exactly 32^2
        ds = self.dataset((1, gt, gt.area, False))
        result = coco_map(detection_columns([Detection(1, 1, gt, 0.9, 0)]), ds)
        # [lo, hi) puts the GT in medium only; COCOeval's bounds are
        # inclusive, so it is small and medium there and ap_small is 1.0
        assert result.ap_small == -1.0
        assert result.ap_medium == 1.0
        assert result.ap == 1.0
