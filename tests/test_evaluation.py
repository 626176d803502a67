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
from detforge.errors import ValidationError
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
    clamp,
    dataset_of,
    detection_columns,
    detections_of,
    from_xywh,
    oracle_ioa,
    oracle_load_detections,
    shifted,
)


def det(image_id, cat, x, y, w, h, score):
    return Detection(image_id, cat, from_xywh(x, y, w, h), score)


def box(x0, y0, x1, y1):
    return BBox(float(x0), float(y0), float(x1), float(y1))


# ------------------------------------------------------------------ oracle
# pycocotools' COCOeval, step for step: evaluateImg's scan per (image,
# class, slice, threshold) over scalar overlaps, and accumulate's pooling
# per class. coco_map must agree with it exactly.


def greedy_match(
    det_boxes: Sequence[BBox],
    gt_boxes: Sequence[BBox],
    gt_ignore: Optional[Sequence[bool]],
    iou_thr: float,
    gt_crowd: Optional[Sequence[bool]] = None,
) -> np.ndarray:
    """COCOeval's ``evaluateImg`` match at one threshold.

    Flags per detection: 1 matched to a live GT, -1 matched to an ignore
    GT, 0 unmatched. Detections must already be in rank order.
    ``gt_ignore`` marks the GTs that do not count (crowd, or outside the
    size slice) and ``gt_crowd`` the crowd ones among them, which are
    scored by intersection over the det's area and stay open after a
    match. The GTs are stable-sorted ignore last; each det scans them
    from ``min(thr, 1 - 1e-10)`` up, skips a matched non-crowd GT, stops
    at the first ignore GT once it holds a live one, and takes any GT
    whose overlap is not below the best so far, so ties go to the last.
    """
    n = len(gt_boxes)
    gt_ignore = [False] * n if gt_ignore is None else gt_ignore
    gt_crowd = [False] * n if gt_crowd is None else gt_crowd
    order = sorted(range(n), key=lambda j: gt_ignore[j])
    flags = np.zeros(len(det_boxes), dtype=np.int8)
    matched = [False] * n
    for i, db in enumerate(det_boxes):
        best_v, m = min(iou_thr, 1 - 1e-10), -1
        for j in order:
            if matched[j] and not gt_crowd[j]:
                continue
            if m > -1 and not gt_ignore[m] and gt_ignore[j]:
                break
            v = oracle_ioa(db, gt_boxes[j]) if gt_crowd[j] else iou(db, gt_boxes[j])
            if v < best_v:
                continue
            best_v, m = v, j
        if m > -1:
            flags[i] = -1 if gt_ignore[m] else 1
            matched[m] = True
    return flags


def oracle_average_precision(flags, scores, n_gt: int) -> float:
    """The original AP: a stable re-sort, cumsums of TPs and FPs, COCOeval's recall grid.

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
    grid = np.linspace(0.0, 1.00, int(np.round((1.00 - 0.0) / 0.01)) + 1, endpoint=True)
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
    """COCOeval's ``evaluate`` and ``accumulate`` over Detection and Instance objects.

    Per (image, class), the dets in list order are stable-sorted by
    -score and cut to ``max_dets`` (0: no cap), and each box is clamped
    into its image, as the loader clamps GTs. Per slice ``[lo, hi]`` a
    GT is ignored when crowd or when its ``area`` is outside, and an
    unmatched det is ignored when its box area is outside. Per class,
    each image's flags are joined in image-id order and stable-sorted by
    -score. Two steps keep coco_map's arithmetic, so that both agree bit
    for bit: precision is TPs over rank, without COCOeval's
    ``np.spacing(1)``, and the mean runs over recall levels, then
    thresholds, then classes.
    """
    thresholds = (
        IOU_THRESHOLDS if iou_thresholds is None else tuple(float(t) for t in iou_thresholds)
    )
    image_ids = sorted(ds.image_by_id)
    class_ids = sorted(ds.category_by_id)
    det_groups = defaultdict(list)
    for d in dets:
        det_groups[(d.image_id, d.category_id)].append(d)
    kept = {}
    for (image_id, cat), group in det_groups.items():
        image = ds.image_by_id[image_id]
        bounds = box(0, 0, image.width, image.height)
        ranked = sorted(group, key=lambda d: -d.score)[: max_dets if max_dets > 0 else None]
        kept[(image_id, cat)] = [(d.score, clamp(d.bbox, bounds)) for d in ranked]
    gt_groups = defaultdict(list)
    for inst in ds.instances:
        gt_groups[(inst.image_id, inst.category_id)].append(inst)

    def class_threshold_aps(cat: int, lo: float, hi: float):
        n_gt = sum(1 for g in ds.instances
                   if g.category_id == cat and not g.ignore and lo <= g.area <= hi)
        if n_gt == 0:
            return None
        aps = []
        for thr in thresholds:
            pooled = []
            for image_id in image_ids:
                dts = kept.get((image_id, cat), [])
                gts = gt_groups.get((image_id, cat), [])
                flags = greedy_match(
                    [b for _, b in dts], [g.bbox for g in gts],
                    [g.ignore or not lo <= g.area <= hi for g in gts], thr,
                    [g.ignore for g in gts],
                )
                pooled.extend(
                    (score, int(f)) for (score, b), f in zip(dts, flags)
                    if f == 1 or (f == 0 and lo <= b.area <= hi)
                )
            pooled.sort(key=lambda p: -p[0])
            aps.append(oracle_average_precision(
                [f for _, f in pooled], [score for score, _ in pooled], n_gt))
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
        n_detections=sum(len(group) for group in kept.values()),
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
        assert c.image_id.dtype == c.category_id.dtype == np.int64
        assert c.boxes.shape == (6, 4) and c.boxes.dtype == c.score.dtype == np.float64
        with pytest.raises(ValueError):
            c.score[0] = 0.5

    def test_empty(self):
        c = DetectionColumns(image_id=[], category_id=[], boxes=[], score=[])
        assert len(c) == 0 and c.boxes.shape == (0, 4)

    def test_there_is_no_source_index_column(self):
        with pytest.raises(TypeError, match="source_index"):
            DetectionColumns(image_id=[1], category_id=[1], boxes=[[0, 0, 1, 1]], score=[0.5],
                             source_index=[0])

    def test_ragged_columns_are_rejected(self):
        with pytest.raises(ValidationError, match=r"^detection column 'score' has 2 rows$"):
            DetectionColumns(image_id=[1], category_id=[1], boxes=[[0, 0, 1, 1]],
                             score=[0.5, 0.6])

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
            DetectionColumns(image_id=[1, 1, 1], category_id=[1, 1, 1],
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
                DetectionColumns(image_id=[1], category_id=[1], boxes=[x, y, x + w, y + h],
                                 score=[0.5])
                built = True
            except ValidationError:
                built = False
            assert built == loaded, (x, y, w, h)

    def test_nan_box_from_the_api_is_rejected(self, mixed_dataset):
        """A NaN width passes BBox's own check, but not the columns'."""
        dets = [det(1, 1, 0, 0, 10, 10, 0.9), det(1, 1, 0, 0, math.nan, 10, 0.8)]
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
        assert dets[0].bbox == box(0, 0, 10, 10)
        assert dets[0].score == 0.9

    def test_missing_key_names_the_entry(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps([{"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5]}]))
        with pytest.raises(ValidationError,
                           match=r"^missing required key: 'detections\[0\]\.score'$"):
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

    def test_live_gt_preferred_over_a_closer_ignore_gt(self):
        # the ignore GT overlaps at 1.0, the live one only at 0.5: the scan
        # holds the live one when it reaches the ignore GTs, and stops there
        gts = [box(0, 0, 10, 10), box(0, 0, 10, 20)]
        flags = greedy_match([box(0, 0, 10, 10)], gts, [True, False], 0.5)
        assert flags.tolist() == [1]

    def test_a_crowd_gt_absorbs_many_and_an_ignore_gt_one(self):
        dets = [box(0, 0, 10, 10), box(1, 1, 11, 11), box(2, 2, 12, 12)]
        region = [box(0, 0, 12, 12)]
        assert greedy_match(dets, region, [True], 0.3, [True]).tolist() == [-1, -1, -1]
        assert greedy_match(dets, region, [True], 0.3).tolist() == [-1, 0, 0]

    def test_a_crowd_gt_scores_by_intersection_over_the_det_area(self):
        # IoU 100 / 10000 = 0.01, but the region covers the whole det
        dets = [box(10, 10, 20, 20)]
        region = [box(0, 0, 100, 100)]
        assert greedy_match(dets, region, [True], 0.5, [True]).tolist() == [-1]
        assert greedy_match(dets, region, [True], 0.5).tolist() == [0]

    def test_an_iou_tie_goes_to_the_last_gt(self):
        # the det ties with both GTs at 90 / 110; it takes the right one,
        # which leaves the left one to the exact second det
        left, right = box(0, 0, 10, 10), box(2, 0, 12, 10)
        flags = greedy_match([box(1, 0, 11, 10), left], [left, right], None, 0.75)
        assert flags.tolist() == [1, 1]

    def test_a_threshold_of_one_takes_an_overlap_just_below_it(self):
        near = box(0, 0, 1, 1 + 1e-11)  # IoU 1 / (1 + 1e-11), above 1 - 1e-10
        assert greedy_match([near], [box(0, 0, 1, 1)], None, 1.0).tolist() == [1]
        far = box(0, 0, 1, 1 + 1e-9)
        assert greedy_match([far], [box(0, 0, 1, 1)], None, 1.0).tolist() == [0]

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
        for trial in range(300):
            n_det = int(rng.integers(0, 8))
            n_gt = int(rng.integers(0, 6))
            corners = rng.choice([0.0, 4.0, 8.0], (n_det + n_gt, 2))
            sides = rng.choice([4.0, 8.0, 12.0], (n_det + n_gt, 2))
            boxes = [box(x, y, x + w, y + h) for (x, y), (w, h) in zip(corners, sides)]
            dets, gts = boxes[:n_det], boxes[n_det:]
            crowd = [bool(rng.random() < 0.2) for _ in gts]
            ignore = [c or bool(rng.random() < 0.25) for c in crowd]
            thr = float(rng.choice([0.3, 0.5, 0.75, 1.0]))

            got = greedy_match(dets, gts, ignore, thr, crowd).tolist()

            # the best open GT by (overlap, index), live ones first
            matched = [False] * n_gt
            want = []
            for d in dets:
                overlap = [oracle_ioa(d, g) if c else iou(d, g) for g, c in zip(gts, crowd)]
                for pool in (False, True):
                    candidates = [
                        (overlap[j], j) for j in range(n_gt)
                        if ignore[j] == pool and (crowd[j] or not matched[j])
                        and overlap[j] >= min(thr, 1 - 1e-10)
                    ]
                    if candidates:
                        matched[max(candidates)[1]] = True
                        want.append(-1 if pool else 1)
                        break
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
        # COCOeval's np.linspace ladder: 0.9 comes out one ulp low
        assert IOU_THRESHOLDS == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85,
                                  0.8999999999999999, 0.95)
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
            Detection(inst.image_id, inst.category_id, inst.bbox, 1.0)
            for inst in mixed_dataset.instances
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
        with pytest.raises(ValidationError,
                           match=r"^detection 0 references unknown image id 999$"):
            coco_map(detection_columns([det(999, 1, 0, 0, 10, 10, 0.9)]), mixed_dataset)
        with pytest.raises(ValidationError,
                           match=r"^detection 0 references unknown category id 99$"):
            coco_map(detection_columns([det(1, 99, 0, 0, 10, 10, 0.9)]), mixed_dataset)
        # the first offender in list order, not score order, is named, and
        # within one detection its image before its category
        dets = [det(1, 1, 0, 0, 10, 10, 0.9), det(1, 99, 0, 0, 10, 10, 0.1),
                det(999, 1, 0, 0, 10, 10, 0.95)]
        with pytest.raises(ValidationError,
                           match=r"^detection 1 references unknown category id 99$"):
            coco_map(detection_columns(dets), mixed_dataset)
        dets[1] = det(998, 99, 0, 0, 10, 10, 0.1)
        with pytest.raises(ValidationError,
                           match=r"^detection 1 references unknown image id 998$"):
            coco_map(detection_columns(dets), mixed_dataset)

    @pytest.mark.parametrize("field", ["image_id", "category_id"])
    @pytest.mark.parametrize("value", [10**30, 2**63, -(2**63) - 1])
    def test_id_past_int64_is_a_one_line_error(self, mixed_dataset, field, value):
        ids = {"image_id": 1, "category_id": 1, field: value}
        dets = [det(1, 1, 0, 0, 10, 10, 0.9),
                Detection(ids["image_id"], ids["category_id"], box(0, 0, 1, 1), 0.5)]
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

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_dets": True}, "max_dets must be an integer, got True"),
        ({"max_dets": 1.5}, "max_dets must be an integer, got 1.5"),
        ({"max_dets": "3"}, "max_dets must be an integer, got '3'"),
        ({"max_dets": -1}, "max_dets must be at least 0, got -1"),
        ({"iou_thresholds": ["0.5"]}, "iou_thresholds[0] must be a real number, got '0.5'"),
        ({"iou_thresholds": [0.5, True]}, "iou_thresholds[1] must be a real number, got True"),
        ({"iou_thresholds": 0.5}, "iou_thresholds must be a list of real numbers, got 0.5"),
        ({"iou_thresholds": "0.5"}, "iou_thresholds must be a list of real numbers, got '0.5'"),
        ({"iou_thresholds": {0.5: 1}},
         "iou_thresholds must be a list of real numbers, got {0.5: 1}"),
        ({"iou_thresholds": np.full((2, 2), 0.5)},
         "iou_thresholds must be a list of real numbers, got a 2-D array"),
    ])
    def test_bad_settings_are_one_line_errors(self, mixed_dataset, mixed_detections, kwargs,
                                              message):
        with pytest.raises(ValidationError) as info:
            coco_map(detection_columns(mixed_detections), mixed_dataset, **kwargs)
        assert str(info.value) == message

    def test_max_dets_keeps_top_scores_per_image(self, mixed_dataset):
        dets = [
            det(1, 1, 0, 0, 10, 10, 0.9),         # true hit
            det(1, 1, 300, 300, 10, 10, 0.8),      # fp
            det(1, 1, 100, 100, 40, 40, 0.7),      # true hit, lowest score
        ]
        full = coco_map(detection_columns(dets), mixed_dataset)
        capped = coco_map(detection_columns(dets), mixed_dataset, max_dets=2)
        assert full.n_detections == 3
        assert capped.n_detections == 2
        assert capped.ap50 < full.ap50  # the dropped detection was a TP

    def test_high_scoring_fp_never_helps(self, mixed_dataset, mixed_detections):
        base = coco_map(detection_columns(mixed_detections), mixed_dataset)
        spiked = mixed_detections + [det(1, 1, 500, 500, 20, 20, 0.99)]
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
    ``area`` that is not their box area (zero among them). Some images
    are small enough that boxes cross their border: GTs are clamped into
    the image, as the loader clamps them, and detections are not.
    """
    extents = (0, 1, 8, 16, 32, 33, 64, 96, 97)
    corners = (0, 8, 16, 32)

    def rand_box():
        x, y = rng.choice(corners, 2)
        w, h = rng.choice(extents, 2)
        return from_xywh(float(x), float(y), float(w), float(h))

    images = tuple(ImageRecord(i, *(int(v) for v in rng.choice([40, 100, 200], 2)), f"{i}.png")
                   for i in range(1, n_images + 1))
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
            b = clamp(b, box(0, 0, image.width, image.height))
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
            dets.append(Detection(image.id, cat, b, score))
    order = rng.permutation(len(dets))  # row order need not follow images
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

    def test_iou_tie_goes_to_the_last_gt_index(self, mixed_dataset):
        tall, wide = box(0, 0, 10, 20), box(0, 0, 20, 10)
        ds = dataset_of(mixed_dataset.images[:1],
                        (Instance(1, 1, 1, tall, tall.area), Instance(2, 1, 1, wide, wide.area)),
                        mixed_dataset.categories)
        # the square ties at IoU 0.5 and takes the wide GT, the last one,
        # so the tall det that follows takes the tall GT: both hit
        dets = [Detection(1, 1, box(0, 0, 10, 10), 0.9), Detection(1, 1, tall, 0.8)]
        result = coco_map(detection_columns(dets), ds, iou_thresholds=[0.5])
        assert result.ap == 1.0
        # with the GTs swapped the square takes the tall one: a miss at 0.5
        swapped = dataset_of(mixed_dataset.images[:1],
                             (Instance(1, 1, 1, wide, wide.area),
                              Instance(2, 1, 1, tall, tall.area)),
                             mixed_dataset.categories)
        result = coco_map(detection_columns(dets), swapped, iou_thresholds=[0.5])
        assert result.ap == pytest.approx(51.0 / 101.0, abs=1e-15)
        for gts in (ds, swapped):
            assert (coco_map(detection_columns(dets), gts, iou_thresholds=[0.5]).to_dict()
                    == scalar_coco_map(dets, gts, iou_thresholds=[0.5]).to_dict())

    def test_score_ties_rank_by_row_as_cocoeval(self):
        """Equal scores keep their row order, as COCOeval's stable mergesort does."""
        gt, miss = box(0, 0, 10, 10), box(100, 100, 110, 110)
        ds = dataset_of((ImageRecord(1, 800, 800, "a.png"),),
                        (Instance(1, 1, 1, gt, gt.area),), (Category(1, "car"),))
        hit_first = [Detection(1, 1, gt, 0.5), Detection(1, 1, miss, 0.5)]
        # the hit ranks first: precision 1 at recall 1
        assert coco_map(detection_columns(hit_first), ds).ap == 1.0
        # the miss ranks first: precision 1/2 at recall 1
        assert coco_map(detection_columns(hit_first[::-1]), ds).ap == 0.5
        for dets in (hit_first, hit_first[::-1]):
            assert (coco_map(detection_columns(dets), ds).to_dict()
                    == scalar_coco_map(dets, ds).to_dict())

    @pytest.mark.parametrize("pairs", [1, 3, 40, 1 << 14])
    def test_batch_boundaries_change_nothing(self, monkeypatch, pairs):
        monkeypatch.setattr(evaluation, "_BATCH_PAIRS", pairs)
        rng = np.random.default_rng(pairs)
        ds, dets = random_case(rng, n_images=12, n_classes=3, max_gts=8, max_dets=12)
        got = coco_map(detection_columns(dets), ds)
        assert got.to_dict() == scalar_coco_map(dets, ds).to_dict()

    @pytest.mark.parametrize("pairs", [1, 3, 40, 1 << 14])
    def test_batches_cover_every_group_once_within_the_pair_bound(self, monkeypatch, pairs):
        monkeypatch.setattr(evaluation, "_BATCH_PAIRS", pairs)
        rng = np.random.default_rng(pairs)
        for trial in range(50):
            n_groups = int(rng.integers(0, 40))
            n_pairs = rng.integers(1, 300, n_groups) * rng.integers(0, 300, n_groups)
            batches = list(evaluation._batches(n_pairs))
            assert [i for a, b in batches for i in range(a, b)] == list(range(n_groups)), \
                f"trial {trial}"
            for a, b in batches:
                assert b - a == 1 or n_pairs[a:b].sum() <= pairs, f"trial {trial}"
                # a batch ends only where the next group would pass the bound
                assert b == n_groups or n_pairs[a:b + 1].sum() > pairs, f"trial {trial}"

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
# The greedy match of a chunk of groups, one (slice, threshold, group) at
# a time by COCOeval's evaluateImg scan over the chunk's padded overlap
# block. _pair_flags, given the chunk's (det, GT) pairs, must return the
# same int8 flags on every valid det.


def oracle_lockstep_flags(overlaps, n_dets, det_in, live, outside, crowd,
                          thresholds) -> np.ndarray:
    """Greedy-match flags for a chunk of groups, every slice and threshold.

    The arguments are a chunk's: the (N, D, G) ``overlaps`` of N groups
    padded at the tail of both axes, the groups' det counts, ``det_in``
    (S, N, D), ``live`` and ``outside`` (S, N, G) and ``crowd`` (N, G);
    a padded GT is in none of the masks. Returns (S, T, N, D) flags: 1
    TP, 0 FP, -1 ignored or padding.
    """
    n_slices, n_groups, d_max = det_in.shape
    flags = np.full((n_slices, len(thresholds), n_groups, d_max), -1, dtype=np.int8)
    for s, (t, thr), n in itertools.product(range(n_slices), enumerate(thresholds),
                                            range(n_groups)):
        gts = [j for j in range(overlaps.shape[2])
               if live[s, n, j] or outside[s, n, j] or crowd[n, j]]
        ignore = {j: not live[s, n, j] for j in gts}
        matched = set()
        for k in range(n_dets[n]):
            best, m = min(thr, 1 - 1e-10), -1
            for j in sorted(gts, key=ignore.get):
                if j in matched and not crowd[n, j]:
                    continue
                if m > -1 and not ignore[m] and ignore[j]:
                    break
                if overlaps[n, k, j] < best:
                    continue
                best, m = overlaps[n, k, j], j
            if m > -1:
                matched.add(m)
                flags[s, t, n, k] = -1 if ignore[m] else 1
            else:
                flags[s, t, n, k] = 0 if det_in[s, n, k] else -1
    return flags


def random_chunk(rng, n_groups: int, d_max: int, g_max: int):
    """Inputs of one lock-step chunk for four slices, with hostile padding.

    Det counts descend from ``d_max``; some groups have no GT and some
    only crowd GTs. Overlaps mix exact thresholds, ties and random
    values. Padded cells hold NaN or high overlaps, and dets past a
    group's count may be marked in the slice: only ``n_dets`` says they
    are padding. Returns ``(overlaps, n_dets, det_in, live, outside,
    crowd)``.
    """
    n_dets = np.sort(rng.integers(1, d_max + 1, n_groups))[::-1]
    n_dets[0] = d_max
    n_gts = rng.integers(0, g_max + 1, n_groups)
    n_gts[rng.random(n_groups) < 0.2] = 0
    g = max(int(n_gts.max()), 1)
    d_valid = np.arange(d_max) < n_dets[:, None]
    g_valid = np.arange(g) < n_gts[:, None]
    values = np.concatenate([[0.0, 0.05, 0.5, 0.5, 0.75, 0.95, 1.0, 1 - 1e-11], rng.random(5)])
    padding = rng.choice([np.nan, 0.9, 1.0], (n_groups, d_max, g))
    overlaps = np.where(d_valid[:, :, None] & g_valid[:, None, :],
                        rng.choice(values, (n_groups, d_max, g)), padding)
    crowd = ((rng.random((n_groups, g)) < 0.2) | (rng.random((n_groups, 1)) < 0.2)) & g_valid
    live = ~crowd & (rng.random((4, n_groups, g)) < 0.7) & g_valid
    outside = ~crowd & ~live & g_valid
    det_in = rng.random((4, n_groups, d_max)) < 0.7
    return overlaps, n_dets, det_in, live, outside, crowd


def pairs_of_chunk(overlaps, n_dets, det_in, live, outside, crowd):
    """``_pair_flags``' arguments for a chunk: every valid (det, GT) cell as a pair.

    The (group, det) slot ``(n, k)`` becomes det ``n * D + k`` of rank
    ``k`` and the (group, GT) slot ``(n, j)`` GT ``n * G + j``; padded
    dets get flags too, and padded GTs are in no pair.
    """
    n_groups, d_max, g_max = overlaps.shape
    g_valid = crowd | live[0] | outside[0]
    d_valid = np.arange(d_max) < n_dets[:, None]
    n, k, j = np.nonzero(d_valid[:, :, None] & g_valid[:, None, :])
    return (n * d_max + k, n * g_max + j, k, overlaps[n, k, j],
            det_in.reshape(len(det_in), -1), live.reshape(len(live), -1), crowd.ravel())


def chunk_of_pairs(det, gt, rank, overlap, det_in, live, crowd):
    """The chunk of a batch of ``_pair_flags`` arguments, and each det's (group, place) in it.

    A det's group starts at ``det - rank`` of its pairs, and a GT's group
    is that of the dets it pairs with, its place counted from the
    group's lowest GT. A det without a pair has no GT and is a group of
    its own. Returns ``(chunk, (group, place))``.
    """
    n_slices, n = det_in.shape
    heads = np.unique(np.concatenate([det - rank, np.setdiff1d(np.arange(n), det)]))
    group = np.searchsorted(heads, np.arange(n), side="right") - 1
    place = np.arange(n) - heads[group]
    gt_group = np.zeros(len(crowd), dtype=np.intp)
    gt_group[gt] = group[det]
    gt_head = np.full(len(heads), len(crowd))
    np.minimum.at(gt_head, gt_group, np.arange(len(crowd)))
    column = np.arange(len(crowd)) - gt_head[gt_group]
    shape = (len(heads), int(column.max(initial=0)) + 1)
    overlaps = np.zeros((len(heads), int(place.max()) + 1, shape[1]))
    overlaps[group[det], rank, column[gt]] = overlap
    chunk_det_in = np.zeros((n_slices, *overlaps.shape[:2]), dtype=bool)
    chunk_det_in[:, group, place] = det_in
    chunk_live, chunk_crowd, g_valid = (np.zeros((n_slices, *shape), dtype=bool),
                                        np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool))
    chunk_live[:, gt_group, column] = live
    chunk_crowd[gt_group, column] = crowd
    g_valid[gt_group, column] = True
    chunk = (overlaps, np.bincount(group), chunk_det_in, chunk_live,
             g_valid & ~chunk_live & ~chunk_crowd, chunk_crowd)
    return chunk, (group, place)


class TestLockstepAgainstOracle:
    """_pair_flags against oracle_lockstep_flags, bit for bit."""

    THRESHOLDS = [IOU_THRESHOLDS, (0.0,), (1.0,), (0.0, 1.0), (0.75, 0.5, 0.75), (1.0, 0.0)]

    def check(self, *args):
        *chunk, thresholds = args
        want = oracle_lockstep_flags(*chunk, thresholds)
        got = evaluation._pair_flags(*pairs_of_chunk(*chunk), thresholds)
        assert got.dtype == np.int8 and got.shape == (*want.shape[:2], np.prod(want.shape[2:]))
        d_valid = np.arange(want.shape[3]) < chunk[1][:, None]
        np.testing.assert_array_equal(got.reshape(want.shape)[..., d_valid], want[..., d_valid])

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
        assert chunk[0].size > evaluation._BATCH_PAIRS
        self.check(*chunk, (0.75, 0.5, 0.75))

    def test_a_det_whose_better_gt_an_earlier_det_took(self):
        # one group: det 0 takes GT 0 (0.9 over 0.6). Det 1 would take
        # GT 0 too (0.8 over 0.7), but it is taken, so det 1 takes GT 1
        # at 0.5 and misses at 0.75
        overlaps = np.array([[[0.9, 0.6], [0.8, 0.7]]])
        chunk = (overlaps, np.array([2]), np.ones((1, 1, 2), dtype=bool),
                 np.ones((1, 1, 2), dtype=bool), np.zeros((1, 1, 2), dtype=bool),
                 np.zeros((1, 2), dtype=bool))
        flags = evaluation._pair_flags(*pairs_of_chunk(*chunk), (0.5, 0.75))
        np.testing.assert_array_equal(flags, [[[1, 1], [1, 0]]])
        self.check(*chunk, (0.5, 0.75))

    def test_every_batch_of_random_cases(self, monkeypatch):
        batches = []
        original = evaluation._pair_flags

        def checked(*args):
            batches.append(args)
            return original(*args)

        monkeypatch.setattr(evaluation, "_pair_flags", checked)
        monkeypatch.setattr(evaluation, "_BATCH_PAIRS", 20)
        rng = np.random.default_rng(11)
        for _ in range(10):
            ds, dets = random_case(rng, n_images=8, n_classes=3, max_gts=6, max_dets=10)
            coco_map(detection_columns(dets), ds, iou_thresholds=(0.95, 0.0, 0.5, 0.5))
        monkeypatch.setattr(evaluation, "_pair_flags", original)
        assert len(batches) > 20
        for *pairs, thresholds in batches:
            chunk, (group, place) = chunk_of_pairs(*pairs)
            want = oracle_lockstep_flags(*chunk, thresholds)[:, :, group, place]
            np.testing.assert_array_equal(original(*pairs, thresholds), want)


def test_memory_is_bounded_without_a_whole_dataset_batch():
    # 200 images x 20 GTs x 100 dets over 2 classes: 400 groups of about
    # 50 dets and 10 GTs. Matching all of them in one batch would hold a
    # (slices, thresholds, groups, dets, GTs) mask of 4*10*400*50*10 bytes
    # = 8 MB on top of everything else, so a peak under 8 MB rules that
    # out. What coco_map must keep is O(dets): a (4, 10, 20000) int8 flag
    # array (0.8 MB), a few arrays and reference lists of 20,000 entries
    # (0.16 MB each), plus one batch of at most 2^14 (det, GT) pairs
    # and its per-pair arrays; it measures about 5.0 MB.
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
            dets.append(Detection(image.id, g.category_id, b, float(rng.random())))
    ds = dataset_of(images, instances, (Category(1, "a"), Category(2, "b")))
    tracemalloc.start()
    try:
        result = coco_map(detection_columns(dets), ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.n_detections == 20000 and 0.0 < result.ap < 1.0
    assert peak < 8_000_000, peak


class TestCocoEvalRules:
    """Cases where an easier rule and pycocotools' COCOeval part ways.

    pycocotools is not a dependency, so each value is traced by hand
    from COCOeval's ``evaluateImg`` and ``accumulate``; the comment gives
    the trace and what the easier rule would report.
    """

    def dataset(self, *gts, images=1):
        """800x800 images, classes 1 and 2; each GT is (cat, box, area, crowd) on image 1."""
        return dataset_of(
            tuple(ImageRecord(i, 800, 800, f"{i}.png") for i in range(1, images + 1)),
            tuple(Instance(i + 1, 1, cat, b, area, crowd)
                  for i, (cat, b, area, crowd) in enumerate(gts)),
            (Category(1, "car"), Category(2, "truck")),
        )

    def test_a_max_dets_caps_each_image_and_class(self):
        car, truck = box(0, 0, 20, 20), box(100, 100, 140, 140)
        ds = self.dataset((1, car, car.area, False), (2, truck, truck.area, False))
        dets = [Detection(1, 2, truck, 0.9), Detection(1, 1, car, 0.8)]
        result = coco_map(detection_columns(dets), ds, max_dets=1)
        # each (image, class) keeps its best det, so both hit; a cap per
        # image across classes would keep only the truck: {1: 0.0, 2: 1.0}
        assert result.n_detections == 2
        assert result.per_class_ap == {1: 1.0, 2: 1.0}
        assert result.ap == 1.0

    def test_b_an_out_of_slice_det_matches_before_it_is_ignored(self):
        gt = box(0, 0, 30, 30)  # area 900: small
        ds = self.dataset((1, gt, gt.area, False))
        dets = [Detection(1, 1, box(0, 0, 40, 40), 0.9)]  # area 1600, IoU 0.5625
        result = coco_map(detection_columns(dets), ds, iou_thresholds=[0.5])
        # the medium det matches the small GT in the small slice, and only
        # an unmatched det is ignored for its area; dropping it before the
        # match would leave the GT missed, ap_small 0.0. In the medium
        # slice it takes the GT that slice ignores, and no GT is live there
        assert result.ap == 1.0
        assert result.ap_small == 1.0
        assert result.ap_medium == -1.0

    def test_c_a_crowd_gt_scores_by_intersection_over_the_det_area(self):
        crowd, car = box(0, 0, 100, 100), box(200, 200, 220, 220)
        ds = self.dataset((1, crowd, crowd.area, True), (1, car, car.area, False))
        dets = [Detection(1, 1, box(10, 10, 30, 30), 0.9),  # IoU 0.04 with the crowd
                Detection(1, 1, car, 0.8)]
        result = coco_map(detection_columns(dets), ds, iou_thresholds=[0.5])
        # the crowd region covers the whole first det (IoA 1.0), so it is
        # ignored and the hit ranks alone; by plain IoU it would be an FP
        # ranked above the hit, ap 0.5
        assert result.ap == 1.0
        assert result.n_gt == 1

    def test_d_slice_bounds_are_closed(self):
        gt = box(0, 0, 32, 32)  # area exactly 32^2
        ds = self.dataset((1, gt, gt.area, False))
        result = coco_map(detection_columns([Detection(1, 1, gt, 0.9)]), ds)
        # [lo, hi] puts the GT in small and in medium; [lo, hi) would put
        # it in medium only, ap_small -1.0
        assert result.ap_small == 1.0
        assert result.ap_medium == 1.0
        assert result.ap == 1.0

    def test_e_an_out_of_slice_gt_absorbs_one_det(self):
        small, medium = box(0, 0, 30, 30), box(100, 100, 140, 140)  # areas 900 and 1600
        ds = self.dataset((1, small, small.area, False), (1, medium, medium.area, False))
        near = box(0, 0, 33, 33)  # area 1089, medium; IoU 900 / 1089 = 0.826 with the small GT
        dets = [Detection(1, 1, near, 0.9), Detection(1, 1, near, 0.8),
                Detection(1, 1, medium, 0.7)]
        result = coco_map(detection_columns(dets), ds)
        # in the medium slice the small GT is ignored. At the seven
        # thresholds up to 0.8 the first near det takes it and is ignored;
        # a matched non-crowd GT takes no second det (``gtm > 0 and not
        # iscrowd``: continue), so the second near det is an FP ranked
        # above the hit (AP 1/2). At 0.85-0.95 both are FPs (AP 1/3):
        # (7 / 2 + 3 / 3) / 10. If the GT absorbed any number of dets,
        # the hit would rank alone up to 0.8 and ap_medium would be 0.8
        assert result.ap_medium == 0.45

    def test_f_an_iou_tie_between_live_gts_goes_to_the_last(self):
        left, right = box(0, 0, 10, 10), box(2, 0, 12, 10)
        ds = self.dataset((1, left, left.area, False), (1, right, right.area, False))
        dets = [Detection(1, 1, box(1, 0, 11, 10), 0.9),  # IoU 90 / 110 with both GTs
                Detection(1, 1, left, 0.8)]  # IoU 1 with left, 80 / 120 with right
        result = coco_map(detection_columns(dets), ds)
        # COCOeval skips a GT only when ``ious < iou``, so an equal IoU
        # replaces the match: at 0.75 the first det takes the right GT and
        # the second the left. Ties to the lower index would leave the
        # second det with the right GT at IoU 2/3, an FP: ap75 51 / 101
        assert result.ap75 == 1.0

    @pytest.mark.parametrize("rows", [(0, 1), (1, 0)])
    def test_h_score_ties_across_images_rank_by_image_id(self, rows):
        gt = box(0, 0, 10, 10)
        ds = self.dataset((1, gt, gt.area, False), images=2)
        hit, miss = Detection(1, 1, gt, 0.5), Detection(2, 1, gt, 0.5)
        dets = [(miss, hit)[i] for i in rows]
        result = coco_map(detection_columns(dets), ds)
        # each image's list, joined in image id order and stable-sorted by
        # -score, puts image 1's hit first in either file order. Ranking
        # ties by file row would put the miss first when it is row 0: 0.5
        assert result.ap == 1.0
        assert result.to_dict() == scalar_coco_map(dets, ds).to_dict()

    def test_i_the_recall_grid_is_cocoevals_linspace(self):
        gts = [(1, box(20 * j, 0, 20 * j + 10, 10), 100.0, False) for j in range(10)]
        ds = self.dataset(*gts)
        hits = [Detection(1, 1, b, 0.99 - 0.01 * j) for j, (_, b, _, _) in enumerate(gts)]
        dets = hits[:7] + [Detection(1, 1, box(500, 500, 510, 510), 0.925)] + hits[7:]
        result = coco_map(detection_columns(dets), ds, iou_thresholds=[0.5])
        # ranks TP x 7, FP, TP x 3: recall 0.7 at precision 1, then 10/11
        # up to recall 1. np.linspace's level 70 is one ulp above 0.7, so
        # recall 0.7 does not reach it: (70 + 31 * 10 / 11) / 101. On the
        # grid arange(101) / 100 level 70 is 0.7: (71 + 30 * 10 / 11) / 101
        assert result.ap == 0.9720972097209719
        assert evaluation._RECALL_GRID[70] == np.nextafter(0.7, 1.0)
        assert IOU_THRESHOLDS[8] == np.nextafter(0.9, 0.0)

    def test_g_a_detection_is_clipped_into_its_image(self, tmp_path):
        """The one remaining difference: COCOeval scores the raw box, which would miss at 0.75."""
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps({
            "images": [{"id": 1, "width": 100, "height": 100, "file_name": "a.png"}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 1,
                             "bbox": [80, 0, 40, 40]}],
            "categories": [{"id": 1, "name": "c"}],
        }))
        dets = tmp_path / "dets.json"
        dets.write_text(json.dumps([{"image_id": 1, "category_id": 1,
                                     "bbox": [80, 0, 40, 40], "score": 0.9}]))
        # the GT is clamped to 20 x 40 at load; the raw det has IoU 0.5
        # with it, the clipped det 1.0
        result = coco_map(load_detections(dets), load_dataset(ann))
        assert (result.ap, result.ap_small, result.ap_medium) == (1.0, 1.0, -1.0)


def aerial_coco(rng, n_images=30, per_image=20, width=640, height=480) -> dict:
    """A COCO dict like the benchmark's: every 20th box crosses the border, 2% are crowd.

    Each ``area`` is the raw ``w * h``, so a GT that crosses the border
    can fall in another slice than its clamped box.
    """
    annotations = []
    for image_id in range(1, n_images + 1):
        for j in range(per_image):
            w, h = np.exp(rng.uniform(np.log(4), np.log(200), 2))
            if j % 20 == 0:  # straddle the right or bottom border
                x, y = (width - w / 2, rng.uniform(0, height - h)) if j % 40 == 0 else \
                       (rng.uniform(0, width - w), height - h / 3)
            else:
                x, y = rng.uniform(0, width - w), rng.uniform(0, height - h)
            annotations.append({
                "id": len(annotations) + 1, "image_id": image_id,
                "category_id": int(rng.integers(1, 4)),
                "bbox": [float(x), float(y), float(w), float(h)],
                "area": float(w * h), "iscrowd": int(rng.random() < 0.02),
            })
    return {
        "images": [{"id": i, "width": width, "height": height, "file_name": f"{i}.png"}
                   for i in range(1, n_images + 1)],
        "annotations": annotations,
        "categories": [{"id": c, "name": f"c{c}"} for c in range(1, 4)],
    }


class TestPerfectDetectorScoresOne:
    """A detector that returns the dataset's own boxes scores 1.0 in every slice with GTs."""

    @pytest.mark.parametrize("seed", range(3))
    def test_the_loaded_live_boxes(self, tmp_path, seed):
        path = tmp_path / "ann.json"
        path.write_text(json.dumps(aerial_coco(np.random.default_rng(seed))))
        ds = load_dataset(path)
        c = ds.columns
        live = ~c.ignore
        dets = DetectionColumns(image_id=c.image_id[live], category_id=c.category_id[live],
                                boxes=c.boxes[live], score=np.ones(int(live.sum())))
        result = coco_map(dets, ds, max_dets=0)
        assert ds.clipped_instance_count > 0
        for field in ("ap", "ap50", "ap75", "ap_small", "ap_medium", "ap_large"):
            assert getattr(result, field) == 1.0, field

    @pytest.mark.parametrize("seed", range(3))
    def test_the_raw_annotation_boxes(self, tmp_path, seed):
        coco = aerial_coco(np.random.default_rng(100 + seed))
        ann, dets = tmp_path / "ann.json", tmp_path / "dets.json"
        ann.write_text(json.dumps(coco))
        dets.write_text(json.dumps([
            {"image_id": a["image_id"], "category_id": a["category_id"], "bbox": a["bbox"],
             "score": 1.0}
            for a in coco["annotations"] if not a["iscrowd"]
        ]))
        result = coco_map(load_detections(dets), load_dataset(ann), max_dets=0)
        for field in ("ap", "ap50", "ap75", "ap_small", "ap_medium", "ap_large"):
            assert getattr(result, field) == 1.0, field
