"""Acceptance suite: one test per release gate, with stated tolerances.

Under ``pytest -v`` every criterion shows up as its own PASSED/FAILED
row; each test also prints one PASS line carrying the measured numbers.
Constants marked "stored" were produced once by the exhaustive run
described next to them and are intentionally frozen.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from detforge.anchors import (
    AnchorSpec,
    cluster_anchor_sizes,
    generate_anchors,
    match_anchors,
    sweep_k,
)
from detforge.annotations import (
    Category,
    ImageRecord,
    Instance,
    _tile_origins,
    load_dataset,
    tile,
)
from detforge.augment import AugmentationPipeline, ImageGeom, hflip, replay, short_edge_resize
from detforge.cli import main as cli_main
from detforge.evaluation import coco_map, load_detections
from detforge.geometry import BBox, iou, iou_matrix
from detforge.losses import (
    ClassWeights,
    LogitsBatch,
    class_weights,
    cross_entropy,
    focal_loss,
    grad_check,
    smooth_l1,
    weighted_cross_entropy,
)
from oracles import (
    Detection,
    columns_of,
    dataset_of,
    detection_columns,
    detections_of,
    from_xywh,
    shifted,
    synthetic_aerial_corpus,
)

# stored: best mean IoU over 1,000 seeded restarts (streams (0,r) for
# r in 0..999) of k=4 on synthetic_aerial_corpus(n=2000, seed=7)
CLUSTER_ORACLE_MEAN_IOU = 0.625060956340398


def ok(line):
    print(f"PASS: {line}")


def test_criterion_1_iou_matches_rasterization_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    n_pairs = 10_000
    worst = 0.0
    for _ in range(n_pairs):
        ax = np.sort(rng.integers(0, 65, size=2))
        ay = np.sort(rng.integers(0, 65, size=2))
        bx = np.sort(rng.integers(0, 65, size=2))
        by = np.sort(rng.integers(0, 65, size=2))
        a = BBox(float(ax[0]), float(ay[0]), float(ax[1]), float(ay[1]))
        b = BBox(float(bx[0]), float(by[0]), float(bx[1]), float(by[1]))

        grid_a = np.zeros((64, 64), dtype=bool)
        grid_b = np.zeros((64, 64), dtype=bool)
        grid_a[ay[0] : ay[1], ax[0] : ax[1]] = True
        grid_b[by[0] : by[1], bx[0] : bx[1]] = True
        inter = int(np.logical_and(grid_a, grid_b).sum())
        union = int(grid_a.sum()) + int(grid_b.sum()) - inter
        oracle = inter / union if union else 0.0

        worst = max(worst, abs(iou(a, b) - oracle))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12, f"worst IoU deviation {worst}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    ok(
        f"criterion 1: IoU vs pixel-count oracle on {n_pairs} integer pairs, "
        f"worst dev {worst:.2e} <= 1e-12, {elapsed:.2f}s < 5s"
    )


def test_criterion_2_class_weight_identities():
    rng = np.random.default_rng(202)
    for trial in range(100):
        c = int(rng.integers(2, 12))
        counts = rng.integers(0, 50_000, size=c)
        if counts.sum() == 0:
            counts[0] = 1
        total = int(counts.sum())
        w = class_weights(counts).w
        for n_i, w_i in zip(counts, w):
            # w_c = 1 - n_c / sum(n), evaluated in exact rational arithmetic
            assert w_i == float(1 - Fraction(int(n_i), total)), trial
        assert math.fsum(w) == float(c - 1), trial
    assert class_weights([10, 30, 60]).w.tolist() == [0.9, 0.7, 0.4]
    ok(
        "criterion 2: class weights equal 1 - n_c/sum(n) exactly on 100 random "
        "count vectors, each sums to c-1, and (10,30,60) -> (0.9,0.7,0.4)"
    )


def test_criterion_3_focal_ce_identities_and_gradients():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)

    worst_gap = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 40))
        c = int(rng.integers(2, 8))
        batch = LogitsBatch(rng.normal(0.0, 1.0, (n, c)), rng.integers(0, c, n))
        plain = cross_entropy(batch)
        degenerate = focal_loss(batch, gamma=0.0)
        worst_gap = max(
            worst_gap,
            abs(plain.value - degenerate.value),
            float(np.max(np.abs(plain.grad - degenerate.grad))),
        )
    assert worst_gap <= 1e-12, f"gamma=0 focal deviates from CE by {worst_gap}"

    # elementwise damping: per-sample focal never exceeds per-sample CE
    wide = LogitsBatch(rng.normal(0.0, 2.0, (64, 5)), rng.integers(0, 5, 64))
    for row in range(wide.n):
        single = LogitsBatch(wide.values[row : row + 1], wide.targets[row : row + 1])
        ce_row = cross_entropy(single).value
        for gamma in (0.5, 1.0, 2.0):
            assert focal_loss(single, gamma=gamma).value <= ce_row + 1e-15

    weights = ClassWeights(rng.uniform(0.1, 1.0, size=5))
    target_vec = rng.normal(size=20)
    checks = {
        "cross_entropy": (cross_entropy, None),
        "weighted_cross_entropy": (lambda b: weighted_cross_entropy(b, weights), None),
        "focal_gamma_2": (lambda b: focal_loss(b, gamma=2.0), None),
        "smooth_l1": (lambda p: smooth_l1(p, target_vec), "array"),
    }
    worst_grad = {}
    for name, (fn, mode) in checks.items():
        errs = []
        for seed in range(3):
            local = np.random.default_rng([303, seed])
            if mode == "array":
                x = target_vec + local.normal(0.0, 1.5, size=20)
            else:
                x = LogitsBatch(local.normal(0.0, 1.0, (16, 5)), local.integers(0, 5, 16))
            errs.append(grad_check(fn, x, step=1e-5))
        worst_grad[name] = max(errs)
        assert worst_grad[name] < 1e-6, f"{name} gradient error {worst_grad[name]}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    summary = ", ".join(f"{k} {v:.1e}" for k, v in worst_grad.items())
    ok(
        f"criterion 3: gamma=0 focal == CE within {worst_gap:.1e} on 50 batches, "
        f"focal <= CE elementwise for gamma in (0.5,1,2), grad errors ({summary}) "
        f"all < 1e-6 at step 1e-5, {elapsed:.2f}s < 10s"
    )


def test_criterion_4_clustering_vs_stored_exhaustive_oracle():
    t0 = time.perf_counter()
    corpus = synthetic_aerial_corpus(n=2000, seed=7)

    best10 = cluster_anchor_sizes(corpus, k=4, seed=0, restarts=10)
    gap = abs(best10.mean_iou - CLUSTER_ORACLE_MEAN_IOU)
    assert gap <= 0.005, f"best-of-10 mean IoU {best10.mean_iou} vs oracle, gap {gap}"

    pairs = sweep_k(corpus, range(2, 9), seed=0, restarts=10)
    for (k_lo, v_lo), (k_hi, v_hi) in zip(pairs, pairs[1:]):
        assert v_hi >= v_lo - 0.01, f"mean IoU fell from k={k_lo} to k={k_hi}: {v_lo} -> {v_hi}"

    again = cluster_anchor_sizes(corpus, k=4, seed=0, restarts=10)
    assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(
        best10.to_dict(), sort_keys=True
    )

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    ok(
        f"criterion 4: k=4 best-of-10 mean IoU {best10.mean_iou:.6f} within "
        f"{gap:.2e} <= 0.005 of stored 1000-restart oracle, sweep 2..8 "
        f"non-decreasing within 0.01, deterministic, {elapsed:.2f}s < 30s"
    )


def _brute_force_recall(anchor_set, gts, pos_iou):
    boxes = anchor_set.all_boxes()
    gt_arr = np.array([g.bbox.as_tuple() for g in gts])
    best = iou_matrix(boxes, gt_arr).max(axis=0)
    return float((best >= pos_iou).mean())


def test_criterion_5_small_anchor_sizes_recall_small_objects():
    # 12 ground truths on a 256x256 image: ten under 32x32, two large
    shapes = [
        (14, 14, 30, 30), (15, 18, 70, 40), (16, 16, 120, 33), (17, 15, 180, 50),
        (18, 18, 40, 100), (19, 16, 90, 110), (20, 20, 150, 120), (21, 17, 200, 140),
        (22, 22, 60, 180), (14, 20, 110, 190),
        (60, 60, 100, 60), (120, 90, 130, 160),
    ]
    gts = [
        Instance(i + 1, 1, 1, from_xywh(x, y, w, h), float(w * h), False)
        for i, (w, h, x, y) in enumerate(shapes)
    ]
    assert sum(1 for g in gts if g.area < 32.0**2) == 10

    strides = (4, 8, 16, 32, 64)
    dims = [(math.ceil(256 / s), math.ceil(256 / s)) for s in strides]
    fine_spec = AnchorSpec(sizes=(16, 32, 64, 128, 256), strides=strides)
    coarse_spec = AnchorSpec(sizes=(32, 64, 128, 256, 512), strides=strides)
    fine = generate_anchors(fine_spec, dims)
    coarse = generate_anchors(coarse_spec, dims)

    recall_fine = _brute_force_recall(fine, gts, pos_iou=0.5)
    recall_coarse = _brute_force_recall(coarse, gts, pos_iou=0.5)
    assert recall_fine >= recall_coarse

    # the library's matcher agrees with the brute-force scan
    assert match_anchors(fine, columns_of(gts), pos_iou=0.5, neg_iou=0.3).recall == recall_fine
    assert match_anchors(coarse, columns_of(gts), pos_iou=0.5, neg_iou=0.3).recall == recall_coarse
    ok(
        f"criterion 5: recall at pos_iou 0.5 with sizes (16..256) = "
        f"{recall_fine:.3f} >= {recall_coarse:.3f} with sizes (32..512) "
        f"on a fixture of 10/12 sub-32^2 boxes (brute-force max-IoU per GT)"
    )


def test_criterion_6_evaluator_oracles_and_fp_monotonicity(data_dir):
    t0 = time.perf_counter()
    ds = load_dataset(data_dir / "eval_mixed_ann.json")
    dets = load_detections(data_dir / "eval_mixed_dets.json")

    perfect = [
        Detection(inst.image_id, inst.category_id, inst.bbox, 1.0, i)
        for i, inst in enumerate(ds.instances)
    ]
    clean = coco_map(detection_columns(perfect), ds)
    assert clean.ap == 1.0 and clean.ap50 == 1.0 and clean.ap75 == 1.0

    with open(data_dir / "eval_mixed_expected.json", "r", encoding="utf-8") as fh:
        expected = json.load(fh)
    base = coco_map(dets, ds)
    got = base.to_dict()
    for key, want in expected.items():
        if isinstance(want, dict):
            for sub, sub_want in want.items():
                assert got[key][sub] == pytest.approx(sub_want, abs=1e-9), f"{key}.{sub}"
        elif isinstance(want, float):
            assert got[key] == pytest.approx(want, abs=1e-9), key
        else:
            assert got[key] == want, key

    metric_fields = ("ap", "ap50", "ap75", "ap_small", "ap_medium", "ap_large")
    rng = np.random.default_rng(606)
    for trial in range(100):
        # a detection in empty territory: guaranteed false positive
        x = float(rng.uniform(400, 700))
        y = float(rng.uniform(400, 700))
        w = float(rng.uniform(5, 80))
        h = float(rng.uniform(5, 80))
        fp = Detection(
            int(rng.choice([1, 2, 3])),
            int(rng.choice([1, 2])),
            from_xywh(x, y, w, h),
            float(rng.uniform(0.9, 0.999)),
            1000 + trial,
        )
        spiked = coco_map(detection_columns(detections_of(dets) + (fp,)), ds)
        for field in metric_fields:
            b, s = getattr(base, field), getattr(spiked, field)
            if b >= 0.0:
                assert s <= b + 1e-15, f"trial {trial}: {field} rose {b} -> {s}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    ok(
        f"criterion 6: perfect fixture scores AP=AP50=AP75=1.0 exactly, mixed "
        f"fixture matches stored trace to 1e-9, FP injection never raised any "
        f"metric over 100 trials, {elapsed:.2f}s < 10s"
    )


def test_criterion_7_flip_involution_resize_invariance_replay():
    rng = np.random.default_rng(707)
    geom = ImageGeom(800, 600)
    boxes = []
    for _ in range(1000):
        x0 = rng.uniform(0, 780)
        y0 = rng.uniform(0, 580)
        boxes.append((x0, y0, rng.uniform(x0 + 1, 800), rng.uniform(y0 + 1, 600)))
    boxes = np.array(boxes)

    twice = hflip(hflip(boxes, geom), geom)
    worst_flip = float(np.max(np.abs(twice - boxes)))
    assert worst_flip <= 1e-12

    # 777 scales 800x600 to whole pixels (1036x777), so no box is
    # truncated by the border clamp and pure scaling is what's measured
    resized, _ = short_edge_resize(boxes, geom, 777)
    worst_iou = float(np.max(np.abs(iou_matrix(boxes, boxes) - iou_matrix(resized, resized))))
    assert worst_iou <= 1e-12

    fixture = boxes[:40]
    for seed in range(5):
        out, out_geom, records = AugmentationPipeline(3, seed).apply(fixture, geom)
        again, again_geom = replay(records, fixture, geom)
        # byte-identical: the same floats bit for bit, signed zeros included
        assert again.tobytes() == out.tobytes() and again.shape == out.shape, seed
        assert again_geom == out_geom, seed

    ok(
        f"criterion 7: flip involution worst dev {worst_flip:.2e} and resize "
        f"IoU drift {worst_iou:.2e} on 1000 boxes (<= 1e-12), crop pipeline "
        f"replay byte-identical across 5 seeds"
    )


def _check_tiling_invariants(ds, tile_size, overlap, min_vis):
    tiled = tile(ds, tile_size=tile_size, overlap=overlap, min_visibility=min_vis)
    stride = tile_size - overlap

    windows = {}  # tile image id -> (source image, origin x, origin y)
    next_tile = iter(tiled.images)
    for im in sorted(ds.images, key=lambda i: i.id):
        xs = _tile_origins(im.width, tile_size, stride)
        ys = _tile_origins(im.height, tile_size, stride)
        covered_x = np.zeros(im.width, dtype=bool)
        covered_y = np.zeros(im.height, dtype=bool)
        for oy in ys:
            for ox in xs:
                t = next(next_tile)
                windows[t.id] = (im, ox, oy)
                assert t.width == min(tile_size, im.width - ox)
                assert t.height == min(tile_size, im.height - oy)
                covered_x[ox : ox + tile_size] = True
                covered_y[oy : oy + tile_size] = True
        # cover: every pixel row and column of the source is inside some tile
        assert covered_x.all() and covered_y.all()

    by_source = {im.id: [] for im in ds.images}
    for inst in ds.instances:
        by_source[inst.image_id].append(inst)

    expected = set()
    for tile_id, (im, ox, oy) in windows.items():
        for inst in by_source[im.id]:
            bx = inst.bbox
            ix0, iy0 = max(bx.x_min, ox), max(bx.y_min, oy)
            ix1 = min(bx.x_max, min(ox + tile_size, im.width))
            iy1 = min(bx.y_max, min(oy + tile_size, im.height))
            if ix1 > ix0 and iy1 > iy0 and bx.area > 0:
                if (ix1 - ix0) * (iy1 - iy0) / bx.area >= min_vis:
                    expected.add((tile_id, inst.id))

    # soundness: every emitted instance is one of the expected pairs, sits
    # inside its tile, and maps back into a source box of the same class
    seen = set()
    for inst in tiled.instances:
        im, ox, oy = windows[inst.image_id]
        assert inst.bbox.x_min >= 0 and inst.bbox.y_min >= 0
        tile_rec = tiled.image_by_id[inst.image_id]
        assert inst.bbox.x_max <= tile_rec.width
        assert inst.bbox.y_max <= tile_rec.height
        back = shifted(inst.bbox, ox, oy)
        candidates = [
            s
            for s in by_source[im.id]
            if s.category_id == inst.category_id
            and s.bbox.x_min <= back.x_min + 1e-9
            and s.bbox.y_min <= back.y_min + 1e-9
            and s.bbox.x_max >= back.x_max - 1e-9
            and s.bbox.y_max >= back.y_max - 1e-9
            and back.area / s.bbox.area >= min_vis - 1e-12
        ]
        assert candidates, f"tile instance {inst.id} has no source box"
        seen.add((inst.image_id, candidates[0].id))

    # completeness: every sufficiently visible (tile, source) pair was emitted
    assert len(tiled.instances) == len(expected)
    assert seen == expected
    return tiled


def test_criterion_8_tiling_cover_soundness_completeness(data_dir):
    ds = load_dataset(data_dir / "tiny.json")
    tiled = _check_tiling_invariants(ds, tile_size=800, overlap=200, min_vis=0.25)
    # the 1000x800 image must split into exactly the two overlapping columns
    assert _tile_origins(1000, 800, 600) == [0, 200]

    rng = np.random.default_rng(808)
    images = [ImageRecord(1, 1000, 800, "wide.png"), ImageRecord(2, 640, 480, "s.png")]
    instances = []
    next_id = 1
    for im in images:
        for _ in range(25):
            w = float(rng.integers(4, 220))
            h = float(rng.integers(4, 220))
            x = float(rng.uniform(0, im.width - w))
            y = float(rng.uniform(0, im.height - h))
            instances.append(
                Instance(next_id, im.id, int(rng.integers(1, 3)),
                         BBox(x, y, x + w, y + h), w * h, False)
            )
            next_id += 1
    fuzz = dataset_of(images, instances, (Category(1, "a"), Category(2, "b")))
    _check_tiling_invariants(fuzz, tile_size=512, overlap=128, min_vis=0.3)
    _check_tiling_invariants(fuzz, tile_size=400, overlap=0, min_vis=0.25)

    ok(
        f"criterion 8: tiling cover/soundness/completeness hold on the bundled "
        f"fixture ({len(tiled.images)} tiles incl. the 1000x800 overlap split) "
        f"and on randomized datasets at three tiling settings"
    )


def test_criterion_9_cli_reruns_byte_identical(capsys, data_dir):
    tiny = str(data_dir / "tiny.json")
    invocations = (
        ("stats", "--ann", tiny),
        ("cluster", "--ann", tiny, "--k", "3", "--seed", "11", "--restarts", "4"),
        ("match", "--ann", tiny, "--image-size", "256", "256"),
        ("eval", "--ann", str(data_dir / "eval_mixed_ann.json"),
         "--dets", str(data_dir / "eval_mixed_dets.json")),
    )
    for argv in invocations:
        outputs = []
        for _ in range(2):
            rc = cli_main(list(argv))
            captured = capsys.readouterr()
            assert rc == 0, captured.err
            outputs.append(captured.out.encode("utf-8"))
        assert outputs[0] == outputs[1], f"{argv[0]} rerun differed"
    ok(
        "criterion 9: stats, cluster, match, and eval reruns are byte-identical "
        "(suite runtime bound is enforced by the full pytest run)"
    )
