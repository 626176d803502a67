"""Seeded COCO-style inputs for the benchmark workloads.

Stdlib and NumPy only; nothing here imports detforge, so the program
under test sees nothing but the files written. Every count that sets
the amount of work (images, boxes per image, crowd boxes, detections
per image) is fixed; the seed moves positions, sizes, classes and
scores only, so runs with different seeds do the same amount of work.

Each generator returns the facts the output checks need, such as the
number of non-crowd GTs.
"""

from __future__ import annotations

import json
import math

import numpy as np

N_CLASSES = 10

# Aerial size mix: many small objects and a long tail of large ones
# (side lengths in px, mixture weights).
AERIAL_SCALES = (10.0, 24.0, 64.0, 180.0)
AERIAL_WEIGHTS = (0.5, 0.28, 0.15, 0.07)


def _categories():
    return [{"id": c, "name": f"class_{c}"} for c in range(1, N_CLASSES + 1)]


def _aerial_sides(rng, n):
    modes = rng.choice(len(AERIAL_SCALES), size=n, p=AERIAL_WEIGHTS)
    return np.asarray(AERIAL_SCALES)[modes] * np.exp(rng.normal(0.0, 0.3, n))


def _log_uniform_sides(rng, n, lo, hi):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


def _place(rng, sides, width, height, n_oob):
    """(n, 4) xywh boxes inside the image, ``n_oob`` of them crossing a border.

    Border-crossing boxes keep a positive part inside the image, so
    clamping on load shrinks them but never collapses them.
    """
    n = len(sides)
    ratio = np.exp(rng.normal(0.0, 0.35, n))
    w = np.clip(sides / np.sqrt(ratio), 4.0, 0.8 * width)
    h = np.clip(sides * np.sqrt(ratio), 4.0, 0.8 * height)
    x = rng.uniform(0.0, 1.0, n) * (width - w)
    y = rng.uniform(0.0, 1.0, n) * (height - h)
    oob = rng.choice(n, size=n_oob, replace=False)
    side = rng.integers(0, 4, n_oob)
    x[oob] = np.where(side == 0, -0.4 * w[oob], np.where(side == 1, width - 0.6 * w[oob], x[oob]))
    y[oob] = np.where(side == 2, -0.4 * h[oob], np.where(side == 3, height - 0.6 * h[oob], y[oob]))
    return np.round(np.stack([x, y, w, h], axis=1), 2)


def _scene_set(rng, n_images, width, height, per_image, n_crowd, oob_share, sides_fn):
    """COCO dict with ``per_image`` boxes on every image and ``n_crowd`` crowd boxes.

    Crowd boxes are spread as evenly as the counts allow, so no seed
    gives one image many more live GTs (and a larger IoU matrix) than
    another seed does.
    """
    images, annotations = [], []
    n_total = n_images * per_image
    crowd_counts = np.full(n_images, n_crowd // n_images)
    crowd_counts[rng.choice(n_images, size=n_crowd % n_images, replace=False)] += 1
    classes = rng.integers(1, N_CLASSES + 1, n_total)
    for i in range(n_images):
        image_id = i + 1
        images.append(
            {"id": image_id, "width": width, "height": height, "file_name": f"scene_{image_id:04d}.png"}
        )
        boxes = _place(rng, sides_fn(rng, per_image), width, height, int(round(oob_share * per_image)))
        crowd = np.zeros(per_image, dtype=bool)
        crowd[rng.choice(per_image, size=crowd_counts[i], replace=False)] = True
        for j, (x, y, w, h) in enumerate(boxes.tolist()):
            k = i * per_image + j
            annotations.append(
                {
                    "id": k + 1,
                    "image_id": image_id,
                    "category_id": int(classes[k]),
                    "bbox": [x, y, w, h],
                    "area": round(w * h, 2),
                    "iscrowd": int(crowd[j]),
                }
            )
    return {"images": images, "annotations": annotations, "categories": _categories()}


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _detections(rng, coco, per_image_counts):
    """Jittered GT copies (60% of each image's budget) plus random false positives."""
    by_image = {}
    for ann in coco["annotations"]:
        by_image.setdefault(ann["image_id"], []).append(ann)
    dets = []
    for image, n_dets in zip(coco["images"], per_image_counts):
        gts = by_image[image["id"]]
        n_copies = int(0.6 * n_dets)
        src = np.array([gts[j % len(gts)]["bbox"] for j in range(n_copies)])
        cls = np.array([gts[j % len(gts)]["category_id"] for j in range(n_copies)])
        jitter = rng.normal(0.0, 0.08, (n_copies, 2)) * src[:, 2:]
        wh = src[:, 2:] * np.exp(rng.normal(0.0, 0.1, (n_copies, 2)))
        copies = np.concatenate([src[:, :2] + jitter, np.maximum(wh, 1.0)], axis=1)
        wrong = rng.random(n_copies) < 0.1
        cls = np.where(wrong, rng.integers(1, N_CLASSES + 1, n_copies), cls)
        copy_scores = np.clip(rng.normal(0.7, 0.15, n_copies), 0.01, 0.99)

        n_fp = n_dets - n_copies
        fp_wh = np.stack([_log_uniform_sides(rng, n_fp, 8.0, 300.0)] * 2, axis=1)
        fp_wh *= np.exp(rng.normal(0.0, 0.2, (n_fp, 2)))
        fp_xy = rng.uniform(0.0, 1.0, (n_fp, 2)) * (
            np.array([image["width"], image["height"]]) - np.minimum(fp_wh, 0.9 * image["height"])
        )
        fps = np.concatenate([fp_xy, fp_wh], axis=1)
        fp_cls = rng.integers(1, N_CLASSES + 1, n_fp)
        fp_scores = rng.uniform(0.01, 0.6, n_fp)

        boxes = np.round(np.concatenate([copies, fps]), 2)
        classes = np.concatenate([cls, fp_cls])
        scores = np.round(np.concatenate([copy_scores, fp_scores]), 4)
        for j in rng.permutation(n_dets):
            dets.append(
                {
                    "image_id": image["id"],
                    "category_id": int(classes[j]),
                    "bbox": boxes[j].tolist(),
                    "score": float(scores[j]),
                }
            )
    return dets


def eval_val(seed, workdir):
    """COCO-like val split: 200 images of 640x480, 20 GTs each, ~98 detections each.

    Sides are log-uniform over 10..320 px, about a third in each COCO size
    slice; 2% of GTs are crowd. Ten images carry 130 detections, over the
    default 100-detection cap.
    """
    rng = np.random.default_rng([seed, 1])
    coco = _scene_set(
        rng, 200, 640, 480, 20, n_crowd=80, oob_share=0.05,
        sides_fn=lambda r, n: _log_uniform_sides(r, n, 10.0, 320.0),
    )
    counts = np.full(200, 96)
    counts[rng.choice(200, size=10, replace=False)] = 130
    dets = _detections(rng, coco, counts)
    files = {"ann": workdir / "val.json", "dets": workdir / "dets.json"}
    _write(files["ann"], coco)
    _write(files["dets"], dets)
    n_gt = sum(1 for a in coco["annotations"] if not a["iscrowd"])
    return files, {"n_gt": n_gt}


def anchor_design(seed, workdir):
    """10,000-box aerial training split and 4 dense 1024x1024 scenes of 40 GTs.

    The training split is 100 images of 100 boxes; the scenes carry 4
    crowd GTs each, so each dense image has 36 live GTs.
    """
    rng = np.random.default_rng([seed, 2])
    train = _scene_set(rng, 100, 1024, 1024, 100, n_crowd=100, oob_share=0.03, sides_fn=_aerial_sides)
    scenes = _scene_set(rng, 4, 1024, 1024, 40, n_crowd=16, oob_share=0.05, sides_fn=_aerial_sides)
    files = {"train": workdir / "train.json", "scenes": workdir / "scenes.json"}
    _write(files["train"], train)
    _write(files["scenes"], scenes)
    return files, {"n_boxes": len(train["annotations"]), "n_scenes": len(scenes["images"])}


def ingest_tile(seed, workdir):
    """30 aerial scenes of 4000x3000 with 400 instances each, 3% crossing a border."""
    rng = np.random.default_rng([seed, 3])
    coco = _scene_set(rng, 30, 4000, 3000, 400, n_crowd=240, oob_share=0.03, sides_fn=_aerial_sides)
    files = {"ann": workdir / "scenes.json"}
    _write(files["ann"], coco)
    sizes = [(im["width"], im["height"]) for im in coco["images"]]
    return files, {"image_sizes": sizes, "n_instances": len(coco["annotations"])}


GENERATORS = {"eval-val": eval_val, "anchor-design": anchor_design, "ingest-tile": ingest_tile}
