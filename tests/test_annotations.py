import dataclasses
import json
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from detforge import annotations
from detforge.anchors import AnchorSpec, generate_anchors, match_anchors
from detforge.annotations import (
    Category,
    Dataset,
    ImageRecord,
    Instance,
    InstanceColumns,
    MEDIUM_AREA_MAX,
    SMALL_AREA_MAX,
    _EXPORT_BLOCK_ROWS,
    _tile_count,
    _tile_origins,
    compute_stats,
    export_dataset,
    load_dataset,
    tile,
)
from detforge.errors import (
    DanglingReference,
    InvalidOverlap,
    MissingKey,
    NegativeExtent,
    ValidationError,
)
from detforge.geometry import BBox
from oracles import (
    BBOX_SHAPES,
    assert_same_dataset,
    bbox_grid,
    columns_of,
    dataset_of,
    dataset_to_coco,
    export_bytes,
    from_xywh,
    instances_by_image,
    oracle_export_bytes,
    oracle_load_dataset,
    oracle_tile,
)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return path


def minimal_payload():
    return {
        "images": [{"id": 1, "width": 100, "height": 100, "file_name": "a.png"}],
        "annotations": [
            {"id": 1, "image_id": 1, "category_id": 1, "bbox": [10, 10, 20, 20], "area": 400}
        ],
        "categories": [{"id": 1, "name": "thing"}],
    }


class TestLoading:
    @pytest.mark.parametrize("key", ["id", "image_id"])
    def test_id_past_int64_is_named_before_a_later_bad_entry(self, tmp_path, key):
        """The int64 rules follow the type rules, so entry 0 fails before entry 1."""
        payload = minimal_payload()
        ann = payload["annotations"][0]
        payload["annotations"] = [dict(ann, **{key: 2**63}), dict(ann, id=3, bbox=[0, 0, -1, 1])]
        path = write_json(tmp_path / "ann.json", payload)
        with pytest.raises(ValidationError) as info:
            load_dataset(path)
        assert str(info.value) == f"annotations[0].{key} is out of int64 range"

    def test_tiny_counts(self, tiny_dataset):
        assert len(tiny_dataset.images) == 3
        assert len(tiny_dataset.instances) == 7
        assert len(tiny_dataset.categories) == 3

    def test_out_of_bounds_box_is_clamped(self, tiny_dataset):
        """A box poking past the right edge is clipped to the image."""
        inst = {i.id: i for i in tiny_dataset.instances}[2]
        assert inst.bbox == BBox(995.0, 100.0, 1000.0, 120.0)
        # the declared area survives clamping untouched
        assert inst.area == 200.0
        assert tiny_dataset.clipped_instance_count == 1

    def test_crowd_flag_becomes_ignore(self, tiny_dataset):
        flags = {i.id: i.ignore for i in tiny_dataset.instances}
        assert flags[6] is True
        assert flags[1] is False

    def test_extra_keys_tolerated(self, tiny_dataset):
        # annotation 4 carries a segmentation polygon the loader skips
        inst = {i.id: i for i in tiny_dataset.instances}[4]
        assert inst.bbox == from_xywh(0, 0, 10, 10)

    def test_lookup_tables(self, tiny_dataset):
        assert tiny_dataset.image_by_id[3].width == 400
        assert tiny_dataset.category_by_id[3].name == "ship"
        assert len(instances_by_image(tiny_dataset)[2]) == 3

    def test_missing_top_level_key(self, tmp_path):
        payload = minimal_payload()
        del payload["categories"]
        with pytest.raises(MissingKey, match="categories"):
            load_dataset(write_json(tmp_path / "bad.json", payload))

    def test_missing_field_names_its_position(self, tmp_path):
        payload = minimal_payload()
        del payload["annotations"][0]["bbox"]
        with pytest.raises(MissingKey, match=r"annotations\[0\]\.bbox"):
            load_dataset(write_json(tmp_path / "bad.json", payload))

    def test_dangling_image_reference(self, tmp_path):
        payload = minimal_payload()
        payload["annotations"][0]["image_id"] = 999
        with pytest.raises(DanglingReference):
            load_dataset(write_json(tmp_path / "bad.json", payload))

    def test_dangling_category_reference(self, tmp_path):
        payload = minimal_payload()
        payload["annotations"][0]["category_id"] = 42
        with pytest.raises(DanglingReference):
            load_dataset(write_json(tmp_path / "bad.json", payload))

    def test_negative_extent_rejected(self, tmp_path):
        payload = minimal_payload()
        payload["annotations"][0]["bbox"] = [10, 10, -5, 4]
        with pytest.raises(NegativeExtent):
            load_dataset(write_json(tmp_path / "bad.json", payload))

    def test_duplicate_image_id_rejected(self, tmp_path):
        payload = minimal_payload()
        payload["images"].append(dict(payload["images"][0]))
        with pytest.raises(ValidationError, match="duplicate"):
            load_dataset(write_json(tmp_path / "bad.json", payload))

    def test_missing_area_falls_back_to_box_area(self, tmp_path):
        payload = minimal_payload()
        del payload["annotations"][0]["area"]
        ds = load_dataset(write_json(tmp_path / "ok.json", payload))
        assert ds.instances[0].area == 400.0


class TestStats:
    def test_tiny_category_counts(self, tiny_dataset):
        report = compute_stats(tiny_dataset)
        assert report.per_category_counts == {1: 4, 2: 2, 3: 1}
        assert report.total_instances == 7

    def test_tiny_size_buckets(self, tiny_dataset):
        buckets = compute_stats(tiny_dataset).per_category_size_buckets
        assert buckets[1] == {"small": 4, "medium": 0, "large": 0}
        assert buckets[2] == {"small": 0, "medium": 2, "large": 0}
        assert buckets[3] == {"small": 0, "medium": 0, "large": 1}

    def test_tiny_histogram(self, tiny_dataset):
        # two images carry 3 instances each, one carries a single instance
        assert compute_stats(tiny_dataset).per_image_histogram == {3: 2, 1: 1}

    def test_counts_are_conserved(self, tiny_dataset):
        report = compute_stats(tiny_dataset)
        assert sum(report.per_category_counts.values()) == report.total_instances
        for cat_id, n in report.per_category_counts.items():
            assert sum(report.per_category_size_buckets[cat_id].values()) == n
        assert sum(k * v for k, v in report.per_image_histogram.items()) == 7

    def test_boundary_areas_round_up(self):
        """Areas exactly on a bucket edge land in the coarser bucket."""
        ds = dataset_of(
            images=(ImageRecord(1, 500, 500, "x.png"),),
            instances=(
                Instance(1, 1, 1, from_xywh(0, 0, 32, 32), SMALL_AREA_MAX, False),
                Instance(2, 1, 1, from_xywh(0, 0, 96, 96), MEDIUM_AREA_MAX, False),
                Instance(3, 1, 1, from_xywh(0, 0, 10, 10), 100.0, False),
            ),
            categories=(Category(1, "c"),),
        )
        buckets = compute_stats(ds).per_category_size_buckets[1]
        assert buckets == {"small": 1, "medium": 1, "large": 1}

    def test_empty_dataset(self):
        report = compute_stats(dataset_of(images=(), instances=(), categories=()))
        assert report.total_instances == 0
        assert report.per_category_counts == {}
        assert report.per_image_histogram == {}

    def test_image_without_instances_counts_as_zero(self):
        ds = dataset_of(
            images=(ImageRecord(1, 100, 100, "a.png"), ImageRecord(2, 100, 100, "b.png")),
            instances=(Instance(1, 1, 1, from_xywh(0, 0, 5, 5), 25.0, False),),
            categories=(Category(1, "c"),),
        )
        assert compute_stats(ds).per_image_histogram == {1: 1, 0: 1}

    def test_to_dict_round_trips_through_json(self, tiny_dataset):
        report = compute_stats(tiny_dataset)
        blob = json.loads(json.dumps(report.to_dict()))
        assert blob["total_instances"] == 7
        assert blob["per_category_counts"] == {"1": 4, "2": 2, "3": 1}
        assert blob["per_image_histogram"] == {"1": 1, "3": 2}


def loop_tile_origins(extent, tile_size, stride):
    """The original origin loop: one step per stride."""
    if extent <= tile_size:
        return [0]
    origins = []
    pos = 0
    while pos + tile_size < extent:
        origins.append(pos)
        pos += stride
    origins.append(extent - tile_size)
    return origins


class TestTileOrigins:
    def test_closed_form_equals_the_loop(self):
        rng = np.random.default_rng(12)
        cases = [(1, 1, 1), (799, 800, 600), (800, 800, 1), (801, 800, 1), (1400, 800, 600),
                 (2600, 800, 600), (2601, 800, 600)]
        for _ in range(500):
            tile_size = int(rng.integers(1, 300))
            stride = int(rng.integers(1, tile_size + 1))
            extent = int(rng.integers(1, 3 * tile_size + 2))
            # an exact multiple: the last strided origin already ends at the border
            multiple = tile_size + stride * int(rng.integers(0, 6))
            cases += [(extent, tile_size, stride), (multiple, tile_size, stride)]
        for extent, tile_size, stride in cases:
            want = loop_tile_origins(extent, tile_size, stride)
            assert _tile_origins(extent, tile_size, stride) == want
            assert _tile_count(extent, tile_size, stride) == len(want)

    def test_count_of_a_huge_extent_is_exact(self):
        # len() of this range fails past sys.maxsize; its last element does not
        strided = range(0, 10**200 - 800, 600)
        assert _tile_count(10**200, 800, 600) == strided[-1] // 600 + 2

    def test_small_extent_single_origin(self):
        assert _tile_origins(400, 800, 600) == [0]
        assert _tile_origins(800, 800, 600) == [0]

    def test_last_origin_touches_border(self):
        assert _tile_origins(1000, 800, 600) == [0, 200]
        assert _tile_origins(2000, 800, 600) == [0, 600, 1200]

    def test_origins_cover_every_pixel(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            tile_size = int(rng.integers(50, 400))
            overlap = int(rng.integers(0, tile_size))
            extent = int(rng.integers(tile_size, 3000))
            origins = _tile_origins(extent, tile_size, tile_size - overlap)
            covered = np.zeros(extent, dtype=bool)
            for o in origins:
                assert 0 <= o and o + tile_size <= extent
                covered[o : o + tile_size] = True
            assert covered.all()


class TestTiling:
    def test_identity_when_image_fits(self):
        ds = dataset_of(
            images=(ImageRecord(1, 800, 800, "a.png"),),
            instances=(Instance(1, 1, 1, from_xywh(10, 10, 50, 50), 2500.0, False),),
            categories=(Category(1, "c"),),
        )
        out = tile(ds, tile_size=800, overlap=0)
        assert len(out.images) == 1
        assert out.images[0].width == 800 and out.images[0].height == 800
        assert out.images[0].file_name == "a__x0_y0.png"
        assert out.instances[0].bbox == ds.instances[0].bbox
        assert out.instances[0].area == 2500.0

    def test_tiny_tile_count(self, tiny_dataset):
        # 1000x800 splits into two x-origins, the square images into one tile each
        out = tile(tiny_dataset, tile_size=800, overlap=200)
        assert len(out.images) == 4
        names = [im.file_name for im in out.images]
        assert "scene_000__x0_y0.png" in names
        assert "scene_000__x200_y0.png" in names

    def test_too_many_tiles_fail_before_any_is_built(self, monkeypatch):
        ds = dataset_of(
            images=(ImageRecord(5, 1000, 800, "b.png"), ImageRecord(2, 1400, 1400, "a.png"),
                    ImageRecord(9, 100, 100, "c.png")),
            instances=(Instance(1, 5, 1, from_xywh(10, 10, 20, 20), 400.0, False),),
            categories=(Category(1, "c"),),
        )
        # in id order: image 2 takes 4 tiles, image 5 two more, image 9 one
        monkeypatch.setattr(annotations, "MAX_TILES", 7)
        assert len(tile(ds, 800, 200).images) == 7
        monkeypatch.setattr(annotations, "MAX_TILES", 5)
        with pytest.raises(ValidationError,
                           match="^the tile count passes MAX_TILES = 5 at image 5$"):
            tile(ds, 800, 200)
        monkeypatch.setattr(annotations, "MAX_TILES", 3)
        with pytest.raises(ValidationError,
                           match="^the tile count passes MAX_TILES = 3 at image 2$"):
            tile(ds, 800, 200)

    def test_straddling_box_is_clipped_both_sides(self):
        """A box across a tile seam shows up clipped in each tile that keeps it."""
        ds = dataset_of(
            images=(ImageRecord(1, 1000, 800, "a.png"),),
            instances=(Instance(1, 1, 1, from_xywh(790, 10, 20, 20), 400.0, False),),
            categories=(Category(1, "c"),),
        )
        out = tile(ds, tile_size=800, overlap=200, min_visibility=0.25)
        by_image = {im.file_name: im.id for im in out.images}
        insts = {i.image_id: i for i in out.instances}

        left = insts[by_image["a__x0_y0.png"]]
        assert left.bbox == BBox(790.0, 10.0, 800.0, 30.0)
        assert left.area == pytest.approx(200.0)

        right = insts[by_image["a__x200_y0.png"]]
        assert right.bbox == BBox(590.0, 10.0, 610.0, 30.0)
        assert right.area == pytest.approx(400.0)

    def test_visibility_threshold_drops_slivers(self):
        ds = dataset_of(
            images=(ImageRecord(1, 1000, 800, "a.png"),),
            instances=(Instance(1, 1, 1, from_xywh(790, 10, 20, 20), 400.0, False),),
            categories=(Category(1, "c"),),
        )
        out = tile(ds, tile_size=800, overlap=200, min_visibility=0.6)
        # only the fully visible copy survives the 0.6 cut
        assert len(out.instances) == 1
        assert out.instances[0].bbox == BBox(590.0, 10.0, 610.0, 30.0)

    def test_overlap_bounds(self, tiny_dataset):
        with pytest.raises(InvalidOverlap):
            tile(tiny_dataset, tile_size=800, overlap=800)
        with pytest.raises(InvalidOverlap):
            tile(tiny_dataset, tile_size=800, overlap=-1)

    def test_visibility_bounds(self, tiny_dataset):
        with pytest.raises(ValidationError):
            tile(tiny_dataset, min_visibility=0.0)
        with pytest.raises(ValidationError):
            tile(tiny_dataset, min_visibility=1.5)

    def test_ignore_flag_survives_tiling(self, tiny_dataset):
        out = tile(tiny_dataset, tile_size=800, overlap=200)
        assert any(i.ignore for i in out.instances)

    def test_tiles_match_brute_force_rescan(self):
        """Every (instance, tile) pair above the visibility cut appears exactly once."""
        rng = np.random.default_rng(23)
        images = []
        instances = []
        next_id = 1
        for img_id in range(1, 6):
            w = int(rng.integers(300, 1500))
            h = int(rng.integers(300, 1500))
            images.append(ImageRecord(img_id, w, h, f"im{img_id}.png"))
            for _ in range(int(rng.integers(0, 12))):
                bw = float(rng.integers(5, 200))
                bh = float(rng.integers(5, 200))
                x = float(rng.integers(0, max(1, w - int(bw))))
                y = float(rng.integers(0, max(1, h - int(bh))))
                instances.append(
                    Instance(next_id, img_id, 1, from_xywh(x, y, bw, bh), bw * bh, False)
                )
                next_id += 1
        ds = dataset_of(tuple(images), tuple(instances), (Category(1, "c"),))

        tile_size, overlap, min_vis = 512, 128, 0.3
        out = tile(ds, tile_size=tile_size, overlap=overlap, min_visibility=min_vis)

        expected_pairs = set()
        n_tiles = 0
        for im in images:
            xs = _tile_origins(im.width, tile_size, tile_size - overlap)
            ys = _tile_origins(im.height, tile_size, tile_size - overlap)
            n_tiles += len(xs) * len(ys)
            for oy in ys:
                for ox in xs:
                    rect = BBox(
                        float(ox),
                        float(oy),
                        float(min(ox + tile_size, im.width)),
                        float(min(oy + tile_size, im.height)),
                    )
                    for inst in instances:
                        if inst.image_id != im.id:
                            continue
                        ix0 = max(inst.bbox.x_min, rect.x_min)
                        iy0 = max(inst.bbox.y_min, rect.y_min)
                        ix1 = min(inst.bbox.x_max, rect.x_max)
                        iy1 = min(inst.bbox.y_max, rect.y_max)
                        if ix1 <= ix0 or iy1 <= iy0:
                            continue
                        vis = (ix1 - ix0) * (iy1 - iy0) / inst.bbox.area
                        if vis >= min_vis:
                            expected_pairs.add((im.id, ox, oy, inst.id))

        assert len(out.images) == n_tiles
        assert len(out.instances) == len(expected_pairs)
        # soundness: every emitted box sits inside its tile
        for inst in out.instances:
            im = out.image_by_id[inst.image_id]
            assert 0.0 <= inst.bbox.x_min and inst.bbox.x_max <= im.width
            assert 0.0 <= inst.bbox.y_min and inst.bbox.y_max <= im.height


class TestRoundTrip:
    def test_export_then_load_is_identity(self, tiny_dataset, tmp_path):
        path = tmp_path / "copy.json"
        export_dataset(tiny_dataset, path)
        again = load_dataset(path)
        assert again == tiny_dataset
        # the exported file holds already-clamped boxes, so nothing to clip
        assert again.clipped_instance_count == 0

    def test_tiled_export_round_trip(self, tiny_dataset, tmp_path):
        tiled = tile(tiny_dataset, tile_size=800, overlap=200)
        path = tmp_path / "tiled.json"
        export_dataset(tiled, path)
        assert load_dataset(path) == tiled

    def test_coco_dict_schema(self, tiny_dataset):
        blob = dataset_to_coco(tiny_dataset)
        assert set(blob) == {"images", "annotations", "categories"}
        ann = blob["annotations"][5]
        assert ann["iscrowd"] == 1

    def test_export_to_directory_raises_oserror(self, tiny_dataset, tmp_path):
        with pytest.raises(OSError):
            export_dataset(tiny_dataset, tmp_path)


class TestParseXywhMatchesOracle:
    """The loader's bbox rules against ``oracle_parse_xywh`` on one-entry files."""

    @staticmethod
    def outcome(loader, path):
        try:
            return "loaded", loader(path)
        except ValidationError as exc:
            return type(exc), str(exc)

    def check(self, value, tmp_path):
        payload = minimal_payload()
        payload["annotations"][0]["bbox"] = value
        path = write_json(tmp_path / "ann.json", payload)
        got, want = self.outcome(load_dataset, path), self.outcome(oracle_load_dataset, path)
        assert got[0] == want[0], value
        if got[0] == "loaded":
            assert_same_dataset(got[1], want[1], tmp_path)
        else:
            assert got[1] == want[1], value

    def test_every_edge_value_in_every_slot(self, tmp_path):
        for box in bbox_grid():
            self.check(box, tmp_path)

    @pytest.mark.parametrize("value", BBOX_SHAPES)
    def test_non_sequences_and_wrong_lengths(self, value, tmp_path):
        self.check(value, tmp_path)


TILINGS = [(800, 200, 0.25), (256, 64, 0.5), (100, 0, 1.0), (150, 100, 0.01)]


def random_payload(seed: int) -> dict:
    """A COCO payload with every box case the loader and tiler branch on.

    Boxes inside, partly and fully out of bounds, zero-area and signed-zero
    boxes; crowd entries; missing, integer and float areas; unsorted ids;
    and images without instances.
    """
    rng = np.random.default_rng(seed)
    n_images = int(rng.integers(1, 6))
    image_ids = rng.choice(10_000, n_images, replace=False).tolist()
    images = [
        {"id": i, "width": int(rng.integers(40, 1300)), "height": int(rng.integers(40, 1300)),
         "file_name": f"im{i}" + (".png" if rng.random() < 0.7 else "")}
        for i in image_ids
    ]
    category_ids = rng.choice(50, int(rng.integers(1, 4)), replace=False).tolist()
    # some images get no instances at all
    hosts = images[: max(1, n_images - int(rng.integers(0, 2)))]
    n_anns = int(rng.integers(0, 40))
    ann_ids = rng.choice(100_000, n_anns, replace=False).tolist()
    annotations = []
    for ann_id in ann_ids:
        im = hosts[int(rng.integers(len(hosts)))]
        w_img, h_img = im["width"], im["height"]
        kind = rng.choice(["inside", "partly", "outside", "zero", "signed-zero"])
        x = float(rng.uniform(0, w_img))
        y = float(rng.uniform(0, h_img))
        w = float(rng.uniform(1, 300))
        h = float(rng.uniform(1, 300))
        if kind == "partly":
            x = float(rng.uniform(-w, 0)) if rng.random() < 0.5 else w_img - w / 2
        elif kind == "outside":
            x = float(w_img + rng.uniform(0, 50)) if rng.random() < 0.5 else -w - 5.0
        elif kind == "zero":
            w = 0.0 if rng.random() < 0.5 else w
            h = 0.0 if w else h
        elif kind == "signed-zero":
            x, y = -0.0, (-0.0 if rng.random() < 0.5 else y)
            w = -0.0 if rng.random() < 0.2 else w
        bbox = [x, y, w, h]
        if rng.random() < 0.3:
            bbox = [int(v) for v in bbox]
        ann = {"id": ann_id, "image_id": im["id"],
               "category_id": category_ids[int(rng.integers(len(category_ids)))], "bbox": bbox}
        area_kind = rng.integers(3)
        if area_kind == 1:
            ann["area"] = int(rng.integers(0, 90_000))
        elif area_kind == 2:
            ann["area"] = float(rng.uniform(0, 90_000))
        if rng.random() < 0.5:
            ann["iscrowd"] = int(rng.random() < 0.3)
        annotations.append(ann)
    categories = [{"id": c, "name": f"c{c}"} for c in category_ids]
    return {"images": images, "annotations": annotations, "categories": categories}


def load_both(payload, tmp_path):
    path = write_json(tmp_path / "ann.json", payload)
    return load_dataset(path), oracle_load_dataset(path)


class TestColumnarMatchesOracle:
    """Load, tile, stats and export against the object-path code they replaced."""

    @pytest.mark.parametrize("name", ["tiny.json", "eval_mixed_ann.json"])
    def test_fixtures(self, data_dir, tmp_path, name):
        got, want = load_dataset(data_dir / name), oracle_load_dataset(data_dir / name)
        assert_same_dataset(got, want, tmp_path)
        for size, overlap, min_vis in TILINGS:
            assert_same_dataset(tile(got, size, overlap, min_vis),
                                oracle_tile(want, size, overlap, min_vis), tmp_path)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_datasets(self, tmp_path, seed):
        got, want = load_both(random_payload(seed), tmp_path)
        assert_same_dataset(got, want, tmp_path)
        for size, overlap, min_vis in TILINGS:
            assert_same_dataset(tile(got, size, overlap, min_vis),
                                oracle_tile(want, size, overlap, min_vis), tmp_path)

    def test_random_datasets_cover_every_case(self, tmp_path):
        """The seeds above do reach the branches they are meant to test."""
        seen = set()
        for seed in range(30):
            got, _ = load_both(random_payload(seed), tmp_path)
            c = got.columns
            area = (c.boxes[:, 2] - c.boxes[:, 0]) * (c.boxes[:, 3] - c.boxes[:, 1])
            seen |= {
                "clipped" if got.clipped_instance_count else None,
                "zero-area" if (area == 0).any() else None,
                "crowd" if c.ignore.any() else None,
                "signed-zero" if np.signbit(c.boxes[c.boxes == 0]).any() else None,
                "unsorted" if (np.diff(c.id) < 0).any() else None,
                "empty image" if any(len(r) == 0 for r in got.rows_by_image.values()) else None,
            }
        assert seen - {None} == {"clipped", "zero-area", "crowd", "signed-zero", "unsorted",
                                 "empty image"}

    def test_signed_zeros(self, tmp_path):
        """-0.0 survives clamping as in min(max(v, 0.0), hi); x + (-0) makes it 0.0."""
        payload = {
            "images": [{"id": 1, "width": 1000, "height": 800, "file_name": "a.png"}],
            "annotations": [
                {"id": 1, "image_id": 1, "category_id": 1, "bbox": [-0.0, -0.0, 10.0, 10.0]},
                {"id": 2, "image_id": 1, "category_id": 1, "bbox": [0.0, -0.0, 5.0, 5.0],
                 "area": 25},
                {"id": 3, "image_id": 1, "category_id": 1, "bbox": [-0.0, 5.0, -0.0, 3.0]},
                {"id": 4, "image_id": 1, "category_id": 1, "bbox": [990.0, -0.0, 20.0, 5.0]},
                {"id": 5, "image_id": 1, "category_id": 1, "bbox": [-5.0, -0.0, 300.0, 4.0]},
            ],
            "categories": [{"id": 1, "name": "c"}],
        }
        got, want = load_both(payload, tmp_path)
        assert_same_dataset(got, want, tmp_path)
        assert np.signbit(got.columns.boxes[0, :2]).all()  # kept, not turned into 0.0
        assert b"-0.0" in export_bytes(got, tmp_path)
        tiled = tile(got, 800, 200, 0.25)
        assert_same_dataset(tiled, oracle_tile(want, 800, 200, 0.25), tmp_path)
        assert not np.signbit(tiled.columns.boxes[tiled.columns.boxes == 0]).any()

    def test_constructed_dataset(self, tmp_path):
        """A dataset built from the columns of Instance objects tiles as the loaded one does."""
        ds = oracle_load_dataset(write_json(tmp_path / "ann.json", random_payload(3)))
        rebuilt = Dataset(ds.images, ds.categories, columns_of(ds.instances),
                          clipped_instance_count=ds.clipped_instance_count)
        assert_same_dataset(tile(rebuilt, 256, 64, 0.5), oracle_tile(ds, 256, 64, 0.5),
                            tmp_path)

    def test_boxes_on_the_edge_of_a_row_of_tiles(self, tmp_path):
        """A box that ends where a row of tiles starts, or starts where the row
        ends, is in none of that row's tiles."""
        # tile 400, overlap 100 on a 1000-px side: rows of tiles span y [0, 400), [300, 700)
        # and [600, 1000)
        boxes = [(10.0, 250.0, 50.0, 300.0), (10.0, 400.0, 50.0, 450.0),
                 (100.0, 700.0, 150.0, 760.0), (200.0, 550.0, 260.0, 600.0),
                 (500.0, 300.0, 560.0, 400.0), (600.0, 0.0, 700.0, 1000.0),
                 (10.0, -0.0, 50.0, 300.0), (900.0, 940.0, 1000.0, 1000.0)]
        ds = dataset_of(
            (ImageRecord(1, 1000, 1000, "a.png"),),
            tuple(Instance(i + 1, 1, 1, BBox(*b), (b[2] - b[0]) * (b[3] - b[1]))
                  for i, b in enumerate(boxes)),
            (Category(1, "c"),),
        )
        got = tile(ds, 400, 100, 0.25)
        assert_same_dataset(got, oracle_tile(ds, 400, 100, 0.25), tmp_path)
        assert len(got.columns) > len(boxes)

    def test_box_area_past_float_range_is_rejected_before_tiling(self):
        """The columns reject a box whose w * h overflows, so tile never sees one."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as info:
                dataset_of(
                    (ImageRecord(1, 1000, 800, "a.png"),),
                    (Instance(1, 1, 1, BBox(10.0, 10.0, 30.0, 30.0), 400.0),
                     Instance(2, 1, 1, BBox(0.0, 0.0, 1e200, 1e200), 1.0)),
                    (Category(1, "c"),),
                )
        assert str(info.value) == (
            "instance row 1 has a box whose w * h is out of float range (0.0, 0.0, 1e+200, 1e+200)"
        )

    def test_default_area_overflow_is_named_in_file_order(self, tmp_path):
        """A missing area whose clamped box area overflows fails at its own entry."""
        big = 10**200
        payload = {
            "images": [{"id": 1, "width": big, "height": big, "file_name": "a.png"}],
            "annotations": [
                {"id": 1, "image_id": 1, "category_id": 1, "bbox": [0, 0, 1e3, 1e3]},
                {"id": 2, "image_id": 1, "category_id": 1, "bbox": [0, 0, 1e200, 1e200]},
                {"id": 3, "image_id": 1, "category_id": 1, "bbox": [0, 0, 1, 1], "iscrowd": 7},
            ],
            "categories": [{"id": 1, "name": "c"}],
        }
        path = write_json(tmp_path / "ann.json", payload)
        for loader in (load_dataset, oracle_load_dataset):
            with pytest.raises(ValidationError, match=r"^annotations\[1\]\.area must be"):
                loader(path)
        del payload["annotations"][1:]
        got, want = load_both(payload, tmp_path)
        assert_same_dataset(got, want, tmp_path)


    @pytest.mark.parametrize("name", ["tiny.json", "eval_mixed_ann.json"])
    def test_valid_files_load_on_the_column_path(self, data_dir, tmp_path, name):
        """Valid files, empty lists and all-default areas load as the oracle loads them."""
        assert_same_dataset(load_dataset(data_dir / name), oracle_load_dataset(data_dir / name),
                            tmp_path)
        for seed in range(10):
            got, want = load_both(random_payload(seed), tmp_path)
            assert_same_dataset(got, want, tmp_path)
        # an empty annotation list and one given as all-missing areas
        payload = minimal_payload()
        del payload["annotations"][0]["area"]
        assert_same_dataset(*load_both(payload, tmp_path), tmp_path)
        payload["annotations"] = []
        assert_same_dataset(*load_both(payload, tmp_path), tmp_path)

    def test_given_area_does_not_excuse_an_infinite_box_area(self, tmp_path):
        """A clamped box whose w * h overflows fails at its entry, area given or not."""
        big = 10**250
        payload = {
            "images": [{"id": 1, "width": 100, "height": 100, "file_name": "a.png"},
                       {"id": 2, "width": big, "height": big, "file_name": "b.png"}],
            "annotations": [
                # clamped into image 1, so its area is 100 * 100
                {"id": 1, "image_id": 1, "category_id": 1, "bbox": [0, 0, 1e200, 1e200],
                 "area": 5.0},
                {"id": 2, "image_id": 2, "category_id": 1, "bbox": [0, 0, 1e200, 1e200],
                 "area": 5.0},
                {"id": 3, "image_id": 2, "category_id": 1, "bbox": [0, 0, 1, 1], "iscrowd": 7},
            ],
            "categories": [{"id": 1, "name": "c"}],
        }
        path = write_json(tmp_path / "ann.json", payload)
        for loader in (load_dataset, oracle_load_dataset):
            with pytest.raises(ValidationError) as info:
                loader(path)
            assert str(info.value) == (
                "annotations[1].bbox: w * h of the clamped box is out of float range"
            )
        del payload["annotations"][1:]
        got, want = load_both(payload, tmp_path)
        assert_same_dataset(got, want, tmp_path)
        assert got.columns.boxes.tolist() == [[0.0, 0.0, 100.0, 100.0]]

    def test_default_area_past_float_range_is_rejected_in_a_valid_file(self, tmp_path):
        """With no other fault, an infinite default area still fails at its entry."""
        big = 10**200
        payload = {
            "images": [{"id": 1, "width": 10, "height": 10, "file_name": "a.png"},
                       {"id": 2, "width": big, "height": big, "file_name": "b.png"}],
            "annotations": [
                {"id": 1, "image_id": 1, "category_id": 1, "bbox": [0, 0, 1e200, 1e200]},
                {"id": 2, "image_id": 2, "category_id": 1, "bbox": [0, 0, 1e200, 1e200]},
            ],
            "categories": [{"id": 1, "name": "c"}],
        }
        path = write_json(tmp_path / "ann.json", payload)
        for loader in (load_dataset, oracle_load_dataset):
            with pytest.raises(ValidationError, match=r"^annotations\[1\]\.area must be"):
                loader(path)

    def test_unknown_image_is_named_before_an_earlier_unknown_category(self, tmp_path):
        """The load names an unknown image in file order; categories are checked after."""
        payload = minimal_payload()
        ann = payload["annotations"][0]
        payload["annotations"] = [dict(ann, id=1, category_id=9), dict(ann, id=2, image_id=8)]
        path = write_json(tmp_path / "ann.json", payload)
        for loader in (load_dataset, oracle_load_dataset):
            with pytest.raises(DanglingReference, match=r"^annotation 2 references unknown image"):
                loader(path)
        payload["images"] = []
        path = write_json(tmp_path / "ann.json", payload)
        for loader in (load_dataset, oracle_load_dataset):
            with pytest.raises(DanglingReference, match=r"^annotation 1 references unknown image"):
                loader(path)

    @pytest.mark.parametrize("value", [int(sys.float_info.max) + 1,
                                       -(int(sys.float_info.max) + 1)], ids=["above", "below"])
    @pytest.mark.parametrize("slot", range(5))
    def test_int_rounding_to_a_finite_float_is_rejected(self, tmp_path, value, slot):
        """A NumPy cast rounds the int to a finite float; the load names the entry."""
        payload = minimal_payload()
        first = payload["annotations"][0]
        payload["annotations"].insert(0, dict(first, id=7, bbox=list(first["bbox"])))
        ann = payload["annotations"][1]
        if slot < 4:
            ann["bbox"][slot] = value
        else:
            ann["area"] = value
        path = write_json(tmp_path / "ann.json", payload)
        with pytest.raises(ValidationError) as got:
            load_dataset(path)
        with pytest.raises(ValidationError) as want:
            oracle_load_dataset(path)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("annotations[1].")


def export_dataset_of(n_rows: int, n_images: int = 3, seed: int = 0) -> Dataset:
    """A dataset of ``n_rows`` random instances built from columns."""
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0, 500, (n_rows, 2))
    wh = rng.uniform(0, 80, (n_rows, 2))
    return Dataset(
        [ImageRecord(i + 1, 600, 600, f"scene_{i}.png") for i in range(n_images)],
        [Category(1, "plane"), Category(2, "ship")],
        InstanceColumns(
            id=rng.permutation(n_rows) + 1,
            image_id=rng.integers(1, n_images + 1, n_rows),
            category_id=rng.integers(1, 3, n_rows),
            boxes=np.concatenate([xy, xy + wh], axis=1),
            area=(wh[:, 0] * wh[:, 1]).round(int(rng.integers(0, 6))),
            ignore=rng.random(n_rows) < 0.1,
        ),
    )


class TestStreamedExport:
    """The template writer against the json.dump(indent=2) export it replaced."""

    def assert_exports_as_json_does(self, ds, tmp_path):
        data = export_bytes(ds, tmp_path)
        assert data == oracle_export_bytes(ds)
        return data

    def test_empty_dataset_and_empty_lists(self, tmp_path):
        empty = dataset_of((), (), ())
        assert self.assert_exports_as_json_does(empty, tmp_path) == (
            b'{\n  "images": [],\n  "annotations": [],\n  "categories": []\n}\n'
        )
        image, cat = ImageRecord(1, 10, 10, "a.png"), Category(1, "c")
        for images, cats in (((image,), ()), ((), (cat,)), ((image,), (cat,))):
            self.assert_exports_as_json_does(dataset_of(images, (), cats), tmp_path)

    def test_escaped_names(self, tmp_path):
        names = ["caf\u00e9.png", 'quo"te', "back\\slash", "ctrl\x00\x1f\n\t\r\x7f",
                 "line\u2028sep", "\U0001f6e9 plane", "", "\ud800 lone surrogate"]
        ds = dataset_of(
            [ImageRecord(i + 1, 32, 32, name) for i, name in enumerate(names)],
            [Instance(1, 1, i + 1, BBox(0.0, 0.0, 4.0, 4.0), 16.0) for i in range(1)],
            [Category(i + 1, name) for i, name in enumerate(names)],
        )
        data = self.assert_exports_as_json_does(ds, tmp_path)
        assert data.isascii()
        assert json.loads(data) == dataset_to_coco(ds)

    def test_non_finite_areas_are_rejected_and_signed_zeros_export(self, tmp_path):
        ds = dataset_of(
            (ImageRecord(1, 100, 100, "a.png"),),
            (Instance(1, 1, 1, BBox(-0.0, -0.0, 0.0, -0.0), 0.0),
             Instance(2, 1, 1, BBox(-0.0, 5.0, 10.0, 7.5), -0.0),
             Instance(3, 1, 1, BBox(1e-310, 2.0, 1e300, 3.0), 1e308, True),
             Instance(4, 1, 1, BBox(0.1, 0.2, 0.30000000000000004, 1.0), 0.0)),
            (Category(1, "c"),),
        )
        data = self.assert_exports_as_json_does(ds, tmp_path)
        assert b'"area": -0.0,' in data
        assert json.loads(data) == dataset_to_coco(ds)
        # json's non-finite spellings never reach a file: the columns reject them
        for area in (math.inf, math.nan, -math.inf):
            with pytest.raises(ValidationError, match=r"^instance row 1 area must be finite "):
                dataset_of(ds.images, (Instance(1, 1, 1, BBox(0.0, 0.0, 1.0, 1.0), 1.0),
                                       Instance(2, 1, 1, BBox(0.0, 0.0, 1.0, 1.0), area)),
                           ds.categories)

    @pytest.mark.parametrize("offset", [-1, 0, 1, _EXPORT_BLOCK_ROWS + 3])
    def test_block_seams(self, tmp_path, offset):
        ds = export_dataset_of(_EXPORT_BLOCK_ROWS + offset, seed=offset + 1)
        data = self.assert_exports_as_json_does(ds, tmp_path)
        assert json.loads(data) == dataset_to_coco(ds)

    def test_small_blocks_and_many_images(self, data_dir, tmp_path, monkeypatch):
        monkeypatch.setattr(annotations, "_EXPORT_BLOCK_ROWS", 3)
        for n_rows in range(8):
            ds = export_dataset_of(n_rows, n_images=n_rows + 2, seed=n_rows)
            self.assert_exports_as_json_does(ds, tmp_path)
        tiled = tile(load_dataset(data_dir / "eval_mixed_ann.json"), 128, 32, 0.25)
        self.assert_exports_as_json_does(tiled, tmp_path)

    def test_round_trip_of_loaded_and_tiled_fixtures(self, data_dir, tmp_path):
        for name in ("tiny.json", "eval_mixed_ann.json"):
            ds = load_dataset(data_dir / name)
            for out in (ds, tile(ds, 256, 64, 0.25)):
                data = self.assert_exports_as_json_does(out, tmp_path)
                assert json.loads(data) == dataset_to_coco(out)

    def test_memory_stays_under_half_the_file(self, tmp_path):
        """The export holds a block of text at a time, not the file or a dict per row."""
        ds = export_dataset_of(20_000, n_images=50)
        path = tmp_path / "big.json"
        tracemalloc.start()
        try:
            export_dataset(ds, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 2


class TestObjectsOnlyAtTheEdge:
    def test_pipeline_builds_no_instance_or_box(self, data_dir, tmp_path, monkeypatch):
        """load -> tile -> stats -> export -> match never calls Instance or BBox __init__."""
        calls = []
        for cls in (Instance, BBox):
            original = cls.__init__

            def counting(self, *args, _original=original, **kwargs):
                calls.append(type(self).__name__)
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        ds = load_dataset(data_dir / "eval_mixed_ann.json")
        tiled = tile(ds, 256, 64, 0.25)
        compute_stats(ds)
        compute_stats(tiled)
        export_dataset(tiled, tmp_path / "tiles.json")
        anchors = generate_anchors(AnchorSpec(), [(800 // s, 800 // s) for s in (4, 8, 16, 32, 64)])
        assert match_anchors(anchors, ds.columns).n_gt > 0
        assert calls == []
        # the counter does see the objects built for an API caller
        assert len(tiled.instances) == len(tiled.columns) > 0
        assert calls.count("Instance") == calls.count("BBox") == len(tiled.columns)

    def test_instances_are_cached(self, tiny_dataset):
        assert tiny_dataset.instances is tiny_dataset.instances
        assert instances_by_image(tiny_dataset)[2] == tuple(
            i for i in tiny_dataset.instances if i.image_id == 2
        )

    def test_columns_are_read_only(self, tiny_dataset):
        c = tiny_dataset.columns
        assert c.id.dtype == c.image_id.dtype == c.category_id.dtype == np.int64
        assert c.boxes.shape == (7, 4) and c.boxes.dtype == np.float64
        assert c.area.dtype == np.float64 and c.ignore.dtype == bool
        with pytest.raises(ValueError):
            c.boxes[0, 0] = 1.0

    def test_constructor_keeps_validating(self):
        image, cat = ImageRecord(1, 10, 10, "a.png"), Category(1, "c")
        box = from_xywh(0, 0, 1, 1)
        with pytest.raises(ValidationError, match="duplicate instance id: 2"):
            dataset_of((image,), [Instance(2, 1, 1, box, 1.0), Instance(3, 1, 1, box, 1.0),
                                  Instance(2, 1, 1, box, 1.0)], (cat,))
        with pytest.raises(DanglingReference, match="annotation 4 references unknown category"):
            dataset_of((image,), [Instance(3, 1, 1, box, 1.0), Instance(4, 1, 9, box, 1.0),
                                  Instance(5, 7, 1, box, 1.0)], (cat,))
        with pytest.raises(DanglingReference, match="annotation 5 references unknown image"):
            dataset_of((image,), [Instance(5, 7, 9, box, 1.0)], (cat,))

    def test_old_argument_order_is_a_validation_error(self):
        """Instances where the columns go fail in one line, not deep inside a check."""
        image, cat = ImageRecord(1, 10, 10, "a.png"), Category(1, "c")
        instances = (Instance(1, 1, 1, from_xywh(0, 0, 1, 1), 1.0),)
        with pytest.raises(ValidationError,
                           match=r"^Dataset columns must be InstanceColumns, got tuple$"):
            Dataset((image,), instances, (cat,))

    def test_the_one_constructor(self, tiny_dataset):
        assert [f.name for f in dataclasses.fields(Dataset)] == [
            "images", "categories", "columns", "clipped_instance_count"]
        ds = tiny_dataset
        with pytest.raises(TypeError):
            Dataset(ds.images, ds.categories, ds.columns, "tiny.json")  # the old provenance slot
        rebuilt = Dataset(ds.images, ds.categories, ds.columns, clipped_instance_count=1)
        assert rebuilt == ds and rebuilt.clipped_instance_count == 1

    @pytest.mark.parametrize("bad_box, bad_area, message", [
        ((0, 0, math.nan, 1), 1.0, "instance row 1 has a non-finite box (0.0, 0.0, nan, 1.0)"),
        ((5, 0, 1, 1), 1.0, "instance row 1 has an inverted box (5.0, 0.0, 1.0, 1.0)"),
        ((-1e308, 0, 1e308, 1), 1.0, "instance row 1 has a box whose w * h is out of float "
                                     "range (-1e+308, 0.0, 1e+308, 1.0)"),
        ((0, 0, 1e200, 1e200), 1.0, "instance row 1 has a box whose w * h is out of float "
                                    "range (0.0, 0.0, 1e+200, 1e+200)"),
        ((0, 0, 1, 1), -1.0, "instance row 1 area must be finite and non-negative, got -1.0"),
        ((0, 0, 1, 1), math.nan, "instance row 1 area must be finite and non-negative, got nan"),
        # the first bad row is named, whichever rule it breaks
        ((0, 0, 1, math.inf), math.nan, "instance row 1 has a non-finite box (0.0, 0.0, 1.0, inf)"),
    ], ids=["nan-box", "inverted", "extent-overflow", "area-overflow", "negative-area",
            "nan-area", "first-rule-of-row"])
    def test_columns_keep_the_box_contract(self, bad_box, bad_area, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as info:
                InstanceColumns(id=[1, 2, 3], image_id=[1, 1, 1], category_id=[1, 1, 1],
                                boxes=[(0, 0, 1, 1), bad_box, (9, 9, 0, 0)],
                                area=[1.0, bad_area, -5.0], ignore=[False, True, False])
        assert str(info.value) == message

    @pytest.mark.parametrize("width, message", [
        (100.5, "image 1 width must be an integer, got 100.5"),
        (True, "image 1 width must be an integer, got True"),
        (0, "image 1 width must be at least 1, got 0"),
    ])
    def test_image_sizes_are_positive_integers(self, width, message):
        """A float width once tiled into a file that load_dataset rejects."""
        with pytest.raises(ValidationError) as info:
            ImageRecord(1, width, 100, "a.png")
        assert str(info.value) == message
        # a NumPy integer is kept as the int json can write
        assert type(ImageRecord(1, np.int64(100), 100, "a.png").width) is int

    def test_instance_columns_from_instances(self, tiny_dataset):
        assert columns_of(tiny_dataset.instances) == tiny_dataset.columns
