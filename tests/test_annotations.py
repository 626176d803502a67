import itertools
import json
import sys

import numpy as np
import pytest

from detforge.annotations import (
    Category,
    Dataset,
    ImageRecord,
    Instance,
    MEDIUM_AREA_MAX,
    SMALL_AREA_MAX,
    _tile_origins,
    compute_stats,
    dataset_to_coco,
    export_dataset,
    load_dataset,
    parse_xywh,
    tile,
)
from detforge.errors import (
    DanglingReference,
    InvalidOverlap,
    MissingKey,
    NegativeExtent,
    ValidationError,
)
from detforge.geometry import BBox, from_xywh


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
        assert len(tiny_dataset.instances_by_image[2]) == 3

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
        ds = Dataset(
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
        report = compute_stats(Dataset(images=(), instances=(), categories=()))
        assert report.total_instances == 0
        assert report.per_category_counts == {}
        assert report.per_image_histogram == {}

    def test_image_without_instances_counts_as_zero(self):
        ds = Dataset(
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


class TestTileOrigins:
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
        ds = Dataset(
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

    def test_straddling_box_is_clipped_both_sides(self):
        """A box across a tile seam shows up clipped in each tile that keeps it."""
        ds = Dataset(
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
        ds = Dataset(
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
        ds = Dataset(tuple(images), tuple(instances), (Category(1, "c"),))

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


def oracle_parse_xywh(value, where):
    """The original box check: one generator over the four values."""
    if not (
        isinstance(value, (list, tuple))
        and len(value) == 4
        and all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in value)
    ):
        raise ValidationError(f"{where} must be [x, y, w, h] of four finite numbers")
    return tuple(float(v) for v in value)


class TestParseXywhMatchesOracle:
    EDGE = [0, -3, 2.5, -0.0, 1e308, -sys.float_info.max, sys.float_info.max,
            int(sys.float_info.max), int(sys.float_info.max) + 1, -(10**400),
            float("nan"), float("inf"), float("-inf"), True, False, "5", None, [1]]

    @staticmethod
    def outcome(fn, value):
        try:
            return ("ok", fn(value, "box"))
        except ValidationError as exc:
            return ("error", str(exc))

    def test_every_edge_value_in_every_slot(self):
        for slot, v in itertools.product(range(4), self.EDGE):
            box = [1.0, 2, 3.0, 4]
            box[slot] = v
            for value in (box, tuple(box)):
                got, want = self.outcome(parse_xywh, value), self.outcome(oracle_parse_xywh, value)
                assert got == want, value
                if got[0] == "ok":
                    assert all(type(c) is float for c in got[1])

    @pytest.mark.parametrize("value", [None, 5, "0 0 1 1", {"x": 0}, [], [1, 2, 3],
                                       [1, 2, 3, 4, 5], np.zeros(4), range(4)])
    def test_non_sequences_and_wrong_lengths(self, value):
        assert self.outcome(parse_xywh, value) == self.outcome(oracle_parse_xywh, value)
