import itertools
import json
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from detforge import annotations, geometry
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
    _tile_origins,
    compute_stats,
    dataset_to_coco,
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


# Every edge value in every slot of a valid box, then values of the wrong shape.
BBOX_EDGES = [0, -3, 2.5, -0.0, 1e308, -sys.float_info.max, sys.float_info.max,
              int(sys.float_info.max), int(sys.float_info.max) + 1, -(10**400),
              float("nan"), float("inf"), float("-inf"), True, False, "5", None, [1]]
BBOX_SHAPES = [None, 5, "0 0 1 1", {"x": 0}, [], [1, 2, 3], [1, 2, 3, 4, 5]]


def bbox_grid():
    for slot, v in itertools.product(range(4), BBOX_EDGES):
        box = [1.0, 2, 3.0, 4]
        box[slot] = v
        yield box


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


# ---------------------------------------------------------------------------
# The object-path loader, tiler and exporter the columnar code replaced. They
# build one BBox and one Instance per box and are kept as test oracles.


def oracle_check_dataset(images, instances, categories):
    """The original Dataset.__post_init__ walk over Instance objects."""
    for ids, kind in (
        ([im.id for im in images], "image"),
        ([c.id for c in categories], "category"),
        ([inst.id for inst in instances], "instance"),
    ):
        seen = set()
        for i in ids:
            if i in seen:
                raise ValidationError(f"duplicate {kind} id: {i}")
            seen.add(i)
    image_ids = {im.id for im in images}
    category_ids = {c.id for c in categories}
    for inst in instances:
        if inst.image_id not in image_ids:
            raise DanglingReference(inst.id, "image", inst.image_id)
        if inst.category_id not in category_ids:
            raise DanglingReference(inst.id, "category", inst.category_id)


def oracle_require(record, key, where):
    if not isinstance(record, dict):
        raise ValidationError(f"{where} must be an object, got {type(record).__name__}")
    if key not in record:
        raise MissingKey(f"{where}.{key}")
    return record[key]


def oracle_require_typed(record, key, where, kind):
    """A required value of exactly JSON type ``kind``: a bool is no id, 5 no name."""
    value = oracle_require(record, key, where)
    if type(value) is not kind:
        name = {int: "an integer", str: "a string"}[kind]
        raise ValidationError(f"{where}.{key} must be {name}, got {type(value).__name__}")
    return value


def oracle_load_dataset(path) -> Dataset:
    """The original loader: one BBox, one clamp and one Instance per entry."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)

    if not isinstance(raw, dict):
        raise ValidationError(f"annotation file must hold a JSON object, got {type(raw).__name__}")
    for key in ("images", "annotations", "categories"):
        if key not in raw:
            raise MissingKey(key)
        if not isinstance(raw[key], list):
            raise ValidationError(f"{key} must be an array, got {type(raw[key]).__name__}")

    images = []
    for i, rec in enumerate(raw["images"]):
        where = f"images[{i}]"
        images.append(
            ImageRecord(
                id=oracle_require_typed(rec, "id", where, int),
                width=oracle_require_typed(rec, "width", where, int),
                height=oracle_require_typed(rec, "height", where, int),
                file_name=oracle_require_typed(rec, "file_name", where, str),
            )
        )

    categories = []
    for i, rec in enumerate(raw["categories"]):
        where = f"categories[{i}]"
        categories.append(
            Category(
                id=oracle_require_typed(rec, "id", where, int),
                name=oracle_require_typed(rec, "name", where, str),
            )
        )
    image_by_id = {im.id: im for im in images}

    instances = []
    n_clipped = 0
    for i, rec in enumerate(raw["annotations"]):
        where = f"annotations[{i}]"
        ann_id = oracle_require_typed(rec, "id", where, int)
        image_id = oracle_require_typed(rec, "image_id", where, int)
        category_id = oracle_require_typed(rec, "category_id", where, int)
        x, y, w, h = oracle_parse_xywh(oracle_require(rec, "bbox", where), f"{where}.bbox")
        if w < 0 or h < 0:
            raise NegativeExtent(ann_id, w, h)
        box = geometry.from_xywh(x, y, w, h)
        image = image_by_id.get(image_id)
        if image is None:
            raise DanglingReference(ann_id, "image", image_id)
        bounds = BBox(0.0, 0.0, float(image.width), float(image.height))
        clamped = geometry.clamp(box, bounds)
        if clamped != box:
            n_clipped += 1
            box = clamped
        area = rec.get("area", box.area)
        if not (type(area) in (int, float) and 0 <= area <= sys.float_info.max):
            raise ValidationError(f"{where}.area must be a finite non-negative number")
        crowd = rec.get("iscrowd", 0)
        if type(crowd) is not int or crowd not in (0, 1):
            raise ValidationError(f"{where}.iscrowd must be 0 or 1, got {crowd!r}")
        instances.append(
            Instance(
                id=ann_id,
                image_id=image_id,
                category_id=category_id,
                bbox=box,
                area=float(area),
                ignore=crowd == 1,
            )
        )

    oracle_check_dataset(images, instances, categories)
    return Dataset(
        images=tuple(images),
        instances=tuple(instances),
        categories=tuple(categories),
        provenance=str(path),
        clipped_instance_count=n_clipped,
    )


def oracle_tile(ds, tile_size=800, overlap=200, min_visibility=0.25) -> Dataset:
    """The original tiler: one scalar geometry.clip per (tile, instance) pair."""
    if not (0 <= overlap < tile_size):
        raise InvalidOverlap(f"need 0 <= overlap < tile_size, got {overlap}/{tile_size}")
    if not (0 < min_visibility <= 1):
        raise ValidationError(f"min_visibility must be in (0, 1], got {min_visibility}")
    stride = tile_size - overlap

    new_images = []
    new_instances = []
    next_image_id = 1
    next_instance_id = 1

    for image in sorted(ds.images, key=lambda im: im.id):
        insts = sorted(ds.instances_by_image[image.id], key=lambda inst: inst.id)
        stem, dot, suffix = image.file_name.rpartition(".")
        if not dot:
            stem, suffix = image.file_name, ""
        for oy in _tile_origins(image.height, tile_size, stride):
            for ox in _tile_origins(image.width, tile_size, stride):
                tw = min(tile_size, image.width - ox)
                th = min(tile_size, image.height - oy)
                tile_rect = BBox(float(ox), float(oy), float(ox + tw), float(oy + th))
                tile_image = ImageRecord(
                    id=next_image_id,
                    width=tw,
                    height=th,
                    file_name=f"{stem}__x{ox}_y{oy}" + (f".{suffix}" if dot else ""),
                )
                next_image_id += 1
                new_images.append(tile_image)
                for inst in insts:
                    if inst.bbox.area <= 0:
                        continue
                    clipped = geometry.clip(inst.bbox, tile_rect)
                    if clipped is None:
                        continue
                    visibility = clipped.area / inst.bbox.area
                    if visibility < min_visibility:
                        continue
                    new_instances.append(
                        Instance(
                            id=next_instance_id,
                            image_id=tile_image.id,
                            category_id=inst.category_id,
                            bbox=clipped.shifted(-ox, -oy),
                            area=inst.area * visibility,
                            ignore=inst.ignore,
                        )
                    )
                    next_instance_id += 1

    return Dataset(
        images=tuple(new_images),
        instances=tuple(new_instances),
        categories=ds.categories,
        provenance=f"{ds.provenance}#tiled(size={tile_size},overlap={overlap})",
    )


def oracle_export_bytes(ds) -> bytes:
    """The original export: one dict per Instance object, dumped with indent=2."""
    blob = {
        "images": [
            {"id": im.id, "width": im.width, "height": im.height, "file_name": im.file_name}
            for im in ds.images
        ],
        "annotations": [
            {
                "id": inst.id,
                "image_id": inst.image_id,
                "category_id": inst.category_id,
                "bbox": list(geometry.to_xywh(inst.bbox)),
                "area": inst.area,
                "iscrowd": 1 if inst.ignore else 0,
            }
            for inst in ds.instances
        ],
        "categories": [{"id": c.id, "name": c.name} for c in ds.categories],
    }
    return (json.dumps(blob, indent=2) + "\n").encode("utf-8")


def oracle_stats(ds) -> dict:
    """The original per-instance statistics loop."""
    counts = {c.id: 0 for c in ds.categories}
    buckets = {c.id: {"small": 0, "medium": 0, "large": 0} for c in ds.categories}
    for inst in ds.instances:
        counts[inst.category_id] += 1
        if inst.area < SMALL_AREA_MAX:
            bucket = "small"
        elif inst.area < MEDIUM_AREA_MAX:
            bucket = "medium"
        else:
            bucket = "large"
        buckets[inst.category_id][bucket] += 1
    histogram = {}
    for insts in ds.instances_by_image.values():
        histogram[len(insts)] = histogram.get(len(insts), 0) + 1
    return {"counts": counts, "buckets": buckets, "histogram": histogram}


def bits(values) -> list:
    """Floats as their bit patterns, so -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def export_bytes(ds, tmp_path) -> bytes:
    path = tmp_path / "export.json"
    export_dataset(ds, path)
    return path.read_bytes()


def assert_same_dataset(got: Dataset, want: Dataset, tmp_path):
    """Columns bit for bit, instances field by field, and the exported bytes."""
    assert got.images == want.images
    assert got.categories == want.categories
    assert got.provenance == want.provenance
    assert got.clipped_instance_count == want.clipped_instance_count
    g, w = got.columns, want.columns
    for name in ("id", "image_id", "category_id", "ignore"):
        assert getattr(g, name).dtype == getattr(w, name).dtype
        assert getattr(g, name).tolist() == getattr(w, name).tolist(), name
    assert bits(g.boxes) == bits(w.boxes)
    assert bits(g.area) == bits(w.area)
    assert got.instances == want.instances
    # repr tells -0.0 from 0.0, and an int field from a float one
    assert [repr(i) for i in got.instances] == [repr(i) for i in want.instances]
    assert export_bytes(got, tmp_path) == oracle_export_bytes(want)
    stats, oracle = compute_stats(got), oracle_stats(want)
    assert stats.per_category_counts == oracle["counts"]
    assert stats.per_category_size_buckets == oracle["buckets"]
    assert stats.per_image_histogram == oracle["histogram"]
    assert stats.total_instances == len(want.instances)


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
        """Instance objects given to the constructor tile as the loaded ones do."""
        ds = oracle_load_dataset(write_json(tmp_path / "ann.json", random_payload(3)))
        rebuilt = Dataset(ds.images, ds.instances, ds.categories, ds.provenance,
                          ds.clipped_instance_count)
        assert rebuilt.instances is ds.instances  # the caller's objects, not rebuilt ones
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
        ds = Dataset(
            (ImageRecord(1, 1000, 1000, "a.png"),),
            tuple(Instance(i + 1, 1, 1, BBox(*b), (b[2] - b[0]) * (b[3] - b[1]))
                  for i, b in enumerate(boxes)),
            (Category(1, "c"),),
        )
        got = tile(ds, 400, 100, 0.25)
        assert_same_dataset(got, oracle_tile(ds, 400, 100, 0.25), tmp_path)
        assert len(got.columns) > len(boxes)

    def test_box_area_past_float_range_tiles_without_warnings(self, tmp_path):
        ds = Dataset(
            (ImageRecord(1, 1000, 800, "a.png"),),
            (Instance(1, 1, 1, BBox(0.0, 0.0, 1e200, 1e200), 1.0),
             Instance(2, 1, 1, BBox(10.0, 10.0, 30.0, 30.0), 400.0)),
            (Category(1, "c"),),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tile(ds, 800, 200, 0.25)
        assert_same_dataset(got, oracle_tile(ds, 800, 200, 0.25), tmp_path)

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
    return Dataset.from_columns(
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
        empty = Dataset((), (), ())
        assert self.assert_exports_as_json_does(empty, tmp_path) == (
            b'{\n  "images": [],\n  "annotations": [],\n  "categories": []\n}\n'
        )
        image, cat = ImageRecord(1, 10, 10, "a.png"), Category(1, "c")
        for images, cats in (((image,), ()), ((), (cat,)), ((image,), (cat,))):
            self.assert_exports_as_json_does(Dataset(images, (), cats), tmp_path)

    def test_escaped_names(self, tmp_path):
        names = ["caf\u00e9.png", 'quo"te', "back\\slash", "ctrl\x00\x1f\n\t\r\x7f",
                 "line\u2028sep", "\U0001f6e9 plane", "", "\ud800 lone surrogate"]
        ds = Dataset(
            [ImageRecord(i + 1, 32, 32, name) for i, name in enumerate(names)],
            [Instance(1, 1, i + 1, BBox(0.0, 0.0, 4.0, 4.0), 16.0) for i in range(1)],
            [Category(i + 1, name) for i, name in enumerate(names)],
        )
        data = self.assert_exports_as_json_does(ds, tmp_path)
        assert data.isascii()
        assert json.loads(data) == dataset_to_coco(ds)

    def test_infinite_area_and_signed_zeros(self, tmp_path):
        ds = Dataset(
            (ImageRecord(1, 100, 100, "a.png"),),
            (Instance(1, 1, 1, BBox(-0.0, -0.0, 0.0, -0.0), math.inf),
             Instance(2, 1, 1, BBox(-0.0, 5.0, 10.0, 7.5), -0.0),
             Instance(3, 1, 1, BBox(1e-310, 2.0, 1e300, 3.0), 1e308, True),
             Instance(4, 1, 1, BBox(0.1, 0.2, 0.30000000000000004, 1.0), 0.0)),
            (Category(1, "c"),),
        )
        data = self.assert_exports_as_json_does(ds, tmp_path)
        assert b'"area": Infinity,' in data and b"-0.0" in data
        assert json.loads(data) == dataset_to_coco(ds)
        # json's other non-finite spellings, in a block of their own
        odd = Dataset(ds.images, (Instance(1, 1, 1, BBox(0.0, 0.0, 1.0, 1.0), math.nan),
                                  Instance(2, 1, 1, BBox(0.0, 0.0, 1.0, 1.0), -math.inf)),
                      ds.categories)
        data = self.assert_exports_as_json_does(odd, tmp_path)
        assert b'"area": NaN,' in data and b'"area": -Infinity,' in data

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
        assert tiny_dataset.instances_by_image[2] == tuple(
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
            Dataset((image,), [Instance(2, 1, 1, box, 1.0), Instance(3, 1, 1, box, 1.0),
                               Instance(2, 1, 1, box, 1.0)], (cat,))
        with pytest.raises(DanglingReference, match="annotation 4 references unknown category"):
            Dataset((image,), [Instance(3, 1, 1, box, 1.0), Instance(4, 1, 9, box, 1.0),
                               Instance(5, 7, 1, box, 1.0)], (cat,))
        with pytest.raises(DanglingReference, match="annotation 5 references unknown image"):
            Dataset((image,), [Instance(5, 7, 9, box, 1.0)], (cat,))

    def test_instance_columns_from_instances(self, tiny_dataset):
        assert InstanceColumns.of(tiny_dataset.instances) == tiny_dataset.columns
