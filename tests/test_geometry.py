import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from detforge import (
    BBox,
    ValidationError,
    clip,
    clip_boxes,
    iou,
    iou_matrix,
    wh_iou_matrix,
)
from detforge.geometry import WhIouBlock, ioa
from oracles import clamp, from_xywh, same_bits, scaled, shifted, to_xywh


def wh_iou(a, b):
    """IoU of two (w, h) extents anchored at a common corner: the scalar oracle."""
    inter = min(a[0], b[0]) * min(a[1], b[1])
    return inter / (a[0] * a[1] + b[0] * b[1] - inter)


def raster_iou(a, b, extent=64):
    """Pixel-count IoU for integer-coordinate boxes: the slow oracle."""
    grid_a = np.zeros((extent, extent), dtype=bool)
    grid_b = np.zeros((extent, extent), dtype=bool)
    grid_a[int(a.y_min) : int(a.y_max), int(a.x_min) : int(a.x_max)] = True
    grid_b[int(b.y_min) : int(b.y_max), int(b.x_min) : int(b.x_max)] = True
    union = np.logical_or(grid_a, grid_b).sum()
    if union == 0:
        return 0.0
    return float(np.logical_and(grid_a, grid_b).sum() / union)


def random_int_box(rng, extent=64):
    x = np.sort(rng.integers(0, extent + 1, 2))
    y = np.sort(rng.integers(0, extent + 1, 2))
    return BBox(float(x[0]), float(y[0]), float(x[1]), float(y[1]))


class TestBBox:
    def test_fields_and_derived(self):
        b = BBox(1.0, 2.0, 4.0, 6.0)
        assert b.width == 3.0
        assert b.height == 4.0
        assert b.area == 12.0
        assert b.as_tuple() == (1.0, 2.0, 4.0, 6.0)

    def test_inverted_corners_rejected(self):
        with pytest.raises(ValidationError):
            BBox(5.0, 0.0, 4.0, 1.0)
        with pytest.raises(ValidationError):
            BBox(0.0, 5.0, 1.0, 4.0)

    def test_zero_area_allowed(self):
        b = BBox(3.0, 3.0, 3.0, 7.0)
        assert b.area == 0.0

    def test_shifted_scaled(self):
        b = BBox(1.0, 1.0, 3.0, 5.0)
        assert shifted(b, 2.0, -1.0) == BBox(3.0, 0.0, 5.0, 4.0)
        assert scaled(b, 2.0, 0.5) == BBox(2.0, 0.5, 6.0, 2.5)
        with pytest.raises(ValidationError):
            scaled(b, -1.0, 1.0)

    def test_xywh_conversions(self):
        b = from_xywh(10.0, 20.0, 5.0, 8.0)
        assert b == BBox(10.0, 20.0, 15.0, 28.0)
        assert to_xywh(b) == (10.0, 20.0, 5.0, 8.0)
        with pytest.raises(ValidationError):
            from_xywh(10.0, 10.0, -5.0, 4.0)


class TestIoU:
    def test_identical(self):
        b = BBox(0.0, 0.0, 10.0, 10.0)
        assert iou(b, b) == 1.0

    def test_disjoint_and_touching(self):
        a = BBox(0.0, 0.0, 10.0, 10.0)
        assert iou(a, BBox(20.0, 20.0, 30.0, 30.0)) == 0.0
        # shared edge only: zero-width intersection
        assert iou(a, BBox(10.0, 0.0, 20.0, 10.0)) == 0.0

    def test_contained(self):
        outer = BBox(0.0, 0.0, 10.0, 10.0)
        inner = BBox(2.0, 2.0, 7.0, 7.0)
        assert iou(outer, inner) == 25.0 / 100.0

    def test_degenerate_is_zero(self):
        line = BBox(5.0, 0.0, 5.0, 10.0)
        assert iou(line, line) == 0.0
        assert iou(line, BBox(0.0, 0.0, 10.0, 10.0)) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = random_int_box(rng), random_int_box(rng)
            assert iou(a, b) == iou(b, a)

    def test_matches_rasterization(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            a, b = random_int_box(rng), random_int_box(rng)
            assert abs(iou(a, b) - raster_iou(a, b)) <= 1e-12


def test_wh_iou_known_values():
    assert wh_iou((10.0, 10.0), (10.0, 10.0)) == 1.0
    # 10x10 vs 20x20 concentric: 100 / 400
    assert wh_iou((10.0, 10.0), (20.0, 20.0)) == 0.25
    # partial overlap on one axis only
    assert wh_iou((10.0, 20.0), (20.0, 10.0)) == 100.0 / 300.0
    block = WhIouBlock([[10.0, 10.0], [20.0, 20.0], [20.0, 10.0]])
    assert block([10.0, 10.0]).tolist() == [[1.0, 0.25, 0.5]]
    assert block([10.0, 20.0])[0, 2] == 100.0 / 300.0


def test_iou_matrix_agrees_with_scalar():
    rng = np.random.default_rng(4)
    boxes1 = [random_int_box(rng) for _ in range(17)]
    boxes2 = [random_int_box(rng) for _ in range(9)]
    m = iou_matrix(
        np.array([b.as_tuple() for b in boxes1]),
        np.array([b.as_tuple() for b in boxes2]),
    )
    assert m.shape == (17, 9)
    for i, a in enumerate(boxes1):
        for j, b in enumerate(boxes2):
            assert_allclose(m[i, j], iou(a, b), rtol=0, atol=1e-15)


def oracle_iou_matrix(boxes1, boxes2):
    """The out-of-place (N, M) iou_matrix that the stacking, in-place one replaced."""
    boxes1 = np.asarray(boxes1, dtype=np.float64).reshape(-1, 4)
    boxes2 = np.asarray(boxes2, dtype=np.float64).reshape(-1, 4)
    area1 = (boxes1[:, 2] - boxes1[:, 0]) * (boxes1[:, 3] - boxes1[:, 1])
    area2 = (boxes2[:, 2] - boxes2[:, 0]) * (boxes2[:, 3] - boxes2[:, 1])
    ix = np.minimum(boxes1[:, None, 2], boxes2[:, 2]) - np.maximum(
        boxes1[:, None, 0], boxes2[:, 0]
    )
    iy = np.minimum(boxes1[:, None, 3], boxes2[:, 3]) - np.maximum(
        boxes1[:, None, 1], boxes2[:, 1]
    )
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    union = area1[:, None] + area2 - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0, inter / np.where(union > 0, union, 1.0), 0.0)


def edge_case_boxes(rng, shape):
    """Corner boxes on a coarse grid: twins, degenerate boxes and -0.0 coordinates."""
    values = np.array([-0.0, 0.0, 1.0, 2.0, 4.0, 8.0])
    corners = values[rng.integers(len(values), size=shape + (2, 2))]
    corners.sort(axis=-1)  # -0.0 and 0.0 compare equal, so both orders survive
    return corners.transpose(*range(len(shape)), -1, -2).reshape(shape + (4,))


class TestStackedIouMatrix:
    @pytest.mark.parametrize("n, m", [(5, 7), (0, 3), (4, 0), (0, 0), (1, 1)])
    def test_stack_equals_its_slices(self, n, m):
        rng = np.random.default_rng(20 + n + m)
        boxes1, boxes2 = edge_case_boxes(rng, (6, n)), edge_case_boxes(rng, (6, m))
        stacked = iou_matrix(boxes1, boxes2)
        assert stacked.shape == (6, n, m)
        for c in range(6):
            per_slice = iou_matrix(boxes1[c], boxes2[c])
            assert np.array_equal(stacked[c], per_slice)
            assert same_bits(stacked[c], per_slice)
        # a flat box run broadcasts against every slice of a stack
        assert same_bits(iou_matrix(boxes1[0], boxes2),
                         np.stack([iou_matrix(boxes1[0], b) for b in boxes2]))

    def test_zero_union_pairs_give_zero(self):
        point = np.array([[[3.0, 3.0, 3.0, 3.0], [-0.0, 0.0, -0.0, 5.0]]])
        assert same_bits(iou_matrix(point, point), np.zeros((1, 2, 2)))

    def test_matches_the_out_of_place_oracle_bit_for_bit(self):
        rng = np.random.default_rng(21)
        specials = np.array([-0.0, 0.0, 1.0, -1.0, 1e308, -1e308, np.inf, -np.inf, 3.5])
        for _ in range(50):
            n, m = rng.integers(0, 6, 2)
            # unsorted corners too: inverted boxes have negative areas
            boxes1 = specials[rng.integers(len(specials), size=(n, 4))]
            boxes2 = rng.uniform(-4, 4, (m, 4)).round(1)
            if rng.random() < 0.5:
                boxes2[rng.random(boxes2.shape) < 0.3] = -0.0
            else:  # infinite on both sides: inf - inf unions are NaN
                boxes2 = specials[rng.integers(len(specials), size=(m, 4))]
            with np.errstate(invalid="ignore", over="ignore"):
                got, want = iou_matrix(boxes1, boxes2), oracle_iou_matrix(boxes1, boxes2)
            assert same_bits(got, want)

    def test_flat_input_keeps_its_reshape(self):
        flat = np.array([0.0, 0.0, 2.0, 2.0, 1.0, 1.0, 3.0, 3.0])
        assert same_bits(iou_matrix(flat, flat.reshape(2, 4)),
                         oracle_iou_matrix(flat, flat))
        assert iou_matrix(flat, flat).shape == (2, 2)


class TestIoa:
    def test_known_values(self):
        region = (0.0, 0.0, 20.0, 20.0)
        dets = [(5, 5, 15, 15), (10, 0, 30, 20), (30, 30, 40, 40), (0, 0, 40, 40)]
        # inside, half inside, outside, a quarter inside; IoU would read
        # 0.25, 1/3, 0 and 0.25
        assert ioa(dets, [region]).ravel().tolist() == [1.0, 0.5, 0.0, 0.25]

    def test_a_zero_area_detection_scores_zero_without_a_warning(self):
        region = [(0.0, 0.0, 20.0, 20.0)]
        dets = [(5, 5, 5, 15), (5, 5, 15, 5), (0, 0, 0, 0), (20, 20, 20, 20)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert ioa(dets, region).ravel().tolist() == [0.0] * 4

    def test_stack_equals_its_slices(self):
        rng = np.random.default_rng(8)
        xy = rng.uniform(0, 50, (3, 4, 2))
        dets = np.concatenate([xy, xy + rng.uniform(0, 30, (3, 4, 2))], axis=-1)
        xy = rng.uniform(0, 50, (3, 5, 2))
        regions = np.concatenate([xy, xy + rng.uniform(0, 30, (3, 5, 2))], axis=-1)
        stacked = ioa(dets, regions)
        assert stacked.shape == (3, 4, 5)
        for i in range(3):
            assert same_bits(stacked[i], ioa(dets[i], regions[i]))


def test_wh_iou_matrix_agrees_with_scalar():
    rng = np.random.default_rng(5)
    wh1 = rng.uniform(1.0, 50.0, (13, 2))
    wh2 = rng.uniform(1.0, 50.0, (7, 2))
    m = wh_iou_matrix(wh1, wh2)
    for i in range(13):
        for j in range(7):
            expected = wh_iou(wh1[i].tolist(), wh2[j].tolist())
            assert_allclose(m[i, j], expected, rtol=0, atol=1e-15)


def test_wh_iou_block_equals_the_scalar_oracle_bit_for_bit():
    rng = np.random.default_rng(6)
    boxes = np.round(rng.lognormal(2.5, 1.0, (40, 2)), int(rng.integers(0, 3)))
    boxes = np.maximum(boxes, 0.5)
    block = WhIouBlock(boxes)
    for k in (1, 5, 3):
        cents = rng.lognormal(2.5, 1.0, (k, 2))
        want = [[wh_iou(c, b) for b in boxes.tolist()] for c in cents.tolist()]
        assert block(cents).tolist() == want



def plain_wh_iou_matrix(wh1, wh2):
    """wh_iou_matrix as one formula, with no guard for an overflowing union."""
    wh1 = np.asarray(wh1, dtype=np.float64).reshape(-1, 2)
    wh2 = np.asarray(wh2, dtype=np.float64).reshape(-1, 2)
    w1, h1 = wh1[:, 0], wh1[:, 1]
    w2, h2 = wh2[:, 0], wh2[:, 1]
    inter = np.minimum(w1[:, None], w2) * np.minimum(h1[:, None], h2)
    return inter / ((w1 * h1)[:, None] + w2 * h2 - inter)


class TestWhIouMatrixOverflow:
    def test_finite_unions_keep_the_plain_formula_bits(self):
        rng = np.random.default_rng(8)
        for scale in (1.0, 1e-150, 1e100, 1e150):
            wh1 = scale * rng.uniform(1e-3, 1.0, (9, 2))
            wh2 = scale * rng.uniform(1e-3, 1.0, (5, 2))
            assert same_bits(wh_iou_matrix(wh1, wh2), plain_wh_iou_matrix(wh1, wh2))
        # a block where only some unions overflow keeps every other entry
        wh1 = np.array([[1.7e308, 1.0], [3.0, 4.0], [1e154, 1e154]])
        wh2 = np.array([[1.7e308, 1.0], [5.0, 2.0], [1.0, 1e300]])
        with np.errstate(over="ignore"):
            overflow = ~np.isfinite((wh1[:, 0] * wh1[:, 1])[:, None] + wh2[:, 0] * wh2[:, 1])
            plain = plain_wh_iou_matrix(wh1, wh2)
        assert overflow.any() and not overflow.all()
        assert same_bits(wh_iou_matrix(wh1, wh2)[~overflow], plain[~overflow])

    @pytest.mark.parametrize("wh", [(1.7e308, 1.0), (1.0, 1.7e308), (1e154, 1.7e154)])
    def test_identical_huge_boxes_score_one(self, wh):
        m = wh_iou_matrix([wh, (3.0, 4.0)], [wh, wh])
        assert m[0].tolist() == [1.0, 1.0]
        assert np.all(np.isfinite(m)) and np.all((0.0 <= m) & (m <= 1.0))

    def test_huge_boxes_score_their_halved_ratio(self):
        # area1 + area2 overflows; with halves it is the exact 1/1.5 ratio
        m = wh_iou_matrix([[1.5e308, 1.0]], [[1e308, 1.0]])
        assert m[0, 0] == 0.5e308 / (0.75e308 + 0.5e308 - 0.5e308)


class TestClipClamp:
    bounds = BBox(0.0, 0.0, 100.0, 100.0)

    def test_clip_inside_unchanged(self):
        b = BBox(10.0, 10.0, 20.0, 20.0)
        assert clip(b, self.bounds) == b

    def test_clip_partial(self):
        b = BBox(90.0, 90.0, 120.0, 120.0)
        assert clip(b, self.bounds) == BBox(90.0, 90.0, 100.0, 100.0)

    def test_clip_outside_is_none(self):
        assert clip(BBox(200.0, 200.0, 300.0, 300.0), self.bounds) is None
        # touching the border without overlap is also empty
        assert clip(BBox(100.0, 0.0, 120.0, 10.0), self.bounds) is None

    def test_clamp_always_returns(self):
        b = BBox(200.0, 50.0, 300.0, 60.0)
        c = clamp(b, self.bounds)
        assert c == BBox(100.0, 50.0, 100.0, 60.0)
        assert clamp(BBox(10.0, 10.0, 20.0, 20.0), self.bounds) == BBox(
            10.0, 10.0, 20.0, 20.0
        )


class TestClipBoxes:
    def test_matches_scalar_clip_bit_for_bit(self):
        """Every window against every box, signed zeros and shared edges included."""
        rng = np.random.default_rng(11)
        grid = [-0.0, 0.0, 2.5, 5.0, 7.0, 10.0, 12.0]
        boxes = []
        for _ in range(300):
            x0, x1 = sorted(rng.choice(grid, 2).tolist())
            y0, y1 = sorted(rng.choice(grid, 2).tolist())
            boxes.append((x0, y0, x1, y1))
        boxes += [tuple(v) for v in np.sort(rng.uniform(-3, 15, (50, 2, 2)), axis=1)
                  .transpose(0, 2, 1).reshape(-1, 4)[:, [0, 2, 1, 3]].tolist()]
        windows = [(0.0, 0.0, 10.0, 10.0), (-0.0, -0.0, 5.0, 7.0), (2.5, 0.0, 12.0, 5.0)]
        clipped, keep = clip_boxes(boxes, np.array(windows)[:, None])
        assert clipped.shape == (3, len(boxes), 4) and keep.shape == (3, len(boxes))
        for t, window in enumerate(windows):
            for n, box in enumerate(boxes):
                want = clip(BBox(*box), BBox(*window))
                assert keep[t, n] == (want is not None), (window, box)
                if want is not None:
                    got = clipped[t, n].view(np.int64).tolist()
                    assert got == np.array(want.as_tuple()).view(np.int64).tolist(), (window, box)
