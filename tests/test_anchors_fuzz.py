"""Properties of the IoU k-means kernel and of the matcher's thresholds.

``cluster_anchor_sizes`` accepts a (w, h) row only when w, h and w * h
are positive finite floats. On such rows no (centroid, box) IoU is NaN,
so the first-max assignment equals ``argmax``. A median centroid's area
may still overflow to inf; its IoU with every box is then 0.

``match_anchors`` accepts thresholds only when both are non-bool real
numbers with ``0 < neg_iou <= pos_iou <= 1``, and then reports what the
dense anchors-by-GT oracle reports.
"""

import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from detforge import anchors as anchors_module  # noqa: E402
from detforge.anchors import (AnchorSpec, cluster_anchor_sizes, generate_anchors,  # noqa: E402
                              match_anchors)
from detforge.annotations import Instance  # noqa: E402
from detforge.errors import BadExtent, ValidationError  # noqa: E402
from detforge.geometry import BBox, WhIouBlock, wh_iou_matrix  # noqa: E402
from oracles import dense_match_anchors, gt_dataset  # noqa: E402

# 1e-300 .. 1e300: a product can underflow or overflow, a sum of 40 cannot
EXTENT = st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.999), st.integers(-300, 300))
ANY_FLOAT = st.one_of(EXTENT, st.sampled_from([0.0, -0.0, -1.0, 5e-324, math.inf, -math.inf,
                                               math.nan, 1.7e308]))


def _good(w, h):
    return w > 0 and h > 0 and 0 < w * h < math.inf


@st.composite
def accepted_boxes(draw, max_n=40):
    pairs = draw(st.lists(st.tuples(EXTENT, EXTENT).filter(lambda p: _good(*p)),
                          min_size=1, max_size=max_n))
    return np.array(pairs)


@settings(max_examples=200, deadline=2000, derandomize=True, database=None)
@given(pairs=st.lists(st.tuples(ANY_FLOAT, ANY_FLOAT), min_size=1, max_size=8))
def test_rejection_names_the_first_row_without_a_positive_finite_area(pairs):
    bad = [i for i, (w, h) in enumerate(pairs) if not _good(w, h)]
    if not bad:
        assert anchors_module._as_wh_array(pairs).tolist() == [list(p) for p in pairs]
        return
    with pytest.raises(BadExtent) as info:
        anchors_module._as_wh_array(pairs)
    assert info.value.row == bad[0]
    assert str(info.value).startswith(f"box {bad[0]}: ")


@settings(max_examples=200, deadline=2000, derandomize=True, database=None)
@given(wh=accepted_boxes(), data=st.data())
def test_iou_against_median_centroids_holds_no_nan(wh, data):
    n = len(wh)
    k = data.draw(st.integers(1, min(n, 9)))
    assignment = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    centroids = wh[:k].copy()
    # the update step of ``_lloyd``
    anchors_module._ClusterMedians(WhIouBlock(wh))(assignment, centroids)
    with np.errstate(over="ignore"):  # a centroid area of inf is the case under test
        iou = wh_iou_matrix(centroids, wh)
        flipped = wh_iou_matrix(wh, centroids)
    assert not np.isnan(iou).any()
    assert ((iou >= 0) & (iou <= 1)).all()
    np.testing.assert_array_equal(iou, flipped.T)
    np.testing.assert_array_equal(anchors_module._first_max(iou), np.argmax(flipped, axis=1))


@settings(max_examples=60, deadline=5000, derandomize=True, database=None)
@given(wh=accepted_boxes(max_n=25), data=st.data())
def test_clustering_accepted_boxes_gives_a_finite_report(wh, data):
    k = data.draw(st.integers(1, min(len(wh), 5)))
    result = cluster_anchor_sizes(wh, k, restarts=2)
    assert 0.0 <= result.mean_iou <= 1.0
    json.dumps(result.to_dict(), allow_nan=False)


# one level of one 16x16 anchor per 4-px cell over a 16x16 image
GRID = generate_anchors(AnchorSpec(sizes=(16,), aspect_ratios=(1.0,), angles=(0.0,),
                                   strides=(4,)), 16, 16)
# every float, the floats of [0, 1] again so that accepted pairs are common, and the edges
THRESHOLD = st.one_of(st.floats(), st.floats(0.0, 1.0), st.sampled_from(
    [0, 0.0, -0.0, 5e-324, 1, 1.0, math.nextafter(1.0, 2.0), math.nan, math.inf, True]))


@st.composite
def scenes(draw):
    """Up to four GTs over two images, some crowd, some zero-area, and one that
    reaches no anchor, then up to two images without GTs, as a Dataset."""
    gts = []
    for i in range(draw(st.integers(0, 4))):
        x0, y0 = draw(st.floats(-10, 26)), draw(st.floats(-10, 26))
        w, h = draw(st.floats(0, 24)), draw(st.floats(0, 24))
        box = BBox(x0, y0, x0 + w, y0 + h)
        gts.append(Instance(i + 1, draw(st.integers(1, 2)), 1, box, box.area,
                            draw(st.booleans())))
    far = BBox(500.0, 500.0, 510.0, 510.0)
    gts.append(Instance(len(gts) + 1, 1, 2, far, far.area, False))
    return gt_dataset(gts, draw(st.integers(0, 2)))


@settings(max_examples=150, deadline=5000, derandomize=True, database=None)
@given(pos=THRESHOLD, neg=THRESHOLD, force=st.booleans(), ds=scenes())
def test_thresholds_are_accepted_exactly_in_the_unit_interval(pos, neg, force, ds):
    real = all(type(v) in (int, float) for v in (pos, neg))
    if not (real and 0 < neg <= pos <= 1):
        with pytest.raises(ValidationError):
            match_anchors(GRID, ds, pos, neg, force_match=force)
        return
    got = match_anchors(GRID, ds, pos, neg, force_match=force)
    want = dense_match_anchors(GRID, ds, float(pos), float(neg), force_match=force)
    assert got.to_dict() == want.to_dict()
    assert len(ds.columns) in got.unmatched_gt_ids  # the far GT is never recalled
