"""Properties of the IoU k-means kernel on extreme but accepted extents.

``cluster_anchor_sizes`` accepts a (w, h) row only when w, h and w * h
are positive finite floats. On such rows no (centroid, box) IoU is NaN,
so the first-max assignment equals ``argmax``. A mean centroid's area
may still overflow to inf; its IoU with every box is then 0.
"""

import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from detforge import anchors as anchors_module  # noqa: E402
from detforge.anchors import cluster_anchor_sizes  # noqa: E402
from detforge.errors import BadExtent  # noqa: E402
from detforge.geometry import wh_iou_matrix  # noqa: E402

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
def test_iou_against_mean_centroids_holds_no_nan(wh, data):
    n = len(wh)
    k = data.draw(st.integers(1, min(n, 9)))
    assignment = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    counts = np.bincount(assignment, minlength=k)
    occupied = counts > 0
    centroids = wh[:k].copy()
    for j in (0, 1):  # the update step of ``_lloyd``
        sums = np.bincount(assignment, weights=wh[:, j], minlength=k)
        centroids[occupied, j] = sums[occupied] / counts[occupied]
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
    init = data.draw(st.sampled_from(["kmeans++", "random"]))
    result = cluster_anchor_sizes(wh, k, restarts=2, init=init)
    assert 0.0 <= result.mean_iou <= 1.0
    json.dumps(result.to_dict(), allow_nan=False)
