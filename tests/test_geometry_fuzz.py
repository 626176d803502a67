"""The IoU forms agree where box areas are zero, subnormal or near the float maximum.

``iou_matrix``, ``WhIouBlock`` (through ``wh_iou_matrix``) and the scalar
``iou`` share one ratio rule: a union that is not positive gives 0, and
two finite areas that sum past the float range are summed with every
term halved. A box at the origin has the same IoU as its extents, so the
corner and extent forms must agree bit for bit on any extents whose area
is finite, and with no warning. ``ioa``, intersection over the first
box's area, must give the scalar oracle's bits, also where that area is
zero or underflows.
"""

import math
import sys
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from detforge.geometry import BBox, ioa, iou, iou_matrix, wh_iou_matrix  # noqa: E402
from oracles import oracle_ioa  # noqa: E402

FLOAT_MAX = sys.float_info.max
EXTENT = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1.3e154, 1e308, FLOAT_MAX]),
    st.floats(0.0, FLOAT_MAX).map(abs),  # abs: no -0.0
)
WH = st.tuples(EXTENT, EXTENT).filter(lambda wh: math.isfinite(wh[0] * wh[1]))


@settings(max_examples=300, deadline=2000, derandomize=True, database=None)
@given(st.lists(WH, min_size=1, max_size=5), st.lists(WH, min_size=1, max_size=5))
def test_boxes_at_the_origin_score_as_their_extents(wh1, wh2):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        corners = iou_matrix([(0.0, 0.0, w, h) for w, h in wh1],
                             [(0.0, 0.0, w, h) for w, h in wh2])
        extents = wh_iou_matrix(wh1, wh2)
    assert corners.tobytes() == extents.tobytes()
    assert np.all((0.0 <= extents) & (extents <= 1.0))


@pytest.mark.parametrize("box", [
    (0.0, 0.0, 1.3e154, 1.3e154),
    (5.0, -7.0, 5.0 + 1e308, -5.5),
    (-FLOAT_MAX / 2, 0.0, FLOAT_MAX / 2, 1.0),
])
def test_scalar_and_matrix_agree_past_the_float_range(box):
    """Both areas are finite, their sum is not; identical boxes still score 1.0."""
    b = BBox(*box)
    assert math.isinf(b.area + b.area) and math.isfinite(b.area)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert iou(b, b) == iou_matrix([box], [box])[0, 0] == 1.0


COORD = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e-200]), st.floats(-1e6, 1e6))
SIDE = st.one_of(st.sampled_from([0.0, 5e-324, 1e-200, 1.0, 1e5]), st.floats(0.0, 1e6))
BOX = st.builds(lambda x, y, w, h: (x, y, x + w, y + h), COORD, COORD, SIDE, SIDE)


@settings(max_examples=300, deadline=2000, derandomize=True, database=None)
@given(st.lists(BOX, min_size=1, max_size=5), st.lists(BOX, min_size=1, max_size=5))
def test_ioa_equals_the_scalar_oracle_bit_for_bit(dets, regions):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ioa(dets, regions)
    want = np.array([[oracle_ioa(BBox(*d), BBox(*r)) for r in regions] for d in dets])
    assert got.tobytes() == want.tobytes()
    assert np.all((0.0 <= got) & (got <= 1.0))
