"""Toolkit for anchor-based aerial object detection pipelines.

Covers the offline stages around a detector: annotation ingestion and
imbalance statistics, image tiling, anchor sizing by IoU k-means, anchor
grid generation and match simulation, loss functions with verified
gradients, geometric augmentation, and COCO-protocol evaluation.
"""

from .annotations import (
    Category,
    Dataset,
    ImageRecord,
    Instance,
    InstanceColumns,
    StatsReport,
    compute_stats,
    export_dataset,
    load_dataset,
    tile,
)
from .anchors import (
    AnchorSet,
    AnchorSpec,
    ClusterResult,
    MatchReport,
    cluster_anchor_sizes,
    generate_anchors,
    match_anchors,
    sweep_k,
)
from .augment import (
    AugmentationPipeline,
    ImageGeom,
    hflip,
    replay,
    short_edge_resize,
)
from .errors import ValidationError
from .evaluation import (
    DetectionColumns,
    EvalResult,
    average_precision,
    coco_map,
    load_detections,
)
from .geometry import (
    BBox,
    clip,
    clip_boxes,
    iou,
    iou_matrix,
    wh_iou_matrix,
)
from .losses import (
    ClassWeights,
    LogitsBatch,
    LossOutput,
    class_weights,
    focal_loss,
    grad_check,
    smooth_l1,
)

__version__ = "0.1.0"
