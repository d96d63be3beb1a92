"""Instance-level multi-person eyeblink detection for untrimmed video.

The package covers the full algorithmic core at desk scale: the data model
for annotations and predictions, overlap geometry (box IoU/GIoU, temporal
interval IoU, whole-video tube IoU), Hungarian set matching with the
training cost, training losses with analytic gradients, a deterministic
forward pass of the query-based detector, inference post-processing (blink
merging and clip linking), and the evaluation protocol (instance AP over
tube IoU plus blink-interval AP), all verifiable against brute-force
oracles on synthetic data.
"""

from .anno_model import (
    BlinkInterval,
    Boxes,
    FrameBox,
    Hypotheses,
    InstancePrediction,
    InstanceTrack,
    VideoAnnotation,
    VideoPrediction,
    blink_frame_labels,
    interval_frame_labels,
    validate_annotation,
)
from .geometry import TubePair, box_giou, box_iou, interval_tiou, tube_3d_iou
from .assignment import Assignment, CostMatrix, hungarian, match_instances, matching_cost, matching_costs
from .losses import (
    LossBreakdown,
    focal_loss,
    giou_loss,
    instance_losses,
    run_gradient_checks,
    unmatched_loss,
)
from .netcore import (
    ModelOutput,
    ModelParams,
    QueryState,
    VideoFeature,
    detector_forward,
    init_queries,
    load_params,
    mhsa,
    query_interaction,
    random_params,
    read_container,
    save_params,
    video_interaction,
    write_container,
)
from .postprocess import ClipPrediction, finalize, link_clips, merge_blinks
from .metrics import EvalReport, average_precision, blink_ap, evaluate, inst_ap

__version__ = "0.1.0"
