"""Temporal-coherence vision-language objectives on embedding sequences."""

from .clip import ClipSequence, alignment_score, cosine_sim, normalize
from .gradients import (
    GradientSet,
    finite_diff_check,
    grad_bb,
    grad_tnce,
    grad_total,
    grad_vlo,
    objective_and_grad,
)
from .losses import (
    BridgeInterval,
    LossBreakdown,
    TieGroups,
    TnceConfig,
    actol_loss,
    bb_loss,
    lower_bound,
    tnce_loss,
    vlo_loss,
    vlo_loss_on_scores,
)
from .reward import (
    ComparisonRecord,
    ObjectiveSpec,
    RewardCurve,
    SeedResult,
    compare_objectives,
    curve_rows,
    reward_curve,
)
from .synthetic import (
    GroundTruth,
    SyntheticClipSpec,
    generate_clip,
    perturb_language,
    random_clip,
    sample_bridge,
    slerp,
)
from .theory import (
    TheoremReport,
    bridge_stats_report,
    check_continuity,
    check_lower_bound,
    check_robustness,
    check_tightness,
    construct_near_optimal,
    lipschitz_pairs_report,
    lower_bound_report,
)
from .trainer import (
    LinearEncoder,
    TrainConfig,
    TrainHistory,
    TrainingDiverged,
    measure_delta,
    train_encoder,
    train_free,
)

__all__ = [name for name in dir() if not name.startswith("_")]
