"""Language-conditioned reward curves and objective comparison on
synthetic clips with distractor tails. A comparison trains all of its
objectives and seeds as one stack, one objective evaluation per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import kinds
from .clip import ClipSequence
from .losses import TnceConfig
from .synthetic import SyntheticClipSpec, generate_clip
from .trainer import TrainConfig, train_objectives


@dataclass(frozen=True)
class RewardCurve:
    """Per-frame cosine rewards, min-max normalized per clip.

    argmax_index is 1-based (frame positions, matching completion_index
    conventions) with earliest-index tie-break. Constant curves normalize
    to all zeros.
    """

    raw: tuple
    normalized: tuple
    argmax_index: int


def reward_curve(clip: ClipSequence) -> RewardCurve:
    raw = clip.similarities()
    lo, hi = raw.min(), raw.max()
    if hi > lo:
        norm = (raw - lo) / (hi - lo)
    else:
        norm = np.zeros_like(raw)
    return RewardCurve(
        raw=tuple(float(x) for x in raw),
        normalized=tuple(float(x) for x in norm),
        argmax_index=int(np.argmax(raw)) + 1,
    )


def curve_rows(clip: ClipSequence):
    """CSV-ready rows: (frame_index, timestamp, raw_reward, normalized_reward)."""
    curve = reward_curve(clip)
    return [
        (i + 1, clip.timestamps[i], curve.raw[i], curve.normalized[i])
        for i in range(clip.T)
    ]


@dataclass(frozen=True)
class ObjectiveSpec:
    """One entry in a comparison: the combined objective (tnce=None) or a
    time-contrastive variant."""

    name: str
    tnce: TnceConfig | None = None


@dataclass(frozen=True)
class SeedResult:
    seed: int
    completion_index: int
    argmax_by_objective: dict
    error_by_objective: dict


@dataclass(frozen=True)
class ComparisonRecord:
    seeds: tuple
    objectives: tuple
    results: tuple
    median_error: dict
    final_clips: dict = field(default_factory=dict, compare=False)


def compare_objectives(
    clip_spec: SyntheticClipSpec,
    objectives,
    train_cfg: TrainConfig,
    seeds,
) -> ComparisonRecord:
    """Train free embeddings from identical per-seed initializations under
    each objective and report reward-argmax distance to the ground-truth
    completion index. Every seed and objective trains in one (B, O, T, d)
    stack, one objective_and_grad call per step for all of them, which
    gives each seed and objective the result of its own run. A loss that
    turns non-finite raises TrainingDiverged at the earliest step at which
    any objective and seed diverges. Objective names must be distinct."""
    objectives = tuple(objectives)
    seeds = tuple(int(kinds.SEED.check("seed", seed)) for seed in seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    names = [o.name for o in objectives]
    if len(set(names)) != len(names):
        raise ValueError(f"objective names must be distinct, got {names}")
    clips, truths = zip(*(generate_clip(replace(clip_spec, seed=seed)) for seed in seeds))
    histories = train_objectives(clips, train_cfg, [o.tnce for o in objectives], seeds, False)
    final_clips = {
        (seed, obj.name): runs[o].final_clip
        for o, obj in enumerate(objectives)
        for seed, runs in zip(seeds, histories)
    }
    results = []
    for seed, truth in zip(seeds, truths):
        argmaxes = {o.name: reward_curve(final_clips[(seed, o.name)]).argmax_index for o in objectives}
        errors = {name: abs(a - truth.completion_index) for name, a in argmaxes.items()}
        results.append(SeedResult(seed, truth.completion_index, argmaxes, errors))
    medians = {
        obj.name: float(np.median([r.error_by_objective[obj.name] for r in results]))
        for obj in objectives
    }
    return ComparisonRecord(
        seeds=seeds,
        objectives=tuple(o.name for o in objectives),
        results=tuple(results),
        median_error=medians,
        final_clips=final_clips,
    )
