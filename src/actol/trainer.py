"""Projected gradient descent of free embeddings (or a linear encoder)
under the combined objective, on the unit sphere.

Runs are single-threaded and bitwise deterministic given the seed and
config.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .clip import ClipSequence, normalize
from .gradients import GradientSet, tnce_and_grad, total_and_grad
from .losses import (
    DEFAULT_BB_WEIGHT,
    BridgeInterval,
    LossBreakdown,
    TieGroups,
    TnceConfig,
    lower_bound,
)


class TrainingDiverged(RuntimeError):
    """Raised when the loss becomes non-finite; carries the step index."""

    def __init__(self, step: int):
        super().__init__(f"non-finite loss at step {step}")
        self.step = step


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    steps: int = 1000
    bb_weight: float = DEFAULT_BB_WEIGHT
    temperature: float = 1.0
    seed: int = 0
    optimize_language: bool = False
    intervals_per_step: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("learning rate must be finite and non-negative")
        if not isinstance(self.steps, numbers.Integral) or self.steps < 1:
            raise ValueError("steps must be a positive integer")
        if not (math.isfinite(self.bb_weight) and self.bb_weight >= 0):
            raise ValueError("bb_weight must be finite and non-negative")
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")
        if not isinstance(self.intervals_per_step, numbers.Integral) or self.intervals_per_step < 1:
            raise ValueError("intervals_per_step must be a positive integer")


@dataclass(frozen=True)
class LinearEncoder:
    """Linear map from raw features to embeddings; outputs are always
    renormalized to the unit sphere."""

    weight: np.ndarray

    def __call__(self, features: np.ndarray) -> np.ndarray:
        z = features @ self.weight.T
        return z / np.linalg.norm(z, axis=-1, keepdims=True)


@dataclass
class TrainHistory:
    records: list = field(default_factory=list)
    final_clip: ClipSequence | None = None

    @property
    def vlo_gap(self) -> list:
        return [r.gap for r in self.records]


def _tangent_step(vectors: np.ndarray, grads: np.ndarray, lr: float) -> np.ndarray:
    """One descent step projected onto the sphere's tangent space, then
    renormalized."""
    if lr == 0.0:
        return vectors
    radial = (grads * vectors).sum(axis=-1, keepdims=True)
    tangent = grads - radial * vectors
    stepped = vectors - lr * tangent
    return stepped / np.linalg.norm(stepped, axis=-1, keepdims=True)


def _require_finite(*arrays) -> None:
    """Raise TrainingDiverged(0) on a non-finite starting point, before the
    first objective evaluation computes with it."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise TrainingDiverged(0)


def _sample_intervals(T: int, cfg: TrainConfig, rng):
    if cfg.intervals_per_step == 1:
        return [BridgeInterval(0, T - 1)]
    intervals = []
    for _ in range(cfg.intervals_per_step):
        start = int(rng.integers(0, T - 1))
        end = int(rng.integers(start + 1, T))
        intervals.append(BridgeInterval(start, end))
    return intervals


def _objective_and_grads(
    clip, cfg: TrainConfig, intervals, objective, groups: TieGroups, lb: float
) -> tuple[LossBreakdown, GradientSet]:
    """One step's loss breakdown and gradient, from one objective
    evaluation."""
    if objective is None:
        vlo, bb, grads = total_and_grad(clip, cfg.bb_weight, cfg.temperature, intervals, groups)
        total = vlo + cfg.bb_weight * bb
    else:
        vlo, grads = tnce_and_grad(clip, objective, groups)
        bb, total = 0.0, vlo
    return LossBreakdown(vlo=vlo, bb=bb, total=total, lower_bound=lb, gap=vlo - lb), grads


def train_free(
    clip_init: ClipSequence,
    cfg: TrainConfig,
    objective: TnceConfig | None = None,
) -> TrainHistory:
    """Optimize the frame embeddings (and optionally the language embedding)
    directly. By default the combined objective is minimized; passing a
    TnceConfig trains under that contrastive variant instead, with the
    history's vlo/total fields holding its value."""
    clip = clip_init.normalized()
    _require_finite(clip.embeddings, clip.language)
    rng = np.random.default_rng(cfg.seed)
    lb = lower_bound(clip)
    rule = "farther-frames" if objective is None else objective.negative_selector
    groups = TieGroups.of(clip.timestamps, rule)
    history = TrainHistory()
    for step in range(cfg.steps):
        intervals = _sample_intervals(clip.T, cfg, rng)
        breakdown, grads = _objective_and_grads(clip, cfg, intervals, objective, groups, lb)
        if not np.isfinite(breakdown.total):
            raise TrainingDiverged(step)
        history.records.append(breakdown)
        emb = _tangent_step(clip.embeddings, grads.frames, cfg.learning_rate)
        lang = clip.language
        if cfg.optimize_language:
            lang = _tangent_step(lang, grads.language, cfg.learning_rate)
        clip = clip.with_embeddings(emb, lang)
    history.final_clip = clip
    return history


def _encoder_loss_and_grad(
    weight, features, timestamps, language, cfg: TrainConfig, intervals, groups, lb
):
    """Loss and dL/dW for embeddings normalize(W f_t), chained through the
    normalization map."""
    z = features @ weight.T
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    emb = z / norms
    clip = ClipSequence(timestamps, emb, language)
    breakdown, grads = _objective_and_grads(clip, cfg, intervals, None, groups, lb)
    # dL/dz_t = (I - v v^T) / |z_t| . dL/dv_t
    gv = grads.frames
    gz = (gv - (gv * emb).sum(axis=1, keepdims=True) * emb) / norms
    gw = gz.T @ features
    return breakdown, gw, clip


def train_encoder(features, timestamps, language, cfg: TrainConfig):
    """Descent on the weights of a linear encoder feeding the combined
    objective; the language embedding stays fixed. Returns the trained
    encoder and the per-step history."""
    features = np.asarray(features, dtype=float)
    language = normalize(language)
    _require_finite(features, language)
    n, f = features.shape
    d = language.shape[0]
    rng = np.random.default_rng(cfg.seed)
    if f == d:
        weight = np.eye(d)
    else:
        weight = rng.standard_normal((d, f)) / np.sqrt(f)
    groups = TieGroups.of(timestamps)
    lb = groups.lower_bound()
    history = TrainHistory()
    for step in range(cfg.steps):
        intervals = _sample_intervals(n, cfg, rng)
        breakdown, gw, clip = _encoder_loss_and_grad(
            weight, features, timestamps, language, cfg, intervals, groups, lb
        )
        if not np.isfinite(breakdown.total):
            raise TrainingDiverged(step)
        history.records.append(breakdown)
        weight = weight - cfg.learning_rate * gw
    encoder = LinearEncoder(weight)
    history.final_clip = ClipSequence(timestamps, encoder(features), language)
    return encoder, history


def measure_delta(clip: ClipSequence, temperature: float = 1.0):
    """Smallest delta in (0, 1) for which the ordering property holds over
    all (anchor, j, k) triples on the temperature-scaled alignment scores:
    equal-distance score gaps below delta, ordered pairs separated by more
    than 1/delta. Returns None when no delta < 1 works; with no triples
    (T = 2) the property is vacuous and the smallest positive normal float
    is returned by convention."""
    groups = TieGroups.of(clip.timestamps)
    s = clip.similarities()
    # x[i, p]: anchor i's score for the frame at its sorted position p
    x = np.take_along_axis(-np.abs(s[:, None] - s[None, :]), groups.order, axis=1) / temperature
    diff = x[:, :, None] - x[:, None, :]
    pos = np.arange(clip.T - 1)
    tied = (groups.start[:, :, None] == groups.start[:, None, :]) & (pos[:, None] != pos)
    equal_gaps = np.abs(diff[tied])
    margins = diff[pos < groups.start[:, :, None]]  # position q is farther than p
    if not equal_gaps.size and not margins.size:
        return sys.float_info.min
    max_gap = equal_gaps.max(initial=-np.inf)  # its candidate is then negative and dropped
    min_margin = margins.min(initial=np.inf)
    if min_margin <= 0:
        return None

    candidates = np.unique(
        np.r_[
            0.01 * np.arange(1, 100),
            np.nextafter(1.0 / margins[margins > 1.0], 1.0),
            np.nextafter(max_gap, 1.0),
        ]
    )
    with np.errstate(over="ignore"):  # 1 / a subnormal candidate is inf
        ok = (0 < candidates) & (candidates < 1) & (max_gap < candidates)
        ok &= min_margin > 1.0 / candidates
    return float(candidates[ok][0]) if ok.any() else None
