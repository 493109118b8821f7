"""Hand-derived gradients of every loss with respect to frame and language
embeddings, plus a central finite-difference oracle.

Gradients are ambient (they include the cosine-normalization Jacobian, so
finite differences off the unit sphere agree); the trainer projects them
onto the sphere's tangent space before stepping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clip import ClipSequence
from .losses import (
    DEFAULT_BB_WEIGHT,
    BridgeInterval,
    TieGroups,
    TnceConfig,
    _bridge_deviations,
    _contrastive_terms,
    _mean_bb,
    bb_loss,
    full_interval,
)

KINK_TOL = 1e-12
# finite_diff_check's error floor, as a fraction of the gradient's max-norm
REL_FLOOR = 1e-4


@dataclass(frozen=True)
class GradientSet:
    """Per-frame and language gradients of a scalar loss.

    at_kink is set when a contributing frame pair sits on the absolute-value
    kink of the alignment score (similarity difference below 1e-12); the
    returned value is then a subgradient with the kinked terms treated as 0.
    """

    frames: np.ndarray
    language: np.ndarray
    at_kink: bool = False

    def __add__(self, other: "GradientSet") -> "GradientSet":
        return GradientSet(
            self.frames + other.frames,
            self.language + other.language,
            self.at_kink or other.at_kink,
        )

    def scaled(self, c: float) -> "GradientSet":
        return GradientSet(c * self.frames, c * self.language, self.at_kink)


def _sim_chain(clip: ClipSequence, g_s: np.ndarray, at_kink: bool) -> GradientSet:
    """Map per-frame similarity gradients dL/ds_t to embedding gradients
    through the cosine (including normalization Jacobians)."""
    norms_v = np.linalg.norm(clip.embeddings, axis=1)
    norm_l = np.linalg.norm(clip.language)
    u_v = clip.embeddings / norms_v[:, None]
    u_l = clip.language / norm_l
    s = u_v @ u_l
    frames = g_s[:, None] * (u_l[None, :] - s[:, None] * u_v) / norms_v[:, None]
    language = (g_s[:, None] * (u_v - s[:, None] * u_l[None, :])).sum(axis=0) / norm_l
    return GradientSet(frames, language, at_kink)


def _scores_to_sim_grads(G: np.ndarray, s: np.ndarray):
    """Map score-matrix gradients dL/dR_{i,k} (R = -|s_i - s_k|) to
    similarity gradients dL/ds_t, flagging absolute-value kinks."""
    diff = s[:, None] - s[None, :]
    sign = np.sign(diff)
    contributing = (G != 0) & ~np.eye(len(s), dtype=bool)
    at_kink = bool(np.any(contributing & (np.abs(diff) < KINK_TOL)))
    GS = G * sign
    g_s = -GS.sum(axis=1) + GS.sum(axis=0)
    return g_s, at_kink


def tnce_and_grad(
    clip: ClipSequence, cfg: TnceConfig, groups: TieGroups | None = None
) -> tuple[float, GradientSet]:
    """tnce_loss and its exact ambient gradient from one kernel pass.
    groups, if given, must be TieGroups.of(clip.timestamps,
    cfg.negative_selector); a training run passes it to skip the sort."""
    value, G, s = _contrastive_terms(clip, cfg, groups, need_grad=True)
    if cfg.score == "direct-sim":
        g_s, at_kink = G.sum(axis=0), False
    else:
        g_s, at_kink = _scores_to_sim_grads(G, s)
    return value, _sim_chain(clip, g_s, at_kink)


def grad_vlo(clip: ClipSequence, temperature: float = 1.0) -> GradientSet:
    """Exact ambient gradient of vlo_loss w.r.t. every embedding."""
    return tnce_and_grad(clip, TnceConfig(temperature=temperature))[1]


def grad_bb(clip: ClipSequence, interval: BridgeInterval) -> GradientSet:
    """Exact gradient of bb_loss. Endpoint frames receive gradient through
    the bridge mean even though they contribute no deviation term."""
    dev, var, alpha = _bridge_deviations(clip, interval)
    frames = np.zeros_like(clip.embeddings)
    if len(var):
        g = dev / (var * len(var))[:, None]
        frames[interval.start + 1 : interval.end] = g
        frames[interval.start] = -((1.0 - alpha) @ g)
        frames[interval.end] = -(alpha @ g)
    return GradientSet(frames, np.zeros_like(clip.language))


def grad_tnce(clip: ClipSequence, cfg: TnceConfig) -> GradientSet:
    """Exact ambient gradient of tnce_loss for any selector configuration."""
    return tnce_and_grad(clip, cfg)[1]


def total_and_grad(
    clip: ClipSequence,
    bb_weight: float = DEFAULT_BB_WEIGHT,
    temperature: float = 1.0,
    intervals=None,
    groups: TieGroups | None = None,
) -> tuple[float, float, GradientSet]:
    """(vlo, mean bridge penalty, gradient of vlo + bb_weight * bb), with
    one pass of the ordering-loss kernel. groups, if given, must be
    TieGroups.of(clip.timestamps)."""
    if intervals is None:
        intervals = [full_interval(clip)]
    vlo, grads = tnce_and_grad(clip, TnceConfig(temperature=temperature), groups)
    bb = _mean_bb(clip, intervals)
    if bb_weight != 0.0 and intervals:
        bb_grads = [grad_bb(clip, iv) for iv in intervals]
        grads = grads + sum(bb_grads[1:], bb_grads[0]).scaled(bb_weight / len(intervals))
    return vlo, bb, grads


def grad_total(
    clip: ClipSequence,
    bb_weight: float = DEFAULT_BB_WEIGHT,
    temperature: float = 1.0,
    intervals=None,
) -> GradientSet:
    """Gradient of the combined objective: grad_vlo plus bb_weight times the
    mean bridge gradient over the intervals."""
    return total_and_grad(clip, bb_weight, temperature, intervals)[2]


def _loss_and_grad(loss: str, clip: ClipSequence, params: dict):
    """(loss as a function of a clip with clip's timestamps, analytic
    gradient at clip). The tie groups are built once, not per call."""
    params = dict(params or {})
    if loss == "bb":
        iv = params.get("interval", full_interval(clip))
        return (lambda c: bb_loss(c, iv)), grad_bb(clip, iv)
    tau = params.get("temperature", 1.0)
    cfg = params["config"] if loss == "tnce" else TnceConfig(temperature=tau)
    groups = TieGroups.of(clip.timestamps, cfg.negative_selector)

    def contrastive(c):
        return _contrastive_terms(c, cfg, groups, need_grad=False)[0]

    if loss == "vlo":
        return contrastive, grad_vlo(clip, tau)
    if loss == "total":
        lam = params.get("bb_weight", DEFAULT_BB_WEIGHT)
        ivs = params.get("intervals")
        bb_ivs = [full_interval(clip)] if ivs is None else ivs

        def total(c):  # same expression order as actol_loss(...).total
            return contrastive(c) + lam * _mean_bb(c, bb_ivs)

        return total, grad_total(clip, lam, tau, ivs)
    if loss == "tnce":
        return contrastive, grad_tnce(clip, cfg)
    raise ValueError(f"unknown loss {loss!r}")


def finite_diff_check(loss: str, clip: ClipSequence, params=None, step: float = 1e-5) -> float:
    """Central finite differences on every coordinate of one flat parameter
    vector, the frame embeddings followed by the language embedding;
    returns the max relative error against the analytic gradient, which is
    computed once. Errors are relative to the largest of the two values,
    REL_FLOOR times the gradient's max-norm and 1e-8, so round-off on
    components near zero is not reported as a failure."""
    if step <= 0:
        raise ValueError("step must be positive")
    loss_of, grads = _loss_and_grad(loss, clip, params)
    analytic = np.concatenate([grads.frames.ravel(), grads.language])
    floor = max(REL_FLOOR * np.abs(analytic).max(), 1e-8)
    x0 = np.concatenate([clip.embeddings.ravel(), clip.language])
    n_frames = clip.embeddings.size

    def value(x):
        emb = x[:n_frames].reshape(clip.embeddings.shape)
        v = loss_of(ClipSequence(clip.timestamps, emb, x[n_frames:]))
        if not np.isfinite(v):
            raise FloatingPointError(f"non-finite {loss} loss at perturbed point")
        return v

    worst = 0.0
    for k, g in enumerate(analytic):
        x_plus = x0.copy()
        x_minus = x0.copy()
        x_plus[k] += step
        x_minus[k] -= step
        num = (value(x_plus) - value(x_minus)) / (2 * step)
        worst = max(worst, abs(g - num) / max(abs(g), abs(num), floor))
    return worst
