"""Hand-derived gradients of every loss with respect to frame and language
embeddings, plus a central finite-difference oracle.

Gradients are ambient (they include the cosine-normalization Jacobian, so
finite differences off the unit sphere agree); the trainer projects them
onto the sphere's tangent space before stepping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .clip import ClipSequence
from .losses import (
    DEFAULT_BB_WEIGHT,
    Bridge,
    BridgeInterval,
    Contrast,
    TnceConfig,
    _clip_value,
    _contrastive_terms,
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


def objective_and_grad(emb, lang, c: Contrast, bridge=None, bb_weight=0.0):
    """Per-clip (values, bridge penalties, dL/dE, dL/dl, at_kink) of the
    contrastive objective c on (B, T, d) embeddings and (B, d) language
    vectors, from one kernel pass; c must be Contrast.of(timestamps, cfg).
    Given a Bridge, or one Bridge per clip, bb_weight times its gradient is
    added to dL/dE; without one the penalties are 0.0."""
    value, G, s = _contrastive_terms(emb, lang, c, need_grad=True)
    if c.cfg.score == "direct-sim":
        g_s, at_kink = G.sum(axis=1), np.zeros(len(s), dtype=bool)
    else:
        # score gradients dL/dR_{i,k} (R = -|s_i - s_k|) to dL/ds_t
        diff = s[:, :, None] - s[:, None, :]
        contributing = (G != 0) & ~np.eye(s.shape[1], dtype=bool)
        at_kink = np.any(contributing & (np.abs(diff) < KINK_TOL), axis=(1, 2))
        GS = G * np.sign(diff)
        g_s = -GS.sum(axis=2) + GS.sum(axis=1)
    # dL/ds_t to the embeddings through the cosine, normalization included;
    # the language norm is a matmul, which rounds like a 1-D np.linalg.norm
    norms_v = np.linalg.norm(emb, axis=-1)[..., None]
    norm_l = np.sqrt(np.matmul(lang[:, None, :], lang[:, :, None]))[:, 0]
    u_v = emb / norms_v
    u_l = lang / norm_l
    cos = np.matmul(u_v, u_l[:, :, None])
    frames = g_s[..., None] * (u_l[:, None, :] - cos * u_v) / norms_v
    language = (g_s[..., None] * (u_v - cos * u_l[:, None, :])).sum(axis=1) / norm_l
    if bridge is None:
        return value, np.zeros(len(value)), frames, language, at_kink
    if isinstance(bridge, Bridge):
        bb, g_bb = bridge.penalty(emb, need_grad=True)
    else:  # each clip's own Bridge on its own slice
        bb, g_bb = map(np.stack, zip(*(b.penalty(e, need_grad=True) for b, e in zip(bridge, emb))))
    return value, bb, frames + bb_weight * g_bb, language, at_kink


def _on_clip(clip: ClipSequence, c: Contrast, bridge=None, bb_weight=0.0):
    """objective_and_grad on one clip: (value, bridge penalty, GradientSet)."""
    value, bb, frames, language, at_kink = objective_and_grad(
        clip.embeddings[None], clip.language[None], c, bridge, bb_weight
    )
    return float(value[0]), float(bb[0]), GradientSet(frames[0], language[0], bool(at_kink[0]))


def tnce_and_grad(clip: ClipSequence, cfg: TnceConfig) -> tuple[float, GradientSet]:
    """tnce_loss and its exact ambient gradient from one kernel pass."""
    value, _, grads = _on_clip(clip, Contrast.of(clip.timestamps, cfg))
    return value, grads


def grad_vlo(clip: ClipSequence, temperature: float = 1.0) -> GradientSet:
    """Exact ambient gradient of vlo_loss w.r.t. every embedding."""
    return tnce_and_grad(clip, TnceConfig(temperature=temperature))[1]


def grad_bb(clip: ClipSequence, interval: BridgeInterval) -> GradientSet:
    """Exact gradient of bb_loss. Endpoint frames receive gradient through
    the bridge mean even though they contribute no deviation term."""
    _, frames = Bridge.of(clip.timestamps, [interval]).penalty(clip.embeddings, need_grad=True)
    return GradientSet(frames, np.zeros_like(clip.language))


def grad_tnce(clip: ClipSequence, cfg: TnceConfig) -> GradientSet:
    """Exact ambient gradient of tnce_loss for any selector configuration."""
    return tnce_and_grad(clip, cfg)[1]


def total_and_grad(
    clip: ClipSequence,
    bb_weight: float = DEFAULT_BB_WEIGHT,
    temperature: float = 1.0,
    intervals=None,
) -> tuple[float, float, GradientSet]:
    """(vlo, mean bridge penalty, gradient of vlo + bb_weight * bb), with
    one pass of the ordering-loss kernel and one Bridge over all the
    intervals."""
    if intervals is None:
        intervals = [full_interval(clip)]
    c = Contrast.of(clip.timestamps, TnceConfig(temperature=temperature))
    return _on_clip(clip, c, Bridge.of(clip.timestamps, intervals), bb_weight)


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
    """(loss as a function of (E, l) at clip's timestamps, analytic gradient
    at clip). Tie groups and Bridge are built once, not per call."""
    params = dict(params or {})
    if loss == "bb":
        iv = params.get("interval", full_interval(clip))
        bridge = Bridge.of(clip.timestamps, [iv])
        return (lambda E, l: float(bridge.penalty(E)[0])), grad_bb(clip, iv)
    tau = params.get("temperature", 1.0)
    cfg = params["config"] if loss == "tnce" else TnceConfig(temperature=tau)
    contrastive = partial(_clip_value, c=Contrast.of(clip.timestamps, cfg))
    if loss == "vlo":
        return contrastive, grad_vlo(clip, tau)
    if loss == "total":
        lam = params.get("bb_weight", DEFAULT_BB_WEIGHT)
        ivs = params.get("intervals")
        bridge = Bridge.of(clip.timestamps, [full_interval(clip)] if ivs is None else ivs)

        def total(E, l):  # same expression order as actol_loss(...).total
            return contrastive(E, l) + lam * float(bridge.penalty(E)[0])

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
        v = loss_of(x[:n_frames].reshape(clip.embeddings.shape), x[n_frames:])
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
