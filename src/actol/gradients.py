"""Hand-derived gradients of every loss with respect to frame and language
embeddings, plus a central finite-difference oracle.

Gradients are ambient (they include the cosine-normalization Jacobian, so
finite differences off the unit sphere agree); the trainer projects them
onto the sphere's tangent space before stepping. The oracle evaluates all
of a clip's perturbed points as batch rows, in stacks of up to
losses.BLOCK_SCORES scores: one kernel call per check at small T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clip import ClipSequence, _is_real
from .losses import (
    DEFAULT_BB_WEIGHT,
    Bridge,
    BridgeInterval,
    Contrast,
    TnceConfig,
    _check_non_negative,
    _contrastive_terms,
    _stack_size,
)

KINK_TOL = 1e-12
# The params finite_diff_check reads for each loss
LOSS_PARAMS = {"vlo": ("temperature",), "bb": ("interval",), "tnce": ("config",),
               "total": ("temperature", "intervals", "bb_weight")}
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


def objective_and_grad(
    emb, lang, c: Contrast, bridge=None, bb_weight=0.0, need_language=True, bridged=None
):
    """Per-clip (values, bridge penalties, dL/dE, dL/dl, at_kink) of the
    contrastive objective c on (B, T, d) embeddings and (B, d) language
    vectors, from one kernel pass; c must be Contrast.of(timestamps, cfg).
    For a Contrast of O configs the stack is (B, O, T, d) and (B, O, d),
    and each output has the config axis after the clip axis. Given a
    Bridge, or one Bridge per clip, bb_weight times its gradient is added
    to dL/dE of the configs at positions bridged (default: every one);
    elsewhere the penalties are 0.0. dL/dl is None unless need_language.
    The cosines, their norms and the score rows come from
    _contrastive_terms, computed once; the kink test reads the rows of
    difference-score configs, and s_i - s_k is formed again in their buffer
    once the kernel is done."""
    value, G, s, norm_v, norm_l, rows = _contrastive_terms(emb, lang, c, need_grad=True)
    no_kink = np.zeros(value.shape, dtype=bool)
    if c.score == "direct-sim":
        g_s, at_kink = G.sum(axis=-2), no_kink
    else:
        # dL/dR_{i,k} (R = -|s_i - s_k|) to dL/ds_t; a kink is a close pair off G's 0 diagonal
        close = rows > -KINK_TOL  # |s_i - s_k| < KINK_TOL, on the diagonal unless s_i is NaN
        mixed = c.score is None
        if mixed:  # the rows of direct-sim configs hold s_k and have no kink
            close &= c.difference
        off = np.count_nonzero(close) > np.count_nonzero(close.diagonal(0, -2, -1))
        at_kink = np.any((G != 0) & close, axis=(-2, -1)) if off else no_kink
        # s_i - s_k again, in rows' buffer: kept from before, it would be live through the kernel
        GS = np.sign(np.subtract(s[..., :, None], s[..., None, :], out=rows), out=rows)
        if mixed:  # a direct-sim config's dL/ds_t is G's column sum
            GS = np.where(c.difference, GS, 1.0)
        GS *= G
        col = GS.sum(axis=-2)
        g_s = -GS.sum(axis=-1) + col
        if mixed:
            g_s = np.where(c.difference[..., 0], g_s, col)
    # dL/ds_t to the embeddings through the cosine, normalization included
    u_v = emb / norm_v[..., None]
    u_l = lang / norm_l
    cos = np.matmul(u_v, u_l[..., :, None])
    frames = g_s[..., None] * (u_l[..., None, :] - cos * u_v) / norm_v[..., None]
    language = None
    if need_language:
        language = (g_s[..., None] * (u_v - cos * u_l[..., None, :])).sum(axis=-2) / norm_l
    if bridge is None:
        return value, np.zeros(value.shape), frames, language, at_kink
    on = emb if bridged is None else emb[:, bridged]
    if isinstance(bridge, Bridge):
        bb, g_bb = bridge.penalty(on, need_grad=True)
    else:  # each clip's own Bridge on its own slice
        if len(bridge) != len(emb):
            raise ValueError(f"need one Bridge per clip: {len(bridge)} for {len(emb)} clips")
        bb, g_bb = map(np.stack, zip(*(b.penalty(e, need_grad=True) for b, e in zip(bridge, on))))
    if bridged is None:
        return value, bb, frames + bb_weight * g_bb, language, at_kink
    penalties = np.zeros(value.shape)
    penalties[:, bridged] = bb
    frames[:, bridged] += bb_weight * g_bb
    return value, penalties, frames, language, at_kink


def _on_clip(clip: ClipSequence, c: Contrast | None, bridge=None, bb_weight=0.0):
    """objective_and_grad on one clip: (value, bridge penalty, GradientSet);
    with c None, bb_weight times the bridge penalty alone (value 0.0)."""
    _check_non_negative("bb_weight", bb_weight)  # for grad_total and finite_diff_check
    if c is None:
        bb, frames = bridge.penalty(clip.embeddings, need_grad=True)
        return 0.0, float(bb), GradientSet(bb_weight * frames, np.zeros_like(clip.language))
    value, bb, frames, language, at_kink = objective_and_grad(
        clip.embeddings[None], clip.language[None], c, bridge, bb_weight
    )
    return float(value[0]), float(bb[0]), GradientSet(frames[0], language[0], bool(at_kink[0]))


def grad_vlo(clip: ClipSequence, temperature: float = 1.0) -> GradientSet:
    """Exact ambient gradient of vlo_loss w.r.t. every embedding."""
    return grad_tnce(clip, TnceConfig(temperature=temperature))


def grad_bb(clip: ClipSequence, interval: BridgeInterval) -> GradientSet:
    """Exact gradient of bb_loss. Endpoint frames receive gradient through
    the bridge mean even though they contribute no deviation term."""
    return _on_clip(clip, None, Bridge.of(clip.timestamps, [interval]), 1.0)[2]


def grad_tnce(clip: ClipSequence, cfg: TnceConfig) -> GradientSet:
    """Exact ambient gradient of tnce_loss for any selector configuration."""
    return _on_clip(clip, Contrast.of(clip.timestamps, cfg))[2]


def grad_total(
    clip: ClipSequence,
    bb_weight: float = DEFAULT_BB_WEIGHT,
    temperature: float = 1.0,
    intervals=None,
) -> GradientSet:
    """Gradient of the combined objective: grad_vlo plus bb_weight times the
    mean bridge gradient over the intervals (default: the full clip), from
    one pass of the ordering-loss kernel."""
    c = Contrast.of(clip.timestamps, TnceConfig(temperature=temperature))
    return _on_clip(clip, c, Bridge.of(clip.timestamps, intervals), bb_weight)[2]


def _objective(loss: str, clip: ClipSequence, params):
    """A loss name and its params (only ones it reads) at clip's timestamps as
    the objective _on_clip takes: (Contrast or None, Bridge or None, weight)."""
    params = dict(params or {})
    if loss not in LOSS_PARAMS:
        raise ValueError(f"unknown loss {loss!r}")
    unread = [key for key in params if key not in LOSS_PARAMS[loss]]
    if unread:
        raise ValueError(f"{loss} loss takes no param(s) {unread}")
    if loss == "bb":
        iv = params.get("interval")
        return None, Bridge.of(clip.timestamps, None if iv is None else [iv]), 1.0
    tau = params.get("temperature", 1.0)
    cfg = params["config"] if loss == "tnce" else TnceConfig(temperature=tau)
    c = Contrast.of(clip.timestamps, cfg)
    if loss != "total":
        return c, None, 0.0
    bridge = Bridge.of(clip.timestamps, params.get("intervals"))
    return c, bridge, params.get("bb_weight", DEFAULT_BB_WEIGHT)


def finite_diff_check(loss: str, clip: ClipSequence, params=None, step: float = 1e-5) -> float:
    """Max relative error of the analytic gradient against central
    differences on every coordinate of the frame embeddings, then the
    language. Errors are relative to the largest of the two values,
    REL_FLOOR times the gradient's max-norm and 1e-8, so round-off on
    components near zero is not a failure. The objective is built once; the
    2d(T+1) points that move one vector by +-step are batch rows, evaluated
    in stacks of whole vectors' 2d points up to BLOCK_SCORES scores."""
    if not (_is_real(step) and 0 < step < math.inf):
        raise ValueError(f"step must be finite and positive, got {step!r}")
    c, bridge, bb_weight = _objective(loss, clip, params)
    grads = _on_clip(clip, c, bridge, bb_weight)[2]
    analytic = np.concatenate([grads.frames.ravel(), grads.language])
    floor = max(REL_FLOOR * np.abs(analytic).max(), 1e-8)
    E, l = clip.embeddings, clip.language
    T, d = E.shape
    j = np.arange(d)
    per_call = _stack_size(2 * d * T * T)  # vectors per kernel call
    numeric = []
    for first in range(0, T + 1, per_call):  # vectors 0..T-1 are the frames, T the language
        n = min(per_call, T + 1 - first)
        # row [v, 0, j] moves coordinate j of vector first + v by +step, row [v, 1, j] by -step
        emb, lang = np.tile(E, (n, 2, d, 1, 1)), np.tile(l, (n, 2, d, 1))
        frames = np.arange(min(n, T - first))[:, None]
        for sign, delta in enumerate((step, -step)):
            emb[frames, sign, j, first + frames, j] += delta
            if first + n > T:
                lang[-1, sign, j, j] += delta
        emb, lang = emb.reshape(-1, T, d), lang.reshape(-1, d)
        v = 0.0 if c is None else _contrastive_terms(emb, lang, c, need_grad=False)[0]
        if bridge is not None:  # same expression order as actol_loss(...).total
            v = v + bb_weight * bridge.penalty(emb)[0]
        if not np.isfinite(v).all():
            raise FloatingPointError(f"non-finite {loss} loss at perturbed point")
        v = v.reshape(n, 2, d)
        numeric.append((v[:, 0] - v[:, 1]).ravel() / (2 * step))
    num = np.concatenate(numeric)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(num)), floor)
    return float(np.max(np.abs(analytic - num) / scale))
