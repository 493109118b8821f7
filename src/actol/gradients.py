"""Hand-derived gradients of every loss with respect to frame and language
embeddings, plus a central finite-difference oracle.

Gradients are ambient (they include the cosine-normalization Jacobian, so
finite differences off the unit sphere agree); the trainer projects them
onto the sphere's tangent space before stepping. The oracle checks N clips
of one shape as a stack: one sort of their timestamps, one analytic
gradient call, and their perturbed points as batch rows in kernel calls of
whole clips up to losses.BLOCK_SCORES scores; finite_diff_check is its
one-clip case.
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
    TieGroups,
    TnceConfig,
    _check_non_negative,
    _contrastive_terms,
    _differences,
    _stack_size,
)

KINK_TOL = 1e-12
# The params finite_diff_check reads for each loss
LOSS_PARAMS = {"vlo": ("temperature",), "bb": ("interval",), "tnce": ("config",),
               "total": ("temperature", "intervals", "bb_weight")}
# finite_diff_check's error floor, as a fraction of the gradient's max-norm
REL_FLOOR = 1e-4
# finite_diff_check's default step, and the error below which a gradcheck passes
DEFAULT_STEP = 1e-5
PASS_ERROR = 1e-5


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


def objective_and_grad(emb, lang, c: Contrast, bridge=None, bb_weight=0.0, need_language=True):
    """Per-clip (values, bridge penalties, dL/dE, dL/dl, at_kink) of the
    contrastive objective c on (B, T, d) embeddings and (B, d) language
    vectors, from one kernel pass; c must be Contrast.of(timestamps, cfg).
    For a Contrast of O configs the stack is (B, O, T, d) and (B, O, d),
    and each output has the config axis after the clip axis. Given a
    Bridge, shared or of each clip's own intervals (clip axes (B,), or
    (B, 1) for O configs, else ValueError), bb_weight times its gradient is
    added to dL/dE; without one the penalties are 0.0. The config rows on
    which an (O, P) w is zero carry no bridge (see Bridge). dL/dl is None
    unless need_language. The cosines, their norms and the score rows come
    from _contrastive_terms, computed once; the kink test reads the rows of
    difference-score configs, and s_i - s_k is formed again in their buffer
    once the kernel is done. The kernel's arrays and dL/dl's terms come from
    c.array, which keeps them in a descent run's Contrast; every output is
    a new array."""
    value, G, s, norm_v, norm_l, rows = _contrastive_terms(emb, lang, c, need_grad=True)
    no_kink = np.zeros(value.shape, dtype=bool)
    if c.score == "direct-sim":
        g_s, at_kink = G.sum(axis=-2), no_kink
    else:
        # dL/dR_{i,k} (R = -|s_i - s_k|) to dL/ds_t; a kink is a close pair off G's 0 diagonal.
        # close: |s_i - s_k| < KINK_TOL, on the diagonal unless s_i is NaN
        close = np.greater(rows, -KINK_TOL, out=c.array("close", rows.shape, bool))
        mixed = c.score is None
        if mixed:  # the rows of direct-sim configs hold s_k and have no kink
            close &= c.difference
        off = np.count_nonzero(close) > np.count_nonzero(close.diagonal(0, -2, -1))
        at_kink = np.any(np.logical_and(close, G, out=close), axis=(-2, -1)) if off else no_kink
        # s_i - s_k again, in rows' buffer: kept from before, it would be live through the kernel
        GS = np.sign(_differences(s, rows), out=rows)
        if mixed:  # a direct-sim config's dL/ds_t is G's column sum
            np.copyto(GS, 1.0, where=~c.difference)
        GS *= G
        col = GS.sum(axis=-2)
        g_s = -GS.sum(axis=-1) + col
        if mixed:
            g_s = np.where(c.difference[..., 0], g_s, col)
    if bridge is not None:  # before dL/dE, so that fewer (..., T, d) arrays are live at once
        try:
            bb, g_bb = bridge.penalty(emb, need_grad=True)
        except ValueError as e:  # the matmul's broadcast
            raise ValueError(f"Bridge M {bridge.M.shape} does not match embeddings {emb.shape}") from e
    # dL/ds_t to the embeddings through the cosine, normalization included
    u_v = emb / norm_v[..., None]
    u_l = lang / norm_l
    cos = np.matmul(u_v, u_l[..., :, None])
    language = None
    if need_language:  # g_s (u_v - cos u_l), summed over frames, / |l|
        t = c.array("language", u_v.shape)
        np.copyto(t, u_l[..., None, :])  # a ufunc would buffer a copy of each broadcast operand
        np.subtract(u_v, np.multiply(cos, t, out=t), out=t)
        language = np.multiply(g_s[..., None], t, out=t).sum(axis=-2) / norm_l
    frames = np.multiply(cos, u_v, out=u_v)  # g_s (u_l - cos u_v) / |v|, in u_v's array
    np.subtract(u_l[..., None, :], frames, out=frames)
    np.multiply(g_s[..., None], frames, out=frames)
    np.divide(frames, norm_v[..., None], out=frames)
    if bridge is not None:
        frames += np.multiply(bb_weight, g_bb, out=g_bb)
    return value, np.zeros(value.shape) if bridge is None else bb, frames, language, at_kink


def _on_clip(clip: ClipSequence, c: Contrast, bridge=None, bb_weight=0.0) -> GradientSet:
    """objective_and_grad's gradients on one clip."""
    _check_non_negative("bb_weight", bb_weight)  # for grad_total
    *_, frames, language, at_kink = objective_and_grad(
        clip.embeddings[None], clip.language[None], c, bridge, bb_weight
    )
    return GradientSet(frames[0], language[0], bool(at_kink[0]))


def grad_vlo(clip: ClipSequence, temperature: float = 1.0) -> GradientSet:
    """Exact ambient gradient of vlo_loss w.r.t. every embedding."""
    return grad_tnce(clip, TnceConfig(temperature=temperature))


def grad_bb(clip: ClipSequence, interval: BridgeInterval) -> GradientSet:
    """Exact gradient of bb_loss. Endpoint frames receive gradient through
    the bridge mean even though they contribute no deviation term."""
    frames = Bridge.of(clip.timestamps, [interval]).penalty(clip.embeddings, need_grad=True)[1]
    return GradientSet(frames, np.zeros_like(clip.language))


def grad_tnce(clip: ClipSequence, cfg: TnceConfig) -> GradientSet:
    """Exact ambient gradient of tnce_loss for any selector configuration."""
    return _on_clip(clip, Contrast.of(clip.timestamps, cfg))


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
    return _on_clip(clip, c, Bridge.of(clip.timestamps, intervals), bb_weight)


def _objective(loss: str, timestamps, params):
    """A loss name and its params (only ones it reads) at an (N, T) stack of
    timestamp rows as the oracle's objective: (Contrast or None, Bridge or
    None, weight), each stacked over the N rows."""
    params = dict(params or {})
    if loss not in LOSS_PARAMS:
        raise ValueError(f"unknown loss {loss!r}")
    unread = [key for key in params if key not in LOSS_PARAMS[loss]]
    if unread:
        raise ValueError(f"{loss} loss takes no param(s) {unread}")
    if loss == "bb":
        iv = params.get("interval")
        return None, Bridge.of(timestamps, None if iv is None else [iv]), 1.0
    if loss == "tnce":
        cfg = params.get("config")
        if not isinstance(cfg, TnceConfig):
            raise ValueError(f"tnce loss needs param 'config', a TnceConfig, got {cfg!r}")
    else:
        cfg = TnceConfig(temperature=params.get("temperature", 1.0))
    c = Contrast.of(timestamps, cfg)
    if loss != "total":
        return c, None, 0.0
    bb_weight = params.get("bb_weight", DEFAULT_BB_WEIGHT)
    _check_non_negative("bb_weight", bb_weight)
    return c, Bridge.of(timestamps, params.get("intervals")), bb_weight


def _finite_diff_errors(loss: str, clips, params=None, step: float = DEFAULT_STEP) -> np.ndarray:
    """finite_diff_check's error of each of N clips of one (T, d) shape,
    each with its own timestamps, as an (N,) array. The objective of the
    (N, T) timestamp stack is built once (one sort) and its analytic
    gradient taken in one call. The 2d(T+1) points of a clip that move one
    vector by +-step are batch rows, evaluated in kernel calls of whole
    clips up to BLOCK_SCORES scores; a clip above that is split into
    stacks of whole vectors' 2d points."""
    if not (_is_real(step) and 0 < step < math.inf):
        raise ValueError(f"step must be finite and positive, got {step!r}")
    c, bridge, bb_weight = _objective(loss, np.array([clip.timestamps for clip in clips]), params)
    E = np.stack([clip.embeddings for clip in clips])
    l = np.stack([clip.language for clip in clips])
    if c is None:
        frames, language = bb_weight * bridge.penalty(E, need_grad=True)[1], np.zeros_like(l)
    else:
        frames, language = objective_and_grad(E[None], l[None], c, bridge, bb_weight)[2:4]
    N, T, d = E.shape
    analytic = np.concatenate([frames.reshape(N, -1), language.reshape(N, -1)], axis=1)
    floor = np.maximum(REL_FLOOR * np.abs(analytic).max(axis=1), 1e-8)
    j = np.arange(d)
    per_call = _stack_size(2 * d * T * T)  # vectors per kernel call
    size, vectors = max(1, per_call // (T + 1)), min(per_call, T + 1)  # clips, vectors of each
    num = np.empty((N, T + 1, d))
    for start in range(0, N, size):
        part, m = slice(start, start + size), min(size, N - start)
        cp = None if c is None else _clips_of(c, part)
        bp = None if bridge is None else Bridge(bridge.M[part], bridge.w[part])
        for first in range(0, T + 1, vectors):  # vectors 0..T-1 are the frames, T the language
            n = min(vectors, T + 1 - first)
            # row [v, 0, j, k] moves coordinate j of vector first + v of clip
            # start + k by +step, row [v, 1, j, k] by -step
            emb, lang = np.tile(E[part], (n, 2, d, 1, 1, 1)), np.tile(l[part], (n, 2, d, 1, 1))
            at = np.arange(min(n, T - first))[:, None]
            for sign, delta in enumerate((step, -step)):
                emb[at, sign, j, :, first + at, j] += delta
                if first + n > T:
                    lang[-1, sign, j, :, j] += delta
            emb, lang = emb.reshape(-1, m, T, d), lang.reshape(-1, m, d)
            v = 0.0 if c is None else _contrastive_terms(emb, lang, cp, need_grad=False)[0]
            if bp is not None:  # same expression order as actol_loss(...).total
                v = v + bb_weight * bp.penalty(emb)[0]
            if not np.isfinite(v).all():
                raise FloatingPointError(f"non-finite {loss} loss at perturbed point")
            v = v.reshape(n, 2, d, m)
            num[part, first : first + n] = np.moveaxis(v[:, 0] - v[:, 1], -1, 0) / (2 * step)
    num = num.reshape(N, -1)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(num)), floor[:, None])
    return np.max(np.abs(analytic - num) / scale, axis=1)


def _clips_of(c: Contrast, part: slice) -> Contrast:
    """The Contrast of the clips at part of c's (N, T) stack, from c's sort."""
    g = c.groups
    return Contrast._of_groups(
        TieGroups(g.order[part], g.distances[part], g.start[part], g.end[part]), c.cfg
    )


def finite_diff_check(
    loss: str, clip: ClipSequence, params=None, step: float = DEFAULT_STEP
) -> float:
    """Max relative error of the analytic gradient against central
    differences on every coordinate of the frame embeddings, then the
    language. Errors are relative to the largest of the two values,
    REL_FLOOR times the gradient's max-norm and 1e-8, so round-off on
    components near zero is not a failure. The one-clip case of
    _finite_diff_errors: the objective is built once, and the 2d(T+1)
    points that move one vector by +-step are batch rows, in one kernel
    call up to BLOCK_SCORES scores or in stacks of whole vectors' 2d
    points above it."""
    return float(_finite_diff_errors(loss, [clip], params, step)[0])
