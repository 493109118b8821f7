"""Hand-derived gradients of every loss with respect to frame and language
embeddings, plus a central finite-difference oracle.

Gradients are ambient (they include the cosine-normalization Jacobian, so
finite differences off the unit sphere agree); the trainer projects them
onto the sphere's tangent space before stepping. The oracle compares the
directional derivative g.u with a central difference along a few fixed
random unit directions u of the whole (T + 1) d space: 2 DIRECTIONS loss
evaluations per clip, whatever T and d, and a signal of about |g|, not of
one small component. It checks N clips of one shape in blocks of whole
clips, each with one sort, one analytic gradient call and one kernel call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kinds
from .clip import ClipSequence, _cosines, _dots
from .losses import (
    DEFAULT_BB_WEIGHT,
    Bridge,
    BridgeInterval,
    Contrast,
    TnceConfig,
    Views,
    _contrastive_values,
    _sorted_scores,
    _sorted_softmax,
    _stack_size,
)
from .synthetic import random_units

# The params finite_diff_check reads for each loss
LOSS_PARAMS = {"vlo": ("temperature",), "bb": ("interval",), "tnce": ("config",),
               "total": ("temperature", "intervals", "bb_weight")}
# finite_diff_check's directions per clip, the seed they are drawn from, and
# its error floor as a fraction of the gradient's 2-norm
DIRECTIONS = 8
DIRECTION_SEED = 0
REL_FLOOR = 1e-2
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


def objective_and_grad(emb, lang, c, bridge=None, bb_weight=0.0, need_language=True):
    """Per-clip (values, bridge penalties, dL/dE, dL/dl, at_kink) of the
    objective c = Contrast.of(timestamps, cfg) on (B, T, d) embeddings, or
    (B, O, T, d) for O configs (each output's config axis after its clip axis),
    and (B, d) or (B, O, d) language vectors, or a shared (d,) or (1, d); other
    shapes raise ValueError. bb_weight (finite, non-negative) times a Bridge's
    gradient, shared or each clip's own (clip axes (B,), or (B, 1) for O
    configs, else ValueError), is added to dL/dE; without one the penalties are
    0.0. dL/dl is None unless need_language. This is Step(c, bb_weight,
    need_language) called once; c may be a run's Step, whose settings hold."""
    return (c if isinstance(c, Step) else Step(c, bb_weight, need_language))(emb, lang, bridge)


class Step:
    """objective_and_grad with what a run fixes resolved once: c, bb_weight,
    need_language, need_kink (without it at_kink is None and no kink test
    runs) and c's Views per batch size and d, so that a warm call makes
    only its arithmetic's numpy calls. It keeps |l| and l/|l| of the last
    language array it met (no caller may write into it between calls). The
    chain rule runs in the kernel's sorted order: dL/ds is a bincount of
    the weights by frame (over the Views' index at) minus each anchor's
    sorted row sum. Working arrays are the Views'; outputs are new."""

    def __init__(self, c: Contrast, bb_weight=0.0, need_language=True, need_kink=True):
        self.c, self.need_language, self.need_kink = c, need_language, need_kink
        self.bb_weight = kinds.NON_NEGATIVE.check("bb_weight", bb_weight)
        self.clips, self.lang, self.norm_l, self.views = c.s_at.shape[:-1], None, None, None

    def __call__(self, emb, lang, bridge=None):
        c, clips, v = self.c, self.clips, self.views
        if emb.ndim != len(clips) + 2 or emb.shape[1:-1] != clips:
            raise ValueError(f"embeddings {emb.shape} do not match the Contrast's "
                             f"(B, {', '.join(map(str, clips))}, d) stacks")
        if lang.shape[-1:] != emb.shape[-1:] or lang.shape[:-1] not in ((), (1,), emb.shape[:-2]):
            raise ValueError(f"language {lang.shape} does not match embeddings {emb.shape}")
        if v is None or v.B != len(emb) or v.d != emb.shape[-1]:
            v = self.views = Views(c, len(emb), emb.shape[-1])
        known = lang is self.lang
        s, norm_v, norm_l = _cosines(emb, lang, self.norm_l if known else None)
        if not known:
            u_l = lang / norm_l
            self.lang, self.norm_l = lang, norm_l
            self.u_col, self.u_row = u_l[..., None], u_l[..., None, :]
        kink = self.need_kink and c.score != "direct-sim"
        x, diff = _sorted_scores(s, v, True, kink)
        if kink and c.score is None:  # a direct-sim row holds s_k
            v.close &= c.difference
        value, W = _sorted_softmax(x, v, True)
        at_kink = np.zeros(value.shape, dtype=bool) if self.need_kink else None
        if kink and v.close.any():  # a kink is a close pair with a nonzero weight
            at_kink = np.logical_and(v.close, W, out=v.close).any(axis=(-2, -1))
        if diff is not None:  # sign(s_i - s_k) dL/dR for R = -|s_i - s_k|; direct-sim keeps dL/dR
            np.multiply(W, np.sign(diff, out=diff), out=W, where=v.scored)
        # dL/ds_t: columns add in anchor order, as dense (T, T) ones do, and rows in sorted order
        g_s = np.bincount(v.at, W.reshape(-1), s.size).reshape(s.shape)
        if diff is not None:
            np.subtract(g_s, np.add.reduce(W, axis=-1), out=g_s, where=v.scored_rows)
        if bridge is not None:  # before dL/dE, so that fewer (..., T, d) arrays are live at once
            try:
                bb, g_bb = bridge.penalty(emb, need_grad=True)
            except ValueError as e:  # the matmul's broadcast
                raise ValueError(f"Bridge M {bridge.M.shape} does not match embeddings "
                                 f"{emb.shape}") from e
        # dL/ds_t to the embeddings through the cosine, normalization included
        u_v = emb / norm_v[..., None]
        cos = np.matmul(u_v, self.u_col)
        language = None
        if self.need_language:  # g_s (u_v - cos u_l), summed over frames, / |l|
            t = v.language
            np.copyto(t, self.u_row)  # a ufunc would buffer a copy of each broadcast operand
            np.subtract(u_v, np.multiply(cos, t, out=t), out=t)
            language = np.multiply(g_s[..., None], t, out=t).sum(axis=-2) / norm_l
        frames = np.multiply(cos, u_v, out=u_v)  # g_s (u_l - cos u_v) / |v|, in u_v's array
        np.subtract(self.u_row, frames, out=frames)
        np.multiply(g_s[..., None], frames, out=frames)
        np.divide(frames, norm_v[..., None], out=frames)
        if bridge is not None:
            frames += np.multiply(self.bb_weight, g_bb, out=g_bb)
        return value, np.zeros(value.shape) if bridge is None else bb, frames, language, at_kink


def _on_clip(clip: ClipSequence, c: Contrast, bridge=None, bb_weight=0.0) -> GradientSet:
    """objective_and_grad's gradients on one clip."""
    emb, lang = clip.embeddings[None], clip.language[None]
    *_, frames, language, at_kink = objective_and_grad(emb, lang, c, bridge, bb_weight)
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
    bb_weight = params.get("bb_weight", DEFAULT_BB_WEIGHT)  # objective_and_grad checks it
    return c, Bridge.of(timestamps, params.get("intervals")), bb_weight


def _finite_diff_errors(loss: str, clips, params=None, step: float = DEFAULT_STEP) -> np.ndarray:
    """finite_diff_check's error of each of N >= 1 clips of one (T, d) shape,
    each with its own timestamps, as an (N,) array. The clips are checked
    in blocks of whole clips whose 2 DIRECTIONS perturbed points fill up to
    BLOCK_SCORES scores (one clip at least): each block's objective is
    built once (one sort), its analytic gradient taken in one call, and its
    points evaluated as the batch rows of one more. Every clip of the shape
    is checked along the same directions, so its error does not depend on
    its stack or block."""
    kinds.POSITIVE.check("step", step)
    T, d = clips[0].embeddings.shape
    u = _directions(T, d)
    du = step * u[:, None, :]  # rows 0..k-1 of a block's points are x + du, rows k..2k-1 x - du
    du_frames, du_language = du[..., : T * d].reshape(DIRECTIONS, 1, T, d), du[..., T * d :]
    size = _stack_size(2 * DIRECTIONS * T * T)
    errors = []
    for start in range(0, len(clips), size):
        part = clips[start : start + size]
        c, bridge, bb_weight = _objective(loss, np.array([x.timestamps for x in part]), params)
        E = np.stack([clip.embeddings for clip in part])
        l = np.stack([clip.language for clip in part])
        if c is None:
            frames, language = bb_weight * bridge.penalty(E, need_grad=True)[1], np.zeros_like(l)
        else:
            frames, language = objective_and_grad(E[None], l[None], c, bridge, bb_weight)[2:4]
        g = np.concatenate([frames.reshape(len(E), -1), language.reshape(len(E), -1)], axis=1)
        emb = np.concatenate([E + du_frames, E - du_frames])
        lang = np.concatenate([l + du_language, l - du_language])
        v = 0.0 if c is None else _contrastive_values(emb, lang, c)
        if bridge is not None:  # same expression order as actol_loss(...).total
            v = v + bb_weight * bridge.penalty(emb)[0]
        if not np.isfinite(v).all():
            raise FloatingPointError(f"non-finite {loss} loss at perturbed point")
        num = (v[:DIRECTIONS] - v[DIRECTIONS:]).T / (2 * step)
        slopes = _dots(g[:, None, :], u)  # each rounds as a 1-D dot: no clip depends on its block
        floor = np.maximum(REL_FLOOR * np.sqrt(_dots(g, g)), 1e-8)[:, None]
        scale = np.maximum(np.maximum(np.abs(slopes), np.abs(num)), floor)
        errors.append(np.max(np.abs(slopes - num) / scale, axis=1))
    return np.concatenate(errors)


def _directions(T: int, d: int) -> np.ndarray:
    """The (DIRECTIONS, (T + 1) d) unit directions along which every clip of
    shape (T, d) is checked: a (frames, language) vector per row."""
    return random_units((DIRECTIONS, (T + 1) * d), DIRECTION_SEED)


def finite_diff_check(
    loss: str, clip: ClipSequence, params=None, step: float = DEFAULT_STEP
) -> float:
    """Max relative error of the analytic gradient g against central
    differences (L(x + step u) - L(x - step u)) / 2 step along DIRECTIONS
    random unit directions u of the whole (frames, language) space, drawn
    from DIRECTION_SEED for each clip shape. Each error is relative to the
    largest of |g.u|, the difference, REL_FLOOR times |g| and 1e-8, so
    round-off along a direction nearly orthogonal to g is not a failure.
    The one-clip case of _finite_diff_errors: one sort, one analytic
    gradient call and one kernel call on the 2 DIRECTIONS perturbed points."""
    return float(_finite_diff_errors(loss, [clip], params, step)[0])
