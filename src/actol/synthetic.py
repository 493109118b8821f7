"""Deterministic toy-clip generators with known ground truth.

All randomness flows through numpy's PCG64 generator
(np.random.default_rng), so outputs are reproducible from the seed alone.
A `seed` argument is an int or a Generator, which default_rng passes
through, so a caller can draw several samples from one stream.
Frames move along great-circle arcs (slerp), which keeps them unit-norm
by construction and makes similarity curves smooth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clip import ClipSequence, _is_count, _is_real, normalize

TAIL_MODES = ("none", "frozen", "drift-away", "second-action")
# The largest timestamp gap of random_clip and of theory.lower_bound_report's clips
MAX_GAP = 4


@dataclass(frozen=True)
class SyntheticClipSpec:
    """Generator parameters for one toy clip.

    completion_index is 1-based: the frame at which the instructed action
    finishes; frames after it are distractor tail per tail_mode.
    """

    T: int = 10
    d: int = 8
    completion_index: int = 10
    tail_mode: str = "none"
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("T", "d", "completion_index"):
            if not _is_count(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.T < 2:
            raise ValueError("need at least two frames")
        if self.d < 2:
            raise ValueError(f"dimension must be at least 2, got {self.d}")
        if not (1 <= self.completion_index <= self.T):
            raise ValueError("completion_index must lie in [1, T]")
        if self.tail_mode not in TAIL_MODES:
            raise ValueError(f"unknown tail mode {self.tail_mode!r}")
        sigma = self.noise_sigma
        if not (_is_real(sigma) and math.isfinite(sigma) and sigma >= 0):
            raise ValueError(f"noise_sigma must be a finite non-negative number, got {sigma!r}")


@dataclass(frozen=True)
class GroundTruth:
    completion_index: int
    progress: tuple


def slerp(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """Great-circle interpolation between unit vectors a (t=0) and b (t=1)."""
    dot = float(np.clip(np.dot(a, b), -1.0, 1.0))
    omega = np.arccos(dot)
    if omega < 1e-12:
        return a.copy()
    return (np.sin((1.0 - t) * omega) * a + np.sin(t * omega) * b) / np.sin(omega)


def _random_unit(rng, d: int) -> np.ndarray:
    return normalize(rng.standard_normal(d))


def _unit_away_from(rng, ref: np.ndarray, max_abs_cos: float = 0.5) -> np.ndarray:
    # rejection keeps the arc to ref bounded away from 0 and pi
    while True:
        v = _random_unit(rng, ref.shape[0])
        if abs(float(v @ ref)) < max_abs_cos:
            return v


def generate_clip(spec: SyntheticClipSpec):
    """Build a clip whose frames approach the language embedding along a
    geodesic, reaching maximum alignment at completion_index, then behave
    per tail_mode. Returns (ClipSequence, GroundTruth)."""
    rng = np.random.default_rng(spec.seed)
    language = _random_unit(rng, spec.d)
    start = _unit_away_from(rng, language)
    c = spec.completion_index

    frames = []
    progress = []
    for i in range(c):
        p = 1.0 if c == 1 else i / (c - 1)
        frames.append(slerp(start, language, p))
        progress.append(p)

    n_tail = spec.T - c
    if n_tail > 0:
        if spec.tail_mode in ("drift-away", "second-action"):
            if spec.tail_mode == "drift-away":
                # pure tangent direction: similarity decays from 1 toward 0
                w = _random_unit(rng, spec.d)
                w = normalize(w - (w @ language) * language)
            else:
                w = _unit_away_from(rng, language)
            for k in range(1, n_tail + 1):
                q = k / n_tail
                frames.append(slerp(language, w, q))
        else:
            # 'none' holds the target; 'frozen' repeats the completion frame
            frames.extend(frames[-1].copy() for _ in range(n_tail))
        progress.extend(1.0 for _ in range(n_tail))

    emb = np.stack(frames)
    if spec.noise_sigma > 0:
        if spec.tail_mode == "frozen":
            noisy = emb[: c] + spec.noise_sigma * rng.standard_normal((c, spec.d))
            noisy = np.stack([normalize(v) for v in noisy])
            emb = np.vstack([noisy, np.repeat(noisy[-1][None, :], n_tail, axis=0)])
        else:
            emb = emb + spec.noise_sigma * rng.standard_normal(emb.shape)
            emb = np.stack([normalize(v) for v in emb])
    clip = ClipSequence(tuple(range(spec.T)), emb, language)
    return clip, GroundTruth(completion_index=c, progress=tuple(progress))


def random_units(shape, seed) -> np.ndarray:
    """Random unit vectors along the last axis of `shape`, which must be at
    least 2, as ClipSequence requires."""
    if shape[-1] < 2:
        raise ValueError(f"dimension must be at least 2, got {shape[-1]}")
    v = np.random.default_rng(seed).standard_normal(shape)
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return v


def _clip_arrays(gaps, frames, lang):
    """(m, T) timestamps, (m, T, d) unit frames and (m, d) unit language
    vectors of m clips of one shape, from their stacked (m, T - 1)
    timestamp gaps and (m, T, d) and (m, d) standard normals; frames and
    lang are normalized in place. Each frame is scaled by its norm along
    the last axis, each language vector by a matmul norm, which rounds like
    the 1-D np.linalg.norm; so row n is what random_clip builds from row
    n's draws alone, whatever m."""
    ts = np.zeros((len(gaps), gaps.shape[1] + 1), dtype=gaps.dtype)
    np.cumsum(gaps, axis=1, out=ts[:, 1:])
    frames /= np.linalg.norm(frames, axis=-1, keepdims=True)
    lang /= np.sqrt(np.matmul(lang[:, None, :], lang[:, :, None]))[:, 0]
    return ts, frames, lang


def random_clip(T: int, d: int, rng) -> ClipSequence:
    """Clip with random unit embeddings and random strictly increasing
    integer timestamps (gaps in [1, MAX_GAP]), drawn in that order: the
    T - 1 gaps, then (T, d) standard normals for the frames and (d,) for
    the language."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    (ts,), (frames,), (lang,) = _clip_arrays(rng.integers(1, MAX_GAP + 1, size=(1, T - 1)),
                                             rng.standard_normal((1, T, d)),
                                             rng.standard_normal((1, d)))
    return ClipSequence(ts, frames, lang)


def sample_bridge(v_start, v_end, t_start: int, t_end: int, seed) -> np.ndarray:
    """Draw one vector per integer time in [t_start, t_end]: endpoints
    exactly, interior points from the bridge's per-time Gaussian marginal
    (independent coordinates, variance (t-t0)(t1-t)/(t1-t0)).

    v_start and v_end have shape (..., d); the result has shape
    (..., t_end - t_start + 1, d), one path per leading index, drawn in
    turn.
    """
    if t_end <= t_start:
        raise ValueError("interval must have positive length")
    v_start = np.asarray(v_start, dtype=float)[..., None, :]
    v_end = np.asarray(v_end, dtype=float)[..., None, :]
    length = t_end - t_start
    t = np.arange(t_start + 1, t_end)[:, None]
    alpha = (t - t_start) / length
    mean = v_start + alpha * (v_end - v_start)
    var = (t - t_start) * (t_end - t) / length
    z = np.random.default_rng(seed).standard_normal(mean.shape)
    return np.concatenate([v_start, mean + np.sqrt(var) * z, v_end], axis=-2)


def perturb_language(l, delta: float, seed) -> np.ndarray:
    """Unit vector at Euclidean distance in (0, delta] from l, built by a
    random tangent step of size delta followed by renormalization.

    l has shape (..., d) with d >= 2; each row along the last axis is
    perturbed by its own draw, in order.
    """
    if not (_is_real(delta) and 0 <= delta <= 2):
        raise ValueError(f"perturbation size must lie in [0, 2], the sphere's diameter: {delta!r}")
    l = np.asarray(l, dtype=float)
    if l.ndim == 0 or l.shape[-1] < 2:
        raise ValueError("need dimension at least 2 for a tangent direction")
    norm = np.linalg.norm(l, axis=-1, keepdims=True)
    if np.any(norm == 0.0):
        raise ValueError("cannot normalize a zero vector")
    l = l / norm
    if delta == 0:
        return l
    u = np.random.default_rng(seed).standard_normal(l.shape)
    u -= np.sum(u * l, axis=-1, keepdims=True) * l
    lp = l + delta * (u / np.linalg.norm(u, axis=-1, keepdims=True))
    lp /= np.linalg.norm(lp, axis=-1, keepdims=True)
    assert np.all(np.linalg.norm(lp - l, axis=-1) <= delta + 1e-12)
    return lp
