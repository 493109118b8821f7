"""Deterministic toy-clip generators with known ground truth.

All randomness flows through numpy's PCG64 generator
(np.random.default_rng), so outputs are reproducible from the seed alone.
A `seed` argument is an int or a Generator, which default_rng passes
through, so a caller can draw several samples from one stream.
Frames move along great-circle arcs (slerp), which keeps them unit-norm
by construction and makes similarity curves smooth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kinds
from .clip import ClipSequence, _dots, _norms, normalize

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
        T = kinds.count("T", self.T, 2, kinds.MAX_DRAWS)
        kinds.count("completion_index", self.completion_index, 1, T)
        kinds.count("d", self.d, 2, kinds.MAX_DRAWS)
        kinds.SEED.check("seed", self.seed)
        if self.tail_mode not in TAIL_MODES:
            raise ValueError(f"unknown tail mode {self.tail_mode!r}")
        kinds.NON_NEGATIVE.check("noise_sigma", self.noise_sigma)


@dataclass(frozen=True)
class GroundTruth:
    completion_index: int
    progress: tuple


def slerp(a: np.ndarray, b: np.ndarray, t) -> np.ndarray:
    """Great-circle interpolation between unit vectors a (t=0) and b (t=1):
    one vector for a float t, one row per time for an array of times, each
    a finite real (it extrapolates outside [0, 1]), else ValueError."""
    t = np.asarray(kinds.FINITE.check("t", t), dtype=float)[..., None]
    omega = np.arccos(float(np.clip(np.dot(a, b), -1.0, 1.0)))
    if omega < 1e-12:
        return np.broadcast_to(a, t.shape[:-1] + a.shape).copy()
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
    c, n_tail = spec.completion_index, spec.T - spec.completion_index
    progress = np.arange(c) / (c - 1) if c > 1 else np.ones(1)
    held = np.minimum(np.arange(spec.T), c - 1)  # held tails repeat frame c; tails have progress 1
    emb = slerp(start, language, progress)
    if n_tail and spec.tail_mode in ("drift-away", "second-action"):
        if spec.tail_mode == "drift-away":
            # pure tangent direction: similarity decays from 1 toward 0
            w = _random_unit(rng, spec.d)
            w = normalize(w - (w @ language) * language)
        else:
            w = _unit_away_from(rng, language)
        emb = np.vstack([emb, slerp(language, w, np.arange(1, n_tail + 1) / n_tail)])
    elif spec.tail_mode == "none":  # holds the target, each frame with its own noise
        emb = emb[held]
    if spec.noise_sigma > 0:
        emb = normalize(emb + spec.noise_sigma * rng.standard_normal(emb.shape))
    if spec.tail_mode == "frozen":  # repeats the completion frame, noise and all
        emb = emb[held]
    clip = ClipSequence(tuple(range(spec.T)), emb, language)
    return clip, GroundTruth(completion_index=c, progress=tuple(progress[held].tolist()))


def random_units(shape, seed) -> np.ndarray:
    """Random unit vectors along the last axis of `shape`, a tuple of
    integers in [0, kinds.MAX_DRAWS] whose last is at least 2, as
    ClipSequence requires, else ValueError."""
    if not (isinstance(shape, tuple) and shape and all(map(kinds.INTEGER.test, shape))
            and 0 <= min(shape) and max(shape) <= kinds.MAX_DRAWS and shape[-1] >= 2):
        raise ValueError(f"shape must be a tuple of integers of at most {kinds.MAX_DRAWS}, "
                         f"the last at least 2, got {shape!r}")
    v = kinds.generator(seed).standard_normal(shape)
    v /= np.sqrt(_dots(v, v))[..., None]
    return v


def random_clip(T: int, d: int, rng) -> ClipSequence:
    """Clip with random unit embeddings and random strictly increasing
    integer timestamps (gaps in [1, MAX_GAP]), drawn in that order: the
    T - 1 gaps, then (T, d) standard normals for the frames and (d,) for
    the language; the frames are scaled by _norms, the language by normalize.
    T and d are integers of at least 2 and at most kinds.MAX_DRAWS, else
    ValueError before any draw."""
    T, d = kinds.count("T", T, 2, kinds.MAX_DRAWS), kinds.count("d", d, 2, kinds.MAX_DRAWS)
    ts = (0, *np.cumsum(rng.integers(1, MAX_GAP + 1, size=T - 1)).tolist())
    frames = rng.standard_normal((T, d))
    return ClipSequence(ts, frames / _norms(frames)[:, None], normalize(rng.standard_normal(d)))


def sample_bridge(v_start, v_end, t_start: int, t_end: int, seed) -> np.ndarray:
    """Draw one vector per integer time in [t_start, t_end]: endpoints
    exactly, interior points from the bridge's per-time Gaussian marginal
    (independent coordinates, variance (t-t0)(t1-t)/(t1-t0)).

    v_start and v_end have shapes (..., d) that broadcast; the result has
    shape (..., t_end - t_start + 1, d), one path per leading index, drawn
    in turn, each interior point sqrt(var) z + mean written into it. The
    times are integers, 0 <= t_start < t_end <= kinds.MAX_DRAWS, else ValueError.
    """
    t_start = kinds.count("t_start", t_start, 0)
    t_end = kinds.count("t_end", t_end, t_start + 1, kinds.MAX_DRAWS)
    v_start = np.asarray(v_start, dtype=float)[..., None, :]
    v_end = np.asarray(v_end, dtype=float)[..., None, :]
    length = t_end - t_start
    t = np.arange(t_start + 1, t_end)[:, None]
    mean = v_start + (t - t_start) / length * (v_end - v_start)
    var = (t - t_start) * (t_end - t) / length
    z = kinds.generator(seed).standard_normal(mean.shape)
    z *= np.sqrt(var)
    paths = np.empty(mean.shape[:-2] + (length + 1, mean.shape[-1]))
    np.add(z, mean, out=paths[..., 1:-1, :])
    paths[..., :1, :], paths[..., -1:, :] = v_start, v_end
    return paths


def perturb_language(l, delta: float, seed) -> np.ndarray:
    """Unit vector at Euclidean distance in [0, delta] from l, up to rounding
    (0 for delta = 0, and it can round to 0 for a delta far below 1e-16),
    built by a random tangent step of size delta followed by renormalization.

    l has shape (..., d) with d >= 2 and rows of finite non-zero norm, else
    ValueError; each row along the last axis is perturbed by its own draw,
    in order, and a broadcast view gives the bits of its copy.
    """
    if kinds.NON_NEGATIVE.check("delta", delta) > 2:
        raise ValueError(f"delta must be at most 2, the sphere's diameter, got {delta!r}")
    l = np.asarray(l, dtype=float)
    kinds.count("dimension", l.shape[-1] if l.ndim else 0, 2)  # a tangent direction needs 2
    norm = np.sqrt(_dots(l, l))[..., None]
    if not np.all(np.isfinite(norm) & (norm > 0.0)):
        raise ValueError("language vectors must be finite, of finite non-zero norm")
    l = l / norm
    if delta == 0:
        return l
    u = kinds.generator(seed).standard_normal(l.shape)
    u -= _dots(u, l)[..., None] * l
    lp = l + delta * (u / np.sqrt(_dots(u, u))[..., None])
    lp /= np.sqrt(_dots(lp, lp))[..., None]
    if not np.all(np.sqrt(_dots(lp - l, lp - l)) <= delta + 1e-12):  # not stripped by python -O
        raise RuntimeError(f"a perturbation left the ball of radius {delta!r} around l")
    return lp
