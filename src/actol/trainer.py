"""Projected gradient descent of free embeddings (or a linear encoder)
under the combined objective, on the unit sphere.

Runs are single-threaded and bitwise deterministic given the seed and
config. Clips that share their timestamps train as one stack under one
objective or several at once (train_objectives): one objective
evaluation per step for the whole stack, and each clip and objective
gets bit for bit the history of its own run.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

import numpy as np

from . import kinds
from .clip import ClipSequence, _norms, normalize
from .gradients import Step
from .losses import (
    DEFAULT_BB_WEIGHT,
    Bridge,
    Contrast,
    LossBreakdown,
    TieGroups,
    TnceConfig,
)


class TrainingDiverged(RuntimeError):
    """Raised when the loss becomes non-finite, or a value overflows in a
    step's loss or its update; carries the step index, and the message
    says which happened."""

    def __init__(self, step: int, cause: str = "non-finite loss"):
        super().__init__(f"{cause} at step {step}")
        self.step = step


# Each seed draws the local bridge intervals of this many steps at a time
# (see _interval_draws), which bounds their memory at any step count.
INTERVAL_BLOCK_STEPS = 64


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
        kinds.NON_NEGATIVE.check("learning_rate", self.learning_rate)
        kinds.count("steps", self.steps)
        kinds.NON_NEGATIVE.check("bb_weight", self.bb_weight)
        kinds.POSITIVE.check("temperature", self.temperature)
        kinds.SEED.check("seed", self.seed)
        kinds.BOOLEAN.check("optimize_language", self.optimize_language)
        kinds.count("intervals_per_step", self.intervals_per_step)


@dataclass(frozen=True)
class LinearEncoder:
    """Linear map from raw features to embeddings; outputs are always
    renormalized to the unit sphere."""

    weight: np.ndarray

    def __call__(self, features: np.ndarray) -> np.ndarray:
        z = features @ self.weight.T
        norms = _norms(z)[..., None]
        if not norms.all():
            raise ValueError("cannot normalize a zero vector")
        return z / norms


@dataclass
class TrainHistory:
    """A run's result: losses, its (3, steps) vlo, bb and total per step (a
    view of the array its descent wrote), the ordering loss's lower bound
    and the final clip. records builds a LossBreakdown per step on each
    read."""

    losses: np.ndarray
    lower_bound: float
    final_clip: ClipSequence

    @property
    def records(self) -> list:
        lb = self.lower_bound
        return [LossBreakdown(v, p, t, lb, v - lb) for v, p, t in zip(*self.losses.tolist())]


def _tangent_step(vectors: np.ndarray, grads: np.ndarray, lr: float) -> np.ndarray:
    """One descent step projected onto the sphere's tangent space, then
    renormalized."""
    if lr == 0.0:
        return vectors
    radial = np.add.reduce(grads * vectors, axis=-1, keepdims=True)
    stepped = np.multiply(radial, vectors)  # the tangent, then the step, in one array
    np.subtract(grads, stepped, out=stepped)
    np.multiply(lr, stepped, out=stepped)
    np.subtract(vectors, stepped, out=stepped)
    return np.divide(stepped, _norms(stepped)[..., None], out=stepped)


def _require_finite(*arrays) -> None:
    """Raise TrainingDiverged(0) on a non-finite starting point, before the
    first objective evaluation computes with it."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise TrainingDiverged(0)


def _interval_draws(T: int, n: int, rngs, steps: int):
    """Each step's (B, 1, n, 2) integer array of n (start, end) intervals
    per clip, clip b's from rngs[b], for every objective: for each block of
    k <= INTERVAL_BLOCK_STEPS steps, each Generator draws the block's (k, n)
    starts in [0, T - 1) in one call, then their ends in [start + 1, T) in
    another, and step j of the block takes row j."""
    for first in range(0, steps, INTERVAL_BLOCK_STEPS):
        k, draws = min(INTERVAL_BLOCK_STEPS, steps - first), []
        for rng in rngs:
            starts = rng.integers(0, T - 1, size=(k, n))
            draws.append(np.stack([starts, rng.integers(starts + 1, T)], axis=-1))
        yield from np.stack(draws, axis=1)[:, :, None]


def _descend(clip: ClipSequence, params, embed, cfg: TrainConfig, objectives, rngs):
    """cfg.steps descent steps of B clips, which share the starting clip's
    timestamps, under each of O >= 1 objectives: the combined objective
    (None) or a contrastive variant, as one (B, O, T, d) stack on the
    Contrast of the O configs. embed(params, step) returns the step's
    embeddings, language vectors and a function from their gradients (dL/dl
    None unless cfg.optimize_language) to the next params. Each step, clip
    b's bridge intervals, drawn from rngs[b] in blocks of steps, make one
    Bridge for the stack, its w times an (O, 1) column that is 1.0 on the
    combined objectives and 0.0 elsewhere, so that only they carry it. Built
    once: the Contrast, which gives the lower bound; the Step that each step
    calls once, whose views own the kernel's arrays, with no kink test (no
    step reads at_kink); and, with one interval per step, the full-clip
    Bridge. Each step writes its vlo, bb and total in place.
    Returns the (B, O, 3, steps) history, the lower bound and the final
    params; the earliest step at which any clip and objective has a
    non-finite loss, or at which any value overflows, raises
    TrainingDiverged, which names the cause."""
    cfgs = tuple(obj or TnceConfig(temperature=cfg.temperature) for obj in objectives)
    c = Contrast.of(clip.timestamps, cfgs)
    bridged = np.array([[obj is None] for obj in objectives], dtype=float)  # (O, 1)

    def bridge_of(intervals=None):  # w is 0 on the objectives that carry no bridge
        b = Bridge.of(clip.timestamps, intervals)
        return Bridge(b.M, b.w * bridged)

    lam = cfg.bb_weight
    evaluate = Step(c, lam, cfg.optimize_language, need_kink=False)  # no step reads at_kink
    T, n = len(clip.timestamps), cfg.intervals_per_step
    intervals = _interval_draws(T, n, rngs, cfg.steps) if bridged.any() and n > 1 else None
    bridge = bridge_of() if bridged.any() and intervals is None else None
    history = np.empty((len(rngs), len(cfgs), 3, cfg.steps))  # each run's vlo, bb and total
    try:
        # an overflow would reach the next step as zero or NaN vectors; it raises here instead
        with np.errstate(over="raise"):
            for step in range(cfg.steps):
                part = "loss"  # the part of the step that runs: its loss or its update
                emb, lang, update = embed(params, step)
                if intervals is not None:
                    bridge = bridge_of(next(intervals))
                vlo, bb, *grads, _ = evaluate(emb, lang, bridge)
                total = np.add(vlo, lam * bb, out=history[..., 2, step])
                if not np.isfinite(total).all():  # the earliest diverging step of any run
                    raise TrainingDiverged(step)
                history[..., 0, step], history[..., 1, step] = vlo, bb
                part = "update"
                params = update(*grads)
    except FloatingPointError as exc:
        raise TrainingDiverged(step, f"overflow in the {part}") from exc
    return history, c.lower_bound, params


def train_free(
    clip_init: ClipSequence,
    cfg: TrainConfig,
    objective: TnceConfig | None = None,
) -> TrainHistory:
    """Optimize the frame embeddings (and optionally the language embedding)
    directly. By default the combined objective is minimized; passing a
    TnceConfig trains under that contrastive variant instead, with the
    history's vlo/total fields holding its value."""
    return train_objectives([clip_init], cfg, (objective,), [cfg.seed])[0][0]


def train_objectives(clips, cfg: TrainConfig, objectives, seeds) -> list:
    """train_free on clips that share their timestamps under every
    objective (None or a TnceConfig) at once: the clips, repeated once per
    objective, step as one (B, O, T, d) stack. histories[b][o] equals clip
    b's own train_free run under objective o with cfg.seed = seeds[b], bit
    for bit, unless some clip's loss under some objective diverges, which
    raises at the earliest such step."""
    if not clips:
        raise ValueError("need at least one clip")
    if not objectives:
        raise ValueError("need at least one objective")
    if any(clip.timestamps != clips[0].timestamps for clip in clips):
        raise ValueError("clips in a batch must share their timestamps")
    if len(seeds) != len(clips):
        raise ValueError("a batch needs one seed per clip")
    _require_finite(*(a for clip in clips for a in (clip.embeddings, clip.language)))
    clips = [clip.normalized() for clip in clips]
    # one copy of each clip per objective
    emb = np.repeat(np.stack([c.embeddings for c in clips])[:, None], len(objectives), axis=1)
    lang = np.repeat(np.stack([c.language for c in clips])[:, None], len(objectives), axis=1)

    def embed(params, step):
        emb, lang = params
        return emb, lang, lambda g_emb, g_lang: (
            _tangent_step(emb, g_emb, cfg.learning_rate),
            _tangent_step(lang, g_lang, cfg.learning_rate) if cfg.optimize_language else lang,
        )

    rngs = [kinds.generator(seed) for seed in seeds]
    history, lb, (emb, lang) = _descend(clips[0], (emb, lang), embed, cfg, objectives, rngs)
    return [
        [TrainHistory(h, lb, c.with_embeddings(e, l)) for h, e, l in zip(runs, es, ls)]
        for runs, c, es, ls in zip(history, clips, emb, lang)
    ]


def train_encoder(features, timestamps, language, cfg: TrainConfig):
    """Descent on the weights of a linear encoder feeding the combined
    objective; the language embedding stays fixed. Returns the trained
    encoder and the per-step history. A step whose encoder maps some
    frame to zero raises TrainingDiverged."""
    features = np.asarray(features, dtype=float)
    language = normalize(language)[None]  # one array for every step: its norm is taken once
    _require_finite(features, language)
    _, f = features.shape
    d = language.shape[1]
    rng = np.random.default_rng(cfg.seed)
    weight = np.eye(d) if f == d else rng.standard_normal((d, f)) / np.sqrt(f)
    start = ClipSequence(timestamps, features @ weight.T, language[0])  # checks the inputs once

    def embed(weight, step):
        z = features @ weight.T
        norms = _norms(z)[:, None]
        if not norms.all():
            raise TrainingDiverged(step)
        emb = z / norms

        def update(gv, _):
            # dL/dz_t = (I - v v^T) / |z_t| . dL/dv_t
            gz = (gv[0, 0] - (gv[0, 0] * emb).sum(axis=1, keepdims=True) * emb) / norms
            return weight - cfg.learning_rate * (gz.T @ features)

        return emb[None, None], language, update  # a (1, 1, T, d) stack

    fixed = replace(cfg, optimize_language=False)  # the language is not a parameter here
    ((losses,),), lb, weight = _descend(start, weight, embed, fixed, (None,), [rng])
    encoder = LinearEncoder(weight)
    return encoder, TrainHistory(losses, lb, start.with_embeddings(encoder(features)))


def measure_delta(clip: ClipSequence, temperature: float = 1.0):
    """Smallest delta in (0, 1) for which the ordering property holds over
    all (anchor, j, k) triples on the temperature-scaled alignment scores:
    equal-distance score gaps below delta, ordered pairs separated by more
    than 1/delta. Returns None when no delta < 1 works; with no triples
    (T = 2) the property is vacuous and the smallest positive normal float
    is returned by convention. O(T^2) memory: rounding is monotone, so a
    group's max minus min is its largest gap, and a score minus the largest
    score before its group its smallest margin."""
    kinds.POSITIVE.check("temperature", temperature)
    groups = TieGroups.of(clip.timestamps)
    s, start, pos = clip.similarities(), groups.start, np.arange(clip.T - 1)
    # x[i, p]: anchor i's score for the frame at its sorted position p
    x = np.abs(s[:, None] - s[groups.order]) / -temperature
    firsts = np.flatnonzero(start == pos)  # each row starts a group, so none spans two
    tied, farther = np.diff(firsts, append=x.size) > 1, start > 0
    if not tied.any() and not farther.any():
        return sys.float_info.min
    gaps = np.maximum.reduceat(x.ravel(), firsts) - np.minimum.reduceat(x.ravel(), firsts)
    max_gap = gaps[tied].max(initial=-np.inf)  # its candidate is then negative and dropped
    before = np.take_along_axis(np.maximum.accumulate(x, axis=-1), start - 1, axis=-1)
    min_margin = (x - before)[farther].min(initial=np.inf)
    if min_margin <= 0:
        return None

    # a margin m > min_margin gives a candidate nextafter(1 / m) <= nextafter(r), and of those
    # below it only r = 1 / min_margin can pass: it is a candidate if some 1 / m is just below it
    r = 1.0 / min_margin
    candidates = np.r_[0.01 * np.arange(1, 100), np.nextafter([r, max_gap], 1.0), r]
    with np.errstate(over="ignore"):  # 1 / a subnormal candidate is inf
        ok = (0 < candidates) & (candidates < 1) & (max_gap < candidates)
        ok &= min_margin > 1.0 / candidates
    if ok[-1] and candidates[:-1][ok[:-1]].min(initial=np.inf) > r:  # anchor by anchor: O(T^2)
        ok[-1] = any((np.nextafter(1.0 / (row[:, None] - row)[pos < first[:, None]], 1.0) == r)
                     .any() for row, first in zip(x, start))
    return float(candidates[ok].min()) if ok.any() else None
