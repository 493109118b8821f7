"""Projected gradient descent of free embeddings (or a linear encoder)
under the combined objective, on the unit sphere.

Runs are single-threaded and bitwise deterministic given the seed and
config. Clips that share their timestamps train as one stack, under one
objective (train_batch) or under several at once (train_objectives):
one objective evaluation per step for the whole stack, and each clip and
objective gets bit for bit the history of its own run.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .clip import ClipSequence, _is_count, _norms, normalize
from .gradients import objective_and_grad
from .losses import (
    DEFAULT_BB_WEIGHT,
    Bridge,
    Contrast,
    LossBreakdown,
    TieGroups,
    TnceConfig,
    _check_non_negative,
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
        _check_non_negative("learning_rate", self.learning_rate)
        if not _is_count(self.steps) or self.steps < 1:
            raise ValueError("steps must be a positive integer")
        _check_non_negative("bb_weight", self.bb_weight)
        TnceConfig(temperature=self.temperature)  # the one temperature check
        if not _is_count(self.intervals_per_step) or self.intervals_per_step < 1:
            raise ValueError("intervals_per_step must be a positive integer")
        if not isinstance(self.optimize_language, bool):
            raise ValueError("optimize_language must be true or false")


@dataclass(frozen=True)
class LinearEncoder:
    """Linear map from raw features to embeddings; outputs are always
    renormalized to the unit sphere."""

    weight: np.ndarray

    def __call__(self, features: np.ndarray) -> np.ndarray:
        z = features @ self.weight.T
        norms = np.linalg.norm(z, axis=-1, keepdims=True)
        if not norms.all():
            raise ValueError("cannot normalize a zero vector")
        return z / norms


@dataclass
class TrainHistory:
    records: list = field(default_factory=list)
    final_clip: ClipSequence | None = None


def _tangent_step(vectors: np.ndarray, grads: np.ndarray, lr: float) -> np.ndarray:
    """One descent step projected onto the sphere's tangent space, then
    renormalized."""
    if lr == 0.0:
        return vectors
    radial = (grads * vectors).sum(axis=-1, keepdims=True)
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


def _interval_draws(T: int, n: int, rngs, steps: int, shape: tuple):
    """Each step's (B, [1,] n, 2) integer array of n (start, end) intervals
    per clip, clip b's from rngs[b]: for each block of k <=
    INTERVAL_BLOCK_STEPS steps, each Generator draws the block's (k, n)
    starts in [0, T - 1) in one call, then their ends in [start + 1, T) in
    another, and step j of the block takes row j."""
    for first in range(0, steps, INTERVAL_BLOCK_STEPS):
        k, draws = min(INTERVAL_BLOCK_STEPS, steps - first), []
        for rng in rngs:
            starts = rng.integers(0, T - 1, size=(k, n))
            draws.append(np.stack([starts, rng.integers(starts + 1, T)], axis=-1))
        yield from np.stack(draws, axis=1).reshape((k, len(rngs), 1)[: len(shape) + 1] + (n, 2))


def _descend(
    clip: ClipSequence, params, embed, cfg: TrainConfig, objectives, rngs, keep_records=True
):
    """cfg.steps descent steps of B clips, which share the starting clip's
    timestamps, under each of O objectives: the combined objective (None)
    or a contrastive variant. The stack is (B, T, d) for one objective and
    (B, O, T, d) for more, and every step makes one objective_and_grad call
    for all of it. embed(params, step) returns the step's embeddings,
    language vectors and a function from their gradients (dL/dl None unless
    cfg.optimize_language) to the next params. Each step, clip b's bridge
    intervals, drawn from rngs[b] in blocks of steps, make one Bridge for
    the stack, its w times an (O, 1) column that is 1.0 on the combined
    objectives and 0.0 elsewhere, so that only they carry the bridge. The
    Contrast and, with one interval per step, the
    full-clip Bridge are built once, the records after the last step (each
    run's are empty unless keep_records). The Contrast keeps the kernel's
    working arrays, so the steps write them in place. Returns records[b][o]
    and the final params; the earliest step at which any clip and
    objective has a non-finite loss, or at which any value overflows,
    raises TrainingDiverged, which names the cause."""
    cfgs = tuple(obj or TnceConfig(temperature=cfg.temperature) for obj in objectives)
    c = replace(Contrast.of(clip.timestamps, cfgs[0] if len(cfgs) == 1 else cfgs), work={})
    lb = c.groups.lower_bound()
    bridged = np.array([[obj is None] for obj in objectives], dtype=float)  # (O, 1)

    def bridge_of(intervals=None):  # w is 0 on the objectives that carry no bridge
        b = Bridge.of(clip.timestamps, intervals)
        return Bridge(b.M, b.w * bridged)

    lam, need_language = cfg.bb_weight, cfg.optimize_language
    shape = (len(rngs),) if len(cfgs) == 1 else (len(rngs), len(cfgs))
    T, n = len(clip.timestamps), cfg.intervals_per_step
    intervals = _interval_draws(T, n, rngs, cfg.steps, shape) if bridged.any() and n > 1 else None
    bridge = bridge_of() if bridged.any() and intervals is None else None
    history = np.empty((3, *shape, cfg.steps))  # vlo, bb and total of each clip and step
    try:
        # an overflow would reach the next step as zero or NaN vectors; it raises here instead
        with np.errstate(over="raise"):
            for step in range(cfg.steps):
                part = "loss"  # the part of the step that runs: its loss or its update
                emb, lang, update = embed(params, step)
                if intervals is not None:
                    bridge = bridge_of(next(intervals))
                vlo, bb, *grads, _ = objective_and_grad(emb, lang, c, bridge, lam, need_language)
                total = vlo + lam * bb
                if not np.isfinite(total).all():  # the earliest diverging step of any run
                    raise TrainingDiverged(step)
                history[..., step] = vlo, bb, total
                part = "update"
                params = update(*grads)
    except FloatingPointError as exc:
        raise TrainingDiverged(step, f"overflow in the {part}") from exc
    runs = history.reshape(3, -1, cfg.steps).swapaxes(0, 1)  # clip-major, one run's lists at a time
    records = [
        [LossBreakdown(v, p, t, lb, v - lb) for v, p, t in zip(*h.tolist())] if keep_records else []
        for h in runs
    ]
    return [records[b : b + len(cfgs)] for b in range(0, len(records), len(cfgs))], params


def train_free(
    clip_init: ClipSequence,
    cfg: TrainConfig,
    objective: TnceConfig | None = None,
) -> TrainHistory:
    """Optimize the frame embeddings (and optionally the language embedding)
    directly. By default the combined objective is minimized; passing a
    TnceConfig trains under that contrastive variant instead, with the
    history's vlo/total fields holding its value."""
    return train_batch([clip_init], cfg, objective, [cfg.seed])[0]


def train_batch(clips, cfg: TrainConfig, objective: TnceConfig | None, seeds) -> list:
    """train_free on clips that share their timestamps, stepped as one
    (B, T, d) stack: history b equals clip b's own run with cfg.seed =
    seeds[b], unless some clip's loss diverges, which raises."""
    return [h for (h,) in train_objectives(clips, cfg, (objective,), seeds)]


def train_objectives(clips, cfg: TrainConfig, objectives, seeds, keep_records=True) -> list:
    """train_batch under every objective (None or a TnceConfig) at once:
    the clips, repeated once per objective, step as one (B, O, T, d) stack.
    histories[b][o] equals train_batch's history b under objective o, bit
    for bit, unless some clip's loss under some objective diverges, which
    raises at the earliest such step. Without keep_records the histories
    hold their final clips and no records: the stack would otherwise build
    every objective's records at once, which a comparison never reads."""
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
    O = len(objectives)
    emb = np.stack([c.embeddings for c in clips])
    lang = np.stack([c.language for c in clips])
    if O > 1:  # one copy of each clip per objective
        emb, lang = np.repeat(emb[:, None], O, axis=1), np.repeat(lang[:, None], O, axis=1)

    def embed(params, step):
        emb, lang = params
        return emb, lang, lambda g_emb, g_lang: (
            _tangent_step(emb, g_emb, cfg.learning_rate),
            _tangent_step(lang, g_lang, cfg.learning_rate) if cfg.optimize_language else lang,
        )

    rngs = [np.random.default_rng(seed) for seed in seeds]
    records, (emb, lang) = _descend(
        clips[0], (emb, lang), embed, cfg, objectives, rngs, keep_records
    )
    emb, lang = emb.reshape(len(clips), O, *emb.shape[-2:]), lang.reshape(len(clips), O, -1)
    return [
        [TrainHistory(r, c.with_embeddings(e, l)) for r, e, l in zip(runs, es, ls)]
        for runs, c, es, ls in zip(records, clips, emb, lang)
    ]


def train_encoder(features, timestamps, language, cfg: TrainConfig):
    """Descent on the weights of a linear encoder feeding the combined
    objective; the language embedding stays fixed. Returns the trained
    encoder and the per-step history. A step whose encoder maps some
    frame to zero raises TrainingDiverged."""
    features = np.asarray(features, dtype=float)
    language = normalize(language)
    _require_finite(features, language)
    _, f = features.shape
    d = language.shape[0]
    rng = np.random.default_rng(cfg.seed)
    weight = np.eye(d) if f == d else rng.standard_normal((d, f)) / np.sqrt(f)
    start = ClipSequence(timestamps, features @ weight.T, language)  # checks the inputs once

    def embed(weight, step):
        z = features @ weight.T
        norms = np.linalg.norm(z, axis=1, keepdims=True)
        if not norms.all():
            raise TrainingDiverged(step)
        emb = z / norms

        def update(gv, _):
            # dL/dz_t = (I - v v^T) / |z_t| . dL/dv_t
            gz = (gv[0] - (gv[0] * emb).sum(axis=1, keepdims=True) * emb) / norms
            return weight - cfg.learning_rate * (gz.T @ features)

        return emb[None], language[None], update

    fixed = replace(cfg, optimize_language=False)  # the language is not a parameter here
    ((records,),), weight = _descend(start, weight, embed, fixed, (None,), [rng])
    encoder = LinearEncoder(weight)
    return encoder, TrainHistory(records, start.with_embeddings(encoder(features)))


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
