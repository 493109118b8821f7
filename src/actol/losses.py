"""Loss functions over clips: ordering loss, Brownian-bridge penalty,
their weighted combination, the configurable time-contrastive family,
and the combinatorial lower bound of the ordering loss.

TieGroups owns what the timestamps determine (the sort, the distance
levels, the negative sets and the lower bound), of which a Contrast keeps
only the kernel's indices and the bound, and Bridge the bridge
penalty over any intervals, shared by every clip or each clip's own, with
each interval's interpolant and variance built in; Bridge.of checks
intervals against the clip.

Every contrastive objective here is one masked softmax: for anchor i, the
negatives of a positive frame j are a prefix of the other frames sorted by
descending temporal distance (ties kept together). The sort costs O(T^2
log T) and is made once per training run, in Contrast.of. A step gathers
its scores straight into that order (_sorted_scores), and
`_sorted_softmax` evaluates every term in O(T^2) time and memory per call:
as cumulative sums of exp(score / temperature) while a static range guard
holds (span / temperature + log T < EXP_RANGE), and as log-space
accumulations below it. Scores reach it only in that order: a supplied
(T, T) score matrix is gathered into it once, in vlo_loss_on_scores.
TieGroups.of and Contrast.of also take an (N, T) stack of timestamp rows
of one length, so that clips with their own timestamps are sorted, and
evaluated, in one call per stack; a signed integer array stack is checked
in one vectorized pass. Callers that stack many small evaluations into one
kernel call (theory's lower-bound check, gradients' finite-difference
oracle) size each stack to BLOCK_SCORES scores with _stack_size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kinds
from .clip import ClipSequence, _cosines

DEFAULT_BB_WEIGHT = 0.1
KINK_TOL = 1e-12  # a similarity difference below it sits on the score's kink
# exp(x) is a finite, normal double for |x| < 708
EXP_RANGE = 700.0
# Score budget of one stacked kernel call (see _stack_size), which bounds
# its memory whatever the clip length. On the README lower-bound
# population, stacks of a few thousand scores ran fastest; larger ones ran
# slower, and at 8192 to 16384 the lower-bound check's traced peak grew
# from 1.7 MB to 2.2-2.8 MB. The gradient oracle's 16 points of a clip
# hold 576 scores at the README gradcheck's T=6, so 7 clips share a call.
BLOCK_SCORES = 4096


@dataclass(frozen=True)
class LossBreakdown:
    vlo: float
    bb: float
    total: float
    lower_bound: float
    gap: float


@dataclass(frozen=True)
class BridgeInterval:
    """Index pair (positions in a clip) delimiting a bridge: integers
    0 <= start < end, else ValueError; Bridge.of checks end < T."""

    start: int
    end: int

    def __post_init__(self):
        kinds.count("end", self.end, kinds.count("start", self.start, 0) + 1)


@dataclass(frozen=True)
class TnceConfig:
    """Selector slots of the unified time-contrastive objective.

    positive_selector: 'last-frame' (goal frame), 'future-frame'
    (later-frame pairs), or 'vlo-pair' (all ordered pairs; reduces to
    vlo_loss, and requires difference-score). negative_selector:
    'other-frames' or 'farther-frames'. score: 'direct-sim' or
    'difference-score'.
    """

    positive_selector: str = "vlo-pair"
    negative_selector: str = "farther-frames"
    score: str = "difference-score"
    temperature: float = 1.0

    def __post_init__(self):
        if self.positive_selector not in ("last-frame", "future-frame", "vlo-pair"):
            raise ValueError(f"unknown positive selector {self.positive_selector!r}")
        if self.negative_selector not in ("other-frames", "farther-frames"):
            raise ValueError(f"unknown negative selector {self.negative_selector!r}")
        if self.score not in ("direct-sim", "difference-score"):
            raise ValueError(f"unknown score {self.score!r}")
        if self.positive_selector == "vlo-pair" and self.score != "difference-score":
            raise ValueError("vlo-pair positives require difference-score")
        kinds.POSITIVE.check("temperature", self.temperature)


@dataclass(frozen=True, eq=False)
class TieGroups:
    """Each anchor's other frames, sorted by descending temporal distance
    (stable) and cut into groups of equal distance. Depends only on the
    timestamps, which it checks, so a training run builds it once.

    Arrays are (T, T-1), indexed by anchor and sorted position p:
    order[i, p] is the frame there, distances[i, p] its distance from i,
    start[i, p] and end[i, p] the first and last positions of its group.
    Built from an (N, T) stack of timestamp rows of one length, they are
    (N, T, T-1), one such block per row.
    """

    order: np.ndarray
    distances: np.ndarray
    start: np.ndarray
    end: np.ndarray

    @classmethod
    def of(cls, timestamps) -> "TieGroups":
        """Groups of one timestamp row (T,) or of each row of an (N, T)
        stack, checked by kinds.timestamp_rows: one sort. A caller that
        needs them besides a Contrast passes them to Contrast.of, which
        then sorts nothing."""
        ts = kinds.timestamp_rows(timestamps)
        T = ts.shape[-1]
        d = np.abs(ts[..., :, None] - ts[..., None, :])
        r = np.arange(T)
        d[..., r, r] = -1  # the anchor sorts last and is dropped
        order = np.ascontiguousarray(np.argsort(-d, axis=-1, kind="stable")[..., :-1])
        dist = np.take_along_axis(d, order, axis=-1)
        pos = np.broadcast_to(np.arange(T - 1), dist.shape)
        first = np.ones(dist.shape, dtype=bool)
        first[..., 1:] = dist[..., 1:] != dist[..., :-1]
        last = np.ones(dist.shape, dtype=bool)
        last[..., :-1] = first[..., 1:]
        start = np.maximum.accumulate(np.where(first, pos, 0), axis=-1)
        end = np.minimum.accumulate(np.where(last, pos, T - 2)[..., ::-1], axis=-1)[..., ::-1]
        return cls(order, dist, start, end)

    def sizes(self) -> np.ndarray:
        """Size of the group each sorted position belongs to."""
        return self.end - self.start + 1

    def lower_bound(self):
        """Mean log group size over ordered pairs: the combinatorial
        minimum of the ordering loss. A float, or an (N,) array for a stack."""
        T = self.order.shape[-2]
        logs = np.log(self.sizes()).reshape(*self.order.shape[:-2], -1)
        bound = logs.sum(axis=-1) / (T * (T - 1))  # over T (T - 1) pairs
        return float(bound) if bound.ndim == 0 else bound


@dataclass(frozen=True, eq=False)
class Contrast:
    """A contrastive objective at fixed timestamps and what its kernel needs
    of them, built once per training run: the ordering loss's lower bound
    whatever the selectors, the positives in each anchor's sorted order as
    the kernel's floats (1.0 when every position holds a term, else a 0/1
    array), and flat indices of the sorted positions' frames in (T,)
    similarities (s_at), and of the end and start of each negative group in
    a (T, T-1) array. Under 'other-frames' all other frames form one group.

    Built from an (N, T) stack of timestamp rows, the bound is (N,), the
    masks and indices are (N, T, T-1) and the flat indices address (N, T)
    and (N, T, T-1) arrays, so the kernel evaluates clip n of the stack on
    slice n of (B, N, T) similarities. Built from one timestamp row and a
    tuple of O configs, row o of the same layout is config o. For each of R
    configs (O, or 1 for a bare one), the temperature tau, the gradient
    scale n_terms * tau and the positive-term count per clip n_terms are
    (R, 1, 1), (R, 1, 1) and (R,) arrays. linear holds each config's range
    guard on cosine scores (see _sorted_softmax), and score the score kind
    all configs share, or None when they mix kinds; difference then masks
    the (O, 1, 1) rows that score by difference. others is the bool mask
    of the sorted positions that hold no term, or None when every position
    holds one. A Contrast holds run constants only; the kernel's working
    arrays are a Views'."""

    lower_bound: float | np.ndarray
    positives: float | np.ndarray
    n_terms: np.ndarray
    s_at: np.ndarray
    end_at: np.ndarray
    start_at: np.ndarray
    tau: np.ndarray
    scale: np.ndarray
    linear: tuple
    score: str | None
    difference: np.ndarray | None = None
    others: np.ndarray | None = None

    @classmethod
    def of(cls, timestamps, cfg) -> "Contrast":
        """The Contrast of cfg, a TnceConfig, at one timestamp row or an
        (N, T) stack; or of each config of a tuple at one timestamp row.
        timestamps may be their TieGroups, which is used as it is."""
        groups = timestamps if isinstance(timestamps, TieGroups) else TieGroups.of(timestamps)
        one = isinstance(cfg, TnceConfig)
        if not one and (groups.order.ndim != 2 or not cfg):
            raise ValueError("a tuple of configs needs one timestamp row and one config or more")
        cfgs = (cfg,) if one else tuple(cfg)
        k = groups.order  # k excludes the anchor i itself
        T = k.shape[-2]
        i = np.arange(T)[:, None]

        def masks(cfg):  # only the selected positive mask is built
            pos = {"vlo-pair": lambda: k >= 0, "last-frame": lambda: k == T - 1,
                   "future-frame": lambda: k > i}[cfg.positive_selector]()
            if cfg.negative_selector == "other-frames":
                return pos, np.full_like(k, T - 2), np.zeros_like(k)
            return pos, groups.end, groups.start

        pos, end, start = masks(cfg) if one else map(np.stack, zip(*map(masks, cfgs)))
        n = np.arange(pos.size // (T * (T - 1))).reshape(pos.shape[:-2] + (1, 1))  # stack row
        row = (n * T + i) * (T - 1)
        # for one row s_at is the contiguous order itself, by which a gather copies no indices
        s_at = k.reshape(pos.shape) if n.size == 1 else n * T + k
        others = None if pos.all() else ~pos
        # each config's count on its first clip, the same for every clip of length T
        n_terms = np.count_nonzero(pos.reshape(len(cfgs), -1, T * (T - 1))[:, 0], axis=1)
        tau = np.array([c.temperature for c in cfgs], dtype=float)[:, None, None]
        scores = [c.score for c in cfgs]
        score = scores[0] if len(set(scores)) == 1 else None
        difference = None if score else (np.array(scores) == "difference-score")[:, None, None]
        return cls(groups.lower_bound(), 1.0 if others is None else pos.astype(float), n_terms,
                   s_at, row + end, row + start, tau, n_terms[:, None, None] * tau,
                   _in_range(tau, T), score, difference, others)


def _stack_size(scores_per_item: int) -> int:
    """How many items of scores_per_item scores each fill one stacked
    kernel call: up to BLOCK_SCORES scores, and at least one item."""
    return max(1, BLOCK_SCORES // scores_per_item)


def _in_range(tau, T: int, span: float = 2.0) -> tuple:
    """Each temperature's range guard at T frames: span / tau + log T < EXP_RANGE."""
    return tuple(span / t + math.log(T) < EXP_RANGE for t in tau.ravel().tolist())


class Views:
    """What the kernel reads of a Contrast c at B stack slices, each made on
    first use and then kept: its working arrays, made zero-filled, and their
    flat and reversed views, the signed temperature (-tau on rows that score
    by difference, scored, and tau on direct-sim rows) and the batch offset
    index at. A Views is the only owner of its arrays: a run's Step keeps
    one, so a warm step makes no array and no view, and one made for a
    single call makes only the arrays it writes."""

    x, diff, e, acc, C, x_lin, log_terms, lse, log_tail = (
        cached_property(lambda v: np.zeros(v.shape)) for _ in range(9))
    close = cached_property(lambda v: np.zeros(v.shape, bool))
    first = cached_property(lambda v: np.zeros(v.shape[:-1] + (1,)))
    language = cached_property(lambda v: np.zeros(v.shape[:-1] + (v.d,)))
    acc_flat, C_flat, log_flat, lse_flat = (cached_property(
        lambda v, n=n: getattr(v, n).reshape(v.B, -1)) for n in ("acc", "C", "log_terms", "lse"))
    acc_rows, log_rows = (cached_property(lambda v, n=n: getattr(v, n).reshape(
        *v.shape[:-2], -1)) for n in ("acc", "log_terms"))  # each row's terms, for its mean
    tail, lse_tail = cached_property(lambda v: v.C[..., ::-1]), cached_property(
        lambda v: v.lse[..., ::-1])
    scored = cached_property(lambda v: v.c.score != "direct-sim" if v.c.score else v.c.difference)
    scored_rows = cached_property(lambda v: v.scored if v.c.score else v.scored[..., 0])
    signed_tau = cached_property(lambda v: np.where(v.scored, -v.c.tau, v.c.tau))

    def __init__(self, c: Contrast, B: int, d: int = 0):
        self.c, self.B, self.d, self.shape = c, B, d, (B, *c.s_at.shape)

    @cached_property
    def at(self) -> np.ndarray:  # each sorted position's flat frame in (B, ...) similarities
        s_at, n = self.c.s_at.reshape(-1), self.c.s_at.size // self.c.s_at.shape[-1]
        return s_at if self.B == 1 else (np.arange(0, self.B * n, n)[:, None] + s_at).reshape(-1)


def _sorted_softmax(x, c, need_grad: bool, span: float | None = None):
    """For each slice b of scores x, divided by their temperature, in each
    anchor's sorted order, (B, ..., T, T-1) as c.s_at lays them out, the
    mean over positive pairs (i, j) of the contrastive cross-entropy -x_ij
    + log sum_k exp(x_ik), where k runs over j's group and every group
    before it in anchor i's order. Returns the values and the weights, with
    weights[b, ..., i, p] = d value_b / d score at sorted position p, or
    (values, None) when need_grad is false. For a Contrast of an (N, T)
    timestamp stack, x is (B, N, T, T-1) and the values (B, N), one per
    clip as from its own Contrast; for a Contrast of O configs they are
    (B, O, T, T-1) and (B, O), one per config. c is a Contrast or its
    Views. span bounds the spread (max - min) of every anchor's unscaled
    scores; None is any cosine score's 2, whose guard c holds.

    Every log-sum-exp is a cumulative sum along each anchor's sorted row,
    read at the end of each group. The gradient weight of frame k sums
    exp(x_ik - lse_j) over the positives j whose negative set holds k,
    which is a reverse cumulative sum read at the start of k's group.
    Both are O(T^2) per slice, given the sort Contrast.of made once. While
    span / temperature + log T < EXP_RANGE they run in linear space
    (_exp_cumsum, one exp and one log); otherwise in log space
    (_log_accumulate). If the guard holds for some configs of a stack and
    not for others, both paths run on the whole stack, each config keeping
    its side. x is overwritten, and the weights are a kept array of the Views."""
    v = c if isinstance(c, Views) else Views(c, len(x))
    c = v.c
    linear = c.linear if span is None else _in_range(c.tau, x.shape[-2], span)
    if any(linear) == all(linear):
        terms, weights = (_exp_cumsum if linear[0] else _log_accumulate)(x, v, need_grad)
    else:
        off = ~np.array(linear)[:, None, None]  # the log side; zeros keep it from overflow
        np.copyto(v.x_lin, x)
        np.copyto(v.x_lin, 0.0, where=off)
        terms, weights = _exp_cumsum(v.x_lin, v, need_grad)
        log_terms, log_weights = _log_accumulate(x, v, need_grad)
        np.copyto(terms, log_terms, where=off[..., 0])
        if need_grad:
            np.copyto(weights, log_weights, where=off)
    value = np.add.reduce(terms, axis=-1) / c.n_terms
    if not need_grad:
        return value, None
    np.subtract(weights, c.positives, out=weights)
    return value, np.divide(weights, c.scale, out=weights)


def _exp_cumsum(x, v: Views, need_grad: bool):
    """_sorted_softmax's (per-pair terms as each row's (B, ..., T (T-1))
    values, gradient weights or None) of the sorted, scaled scores x, in
    linear space: one exp and one log. Each row is shifted by its first
    score, so a first group of one frame gives exactly 0. Under the guard
    span / temperature + log T < EXP_RANGE, every exp(x) and cumulative sum
    C lies in [e^-EXP_RANGE, e^EXP_RANGE]: normal and finite. x and each
    array of the Views v are written in place once their values are spent."""
    c = v.c
    v.first[...] = x[..., :1]  # a kept copy: no input may overlap the output
    np.subtract(x, v.first, out=x)
    e = np.exp(x, out=v.e)
    np.add.accumulate(e, axis=-1, out=v.acc)
    C = v.acc_flat.take(c.end_at, axis=1, out=v.C, mode="clip")
    terms = np.subtract(np.log(C, out=v.acc), x, out=v.acc)
    if c.others is not None:
        np.copyto(terms, 0.0, where=c.others)
    if not need_grad:
        return v.acc_rows, None
    np.divide(c.positives, C, out=C)
    np.add.accumulate(v.tail, axis=-1, out=v.tail)
    e *= v.C_flat.take(c.start_at, axis=1, out=x, mode="clip")
    return v.acc_rows, e


@np.errstate(invalid="ignore")  # a NaN score gives NaN values, silently as in _exp_cumsum
def _log_accumulate(x, v: Views, need_grad: bool):
    """_exp_cumsum in log space, for scores of any range. x is overwritten
    by the weights, and its other arrays are not _exp_cumsum's, so that
    both paths can run on one stack."""
    c = v.c
    acc = np.logaddexp.accumulate(x, axis=-1, out=v.log_terms)
    lse = v.log_flat.take(c.end_at, axis=1, out=v.lse, mode="clip")
    terms = np.subtract(lse, x, out=acc)
    if c.others is not None:
        np.copyto(terms, 0.0, where=c.others)
    if not need_grad:
        return v.log_rows, None
    tail = np.negative(lse, out=lse)
    if c.others is not None:
        np.copyto(tail, -np.inf, where=c.others)
    np.logaddexp.accumulate(v.lse_tail, axis=-1, out=v.lse_tail)
    x += v.lse_flat.take(c.start_at, axis=1, out=v.log_tail, mode="clip")
    return v.log_rows, np.exp(x, out=x)


def _sorted_scores(s, c, need_diff: bool, kink: bool = False):
    """(x, s_i - s_k or None) of (B, ..., T) similarities: x holds each
    anchor's scores in its sorted order, laid out as c.s_at, from one
    gather of s, each divided by its config's temperature: |s_i - s_k| /
    -tau, bit for bit -|s_i - s_k| / tau, for 'difference-score' and s_k /
    tau for 'direct-sim'. s_i - s_k is kept in the same order for the chain
    rule when need_diff and some config scores by difference; with kink,
    the Views' close gets |s_i - s_k| < KINK_TOL (meaningless on direct-sim
    rows). c is a Contrast or its Views, whose arrays x and s_i - s_k are."""
    v = c if isinstance(c, Views) else Views(c, len(s))
    c = v.c
    x = s.reshape(v.B, -1).take(c.s_at, axis=1, out=v.x, mode="clip")  # s_k
    if c.score == "direct-sim":
        return np.divide(x, c.tau, out=x), None
    diff = v.diff if need_diff or c.score is None else x
    np.subtract(s[..., None], x, out=diff)  # only s_i broadcasts: one iterator buffer
    np.abs(diff, out=x, where=v.scored)  # a mixed stack's direct-sim rows keep s_k
    if kink:
        np.less(x, KINK_TOL, out=v.close)
    np.divide(x, v.signed_tau, out=x)
    return x, diff if need_diff else None


def _contrastive_values(emb, lang, c: Contrast):
    """Per-clip values of the contrastive objective c on (B, T, d) embeddings
    and (B, d) language vectors, or (B, O, ...) stacks for O configs."""
    x, _ = _sorted_scores(_cosines(emb, lang)[0], c, False)
    return _sorted_softmax(x, c, False)[0]


def _clip_value(emb, lang, c: Contrast) -> float:
    """The contrastive objective c on one (T, d) clip and its (d,) language."""
    return float(_contrastive_values(emb[None], lang[None], c)[0])


def vlo_loss(clip: ClipSequence, temperature: float = 1.0) -> float:
    """Ordering loss: contrastive cross-entropy over all ordered frame
    pairs, with negatives drawn from frames temporally at least as far
    from the anchor as the positive. Non-negative; at least
    lower_bound(clip), and strictly above it for T >= 3."""
    return tnce_loss(clip, TnceConfig(temperature=temperature))


def vlo_loss_on_scores(timestamps, scores, temperature: float = 1.0) -> float:
    """Same objective as vlo_loss but on a supplied score matrix, enabling
    score-space constructions that need not come from embeddings."""
    timestamps, scores = kinds.timestamps(timestamps), np.asarray(scores, dtype=float)  # one row
    T = len(timestamps)
    if scores.shape != (T, T):
        raise ValueError(f"score matrix must be {T}x{T}, got {scores.shape}")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    c = Contrast.of(timestamps, TnceConfig(temperature=temperature))  # checked before the sort
    x = np.take_along_axis(scores, c.s_at, axis=1)[None]  # each anchor's row in its sorted order
    return float(_sorted_softmax(np.divide(x, c.tau, out=x), c, False, np.ptp(scores))[0][0])


def lower_bound(clip: ClipSequence) -> float:
    """Combinatorial minimum of the ordering loss, determined solely by the
    multiset of pairwise temporal distances: the mean over ordered pairs
    of the log of the pair's tie-group size."""
    return TieGroups.of(clip.timestamps).lower_bound()


@dataclass(frozen=True, eq=False)
class Bridge:
    """The mean Brownian-bridge penalty over n intervals as one linear map
    of the embeddings E: row p of the (P, T) matrix M takes an interior
    frame to its deviation from its interval's bridge mean (dev = M @ E),
    and w[p] folds in 1 / (2 var), the mean over the interval's interior
    frames and the mean over intervals. Interval j's interior frame t is
    row j (T-2) + t - 1, so P = n (T-2) whatever the intervals, and a
    frame outside interval j has a zero row and w 0. The penalty is
    sum_p w_p |dev_p|^2 and its gradient 2 M^T (w * dev). A Bridge whose w
    is zero on some leading rows, such as Bridge(M, w * mask) with an
    (O, 1) mask over a stack's configs, puts no bridge on them: their
    penalty is +0.0 and their gradient +-0 on finite embeddings."""

    M: np.ndarray
    w: np.ndarray

    def __post_init__(self):  # penalty's views, made once per Bridge: M^T and w as a column
        vars(self).update(_Mt=self.M.swapaxes(-1, -2), _w_col=self.w[..., None])

    @classmethod
    def of(cls, timestamps, intervals=None) -> "Bridge":
        """Operator for a clip's timestamps, checked by kinds.timestamp_rows,
        over the intervals (default: the full clip): a list or tuple of
        BridgeInterval shared by every clip, or an integer array (..., n, 2)
        of each clip's own (start, end) rows; n >= 1 and 0 <= start < end
        < T. M (..., P, T) and w (..., P) take the broadcast of the leading
        axes of timestamps (one row, or an (N, T) stack of them) and of
        intervals."""
        ts = kinds.timestamp_rows(timestamps).astype(float)
        T = ts.shape[-1]
        se = np.array([[0, T - 1]]) if intervals is None else intervals
        if isinstance(se, (list, tuple)) and all(isinstance(iv, BridgeInterval) for iv in se):
            se = np.array([(iv.start, iv.end) for iv in se], object).reshape(-1, 2)  # any size
        elif not (isinstance(se, np.ndarray) and se.dtype.kind in "iu" and se.shape[-1:] == (2,)
                  and se.ndim > 1):
            raise ValueError("intervals must be a list of BridgeInterval or an (..., n, 2) "
                             f"integer array, got {intervals!r}")
        if se.shape[-2] == 0:
            raise ValueError("intervals must hold at least one interval")
        bad = ~((0 <= se[..., 0]) & (se[..., 0] < se[..., 1]) & (se[..., 1] < T))
        if bad.any():  # compared, not subtracted: no unsigned value wraps around
            raise ValueError("interval ({}, {}) out of bounds for T={}".format(*se[bad][0], T))
        lead, n = np.broadcast_shapes(ts.shape[:-1], se.shape[:-2]), se.shape[-2]
        se = np.broadcast_to(se.astype(np.intp), lead + (n, 2)).reshape(-1, n, 2)
        ts = np.broadcast_to(ts, lead + (T,)).reshape(-1, T)
        t = np.arange(1, T - 1)
        c, j, r = np.nonzero((se[..., :1] < t) & (t < se[..., 1:]))  # clip, interval, row
        k, (a, b) = r + 1, se[c, j].T  # interior frame k of interval (a, b)
        alpha = (ts[c, k] - ts[c, a]) / (ts[c, b] - ts[c, a])
        var = alpha * (ts[c, b] - ts[c, k])  # (t - t0)(t1 - t) / (t1 - t0)
        M = np.zeros((len(ts), n, T - 2, T))
        M[c, j, r, k] = 1.0
        M[c, j, r, a] = alpha - 1.0
        M[c, j, r, b] = -alpha
        w = np.zeros(M.shape[:-1])
        w[c, j, r] = 0.5 / (var * (b - a - 1) * n)
        return cls(M.reshape(lead + (n * (T - 2), T)), w.reshape(lead + (n * (T - 2),)))

    def penalty(self, embeddings, need_grad: bool = False):
        """(sum_p w_p |dev_p|^2, its gradient or None) of (..., T, d)
        embeddings, one value per (T, d) slice; the leading axes of M
        broadcast against the embeddings', so a Bridge of N clips takes
        (..., N, T, d), clip n on its own operator. The sum is a ufunc
        reduce, not BLAS, so its bits do not depend on the BLAS thread count."""
        dev = self.M @ embeddings
        wdev = self._w_col * dev
        value = np.add.reduce(wdev * dev, axis=(-2, -1))
        if not need_grad:
            return value, None
        del dev  # so that no more than two (..., T, d) arrays are live at once
        grad = self._Mt @ wdev
        grad *= 2.0
        return value, grad


def bb_loss(clip: ClipSequence, interval: BridgeInterval) -> float:
    """Mean variance-weighted squared deviation of interior frames from the
    bridge mean. Endpoints are pinned (variance zero) and excluded; an
    interval with no interior frames contributes 0."""
    return float(Bridge.of(clip.timestamps, [interval]).penalty(clip.embeddings)[0])


def actol_loss(
    clip: ClipSequence,
    bb_weight: float = DEFAULT_BB_WEIGHT,
    temperature: float = 1.0,
    intervals=None,
) -> LossBreakdown:
    """Combined objective: ordering loss plus bb_weight times the mean
    bridge penalty over the given intervals (default: the full clip)."""
    kinds.NON_NEGATIVE.check("bb_weight", bb_weight)
    c = Contrast.of(clip.timestamps, TnceConfig(temperature=temperature))  # one sort for both
    vlo = _clip_value(clip.embeddings, clip.language, c)
    bb = float(Bridge.of(clip.timestamps, intervals).penalty(clip.embeddings)[0])
    total = vlo + bb_weight * bb
    return LossBreakdown(vlo=vlo, bb=bb, total=total, lower_bound=c.lower_bound,
                         gap=vlo - c.lower_bound)


def tnce_loss(clip: ClipSequence, cfg: TnceConfig) -> float:
    """Unified time-contrastive objective. The vlo-pair configuration
    equals vlo_loss on the same clip; last-frame with direct-sim scoring
    is the goal-reaching baseline."""
    return _clip_value(clip.embeddings, clip.language, Contrast.of(clip.timestamps, cfg))
