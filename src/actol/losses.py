"""Loss functions over clips: ordering loss, Brownian-bridge penalty,
their weighted combination, the configurable time-contrastive family,
and the combinatorial lower bound of the ordering loss.

TieGroups owns what the timestamps determine (the sort, the distance
levels, the negative sets and the lower bound), and Bridge the bridge
penalty over any intervals, shared by every clip or each clip's own, with
each interval's interpolant and variance built in; Bridge.of is the one
check on intervals.

Every contrastive objective here is one masked softmax: for anchor i, the
negatives of a positive frame j are a prefix of the other frames sorted by
descending temporal distance (ties kept together). The sort costs
O(T^2 log T) and is made once per training run, in Contrast.of.
`_suffix_softmax` then evaluates every term in O(T^2) time and memory per
call: as cumulative sums of exp(score / temperature) while a static range
guard holds (span / temperature + log T < EXP_RANGE), and as log-space
accumulations below it. Moving to linear-space sums changed results in
their last bits once; reruns stay byte-identical, and results below the
guard are unchanged. TieGroups.of and Contrast.of also take an (N, T)
stack of timestamp rows of one length, so that clips with their own
timestamps are sorted, and evaluated, in one call per stack; a signed
integer array stack is checked in one vectorized pass. Callers that stack
many small evaluations into one kernel call (theory's lower-bound check,
gradients' finite-difference oracle) size each stack to BLOCK_SCORES
scores with _stack_size. A descent run's Contrast keeps the kernel's
(..., T, T) and (..., T, T-1) working arrays, which every step writes in
place, so a step allocates no array of T^2 values; any other Contrast
makes them anew per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clip import ClipSequence, _cosines, _is_count, _is_real, _timestamps

DEFAULT_BB_WEIGHT = 0.1
# exp(x) is a finite, normal double for |x| < 708
EXP_RANGE = 700.0
# Score budget of one stacked kernel call (see _stack_size), which bounds
# its memory whatever the clip length. On the README lower-bound
# population, stacks of a few thousand scores ran fastest; larger ones ran
# slower and took more memory. At 8192 to 16384 the README gradcheck's
# oracle (2 to 6 clips per call) took about a fifth less time than at 4096
# (one clip per call), but the lower-bound check's traced peak grew from
# 1.7 MB to 2.2-2.8 MB.
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
    """Index pair (positions in a clip, start < end) delimiting a bridge.
    Bridge.of is its one check: integer endpoints, 0 <= start < end < T."""

    start: int
    end: int


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
        if not (_is_real(self.temperature) and 0 < self.temperature < math.inf):
            raise ValueError(f"temperature must be finite and positive, got {self.temperature!r}")


def _timestamp_rows(ts) -> np.ndarray:
    """Checked timestamps ts as an int64 array: one row (T,), or each row
    of an (N, T) stack, whose bad row raises the lone row's ValueError. A
    signed integer array stack whose rows are all valid passes one
    vectorized test, which compares without subtracting, so no value can
    wrap around; any other stack is checked row by row."""
    if (isinstance(ts, np.ndarray) and ts.dtype.kind == "i" and ts.ndim == 2 and ts.shape[1] >= 2
            and np.all(ts[:, 0] >= 0) and np.all(ts[:, 1:] > ts[:, :-1])):
        return ts.astype(np.int64, copy=False)
    if np.ndim(ts) == 2:  # a ragged list of rows raises ValueError here
        return np.array([_timestamps(row) for row in ts], dtype=np.int64)
    return np.asarray(_timestamps(ts), dtype=np.int64)


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
        stack, checked by _timestamp_rows."""
        ts = _timestamp_rows(timestamps)
        T = ts.shape[-1]
        d = np.abs(ts[..., :, None] - ts[..., None, :])
        r = np.arange(T)
        d[..., r, r] = -1  # the anchor sorts last and is dropped
        order = np.argsort(-d, axis=-1, kind="stable")[..., :-1]
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
    of them, built once per training run: the TieGroups, the positive mask
    in each anchor's sorted order and its count per clip, and flat indices
    of the sorted positions in a (T, T) array and of the end and start of
    each negative group in a (T, T-1) one. Both selectors apply here: under
    'other-frames' all other frames form one group. groups.lower_bound()
    is the ordering loss's bound whatever the selectors.

    Built from an (N, T) stack of timestamp rows, the masks and indices are
    (N, T, T-1) and the flat indices address an (N, T, T) and an
    (N, T, T-1) array, so the kernel evaluates clip n of the stack on
    slice n of (B, N, T, T) score rows. Built from one timestamp row and a
    tuple of O configs, row o of the same layout is config o: cfg is the
    tuple, and the temperature tau, the positive-term count n_terms and
    the gradient scale n_terms * tau are (O, 1, 1), (O,) and (O, 1, 1)
    arrays. temperatures holds each config's temperature as a float, and
    score the score kind all configs share, or None when they mix kinds;
    difference then masks the (O, 1, 1) rows that score by difference.
    others is ~positives, the sorted positions that hold no term, or None
    when every position holds one. work is None but in a descent run's
    Contrast: a dict that keeps the kernel's working arrays from step to
    step (see array), so that a step allocates no array of T^2 values.
    Such a Contrast serves one stack shape and one caller at a time, and
    nothing a caller keeps may be one of its arrays."""

    cfg: TnceConfig | tuple
    groups: TieGroups
    positives: np.ndarray
    n_terms: int | np.ndarray
    sorted_at: np.ndarray
    end_at: np.ndarray
    start_at: np.ndarray
    tau: float | np.ndarray
    scale: float | np.ndarray
    temperatures: tuple
    score: str | None
    difference: np.ndarray | None = None
    others: np.ndarray | None = None
    work: dict | None = None

    def array(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        """The kernel's working array called name: made zero-filled, and
        kept in work, when there is one, for every later call to write in
        place."""
        if self.work is None:
            return np.zeros(shape, dtype)
        if name not in self.work:
            self.work[name] = np.zeros(shape, dtype)
        return self.work[name]

    @classmethod
    def of(cls, timestamps, cfg) -> "Contrast":
        """The Contrast of cfg, a TnceConfig, at one timestamp row or an
        (N, T) stack; or of each config of a tuple at one timestamp row."""
        groups = TieGroups.of(timestamps)
        if not isinstance(cfg, TnceConfig) and (groups.order.ndim != 2 or not cfg):
            raise ValueError("a tuple of configs needs one timestamp row and one config or more")
        return cls._of_groups(groups, cfg)

    @classmethod
    def _of_groups(cls, groups: TieGroups, cfg) -> "Contrast":
        k = groups.order  # k excludes the anchor i itself
        T = k.shape[-2]
        i = np.arange(T)[:, None]

        def masks(cfg):
            pos = {"vlo-pair": k >= 0, "last-frame": k == T - 1, "future-frame": k > i}[
                cfg.positive_selector
            ]
            if cfg.negative_selector == "other-frames":
                return pos, np.full_like(groups.end, T - 2), np.zeros_like(groups.start)
            return pos, groups.end, groups.start

        one = isinstance(cfg, TnceConfig)
        pos, end, start = masks(cfg) if one else map(np.stack, zip(*map(masks, cfg)))
        n = np.arange(pos.size // (T * (T - 1))).reshape(pos.shape[:-2] + (1, 1))  # stack row
        row = (n * T + i) * (T - 1)
        flat = ((n * T + i) * T + k, row + end, row + start)
        others = None if pos.all() else ~pos
        if one:
            n_terms = int(np.count_nonzero(pos)) // n.size  # the same for every clip of length T
            tau = float(cfg.temperature)
            return cls(cfg, groups, pos, n_terms, *flat, tau, n_terms * tau, (tau,), cfg.score,
                       others=others)
        n_terms = [int(np.count_nonzero(p)) for p in pos]
        tau = tuple(float(c.temperature) for c in cfg)
        scale = [m * t for m, t in zip(n_terms, tau)]
        scores = [c.score for c in cfg]
        score = scores[0] if len(set(scores)) == 1 else None
        difference = None if score else (np.array(scores) == "difference-score")[:, None, None]
        return cls(tuple(cfg), groups, pos, np.array(n_terms), *flat,
                   *np.array([tau, scale])[..., None, None], tau, score, difference, others)


def _stack_size(scores_per_item: int) -> int:
    """How many items of scores_per_item scores each fill one stacked
    kernel call: up to BLOCK_SCORES scores, and at least one item."""
    return max(1, BLOCK_SCORES // scores_per_item)


def _suffix_softmax(rows, c: Contrast, need_grad: bool, span: float = 2.0):
    """For each (T, T) slice b of rows, the mean over positive pairs (i, j)
    of the contrastive cross-entropy -x_ij + log sum_k exp(x_ik),
    x = rows[b] / temperature, where k runs over j's group and every group
    before it in anchor i's order. span bounds the spread (max - min) of
    every anchor's scores; the default 2 holds for any cosine score.

    Every log-sum-exp is a cumulative sum along each anchor's sorted row,
    read at the end of each group. The gradient weight of frame k sums
    exp(x_ik - lse_j) over the positives j whose negative set holds k,
    which is a reverse cumulative sum read at the start of k's group.
    Both are O(T^2) per slice, given the sort Contrast.of made once. While
    span / temperature + log T < EXP_RANGE they run in linear space
    (_exp_cumsum, one exp and one log); otherwise in log space
    (_log_accumulate). Adding the linear-space path moved results above
    the guard in their last bits; below it they are unchanged.

    Returns the (B,) values and G with G[b, i, k] = d value_b / d rows[b, i, k],
    or (values, None) when need_grad is false. For a Contrast of an
    (N, T) timestamp stack, rows are (B, N, T, T) and values (B, N): one
    value per clip, as each clip gets from its own Contrast. For a Contrast
    of O configs they are (B, O, T, T) and (B, O), one value per config as
    from its own Contrast: if the guard holds for some configs and not for
    others, both paths run on the whole stack, each config keeping its side.
    The working arrays and G come from c.array; the values are new.
    """
    B = len(rows)
    log_T = math.log(rows.shape[-1])
    linear = [span / tau + log_T < EXP_RANGE for tau in c.temperatures]
    # np.take lays each slice out as alone; fancy indexing would sum B > 1 in another
    # order. Into an out array, mode "raise" copies through a temporary; the indices are valid.
    x = np.take(rows.reshape(B, -1), c.sorted_at, axis=1,
                out=c.array("x", (B, *c.sorted_at.shape)), mode="clip")
    np.divide(x, c.tau, out=x)
    if any(linear) == all(linear):
        terms, weights = (_exp_cumsum if linear[0] else _log_accumulate)(x, c, need_grad)
    else:
        off = ~np.array(linear)[:, None, None]  # the log side; zeros keep it from overflow
        x_lin = c.array("x_lin", x.shape)
        np.copyto(x_lin, x)
        np.copyto(x_lin, 0.0, where=off)
        terms, weights = _exp_cumsum(x_lin, c, need_grad)
        for linear_side, log_side in zip((terms, weights), _log_accumulate(x, c, need_grad)):
            if log_side is not None:
                np.copyto(linear_side, log_side, where=off)
    value = terms.reshape(*terms.shape[:-2], -1).sum(axis=-1) / c.n_terms
    if not need_grad:
        return value, None
    np.subtract(weights, c.positives, out=weights)
    np.divide(weights, c.scale, out=weights)
    G = c.array("G", rows.shape)  # no sorted position is on the diagonal, which stays 0
    G.reshape(B, -1)[:, c.sorted_at] = weights
    return value, G


def _exp_cumsum(x, c: Contrast, need_grad: bool):
    """_suffix_softmax's (per-pair terms, gradient weights or None) of the
    sorted, scaled scores x, in linear space: one exp and one log. Each row
    is shifted by its first score, so a first group of one frame gives
    exactly 0. Under the guard span / temperature + log T < EXP_RANGE,
    every exp(x) and cumulative sum C lies in [e^-EXP_RANGE, e^EXP_RANGE]:
    normal and finite. x is overwritten, and the terms and weights are
    arrays from c.array; each array is written in place once its values
    are not needed again."""
    B = len(x)
    np.subtract(x, x[..., :1].copy(), out=x)  # no input may overlap the output
    e = np.exp(x, out=c.array("e", x.shape))
    acc = np.add.accumulate(e, axis=-1, out=c.array("acc", x.shape))
    C = np.take(acc.reshape(B, -1), c.end_at, axis=1, out=c.array("C", x.shape), mode="clip")
    terms = np.subtract(np.log(C, out=acc), x, out=acc)
    if c.others is not None:
        np.copyto(terms, 0.0, where=c.others)
    if not need_grad:
        return terms, None
    tail = np.divide(c.positives, C, out=C)[..., ::-1]
    np.add.accumulate(tail, axis=-1, out=tail)
    e *= np.take(C.reshape(B, -1), c.start_at, axis=1, out=x, mode="clip")
    return terms, e


def _log_accumulate(x, c: Contrast, need_grad: bool):
    """_exp_cumsum in log space, for scores of any range. x is overwritten
    by the weights, and its other arrays from c.array are not _exp_cumsum's,
    so that both paths can run on one stack."""
    B = len(x)
    acc = np.logaddexp.accumulate(x, axis=-1, out=c.array("log_terms", x.shape))
    lse = np.take(acc.reshape(B, -1), c.end_at, axis=1, out=c.array("lse", x.shape), mode="clip")
    terms = np.subtract(lse, x, out=acc)
    if c.others is not None:
        np.copyto(terms, 0.0, where=c.others)
    if not need_grad:
        return terms, None
    tail = np.negative(lse, out=lse)
    if c.others is not None:
        np.copyto(tail, -np.inf, where=c.others)
    np.logaddexp.accumulate(tail[..., ::-1], axis=-1, out=tail[..., ::-1])
    x += np.take(tail.reshape(B, -1), c.start_at, axis=1, out=c.array("log_tail", x.shape),
                 mode="clip")
    return terms, np.exp(x, out=x)


def _score_rows(s, c: Contrast):
    """(..., T, T) score rows of (..., T) similarities: row i holds
    -|s_i - s_k| for 'difference-score', or s_k for 'direct-sim'; for a
    Contrast whose configs mix kinds, each (T, T) slice by its config's.
    The rows are an array from c.array."""
    rows = c.array("rows", s.shape + s.shape[-1:])
    if c.score == "direct-sim":
        rows[...] = s[..., None, :]
        return rows
    np.negative(np.abs(_differences(s, rows), out=rows), out=rows)
    if c.score is None:
        np.copyto(rows, s[..., None, :], where=~c.difference)
    return rows


def _differences(s, out):
    """out[..., i, k] = s_i - s_k of (..., T) similarities, written into
    out. It subtracts from a copy of s_k, so that only one operand
    broadcasts: numpy then makes one iterator buffer for it, not two."""
    out[...] = s[..., None, :]
    return np.subtract(s[..., :, None], out, out=out)


def _contrastive_terms(emb, lang, c: Contrast, need_grad: bool):
    """(per-clip values, dL/drows, s, |v|, |l|, rows) of the contrastive
    objective c on (B, T, d) embeddings and (B, d) language vectors, or on
    a (B, O, T, d) and (B, O, d) stack for a Contrast of O configs: the
    cosines s and their norms from one _cosines pass, and the score rows
    the kernel ran on, each computed once. dL/drows and the rows are
    arrays from c.array."""
    s, norm_v, norm_l = _cosines(emb, lang)
    rows = _score_rows(s, c)
    value, G = _suffix_softmax(rows, c, need_grad)
    return value, G, s, norm_v, norm_l, rows


def _clip_value(emb, lang, c: Contrast) -> float:
    """The contrastive objective c on one (T, d) clip and its (d,) language."""
    return float(_contrastive_terms(emb[None], lang[None], c, False)[0][0])


def vlo_loss(clip: ClipSequence, temperature: float = 1.0) -> float:
    """Ordering loss: contrastive cross-entropy over all ordered frame
    pairs, with negatives drawn from frames temporally at least as far
    from the anchor as the positive. Non-negative; at least
    lower_bound(clip), and strictly above it for T >= 3."""
    return tnce_loss(clip, TnceConfig(temperature=temperature))


def vlo_loss_on_scores(timestamps, scores, temperature: float = 1.0) -> float:
    """Same objective as vlo_loss but on a supplied score matrix, enabling
    score-space constructions that need not come from embeddings."""
    c = Contrast.of(_timestamps(timestamps), TnceConfig(temperature=temperature))  # not a stack
    scores = np.asarray(scores, dtype=float)
    T = len(c.groups.order)
    if scores.shape != (T, T):
        raise ValueError(f"score matrix must be {T}x{T}, got {scores.shape}")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    return float(_suffix_softmax(scores[None], c, False, np.ptp(scores))[0][0])


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

    @classmethod
    def of(cls, timestamps, intervals=None) -> "Bridge":
        """Operator for a clip's timestamps, checked by _timestamp_rows,
        over the intervals (default: the full clip): a list or tuple of
        BridgeInterval shared by every clip, or an integer array (..., n, 2)
        of each clip's own (start, end) rows; n >= 1 and 0 <= start < end
        < T. M (..., P, T) and w (..., P) take the broadcast of the leading
        axes of timestamps (one row, or an (N, T) stack of them) and of
        intervals."""
        ts = _timestamp_rows(timestamps).astype(float)
        T = ts.shape[-1]
        se = np.array([[0, T - 1]]) if intervals is None else intervals
        if isinstance(se, (list, tuple)) and all(isinstance(iv, BridgeInterval) for iv in se):
            se = [(iv.start, iv.end) for iv in se]
            for start, end in se:
                if not (_is_count(start) and _is_count(end)):
                    raise ValueError(f"interval ({start!r}, {end!r}) must have integer endpoints")
            se = np.array(se, dtype=object).reshape(-1, 2)  # ints of any size until checked
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
        (..., N, T, d), clip n on its own operator. The sum is a matmul,
        which rounds like np.vdot of one slice."""
        dev = self.M @ embeddings
        wdev = self.w[..., None] * dev
        lead = dev.shape[:-2]
        value = np.matmul(wdev.reshape(*lead, 1, -1), dev.reshape(*lead, -1, 1))[..., 0, 0]
        if not need_grad:
            return value, None
        del dev  # so that no more than two (..., T, d) arrays are live at once
        grad = self.M.swapaxes(-1, -2) @ wdev
        grad *= 2.0
        return value, grad


def _check_non_negative(name: str, value) -> None:
    """The one check on a bridge weight, learning rate or tolerance: finite,
    non-negative, not a bool."""
    if not (_is_real(value) and math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")


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
    _check_non_negative("bb_weight", bb_weight)
    c = Contrast.of(clip.timestamps, TnceConfig(temperature=temperature))  # one sort for both
    vlo = _clip_value(clip.embeddings, clip.language, c)
    bb = float(Bridge.of(clip.timestamps, intervals).penalty(clip.embeddings)[0])
    lb = c.groups.lower_bound()
    total = vlo + bb_weight * bb
    return LossBreakdown(vlo=vlo, bb=bb, total=total, lower_bound=lb, gap=vlo - lb)


def tnce_loss(clip: ClipSequence, cfg: TnceConfig) -> float:
    """Unified time-contrastive objective. The vlo-pair configuration
    equals vlo_loss on the same clip; last-frame with direct-sim scoring
    is the goal-reaching baseline."""
    return _clip_value(clip.embeddings, clip.language, Contrast.of(clip.timestamps, cfg))
