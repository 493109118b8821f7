"""Loss functions over clips: ordering loss, Brownian-bridge penalty,
their weighted combination, the configurable time-contrastive family,
and the combinatorial lower bound of the ordering loss.

Every contrastive objective here is one masked softmax: for anchor i, the
negatives of a positive frame j are a prefix of the other frames sorted by
descending temporal distance (ties kept together). `_suffix_softmax`
evaluates all of them at once in O(T^2 log T) time and O(T^2) memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clip import ClipSequence, _timestamps

DEFAULT_BB_WEIGHT = 0.1


@dataclass(frozen=True)
class DistanceProfile:
    """Sorted unique temporal distances from one anchor frame, with counts."""

    anchor: int
    sorted_distances: tuple
    multiplicities: tuple


@dataclass(frozen=True)
class LossBreakdown:
    vlo: float
    bb: float
    total: float
    lower_bound: float
    gap: float


@dataclass(frozen=True)
class BridgeInterval:
    """Index pair (positions in a clip, start < end) delimiting a bridge."""

    start: int
    end: int

    def validate(self, clip: ClipSequence) -> None:
        Bridge.of(clip.timestamps, [self])  # raises on an out-of-bounds interval


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
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


@dataclass(frozen=True, eq=False)
class TieGroups:
    """Each anchor's other frames, sorted by descending temporal distance
    (stable) and cut into groups of equal distance. Depends only on the
    timestamps, which it checks, so a training run builds it once.

    Arrays are (T, T-1), indexed by anchor and sorted position p:
    order[i, p] is the frame there, distances[i, p] its distance from i,
    start[i, p] and end[i, p] the first and last positions of its group.
    Under the 'other-frames' rule each anchor has a single group.
    """

    order: np.ndarray
    distances: np.ndarray
    start: np.ndarray
    end: np.ndarray

    @classmethod
    def of(cls, timestamps, negative_selector: str = "farther-frames") -> "TieGroups":
        ts = np.asarray(_timestamps(timestamps), dtype=np.int64)
        T = len(ts)
        d = np.abs(ts[:, None] - ts[None, :])
        np.fill_diagonal(d, -1)  # the anchor sorts last and is dropped
        order = np.argsort(-d, axis=1, kind="stable")[:, :-1]
        dist = np.take_along_axis(d, order, axis=1)
        pos = np.broadcast_to(np.arange(T - 1), dist.shape)
        if negative_selector == "other-frames":
            return cls(order, dist, np.zeros_like(pos), np.full_like(pos, T - 2))
        first = np.ones(dist.shape, dtype=bool)
        first[:, 1:] = dist[:, 1:] != dist[:, :-1]
        last = np.ones(dist.shape, dtype=bool)
        last[:, :-1] = first[:, 1:]
        start = np.maximum.accumulate(np.where(first, pos, 0), axis=1)
        end = np.minimum.accumulate(np.where(last, pos, T - 2)[:, ::-1], axis=1)[:, ::-1]
        return cls(order, dist, start, end)

    def sizes(self) -> np.ndarray:
        """Size of the group each sorted position belongs to."""
        return self.end - self.start + 1

    def lower_bound(self) -> float:
        """Mean log group size over ordered pairs: for 'farther-frames'
        groups, the combinatorial minimum of the ordering loss."""
        return float(np.sum(np.log(self.sizes()))) / self.order.size  # T (T - 1) pairs


def _suffix_softmax(rows, positives, groups: TieGroups, temperature: float, need_grad: bool):
    """Mean over positive pairs (i, j) of the contrastive cross-entropy
    -x_ij + log sum_k exp(x_ik), x = rows / temperature, where k runs over
    j's group and every group before it in anchor i's order.

    One logaddexp.accumulate per anchor row gives every log-sum-exp, read
    at the end of each group. The gradient weight of frame k sums
    exp(x_ik - lse_j) over the positives j whose negative set holds k,
    which is a reverse log-cumulative sum read at the start of k's group.

    Returns (value, G) with G[i, k] = d value / d rows[i, k], or
    (value, None) when need_grad is false.
    """
    tau = float(temperature)
    x = np.take_along_axis(rows, groups.order, axis=1) / tau
    pos = np.take_along_axis(positives, groups.order, axis=1)
    n_terms = int(np.count_nonzero(pos))
    lse = np.take_along_axis(np.logaddexp.accumulate(x, axis=1), groups.end, axis=1)
    value = float(np.sum(np.where(pos, lse - x, 0.0))) / n_terms
    if not need_grad:
        return value, None
    tail = np.logaddexp.accumulate(np.where(pos, -lse, -np.inf)[:, ::-1], axis=1)[:, ::-1]
    weights = np.exp(x + np.take_along_axis(tail, groups.start, axis=1))
    G = np.zeros(rows.shape)
    np.put_along_axis(G, groups.order, (weights - pos) / (n_terms * tau), axis=1)
    return value, G


def _positive_mask(T: int, positive_selector: str) -> np.ndarray:
    if positive_selector == "vlo-pair":
        return ~np.eye(T, dtype=bool)
    if positive_selector == "last-frame":
        mask = np.zeros((T, T), dtype=bool)
        mask[:-1, -1] = True
        return mask
    return np.triu(np.ones((T, T), dtype=bool), k=1)  # future-frame


def _score_rows(s: np.ndarray, score: str) -> np.ndarray:
    """Per-anchor score rows: -|s_i - s_k| or the direct similarity s_k."""
    if score == "direct-sim":
        return np.broadcast_to(s, (len(s), len(s)))
    return -np.abs(s[:, None] - s[None, :])


def _contrastive_terms(clip: ClipSequence, cfg: TnceConfig, groups, need_grad: bool):
    """(value, dL/drows, similarities) of a contrastive objective; groups
    must have been built for cfg.negative_selector (None builds them)."""
    if groups is None:
        groups = TieGroups.of(clip.timestamps, cfg.negative_selector)
    s = clip.similarities()
    rows = _score_rows(s, cfg.score)
    positives = _positive_mask(clip.T, cfg.positive_selector)
    value, G = _suffix_softmax(rows, positives, groups, cfg.temperature, need_grad)
    return value, G, s


def negative_set(clip: ClipSequence, i: int, j: int) -> set:
    """Frames at least as far from anchor i as frame j is (j included)."""
    if i == j:
        raise ValueError("anchor and positive must differ")
    T = clip.T
    if not (0 <= i < T and 0 <= j < T):
        raise ValueError("frame index out of bounds")
    groups = TieGroups.of(clip.timestamps)
    end = groups.end[i, np.flatnonzero(groups.order[i] == j)[0]]
    return {int(k) for k in groups.order[i, : end + 1]}


def vlo_loss(clip: ClipSequence, temperature: float = 1.0) -> float:
    """Ordering loss: contrastive cross-entropy over all ordered frame
    pairs, with negatives drawn from frames temporally at least as far
    from the anchor as the positive. Non-negative; strictly above
    lower_bound(clip)."""
    return tnce_loss(clip, TnceConfig(temperature=temperature))


def vlo_loss_on_scores(timestamps, scores, temperature: float = 1.0) -> float:
    """Same objective as vlo_loss but on a supplied score matrix, enabling
    score-space constructions that need not come from embeddings."""
    groups = TieGroups.of(timestamps)
    scores = np.asarray(scores, dtype=float)
    T = len(groups.order)
    if scores.shape != (T, T):
        raise ValueError(f"score matrix must be {T}x{T}, got {scores.shape}")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    positives = _positive_mask(T, "vlo-pair")
    value, _ = _suffix_softmax(scores, positives, groups, temperature, False)
    return value


def distance_profile(clip: ClipSequence, i: int) -> DistanceProfile:
    """Sorted unique temporal distances from anchor i with multiplicities."""
    if not (0 <= i < clip.T):
        raise ValueError("anchor index out of bounds")
    groups = TieGroups.of(clip.timestamps)
    firsts = groups.start[i] == np.arange(clip.T - 1)
    return DistanceProfile(
        anchor=i,
        sorted_distances=tuple(float(x) for x in groups.distances[i, firsts][::-1]),
        multiplicities=tuple(int(c) for c in groups.sizes()[i, firsts][::-1]),
    )


def lower_bound_from_timestamps(timestamps) -> float:
    """Combinatorial minimum of the ordering loss, determined solely by the
    multiset of pairwise temporal distances: the mean over ordered pairs
    of the log of the pair's tie-group size."""
    return TieGroups.of(timestamps).lower_bound()


def lower_bound(clip: ClipSequence) -> float:
    return lower_bound_from_timestamps(clip.timestamps)


@dataclass(frozen=True, eq=False)
class Bridge:
    """The mean Brownian-bridge penalty over a list of intervals as one
    linear map of the embeddings E: row p of the (P, T) matrix M takes one
    interior frame to its deviation from its interval's bridge mean
    (dev = M @ E), and w[p] folds in 1 / (2 var), the mean over the
    interval's interior frames and the mean over intervals. The penalty is
    sum_p w_p |dev_p|^2 and its gradient 2 M^T (w * dev); with no interior
    frame (P = 0) both are 0."""

    M: np.ndarray
    w: np.ndarray

    @classmethod
    def of(cls, timestamps, intervals) -> "Bridge":
        """Operator for a clip's (checked) timestamps; every interval must
        satisfy 0 <= start < end < T."""
        T = len(timestamps)
        for iv in intervals:
            if not (0 <= iv.start < iv.end < T):
                raise ValueError(f"interval ({iv.start}, {iv.end}) out of bounds for T={T}")
        se = np.array([(iv.start, iv.end) for iv in intervals], dtype=np.intp).reshape(-1, 2)
        t = np.arange(T)
        j, k = np.nonzero((se[:, :1] < t) & (t < se[:, 1:]))  # interior frames k of interval j
        a, b = se[j].T
        ts = np.asarray(timestamps, dtype=float)
        alpha = (ts[k] - ts[a]) / (ts[b] - ts[a])
        var = alpha * (ts[b] - ts[k])  # (t - t0)(t1 - t) / (t1 - t0)
        rows = np.arange(len(k))
        M = np.zeros((len(k), T))
        M[rows, k] = 1.0
        M[rows, a] = alpha - 1.0
        M[rows, b] = -alpha
        return cls(M, 0.5 / (var * (b - a - 1) * len(intervals)))

    def penalty(self, embeddings, need_grad: bool = False):
        """(sum_p w_p |dev_p|^2, its (T, d) gradient or None)."""
        dev = self.M @ embeddings
        wdev = self.w[:, None] * dev
        value = float(np.vdot(wdev, dev))
        return value, (2.0 * (self.M.T @ wdev) if need_grad else None)


def _interval_times(clip: ClipSequence, interval: BridgeInterval, t: float):
    """(t0, t1) of a checked interval that contains time t."""
    interval.validate(clip)
    t0, t1 = clip.timestamps[interval.start], clip.timestamps[interval.end]
    if not (t0 <= t <= t1):
        raise ValueError(f"time {t} outside interval [{t0}, {t1}]")
    return t0, t1


def bb_mean(t: float, interval: BridgeInterval, clip: ClipSequence) -> np.ndarray:
    """Linear interpolant between the interval's endpoint embeddings at time t."""
    t0, t1 = _interval_times(clip, interval, t)
    alpha = (t - t0) / (t1 - t0)
    v0 = clip.embeddings[interval.start]
    v1 = clip.embeddings[interval.end]
    return v0 + alpha * (v1 - v0)


def bb_variance(t: float, interval: BridgeInterval, clip: ClipSequence) -> float:
    """Bridge variance (t - t0)(t1 - t) / (t1 - t0): zero at the pinned
    endpoints, maximal at the midpoint."""
    t0, t1 = _interval_times(clip, interval, t)
    return (t - t0) * (t1 - t) / (t1 - t0)


def bb_loss(clip: ClipSequence, interval: BridgeInterval) -> float:
    """Mean variance-weighted squared deviation of interior frames from the
    bridge mean. Endpoints are pinned (variance zero) and excluded; an
    interval with no interior frames contributes 0."""
    return Bridge.of(clip.timestamps, [interval]).penalty(clip.embeddings)[0]


def full_interval(clip: ClipSequence) -> BridgeInterval:
    return BridgeInterval(0, clip.T - 1)


def actol_loss(
    clip: ClipSequence,
    bb_weight: float = DEFAULT_BB_WEIGHT,
    temperature: float = 1.0,
    intervals=None,
) -> LossBreakdown:
    """Combined objective: ordering loss plus bb_weight times the mean
    bridge penalty over the given intervals (default: the full clip)."""
    if bb_weight < 0:
        raise ValueError("bb_weight must be non-negative")
    if intervals is None:
        intervals = [full_interval(clip)]
    groups = TieGroups.of(clip.timestamps)  # one sort for the loss and its bound
    vlo, _, _ = _contrastive_terms(clip, TnceConfig(temperature=temperature), groups, False)
    bb, _ = Bridge.of(clip.timestamps, intervals).penalty(clip.embeddings)
    lb = groups.lower_bound()
    total = vlo + bb_weight * bb
    return LossBreakdown(vlo=vlo, bb=bb, total=total, lower_bound=lb, gap=vlo - lb)


def tnce_loss(clip: ClipSequence, cfg: TnceConfig) -> float:
    """Unified time-contrastive objective. The vlo-pair configuration
    equals vlo_loss on the same clip; last-frame with direct-sim scoring
    is the goal-reaching baseline."""
    value, _, _ = _contrastive_terms(clip, cfg, None, need_grad=False)
    return value
