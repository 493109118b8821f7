"""Loop implementations of the contrastive objectives and of the
distance-level queries, kept as naive references for the sorted-suffix
kernel and TieGroups in actol.losses.

Each anchor's (or each term's) softmax is evaluated on its own negative
mask, with no sorting and no sharing between terms: O(T^3) work.

The per-interval Brownian-bridge penalty and gradient are the reference
for actol.losses.Bridge: each interval's deviations are computed from its
own endpoints, and the endpoint gradients are scattered by hand.

The per-trial loop versions of the Monte Carlo theorem checks in
actol.theory are kept here too. They draw from the Generator in the same
order as the block versions and evaluate each trial with scalar arithmetic.
"""

import sys

import numpy as np

from actol.losses import TnceConfig
from actol.synthetic import perturb_language
from actol.theory import FLOAT_SLACK


def _distance_matrix(timestamps):
    ts = np.asarray(timestamps, dtype=float)
    return np.abs(ts[:, None] - ts[None, :])


def logsumexp(x, axis=None):
    """Max-shifted log-sum-exp; rows of -inf give -inf."""
    x = np.asarray(x, dtype=float)
    mx = np.max(x, axis=axis, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    out = np.log(np.sum(np.exp(x - mx), axis=axis, keepdims=True)) + mx
    return np.squeeze(out, axis=axis) if axis is not None else float(out.squeeze())


def softmax(x):
    e = np.exp(x - np.max(x))
    return e / e.sum()


def ordered_pair_loss(timestamps, scores, temperature):
    """Mean over all ordered pairs (i, j) of the contrastive cross-entropy
    with the anchor-i farther-frame negative set."""
    T = len(timestamps)
    d = _distance_matrix(timestamps)
    tau = float(temperature)
    total = 0.0
    for i in range(T):
        # rows j: negative set {k != i, d_ik >= d_ij}
        mask = d[i][None, :] >= d[i][:, None]
        mask[:, i] = False
        logits = np.where(mask, scores[i][None, :] / tau, -np.inf)
        lse = logsumexp(logits, axis=1)
        others = np.arange(T) != i
        total += float(np.sum(-scores[i, others] / tau + lse[others]))
    return total / (T * (T - 1))


def pair_weight_matrix(timestamps, scores, temperature):
    """dL/dR[i, k] of ordered_pair_loss."""
    T = len(timestamps)
    tau = float(temperature)
    d = _distance_matrix(timestamps)
    G = np.zeros((T, T))
    scale = 1.0 / (T * (T - 1))
    for i in range(T):
        mask = d[i][None, :] >= d[i][:, None]
        mask[:, i] = False
        logits = np.where(mask, scores[i][None, :] / tau, -np.inf)
        mx = logits.max(axis=1, keepdims=True)
        expd = np.exp(logits - mx)
        w = expd / expd.sum(axis=1, keepdims=True)
        others = np.arange(T) != i
        G[i, :] += scale / tau * w[others].sum(axis=0)
        G[i, others] -= scale / tau
    return G


def tnce_terms(timestamps, cfg: TnceConfig):
    """Contrastive terms as (positive item, negative items). An item is a
    frame index (direct-sim) or an (anchor, frame) pair (difference score),
    in anchor-major, pair-minor order."""
    T = len(timestamps)
    d = _distance_matrix(timestamps)

    def negatives(i, j):
        if cfg.negative_selector == "other-frames":
            return [k for k in range(T) if k != i]
        return [k for k in range(T) if k != i and d[i, k] >= d[i, j]]

    def item(i, k):
        return k if cfg.score == "direct-sim" else (i, k)

    if cfg.positive_selector == "vlo-pair":
        pairs = [(i, j) for i in range(T) for j in range(T) if j != i]
    elif cfg.positive_selector == "last-frame":
        pairs = [(i, T - 1) for i in range(T - 1)]
    else:  # future-frame
        pairs = [(i, j) for i in range(T) for j in range(i + 1, T)]
    return [(item(i, j), [item(i, k) for k in negatives(i, j)]) for i, j in pairs]


def item_score(item, s):
    if isinstance(item, tuple):
        i, k = item
        return -abs(s[i] - s[k])
    return float(s[item])


def tnce_loss(timestamps, s, cfg: TnceConfig):
    terms = tnce_terms(timestamps, cfg)
    tau = cfg.temperature
    total = 0.0
    for pos, negs in terms:
        neg_scores = np.array([item_score(n, s) for n in negs])
        total += -item_score(pos, s) / tau + logsumexp(neg_scores / tau)
    return total / len(terms)


def tnce_score_grads(timestamps, s, cfg: TnceConfig):
    """(dL/ds from direct-sim items, dL/dR from pair items)."""
    terms = tnce_terms(timestamps, cfg)
    tau = cfg.temperature
    T = len(s)
    g_s = np.zeros(T)
    G = np.zeros((T, T))
    scale = 1.0 / len(terms)

    def add(item, coeff):
        if isinstance(item, tuple):
            G[item] += coeff
        else:
            g_s[item] += coeff

    for pos, negs in terms:
        w = softmax(np.array([item_score(n, s) for n in negs]) / tau)
        add(pos, -scale / tau)
        for n, wn in zip(negs, w):
            add(n, scale * wn / tau)
    return g_s, G


def lower_bound(timestamps):
    """Sum over anchors of c log c for each distance level's count c."""
    T = len(timestamps)
    d = _distance_matrix(timestamps)
    total = 0.0
    for i in range(T):
        _, counts = np.unique(np.delete(d[i], i), return_counts=True)
        total += float(np.sum(counts * np.log(counts)))
    return total / (T * (T - 1))


def negative_set(timestamps, i, j):
    """Frames at least as far from anchor i as frame j is (j included)."""
    d = _distance_matrix(timestamps)
    return {k for k in range(len(timestamps)) if k != i and d[i, k] >= d[i, j]}


def measure_delta(clip, temperature=1.0):
    """Triple-loop ordering-property delta: collect every equal-distance
    score gap and every ordered-pair margin, then scan the sorted candidate
    deltas for the first one that satisfies both conditions."""
    T = clip.T
    s = clip.similarities()
    R = -np.abs(s[:, None] - s[None, :]) / temperature
    d = _distance_matrix(clip.timestamps)

    equal_gaps = []
    margins = []
    for i in range(T):
        for j in range(T):
            if j == i:
                continue
            for k in range(T):
                if k == i or k == j:
                    continue
                if d[i, j] == d[i, k]:
                    equal_gaps.append(abs(R[i, j] - R[i, k]))
                elif d[i, j] < d[i, k]:
                    margins.append(R[i, j] - R[i, k])

    if not equal_gaps and not margins:
        return sys.float_info.min

    if margins and min(margins) <= 0:
        return None

    candidates = sorted(
        {0.01 * k for k in range(1, 100)}
        | {np.nextafter(1.0 / m, 1.0) for m in margins if m > 1.0}
        | ({np.nextafter(max(equal_gaps), 1.0)} if equal_gaps else set())
    )

    def satisfied(delta):
        if equal_gaps and max(equal_gaps) >= delta:
            return False
        if margins and min(margins) <= 1.0 / delta:
            return False
        return True

    for delta in candidates:
        if 0 < delta < 1 and satisfied(delta):
            return float(delta)
    return None


def bridge_deviations(clip, interval):
    """(dev, var, alpha) for the interval's interior frames: deviation from
    the bridge mean (n, d), bridge variance (n,) and interpolation weight
    of the end frame (n,). All empty when there is no interior frame."""
    t0 = clip.timestamps[interval.start]
    t1 = clip.timestamps[interval.end]
    t = np.asarray(clip.timestamps[interval.start + 1 : interval.end], dtype=float)
    alpha = (t - t0) / (t1 - t0)
    v0 = clip.embeddings[interval.start]
    v1 = clip.embeddings[interval.end]
    dev = clip.embeddings[interval.start + 1 : interval.end] - (v0 + alpha[:, None] * (v1 - v0))
    var = (t - t0) * (t1 - t) / (t1 - t0)
    return dev, var, alpha


def bb_loss(clip, interval):
    """Mean over interior frames of |dev|^2 / (2 var); 0 with none."""
    dev, var, _ = bridge_deviations(clip, interval)
    if not len(var):
        return 0.0
    return float(np.sum(np.einsum("pd,pd->p", dev, dev) / (2.0 * var))) / len(var)


def grad_bb(clip, interval):
    """(T, d) gradient of bb_loss: interior frames directly, endpoints
    through the bridge mean."""
    dev, var, alpha = bridge_deviations(clip, interval)
    frames = np.zeros_like(clip.embeddings)
    if len(var):
        g = dev / (var * len(var))[:, None]
        frames[interval.start + 1 : interval.end] = g
        frames[interval.start] = -((1.0 - alpha) @ g)
        frames[interval.end] = -(alpha @ g)
    return frames


def mean_bb(clip, intervals):
    """(value, gradient) of the bridge penalty averaged over a non-empty
    list of intervals, one interval at a time."""
    value = sum(bb_loss(clip, iv) for iv in intervals)
    grad = sum(grad_bb(clip, iv) for iv in intervals)
    return value / len(intervals), grad / len(intervals)


def _alignment_score(v_i, v_j, l):
    def cos(v):
        return float(v @ l) / (float(np.sqrt(v @ v)) * float(np.sqrt(l @ l)))

    return -abs(cos(v_i) - cos(v_j))


def lipschitz_slacks(triples):
    """(violations, worst slack) of |score(v_k, v_l, lang)| <= ||v_k - v_l||
    over (v_k, v_l, lang) triples, one at a time."""
    violations = 0
    worst = -np.inf
    for v_k, v_l, lang in triples:
        lhs = abs(_alignment_score(v_k, v_l, lang))
        rhs = float(np.sqrt((v_k - v_l) @ (v_k - v_l)))
        worst = max(worst, lhs - rhs)
        if not lhs <= rhs + FLOAT_SLACK:
            violations += 1
    return violations, worst


def check_continuity(clip, pairs):
    emb = clip.embeddings
    return lipschitz_slacks((emb[k], emb[l], clip.language) for k, l in pairs)


def lipschitz_pairs_report(dim, trials, seed):
    rng = np.random.default_rng(seed)

    def triples():
        for _ in range(trials):
            v = rng.standard_normal((3, dim))
            yield [row / np.sqrt(row @ row) for row in v]

    return lipschitz_slacks(triples())


def check_robustness(v_i, v_j, l, delta_l, trials, seed):
    """(violations, worst diff / bound) over trials perturbations of l,
    drawn one at a time."""
    rng = np.random.default_rng(seed)
    base = _alignment_score(v_i, v_j, l)
    bound = 2.0 * delta_l
    violations = 0
    worst_ratio = 0.0
    for _ in range(trials):
        lp = perturb_language(l, delta_l, rng)
        diff = abs(_alignment_score(v_i, v_j, lp) - base)
        if bound > 0:
            worst_ratio = max(worst_ratio, diff / bound)
        if not diff <= bound + FLOAT_SLACK:
            violations += 1
    return violations, worst_ratio
