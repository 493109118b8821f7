"""Loop implementations of the contrastive objectives and of the
distance-level queries, kept as naive references for the sorted-suffix
kernel and TieGroups in actol.losses.

Each anchor's (or each term's) softmax is evaluated on its own negative
mask, with no sorting and no sharing between terms: O(T^3) work.

The per-interval Brownian-bridge penalty and gradient are the reference
for actol.losses.Bridge: each interval's deviations are computed from its
own endpoints, and the endpoint gradients are scattered by hand.

The per-direction loop of the finite-difference oracle is the reference
for actol.gradients.finite_diff_check and its stacked form: each perturbed
point is its own ClipSequence, evaluated by the public loss functions one
at a time. The gradcheck command's loop before it stacked each loss's
clips, one check per clip as it is drawn, is the reference for its
gradcheck.json.

suffix_softmax runs actol.losses._sorted_softmax, the kernel, on dense
(T, T) score rows: it gathers them into each anchor's sorted order
through sorted_at and scatters the weights back to a dense G, for the
references that take or give (T, T) arrays. log_suffix_softmax, the
log-space kernel that ran for every input before the kernel gained its
linear-space path, is the bit-for-bit reference for its fallback below
the range guard.

The per-trial loop versions of the Monte Carlo theorem checks in
actol.theory are kept here too. They draw from the Generator in the same
order as the block versions and evaluate each trial with scalar arithmetic.
The per-clip loop of the lower-bound check, one Contrast and one kernel
call per clip, is the bit-for-bit reference for its stacked version.
random_clip as it drew and normalized one clip at a time (a 1-D norm for
the language) is the reference for random_clip. random_clip_loop follows
lower_bound_report's block draws with plain loops, building each clip on
its own from its raw normals, and is the reference for the clips that
check draws as arrays. sample_bridge as it composed each path with
np.concatenate is the bit-for-bit reference for the path it writes in
place.
bridge_intervals is the step-by-step reference for the local bridge
intervals a training run draws in blocks of steps.

generate_clip as it built a clip one frame at a time, a scalar slerp per
frame and a 1-D np.linalg.norm per noisy frame, is the bit-for-bit
reference for actol.generate_clip's array slerp and stacked normalize.

objective_and_grad as it was composed before each descent step computed
its intermediates once (the norms and |s_i - s_k| twice each, the dense
kink test, the language gradient always) is the bit-for-bit reference for
actol.gradients.objective_and_grad, and the tangent step with
np.linalg.norm for actol.trainer's. It takes dL/ds from a dense (T, T)
array of dL/dR terms: its column sums in the dense order, which is the
anchor order, and its row sums in each anchor's sorted order, as the step
takes them. With dense_rows its row sums run in the dense order too, as
the step's did while it scattered its terms into that array: the parity
oracle for the sorted-order row sums.
"""

import math
import sys

import numpy as np

import actol
from actol.clip import _dots
from actol.gradients import REL_FLOOR, _directions
from actol.losses import (
    DEFAULT_BB_WEIGHT,
    KINK_TOL,
    BridgeInterval,
    Contrast,
    TnceConfig,
    _clip_value,
    _sorted_softmax,
)
from actol.synthetic import perturb_language
from actol.theory import FLOAT_SLACK, TheoremReport


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


def sorted_at(c):
    """Flat index of each sorted position of Contrast c in (..., T, T) score
    rows: stack row n, anchor i and frame k at (n T + i) T + k."""
    T = c.s_at.shape[-2]
    return (c.s_at // T * T + np.arange(T)[:, None]) * T + c.s_at % T


def suffix_softmax(rows, c, need_grad):
    """(values, G or None) of the kernel on (B, ..., T, T) score rows, with
    G[b, ..., i, k] = d value_b / d rows[b, ..., i, k]: the rows gathered in
    each anchor's sorted order, and the kernel's weights scattered back to
    (T, T), whose diagonal is 0."""
    B = len(rows)
    at = sorted_at(c)
    value, weights = _sorted_softmax(rows.reshape(B, -1).take(at, axis=1) / c.tau, c, need_grad)
    if not need_grad:
        return value, None
    G = np.zeros(rows.shape)
    G.reshape(B, -1)[:, at] = weights
    return value, G


def log_suffix_softmax(rows, c, need_grad):
    """(values, G or None) of suffix_softmax from two logaddexp.accumulate
    passes, whatever the range of the scores."""
    B = len(rows)
    tau = c.tau.item()
    at = sorted_at(c)
    x = np.take(rows.reshape(B, -1), at, axis=1) / tau
    lse = np.logaddexp.accumulate(x, axis=-1).reshape(B, -1)[:, c.end_at]
    value = np.where(c.positives, lse - x, 0.0).reshape(B, -1).sum(axis=1) / c.n_terms
    if not need_grad:
        return value, None
    tail = np.logaddexp.accumulate(np.where(c.positives, -lse, -np.inf)[..., ::-1], axis=-1)
    weights = np.exp(x + tail[..., ::-1].reshape(B, -1)[:, c.start_at])
    G = np.zeros(rows.shape)
    G.reshape(B, -1)[:, at] = (weights - c.positives) / (c.n_terms * tau)
    return value, G


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


def random_clip(T, d, rng, max_gap=4):
    """actol.random_clip drawn and normalized on its own: timestamp gaps,
    frames normalized along their rows, then the language by its 1-D norm."""
    gaps = rng.integers(1, max_gap + 1, size=T - 1)
    frames = rng.standard_normal((T, d))
    frames /= np.linalg.norm(frames, axis=-1, keepdims=True)
    lang = rng.standard_normal(d)
    return actol.ClipSequence(np.concatenate([[0], np.cumsum(gaps)]), frames,
                              lang / np.linalg.norm(lang))


def _normalize(v):
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / norm


def slerp(a, b, t):
    """actol.slerp at one float time."""
    dot = float(np.clip(np.dot(a, b), -1.0, 1.0))
    omega = np.arccos(dot)
    if omega < 1e-12:
        return a.copy()
    return (np.sin((1.0 - t) * omega) * a + np.sin(t * omega) * b) / np.sin(omega)


def _unit_away_from(rng, ref, max_abs_cos=0.5):
    while True:
        v = _normalize(rng.standard_normal(ref.shape[0]))
        if abs(float(v @ ref)) < max_abs_cos:
            return v


def generate_clip(spec):
    """actol.generate_clip one frame at a time: (ClipSequence, progress)."""
    rng = np.random.default_rng(spec.seed)
    language = _normalize(rng.standard_normal(spec.d))
    start = _unit_away_from(rng, language)
    c = spec.completion_index
    frames, progress = [], []
    for i in range(c):
        p = 1.0 if c == 1 else i / (c - 1)
        frames.append(slerp(start, language, p))
        progress.append(p)
    n_tail = spec.T - c
    if n_tail > 0:
        if spec.tail_mode in ("drift-away", "second-action"):
            if spec.tail_mode == "drift-away":
                w = _normalize(rng.standard_normal(spec.d))
                w = _normalize(w - (w @ language) * language)
            else:
                w = _unit_away_from(rng, language)
            for k in range(1, n_tail + 1):
                frames.append(slerp(language, w, k / n_tail))
        else:
            frames.extend(frames[-1].copy() for _ in range(n_tail))
        progress.extend(1.0 for _ in range(n_tail))
    emb = np.stack(frames)
    if spec.noise_sigma > 0:
        if spec.tail_mode == "frozen":
            noisy = emb[:c] + spec.noise_sigma * rng.standard_normal((c, spec.d))
            noisy = np.stack([_normalize(v) for v in noisy])
            emb = np.vstack([noisy, np.repeat(noisy[-1][None, :], n_tail, axis=0)])
        else:
            emb = emb + spec.noise_sigma * rng.standard_normal(emb.shape)
            emb = np.stack([_normalize(v) for v in emb])
    return actol.ClipSequence(tuple(range(spec.T)), emb, language), tuple(progress)


def random_clip_loop(clips, t_range, d_range, rng, block_clips):
    """The clips actol.theory.lower_bound_report draws, one ClipSequence per
    clip. Each block of up to block_clips clips draws its clips' T, then
    their d, in one call each; then, for each (T, d) shape with T > 2 in
    sorted order, the timestamp gaps, frame normals and language normals
    of its clips in one call each, and builds each clip on its own from
    its raw normals: cosines do not depend on scale, so nothing is
    normalized. T = 2 clips draw nothing more: they are only counted, so
    each is the same fixed clip."""
    drawn = []
    for first in range(0, clips, block_clips):
        n = min(block_clips, clips - first)
        Ts = rng.integers(t_range[0], t_range[1] + 1, size=n).tolist()
        ds = rng.integers(d_range[0], d_range[1] + 1, size=n).tolist()
        shapes = list(zip(Ts, ds))
        for T, d in sorted(set(shapes)):
            m = shapes.count((T, d))
            if T == 2:
                drawn += [actol.ClipSequence((0, 1), np.eye(2, d), np.eye(1, d)[0])] * m
                continue
            gaps = rng.integers(1, 5, size=(m, T - 1))
            frames = rng.standard_normal((m, T, d))
            langs = rng.standard_normal((m, d))
            drawn += [actol.ClipSequence(np.concatenate([[0], np.cumsum(gap)]), frame, lang)
                      for gap, frame, lang in zip(gaps, frames, langs)]
    return drawn


def sample_bridge(v_start, v_end, t_start, t_end, seed):
    """actol.sample_bridge as it composed its paths: the endpoints and the
    interior points, mean + sqrt(var) z, joined by np.concatenate."""
    v_start = np.asarray(v_start, dtype=float)[..., None, :]
    v_end = np.asarray(v_end, dtype=float)[..., None, :]
    length = t_end - t_start
    t = np.arange(t_start + 1, t_end)[:, None]
    mean = v_start + (t - t_start) / length * (v_end - v_start)
    var = (t - t_start) * (t_end - t) / length
    z = np.random.default_rng(seed).standard_normal(mean.shape)
    return np.concatenate([v_start, mean + np.sqrt(var) * z, v_end], axis=-2)


def bridge_intervals(T, n, rng, steps, block_steps):
    """Each step's n local bridge intervals [(start, end), ...] of one seed,
    as actol.trainer draws them from the seed's Generator: per block of up
    to block_steps steps, every start in one call, then every end in one
    call, and step j of the block reads row j."""
    drawn = []
    for first in range(0, steps, block_steps):
        k = min(block_steps, steps - first)
        starts = rng.integers(0, T - 1, size=(k, n))
        ends = rng.integers(starts + 1, T)
        for j in range(k):
            drawn.append([(int(starts[j, i]), int(ends[j, i])) for i in range(n)])
    return drawn


def check_lower_bound(clips):
    """to_dict() of actol.theory.check_lower_bound from one Contrast and one
    kernel call per asserted clip, the check's loop before it stacked the
    clips of one length."""
    asserted = ((clip, Contrast.of(clip.timestamps, TnceConfig())) for clip in clips if clip.T > 2)
    gaps = np.array([_clip_value(clip.embeddings, clip.language, c) - c.lower_bound
                     for clip, c in asserted])
    violations = int(np.count_nonzero(~(gaps > 0)))
    return TheoremReport(
        theorem="lower-bound",
        instances=gaps.size,
        violations=violations,
        worst_slack=float(gaps.min()) if gaps.size else 0.0,
        passed=violations == 0,
        details={"boundary_t2_clips": len(clips) - gaps.size},
    ).to_dict()


def finite_diff_check(loss, clip, params=None, step=1e-5):
    """Max relative error of the analytic gradient against central
    differences, one direction of actol.gradients._directions at a time,
    each point its own ClipSequence; the same error measure as
    actol.gradients.finite_diff_check, with its dot products from the same
    helper."""
    params = dict(params or {})
    tau = params.get("temperature", 1.0)
    lam = params.get("bb_weight", DEFAULT_BB_WEIGHT)
    iv = params.get("interval", BridgeInterval(0, clip.T - 1))
    ivs = params.get("intervals")
    loss_of, grad_of = {  # the public functions; this module's own names differ
        "vlo": (lambda c: actol.vlo_loss(c, tau), lambda c: actol.grad_vlo(c, tau)),
        "bb": (lambda c: actol.bb_loss(c, iv), lambda c: actol.grad_bb(c, iv)),
        "total": (lambda c: actol.actol_loss(c, lam, tau, ivs).total,
                  lambda c: actol.grad_total(c, lam, tau, ivs)),
        "tnce": (lambda c: actol.tnce_loss(c, params["config"]),
                 lambda c: actol.grad_tnce(c, params["config"])),
    }[loss]
    grads = grad_of(clip)
    analytic = np.concatenate([grads.frames.ravel(), grads.language])
    floor = max(REL_FLOOR * math.sqrt(_dots(analytic, analytic)), 1e-8)
    x0 = np.concatenate([clip.embeddings.ravel(), clip.language])
    n, shape = clip.embeddings.size, clip.embeddings.shape

    def value(x):
        return loss_of(actol.ClipSequence(clip.timestamps, x[:n].reshape(shape), x[n:]))

    worst = 0.0
    for u in _directions(clip.T, clip.d):
        num = (value(x0 + step * u) - value(x0 - step * u)) / (2 * step)
        slope = float(_dots(analytic, u))
        worst = max(worst, abs(slope - num) / max(abs(slope), abs(num), floor))
    return worst


def gradcheck_errors(seed, losses, clips, T, d, step):
    """gradcheck's max_relative_error as actol.cli built it, one loss at a
    time: each clip drawn, then checked, before the next is drawn."""
    from actol.cli import _sample_away_from_kinks

    rng = np.random.default_rng(seed)
    return {loss: max(finite_diff_check(loss, _sample_away_from_kinks(rng, T, d, step), step=step)
                      for _ in range(clips))
            for loss in losses}


def _similarities(embeddings, language):
    """Cosine similarities as actol.clip computed them before _cosines."""
    lang = language[..., :, None]
    norm_l = np.sqrt(np.matmul(np.swapaxes(lang, -1, -2), lang))[..., 0]
    norms = np.linalg.norm(embeddings, axis=-1) * norm_l
    if np.any(norms == 0.0):
        raise ValueError("cosine similarity undefined for zero-norm input")
    return np.matmul(embeddings, lang)[..., 0] / norms


def _score_rows(s, score):
    """actol.losses._score_rows as it was, broadcasting direct-sim rows."""
    if score == "direct-sim":
        return np.broadcast_to(s[..., None, :], s.shape + s.shape[-1:])
    return -np.abs(s[..., :, None] - s[..., None, :])


def objective_and_grad(emb, lang, c, bridge=None, bb_weight=0.0, dense_rows=False):
    """(values, bridge penalties, dL/dE, dL/dl, at_kink) on (B, ..., T, d)
    embeddings and language vectors of their leading shape, composed as
    actol.gradients.objective_and_grad was before it computed each
    intermediate once; a config stack that mixes score kinds takes each
    config's rows by its own kind. dL/ds is the column sums minus the row
    sums of the dense dL/dR terms, the rows summed in sorted order, or in
    the dense order with dense_rows."""
    s = _similarities(emb, lang)
    diff = s[..., :, None] - s[..., None, :]
    # which rows score by difference: (O, 1) for a config stack that mixes kinds, else (1,)
    difference = (c.difference[..., 0] if c.score is None
                  else np.array([c.score == "difference-score"]))
    scored = difference[..., None]
    value, G = suffix_softmax(np.where(scored, -np.abs(diff), s[..., None, :]), c, True)
    at_kink = np.any((G != 0) & (np.abs(diff) < KINK_TOL) & scored, axis=(-2, -1))
    GS = np.where(scored, G * np.sign(diff), G)
    if dense_rows:
        rows = GS.sum(axis=-1)
    else:  # a contiguous gather, so that each row sums as the step's sorted rows do
        rows = GS.reshape(len(GS), -1).take(sorted_at(c), axis=1).sum(axis=-1)
    g_s = np.where(difference, -rows + GS.sum(axis=-2), GS.sum(axis=-2))
    norms_v = np.linalg.norm(emb, axis=-1)[..., None]
    norm_l = np.sqrt(np.matmul(lang[..., None, :], lang[..., :, None]))[..., 0]
    u_v = emb / norms_v
    u_l = lang / norm_l
    cos = np.matmul(u_v, u_l[..., :, None])
    frames = g_s[..., None] * (u_l[..., None, :] - cos * u_v) / norms_v
    language = (g_s[..., None] * (u_v - cos * u_l[..., None, :])).sum(axis=-2) / norm_l
    if bridge is None:
        return value, np.zeros(value.shape), frames, language, at_kink
    bb, g_bb = bridge.penalty(emb, need_grad=True)
    return value, bb, frames + bb_weight * g_bb, language, at_kink


def tangent_step(vectors, grads, lr):
    """actol.trainer._tangent_step as it was, renormalizing with np.linalg.norm."""
    if lr == 0.0:
        return vectors
    radial = (grads * vectors).sum(axis=-1, keepdims=True)
    tangent = grads - radial * vectors
    stepped = vectors - lr * tangent
    return stepped / np.linalg.norm(stepped, axis=-1, keepdims=True)
