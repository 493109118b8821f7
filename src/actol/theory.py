"""Numerical witnesses for the ordering lower bound, its tightness
construction, the Lipschitz continuity of alignment scores, and their
robustness to language perturbations.

The Monte Carlo checks draw from default_rng(seed), where seed is an int
or a Generator, so one Generator can serve several checks in turn. They
draw and check their trials in blocks of up to BLOCK_VALUES values: d
values per robustness trial, 3d per Lipschitz triple and (t_end + 1) d per
bridge path. Blocks are drawn in turn from one Generator, so every draw
is the same whatever the block size. lower_bound_report draws BLOCK_CLIPS
random clips at a time: every T and every d of the block in one call
each, then each (T, d) shape's clips as arrays, a few calls per shape, so
its draws, unlike the trial blocks', depend on the block size. The
lower-bound check evaluates clips of one length as
stacks of up to losses.BLOCK_SCORES scores: one sort and one kernel call
per stack, for drawn clips and for check_lower_bound's ClipSequences alike.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from .clip import ClipSequence, _cosines, _is_count, _is_real, _timestamps, alignment_score
from .losses import (
    Bridge,
    Contrast,
    TieGroups,
    TnceConfig,
    _check_non_negative,
    _score_rows,
    _stack_size,
    _suffix_softmax,
)
from .synthetic import MAX_GAP, _clip_arrays, perturb_language, random_units, sample_bridge

FLOAT_SLACK = 1e-12
# Monte Carlo trials are drawn and checked in blocks of up to this many
# values (see _trial_blocks), which bounds the memory of a check whatever
# its trial count. It is 256 bridge paths of the README's 11 times 6
# values, the block bridge-stats had when blocks held 256 trials of any
# size; robustness trials of d = 8 values then come 2112 to a block. Over
# six in-process cycles of the checks workload's verify and gradcheck, peak
# RSS read 0.1-0.2 MB above 256-trial blocks at 16384 values and 1 MB above
# at 32768; at 16896 and 20000 it read the same.
BLOCK_VALUES = 16896
# lower_bound_report draws and checks this many clips at a time, which
# bounds its memory whatever its clip count. One block holds the README's
# 1000 clips: on them, 256-clip blocks took about 2.3 times as long (best of
# 21: 27-31 ms against 12.7 ms), since each (T, d) shape and each length
# then recurs in every block with fewer clips per draw, array pass and
# kernel call. The block size is part of the stream: changing it changes
# every lower-bound report and the draws of every check after it.
BLOCK_CLIPS = 1024


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    instances: int
    violations: int
    worst_slack: float
    passed: bool
    details: dict = field(default_factory=dict)

    @classmethod
    def of(cls, theorem: str, instances: int, violations: int, worst_slack,
           **details) -> "TheoremReport":
        """The report of a check that passes when nothing violates it."""
        return cls(theorem, instances, violations, float(worst_slack), violations == 0, details)

    def to_dict(self) -> dict:
        return asdict(self)


def _lower_bound_gaps(timestamps, similarities) -> np.ndarray:
    """vlo_loss minus its lower bound for each of N clips of one length
    T > 2, given their (N, T) timestamps and (N, T) similarities: one sort
    and one kernel call per stack of up to BLOCK_SCORES scores."""
    cfg = TnceConfig()
    T = similarities.shape[-1]
    size = _stack_size(T * T)
    gaps = []
    for start in range(0, len(similarities), size):
        c = Contrast.of(timestamps[start : start + size], cfg)
        rows = _score_rows(similarities[start : start + size], c)
        values = _suffix_softmax(rows[None], c, False)[0][0]
        gaps.append(values - c.groups.lower_bound())
    return np.concatenate(gaps)


def _lower_bound_result(gaps, clips: int) -> TheoremReport:
    """The lower-bound report of clips clips, of which those with T > 2
    have the loss-minus-bound gaps; the rest are T = 2 boundary clips."""
    gaps = np.concatenate([np.empty(0), *gaps])
    violations = int(np.count_nonzero(~(gaps > 0)))
    return TheoremReport.of("lower-bound", gaps.size, violations, gaps.min() if gaps.size else 0.0,
                            boundary_t2_clips=clips - gaps.size)


def check_lower_bound(clips) -> TheoremReport:
    """Assert vlo_loss > lower_bound strictly for every clip with T >= 3.
    T = 2 clips are a 0 == 0 boundary and are reported, not asserted.

    The asserted clips of one length are evaluated in stacks of up to
    BLOCK_SCORES scores: each stack's losses and bounds come from one sort
    of its (N, T) timestamp rows and one kernel call."""
    if not clips:
        raise ValueError("need at least one clip")
    by_length = {}
    for clip in clips:
        if clip.T > 2:
            by_length.setdefault(clip.T, []).append(clip)
    gaps = [
        _lower_bound_gaps(np.array([clip.timestamps for clip in same_length]),
                          np.stack([clip.similarities() for clip in same_length]))
        for same_length in by_length.values()
    ]
    return _lower_bound_result(gaps, len(clips))


def _shape_range(value, name: str) -> tuple:
    """value as (lo, hi): two integers 2 <= lo <= hi, a range of frame
    counts or dimensions."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(map(_is_count, value)) and 2 <= value[0] <= value[1]):
        raise ValueError(f"{name} must be two integers 2 <= lo <= hi, got {value!r}")
    return int(value[0]), int(value[1])


def lower_bound_report(clips: int, t_range, d_range, seed) -> TheoremReport:
    """check_lower_bound on clips random clips, drawn in blocks of
    BLOCK_CLIPS. A block of n clips draws their n T, then their n d, each
    uniformly from the inclusive t_range and d_range in one call; then,
    for each (T, d) shape with T > 2 in sorted order, its m clips' (m, T - 1)
    timestamp gaps in [1, MAX_GAP], (m, T, d) frame normals and (m, d) language
    normals in one call each, normalized as random_clip normalizes them.
    T = 2 clips are only counted. Only the clips' gaps outlive their block;
    within it, the similarities of one shape are taken in one pass. A
    rejected call draws nothing."""
    (t_lo, t_hi), (d_lo, d_hi) = _shape_range(t_range, "t_range"), _shape_range(d_range, "d_range")
    rng = np.random.default_rng(seed)
    gaps = []
    for n in _blocks(clips, BLOCK_CLIPS):
        Ts, ds = rng.integers(t_lo, t_hi + 1, size=n), rng.integers(d_lo, d_hi + 1, size=n)
        by_length = {}  # T: [(timestamps, similarities) of each (T, d) shape]
        for (T, d), m in sorted(Counter(zip(Ts.tolist(), ds.tolist())).items()):
            if T > 2:
                ts, frames, lang = _clip_arrays(rng.integers(1, MAX_GAP + 1, size=(m, T - 1)),
                                                rng.standard_normal((m, T, d)),
                                                rng.standard_normal((m, d)))
                by_length.setdefault(T, []).append((ts, _cosines(frames, lang)[0]))
        gaps += [_lower_bound_gaps(*map(np.concatenate, zip(*shapes)))
                 for shapes in by_length.values()]
    return _lower_bound_result(gaps, clips)


def _near_optimal_scores(groups: TieGroups, eps) -> np.ndarray:
    """construct_near_optimal on the TieGroups of one timestamp row."""
    if not (_is_real(eps) and eps > 0):
        raise ValueError(f"eps must be a positive number, got {eps!r}")
    T = len(groups.order)
    min_mult = int(groups.sizes().min())
    # adjacent sorted positions with different distances are adjacent levels
    level_gaps = (groups.distances[:, :-1] - groups.distances[:, 1:]).astype(float)
    min_level_gap = float(level_gaps[level_gaps > 0].min(initial=np.inf))

    gamma = np.log(T / (min_mult * eps))
    scale = max(gamma, 0.0) / min_level_gap if np.isfinite(min_level_gap) else 1.0
    distances = np.zeros((T, T), dtype=groups.distances.dtype)
    np.put_along_axis(distances, groups.order, groups.distances, axis=1)
    return -scale * distances


def construct_near_optimal(timestamps, eps: float) -> np.ndarray:
    """Score matrix driving the ordering loss within eps of its lower bound:
    scores proportional to negative temporal distance, scaled so every
    consecutive per-anchor distance level differs by at least
    gamma = log(T / (min multiplicity * eps))."""
    return _near_optimal_scores(TieGroups.of(_timestamps(timestamps)), eps)


def check_tightness(timestamps, eps_values) -> TheoremReport:
    """Evaluate the near-optimal construction against the lower bound for
    each eps. The bound and every eps's loss come from one sort."""
    timestamps = _timestamps(timestamps)
    eps_values = list(eps_values)
    if not eps_values:
        raise ValueError("need at least one eps")
    c = Contrast.of(timestamps, TnceConfig())
    lb = c.groups.lower_bound()
    violations = 0
    worst = -np.inf
    excesses = {}
    for eps in eps_values:
        scores = _near_optimal_scores(c.groups, eps)
        loss = float(_suffix_softmax(scores[None], c, False, np.ptp(scores))[0][0])
        excess = loss - lb
        excesses[str(eps)] = excess
        worst = max(worst, excess - eps)
        if excess >= eps:
            violations += 1
    return TheoremReport.of("tightness", len(eps_values), violations, worst, lower_bound=lb,
                            excess_by_eps=excesses)


def _blocks(trials: int, size: int) -> list:
    """Sizes of the blocks of up to size that trials are drawn in. Blocks
    drawn in turn from one Generator give the same numbers as a single
    draw."""
    if not (_is_count(trials) and trials >= 1):
        raise ValueError(f"need a positive integer number of trials, got {trials!r}")
    return [min(size, trials - start) for start in range(0, trials, size)]


def _trial_blocks(trials: int, values_per_trial: int) -> list:
    """_blocks of trials that hold values_per_trial values each: up to
    BLOCK_VALUES values per block, and at least one trial. A count below 1
    (a bad dimension) is left for the caller's draw to reject."""
    return _blocks(trials, max(1, BLOCK_VALUES // max(1, values_per_trial)))


def _lipschitz_report(blocks, **details) -> TheoremReport:
    """Lipschitz step |score(v_k, v_l, lang)| <= ||v_k - v_l|| on every row
    of each (v_k, v_l, lang) block; a NaN counts as a violation."""
    slack = np.concatenate([
        np.abs(alignment_score(k, l, lang)) - np.linalg.norm(k - l, axis=-1)
        for k, l, lang in blocks
    ])
    violations = int(np.count_nonzero(~(slack <= FLOAT_SLACK)))
    return TheoremReport.of("continuity-lipschitz", slack.size, violations,
                            np.max(slack, initial=-np.inf), **details)


def check_continuity(clip: ClipSequence, pairs) -> TheoremReport:
    """Assert the Lipschitz step |score(v_k, v_l, lang)| <= ||v_k - v_l||
    for each index pair, and report (not assert) the worst bridge-deviation
    ratio max_t ||v_t - mean(t)||^2 / var(t) over the full-clip interval.
    pairs must hold at least one pair of integer frame indices in [0, T)."""
    pairs = list(pairs)
    if not (pairs and all(np.shape(p) == (2,) and all(map(_is_count, p)) for p in pairs)
            and 0 <= np.min(pairs) and np.max(pairs) < clip.T):
        raise ValueError(f"pairs must be one or more pairs of frame indices in [0, {clip.T})")
    k, l = np.array(pairs, dtype=int).T
    bridge = Bridge.of(clip.timestamps)
    dev = bridge.M @ clip.embeddings  # one interval of n = len(w) frames: w = 1 / (2 var n)
    ratio = float(np.max(2 * len(bridge.w) * bridge.w * np.sum(dev * dev, axis=1), initial=0.0))
    blocks = [(clip.embeddings[k], clip.embeddings[l], clip.language)]
    return _lipschitz_report(blocks, bridge_deviation_ratio=ratio)


def lipschitz_pairs_report(dim: int, trials: int, seed) -> TheoremReport:
    """Lipschitz step on random unit-vector triples (v_k, v_l, lang)."""
    rng = np.random.default_rng(seed)
    triples = (random_units((n, 3, dim), rng) for n in _trial_blocks(trials, 3 * dim))
    return _lipschitz_report((v[:, 0], v[:, 1], v[:, 2]) for v in triples)


def bridge_stats_report(
    dim: int,
    t_end: int,
    samples: int,
    seed,
    tolerance: float = 0.05,
    variance_sign: float = 1.0,
) -> TheoremReport:
    """Monte Carlo check of sampled bridges against the analytic mean and
    variance: endpoints must match exactly, the midpoint's per-coordinate
    variance must match within the relative tolerance (finite and
    non-negative, else ValueError), and the midpoint
    mean must sit within 5 standard errors; a NaN statistic is a
    violation. A rejected call draws nothing. variance_sign exists as a
    negative control for the CLI (flipping it must fail the check)."""
    if not isinstance(t_end, (int, np.integer)) or t_end % 2 or t_end < 2:
        raise ValueError("t_end must be an even integer >= 2 so the midpoint is a sample time")
    if samples < 2:
        raise ValueError(f"need at least two samples for a variance, got {samples}")
    _check_non_negative("tolerance", tolerance)
    rng = np.random.default_rng(seed)
    v0, v1 = random_units((2, dim), rng)
    mid = t_end // 2

    mids = []
    violations = 0
    for n in _trial_blocks(samples, (t_end + 1) * dim):
        paths = sample_bridge(np.tile(v0, (n, 1)), np.tile(v1, (n, 1)), 0, t_end, rng)
        exact = np.all(paths[:, 0] == v0, axis=-1) & np.all(paths[:, -1] == v1, axis=-1)
        violations += int(np.count_nonzero(~exact))
        mids.append(paths[:, mid].copy())  # a view would keep every path alive
    mids = np.concatenate(mids)

    expected_mean = 0.5 * (v0 + v1)
    expected_var = variance_sign * (mid * (t_end - mid) / t_end)
    emp_var = float(mids.var(axis=0, ddof=1).mean())
    var_err = abs(emp_var - expected_var) / abs(expected_var)
    if not var_err <= tolerance:
        violations += 1
    se = np.sqrt(emp_var / samples)
    mean_err = float(np.max(np.abs(mids.mean(axis=0) - expected_mean)))
    if not mean_err <= 5 * se:
        violations += 1
    return TheoremReport.of("bridge-stats", samples, violations, var_err,
                            expected_midpoint_variance=float(expected_var),
                            empirical_midpoint_variance=emp_var, midpoint_mean_abs_error=mean_err)


def check_robustness(v_i, v_j, l, delta_l: float, trials: int, seed) -> TheoremReport:
    """Assert the perturbation bound |score(l') - score(l)| <= 2 * delta_l
    over random language perturbations of size at most delta_l; a NaN
    counts as a violation."""
    rng = np.random.default_rng(seed)
    base = alignment_score(v_i, v_j, l)
    bound = 2.0 * delta_l
    diff = np.concatenate([
        np.abs(alignment_score(v_i, v_j, perturb_language(np.tile(l, (n, 1)), delta_l, rng)) - base)
        for n in _trial_blocks(trials, np.size(l))
    ])
    violations = int(np.count_nonzero(~(diff <= bound + FLOAT_SLACK)))
    return TheoremReport.of("robustness", trials, violations,
                            diff.max() / bound if bound > 0 else 0.0, delta_l=delta_l, bound=bound)
