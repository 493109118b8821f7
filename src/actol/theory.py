"""Numerical witnesses for the ordering lower bound, its tightness
construction, the Lipschitz continuity of alignment scores, and their
robustness to language perturbations.

The Monte Carlo checks draw from default_rng(seed), where seed is an int
or a Generator, so one Generator can serve several checks in turn.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .clip import ClipSequence, _timestamps, alignment_score
from .losses import (
    Bridge,
    TieGroups,
    actol_loss,
    full_interval,
    lower_bound_from_timestamps,
    vlo_loss_on_scores,
)
from .synthetic import perturb_language, random_units, sample_bridge

FLOAT_SLACK = 1e-12
# Monte Carlo trials are drawn and checked this many at a time, which
# bounds the memory of a check whatever its trial count.
BLOCK_TRIALS = 256


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    instances: int
    violations: int
    worst_slack: float
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def check_lower_bound(clips) -> TheoremReport:
    """Assert vlo_loss > lower_bound strictly for every clip with T >= 3.
    T = 2 clips are a 0 == 0 boundary and are reported, not asserted."""
    if not clips:
        raise ValueError("need at least one clip")
    gaps = np.array([actol_loss(clip, intervals=[]).gap for clip in clips if clip.T > 2])
    boundary = len(clips) - gaps.size
    violations = int(np.count_nonzero(~(gaps > 0)))
    return TheoremReport(
        theorem="lower-bound",
        instances=gaps.size,
        violations=violations,
        worst_slack=float(gaps.min()) if gaps.size else 0.0,
        passed=violations == 0,
        details={"boundary_t2_clips": boundary},
    )


def construct_near_optimal(timestamps, eps: float) -> np.ndarray:
    """Score matrix driving the ordering loss within eps of its lower bound:
    scores proportional to negative temporal distance, scaled so every
    consecutive per-anchor distance level differs by at least
    gamma = log(T / (min multiplicity * eps))."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    groups = TieGroups.of(timestamps)
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


def check_tightness(timestamps, eps_values) -> TheoremReport:
    """Evaluate the near-optimal construction against the lower bound for
    each eps."""
    timestamps = _timestamps(timestamps)
    eps_values = list(eps_values)
    if not eps_values:
        raise ValueError("need at least one eps")
    lb = lower_bound_from_timestamps(timestamps)
    violations = 0
    worst = -np.inf
    excesses = {}
    for eps in eps_values:
        scores = construct_near_optimal(timestamps, eps)
        loss = vlo_loss_on_scores(timestamps, scores)
        excess = loss - lb
        excesses[str(eps)] = excess
        worst = max(worst, excess - eps)
        if excess >= eps:
            violations += 1
    return TheoremReport(
        theorem="tightness",
        instances=len(eps_values),
        violations=violations,
        worst_slack=float(worst),
        passed=violations == 0,
        details={"lower_bound": lb, "excess_by_eps": excesses},
    )


def _blocks(trials: int) -> list:
    """Sizes of the blocks that trials are drawn in. Blocks drawn in turn
    from one Generator give the same numbers as a single draw."""
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    return [min(BLOCK_TRIALS, trials - start) for start in range(0, trials, BLOCK_TRIALS)]


def _lipschitz_report(blocks, **details) -> TheoremReport:
    """Lipschitz step |score(v_k, v_l, lang)| <= ||v_k - v_l|| on every row
    of each (v_k, v_l, lang) block; a NaN counts as a violation."""
    slack = np.concatenate([
        np.abs(alignment_score(k, l, lang)) - np.linalg.norm(k - l, axis=-1)
        for k, l, lang in blocks
    ])
    violations = int(np.count_nonzero(~(slack <= FLOAT_SLACK)))
    return TheoremReport(
        theorem="continuity-lipschitz",
        instances=slack.size,
        violations=violations,
        worst_slack=float(np.max(slack, initial=-np.inf)),
        passed=violations == 0,
        details=details,
    )


def check_continuity(clip: ClipSequence, pairs) -> TheoremReport:
    """Assert the Lipschitz step |score(v_k, v_l, lang)| <= ||v_k - v_l||
    for each index pair, and report (not assert) the worst bridge-deviation
    ratio max_t ||v_t - mean(t)||^2 / var(t) over the full-clip interval."""
    k, l = np.array(list(pairs), dtype=int).reshape(-1, 2).T
    bridge = Bridge.of(clip.timestamps, [full_interval(clip)])
    dev = bridge.M @ clip.embeddings  # one interval of n = len(w) frames: w = 1 / (2 var n)
    ratio = float(np.max(2 * len(bridge.w) * bridge.w * np.sum(dev * dev, axis=1), initial=0.0))
    blocks = [(clip.embeddings[k], clip.embeddings[l], clip.language)]
    return _lipschitz_report(blocks, bridge_deviation_ratio=ratio)


def lipschitz_pairs_report(dim: int, trials: int, seed) -> TheoremReport:
    """Lipschitz step on random unit-vector triples (v_k, v_l, lang)."""
    rng = np.random.default_rng(seed)
    triples = (random_units((n, 3, dim), rng) for n in _blocks(trials))
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
    variance must match within the relative tolerance, and the midpoint
    mean must sit within 5 standard errors; a NaN statistic is a
    violation. A rejected call draws nothing. variance_sign exists as a
    negative control for the CLI (flipping it must fail the check)."""
    if not isinstance(t_end, (int, np.integer)) or t_end % 2 or t_end < 2:
        raise ValueError("t_end must be an even integer >= 2 so the midpoint is a sample time")
    if samples < 2:
        raise ValueError(f"need at least two samples for a variance, got {samples}")
    rng = np.random.default_rng(seed)
    v0, v1 = random_units((2, dim), rng)
    mid = t_end // 2

    mids = []
    violations = 0
    for n in _blocks(samples):
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
    return TheoremReport(
        theorem="bridge-stats",
        instances=samples,
        violations=violations,
        worst_slack=float(var_err),
        passed=violations == 0,
        details={
            "expected_midpoint_variance": float(expected_var),
            "empirical_midpoint_variance": emp_var,
            "midpoint_mean_abs_error": mean_err,
        },
    )


def check_robustness(v_i, v_j, l, delta_l: float, trials: int, seed) -> TheoremReport:
    """Assert the perturbation bound |score(l') - score(l)| <= 2 * delta_l
    over random language perturbations of size at most delta_l; a NaN
    counts as a violation."""
    rng = np.random.default_rng(seed)
    base = alignment_score(v_i, v_j, l)
    bound = 2.0 * delta_l
    diff = np.concatenate([
        np.abs(alignment_score(v_i, v_j, perturb_language(np.tile(l, (n, 1)), delta_l, rng)) - base)
        for n in _blocks(trials)
    ])
    violations = int(np.count_nonzero(~(diff <= bound + FLOAT_SLACK)))
    return TheoremReport(
        theorem="robustness",
        instances=trials,
        violations=violations,
        worst_slack=float(diff.max() / bound) if bound > 0 else 0.0,
        passed=violations == 0,
        details={"delta_l": delta_l, "bound": bound},
    )
