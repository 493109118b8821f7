"""Numerical witnesses for the ordering lower bound, its tightness
construction, the Lipschitz continuity of alignment scores, and their
robustness to language perturbations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clip import ClipSequence, alignment_score
from .losses import (
    TieGroups,
    _bridge_deviations,
    _distance_matrix,
    full_interval,
    lower_bound,
    lower_bound_from_timestamps,
    vlo_loss,
    vlo_loss_on_scores,
)
from .synthetic import perturb_language, sample_bridge

FLOAT_SLACK = 1e-12


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    instances: int
    violations: int
    worst_slack: float
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "instances": self.instances,
            "violations": self.violations,
            "worst_slack": self.worst_slack,
            "passed": self.passed,
            "details": self.details,
        }


def check_lower_bound(clips) -> TheoremReport:
    """Assert vlo_loss > lower_bound strictly for every clip with T >= 3.
    T = 2 clips are a 0 == 0 boundary and are reported, not asserted."""
    if not clips:
        raise ValueError("need at least one clip")
    violations = 0
    min_gap = np.inf
    boundary = 0
    for clip in clips:
        gap = vlo_loss(clip) - lower_bound(clip)
        if clip.T == 2:
            boundary += 1
            continue
        min_gap = min(min_gap, gap)
        if gap <= 0:
            violations += 1
    instances = len(clips) - boundary
    return TheoremReport(
        theorem="lower-bound",
        instances=instances,
        violations=violations,
        worst_slack=float(min_gap) if instances else 0.0,
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
    timestamps = tuple(int(t) for t in timestamps)
    T = len(timestamps)
    groups = TieGroups.of(timestamps)
    min_mult = int(groups.sizes().min())
    # adjacent sorted positions with different distances are adjacent levels
    level_gaps = (groups.distances[:, :-1] - groups.distances[:, 1:]).astype(float)
    min_level_gap = float(level_gaps[level_gaps > 0].min(initial=np.inf))

    gamma = np.log(T / (min_mult * eps))
    scale = max(gamma, 0.0) / min_level_gap if np.isfinite(min_level_gap) else 1.0
    return -scale * _distance_matrix(timestamps)


def check_tightness(timestamps, eps_values) -> TheoremReport:
    """Evaluate the near-optimal construction against the lower bound for
    each eps."""
    timestamps = tuple(int(t) for t in timestamps)
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
        instances=len(list(eps_values)),
        violations=violations,
        worst_slack=float(worst),
        passed=violations == 0,
        details={"lower_bound": lb, "excess_by_eps": excesses},
    )


def check_continuity(clip: ClipSequence, pairs) -> TheoremReport:
    """Assert the Lipschitz step |score(v_k, v_l, lang)| <= ||v_k - v_l||
    for each index pair, and report (not assert) the worst bridge-deviation
    ratio max_t ||v_t - mean(t)||^2 / var(t) over the full-clip interval."""
    violations = 0
    worst = -np.inf
    lang = clip.language
    for k, l in pairs:
        lhs = abs(alignment_score(clip.embeddings[k], clip.embeddings[l], lang))
        rhs = float(np.linalg.norm(clip.embeddings[k] - clip.embeddings[l]))
        worst = max(worst, lhs - rhs)
        if lhs > rhs + FLOAT_SLACK:
            violations += 1

    dev, var, _ = _bridge_deviations(clip, full_interval(clip))
    ratio = float(np.max(np.einsum("pd,pd->p", dev, dev) / var, initial=0.0))
    return TheoremReport(
        theorem="continuity-lipschitz",
        instances=len(list(pairs)),
        violations=violations,
        worst_slack=float(worst),
        passed=violations == 0,
        details={"bridge_deviation_ratio": ratio},
    )


def lipschitz_pairs_report(dim: int, trials: int, seed: int) -> TheoremReport:
    """Lipschitz step on random unit-vector triples (v_k, v_l, lang)."""
    rng = np.random.default_rng(seed)
    violations = 0
    worst = -np.inf
    for _ in range(trials):
        v = rng.standard_normal((3, dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        lhs = abs(alignment_score(v[0], v[1], v[2]))
        rhs = float(np.linalg.norm(v[0] - v[1]))
        worst = max(worst, lhs - rhs)
        if lhs > rhs + FLOAT_SLACK:
            violations += 1
    return TheoremReport(
        theorem="continuity-lipschitz",
        instances=trials,
        violations=violations,
        worst_slack=float(worst),
        passed=violations == 0,
    )


def bridge_stats_report(
    dim: int,
    t_end: int,
    samples: int,
    seed: int,
    tolerance: float = 0.05,
    variance_sign: float = 1.0,
) -> TheoremReport:
    """Monte Carlo check of sampled bridges against the analytic mean and
    variance: endpoints must match exactly, the midpoint's per-coordinate
    variance must match within the relative tolerance, and the midpoint
    mean must sit within 5 standard errors. variance_sign exists as a
    negative control for the CLI (flipping it must fail the check)."""
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(dim)
    v0 /= np.linalg.norm(v0)
    v1 = rng.standard_normal(dim)
    v1 /= np.linalg.norm(v1)
    if t_end % 2 or t_end < 2:
        raise ValueError("t_end must be even and >= 2 so the midpoint is a sample time")
    mid = t_end // 2

    mids = np.empty((samples, dim))
    violations = 0
    for k in range(samples):
        path = sample_bridge(v0, v1, 0, t_end, seed=seed + 1 + k)
        if not (np.array_equal(path[0], v0) and np.array_equal(path[-1], v1)):
            violations += 1
        mids[k] = path[mid]

    expected_mean = 0.5 * (v0 + v1)
    expected_var = variance_sign * (mid * (t_end - mid) / t_end)
    emp_var = float(mids.var(axis=0, ddof=1).mean())
    var_err = abs(emp_var - expected_var) / abs(expected_var)
    if var_err > tolerance:
        violations += 1
    se = np.sqrt(emp_var / samples)
    mean_err = float(np.max(np.abs(mids.mean(axis=0) - expected_mean)))
    if mean_err > 5 * se:
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


def check_robustness(v_i, v_j, l, delta_l: float, trials: int, seed: int) -> TheoremReport:
    """Assert the perturbation bound |score(l') - score(l)| <= 2 * delta_l
    over random language perturbations of size at most delta_l."""
    if not (0 <= delta_l <= 2):
        raise ValueError("delta_l must lie in [0, 2]")
    base = alignment_score(v_i, v_j, l)
    bound = 2.0 * delta_l
    violations = 0
    worst_ratio = 0.0
    for trial in range(trials):
        lp = perturb_language(l, delta_l, seed + trial)
        diff = abs(alignment_score(v_i, v_j, lp) - base)
        if bound > 0:
            worst_ratio = max(worst_ratio, diff / bound)
        if diff > bound + FLOAT_SLACK:
            violations += 1
    return TheoremReport(
        theorem="robustness",
        instances=trials,
        violations=violations,
        worst_slack=float(worst_ratio),
        passed=violations == 0,
        details={"delta_l": delta_l, "bound": bound},
    )
