import naive
import numpy as np
import pytest

import actol.theory as theory
from actol import (
    ClipSequence,
    bridge_stats_report,
    check_continuity,
    check_lower_bound,
    check_robustness,
    check_tightness,
    construct_near_optimal,
    lipschitz_pairs_report,
    lower_bound_from_timestamps,
    random_clip,
    vlo_loss_on_scores,
)


class TestLowerBoundCheck:
    def test_random_population(self):
        rng = np.random.default_rng(0)
        clips = [random_clip(int(rng.integers(3, 9)), int(rng.integers(2, 6)), rng)
                 for _ in range(200)]
        report = check_lower_bound(clips)
        assert report.passed
        assert report.violations == 0
        assert report.worst_slack > 0

    def test_t2_clips_counted_as_boundary(self):
        rng = np.random.default_rng(1)
        clips = [random_clip(2, 3, rng) for _ in range(5)]
        report = check_lower_bound(clips)
        assert report.passed
        assert report.instances == 0
        assert report.details["boundary_t2_clips"] == 5

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            check_lower_bound([])


class TestTightness:
    @pytest.mark.parametrize("timestamps", [(0, 1, 2), (0, 1, 2, 3, 4), (0, 2, 3, 7)])
    def test_construction_beats_eps(self, timestamps):
        report = check_tightness(timestamps, [1.0, 0.1, 0.01])
        assert report.passed
        assert report.worst_slack < 0

    def test_excess_above_lower_bound(self):
        # the construction approaches but never reaches the bound
        ts = (0, 1, 2, 3)
        lb = lower_bound_from_timestamps(ts)
        for eps in (0.5, 0.05):
            loss = vlo_loss_on_scores(ts, construct_near_optimal(ts, eps))
            assert lb < loss < lb + eps

    def test_eps_values_read_once(self):
        report = check_tightness((0, 1, 2, 3), iter([1.0, 0.1, 0.01]))
        assert report.instances == 3
        assert len(report.details["excess_by_eps"]) == 3

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            construct_near_optimal((0, 1, 2), 0.0)

    def test_scores_scale_with_smaller_eps(self):
        a = construct_near_optimal((0, 1, 2), 0.1)
        b = construct_near_optimal((0, 1, 2), 0.01)
        assert b.min() < a.min() < 0


class TestContinuity:
    def test_random_clip_pairs(self):
        rng = np.random.default_rng(2)
        clip = random_clip(6, 4, rng)
        pairs = [(k, l) for k in range(6) for l in range(k + 1, 6)]
        report = check_continuity(clip, pairs)
        assert report.passed
        assert report.instances == len(pairs)
        assert report.worst_slack <= 0
        assert report.details["bridge_deviation_ratio"] >= 0

    def test_pairs_read_once(self):
        clip = random_clip(5, 3, np.random.default_rng(4))
        pairs = [(k, l) for k in range(5) for l in range(k + 1, 5)]
        assert check_continuity(clip, iter(pairs)) == check_continuity(clip, pairs)
        assert check_continuity(clip, iter(pairs)).instances == len(pairs)

    def test_lipschitz_pairs_random_triples(self):
        report = lipschitz_pairs_report(dim=6, trials=2000, seed=3)
        assert report.passed
        assert report.violations == 0


class TestBridgeStats:
    def test_passes_with_correct_statistics(self):
        report = bridge_stats_report(dim=4, t_end=10, samples=3000, seed=5)
        assert report.passed
        assert report.details["expected_midpoint_variance"] == pytest.approx(2.5)

    def test_negative_control_flipped_variance_fails(self):
        report = bridge_stats_report(dim=4, t_end=10, samples=3000, seed=5,
                                     variance_sign=-1.0)
        assert not report.passed

    def test_odd_t_end_rejected(self):
        with pytest.raises(ValueError):
            bridge_stats_report(dim=3, t_end=7, samples=100, seed=0)

    @pytest.mark.parametrize(
        "kwargs", [{"t_end": 7}, {"samples": 1}, {"dim": 1}], ids=["t_end-7", "samples-1", "dim-1"]
    )
    def test_rejected_call_draws_nothing(self, kwargs):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            bridge_stats_report(**{"dim": 3, "t_end": 6, "samples": 100, "seed": rng, **kwargs})
        assert rng.bit_generator.state == state

    def test_nan_tolerance_fails(self):
        report = bridge_stats_report(dim=4, t_end=10, samples=500, seed=5, tolerance=float("nan"))
        assert not report.passed


class TestRobustness:
    def unit(self, seed, d=5):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(d)
        return v / np.linalg.norm(v)

    def test_bound_holds(self):
        v_i, v_j, l = self.unit(10), self.unit(11), self.unit(12)
        for delta in (0.05, 0.2, 1.0):
            report = check_robustness(v_i, v_j, l, delta, trials=500, seed=7)
            assert report.passed
            assert report.details["bound"] == pytest.approx(2 * delta)
            assert 0 <= report.worst_slack <= 1

    def test_zero_delta(self):
        v_i, v_j, l = self.unit(13), self.unit(14), self.unit(15)
        report = check_robustness(v_i, v_j, l, 0.0, trials=10, seed=0)
        assert report.passed

    def test_invalid_delta(self):
        v = self.unit(16)
        with pytest.raises(ValueError):
            check_robustness(v, v, v, 3.0, trials=1, seed=0)


class TestBlocks:
    def test_reports_do_not_depend_on_block_size(self, monkeypatch):
        v_i, v_j, l = np.random.default_rng(1).standard_normal((3, 5))

        def reports():
            return [
                lipschitz_pairs_report(dim=4, trials=1500, seed=2).to_dict(),
                check_robustness(v_i, v_j, l, 0.3, trials=1500, seed=2).to_dict(),
                bridge_stats_report(dim=3, t_end=6, samples=1500, seed=2).to_dict(),
            ]

        default = reports()
        monkeypatch.setattr(theory, "BLOCK_TRIALS", 7)
        assert reports() == default


class TestAgainstLoopReference:
    @pytest.mark.parametrize("dim,trials,seed", [(2, 1500, 0), (8, 2500, 3), (3, 7, 1)])
    def test_lipschitz_pairs(self, dim, trials, seed):
        report = lipschitz_pairs_report(dim, trials, seed)
        violations, worst = naive.lipschitz_pairs_report(dim, trials, seed)
        assert report.instances == trials
        assert report.violations == violations
        assert report.worst_slack == pytest.approx(worst, rel=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 0.05], ids=["unit", "shrunk"])
    def test_continuity(self, scale):
        # a shrunk clip breaks the step: scores are scale-free, distances not
        rng = np.random.default_rng(6)
        for _ in range(20):
            clip = random_clip(int(rng.integers(2, 9)), int(rng.integers(2, 6)), rng)
            clip = clip.with_embeddings(scale * clip.embeddings)
            pairs = [(k, l) for k in range(clip.T) for l in range(clip.T) if k != l]
            report = check_continuity(clip, pairs)
            violations, worst = naive.check_continuity(clip, pairs)
            assert report.violations == violations
            assert report.worst_slack == pytest.approx(worst, rel=1e-12)
            assert (violations > 0) == (scale < 1)

    @pytest.mark.parametrize("delta", [0.0, 0.01, 0.5, 2.0])
    def test_robustness(self, delta):
        v_i, v_j, l = np.random.default_rng(7).standard_normal((3, 6))
        report = check_robustness(v_i, v_j, l, delta, trials=1200, seed=8)
        violations, worst = naive.check_robustness(v_i, v_j, l, delta, 1200, 8)
        assert report.violations == violations
        assert report.worst_slack == pytest.approx(worst, rel=1e-12)


class TestReportSerialization:
    def test_to_dict_roundtrips_fields(self):
        report = lipschitz_pairs_report(dim=3, trials=10, seed=0)
        data = report.to_dict()
        assert data["theorem"] == "continuity-lipschitz"
        assert data["instances"] == 10
        assert isinstance(data["passed"], bool)
