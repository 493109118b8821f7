import math
import tracemalloc
from unittest import mock

import naive
import numpy as np
import pytest

import actol.kinds as kinds
import actol.losses as losses
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
    lower_bound_report,
    random_clip,
    vlo_loss_on_scores,
)
from actol.cli import _report_robustness
from actol.losses import Bridge, Contrast, TieGroups


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

    @pytest.mark.parametrize("block_scores, calls", [(4096, 3), (18, 6)])
    def test_one_sort_and_kernel_call_per_length_and_block(self, monkeypatch, block_scores,
                                                           calls):
        # lengths 3 and 5 have three clips each, length 8 one; 18 scores
        # stack two clips of length 3 and one of any longer length
        rng = np.random.default_rng(2)
        clips = [random_clip(T, int(rng.integers(2, 6)), rng)
                 for T in (2, 3, 5, 2, 8, 3, 5, 5, 3)]
        monkeypatch.setattr(losses, "BLOCK_SCORES", block_scores)
        sorts = mock.Mock(wraps=TieGroups.of)
        monkeypatch.setattr(TieGroups, "of", sorts)
        kernel = mock.Mock(wraps=theory._sorted_softmax)
        monkeypatch.setattr(theory, "_sorted_softmax", kernel)
        report = check_lower_bound(clips)
        assert report.instances == 7
        assert sorts.call_count == kernel.call_count == calls

    def test_builds_no_bridge(self, monkeypatch):
        rng = np.random.default_rng(3)
        clips = [random_clip(T, 3, rng) for T in (3, 6)]
        spy = mock.Mock(wraps=Bridge.of)
        monkeypatch.setattr(Bridge, "of", spy)
        assert check_lower_bound(clips).passed
        assert spy.call_count == 0


class TestTightness:
    @pytest.mark.parametrize("timestamps", [(0, 1, 2), (0, 1, 2, 3, 4), (0, 2, 3, 7)])
    def test_construction_beats_eps(self, timestamps):
        report = check_tightness(timestamps, [1.0, 0.1, 0.01])
        assert report.passed
        assert report.worst_slack < 0

    def test_excess_above_lower_bound(self):
        # the construction approaches but never reaches the bound
        ts = (0, 1, 2, 3)
        lb = TieGroups.of(ts).lower_bound()
        for eps in (0.5, 0.05):
            loss = vlo_loss_on_scores(ts, construct_near_optimal(ts, eps))
            assert lb < loss < lb + eps

    @pytest.mark.parametrize("timestamps", [(0, 1, 2, 3), (0, 2, 3, 7, 8, 20), (5, 6)])
    def test_one_sort_per_check(self, monkeypatch, timestamps):
        eps_values = [2.0, 0.5, 0.01, 1e-4]
        lb = TieGroups.of(timestamps).lower_bound()
        expected = {str(eps): vlo_loss_on_scores(timestamps, construct_near_optimal(timestamps, eps))
                    - lb for eps in eps_values}
        spy = mock.Mock(wraps=TieGroups.of)
        monkeypatch.setattr(TieGroups, "of", spy)
        report = check_tightness(timestamps, eps_values)
        assert spy.call_count == 1
        assert report.details == {"lower_bound": lb, "excess_by_eps": expected}

    def test_eps_values_read_once(self):
        report = check_tightness((0, 1, 2, 3), iter([1.0, 0.1, 0.01]))
        assert report.instances == 3
        assert len(report.details["excess_by_eps"]) == 3

    def test_eps_too_small_for_a_finite_scale_rejected(self):
        # T / (min multiplicity * eps) overflows, and inf * 0 would give NaN scores
        with pytest.raises(ValueError, match="too small"):
            construct_near_optimal((0, 1, 2), 1e-320)
        with pytest.raises(ValueError, match="too small"):
            check_tightness((0, 1, 2, 3), [0.1, 1e-320])

    @pytest.mark.parametrize("eps_values", [[0.1, 0.1, 1, 1.0], [1, 1.0], [0.5, 0.1, 0.5]])
    def test_equal_eps_rejected_before_any_evaluation(self, monkeypatch, eps_values):
        kernel = mock.Mock(wraps=theory._sorted_softmax)
        monkeypatch.setattr(theory, "_sorted_softmax", kernel)
        with pytest.raises(ValueError, match="no two equal"):
            check_tightness((0, 1, 2, 3), eps_values)
        assert kernel.call_count == 0

    @pytest.mark.parametrize("side", [-1.0, 1.0], ids=["below-guard", "above-guard"])
    def test_excess_at_the_range_guard_is_the_matrix_loss(self, side):
        """With its span / tau + log T just below and just above the range
        guard, the construction's excess is bit for bit vlo_loss_on_scores'
        on the (T, T) matrix minus the bound, and the matrix keeps a -0.0
        diagonal: the kernel's span is that of the whole matrix, whose
        largest entry is the diagonal, not that of the off-diagonal scores."""
        ts = (0, 1, 3, 4, 9, 10, 100)  # levels 1 apart, a level of one frame, 100 the farthest
        T = len(ts)
        # the span is 100 gamma, gamma = log(T / eps); at 10 the excess rounds to 0 either way
        eps = T * math.exp(-(losses.EXP_RANGE - math.log(T) + side * 1e-6) / 100)
        scores = construct_near_optimal(ts, eps)
        assert (np.ptp(scores) + math.log(T) > losses.EXP_RANGE) == (side > 0)
        assert np.signbit(np.diagonal(scores)).all()
        lb = TieGroups.of(ts).lower_bound()
        excess = check_tightness(ts, [eps]).details["excess_by_eps"][str(eps)]
        assert excess == vlo_loss_on_scores(ts, scores) - lb

    def test_nan_excess_is_a_violation(self, monkeypatch):
        monkeypatch.setattr(theory, "_sorted_softmax", lambda *args: (np.array([np.nan]),))
        report = check_tightness((0, 1, 2, 3), [0.1])
        assert report.violations == 1 and not report.passed

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

    @pytest.mark.parametrize(
        "pairs",
        [[(-1, 0)], [(0.5, 1)], [(0, 6)], [], [(True, 1)], [(0, 1, 2)], [3], [(0, 1), "ab"]],
        ids=["negative", "float", "past-the-end", "none", "bool", "triple", "int", "string"],
    )
    def test_bad_pairs_rejected(self, pairs):
        """-1 wrapped to the last frame, 0.5 truncated to frame 0, 6 raised
        IndexError, and no pairs passed with worst_slack -inf."""
        clip = random_clip(6, 4, np.random.default_rng(2))
        message = r"^pairs must be one or more pairs of frame indices in \[0, 6\)$"
        with pytest.raises(ValueError, match=message):
            check_continuity(clip, pairs)

    def test_pairs_read_once(self):
        clip = random_clip(5, 3, np.random.default_rng(4))
        pairs = [(k, l) for k in range(5) for l in range(k + 1, 5)]
        assert check_continuity(clip, iter(pairs)) == check_continuity(clip, pairs)
        assert check_continuity(clip, iter(pairs)).instances == len(pairs)

    def test_lipschitz_pairs_random_triples(self):
        report = lipschitz_pairs_report(dim=6, trials=2000, seed=3)
        assert report.passed
        assert report.violations == 0

    @pytest.mark.parametrize("dim", [2.5, 1, 0, -3, True, np.nan], ids=str)
    def test_lipschitz_pairs_bad_dimension_draws_nothing(self, dim):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            lipschitz_pairs_report(dim, 100, rng)
        assert rng.bit_generator.state == state


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
        "kwargs",
        [{"t_end": 7}, {"samples": 1}, {"dim": 1}, {"dim": 2.5}, {"tolerance": float("nan")},
         {"tolerance": -1}, {"tolerance": float("inf")}],
        ids=["t_end-7", "samples-1", "dim-1", "dim-2.5", "tolerance-nan", "tolerance--1",
             "tolerance-inf"],
    )
    def test_rejected_call_draws_nothing(self, kwargs):
        # no variance error can be within a NaN or negative tolerance: a bad parameter, not a violation
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            bridge_stats_report(**{"dim": 3, "t_end": 6, "samples": 100, "seed": rng, **kwargs})
        assert rng.bit_generator.state == state


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

    @pytest.mark.parametrize("shapes", [(3, 5), (5, 3), (6, 6), ((1, 5), 5)],
                             ids=["v_i", "v_j", "both", "v_i-2d"])
    def test_other_dimension_rejected_before_drawing(self, shapes):
        # the mismatch was found by alignment_score, after the first block's draw
        v_i, v_j = (np.ones(shape) for shape in shapes)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="^v_i and v_j must have l's 5 entries"):
            check_robustness(v_i, v_j, self.unit(18), 0.1, trials=10, seed=rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_language_rejected(self, bad):
        v = self.unit(17)
        with pytest.raises(ValueError, match="must be finite"):
            check_robustness(v, v, np.array([1.0, bad, 0.0, 0.0, 0.0]), 0.1, trials=10, seed=0)


class TestBlocks:
    def test_reports_do_not_depend_on_block_size(self, monkeypatch):
        """Blocks of one trial, of a few and of every trial give the same
        reports, the CLI's multi-delta_l robustness report included, and
        leave the Generator they share where the default blocks do."""
        v_i, v_j, l = np.random.default_rng(1).standard_normal((3, 5))

        def reports():
            rng = np.random.default_rng(2)
            out = [
                lipschitz_pairs_report(dim=4, trials=1500, seed=rng).to_dict(),
                check_robustness(v_i, v_j, l, 0.3, trials=1500, seed=rng).to_dict(),
                bridge_stats_report(dim=3, t_end=6, samples=1500, seed=rng).to_dict(),
                _report_robustness(5, [0.01, 0.3, 1.0], 1500, rng).to_dict(),
            ]
            return out, rng.bit_generator.state

        default = reports()
        # 60 values: 5 Lipschitz triples, 12 robustness trials, 2 bridge paths
        for values in (1, 60, 10**9):
            monkeypatch.setattr(theory, "BLOCK_VALUES", values)
            draws = mock.Mock(wraps=theory.perturb_language)
            monkeypatch.setattr(theory, "perturb_language", draws)
            assert reports() == default
            assert draws.call_count == 4 * len(list(theory._trial_blocks(1500, 5)))
        assert len(list(theory._trial_blocks(1500, 5))) == 1

    def test_block_sizes(self):
        # README defaults: bridge paths of 11 times 6 values in blocks of 256,
        # as before; robustness trials of 8 values and Lipschitz triples of 24
        # in larger ones; a trial above the budget alone
        assert next(theory._trial_blocks(10000, 11 * 6)) == 256
        assert next(theory._trial_blocks(10000, 8)) == 2112
        assert next(theory._trial_blocks(10000, 24)) == 704
        assert list(theory._trial_blocks(3, 10**6)) == [1, 1, 1]


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


class TestLowerBoundAgainstLoop:
    @pytest.mark.parametrize(
        "n_clips, t_range, d_range, seed",
        [(300, (2, 14), (2, 16), 0), (1000, (3, 12), (2, 16), 101), (60, (2, 3), (2, 3), 1),
         (40, (2, 6), (2, 2), 5)],
    )
    @pytest.mark.parametrize("block_scores", [None, 50])
    def test_matches_per_clip_loop(self, monkeypatch, n_clips, t_range, d_range, seed,
                                   block_scores):
        """Clips stacked by length give the report of one kernel call per
        clip, T = 2 boundary clips included, whatever the block size (50
        scores stack five clips of length 3 and one of length 8 or more)."""
        rng = np.random.default_rng(seed)
        clips = [random_clip(int(rng.integers(t_range[0], t_range[1] + 1)),
                             int(rng.integers(d_range[0], d_range[1] + 1)), rng)
                 for _ in range(n_clips)]
        if block_scores:
            monkeypatch.setattr(losses, "BLOCK_SCORES", block_scores)
        assert check_lower_bound(clips).to_dict() == naive.check_lower_bound(clips)


class TestLowerBoundReport:
    @pytest.mark.parametrize(
        "clips, t_range, d_range, seed",
        [(1000, (3, 12), (2, 16), 0), (1000, (3, 12), (2, 16), 101), (300, (2, 3), (2, 3), 1),
         (200, (2, 3), (2, 2), 7), (2500, (2, 6), (2, 2), 5), (1100, (2, 14), (2, 40), 3)],
    )
    @pytest.mark.parametrize("block_clips", [None, 7])
    def test_matches_random_clip_loop(self, monkeypatch, clips, t_range, d_range, seed,
                                      block_clips):
        """Block draws give check_lower_bound's report on the clips of
        naive.random_clip_loop, which follows the same draws with a loop of
        one-clip builds, T = 2 boundary clips included, and leave the
        Generator where the loop leaves it; 2500 clips span three default
        blocks, and 7-clip blocks split every population."""
        if block_clips:
            monkeypatch.setattr(theory, "BLOCK_CLIPS", block_clips)
        rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        report = lower_bound_report(clips, t_range, d_range, rng)
        expected = naive.check_lower_bound(
            naive.random_clip_loop(clips, t_range, d_range, loop_rng, theory.BLOCK_CLIPS))
        assert report.to_dict() == expected
        assert rng.bit_generator.state == loop_rng.bit_generator.state

    def test_readme_clips_in_one_block(self):
        assert theory.BLOCK_CLIPS >= 1000

    @pytest.mark.parametrize("block_clips, block_scores", [(None, None), (100, None), (100, 200)])
    def test_one_sort_and_kernel_call_per_length_and_score_block(self, monkeypatch, block_clips,
                                                                 block_scores):
        clips, t_range, d_range = 300, (2, 9), (2, 5)
        if block_clips:
            monkeypatch.setattr(theory, "BLOCK_CLIPS", block_clips)
        if block_scores:
            monkeypatch.setattr(losses, "BLOCK_SCORES", block_scores)
        lengths = [clip.T for clip in naive.random_clip_loop(
            clips, t_range, d_range, np.random.default_rng(4), theory.BLOCK_CLIPS)]
        expected = 0
        for start in range(0, clips, theory.BLOCK_CLIPS):
            block = lengths[start : start + theory.BLOCK_CLIPS]
            expected += sum(-(-block.count(T) // losses._stack_size(T * T))
                            for T in set(block) if T > 2)
        builds = mock.Mock(wraps=Contrast.of)
        monkeypatch.setattr(Contrast, "of", builds)
        kernel = mock.Mock(wraps=theory._sorted_softmax)
        monkeypatch.setattr(theory, "_sorted_softmax", kernel)
        lower_bound_report(clips, t_range, d_range, 4)
        assert builds.call_count == kernel.call_count == expected

    def test_validates_stacks_without_a_row_loop(self, monkeypatch):
        spy = mock.Mock(wraps=kinds.timestamps)
        monkeypatch.setattr(kinds, "timestamps", spy)
        assert lower_bound_report(200, (2, 12), (2, 8), 9).passed
        assert spy.call_count == 0

    @pytest.mark.parametrize(
        "kwargs",
        [{"clips": 0}, {"clips": True}, {"t_range": (1, 5)}, {"t_range": (6, 3)},
         {"t_range": (3.5, 6)}, {"d_range": (2, True)}, {"d_range": (2,)}, {"d_range": "ab"}],
        ids=["clips-0", "clips-true", "t-1", "t-reversed", "t-float", "d-bool", "d-one", "d-str"],
    )
    def test_rejected_call_draws_nothing(self, kwargs):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            lower_bound_report(**{"clips": 10, "t_range": (3, 5), "d_range": (2, 4), "seed": rng,
                                  **kwargs})
        assert rng.bit_generator.state == state

    def test_memory_bounded_by_one_block(self):
        """Only per-clip gaps outlive a block, so 20000 clips (20 blocks)
        peak about where one block does."""
        def peak(clips):
            tracemalloc.start()
            try:
                lower_bound_report(clips, (3, 12), (2, 16), 0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        lower_bound_report(50, (3, 12), (2, 16), 0)  # first-call allocations
        one_block = peak(theory.BLOCK_CLIPS)
        assert peak(20000) <= 1.5 * one_block


class TestReportSerialization:
    def test_to_dict_roundtrips_fields(self):
        report = lipschitz_pairs_report(dim=3, trials=10, seed=0)
        data = report.to_dict()
        assert data["theorem"] == "continuity-lipschitz"
        assert data["instances"] == 10
        assert isinstance(data["passed"], bool)
