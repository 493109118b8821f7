import math
from unittest import mock

import naive
import numpy as np
import pytest

import actol.losses as losses
from actol import (
    BridgeInterval,
    ClipSequence,
    TnceConfig,
    actol_loss,
    bb_loss,
    check_tightness,
    construct_near_optimal,
    lower_bound,
    random_clip,
    tnce_loss,
    vlo_loss,
    vlo_loss_on_scores,
)
from actol.losses import Bridge, Contrast, TieGroups


def naive_vlo(clip, temperature=1.0):
    """Independent brute-force evaluation: plain loops, no max-subtraction."""
    T = clip.T
    ts = clip.timestamps
    s = [float(np.dot(v, clip.language) / (np.linalg.norm(v) * np.linalg.norm(clip.language)))
         for v in clip.embeddings]
    total = 0.0
    for i in range(T):
        for j in range(T):
            if j == i:
                continue
            r_ij = -abs(s[i] - s[j])
            denom = 0.0
            for k in range(T):
                if k != i and abs(ts[i] - ts[k]) >= abs(ts[i] - ts[j]):
                    denom += math.exp(-abs(s[i] - s[k]) / temperature)
            total += -math.log(math.exp(r_ij / temperature) / denom)
    return total / (T * (T - 1))


def identical_clip(timestamps=(0, 1, 2), d=4):
    v = np.zeros(d)
    v[0] = 1.0
    emb = np.tile(v, (len(timestamps), 1))
    return ClipSequence(timestamps, emb, v)


def negatives(timestamps, i, j):
    """Anchor i's negative set for positive j, read off TieGroups: the
    prefix of i's sorted order up to the end of j's group."""
    groups = TieGroups.of(timestamps)
    p = groups.order[i].tolist().index(j)
    return set(groups.order[i, : groups.end[i, p] + 1].tolist())


class TestNegativeSet:
    def test_examples(self):
        assert negatives((0, 1, 2), 0, 1) == {1, 2}
        assert negatives((0, 1, 2), 0, 2) == {2}
        assert negatives((0, 1, 2), 1, 0) == {0, 2}

    def test_contains_positive(self):
        rng = np.random.default_rng(3)
        clip = random_clip(7, 4, rng)
        groups = TieGroups.of(clip.timestamps)
        for i in range(7):
            # every other frame is a positive at exactly one sorted position
            assert sorted(groups.order[i].tolist()) == [k for k in range(7) if k != i]
            for j in range(7):
                if i != j:
                    assert j in negatives(clip.timestamps, i, j)


class TestVloLoss:
    def test_identical_embeddings(self):
        assert vlo_loss(identical_clip()) == pytest.approx(4 * math.log(2) / 6)

    def test_two_frames_zero(self):
        assert vlo_loss(identical_clip(timestamps=(0, 1))) == pytest.approx(0.0)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            clip = random_clip(int(rng.integers(2, 8)), int(rng.integers(2, 6)), rng)
            assert vlo_loss(clip) == pytest.approx(naive_vlo(clip), rel=1e-12)
            assert vlo_loss(clip, 0.3) == pytest.approx(naive_vlo(clip, 0.3), rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            assert vlo_loss(random_clip(int(rng.integers(2, 9)), 4, rng)) >= 0.0

    def test_rotation_invariance(self):
        rng = np.random.default_rng(13)
        clip = random_clip(6, 5, rng)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        rotated = ClipSequence(clip.timestamps, clip.embeddings @ q.T, q @ clip.language)
        assert vlo_loss(rotated) == pytest.approx(vlo_loss(clip), rel=1e-10)

    def test_depends_only_on_distance_order(self):
        rng = np.random.default_rng(14)
        emb = rng.standard_normal((4, 3))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        lang = emb[0] * 0 + np.array([1.0, 0, 0])
        a = ClipSequence((0, 1, 2, 3), emb, lang)
        b = ClipSequence((0, 10, 20, 30), emb, lang)
        assert vlo_loss(a) == pytest.approx(vlo_loss(b), rel=1e-14)

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            vlo_loss(identical_clip(), temperature=0.0)


class TestVloOnScores:
    def test_zero_scores(self):
        loss = vlo_loss_on_scores((0, 1, 2), np.zeros((3, 3)))
        assert loss == pytest.approx(4 * math.log(2) / 6)

    def test_two_frames(self):
        assert vlo_loss_on_scores((0, 5), np.array([[0.0, -3.0], [-3.0, 0.0]])) == pytest.approx(0.0)

    def test_matches_embedding_route(self):
        rng = np.random.default_rng(15)
        clip = random_clip(5, 4, rng)
        s = clip.similarities()
        scores = -np.abs(s[:, None] - s[None, :])
        assert vlo_loss_on_scores(clip.timestamps, scores) == pytest.approx(vlo_loss(clip))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            vlo_loss_on_scores((0, 1, 2), np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [(0, 1), (1, 1)], ids=["off-diagonal", "diagonal"])
    def test_non_finite_scores_rejected_before_the_kernel(self, monkeypatch, bad, at):
        kernel = mock.Mock(wraps=losses._suffix_softmax)
        monkeypatch.setattr(losses, "_suffix_softmax", kernel)
        scores = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        scores[at] = bad
        with pytest.raises(ValueError, match="^scores must be finite$"):
            vlo_loss_on_scores((0, 1, 2), scores)
        assert kernel.call_count == 0


def distance_profile(timestamps, i):
    """Anchor i's distinct distances, nearest first, and their
    multiplicities, read off TieGroups at the start of each group."""
    groups = TieGroups.of(timestamps)
    firsts = groups.start[i] == np.arange(len(timestamps) - 1)
    return groups.distances[i, firsts][::-1].tolist(), groups.sizes()[i, firsts][::-1].tolist()


class TestDistanceProfile:
    def test_middle_anchor(self):
        assert distance_profile((0, 1, 2), 1) == ([1], [2])

    def test_end_anchor(self):
        assert distance_profile((0, 1, 2), 0) == ([1, 2], [1, 1])

    def test_irregular_timestamps(self):
        assert distance_profile((0, 5, 10, 20), 0) == ([5, 10, 20], [1, 1, 1])

    def test_multiplicities_sum(self):
        rng = np.random.default_rng(16)
        clip = random_clip(9, 3, rng)
        for i in range(9):
            assert sum(distance_profile(clip.timestamps, i)[1]) == 8


class TestLowerBound:
    def test_uniform_three_frames(self):
        assert lower_bound(identical_clip()) == pytest.approx(2 * math.log(2) / 6)

    def test_distinct_distances_zero(self):
        assert lower_bound(identical_clip(timestamps=(0, 1, 3, 7))) == pytest.approx(0.0)

    def test_two_frames_zero(self):
        assert lower_bound(identical_clip(timestamps=(0, 4))) == pytest.approx(0.0)


class TestTimestampContract:
    ENTRY_POINTS = {
        "ClipSequence": lambda ts: ClipSequence(ts, np.eye(len(ts), 2) + 1.0, [1.0, 0.0]),
        "TieGroups.of": TieGroups.of,
        "vlo_loss_on_scores": lambda ts: vlo_loss_on_scores(ts, np.zeros((len(ts), len(ts)))),
        "construct_near_optimal": lambda ts: construct_near_optimal(ts, 0.1),
        "check_tightness": lambda ts: check_tightness(ts, [0.1]),
        "Bridge.of": Bridge.of,
    }

    # the entry points that also take an (N, T) stack of timestamp rows
    STACK_ENTRY_POINTS = {
        "TieGroups.of": TieGroups.of,
        "Contrast.of": lambda ts: Contrast.of(ts, TnceConfig()),
        "Bridge.of": Bridge.of,
    }
    BAD = pytest.mark.parametrize(
        "timestamps, message",
        [
            ((3, 1), "timestamps must be strictly increasing"),
            ((0, 2, 2), "timestamps must be strictly increasing"),
            ((-1, 0, 1), "timestamps must be non-negative"),
            ((0,), "need at least two timestamps"),
            ((0, 1.7, 3), "timestamps must be finite integers"),
            ((0, 1, math.inf), "timestamps must be finite integers"),
            ((0, math.nan), "timestamps must be finite integers"),
        ],
        ids=["decreasing", "repeated", "negative", "one", "fractional", "infinite", "nan"],
    )

    @BAD
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_rejected_with_one_error(self, entry, timestamps, message):
        with pytest.raises(ValueError) as exc:
            self.ENTRY_POINTS[entry](timestamps)
        assert str(exc.value) == message

    @BAD
    @pytest.mark.parametrize("entry", STACK_ENTRY_POINTS)
    def test_bad_row_of_stack_rejected_like_lone_row(self, entry, timestamps, message):
        good = tuple(range(len(timestamps)))
        for stack in ([good, timestamps], [timestamps, good, good], np.array([good, timestamps])):
            with pytest.raises(ValueError) as exc:
                self.STACK_ENTRY_POINTS[entry](stack)
            assert str(exc.value) == message

    @pytest.mark.parametrize(
        "row, message",
        [((-1, 0, 1), "timestamps must be non-negative"),
         ((0, 3, 1), "timestamps must be strictly increasing"),
         ((0, 2, 2), "timestamps must be strictly increasing")],
        ids=["negative", "non-increasing", "duplicate"],
    )
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    @pytest.mark.parametrize("entry", STACK_ENTRY_POINTS)
    def test_bad_row_of_int_stack_rejected_like_lone_row(self, entry, dtype, row, message):
        """A signed integer stack is checked in one pass; a bad row still
        raises the lone row's message, wherever it sits."""
        with pytest.raises(ValueError) as alone:
            self.STACK_ENTRY_POINTS[entry](np.array(row, dtype=dtype))
        assert str(alone.value) == message
        for rows in ([(0, 1, 2), row], [row, (0, 1, 2), (0, 1, 2)]):
            with pytest.raises(ValueError) as exc:
                self.STACK_ENTRY_POINTS[entry](np.array(rows, dtype=dtype))
            assert str(exc.value) == message

    def test_wrapping_difference_rejected(self):
        # 5 - (-2**63) wraps to a positive int64; rows are compared, not subtracted
        stack = np.array([[0, 1, 2], [0, 5, -(2**63)]], dtype=np.int64)
        with pytest.raises(ValueError, match="^timestamps must be non-negative$"):
            TieGroups.of(stack)

    @pytest.mark.parametrize("entry", STACK_ENTRY_POINTS)
    def test_decreasing_unsigned_stack_rejected(self, entry):
        # unsigned rows are checked one by one: a difference would wrap around
        stack = np.array([[0, 1, 2], [5, 3, 4]], dtype=np.uint64)
        with pytest.raises(ValueError) as exc:
            self.STACK_ENTRY_POINTS[entry](stack)
        assert str(exc.value) == "timestamps must be strictly increasing"

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.int8])
    def test_valid_int_stack_checked_without_row_loop(self, monkeypatch, dtype):
        # a repeated row is valid
        stack = np.array([(0, 1, 4, 6), (2, 3, 5, 9), (0, 1, 4, 6)], dtype=dtype)
        expected = TieGroups.of(stack.tolist())
        spy = mock.Mock(wraps=losses._timestamps)
        monkeypatch.setattr(losses, "_timestamps", spy)
        groups = TieGroups.of(stack)
        assert spy.call_count == 0
        for name in ("order", "distances", "start", "end"):
            assert np.array_equal(getattr(groups, name), getattr(expected, name))

    @pytest.mark.parametrize("entry", STACK_ENTRY_POINTS)
    def test_ragged_stack_rejected(self, entry):
        with pytest.raises(ValueError):
            self.STACK_ENTRY_POINTS[entry]([(0, 1, 2), (0, 1)])

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_valid_timestamps_accepted(self, entry):
        self.ENTRY_POINTS[entry]([0, 1.0, np.int64(3)])


class TestBridge:
    def make_clip(self):
        rng = np.random.default_rng(20)
        emb = rng.standard_normal((4, 3))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        return ClipSequence((0, 2, 7, 10), emb, emb[0])

    @staticmethod
    def variance(bridge):
        """Each row's bridge variance, from w = 0.5 / (var * interior frames)
        for one interval."""
        return 0.5 / (bridge.w * len(bridge.w))

    def test_interpolant_has_zero_deviation(self):
        ts = (0, 3, 5, 10)
        bridge = Bridge.of(ts, [BridgeInterval(0, 3)])
        # rows sum to 0 up to round-off, so any constant sequence deviates by 0
        np.testing.assert_allclose(bridge.M.sum(axis=1), 0.0, rtol=0, atol=1e-15)
        v0, v1 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
        line = np.stack([v0 + (t / 10) * (v1 - v0) for t in ts])
        np.testing.assert_allclose(bridge.M @ line, 0.0, rtol=0, atol=1e-15)
        # the endpoints are pinned: one row per interior frame, none for them
        assert np.nonzero(bridge.M == 1.0)[1].tolist() == [1, 2]
        # frame t=5 sits at the midpoint: its bridge mean is the endpoints' average
        assert bridge.M[1].tolist() == [-0.5, 0.0, 1.0, -0.5]

    def test_variance_matches_reference(self):
        clip = self.make_clip()
        iv = BridgeInterval(0, 3)
        _, var, _ = naive.bridge_deviations(clip, iv)
        np.testing.assert_allclose(self.variance(Bridge.of(clip.timestamps, [iv])), var, rtol=1e-15)

    def test_variance_midpoint_quarter_length(self):
        var = self.variance(Bridge.of((0, 3, 5, 10), [BridgeInterval(0, 3)]))
        assert var.tolist() == pytest.approx([3 * 7 / 10, 10 / 4])
        assert var.max() == pytest.approx(10 / 4)

    def test_variance_value(self):
        clip = self.make_clip()
        var = self.variance(Bridge.of(clip.timestamps, [BridgeInterval(0, 3)]))
        assert var[0] == pytest.approx(2 * 8 / 10)

    @pytest.mark.parametrize("start, end", [(0.5, 2), (True, 3), (0, 2.0), (np.int64(1), False)])
    def test_non_integer_endpoint_rejected(self, start, end):
        with pytest.raises(ValueError, match="must have integer endpoints"):
            Bridge.of((0, 1, 2, 3), [BridgeInterval(start, end)])

    def test_numpy_integer_endpoints_accepted(self):
        built = Bridge.of((0, 1, 2, 5), [BridgeInterval(np.int64(0), np.int32(3))])
        expected = Bridge.of((0, 1, 2, 5), [BridgeInterval(0, 3)])
        assert np.array_equal(built.M, expected.M) and np.array_equal(built.w, expected.w)

    def test_loss_zero_on_interpolant(self):
        v0 = np.array([1.0, 0.0, 0.0])
        v1 = np.array([0.0, 1.0, 0.0])
        emb = np.stack([v0 + a * (v1 - v0) for a in (0.0, 0.25, 0.5, 1.0)])
        clip = ClipSequence((0, 1, 2, 4), emb, v0)
        assert bb_loss(clip, BridgeInterval(0, 3)) == pytest.approx(0.0)

    def test_single_deviation_value(self):
        delta = 0.3
        v0 = np.array([1.0, 0.0])
        v2 = np.array([0.0, 1.0])
        v1 = (v0 + v2) / 2 + np.array([0.0, delta])
        clip = ClipSequence((0, 1, 2), np.stack([v0, v1, v2]), v0)
        # variance at the midpoint of a length-2 interval is 0.5
        assert bb_loss(clip, BridgeInterval(0, 2)) == pytest.approx(delta**2)

    def test_no_interior_returns_zero(self):
        clip = identical_clip(timestamps=(0, 3))
        assert bb_loss(clip, BridgeInterval(0, 1)) == 0.0

    def test_time_reversal_invariance(self):
        rng = np.random.default_rng(21)
        clip = random_clip(6, 4, rng)
        iv = BridgeInterval(0, 5)
        t_max = clip.timestamps[-1]
        rev_ts = tuple(t_max - t for t in reversed(clip.timestamps))
        rev = ClipSequence(rev_ts, clip.embeddings[::-1].copy(), clip.language)
        assert bb_loss(rev, iv) == pytest.approx(bb_loss(clip, iv), rel=1e-12)

    def test_interval_bounds_checked(self):
        clip = self.make_clip()
        with pytest.raises(ValueError):
            bb_loss(clip, BridgeInterval(2, 2))
        with pytest.raises(ValueError):
            bb_loss(clip, BridgeInterval(0, 4))

    @pytest.mark.parametrize(
        "intervals, bad",
        [([[0, 3], [2, 2]], (2, 2)), ([[[0, 1]], [[1, 4]]], (1, 4)), ([[-1, 2]], (-1, 2))],
        ids=["empty-interval", "past-the-end", "negative"],
    )
    def test_interval_array_bounds_checked(self, intervals, bad):
        """Each clip's intervals meet the list's bounds check, with its message."""
        message = rf"^interval \({bad[0]}, {bad[1]}\) out of bounds for T=4$"
        with pytest.raises(ValueError, match=message):
            Bridge.of((0, 2, 7, 10), np.array(intervals))

    @pytest.mark.parametrize("dtype", [float, bool, object])
    def test_interval_array_needs_integer_dtype(self, dtype):
        with pytest.raises(ValueError, match="^intervals must be a list of BridgeInterval or an"):
            Bridge.of((0, 2, 7, 10), np.array([[0, 3]], dtype=dtype))

    def test_unsigned_interval_array_does_not_wrap(self):
        # start - 1 would wrap to 255 as uint8; the bounds are compared
        with pytest.raises(ValueError, match=r"^interval \(0, 0\) out of bounds"):
            Bridge.of((0, 2, 7, 10), np.array([[0, 0]], dtype=np.uint8))

    def test_huge_endpoint_is_out_of_bounds(self):
        with pytest.raises(ValueError, match="out of bounds for T=4$"):
            Bridge.of((0, 2, 7, 10), [BridgeInterval(0, 2**70)])

    @pytest.mark.parametrize("timestamps", [(0, 3), (0, 2, 7, 10), (1, 2, 3, 5, 8, 13)])
    def test_operator_defaults_to_full_clip(self, timestamps):
        default = Bridge.of(timestamps)
        full = Bridge.of(timestamps, [BridgeInterval(0, len(timestamps) - 1)])
        assert np.array_equal(default.M, full.M)
        assert np.array_equal(default.w, full.w)


class TestActolLoss:
    def test_zero_weight_reduces_to_vlo(self):
        rng = np.random.default_rng(22)
        clip = random_clip(5, 4, rng)
        breakdown = actol_loss(clip, bb_weight=0.0)
        assert breakdown.total == breakdown.vlo == vlo_loss(clip)

    def test_total_composition(self):
        rng = np.random.default_rng(23)
        clip = random_clip(6, 4, rng)
        b = actol_loss(clip, bb_weight=0.1)
        assert b.total == pytest.approx(b.vlo + 0.1 * b.bb, abs=1e-12)
        assert b.gap == pytest.approx(b.vlo - b.lower_bound, abs=1e-15)

    def test_interpolant_bb_vanishes(self):
        v0 = np.array([1.0, 0.0])
        v2 = np.array([0.0, 1.0])
        emb = np.stack([v0, (v0 + v2) / 2, v2])
        clip = ClipSequence((0, 1, 2), emb, v0)
        b = actol_loss(clip, bb_weight=0.1)
        assert b.bb == 0.0
        assert b.total == b.vlo

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            actol_loss(identical_clip(), bb_weight=-0.1)

    def test_loss_and_bound_share_one_sort(self, monkeypatch):
        clip = random_clip(6, 4, np.random.default_rng(26))
        expected = (vlo_loss(clip, 0.5), lower_bound(clip))
        spy = mock.Mock(wraps=TieGroups.of)
        monkeypatch.setattr(TieGroups, "of", spy)
        b = actol_loss(clip, temperature=0.5)
        assert spy.call_count == 1
        assert (b.vlo, b.lower_bound) == expected


class TestTnce:
    def test_vlo_pair_reduction_bitwise(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            clip = random_clip(int(rng.integers(2, 8)), 4, rng)
            cfg = TnceConfig("vlo-pair", "farther-frames", "difference-score", temperature=0.7)
            assert tnce_loss(clip, cfg) == vlo_loss(clip, 0.7)

    def test_last_frame_flat_scores(self):
        clip = identical_clip(timestamps=(0, 1, 2, 3))
        cfg = TnceConfig("last-frame", "other-frames", "direct-sim")
        assert tnce_loss(clip, cfg) == pytest.approx(math.log(3))

    def test_single_positive_single_negative(self):
        clip = identical_clip(timestamps=(0, 1))
        cfg = TnceConfig("last-frame", "other-frames", "direct-sim")
        assert tnce_loss(clip, cfg) == pytest.approx(0.0)

    def test_future_frame_runs(self):
        rng = np.random.default_rng(25)
        clip = random_clip(5, 4, rng)
        cfg = TnceConfig("future-frame", "other-frames", "direct-sim")
        assert np.isfinite(tnce_loss(clip, cfg))

    def test_vlo_pair_requires_difference_score(self):
        with pytest.raises(ValueError):
            tnce_loss(identical_clip(), TnceConfig("vlo-pair", "farther-frames", "direct-sim"))

    def test_bad_selector_rejected(self):
        with pytest.raises(ValueError):
            TnceConfig("first-frame", "other-frames", "direct-sim")
        with pytest.raises(ValueError):
            TnceConfig(temperature=-1.0)

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), True],
                             ids=["nan", "inf", "true"])
    def test_temperature_must_be_finite_positive_real(self, temperature):
        with pytest.raises(ValueError, match="temperature"):
            TnceConfig(temperature=temperature)
