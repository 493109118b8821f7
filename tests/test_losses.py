import math
from unittest import mock

import numpy as np
import pytest

from actol import (
    BridgeInterval,
    ClipSequence,
    TnceConfig,
    actol_loss,
    bb_loss,
    bb_mean,
    bb_variance,
    check_tightness,
    construct_near_optimal,
    distance_profile,
    lower_bound,
    lower_bound_from_timestamps,
    negative_set,
    random_clip,
    tnce_loss,
    vlo_loss,
    vlo_loss_on_scores,
)
from actol.losses import TieGroups


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


class TestNegativeSet:
    def test_examples(self):
        clip = identical_clip()
        assert negative_set(clip, 0, 1) == {1, 2}
        assert negative_set(clip, 0, 2) == {2}
        assert negative_set(clip, 1, 0) == {0, 2}

    def test_anchor_equals_positive(self):
        with pytest.raises(ValueError):
            negative_set(identical_clip(), 1, 1)

    def test_contains_positive(self):
        rng = np.random.default_rng(3)
        clip = random_clip(7, 4, rng)
        for i in range(7):
            for j in range(7):
                if i != j:
                    assert j in negative_set(clip, i, j)


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


class TestDistanceProfile:
    def test_middle_anchor(self):
        prof = distance_profile(identical_clip(), 1)
        assert prof.sorted_distances == (1.0,)
        assert prof.multiplicities == (2,)

    def test_end_anchor(self):
        prof = distance_profile(identical_clip(), 0)
        assert prof.sorted_distances == (1.0, 2.0)
        assert prof.multiplicities == (1, 1)

    def test_irregular_timestamps(self):
        clip = identical_clip(timestamps=(0, 5, 10, 20))
        prof = distance_profile(clip, 0)
        assert prof.sorted_distances == (5.0, 10.0, 20.0)
        assert prof.multiplicities == (1, 1, 1)

    def test_multiplicities_sum(self):
        rng = np.random.default_rng(16)
        clip = random_clip(9, 3, rng)
        for i in range(9):
            assert sum(distance_profile(clip, i).multiplicities) == 8


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
        "lower_bound_from_timestamps": lower_bound_from_timestamps,
        "vlo_loss_on_scores": lambda ts: vlo_loss_on_scores(ts, np.zeros((len(ts), len(ts)))),
        "construct_near_optimal": lambda ts: construct_near_optimal(ts, 0.1),
        "check_tightness": lambda ts: check_tightness(ts, [0.1]),
    }

    @pytest.mark.parametrize(
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
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_rejected_with_one_error(self, entry, timestamps, message):
        with pytest.raises(ValueError) as exc:
            self.ENTRY_POINTS[entry](timestamps)
        assert str(exc.value) == message

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_valid_timestamps_accepted(self, entry):
        self.ENTRY_POINTS[entry]([0, 1.0, np.int64(3)])


class TestBridge:
    def make_clip(self):
        rng = np.random.default_rng(20)
        emb = rng.standard_normal((4, 3))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        return ClipSequence((0, 2, 7, 10), emb, emb[0])

    def test_mean_endpoints_and_midpoint(self):
        clip = self.make_clip()
        iv = BridgeInterval(0, 3)
        assert np.allclose(bb_mean(0, iv, clip), clip.embeddings[0])
        assert np.allclose(bb_mean(10, iv, clip), clip.embeddings[3])
        mid = bb_mean(5, iv, clip)
        assert np.allclose(mid, (clip.embeddings[0] + clip.embeddings[3]) / 2)

    def test_variance_endpoints_zero(self):
        clip = self.make_clip()
        iv = BridgeInterval(0, 3)
        assert bb_variance(0, iv, clip) == 0.0
        assert bb_variance(10, iv, clip) == 0.0

    def test_variance_midpoint_quarter_length(self):
        clip = self.make_clip()
        assert bb_variance(5, BridgeInterval(0, 3), clip) == pytest.approx(10 / 4)

    def test_variance_value(self):
        clip = self.make_clip()
        assert bb_variance(2, BridgeInterval(0, 3), clip) == pytest.approx(2 * 8 / 10)

    def test_time_outside_interval(self):
        clip = self.make_clip()
        with pytest.raises(ValueError):
            bb_variance(11, BridgeInterval(0, 3), clip)
        with pytest.raises(ValueError):
            bb_mean(1, BridgeInterval(2, 3), clip)

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
