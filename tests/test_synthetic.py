import naive
import numpy as np
import pytest

from actol import (
    SyntheticClipSpec,
    generate_clip,
    perturb_language,
    random_clip,
    sample_bridge,
    slerp,
)
from actol.synthetic import MAX_GAP, _clip_arrays


class TestSlerp:
    def test_endpoints(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert np.allclose(slerp(a, b, 0.0), a)
        assert np.allclose(slerp(a, b, 1.0), b)

    def test_stays_on_sphere(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(5)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(5)
        b /= np.linalg.norm(b)
        for t in np.linspace(0, 1, 11):
            assert np.linalg.norm(slerp(a, b, t)) == pytest.approx(1.0)

    def test_quarter_circle_midpoint(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        mid = slerp(a, b, 0.5)
        assert np.allclose(mid, np.array([1.0, 1.0]) / np.sqrt(2))

    def test_coincident_endpoints(self):
        a = np.array([0.0, 1.0, 0.0])
        assert np.allclose(slerp(a, a, 0.7), a)


class TestGenerateClip:
    def test_deterministic(self):
        spec = SyntheticClipSpec(T=8, d=6, completion_index=5, tail_mode="drift-away",
                                 noise_sigma=0.05, seed=42)
        c1, g1 = generate_clip(spec)
        c2, g2 = generate_clip(spec)
        assert np.array_equal(c1.embeddings, c2.embeddings)
        assert g1 == g2

    def test_unit_norm_frames(self):
        for mode in ("none", "frozen", "drift-away", "second-action"):
            spec = SyntheticClipSpec(T=7, d=5, completion_index=4, tail_mode=mode,
                                     noise_sigma=0.1, seed=3)
            clip, _ = generate_clip(spec)
            assert np.allclose(np.linalg.norm(clip.embeddings, axis=1), 1.0)

    def test_noiseless_similarity_monotone_then_peak(self):
        spec = SyntheticClipSpec(T=10, d=8, completion_index=6, tail_mode="drift-away", seed=0)
        clip, truth = generate_clip(spec)
        s = clip.similarities()
        c = truth.completion_index
        assert np.all(np.diff(s[:c]) > 0)
        assert s[c - 1] == pytest.approx(1.0)
        assert int(np.argmax(s)) + 1 == c

    def test_frozen_tail_repeats_completion_frame(self):
        spec = SyntheticClipSpec(T=8, d=5, completion_index=4, tail_mode="frozen",
                                 noise_sigma=0.05, seed=9)
        clip, _ = generate_clip(spec)
        for k in range(4, 8):
            assert np.array_equal(clip.embeddings[k], clip.embeddings[3])

    def test_drift_tail_similarity_decays(self):
        spec = SyntheticClipSpec(T=10, d=8, completion_index=5, tail_mode="drift-away", seed=7)
        clip, _ = generate_clip(spec)
        s = clip.similarities()
        assert np.all(np.diff(s[4:]) < 0)

    def test_ground_truth_progress(self):
        spec = SyntheticClipSpec(T=6, d=4, completion_index=4, seed=1)
        _, truth = generate_clip(spec)
        assert truth.progress == (0.0, 1 / 3, 2 / 3, 1.0, 1.0, 1.0)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SyntheticClipSpec(T=1)
        with pytest.raises(ValueError):
            SyntheticClipSpec(T=5, completion_index=6)
        with pytest.raises(ValueError):
            SyntheticClipSpec(tail_mode="melt")
        with pytest.raises(ValueError):
            SyntheticClipSpec(noise_sigma=-0.1)

    @pytest.mark.parametrize("field", ["T", "d", "completion_index"])
    def test_non_integer_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SyntheticClipSpec(**{"T": 6, "d": 4, "completion_index": 3, field: 3.0})

    @pytest.mark.parametrize("d", [1, 0])
    def test_dimension_below_two_rejected(self, d):
        # a 1-D unit vector is never far from the language vector, so
        # generate_clip would reject draws forever
        with pytest.raises(ValueError):
            SyntheticClipSpec(d=d)


class TestRandomClip:
    def test_shapes_and_norms(self):
        rng = np.random.default_rng(5)
        clip = random_clip(6, 4, rng)
        assert clip.T == 6 and clip.d == 4
        assert np.allclose(np.linalg.norm(clip.embeddings, axis=1), 1.0)
        assert np.linalg.norm(clip.language) == pytest.approx(1.0)

    def test_timestamp_gaps_bounded(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            clip = random_clip(8, 3, rng)
            gaps = np.diff(clip.timestamps)
            assert np.all((gaps >= 1) & (gaps <= MAX_GAP))


    @pytest.mark.parametrize("T, d", [(2, 2), (5, 3), (12, 16), (7, 64)])
    def test_matches_one_clip_reference(self, T, d):
        rng, ref_rng = np.random.default_rng(T * d), np.random.default_rng(T * d)
        for _ in range(200):
            clip, expected = random_clip(T, d, rng), naive.random_clip(T, d, ref_rng)
            assert clip.timestamps == expected.timestamps
            assert np.array_equal(clip.embeddings, expected.embeddings)
            assert np.array_equal(clip.language, expected.language)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("T, d", [(2, 2), (5, 3), (12, 16), (7, 64)])
    def test_clip_arrays_rows_match_one_clip_reference(self, T, d):
        """Row n of the arrays of N clips, built from their stacked draws, is
        bit for bit clip n drawn alone."""
        rng, ref_rng = np.random.default_rng(T + d), np.random.default_rng(T + d)
        draws = [(rng.integers(1, 5, size=T - 1), rng.standard_normal((T, d)),
                  rng.standard_normal(d)) for _ in range(300)]
        ts, frames, lang = _clip_arrays(*map(np.stack, zip(*draws)))
        for n in range(300):
            expected = naive.random_clip(T, d, ref_rng)
            assert tuple(ts[n]) == expected.timestamps
            assert np.array_equal(frames[n], expected.embeddings)
            assert np.array_equal(lang[n], expected.language)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestSampleBridge:
    def test_endpoints_exact(self):
        v0 = np.array([1.0, 0.0])
        v1 = np.array([0.0, 1.0])
        path = sample_bridge(v0, v1, 0, 6, seed=0)
        assert len(path) == 7
        assert np.array_equal(path[0], v0)
        assert np.array_equal(path[-1], v1)

    def test_deterministic(self):
        v0 = np.zeros(3)
        v1 = np.ones(3)
        a = sample_bridge(v0, v1, 2, 8, seed=11)
        b = sample_bridge(v0, v1, 2, 8, seed=11)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_midpoint_statistics(self):
        v0 = np.zeros(4)
        v1 = np.ones(4)
        t_end = 10
        mids = np.array([sample_bridge(v0, v1, 0, t_end, seed=k)[5] for k in range(4000)])
        assert mids.mean(axis=0) == pytest.approx(0.5 * np.ones(4), abs=0.05)
        assert mids.var(axis=0).mean() == pytest.approx(2.5, rel=0.1)

    def test_batch_draws_each_path_in_turn(self):
        v0 = np.zeros((4, 3))
        v1 = np.ones((4, 3))
        batch = sample_bridge(v0, v1, 0, 6, seed=np.random.default_rng(2))
        rng = np.random.default_rng(2)
        one_by_one = [sample_bridge(v0[k], v1[k], 0, 6, seed=rng) for k in range(4)]
        assert batch.shape == (4, 7, 3)
        assert np.array_equal(batch, np.stack(one_by_one))

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            sample_bridge(np.zeros(2), np.ones(2), 3, 3, seed=0)


class TestPerturbLanguage:
    def test_distance_within_delta(self):
        rng = np.random.default_rng(8)
        for seed in range(100):
            l = rng.standard_normal(5)
            lp = perturb_language(l, 0.3, seed)
            assert np.linalg.norm(lp - l / np.linalg.norm(l)) <= 0.3 + 1e-12
            assert np.linalg.norm(lp) == pytest.approx(1.0)

    def test_zero_delta_identity(self):
        l = np.array([0.0, 1.0, 0.0])
        assert np.array_equal(perturb_language(l, 0.0, 0), l)

    def test_moves_for_positive_delta(self):
        l = np.array([1.0, 0.0, 0.0])
        lp = perturb_language(l, 0.5, 3)
        assert np.linalg.norm(lp - l) > 0

    def test_batch_perturbs_each_row_in_turn(self):
        l = np.random.default_rng(3).standard_normal((5, 4))
        batch = perturb_language(l, 0.2, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        assert np.array_equal(batch, np.stack([perturb_language(row, 0.2, rng) for row in l]))

    @pytest.mark.parametrize("l", [[1.0], [[0.6], [0.8]], 1.0], ids=["1-d", "rows-1-d", "scalar"])
    def test_dimension_below_two_rejected(self, l):
        with pytest.raises(ValueError):
            perturb_language(np.array(l), 0.1, 0)

    def test_invalid_delta(self):
        l = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            perturb_language(l, -0.1, 0)
        with pytest.raises(ValueError):
            perturb_language(l, 2.5, 0)
