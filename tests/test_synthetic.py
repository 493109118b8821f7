import subprocess
import sys
from pathlib import Path

import naive
import numpy as np
import pytest

import actol
from actol import (
    SyntheticClipSpec,
    generate_clip,
    perturb_language,
    random_clip,
    sample_bridge,
    slerp,
)
from actol.synthetic import MAX_GAP, TAIL_MODES, random_units


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

    @pytest.mark.parametrize("tiny", [False, True], ids=["arc", "tiny-angle"])
    def test_array_times_match_scalar_calls(self, tiny):
        """An array of times gives one row per time, each the bits of the
        scalar call; the tiny-angle branch returns copies of a."""
        a, b = random_units((2, 7), 3)
        if tiny:
            b = a.copy()
            b[0] += 1e-15
        t = np.r_[np.arange(9) / 8, -0.25, 1.5]
        rows = slerp(a, b, t)
        assert rows.shape == (11, 7)
        assert rows.tobytes() == np.stack([naive.slerp(a, b, x) for x in t.tolist()]).tobytes()
        assert slerp(a, b, t.reshape(-1, 1)).shape == (11, 1, 7)
        for x in t.tolist():
            assert slerp(a, b, x).tobytes() == naive.slerp(a, b, x).tobytes()
        if tiny:
            assert (rows == a).all()
            rows[0, 0] = 9.0  # a copy, not a view of a
            assert a[0] != 9.0


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

    @pytest.mark.parametrize("noise_sigma", [0.0, 0.07], ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("tail_mode", TAIL_MODES)
    def test_matches_per_frame_reference(self, tail_mode, noise_sigma):
        """The array slerps, held tails and stacked normalize give bit for
        bit the clip and progress the per-frame loop built, over T 2-40,
        d 2-32, completion at the start, middle and end, and six seeds."""
        for T in (2, 3, 5, 10, 17, 40):
            for d in (2, 3, 8, 32):
                for c in sorted({1, (T + 1) // 2, T - 1, T}):
                    for seed in range(6):
                        spec = SyntheticClipSpec(T=T, d=d, completion_index=c, tail_mode=tail_mode,
                                                 noise_sigma=noise_sigma, seed=seed)
                        clip, truth = generate_clip(spec)
                        expected, progress = naive.generate_clip(spec)
                        assert clip.embeddings.tobytes() == expected.embeddings.tobytes()
                        assert clip.language.tobytes() == expected.language.tobytes()
                        assert truth.progress == progress

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

    @pytest.mark.parametrize("seed", [True, 1.5, -1, np.float64(2.0)], ids=str)
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            SyntheticClipSpec(seed=seed)

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

    @pytest.mark.parametrize("t_start, t_end", [(0, 2.5), (0, 4.0), (False, True), (0, True),
                                                (0, float("inf")), (0, float("nan")), ("0", 4)])
    def test_non_integer_times_rejected(self, t_start, t_end):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="^t_(start|end) must be an integer"):
            sample_bridge(np.zeros(2), np.ones(2), t_start, t_end, seed=rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("batch, t_start, t_end, d", [((), 0, 6, 3), ((5,), 2, 9, 4),
                                                          ((2, 3), 0, 1, 2), ((4,), 1, 11, 6)])
    def test_matches_concatenated_reference(self, batch, t_start, t_end, d):
        """Scaling the draws in place and writing them plus the mean into one
        path array gives the bits of the concatenated paths, and draws as
        many normals."""
        v0, v1 = np.random.default_rng(d).standard_normal((2,) + batch + (d,))
        rng, ref_rng = np.random.default_rng(t_end), np.random.default_rng(t_end)
        paths = sample_bridge(v0, v1, t_start, t_end, rng)
        expected = naive.sample_bridge(v0, v1, t_start, t_end, ref_rng)
        assert paths.tobytes() == expected.tobytes() and paths.shape == expected.shape
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("end_rows", [True, False], ids=["both-views", "one-view"])
    def test_broadcast_endpoints_match_tiled_copies(self, end_rows):
        """Read-only broadcast views, or one view and one (d,) vector as
        bridge_stats_report passes, give the paths of tiled copies."""
        v0, v1 = np.random.default_rng(1).standard_normal((2, 5))
        end = np.broadcast_to(v1, (300, 5)) if end_rows else v1
        paths = sample_bridge(np.broadcast_to(v0, (300, 5)), end, 0, 10, np.random.default_rng(2))
        expected = naive.sample_bridge(np.tile(v0, (300, 1)), np.tile(v1, (300, 1)), 0, 10,
                                       np.random.default_rng(2))
        assert paths.tobytes() == expected.tobytes()


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

    @pytest.mark.parametrize("delta", [0.0, 1e-300, 1e-17, 0.3])
    def test_distance_in_closed_interval_to_delta(self, delta):
        """The distance lies in [0, delta] up to rounding, and reads 0 for
        delta = 0 and for a delta whose squares underflow."""
        l = np.array([1.0, 0.0, 0.0])
        lp = perturb_language(l, delta, 0)
        distance = np.linalg.norm(lp - l)
        assert 0.0 <= distance <= delta * (1 + 1e-15)
        assert (distance == 0.0) == (delta in (0.0, 1e-300))

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

    def test_broadcast_view_matches_tiled_copy(self):
        l = np.random.default_rng(5).standard_normal(8)
        view = np.broadcast_to(l, (2112, 8))
        assert not view.flags.writeable
        tiled = perturb_language(np.tile(l, (2112, 1)), 0.1, np.random.default_rng(6))
        assert perturb_language(view, 0.1, np.random.default_rng(6)).tobytes() == tiled.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200],
                             ids=["nan", "inf", "-inf", "norm-overflows"])
    def test_non_finite_rejected(self, bad):
        l = np.array([[1.0, 0.0, 0.0], [0.5, bad, 0.0]])
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="must be finite"):
            perturb_language(l, 0.1, rng)
        assert rng.bit_generator.state == state

    def test_distance_check_is_not_an_assert(self, tmp_path):
        """A step that leaves the delta ball raises even under python -O:
        here every tangent draw is NaN."""
        script = tmp_path / "nan_draws.py"
        script.write_text(
            "import numpy as np\n"
            "from actol import perturb_language\n"
            "class NanDraws:\n"
            "    def standard_normal(self, shape):\n"
            "        return np.full(shape, np.nan)\n"
            "np.random.default_rng = lambda seed: NanDraws()\n"
            "try:\n"
            "    perturb_language(np.array([1.0, 0.0]), 0.1, 0)\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n")
        result = subprocess.run([sys.executable, "-O", str(script)], capture_output=True, text=True,
                                env={"PYTHONPATH": str(Path(actol.__file__).parents[1]),
                                     "PYTHONDONTWRITEBYTECODE": "1"})
        assert "left the ball of radius 0.1" in result.stdout, result.stderr


class TestRandomUnits:
    def test_unit_rows(self):
        v = random_units((4, 3, 5), 0)
        assert v.shape == (4, 3, 5)
        assert np.allclose(np.linalg.norm(v, axis=-1), 1.0)

    def test_rows_match_one_row_draws(self):
        rng = np.random.default_rng(1)
        expected = [row / np.sqrt(row @ row) for row in rng.standard_normal((50, 7))]
        assert np.allclose(random_units((50, 7), 1), expected, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("shape", [(), (3, 2.5), (2.0,), (3, 1), (-1, 3), (True, 3), [2, 3],
                                       5, (np.float64(4),)])
    def test_bad_shape_rejected(self, shape):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            random_units(shape, rng)
        assert rng.bit_generator.state == state
