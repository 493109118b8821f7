import numpy as np
import pytest

from actol import ClipSequence, alignment_score, cosine_sim, normalize


def unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


class TestNormalize:
    def test_scaling(self):
        assert np.allclose(normalize([3.0, 4.0]), [0.6, 0.8])

    def test_idempotent(self):
        v = normalize([1.0, 2.0, 2.0])
        assert np.allclose(normalize(v), v)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            normalize([0.0, 0.0])


class TestCosineSim:
    def test_identity(self):
        v = normalize([1.0, 2.0, -1.0])
        assert cosine_sim(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_sim([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)

    def test_dot_product_value(self):
        assert cosine_sim([0.6, 0.8], [1.0, 0.0]) == pytest.approx(0.6)

    def test_broadcasts_along_last_axis(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal((6, 3))
        l = rng.standard_normal(3)
        assert np.array_equal(cosine_sim(v, l), [cosine_sim(row, l) for row in v])
        assert np.array_equal(
            alignment_score(v[:3], v[3:], l),
            [alignment_score(a, b, l) for a, b in zip(v[:3], v[3:])],
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine_sim([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            cosine_sim([0.0, 0.0], [1.0, 0.0])

    def test_lipschitz_in_language(self):
        # |sim(v,l) - sim(v,l')| <= |l - l'| for unit vectors (constant 1)
        rng = np.random.default_rng(123)
        for _ in range(500):
            d = int(rng.integers(2, 10))
            v, l, lp = (unit(rng, d) for _ in range(3))
            assert abs(cosine_sim(v, l) - cosine_sim(v, lp)) <= np.linalg.norm(l - lp) + 1e-12


class TestAlignmentScore:
    def test_identical_frames(self):
        v = normalize([1.0, 1.0])
        assert alignment_score(v, v, normalize([1.0, 0.0])) == 0.0

    def test_difference_value(self):
        # sims 0.9 and 0.4 against l = e1
        v_i = [0.9, np.sqrt(1 - 0.81)]
        v_j = [0.4, np.sqrt(1 - 0.16)]
        assert alignment_score(v_i, v_j, [1.0, 0.0]) == pytest.approx(-0.5)

    def test_symmetric_and_nonpositive(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            v_i, v_j, l = (unit(rng, 4) for _ in range(3))
            s = alignment_score(v_i, v_j, l)
            assert s == alignment_score(v_j, v_i, l)
            assert -2.0 <= s <= 0.0

    def test_bounded_by_frame_distance(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            v_i, v_j, l = (unit(rng, 5) for _ in range(3))
            assert alignment_score(v_i, v_j, l) >= -np.linalg.norm(v_i - v_j) - 1e-12


class TestClipSequence:
    def make(self, **kw):
        rng = np.random.default_rng(0)
        emb = np.stack([unit(rng, 3) for _ in range(3)])
        args = dict(timestamps=(0, 1, 2), embeddings=emb, language=unit(rng, 3))
        args.update(kw)
        return ClipSequence(**args)

    def test_valid_clip(self):
        clip = self.make()
        assert clip.T == 3 and clip.d == 3

    def test_timestamps_must_increase(self):
        with pytest.raises(ValueError):
            self.make(timestamps=(0, 2, 2))

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            self.make(timestamps=(-1, 0, 1))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            self.make(timestamps=(0, 1))

    def test_language_dim_mismatch(self):
        with pytest.raises(ValueError):
            self.make(language=np.array([1.0, 0.0]))

    def test_normalized_within_tolerance(self):
        clip = self.make().with_embeddings(np.array([[3.0, 0, 0], [0, 5.0, 0], [1.0, 1, 1]]))
        norms = np.linalg.norm(clip.normalized().embeddings, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-9)

    def test_json_roundtrip(self, tmp_path):
        clip = self.make()
        path = tmp_path / "clip.json"
        clip.save(path)
        loaded = ClipSequence.load(path)
        assert loaded.timestamps == clip.timestamps
        assert np.array_equal(loaded.embeddings, clip.embeddings)
        assert np.array_equal(loaded.language, clip.language)
