import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actol import ClipSequence, alignment_score, cosine_sim, normalize
from actol.clip import _dots


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

    def test_zero_row_of_stack_rejected(self):
        with pytest.raises(ValueError, match="^cannot normalize a zero vector$"):
            normalize([[[1.0, 2.0], [3.0, 4.0]], [[0.5, 0.5], [0.0, 0.0]]])

    @settings(max_examples=150, deadline=None)
    @given(lead=st.lists(st.integers(1, 4), max_size=3), d=st.integers(1, 1000),
           exponent=st.integers(-150, 150), seed=st.integers(0, 2**32 - 1))
    def test_stack_rows_are_bits_of_one_vector_norm(self, lead, d, exponent, seed):
        """A stack of any leading shape and scale normalizes each row to the
        bits of the row divided by its 1-D np.linalg.norm."""
        v = np.random.default_rng(seed).standard_normal((*lead, d)) * 10.0**exponent
        rows = [row / np.linalg.norm(row) for row in v.reshape(-1, d)]
        assert normalize(v).tobytes() == np.array(rows).reshape(v.shape).tobytes()


class TestDots:
    @settings(max_examples=80, deadline=None)
    @given(rows=st.integers(1, 9), d=st.integers(1, 100), shift=st.integers(1, 15),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_round_alike_batched_alone_and_at_odd_offsets(self, rows, d, shift, seed):
        """Each row's dot has the same bits in a batch, alone, against a
        broadcast row and in a buffer shifted by any number of bytes."""
        a, b = np.random.default_rng(seed).standard_normal((2, rows, d))
        batched = _dots(a, b).tobytes()
        assert np.array([_dots(x, y) for x, y in zip(a, b)]).tobytes() == batched
        raw = bytearray(a.nbytes + shift)
        moved = np.ndarray(a.shape, dtype=float, buffer=raw, offset=shift)
        moved[...] = a
        assert _dots(moved, b).tobytes() == batched
        assert _dots(b, moved).tobytes() == _dots(b, a).tobytes()
        row = np.broadcast_to(b[0], a.shape)
        assert _dots(a, row).tobytes() == _dots(a, b[0]).tobytes()
        assert _dots(a, row).tobytes() == np.array([_dots(x, b[0]) for x in a]).tobytes()


class TestCosineSim:
    @pytest.mark.parametrize("v, l", [([np.inf, 0.0], [1.0, 0.0]), ([1.0, 0.0], [np.nan, 1.0]),
                                      ([[1.0, 0.0], [1e200, 1e200]], [1.0, 0.0])],
                             ids=["inf", "nan", "norm-overflows"])
    def test_non_finite_norm_rejected(self, v, l):
        with pytest.raises(ValueError, match="non-finite norm"):
            cosine_sim(v, l)
        with pytest.raises(ValueError, match="non-finite norm"):
            alignment_score(v, v, l)

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

    @pytest.mark.parametrize("d", [2, 3, 8, 32, 100])
    @pytest.mark.parametrize("T", [2, 10, 128])
    def test_normalized_rows_are_bits_of_normalize(self, T, d):
        rng = np.random.default_rng(1000 * T + d)
        emb = rng.standard_normal((T, d)) * rng.uniform(1e-3, 1e3, (T, 1))
        lang = rng.standard_normal(d) * 7.0
        clip = ClipSequence(range(T), emb, lang).normalized()
        assert clip.embeddings.tobytes() == np.stack([normalize(v) for v in emb]).tobytes()
        assert clip.language.tobytes() == normalize(lang).tobytes()

    @pytest.mark.parametrize("zero", ["frame", "language"])
    def test_normalized_rejects_a_zero_vector(self, zero):
        emb, lang = np.ones((4, 3)), np.ones(3)
        (emb[2] if zero == "frame" else lang)[:] = 0.0
        with pytest.raises(ValueError, match="^cannot normalize a zero vector$"):
            ClipSequence(range(4), emb, lang).normalized()

    @pytest.mark.parametrize("key, bad", [("embeddings", np.nan), ("language", np.inf)])
    def test_from_dict_rejects_non_finite(self, key, bad):
        data = self.make().to_dict()
        data[key] = np.full(np.shape(data[key]), bad).tolist()
        with pytest.raises(ValueError, match="finite"):
            ClipSequence.from_dict(data)

    def test_constructor_accepts_non_finite(self):
        # the trainer's divergence path builds such clips on purpose
        emb = self.make().embeddings.copy()
        emb[1, 0] = np.nan
        assert np.isnan(self.make(embeddings=emb).embeddings[1, 0])

    def test_json_roundtrip(self, tmp_path):
        clip = self.make()
        path = tmp_path / "clip.json"
        clip.save(path)
        loaded = ClipSequence.load(path)
        assert loaded.timestamps == clip.timestamps
        assert np.array_equal(loaded.embeddings, clip.embeddings)
        assert np.array_equal(loaded.language, clip.language)
