import numpy as np
import pytest

from actol import (
    ClipSequence,
    TnceConfig,
    TrainConfig,
    TrainingDiverged,
    measure_delta,
    random_clip,
    train_encoder,
    train_free,
)


def start_clip(seed=0, T=6, d=4):
    rng = np.random.default_rng(seed)
    return random_clip(T, d, rng)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.05
        assert cfg.bb_weight == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(steps=0)
        with pytest.raises(ValueError):
            TrainConfig(bb_weight=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(intervals_per_step=0)


class TestTrainFree:
    def test_zero_lr_leaves_clip_unchanged(self):
        clip = start_clip()
        history = train_free(clip, TrainConfig(learning_rate=0.0, steps=1))
        assert np.array_equal(history.final_clip.embeddings, clip.normalized().embeddings)

    def test_loss_decreases(self):
        clip = start_clip(1)
        history = train_free(clip, TrainConfig(learning_rate=0.05, steps=200, seed=0))
        totals = [r.total for r in history.records]
        assert totals[-1] < totals[0]

    def test_embeddings_stay_on_sphere(self):
        clip = start_clip(2)
        history = train_free(clip, TrainConfig(steps=50))
        norms = np.linalg.norm(history.final_clip.embeddings, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_deterministic_given_seed(self):
        clip = start_clip(3)
        cfg = TrainConfig(steps=30, intervals_per_step=2, seed=5)
        a = train_free(clip, cfg)
        b = train_free(clip, cfg)
        assert np.array_equal(a.final_clip.embeddings, b.final_clip.embeddings)
        assert [r.total for r in a.records] == [r.total for r in b.records]

    def test_history_length_and_gap(self):
        clip = start_clip(4)
        history = train_free(clip, TrainConfig(steps=25))
        assert len(history.records) == 25
        assert len(history.vlo_gap) == 25
        assert all(g > 0 for g in history.vlo_gap)

    def test_language_fixed_by_default(self):
        clip = start_clip(5)
        history = train_free(clip, TrainConfig(steps=20))
        assert np.allclose(history.final_clip.language, clip.normalized().language)

    def test_optimize_language_moves_it(self):
        clip = start_clip(6)
        history = train_free(clip, TrainConfig(steps=20, optimize_language=True))
        assert not np.allclose(history.final_clip.language, clip.normalized().language)
        assert np.linalg.norm(history.final_clip.language) == pytest.approx(1.0)

    def test_tnce_objective(self):
        clip = start_clip(7)
        cfg = TrainConfig(steps=100, learning_rate=0.05)
        obj = TnceConfig("last-frame", "other-frames", "direct-sim")
        history = train_free(clip, cfg, objective=obj)
        totals = [r.total for r in history.records]
        assert totals[-1] < totals[0]

    def test_divergence_raises_with_step(self):
        clip = start_clip(8)
        emb = clip.embeddings.copy()
        emb[1, 0] = np.nan
        bad = clip.with_embeddings(emb)
        with pytest.raises(TrainingDiverged) as exc:
            train_free(bad, TrainConfig(steps=5))
        assert exc.value.step == 0


    @pytest.mark.parametrize(
        "objective", [None, TnceConfig("last-frame", "other-frames", "direct-sim")]
    )
    def test_one_objective_evaluation_per_step(self, monkeypatch, objective):
        from actol import trainer

        calls = []

        def counting(fn):
            return lambda *a, **k: calls.append(fn.__name__) or fn(*a, **k)

        monkeypatch.setattr(trainer, "total_and_grad", counting(trainer.total_and_grad))
        monkeypatch.setattr(trainer, "tnce_and_grad", counting(trainer.tnce_and_grad))
        monkeypatch.setattr(trainer, "lower_bound", counting(trainer.lower_bound))
        train_free(start_clip(13), TrainConfig(steps=7), objective=objective)
        name = "total_and_grad" if objective is None else "tnce_and_grad"
        assert calls == ["lower_bound"] + [name] * 7


class TestTrainEncoder:
    def test_identity_init_square(self):
        clip = start_clip(9, T=5, d=4)
        cfg = TrainConfig(learning_rate=0.0, steps=1)
        encoder, history = train_encoder(clip.embeddings, clip.timestamps, clip.language, cfg)
        assert np.array_equal(encoder.weight, np.eye(4))
        assert np.allclose(history.final_clip.embeddings, clip.embeddings)

    def test_loss_decreases(self):
        rng = np.random.default_rng(10)
        features = rng.standard_normal((6, 7))
        language = rng.standard_normal(4)
        cfg = TrainConfig(learning_rate=0.05, steps=200, seed=0)
        _, history = train_encoder(features, tuple(range(6)), language, cfg)
        totals = [r.total for r in history.records]
        assert totals[-1] < totals[0]

    def test_outputs_unit_norm(self):
        rng = np.random.default_rng(11)
        features = rng.standard_normal((5, 3))
        cfg = TrainConfig(steps=20)
        encoder, history = train_encoder(features, tuple(range(5)), rng.standard_normal(3), cfg)
        assert np.allclose(np.linalg.norm(encoder(features), axis=1), 1.0)
        assert np.allclose(np.linalg.norm(history.final_clip.embeddings, axis=1), 1.0)

    @pytest.mark.parametrize("where", ["features", "language"])
    def test_non_finite_start_raises_before_training(self, where):
        rng = np.random.default_rng(12)
        features = rng.standard_normal((5, 3))
        language = rng.standard_normal(3)
        {"features": features, "language": language}[where][1] = np.nan
        with pytest.raises(TrainingDiverged) as exc:
            train_encoder(features, tuple(range(5)), language, TrainConfig(steps=5))
        assert exc.value.step == 0


class TestMeasureDelta:
    def test_no_triples_returns_tiny_positive(self):
        clip = start_clip(12, T=2)
        delta = measure_delta(clip)
        assert delta is not None and 0 < delta < 1e-300

    def test_constructed_well_ordered_clip(self):
        # build scores by hand via frames with widely separated similarities
        # at a small temperature: equal-distance pairs coincide, ordered
        # pairs are separated by much more than 1/delta
        sims = np.array([0.9, 0.5, 0.1])
        emb = np.stack([np.array([s, np.sqrt(1 - s * s)]) for s in sims])
        clip = ClipSequence((0, 1, 2), emb, np.array([1.0, 0.0]))
        delta = measure_delta(clip, temperature=0.01)
        assert delta is not None
        assert 0 < delta < 1

    def test_unordered_clip_returns_none(self):
        # similarities move the wrong way: closer frame scores worse
        sims = np.array([0.9, 0.1, 0.85])
        emb = np.stack([np.array([s, np.sqrt(1 - s * s)]) for s in sims])
        clip = ClipSequence((0, 1, 2), emb, np.array([1.0, 0.0]))
        assert measure_delta(clip, temperature=0.01) is None

    def test_small_margins_infeasible(self):
        # ordering holds but margins are below 1, so no delta < 1 exists
        sims = np.array([0.5, 0.4, 0.3])
        emb = np.stack([np.array([s, np.sqrt(1 - s * s)]) for s in sims])
        clip = ClipSequence((0, 1, 2), emb, np.array([1.0, 0.0]))
        assert measure_delta(clip, temperature=1.0) is None
