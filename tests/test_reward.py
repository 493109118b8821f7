from dataclasses import replace

import numpy as np
import pytest

from actol import (
    ClipSequence,
    ObjectiveSpec,
    SyntheticClipSpec,
    TnceConfig,
    TrainConfig,
    TrainingDiverged,
    compare_objectives,
    curve_rows,
    generate_clip,
    reward_curve,
)
from actol.cli import OBJECTIVE_PRESETS
from actol.gradients import Step
from actol.losses import LossBreakdown
from actol.trainer import train_objectives


def clip_with_sims(sims, timestamps=None):
    sims = np.asarray(sims, dtype=float)
    emb = np.stack([np.array([s, np.sqrt(1 - s * s)]) for s in sims])
    ts = tuple(range(len(sims))) if timestamps is None else timestamps
    return ClipSequence(ts, emb, np.array([1.0, 0.0]))


class TestRewardCurve:
    def test_raw_equals_similarities(self):
        clip = clip_with_sims([0.1, 0.8, 0.4])
        curve = reward_curve(clip)
        assert curve.raw == pytest.approx((0.1, 0.8, 0.4))

    def test_normalization_range(self):
        curve = reward_curve(clip_with_sims([0.1, 0.8, 0.4]))
        assert curve.normalized[0] == pytest.approx(0.0)
        assert curve.normalized[1] == pytest.approx(1.0)
        assert curve.normalized[2] == pytest.approx(3 / 7)

    def test_argmax_one_based(self):
        assert reward_curve(clip_with_sims([0.1, 0.8, 0.4])).argmax_index == 2

    def test_argmax_tie_breaks_earliest(self):
        assert reward_curve(clip_with_sims([0.2, 0.9, 0.9])).argmax_index == 2

    def test_constant_curve_normalizes_to_zeros(self):
        curve = reward_curve(clip_with_sims([0.5, 0.5, 0.5]))
        assert curve.normalized == (0.0, 0.0, 0.0)
        assert curve.argmax_index == 1

    def test_peak_at_completion_on_clean_clip(self):
        spec = SyntheticClipSpec(T=10, d=8, completion_index=6, tail_mode="drift-away", seed=4)
        clip, truth = generate_clip(spec)
        assert reward_curve(clip).argmax_index == truth.completion_index


class TestCurveRows:
    def test_row_layout(self):
        clip = clip_with_sims([0.1, 0.8, 0.4], timestamps=(0, 3, 9))
        rows = curve_rows(clip)
        assert len(rows) == 3
        assert rows[1][0] == 2
        assert rows[1][1] == 3
        assert rows[1][2] == pytest.approx(0.8)
        assert rows[1][3] == pytest.approx(1.0)


class TestCompareObjectives:
    OBJECTIVES = (
        ObjectiveSpec("actol", None),
        ObjectiveSpec("last-frame", TnceConfig("last-frame", "other-frames", "direct-sim")),
    )

    def run(self, seeds=(0, 1, 2)):
        spec = SyntheticClipSpec(T=8, d=6, completion_index=4, tail_mode="drift-away",
                                 noise_sigma=0.05)
        cfg = TrainConfig(learning_rate=0.05, steps=30, temperature=0.5)
        return compare_objectives(spec, self.OBJECTIVES, cfg, seeds)

    def test_record_shape(self):
        record = self.run()
        assert record.seeds == (0, 1, 2)
        assert record.objectives == ("actol", "last-frame")
        assert len(record.results) == 3
        assert set(record.median_error) == {"actol", "last-frame"}
        for res in record.results:
            assert set(res.argmax_by_objective) == {"actol", "last-frame"}
            for name, am in res.argmax_by_objective.items():
                assert res.error_by_objective[name] == abs(am - res.completion_index)

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError, match="at least one seed"):
            self.run(seeds=())

    def test_final_clips_returned(self):
        record = self.run(seeds=(0,))
        assert set(record.final_clips) == {(0, "actol"), (0, "last-frame")}

    def test_deterministic_across_runs(self):
        a = self.run()
        b = self.run()
        assert a.median_error == b.median_error
        assert a.results == b.results

    def test_each_seed_matches_its_own_run(self):
        record = self.run(seeds=(0, 1, 2))
        for res in record.results:
            alone = self.run(seeds=(res.seed,))
            assert alone.results == (res,)
            for name in record.objectives:
                a = record.final_clips[(res.seed, name)]
                b = alone.final_clips[(res.seed, name)]
                assert a.timestamps == b.timestamps
                assert np.array_equal(a.embeddings, b.embeddings)
                assert np.array_equal(a.language, b.language)

    def test_permuting_seeds_permutes_results(self):
        record = self.run(seeds=(0, 1, 2))
        permuted = self.run(seeds=(2, 0, 1))
        assert permuted.results == tuple(record.results[i] for i in (2, 0, 1))
        assert permuted.final_clips.keys() == record.final_clips.keys()
        for key, clip in record.final_clips.items():
            assert np.array_equal(permuted.final_clips[key].embeddings, clip.embeddings)
            assert np.array_equal(permuted.final_clips[key].language, clip.language)

    @pytest.mark.parametrize(
        "train", [{"intervals_per_step": 2}, {"optimize_language": True}],
        ids=["intervals_per_step-2", "optimize_language"],
    )
    def test_batch_matches_single_seed_runs_for_every_preset(self, train):
        objectives = [ObjectiveSpec(name, cfg) for name, cfg in OBJECTIVE_PRESETS.items()]
        spec = SyntheticClipSpec(T=7, d=5, completion_index=4, tail_mode="second-action",
                                 noise_sigma=0.1)
        cfg = TrainConfig(learning_rate=0.1, steps=15, temperature=0.5, **train)
        record = compare_objectives(spec, objectives, cfg, (3, 4, 5))
        for res in record.results:
            alone = compare_objectives(spec, objectives, cfg, (res.seed,))
            assert alone.results == (res,)
            for obj in objectives:
                a = record.final_clips[(res.seed, obj.name)]
                b = alone.final_clips[(res.seed, obj.name)]
                assert np.array_equal(a.embeddings, b.embeddings)
                assert np.array_equal(a.language, b.language)

    @pytest.mark.parametrize(
        "train",
        [{}, {"intervals_per_step": 2}, {"optimize_language": True},
         {"intervals_per_step": 2, "optimize_language": True}, {"temperature": 1e-3}],
        ids=["defaults", "intervals_per_step-2", "optimize_language", "both", "mixed-range"],
    )
    def test_every_objective_matches_its_own_train_batch_run(self, monkeypatch, train):
        """Records and final clips of each objective of one stack are bit
        for bit those of its own one-objective run, for every preset, and a
        comparison builds no record. At temperature 1e-3 the combined
        objective's kernel runs in log space and the presets', at
        temperature 1, in linear space."""
        objectives = [ObjectiveSpec(name, cfg) for name, cfg in OBJECTIVE_PRESETS.items()]
        spec = SyntheticClipSpec(T=7, d=5, completion_index=4, tail_mode="second-action",
                                 noise_sigma=0.1)
        cfg = TrainConfig(learning_rate=0.1, steps=15, **{"temperature": 0.5, **train})
        seeds = (3, 4, 5)
        clips = [generate_clip(replace(spec, seed=seed))[0] for seed in seeds]
        stacked = train_objectives(clips, cfg, [o.tnce for o in objectives], seeds)
        built, init = [], LossBreakdown.__init__
        monkeypatch.setattr(LossBreakdown, "__init__",
                            lambda self, *a: built.append(a) or init(self, *a))
        record = compare_objectives(spec, objectives, cfg, seeds)
        assert built == []
        for o, obj in enumerate(objectives):
            for b, (alone,) in enumerate(train_objectives(clips, cfg, (obj.tnce,), seeds)):
                assert stacked[b][o].records == alone.records
                for got in (stacked[b][o].final_clip, record.final_clips[(seeds[b], obj.name)]):
                    assert np.array_equal(got.embeddings, alone.final_clip.embeddings)
                    assert np.array_equal(got.language, alone.final_clip.language)
        assert built  # the spy sees the records read from the histories

    @pytest.mark.parametrize(
        "names, message",
        [((), "at least one objective"), (("actol", "last-frame", "actol"), "distinct")],
        ids=["empty", "repeated"],
    )
    def test_objective_names_rejected(self, names, message):
        objectives = [ObjectiveSpec(name, OBJECTIVE_PRESETS[name]) for name in names]
        spec = SyntheticClipSpec(T=5, d=3, completion_index=3)
        with pytest.raises(ValueError, match=message):
            compare_objectives(spec, objectives, TrainConfig(steps=2), (0,))

    @pytest.mark.parametrize("seed", [1.7, True, -1], ids=str)
    def test_seeds_must_be_non_negative_integers(self, seed):
        spec = SyntheticClipSpec(T=5, d=3, completion_index=3)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            compare_objectives(spec, self.OBJECTIVES, TrainConfig(steps=2), (0, seed))

    def test_divergence_raised_at_the_earliest_step_of_any_objective(self, monkeypatch):
        # the second objective turns non-finite at step 3, the first never
        steps, original = [], Step.__call__

        def diverging(*a):
            vlo, *rest = original(*a)
            if len(steps) == 3:
                vlo[1, 1] = np.nan
            steps.append(len(steps))
            return vlo, *rest

        monkeypatch.setattr(Step, "__call__", diverging)
        with pytest.raises(TrainingDiverged) as exc:
            self.run(seeds=(0, 1))
        assert exc.value.step == 3

    @pytest.mark.parametrize("seeds", [(0,), (0, 1, 2)])
    def test_one_objective_call_per_step_whatever_the_seed_count(self, monkeypatch, seeds):
        calls = []
        original = Step.__call__
        monkeypatch.setattr(
            Step, "__call__", lambda *a: calls.append(len(a[1])) or original(*a)
        )
        self.run(seeds=seeds)
        assert calls == [len(seeds)] * 30  # one call per step for every objective and seed

    def test_non_finite_start_in_a_batch_diverges_at_step_0(self):
        spec = SyntheticClipSpec(T=6, d=4, completion_index=3)
        clips = [generate_clip(replace(spec, seed=seed))[0] for seed in range(3)]
        emb = clips[1].embeddings.copy()
        emb[2, 1] = np.inf
        clips[1] = clips[1].with_embeddings(emb)
        for objective in (None, self.OBJECTIVES[1].tnce):
            with pytest.raises(TrainingDiverged) as exc:
                train_objectives(clips, TrainConfig(steps=5), (objective,), (0, 1, 2))
            assert exc.value.step == 0
