import tracemalloc
from dataclasses import fields, is_dataclass, replace
from unittest import mock

import naive
import numpy as np
import pytest

from actol import (
    ClipSequence,
    LinearEncoder,
    SyntheticClipSpec,
    TnceConfig,
    TrainConfig,
    TrainingDiverged,
    actol_loss,
    generate_clip,
    lower_bound,
    measure_delta,
    normalize,
    random_clip,
    tnce_loss,
    train_encoder,
    train_free,
)
from actol.gradients import Step
from actol.losses import Bridge, Contrast, TieGroups
from actol.trainer import INTERVAL_BLOCK_STEPS, train_objectives


def start_clip(seed=0, T=6, d=4):
    rng = np.random.default_rng(seed)
    return random_clip(T, d, rng)


def _arrays(values) -> list:
    """The ndarrays among values."""
    return [a for a in values if isinstance(a, np.ndarray)]


def _buffer(a: np.ndarray) -> np.ndarray:
    """The array that owns a's memory."""
    return a if a.base is None else a.base


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

    @pytest.mark.parametrize("seed", [True, 1.5, -1, np.float64(2.0)], ids=str)
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            TrainConfig(seed=seed)


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
        assert all(r.gap > 0 for r in history.records)

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
        "field",
        [{"learning_rate": 1e200}, {"learning_rate": 1e308}, {"bb_weight": 1e308},
         {"temperature": 1e-300}],
        ids=["learning_rate-1e200", "learning_rate-1e308", "bb_weight-1e308", "temperature-1e-300"],
    )
    @pytest.mark.parametrize("optimize_language", [False, True])
    def test_overflowing_step_diverges(self, field, optimize_language):
        # the overflow would reach the next step as zero vectors; RuntimeWarning is an error here
        cfg = TrainConfig(steps=5, optimize_language=optimize_language, **field)
        with pytest.raises(TrainingDiverged) as exc:
            train_free(start_clip(8), cfg)
        assert exc.value.step == 0
        assert isinstance(exc.value.__cause__, FloatingPointError)
        assert str(exc.value) == "overflow in the update at step 0"

    def test_overflowing_loss_names_the_loss(self):
        # scores / temperature overflow before any update
        with pytest.raises(TrainingDiverged) as exc:
            train_free(start_clip(8), TrainConfig(steps=5, temperature=1e-310))
        assert (exc.value.step, str(exc.value)) == (0, "overflow in the loss at step 0")
        assert isinstance(exc.value.__cause__, FloatingPointError)

    def test_non_finite_loss_names_the_loss(self, monkeypatch):
        calls, original = [], Step.__call__

        def diverging(*args):
            vlo, *rest = original(*args)
            calls.append(None)
            return (vlo * np.nan if len(calls) == 3 else vlo), *rest

        monkeypatch.setattr(Step, "__call__", diverging)
        with pytest.raises(TrainingDiverged) as exc:
            train_free(start_clip(8), TrainConfig(steps=5))
        assert (exc.value.step, str(exc.value)) == (2, "non-finite loss at step 2")
        assert exc.value.__cause__ is None

    def test_warm_step_allocates_less_than_one_score_matrix(self, monkeypatch):
        """A run's steps write the kernel's (T, T) arrays in place. At B=1,
        T=128, d=32, each step after the first peaks below one (T, T) float
        array above the memory traced at its start: 131072 B, against about
        916 KB when every step made its own arrays. That holds at
        temperature 0.5 (linear space), at 0.002 (log space), where steps
        peaked about 657 KB above their start when the log-space path made
        its own arrays, and with the language optimized, where steps peaked
        about 172 KB above it when dL/dl's (T, d) terms were new arrays."""
        marks = []  # traced (current, peak since the last mark) at each step's Step call
        original = Step.__call__

        def marking(*args):
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            return original(*args)

        monkeypatch.setattr(Step, "__call__", marking)
        clip = start_clip(24, T=128, d=32)
        for temperature, language in ((0.5, False), (0.002, False), (0.5, True)):
            marks.clear()
            cfg = TrainConfig(steps=5, temperature=temperature, optimize_language=language)
            tracemalloc.start()
            try:
                train_free(clip, cfg)
            finally:
                tracemalloc.stop()
            peaks = [peak - start for (start, _), (_, peak) in zip(marks, marks[1:])]
            assert len(peaks) == 4 and peaks[0] > 128 * 128 * 8  # the first step makes the arrays
            assert max(peaks[1:]) < 128 * 128 * 8, (temperature, language)

    @pytest.mark.parametrize(
        "B, T, d, objectives, most",
        [(4, 10, 8, (None, TnceConfig("last-frame", "other-frames", "direct-sim")), 36_640),
         (1, 128, 32, (None,), 798_720)],
        ids=["reward-stack", "T128"],
    )
    def test_run_workspace_does_not_grow(self, monkeypatch, B, T, d, objectives, most):
        """What a descent run's step keeps from step to step, the working
        arrays of its Views and the step's own run constants, holds after
        one step no more bytes than when each step formed dense (T, T) score
        rows: 36,640 B for the reward comparison's (4, 2, 10, 8) stack and
        798,720 B for one config at T=128, d=32. Each buffer counts once;
        the caller's language and the buffers of the Contrast's fields (at
        B=1, Views.at is a view of c.s_at) do not count."""
        steps = []
        original = Step.__call__

        def keeping(step, *args):
            steps.append(step)
            return original(step, *args)

        monkeypatch.setattr(Step, "__call__", keeping)
        ts = tuple(range(T))
        clips = [random_clip(T, d, np.random.default_rng(seed)) for seed in range(B)]
        clips = [ClipSequence(ts, clip.embeddings, clip.language) for clip in clips]
        train_objectives(clips, TrainConfig(steps=1, temperature=0.5), objectives, list(range(B)))
        (step,) = steps
        views, own = _arrays(vars(step.views).values()), _arrays(vars(step).values())
        assert views and own  # the language's norm and unit vectors
        fixed = [*(getattr(step.c, f.name) for f in fields(step.c)), step.lang]
        fixed = {id(_buffer(a)) for a in _arrays(fixed)}
        buffers = {id(b): b for b in map(_buffer, views + own) if id(b) not in fixed}
        assert 0 < sum(b.nbytes for b in buffers.values()) <= most

    @pytest.mark.parametrize("language", [False, True], ids=["fixed", "optimized"])
    @pytest.mark.parametrize(
        "B, T, d, objectives",
        [(4, 10, 8, (None, TnceConfig("last-frame", "other-frames", "direct-sim"))),
         (1, 128, 32, (None,))],
        ids=["reward-stack", "T128"],
    )
    def test_warm_step_calls_no_array(self, monkeypatch, B, T, d, objectives, language):
        """A descent run's Step resolves its Views' arrays and their views
        once: after its first step it keeps one Views, and every attribute
        of it is the same object through the last step."""
        kept = []
        original = Step.__call__

        def keeping(step, *args):
            out = original(step, *args)
            kept.append((step.views, {k: id(a) for k, a in vars(step.views).items()}))
            return out

        monkeypatch.setattr(Step, "__call__", keeping)
        clips = [random_clip(T, d, np.random.default_rng(seed)) for seed in range(B)]
        clips = [ClipSequence(tuple(range(T)), clip.embeddings, clip.language) for clip in clips]
        cfg = TrainConfig(steps=4, temperature=0.5, optimize_language=language)
        train_objectives(clips, cfg, objectives, list(range(B)))
        (views, ids), *warm = kept
        assert len(warm) == 3 and {"x", "acc", "at"} <= set(ids)
        assert all(v is views and i == ids for v, i in warm)

    def test_run_contrast_keeps_no_tie_groups(self, monkeypatch):
        """A descent run's Contrast at T=128 keeps the lower bound, not the
        TieGroups: by unique buffer, its arrays of a value per sorted
        position are the sort order and each group's end and start index,
        3 * 130,048 = 390,144 B, where with the TieGroups' distances, starts
        and ends they were 780,288 B. Its per-config tau, scale and n_terms
        add 8 B each."""
        steps = []
        original = Step.__call__
        monkeypatch.setattr(Step, "__call__",
                            lambda step, *args: steps.append(step) or original(step, *args))
        T, drawn = 128, random_clip(128, 32, np.random.default_rng(0))
        clip = ClipSequence(tuple(range(T)), drawn.embeddings, drawn.language)
        train_free(clip, TrainConfig(steps=1, temperature=0.5))
        c = steps[0].c

        def arrays(value):  # the arrays of a field, and of a dataclass it holds
            if isinstance(value, np.ndarray):
                yield value
            elif is_dataclass(value):
                for f in fields(value):
                    yield from arrays(getattr(value, f.name))

        kept = [a for f in fields(c) for a in arrays(getattr(c, f.name))]
        buffers = {id(b): b for b in (a if a.base is None else a.base for a in kept)}.values()
        assert sum(b.nbytes for b in buffers if b.size >= T * (T - 1)) <= 390_144
        assert sum(b.nbytes for b in buffers if b.size < T * (T - 1)) <= 24
        assert c.lower_bound == lower_bound(clip)

    @pytest.mark.parametrize(
        "B, T, objectives", [(4, 10, (None, TnceConfig("last-frame", "other-frames", "direct-sim"))),
                             (1, 128, (None,))], ids=["reward-stack", "T128"],
    )
    def test_no_step_keeps_a_dense_score_array(self, monkeypatch, B, T, objectives):
        """A descent run's step takes dL/ds from the sorted weights: its
        Contrast has no sorted_at index into (T, T) arrays, and neither its
        Views' arrays nor the step's own arrays end in a (T, T) shape."""
        steps = []
        original = Step.__call__
        monkeypatch.setattr(Step, "__call__",
                            lambda step, *args: steps.append(step) or original(step, *args))
        clips = [random_clip(T, 8, np.random.default_rng(seed)) for seed in range(B)]
        clips = [ClipSequence(tuple(range(T)), clip.embeddings, clip.language) for clip in clips]
        train_objectives(clips, TrainConfig(steps=2, temperature=0.5), objectives, list(range(B)))
        step = steps[-1]
        assert "sorted_at" not in {f.name for f in fields(step.c)}
        views, own = _arrays(vars(step.views).values()), _arrays(vars(step).values())
        assert views and own
        assert all(a.shape[-2:] != (T, T) for a in views + own)

    @pytest.mark.parametrize(
        "objectives", [(None,), (None, TnceConfig("last-frame", "other-frames", "direct-sim"))],
        ids=["actol", "actol-and-last-frame"],
    )
    def test_intervals_follow_the_block_draws(self, monkeypatch, objectives):
        """Each step's bridge intervals are clip b's rows of the block draws
        from seed b's Generator, over more than one block of steps."""
        drawn = []
        of = Bridge.of
        monkeypatch.setattr(Bridge, "of", lambda ts, iv=None: drawn.append(iv) or of(ts, iv))
        ts = start_clip(27, T=8).timestamps
        clips = [random_clip(len(ts), 4, np.random.default_rng(seed)) for seed in (1, 2, 3)]
        clips = [ClipSequence(ts, c.embeddings, c.language) for c in clips]
        steps, seeds = INTERVAL_BLOCK_STEPS + 6, (7, 8, 9)
        cfg = TrainConfig(steps=steps, intervals_per_step=3)
        train_objectives(clips, cfg, objectives, seeds)
        expected = [naive.bridge_intervals(len(ts), 3, np.random.default_rng(seed), steps,
                                           INTERVAL_BLOCK_STEPS) for seed in seeds]
        assert len(drawn) == steps
        for step, intervals in enumerate(drawn):  # (B, 1) broadcasts over objectives
            assert intervals.shape == (3, 1, 3, 2)
            assert intervals.reshape(3, 3, 2).tolist() == [[list(iv) for iv in e[step]]
                                                           for e in expected]

    def test_batch_with_local_bridges_equals_single_seed_runs(self):
        """With three intervals per step, history b of a batch is bit for bit
        seed b's own train_free run."""
        ts = start_clip(28, T=8).timestamps
        clips = [random_clip(len(ts), 4, np.random.default_rng(seed)) for seed in (4, 5, 6)]
        clips = [ClipSequence(ts, c.embeddings, c.language) for c in clips]
        seeds = (11, 12, 13)
        cfg = TrainConfig(steps=40, intervals_per_step=3)
        batch = [h for (h,) in train_objectives(clips, cfg, (None,), seeds)]
        for clip, seed, history in zip(clips, seeds, batch):
            alone = train_free(clip, replace(cfg, seed=seed))
            assert history.records == alone.records
            assert np.array_equal(history.final_clip.embeddings, alone.final_clip.embeddings)

    def test_local_bridges_deterministic_over_several_draw_blocks(self):
        clip = start_clip(29)
        cfg = TrainConfig(steps=2 * INTERVAL_BLOCK_STEPS + 5, intervals_per_step=2, seed=5)
        a, b = train_free(clip, cfg), train_free(clip, cfg)
        assert a.records == b.records
        assert np.array_equal(a.final_clip.embeddings, b.final_clip.embeddings)


    @pytest.mark.parametrize(
        "objective", [None, TnceConfig("last-frame", "other-frames", "direct-sim")]
    )
    def test_one_objective_evaluation_per_step(self, monkeypatch, objective):
        calls = []

        def counting(fn):
            return lambda *a, **k: calls.append(fn.__name__) or fn(*a, **k)

        monkeypatch.setattr(Step, "__call__", counting(Step.__call__))
        monkeypatch.setattr(TieGroups, "of", counting(TieGroups.of))
        train_free(start_clip(13), TrainConfig(steps=7), objective=objective)
        # one sort, which also gives the lower bound, then one evaluation per step
        assert calls == ["of"] + ["__call__"] * 7

    @pytest.mark.parametrize(
        "objective", [None, TnceConfig("last-frame", "other-frames", "direct-sim")],
        ids=["actol", "last-frame"],
    )
    @pytest.mark.parametrize("intervals_per_step", [1, 3])
    def test_one_tie_groups_per_run(self, monkeypatch, objective, intervals_per_step):
        spy = mock.Mock(wraps=TieGroups.of)
        monkeypatch.setattr(TieGroups, "of", spy)
        cfg = TrainConfig(steps=4, intervals_per_step=intervals_per_step)
        train_free(start_clip(21), cfg, objective)
        assert spy.call_count == 1
        ts = start_clip(22).timestamps
        clips = [random_clip(len(ts), 4, np.random.default_rng(seed)) for seed in (1, 2, 3)]
        clips = [ClipSequence(ts, c.embeddings, c.language) for c in clips]
        train_objectives(clips, cfg, (objective,), (1, 2, 3))
        assert spy.call_count == 2

    @pytest.mark.parametrize("intervals_per_step", [1, 2])
    def test_bridge_and_clips_built_per_run(self, monkeypatch, intervals_per_step):
        counts = {"bridge": 0, "clip": 0}
        of, init = Bridge.of, ClipSequence.__post_init__

        def count(key, fn):
            return lambda *a: counts.__setitem__(key, counts[key] + 1) or fn(*a)

        monkeypatch.setattr(Bridge, "of", count("bridge", of))
        monkeypatch.setattr(ClipSequence, "__post_init__", count("clip", init))
        ts = start_clip(14).timestamps
        clips = [random_clip(len(ts), 4, np.random.default_rng(seed)) for seed in (1, 2, 3)]
        clips = [ClipSequence(ts, c.embeddings, c.language) for c in clips]
        seen = []
        for steps in (3, 8):
            counts.update(bridge=0, clip=0)
            cfg = TrainConfig(steps=steps, intervals_per_step=intervals_per_step)
            train_objectives(clips, cfg, (None,), (1, 2, 3))  # one Bridge per step for all three clips
            assert counts["bridge"] == (1 if intervals_per_step == 1 else steps)
            seen.append(counts["clip"])
        assert seen[0] == seen[1]

    @pytest.mark.parametrize("optimize_language", [False, True])
    def test_language_gradient_asked_for_only_when_stepped(self, monkeypatch, optimize_language):
        asked = []
        original = Step.__call__

        def spy(step, *args):  # a run's Step, which fixes need_language
            asked.append(step.need_language)
            return original(step, *args)

        monkeypatch.setattr(Step, "__call__", spy)
        cfg = TrainConfig(steps=3, optimize_language=optimize_language)
        clip = start_clip(23)
        train_free(clip, cfg)
        assert asked == [optimize_language] * 3
        asked.clear()
        train_encoder(clip.embeddings, clip.timestamps, clip.language, cfg)
        assert asked == [False] * 3  # the encoder's language is fixed

    @pytest.mark.parametrize("optimize_language", [False, True])
    def test_language_norm_taken_once_per_run_unless_stepped(self, monkeypatch, optimize_language):
        """A run whose language is fixed takes its norm at the first step
        only; a run that steps it takes it at every step; the encoder's
        language is always fixed."""
        from actol import gradients

        taken, original = [], gradients._cosines

        def spy(emb, lang, norm_l=None):
            taken.append(norm_l is None)
            return original(emb, lang, norm_l)

        monkeypatch.setattr(gradients, "_cosines", spy)
        cfg = TrainConfig(steps=5, optimize_language=optimize_language)
        clip = start_clip(32)
        train_free(clip, cfg)
        assert taken == ([True] * 5 if optimize_language else [True] + [False] * 4)
        taken.clear()
        train_encoder(clip.embeddings, clip.timestamps, clip.language, cfg)
        assert taken == [True] + [False] * 4

    @pytest.mark.parametrize("optimize_language", [False, True])
    @pytest.mark.parametrize("intervals_per_step", [1, 3])
    @pytest.mark.parametrize(
        "objective", [None, TnceConfig("last-frame", "other-frames", "direct-sim", 0.5)],
        ids=["actol", "last-frame"],
    )
    def test_histories_match_reference_step(
        self, monkeypatch, objective, intervals_per_step, optimize_language
    ):
        """Records and final clips bit for bit those of the step composed as
        in naive.py, which computes every intermediate and the language
        gradient on every step."""
        from actol import trainer

        ts = start_clip(24, T=8).timestamps
        clips = [random_clip(len(ts), 5, np.random.default_rng(seed)) for seed in (1, 2, 3)]
        clips = [ClipSequence(ts, c.embeddings, c.language) for c in clips]
        cfg = TrainConfig(
            steps=12, intervals_per_step=intervals_per_step, optimize_language=optimize_language
        )
        got = [h for (h,) in train_objectives(clips, cfg, (objective,), (4, 5, 6))]
        monkeypatch.setattr(
            Step, "__call__",
            lambda step, emb, lang, bridge: naive.objective_and_grad(
                emb, lang, step.c, bridge, step.bb_weight),
        )
        monkeypatch.setattr(trainer, "_tangent_step", naive.tangent_step)
        reference = [h for (h,) in train_objectives(clips, cfg, (objective,), (4, 5, 6))]
        for history, expected in zip(got, reference):
            assert history.records == expected.records
            assert np.array_equal(history.final_clip.embeddings, expected.final_clip.embeddings)
            assert np.array_equal(history.final_clip.language, expected.final_clip.language)

    def test_records_hold_python_floats(self):
        clip = start_clip(25)
        histories = [train_free(clip, TrainConfig(steps=3))]
        histories.append(train_encoder(clip.embeddings, clip.timestamps, clip.language,
                                       TrainConfig(steps=3))[1])
        for history in histories:
            for record in history.records:
                assert all(type(getattr(record, f.name)) is float for f in fields(record))

    @pytest.mark.parametrize("intervals_per_step", [1, 3])
    def test_batch_needs_one_seed_per_clip(self, intervals_per_step):
        ts = start_clip(26).timestamps
        clips = [ClipSequence(ts, start_clip(seed).embeddings, start_clip(seed).language)
                 for seed in (1, 2, 3)]
        cfg = TrainConfig(steps=2, intervals_per_step=intervals_per_step)
        with pytest.raises(ValueError, match="^a batch needs one seed per clip$"):
            train_objectives(clips, cfg, (None,), (0, 1))

    @staticmethod
    def _apart_match_their_own_runs(order, optimize_language, intervals_per_step):
        ts = start_clip(30, T=8).timestamps
        clips = [random_clip(len(ts), 4, np.random.default_rng(seed)) for seed in (7, 8)]
        clips = [ClipSequence(ts, c.embeddings, c.language) for c in clips]
        presets = {"actol": None, "last-frame": TnceConfig("last-frame", "other-frames", "direct-sim")}
        objectives = tuple(presets[name] for name in order)
        cfg = TrainConfig(steps=20, intervals_per_step=intervals_per_step,
                          optimize_language=optimize_language)
        seeds = (14, 15)
        stacked = train_objectives(clips, cfg, objectives, seeds)
        for o, objective in enumerate(objectives):
            for b, (alone,) in enumerate(train_objectives(clips, cfg, (objective,), seeds)):
                assert stacked[b][o].records == alone.records
                assert any(r.bb > 0 for r in alone.records) == (objective is None)
                got = stacked[b][o].final_clip
                assert np.array_equal(got.embeddings, alone.final_clip.embeddings)
                assert np.array_equal(got.language, alone.final_clip.language)

    @pytest.mark.parametrize("intervals_per_step", [1, 3])
    def test_combined_objectives_apart_match_their_own_runs(self, intervals_per_step):
        """With a contrastive objective between two combined ones, the
        bridge goes on the combined rows only, and each history is bit for
        bit its own one-objective run."""
        self._apart_match_their_own_runs(("actol", "last-frame", "actol"), False, intervals_per_step)

    @pytest.mark.parametrize("intervals_per_step", [1, 3])
    @pytest.mark.parametrize(
        "order, optimize_language",
        [(("actol", "last-frame"), False), (("actol", "last-frame"), True),
         (("last-frame", "actol"), False), (("last-frame", "actol"), True),
         (("actol", "last-frame", "actol"), True)],
        ids=lambda v: "-".join(v) if isinstance(v, tuple) else f"language-{'stepped' if v else 'fixed'}",
    )
    def test_objective_orders_apart_match_their_own_runs(
        self, order, optimize_language, intervals_per_step
    ):
        """In the reward comparison's order and the other way round, with
        the language fixed or stepped, and with a contrastive objective
        between two combined ones and the language stepped, the bridge goes
        on the combined rows only, and each history is bit for bit its own
        one-objective run."""
        self._apart_match_their_own_runs(order, optimize_language, intervals_per_step)

    @pytest.mark.parametrize(
        "clips, objectives, message",
        [([], (None,), "need at least one clip"), (None, (), "need at least one objective")],
        ids=["no-clip", "no-objective"],
    )
    def test_empty_input_rejected(self, clips, objectives, message):
        clips = [start_clip(31)] if clips is None else clips
        with pytest.raises(ValueError, match=f"^{message}$"):
            train_objectives(clips, TrainConfig(steps=2), objectives, [0] * len(clips))

    def test_batch_rejects_clips_with_other_timestamps(self):
        a, b = start_clip(19), start_clip(20)
        assert a.timestamps != b.timestamps
        with pytest.raises(ValueError, match="share their timestamps"):
            train_objectives([a, b], TrainConfig(steps=2), (None,), (0, 1))

    @pytest.mark.parametrize(
        "objective", [None, TnceConfig("last-frame", "other-frames", "direct-sim")],
        ids=["actol", "last-frame"],
    )
    def test_batch_records_equal_single_seed_records(self, objective):
        # the reward-drift benchmark config: every loss value of a batch row,
        # not only its final clip, is bit for bit that of the seed's own run
        spec = SyntheticClipSpec(T=10, d=8, completion_index=5, tail_mode="drift-away",
                                 noise_sigma=0.05)
        seeds = (100, 101, 102, 103)
        clips = [generate_clip(replace(spec, seed=seed))[0] for seed in seeds]
        cfg = TrainConfig(learning_rate=0.05, steps=300, temperature=0.5)
        batch = [h for (h,) in train_objectives(clips, cfg, (objective,), seeds)]
        for clip, seed, history in zip(clips, seeds, batch):
            alone = train_free(clip, replace(cfg, seed=seed), objective)
            assert history.records == alone.records

    def test_first_record_is_actol_loss(self):
        clip = start_clip(15)
        first = train_free(clip, TrainConfig(steps=2, bb_weight=0.3, temperature=0.7)).records[0]
        assert first == actol_loss(clip.normalized(), 0.3, 0.7)

    def test_first_record_is_tnce_loss(self):
        clip = start_clip(16)
        obj = TnceConfig("future-frame", "other-frames", "direct-sim", 0.5)
        first = train_free(clip, TrainConfig(steps=2), objective=obj).records[0]
        value, lb = tnce_loss(clip.normalized(), obj), lower_bound(clip)
        assert (first.vlo, first.bb, first.total) == (value, 0.0, value)
        assert (first.lower_bound, first.gap) == (lb, value - lb)


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

    def test_first_record_is_actol_loss(self):
        clip = start_clip(17, T=6, d=4)
        cfg = TrainConfig(steps=2, bb_weight=0.2, temperature=0.5)
        _, history = train_encoder(clip.embeddings, clip.timestamps, clip.language, cfg)
        encoded = LinearEncoder(np.eye(4))(clip.embeddings)
        start = ClipSequence(clip.timestamps, encoded, normalize(clip.language))
        assert history.records[0] == actol_loss(start, 0.2, 0.5)

    @pytest.mark.parametrize(
        "field", [{"learning_rate": 1e200}, {"bb_weight": 1e308}, {"temperature": 1e-300}],
        ids=["learning_rate-1e200", "bb_weight-1e308", "temperature-1e-300"],
    )
    def test_overflowing_step_diverges(self, field):
        rng = np.random.default_rng(25)
        features = rng.standard_normal((5, 3))
        with pytest.raises(TrainingDiverged) as exc:
            train_encoder(features, tuple(range(5)), rng.standard_normal(3),
                          TrainConfig(steps=5, **field))
        assert exc.value.step <= 1  # the step whose update or encoding overflows
        assert isinstance(exc.value.__cause__, FloatingPointError)

    def test_zero_encoder_output_diverges(self):
        rng = np.random.default_rng(18)
        features = rng.standard_normal((5, 3))
        features[2] = 0.0
        with pytest.raises(TrainingDiverged) as exc:
            train_encoder(features, tuple(range(5)), rng.standard_normal(3), TrainConfig(steps=5))
        assert exc.value.step == 0

    def test_encoder_rejects_zero_output(self):
        features = np.eye(3)
        features[1] = 0.0
        with pytest.raises(ValueError, match="cannot normalize a zero vector"):
            LinearEncoder(np.eye(3))(features)


class TestMeasureDelta:
    @pytest.mark.parametrize("temperature", [0.0, -1.0, np.nan, True], ids=str)
    def test_bad_temperature_rejected(self, temperature):
        with pytest.raises(ValueError, match="temperature must be finite and positive"):
            measure_delta(start_clip(3), temperature)

    @pytest.mark.parametrize("T", [2, 3, 9])
    def test_one_sort(self, monkeypatch, T):
        """measure_delta builds one TieGroups, for its sort order and group
        starts."""
        clip = start_clip(23, T=T)
        expected = measure_delta(clip, 0.01)
        spy = mock.Mock(wraps=TieGroups.of)
        monkeypatch.setattr(TieGroups, "of", spy)
        assert measure_delta(clip, 0.01) == expected
        assert spy.call_count == 1

    @pytest.mark.parametrize("T", [2, 3, 9])
    def test_builds_no_contrast(self, monkeypatch, T):
        """measure_delta reads only sorted scores, which it gathers through
        its TieGroups: it builds no Contrast."""
        spy = mock.Mock(wraps=Contrast.of)
        monkeypatch.setattr(Contrast, "of", spy)
        measure_delta(start_clip(23, T=T), 0.01)
        assert spy.call_count == 0

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
