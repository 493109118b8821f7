import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import actol.losses as losses
from actol import (
    BridgeInterval,
    ClipSequence,
    GradientSet,
    TnceConfig,
    TrainConfig,
    actol_loss,
    finite_diff_check,
    grad_bb,
    grad_tnce,
    grad_total,
    grad_vlo,
    random_clip,
)
from actol.losses import TieGroups

TOL = 1e-5


def kink_free_clip(T, d, seed, min_gap=1e-3):
    """Random clip whose similarity values are pairwise well separated, so
    finite differences never straddle the absolute-value kink."""
    rng = np.random.default_rng(seed)
    while True:
        clip = random_clip(T, d, rng)
        s = np.sort(clip.similarities())
        if np.min(np.diff(s)) > min_gap:
            return clip


class TestGradVlo:
    def test_finite_difference_agreement(self):
        for seed in range(5):
            clip = kink_free_clip(5, 4, seed)
            assert finite_diff_check("vlo", clip) < TOL

    def test_finite_difference_with_temperature(self):
        clip = kink_free_clip(4, 3, 10)
        assert finite_diff_check("vlo", clip, {"temperature": 0.5}) < TOL

    def test_identical_embeddings_flag_kink(self):
        v = np.array([1.0, 0.0, 0.0])
        clip = ClipSequence((0, 1, 2), np.tile(v, (3, 1)), v)
        grads = grad_vlo(clip)
        assert grads.at_kink
        # the subgradient at the symmetric point is zero
        assert np.allclose(grads.frames, 0.0)

    def test_kink_flag_clear_generically(self):
        assert not grad_vlo(kink_free_clip(5, 4, 3)).at_kink

    def test_shapes(self):
        clip = kink_free_clip(6, 5, 4)
        grads = grad_vlo(clip)
        assert grads.frames.shape == (6, 5)
        assert grads.language.shape == (5,)


class TestGradBb:
    def test_finite_difference_agreement(self):
        for seed in range(5):
            clip = kink_free_clip(5, 4, seed + 20)
            assert finite_diff_check("bb", clip) < TOL

    def test_subinterval(self):
        clip = kink_free_clip(6, 3, 30)
        err = finite_diff_check("bb", clip, {"interval": BridgeInterval(1, 4)})
        assert err < TOL

    def test_no_interior_zero_gradient(self):
        rng = np.random.default_rng(31)
        clip = random_clip(2, 3, rng)
        grads = grad_bb(clip, BridgeInterval(0, 1))
        assert np.all(grads.frames == 0.0)

    def test_language_gradient_zero(self):
        clip = kink_free_clip(5, 4, 32)
        assert np.all(grad_bb(clip, BridgeInterval(0, 4)).language == 0.0)

    def test_endpoints_receive_gradient(self):
        clip = kink_free_clip(5, 4, 33)
        grads = grad_bb(clip, BridgeInterval(0, 4))
        assert np.linalg.norm(grads.frames[0]) > 0
        assert np.linalg.norm(grads.frames[4]) > 0


class TestGradTotal:
    def test_finite_difference_agreement(self):
        for seed in range(5):
            clip = kink_free_clip(5, 4, seed + 40)
            assert finite_diff_check("total", clip, {"bb_weight": 0.1}) < TOL

    def test_linearity_in_bb_weight(self):
        clip = kink_free_clip(5, 4, 50)
        g0 = grad_total(clip, bb_weight=0.0)
        g1 = grad_total(clip, bb_weight=1.0)
        gh = grad_total(clip, bb_weight=0.5)
        assert np.allclose(gh.frames, 0.5 * (g0.frames + g1.frames))

    def test_zero_weight_equals_vlo(self):
        clip = kink_free_clip(5, 4, 51)
        assert np.array_equal(grad_total(clip, bb_weight=0.0).frames, grad_vlo(clip).frames)


class TestGradTnce:
    @pytest.mark.parametrize(
        "cfg",
        [
            TnceConfig("last-frame", "other-frames", "direct-sim"),
            TnceConfig("future-frame", "other-frames", "direct-sim"),
            TnceConfig("future-frame", "farther-frames", "difference-score"),
            TnceConfig("vlo-pair", "other-frames", "difference-score"),
        ],
        ids=["last-frame", "future-direct", "future-diff", "vlo-other"],
    )
    def test_finite_difference_agreement(self, cfg):
        clip = kink_free_clip(5, 4, 60)
        assert finite_diff_check("tnce", clip, {"config": cfg}) < 1e-4

    def test_vlo_pair_matches_grad_vlo(self):
        clip = kink_free_clip(5, 4, 61)
        cfg = TnceConfig("vlo-pair", "farther-frames", "difference-score", temperature=0.8)
        a = grad_tnce(clip, cfg)
        b = grad_vlo(clip, 0.8)
        assert np.allclose(a.frames, b.frames, atol=1e-12)
        assert np.allclose(a.language, b.language, atol=1e-12)


class TestFiniteDiffCheck:
    def test_bad_loss_name(self):
        clip = kink_free_clip(3, 3, 70)
        with pytest.raises(ValueError):
            finite_diff_check("nope", clip)

    @pytest.mark.parametrize(
        "loss, params",
        [
            ("total", {"bb_wieght": 1.0}),
            ("vlo", {"intervals": [BridgeInterval(0, 2)]}),
            ("vlo", {"bb_weight": 0.1}),
            ("bb", {"temperature": 0.5}),
            ("tnce", {"config": TnceConfig(), "temperature": 0.5}),
        ],
        ids=["total-misspelt", "vlo-intervals", "vlo-bb_weight", "bb-temperature",
             "tnce-temperature"],
    )
    def test_unread_param_rejected(self, loss, params):
        # the loss would run with its default instead, to an error of ~1e-9
        clip = kink_free_clip(3, 3, 72)
        unread = [key for key in params if key != "config"]
        with pytest.raises(ValueError, match=re.escape(f"{loss} loss takes no param(s) {unread}")):
            finite_diff_check(loss, clip, params)

    @pytest.mark.parametrize("step", [np.nan, np.inf, -np.inf, 0.0, -1, True])
    def test_bad_step(self, monkeypatch, step):
        # rejected before the objective is built or the kernel runs
        clip = kink_free_clip(3, 3, 71)
        kernel = mock.Mock(wraps=losses._suffix_softmax)
        monkeypatch.setattr(losses, "_suffix_softmax", kernel)
        with pytest.raises(ValueError, match="^step must be finite and positive"):
            finite_diff_check("vlo", clip, step=step)
        assert kernel.call_count == 0

    @staticmethod
    def _patch(monkeypatch, corrupt):
        """Route the analytic gradient of every check through corrupt, which
        maps one clip's GradientSet to another."""
        from actol import gradients as gr

        original = gr.objective_and_grad

        def patched(*args, **kwargs):
            value, bb, frames, language, at_kink = original(*args, **kwargs)
            g = corrupt(GradientSet(frames[0], language[0], bool(at_kink[0])))
            return value, bb, g.frames[None], g.language[None], at_kink

        monkeypatch.setattr(gr, "objective_and_grad", patched)

    def test_detects_wrong_gradient(self, monkeypatch):
        # sanity: the oracle is not vacuous — a corrupted analytic gradient
        # must produce a large reported error
        clip = kink_free_clip(4, 3, 72)

        def doubled(g):
            return GradientSet(2.0 * g.frames, 2.0 * g.language, g.at_kink)

        assert self._check_with(monkeypatch, clip, doubled) > 0.1

    @classmethod
    def _check_with(cls, monkeypatch, clip, corrupt):
        cls._patch(monkeypatch, corrupt)
        return finite_diff_check("vlo", clip)

    def test_detects_slightly_scaled_gradient(self, monkeypatch):
        # the error floor scales with the gradient's max-norm; a uniform
        # 1e-4 relative error must still exceed the 1e-5 threshold
        clip = kink_free_clip(5, 4, 73)

        def corrupt(g):
            return GradientSet((1 + 1e-4) * g.frames, (1 + 1e-4) * g.language, g.at_kink)

        assert self._check_with(monkeypatch, clip, corrupt) > TOL

    def test_detects_one_corrupted_component(self, monkeypatch):
        clip = kink_free_clip(5, 4, 74)

        def corrupt(g):
            frames = g.frames.copy()
            frames[2, 1] += 1e-3 * np.abs(g.frames).max()
            return GradientSet(frames, g.language, g.at_kink)

        assert self._check_with(monkeypatch, clip, corrupt) > TOL

    def test_analytic_gradient_computed_once(self, monkeypatch):
        calls = []
        self._patch(monkeypatch, lambda g: calls.append(1) or g)
        assert finite_diff_check("vlo", kink_free_clip(4, 3, 75)) < TOL
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "loss, params",
        [
            ("vlo", None),
            ("total", None),
            ("tnce", {"config": TnceConfig("last-frame", "other-frames", "direct-sim")}),
        ],
    )
    def test_tie_groups_built_once(self, monkeypatch, loss, params):
        calls = []
        original = TieGroups.of.__func__

        def counting(cls, *args, **kwargs):
            calls.append(1)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(TieGroups, "of", classmethod(counting))
        assert finite_diff_check(loss, kink_free_clip(5, 4, 76), params) < TOL
        # one build, shared by the analytic gradient and every perturbed point
        assert len(calls) == 1

    @pytest.mark.parametrize("loss", ["vlo", "bb", "total"])
    def test_no_clip_built_per_perturbed_point(self, monkeypatch, loss):
        calls = []
        original = ClipSequence.__post_init__
        monkeypatch.setattr(ClipSequence, "__post_init__", lambda c: calls.append(1) or original(c))
        clip = kink_free_clip(5, 4, 77)
        calls.clear()
        assert finite_diff_check(loss, clip) < TOL
        assert calls == []

    @pytest.mark.parametrize("loss, calls", [("vlo", 2), ("total", 2), ("bb", 0)])
    def test_one_kernel_call_per_check_at_readme_size(self, monkeypatch, loss, calls):
        # T=6, d=5: the 70 perturbed points of 36 scores each fit one
        # BLOCK_SCORES stack; the other call is the analytic gradient's
        kernel = mock.Mock(wraps=losses._suffix_softmax)
        monkeypatch.setattr(losses, "_suffix_softmax", kernel)
        assert finite_diff_check(loss, kink_free_clip(6, 5, 79)) < TOL
        assert kernel.call_count == calls

    @pytest.mark.parametrize("vectors", [1, 2, 3, 4, 6, 7])
    def test_stack_size_changes_nothing(self, monkeypatch, vectors):
        # one vector's 2d points hold 2 * 5 * 36 = 360 scores at T=6, d=5;
        # the language rides in a stack of its own or with frames
        clip = kink_free_clip(6, 5, 80)
        expected = [finite_diff_check(loss, clip) for loss in ("vlo", "total")]
        monkeypatch.setattr(losses, "BLOCK_SCORES", 360 * vectors)
        kernel = mock.Mock(wraps=losses._suffix_softmax)
        monkeypatch.setattr(losses, "_suffix_softmax", kernel)
        assert [finite_diff_check(loss, clip) for loss in ("vlo", "total")] == expected
        assert kernel.call_count == 2 * (1 + -(-7 // vectors))

    def test_memory_stays_per_frame(self):
        # one frame's perturbed points are stacked at a time; a stack of all
        # 2 (T + 1) d of them would hold about 70 MB of scores at T=64, d=16
        clip = random_clip(64, 16, np.random.default_rng(78))
        tracemalloc.start()
        try:
            finite_diff_check("total", clip)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


BB_WEIGHT_ENTRY_POINTS = {
    "TrainConfig": lambda clip, w: TrainConfig(bb_weight=w),
    "actol_loss": lambda clip, w: actol_loss(clip, bb_weight=w),
    "grad_total": lambda clip, w: grad_total(clip, bb_weight=w),
    "finite_diff_check": lambda clip, w: finite_diff_check("total", clip, {"bb_weight": w}),
}


@pytest.mark.parametrize("entry", sorted(BB_WEIGHT_ENTRY_POINTS))
@pytest.mark.parametrize(
    "weight", [np.nan, np.inf, -np.inf, -1.0, True, False, "0.1", None],
    ids=["nan", "inf", "-inf", "negative", "true", "false", "string", "none"],
)
def test_bad_bb_weight_rejected_everywhere(entry, weight):
    # each would otherwise give a NaN or infinite total, or train on it
    clip = kink_free_clip(4, 3, 80)
    with pytest.raises(ValueError, match="^bb_weight must be a finite non-negative number"):
        BB_WEIGHT_ENTRY_POINTS[entry](clip, weight)
