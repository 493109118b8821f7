import numpy as np
import pytest

from actol import (
    BridgeInterval,
    ClipSequence,
    GradientSet,
    TnceConfig,
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

    def test_bad_step(self):
        clip = kink_free_clip(3, 3, 71)
        with pytest.raises(ValueError):
            finite_diff_check("vlo", clip, step=0.0)

    def test_detects_wrong_gradient(self):
        # sanity: the oracle is not vacuous — a corrupted analytic gradient
        # must produce a large reported error
        from actol import gradients as gr

        clip = kink_free_clip(4, 3, 72)
        original = gr.grad_vlo

        def doubled(c, t=1.0):
            g = original(c, t)
            return GradientSet(2.0 * g.frames, 2.0 * g.language, g.at_kink)

        try:
            gr.grad_vlo = doubled
            err = finite_diff_check("vlo", clip)
        finally:
            gr.grad_vlo = original
        assert err > 0.1

    @staticmethod
    def _check_with(monkeypatch, clip, corrupt):
        from actol import gradients as gr

        original = gr.grad_vlo
        monkeypatch.setattr(gr, "grad_vlo", lambda c, t=1.0: corrupt(original(c, t)))
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
        from actol import gradients as gr

        calls = []
        original = gr.grad_vlo
        monkeypatch.setattr(gr, "grad_vlo", lambda c, t=1.0: calls.append(1) or original(c, t))
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
        # one build for the analytic gradient, one shared by every perturbed point
        assert len(calls) == 2
