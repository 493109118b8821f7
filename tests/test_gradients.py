import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import actol.gradients as gradients
import actol.losses as losses
from actol import (
    BridgeInterval,
    ClipSequence,
    GradientSet,
    TnceConfig,
    TrainConfig,
    actol_loss,
    bb_loss,
    finite_diff_check,
    grad_bb,
    grad_tnce,
    grad_total,
    grad_vlo,
    random_clip,
)
from actol.cli import _sample_away_from_kinks
from actol.losses import Bridge, TieGroups

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

    @pytest.mark.parametrize(
        "params", [None, {"config": None}, {"config": "vlo-pair"}, {"config": {}}],
        ids=["missing", "none", "string", "dict"],
    )
    def test_tnce_needs_a_config(self, params):
        # a missing config raised KeyError, None a ValueError about config tuples
        clip = kink_free_clip(3, 3, 72)
        with pytest.raises(ValueError, match="^tnce loss needs param 'config', a TnceConfig"):
            finite_diff_check("tnce", clip, params)

    @pytest.mark.parametrize("step", [np.nan, np.inf, -np.inf, 0.0, -1, True])
    def test_bad_step(self, monkeypatch, step):
        # rejected before the objective is built or the kernel runs
        clip = kink_free_clip(3, 3, 71)
        kernel = mock.Mock(wraps=losses._sorted_softmax)
        monkeypatch.setattr(losses, "_sorted_softmax", kernel)
        monkeypatch.setattr(gradients, "_sorted_softmax", kernel)
        with pytest.raises(ValueError, match="^step must be finite and positive"):
            finite_diff_check("vlo", clip, step=step)
        assert kernel.call_count == 0

    @staticmethod
    def _patch(monkeypatch, corrupt):
        """Route the analytic gradient of every check through corrupt, which
        maps one clip's GradientSet to another. The oracle takes it for a
        (1, N, T, d) stack of clips, here N = 1."""
        from actol import gradients as gr

        original = gr.objective_and_grad

        def patched(*args, **kwargs):
            value, bb, frames, language, at_kink = original(*args, **kwargs)
            g = corrupt(GradientSet(frames[0, 0], language[0, 0], bool(at_kink[0, 0])))
            return value, bb, g.frames[None, None], g.language[None, None], at_kink

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
        kernel = mock.Mock(wraps=losses._sorted_softmax)
        monkeypatch.setattr(losses, "_sorted_softmax", kernel)
        monkeypatch.setattr(gradients, "_sorted_softmax", kernel)
        assert finite_diff_check(loss, kink_free_clip(6, 5, 79)) < TOL
        assert kernel.call_count == calls

    @pytest.mark.parametrize("clips", [1, 2, 3, 4, 6, 7])
    def test_stack_size_changes_nothing(self, monkeypatch, clips):
        # one clip's 2 * 8 perturbed points hold 2 * 8 * 36 = 576 scores at
        # T=6; a budget of that many clips' points cuts a stack of 7 into blocks
        stack = [kink_free_clip(6, 5, 80 + k) for k in range(7)]
        expected = [[finite_diff_check(loss, clip) for clip in stack] for loss in ("vlo", "total")]
        monkeypatch.setattr(losses, "BLOCK_SCORES", 576 * clips)
        kernel = mock.Mock(wraps=losses._sorted_softmax)
        monkeypatch.setattr(losses, "_sorted_softmax", kernel)
        monkeypatch.setattr(gradients, "_sorted_softmax", kernel)
        errors = [gradients._finite_diff_errors(loss, stack).tolist() for loss in ("vlo", "total")]
        assert errors == expected
        assert kernel.call_count == 2 * 2 * -(-7 // clips)  # per loss and block: 2 calls

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


def _one_component(frames, language, no_bridge):
    frames = frames.copy()
    frames[..., 2, 1] += 1e-3 * np.abs(frames).max(axis=(-2, -1))
    return frames, language


def _frame_flipped(frames, language, no_bridge):
    frames = frames.copy()
    frames[..., 1, :] *= -1
    return frames, language


# Seeded bugs in the analytic gradient of `total`: each maps the (1, N, T, d)
# frame and (1, N, d) language gradients of objective_and_grad, given the
# frame gradient of the same call without its bridge, to wrong ones
MUTATIONS = {
    "doubled": lambda frames, language, no_bridge: (2 * frames, 2 * language),
    "scaled-1e-4": lambda frames, language, no_bridge: ((1 + 1e-4) * frames,
                                                        (1 + 1e-4) * language),
    "one-component": _one_component,
    "frame-sign-flipped": _frame_flipped,
    "language-dropped": lambda frames, language, no_bridge: (frames, np.zeros_like(language)),
    "bridge-dropped": lambda frames, language, no_bridge: (no_bridge, language),
}


@pytest.mark.parametrize("mutation", list(MUTATIONS))
@pytest.mark.parametrize("T, d, step", [(6, 5, 1e-5), (40, 12, 1e-5), (128, 8, 1e-6)],
                         ids=["T6", "T40", "T128"])
def test_seeded_bug_fails_on_every_clip(monkeypatch, T, d, step, mutation):
    # the clips of a gradcheck run: correct gradients pass, and each bug
    # fails on every clip, not only on the worst one
    rng = np.random.default_rng(2)
    clips = [_sample_away_from_kinks(rng, T, d, step) for _ in range(3)]
    assert gradients._finite_diff_errors("total", clips, step=step).max() < gradients.PASS_ERROR
    original = gradients.objective_and_grad

    def mutated(emb, lang, c, bridge=None, bb_weight=0.0, need_language=True):
        value, bb, frames, language, at_kink = original(emb, lang, c, bridge, bb_weight)
        no_bridge = original(emb, lang, c)[2]
        frames, language = MUTATIONS[mutation](frames, language, no_bridge)
        return value, bb, frames, language, at_kink

    monkeypatch.setattr(gradients, "objective_and_grad", mutated)
    assert gradients._finite_diff_errors("total", clips, step=step).min() > gradients.PASS_ERROR


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


BAD_INTERVALS = {  # each entry point with a bad interval list, then a bad interval
    "actol_loss": lambda clip, ivs: actol_loss(clip, intervals=ivs),
    "grad_total": lambda clip, ivs: grad_total(clip, intervals=ivs),
    "finite_diff_check-total": lambda clip, ivs: finite_diff_check("total", clip,
                                                                   {"intervals": ivs}),
    "Bridge.of": lambda clip, ivs: Bridge.of(clip.timestamps, ivs),
}
BAD_INTERVAL = {
    "bb_loss": lambda clip, iv: bb_loss(clip, iv),
    "grad_bb": lambda clip, iv: grad_bb(clip, iv),
    "finite_diff_check-bb": lambda clip, iv: finite_diff_check("bb", clip, {"interval": iv}),
}


@pytest.mark.parametrize(
    "call, value",
    [(BAD_INTERVALS[e], v) for e in BAD_INTERVALS
     for v in (3, [(0, 2)], "ab", {BridgeInterval(0, 2)})]
    + [(BAD_INTERVAL[e], v) for e in BAD_INTERVAL for v in (3, (0, 2), [0, 2], "ab")],
    ids=[f"{e}-{kind}" for e in BAD_INTERVALS for kind in ("int", "tuples", "string", "set")]
    + [f"{e}-{kind}" for e in BAD_INTERVAL for kind in ("int", "tuple", "list", "string")],
)
def test_bad_intervals_rejected_everywhere(call, value):
    # each raised TypeError or AttributeError from inside Bridge.of; a set ran
    with pytest.raises(ValueError, match="^intervals must be a list of BridgeInterval"):
        call(kink_free_clip(4, 3, 81), value)


@pytest.mark.parametrize(
    "empty", [[], (), np.empty((0, 2), dtype=int)], ids=["list", "tuple", "array"]
)
@pytest.mark.parametrize("call", list(BAD_INTERVALS.values()), ids=list(BAD_INTERVALS))
def test_empty_intervals_rejected_everywhere(call, empty):
    # a mean over no intervals is undefined; actol_loss returned bb = 0.0
    with pytest.raises(ValueError, match="^intervals must hold at least one interval$"):
        call(kink_free_clip(4, 3, 81), empty)
