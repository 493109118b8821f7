"""Property tests: the sorted-suffix kernel, the TieGroups-based
distance-level queries and the Bridge operator against the loop references
in naive.py, for every selector combination, on tied and untied
timestamps; and the symmetries every objective has by construction
(rotating the embedding space, shifting or scaling time)."""

import naive
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actol import (
    BridgeInterval,
    ClipSequence,
    TnceConfig,
    actol_loss,
    bb_loss,
    grad_bb,
    lower_bound,
    tnce_loss,
    vlo_loss,
    vlo_loss_on_scores,
)
from actol.gradients import grad_vlo, tnce_and_grad, total_and_grad
from actol.losses import Bridge, TieGroups, _contrastive_terms, negative_set
from actol.trainer import measure_delta

COMBOS = [
    TnceConfig(p, n, s)
    for p in ("vlo-pair", "last-frame", "future-frame")
    for n in ("farther-frames", "other-frames")
    for s in ("difference-score", "direct-sim")
    if not (p == "vlo-pair" and s == "direct-sim")
]


def _ap_free(n):
    # binary digits read in base 3: no three such numbers are in arithmetic
    # progression, so no two frames are equally far from a third
    return int(bin(n)[2:], 3)


@st.composite
def timestamps(draw, max_T=64):
    T = draw(st.integers(2, max_T))
    kind = draw(st.sampled_from(["uniform", "small-gaps", "untied"]))
    if kind == "uniform":
        return tuple(range(0, 3 * T, 3))
    if kind == "small-gaps":
        gaps = draw(st.lists(st.integers(1, 3), min_size=T - 1, max_size=T - 1))
        return tuple(int(t) for t in np.concatenate([[0], np.cumsum(gaps)]))
    picks = draw(st.sets(st.integers(0, 127), min_size=T, max_size=T))
    return tuple(_ap_free(n) for n in sorted(picks))


@st.composite
def clips(draw, max_T=64):
    ts = draw(timestamps(max_T))
    d = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    emb = rng.standard_normal((len(ts), d))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    lang = rng.standard_normal(d)
    return ClipSequence(ts, emb, lang / np.linalg.norm(lang))


temperatures = st.sampled_from([0.1, 0.5, 1.0, 3.0])
# derandomized so that every run of the suite checks the same examples
examples = settings(max_examples=60, deadline=None, derandomize=True)


def assert_grad_close(actual, expected, n_terms, tau, rel=1e-12):
    """Elementwise agreement to rel, with an absolute floor of rel times one
    term's gradient scale 1/(n_terms * tau): an entry that cancels to near
    zero keeps the round-off of the terms it sums."""
    np.testing.assert_allclose(actual, expected, rtol=rel, atol=rel / (n_terms * tau))


def test_untied_timestamps_have_distinct_distances():
    ts = [_ap_free(n) for n in range(64)]
    groups = TieGroups.of(ts)
    assert np.all(groups.sizes() == 1)


@examples
@given(clip=clips(), tau=temperatures)
def test_vlo_value_matches_reference(clip, tau):
    s = clip.similarities()
    R = -np.abs(s[:, None] - s[None, :])
    expected = naive.ordered_pair_loss(clip.timestamps, R, tau)
    assert vlo_loss(clip, tau) == pytest.approx(expected, rel=1e-12, abs=1e-15)
    on_scores = vlo_loss_on_scores(clip.timestamps, R, tau)
    assert on_scores == pytest.approx(expected, rel=1e-12, abs=1e-15)


@examples
@given(clip=clips(), tau=temperatures)
def test_vlo_score_gradient_matches_reference(clip, tau):
    _, G, s = _contrastive_terms(clip, TnceConfig(temperature=tau), None, need_grad=True)
    R = -np.abs(s[:, None] - s[None, :])
    T = clip.T
    assert_grad_close(G, naive.pair_weight_matrix(clip.timestamps, R, tau), T * (T - 1), tau)


@examples
@given(clip=clips(), cfg=st.sampled_from(COMBOS), tau=temperatures)
def test_tnce_matches_reference(clip, cfg, tau):
    cfg = TnceConfig(cfg.positive_selector, cfg.negative_selector, cfg.score, tau)
    value, G, s = _contrastive_terms(clip, cfg, None, need_grad=True)
    g_s, G_pairs = naive.tnce_score_grads(clip.timestamps, s, cfg)
    expected = naive.tnce_loss(clip.timestamps, s, cfg)
    assert value == pytest.approx(expected, rel=1e-12, abs=1e-15)
    assert tnce_loss(clip, cfg) == value
    n_terms = len(naive.tnce_terms(clip.timestamps, cfg))
    if cfg.score == "direct-sim":
        assert_grad_close(G.sum(axis=0), g_s, n_terms, tau)
    else:
        assert_grad_close(G, G_pairs, n_terms, tau)


@examples
@given(clip=clips(), tau=temperatures)
def test_vlo_at_least_lower_bound(clip, tau):
    lb = lower_bound(clip)
    assert lb == pytest.approx(naive.lower_bound(clip.timestamps), rel=1e-12, abs=1e-15)
    assert vlo_loss(clip, tau) >= lb


@settings(examples, max_examples=30)
@given(clip=clips(max_T=24), cfg=st.sampled_from(COMBOS))
def test_supplied_groups_change_nothing(clip, cfg):
    groups = TieGroups.of(clip.timestamps, cfg.negative_selector)
    value, grads = tnce_and_grad(clip, cfg, groups)
    value2, grads2 = tnce_and_grad(clip, cfg)
    assert value == value2 == tnce_loss(clip, cfg)
    assert np.array_equal(grads.frames, grads2.frames)
    assert np.array_equal(grads.language, grads2.language)


@st.composite
def ordering_clips(draw):
    """Clips of 3 to 8 frames (T = 2 has no triples), uniform or with gaps
    of 1-3, whose similarities either rise with time plus noise, so that
    many satisfy the ordering property, or are random."""
    T = draw(st.integers(3, 8))
    uniform = st.just([1] * (T - 1))
    gaps = draw(uniform | st.lists(st.integers(1, 3), min_size=T - 1, max_size=T - 1))
    ts = np.concatenate([[0], np.cumsum(gaps)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        noise = draw(st.sampled_from([0.0, 1e-4, 1e-2]))
        s = np.clip(1.8 * ts / ts[-1] - 0.9 + noise * rng.standard_normal(T), -0.99, 0.99)
        emb = np.stack([s, np.sqrt(1 - s * s)], axis=1)
        return ClipSequence(ts, emb, np.array([1.0, 0.0]))
    emb = rng.standard_normal((T, 3))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    return ClipSequence(ts, emb, rng.standard_normal(3))


@settings(examples, max_examples=200)
@given(clip=ordering_clips(), tau=st.sampled_from([1.0, 0.1, 0.01, 1e-3]))
def test_measure_delta_matches_reference(clip, tau):
    with np.errstate(over="ignore"):  # the reference divides by a subnormal candidate
        expected = naive.measure_delta(clip, tau)
    delta = measure_delta(clip, tau)
    assert delta == expected
    assert type(delta) is type(expected)


@settings(examples, max_examples=30)
@given(clip=clips(max_T=24))
def test_negative_set_matches_reference(clip):
    for i in range(clip.T):
        for j in range(clip.T):
            if i != j:
                assert negative_set(clip, i, j) == naive.negative_set(clip.timestamps, i, j)


@st.composite
def bridge_cases(draw):
    """A clip and 1-4 bridge intervals, which may overlap, repeat an earlier
    one or have no interior frame (end = start + 1)."""
    clip = draw(clips(max_T=24))
    intervals = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["any", "no-interior", "repeat"]))
        if kind == "repeat" and intervals:
            intervals.append(draw(st.sampled_from(intervals)))
            continue
        start = draw(st.integers(0, clip.T - 2))
        end = start + 1 if kind == "no-interior" else draw(st.integers(start + 1, clip.T - 1))
        intervals.append(BridgeInterval(start, end))
    return clip, intervals


def assert_close(actual, expected, rel=1e-12):
    """Elementwise agreement to rel, with an absolute floor of rel times the
    largest expected entry, for entries that cancel to near zero."""
    np.testing.assert_allclose(actual, expected, rtol=rel, atol=rel * np.abs(expected).max())


@examples
@given(case=bridge_cases())
def test_bridge_matches_reference(case):
    clip, intervals = case
    expected, expected_grad = naive.mean_bb(clip, intervals)
    value, grad = Bridge.of(clip.timestamps, intervals).penalty(clip.embeddings, need_grad=True)
    assert value == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert_close(grad, expected_grad)
    assert actol_loss(clip, intervals=intervals).bb == value
    _, bb, grads = total_and_grad(clip, 0.5, 1.0, intervals)
    assert bb == value
    assert_close(grads.frames, grad_vlo(clip).frames + 0.5 * expected_grad)
    for iv in intervals:
        assert bb_loss(clip, iv) == pytest.approx(naive.bb_loss(clip, iv), rel=1e-12, abs=0.0)
        assert_close(grad_bb(clip, iv).frames, naive.grad_bb(clip, iv))


def _objectives(clip, intervals, cfg):
    """Every objective on one clip: the actol breakdown, the bridge penalty
    and its gradient, the tnce value, and the gradients of both losses."""
    breakdown = actol_loss(clip, intervals=intervals)
    bb, bb_grad = Bridge.of(clip.timestamps, intervals).penalty(clip.embeddings, need_grad=True)
    tnce, tnce_grads = tnce_and_grad(clip, cfg)
    _, _, total_grads = total_and_grad(clip, 0.1, 1.0, intervals)
    return breakdown, bb, bb_grad, tnce, tnce_grads, total_grads


@examples
@given(case=bridge_cases(), cfg=st.sampled_from(COMBOS), seed=st.integers(0, 2**32 - 1))
def test_rotation_invariance(case, cfg, seed):
    """Rotating every embedding and the language by one orthogonal Q keeps
    every cosine, so every loss; every gradient rotates with them."""
    clip, intervals = case
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((clip.d, clip.d)))
    Q = q * np.sign(np.diag(r))
    rotated = ClipSequence(clip.timestamps, clip.embeddings @ Q.T, Q @ clip.language)
    a, bb_a, bb_grad_a, tnce_a, tnce_grads_a, total_a = _objectives(clip, intervals, cfg)
    b, bb_b, bb_grad_b, tnce_b, tnce_grads_b, total_b = _objectives(rotated, intervals, cfg)
    assert b.vlo == pytest.approx(a.vlo, rel=1e-12)
    assert b.bb == pytest.approx(a.bb, rel=1e-12) and bb_b == pytest.approx(bb_a, rel=1e-12)
    assert b.lower_bound == a.lower_bound
    assert tnce_b == pytest.approx(tnce_a, rel=1e-12)
    assert_close(bb_grad_b, bb_grad_a @ Q.T)
    for g_a, g_b in ((tnce_grads_a, tnce_grads_b), (total_a, total_b)):
        assert_close(g_b.frames, g_a.frames @ Q.T)
        assert_close(g_b.language, Q @ g_a.language)


def _retimed(clip, timestamps):
    return ClipSequence(timestamps, clip.embeddings, clip.language)


@examples
@given(case=bridge_cases(), cfg=st.sampled_from(COMBOS), shift=st.integers(1, 1000))
def test_time_shift_invariance(case, cfg, shift):
    """Every objective depends on time differences only."""
    clip, intervals = case
    moved = _retimed(clip, tuple(t + shift for t in clip.timestamps))
    for rule in ("farther-frames", "other-frames"):
        g_a, g_b = TieGroups.of(clip.timestamps, rule), TieGroups.of(moved.timestamps, rule)
        for field in ("order", "distances", "start", "end"):
            assert np.array_equal(getattr(g_a, field), getattr(g_b, field))
    a, bb_a, bb_grad_a, tnce_a, tnce_grads_a, total_a = _objectives(clip, intervals, cfg)
    b, bb_b, bb_grad_b, tnce_b, tnce_grads_b, total_b = _objectives(moved, intervals, cfg)
    for x, y in ((a.vlo, b.vlo), (a.bb, b.bb), (bb_a, bb_b), (tnce_a, tnce_b)):
        assert y == pytest.approx(x, rel=1e-12)
    assert b.lower_bound == a.lower_bound
    assert_close(bb_grad_b, bb_grad_a)
    for g_a, g_b in ((tnce_grads_a, tnce_grads_b), (total_a, total_b)):
        assert_close(g_b.frames, g_a.frames)
        assert_close(g_b.language, g_a.language)


@examples
@given(case=bridge_cases(), cfg=st.sampled_from(COMBOS), k=st.integers(2, 5))
def test_time_scale(case, cfg, k):
    """Scaling time by k keeps the order of distances, so every contrastive
    loss and the lower bound; the bridge variance grows by k, so the
    penalty and its gradient shrink by k."""
    clip, intervals = case
    scaled = _retimed(clip, tuple(k * t for t in clip.timestamps))
    g_a, g_b = TieGroups.of(clip.timestamps), TieGroups.of(scaled.timestamps)
    for field in ("order", "start", "end"):
        assert np.array_equal(getattr(g_a, field), getattr(g_b, field))
    assert np.array_equal(g_b.distances, k * g_a.distances)
    a, bb_a, bb_grad_a, tnce_a, tnce_grads_a, _ = _objectives(clip, intervals, cfg)
    b, bb_b, bb_grad_b, tnce_b, tnce_grads_b, _ = _objectives(scaled, intervals, cfg)
    assert b.vlo == pytest.approx(a.vlo, rel=1e-12)
    assert b.lower_bound == pytest.approx(a.lower_bound, rel=1e-12)
    assert tnce_b == pytest.approx(tnce_a, rel=1e-12)
    assert b.bb == pytest.approx(a.bb / k, rel=1e-12) and bb_b == pytest.approx(bb_a / k, rel=1e-12)
    assert_close(bb_grad_b, bb_grad_a / k)
    assert_close(tnce_grads_b.frames, tnce_grads_a.frames)
