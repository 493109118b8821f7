"""Property tests: the sorted-suffix kernel on both sides of its range
guard, the TieGroups-based distance-level queries, the Bridge operator
and the finite-difference oracle against the loop references in
naive.py, for every selector combination, on tied and untied
timestamps; batch rows against single rows; and the symmetries every
objective has by construction (rotating the embedding space, shifting or
scaling time)."""

from dataclasses import replace
from unittest import mock

import naive
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import actol.gradients as gradients
import actol.losses as losses
from actol import (
    BridgeInterval,
    ClipSequence,
    TnceConfig,
    actol_loss,
    bb_loss,
    finite_diff_check,
    grad_bb,
    lower_bound,
    random_clip,
    tnce_loss,
    vlo_loss,
    vlo_loss_on_scores,
)
from actol.gradients import grad_tnce, grad_total, grad_vlo, objective_and_grad
from actol.losses import (
    Bridge,
    Contrast,
    TieGroups,
    _contrastive_terms,
    _suffix_softmax,
)
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
def timestamps(draw, max_T=64, T=None):
    T = T or draw(st.integers(2, max_T))
    kind = draw(st.sampled_from(["uniform", "small-gaps", "untied"]))
    if kind == "uniform":
        return tuple(range(0, 3 * T, 3))
    if kind == "small-gaps":
        gaps = draw(st.lists(st.integers(1, 3), min_size=T - 1, max_size=T - 1))
        return tuple(int(t) for t in np.concatenate([[0], np.cumsum(gaps)]))
    picks = draw(st.sets(st.integers(0, 127), min_size=T, max_size=T))
    return tuple(_ap_free(n) for n in sorted(picks))


@st.composite
def clips(draw, max_T=64, T=None, d=None):
    ts = draw(timestamps(max_T, T))
    d = d or draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    emb = rng.standard_normal((len(ts), d))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    lang = rng.standard_normal(d)
    return ClipSequence(ts, emb, lang / np.linalg.norm(lang))


# 1e-3 is below the kernel's range guard (2 / tau + log T >= EXP_RANGE), the
# others above it; listed last, it is drawn least often
temperatures = st.sampled_from([0.1, 0.5, 1.0, 3.0, 1e-3])
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
    c = Contrast.of(clip.timestamps, TnceConfig(temperature=tau))
    _, (G,), (s,) = _contrastive_terms(clip.embeddings[None], clip.language[None], c, True)[:3]
    R = -np.abs(s[:, None] - s[None, :])
    T = clip.T
    assert_grad_close(G, naive.pair_weight_matrix(clip.timestamps, R, tau), T * (T - 1), tau)


@examples
@given(clip=clips(), cfg=st.sampled_from(COMBOS), tau=temperatures)
def test_tnce_matches_reference(clip, cfg, tau):
    cfg = TnceConfig(cfg.positive_selector, cfg.negative_selector, cfg.score, tau)
    c = Contrast.of(clip.timestamps, cfg)
    terms = _contrastive_terms(clip.embeddings[None], clip.language[None], c, True)
    (value,), (G,), (s,) = terms[:3]
    g_s, G_pairs = naive.tnce_score_grads(clip.timestamps, s, cfg)
    expected = naive.tnce_loss(clip.timestamps, s, cfg)
    assert value == pytest.approx(expected, rel=1e-12, abs=1e-15)
    assert tnce_loss(clip, cfg) == value
    n_terms = len(naive.tnce_terms(clip.timestamps, cfg))
    if cfg.score == "direct-sim":
        assert_grad_close(G.sum(axis=0), g_s, n_terms, tau)
    else:
        assert_grad_close(G, G_pairs, n_terms, tau)


@settings(examples, max_examples=10)
@given(ts=timestamps(), tau=temperatures, seed=st.integers(0, 2**32 - 1))
def test_batch_rows_round_like_single_rows(ts, tau, seed):
    """Each (T, T) slice of a (B, T, T) stack gets bit for bit the value and
    gradient it gets alone, for every selector combination and batch size."""
    rng = np.random.default_rng(seed)
    for cfg in COMBOS:
        c = Contrast.of(ts, replace(cfg, temperature=tau))
        for B in (2, 3, 70):
            rows = rng.standard_normal((B, len(ts), len(ts)))
            values, G = _suffix_softmax(rows, c, True)
            for b in range(B):
                (value,), (G_b,) = _suffix_softmax(rows[b : b + 1], c, True)
                assert values[b] == value
                assert np.array_equal(G[b], G_b)


@settings(examples, max_examples=15)
@given(T=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
def test_stack_rows_round_like_single_rows(T, seed):
    """A Contrast of an (N, T) stack of timestamp rows gives every row bit
    for bit the values, G and lower bound of that row's own Contrast, for
    every selector combination, above and below the range guard."""
    rng = np.random.default_rng(seed)
    for N in (1, 3, 7):
        gaps = rng.integers(1, 4, (N, T - 1))  # tied and uneven distances
        stack = np.concatenate([np.zeros((N, 1), dtype=int), np.cumsum(gaps, axis=1)], axis=1)
        bounds = TieGroups.of(stack).lower_bound()
        assert bounds.shape == (N,)
        assert all(bounds[n] == TieGroups.of(stack[n]).lower_bound() for n in range(N))
        for cfg in COMBOS:
            for tau in (0.5, 1e-3):
                c = Contrast.of(stack, replace(cfg, temperature=tau))
                rows = rng.uniform(-1.0, 1.0, (1, N, T, T))  # a cosine score's range
                values, G = _suffix_softmax(rows, c, True)
                for n in range(N):
                    alone = Contrast.of(stack[n], c.cfg)
                    assert alone.n_terms == c.n_terms
                    (value,), (G_n,) = _suffix_softmax(rows[:, n], alone, True)
                    assert values[0, n] == value
                    assert np.array_equal(G[0, n], G_n)


@settings(examples, max_examples=15)
@given(T=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
def test_score_gradient_diagonal_is_zero(T, seed):
    """G[..., i, i] is exactly 0 for every selector combination, for one
    timestamp row and for an (N, T) stack: the kernel never addresses an
    anchor's own score, so objective_and_grad's kink test needs no mask."""
    rng = np.random.default_rng(seed)
    gaps = rng.integers(1, 4, (3, T - 1))
    stack = np.concatenate([np.zeros((3, 1), dtype=int), np.cumsum(gaps, axis=1)], axis=1)
    for cfg in COMBOS:
        for ts, rows in ((stack[0], rng.uniform(-1.0, 1.0, (2, T, T))),
                         (stack, rng.uniform(-1.0, 1.0, (2, 3, T, T)))):
            _, G = _suffix_softmax(rows, Contrast.of(ts, cfg), True)
            assert np.all(np.diagonal(G, axis1=-2, axis2=-1) == 0.0)


@settings(examples, max_examples=20)
@given(ts=timestamps(), tau=st.sampled_from([1e-3, 2e-3]), seed=st.integers(0, 2**32 - 1))
def test_below_guard_runs_log_space_kernel(ts, tau, seed):
    """Below the range guard the kernel is bit for bit the log-space one,
    also on clips where it and the loop reference both lose the rel 1e-12
    agreement to cancellation."""
    rng = np.random.default_rng(seed)
    for cfg in COMBOS:
        c = Contrast.of(ts, replace(cfg, temperature=tau))
        for B in (1, 3):
            rows = rng.uniform(-1.0, 1.0, (B, len(ts), len(ts)))  # a cosine score's range
            values, G = _suffix_softmax(rows, c, True)
            expected, expected_G = naive.log_suffix_softmax(rows, c, True)
            assert np.array_equal(values, expected)
            assert np.array_equal(G, expected_G)


@examples
@given(ts=timestamps(), tau=temperatures, seed=st.integers(0, 2**32 - 1))
def test_scores_beyond_guard(ts, tau, seed):
    """A supplied score matrix is guarded on its own range, not a cosine's:
    rows spanning 1000 tau stay finite and match the reference."""
    T = len(ts)
    R = np.random.default_rng(seed).uniform(-1.0, 1.0, (T, T))
    R[:, 0], R[:, -1] = -1.0, 1.0  # every anchor but the first and last sees both
    R *= 500 * tau
    expected = naive.ordered_pair_loss(ts, R, tau)
    assert vlo_loss_on_scores(ts, R, tau) == pytest.approx(expected, rel=1e-12, abs=1e-15)


@examples
@given(clip=clips(), tau=temperatures)
def test_vlo_at_least_lower_bound(clip, tau):
    lb = lower_bound(clip)
    assert lb == pytest.approx(naive.lower_bound(clip.timestamps), rel=1e-12, abs=1e-15)
    assert vlo_loss(clip, tau) >= lb


@settings(examples, max_examples=30)
@given(clip=clips(max_T=24), cfg=st.sampled_from(COMBOS))
def test_supplied_groups_change_nothing(clip, cfg):
    c = Contrast.of(clip.timestamps, cfg)
    (value,), (bb,), (frames,), (language,), (at_kink,) = objective_and_grad(
        clip.embeddings[None], clip.language[None], c
    )
    value2, grads2 = tnce_loss(clip, cfg), grad_tnce(clip, cfg)
    assert value == value2 == tnce_loss(clip, cfg)
    assert bb == 0.0 and at_kink == grads2.at_kink
    assert np.array_equal(frames, grads2.frames)
    assert np.array_equal(language, grads2.language)


STEP_OBJECTIVES = {
    "actol": TnceConfig(),
    "last-frame": TnceConfig("last-frame", "other-frames", "direct-sim"),
}
STEP_TS = (0, 1, 2, 4, 5, 7, 8, 9, 12, 13)  # tied and untied distances


def _step_inputs(B, seed, T=len(STEP_TS), d=8):
    rng = np.random.default_rng(seed)
    emb = rng.standard_normal((B, T, d))
    emb /= np.linalg.norm(emb, axis=-1, keepdims=True)
    lang = rng.standard_normal((B, d))
    return emb, lang / np.linalg.norm(lang, axis=-1, keepdims=True)


def _step_matching_reference(emb, lang, c, bridge=None, bb_weight=0.0):
    """objective_and_grad's five outputs, asserted bit for bit those of the
    composition in naive.py."""
    got = objective_and_grad(emb, lang, c, bridge, bb_weight)
    expected = naive.objective_and_grad(emb, lang, c, bridge, bb_weight)
    for a, b in zip(got, expected, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    return got


@pytest.mark.parametrize("bridge", ["none", "shared", "per-clip"])
@pytest.mark.parametrize("tau", [0.5, 0.002], ids=["linear", "log-space"])
@pytest.mark.parametrize("objective", list(STEP_OBJECTIVES))
@pytest.mark.parametrize("B", [1, 4])
def test_step_matches_reference_bit_for_bit(B, objective, tau, bridge):
    """One descent step's outputs on both sides of the range guard, with no
    bridge, one shared Bridge and one Bridge of each clip's own interval."""
    c = Contrast.of(STEP_TS, replace(STEP_OBJECTIVES[objective], temperature=tau))
    per_clip = Bridge.of(STEP_TS, np.array([[[b % 3, 9 - b % 2]] for b in range(B)]))
    bridges = {"none": None, "shared": Bridge.of(STEP_TS), "per-clip": per_clip}
    emb, lang = _step_inputs(B, seed=B)
    _step_matching_reference(emb, lang, c, bridges[bridge], 0.1)


def test_step_flags_only_the_clip_with_a_similarity_tie():
    c = Contrast.of(STEP_TS, TnceConfig(temperature=0.5))
    emb, lang = _step_inputs(3, seed=5)
    emb[1, 6] = emb[1, 2]  # an exact off-diagonal tie in row 1 alone
    *_, at_kink = _step_matching_reference(emb, lang, c, Bridge.of(STEP_TS), 0.1)
    assert at_kink.tolist() == [False, True, False]


@pytest.mark.parametrize("objective", list(STEP_OBJECTIVES))
@pytest.mark.parametrize(
    "nans, tie", [([(1, 3)], None), ([(0, 0), (0, 4)], (2, 1, 8))], ids=["one", "two-and-a-tie"]
)
def test_step_with_nan_similarity_matches_reference(objective, nans, tie):
    """No pair in a NaN similarity's row or column is close, its diagonal
    entry included. With two NaNs, one tie elsewhere makes as many close
    pairs as a stack with no NaN and no tie has, and is still flagged."""
    c = Contrast.of(STEP_TS, replace(STEP_OBJECTIVES[objective], temperature=0.5))
    emb, lang = _step_inputs(3, seed=9)
    for b, t in nans:
        emb[b, t] = np.nan
    if tie is not None:
        b, t, u = tie
        emb[b, u] = emb[b, t]
    *_, at_kink = _step_matching_reference(emb, lang, c)
    if tie is not None and objective == "actol":
        assert at_kink[tie[0]]


STACK_CONFIGS = (TnceConfig(), *COMBOS[1:])  # every score kind and selector; vlo-pair first


def _row_mask(O, rows):
    """(O, 1) Bridge weight factors of a config stack: 1.0 at rows, else 0.0."""
    return np.isin(np.arange(O), rows).astype(float)[:, None]


@pytest.mark.parametrize("bridge", ["none", "shared", "per-clip"])
@pytest.mark.parametrize("taus", [(0.5, 1.0), (1e-3, 1.0)], ids=["linear", "mixed-range"])
def test_config_stack_rows_match_each_config_alone(bridge, taus):
    """Row o of a (B, O, T, d) stack under a Contrast of O configs gets bit
    for bit the five outputs of its own config's objective_and_grad call,
    the bridge only on the rows whose Bridge weights are not zero. With the
    first config below the range guard and the others above it, each
    side's kernel runs once, on the whole stack. A similarity tie is
    flagged on difference-score rows only. A Bridge of each clip's own
    interval is laid out on (B, 1) clip axes for the stack and on (B,) for
    one config."""
    configs = (replace(STACK_CONFIGS[0], temperature=taus[0]),
               *(replace(cfg, temperature=taus[1]) for cfg in STACK_CONFIGS[1:]))
    bridged = [0, 3]
    c = Contrast.of(STEP_TS, configs)
    B, O = 3, len(configs)
    emb, lang = _step_inputs(B * O, seed=11)
    emb, lang = emb.reshape(B, O, *emb.shape[1:]), lang.reshape(B, O, -1)
    emb[1, :, 6] = emb[1, :, 2]  # a tie in every row of clip 1
    intervals = np.array([[[b, 9 - b]] for b in range(B)])
    bridges = {"none": (None, None), "shared": (Bridge.of(STEP_TS),) * 2,
               "per-clip": (Bridge.of(STEP_TS, intervals[:, None]), Bridge.of(STEP_TS, intervals))}
    stacked, alone_bridge = bridges[bridge]
    if stacked is not None:  # w is 0 on every row but 0 and 3
        stacked = Bridge(stacked.M, stacked.w * _row_mask(O, bridged))
    kernels = {name: mock.Mock(wraps=getattr(losses, name))
               for name in ("_exp_cumsum", "_log_accumulate")}
    with mock.patch.multiple(losses, **kernels):
        got = objective_and_grad(emb, lang, c, stacked, 0.1, True)
    calls = [kernels[name].call_count for name in ("_exp_cumsum", "_log_accumulate")]
    assert calls == ([1, 0] if taus[0] == 0.5 else [1, 1])
    for o, cfg in enumerate(configs):
        on = alone_bridge if o in bridged else None
        alone = objective_and_grad(emb[:, o], lang[:, o], Contrast.of(STEP_TS, cfg), on, 0.1)
        for a, b in zip((g[:, o] for g in got), alone, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert alone[4].tolist() == [False, cfg.score == "difference-score", False]


@pytest.mark.parametrize("tau", [0.5, 0.002], ids=["linear", "log-space"])
@pytest.mark.parametrize("bridge", ["shared", "per-clip"])
def test_zero_weight_rows_carry_no_bridge(bridge, tau):
    """The rows of a config stack on which a Bridge's w is zero get
    penalties of exactly +0.0, and dL/dE byte for byte (the sign of zero
    included) that of the call without a bridge; the other rows get the
    bridge."""
    c = Contrast.of(STEP_TS, tuple(replace(cfg, temperature=tau) for cfg in STACK_CONFIGS))
    B, O, bridged = 3, len(STACK_CONFIGS), [0, 3]
    emb, lang = _step_inputs(B * O, seed=12)
    emb, lang = emb.reshape(B, O, *emb.shape[1:]), lang.reshape(B, O, -1)
    full = (Bridge.of(STEP_TS) if bridge == "shared"
            else Bridge.of(STEP_TS, np.array([[[[b, 9 - b]]] for b in range(B)])))
    got = objective_and_grad(emb, lang, c, Bridge(full.M, full.w * _row_mask(O, bridged)), 0.1)
    plain = objective_and_grad(emb, lang, c, None, 0.1)
    off = [o for o in range(O) if o not in bridged]
    assert got[1][:, off].tobytes() == np.zeros((B, len(off))).tobytes()
    assert got[2][:, off].tobytes() == plain[2][:, off].tobytes()
    assert (got[1][:, bridged] > 0).all() and not np.array_equal(got[2], plain[2])


@pytest.mark.parametrize("tau", [0.5, 0.002], ids=["linear", "log-space"])
@pytest.mark.parametrize("stack", ["one-config", "config-stack"])
def test_step_outputs_are_not_the_runs_working_arrays(stack, tau):
    """A descent run's Contrast keeps the kernel's arrays and every step
    writes them in place. Step k's outputs are unchanged after step k+1
    runs on other embeddings, share no memory with the kept arrays, and
    step k+1 gets bit for bit a fresh Contrast's outputs. The config stack
    mixes score kinds and puts the bridge on some rows, by a Bridge whose
    weights are zero on the others; at tau=0.002 its first config is below
    the range guard and the others above it."""
    bridge = Bridge.of(STEP_TS)
    if stack == "one-config":
        cfg, B, O = replace(STEP_OBJECTIVES["actol"], temperature=tau), 3, 1
    else:
        cfg = (replace(STACK_CONFIGS[0], temperature=tau), *STACK_CONFIGS[1:])
        B, O = 2, len(cfg)
        bridge = Bridge(bridge.M, bridge.w * _row_mask(O, [0, 3]))
    fresh = Contrast.of(STEP_TS, cfg)
    run = replace(fresh, work={})
    outputs = []
    for seed in (13, 14):
        emb, lang = _step_inputs(B * O, seed)
        if O > 1:
            emb, lang = emb.reshape(B, O, *emb.shape[1:]), lang.reshape(B, O, -1)
        emb[0, ..., 6, :] = emb[0, ..., 2, :]  # a tie, so that a kink is flagged
        got = objective_and_grad(emb, lang, run, bridge, 0.1, True)
        outputs.append((got, [a.copy() for a in got]))
    assert {"rows", "x", "G", "close"} <= set(run.work)
    for got, kept in outputs:
        for a, b in zip(got, kept, strict=True):
            assert np.array_equal(a, b)
            assert not any(np.shares_memory(a, w) for w in run.work.values())
    expected = objective_and_grad(emb, lang, fresh, bridge, 0.1, True)
    for a, b in zip(outputs[1][0], expected, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert all(got[4][0].any() and not got[4][1:].any() for got, _ in outputs)  # clip 0's tie


@pytest.mark.parametrize(
    "ts, cfgs", [(np.array([[0, 1, 2], [0, 2, 3]]), (TnceConfig(), TnceConfig())), ((0, 1, 2), ())],
    ids=["stack", "no-config"],
)
def test_config_tuple_needs_one_timestamp_row_and_a_config(ts, cfgs):
    with pytest.raises(ValueError, match="one timestamp row and one config or more"):
        Contrast.of(ts, cfgs)


@pytest.mark.parametrize(
    "clips, configs", [(2, 1), (5, 1), (3, 2)], ids=["fewer", "more", "no-config-axis"]
)
def test_mismatched_batch_bridge_rejected(clips, configs):
    """A Bridge of each clip's own intervals needs the stack's clip count,
    and a (B, 1) clip layout on a config stack; (B,) would meet the config
    axis there."""
    ts = (0, 1, 2, 3, 5, 6)
    cfgs = (TnceConfig(), TnceConfig(temperature=0.5))[:configs]
    c = Contrast.of(ts, cfgs[0] if configs == 1 else cfgs)
    emb, lang = _step_inputs(3 * configs, seed=2, T=6, d=3)
    if configs > 1:
        emb, lang = emb.reshape(3, configs, 6, 3), lang.reshape(3, configs, 3)
    bridge = Bridge.of(ts, np.tile([[0, 5]], (clips, 1, 1)))
    with pytest.raises(ValueError, match="^Bridge M .* does not match embeddings"):
        objective_and_grad(emb, lang, c, bridge, 0.1)


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
    # the negative set of the positive at sorted position p is the prefix
    # of the anchor's order up to the end of p's group
    groups = TieGroups.of(clip.timestamps)
    for i in range(clip.T):
        for p in range(clip.T - 1):
            negatives = set(groups.order[i, : groups.end[i, p] + 1].tolist())
            assert negatives == naive.negative_set(clip.timestamps, i, int(groups.order[i, p]))


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
    assert actol_loss(clip, 0.5, intervals=intervals).bb == value
    grads = grad_total(clip, 0.5, 1.0, intervals)
    assert_close(grads.frames, grad_vlo(clip).frames + 0.5 * expected_grad)
    for iv in intervals:
        assert bb_loss(clip, iv) == pytest.approx(naive.bb_loss(clip, iv), rel=1e-12, abs=0.0)
        assert_close(grad_bb(clip, iv).frames, naive.grad_bb(clip, iv))


@pytest.mark.parametrize("T", [2, 3, 10])
def test_batch_bridge_rows_match_each_clip_alone(T):
    """Row b of a Bridge of each clip's own n intervals, a (B, n, 2) array,
    gets bit for bit the penalty and gradient of clip b's (n, 2) intervals
    alone, and the loop reference's. Clip 0's intervals, and one of clip
    1's, have no interior frame."""
    rng = np.random.default_rng(T)
    B, n, d = 6, 3, 4
    ts = tuple(np.cumsum(np.r_[0, rng.integers(1, 4, T - 1)]).tolist())
    starts = rng.integers(0, T - 1, (B, n))
    intervals = np.stack([starts, rng.integers(starts + 1, T)], axis=-1)
    intervals[0, :, 1] = intervals[0, :, 0] + 1
    intervals[1, 0, 1] = intervals[1, 0, 0] + 1
    emb, lang = rng.standard_normal((B, T, d)), rng.standard_normal((B, d))
    bridge = Bridge.of(ts, intervals)
    for b in range(B):  # interval j's interior frame t on row j (T-2) + t - 1
        for j in range(n):
            alone = Bridge.of(ts, intervals[b, j : j + 1])
            assert np.array_equal(bridge.M[b].reshape(n, T - 2, T)[j], alone.M)
            np.testing.assert_allclose(bridge.w[b].reshape(n, T - 2)[j], alone.w / n, rtol=1e-15)
    assert np.array_equal(Bridge.of(ts, intervals.astype(np.uint8)).M, bridge.M)
    value, grad = bridge.penalty(emb, need_grad=True)
    for b in range(B):
        alone, alone_grad = Bridge.of(ts, intervals[b]).penalty(emb[b], need_grad=True)
        assert value[b] == alone and np.array_equal(grad[b], alone_grad)
        clip = ClipSequence(ts, emb[b], lang[b])
        expected, expected_grad = naive.mean_bb(clip, [BridgeInterval(*iv) for iv in intervals[b]])
        assert value[b] == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert_close(grad[b], expected_grad)


def _objectives(clip, intervals, cfg):
    """Every objective on one clip: the actol breakdown, the bridge penalty
    and its gradient, the tnce value, and the gradients of both losses."""
    breakdown = actol_loss(clip, intervals=intervals)
    bb, bb_grad = Bridge.of(clip.timestamps, intervals).penalty(clip.embeddings, need_grad=True)
    tnce, tnce_grads = tnce_loss(clip, cfg), grad_tnce(clip, cfg)
    total_grads = grad_total(clip, 0.1, 1.0, intervals)
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
    g_a, g_b = TieGroups.of(clip.timestamps), TieGroups.of(moved.timestamps)
    for field in ("order", "distances", "start", "end"):
        assert np.array_equal(getattr(g_a, field), getattr(g_b, field))
    for rule in ("farther-frames", "other-frames"):
        rule_cfg = replace(cfg, negative_selector=rule)
        c_a, c_b = Contrast.of(clip.timestamps, rule_cfg), Contrast.of(moved.timestamps, rule_cfg)
        for field in ("positives", "sorted_at", "end_at", "start_at"):
            assert np.array_equal(getattr(c_a, field), getattr(c_b, field))
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


@pytest.mark.parametrize(
    "loss, cfg",
    [("vlo", None), ("bb", None), ("total", None), *(("tnce", cfg) for cfg in COMBOS)],
)
@settings(examples, max_examples=10)
@given(case=bridge_cases(), tau=temperatures, step=st.sampled_from([1e-5, 1e-3]),
       defaults=st.booleans())
def test_finite_diff_check_matches_reference(loss, cfg, case, tau, step, defaults):
    """The batched oracle returns the float of the per-coordinate loop, with
    default params or with a temperature, bridge intervals and weight."""
    clip, intervals = case
    if loss == "tnce":
        params = {"config": replace(cfg, temperature=tau)}
    elif defaults:
        params = None
    else:
        params = {"vlo": {"temperature": tau}, "bb": {"interval": intervals[0]},
                  "total": {"temperature": tau, "intervals": intervals, "bb_weight": 0.3}}[loss]
    expected = naive.finite_diff_check(loss, clip, params, step)
    assert finite_diff_check(loss, clip, params, step) == expected


@st.composite
def clip_stacks(draw):
    """N in {1, 2, 7} clips of one (T, d) shape, T in {2, 3, 6, 12}, each
    with its own timestamps, and 1-3 bridge intervals valid for all."""
    T, d = draw(st.sampled_from([2, 3, 6, 12])), draw(st.integers(2, 5))
    stack = [draw(clips(T=T, d=d)) for _ in range(draw(st.sampled_from([1, 2, 7])))]
    starts = draw(st.lists(st.integers(0, T - 2), min_size=1, max_size=3))
    intervals = [BridgeInterval(a, draw(st.integers(a + 1, T - 1))) for a in starts]
    return stack, intervals


@pytest.mark.parametrize(
    "loss, cfg",
    [("vlo", None), ("bb", None), ("total", None), *(("tnce", cfg) for cfg in COMBOS)],
)
@settings(examples, max_examples=10)
@given(case=clip_stacks(), tau=temperatures, step=st.sampled_from([1e-5, 1e-3]),
       defaults=st.booleans(), vectors=st.sampled_from([1, 2, "clip", "3 clips"]))
def test_stacked_finite_diff_errors_match_reference(loss, cfg, case, tau, step, defaults,
                                                    vectors):
    """Each clip's error from the stacked oracle is the float of the
    per-coordinate loop and of its one-clip call, also when a budget of one
    or two vectors' points, one clip's or three clips' splits the stack."""
    stack, intervals = case
    if loss == "tnce":
        params = {"config": replace(cfg, temperature=tau)}
    elif defaults:
        params = None
    else:
        params = {"vlo": {"temperature": tau}, "bb": {"interval": intervals[0]},
                  "total": {"temperature": tau, "intervals": intervals, "bb_weight": 0.3}}[loss]
    expected = [naive.finite_diff_check(loss, clip, params, step) for clip in stack]
    assert gradients._finite_diff_errors(loss, stack, params, step).tolist() == expected
    assert [finite_diff_check(loss, clip, params, step) for clip in stack] == expected
    N, T, d = len(stack), stack[0].T, stack[0].d
    per_call = {"clip": T + 1, "3 clips": 3 * (T + 1)}.get(vectors, vectors)
    size, width = max(1, per_call // (T + 1)), min(per_call, T + 1)  # clips, vectors of each
    kernel = mock.Mock(wraps=losses._suffix_softmax)
    with mock.patch.object(losses, "BLOCK_SCORES", per_call * 2 * d * T * T), \
            mock.patch.object(losses, "_suffix_softmax", kernel):
        assert gradients._finite_diff_errors(loss, stack, params, step).tolist() == expected
    calls = -(-N // size) * -(-(T + 1) // width)
    assert kernel.call_count == (0 if loss == "bb" else 1 + calls)


def test_finite_diff_check_in_several_calls_matches_reference(monkeypatch):
    """At T=64, d=16 one vector's 2d perturbed points exceed BLOCK_SCORES,
    so each of the T + 1 vectors gets its own kernel call; the result is
    still the float of the per-coordinate loop."""
    clip = random_clip(64, 16, np.random.default_rng(81))
    expected = naive.finite_diff_check("total", clip)
    kernel = mock.Mock(wraps=losses._suffix_softmax)
    monkeypatch.setattr(losses, "_suffix_softmax", kernel)
    assert finite_diff_check("total", clip) == expected
    assert kernel.call_count == 1 + 65  # the analytic gradient, then one call per vector
