"""Generated boundary test: every numeric parameter of every public
callable, given each probe value, either raises ValueError or takes the
value as its documentation says, without a warning and within a time bound."""

import inspect
import math
import signal
import warnings

import numpy as np
import pytest

import actol
from actol import (
    BridgeInterval,
    ClipSequence,
    ObjectiveSpec,
    SyntheticClipSpec,
    TnceConfig,
    TrainConfig,
    actol_loss,
    bridge_stats_report,
    check_continuity,
    check_robustness,
    check_tightness,
    compare_objectives,
    construct_near_optimal,
    finite_diff_check,
    grad_total,
    grad_vlo,
    lipschitz_pairs_report,
    lower_bound_report,
    measure_delta,
    objective_and_grad,
    perturb_language,
    random_clip,
    sample_bridge,
    slerp,
    train_encoder,
    vlo_loss,
    vlo_loss_on_scores,
)
from actol.losses import Bridge, Contrast

PROBES = {"true": True, "2.5": 2.5, "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
          "-1": -1, "0": 0, "'3'": "3", "10**30": 10**30}
# Each kind of parameter, as its docstring states it: (probes it takes,
# probes it may take or reject). Every other probe raises ValueError.
KINDS = {
    "count": ({"10**30"}, set()),
    # a count that sizes an array, at most kinds.MAX_DRAWS
    "size": (set(), set()),
    # a Monte Carlo count, at most kinds.MAX_DRAWS
    "draws": (set(), set()),
    "index": ({"0"}, set()),
    "seed": ({"0", "10**30"}, set()),
    "positive": ({"2.5", "10**30"}, set()),
    "non-negative": ({"2.5", "0", "10**30"}, set()),
    # a perturbation size in [0, 2]
    "delta": ({"0"}, set()),
    # slerp's time: any finite real; 10**30 is no numpy number
    "time": ({"2.5", "-1", "0"}, {"10**30"}),
    "sign": ({"-1"}, set()),
    "boolean": ({"true"}, set()),
    # the second entry x of a timestamp row (0, x): no probe makes a valid row
    "timestamp": (set(), set()),
    # a count of at least 1 and at most T = 4
    "completion": (set(), set()),
}
# Results the package builds from checked inputs, not inputs themselves
RESULTS = {"ComparisonRecord", "GradientSet", "GroundTruth", "LossBreakdown", "RewardCurve",
           "SeedResult", "TheoremReport", "TieGroups", "TrainHistory", "TrainingDiverged"}
# parameters without an int or float annotation that take numbers
NUMERIC_NAMES = {"seed", "seeds", "t", "timestamps", "eps_values", "pairs", "t_range", "d_range"}

CLIP = random_clip(4, 3, np.random.default_rng(0))
U = CLIP.embeddings
SPEC = SyntheticClipSpec(T=4, d=3, completion_index=2)
STEP = TrainConfig(steps=1)
ROW, PAIR, ONE = (lambda x: (0, x)), (lambda x: (x, x)), (lambda x: [x])
# name: (call, valid keyword arguments, {numeric parameter: (kind, how the probe is passed)})
CALLS = {
    "BridgeInterval": (BridgeInterval, dict(start=0, end=2),
                       {"start": ("index", None), "end": ("count", None)}),
    "ClipSequence": (ClipSequence, dict(timestamps=(0, 1), embeddings=U[:2], language=U[0]),
                     {"timestamps": ("timestamp", ROW)}),
    "SyntheticClipSpec": (SyntheticClipSpec, dict(T=4, d=3, completion_index=4),
                          {"T": ("size", None), "d": ("size", None),
                           "completion_index": ("completion", None),
                           "noise_sigma": ("non-negative", None), "seed": ("seed", None)}),
    "TnceConfig": (TnceConfig, {}, {"temperature": ("positive", None)}),
    "TrainConfig": (TrainConfig, {},
                    {"learning_rate": ("non-negative", None), "steps": ("count", None),
                     "bb_weight": ("non-negative", None), "temperature": ("positive", None),
                     "seed": ("seed", None), "optimize_language": ("boolean", None),
                     "intervals_per_step": ("count", None)}),
    "actol_loss": (actol_loss, dict(clip=CLIP),
                   {"bb_weight": ("non-negative", None), "temperature": ("positive", None)}),
    "vlo_loss": (vlo_loss, dict(clip=CLIP), {"temperature": ("positive", None)}),
    "vlo_loss_on_scores": (vlo_loss_on_scores, dict(timestamps=(0, 1), scores=np.eye(2)),
                           {"timestamps": ("timestamp", ROW), "temperature": ("positive", None)}),
    "construct_near_optimal": (construct_near_optimal, dict(timestamps=(0, 1, 2), eps=0.1),
                               {"timestamps": ("timestamp", ROW), "eps": ("positive", None)}),
    "check_tightness": (check_tightness, dict(timestamps=(0, 1, 2), eps_values=[0.1]),
                        {"timestamps": ("timestamp", ROW), "eps_values": ("positive", ONE)}),
    "grad_vlo": (grad_vlo, dict(clip=CLIP), {"temperature": ("positive", None)}),
    "grad_total": (grad_total, dict(clip=CLIP),
                   {"bb_weight": ("non-negative", None), "temperature": ("positive", None)}),
    "finite_diff_check": (finite_diff_check, dict(loss="vlo", clip=CLIP),
                          {"step": ("positive", None)}),
    "objective_and_grad": (
        objective_and_grad,
        dict(emb=U[None], lang=CLIP.language[None], c=Contrast.of(CLIP.timestamps, TnceConfig()),
             bridge=Bridge.of(CLIP.timestamps)),
        {"bb_weight": ("non-negative", None)}),
    "measure_delta": (measure_delta, dict(clip=CLIP), {"temperature": ("positive", None)}),
    "perturb_language": (perturb_language, dict(l=U[0], delta=0.1, seed=0),
                         {"delta": ("delta", None), "seed": ("seed", None)}),
    "random_clip": (lambda **kw: random_clip(**kw, rng=np.random.default_rng(0)), dict(T=3, d=2),
                    {"T": ("size", None), "d": ("size", None)}),
    "sample_bridge": (sample_bridge, dict(v_start=U[0], v_end=U[1], t_start=0, t_end=4, seed=0),
                      {"t_start": ("index", None), "t_end": ("size", None),
                       "seed": ("seed", None)}),
    "slerp": (slerp, dict(a=U[0], b=U[1], t=0.5), {"t": ("time", None)}),
    "compare_objectives": (compare_objectives, dict(clip_spec=SPEC, objectives=[ObjectiveSpec("a")],
                                                    train_cfg=STEP, seeds=[0]),
                           {"seeds": ("seed", ONE)}),
    "check_continuity": (check_continuity, dict(clip=CLIP, pairs=[(0, 1)]),
                         {"pairs": ("index", lambda x: [(0, x)])}),
    "check_robustness": (check_robustness, dict(v_i=U[0], v_j=U[1], l=U[2], delta_l=0.1,
                                                trials=10, seed=0),
                         {"delta_l": ("delta", None), "trials": ("draws", None),
                          "seed": ("seed", None)}),
    "lipschitz_pairs_report": (lipschitz_pairs_report, dict(dim=3, trials=10, seed=0),
                               {"dim": ("size", None), "trials": ("draws", None),
                                "seed": ("seed", None)}),
    "lower_bound_report": (lower_bound_report, dict(clips=10, t_range=(2, 5), d_range=(2, 3),
                                                    seed=0),
                           {"clips": ("draws", None), "t_range": ("size", PAIR),
                            "d_range": ("size", PAIR), "seed": ("seed", None)}),
    "bridge_stats_report": (bridge_stats_report, dict(dim=2, t_end=4, samples=10, seed=0),
                            {"dim": ("size", None), "t_end": ("size", None),
                             "samples": ("draws", None), "seed": ("seed", None),
                             "tolerance": ("non-negative", None), "variance_sign": ("sign", None)}),
    "train_encoder": (train_encoder, dict(features=U[:2], timestamps=(0, 1), language=U[0],
                                          cfg=STEP),
                      {"timestamps": ("timestamp", ROW)}),
}
CASES = [(name, param, probe) for name, (_, _, params) in CALLS.items() for param in params
         for probe in PROBES]
# a call runs for milliseconds; one that builds or draws 10**30 of anything would not return
TIME_BOUND_S = 10


def numeric_parameters(obj):
    """The parameters of a public callable that take a number, or numbers."""
    return {
        p.name for p in inspect.signature(obj).parameters.values()
        if p.annotation in ("int", "float") or p.name in NUMERIC_NAMES
        or type(p.default) in (int, float)
    }


def test_every_numeric_parameter_is_probed():
    public = {n for n in actol.__all__ if callable(getattr(actol, n))} - RESULTS
    missing = {n: numeric_parameters(getattr(actol, n)) - set(CALLS.get(n, (0, 0, {}))[2])
               for n in public}
    assert {n: p for n, p in missing.items() if p} == {}


def timed_out(signum, frame):
    raise TimeoutError(f"call ran past {TIME_BOUND_S} s")


@pytest.mark.parametrize("name, param, probe", CASES, ids=["-".join(case) for case in CASES])
def test_boundary_value_rejected_or_taken(name, param, probe):
    call, kwargs, params = CALLS[name]
    kind, wrap = params[param]
    takes, may_take = KINDS[kind]
    value = PROBES[probe] if wrap is None else wrap(PROBES[probe])
    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.setitimer(signal.ITIMER_REAL, TIME_BOUND_S)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            call(**{**kwargs, param: value})
        taken = True
    except ValueError:
        taken = False
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert taken == (probe in takes) or probe in may_take
