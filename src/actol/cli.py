"""Command-line entry point: JSON experiment configs in, deterministic
artifacts (CSV histories, reward curves, JSON reports) out.

Every command is a pure function of (config file, seed): rerunning with
the same inputs produces byte-identical output files. Exit codes:
0 success, 1 check failure, 2 malformed config, 3 non-finite loss.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from .clip import ClipSequence, _is_count, _is_real
from .gradients import finite_diff_check
from .losses import TnceConfig
from .reward import ObjectiveSpec, compare_objectives, curve_rows
from .synthetic import SyntheticClipSpec, generate_clip, random_clip, random_units
from .theory import (
    bridge_stats_report,
    check_robustness,
    check_tightness,
    lipschitz_pairs_report,
    lower_bound_report,
)
from .trainer import TrainConfig, TrainingDiverged, train_free

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_NON_FINITE = 3

# A perturbation of one coordinate by `step` moves each similarity by at
# most about 2 * step; gradcheck keeps similarities this many steps apart.
KINK_MARGIN_STEPS = 100

# Each verify check's optional parameter block and the keys it accepts.
CHECK_PARAMETERS = {
    "lower-bound": ("clips", "t_range", "d_range"),
    "tightness": ("timestamps", "eps"),
    "lipschitz": ("dim", "trials"),
    "robustness": ("dim", "delta_l", "trials"),
    "bridge-stats": ("dim", "samples", "t_end", "tolerance"),
}

OBJECTIVE_PRESETS = {
    "actol": None,
    "vlo-pair": TnceConfig("vlo-pair", "farther-frames", "difference-score"),
    "last-frame": TnceConfig("last-frame", "other-frames", "direct-sim"),
    "future-frame": TnceConfig("future-frame", "other-frames", "direct-sim"),
}


class ConfigError(Exception):
    pass


def _load_config(path, seed_override):
    try:
        with open(path) as f:
            config = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    if seed_override is not None:
        config["seed"] = seed_override
    seed = config.setdefault("seed", 0)
    if not (_is_count(seed) and seed >= 0):
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return config


def _require(config, key):
    if key not in config:
        raise ConfigError(f"missing required config field {key!r}")
    return config[key]


def _object(config, key, default=None):
    """config[key] (required without a default), which must be a JSON object."""
    value = _require(config, key) if default is None else config.get(key, default)
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object, got {value!r}")
    return value


def _names(config, key, known, default=None, repeats=False):
    """config[key] (required without a default): a non-empty list of names
    in known, distinct unless repeats. Outputs keyed by name need distinct
    names; verify's reports are a list, so a check may run twice."""
    names = _require(config, key) if default is None else config.get(key, default)
    if not (isinstance(names, list) and names):
        raise ConfigError(f"{key} must be a non-empty list, got {names!r}")
    unknown = [name for name in names if not (isinstance(name, str) and name in known)]
    if unknown:
        raise ConfigError(f"unknown {key}: {unknown}")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated and not repeats:
        raise ConfigError(f"repeated {key}: {repeated}")
    return names


def _count(config, key, default, minimum):
    """config[key] (default if absent), which must be an integer >= minimum:
    2 for a frame count or dimension, 1 for any other count."""
    value = config.get(key, default)
    if not _is_count(value) or value < minimum:
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return value


def _write_json(path, config, payload):
    out = {"schema_version": SCHEMA_VERSION, "config": config}
    out.update(payload)
    with open(path, "w") as f:
        f.write(json.dumps(out, indent=2) + "\n")


def _write_csv(path, header, rows):
    # full double precision via shortest round-trip formatting
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(repr(x) if isinstance(x, float) else str(x) for x in row) + "\n")


def _train_config(config):
    fields = config.get("train", {})
    try:
        return TrainConfig(seed=config["seed"], **fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad train config: {exc}") from exc


def _clip_from_config(config):
    clip_cfg = _object(config, "clip")
    if ("file" in clip_cfg) == ("synthetic" in clip_cfg):
        raise ConfigError("clip config needs exactly one of 'file' and 'synthetic'")
    if "file" in clip_cfg:
        path = clip_cfg["file"]
        if not isinstance(path, str):  # open() would take an integer as a file descriptor
            raise ConfigError(f"clip file must be a path string, got {path!r}")
        try:
            return ClipSequence.load(path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot load clip {path}: {exc}") from exc
    try:
        spec = SyntheticClipSpec(seed=config["seed"], **clip_cfg["synthetic"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad synthetic clip spec: {exc}") from exc
    clip, _ = generate_clip(spec)
    return clip


@click.group()
def main():
    """Temporal-coherence objectives: train, verify, reward, gradcheck."""


def _common_options(fn):
    fn = click.option("--config", "config_path", required=True, type=click.Path())(fn)
    fn = click.option("--out", "out_dir", default=".", type=click.Path())(fn)
    fn = click.option("--seed", default=None, type=int, help="Overrides the config seed.")(fn)
    return fn


def _run(fn, config_path, out_dir, seed):
    try:
        config = _load_config(config_path, seed)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        code = fn(config, out)
    except ConfigError as exc:
        click.echo(f"error: {exc}", err=True)
        code = EXIT_BAD_CONFIG
    except TrainingDiverged as exc:
        click.echo(f"error: {exc}", err=True)
        code = EXIT_NON_FINITE
    sys.exit(code)


@main.command()
@_common_options
def train(config_path, out_dir, seed):
    """Optimize a clip's embeddings; write history.csv and final_clip.json."""

    def body(config, out):
        clip = _clip_from_config(config)
        cfg = _train_config(config)
        history = train_free(clip, cfg)
        rows = [
            (i, r.vlo, r.bb, r.total, r.lower_bound, r.gap)
            for i, r in enumerate(history.records)
        ]
        _write_csv(out / "history.csv", ("step", "vlo", "bb", "total", "lower_bound", "gap"), rows)
        _write_json(out / "final_clip.json", config, history.final_clip.to_dict())
        return EXIT_OK

    _run(body, config_path, out_dir, seed)


def _report_robustness(rng, params):
    v_i, v_j, l = random_units((3, params.get("dim", 8)), rng)
    trials = params.get("trials", 10000)
    deltas = params.get("delta_l", [0.01, 0.1, 0.5])
    reports = [check_robustness(v_i, v_j, l, delta, trials, rng) for delta in deltas]
    if not reports:
        raise ValueError("delta_l needs at least one value")
    return replace(
        reports[0],
        instances=sum(r.instances for r in reports),
        violations=sum(r.violations for r in reports),
        worst_slack=max(r.worst_slack for r in reports),
        passed=all(r.passed for r in reports),
        details={"per_delta": [r.to_dict() for r in reports]},
    )


def _build_reports(config):
    """Run the configured checks in list order, all drawing from one
    Generator seeded with the config seed."""
    checks = _names(config, "checks", CHECK_PARAMETERS, repeats=True)
    rng = np.random.default_rng(config["seed"])
    flip = config.get("debug_flip_bb_variance_sign", False)
    if not isinstance(flip, bool):
        raise ConfigError(f"debug_flip_bb_variance_sign must be true or false, got {flip!r}")
    reporters = {
        "lower-bound": lambda p: lower_bound_report(
            _count(p, "clips", 1000, 1), p.get("t_range", (3, 12)), p.get("d_range", (2, 16)), rng
        ),
        "tightness": lambda p: check_tightness(
            p.get("timestamps", [0, 1, 2, 3]), p.get("eps", [1.0, 0.1, 0.01])
        ),
        "lipschitz": lambda p: lipschitz_pairs_report(p.get("dim", 8), p.get("trials", 10000), rng),
        "robustness": lambda p: _report_robustness(rng, p),
        "bridge-stats": lambda p: bridge_stats_report(
            p.get("dim", 6),
            p.get("t_end", 10),
            p.get("samples", 10000),
            rng,
            p.get("tolerance", 0.05),
            variance_sign=-1.0 if flip else 1.0,
        ),
    }
    reports = []
    for name in checks:
        block = name.replace("-", "_")
        try:
            params = _object(config, block, {})
            unknown = [key for key in params if key not in CHECK_PARAMETERS[name]]
            if unknown:
                raise ConfigError(f"unknown key(s) {unknown}")
            reports.append(reporters[name](params))
        except (ConfigError, TypeError, ValueError) as exc:
            # the checks and samplers raise these only for a bad argument
            raise ConfigError(f"bad {block} parameters: {exc}") from exc
    return reports


@main.command()
@_common_options
def verify(config_path, out_dir, seed):
    """Run theorem checks; write theorem_reports.json. Exit 1 on violation."""

    def body(config, out):
        reports = _build_reports(config)
        _write_json(
            out / "theorem_reports.json", config, {"reports": [r.to_dict() for r in reports]}
        )
        return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED

    _run(body, config_path, out_dir, seed)


@main.command()
@_common_options
def reward(config_path, out_dir, seed):
    """Compare objectives on synthetic clips; write reward CSVs and comparison.json."""

    def body(config, out):
        try:
            spec = SyntheticClipSpec(**_object(config, "synthetic"))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad synthetic clip spec: {exc}") from exc
        names = _names(config, "objectives", OBJECTIVE_PRESETS)
        objectives = [ObjectiveSpec(name, OBJECTIVE_PRESETS[name]) for name in names]
        cfg = _train_config(config)
        seeds = [config["seed"] + k for k in range(_count(config, "seeds", 20, 1))]
        record = compare_objectives(spec, objectives, cfg, seeds)
        for res in record.results:
            for obj in objectives:
                rows = curve_rows(record.final_clips[(res.seed, obj.name)])
                _write_csv(
                    out / f"reward_{obj.name}_seed{res.seed}.csv",
                    ("frame_index", "timestamp", "raw_reward", "normalized_reward"),
                    rows,
                )
        payload = {
            "completion_index": spec.completion_index,
            "median_error": record.median_error,
            "per_seed": [
                {
                    "seed": r.seed,
                    "argmax": r.argmax_by_objective,
                    "error": r.error_by_objective,
                }
                for r in record.results
            ],
        }
        _write_json(out / "comparison.json", config, payload)
        return EXIT_OK

    _run(body, config_path, out_dir, seed)


def _sample_away_from_kinks(rng, T, d, step):
    """Random clip whose similarities are pairwise at least
    KINK_MARGIN_STEPS finite-difference steps apart, so no central
    difference crosses the alignment score's absolute-value kink. A step
    too large for T similarities in [-1, 1] is a ConfigError."""
    for _ in range(100):
        clip = random_clip(T, d, rng)
        if np.min(np.diff(np.sort(clip.similarities()))) >= KINK_MARGIN_STEPS * step:
            return clip
    raise ConfigError(f"step {step!r} too large: no clip of {T} frames in 100 draws has "
                      f"similarities {KINK_MARGIN_STEPS} steps apart")


@main.command()
@_common_options
def gradcheck(config_path, out_dir, seed):
    """Compare analytic gradients against finite differences; write gradcheck.json."""

    def body(config, out):
        losses = _names(config, "losses", ("vlo", "bb", "total"), ["vlo", "bb", "total"])
        n_clips = _count(config, "clips", 20, 1)
        T = _count(config, "T", 6, 2)
        d = _count(config, "d", 5, 2)
        step = config.get("step", 1e-5)
        if not (_is_real(step) and 0 < step < math.inf):
            raise ConfigError(f"step must be finite and positive, got {step!r}")
        rng = np.random.default_rng(config["seed"])
        worst = {}
        try:
            for loss in losses:
                errs = []
                for _ in range(n_clips):
                    clip = _sample_away_from_kinks(rng, T, d, step)
                    errs.append(finite_diff_check(loss, clip, step=step))
                worst[loss] = max(errs)
        except FloatingPointError as exc:
            click.echo(f"error: {exc}", err=True)
            return EXIT_NON_FINITE
        _write_json(out / "gradcheck.json", config, {"max_relative_error": worst})
        return EXIT_OK if all(v < 1e-5 for v in worst.values()) else EXIT_CHECK_FAILED

    _run(body, config_path, out_dir, seed)


if __name__ == "__main__":
    main()
