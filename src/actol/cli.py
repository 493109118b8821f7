"""Command-line entry point: JSON experiment configs in, deterministic
artifacts (CSV histories, reward curves, JSON reports) out.

Every command is a pure function of (config file, seed): rerunning with
the same inputs produces byte-identical output files. Exit codes:
0 success, 1 check failure, 2 malformed config, 3 non-finite loss.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from .clip import ClipSequence
from .gradients import finite_diff_check
from .losses import TnceConfig
from .reward import ObjectiveSpec, compare_objectives, curve_rows
from .synthetic import SyntheticClipSpec, generate_clip, random_clip, random_units
from .theory import (
    bridge_stats_report,
    check_lower_bound,
    check_robustness,
    check_tightness,
    lipschitz_pairs_report,
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
    config.setdefault("seed", 0)
    return config


def _require(config, key):
    if key not in config:
        raise ConfigError(f"missing required config field {key!r}")
    return config[key]


def _write_json(path, config, payload):
    out = {"schema_version": SCHEMA_VERSION, "config": config}
    out.update(payload)
    with open(path, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")


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
    clip_cfg = _require(config, "clip")
    if "file" in clip_cfg:
        try:
            return ClipSequence.load(clip_cfg["file"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot load clip {clip_cfg['file']}: {exc}") from exc
    if "synthetic" in clip_cfg:
        try:
            spec = SyntheticClipSpec(seed=config["seed"], **clip_cfg["synthetic"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad synthetic clip spec: {exc}") from exc
        clip, _ = generate_clip(spec)
        return clip
    raise ConfigError("clip config needs a 'file' or 'synthetic' entry")


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


def _report_lower_bound(rng, params):
    t_lo, t_hi = params.get("t_range", (3, 12))
    d_lo, d_hi = params.get("d_range", (2, 16))
    clips = [
        random_clip(int(rng.integers(t_lo, t_hi + 1)), int(rng.integers(d_lo, d_hi + 1)), rng)
        for _ in range(params.get("clips", 1000))
    ]
    return check_lower_bound(clips)


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
    checks = _require(config, "checks")
    if not checks:
        raise ConfigError("empty check list")
    rng = np.random.default_rng(config["seed"])
    flip = -1.0 if config.get("debug_flip_bb_variance_sign") else 1.0
    reporters = {
        "lower-bound": lambda p: _report_lower_bound(rng, p),
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
            variance_sign=flip,
        ),
    }
    unknown = [name for name in checks if name not in reporters]
    if unknown:
        raise ConfigError(f"unknown check(s) {unknown}")
    reports = []
    for name in checks:
        block = name.replace("-", "_")
        try:
            reports.append(reporters[name](config.get(block, {})))
        except (TypeError, ValueError) as exc:
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
            spec = SyntheticClipSpec(**_require(config, "synthetic"))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad synthetic clip spec: {exc}") from exc
        names = _require(config, "objectives")
        objectives = []
        for name in names:
            if name not in OBJECTIVE_PRESETS:
                raise ConfigError(f"unknown objective {name!r}")
            objectives.append(ObjectiveSpec(name, OBJECTIVE_PRESETS[name]))
        cfg = _train_config(config)
        n_seeds = config.get("seeds", 20)
        seeds = [config["seed"] + k for k in range(n_seeds)]
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
    difference crosses the alignment score's absolute-value kink."""
    for _ in range(100):
        clip = random_clip(T, d, rng)
        if np.min(np.diff(np.sort(clip.similarities()))) >= KINK_MARGIN_STEPS * step:
            return clip
    raise RuntimeError("could not sample a kink-free clip")


@main.command()
@_common_options
def gradcheck(config_path, out_dir, seed):
    """Compare analytic gradients against finite differences; write gradcheck.json."""

    def body(config, out):
        losses = config.get("losses", ["vlo", "bb", "total"])
        known = {"vlo", "bb", "total"}
        unknown = [l for l in losses if l not in known]
        if unknown:
            raise ConfigError(f"unknown loss name(s): {unknown}")
        n_clips = config.get("clips", 20)
        T = config.get("T", 6)
        d = config.get("d", 5)
        step = config.get("step", 1e-5)
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
