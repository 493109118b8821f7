"""Command-line entry point: JSON experiment configs in, deterministic
artifacts (CSV histories, reward curves, JSON reports) out.

Every command is a pure function of (config file, seed): rerunning with
the same inputs produces byte-identical output files. Exit codes: 0
success, 1 check failure, 2 malformed or out-of-memory config, 3 diverged
training. A command's config keys are its table in COMMANDS, with their
JSON types and defaults; the library checks value ranges where it uses
the values.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import NamedTuple

import click
import numpy as np

from . import kinds
from .clip import ClipSequence
from .gradients import DEFAULT_STEP, PASS_ERROR, _finite_diff_errors
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

# A perturbation of norm `step` moves each similarity by at most about
# 2 * step; gradcheck keeps similarities this many steps apart.
KINK_MARGIN_STEPS = 100

OBJECTIVE_PRESETS = {
    "actol": None,
    "vlo-pair": TnceConfig("vlo-pair", "farther-frames", "difference-score"),
    "last-frame": TnceConfig("last-frame", "other-frames", "direct-sim"),
    "future-frame": TnceConfig("future-frame", "other-frames", "direct-sim"),
}


class ConfigError(Exception):
    pass


class JsonType(NamedTuple):
    """A config value's JSON type (integer, number, boolean, string, list or
    object), as the README names it, and the kind its values are. An object
    has a table of its keys, and may have a context to prefix its errors."""

    name: str
    kind: kinds.Kind
    table: dict | None = None
    context: str = ""


def _block(table: dict, context: str = "") -> JsonType:
    """A JSON object whose keys are table's: key -> (JsonType, default), where
    a default of ... marks a key every config must give."""
    kind = kinds.Kind("a JSON object", lambda v: isinstance(v, dict))
    return JsonType("object", kind, table, context)


def _list_of(test, text: str) -> JsonType:
    return JsonType("list", kinds.Kind(text, lambda v: isinstance(v, list) and all(map(test, v))))


def _name_list(known, repeats: bool = False) -> JsonType:
    """A non-empty list of names in known, distinct unless repeats: outputs
    keyed by name need distinct names, but a check may run twice."""
    text = f"a non-empty list of {'' if repeats else 'distinct '}names from {', '.join(known)}"
    return JsonType("list", kinds.Kind(text, lambda v: (
        isinstance(v, list) and len(v) > 0
        and all(isinstance(name, str) and name in known for name in v)
        and (repeats or len(set(v)) == len(v))
    )))


INTEGER = JsonType("integer", kinds.INTEGER)
NUMBER = JsonType("number", kinds.NUMBER)
BOOLEAN = JsonType("boolean", kinds.BOOLEAN)
STRING = JsonType("string", kinds.Kind("a string", lambda v: isinstance(v, str)))
# open() would take an integer as a file descriptor
PATH = JsonType("string", kinds.Kind("a path string", lambda v: isinstance(v, str)))
INTEGERS = _list_of(kinds.INTEGER.test, "a list of integers")
NUMBERS = _list_of(kinds.NUMBER.test, "a list of numbers")
# a null seed would draw fresh entropy and break reruns
SEED = JsonType("integer", kinds.SEED)
# counts of the CLI's own loops and clip shapes, which no library call checks first
COUNT = JsonType("integer", kinds.counts(1, kinds.MAX_DRAWS))
SIZE = JsonType("integer", kinds.counts(2, kinds.MAX_DRAWS))
STEP = JsonType("number", kinds.POSITIVE)
# JSON types of the dataclass field annotations a config block sets
FIELD_TYPES = {"int": INTEGER, "float": NUMBER, "bool": BOOLEAN, "str": STRING}


def _fields(cls, context: str) -> JsonType:
    """cls's fields but seed (the config seed sets it) as a block; cls checks their values."""
    table = {f.name: (FIELD_TYPES[f.type], f.default) for f in fields(cls) if f.name != "seed"}
    return _block(table, context)


TRAIN = _fields(TrainConfig, "bad train config: ")
SYNTHETIC = _fields(SyntheticClipSpec, "bad synthetic clip spec: ")
LOSSES = ("vlo", "bb", "total")
# verify's parameter blocks, one per check (lower_bound is lower-bound's)
CHECK_BLOCKS = {
    "lower_bound": {"clips": (INTEGER, 1000), "t_range": (INTEGERS, (3, 12)),
                    "d_range": (INTEGERS, (2, 16))},
    "tightness": {"timestamps": (NUMBERS, (0, 1, 2, 3)), "eps": (NUMBERS, (1.0, 0.1, 0.01))},
    "lipschitz": {"dim": (INTEGER, 8), "trials": (INTEGER, 10000)},
    "robustness": {"dim": (INTEGER, 8), "delta_l": (NUMBERS, (0.01, 0.1, 0.5)),
                   "trials": (INTEGER, 10000)},
    "bridge_stats": {"dim": (INTEGER, 6), "samples": (INTEGER, 10000), "t_end": (INTEGER, 10),
                     "tolerance": (NUMBER, 0.05)},
}

# every command takes a seed, which --seed overrides
COMMON = {"seed": (SEED, 0)}
COMMANDS = {
    "train": {
        "clip": (_block({"file": (PATH, None), "synthetic": (SYNTHETIC, None)}), ...),
        "train": (TRAIN, {}),
    },
    "verify": {
        "checks": (_name_list([b.replace("_", "-") for b in CHECK_BLOCKS], True), ...),
        "debug_flip_bb_variance_sign": (BOOLEAN, False),
        **{b: (_block(t, f"bad {b} parameters: "), {}) for b, t in CHECK_BLOCKS.items()},
    },
    "reward": {
        "synthetic": (SYNTHETIC, ...),
        "objectives": (_name_list(OBJECTIVE_PRESETS), ...),
        "train": (TRAIN, {}),
        "seeds": (COUNT, 20),
    },
    "gradcheck": {
        "losses": (_name_list(LOSSES), LOSSES),
        "clips": (COUNT, 20),
        "T": (SIZE, 6),
        "d": (SIZE, 5),
        "step": (STEP, DEFAULT_STEP),
    },
}


def _resolve(table: dict, config: dict, context: str = "", label: str = "") -> dict:
    """config's value for each key of table, type-checked, or its default;
    nested objects resolve alike. An unknown key, a missing required one or
    a value of the wrong type is a ConfigError, which names the key by its
    path below the innermost object with a context, after that context."""
    unknown = [key for key in config if key not in table]
    if unknown:
        raise ConfigError(f"{context}unknown {label}{' ' if label else ''}key(s) {unknown}")
    values = {}
    for key, (kind, default) in table.items():
        where, name = (kind.context, key) if kind.context else (context, f"{label} {key}".lstrip())
        value = config.get(key, default)
        if value is ...:
            raise ConfigError(f"{where}missing required config field {name!r}")
        if key in config:
            _checked(where, kind.kind.check, name, value)
        if kind.table is not None and value is not None:
            value = _resolve(kind.table, value, where, "" if kind.context else name)
        values[key] = value
    return values


def _load_config(path, seed, command):
    """The config at path as written, with its seed set (to seed, if not
    None), and its values under the command's table."""
    try:
        with open(path) as f:
            config = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    if seed is not None:
        config["seed"] = seed
    values = _resolve({**COMMON, **COMMANDS[command]}, config)
    config.setdefault("seed", values["seed"])  # every output echoes the seed it ran with
    return config, values


def _checked(context, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a ValueError (a bad value) as a ConfigError after context."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{context}{exc}") from exc


def _json_text(value, pad="\n") -> str:
    """json.dumps(value, indent=2), with pad (a newline and the indent) for
    each newline: a list of plain finite floats, or of plain ints, is a join
    of their reprs (json's text for them), and any other value json's text."""
    inner = pad + "  "
    if isinstance(value, (list, tuple)) and value:
        types = set(map(type, value))  # a NaN or an infinity (or an overflow) makes sum non-finite
        plain = types == {float} and math.isfinite(sum(value)) or types == {int}
        items = map(repr, value) if plain else (_json_text(v, inner) for v in value)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        items = (json.dumps(key) + ": " + _json_text(v, inner) for key, v in value.items())
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return json.dumps(value, indent=2 if isinstance(value, dict) else None).replace("\n", pad)


def _write_json(path, config, payload):
    out = {"schema_version": SCHEMA_VERSION, "config": config, **payload}
    Path(path).write_text(_json_text(out) + "\n")


def _write_csv(path, header, rows):
    # full double precision via shortest round-trip formatting (np.float64's repr names its type)
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            cells = (float.__repr__(x) if isinstance(x, float) else str(x) for x in row)
            f.write(",".join(cells) + "\n")


def _clip(values, seed):
    """The clip of a train config's clip block: from its file or its spec."""
    path, spec = values["file"], values["synthetic"]
    if (path is None) == (spec is None):
        raise ConfigError("clip config needs exactly one of 'file' and 'synthetic'")
    if path is not None:
        try:
            return ClipSequence.load(path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot load clip {path}: {exc}") from exc
    return generate_clip(_checked(SYNTHETIC.context, SyntheticClipSpec, seed=seed, **spec))[0]


@click.group()
def main():
    """Temporal-coherence objectives: train, verify, reward, gradcheck."""


def _command(body):
    """The command named after body: it loads the config under its table and
    exits with the code of body(values, out directory, config as written)."""

    @main.command(name=body.__name__, help=body.__doc__)
    @click.option("--seed", default=None, type=int, help="Overrides the config seed.")
    @click.option("--out", "out_dir", default=".", type=click.Path())
    @click.option("--config", "config_path", required=True, type=click.Path())
    def command(config_path, out_dir, seed):
        try:
            config, values = _load_config(config_path, seed, body.__name__)
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            code = body(values, out, config)
        except (ConfigError, TrainingDiverged, FloatingPointError) as exc:
            click.echo(f"error: {exc}", err=True)
            code = EXIT_BAD_CONFIG if isinstance(exc, ConfigError) else EXIT_NON_FINITE
        except MemoryError as exc:  # a size under the ceiling can still exhaust memory
            click.echo(f"error: out of memory: {exc}", err=True)
            code = EXIT_BAD_CONFIG
        sys.exit(code)

    return command


@_command
def train(values, out, config):
    """Optimize a clip's embeddings; write history.csv and final_clip.json."""
    clip = _clip(values["clip"], values["seed"])
    cfg = _checked(TRAIN.context, TrainConfig, seed=values["seed"], **values["train"])
    history = train_free(clip, cfg)
    rows = [(i, r.vlo, r.bb, r.total, r.lower_bound, r.gap) for i, r in enumerate(history.records)]
    _write_csv(out / "history.csv", ("step", "vlo", "bb", "total", "lower_bound", "gap"), rows)
    _write_json(out / "final_clip.json", config, history.final_clip.to_dict())
    return EXIT_OK


def _report_robustness(dim, delta_l, trials, rng):
    v_i, v_j, l = random_units((3, dim), rng)
    reports = [check_robustness(v_i, v_j, l, delta, trials, rng) for delta in delta_l]
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


@_command
def verify(values, out, config):
    """Run theorem checks; write theorem_reports.json. Exit 1 on violation."""
    # the checks run in list order, all drawing from one Generator
    rng = np.random.default_rng(values["seed"])
    sign = -1.0 if values["debug_flip_bb_variance_sign"] else 1.0
    # a block's keys name its check's parameters
    reporters = {
        "lower_bound": lambda p: lower_bound_report(**p, seed=rng),
        "tightness": lambda p: check_tightness(p["timestamps"], p["eps"]),
        "lipschitz": lambda p: lipschitz_pairs_report(**p, seed=rng),
        "robustness": lambda p: _report_robustness(**p, rng=rng),
        "bridge_stats": lambda p: bridge_stats_report(**p, seed=rng, variance_sign=sign),
    }
    # the checks and samplers raise ValueError only for a bad argument
    blocks = [name.replace("-", "_") for name in values["checks"]]
    reports = [_checked(f"bad {b} parameters: ", reporters[b], values[b]) for b in blocks]
    _write_json(out / "theorem_reports.json", config, {"reports": [r.to_dict() for r in reports]})
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


@_command
def reward(values, out, config):
    """Compare objectives on synthetic clips; write reward CSVs and comparison.json."""
    spec = _checked(SYNTHETIC.context, SyntheticClipSpec, **values["synthetic"])
    objectives = [ObjectiveSpec(name, OBJECTIVE_PRESETS[name]) for name in values["objectives"]]
    cfg = _checked(TRAIN.context, TrainConfig, seed=values["seed"], **values["train"])
    seeds = [values["seed"] + k for k in range(values["seeds"])]
    record = compare_objectives(spec, objectives, cfg, seeds)
    header = ("frame_index", "timestamp", "raw_reward", "normalized_reward")
    for (seed, name), clip in record.final_clips.items():
        _write_csv(out / f"reward_{name}_seed{seed}.csv", header, curve_rows(clip))
    payload = {
        "completion_index": spec.completion_index,
        "median_error": record.median_error,
        "per_seed": [
            {"seed": r.seed, "argmax": r.argmax_by_objective, "error": r.error_by_objective}
            for r in record.results
        ],
    }
    _write_json(out / "comparison.json", config, payload)
    return EXIT_OK


def _sample_away_from_kinks(rng, T, d, step):
    """Random clip whose similarities are pairwise at least
    KINK_MARGIN_STEPS finite-difference steps apart, so no central
    difference crosses the alignment score's absolute-value kink. A step too
    large for T similarities in [-1, 1] is a ConfigError naming the widest gap drawn."""
    gaps = []  # each draw's gap between its closest similarities
    for _ in range(100):
        clip = random_clip(T, d, rng)
        gaps.append(np.min(np.diff(np.sort(clip.similarities()))))
        if gaps[-1] >= KINK_MARGIN_STEPS * step:
            return clip
    raise ConfigError(f"step {step!r} too large: no clip of {T} frames in 100 draws has "
                      f"similarities {KINK_MARGIN_STEPS} steps apart; the widest closest-pair "
                      f"gap drawn was {max(gaps):.1e}")


@_command
def gradcheck(values, out, config):
    """Compare analytic gradients against finite differences; write gradcheck.json."""
    T, d, step = values["T"], values["d"], values["step"]
    rng = np.random.default_rng(values["seed"])
    worst = {}
    for loss in values["losses"]:  # a FloatingPointError (a non-finite loss) exits 3
        clips = [_sample_away_from_kinks(rng, T, d, step) for _ in range(values["clips"])]
        worst[loss] = max(_finite_diff_errors(loss, clips, step=step).tolist())
    _write_json(out / "gradcheck.json", config, {"max_relative_error": worst})
    return EXIT_OK if all(v < PASS_ERROR for v in worst.values()) else EXIT_CHECK_FAILED


if __name__ == "__main__":
    main()
