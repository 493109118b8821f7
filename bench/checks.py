"""Output checks and fingerprints for benchmark operations.

Each check reads the operation's config and output directory and returns
a list of problems; an empty list means the operation is correct. The
checks hold for any workload seed: they test invariants of the commands,
not recorded values.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from pathlib import Path

UNIT_NORM_TOL = 1e-9
GRADCHECK_TOL = 1e-5


def csv_rows(path: Path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def _finite_floats(row) -> list:
    values = [float(x) for x in row]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"non-finite value in row {row}")
    return values


def check_train(cfg: dict, out: Path) -> list:
    problems = []
    steps = cfg["train"]["steps"]
    header, rows = csv_rows(out / "history.csv")
    if len(rows) != steps:
        problems.append(f"history.csv has {len(rows)} rows, expected {steps}")
    gap_col = header.index("gap")
    for row in rows:
        try:
            values = _finite_floats(row)
        except ValueError as exc:
            problems.append(f"history.csv: {exc}")
            break
        if len(values) != len(header):
            problems.append(f"history.csv row of width {len(values)}: {row}")
            break
        # Lower-bound theorem: the ordering loss stays strictly above its
        # bound for T >= 3.
        if not values[gap_col] > 0:
            problems.append(f"history.csv step {row[0]}: gap {values[gap_col]} is not > 0")
            break
    with open(out / "final_clip.json") as f:
        clip = json.load(f)
    for t, v in enumerate(clip["embeddings"]):
        norm = math.sqrt(math.fsum(x * x for x in v))
        if not abs(norm - 1.0) <= UNIT_NORM_TOL:
            problems.append(f"final embedding {t} has norm {norm!r}")
            break
    return problems


def check_reward(cfg: dict, out: Path) -> list:
    problems = []
    T = cfg["synthetic"]["T"]
    objectives = cfg["objectives"]
    seeds = [cfg["seed"] + k for k in range(cfg["seeds"])]
    expected = {f"reward_{o}_seed{s}.csv" for s in seeds for o in objectives}
    found = {p.name for p in out.glob("reward_*.csv")}
    if found != expected:
        problems.append(f"reward CSVs {sorted(found ^ expected)} missing or unexpected")
    for name in sorted(found & expected):
        _, rows = csv_rows(out / name)
        if len(rows) != T:
            problems.append(f"{name} has {len(rows)} rows, expected {T}")
    with open(out / "comparison.json") as f:
        comparison = json.load(f)
    per_seed = comparison["per_seed"]
    if [r["seed"] for r in per_seed] != seeds:
        problems.append("comparison.json per_seed does not list the configured seeds")
    for r in per_seed:
        for o in objectives:
            if not 1 <= r["argmax"][o] <= T:
                problems.append(f"seed {r['seed']} {o}: argmax {r['argmax'][o]} outside [1, {T}]")
    for o in objectives:
        recomputed = statistics.median(r["error"][o] for r in per_seed)
        if comparison["median_error"][o] != recomputed:
            problems.append(
                f"median_error[{o}] = {comparison['median_error'][o]}, recomputed {recomputed}"
            )
    return problems


def check_verify(cfg: dict, out: Path) -> list:
    with open(out / "theorem_reports.json") as f:
        reports = json.load(f)["reports"]
    problems = []
    if len(reports) != len(cfg["checks"]):
        problems.append(f"{len(reports)} reports for {len(cfg['checks'])} checks")
    problems += [f"check {r['theorem']} failed" for r in reports if r["passed"] is not True]
    return problems


def check_gradcheck(cfg: dict, out: Path) -> list:
    with open(out / "gradcheck.json") as f:
        errors = json.load(f)["max_relative_error"]
    losses = cfg.get("losses", ["vlo", "bb", "total"])
    problems = []
    if sorted(errors) != sorted(losses):
        problems.append(f"gradcheck reports {sorted(errors)}, expected {sorted(losses)}")
    for loss, err in errors.items():
        if not (math.isfinite(err) and err < GRADCHECK_TOL):
            problems.append(f"gradcheck {loss}: max relative error {err!r}")
    return problems


CHECKS = {
    "train": check_train,
    "reward": check_reward,
    "verify": check_verify,
    "gradcheck": check_gradcheck,
}


def check_op(command: str, config_path, out, exit_code: int) -> list:
    """Problems with one operation; a non-zero exit is always one."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    with open(config_path) as f:
        cfg = json.load(f)
    try:
        problems += CHECKS[command](cfg, Path(out))
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems


def fingerprint(out) -> str:
    """SHA-256 over every output file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(Path(out).rglob("*")):
        if path.is_file():
            h.update(path.relative_to(out).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
    return h.hexdigest()
