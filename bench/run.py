"""actol benchmark: drives the actol CLI on inputs generated from a seed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src`` directory. Inputs, outputs and traces go to ``.bench_out/``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``) of
BENCHMARK.json. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from checks import check_op, csv_rows, fingerprint
from tracing import LAYERS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 31
# Seconds worker.reference_s takes at the host speed that end-to-end times
# are rescaled to: its median on the machine where the baseline was taken.
REFERENCE_S = 0.0098
RUN_LIMIT_S = 170

# Several seeds per reward operation, so compare_objectives fans seeds out
# and comparison.json's medians cover several values. The README config's
# 20 seeds would make one operation about 24 s, longer than a run.
REWARD_CONFIGS, REWARD_SEEDS_PER_OP = 3, 4
TRAIN_LONG_T, TRAIN_LONG_D, TRAIN_LONG_STEPS = 128, 32, 20
VERIFY_CHECKS = ["lower-bound", "tightness", "lipschitz", "robustness", "bridge-stats"]
ROBUSTNESS_DELTAS = 3  # default robustness.delta_l has three entries
# gradcheck runs the README's config whatever the workload seed. On about one
# seed in seven actol's gradcheck reports a false failure: its finite
# differences cross an alignment-score kink the sampler does not see, or
# round off on a gradient component near 1e-6. The gradients are right; see
# "Known false failures of gradcheck" in bench/README.md.
GRADCHECK = {"seed": 1, "losses": ["vlo", "bb", "total"], "clips": 20, "T": 6, "d": 5}


class BenchError(Exception):
    pass


def _write(path: Path, obj) -> str:
    with open(path, "w") as f:
        json.dump(obj, f)
    return str(path)


def _unit_vector(rng: random.Random, d: int) -> list:
    v = [rng.gauss(0.0, 1.0) for _ in range(d)]
    norm = math.sqrt(math.fsum(x * x for x in v))
    return [x / norm for x in v]


# Each workload writes its inputs and returns its cycle: a list of
# {id, command, config} operations. Every run completes the whole cycle at
# least once, so its output fingerprint is comparable between runs.


def reward_drift(rng: random.Random, inputs: Path):
    cycle = []
    base = rng.randrange(1_000_000)
    for k in range(REWARD_CONFIGS):
        cfg = {
            "seed": base + k * REWARD_SEEDS_PER_OP,
            "synthetic": {
                "T": 10,
                "d": 8,
                "completion_index": 5,
                "tail_mode": "drift-away",
                "noise_sigma": 0.05,
            },
            "objectives": ["actol", "last-frame"],
            "train": {"learning_rate": 0.05, "steps": 300, "temperature": 0.5},
            "seeds": REWARD_SEEDS_PER_OP,
        }
        path = _write(inputs / f"reward{k}.json", cfg)
        cycle.append({"id": f"reward{k}", "command": "reward", "config": path})
    return cycle


def train_long(rng: random.Random, inputs: Path):
    cycle = []
    for k in range(3):
        clip_file = f"clip{k}.json"
        clip = {
            "d": TRAIN_LONG_D,
            # uniform spacing, as in fixed-fps video: every distance repeats
            "timestamps": list(range(TRAIN_LONG_T)),
            "embeddings": [_unit_vector(rng, TRAIN_LONG_D) for _ in range(TRAIN_LONG_T)],
            "language": _unit_vector(rng, TRAIN_LONG_D),
        }
        _write(inputs / clip_file, clip)
        cfg = {
            "seed": rng.randrange(1_000_000),
            # relative to the inputs directory, where the worker runs
            "clip": {"file": clip_file},
            "train": {
                "learning_rate": 0.05,
                "steps": TRAIN_LONG_STEPS,
                "bb_weight": 0.1,
                "temperature": 0.5,
            },
        }
        path = _write(inputs / f"train{k}.json", cfg)
        cycle.append({"id": f"train{k}", "command": "train", "config": path})
    return cycle


def checks(rng: random.Random, inputs: Path):
    verify_cfg = {"seed": rng.randrange(1_000_000), "checks": VERIFY_CHECKS}
    verify = _write(inputs / "verify.json", verify_cfg)
    grad = _write(inputs / "gradcheck.json", GRADCHECK)
    return [
        {"id": "verify", "command": "verify", "config": verify},
        {"id": "gradcheck", "command": "gradcheck", "config": grad},
    ]


WORKLOADS = {"reward-drift": reward_drift, "train-long": train_long, "checks": checks}


def _config(op) -> dict:
    with open(op["config"]) as f:
        return json.load(f)


def steps_of(op) -> int:
    """Optimiser steps one operation runs."""
    cfg = _config(op)
    if op["command"] == "train":
        return cfg["train"]["steps"]
    if op["command"] == "reward":
        return cfg["seeds"] * len(cfg["objectives"]) * cfg["train"]["steps"]
    return 0


def expected_calls(op) -> Counter:
    """Traced call counts that follow from an operation's config."""
    cfg = _config(op)
    c = Counter()
    if op["command"] == "train":
        c["trainer.train_free"] = 1
        c["losses.vlo_loss"] = cfg["train"]["steps"]
    elif op["command"] == "reward":
        c["reward.compare_objectives"] = 1
        c["trainer.train_free"] = cfg["seeds"] * len(cfg["objectives"])
        c["synthetic.generate_clip"] = cfg["seeds"]
    elif op["command"] == "verify":
        names = {
            "lower-bound": "theory.check_lower_bound",
            "tightness": "theory.check_tightness",
            "lipschitz": "theory.lipschitz_pairs_report",
            "bridge-stats": "theory.bridge_stats_report",
        }
        for check in cfg["checks"]:
            if check == "robustness":
                c["theory.check_robustness"] += ROBUSTNESS_DELTAS
            else:
                c[names[check]] += 1
    elif op["command"] == "gradcheck":
        c["gradients.finite_diff_check"] = len(cfg["losses"]) * cfg["clips"]
    return c


def subprocess_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("ACTOL_THREADS", None)
    env.update(
        PYTHONPATH=str(root / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def measure_setup(root: Path, env: dict, config: str) -> list:
    """(seconds, reference seconds) for SETUP_PROBES probes after one
    unmeasured probe (which writes the bytecode cache). The seconds run from
    starting a fresh interpreter until actol.cli is imported and a config is
    loaded; the probe then times the reference loop."""
    probes = []
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "probe", config],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            reference = proc.stdout.readline()
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if proc.returncode != 0 or line.strip() != b"ready":
            raise BenchError(f"setup probe failed with exit code {proc.returncode}")
        if i:
            probes.append((elapsed, float(reference)))
    return probes


def run_worker(root: Path, env: dict, plan: dict, run_dir: Path, timeout: float) -> dict:
    plan_path = _write(run_dir / "plan.json", plan)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "run", plan_path],
        cwd=root,
        env=env,
        stdout=sys.stderr,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    with open(run_dir / "worker.json") as f:
        return json.load(f)


def check_ops(records, ops_by_id, hashes: dict) -> list:
    """Check every operation's output and fingerprint it. An operation is
    failed if its check finds a problem or if its fingerprint differs from
    an earlier run of the same config (reruns must be byte-identical)."""
    checked = []
    for rec in records:
        op = ops_by_id[rec["id"]]
        problems = check_op(op["command"], op["config"], rec["out"], rec["exit_code"])
        digest = fingerprint(rec["out"])
        if hashes.setdefault(rec["id"], digest) != digest:
            problems.append("output differs from an earlier run of the same config")
        checked.append({**rec, "fingerprint": digest, "problems": problems})
        for p in problems:
            print(f"FAILED {rec['id']} ({rec['out']}): {p}", file=sys.stderr)
    return checked


def _output_bytes(out: str) -> int:
    return sum(p.stat().st_size for p in Path(out).rglob("*") if p.is_file())


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def summary(ops, ops_by_id) -> dict:
    """Workload-specific figures, printed and recorded but not gated: each
    exists on one workload only, and the gated metrics must exist on all."""
    out = {"host_factor": _median([r["reference_s"] for r in ops]) / REFERENCE_S}
    steps = sum(steps_of(ops_by_id[r["id"]]) for r in ops)
    if steps:
        out["steps_per_s"] = steps / sum(r["wall_s"] for r in ops)
    for command in ("verify", "gradcheck"):
        walls = [r["wall_s"] for r in ops if r["command"] == command]
        if walls:
            out[f"{command}_s"] = _median(walls)
    gaps, errors, seen = [], [], set()
    for r in ops:
        if r["id"] in seen or r["problems"]:
            continue
        seen.add(r["id"])
        if r["command"] == "train":
            header, rows = csv_rows(Path(r["out"]) / "history.csv")
            gaps.append(float(rows[-1][header.index("gap")]))
        elif r["command"] == "reward":
            with open(Path(r["out"]) / "comparison.json") as f:
                errors += [s["error"]["actol"] for s in json.load(f)["per_seed"]]
    if gaps:
        out["final_gap"] = _median(gaps)
    if errors:
        out["argmax_error"] = _median(errors)
    return out


def at_reference_speed(wall_s: float, reference_s: float) -> float:
    """A wall time rescaled to the host speed at which the reference loop
    takes REFERENCE_S. The host's speed drifts by up to twofold over tens of
    seconds; rescaling by the loop timed next to each measurement cancels
    that drift, which a median over one run cannot."""
    return wall_s * REFERENCE_S / reference_s


def end_to_end(ops, probes, peak_rss_kb) -> dict:
    failed = sum(1 for r in ops if r["problems"])
    # Commands differ in cost (checks runs verify and gradcheck), so op_s
    # adds the mean time of each command: its mean wall time rescaled by the
    # mean of its readings. A reading is two short samples around an
    # operation of seconds, so one reading can miss the operation's speed;
    # a ratio of means damps that better than a median of per-operation
    # ratios.
    by_command = {}
    for r in ops:
        wall, ref = by_command.get(r["command"], (0.0, 0.0))
        by_command[r["command"]] = (wall + r["wall_s"], ref + r["reference_s"])
    return {
        "setup_s": (_median([at_reference_speed(e, ref) for e, ref in probes]), "s"),
        "op_s": (sum(at_reference_speed(w, ref) for w, ref in by_command.values()), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
        "ok_ops_share": ((len(ops) - failed) / len(ops), "share"),
    }


def per_layer(t, untraced, traced, ops_by_id) -> dict:
    calls, incl, self_ns = Counter(t["calls"]), Counter(t["incl_ns"]), Counter(t["self_ns"])
    edges = Counter({(p, c): n for p, c, n in t["edges"]})
    n_ops = len(traced)
    steps = sum(steps_of(ops_by_id[r["id"]]) for r in traced)
    wall_ns = sum(v for k, v in incl.items() if k.startswith("cli."))

    def per_call(name, scale):
        return incl[name] / calls[name] / scale if calls[name] else 0.0

    def self_per_call(name, scale):
        return self_ns[name] / calls[name] / scale if calls[name] else 0.0

    def layer_self(layer):
        return sum(v for k, v in self_ns.items() if k.split(".")[0] == layer)

    objective_evals = sum(
        n
        for (p, c), n in edges.items()
        if p == "trainer.train_free"
        and c.split(".")[0] in ("losses", "gradients")
        and c not in ("losses.lower_bound", "losses.bb_loss")
    )
    fd_checks = calls["gradients.finite_diff_check"]
    fd_grads = sum(
        n
        for (p, c), n in edges.items()
        if p == "gradients.finite_diff_check" and c.startswith("gradients.grad_")
    )
    op_calls = Counter({(op, name): n for op, name, n in t["op_calls"]})
    mismatches = [
        (r["index"], name, want, op_calls[(r["index"], name)])
        for r in traced
        for name, want in sorted(expected_calls(ops_by_id[r["id"]]).items())
        if op_calls[(r["index"], name)] != want
    ]
    for index, name, want, got in mismatches:
        print(f"trace count mismatch in op {index}: {name} {got}, expected {want}", file=sys.stderr)
    pairs = [b["wall_s"] / a["wall_s"] for a, b in zip(untraced, traced)]

    m = {
        "cli.self_ms": (layer_self("cli") / n_ops / 1e6, "ms"),
        "cli.bytes_written": (sum(_output_bytes(r["out"]) for r in traced) / n_ops, "B/op"),
        "reward.compare_objectives.self_ms": (
            self_per_call("reward.compare_objectives", 1e6),
            "ms",
        ),
        "reward.reward_curve.us_per_call": (per_call("reward.reward_curve", 1e3), "us"),
        "trainer.train_free.self_us_per_step": (
            self_ns["trainer.train_free"] / steps / 1e3 if steps else 0.0,
            "us",
        ),
        "trainer.objective_evals_per_step": (
            objective_evals / steps if steps else 0.0,
            "count/step",
        ),
        "losses.vlo_loss.us_per_call": (per_call("losses.vlo_loss", 1e3), "us"),
        "losses.vlo_loss.calls": (calls["losses.vlo_loss"], "count"),
        "losses.tnce_loss.us_per_call": (per_call("losses.tnce_loss", 1e3), "us"),
        "losses.bb_loss.us_per_call": (per_call("losses.bb_loss", 1e3), "us"),
        "losses.lower_bound.us_per_call": (per_call("losses.lower_bound", 1e3), "us"),
        "losses.lower_bound.calls": (calls["losses.lower_bound"], "count"),
        "gradients.grad_vlo.us_per_call": (per_call("gradients.grad_vlo", 1e3), "us"),
        "gradients.grad_tnce.us_per_call": (per_call("gradients.grad_tnce", 1e3), "us"),
        "gradients.grad_bb.us_per_call": (per_call("gradients.grad_bb", 1e3), "us"),
        "gradients.finite_diff_check.ms_per_call": (
            per_call("gradients.finite_diff_check", 1e6),
            "ms",
        ),
        "gradients.finite_diff_check.calls": (fd_checks, "count"),
        "gradients.fd_grad_evals_per_check": (
            fd_grads / fd_checks if fd_checks else 0.0,
            "count/check",
        ),
        "gradients.fd_useful_grad_ratio": (fd_checks / fd_grads if fd_grads else 0.0, "ratio"),
        "clip.ClipSequence.calls": (calls["clip.ClipSequence"], "count"),
        "clip.ClipSequence.us_per_call": (per_call("clip.ClipSequence", 1e3), "us"),
        "clip.similarities.calls": (calls["clip.similarities"], "count"),
        "clip.alignment_score.us_per_call": (per_call("clip.alignment_score", 1e3), "us"),
    }
    for name in ("generate_clip", "random_clip", "sample_bridge", "perturb_language"):
        m[f"synthetic.{name}.us_per_call"] = (per_call(f"synthetic.{name}", 1e3), "us")
    for name in (
        "check_lower_bound",
        "check_tightness",
        "lipschitz_pairs_report",
        "check_robustness",
        "bridge_stats_report",
    ):
        m[f"theory.{name}.ms"] = (per_call(f"theory.{name}", 1e6), "ms")
    for layer in LAYERS:
        m[f"{layer}.self_share"] = (layer_self(layer) / wall_ns, "share")
    m["trace.overhead_share"] = (_median(pairs) - 1.0, "share")
    m["trace.count_mismatches"] = (len(mismatches) + t["stack_errors"], "count")
    return m


def fingerprint_of(hashes: dict, cycle) -> str:
    """Workload fingerprint: the per-config output hashes of one cycle."""
    ids = [op["id"] for op in cycle]
    return hashlib.sha256(json.dumps([[i, hashes[i]] for i in ids]).encode()).hexdigest()


def _recorded_fingerprint(workload: str, seed: int):
    path = HERE / "FINGERPRINTS.json"
    if not path.is_file():
        return None
    with open(path) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "actol" / "cli.py").is_file():
        print(f"error: no actol sources under {root / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    run_dir = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True)

    cycle = WORKLOADS[args.workload](random.Random(args.seed), inputs)
    ops_by_id = {op["id"]: op for op in cycle}
    env = subprocess_env(root)
    probes = [] if args.trace else measure_setup(root, env, cycle[0]["config"])
    plan = {
        "cycle": cycle,
        "seconds": args.seconds,
        "trace": args.trace,
        "out": str(run_dir),
        "inputs": str(inputs),
    }
    timeout = RUN_LIMIT_S - (time.perf_counter() - started)
    worker = run_worker(root, env, plan, run_dir, timeout)

    hashes = {}
    untraced = check_ops(worker["untraced"], ops_by_id, hashes)
    # Traced outputs must match the untraced ones byte for byte.
    traced = check_ops(worker.get("traced", []), ops_by_id, hashes)
    fp = fingerprint_of(hashes, cycle)
    records = untraced + traced
    failed = sum(1 for r in records if r["problems"])

    if args.trace:
        metrics = per_layer(worker["trace"], untraced, traced, ops_by_id)
    else:
        metrics = end_to_end(untraced, probes, worker["peak_rss_kb"])
    recorded = _recorded_fingerprint(args.workload, args.seed)
    if recorded is None:
        verdict = "not recorded"
    else:
        verdict = "matches recorded" if recorded == fp else "DIFFERS from recorded"
    info = summary(untraced, ops_by_id)
    with open(run_dir / "result.json", "w") as f:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "env": worker["env"],
                "setup_probes": probes,
                "fingerprint": fp,
                "op_fingerprints": hashes,
                "summary": info,
                "ops": records,
                "metrics": metrics,
            },
            f,
            indent=1,
        )
    print(f"fingerprint {fp} ({verdict})")
    print("summary " + json.dumps(info))
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
