"""Self-test of the benchmark's own checks, run from the root of a checkout:

    python3 bench/selftest.py

Negative controls prove that the output checks can fail: a ``verify`` run
with the bridge-variance sign flipped and a truncated ``history.csv`` must
both count as failed operations, while their unmodified twins pass. A
small traced run must match the call counts derived from its config, and
the benchmark must refuse to run in a directory that holds only the
benchmark's own files. Exits 1 if any expectation fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from checks import check_op

SMALL_TRAIN = {
    "seed": 0,
    "clip": {"synthetic": {"T": 6, "d": 4, "completion_index": 3, "tail_mode": "drift-away"}},
    "train": {"learning_rate": 0.05, "steps": 5, "bb_weight": 0.1, "temperature": 0.5},
}
BRIDGE_ONLY = {"seed": 0, "checks": ["bridge-stats"], "bridge_stats": {"samples": 2000}}
SMALL_GRADCHECK = {"seed": 1, "losses": ["vlo", "bb", "total"], "clips": 2, "T": 4, "d": 3}


def _plan(out: Path, ops, trace: int) -> dict:
    return {
        "cycle": ops,
        "seconds": 0,
        "trace": trace,
        "out": str(out),
        "inputs": str(out),
    }


def main() -> int:
    root = Path.cwd()
    out = root / ".bench_out" / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    configs = {
        "train": SMALL_TRAIN,
        "verify": BRIDGE_ONLY,
        "verify-flipped": {**BRIDGE_ONLY, "debug_flip_bb_variance_sign": True},
        "gradcheck": SMALL_GRADCHECK,
    }
    ops = []
    for op_id, cfg in configs.items():
        path = run._write(out / f"{op_id}.json", cfg)
        ops.append({"id": op_id, "command": op_id.split("-")[0], "config": path})
    ops_by_id = {op["id"]: op for op in ops}
    env = run.subprocess_env(root)
    worker = run.run_worker(root, env, _plan(out, ops, trace=1), out, timeout=150)
    untraced = run.check_ops(worker["untraced"], ops_by_id, {})
    rec = {r["id"]: r for r in untraced}

    results = []

    def expect(name, ok):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name}")

    expect("train output passes its check", not rec["train"]["problems"])
    expect("verify output passes its check", not rec["verify"]["problems"])
    expect("gradcheck output passes its check", not rec["gradcheck"]["problems"])
    expect("flipped bridge variance counts as failed", bool(rec["verify-flipped"]["problems"]))

    history = Path(rec["train"]["out"]) / "history.csv"
    lines = history.read_text().splitlines(keepends=True)
    history.write_text("".join(lines[:-1]))
    truncated = check_op("train", ops_by_id["train"]["config"], rec["train"]["out"], 0)
    expect("truncated history.csv counts as failed", bool(truncated))

    traced = run.check_ops(worker["traced"], ops_by_id, {})
    metrics = run.per_layer(worker["trace"], untraced, traced, ops_by_id)
    expect(
        "traced call counts match the configs (train: vlo_loss once per step; "
        "gradcheck: finite_diff_check once per loss and clip)",
        metrics["trace.count_mismatches"][0] == 0,
    )

    bare = out / "bare"
    (bare / "bench").mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    for f in run.HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "checks", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=170,
    )
    printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
    expect("refuses to run without the sources", proc.returncode != 0 and not printed_result)

    print(json.dumps({"passed": sum(results), "failed": len(results) - sum(results)}))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
