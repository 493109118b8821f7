"""Benchmark worker: runs actol CLI operations in one process.

    python3 bench/worker.py probe CONFIG   import actol.cli, load CONFIG, print "ready",
                                           then print the reference loop's seconds
    python3 bench/worker.py run PLAN       run the operations PLAN describes

``run.py`` starts this with PYTHONPATH pointing at the checkout's ``src``
and the BLAS thread variables pinned to 1. Each operation is one
``actol <command> --config C --out D`` invocation through the click entry
point, so argument parsing, config loading and output writing are all
timed; a ``SystemExit`` code is the operation's exit code.

The plan holds a cycle of operations, each timed on its own. They run in
cycle order: the whole cycle once, then on until ``seconds`` have passed.
With ``trace`` set, half the budget runs untraced, then the tracer is
installed and the same operations are replayed traced, so the two passes
time identical work.

Every operation and every probe is paired with the time of a fixed
reference loop (``reference_s``), so ``run.py`` can rescale wall times
to one host speed. The loop is timed between operations, and in a probe
right after ``ready``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "ACTOL_THREADS")


def _import_cli(root: Path):
    import actol.cli as cli

    expected = (root / "src" / "actol").resolve()
    if Path(cli.__file__).resolve().parent != expected:
        raise SystemExit(f"error: imported actol from {cli.__file__}, not from {expected}")
    return cli


def reference_s() -> float:
    """Median seconds of three runs of a fixed loop that mixes what actol
    spends its time on: small numpy calls, a Python loop and one medium
    broadcast. It calls no actol code, so its time tracks only the host's
    speed. The host slows and speeds up by up to twofold for tens of
    seconds at a time, and this loop slows with it."""
    import numpy as np

    rng = np.random.default_rng(0)
    logits = rng.normal(size=(10, 10))
    logits[:, ::3] = -np.inf
    v = rng.normal(size=64)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for _ in range(500):
            m = logits.max(axis=1, keepdims=True)
            acc += float(np.log(np.exp(logits - m).sum(axis=1)).sum())
            acc += sum(x * 0.5 for x in range(30))
        for _ in range(6):
            mask = np.abs(v[:, None, None] - v[None, :, None]) >= np.abs(v[None, None, :])
            acc += float(mask.sum())
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probe(config_path: str) -> None:
    _import_cli(Path.cwd())
    with open(config_path) as f:
        json.load(f)
    print("ready", flush=True)
    print(reference_s(), flush=True)


def _invoke(cli, args) -> int:
    try:
        cli.main(args, standalone_mode=False)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        # An uncaught exception is exit 1 in a real process; keep running.
        traceback.print_exc()
        return 1
    return 0


def _run_op(cli, op, out_dir: Path, tracer, index: int) -> dict:
    args = [op["command"], "--config", op["config"], "--out", str(out_dir)]
    start = time.perf_counter()
    if tracer is None:
        code = _invoke(cli, args)
    else:
        tracer.op = index
        with tracer.span(f"cli.{op['command']}"):
            code = _invoke(cli, args)
    wall = time.perf_counter() - start
    return {
        "id": op["id"],
        "index": index,
        "command": op["command"],
        "out": str(out_dir),
        "exit_code": code,
        "wall_s": wall,
    }


def _run_ops(cli, cycle, out: Path, tag: str, tracer=None, budget=None, count=None):
    """Run operations in cycle order: exactly ``count`` of them, or the
    whole cycle once and then on until ``budget`` seconds have passed."""
    records = []
    start = time.perf_counter()
    ref_before = reference_s()
    while True:
        k = len(records)
        if count is not None:
            if k >= count:
                break
        elif k >= len(cycle) and time.perf_counter() - start >= budget:
            break
        rec = _run_op(cli, cycle[k % len(cycle)], out / f"{tag}{k:03d}", tracer, k)
        ref_after = reference_s()
        rec["reference_s"] = (ref_before + ref_after) / 2
        ref_before = ref_after
        records.append(rec)
    return records


def environment(root: Path) -> dict:
    try:
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (ImportError, KeyError, TypeError):
        blas_name = "unknown"
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu
            )
    except OSError:
        pass
    head = root / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "packages": {p: metadata.version(p) for p in ("numpy", "scipy", "click")},
        "blas": blas_name,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
    }


def run(plan_path: str) -> None:
    root = Path.cwd()
    with open(plan_path) as f:
        plan = json.load(f)
    out = Path(plan["out"])
    cli = _import_cli(root)
    # Input files are named relative to the inputs directory, so outputs
    # that echo the config do not depend on where the checkout lives.
    os.chdir(plan["inputs"])
    budget = plan["seconds"] / 2 if plan["trace"] else plan["seconds"]
    untraced = _run_ops(cli, plan["cycle"], out, "op", budget=budget)
    result = {
        "env": environment(root),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "untraced": untraced,
    }
    if plan["trace"]:
        from tracing import Tracer, install

        tracer = Tracer()
        result["rebound"] = install(tracer)
        result["traced"] = _run_ops(
            cli, plan["cycle"], out, "traced", tracer, count=len(untraced)
        )
        tracer.write_spans(out / "spans.csv.gz")
        result["trace"] = tracer.summary()
    with open(out / "worker.json", "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in ("probe", "run"):
        raise SystemExit(__doc__)
    {"probe": probe, "run": run}[sys.argv[1]](sys.argv[2])
