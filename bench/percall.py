"""Per-call times at T=10, d=6, the conditions of the ROADMAP baseline:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/percall.py

Times ``vlo_loss``, ``grad_vlo``, scipy ``logsumexp`` on one 10x10 logits
array and a plain-numpy log-sum-exp of the same array. The four run
interleaved, 40 blocks of 100 calls each, so neighbouring blocks see the
same host speed. Prints min, quartiles and max of the per-block means in
microseconds, and the share of ``vlo_loss`` that its ten ``logsumexp``
calls take.
"""

import statistics
import time

import numpy as np
from scipy.special import logsumexp

from actol.gradients import grad_vlo
from actol.losses import vlo_loss
from actol.synthetic import random_clip

BLOCKS, CALLS = 40, 100


def numpy_lse(a):
    m = a.max(axis=1, keepdims=True)
    return np.log(np.exp(a - m).sum(axis=1)) + m[:, 0]


def main():
    clip = random_clip(10, 6, np.random.default_rng(0))
    logits = np.random.default_rng(1).normal(size=(10, 10))
    logits[:, ::3] = -np.inf  # masked entries, as in vlo_loss
    fns = {
        "vlo_loss": lambda: vlo_loss(clip, 0.5),
        "grad_vlo": lambda: grad_vlo(clip, 0.5),
        "scipy_logsumexp": lambda: logsumexp(logits, axis=1),
        "numpy_lse": lambda: numpy_lse(logits),
    }
    us = {name: [] for name in fns}
    for _ in range(BLOCKS):
        for name, fn in fns.items():
            start = time.perf_counter()
            for _ in range(CALLS):
                fn()
            us[name].append((time.perf_counter() - start) / CALLS * 1e6)
    for name, v in us.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        print(f"{name:16s} min {min(v):7.1f} q1 {q1:7.1f} median {med:7.1f} "
              f"q3 {q3:7.1f} max {max(v):7.1f} us")
    share = [10 * a / b for a, b in zip(us["scipy_logsumexp"], us["vlo_loss"])]
    print(f"share of vlo_loss in its ten logsumexp calls: {statistics.median(share):.2f}")


if __name__ == "__main__":
    main()
