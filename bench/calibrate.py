"""Fixed reference job that measures how fast the machine runs right now.

It runs a fixed mix of the kinds of work hpbl does: interpreter-bound
loops, small-array numpy calls, a sparse matrix-vector product that fits
in cache and one that does not.  It never calls hpbl, so a change to the
program under test cannot change its time.  Each benchmark child times it
right after its measured work, and bench/run.py divides the measured wall
time by it (see ``run.CAL_REF_S``).
"""

import time

import numpy as np
import scipy.sparse as sp

REPEAT = 2


def _python_loop() -> None:
    keys, parts = {}, []
    for i in range(80000):
        keys[(i % 613, i // 613)] = i * 0.5
        if i % 4 == 0:
            parts.append(f"{i * 0.125:.6f},{i % 97:.3f}")
    "".join(parts)


def _small_arrays() -> None:
    a = np.arange(48.0).reshape(6, 8)
    for _ in range(6000):
        np.einsum("ij,ij->i", a, a) + (a @ a.T).sum(axis=1)


def _matvec(n: int, iters: int) -> None:
    offsets = (-200, -1, 0, 1, 200)
    A = sp.diags([np.full(n - abs(o), 1.0 + abs(o) % 7) for o in offsets], offsets,
                 format="csr")
    x = np.linspace(0.0, 1.0, n)
    for _ in range(iters):
        x = A @ x
        x /= np.linalg.norm(x)


def job() -> None:
    # Each part alone tracks some workloads and not others: on this box the
    # interpreter loop slows up to 1.8x when the host is busy, while a
    # CG-bound study slows 1.3x and tracks the out-of-cache product best.
    _python_loop()
    _small_arrays()
    _matvec(40000, 120)
    _matvec(400000, 12)


def seconds() -> float:
    """Wall seconds of REPEAT runs of the job."""
    t0 = time.perf_counter()
    for _ in range(REPEAT):
        job()
    return time.perf_counter() - t0
