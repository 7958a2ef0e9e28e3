"""Fixed calibration loops that measure how fast the machine runs right now.

On a shared host the same pass can take twice as long from one minute to the
next, with process CPU time tracking wall time, so the slowdown is slower
execution, not waiting for a CPU. The measuring process runs a calibration
loop between passes and divides each pass's time by the loop's time around
it; that ratio moves with the program and not with the host's speed.

A loop only tracks the host's speed for work like its own, so each workload
names one of two loops (``Workload.calibration``):

- ``mixed``: interpreted Python over dicts and floats, many small numpy calls,
  and small dense solves; under 1 MB of arrays. For ``paper_reproduce`` and
  ``policy_search``.
- ``dense``: one LU solve at dimension 2000 on the default BLAS threads,
  which is bound by memory and threads like the large solves of
  ``ladder_scaling``; 64 MB at its peak, far below that workload's own.

The inputs are fixed and nothing in ``bounded_agents`` is called, so no change
to the package can move a loop. Its arrays are freed before it returns.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

PY_ROUNDS = 200_000
SMALL_ROUNDS = 3_500
SMALL_DENSE = (160, 100)  # (dimension, solves) in the mixed loop
LARGE_DENSE = (2000, 1)  # (dimension, solves) in the dense loop

# Each loop's median time, rounded, on the machine of the README's baseline.
# ``rescale`` expresses a pass's time on a machine where the loop takes this
# long; the constant sets the scale of ``wall_ref_s``, not any spread or ratio.
REF_S = {"mixed": 0.13, "dense": 0.22}


def _python_work() -> float:
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(PY_ROUNDS):
        table[i & 1023] = acc
        acc += (i * 0.5) % 7.0
    return acc + len(table)


def _small_numpy_work() -> float:
    a = np.arange(100, dtype=float).reshape(10, 10) / 100.0 + 10.0 * np.eye(10)
    b = np.ones(10)
    acc = 0.0
    for _ in range(SMALL_ROUNDS):
        acc += float(np.linalg.solve(a, b)[0]) + float(a.sum(axis=0)[1])
    return acc


def _dense_work(n: int, rounds: int) -> float:
    m = np.arange(n * n, dtype=float).reshape(n, n) % 17.0 / 17.0
    m.flat[:: n + 1] += n
    b = np.ones(n)
    acc = 0.0
    for _ in range(rounds):
        acc += float(np.linalg.solve(m, b)[0])
    return acc


def calibrate(kind: str) -> float:
    """Seconds the calibration loop of ``kind`` takes now."""
    start = perf_counter()
    if kind == "mixed":
        _python_work()
        _small_numpy_work()
        _dense_work(*SMALL_DENSE)
    elif kind == "dense":
        _dense_work(*LARGE_DENSE)
    else:
        raise ValueError(f"no calibration loop {kind!r}")
    return perf_counter() - start


def rescale(kind: str, pass_s: list[float], cal_s: list[float]) -> list[float]:
    """Each pass's time divided by the mean of the two loop times around it
    (``cal_s[i]`` and ``cal_s[i + 1]`` bracket pass ``i``), times REF_S."""
    return [REF_S[kind] * w * 2.0 / (before + after)
            for w, before, after in zip(pass_s, cal_s, cal_s[1:])]
