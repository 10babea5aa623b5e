"""A fixed reference kernel, timed between trials, that scales wall times to one machine speed.

The benchmark's host shares its cores: identical work takes up to 1.5x
longer from one second or minute to the next, so raw wall times of two
runs of the same code differ by more than a performance change should be
judged by. The probe below does a fixed amount of the kinds of work
trackplan does (an interpreter loop, small numpy calls, and a batched 4x4
covariance update over a boolean mask) and does not call trackplan, so a
change to the program does not change it. The benchmark times the probe
before and after every trial and scales the trial's times by
``REFERENCE_S`` over the probe time around it: a reported millisecond is
one at the speed at which the probe takes ``REFERENCE_S``.
"""
from __future__ import annotations

import time

import numpy as np

# Probe time at the reference speed. Timings stay comparable across commits
# only while this constant and the probe stay as they are.
REFERENCE_S = 0.010
REPEATS = 3  # the probe's time is the fastest of these, so a preemption does not count

_rng = np.random.default_rng(20220303)
_SENSORS = _rng.standard_normal((3, 2))
_P0 = _rng.standard_normal((729, 4, 4, 4))
_P0 = _P0 @ _P0.transpose(0, 1, 3, 2) + np.eye(4)
_OFFSETS = _rng.standard_normal((729, 4, 2)) * 10.0
_F = np.eye(4) + np.eye(4, k=2)
_EYE2 = np.eye(2)
_EYE4 = np.eye(4)


def _interpreter() -> int:
    total = 0
    for i in range(40_000):
        total += i * i
    return total


def _small_arrays() -> float:
    pos = _SENSORS.copy()
    acc = np.zeros(len(pos))
    for _ in range(250):
        dist = np.linalg.norm(pos - pos[0], axis=1)
        i = int(np.argmin(acc + dist))
        acc[i] += dist[i]
    return float(acc.sum())


def _update(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    s = p[:, :2, :2] + r
    det = s[:, 0, 0] * s[:, 1, 1] - s[:, 0, 1] * s[:, 1, 0]
    s_inv = np.empty_like(s)
    s_inv[:, 0, 0] = s[:, 1, 1]
    s_inv[:, 1, 1] = s[:, 0, 0]
    s_inv[:, 0, 1] = -s[:, 0, 1]
    s_inv[:, 1, 0] = -s[:, 1, 0]
    s_inv /= det[:, None, None]
    k = p[:, :, :2] @ s_inv
    a = np.broadcast_to(_EYE4, p.shape).copy()
    a[:, :, :2] -= k
    q = a @ p @ a.transpose(0, 2, 1) + k @ r @ k.transpose(0, 2, 1)
    return (q + q.transpose(0, 2, 1)) / 2.0


def _batched_update() -> float:
    p = _P0.copy()
    for step in range(2):
        p = _F @ p @ _F.T + 0.1
        for t in range(p.shape[1]):
            d = _OFFSETS[:, t, :] + step
            vis = np.abs(d[:, 0]) <= 8.0
            r = np.hypot(d[vis, 0], d[vis, 1])[:, None, None] * _EYE2 + 0.1
            pt = p[:, t]
            pt[vis] = _update(pt[vis], r)
    return float(np.trace(p, axis1=-2, axis2=-1).sum())


def probe() -> float:
    """Seconds the reference kernel takes now: the fastest of REPEATS runs."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _interpreter()
        _small_arrays()
        _batched_update()
        best = min(best, time.perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """Factor from wall time to reference-speed time for work timed between two probes."""
    return REFERENCE_S / ((before + after) / 2.0)
