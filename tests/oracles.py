"""Independent reference implementations used to pin expected values.

These deliberately avoid the library's own code paths: brute-force
enumeration and literal textbook recursions only.
"""
from __future__ import annotations

import itertools

import numpy as np


def ospa_brute(x, y, c: float, p: float) -> float:
    """OSPA by exhaustive enumeration of assignments (sets of size <= ~7)."""
    x = np.asarray(x, dtype=float).reshape(-1, 2)
    y = np.asarray(y, dtype=float).reshape(-1, 2)
    if len(x) > len(y):
        x, y = y, x
    a, b = len(x), len(y)
    if b == 0:
        return 0.0
    if a == 0:
        return c
    best = np.inf
    for perm in itertools.permutations(range(b), a):
        total = 0.0
        for i, j in enumerate(perm):
            total += min(c, float(np.linalg.norm(x[i] - y[j]))) ** p
        best = min(best, total)
    return float(((best + c**p * (b - a)) / b) ** (1.0 / p))


def kalman_predict(xi, p, f, q):
    xi = f @ xi
    p = f @ p @ f.T + q
    return xi, (p + p.T) / 2.0


def kalman_update_cov(p, r):
    """Covariance-only measurement update via the information form."""
    h = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    info = np.linalg.inv(p) + h.T @ np.linalg.inv(r) @ h
    p_new = np.linalg.inv(info)
    return (p_new + p_new.T) / 2.0


def information_fusion(xi, p, observations):
    """Centralized fusion of position measurements (z, R) in information form.

    Every measurement adds H^T R^-1 H to the information matrix P^-1 and
    H^T R^-1 z to the information vector P^-1 xi.
    """
    h = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    info = np.linalg.inv(p)
    vec = info @ xi
    for z, r in observations:
        r_inv = np.linalg.inv(r)
        info = info + h.T @ r_inv @ h
        vec = vec + h.T @ r_inv @ z
    p_new = np.linalg.inv(info)
    return p_new @ vec, (p_new + p_new.T) / 2.0
