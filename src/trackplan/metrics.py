"""Tracking-error metrics.

OSPA combines an optimal-assignment localization term with a cardinality
penalty; the assignment is solved exactly with the Hungarian method.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment


@dataclass(frozen=True)
class OspaParams:
    """Cutoff distance c (meters) and order p of the metric."""

    c: float = 50.0
    p: float = 2.0

    def __post_init__(self) -> None:
        if self.c <= 0:
            raise ValueError("cutoff c must be positive")
        if self.p < 1:
            raise ValueError("order p must be >= 1")


def ospa(x: np.ndarray, y: np.ndarray, params: OspaParams) -> float:
    """Optimal subpattern assignment distance between two 2-D point sets.

    With b the larger and a the smaller cardinality:
    [(1/b) (min-assignment sum of min(c, d)^p + c^p (b - a))]^(1/p).
    Either set may be empty; two empty sets have distance 0.
    """
    x = np.asarray(x, dtype=float).reshape(-1, 2)
    y = np.asarray(y, dtype=float).reshape(-1, 2)
    a, b = sorted((len(x), len(y)))
    if b == 0:
        return 0.0
    if a == 0:
        return params.c
    d = np.linalg.norm(x[:, None, :] - y[None, :, :], axis=-1)
    cost = np.minimum(d, params.c) ** params.p
    rows, cols = linear_sum_assignment(cost)
    total = cost[rows, cols].sum() + params.c**params.p * (b - a)
    return float((total / b) ** (1.0 / params.p))


def ecdf(values) -> list[tuple[float, float]]:
    """Right-continuous empirical CDF as sorted (value, frequency) pairs."""
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("ecdf of empty input")
    uniq, counts = np.unique(arr, return_counts=True)
    freqs = np.cumsum(counts) / arr.size
    return [(float(v), float(f)) for v, f in zip(uniq, freqs)]
