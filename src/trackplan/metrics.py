"""Tracking-error metrics.

OSPA combines an optimal-assignment localization term with a cardinality
penalty. The assignment is solved exactly by Crouse's shortest augmenting
path ("On implementing 2D rectangular assignment algorithms", IEEE TAES
2016), batched over a stack of point-set pairs, so a whole trial is scored
in one call::

    ospa(est_mean[..., :2], truth[..., :2], params)  # (K, n, 2), (K, m, 2) -> (K,)
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Most (point, point) distances ospa forms at once, 48 bytes each: it scores
# a stack of steps a bounded number of steps at a time, each step's
# assignment on its own, so a step's distance is the same in any chunk.
OSPA_PAIRS = 1 << 20


@dataclass(frozen=True)
class OspaParams:
    """Cutoff distance c (meters) and order p of the metric."""

    c: float = 50.0
    p: float = 2.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"OspaParams.c (cutoff) must be finite and > 0, got {self.c}")
        if not (math.isfinite(self.p) and self.p >= 1):
            raise ValueError(f"OspaParams.p (order) must be finite and >= 1, got {self.p}")


def _assign(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost assignment on each of K finite (nr, nc) cost matrices, nr <= nc.

    Returns the (K, nr) column assigned to each row. Each row is added by
    one shortest augmenting path, searched for every unfinished instance
    at once. The arithmetic (``min_val + cost - u[i] - v[j]``), the
    reversed swap-remove scan of the remaining columns and the tie rule
    (prefer an unassigned column) are those of scipy's
    ``linear_sum_assignment``, so ties resolve to the same columns.
    Per-column state is flat, indexed by k * nc + j, and per-row state by
    k * nr + i: one flat gather is far cheaper than a 2-D fancy index.
    """
    n_k, nr, nc = cost.shape
    flat_cost = cost.reshape(-1)
    every = np.arange(n_k)
    u = np.zeros(n_k * nr)
    v = np.zeros(n_k * nc)
    col4row = np.full(n_k * nr, -1)  # flat column of each flat row
    row4col = np.full(n_k * nc, -1)  # flat row of each flat column
    path = np.full(n_k * nc, -1)
    spc = np.empty(n_k * nc)  # shortest path cost to each column
    in_sc = np.empty(n_k * nc, dtype=bool)
    scan_order = (every * nc)[:, None] + np.arange(nc - 1, -1, -1)
    remaining = np.empty_like(scan_order)
    steps = np.arange(2 * nc)
    for cur in range(nr):
        spc.fill(np.inf)
        in_sc.fill(False)
        remaining[:] = scan_order
        min_val = np.zeros(n_k)
        sink = np.empty(n_k, dtype=int)
        live, rows = every, every * nr + cur
        n_rem = nc
        while live.size:
            rem = remaining[live, :n_rem]
            row_cost = flat_cost[rows[:, None] * nc + rem % nc]
            r = min_val[live, None] + row_cost - u[rows, None] - v[rem]
            s = spc[rem]
            better = r < s
            s = np.where(better, r, s)
            spc[rem] = s
            path[rem] = np.where(better, rows[:, None], path[rem])
            # The scan keeps the first minimum unless a later tie is unassigned:
            # unassigned ties rank by last scan position, above other ties by first.
            tie = s == s.min(axis=1, keepdims=True)
            free = tie & (row4col[rem] < 0)
            last, first = steps[n_rem : 2 * n_rem], steps[n_rem - 1 :: -1]
            idx = np.where(free, last, np.where(tie, first, -1)).argmax(axis=1)
            lane = np.arange(live.size)
            j = rem[lane, idx]
            min_val[live] = s[lane, idx]
            in_sc[j] = True
            remaining[live, idx] = remaining[live, n_rem - 1]
            n_rem -= 1
            owner = row4col[j]
            found = owner < 0
            sink[live[found]] = j[found]
            live, rows = live[~found], owner[~found]
        u[every * nr + cur] += min_val
        # The other rows this search reached own its columns, the sink excepted.
        sc = np.flatnonzero(in_sc)
        owner = row4col[sc]
        delta = min_val[sc // nc] - spc[sc]
        v[sc] -= delta
        u[owner[owner >= 0]] += delta[owner >= 0]
        j = sink
        while j.size:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            j = j[i % nr != cur]
    return (col4row % nc).reshape(n_k, nr)


def ospa(x: np.ndarray, y: np.ndarray, params: OspaParams) -> float | np.ndarray:
    """Optimal subpattern assignment distance between 2-D point sets.

    With b the larger and a the smaller cardinality:
    [(1/b) (min-assignment sum of min(c, d)^p + c^p (b - a))]^(1/p).
    Either set may be empty; two empty sets have distance 0. A pair of
    (n, 2) and (m, 2) sets gives a float; a pair of (K, n, 2) and
    (K, m, 2) stacks gives the (K,) distances of the K pairs. NaN
    coordinates raise ValueError; infinite ones saturate at c.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    stacked = x.ndim == 3 or y.ndim == 3
    if stacked:
        if x.ndim != 3 or y.ndim != 3 or x.shape[::2] != (y.shape[0], 2) or y.shape[2] != 2:
            raise ValueError(
                f"ospa: stacks must be (K, n, 2) and (K, m, 2), got {x.shape} and {y.shape}"
            )
    else:
        x, y = x.reshape(1, -1, 2), y.reshape(1, -1, 2)
    n_k, nx, ny = x.shape[0], x.shape[1], y.shape[1]
    step = max(1, OSPA_PAIRS // max(1, nx * ny))
    dist = np.empty(n_k)
    for lo in range(0, max(n_k, 1), step):  # one empty chunk of an empty stack
        dist[lo : lo + step] = _ospa_steps(x[lo : lo + step], y[lo : lo + step], params)
    return dist if stacked else float(dist[0])


def _ospa_steps(x: np.ndarray, y: np.ndarray, params: OspaParams) -> np.ndarray:
    """The (K,) OSPA distances of the (K, n, 2) and (K, m, 2) stacks."""
    n_k, nx, ny = x.shape[0], x.shape[1], y.shape[1]
    with np.errstate(invalid="ignore"):  # inf - inf is reported just below
        d = np.linalg.norm(x[:, :, None, :] - y[:, None, :, :], axis=-1)
    if np.isnan(x).any() or np.isnan(y).any() or np.isnan(d).any():
        raise ValueError("ospa: NaN coordinate, or an undefined (inf - inf) distance")
    a, b = sorted((nx, ny))
    if b == 0:
        dist = np.zeros(n_k)
    elif a == 0:
        dist = np.full(n_k, params.c)
    else:
        cost = np.minimum(d, params.c) ** params.p
        if nx <= ny:
            paired = np.take_along_axis(cost, _assign(cost)[:, :, None], 2)[:, :, 0]
        else:  # solved transposed; the pairs are summed in x order all the same
            rows = _assign(cost.transpose(0, 2, 1))
            paired = np.take_along_axis(cost, rows[:, None, :], 1)[:, 0, :]
            paired = np.take_along_axis(paired, np.argsort(rows, axis=1), 1)
        total = (paired.sum(axis=1) + params.c**params.p * (b - a)) / b
        # Scalar pow, not numpy's array power, which can differ in the last bit.
        dist = np.array([t ** (1.0 / params.p) for t in total.tolist()])
    return dist


def ospa_bytes(n_steps: int, n: int, m: int) -> int:
    """Most bytes ospa holds for stacks of n_steps pairs of n and m points,
    as tracemalloc measures them: per step of a chunk, 48 a (point, point)
    pair (the offsets, a copy and their squares in np.linalg.norm) or,
    where more, 256 a point of the larger set (the assignment's state); 8
    a step (the distances); and 64 KiB."""
    chunk = min(n_steps, max(1, OSPA_PAIRS // max(1, n * m)))
    return chunk * max(48 * n * m, 256 * max(n, m)) + 8 * n_steps + (64 << 10)


def ecdf(values) -> list[tuple[float, float]]:
    """Right-continuous empirical CDF as sorted (value, frequency) pairs."""
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("ecdf of empty input")
    uniq, counts = np.unique(arr, return_counts=True)
    freqs = np.cumsum(counts) / arr.size
    return [(float(v), float(f)) for v, f in zip(uniq, freqs)]
