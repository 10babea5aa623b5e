"""The planner's MWTP matching run on one leaf, with its steps spelled out.

Tests audit the terminal penalty through this helper: it calls the block
matcher the planner runs (planning.mwtp_detailed) on a block of one leaf
that leaves every target uncovered, and turns each iteration into an
MwtpStep.
"""
from typing import NamedTuple

import numpy as np

from trackplan.planning import mwtp_detailed


class MwtpStep(NamedTuple):
    """One iteration of the terminal-penalty matching."""

    target_index: int
    sensor_index: int
    distance: float
    contributed: bool
    sensor_after: tuple[float, float]


def mwtp_leaf(sensor_xy, half_widths, target_xy, traces, beta) -> tuple[float, list[MwtpStep]]:
    """Penalty of one leaf and its matching steps, in matching order."""
    traces = np.asarray(traces, dtype=float)
    penalty, steps = mwtp_detailed(
        np.asarray(sensor_xy, dtype=float)[None],
        np.asarray(half_widths, dtype=float),
        np.asarray(target_xy, dtype=float).reshape(-1, 2),
        traces[None],
        np.ones((1, len(traces)), dtype=bool),
        beta,
    )
    return float(penalty[0]), [
        MwtpStep(int(t[0]), int(i[0]), float(d[0]), bool(c[0]), (float(a[0, 0]), float(a[0, 1])))
        for t, i, d, c, a in steps
    ]
