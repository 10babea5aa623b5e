"""The sensor model: field of view, measurement noise and observations.

Sensors carry an axis-aligned square footprint centered on the agent and a
range-bearing noise model: measurement covariance grows with range and is
oriented along the sensor-to-target bearing. A target is seen when it is in
the footprint (in_fov) and not occluded (OcclusionForest.occludes); the
sensing loop and the planner's rollouts both decide it with these two.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .worldgen import OcclusionForest


@dataclass(frozen=True)
class AgentState:
    """Sensor pose (px, py, psi, vx, vy) plus sensing parameters.

    fov_edge is the side length of the square footprint, alpha the
    per-sensor quality factor and r0 the minimal effective range.
    """

    px: float
    py: float
    psi: float = 0.0
    vx: float = 0.0
    vy: float = 0.0
    fov_edge: float = 20.0
    alpha: float = 0.1
    r0: float = 1.0

    def __post_init__(self) -> None:
        if self.fov_edge <= 0 or self.alpha <= 0 or self.r0 <= 0:
            raise ValueError("fov_edge, alpha and r0 must all be positive")

    @property
    def position(self) -> np.ndarray:
        return np.array([self.px, self.py])

    @property
    def half_width(self) -> float:
        return self.fov_edge / 2.0


@dataclass(frozen=True)
class Observation:
    """Position measurement of one identified target with its covariance."""

    target_id: int
    z: np.ndarray = field(repr=False)  # (2,)
    R: np.ndarray = field(repr=False)  # (2, 2)


def in_fov(offset: np.ndarray, half_width: float | np.ndarray) -> np.ndarray:
    """Mask over target-minus-agent offsets (..., 2) inside the closed square
    of the given half width (broadcast against offset[..., 0])."""
    d = np.abs(offset)
    return (d[..., 0] <= half_width) & (d[..., 1] <= half_width)


def observation_covariance(
    agent: AgentState, target_pos: tuple[float, float] | np.ndarray
) -> np.ndarray:
    """Range-bearing measurement covariance.

    With range r clamped below at r0 and bearing rho from agent to target:
    R = alpha * G(rho) @ diag(0.1 r, 0.1 pi r) @ G(rho)^T, G the 2-D
    rotation. Eigenvalues are therefore 0.1*alpha*r along the bearing and
    0.1*pi*alpha*r across it.
    """
    dx = target_pos[0] - agent.px
    dy = target_pos[1] - agent.py
    r = max(math.hypot(dx, dy), agent.r0)
    rho = math.atan2(dy, dx)
    c, s = math.cos(rho), math.sin(rho)
    g = np.array([[c, -s], [s, c]])
    core = np.diag([0.1 * r, 0.1 * math.pi * r])
    return agent.alpha * (g @ core @ g.T)


def _range_bearing_cov_batch(delta: np.ndarray, alpha: float, r0: float) -> np.ndarray:
    """observation_covariance in closed form for sensor-to-target offsets (M, 2).

    The rollouts use this form and sense the scalar one. The two differ in
    the last bits, so switching sense would change every logged trial, and
    switching the rollouts would slow them."""
    dx, dy = delta[:, 0], delta[:, 1]
    rng_true = np.hypot(dx, dy)
    r = np.maximum(rng_true, r0)
    safe = rng_true > 0.0
    denom = np.where(safe, rng_true, 1.0)
    c = np.where(safe, dx / denom, 1.0)
    s = np.where(safe, dy / denom, 0.0)
    k = 0.1 * alpha * r
    pi = math.pi
    out = np.empty((len(delta), 2, 2))
    out[:, 0, 0] = k * (c * c + pi * s * s)
    out[:, 1, 1] = k * (s * s + pi * c * c)
    off = k * (1.0 - pi) * c * s
    out[:, 0, 1] = off
    out[:, 1, 0] = off
    return out


def sense(
    agents: list[AgentState],
    truths: list[tuple[int, np.ndarray]],
    forest: OcclusionForest,
    rng: np.random.Generator,
) -> list[list[Observation]]:
    """Generate per-agent observations of every target in the agent's FoV and
    not occluded.

    Detection is perfect within that region (no misses, no false alarms) and
    observations are tagged with the true target id. Noise is Gaussian with
    the range-bearing covariance, drawn agent by agent, then target by target.
    """
    pos = np.array([(s[0], s[1]) for _, s in truths], dtype=float).reshape(-1, 2)
    fov = np.array([(a.px, a.py, a.half_width) for a in agents]).reshape(-1, 3)
    visible = in_fov(pos - fov[:, None, :2], fov[:, 2:])
    if visible.any():
        visible &= ~forest.occludes(pos)
    out: list[list[Observation]] = []
    for agent, row in zip(agents, visible.tolist()):
        out.append([])
        for t in compress(range(len(row)), row):
            cov = observation_covariance(agent, pos[t])
            z = pos[t] + np.linalg.cholesky(cov) @ rng.standard_normal(2)
            out[-1].append(Observation(target_id=truths[t][0], z=z, R=cov))
    return out
