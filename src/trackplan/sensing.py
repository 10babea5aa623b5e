"""Field-of-view geometry, occlusion tests and noisy position observations.

Sensors carry an axis-aligned square footprint centered on the agent and a
range-bearing noise model: measurement covariance grows with range and is
oriented along the sensor-to-target bearing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def in_fov(point: tuple[float, float], agent: AgentState) -> bool:
    """Closed-boundary membership test of the square footprint."""
    hw = agent.half_width
    return abs(point[0] - agent.px) <= hw and abs(point[1] - agent.py) <= hw


def is_observable(point: tuple[float, float], agent: AgentState, forest: OcclusionForest) -> bool:
    """True iff the point is in the agent's FoV and not inside a shadow disk.

    The FoV boundary counts as inside; a disk boundary counts as outside
    the shadow, so points exactly on a circle remain observable.
    """
    return in_fov(point, agent) and not forest.occludes(point[0], point[1])


def observation_covariance(agent: AgentState, target_pos: tuple[float, float]) -> np.ndarray:
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


def sense(
    agents: list[AgentState],
    truths: list[tuple[int, np.ndarray]],
    forest: OcclusionForest,
    rng: np.random.Generator,
    noise_scale: float = 1.0,
) -> list[list[Observation]]:
    """Generate per-agent observations of every observable target.

    Detection is perfect within the observable region (no misses, no false
    alarms) and observations are tagged with the true target id. Noise is
    Gaussian with the range-bearing covariance; noise_scale=0 yields exact
    positions while keeping the reported covariance intact.
    """
    out: list[list[Observation]] = []
    for agent in agents:
        obs_list: list[Observation] = []
        for target_id, state in truths:
            pos = (float(state[0]), float(state[1]))
            if not is_observable(pos, agent, forest):
                continue
            cov = observation_covariance(agent, pos)
            noise = np.linalg.cholesky(cov) @ rng.standard_normal(2)
            z = np.array(pos) + noise_scale * noise
            obs_list.append(Observation(target_id=target_id, z=z, R=cov))
        out.append(obs_list)
    return out
