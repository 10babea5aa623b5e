"""The sensor model: field of view, measurement noise and observations.

A Sensor holds one agent's sensing parameters and no pose: an axis-aligned
square footprint centered on the agent and a range-bearing noise model,
whose measurement covariance grows with range and is oriented along the
sensor-to-target bearing. Where the agents stand is an (n, 2) array that
callers pass alongside. A target is seen when it is in the footprint
(in_fov) and not occluded (OcclusionForest.occludes); the sensing loop and
the planner's rollouts both decide it with these two. sense returns one
Observations batch per agent, its measurements stacked.
"""
from __future__ import annotations

import bisect
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .worldgen import OcclusionForest


@dataclass(frozen=True)
class Sensor:
    """One agent's sensing parameters; where it stands is not part of it.

    fov_edge is the side length of the square footprint, alpha the
    per-sensor quality factor and r0 the minimal effective range.
    """

    fov_edge: float = 20.0
    alpha: float = 0.1
    r0: float = 1.0

    def __post_init__(self) -> None:
        if self.fov_edge <= 0 or self.alpha <= 0 or self.r0 <= 0:
            raise ValueError("fov_edge, alpha and r0 must all be positive")

    @property
    def half_width(self) -> float:
        return self.fov_edge / 2.0


@dataclass(frozen=True)
class Observations:
    """One agent's position measurements of identified targets, stacked:
    target_ids (M,), z (M, 2) and their covariances R (M, 2, 2)."""

    target_ids: np.ndarray = field(repr=False)
    z: np.ndarray = field(repr=False)
    R: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.target_ids)


_NO_OBSERVATIONS = Observations(np.zeros(0, dtype=int), np.zeros((0, 2)), np.zeros((0, 2, 2)))


def in_fov(dx: np.ndarray, dy: np.ndarray, half_width: float | np.ndarray) -> np.ndarray:
    """Mask over target-minus-agent offsets, given as their x and y planes
    dx and dy, inside the closed square of the given half width (all three
    broadcast together).

    |x| <= h is tested as -h <= x <= h, the same test without a float
    temporary the size of the offsets."""
    return (dx <= half_width) & (dx >= -half_width) & (dy <= half_width) & (dy >= -half_width)


def _covariances(delta: np.ndarray, sensors: Sequence[Sensor]) -> np.ndarray:
    """Range-bearing measurement covariances of sensor-to-target offsets
    delta (M, 2), offset j taken by sensors[j].

    With range r clamped below at r0 and bearing rho from sensor to target:
    R = alpha * G(rho) @ diag(0.1 r, 0.1 pi r) @ G(rho)^T, G the 2-D
    rotation. Eigenvalues are therefore 0.1*alpha*r along the bearing and
    0.1*pi*alpha*r across it. Range and bearing are taken in scalar math,
    the rotations as one stacked product.
    """
    g, core, alpha = [], [], []
    for (dx, dy), sensor in zip(delta.tolist(), sensors):
        r = max(math.hypot(dx, dy), sensor.r0)
        rho = math.atan2(dy, dx)
        c, s = math.cos(rho), math.sin(rho)
        g.append(((c, -s), (s, c)))
        core.append(((0.1 * r, 0.0), (0.0, 0.1 * math.pi * r)))
        alpha.append(sensor.alpha)
    g, core = np.array(g).reshape(-1, 2, 2), np.array(core).reshape(-1, 2, 2)
    return np.array(alpha)[:, None, None] * (g @ core @ g.transpose(0, 2, 1))


def _range_bearing_cov_batch(dx: np.ndarray, dy: np.ndarray, alpha: float, r0: float) -> np.ndarray:
    """_covariances in closed form, an (M, 2, 2) array, for sensor-to-target
    offsets with x and y planes dx and dy (M,).

    The rollouts use this form and sense the scalar one. The two differ in
    the last bits, so switching sense would change every logged trial, and
    switching the rollouts would slow them."""
    rng_true = np.hypot(dx, dy)
    r = np.maximum(rng_true, r0)
    safe = rng_true > 0.0
    denom = np.where(safe, rng_true, 1.0)
    c = np.where(safe, dx / denom, 1.0)
    s = np.where(safe, dy / denom, 0.0)
    k = 0.1 * alpha * r
    pi = math.pi
    out = np.empty((len(dx), 2, 2))
    out[:, 0, 0] = k * (c * c + pi * s * s)
    out[:, 1, 1] = k * (s * s + pi * c * c)
    off = k * (1.0 - pi) * c * s
    out[:, 0, 1] = off
    out[:, 1, 0] = off
    return out


def sense(
    sensors: Sequence[Sensor], xy: np.ndarray, target_ids: Sequence[int],
    target_xy: np.ndarray, forest: OcclusionForest, rng: np.random.Generator,
) -> list[Observations]:
    """Noisy observations, one batch per agent, of every target in the
    agent's FoV and not occluded.

    Agent i senses from xy[i] (n, 2) with the footprint, alpha and r0 of
    sensors[i]; target_ids[t] is at target_xy[t] (T, 2). Detection is perfect
    within that region (no misses, no false alarms) and observations are
    tagged with the true target id. Noise is Gaussian with the
    range-bearing covariance, drawn agent by agent, then target by target.
    """
    xy = np.asarray(xy, dtype=float).reshape(len(sensors), 2)
    pos = np.asarray(target_xy, dtype=float).reshape(len(target_ids), 2)
    half_widths = np.array([[s.half_width] for s in sensors])
    visible = in_fov(pos[:, 0] - xy[:, :1], pos[:, 1] - xy[:, 1:], half_widths)
    if visible.any():
        visible &= ~forest.occludes(pos)
    seer, seen = np.nonzero(visible)  # agent-then-target order
    if not len(seen):  # most steps: no draws, no batch arithmetic
        return [_NO_OBSERVATIONS] * len(sensors)
    seers = seer.tolist()
    r = _covariances(pos[seen] - xy[seer], [sensors[i] for i in seers])
    noise = rng.standard_normal((len(seen), 2))
    z = pos[seen] + (np.linalg.cholesky(r) @ noise[..., None])[..., 0]
    ids = np.array(target_ids, dtype=int)[seen]
    ends = [bisect.bisect_right(seers, i) for i in range(len(sensors))]
    return [
        Observations(ids[a:b], z[a:b], r[a:b]) if a < b else _NO_OBSERVATIONS
        for a, b in zip([0, *ends], ends)
    ]
