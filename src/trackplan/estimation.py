"""Nearly-constant-velocity Kalman filtering and multi-sensor fusion.

Each target carries an independent 4-state (px, py, vx, vy) Gaussian
track. The fleet belief holds them as stacks, means (T, 4) and
covariances (T, 4, 4), and predict and update work on such stacks.
Fusion applies every agent's observations to the shared belief; because
position measurements are linear, sequential updates are order-invariant
up to floating-point noise.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .sensing import Observations, Sensor

class TrackAssociationError(KeyError):
    """An observation referenced a target id with no existing track."""


@dataclass(frozen=True)
class NcvModel:
    """Discrete nearly-constant-velocity model (transition F, noise Q)."""

    F: np.ndarray = field(repr=False)
    Q: np.ndarray = field(repr=False)
    dt: float


def _check_tracks(target_ids: Sequence[int], xi: np.ndarray, p: np.ndarray) -> None:
    n = len(target_ids)
    if np.shape(xi) != (n, 4) or np.shape(p) != (n, 4, 4):
        raise ValueError(f"{n} target ids need means ({n}, 4) and covariances ({n}, 4, 4), "
                         f"got {np.shape(xi)} and {np.shape(p)}")


@dataclass(frozen=True)
class FleetBelief:
    """Shared fleet belief: track target_ids[t] has mean xi[t] (4,) and
    covariance P[t] (4, 4); agent i stands at xy[i] (2,) and senses with
    sensors[i]."""

    target_ids: tuple[int, ...]
    xi: np.ndarray = field(repr=False)  # (T, 4)
    P: np.ndarray = field(repr=False)  # (T, 4, 4)
    xy: np.ndarray = field(repr=False)  # (n, 2)
    sensors: tuple[Sensor, ...]

    def __post_init__(self) -> None:
        if len(set(self.target_ids)) != len(self.target_ids):
            raise ValueError(f"duplicate target ids in belief: {self.target_ids}")
        _check_tracks(self.target_ids, self.xi, self.P)
        n = len(self.sensors)
        if np.shape(self.xy) != (n, 2):
            raise ValueError(f"{n} sensors need positions xy ({n}, 2), got {np.shape(self.xy)}")


def ncv_model(dt: float, sigma_a: float) -> NcvModel:
    """Build F and Q for a given step and white-acceleration scale."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    f = np.eye(4)
    f[0, 2] = f[1, 3] = dt
    d2, d3, d4 = dt * dt, dt**3 / 2.0, dt**4 / 4.0
    q = sigma_a**2 * np.array(
        [
            [d4, 0.0, d3, 0.0],
            [0.0, d4, 0.0, d3],
            [d3, 0.0, d2, 0.0],
            [0.0, d3, 0.0, d2],
        ]
    )
    return NcvModel(F=f, Q=q, dt=dt)


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return (p + p.swapaxes(-1, -2)) / 2.0


def _apply(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x for each row x (..., n) of a stack, as one matrix-vector product each."""
    return (m @ x[..., None])[..., 0]


def predict(xi: np.ndarray, p: np.ndarray, model: NcvModel) -> tuple[np.ndarray, np.ndarray]:
    """Kalman time update of stacked tracks, means (T, 4) and covariances
    (T, 4, 4): xi <- F xi, P <- F P F^T + Q."""
    return _apply(model.F, xi), _symmetrize(model.F @ p @ model.F.T + model.Q)


def update(
    xi: np.ndarray, p: np.ndarray, z: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Kalman measurement update of stacked tracks by one position
    measurement each, z (M, 2) of covariance r (M, 2, 2).

    Uses the Joseph-form covariance update so P stays symmetric PSD even
    after long predict/update chains. A singular innovation covariance
    (impossible for positive-definite R) raises numpy.linalg.LinAlgError.
    """
    s = p[..., :2, :2] + r
    k = np.linalg.solve(s.swapaxes(-1, -2), p[..., :2].swapaxes(-1, -2)).swapaxes(-1, -2)
    xi_new = xi + _apply(k, z - xi[..., :2])
    a = np.broadcast_to(np.eye(4), p.shape).copy()
    a[..., :2] -= k
    p_new = _symmetrize(a @ p @ a.swapaxes(-1, -2) + k @ r @ k.swapaxes(-1, -2))
    return xi_new, p_new


def fuse(
    per_agent_observations: list[Observations], target_ids: Sequence[int],
    xi: np.ndarray, p: np.ndarray, model: NcvModel,
) -> tuple[np.ndarray, np.ndarray]:
    """One predict of the tracks of target_ids, means xi (T, 4) and
    covariances p (T, 4, 4), then each agent's observations in agent order.

    A batch names each target at most once, as sense's do, so it updates
    distinct tracks in one step; a batch that names one twice raises
    ValueError. Sequential Joseph-form updates realize centralized
    (converged information) fusion directly. The inputs are not modified.
    """
    _check_tracks(target_ids, xi, p)
    index = {tid: row for row, tid in enumerate(target_ids)}
    xi, p = predict(xi, p, model)
    for obs in per_agent_observations:
        if not len(obs):
            continue
        ids = obs.target_ids.tolist()
        try:
            rows = [index[tid] for tid in ids]
        except KeyError as err:
            message = f"observation of unknown target id {err.args[0]}"
            raise TrackAssociationError(message) from None
        if len(set(rows)) != len(rows):
            raise ValueError(f"one observation batch names a target twice: ids {ids}")
        xi[rows], p[rows] = update(xi[rows], p[rows], obs.z, obs.R)
    return xi, p
