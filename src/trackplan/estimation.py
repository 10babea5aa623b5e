"""Nearly-constant-velocity Kalman filtering and multi-sensor fusion.

Each target carries an independent 4-state (px, py, vx, vy) Gaussian
track. Fusion applies every agent's observations to a shared fleet
belief; because position measurements are linear, sequential updates are
order-invariant up to floating-point noise.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .sensing import AgentState, Observation
from .worldgen import DEFAULT_P0

H_POS = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


class TrackAssociationError(KeyError):
    """An observation referenced a target id with no existing track."""


@dataclass(frozen=True)
class NcvModel:
    """Discrete nearly-constant-velocity model (transition F, noise Q)."""

    F: np.ndarray = field(repr=False)
    Q: np.ndarray = field(repr=False)
    dt: float


@dataclass(frozen=True)
class TargetTrack:
    """Posterior Gaussian of one target: mean xi (4,) and covariance P (4,4)."""

    target_id: int
    xi: np.ndarray = field(repr=False)
    P: np.ndarray = field(repr=False)

    @property
    def trace(self) -> float:
        return float(np.trace(self.P))


@dataclass(frozen=True)
class FleetBelief:
    """Shared fleet belief: all tracks plus the agent states, timestamped."""

    tracks: tuple[TargetTrack, ...]
    agents: tuple[AgentState, ...]
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        ids = [t.target_id for t in self.tracks]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate target ids in belief: {ids}")

    def track_index(self) -> dict[int, int]:
        return {t.target_id: i for i, t in enumerate(self.tracks)}


def ncv_model(dt: float, sigma_a: float) -> NcvModel:
    """Build F and Q for a given step and white-acceleration scale."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    f = np.array(
        [
            [1.0, 0.0, dt, 0.0],
            [0.0, 1.0, 0.0, dt],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
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
    return (p + p.T) / 2.0


def predict(track: TargetTrack, model: NcvModel) -> TargetTrack:
    """Kalman time update: xi <- F xi, P <- F P F^T + Q."""
    xi = model.F @ track.xi
    p = _symmetrize(model.F @ track.P @ model.F.T + model.Q)
    return replace(track, xi=xi, P=p)


def update(track: TargetTrack, obs: Observation) -> TargetTrack:
    """Kalman measurement update with the position-selecting H.

    Uses the Joseph-form covariance update so P stays symmetric PSD even
    after long predict/update chains. A singular innovation covariance
    (impossible for positive-definite R) raises numpy.linalg.LinAlgError.
    """
    p = track.P
    s = H_POS @ p @ H_POS.T + obs.R
    k = np.linalg.solve(s.T, (p @ H_POS.T).T).T
    xi = track.xi + k @ (obs.z - H_POS @ track.xi)
    a = np.eye(4) - k @ H_POS
    p_new = _symmetrize(a @ p @ a.T + k @ obs.R @ k.T)
    return replace(track, xi=xi, P=p_new)


def initialize_track(target_id: int, position: np.ndarray) -> TargetTrack:
    """New track at a known position with zero velocity prior."""
    xi = np.array([position[0], position[1], 0.0, 0.0])
    return TargetTrack(target_id=target_id, xi=xi, P=np.diag(DEFAULT_P0).astype(float))


def fuse(
    per_agent_observations: list[list[Observation]],
    belief: FleetBelief,
    model: NcvModel,
) -> FleetBelief:
    """One predict per track, then apply every agent's observations.

    Sequential Joseph-form updates realize centralized (converged
    information) fusion directly.
    """
    index = belief.track_index()
    tracks = [predict(t, model) for t in belief.tracks]
    for agent_obs in per_agent_observations:
        for obs in agent_obs:
            if obs.target_id not in index:
                raise TrackAssociationError(
                    f"observation of unknown target id {obs.target_id}"
                )
            i = index[obs.target_id]
            tracks[i] = update(tracks[i], obs)
    return FleetBelief(
        tracks=tuple(tracks), agents=belief.agents, timestamp=belief.timestamp + model.dt
    )
