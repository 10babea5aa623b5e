"""Test agents and the FleetBelief built from them and from per-track triples."""
from typing import NamedTuple

import numpy as np

from trackplan import FleetBelief, Sensor


class Agent(NamedTuple):
    """Where one agent stands, (2,), and its sensor."""

    xy: np.ndarray
    sensor: Sensor


def agent_at(x, y, fov_edge=20.0, alpha=0.1, r0=1.0):
    return Agent(np.array([x, y], dtype=float), Sensor(fov_edge, alpha, r0))


def belief_of(tracks, agents):
    """The belief holding ``tracks``, each (target id, xi (4,), P (4, 4)), and
    ``agents``, each an Agent, in order."""
    ids, xi, p = zip(*tracks) if tracks else ((), (), ())
    return FleetBelief(
        target_ids=tuple(ids),
        xi=np.reshape(xi, (-1, 4)).astype(float),
        P=np.reshape(p, (-1, 4, 4)).astype(float),
        xy=np.reshape([a.xy for a in agents], (-1, 2)),
        sensors=tuple(a.sensor for a in agents),
    )


def start_agents(config):
    """The agents run_trial starts with: evenly spaced along the AOI midline."""
    n = config.n_agents
    return [
        agent_at(config.aoi.width * (i + 1) / (n + 1), config.aoi.height / 2.0, f, a, config.r0)
        for i, (f, a) in enumerate(zip(config.fov_edges, config.alphas))
    ]
