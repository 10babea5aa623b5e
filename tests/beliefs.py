"""A FleetBelief built from per-track (target id, mean, covariance) triples."""
import numpy as np

from trackplan import FleetBelief


def belief_of(tracks, agents):
    """The belief holding ``tracks``, each (target id, xi (4,), P (4, 4)), in order."""
    ids, xi, p = zip(*tracks) if tracks else ((), (), ())
    return FleetBelief(
        target_ids=tuple(ids),
        xi=np.reshape(xi, (-1, 4)).astype(float),
        P=np.reshape(p, (-1, 4, 4)).astype(float),
        agents=tuple(agents),
    )
